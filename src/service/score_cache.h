// Copyright 2026 The netbone Authors.
//
// Content-addressed score cache for the serving layer. Scoring is the
// expensive half of every backbone request (NC/DF integrals, the HSS
// Dijkstra fan-out); thresholding a cached score is O(E) and answering a
// coverage point from a cached sweep profile is O(1). The cache therefore
// holds, per (graph fingerprint, method, scoring options) key, the
// amortizable artifact chain: the ScoredEdges table and its one-sort
// ScoreOrder permutation, built with the entry, and the SweepProfile of
// the single linear pass, built lazily — once, by the first caller that
// needs it (CachedScore::profile). A request that asks one point of a
// fresh entry is answered without it, in O(k + V) (EvaluatePrefix,
// core/sweep.h); a warm entry answers with zero rescoring and zero sorts
// (pinned by ScoreOrder::SortsPerformed in the tests and the serving
// benchmark).
//
// Residency is LRU under a byte budget: entries are priced with the
// common/bytes.h accounting and the least-recently-used entries are
// dropped first once the budget is exceeded. Hit / miss / eviction
// counters feed the engine's metrics (the `cache.*` gauges).

#ifndef NETBONE_SERVICE_SCORE_CACHE_H_
#define NETBONE_SERVICE_SCORE_CACHE_H_

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/random.h"  // Mix64, the shared hash diffusion step
#include "obs/metrics.h"
#include "common/result.h"
#include "core/registry.h"
#include "core/scored_edges.h"
#include "core/sweep.h"
#include "graph/graph.h"

namespace netbone {

/// The scoring knobs that change a method's output and therefore belong
/// in the cache key. RunMethodOptions::num_threads is deliberately NOT
/// here: every method is bit-identical for every thread count (the PR 1/2
/// determinism contract), so scores computed at different thread counts
/// are interchangeable cache content.
struct ScoreOptions {
  /// Forwarded to HighSalienceSkeletonOptions::max_cost. Part of the key
  /// because the guard decides whether HSS runs at all.
  int64_t hss_max_cost = 0;
  /// Forwarded to HighSalienceSkeletonOptions::source_sample_size.
  int64_t hss_source_sample_size = 0;
  /// Forwarded to HighSalienceSkeletonOptions::sample_seed.
  uint64_t hss_sample_seed = 42;

  friend bool operator==(const ScoreOptions&, const ScoreOptions&) = default;
};

/// Cache key: which graph, which method, which scoring options.
struct ScoreKey {
  uint64_t graph = 0;  ///< GraphFingerprint of an interned graph
  Method method = Method::kNoiseCorrected;
  ScoreOptions options;

  friend bool operator==(const ScoreKey&, const ScoreKey&) = default;
};

/// Canonical key construction: scoring knobs that cannot affect `method`
/// are reset to their defaults, so e.g. two NoiseCorrected requests that
/// differ only in (irrelevant) HSS sampling knobs share one cache entry
/// instead of scoring twice. Always build keys through this helper.
inline ScoreKey MakeScoreKey(uint64_t graph, Method method,
                             ScoreOptions options) {
  if (method != Method::kHighSalienceSkeleton) options = ScoreOptions{};
  return ScoreKey{graph, method, options};
}

/// Hash for ScoreKey (same Mix64 diffusion as the graph fingerprint).
struct ScoreKeyHash {
  size_t operator()(const ScoreKey& key) const {
    uint64_t h = Mix64(key.graph);
    h = Mix64(h ^ static_cast<uint64_t>(key.method));
    h = Mix64(h ^ static_cast<uint64_t>(key.options.hss_max_cost));
    h = Mix64(h ^ static_cast<uint64_t>(key.options.hss_source_sample_size));
    h = Mix64(h ^ key.options.hss_sample_seed);
    return static_cast<size_t>(h);
  }
};

/// Cached value: one method's scores on one graph plus the derived
/// one-sort artifacts. Immutable once built, except that the sweep
/// profile is filled in lazily, once (profile()). Holds a shared_ptr to
/// the graph so the ScoredEdges' interior pointer stays valid for the
/// entry's lifetime (entries can outlive a GraphStore eviction).
class CachedScore {
 public:
  /// How an entry was produced when it came from the incremental path:
  /// which ancestor it patched and how much of the table was actually
  /// rescored. Kept (and byte-accounted) so operators can audit delta
  /// efficiency per entry.
  struct DeltaProvenance {
    uint64_t base_fingerprint = 0;  ///< ancestor graph the patch started from
    int64_t dirty_edges = 0;        ///< edges rescored (the affected set)
    int64_t total_edges = 0;        ///< edges in this entry's table
  };

  /// Builds the artifact chain: moves `scored` in and computes the
  /// ScoreOrder (the one sort, on `num_threads` workers; 0 = hardware
  /// concurrency). The sweep profile is left for profile() to build.
  /// Precondition: scored.graph() is *graph.
  static std::shared_ptr<const CachedScore> Build(
      std::shared_ptr<const Graph> graph, ScoredEdges scored,
      int num_threads = 0);

  /// Builds the artifact chain incrementally from an ancestor entry: the
  /// ScoreOrder is patched (remove + merge over `base.order()`, zero
  /// global sorts — see ScoreOrder's patch constructor). The sweep profile
  /// is left for profile() to build, from the patched order. `num_threads`
  /// only sizes the full sort the patch falls back to on inconsistent
  /// inputs. Preconditions: scored.graph() is *graph, `scored` was
  /// produced by DeltaRescore against base.scored(), and base_to_next /
  /// dirty are that rescore's bookkeeping. The result is bit-identical to
  /// Build(graph, full rescore).
  static std::shared_ptr<const CachedScore> BuildPatched(
      std::shared_ptr<const Graph> graph, ScoredEdges scored,
      const CachedScore& base, std::span<const EdgeId> base_to_next,
      std::span<const EdgeId> dirty, uint64_t base_fingerprint,
      int num_threads = 0);

  /// Rebuilds an entry from snapshotted artifacts (service/snapshot.h):
  /// the stored permutation is adopted through ScoreOrder::FromPermutation
  /// (validated in O(E), zero sorts). Snapshots carry no profile, so a
  /// restored entry is like a fresh one: profile() builds it from the
  /// validated order on first use. Corruption when the permutation fails
  /// validation. Precondition: scored.graph() is *graph.
  static Result<std::shared_ptr<const CachedScore>> Restore(
      std::shared_ptr<const Graph> graph, ScoredEdges scored,
      std::vector<EdgeId> order_ids,
      std::optional<DeltaProvenance> provenance);

  const Graph& graph() const { return *graph_; }
  const ScoredEdges& scored() const { return scored_; }
  const ScoreOrder& order() const { return *order_; }

  /// The sweep profile of order(), and the only place an entry's profile
  /// is produced, whether the entry was built, patched or restored. The
  /// first call builds it (BuildSweepProfile, one O(E a(E)) pass, which
  /// records the graph's connectivity) and sets *built when `built` is
  /// given; later calls read it in O(1). Thread-safe: concurrent first
  /// callers build it exactly once, the others wait for that build. The
  /// build runs on the calling thread and spawns no pool tasks, so a pool
  /// task that waits for it cannot deadlock the pool.
  const SweepProfile& profile(bool* built = nullptr) const;

  /// The sweep profile when profile() has built it, else nullptr. Never
  /// builds.
  const SweepProfile* built_profile() const {
    return profile_ready_.load(std::memory_order_acquire) ? &profile_
                                                          : nullptr;
  }

  /// Set when this entry was produced by the incremental path; nullptr
  /// for cold-scored entries.
  const DeltaProvenance* delta_provenance() const {
    return provenance_.has_value() ? &*provenance_ : nullptr;
  }

  /// Heap bytes of the score table + order + profile + delta metadata
  /// (the graph is accounted by the GraphStore, not double-counted here).
  /// The profile is priced at its 16 bytes per edge whether or not it was
  /// built yet, so an entry's price never moves while it is cached.
  int64_t bytes() const { return bytes_; }

 private:
  CachedScore() = default;

  /// Byte pricing, once the order is in place.
  void PriceBytes();

  std::shared_ptr<const Graph> graph_;
  ScoredEdges scored_;
  std::optional<ScoreOrder> order_;  // built in place after scored_ settles
  // The lazily built profile, beside the order a warm hit also reads:
  // written once under profile_once_, then only read; profile_ready_
  // publishes it to built_profile().
  mutable std::atomic<bool> profile_ready_{false};
  mutable SweepProfile profile_;
  mutable std::once_flag profile_once_;
  std::optional<DeltaProvenance> provenance_;
  int64_t bytes_ = 0;
};

/// Thread-safe LRU cache of CachedScore entries under a byte budget. It
/// holds and prices score entries only; revision lineage lives on the
/// GraphStore entries (service/graph_store.h).
class ScoreCache {
 public:
  /// byte_budget <= 0 means unlimited.
  explicit ScoreCache(int64_t byte_budget) : byte_budget_(byte_budget) {}

  ScoreCache(const ScoreCache&) = delete;
  ScoreCache& operator=(const ScoreCache&) = delete;

  /// Returns the entry and marks it most-recently-used, or nullptr
  /// (counted as a miss).
  std::shared_ptr<const CachedScore> Get(const ScoreKey& key);

  /// As Get but without hit/miss accounting (recency still refreshes):
  /// the delta path's ancestor probe, which is bookkept by the engine's
  /// own delta counters instead of distorting the request-facing hit
  /// rate.
  std::shared_ptr<const CachedScore> Peek(const ScoreKey& key);

  /// Inserts (or replaces) the entry as most-recently-used, then evicts
  /// least-recently-used entries until the budget holds again. The budget
  /// is strict: an entry larger than the whole budget is evicted
  /// immediately (the caller's shared_ptr keeps it usable for the
  /// in-flight request).
  void Put(const ScoreKey& key, std::shared_ptr<const CachedScore> score);

  /// All resident entries, least-recently-used first and without touching
  /// recency — the snapshot writer's enumeration order, chosen so a
  /// restore that re-Puts in sequence reproduces the LRU order (the last
  /// Put is the most recent, exactly as before the snapshot).
  std::vector<std::pair<ScoreKey, std::shared_ptr<const CachedScore>>>
  Entries() const;

  /// Registers this cache's counters and occupancy as one gauge group
  /// (`hits`, `misses`, `evictions`, `entries`, `bytes`, `byte_budget`,
  /// `insert_failures` — the last counts Puts the fault-injection harness
  /// dropped, always 0 in production), read under a single lock
  /// acquisition so a snapshot never tears, and its operation latency
  /// histograms (put/evict, populated only while
  /// set_metrics_timing(true)) under `<prefix>.<name>`. Get is not
  /// timed: a clock pair would cost about as much as a hit, and a traced
  /// request's cache_lookup span already covers it. The caller owns
  /// unregistration via the `owner` cookie.
  void RegisterMetrics(obs::MetricRegistry& registry,
                       const std::string& prefix, const void* owner);

  /// Turns on latency recording for Put and eviction (two clock reads
  /// per operation). Off by default so uninstrumented users pay nothing.
  void set_metrics_timing(bool on) {
    metrics_timing_.store(on, std::memory_order_relaxed);
  }

 private:
  void TrimLocked();
  std::shared_ptr<const CachedScore> GetLocked(const ScoreKey& key);

  using LruList =
      std::list<std::pair<ScoreKey, std::shared_ptr<const CachedScore>>>;

  // Its own cache line: every request locks it (Get), so a neighbour
  // sharing the line would bounce between the request threads.
  alignas(64) mutable std::mutex mu_;
  const int64_t byte_budget_;
  int64_t bytes_ = 0;
  int64_t hits_ = 0;
  int64_t misses_ = 0;
  int64_t evictions_ = 0;
  int64_t insert_failures_ = 0;
  LruList lru_;  // front = most recently used
  std::unordered_map<ScoreKey, LruList::iterator, ScoreKeyHash> index_;

  std::atomic<bool> metrics_timing_{false};
  obs::LatencyHistogram put_ns_;    ///< Put latency (including any trim)
  obs::LatencyHistogram evict_ns_;  ///< per-Trim latency when it evicted
};

}  // namespace netbone

#endif  // NETBONE_SERVICE_SCORE_CACHE_H_
