// Copyright 2026 The netbone Authors.
//
// Content-addressed graph residency for the serving layer. A long-lived
// backbone server sees the same networks submitted over and over (the
// paper's score-once / threshold-many workflow, issued by many clients);
// the GraphStore gives every canonical graph a stable 64-bit fingerprint
// and keeps exactly one resident copy per distinct content, so repeated
// submissions dedupe to a shared_ptr bump instead of a second multi-MB
// edge table. The fingerprint is also the graph half of every ScoreCache
// key (service/score_cache.h).
//
// Residency is optionally bounded: under a byte budget (common/bytes.h
// accounting via ApproxGraphBytes) the least-recently-used unpinned
// graphs are evicted first, so multi-tenant churn cannot grow resident
// bytes without bound. Pins are in-flight refcounts: the engine pins a
// graph while a scoring on it runs, and pinned graphs are never evicted
// (the budget is exceeded rather than dropping a graph mid-use).
// Eviction only drops the store's reference — outstanding shared_ptr
// handles (requests, cached scores) stay valid; the evicted fingerprint
// simply stops resolving until the graph is re-interned.

#ifndef NETBONE_SERVICE_GRAPH_STORE_H_
#define NETBONE_SERVICE_GRAPH_STORE_H_

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/random.h"  // Mix64, the shared hash diffusion step
#include "obs/metrics.h"
#include "common/result.h"
#include "graph/delta.h"
#include "graph/graph.h"

namespace netbone {

/// Stable content fingerprint over the canonical edge table: two Graphs
/// hash equal iff they describe the same weighted network. For labeled
/// graphs the hash is computed over label-ranked node ids, so it does not
/// depend on the order in which labels were interned at build time (the
/// same CSV loaded in a different row order fingerprints identically).
/// Unlabeled graphs hash their dense-id edge table directly — dense ids
/// are the identity of their nodes. Collisions are possible in principle
/// (64-bit) and accepted: the store treats equal fingerprints as equal
/// content.
uint64_t GraphFingerprint(const Graph& graph);

/// Approximate resident heap bytes of a Graph (edge table, marginal
/// arrays, labels + label index), priced with the common/bytes.h
/// accounting. Used for the store's resident_bytes gauge and any byte
/// budgeting above it.
int64_t ApproxGraphBytes(const Graph& graph);

/// A graph resident in a GraphStore: its fingerprint plus a shared
/// handle. The handle keeps the graph alive independently of the store.
struct StoredGraph {
  uint64_t fingerprint = 0;
  std::shared_ptr<const Graph> graph;
};

/// Thread-safe content-addressed store with optional LRU-under-byte-
/// budget eviction. Intern() is the only way in: submitting a graph whose
/// fingerprint is already resident returns the existing copy and drops
/// the new one. Intern() and Find() both count as uses for recency.
class GraphStore {
 public:
  /// byte_budget <= 0 means unlimited (no eviction) — the default.
  explicit GraphStore(int64_t byte_budget = 0);
  GraphStore(const GraphStore&) = delete;
  GraphStore& operator=(const GraphStore&) = delete;

  /// Fingerprints `graph` and either adopts it (first submission) or
  /// returns the already-resident copy with the same content. Either way
  /// the graph becomes most-recently-used; an insert that pushes the
  /// store past its budget evicts least-recently-used unpinned graphs
  /// (never the one just interned — it is the most recent).
  StoredGraph Intern(Graph graph);

  /// The resident graph with this fingerprint (marked most-recently-used)
  /// or nullptr.
  std::shared_ptr<const Graph> Find(uint64_t fingerprint) const;

  /// Sparse difference between two resident graphs, computed over their
  /// canonical sorted edge tables (graph/delta.h) — the submission-time
  /// hook for callers tracking graph revisions. NotFound when either
  /// fingerprint is not resident; both graphs count as used (recency).
  Result<GraphDelta> DeltaBetween(uint64_t base_fingerprint,
                                  uint64_t next_fingerprint) const;

  /// Drops a resident graph (outstanding shared_ptrs stay valid), pinned
  /// or not — Erase is the explicit admin override, not the budget path.
  /// Returns false when the fingerprint is unknown.
  bool Erase(uint64_t fingerprint);

  /// In-flight refcount: while a fingerprint holds pins the budget never
  /// evicts it. No-op when the fingerprint is not resident. Balance every
  /// Pin with one Unpin.
  void Pin(uint64_t fingerprint);
  void Unpin(uint64_t fingerprint);

  /// Changes the budget (<= 0 = unlimited) and trims immediately.
  void set_byte_budget(int64_t byte_budget);

  /// All resident graphs, least-recently-used first and without touching
  /// recency — the snapshot writer's enumeration order (restoring by
  /// re-Intern in sequence reproduces the same LRU order).
  std::vector<StoredGraph> ResidentGraphs() const;

  /// Registers this store's counters and occupancy as one gauge group
  /// (`graphs` resident, `resident_bytes` by ApproxGraphBytes, `inserts`
  /// that added a graph, `dedup_hits` answered by a resident, budget
  /// `evictions`, `byte_budget`), read under a single lock acquisition so
  /// a snapshot never tears, and its operation latency histograms
  /// (intern/evict, populated only while set_metrics_timing(true)) under
  /// `<prefix>.<name>`. Find is not
  /// timed: a clock pair would cost about as much as the call, and a
  /// traced request's cache_lookup span already covers it. The caller
  /// owns unregistration via the `owner` cookie.
  void RegisterMetrics(obs::MetricRegistry& registry,
                       const std::string& prefix, const void* owner);

  /// Turns on latency recording for Intern and eviction.
  void set_metrics_timing(bool on) {
    metrics_timing_.store(on, std::memory_order_relaxed);
  }

 private:
  struct Entry {
    std::shared_ptr<const Graph> graph;
    int64_t bytes = 0;
    int64_t pins = 0;
    std::list<uint64_t>::iterator lru_it;
  };

  /// Moves the entry to the MRU front. Precondition: mu_ held.
  void TouchLocked(Entry& entry) const;
  /// Evicts LRU-first unpinned entries until the budget holds (or only
  /// pinned / kept entries remain). `keep` exempts one fingerprint — the
  /// graph Intern is in the middle of handing back. Precondition: mu_
  /// held.
  void TrimLocked(std::optional<uint64_t> keep = std::nullopt);

  mutable std::mutex mu_;
  int64_t byte_budget_;
  // Logically-const bookkeeping: Find() refreshes recency.
  mutable std::list<uint64_t> lru_;  // front = most recently used
  mutable std::unordered_map<uint64_t, Entry> graphs_;
  int64_t resident_bytes_ = 0;
  int64_t inserts_ = 0;
  int64_t dedup_hits_ = 0;
  int64_t evictions_ = 0;

  std::atomic<bool> metrics_timing_{false};
  obs::LatencyHistogram intern_ns_;  ///< Intern latency (fingerprint + insert)
  obs::LatencyHistogram evict_ns_;   ///< per-Trim latency when it evicted
};

}  // namespace netbone

#endif  // NETBONE_SERVICE_GRAPH_STORE_H_
