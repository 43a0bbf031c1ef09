// Copyright 2026 The netbone Authors.
//
// N-shard serving: a ShardedBackboneEngine owns N independent
// BackboneEngines and routes every request to exactly one of them by
// graph fingerprint. Each shard is a complete engine — its own scheduler
// thread slice, its own ScoreCache / GraphStore byte budgets (the global
// budgets split N ways), its own snapshot subdirectory, its own metric
// namespace — so shards share no locks on the request path and warm
// throughput scales with shard count while every response stays
// bit-identical to a single-engine deployment (the bench gate in
// bench/bench_sharded_serving.cc).
//
// Routing invariant: a fingerprint's shard is a pure function of
// (fingerprint, routing table) — default shard Mix64(fp) % N, overridden
// by an explicit entry in the table. Everything keyed on a fingerprint
// lands together: graph uploads, AddGraphRevision lineage (the child is
// *pinned to its base's shard* via an override, so the delta warm path
// never crosses shards), and all request kinds, including
// kStabilityPoint, whose next_graph is co-resident exactly when it was
// registered as a revision of the request graph. The table is immutable
// and swapped atomically, so routing is deterministic at any thread
// count: the same (upload trace, routing epoch) pair answers the same
// shard everywhere.
//
// The request path writes no cache line that another thread writes. Each
// thread caches the table it last loaded (a thread-local shared_ptr keyed
// on the engine instance) and reloads it from the atomic slot only when
// the routing version, an atomic counter every table swap bumps, has
// moved. A request reads that counter and nothing else shared; loading
// the atomic shared_ptr itself would lock and bump the control block, one
// shared write per request. The swapping thread sees its own swap on its
// next request. The cache keeps its last table (a small immutable
// override map) alive until that thread next routes or exits, even past
// the engine's destruction.
//
// Boot: construction restores each shard from its own snapshot
// subdirectory, then self-heals the routing table. The overrides are not
// persisted, so a revision pinned to its base's shard would otherwise
// boot routed to its hash shard, which does not hold it. Self-heal gives
// every fingerprint found resident off its hash shard an override
// pointing at the shard that holds it, so pinned revisions stay warm
// across restarts (the hash owner wins when two shards hold a copy;
// otherwise the lowest shard index).

#ifndef NETBONE_SERVICE_SHARDED_ENGINE_H_
#define NETBONE_SERVICE_SHARDED_ENGINE_H_

#include <atomic>
#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <span>
#include <unordered_map>
#include <vector>

#include "obs/metrics.h"
#include "service/engine.h"

namespace netbone {

/// Options for ShardedBackboneEngine.
struct ShardedBackboneEngineOptions {
  /// Number of engine shards (clamped to >= 1). 1 behaves exactly like a
  /// bare BackboneEngine behind the router.
  int num_shards = 1;

  /// Template for every shard. The byte budgets (cache_byte_budget,
  /// graph_byte_budget) and the thread count are *global* figures, split
  /// evenly across shards by the constructor; snapshot_dir is the root
  /// under which each shard gets its own "shard<i>" subdirectory.
  /// Everything else applies to each shard verbatim.
  BackboneEngineOptions engine;
};

/// N BackboneEngine shards behind a fingerprint router. Mirrors the
/// BackboneEngine request API; safe for concurrent use from any number of
/// threads.
class ShardedBackboneEngine {
 public:
  using Options = ShardedBackboneEngineOptions;

  explicit ShardedBackboneEngine(const Options& options = {});

  ShardedBackboneEngine(const ShardedBackboneEngine&) = delete;
  ShardedBackboneEngine& operator=(const ShardedBackboneEngine&) = delete;

  int num_shards() const { return static_cast<int>(shards_.size()); }

  /// The shard currently routing `fingerprint` — a pure function of the
  /// fingerprint and the current routing table.
  int ShardOf(uint64_t fingerprint) const;

  /// The current routing epoch (0 at a fresh boot; every table swap —
  /// boot self-heal, revision pinning — bumps it).
  uint64_t RoutingEpoch() const;

  /// Interns on the fingerprint's shard; returns the fingerprint.
  uint64_t AddGraph(Graph graph);

  /// Interns on the *base's* shard, which derives the child's
  /// fingerprint from the base's in O(churn), then pins the child there
  /// with a routing override (epoch bump) when its hash shard differs —
  /// the co-location that keeps lineage families, and therefore the delta
  /// warm path, on one shard. The router hashes nothing itself.
  uint64_t AddGraphRevision(Graph graph, uint64_t base_fingerprint);

  /// The resident graph on the fingerprint's shard, or nullptr.
  std::shared_ptr<const Graph> FindGraph(uint64_t fingerprint) const;

  /// Routes to the request graph's shard and executes there.
  Result<BackboneResponse> Execute(const BackboneRequest& request);

  /// Partitions the batch by shard, executes each sub-batch on its
  /// shard, and scatters the results back into request order. Responses
  /// are bit-identical to executing the batch on a 1-shard engine.
  std::vector<Result<BackboneResponse>> ExecuteBatch(
      std::span<const BackboneRequest> requests);

  /// Routes the batch like ExecuteBatch. A batch touching one shard (the
  /// common case under fingerprint-skewed traffic) forwards to that
  /// shard's dispatcher directly; a multi-shard batch fans out one
  /// sub-batch per shard and gathers on the returned future's get().
  std::future<std::vector<Result<BackboneResponse>>> Submit(
      std::vector<BackboneRequest> requests);

  /// Forwards to every shard.
  void ClearNegativeCache();

  /// Snapshots every shard into its own subdirectory; first failure wins
  /// (remaining shards still attempt).
  Status WriteSnapshotNow();

  /// The shards' metrics three ways in one snapshot: the unprefixed
  /// rollup (same-name metrics merged across shards: counters and gauges
  /// sum, histograms merge), each shard again under "shard<i>.", and the
  /// router's own gauges `sharded.{shards, routing_epoch,
  /// routing_overrides}`. Each shard contributes one
  /// BackboneEngine::Metrics() snapshot, so the rollup never mixes two
  /// instants of the same cache or store.
  obs::MetricsSnapshot Metrics() const;

  /// Direct shard access for tests and diagnostics.
  BackboneEngine& shard(int index) { return *shards_[static_cast<size_t>(index)]; }
  const BackboneEngine& shard(int index) const {
    return *shards_[static_cast<size_t>(index)];
  }

 private:
  /// Immutable routing state, swapped wholesale: readers load the
  /// current table and never observe a partial edit.
  struct RoutingTable {
    std::unordered_map<uint64_t, int> overrides;  // fingerprint -> shard
  };

  /// Writers' view: the table in the atomic slot, owned by the caller.
  std::shared_ptr<const RoutingTable> Table() const {
    return routing_.load(std::memory_order_acquire);
  }
  /// Readers' view: this thread's cached table, reloaded only when the
  /// routing version moved. The returned reference points into the
  /// thread's cache and is valid only until this thread's next
  /// CurrentTable call on any engine: single lookups dereference it at
  /// once, and a caller that holds the table across other calls (the
  /// batch paths) copies the shared_ptr — one refcount bump.
  const std::shared_ptr<const RoutingTable>& CurrentTable() const;
  /// Swaps in a new table and bumps the routing version. Writers only:
  /// under routing_mu_, or in the constructor.
  void PublishTable(std::shared_ptr<const RoutingTable> table);
  /// Routing under a specific table (the pure function).
  int RouteWith(const RoutingTable& table, uint64_t fingerprint) const;

  /// Builds the boot-time override set from what each restored shard
  /// actually holds. Constructor only, single-threaded.
  void SelfHealRouting();

  std::vector<std::unique_ptr<BackboneEngine>> shards_;

  /// Process-unique id that keys the thread-local table cache, so an
  /// engine built where a destroyed one lived never reads its table.
  const uint64_t instance_id_;

  /// Writers (revision pinning, self-heal) serialize on routing_mu_,
  /// copy, edit, and PublishTable. Readers load it only when
  /// routing_version_ has moved; the version doubles as the routing
  /// epoch.
  std::atomic<std::shared_ptr<const RoutingTable>> routing_;
  std::atomic<uint64_t> routing_version_{0};

  /// Serializes routing-table writers.
  std::mutex routing_mu_;
};

}  // namespace netbone

#endif  // NETBONE_SERVICE_SHARDED_ENGINE_H_
