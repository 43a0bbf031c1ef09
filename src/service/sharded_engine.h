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
// The request path writes no cache line that another thread writes.
//   * Routing: each thread caches the table it last loaded (a
//     thread-local shared_ptr keyed on the engine instance) and reloads
//     it from the atomic slot only when the routing version, an atomic
//     counter every table swap bumps, has moved. A request reads that
//     counter and nothing else shared; loading the atomic shared_ptr
//     itself would lock and bump the control block, one shared write per
//     request. The swapping thread sees its own swap on its next request.
//     The cache keeps its last table (a small immutable override map)
//     alive until that thread next routes or exits, even past the
//     engine's destruction.
//   * Load counts: each request bumps its fingerprint's count in its own
//     thread slot's table (obs::ThreadSlot(), as ShardedCounter spreads
//     its slots), under that slot's mutex — uncontended unless two
//     running threads' slot numbers meet modulo kLoadSlots. Only the
//     first count of a fingerprint in a slot touches the shared entry
//     total that enforces max_tracked_fingerprints. RebalanceNow sums the
//     slots, so below that bound its inputs are the exact per-fingerprint
//     request counts.
//
// Rebalance epoch protocol. Per-fingerprint request counters feed a
// rebalancer (periodic via Options::rebalance_interval, or on demand via
// RebalanceNow) that migrates the hottest fingerprint *families* — the
// lineage-connected component, so ancestors move with their children —
// from overloaded to underloaded shards:
//
//   1. the source shard serializes the family (graph + cached scores +
//      lineage) with the snapshot section codecs (checksummed bytes);
//   2. the target shard imports it — strictly: a blob that does not
//      decode cleanly aborts the migration and the source keeps serving;
//   3. the routing table is copied, the family's overrides rewritten,
//      and the new table swapped in with a bumped epoch — readers that
//      routed under the old epoch keep valid shard references (the
//      source still holds the state);
//   4. the source retires the family one rebalance cycle *later* (the
//      grace period): any request routed just before the swap has long
//      finished, and shared_ptr handles keep in-flight artifacts alive
//      regardless. A straggler re-inserting a score into the source
//      cache post-retirement wastes bytes, never correctness — the
//      router no longer answers that shard.
//
// Boot: construction restores each shard from its own snapshot
// subdirectory, then self-heals the routing table — any fingerprint
// found resident off its hash shard (a pre-restart migration) gets an
// override pointing at the shard that holds it, so migrated state stays
// warm across restarts (hash owner wins when two shards hold a copy;
// otherwise the lowest shard index).

#ifndef NETBONE_SERVICE_SHARDED_ENGINE_H_
#define NETBONE_SERVICE_SHARDED_ENGINE_H_

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
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

  /// When > 0, a background thread runs a rebalance cycle roughly this
  /// often. 0 (the default) leaves rebalancing to explicit RebalanceNow
  /// calls — the deterministic mode the tests use.
  std::chrono::milliseconds rebalance_interval{0};

  /// A rebalance cycle migrates only while the hottest shard carries
  /// more than this multiple of the coldest shard's load (and only while
  /// moving the candidate family actually shrinks the gap).
  double rebalance_load_ratio = 2.0;

  /// Cap on family migrations per rebalance cycle, so one cycle never
  /// churns the whole keyspace.
  int max_migrations_per_cycle = 4;

  /// Bound on the load-count entries all thread slots hold together: one
  /// entry per (slot, fingerprint) counted, so between this many /
  /// ShardedBackboneEngine::kLoadSlots and this many distinct
  /// fingerprints fit. The entry that would cross it resets every slot
  /// at once (like the negative cache): the cost is one cold rebalance
  /// window, never unbounded memory. Below the bound the summed counts
  /// are exact.
  size_t max_tracked_fingerprints = 65536;
};

/// N BackboneEngine shards behind a fingerprint router with hot-shard
/// rebalance. Mirrors the BackboneEngine request API; safe for
/// concurrent use from any number of threads.
class ShardedBackboneEngine {
 public:
  using Options = ShardedBackboneEngineOptions;

  /// Load-count slots: one per obs::ThreadSlot() modulo this count.
  static constexpr size_t kLoadSlots = obs::ShardedCounter::kShards;

  explicit ShardedBackboneEngine(const Options& options = {});
  ~ShardedBackboneEngine();

  ShardedBackboneEngine(const ShardedBackboneEngine&) = delete;
  ShardedBackboneEngine& operator=(const ShardedBackboneEngine&) = delete;

  int num_shards() const { return static_cast<int>(shards_.size()); }

  /// The shard currently routing `fingerprint` — a pure function of the
  /// fingerprint and the current routing table.
  int ShardOf(uint64_t fingerprint) const;

  /// The current routing epoch (0 at a fresh boot; every table swap —
  /// revision pinning, migration, boot self-heal — bumps it).
  uint64_t RoutingEpoch() const;

  /// Interns on the fingerprint's shard; returns the fingerprint.
  uint64_t AddGraph(Graph graph);

  /// Interns on the *base's* shard and pins the child there with a
  /// routing override (epoch bump) when its hash shard differs — the
  /// co-location that keeps lineage families, and therefore the delta
  /// warm path, on one shard.
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

  /// One rebalance cycle, synchronously: retires families migrated in
  /// the *previous* cycle (the grace period), then migrates hot families
  /// while the load ratio holds. Returns the number of families moved.
  /// Serialized with the periodic rebalancer; safe from any thread.
  int RebalanceNow();

  /// The shards' metrics three ways in one snapshot: the unprefixed
  /// rollup (same-name metrics merged across shards: counters and gauges
  /// sum, histograms merge), each shard again under "shard<i>.", and the
  /// router's own gauges `sharded.{shards, routing_epoch,
  /// routing_overrides, migrations, migration_failures,
  /// rebalance_cycles, rebalance_load}`, the last being the request
  /// count the latest rebalance cycle summed. Each shard contributes one
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
    uint64_t epoch = 0;
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
  /// batch paths, Metrics) copies the shared_ptr — one refcount bump.
  const std::shared_ptr<const RoutingTable>& CurrentTable() const;
  /// Swaps in a new table and bumps the routing version. Writers only:
  /// under rebalance_mu_, or in the constructor.
  void PublishTable(std::shared_ptr<const RoutingTable> table);
  /// Routing under a specific table (the pure function).
  int RouteWith(const RoutingTable& table, uint64_t fingerprint) const;

  /// Bumps the fingerprint's request count in this thread's load slot.
  void RecordLoad(uint64_t fingerprint);
  /// Clears every load slot, then counts `fingerprint` once: the
  /// overflow path of RecordLoad. Locks the slots in index order.
  void ResetLoadSlots(uint64_t fingerprint);

  /// Builds the boot-time override set from what each restored shard
  /// actually holds. Constructor only, single-threaded.
  void SelfHealRouting();

  /// One family migration: export from `source`, import into `target`,
  /// swap the routing table, queue the source-side retirement. False
  /// when the import failed (counted; routing untouched).
  /// Precondition: rebalance_mu_ held.
  bool MigrateFamilyLocked(std::span<const uint64_t> family, int source,
                           int target);

  void RebalancerLoop();

  const Options options_;
  std::vector<std::unique_ptr<BackboneEngine>> shards_;

  /// Process-unique id that keys the thread-local table cache, so an
  /// engine built where a destroyed one lived never reads its table.
  const uint64_t instance_id_;

  /// Writers (revision pinning, migration, self-heal) serialize on
  /// rebalance_mu_, copy, edit, bump the epoch, and PublishTable.
  /// Readers load it only when routing_version_ has moved.
  std::atomic<std::shared_ptr<const RoutingTable>> routing_;
  std::atomic<uint64_t> routing_version_{0};

  /// Serializes routing-table writers and whole rebalance cycles; also
  /// guards the pending retirement list and the migration counters.
  mutable std::mutex rebalance_mu_;
  /// Families whose routing already moved, awaiting retirement on their
  /// old shard at the next cycle (the grace period).
  std::vector<std::pair<int, std::vector<uint64_t>>> pending_retire_;
  int64_t migrations_ = 0;
  int64_t migration_failures_ = 0;
  int64_t rebalance_cycles_ = 0;
  int64_t rebalance_load_ = 0;  ///< requests the latest cycle summed

  /// Per-fingerprint request counts since the last reset, one table per
  /// thread slot — summed, the rebalancer's only input. Below
  /// max_tracked_fingerprints the sums are the exact counts, so rebalance
  /// decisions are a deterministic function of the request trace; when
  /// an overflow reset lands depends on how requests spread over slots.
  struct alignas(64) LoadSlot {
    std::mutex mu;
    std::unordered_map<uint64_t, int64_t> counts;
  };
  std::array<LoadSlot, kLoadSlots> load_slots_;
  /// Entries across all slots; changed only under a slot's mutex (a new
  /// entry) or under every slot's mutex (a reset).
  alignas(64) std::atomic<size_t> tracked_entries_{0};

  /// Periodic rebalancer (only when rebalance_interval > 0).
  std::mutex stop_mu_;
  std::condition_variable stop_cv_;
  bool shutdown_ = false;
  std::thread rebalancer_;
};

}  // namespace netbone

#endif  // NETBONE_SERVICE_SHARDED_ENGINE_H_
