#include "service/sharded_engine.h"

#include <algorithm>
#include <optional>
#include <unordered_set>

#include "common/parallel.h"
#include "common/random.h"

namespace netbone {
namespace {

/// The default (hash) shard of a fingerprint — the route with no
/// override installed.
int ShardByHash(uint64_t fingerprint, size_t num_shards) {
  return static_cast<int>(Mix64(fingerprint) %
                          static_cast<uint64_t>(num_shards));
}

/// An even split of a global byte budget (<= 0 stays "unlimited").
int64_t SplitBudget(int64_t total, int num_shards) {
  if (total <= 0) return total;
  return std::max<int64_t>(1, total / num_shards);
}

}  // namespace

ShardedBackboneEngine::ShardedBackboneEngine(const Options& options)
    : options_(options), routing_(std::make_shared<const RoutingTable>()) {
  const int num_shards = std::max(1, options.num_shards);
  // Split the global figures N ways: each shard prices its own residency
  // against its slice of the budget and fans its scorings out over its
  // slice of the pool, so N shards cost what one global engine did.
  BackboneEngineOptions shard_options = options.engine;
  shard_options.cache_byte_budget =
      SplitBudget(options.engine.cache_byte_budget, num_shards);
  shard_options.graph_byte_budget =
      SplitBudget(options.engine.graph_byte_budget, num_shards);
  shard_options.num_threads = std::max(
      1, ResolveThreadCount(options.engine.num_threads) / num_shards);
  shards_.reserve(static_cast<size_t>(num_shards));
  for (int i = 0; i < num_shards; ++i) {
    if (!options.engine.snapshot_dir.empty()) {
      shard_options.snapshot_dir =
          options.engine.snapshot_dir + "/shard" + std::to_string(i);
    }
    shards_.push_back(std::make_unique<BackboneEngine>(shard_options));
  }
  SelfHealRouting();
  if (options_.rebalance_interval.count() > 0) {
    rebalancer_ = std::thread([this] { RebalancerLoop(); });
  }
}

ShardedBackboneEngine::~ShardedBackboneEngine() {
  if (rebalancer_.joinable()) {
    {
      std::lock_guard<std::mutex> lock(stop_mu_);
      shutdown_ = true;
    }
    stop_cv_.notify_all();
    rebalancer_.join();
  }
  // Shards destruct next (each drains its dispatcher and writes its own
  // shutdown snapshot into its subdirectory).
}

void ShardedBackboneEngine::SelfHealRouting() {
  // What each restored shard actually holds decides the boot routing:
  // a fingerprint resident off its hash shard was migrated there before
  // the restart, and an override keeps it warm. The hash owner wins when
  // two shards hold a copy (no override needed); otherwise the lowest
  // holding shard index does.
  const size_t num_shards = shards_.size();
  std::vector<std::vector<uint64_t>> resident(num_shards);
  std::unordered_set<uint64_t> hash_owned;
  for (size_t i = 0; i < num_shards; ++i) {
    resident[i] = shards_[i]->ResidentFingerprints();
    for (const uint64_t fingerprint : resident[i]) {
      if (ShardByHash(fingerprint, num_shards) == static_cast<int>(i)) {
        hash_owned.insert(fingerprint);
      }
    }
  }
  auto table = std::make_shared<RoutingTable>();
  for (size_t i = 0; i < num_shards; ++i) {
    for (const uint64_t fingerprint : resident[i]) {
      if (ShardByHash(fingerprint, num_shards) == static_cast<int>(i)) {
        continue;
      }
      if (hash_owned.count(fingerprint) > 0) continue;
      table->overrides.try_emplace(fingerprint, static_cast<int>(i));
    }
  }
  if (table->overrides.empty()) return;  // the fresh-boot table stands
  table->epoch = 1;
  routing_.store(std::move(table), std::memory_order_release);
}

int ShardedBackboneEngine::RouteWith(const RoutingTable& table,
                                     uint64_t fingerprint) const {
  const auto it = table.overrides.find(fingerprint);
  if (it != table.overrides.end()) return it->second;
  return ShardByHash(fingerprint, shards_.size());
}

int ShardedBackboneEngine::ShardOf(uint64_t fingerprint) const {
  return RouteWith(*Table(), fingerprint);
}

uint64_t ShardedBackboneEngine::RoutingEpoch() const {
  return Table()->epoch;
}

void ShardedBackboneEngine::RecordLoad(uint64_t fingerprint) {
  std::lock_guard<std::mutex> lock(load_mu_);
  if (fingerprint_load_.size() >= options_.max_tracked_fingerprints &&
      fingerprint_load_.find(fingerprint) == fingerprint_load_.end()) {
    // Bounded like the negative cache: overflow resets the table. The
    // cost is one cold rebalance window, never unbounded memory.
    fingerprint_load_.clear();
  }
  ++fingerprint_load_[fingerprint];
}

uint64_t ShardedBackboneEngine::AddGraph(Graph graph) {
  // The fingerprint decides the shard, so it is computed before the
  // graph moves — the target shard's Intern re-derives the same value
  // (one extra O(E) hash per upload, the router's price).
  const uint64_t fingerprint = GraphFingerprint(graph);
  return shards_[static_cast<size_t>(ShardOf(fingerprint))]->AddGraph(
      std::move(graph));
}

uint64_t ShardedBackboneEngine::AddGraphRevision(Graph graph,
                                                 uint64_t base_fingerprint) {
  const uint64_t child = GraphFingerprint(graph);
  int target;
  {
    // Writer path: the child is pinned to its base's shard so the
    // lineage record, the submission-time delta, and the warm ancestor
    // entries all live where the child's requests will land. The pin is
    // installed *before* the intern — a concurrent request on the child
    // either routes to the target (and coalesces there) or NotFounds,
    // never scores on a shard the family does not live on.
    std::lock_guard<std::mutex> lock(rebalance_mu_);
    const std::shared_ptr<const RoutingTable> table = Table();
    target = RouteWith(*table, base_fingerprint);
    if (RouteWith(*table, child) != target) {
      auto next = std::make_shared<RoutingTable>(*table);
      next->epoch = table->epoch + 1;
      next->overrides[child] = target;
      routing_.store(std::move(next), std::memory_order_release);
    }
  }
  return shards_[static_cast<size_t>(target)]->AddGraphRevision(
      std::move(graph), base_fingerprint);
}

std::shared_ptr<const Graph> ShardedBackboneEngine::FindGraph(
    uint64_t fingerprint) const {
  return shards_[static_cast<size_t>(ShardOf(fingerprint))]->FindGraph(
      fingerprint);
}

Result<BackboneResponse> ShardedBackboneEngine::Execute(
    const BackboneRequest& request) {
  RecordLoad(request.graph);
  return shards_[static_cast<size_t>(ShardOf(request.graph))]->Execute(
      request);
}

std::vector<Result<BackboneResponse>> ShardedBackboneEngine::ExecuteBatch(
    std::span<const BackboneRequest> requests) {
  // One routing table for the whole batch: every request routes under
  // the same epoch, so a concurrent migration cannot split the batch
  // across old and new owners of one fingerprint.
  const std::shared_ptr<const RoutingTable> table = Table();
  const size_t num_shards = shards_.size();
  std::vector<std::vector<BackboneRequest>> sub(num_shards);
  std::vector<std::vector<size_t>> origin(num_shards);
  int used = 0;
  int last_used = 0;
  for (size_t i = 0; i < requests.size(); ++i) {
    RecordLoad(requests[i].graph);
    const size_t s =
        static_cast<size_t>(RouteWith(*table, requests[i].graph));
    if (sub[s].empty()) ++used;
    last_used = static_cast<int>(s);
    sub[s].push_back(requests[i]);
    origin[s].push_back(i);
  }
  if (used <= 1) {
    // Single-shard batch (the common case under skewed traffic): no
    // scatter, the shard sees the original request order.
    return shards_[static_cast<size_t>(last_used)]->ExecuteBatch(requests);
  }
  std::vector<std::optional<Result<BackboneResponse>>> out(requests.size());
  for (size_t s = 0; s < num_shards; ++s) {
    if (sub[s].empty()) continue;
    std::vector<Result<BackboneResponse>> part =
        shards_[s]->ExecuteBatch(sub[s]);
    for (size_t j = 0; j < part.size(); ++j) {
      out[origin[s][j]] = std::move(part[j]);
    }
  }
  std::vector<Result<BackboneResponse>> results;
  results.reserve(out.size());
  for (auto& slot : out) results.push_back(std::move(*slot));
  return results;
}

std::future<std::vector<Result<BackboneResponse>>>
ShardedBackboneEngine::Submit(std::vector<BackboneRequest> requests) {
  const std::shared_ptr<const RoutingTable> table = Table();
  const size_t num_shards = shards_.size();
  std::vector<std::vector<BackboneRequest>> sub(num_shards);
  std::vector<std::vector<size_t>> origin(num_shards);
  int used = 0;
  int last_used = 0;
  for (size_t i = 0; i < requests.size(); ++i) {
    RecordLoad(requests[i].graph);
    const size_t s =
        static_cast<size_t>(RouteWith(*table, requests[i].graph));
    if (sub[s].empty()) ++used;
    last_used = static_cast<int>(s);
    sub[s].push_back(std::move(requests[i]));
    origin[s].push_back(i);
  }
  if (used <= 1) {
    // Whole batch on one shard: hand it to that shard's dispatcher
    // as-is — fully asynchronous, original order.
    return shards_[static_cast<size_t>(last_used)]->Submit(
        std::move(sub[static_cast<size_t>(last_used)]));
  }
  // Multi-shard batch: one sub-batch per shard, each queued on its own
  // dispatcher immediately (deadlines arm now, per the Submit contract).
  // The returned future gathers and scatters on get().
  struct Part {
    std::future<std::vector<Result<BackboneResponse>>> future;
    std::vector<size_t> origin;
  };
  std::vector<Part> parts;
  for (size_t s = 0; s < num_shards; ++s) {
    if (sub[s].empty()) continue;
    parts.push_back(
        Part{shards_[s]->Submit(std::move(sub[s])), std::move(origin[s])});
  }
  return std::async(
      std::launch::deferred,
      [parts = std::move(parts), total = requests.size()]() mutable {
        std::vector<std::optional<Result<BackboneResponse>>> out(total);
        for (Part& part : parts) {
          std::vector<Result<BackboneResponse>> results = part.future.get();
          for (size_t j = 0; j < results.size(); ++j) {
            out[part.origin[j]] = std::move(results[j]);
          }
        }
        std::vector<Result<BackboneResponse>> results;
        results.reserve(out.size());
        for (auto& slot : out) results.push_back(std::move(*slot));
        return results;
      });
}

void ShardedBackboneEngine::ClearNegativeCache() {
  for (const auto& shard : shards_) shard->ClearNegativeCache();
}

Status ShardedBackboneEngine::WriteSnapshotNow() {
  Status first = Status::OK();
  for (const auto& shard : shards_) {
    Status status = shard->WriteSnapshotNow();
    if (!status.ok() && first.ok()) first = status;
  }
  return first;
}

bool ShardedBackboneEngine::MigrateFamilyLocked(
    std::span<const uint64_t> family, int source, int target) {
  // Export -> import -> swap. The source keeps everything until the
  // retirement one cycle later, so a request routed under the old table
  // an instant before the swap still finds its state.
  const std::string blob =
      shards_[static_cast<size_t>(source)]->ExportFingerprintState(family);
  Result<SnapshotRestoreReport> imported =
      shards_[static_cast<size_t>(target)]->ImportFingerprintState(blob);
  if (!imported.ok()) {
    // Abandoned: routing untouched, the source still serves the family.
    // (The target may hold a partial import; it is unreachable by
    // routing and its bytes age out of the target's LRU budgets.)
    ++migration_failures_;
    return false;
  }
  const std::shared_ptr<const RoutingTable> table = Table();
  auto next = std::make_shared<RoutingTable>(*table);
  next->epoch = table->epoch + 1;
  for (const uint64_t fingerprint : family) {
    if (ShardByHash(fingerprint, shards_.size()) == target) {
      next->overrides.erase(fingerprint);  // home again: hash suffices
    } else {
      next->overrides[fingerprint] = target;
    }
  }
  routing_.store(std::move(next), std::memory_order_release);
  pending_retire_.emplace_back(
      source, std::vector<uint64_t>(family.begin(), family.end()));
  ++migrations_;
  return true;
}

int ShardedBackboneEngine::RebalanceNow() {
  std::lock_guard<std::mutex> cycle(rebalance_mu_);
  ++rebalance_cycles_;
  // Grace period expired: families whose routing moved last cycle are
  // retired from their old shards now.
  for (const auto& [shard, family] : pending_retire_) {
    shards_[static_cast<size_t>(shard)]->RetireFingerprints(family);
  }
  pending_retire_.clear();

  const int num_shards = static_cast<int>(shards_.size());
  if (num_shards < 2) return 0;
  std::unordered_map<uint64_t, int64_t> loads;
  {
    std::lock_guard<std::mutex> lock(load_mu_);
    loads = fingerprint_load_;
  }
  if (loads.empty()) return 0;

  // Deterministic inputs, deterministic decisions: loads are bucketed by
  // the current route, and every pick below breaks ties by lowest shard
  // index / lowest fingerprint — the same trace yields the same
  // migrations at any thread count.
  std::vector<int64_t> shard_load(static_cast<size_t>(num_shards), 0);
  std::vector<std::vector<std::pair<uint64_t, int64_t>>> by_shard(
      static_cast<size_t>(num_shards));
  {
    const std::shared_ptr<const RoutingTable> table = Table();
    for (const auto& [fingerprint, count] : loads) {
      const size_t s =
          static_cast<size_t>(RouteWith(*table, fingerprint));
      shard_load[s] += count;
      by_shard[s].emplace_back(fingerprint, count);
    }
  }
  for (auto& bucket : by_shard) {
    std::sort(bucket.begin(), bucket.end(),
              [](const auto& a, const auto& b) {
                if (a.second != b.second) return a.second > b.second;
                return a.first < b.first;
              });
  }

  int migrated = 0;
  std::unordered_set<uint64_t> attempted;
  while (migrated < options_.max_migrations_per_cycle) {
    int source = 0;
    int target = 0;
    for (int s = 1; s < num_shards; ++s) {
      if (shard_load[static_cast<size_t>(s)] >
          shard_load[static_cast<size_t>(source)]) {
        source = s;
      }
      if (shard_load[static_cast<size_t>(s)] <
          shard_load[static_cast<size_t>(target)]) {
        target = s;
      }
    }
    const int64_t source_load = shard_load[static_cast<size_t>(source)];
    const int64_t target_load = shard_load[static_cast<size_t>(target)];
    if (source == target ||
        static_cast<double>(source_load) <=
            options_.rebalance_load_ratio *
                static_cast<double>(target_load)) {
      break;  // balanced enough
    }
    // Hottest not-yet-attempted fingerprint on the hot shard.
    uint64_t candidate = 0;
    bool found = false;
    for (const auto& [fingerprint, count] :
         by_shard[static_cast<size_t>(source)]) {
      if (attempted.count(fingerprint) == 0) {
        candidate = fingerprint;
        found = true;
        break;
      }
    }
    if (!found) break;
    // The whole lineage family moves together (or not at all), so the
    // delta warm path survives on the target. Members already routed
    // elsewhere are excluded defensively; the co-location invariant
    // makes that set empty in practice.
    std::vector<uint64_t> family =
        shards_[static_cast<size_t>(source)]->LineageFamily(candidate);
    {
      const std::shared_ptr<const RoutingTable> table = Table();
      std::erase_if(family, [&](uint64_t fingerprint) {
        return RouteWith(*table, fingerprint) != source;
      });
    }
    int64_t family_load = 0;
    for (const uint64_t fingerprint : family) {
      attempted.insert(fingerprint);
      const auto it = loads.find(fingerprint);
      if (it != loads.end()) family_load += it->second;
    }
    if (family.empty()) continue;
    // Only move when it actually narrows the gap — migrating a family
    // hotter than the whole imbalance would just swap which shard burns.
    if (family_load <= 0 || family_load >= source_load - target_load) {
      continue;
    }
    if (!MigrateFamilyLocked(family, source, target)) continue;
    shard_load[static_cast<size_t>(source)] -= family_load;
    shard_load[static_cast<size_t>(target)] += family_load;
    ++migrated;
  }
  return migrated;
}

void ShardedBackboneEngine::RebalancerLoop() {
  std::unique_lock<std::mutex> lock(stop_mu_);
  while (!shutdown_) {
    if (stop_cv_.wait_for(lock, options_.rebalance_interval,
                          [this] { return shutdown_; })) {
      break;
    }
    lock.unlock();
    RebalanceNow();
    lock.lock();
  }
}

obs::MetricsSnapshot ShardedBackboneEngine::Metrics() const {
  // Three views in one snapshot: the unprefixed rollup (same-name
  // metrics merge across shards — counters sum, histograms merge
  // bucket-wise, both order-independent), each shard again under its
  // "shard<i>." namespace, and the router's own gauges.
  std::vector<obs::MetricsSnapshot> per_shard;
  per_shard.reserve(shards_.size());
  for (const auto& shard : shards_) {
    per_shard.push_back(shard->Metrics());
  }
  obs::MetricsSnapshot out;
  for (const obs::MetricsSnapshot& snapshot : per_shard) {
    out.Merge(snapshot);
  }
  for (size_t i = 0; i < per_shard.size(); ++i) {
    out.Merge(
        per_shard[i].WithPrefix("shard" + std::to_string(i) + "."));
  }
  obs::MetricsSnapshot own;
  const std::shared_ptr<const RoutingTable> table = Table();
  own.gauges.push_back(
      {"sharded.shards", static_cast<int64_t>(shards_.size())});
  own.gauges.push_back(
      {"sharded.routing_epoch", static_cast<int64_t>(table->epoch)});
  own.gauges.push_back({"sharded.routing_overrides",
                        static_cast<int64_t>(table->overrides.size())});
  {
    std::lock_guard<std::mutex> lock(rebalance_mu_);
    own.gauges.push_back({"sharded.migrations", migrations_});
    own.gauges.push_back(
        {"sharded.migration_failures", migration_failures_});
    own.gauges.push_back({"sharded.rebalance_cycles", rebalance_cycles_});
  }
  out.Merge(own);
  return out;
}

}  // namespace netbone
