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

/// Source of ShardedBackboneEngine::instance_id_; 0 is never issued, so
/// a thread's empty table cache matches no engine.
std::atomic<uint64_t> next_instance_id{1};

/// An even split of a global byte budget (<= 0 stays "unlimited").
int64_t SplitBudget(int64_t total, int num_shards) {
  if (total <= 0) return total;
  return std::max<int64_t>(1, total / num_shards);
}

}  // namespace

ShardedBackboneEngine::ShardedBackboneEngine(const Options& options)
    : instance_id_(next_instance_id.fetch_add(1, std::memory_order_relaxed)),
      routing_(std::make_shared<const RoutingTable>()) {
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
}

void ShardedBackboneEngine::SelfHealRouting() {
  // What each restored shard actually holds decides the boot routing:
  // a fingerprint resident off its hash shard is a revision pinned to its
  // base's shard before the restart, and an override keeps it warm. The
  // hash owner wins when two shards hold a copy (no override needed);
  // otherwise the lowest holding shard index does.
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
  PublishTable(std::move(table));
}

const std::shared_ptr<const ShardedBackboneEngine::RoutingTable>&
ShardedBackboneEngine::CurrentTable() const {
  // One entry per thread: a thread that alternates between engines
  // reloads on every switch (dropping the other engine's table), which is
  // correct, only slower.
  struct Cached {
    uint64_t instance = 0;
    uint64_t version = 0;
    std::shared_ptr<const RoutingTable> table;
  };
  thread_local Cached cached;
  const uint64_t version = routing_version_.load(std::memory_order_acquire);
  if (cached.instance != instance_id_ || cached.version != version) {
    // The acquire above pairs with PublishTable's release bump, so this
    // load returns the table of `version` or a newer one; a newer one
    // only costs one more reload when its bump lands.
    cached.table = routing_.load(std::memory_order_acquire);
    cached.instance = instance_id_;
    cached.version = version;
  }
  return cached.table;
}

void ShardedBackboneEngine::PublishTable(
    std::shared_ptr<const RoutingTable> table) {
  routing_.store(std::move(table), std::memory_order_release);
  routing_version_.fetch_add(1, std::memory_order_release);
}

int ShardedBackboneEngine::RouteWith(const RoutingTable& table,
                                     uint64_t fingerprint) const {
  const auto it = table.overrides.find(fingerprint);
  if (it != table.overrides.end()) return it->second;
  return ShardByHash(fingerprint, shards_.size());
}

int ShardedBackboneEngine::ShardOf(uint64_t fingerprint) const {
  return RouteWith(*CurrentTable(), fingerprint);
}

uint64_t ShardedBackboneEngine::RoutingEpoch() const {
  return routing_version_.load(std::memory_order_acquire);
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
    std::lock_guard<std::mutex> lock(routing_mu_);
    const std::shared_ptr<const RoutingTable> table = Table();
    target = RouteWith(*table, base_fingerprint);
    if (RouteWith(*table, child) != target) {
      auto next = std::make_shared<RoutingTable>(*table);
      next->overrides[child] = target;
      PublishTable(std::move(next));
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
  return shards_[static_cast<size_t>(ShardOf(request.graph))]->Execute(
      request);
}

std::vector<Result<BackboneResponse>> ShardedBackboneEngine::ExecuteBatch(
    std::span<const BackboneRequest> requests) {
  // One routing table for the whole batch: every request routes under
  // the same epoch. Held by copy, so no later CurrentTable call on this
  // thread can drop it.
  const std::shared_ptr<const RoutingTable> table = CurrentTable();
  const size_t num_shards = shards_.size();
  std::vector<std::vector<BackboneRequest>> sub(num_shards);
  std::vector<std::vector<size_t>> origin(num_shards);
  int used = 0;
  int last_used = 0;
  for (size_t i = 0; i < requests.size(); ++i) {
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
  const std::shared_ptr<const RoutingTable> table = CurrentTable();
  const size_t num_shards = shards_.size();
  std::vector<std::vector<BackboneRequest>> sub(num_shards);
  std::vector<std::vector<size_t>> origin(num_shards);
  int used = 0;
  int last_used = 0;
  for (size_t i = 0; i < requests.size(); ++i) {
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

obs::MetricsSnapshot ShardedBackboneEngine::Metrics() const {
  // Three views in one snapshot: the unprefixed rollup (same-name
  // metrics merge across shards — counters sum, histograms merge
  // bucket-wise, both order-independent), each shard again under its
  // "shard<i>." namespace, and the router's own gauges. Every shard reads
  // its `fault.<site>.*` gauges from the one process-wide injector, so
  // they are not per-shard facts: they leave the shard views and the
  // router emits one copy.
  std::vector<obs::MetricsSnapshot> per_shard;
  per_shard.reserve(shards_.size());
  for (const auto& shard : shards_) {
    per_shard.push_back(shard->Metrics());
  }
  obs::MetricsSnapshot own;
  for (obs::MetricsSnapshot& snapshot : per_shard) {
    std::vector<obs::MetricsSnapshot::Value>& gauges = snapshot.gauges;
    const auto faults = std::stable_partition(
        gauges.begin(), gauges.end(),
        [](const obs::MetricsSnapshot::Value& v) {
          return !v.name.starts_with("fault.");
        });
    if (own.gauges.empty()) own.gauges.assign(faults, gauges.end());
    gauges.erase(faults, gauges.end());
  }
  obs::MetricsSnapshot out;
  for (const obs::MetricsSnapshot& snapshot : per_shard) {
    out.Merge(snapshot);
  }
  for (size_t i = 0; i < per_shard.size(); ++i) {
    out.Merge(
        per_shard[i].WithPrefix("shard" + std::to_string(i) + "."));
  }
  own.gauges.push_back(
      {"sharded.shards", static_cast<int64_t>(shards_.size())});
  own.gauges.push_back(
      {"sharded.routing_epoch", static_cast<int64_t>(RoutingEpoch())});
  own.gauges.push_back({"sharded.routing_overrides",
                        static_cast<int64_t>(
                            CurrentTable()->overrides.size())});
  out.Merge(own);
  return out;
}

}  // namespace netbone
