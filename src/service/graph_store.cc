#include "service/graph_store.h"

#include <algorithm>
#include <bit>
#include <string>
#include <utility>
#include <vector>

#include "common/bytes.h"

namespace netbone {
namespace {

// The fingerprint is a header term plus a sum, mod 2^64, of independent
// terms: one per edge, and one per node label for labeled graphs. Each
// term domain has its own salt, so no term can stand in for another.
// "netbone2" names the fingerprint version; change it with the format.
constexpr uint64_t kHeaderSalt = 0x6e6574626f6e6532ULL;
constexpr uint64_t kEdgeSalt = 0x9ae16a3b2f90404fULL;
constexpr uint64_t kLabeledEndsSalt = 0xc3a5c85c97cb3127ULL;
constexpr uint64_t kNodeSalt = 0xb492b66fbe98f273ULL;

/// The counts and flags, chained: O(1) per graph.
uint64_t HeaderTerm(const Graph& graph) {
  uint64_t h = Mix64(kHeaderSalt ^ (graph.directed() ? 1 : 2));
  h = Mix64(h ^ static_cast<uint64_t>(graph.num_nodes()));
  h = Mix64(h ^ static_cast<uint64_t>(graph.num_edges()));
  return Mix64(h ^ (graph.has_labels() ? 1 : 0));
}

/// One edge: its endpoints packed into 64 bits, then its weight's bit
/// pattern (so +0.0 and -0.0 hash apart, as the delta tells them apart).
uint64_t EdgeTerm(uint64_t ends, double weight) {
  return Mix64(Mix64(ends ^ kEdgeSalt) ^ std::bit_cast<uint64_t>(weight));
}

/// Dense ids are an unlabeled graph's node identity.
uint64_t DenseEnds(const Edge& e) {
  return static_cast<uint64_t>(static_cast<uint32_t>(e.src)) << 32 |
         static_cast<uint32_t>(e.dst);
}

/// FNV-1a over the bytes, with the length mixed in.
uint64_t LabelHash(const std::string& label) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : label) {
    h = (h ^ static_cast<unsigned char>(c)) * 0x100000001b3ULL;
  }
  return Mix64(h ^ static_cast<uint64_t>(label.size()));
}

uint64_t NodeTerm(uint64_t label_hash) {
  return Mix64(label_hash ^ kNodeSalt);
}

/// A labeled graph names an edge by its endpoints' label hashes, an
/// ordered pair if directed and (min, max) if not, so interning order
/// does not matter.
uint64_t LabeledEnds(uint64_t src_hash, uint64_t dst_hash, bool directed) {
  if (!directed && src_hash > dst_hash) std::swap(src_hash, dst_hash);
  return Mix64(src_hash ^ kLabeledEndsSalt) ^ dst_hash;
}

/// The term of edge `id` of `graph`.
uint64_t TermOf(const Graph& graph, EdgeId id, double weight) {
  const Edge& e = graph.edge(id);
  if (!graph.has_labels()) return EdgeTerm(DenseEnds(e), weight);
  const std::vector<std::string>& labels = graph.labels();
  return EdgeTerm(LabeledEnds(LabelHash(labels[static_cast<size_t>(e.src)]),
                              LabelHash(labels[static_cast<size_t>(e.dst)]),
                              graph.directed()),
                  weight);
}

/// GraphFingerprint(next) from GraphFingerprint(base) and the delta
/// ComputeGraphDelta(base, next) returned: O(churn) terms, plus, for
/// labeled graphs, the labels of nodes past the shared prefix. The delta
/// guarantees the two graphs agree on directedness and on every label of
/// that prefix, so the terms it does not name are equal in both sums.
uint64_t DeriveFingerprint(uint64_t base_fingerprint, const Graph& base,
                           const Graph& next, const GraphDelta& delta) {
  uint64_t fingerprint = base_fingerprint - HeaderTerm(base) + HeaderTerm(next);
  for (const EdgeWeightChange& change : delta.changed) {
    fingerprint += TermOf(next, change.next_id, change.next_weight) -
                   TermOf(base, change.base_id, change.base_weight);
  }
  for (const EdgeId id : delta.deleted) {
    fingerprint -= TermOf(base, id, base.edge(id).weight);
  }
  for (const EdgeId id : delta.inserted) {
    fingerprint += TermOf(next, id, next.edge(id).weight);
  }
  if (next.has_labels()) {
    const NodeId shared = std::min(base.num_nodes(), next.num_nodes());
    for (NodeId v = shared; v < base.num_nodes(); ++v) {
      fingerprint -= NodeTerm(LabelHash(base.labels()[static_cast<size_t>(v)]));
    }
    for (NodeId v = shared; v < next.num_nodes(); ++v) {
      fingerprint += NodeTerm(LabelHash(next.labels()[static_cast<size_t>(v)]));
    }
  }
  return fingerprint;
}

}  // namespace

uint64_t GraphFingerprint(const Graph& graph) {
  // No term depends on another, so the sum has no dependency chain: the
  // core overlaps the mixes of neighbouring edges.
  uint64_t sum = HeaderTerm(graph);
  if (!graph.has_labels()) {
    for (const Edge& e : graph.edges()) sum += EdgeTerm(DenseEnds(e), e.weight);
    return sum;
  }
  std::vector<uint64_t> label_hash;
  label_hash.reserve(graph.labels().size());
  for (const std::string& label : graph.labels()) {
    label_hash.push_back(LabelHash(label));
    sum += NodeTerm(label_hash.back());
  }
  for (const Edge& e : graph.edges()) {
    sum += EdgeTerm(LabeledEnds(label_hash[static_cast<size_t>(e.src)],
                                label_hash[static_cast<size_t>(e.dst)],
                                graph.directed()),
                    e.weight);
  }
  return sum;
}

int64_t ApproxGraphBytes(const Graph& graph) {
  const int64_t n = graph.num_nodes();
  int64_t bytes = static_cast<int64_t>(sizeof(Graph));
  bytes += graph.num_edges() * static_cast<int64_t>(sizeof(Edge));
  // Marginals: out/in strength (double) and out/in degree (int64).
  bytes += n * static_cast<int64_t>(2 * sizeof(double) +
                                    2 * sizeof(int64_t));
  if (graph.has_labels()) {
    for (const std::string& label : graph.labels()) {
      // Twice: the label vector and the label->id index both hold a copy.
      bytes += 2 * (static_cast<int64_t>(sizeof(std::string)) +
                    StringBytes(label));
      // Hash-map node + bucket overhead for the index entry.
      bytes += static_cast<int64_t>(sizeof(NodeId) + 4 * sizeof(void*));
    }
  }
  // The SoA scoring columns are a derived cache materialized on first cold
  // score; price them in once they exist (at intern time they usually
  // don't, so budgets tuned to bare graphs keep their meaning).
  if (graph.edge_columns_materialized()) {
    bytes += graph.edge_columns().bytes();
  }
  return bytes;
}

GraphStore::GraphStore(int64_t byte_budget) : byte_budget_(byte_budget) {}

void GraphStore::TouchLocked(Entry& entry) const {
  lru_.splice(lru_.begin(), lru_, entry.lru_it);
}

void GraphStore::TrimLocked(uint64_t keep) {
  if (byte_budget_ <= 0) return;
  if (resident_bytes_ <= byte_budget_) return;
  obs::ScopedRecord timing(metrics_timing_.load(std::memory_order_relaxed),
                           &evict_ns_);
  // Walk from the LRU tail, skipping pinned entries — a graph with an
  // in-flight scoring stays resident even over budget (better a
  // transiently fat store than a fingerprint that vanishes mid-request)
  // — and the `keep` fingerprint, so Intern never evicts the graph it is
  // about to hand back even when that graph alone exceeds the budget.
  auto it = lru_.end();
  while (resident_bytes_ > byte_budget_ && it != lru_.begin()) {
    --it;
    if (*it == keep) continue;
    const auto entry_it = graphs_.find(*it);
    if (entry_it->second.pins > 0) continue;
    resident_bytes_ -= entry_it->second.bytes;
    ++evictions_;
    it = lru_.erase(it);
    graphs_.erase(entry_it);
  }
}

StoredGraph GraphStore::Intern(Graph graph) {
  obs::ScopedRecord timing(metrics_timing_.load(std::memory_order_relaxed),
                           &intern_ns_);
  const uint64_t fingerprint = GraphFingerprint(graph);
  return Adopt(std::move(graph), fingerprint).first;
}

StoredRevision GraphStore::InternRevision(Graph graph,
                                          uint64_t base_fingerprint) {
  obs::ScopedRecord timing(metrics_timing_.load(std::memory_order_relaxed),
                           &intern_ns_);
  // Resolve the base (refreshing its recency), then diff outside the
  // store lock: the walk is O(E) and the handle keeps the base alive
  // whatever the budget evicts meanwhile.
  const std::shared_ptr<const Graph> base = Find(base_fingerprint);
  Result<GraphDelta> delta =
      base != nullptr ? ComputeGraphDelta(*base, graph)
                      : Result<GraphDelta>(Status::NotFound(
                            "base fingerprint is not resident"));
  const uint64_t fingerprint =
      delta.ok() ? DeriveFingerprint(base_fingerprint, *base, graph, *delta)
                 : GraphFingerprint(graph);
  const bool labeled = graph.has_labels();
  auto [stored, adopted] = Adopt(std::move(graph), fingerprint);
  // A labeled graph can dedupe to a resident copy whose labels were
  // interned in another order: the delta must index the resident's table.
  if (delta.ok() && !adopted && labeled) {
    delta = ComputeGraphDelta(*base, *stored.graph);
  }
  if (!delta.ok()) {
    AttachLineage(fingerprint, GraphLineage{base_fingerprint, nullptr});
    return StoredRevision{std::move(stored), delta.status()};
  }
  auto shared = std::make_shared<const GraphDelta>(*std::move(delta));
  AttachLineage(fingerprint, GraphLineage{base_fingerprint, shared});
  return StoredRevision{std::move(stored), std::move(shared)};
}

bool GraphStore::AttachLineage(uint64_t child, GraphLineage lineage) {
  if (lineage.parent == 0 || lineage.parent == child) return false;
  const auto delta_bytes = [](const GraphLineage& record) -> int64_t {
    return record.delta != nullptr ? record.delta->ApproxBytes() : 0;
  };
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = graphs_.find(child);
  if (it == graphs_.end()) return false;
  Entry& entry = it->second;
  const int64_t grown = delta_bytes(lineage) - delta_bytes(entry.lineage);
  entry.lineage = std::move(lineage);
  entry.bytes += grown;
  resident_bytes_ += grown;
  TrimLocked(child);
  return true;
}

GraphLineage GraphStore::LineageOf(uint64_t fingerprint) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = graphs_.find(fingerprint);
  return it != graphs_.end() ? it->second.lineage : GraphLineage{};
}

std::pair<StoredGraph, bool> GraphStore::Adopt(Graph graph,
                                               uint64_t fingerprint) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = graphs_.find(fingerprint);
  if (it != graphs_.end()) {
    ++dedup_hits_;
    TouchLocked(it->second);
    return {StoredGraph{fingerprint, it->second.graph}, false};
  }
  auto resident = std::make_shared<const Graph>(std::move(graph));
  lru_.push_front(fingerprint);
  Entry entry;
  entry.graph = resident;
  entry.bytes = ApproxGraphBytes(*resident);
  entry.lru_it = lru_.begin();
  resident_bytes_ += entry.bytes;
  graphs_.emplace(fingerprint, std::move(entry));
  ++inserts_;
  TrimLocked(fingerprint);
  return {StoredGraph{fingerprint, std::move(resident)}, true};
}

std::shared_ptr<const Graph> GraphStore::Find(uint64_t fingerprint) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = graphs_.find(fingerprint);
  if (it == graphs_.end()) return nullptr;
  TouchLocked(it->second);
  return it->second.graph;
}

void GraphStore::Pin(uint64_t fingerprint) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = graphs_.find(fingerprint);
  if (it != graphs_.end()) ++it->second.pins;
}

void GraphStore::Unpin(uint64_t fingerprint) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = graphs_.find(fingerprint);
  if (it != graphs_.end() && it->second.pins > 0) --it->second.pins;
}

std::vector<StoredGraph> GraphStore::ResidentGraphs() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<StoredGraph> resident;
  resident.reserve(graphs_.size());
  // Back-to-front: lru_.front() is most recent, so the vector reads
  // LRU-first for the snapshot writer.
  for (auto it = lru_.rbegin(); it != lru_.rend(); ++it) {
    const auto entry = graphs_.find(*it);
    resident.push_back(StoredGraph{*it, entry->second.graph});
  }
  return resident;
}

void GraphStore::RegisterMetrics(obs::MetricRegistry& registry,
                                 const std::string& prefix,
                                 const void* owner) {
  // One gauge group under one mu_ acquisition — see
  // ScoreCache::RegisterMetrics for why per-field gauges would tear.
  registry.RegisterGaugeGroup(
      [this, prefix]() {
        std::lock_guard<std::mutex> lock(mu_);
        int64_t lineage_entries = 0;
        for (const auto& [fingerprint, entry] : graphs_) {
          if (entry.lineage.parent != 0) ++lineage_entries;
        }
        return std::vector<obs::MetricsSnapshot::Value>{
            {prefix + ".graphs", static_cast<int64_t>(graphs_.size())},
            {prefix + ".lineage_entries", lineage_entries},
            {prefix + ".resident_bytes", resident_bytes_},
            {prefix + ".inserts", inserts_},
            {prefix + ".dedup_hits", dedup_hits_},
            {prefix + ".evictions", evictions_},
            {prefix + ".byte_budget", byte_budget_},
        };
      },
      owner);
  registry.RegisterHistogram(prefix + ".intern_ns", &intern_ns_, owner);
  registry.RegisterHistogram(prefix + ".evict_ns", &evict_ns_, owner);
}

}  // namespace netbone
