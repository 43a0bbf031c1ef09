#include "service/graph_store.h"

#include <algorithm>
#include <bit>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "common/bytes.h"

namespace netbone {
namespace {

/// Order-dependent chaining of already-mixed words.
class Hasher {
 public:
  void Mix(uint64_t v) { h_ = Mix64(h_ ^ Mix64(v)); }

  void MixDouble(double v) { Mix(std::bit_cast<uint64_t>(v)); }

  void MixString(const std::string& s) {
    // FNV-1a over the bytes, then folded into the chain with the length
    // so "ab","c" and "a","bc" cannot collide as sequences.
    uint64_t h = 0xcbf29ce484222325ULL;
    for (const char c : s) {
      h = (h ^ static_cast<unsigned char>(c)) * 0x100000001b3ULL;
    }
    Mix(h);
    Mix(static_cast<uint64_t>(s.size()));
  }

  uint64_t digest() const { return h_; }

 private:
  uint64_t h_ = 0x6e6574626f6e6531ULL;  // "netbone1": fingerprint version
};

}  // namespace

uint64_t GraphFingerprint(const Graph& graph) {
  Hasher hasher;
  hasher.Mix(graph.directed() ? 1 : 2);
  hasher.Mix(static_cast<uint64_t>(graph.num_nodes()));
  hasher.Mix(static_cast<uint64_t>(graph.num_edges()));
  hasher.Mix(graph.has_labels() ? 1 : 0);

  if (!graph.has_labels()) {
    // Dense ids are the nodes' identity; the canonical (src, dst)-sorted
    // edge table is already a content-stable sequence.
    for (const Edge& e : graph.edges()) {
      hasher.Mix(static_cast<uint64_t>(e.src));
      hasher.Mix(static_cast<uint64_t>(e.dst));
      hasher.MixDouble(e.weight);
    }
    return hasher.digest();
  }

  // Labeled graphs: dense ids depend on label interning order, so hash
  // over label-ranked ids instead. Labels are unique (the builder interns
  // them), so the rank is a strict permutation.
  const NodeId n = graph.num_nodes();
  std::vector<std::string> labels(static_cast<size_t>(n));
  for (NodeId v = 0; v < n; ++v) {
    labels[static_cast<size_t>(v)] = graph.LabelOf(v);
  }
  std::vector<NodeId> by_label(static_cast<size_t>(n));
  std::iota(by_label.begin(), by_label.end(), NodeId{0});
  std::sort(by_label.begin(), by_label.end(), [&](NodeId a, NodeId b) {
    return labels[static_cast<size_t>(a)] < labels[static_cast<size_t>(b)];
  });
  std::vector<NodeId> rank(static_cast<size_t>(n));
  for (NodeId r = 0; r < n; ++r) {
    rank[static_cast<size_t>(by_label[static_cast<size_t>(r)])] = r;
  }
  // The node universe, in label order (covers isolates too).
  for (const NodeId v : by_label) {
    hasher.MixString(labels[static_cast<size_t>(v)]);
  }
  // Edges remapped to label ranks, re-canonicalized and re-sorted: the
  // same labeled network yields the same sequence whatever the interning
  // order was. Post-dedup, (src, dst) pairs are unique, so the order is a
  // strict total order.
  struct RankedEdge {
    NodeId src;
    NodeId dst;
    double weight;
  };
  std::vector<RankedEdge> ranked;
  ranked.reserve(static_cast<size_t>(graph.num_edges()));
  for (const Edge& e : graph.edges()) {
    NodeId src = rank[static_cast<size_t>(e.src)];
    NodeId dst = rank[static_cast<size_t>(e.dst)];
    if (!graph.directed() && src > dst) std::swap(src, dst);
    ranked.push_back(RankedEdge{src, dst, e.weight});
  }
  std::sort(ranked.begin(), ranked.end(),
            [](const RankedEdge& a, const RankedEdge& b) {
              if (a.src != b.src) return a.src < b.src;
              return a.dst < b.dst;
            });
  for (const RankedEdge& e : ranked) {
    hasher.Mix(static_cast<uint64_t>(e.src));
    hasher.Mix(static_cast<uint64_t>(e.dst));
    hasher.MixDouble(e.weight);
  }
  return hasher.digest();
}

int64_t ApproxGraphBytes(const Graph& graph) {
  const int64_t n = graph.num_nodes();
  int64_t bytes = static_cast<int64_t>(sizeof(Graph));
  bytes += graph.num_edges() * static_cast<int64_t>(sizeof(Edge));
  // Marginals: out/in strength (double) and out/in degree (int64).
  bytes += n * static_cast<int64_t>(2 * sizeof(double) +
                                    2 * sizeof(int64_t));
  if (graph.has_labels()) {
    for (NodeId v = 0; v < n; ++v) {
      const std::string label = graph.LabelOf(v);
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

void GraphStore::TrimLocked(std::optional<uint64_t> keep) {
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
    if (keep.has_value() && *it == *keep) continue;
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
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = graphs_.find(fingerprint);
  if (it != graphs_.end()) {
    ++dedup_hits_;
    TouchLocked(it->second);
    return StoredGraph{fingerprint, it->second.graph};
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
  TrimLocked(/*keep=*/fingerprint);
  return StoredGraph{fingerprint, std::move(resident)};
}

std::shared_ptr<const Graph> GraphStore::Find(uint64_t fingerprint) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = graphs_.find(fingerprint);
  if (it == graphs_.end()) return nullptr;
  TouchLocked(it->second);
  return it->second.graph;
}

Result<GraphDelta> GraphStore::DeltaBetween(uint64_t base_fingerprint,
                                            uint64_t next_fingerprint) const {
  // Resolve both handles first (each Find refreshes recency), then diff
  // outside the store lock — the walk is O(E) and the handles keep the
  // graphs alive regardless of eviction.
  const std::shared_ptr<const Graph> base = Find(base_fingerprint);
  if (base == nullptr) {
    return Status::NotFound("base fingerprint is not resident");
  }
  const std::shared_ptr<const Graph> next = Find(next_fingerprint);
  if (next == nullptr) {
    return Status::NotFound("next fingerprint is not resident");
  }
  return ComputeGraphDelta(*base, *next);
}

bool GraphStore::Erase(uint64_t fingerprint) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = graphs_.find(fingerprint);
  if (it == graphs_.end()) return false;
  resident_bytes_ -= it->second.bytes;
  lru_.erase(it->second.lru_it);
  graphs_.erase(it);
  return true;
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

void GraphStore::set_byte_budget(int64_t byte_budget) {
  std::lock_guard<std::mutex> lock(mu_);
  byte_budget_ = byte_budget;
  TrimLocked();
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
        return std::vector<obs::MetricsSnapshot::Value>{
            {prefix + ".graphs", static_cast<int64_t>(graphs_.size())},
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
