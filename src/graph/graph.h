// Copyright 2026 The netbone Authors.
//
// Weighted graph container used throughout the library.
//
// The paper's data structure (Sec. III-A) is a weighted graph
// G = (V, E, N) with non-negative real edge weights N_ij, directed or
// undirected. `Graph` stores the edge table in a canonical sorted order,
// keeps per-node weighted strengths and degrees (the marginals N_i., N_.j
// and N_.. that every backboning null model consumes), and optionally maps
// dense node ids back to external string labels.

#ifndef NETBONE_GRAPH_GRAPH_H_
#define NETBONE_GRAPH_GRAPH_H_

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "graph/edge_columns.h"

namespace netbone {

/// Dense node identifier in [0, num_nodes).
using NodeId = int32_t;

/// Index into a Graph's edge table.
using EdgeId = int64_t;

struct GraphDelta;

/// One weighted edge. For undirected graphs the canonical form has
/// src <= dst and the edge is stored exactly once.
struct Edge {
  NodeId src = 0;
  NodeId dst = 0;
  double weight = 0.0;

  friend bool operator==(const Edge& a, const Edge& b) {
    return a.src == b.src && a.dst == b.dst && a.weight == b.weight;
  }
};

/// Edge directedness of a Graph.
enum class Directedness {
  kDirected,
  kUndirected,
};

/// Immutable weighted graph.
///
/// Construct via GraphBuilder (graph/builder.h), which canonicalizes,
/// deduplicates and validates edges. All query methods are O(1) except
/// where noted.
class Graph {
 public:
  Graph() = default;

  /// Number of nodes (including isolates).
  NodeId num_nodes() const { return num_nodes_; }

  /// Number of stored edges (undirected edges count once).
  int64_t num_edges() const { return static_cast<int64_t>(edges_.size()); }

  /// Directed or undirected.
  Directedness directedness() const { return directedness_; }
  bool directed() const { return directedness_ == Directedness::kDirected; }

  /// The canonical edge table, sorted by (src, dst).
  const std::vector<Edge>& edges() const { return edges_; }

  /// The edge at `id`. Precondition: 0 <= id < num_edges().
  const Edge& edge(EdgeId id) const { return edges_[static_cast<size_t>(id)]; }

  /// Structure-of-arrays view of the edge table with pre-gathered
  /// marginals (graph/edge_columns.h), materialized lazily on first use
  /// and cached for the graph's lifetime. Copies of a Graph share one
  /// cache (the contents are a pure function of the edge table, which
  /// copies share byte-for-byte). Thread-safe: concurrent first callers
  /// materialize exactly once. O(|E|) on the first call, O(1) after —
  /// unless InheritEdgeFacts derived the columns from an ancestor first.
  const EdgeColumns& edge_columns() const;

  /// True once edge_columns() has materialized (so byte accounting can
  /// price the derived cache without forcing it into existence).
  bool edge_columns_materialized() const {
    return columns_cache_->ready.load(std::memory_order_acquire);
  }

  /// Whether the whole edge table connects the nodes that have an edge
  /// into one (weakly) connected component, as far as it is known.
  enum class Connectivity : int8_t { kUnknown, kConnected, kDisconnected };

  /// Nothing computes this eagerly: the sweep engine's connect-index walk
  /// (core/sweep.h) records what its union-find found, and later walks of
  /// the same graph read it — a graph whose edges never connect needs no
  /// union-find after the first walk. Copies of a Graph share the record,
  /// and a weight-only revision adopts its ancestor's (InheritEdgeFacts).
  /// Thread-safe.
  Connectivity known_connectivity() const {
    return static_cast<Connectivity>(
        columns_cache_->connectivity.load(std::memory_order_relaxed));
  }

  /// Records a connectivity fact that a union-find over this graph's
  /// edges established: a prefix of some edge order that connects the
  /// non-isolated nodes proves kConnected, all edges failing to proves
  /// kDisconnected. Every writer therefore writes the same value.
  void RecordConnectivity(Connectivity connectivity) const {
    columns_cache_->connectivity.store(static_cast<int8_t>(connectivity),
                                       std::memory_order_relaxed);
  }

  /// Takes this graph's edge-set facts from `ancestor` instead of
  /// recomputing them, when `delta` (ComputeGraphDelta(ancestor, *this))
  /// moved only weights: no inserted or deleted edge, the same node count.
  /// Both graphs then have one edge set, so this graph adopts the
  /// ancestor's known_connectivity() record, and — only if the ancestor's
  /// columns are already materialized — fills its own edge_columns()
  /// inside the same once-only slot: a copy of the ancestor's columns with
  /// `weight` re-read for delta.changed and `n_i`/`n_j` re-gathered for
  /// delta.star_edges (the edges whose endpoint marginals moved; every
  /// other entry is bitwise unchanged). O(|E|) memcpy plus O(affected)
  /// gathers, bit-identical to MaterializeEdgeColumns. Columns already
  /// built and records already known are left alone, so racing
  /// edge_columns() or a walk is safe. Returns false and derives nothing
  /// for a structural delta.
  bool InheritEdgeFacts(const Graph& ancestor, const GraphDelta& delta) const;

  /// Sum of all edge weights as stored (undirected edges counted once).
  double total_weight() const { return total_weight_; }

  /// Matrix total N_.. — the null-model denominator. For directed graphs
  /// this equals total_weight(); for undirected graphs it is
  /// 2 * total_weight() minus self-loop weight, i.e. the sum over the full
  /// symmetric adjacency matrix.
  double matrix_total() const;

  /// Out-strength N_i. (sum of outgoing weights). For undirected graphs,
  /// the symmetric row sum: every incident edge counts.
  double out_strength(NodeId v) const {
    return out_strength_[static_cast<size_t>(v)];
  }

  /// In-strength N_.j (sum of incoming weights). Equals out_strength for
  /// undirected graphs.
  double in_strength(NodeId v) const {
    return in_strength_[static_cast<size_t>(v)];
  }

  /// Out-degree (number of outgoing edges; incident edges if undirected).
  int64_t out_degree(NodeId v) const {
    return out_degree_[static_cast<size_t>(v)];
  }

  /// In-degree (number of incoming edges; incident edges if undirected).
  int64_t in_degree(NodeId v) const {
    return in_degree_[static_cast<size_t>(v)];
  }

  /// Number of nodes with no incident edge at all (the isolates I_G of the
  /// paper's Coverage criterion), counted once by the builder.
  int64_t CountIsolates() const { return isolates_; }

  /// Looks up the stored weight of (src, dst); 0.0 when the edge is absent.
  /// For undirected graphs the pair is canonicalized first.
  /// O(log degree) via binary search on the sorted edge table.
  double WeightOf(NodeId src, NodeId dst) const;

  /// Finds the edge id of (src, dst), or -1 when absent. Canonicalizes for
  /// undirected graphs. O(log |E|).
  EdgeId FindEdge(NodeId src, NodeId dst) const;

  /// True when node labels were attached at build time.
  bool has_labels() const { return !labels_.empty(); }

  /// Label of `v`; falls back to the decimal id when labels are absent.
  std::string LabelOf(NodeId v) const;

  /// The label table by reference: one label per node when has_labels(),
  /// empty otherwise. For loops over many labels, which LabelOf would copy.
  const std::vector<std::string>& labels() const { return labels_; }

  /// Resolves a label to a node id; NotFound when unknown. O(1) via the
  /// label index the builder hands over, so label-heavy loaders (the
  /// occupations/countries case studies) stay linear overall.
  Result<NodeId> FindLabel(const std::string& label) const;

 private:
  friend class GraphBuilder;

  NodeId num_nodes_ = 0;
  Directedness directedness_ = Directedness::kDirected;
  std::vector<Edge> edges_;  // sorted by (src, dst)
  std::vector<double> out_strength_;
  std::vector<double> in_strength_;
  std::vector<int64_t> out_degree_;
  std::vector<int64_t> in_degree_;
  double total_weight_ = 0.0;
  double self_loop_weight_ = 0.0;
  int64_t isolates_ = 0;
  std::vector<std::string> labels_;
  // label -> id, populated by GraphBuilder alongside labels_.
  std::unordered_map<std::string, NodeId> label_index_;
  // Lazily-built SoA view (edge_columns()). Never null; copies share the
  // slot, so a graph family materializes the gather at most once.
  std::shared_ptr<internal::EdgeColumnsCache> columns_cache_ =
      std::make_shared<internal::EdgeColumnsCache>();
};

}  // namespace netbone

#endif  // NETBONE_GRAPH_GRAPH_H_
