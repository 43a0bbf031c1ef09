// Copyright 2026 The netbone Authors.
//
// Structure-of-arrays view of a Graph's canonical edge table, materialized
// once per graph and cached alongside it (Graph::edge_columns()).
//
// The local scoring kernels (NC, DF) are pure per-edge functions of
// (n_ij, n_i., n_.j, n_..). On the canonical AoS edge table every edge
// pays two to four *random* loads (strengths and degrees indexed by node
// id) plus a strided 16-byte struct read. The columns below pre-gather
// those inputs into contiguous streams, which is what lets the batched
// SIMD kernels (core/simd_kernels.h) consume whole lanes with nothing but
// sequential loads — and what the delta-rescore dirty-run path reads
// instead of striding Edge structs. The naive threshold reads only the
// weight, straight from the edge table, so it never builds these.
//
// Contents are a pure function of the graph, derived bit-for-bit from the
// same arrays the scalar kernels read (out_strength / in_strength /
// degrees), so a kernel consuming columns sees exactly the inputs the
// per-edge oracle sees. Copies of a Graph share one lazily-built cache,
// filled at most once per graph by one of two roads: materialization from
// the graph's own tables, O(|E|) random gathers; or, for a revision whose
// delta moved only weights, derivation from its ancestor's columns
// (Graph::InheritEdgeFacts) — a sequential copy plus O(affected) gathers,
// bit-identical to materializing.

#ifndef NETBONE_GRAPH_EDGE_COLUMNS_H_
#define NETBONE_GRAPH_EDGE_COLUMNS_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <vector>

namespace netbone {

class Graph;

/// Contiguous per-edge input columns, index-aligned with the canonical
/// (src, dst)-sorted edge table: entry k describes graph.edge(k).
struct EdgeColumns {
  /// Edge weight n_ij.
  std::vector<double> weight;
  /// Pre-gathered marginals: n_i. = out_strength(src), n_.j =
  /// in_strength(dst). For undirected graphs both are the symmetric
  /// strengths, exactly as the scalar kernels read them.
  std::vector<double> n_i;
  std::vector<double> n_j;
  /// Pre-gathered Disparity Filter exponents: out_degree(src) - 1 and
  /// in_degree(dst) - 1 as doubles (exact for any real degree). Edge
  /// endpoints always have degree >= 1, so these are >= 0.
  std::vector<double> dm1_i;
  std::vector<double> dm1_j;

  /// Number of edges covered.
  int64_t size() const { return static_cast<int64_t>(weight.size()); }

  /// Heap bytes held by the columns (capacity-based, matching
  /// common/bytes.h accounting): 40 bytes per edge when materialized.
  int64_t bytes() const;
};

/// Fills `columns` from `graph`'s canonical tables: the one full build,
/// and the oracle derived columns are tested against. Exposed for tests;
/// production code goes through Graph::edge_columns(), which caches.
void MaterializeEdgeColumns(const Graph& graph, EdgeColumns* columns);

namespace internal {

/// The per-graph cache slot Graph holds by shared_ptr so copies share one
/// materialization. call_once makes concurrent first readers safe; `ready`
/// lets byte accounting ask "is it priced in yet?" without building it.
/// `connectivity` backs Graph::known_connectivity(), a fact about the same
/// shared edge table that a sweep walk records when it learns it. Both
/// are filled from an ancestor's slot by Graph::InheritEdgeFacts.
struct EdgeColumnsCache {
  std::once_flag once;
  EdgeColumns columns;
  std::atomic<bool> ready{false};
  std::atomic<int8_t> connectivity{0};
};

}  // namespace internal

}  // namespace netbone

#endif  // NETBONE_GRAPH_EDGE_COLUMNS_H_
