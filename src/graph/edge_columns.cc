#include "graph/edge_columns.h"

#include "common/bytes.h"
#include "graph/graph.h"

namespace netbone {

int64_t EdgeColumns::bytes() const {
  return VectorBytes(weight) + VectorBytes(n_i) + VectorBytes(n_j) +
         VectorBytes(dm1_i) + VectorBytes(dm1_j);
}

void MaterializeEdgeColumns(const Graph& graph, EdgeColumns* columns) {
  const int64_t n = graph.num_edges();
  const size_t count = static_cast<size_t>(n);
  columns->weight.resize(count);
  columns->n_i.resize(count);
  columns->n_j.resize(count);
  columns->dm1_i.resize(count);
  columns->dm1_j.resize(count);
  const std::vector<Edge>& edges = graph.edges();
  for (size_t k = 0; k < count; ++k) {
    const Edge& e = edges[k];
    columns->weight[k] = e.weight;
    // Bitwise the same values the per-edge oracle reads: the gather copies
    // doubles, it never recomputes them.
    columns->n_i[k] = graph.out_strength(e.src);
    columns->n_j[k] = graph.in_strength(e.dst);
    columns->dm1_i[k] =
        static_cast<double>(graph.out_degree(e.src) - 1);
    columns->dm1_j[k] = static_cast<double>(graph.in_degree(e.dst) - 1);
  }
}

}  // namespace netbone
