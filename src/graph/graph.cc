#include "graph/graph.h"

#include <algorithm>

#include "graph/delta.h"

namespace netbone {

const EdgeColumns& Graph::edge_columns() const {
  internal::EdgeColumnsCache& cache = *columns_cache_;
  std::call_once(cache.once, [this, &cache] {
    MaterializeEdgeColumns(*this, &cache.columns);
    cache.ready.store(true, std::memory_order_release);
  });
  return cache.columns;
}

bool Graph::InheritEdgeFacts(const Graph& ancestor,
                             const GraphDelta& delta) const {
  // The edge counts tie the delta to these two graphs (its ids index
  // both tables); with nothing inserted or deleted they are equal.
  if (!delta.inserted.empty() || !delta.deleted.empty() ||
      delta.base_edges != ancestor.num_edges() ||
      delta.next_edges != num_edges() ||
      ancestor.num_nodes() != num_nodes()) {
    return false;
  }
  const internal::EdgeColumnsCache& from = *ancestor.columns_cache_;
  internal::EdgeColumnsCache& cache = *columns_cache_;
  if (&from == &cache) return true;  // copies share every fact already

  // One edge set, one connectivity. Only a known record is copied, so a
  // walk of this graph racing the copy can only ever write the same value.
  const Connectivity connectivity = ancestor.known_connectivity();
  if (connectivity != Connectivity::kUnknown) RecordConnectivity(connectivity);

  // Derive the columns only from columns that exist: forcing the
  // ancestor's into existence would cost the full build this skips.
  if (ancestor.edge_columns_materialized()) {
    std::call_once(cache.once, [this, &from, &cache, &delta] {
      EdgeColumns& columns = cache.columns;
      columns = from.columns;  // dm1_i, dm1_j: same edge set
      for (const EdgeWeightChange& change : delta.changed) {
        const size_t id = static_cast<size_t>(change.next_id);
        columns.weight[id] = edges_[id].weight;
      }
      // Any edge whose n_i or n_j moved has an endpoint whose marginals
      // moved, so it is in an endpoint star; every other entry is bitwise
      // the ancestor's. Same reads as MaterializeEdgeColumns.
      for (const EdgeId star : delta.star_edges) {
        const size_t id = static_cast<size_t>(star);
        columns.n_i[id] = out_strength(edges_[id].src);
        columns.n_j[id] = in_strength(edges_[id].dst);
      }
      cache.ready.store(true, std::memory_order_release);
    });
  }
  return true;
}

double Graph::matrix_total() const {
  if (directed()) return total_weight_;
  // Symmetric matrix: every off-diagonal edge appears twice; a self-loop
  // N_ii appears once on the diagonal.
  return 2.0 * (total_weight_ - self_loop_weight_) + self_loop_weight_;
}

EdgeId Graph::FindEdge(NodeId src, NodeId dst) const {
  if (!directed() && src > dst) std::swap(src, dst);
  Edge probe{src, dst, 0.0};
  const auto less = [](const Edge& a, const Edge& b) {
    return a.src != b.src ? a.src < b.src : a.dst < b.dst;
  };
  const auto it = std::lower_bound(edges_.begin(), edges_.end(), probe, less);
  if (it == edges_.end() || it->src != src || it->dst != dst) return -1;
  return static_cast<EdgeId>(it - edges_.begin());
}

double Graph::WeightOf(NodeId src, NodeId dst) const {
  const EdgeId id = FindEdge(src, dst);
  return id < 0 ? 0.0 : edges_[static_cast<size_t>(id)].weight;
}

std::string Graph::LabelOf(NodeId v) const {
  if (has_labels() && v >= 0 && static_cast<size_t>(v) < labels_.size()) {
    return labels_[static_cast<size_t>(v)];
  }
  return std::to_string(v);
}

Result<NodeId> Graph::FindLabel(const std::string& label) const {
  const auto it = label_index_.find(label);
  if (it != label_index_.end()) return it->second;
  // Graphs assembled outside GraphBuilder may carry labels without an
  // index; fall back to the scan so lookups stay total.
  if (label_index_.empty()) {
    for (size_t i = 0; i < labels_.size(); ++i) {
      if (labels_[i] == label) return static_cast<NodeId>(i);
    }
  }
  return Status::NotFound("no node labeled '" + label + "'");
}

}  // namespace netbone
