#include "graph/delta.h"

#include <algorithm>
#include <bit>
#include <cstdint>

namespace netbone {
namespace {

/// Strict (src, dst) order of the canonical edge tables.
bool EndpointsLess(const Edge& a, const Edge& b) {
  if (a.src != b.src) return a.src < b.src;
  return a.dst < b.dst;
}

bool EndpointsEqual(const Edge& a, const Edge& b) {
  return a.src == b.src && a.dst == b.dst;
}

/// Bit-pattern inequality: +0.0 and -0.0 differ, as they do to the
/// fingerprint and to a column copied from another graph.
bool BitsDiffer(double a, double b) {
  return std::bit_cast<uint64_t>(a) != std::bit_cast<uint64_t>(b);
}

}  // namespace

int64_t GraphDelta::ApproxBytes() const {
  return static_cast<int64_t>(sizeof(GraphDelta)) +
         static_cast<int64_t>(changed.capacity() * sizeof(EdgeWeightChange) +
                              inserted.capacity() * sizeof(EdgeId) +
                              deleted.capacity() * sizeof(EdgeId) +
                              changed_nodes.capacity() * sizeof(NodeId) +
                              star_edges.capacity() * sizeof(EdgeId));
}

Result<GraphDelta> ComputeGraphDelta(const Graph& base, const Graph& next) {
  if (base.directedness() != next.directedness()) {
    return Status::InvalidArgument(
        "cannot delta graphs of different directedness");
  }
  // Positional node identity: labeled graphs must agree label-for-label,
  // or the same dense id would name different nodes in the two tables.
  if (base.has_labels() != next.has_labels()) {
    return Status::InvalidArgument(
        "cannot delta a labeled graph against an unlabeled one");
  }
  if (base.has_labels()) {
    const NodeId shared = std::min(base.num_nodes(), next.num_nodes());
    for (NodeId v = 0; v < shared; ++v) {
      if (base.labels()[static_cast<size_t>(v)] !=
          next.labels()[static_cast<size_t>(v)]) {
        return Status::InvalidArgument(
            "label universes differ: dense ids are not comparable");
      }
    }
  }

  GraphDelta delta;
  delta.base_edges = base.num_edges();
  delta.next_edges = next.num_edges();
  delta.totals_equal = !BitsDiffer(base.matrix_total(), next.matrix_total());

  // Marginal comparison is exact: a node whose incident edge multiset is
  // unchanged accumulates the same weights in the same canonical order, so
  // its strengths are bitwise equal — anything else is "changed". The
  // flags feed the star collection in the edge walk below.
  const NodeId shared = std::min(base.num_nodes(), next.num_nodes());
  std::vector<char> node_changed(static_cast<size_t>(next.num_nodes()), 0);
  for (NodeId v = 0; v < shared; ++v) {
    if (BitsDiffer(base.out_strength(v), next.out_strength(v)) ||
        BitsDiffer(base.in_strength(v), next.in_strength(v)) ||
        base.out_degree(v) != next.out_degree(v) ||
        base.in_degree(v) != next.in_degree(v)) {
      delta.changed_nodes.push_back(v);
      node_changed[static_cast<size_t>(v)] = 1;
    }
  }
  for (NodeId v = shared; v < next.num_nodes(); ++v) {
    delta.changed_nodes.push_back(v);
    node_changed[static_cast<size_t>(v)] = 1;
  }
  const bool any_node_changed = !delta.changed_nodes.empty();

  // One merge walk over the two sorted edge tables classifies every edge
  // and collects the successor-side endpoint stars.
  EdgeId bi = 0;
  EdgeId ni = 0;
  const auto visit_next = [&](EdgeId id) {
    if (!any_node_changed) return;
    const Edge& e = next.edge(id);
    if (node_changed[static_cast<size_t>(e.src)] != 0 ||
        node_changed[static_cast<size_t>(e.dst)] != 0) {
      delta.star_edges.push_back(id);
    }
  };
  while (bi < delta.base_edges && ni < delta.next_edges) {
    const Edge& be = base.edge(bi);
    const Edge& ne = next.edge(ni);
    if (EndpointsEqual(be, ne)) {
      if (BitsDiffer(be.weight, ne.weight)) {
        delta.changed.push_back(
            EdgeWeightChange{bi, ni, be.weight, ne.weight});
      }
      visit_next(ni);
      ++bi;
      ++ni;
    } else if (EndpointsLess(be, ne)) {
      delta.deleted.push_back(bi++);
    } else {
      delta.inserted.push_back(ni);
      visit_next(ni);
      ++ni;
    }
  }
  while (bi < delta.base_edges) delta.deleted.push_back(bi++);
  while (ni < delta.next_edges) {
    delta.inserted.push_back(ni);
    visit_next(ni);
    ++ni;
  }
  return delta;
}

}  // namespace netbone
