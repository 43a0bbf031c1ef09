#include "graph/builder.h"

#include <algorithm>
#include <cmath>

#include "common/strings.h"

namespace netbone {

GraphBuilder::GraphBuilder(Directedness directedness,
                           DuplicateEdgePolicy duplicate_policy,
                           SelfLoopPolicy self_loop_policy)
    : directedness_(directedness),
      duplicate_policy_(duplicate_policy),
      self_loop_policy_(self_loop_policy) {}

void GraphBuilder::ReserveNodes(NodeId n) {
  max_node_ = std::max(max_node_, static_cast<NodeId>(n - 1));
}

void GraphBuilder::AddEdge(NodeId src, NodeId dst, double weight) {
  if (!deferred_error_.ok()) return;
  if (src < 0 || dst < 0) {
    deferred_error_ = Status::InvalidArgument(
        StrFormat("negative node id in edge (%d, %d)", src, dst));
    return;
  }
  if (!std::isfinite(weight) || weight < 0.0) {
    deferred_error_ = Status::InvalidArgument(
        StrFormat("edge (%d, %d) has invalid weight %f", src, dst, weight));
    return;
  }
  if (src == dst) {
    switch (self_loop_policy_) {
      case SelfLoopPolicy::kDrop:
        max_node_ = std::max(max_node_, src);
        return;
      case SelfLoopPolicy::kError:
        deferred_error_ = Status::InvalidArgument(
            StrFormat("self-loop on node %d", src));
        return;
      case SelfLoopPolicy::kKeep:
        break;
    }
  }
  if (directedness_ == Directedness::kUndirected && src > dst) {
    std::swap(src, dst);
  }
  max_node_ = std::max(max_node_, std::max(src, dst));
  pending_.push_back(Edge{src, dst, weight});
}

NodeId GraphBuilder::InternLabel(const std::string& label) {
  const auto it = label_to_id_.find(label);
  if (it != label_to_id_.end()) return it->second;
  const NodeId id = static_cast<NodeId>(labels_.size());
  labels_.push_back(label);
  label_to_id_.emplace(label, id);
  max_node_ = std::max(max_node_, id);
  return id;
}

void GraphBuilder::AddLabeledEdge(const std::string& src,
                                  const std::string& dst, double weight) {
  // Sequence the interning explicitly: C++ leaves function-argument
  // evaluation order unspecified, and label ids must follow first
  // appearance in (src, dst) order.
  const NodeId src_id = InternLabel(src);
  const NodeId dst_id = InternLabel(dst);
  AddEdge(src_id, dst_id, weight);
}

Result<Graph> GraphBuilder::Build() {
  if (!deferred_error_.ok()) return deferred_error_;
  if (!labels_.empty() &&
      static_cast<NodeId>(labels_.size()) != max_node_ + 1) {
    // Mixed AddEdge/AddLabeledEdge usage can reference ids beyond the label
    // table; extend with decimal placeholders so LabelOf stays total.
    for (NodeId v = static_cast<NodeId>(labels_.size()); v <= max_node_;
         ++v) {
      labels_.push_back(std::to_string(v));
      // Keep the label index total too, so Graph::FindLabel resolves the
      // decimal placeholders; a real label always wins over a placeholder.
      label_to_id_.emplace(labels_.back(), v);
    }
  }

  std::sort(pending_.begin(), pending_.end(),
            [](const Edge& a, const Edge& b) {
              if (a.src != b.src) return a.src < b.src;
              if (a.dst != b.dst) return a.dst < b.dst;
              return a.weight < b.weight;
            });

  std::vector<Edge> edges;
  edges.reserve(pending_.size());
  for (const Edge& e : pending_) {
    if (!edges.empty() && edges.back().src == e.src &&
        edges.back().dst == e.dst) {
      switch (duplicate_policy_) {
        case DuplicateEdgePolicy::kSum:
          edges.back().weight += e.weight;
          break;
        case DuplicateEdgePolicy::kMax:
          edges.back().weight = std::max(edges.back().weight, e.weight);
          break;
        case DuplicateEdgePolicy::kError:
          return Status::InvalidArgument(
              StrFormat("duplicate edge (%d, %d)", e.src, e.dst));
      }
    } else {
      edges.push_back(e);
    }
  }

  Graph g;
  g.num_nodes_ = max_node_ + 1;
  g.directedness_ = directedness_;
  g.edges_ = std::move(edges);
  g.labels_ = std::move(labels_);
  // The interning map is exactly the label -> id index FindLabel needs;
  // hand it to the graph instead of rebuilding it on first lookup.
  g.label_index_ = std::move(label_to_id_);
  const size_t n = static_cast<size_t>(g.num_nodes_);
  g.out_strength_.assign(n, 0.0);
  g.in_strength_.assign(n, 0.0);
  g.out_degree_.assign(n, 0);
  g.in_degree_.assign(n, 0);
  for (const Edge& e : g.edges_) {
    g.total_weight_ += e.weight;
    const size_t s = static_cast<size_t>(e.src);
    const size_t d = static_cast<size_t>(e.dst);
    if (e.src == e.dst) {
      g.self_loop_weight_ += e.weight;
      g.out_strength_[s] += e.weight;
      g.in_strength_[s] += e.weight;
      g.out_degree_[s] += 1;
      g.in_degree_[s] += 1;
      continue;
    }
    if (g.directed()) {
      g.out_strength_[s] += e.weight;
      g.in_strength_[d] += e.weight;
      g.out_degree_[s] += 1;
      g.in_degree_[d] += 1;
    } else {
      // Symmetric matrix marginals: the edge contributes to both endpoints'
      // row and column sums.
      g.out_strength_[s] += e.weight;
      g.out_strength_[d] += e.weight;
      g.in_strength_[s] += e.weight;
      g.in_strength_[d] += e.weight;
      g.out_degree_[s] += 1;
      g.out_degree_[d] += 1;
      g.in_degree_[s] += 1;
      g.in_degree_[d] += 1;
    }
  }
  for (size_t v = 0; v < n; ++v) {
    g.isolates_ += g.out_degree_[v] == 0 && g.in_degree_[v] == 0 ? 1 : 0;
  }
  return g;
}

}  // namespace netbone
