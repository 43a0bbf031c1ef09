#include "core/naive.h"

namespace netbone {

int64_t NaiveThresholdRange(const Graph& graph, int64_t begin, int64_t end,
                            EdgeScore* out) {
  for (EdgeId id = begin; id < end; ++id) {
    out[id] = EdgeScore{graph.edge(id).weight, 0.0};
  }
  return -1;
}

Result<ScoredEdges> NaiveThreshold(const Graph& graph,
                                   const NaiveThresholdOptions& options) {
  if (graph.num_edges() == 0) {
    return Status::FailedPrecondition("graph has no edges");
  }
  Result<std::vector<EdgeScore>> scores = ParallelScoreEdgeRanges(
      graph, options.num_threads,
      [&graph](int64_t begin, int64_t end, EdgeScore* out) {
        return NaiveThresholdRange(graph, begin, end, out);
      },
      [](EdgeId) { return Status::OK(); },  // NT accepts every edge
      options.cancel);
  if (!scores.ok()) return scores.status();
  return ScoredEdges(&graph, "naive_threshold", std::move(*scores),
                     /*has_sdev=*/false);
}

}  // namespace netbone
