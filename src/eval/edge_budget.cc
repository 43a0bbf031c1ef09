#include "eval/edge_budget.h"

#include "core/high_salience_skeleton.h"

namespace netbone {

int64_t CountAboveScore(const ScoredEdges& scored, double threshold) {
  int64_t count = 0;
  for (EdgeId id = 0; id < scored.size(); ++id) {
    if (scored.at(id).score > threshold) ++count;
  }
  return count;
}

Result<int64_t> HssEdgeBudget(const Graph& graph, double salience,
                              int64_t hss_max_cost) {
  HighSalienceSkeletonOptions options;
  options.max_cost = hss_max_cost;
  NETBONE_ASSIGN_OR_RETURN(ScoredEdges scored,
                           HighSalienceSkeleton(graph, options));
  return CountAboveScore(scored, salience);
}

Result<BackboneMask> BudgetedBackbone(Method method, const Graph& graph,
                                      int64_t budget,
                                      const RunMethodOptions& options) {
  NETBONE_ASSIGN_OR_RETURN(ScoredEdges scored,
                           RunMethod(method, graph, options));
  if (method == Method::kMaximumSpanningTree) {
    return FilterByScore(scored, 0.5);  // tree edges scored 1
  }
  if (budget <= 0 && method != Method::kDoublyStochastic) {
    return TopK(scored, budget);  // empty mask, no sort
  }
  const ScoreOrder order(scored, options.num_threads);
  if (budget <= 0) return GrowUntilConnected(order);
  return TopK(order, budget);
}

}  // namespace netbone
