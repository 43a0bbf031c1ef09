// Copyright 2026 The netbone Authors.
//
// The Disparity Filter (Serrano, Boguñá & Vespignani, PNAS 2009; [34] in
// the paper) — the state-of-the-art statistical baseline the NC backbone is
// compared against.
//
// For a node of degree k, the null model splits the node's total strength
// uniformly at random into k pieces (equivalently, normalized edge shares
// follow the order statistics of k-1 uniform draws). The p-value of an edge
// of share x at that node is alpha = (1 - x)^(k - 1). The score reported
// here is 1 - alpha so that, like every other method, larger means more
// significant. Per the paper, an edge is "tested twice" — at its source as
// an emitter and at its target as a receiver — and kept if either test
// passes (we keep the maximum score by default).

#ifndef NETBONE_CORE_DISPARITY_FILTER_H_
#define NETBONE_CORE_DISPARITY_FILTER_H_

#include <algorithm>
#include <cstdint>

#include "common/result.h"
#include "core/scored_edges.h"
#include "graph/graph.h"

namespace netbone {

/// Which endpoint test(s) decide an edge's disparity score.
enum class DisparityEndpointRule {
  kEither,  ///< max of the two endpoint scores (paper default)
  kBoth,    ///< min of the two endpoint scores (conservative variant)
  kSource,  ///< emitter-only null model (the pre-2009 formulation)
};

/// Options for DisparityFilter.
struct DisparityFilterOptions {
  DisparityEndpointRule endpoint_rule = DisparityEndpointRule::kEither;

  /// Worker threads for the scoring sweep (ParallelScoreEdgeRanges).
  /// 0 = hardware concurrency. Scores are bit-identical for every value.
  int num_threads = 0;

  /// Cooperative cancellation, polled at chunk granularity inside the
  /// scoring sweep; a fired token returns Cancelled / DeadlineExceeded.
  CancelToken cancel;
};

/// Scores every edge with 1 - alpha_ij. Degree-1 endpoints yield score 0
/// from their side (a pendant edge can only be rescued by its other end).
Result<ScoredEdges> DisparityFilter(const Graph& graph,
                                    const DisparityFilterOptions& options =
                                        {});

/// Deterministic base^exp for a non-negative integer exponent, by LSB-first
/// binary exponentiation. This replaces std::pow in the disparity p-value:
/// the exponent k-1 is always a whole number, the multiply-only ladder is
/// bit-for-bit reproducible across libms and platforms (std::pow is only
/// faithfully rounded, and differently so per libm), and the identical
/// ladder vectorizes lane-exactly (core/simd_kernels.h). Requires
/// base in [0, 1] so the unconditional squaring can never overflow.
inline double PowUIntExp(double base, uint64_t exp) {
  double result = 1.0;
  double b = base;
  while (exp != 0) {
    if (exp & 1) result *= b;
    b *= b;
    exp >>= 1;
  }
  return result;
}

/// DisparityPValue with the exponent supplied as a pre-gathered
/// degree-minus-one double (the EdgeColumns dm1 layout; exact for any real
/// degree). Single source of truth for the scalar and batched DF kernels.
inline double DisparityPValueDm1(double share, double degree_minus_one) {
  // degree <= 1: a single edge is never significant alone.
  if (degree_minus_one <= 0.0) return 1.0;
  share = std::clamp(share, 0.0, 1.0);
  return PowUIntExp(1.0 - share, static_cast<uint64_t>(degree_minus_one));
}

/// The raw one-sided disparity p-value alpha = (1 - x)^(k - 1) for an edge
/// carrying share `share` at a node of degree `degree`. Exposed for tests.
double DisparityPValue(double share, int64_t degree);

/// The per-edge DF kernel: the score DisparityFilter assigns to `edge`
/// given `graph`'s marginals. Single source of truth for the full sweep
/// and the incremental rescoring path (core/delta_rescore.h) — both call
/// this, so a patched score is bitwise the score a full run computes.
EdgeScore DisparityFilterEdgeScore(const Graph& graph, const Edge& edge,
                                   const DisparityFilterOptions& options);

}  // namespace netbone

#endif  // NETBONE_CORE_DISPARITY_FILTER_H_
