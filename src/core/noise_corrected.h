// Copyright 2026 The netbone Authors.
//
// The Noise-Corrected (NC) backbone — the paper's contribution (Sec. IV).
//
// Edge weights are modeled as sums of unitary interactions occurring with
// edge-specific probability P_ij. The null expectation of an edge weight is
// E[N_ij] = N_i. N_.j / N_.. (both endpoints' propensities enter — the key
// improvement over the Disparity Filter's single-node null model). Observed
// weights are mapped to the symmetric lift transform
//
//   L~_ij = (kappa N_ij - 1) / (kappa N_ij + 1),  kappa = 1 / E[N_ij]  (Eq.1)
//
// and a posterior variance for L~ is obtained by (a) placing a Beta prior
// on P_ij with hypergeometric moments, (b) updating it with the observed
// Binomial draw (Eqs. 3-8), and (c) propagating the posterior Binomial
// variance through the transform with the delta method. The backbone keeps
// an edge iff its transformed lift exceeds zero by more than delta
// posterior standard deviations.

#ifndef NETBONE_CORE_NOISE_CORRECTED_H_
#define NETBONE_CORE_NOISE_CORRECTED_H_

#include "common/result.h"
#include "core/scored_edges.h"
#include "graph/graph.h"

namespace netbone {

/// Tuning knobs for the NC computation. Defaults reproduce the paper.
struct NoiseCorrectedOptions {
  /// Paper footnote 2: skip the lift transform and report the Binomial CDF
  /// p-value-style score directly (score = BinomCdf(n_ij; n_.., p_prior),
  /// sdev = 0). Loses the ability to compare edges to each other.
  bool use_binomial_pvalue = false;

  /// When false, skip the Bayesian update and plug the observed frequency
  /// N_ij / N_.. into the Binomial variance (the degenerate estimator the
  /// paper's Sec. IV argues against; exposed for the ablation bench).
  bool bayesian_prior = true;

  /// When true, use the beta-prior expression from the author's reference
  /// Python implementation, which reads (1 - mu^2) where the paper's Eq. 8
  /// has (1 - mu)^2. Numerically negligible; exposed for the ablation.
  bool python_erratum_beta = false;

  /// The paper's delta method lets kappa respond to N_ij (the weight sits
  /// inside its own marginals), producing the dkappa/dN term. For
  /// *cross-snapshot* comparisons of one pair, the natural error model
  /// treats each snapshot's marginals as given; setting this false drops
  /// the dkappa/dN term — and avoids the near-cancellation
  /// (kappa + n dkappa/dn ~ 0) that deflates the sdev of hub-incident
  /// edges. Used by core/change_detection.
  bool marginals_respond_to_weight = true;

  /// Worker threads for the scoring sweep (ParallelScoreEdgeRanges).
  /// 0 = hardware concurrency. Scores are bit-identical for every value.
  int num_threads = 0;

  /// Cooperative cancellation, polled at chunk granularity inside the
  /// scoring sweep; a fired token returns Cancelled / DeadlineExceeded.
  CancelToken cancel;
};

/// Full per-edge decomposition of the NC computation, for diagnostics,
/// tests and the variance-validation experiment (Table I).
struct NoiseCorrectedDetail {
  double expectation = 0.0;      ///< E[N_ij] under the null.
  double lift = 0.0;             ///< N_ij / E[N_ij].
  double transformed_lift = 0.0; ///< L~_ij (the score).
  double prior_mean = 0.0;       ///< E[P_ij] (hypergeometric).
  double prior_variance = 0.0;   ///< V[P_ij] (hypergeometric).
  double posterior_p = 0.0;      ///< posterior mean of P_ij.
  double variance_nij = 0.0;     ///< N_.. p~ (1 - p~).
  double variance_lift = 0.0;    ///< delta-method V[L~_ij].
  double sdev = 0.0;             ///< sqrt(V[L~_ij]).
};

/// Scores every edge of `graph` with the NC transformed lift and its
/// posterior standard deviation. Works for directed and undirected graphs
/// (undirected marginals are the symmetric row/column sums). Fails on
/// empty graphs or graphs with zero total weight.
Result<ScoredEdges> NoiseCorrected(const Graph& graph,
                                   const NoiseCorrectedOptions& options = {});

/// As NoiseCorrected, but also returns the per-edge decomposition in
/// `details` (aligned with the edge table). `details` must be non-null.
Result<ScoredEdges> NoiseCorrectedWithDetails(
    const Graph& graph, const NoiseCorrectedOptions& options,
    std::vector<NoiseCorrectedDetail>* details);

/// Computes the NC detail record for a single (hypothetical) edge weight
/// `nij` between nodes with marginals `ni_out`, `nj_in` in a network of
/// total weight `n_total`. The building block shared by both entry points;
/// exposed for property tests.
Result<NoiseCorrectedDetail> NoiseCorrectedEdge(
    double nij, double ni_out, double nj_in, double n_total,
    const NoiseCorrectedOptions& options = {});

}  // namespace netbone

#endif  // NETBONE_CORE_NOISE_CORRECTED_H_
