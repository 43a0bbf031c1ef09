#include "core/noise_corrected.h"

#include <cmath>

#include "common/strings.h"
#include "core/simd_kernels.h"
#include "graph/edge_columns.h"
#include "stats/distributions.h"
#include "stats/special_functions.h"

namespace netbone {

Result<NoiseCorrectedDetail> NoiseCorrectedEdge(
    double nij, double ni_out, double nj_in, double n_total,
    const NoiseCorrectedOptions& options) {
  if (!(n_total > 0.0)) {
    return Status::InvalidArgument("network total weight must be positive");
  }
  if (!(ni_out > 0.0) || !(nj_in > 0.0)) {
    return Status::InvalidArgument(
        "edge endpoints must have positive strength");
  }
  if (nij < 0.0) {
    return Status::InvalidArgument("edge weight must be non-negative");
  }

  NoiseCorrectedDetail d;
  d.expectation = ni_out * nj_in / n_total;
  const double kappa = 1.0 / d.expectation;  // n.. / (ni. * n.j)
  d.lift = nij * kappa;
  d.transformed_lift = (kappa * nij - 1.0) / (kappa * nij + 1.0);

  const PriorMoments prior =
      HypergeometricPriorMoments(ni_out, nj_in, n_total);
  d.prior_mean = prior.mean;
  d.prior_variance = prior.variance;

  if (options.use_binomial_pvalue) {
    // Footnote 2: the score is the Binomial CDF of the observed weight
    // under the prior success probability; no sdev is available.
    d.posterior_p = prior.mean;
    d.transformed_lift = BinomialCdf(nij, n_total, prior.mean);
    d.variance_nij = BinomialVariance(n_total, prior.mean);
    d.variance_lift = 0.0;
    d.sdev = 0.0;
    return d;
  }

  if (options.bayesian_prior) {
    const Result<BetaParams> fit =
        options.python_erratum_beta
            ? FitBetaByMomentsPythonErratum(prior.mean, prior.variance)
            : FitBetaByMoments(prior.mean, prior.variance);
    if (fit.ok()) {
      // Posterior Beta[n_ij + alpha, n_.. - n_ij + beta] (Eq. 4).
      const double alpha_post = fit->alpha + nij;
      const double beta_post = fit->beta + (n_total - nij);
      d.posterior_p = alpha_post / (alpha_post + beta_post);
    } else {
      // Degenerate prior (a marginal equal to the whole network, or a
      // 1-interaction network): fall back to the prior mean blended with
      // the observation, which is the posterior limit as the prior
      // variance collapses.
      d.posterior_p = prior.mean;
    }
  } else {
    // Ablation: naive plug-in estimate P^_ij = N_ij / N_.. — exactly the
    // estimator whose zero-variance degeneracy motivates the Bayesian
    // treatment.
    d.posterior_p = nij / n_total;
  }

  d.variance_nij = BinomialVariance(n_total, d.posterior_p);

  // Delta method (Sec. IV): V[L~] = V[N] (2(kappa + N dkappa/dN) /
  // (kappa N + 1)^2)^2, with dkappa/dN accounting for N_ij's presence in
  // both marginals and the total. With fixed marginals the dkappa term
  // drops (see NoiseCorrectedOptions::marginals_respond_to_weight).
  const double dkappa =
      options.marginals_respond_to_weight
          ? 1.0 / (ni_out * nj_in) -
                n_total * (ni_out + nj_in) /
                    ((ni_out * nj_in) * (ni_out * nj_in))
          : 0.0;
  const double denom = (kappa * nij + 1.0) * (kappa * nij + 1.0);
  const double jacobian = 2.0 * (kappa + nij * dkappa) / denom;
  d.variance_lift = d.variance_nij * jacobian * jacobian;
  d.sdev = std::sqrt(d.variance_lift);
  return d;
}

Result<ScoredEdges> NoiseCorrectedWithDetails(
    const Graph& graph, const NoiseCorrectedOptions& options,
    std::vector<NoiseCorrectedDetail>* details) {
  if (details == nullptr) {
    return Status::InvalidArgument("details must be non-null");
  }
  if (graph.num_edges() == 0) {
    return Status::FailedPrecondition("graph has no edges");
  }
  const double n_total = graph.matrix_total();
  if (!(n_total > 0.0)) {
    return Status::FailedPrecondition("graph total weight is zero");
  }

  // The details table is pre-sized so parallel ranges can fill disjoint
  // index-aligned slots alongside the score vector.
  details->assign(static_cast<size_t>(graph.num_edges()),
                  NoiseCorrectedDetail{});
  const auto score_edge = [&](EdgeId id) {
    const Edge& e = graph.edge(id);
    return NoiseCorrectedEdge(e.weight, graph.out_strength(e.src),
                              graph.in_strength(e.dst), n_total, options);
  };
  Result<std::vector<EdgeScore>> scores = ParallelScoreEdgeRanges(
      graph, options.num_threads,
      [&](int64_t begin, int64_t end, EdgeScore* out) -> int64_t {
        for (EdgeId id = begin; id < end; ++id) {
          Result<NoiseCorrectedDetail> d = score_edge(id);
          if (!d.ok()) return id;
          out[id] = EdgeScore{d->transformed_lift, d->sdev};
          (*details)[static_cast<size_t>(id)] = std::move(*d);
        }
        return -1;
      },
      [&](EdgeId id) { return score_edge(id).status(); }, options.cancel);
  if (!scores.ok()) {
    details->clear();
    return scores.status();
  }
  return ScoredEdges(&graph,
                     options.use_binomial_pvalue ? "noise_corrected_pvalue"
                                                 : "noise_corrected",
                     std::move(*scores),
                     /*has_sdev=*/!options.use_binomial_pvalue);
}

Result<ScoredEdges> NoiseCorrected(const Graph& graph,
                                   const NoiseCorrectedOptions& options) {
  if (options.use_binomial_pvalue) {
    // Footnote-2 variant: the Binomial CDF path is transcendental-laden
    // and rarely used, so it keeps the scalar per-edge oracle.
    std::vector<NoiseCorrectedDetail> details;
    return NoiseCorrectedWithDetails(graph, options, &details);
  }
  if (graph.num_edges() == 0) {
    return Status::FailedPrecondition("graph has no edges");
  }
  const double n_total = graph.matrix_total();
  if (!(n_total > 0.0)) {
    return Status::FailedPrecondition("graph total weight is zero");
  }

  // Batched sweep over the SoA columns: no detail table is allocated or
  // filled, and whole chunk sub-ranges go to the vectorized NC kernel
  // (bit-identical to NoiseCorrectedEdge per element, which the identity
  // suite enforces). A flagged edge replays the scalar oracle once to
  // regenerate the exact per-edge Status.
  const EdgeColumns& cols = graph.edge_columns();
  NcKernelConfig cfg;
  cfg.n_total = n_total;
  cfg.bayesian_prior = options.bayesian_prior;
  cfg.python_erratum_beta = options.python_erratum_beta;
  cfg.marginals_respond_to_weight = options.marginals_respond_to_weight;
  Result<std::vector<EdgeScore>> scores = ParallelScoreEdgeRanges(
      graph, options.num_threads,
      [&](int64_t begin, int64_t end, EdgeScore* out) {
        return NoiseCorrectedBatch(cols, cfg, begin, end, out);
      },
      [&](EdgeId id) {
        const Edge& e = graph.edge(id);
        return NoiseCorrectedEdge(e.weight, graph.out_strength(e.src),
                                  graph.in_strength(e.dst), n_total, options)
            .status();
      },
      options.cancel);
  if (!scores.ok()) return scores.status();
  return ScoredEdges(&graph, "noise_corrected", std::move(*scores),
                     /*has_sdev=*/true);
}

}  // namespace netbone
