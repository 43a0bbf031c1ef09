// Tests for the Noise-Corrected backbone (paper Sec. IV): the lift
// transform, the Bayesian posterior, the delta-method variance, the
// delta filter, and the Fig. 3 toy-example behaviour.

#include "core/noise_corrected.h"

#include <cmath>
#include <tuple>

#include <gtest/gtest.h>

#include "core/disparity_filter.h"
#include "core/filter.h"
#include "gen/erdos_renyi.h"
#include "graph/builder.h"
#include "stats/distributions.h"

namespace netbone {
namespace {

Graph MakeToyHub() {
  // Paper Fig. 3: hub (0) connected to five nodes; nodes 1 and 2 are also
  // connected to each other, more weakly than their hub links.
  GraphBuilder builder(Directedness::kUndirected);
  builder.AddEdge(0, 1, 10.0);
  builder.AddEdge(0, 2, 10.0);
  builder.AddEdge(0, 3, 10.0);
  builder.AddEdge(0, 4, 10.0);
  builder.AddEdge(0, 5, 10.0);
  builder.AddEdge(1, 2, 4.0);
  return *builder.Build();
}

TEST(NoiseCorrectedEdgeTest, ExpectationMatchesNullModel) {
  const auto detail = NoiseCorrectedEdge(/*nij=*/5.0, /*ni_out=*/20.0,
                                         /*nj_in=*/30.0, /*n_total=*/100.0);
  ASSERT_TRUE(detail.ok()) << detail.status().ToString();
  EXPECT_DOUBLE_EQ(detail->expectation, 20.0 * 30.0 / 100.0);
  EXPECT_DOUBLE_EQ(detail->lift, 5.0 / 6.0);
}

TEST(NoiseCorrectedEdgeTest, TransformedLiftAtExpectationIsZero) {
  // Lift == 1 must map to score == 0 (Eq. 1 is centered).
  const auto detail = NoiseCorrectedEdge(6.0, 20.0, 30.0, 100.0);
  ASSERT_TRUE(detail.ok());
  EXPECT_NEAR(detail->lift, 1.0, 1e-12);
  EXPECT_NEAR(detail->transformed_lift, 0.0, 1e-12);
}

TEST(NoiseCorrectedEdgeTest, TransformIsSymmetricAroundOne) {
  // The paper's motivating example: lift 0.1 and lift 10 map to -0.81 and
  // +0.81 respectively.
  const double expectation = 20.0 * 30.0 / 100.0;  // = 6
  const auto low = NoiseCorrectedEdge(0.1 * expectation, 20.0, 30.0, 100.0);
  const auto high = NoiseCorrectedEdge(10.0 * expectation, 20.0, 30.0, 100.0);
  ASSERT_TRUE(low.ok());
  ASSERT_TRUE(high.ok());
  EXPECT_NEAR(low->transformed_lift, -10.0 / 11.0 * 0.9, 1e-9);
  EXPECT_NEAR(low->transformed_lift, -high->transformed_lift, 1e-12);
  EXPECT_NEAR(high->transformed_lift, 0.818181818, 1e-6);
}

TEST(NoiseCorrectedEdgeTest, ZeroWeightEdgeHasNonDegenerateVariance) {
  // The paper's central fix: N_ij = 0 must NOT produce zero variance
  // (the Bayesian prior keeps the posterior success probability > 0).
  const auto detail = NoiseCorrectedEdge(0.0, 20.0, 30.0, 100.0);
  ASSERT_TRUE(detail.ok());
  EXPECT_GT(detail->posterior_p, 0.0);
  EXPECT_GT(detail->variance_nij, 0.0);
  EXPECT_GT(detail->sdev, 0.0);
  EXPECT_DOUBLE_EQ(detail->transformed_lift, -1.0);
}

TEST(NoiseCorrectedEdgeTest, PluginEstimatorDegeneratesAtZero) {
  // Ablation contrast: without the Bayesian prior a zero-weight edge has
  // exactly zero estimated variance — the degeneracy Sec. IV describes.
  NoiseCorrectedOptions options;
  options.bayesian_prior = false;
  const auto detail = NoiseCorrectedEdge(0.0, 20.0, 30.0, 100.0, options);
  ASSERT_TRUE(detail.ok());
  EXPECT_DOUBLE_EQ(detail->posterior_p, 0.0);
  EXPECT_DOUBLE_EQ(detail->variance_nij, 0.0);
  EXPECT_DOUBLE_EQ(detail->sdev, 0.0);
}

TEST(NoiseCorrectedEdgeTest, PosteriorBlendsPriorTowardObservation) {
  // Observation far above the prior mean must pull the posterior up, but
  // not beyond the observed frequency.
  const double nij = 50.0, ni = 100.0, nj = 100.0, total = 1000.0;
  const auto detail = NoiseCorrectedEdge(nij, ni, nj, total);
  ASSERT_TRUE(detail.ok());
  const double prior_mean = ni * nj / (total * total);  // 0.01
  const double observed = nij / total;                  // 0.05
  EXPECT_GT(detail->posterior_p, prior_mean);
  EXPECT_LT(detail->posterior_p, observed);
}

TEST(NoiseCorrectedEdgeTest, PosteriorMatchesHandComputedBetaUpdate) {
  // Full hand computation for nij=4, ni=14, nj=14, n=108 (the Fig. 3
  // peripheral edge): prior moments -> Eqs. 7-8 -> Eq. 4 posterior.
  const auto detail = NoiseCorrectedEdge(4.0, 14.0, 14.0, 108.0);
  ASSERT_TRUE(detail.ok());
  const PriorMoments prior = HypergeometricPriorMoments(14.0, 14.0, 108.0);
  const auto params = FitBetaByMoments(prior.mean, prior.variance);
  ASSERT_TRUE(params.ok());
  const double alpha_post = params->alpha + 4.0;
  const double beta_post = params->beta + 104.0;
  EXPECT_NEAR(detail->posterior_p, alpha_post / (alpha_post + beta_post),
              1e-12);
}

TEST(NoiseCorrectedEdgeTest, VarianceMatchesDeltaMethodFormula) {
  const double nij = 7.0, ni = 25.0, nj = 40.0, total = 200.0;
  const auto detail = NoiseCorrectedEdge(nij, ni, nj, total);
  ASSERT_TRUE(detail.ok());
  const double kappa = total / (ni * nj);
  const double dkappa =
      1.0 / (ni * nj) - total * (ni + nj) / ((ni * nj) * (ni * nj));
  const double denom = (kappa * nij + 1.0) * (kappa * nij + 1.0);
  const double jacobian = 2.0 * (kappa + nij * dkappa) / denom;
  EXPECT_NEAR(detail->variance_lift,
              detail->variance_nij * jacobian * jacobian, 1e-12);
  EXPECT_NEAR(detail->sdev, std::sqrt(detail->variance_lift), 1e-12);
}

TEST(NoiseCorrectedEdgeTest, RejectsNonPositiveTotals) {
  EXPECT_FALSE(NoiseCorrectedEdge(1.0, 2.0, 3.0, 0.0).ok());
  EXPECT_FALSE(NoiseCorrectedEdge(1.0, 0.0, 3.0, 10.0).ok());
  EXPECT_FALSE(NoiseCorrectedEdge(1.0, 2.0, 0.0, 10.0).ok());
  EXPECT_FALSE(NoiseCorrectedEdge(-1.0, 2.0, 3.0, 10.0).ok());
}

TEST(NoiseCorrectedEdgeTest, PythonErratumIsNumericallyClose) {
  // The reference implementation's beta-prior typo changes results by a
  // negligible amount for realistic marginals (DESIGN.md §3).
  NoiseCorrectedOptions erratum;
  erratum.python_erratum_beta = true;
  const auto paper = NoiseCorrectedEdge(10.0, 300.0, 200.0, 50000.0);
  const auto python = NoiseCorrectedEdge(10.0, 300.0, 200.0, 50000.0,
                                         erratum);
  ASSERT_TRUE(paper.ok());
  ASSERT_TRUE(python.ok());
  EXPECT_DOUBLE_EQ(paper->transformed_lift, python->transformed_lift);
  EXPECT_NEAR(paper->sdev, python->sdev, 1e-3 * paper->sdev);
}

TEST(NoiseCorrectedEdgeTest, BinomialPvalueVariantScoresInUnitInterval) {
  NoiseCorrectedOptions options;
  options.use_binomial_pvalue = true;
  const auto high = NoiseCorrectedEdge(50.0, 100.0, 100.0, 1000.0, options);
  const auto low = NoiseCorrectedEdge(1.0, 100.0, 100.0, 1000.0, options);
  ASSERT_TRUE(high.ok());
  ASSERT_TRUE(low.ok());
  EXPECT_GT(high->transformed_lift, 0.99);  // far above expectation
  EXPECT_LT(low->transformed_lift, 0.05);   // far below expectation
  EXPECT_EQ(high->sdev, 0.0);               // footnote 2: no sdev available
}

// ---------------------------------------------------------------------------
// Property sweeps (TEST_P): invariants over a grid of edge configurations.
// ---------------------------------------------------------------------------

using EdgeConfig = std::tuple<double, double, double, double>;

class NoiseCorrectedPropertyTest
    : public ::testing::TestWithParam<EdgeConfig> {};

TEST_P(NoiseCorrectedPropertyTest, ScoreIsInHalfOpenUnitInterval) {
  const auto [nij, ni, nj, total] = GetParam();
  const auto detail = NoiseCorrectedEdge(nij, ni, nj, total);
  ASSERT_TRUE(detail.ok()) << detail.status().ToString();
  EXPECT_GE(detail->transformed_lift, -1.0);
  EXPECT_LT(detail->transformed_lift, 1.0);
}

TEST_P(NoiseCorrectedPropertyTest, VarianceIsNonNegativeAndFinite) {
  const auto [nij, ni, nj, total] = GetParam();
  const auto detail = NoiseCorrectedEdge(nij, ni, nj, total);
  ASSERT_TRUE(detail.ok());
  EXPECT_GE(detail->variance_lift, 0.0);
  EXPECT_TRUE(std::isfinite(detail->variance_lift));
  EXPECT_TRUE(std::isfinite(detail->sdev));
}

TEST_P(NoiseCorrectedPropertyTest, PosteriorProbabilityIsInUnitInterval) {
  const auto [nij, ni, nj, total] = GetParam();
  const auto detail = NoiseCorrectedEdge(nij, ni, nj, total);
  ASSERT_TRUE(detail.ok());
  EXPECT_GT(detail->posterior_p, 0.0);
  EXPECT_LT(detail->posterior_p, 1.0);
}

TEST_P(NoiseCorrectedPropertyTest, ScoreIncreasesWithWeight) {
  // L~ is monotone in nij, holding marginals fixed.
  const auto [nij, ni, nj, total] = GetParam();
  const auto at = NoiseCorrectedEdge(nij, ni, nj, total);
  const auto above = NoiseCorrectedEdge(nij + 0.5, ni, nj, total);
  ASSERT_TRUE(at.ok());
  ASSERT_TRUE(above.ok());
  EXPECT_GT(above->transformed_lift, at->transformed_lift);
}

TEST_P(NoiseCorrectedPropertyTest, SymmetricInMarginals) {
  // Swapping n_i. and n_.j leaves every NC quantity unchanged.
  const auto [nij, ni, nj, total] = GetParam();
  const auto forward = NoiseCorrectedEdge(nij, ni, nj, total);
  const auto swapped = NoiseCorrectedEdge(nij, nj, ni, total);
  ASSERT_TRUE(forward.ok());
  ASSERT_TRUE(swapped.ok());
  EXPECT_DOUBLE_EQ(forward->transformed_lift, swapped->transformed_lift);
  EXPECT_DOUBLE_EQ(forward->sdev, swapped->sdev);
}

TEST_P(NoiseCorrectedPropertyTest, PvalueVariantAgreesDirectionally) {
  // The footnote-2 p-value crosses 0.5 roughly where the lift crosses 1.
  const auto [nij, ni, nj, total] = GetParam();
  NoiseCorrectedOptions pvalue;
  pvalue.use_binomial_pvalue = true;
  const auto transform = NoiseCorrectedEdge(nij, ni, nj, total);
  const auto binomial = NoiseCorrectedEdge(nij, ni, nj, total, pvalue);
  ASSERT_TRUE(transform.ok());
  ASSERT_TRUE(binomial.ok());
  if (transform->transformed_lift > 0.25) {
    EXPECT_GT(binomial->transformed_lift, 0.5);
  }
  if (transform->transformed_lift < -0.25) {
    EXPECT_LT(binomial->transformed_lift, 0.5);
  }
}

INSTANTIATE_TEST_SUITE_P(
    EdgeGrid, NoiseCorrectedPropertyTest,
    ::testing::Values(
        EdgeConfig{0.0, 10.0, 10.0, 100.0},
        EdgeConfig{1.0, 10.0, 10.0, 100.0},
        EdgeConfig{5.0, 10.0, 10.0, 100.0},
        EdgeConfig{1.0, 50.0, 3.0, 200.0},
        EdgeConfig{20.0, 60.0, 80.0, 500.0},
        EdgeConfig{100.0, 400.0, 300.0, 10000.0},
        EdgeConfig{3.0, 3.0, 3.0, 1000.0},
        EdgeConfig{2.0, 900.0, 900.0, 2000.0},
        EdgeConfig{7.0, 25.0, 40.0, 200.0},
        EdgeConfig{1.0, 1.0, 1.0, 50.0},
        EdgeConfig{500.0, 2000.0, 1500.0, 1000000.0},
        EdgeConfig{0.5, 12.5, 7.25, 333.0}));

// ---------------------------------------------------------------------------
// Whole-graph behaviour.
// ---------------------------------------------------------------------------

TEST(NoiseCorrectedGraphTest, Fig3ToyNcPrefersPeripheralEdge) {
  // The paper's qualitative claim (Fig. 3): the weak peripheral-peripheral
  // connection is MORE unanticipated than the strong periphery-hub edges
  // of the same nodes, because those nodes "tend to have low edge weights
  // in general".
  const Graph g = MakeToyHub();
  const auto nc = NoiseCorrected(g);
  ASSERT_TRUE(nc.ok());
  const EdgeId hub_to_1 = g.FindEdge(0, 1);
  const EdgeId hub_to_2 = g.FindEdge(0, 2);
  const EdgeId peripheral = g.FindEdge(1, 2);
  ASSERT_GE(hub_to_1, 0);
  ASSERT_GE(peripheral, 0);
  EXPECT_GT(nc->at(peripheral).score, nc->at(hub_to_1).score);
  EXPECT_GT(nc->at(peripheral).score, nc->at(hub_to_2).score);
  // And the peripheral edge outranks every hub spoke.
  for (EdgeId id = 0; id < g.num_edges(); ++id) {
    if (id == peripheral) continue;
    EXPECT_GT(nc->at(peripheral).score, nc->at(id).score)
        << "edge " << g.edge(id).src << "-" << g.edge(id).dst;
  }
}

TEST(NoiseCorrectedGraphTest, Fig3ToyDisparityPrefersHubEdges) {
  // The contrast: DF keeps the hub connections of nodes 1 and 2 (huge from
  // the peripheral node's own perspective) and ranks the 1-2 edge last.
  const Graph g = MakeToyHub();
  const auto df = DisparityFilter(g);
  ASSERT_TRUE(df.ok());
  const EdgeId hub_to_1 = g.FindEdge(0, 1);
  const EdgeId peripheral = g.FindEdge(1, 2);
  EXPECT_GT(df->at(hub_to_1).score, df->at(peripheral).score);
  for (EdgeId id = 0; id < g.num_edges(); ++id) {
    if (id == peripheral) continue;
    EXPECT_GE(df->at(id).score, df->at(peripheral).score);
  }
}

TEST(NoiseCorrectedGraphTest, Fig3TopFourMatchesFigure) {
  // At an edge budget of 4, NC keeps the peripheral edge and the three
  // pendant spokes; the hub's links to the interconnected pair (the blue
  // dashed edges of the figure) are exactly the ones dropped.
  const Graph g = MakeToyHub();
  const auto nc = NoiseCorrected(g);
  ASSERT_TRUE(nc.ok());
  const BackboneMask mask = TopK(*nc, 4);
  EXPECT_EQ(mask.kept, 4);
  EXPECT_TRUE(mask.keep[static_cast<size_t>(g.FindEdge(1, 2))]);
  EXPECT_TRUE(mask.keep[static_cast<size_t>(g.FindEdge(0, 3))]);
  EXPECT_TRUE(mask.keep[static_cast<size_t>(g.FindEdge(0, 4))]);
  EXPECT_TRUE(mask.keep[static_cast<size_t>(g.FindEdge(0, 5))]);
  EXPECT_FALSE(mask.keep[static_cast<size_t>(g.FindEdge(0, 1))]);
  EXPECT_FALSE(mask.keep[static_cast<size_t>(g.FindEdge(0, 2))]);
}

TEST(NoiseCorrectedGraphTest, UndirectedScoresAreEndpointSymmetric) {
  // For an undirected graph the marginals are symmetric, so scoring must
  // not depend on the stored (src, dst) orientation.
  GraphBuilder builder(Directedness::kUndirected);
  builder.AddEdge(3, 1, 5.0);  // deliberately reversed order
  builder.AddEdge(1, 2, 2.0);
  builder.AddEdge(2, 3, 7.0);
  builder.AddEdge(0, 1, 1.0);
  const Graph g = *builder.Build();
  const auto nc = NoiseCorrected(g);
  ASSERT_TRUE(nc.ok());
  for (EdgeId id = 0; id < g.num_edges(); ++id) {
    const Edge& e = g.edge(id);
    const auto detail = NoiseCorrectedEdge(
        e.weight, g.out_strength(e.dst), g.in_strength(e.src),
        g.matrix_total());
    ASSERT_TRUE(detail.ok());
    EXPECT_DOUBLE_EQ(nc->at(id).score, detail->transformed_lift);
  }
}

TEST(NoiseCorrectedGraphTest, DirectedUsesDirectedMarginals) {
  // In a directed 2-cycle with asymmetric weights the two directions must
  // receive different scores.
  GraphBuilder builder(Directedness::kDirected);
  builder.AddEdge(0, 1, 10.0);
  builder.AddEdge(1, 0, 1.0);
  builder.AddEdge(0, 2, 5.0);
  builder.AddEdge(2, 1, 5.0);
  const Graph g = *builder.Build();
  const auto nc = NoiseCorrected(g);
  ASSERT_TRUE(nc.ok());
  const EdgeId forward = g.FindEdge(0, 1);
  const EdgeId backward = g.FindEdge(1, 0);
  EXPECT_NE(nc->at(forward).score, nc->at(backward).score);
}

TEST(NoiseCorrectedGraphTest, DeltaFilterIsMonotoneInDelta) {
  const Graph g = MakeToyHub();
  const auto nc = NoiseCorrected(g);
  ASSERT_TRUE(nc.ok());
  int64_t previous = g.num_edges() + 1;
  for (const double delta : {0.0, 1.0, 1.28, 1.64, 2.32, 10.0, 100.0}) {
    const BackboneMask mask = FilterByDelta(*nc, delta);
    EXPECT_LE(mask.kept, previous) << "delta=" << delta;
    previous = mask.kept;
  }
}

TEST(NoiseCorrectedGraphTest, FailsOnEmptyGraph) {
  GraphBuilder builder(Directedness::kDirected);
  builder.ReserveNodes(5);
  const Graph g = *builder.Build();
  EXPECT_FALSE(NoiseCorrected(g).ok());
}

TEST(NoiseCorrectedGraphTest, DetailsAlignWithEdgeTable) {
  const Graph g = MakeToyHub();
  std::vector<NoiseCorrectedDetail> details;
  const auto nc = NoiseCorrectedWithDetails(g, {}, &details);
  ASSERT_TRUE(nc.ok());
  ASSERT_EQ(static_cast<int64_t>(details.size()), g.num_edges());
  for (EdgeId id = 0; id < g.num_edges(); ++id) {
    EXPECT_DOUBLE_EQ(details[static_cast<size_t>(id)].transformed_lift,
                     nc->at(id).score);
    EXPECT_DOUBLE_EQ(details[static_cast<size_t>(id)].sdev,
                     nc->at(id).sdev);
  }
}

TEST(NoiseCorrectedGraphTest, RejectsNullDetails) {
  const Graph g = MakeToyHub();
  EXPECT_FALSE(NoiseCorrectedWithDetails(g, {}, nullptr).ok());
}

TEST(NoiseCorrectedGraphTest, ScoresAndDetailsIdenticalAcrossThreadCounts) {
  // The parallel sweep (ParallelScoreEdgeRanges) must be bit-identical to the
  // serial one, including the per-edge detail table, on a graph large
  // enough to split into several chunks.
  const auto g = GenerateErdosRenyi(
      {.num_nodes = 4000, .average_degree = 6.0, .seed = 13});
  ASSERT_TRUE(g.ok());
  NoiseCorrectedOptions serial;
  serial.num_threads = 1;
  std::vector<NoiseCorrectedDetail> serial_details;
  const auto reference = NoiseCorrectedWithDetails(*g, serial,
                                                   &serial_details);
  ASSERT_TRUE(reference.ok());
  for (const int threads : {2, 8}) {
    NoiseCorrectedOptions options;
    options.num_threads = threads;
    std::vector<NoiseCorrectedDetail> details;
    const auto nc = NoiseCorrectedWithDetails(*g, options, &details);
    ASSERT_TRUE(nc.ok());
    ASSERT_EQ(details.size(), serial_details.size());
    for (EdgeId id = 0; id < g->num_edges(); ++id) {
      const size_t i = static_cast<size_t>(id);
      EXPECT_EQ(nc->at(id).score, reference->at(id).score);
      EXPECT_EQ(nc->at(id).sdev, reference->at(id).sdev);
      EXPECT_EQ(details[i].posterior_p, serial_details[i].posterior_p);
      EXPECT_EQ(details[i].variance_lift, serial_details[i].variance_lift);
    }
  }
}

TEST(NoiseCorrectedGraphTest, ParallelSweepReportsSerialFirstError) {
  // A zero-weight edge to an otherwise-isolated node breaks NC; the
  // parallel sweep must surface the same failure for every thread count.
  GraphBuilder builder(Directedness::kUndirected);
  for (NodeId v = 0; v < 5000; ++v) builder.AddEdge(v, v + 1, 3.0);
  builder.AddEdge(2500, 6000, 0.0);
  const Graph g = *builder.Build();
  for (const int threads : {1, 2, 8}) {
    NoiseCorrectedOptions options;
    options.num_threads = threads;
    const auto nc = NoiseCorrected(g, options);
    ASSERT_FALSE(nc.ok());
    EXPECT_TRUE(nc.status().IsInvalidArgument());
  }
}

TEST(NoiseCorrectedGraphTest, ShiftedScoresMatchManualComputation) {
  const Graph g = MakeToyHub();
  const auto nc = NoiseCorrected(g);
  ASSERT_TRUE(nc.ok());
  const std::vector<double> shifted = nc->ShiftedScores(1.64);
  for (EdgeId id = 0; id < g.num_edges(); ++id) {
    EXPECT_DOUBLE_EQ(shifted[static_cast<size_t>(id)],
                     nc->at(id).score - 1.64 * nc->at(id).sdev);
  }
}

}  // namespace
}  // namespace netbone
