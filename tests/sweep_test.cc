// Tests for the one-sort threshold-sweep engine (core/sweep.h,
// eval/sweep_metrics.h): batch Coverage and stopping-index results must be
// element-wise identical to the per-point TopShare + CoverageOfMask /
// GrowUntilConnected path on directed, undirected, tied-score, and
// disconnected graphs, at every thread count; a whole sweep must perform
// exactly one score sort per method (ScoreOrder::SortsPerformed); and the
// connect-index walk must equal a naive walk that unions every edge,
// whether connectivity is unknown, learned, or inherited from an ancestor
// across a weight-only delta (Graph::InheritEdgeFacts); and a prefix
// evaluated alone (EvaluatePrefix) must equal the profile at that prefix
// bit for bit without learning anything about connectivity.

#include "core/sweep.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "core/naive.h"
#include "core/registry.h"
#include "eval/coverage.h"
#include "eval/edge_budget.h"
#include "eval/stability.h"
#include "eval/sweep_metrics.h"
#include "gen/barabasi_albert.h"
#include "gen/erdos_renyi.h"
#include "graph/builder.h"
#include "graph/components.h"
#include "graph/delta.h"
#include "graph/temporal.h"
#include "graph/union_find.h"

namespace netbone {
namespace {

std::vector<double> FiftyShares() {
  std::vector<double> shares;
  for (int p = 1; p <= 50; ++p) {
    shares.push_back(static_cast<double>(p) / 50.0);
  }
  return shares;
}

Graph MakeWeightedPath() {
  GraphBuilder builder(Directedness::kUndirected);
  builder.AddEdge(0, 1, 1.0);
  builder.AddEdge(1, 2, 2.0);
  builder.AddEdge(2, 3, 3.0);
  builder.AddEdge(3, 4, 4.0);
  builder.AddEdge(4, 5, 5.0);
  return *builder.Build();
}

Graph MakeTiedScores() {
  // All weights equal: every score ties, so ordering falls through to the
  // id tie-break — the case where a sloppy comparator would diverge.
  GraphBuilder builder(Directedness::kUndirected);
  builder.AddEdge(0, 1, 2.0);
  builder.AddEdge(1, 2, 2.0);
  builder.AddEdge(2, 3, 2.0);
  builder.AddEdge(3, 4, 2.0);
  builder.AddEdge(0, 4, 2.0);
  return *builder.Build();
}

Graph MakeDisconnected() {
  // Two components plus an isolate: GrowUntilConnected can never cover
  // the target in one component, so it must keep every edge.
  GraphBuilder builder(Directedness::kUndirected);
  builder.AddEdge(0, 1, 5.0);
  builder.AddEdge(1, 2, 4.0);
  builder.AddEdge(3, 4, 3.0);
  builder.AddEdge(4, 5, 2.0);
  builder.ReserveNodes(7);  // node 6 is an isolate
  return *builder.Build();
}

Graph MakeDirected() {
  return *GenerateErdosRenyi({.num_nodes = 120,
                              .average_degree = 4.0,
                              .directedness = Directedness::kDirected,
                              .seed = 11});
}

Graph MakeUndirected() {
  return *GenerateErdosRenyi({.num_nodes = 120,
                              .average_degree = 4.0,
                              .directedness = Directedness::kUndirected,
                              .seed = 13});
}

// ---------------------------------------------------------------------------
// ScoreOrder basics.
// ---------------------------------------------------------------------------

TEST(ScoreOrderTest, PrefixMaskMatchesTopK) {
  const Graph g = MakeWeightedPath();
  const auto nt = NaiveThreshold(g);
  ASSERT_TRUE(nt.ok());
  const ScoreOrder order(*nt);
  for (int64_t k = -1; k <= g.num_edges() + 2; ++k) {
    const BackboneMask batch = order.PrefixMask(k);
    const BackboneMask single = TopK(*nt, k);
    EXPECT_EQ(batch.keep, single.keep) << "k=" << k;
    EXPECT_EQ(batch.kept, single.kept) << "k=" << k;
  }
}

/// An undirected path with exactly `num_edges` edges and integer weights
/// in [1, 4]: NT scores tie heavily, so the id tie-break decides most of
/// the order and the prefix ids scatter across the bitmap words.
Graph MakeIntegerWeightedPath(int64_t num_edges) {
  GraphBuilder builder(Directedness::kUndirected);
  builder.ReserveNodes(static_cast<NodeId>(num_edges + 1));
  Rng rng(static_cast<uint64_t>(num_edges) + 7);
  for (int64_t i = 0; i < num_edges; ++i) {
    builder.AddEdge(static_cast<NodeId>(i), static_cast<NodeId>(i + 1),
                    1.0 + static_cast<double>(rng.NextBounded(4)));
  }
  return *builder.Build();
}

TEST(ScoreOrderTest, PrefixIdsMatchesMaskOracle) {
  for (const int64_t e : {0, 1, 63, 64, 65, 8193}) {
    const Graph g = MakeIntegerWeightedPath(e);
    ASSERT_EQ(g.num_edges(), e);
    // NT refuses an edgeless graph, so E = 0 wraps an empty table.
    const ScoredEdges scored =
        e == 0 ? ScoredEdges(&g, "naive_threshold", {}, /*has_sdev=*/false)
               : *NaiveThreshold(g);
    const ScoreOrder order(scored);
    for (const int64_t k : {INT64_MIN, int64_t{-1}, int64_t{0}, int64_t{1},
                            int64_t{63}, int64_t{64}, int64_t{65}, e - 1, e,
                            e + 1, INT64_MAX}) {
      EXPECT_EQ(order.PrefixIds(k), MaskToEdgeIds(order.PrefixMask(k)))
          << "E=" << e << " k=" << k;
    }
  }
}

TEST(ScoreOrderTest, TopShareOverloadMatchesPerPoint) {
  for (const Graph& g : {MakeWeightedPath(), MakeTiedScores(),
                         MakeDisconnected(), MakeDirected()}) {
    const auto nt = NaiveThreshold(g);
    ASSERT_TRUE(nt.ok());
    const ScoreOrder order(*nt);
    for (const double share : FiftyShares()) {
      const BackboneMask batch = TopShare(order, share);
      const BackboneMask single = TopShare(*nt, share);
      EXPECT_EQ(batch.keep, single.keep) << "share=" << share;
      EXPECT_EQ(batch.kept, single.kept) << "share=" << share;
    }
  }
}

TEST(ScoreOrderTest, OrderIsDescendingWithDeterministicTieBreak) {
  const Graph g = MakeTiedScores();
  const auto nt = NaiveThreshold(g);
  ASSERT_TRUE(nt.ok());
  const ScoreOrder order(*nt);
  ASSERT_EQ(order.size(), g.num_edges());
  for (int64_t rank = 0; rank + 1 < order.size(); ++rank) {
    const EdgeId a = order.id_at(rank);
    const EdgeId b = order.id_at(rank + 1);
    const double sa = nt->at(a).score;
    const double sb = nt->at(b).score;
    EXPECT_GE(sa, sb);
    if (sa == sb && g.edge(a).weight == g.edge(b).weight) {
      EXPECT_LT(a, b);  // ties break toward the lower edge id
    }
  }
}

TEST(ScoreOrderTest, CountAboveMatchesLinearScan) {
  const Graph g = MakeDirected();
  const auto nt = NaiveThreshold(g);
  ASSERT_TRUE(nt.ok());
  const ScoreOrder order(*nt);
  for (const double threshold : {-1.0, 0.0, 0.5, 1.0, 2.5, 100.0}) {
    EXPECT_EQ(CountAboveScore(order, threshold),
              CountAboveScore(*nt, threshold))
        << "threshold=" << threshold;
  }
}

TEST(ScoreOrderTest, KForShareMatchesTopShareRounding) {
  const Graph g = MakeWeightedPath();  // 5 edges
  const auto nt = NaiveThreshold(g);
  ASSERT_TRUE(nt.ok());
  const ScoreOrder order(*nt);
  EXPECT_EQ(order.KForShare(0.0), 0);
  EXPECT_EQ(order.KForShare(0.4), 2);
  EXPECT_EQ(order.KForShare(0.5), 3);  // llround(2.5) = 3
  EXPECT_EQ(order.KForShare(1.0), 5);
  EXPECT_EQ(order.KForShare(-2.0), 0);  // clamped
  EXPECT_EQ(order.KForShare(7.0), 5);   // clamped
}

// ---------------------------------------------------------------------------
// The one-sort contract.
// ---------------------------------------------------------------------------

TEST(SweepEngineTest, FiftyPointSweepSortsExactlyOncePerMethod) {
  const Graph g = MakeUndirected();
  const std::vector<double> shares = FiftyShares();
  const std::vector<Method> methods = {Method::kNaiveThreshold,
                                       Method::kDisparityFilter,
                                       Method::kNoiseCorrected};
  std::vector<Result<ScoredEdges>> scored;
  for (const Method m : methods) scored.push_back(RunMethod(m, g));

  const int64_t sorts_before = ScoreOrder::SortsPerformed();
  for (const auto& table : scored) {
    ASSERT_TRUE(table.ok());
    const ScoreOrder order(*table);
    const auto coverage = CoverageSweep(order, shares);
    ASSERT_TRUE(coverage.ok());
    EXPECT_EQ(coverage->size(), shares.size());
  }
  EXPECT_EQ(ScoreOrder::SortsPerformed() - sorts_before,
            static_cast<int64_t>(methods.size()));
}

TEST(SweepEngineTest, PerPointPathSortsOncePerPoint) {
  // The contrast case documenting what the batch API saves.
  const Graph g = MakeWeightedPath();
  const auto nt = NaiveThreshold(g);
  ASSERT_TRUE(nt.ok());
  const int64_t sorts_before = ScoreOrder::SortsPerformed();
  for (const double share : {0.2, 0.4, 0.6, 0.8, 1.0}) {
    TopShare(*nt, share);
  }
  EXPECT_EQ(ScoreOrder::SortsPerformed() - sorts_before, 5);
}

// ---------------------------------------------------------------------------
// Batch Coverage vs per-point, across graph shapes and thread counts.
// ---------------------------------------------------------------------------

void ExpectBatchCoverageMatchesPerPoint(const Graph& g) {
  const std::vector<double> shares = FiftyShares();
  const std::vector<Method> methods = {Method::kNaiveThreshold,
                                       Method::kDisparityFilter,
                                       Method::kNoiseCorrected};
  for (const int threads : {1, 2, 8}) {
    RunMethodOptions options;
    options.num_threads = threads;
    const auto sweeps = CoverageSweepByMethod(g, methods, shares, options);
    ASSERT_EQ(sweeps.size(), methods.size());
    for (size_t i = 0; i < methods.size(); ++i) {
      const auto scored = RunMethod(methods[i], g, options);
      ASSERT_TRUE(scored.ok()) << MethodName(methods[i]);
      ASSERT_TRUE(sweeps[i].status.ok()) << MethodName(methods[i]);
      ASSERT_EQ(sweeps[i].coverage.size(), shares.size());
      for (size_t s = 0; s < shares.size(); ++s) {
        const auto per_point =
            CoverageOfMask(g, TopShare(*scored, shares[s]));
        ASSERT_TRUE(per_point.ok());
        // Element-wise identical, not just close: both paths divide the
        // same two integers.
        EXPECT_EQ(sweeps[i].coverage[s], *per_point)
            << MethodName(methods[i]) << " share " << shares[s]
            << " threads " << threads;
      }
    }
  }
}

TEST(SweepEngineTest, CoverageMatchesPerPointUndirected) {
  ExpectBatchCoverageMatchesPerPoint(MakeUndirected());
}

TEST(SweepEngineTest, CoverageMatchesPerPointDirected) {
  ExpectBatchCoverageMatchesPerPoint(MakeDirected());
}

TEST(SweepEngineTest, CoverageMatchesPerPointTiedScores) {
  ExpectBatchCoverageMatchesPerPoint(MakeTiedScores());
}

TEST(SweepEngineTest, CoverageMatchesPerPointDisconnected) {
  ExpectBatchCoverageMatchesPerPoint(MakeDisconnected());
}

TEST(SweepEngineTest, CoverageAtShareMatchesCoverageOfMask) {
  const Graph g = MakeUndirected();
  const auto nt = NaiveThreshold(g);
  ASSERT_TRUE(nt.ok());
  const ScoreOrder order(*nt);
  for (const double share : {0.02, 0.1, 0.5, 1.0}) {
    const auto at_share = CoverageAtShare(order, share);
    const auto of_mask = CoverageOfMask(g, TopShare(*nt, share));
    ASSERT_TRUE(at_share.ok());
    ASSERT_TRUE(of_mask.ok());
    EXPECT_EQ(*at_share, *of_mask) << "share=" << share;
  }
}

TEST(SweepEngineTest, NonFiniteShareIsInvalidArgument) {
  const Graph g = MakeUndirected();
  const auto nt = NaiveThreshold(g);
  ASSERT_TRUE(nt.ok());
  const ScoreOrder order(*nt);
  for (const double bad : {std::nan(""), HUGE_VAL, -HUGE_VAL}) {
    const std::vector<double> shares = {0.1, bad, 0.5};
    const auto sweep = CoverageSweep(order, shares);
    ASSERT_FALSE(sweep.ok());
    EXPECT_TRUE(sweep.status().IsInvalidArgument());
    const auto at_share = CoverageAtShare(order, bad);
    ASSERT_FALSE(at_share.ok());
    EXPECT_TRUE(at_share.status().IsInvalidArgument());
  }
}

TEST(SweepEngineTest, MethodFailureIsReportedPerMethod) {
  // DS cannot balance a directed graph where some node only sends; the
  // per-method status must carry that error while other methods succeed.
  GraphBuilder builder(Directedness::kDirected);
  builder.AddEdge(0, 1, 1.0);
  builder.AddEdge(1, 2, 1.0);
  builder.AddEdge(2, 1, 1.0);  // node 0 never receives
  const Graph g = *builder.Build();
  const std::vector<Method> methods = {Method::kNaiveThreshold,
                                       Method::kDoublyStochastic};
  const std::vector<double> shares = {0.5, 1.0};
  const auto sweeps = CoverageSweepByMethod(g, methods, shares);
  ASSERT_EQ(sweeps.size(), 2u);
  EXPECT_TRUE(sweeps[0].status.ok());
  EXPECT_EQ(sweeps[0].coverage.size(), shares.size());
  EXPECT_FALSE(sweeps[1].status.ok());
  EXPECT_TRUE(sweeps[1].coverage.empty());
}

// ---------------------------------------------------------------------------
// Stopping index / GrowUntilConnected.
// ---------------------------------------------------------------------------

void ExpectGrowMatchesAndProfileAgrees(const Graph& g) {
  const auto nt = NaiveThreshold(g);
  ASSERT_TRUE(nt.ok());
  const ScoreOrder order(*nt);
  const BackboneMask batch = GrowUntilConnected(order);
  const BackboneMask single = GrowUntilConnected(*nt);
  EXPECT_EQ(batch.keep, single.keep);
  EXPECT_EQ(batch.kept, single.kept);
  // The profile's stopping index is the same prefix the masks keep.
  const SweepProfile profile = BuildSweepProfile(order);
  EXPECT_EQ(profile.connect_k, batch.kept);
  const BackboneMask prefix = order.PrefixMask(profile.connect_k);
  EXPECT_EQ(prefix.keep, batch.keep);
}

TEST(SweepEngineTest, GrowUntilConnectedMatchesPerPointPath) {
  ExpectGrowMatchesAndProfileAgrees(MakeWeightedPath());
}

TEST(SweepEngineTest, GrowUntilConnectedMatchesPerPointTied) {
  ExpectGrowMatchesAndProfileAgrees(MakeTiedScores());
}

TEST(SweepEngineTest, GrowUntilConnectedMatchesPerPointUndirectedEr) {
  ExpectGrowMatchesAndProfileAgrees(MakeUndirected());
}

TEST(SweepEngineTest, GrowUntilConnectedKeepsEverythingWhenDisconnected) {
  const Graph g = MakeDisconnected();
  ExpectGrowMatchesAndProfileAgrees(g);
  const auto nt = NaiveThreshold(g);
  ASSERT_TRUE(nt.ok());
  const ScoreOrder order(*nt);
  const SweepProfile profile = BuildSweepProfile(order);
  EXPECT_EQ(profile.connect_k, g.num_edges());  // never connects
}

TEST(SweepEngineTest, StoppingIndexIsMinimal) {
  // A clique with a clear winner prefix: the profile index must be the
  // smallest connecting prefix, and the materialized backbone connected.
  GraphBuilder builder(Directedness::kUndirected);
  builder.AddEdge(0, 1, 10.0);
  builder.AddEdge(0, 2, 9.0);
  builder.AddEdge(0, 3, 8.0);
  builder.AddEdge(1, 2, 1.0);
  builder.AddEdge(1, 3, 1.0);
  builder.AddEdge(2, 3, 1.0);
  const Graph g = *builder.Build();
  const auto nt = NaiveThreshold(g);
  ASSERT_TRUE(nt.ok());
  const ScoreOrder order(*nt);
  const SweepProfile profile = BuildSweepProfile(order);
  EXPECT_EQ(profile.connect_k, 3);
  const auto backbone = ApplyMask(g, order.PrefixMask(profile.connect_k));
  ASSERT_TRUE(backbone.ok());
  EXPECT_TRUE(IsConnected(*backbone));
  // One edge fewer must not connect all four nodes.
  const auto shorter = ApplyMask(g, order.PrefixMask(profile.connect_k - 1));
  ASSERT_TRUE(shorter.ok());
  EXPECT_FALSE(IsConnected(*shorter));
}

// ---------------------------------------------------------------------------
// SweepProfile invariants.
// ---------------------------------------------------------------------------

TEST(SweepProfileTest, PrefixArraysAreConsistent) {
  const Graph g = MakeUndirected();
  const auto nt = NaiveThreshold(g);
  ASSERT_TRUE(nt.ok());
  const ScoreOrder order(*nt);
  const SweepProfile profile = BuildSweepProfile(order);
  ASSERT_EQ(profile.covered_nodes.size(),
            static_cast<size_t>(g.num_edges()) + 1);
  ASSERT_EQ(profile.kept_weight.size(),
            static_cast<size_t>(g.num_edges()) + 1);
  EXPECT_EQ(profile.covered_nodes.front(), 0);
  EXPECT_DOUBLE_EQ(profile.kept_weight.front(), 0.0);
  double weight = 0.0;
  for (int64_t k = 0; k < g.num_edges(); ++k) {
    // Monotone coverage, each edge adds at most 2 newly-covered nodes.
    const int64_t delta = profile.covered_nodes[static_cast<size_t>(k) + 1] -
                          profile.covered_nodes[static_cast<size_t>(k)];
    EXPECT_GE(delta, 0);
    EXPECT_LE(delta, 2);
    weight += g.edge(order.id_at(k)).weight;
    EXPECT_DOUBLE_EQ(profile.kept_weight[static_cast<size_t>(k) + 1],
                     weight);
  }
  EXPECT_EQ(profile.covered_nodes.back(), profile.target_nodes);
  EXPECT_DOUBLE_EQ(profile.WeightShareAt(g.num_edges()), 1.0);
  EXPECT_DOUBLE_EQ(profile.CoverageAt(g.num_edges()), 1.0);
}

TEST(SweepProfileTest, TargetExcludesIsolates) {
  const Graph g = MakeDisconnected();  // 6 connected nodes + 1 isolate
  const auto nt = NaiveThreshold(g);
  ASSERT_TRUE(nt.ok());
  const SweepProfile profile = BuildSweepProfile(ScoreOrder(*nt));
  EXPECT_EQ(profile.target_nodes, 6);
}

// ---------------------------------------------------------------------------
// The radix sort against a plain std::sort at every width, and the
// early-stopping profile walk against a plain union-find walk.
// ---------------------------------------------------------------------------

/// The sort's chunk grain: a table of E edges sorts in min(W, E / 16384)
/// chunks at width W (at least one), so the multi-chunk histograms and
/// scatters need tables of W * 16384 edges.
constexpr int64_t kSortChunkEdges = 16384;

/// Large enough for eight chunks, the widest width tested.
constexpr NodeId kEightChunkNodes = 90000;

/// The early-stop profile fixtures are at least this large.
constexpr int64_t kProfileMinEdges = 8192;

/// The documented order: (score desc, weight desc, id asc), -0.0 equal to
/// +0.0, every NaN after every number. Written on raw doubles,
/// independently of the integer keys the sort itself uses.
bool ReferencePrecedes(double sa, double wa, EdgeId a, double sb, double wb,
                       EdgeId b) {
  if (std::isnan(sa) != std::isnan(sb)) return std::isnan(sb);
  if (!std::isnan(sa) && sa != sb) return sa > sb;
  if (std::isnan(wa) != std::isnan(wb)) return std::isnan(wb);
  if (!std::isnan(wa) && wa != wb) return wa > wb;
  return a < b;
}

/// The reference order: std::sort over edge ids with ReferencePrecedes.
std::vector<EdgeId> ReferenceOrder(const ScoredEdges& scored) {
  std::vector<EdgeId> ids(static_cast<size_t>(scored.size()));
  std::iota(ids.begin(), ids.end(), EdgeId{0});
  const Graph& g = scored.graph();
  std::sort(ids.begin(), ids.end(), [&](EdgeId a, EdgeId b) {
    return ReferencePrecedes(scored.at(a).score, g.edge(a).weight, a,
                             scored.at(b).score, g.edge(b).weight, b);
  });
  return ids;
}

void ExpectSortMatchesReference(const ScoredEdges& scored) {
  const std::vector<EdgeId> expected = ReferenceOrder(scored);
  for (const int threads : {1, 2, 3, 4, 8}) {
    const int64_t sorts_before = ScoreOrder::SortsPerformed();
    const ScoreOrder order(scored, threads);
    EXPECT_EQ(ScoreOrder::SortsPerformed() - sorts_before, 1)
        << "threads=" << threads;
    ASSERT_EQ(order.size(), scored.size());
    EXPECT_TRUE(std::equal(order.ids().begin(), order.ids().end(),
                           expected.begin()))
        << "threads=" << threads;
    // The 64-bit-id passes that tables over 2^32 edges take.
    EXPECT_EQ(internal::SortedIdsWith64BitIds(scored, threads), expected)
        << "threads=" << threads;
    const Result<ScoreOrder> adopted = ScoreOrder::FromPermutation(
        scored, std::vector<EdgeId>(order.ids().begin(), order.ids().end()));
    EXPECT_TRUE(adopted.ok()) << "threads=" << threads;
  }
}

/// A fig9-style ER graph (average degree 3) re-weighted to small integer
/// counts, so NT scores and weights tie heavily and most of the order is
/// decided by the id tie-break.
Graph MakeIntegerWeightedEr(int64_t weight_levels, NodeId num_nodes = 6000) {
  const Result<Graph> er = GenerateErdosRenyi(
      {.num_nodes = num_nodes, .average_degree = 3.0, .seed = 21});
  GraphBuilder builder(Directedness::kUndirected);
  builder.ReserveNodes(er->num_nodes());
  for (const Edge& e : er->edges()) {
    builder.AddEdge(e.src, e.dst,
                    1.0 + std::fmod(std::floor(e.weight), weight_levels));
  }
  return *builder.Build();
}

/// The eight-chunk integer ER graph every hand-scored case below uses.
Graph MakeWideEr(int64_t weight_levels) {
  Graph g = MakeIntegerWeightedEr(weight_levels, kEightChunkNodes);
  EXPECT_GE(g.num_edges(), 8 * kSortChunkEdges);
  return g;
}

/// A table over `g` whose edge i scores score_of(i).
template <typename ScoreOf>
ScoredEdges HandScored(const Graph& g, const ScoreOf& score_of) {
  std::vector<EdgeScore> scores(static_cast<size_t>(g.num_edges()));
  for (size_t i = 0; i < scores.size(); ++i) {
    scores[i].score = score_of(i);
  }
  return ScoredEdges(&g, "hand_built", std::move(scores), false);
}

TEST(ScoreOrderSortTest, NaiveThresholdOnIntegerWeightsMatchesStdSort) {
  const Graph g = MakeWideEr(/*weight_levels=*/4);
  const auto nt = NaiveThreshold(g);
  ASSERT_TRUE(nt.ok());
  ExpectSortMatchesReference(*nt);
}

TEST(ScoreOrderSortTest, NoiseCorrectedMatchesStdSort) {
  const Graph g = MakeWideEr(/*weight_levels=*/100);
  const auto nc = RunMethod(Method::kNoiseCorrected, g);
  ASSERT_TRUE(nc.ok());
  ExpectSortMatchesReference(*nc);
}

TEST(ScoreOrderSortTest, DisparityFilterMatchesStdSort) {
  const Graph g = MakeWideEr(/*weight_levels=*/100);
  const auto df = RunMethod(Method::kDisparityFilter, g);
  ASSERT_TRUE(df.ok());
  ExpectSortMatchesReference(*df);
}

TEST(ScoreOrderSortTest, SignedZeroAndEqualScoresMatchStdSort) {
  // +0.0 and -0.0 compare equal, so they must fall through to the weight
  // and id tie-breaks exactly as in the reference; equal nonzero scores
  // on different weights order by weight.
  const Graph g = MakeWideEr(/*weight_levels=*/7);
  ExpectSortMatchesReference(HandScored(g, [](size_t i) {
    switch (i % 5) {
      case 0: return 0.0;
      case 1: return -0.0;
      case 2: return 0.5;
      case 3: return -0.5;
      default: return static_cast<double>(i % 11);
    }
  }));
}

TEST(ScoreOrderSortTest, SignedZeroWeightsOnEqualScoresMatchStdSort) {
  // -0.0 and +0.0 weights under a handful of equal scores: the weights
  // compare equal, so the id decides between them.
  const Graph er = MakeWideEr(/*weight_levels=*/3);
  GraphBuilder builder(Directedness::kUndirected);
  builder.ReserveNodes(er.num_nodes());
  for (size_t i = 0; i < er.edges().size(); ++i) {
    const Edge& e = er.edges()[i];
    builder.AddEdge(e.src, e.dst,
                    i % 3 == 0 ? -0.0 : (i % 3 == 1 ? 0.0 : e.weight));
  }
  const Graph g = *builder.Build();
  ASSERT_TRUE(std::signbit(g.edge(0).weight));
  ExpectSortMatchesReference(
      HandScored(g, [](size_t i) { return static_cast<double>(i % 4); }));
}

TEST(ScoreOrderSortTest, InfiniteAndSubnormalScoresMatchStdSort) {
  const Graph g = MakeWideEr(/*weight_levels=*/5);
  const double inf = std::numeric_limits<double>::infinity();
  const double tiny = std::numeric_limits<double>::denorm_min();
  ExpectSortMatchesReference(HandScored(g, [&](size_t i) {
    switch (i % 8) {
      case 0: return inf;
      case 1: return -inf;
      case 2: return tiny;
      case 3: return -tiny;
      case 4: return tiny * static_cast<double>(i % 1000);
      case 5: return -std::numeric_limits<double>::min() / 3.0;
      case 6: return std::numeric_limits<double>::max();
      default: return 0.0;
    }
  }));
}

TEST(ScoreOrderSortTest, ConstantKeysComeBackInIdOrder) {
  // Every score and every weight equal: every digit is constant, no pass
  // runs, and the id tie-break alone orders the table.
  const Graph er = MakeWideEr(/*weight_levels=*/1);
  const ScoredEdges scored = HandScored(er, [](size_t) { return 0.25; });
  ExpectSortMatchesReference(scored);
  std::vector<EdgeId> ascending(static_cast<size_t>(er.num_edges()));
  std::iota(ascending.begin(), ascending.end(), EdgeId{0});
  const ScoreOrder order(scored, 4);
  EXPECT_TRUE(std::equal(order.ids().begin(), order.ids().end(),
                         ascending.begin(), ascending.end()));
  // NT on the same graph: score equals weight, both constant.
  const auto nt = NaiveThreshold(er);
  ASSERT_TRUE(nt.ok());
  ExpectSortMatchesReference(*nt);
}

TEST(ScoreOrderSortTest, PresortedAndReversedScoresMatchStdSort) {
  const Graph g = MakeWideEr(/*weight_levels=*/9);
  const double edges = static_cast<double>(g.num_edges());
  ExpectSortMatchesReference(HandScored(
      g, [&](size_t i) { return edges - static_cast<double>(i); }));
  ExpectSortMatchesReference(
      HandScored(g, [](size_t i) { return static_cast<double>(i); }));
}

TEST(ScoreOrderSortTest, TinyTablesMatchStdSort) {
  for (const int64_t num_edges : {0, 1, 2}) {
    GraphBuilder builder(Directedness::kUndirected);
    builder.ReserveNodes(4);
    for (int64_t i = 0; i < num_edges; ++i) {
      builder.AddEdge(static_cast<NodeId>(i), static_cast<NodeId>(i + 1),
                      2.0);
    }
    const Graph g = *builder.Build();
    ASSERT_EQ(g.num_edges(), num_edges);
    ExpectSortMatchesReference(
        HandScored(g, [](size_t i) { return 1.0 - static_cast<double>(i); }));
    ExpectSortMatchesReference(HandScored(g, [](size_t) { return 3.0; }));
  }
}

TEST(ScoreOrderSortTest, NanScoresSortLastByWeightThenId) {
  // No method emits NaN, but the public ScoredEdges constructor accepts
  // it. Every NaN, whatever its sign and payload, sorts after every
  // number (-inf too), ties broken by weight desc and then id.
  const Graph g = MakeWideEr(/*weight_levels=*/6);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const ScoredEdges scored = HandScored(g, [&](size_t i) {
    switch (i % 6) {
      case 0: return nan;
      case 1: return -nan;
      case 2: return std::bit_cast<double>(
          std::bit_cast<uint64_t>(nan) | static_cast<uint64_t>(i));
      case 3: return -inf;
      default: return static_cast<double>(i % 13) - 6.0;
    }
  });
  ExpectSortMatchesReference(scored);
  const ScoreOrder order(scored, 1);
  const int64_t numbers = g.num_edges() - (g.num_edges() + 5) / 6 -
                          (g.num_edges() + 4) / 6 - (g.num_edges() + 3) / 6;
  EXPECT_TRUE(std::isnan(scored.at(order.id_at(numbers)).score));
  EXPECT_FALSE(std::isnan(scored.at(order.id_at(numbers - 1)).score));
  EXPECT_EQ(order.CountAbove(-inf), numbers - (g.num_edges() + 2) / 6);
  // A NaN moved ahead of the last number breaks the order, and so do two
  // NaNs out of (weight, id) order.
  for (const size_t rank : {static_cast<size_t>(numbers) - 1,
                            static_cast<size_t>(g.num_edges()) - 2}) {
    std::vector<EdgeId> swapped(order.ids().begin(), order.ids().end());
    std::swap(swapped[rank], swapped[rank + 1]);
    EXPECT_FALSE(ScoreOrder::FromPermutation(scored, std::move(swapped)).ok())
        << "rank " << rank;
  }
}

/// The profile a plain walk produces: union every edge, test for one
/// component covering the target after each, never stop early.
SweepProfile ReferenceProfile(const ScoreOrder& order) {
  const Graph& g = order.graph();
  SweepProfile profile;
  const size_t n = static_cast<size_t>(order.size());
  profile.covered_nodes.assign(n + 1, 0);
  profile.kept_weight.assign(n + 1, 0.0);
  profile.target_nodes = g.num_nodes() - g.CountIsolates();
  profile.total_weight = g.total_weight();
  if (profile.target_nodes == 0) return profile;
  profile.connect_k = order.size();
  UnionFind uf(g.num_nodes());
  std::vector<bool> touched(static_cast<size_t>(g.num_nodes()), false);
  int64_t covered = 0;
  double weight = 0.0;
  bool connected = false;
  for (int64_t rank = 0; rank < order.size(); ++rank) {
    const Edge& e = g.edge(order.id_at(rank));
    for (const NodeId v : {e.src, e.dst}) {
      if (!touched[static_cast<size_t>(v)]) {
        touched[static_cast<size_t>(v)] = true;
        ++covered;
      }
    }
    uf.Union(e.src, e.dst);
    weight += e.weight;
    profile.covered_nodes[static_cast<size_t>(rank) + 1] = covered;
    profile.kept_weight[static_cast<size_t>(rank) + 1] = weight;
    if (!connected && covered == profile.target_nodes &&
        uf.SetSize(e.src) == profile.target_nodes) {
      connected = true;
      profile.connect_k = rank + 1;
    }
  }
  return profile;
}

/// A fresh graph with `g`'s edges. Copies of a Graph share what walks
/// learned about it; a rebuilt one starts with connectivity unknown.
Graph Rebuilt(const Graph& g) {
  GraphBuilder builder(g.directedness(), DuplicateEdgePolicy::kSum,
                       SelfLoopPolicy::kKeep);
  builder.ReserveNodes(g.num_nodes());
  for (const Edge& e : g.edges()) builder.AddEdge(e.src, e.dst, e.weight);
  return *builder.Build();
}

/// A weight-only revision of `g`: every third edge one unit heavier, so
/// the edge set is `g`'s and the order is not.
Graph Reweighted(const Graph& g) {
  GraphBuilder builder(g.directedness(), DuplicateEdgePolicy::kSum,
                       SelfLoopPolicy::kKeep);
  builder.ReserveNodes(g.num_nodes());
  for (EdgeId id = 0; id < g.num_edges(); ++id) {
    const Edge& e = g.edge(id);
    builder.AddEdge(e.src, e.dst, e.weight + (id % 3 == 0 ? 1.0 : 0.0));
  }
  return *builder.Build();
}

/// The graph whose walks are checked: a rebuild of `g` with nothing
/// learned about it, or a weight-only revision of `g` that inherited its
/// ancestor's connectivity record (and columns) instead of learning them.
Graph GraphToWalk(const Graph& g, bool inherited,
                  Graph::Connectivity fact) {
  if (!inherited) return Rebuilt(g);
  const Graph ancestor = Rebuilt(g);
  // The ancestor learns its connectivity from one walk.
  const auto scored = RunMethod(Method::kNaiveThreshold, ancestor);
  EXPECT_TRUE(scored.ok());
  BuildSweepProfile(ScoreOrder(*scored));
  EXPECT_EQ(ancestor.known_connectivity(), fact);
  Graph revision = Reweighted(g);
  const Result<GraphDelta> delta = ComputeGraphDelta(ancestor, revision);
  EXPECT_TRUE(delta.ok());
  EXPECT_FALSE(delta->changed.empty());
  EXPECT_TRUE(revision.InheritEdgeFacts(ancestor, *delta));
  EXPECT_EQ(revision.known_connectivity(), fact);
  return revision;
}

/// Checks the walk against ReferenceProfile on its three roads: the first
/// walk of a graph, which runs union-find and records what it found; the
/// later walks, which read the record; and the walks of a weight-only
/// revision that inherited the record from its ancestor instead of
/// learning it. Each of BuildSweepProfile and GrowUntilConnected gets a
/// turn at walking first.
void ExpectProfileMatchesReference(const Graph& g, bool spans) {
  ASSERT_GE(g.num_edges(), kProfileMinEdges);
  const Graph::Connectivity fact = spans
                                       ? Graph::Connectivity::kConnected
                                       : Graph::Connectivity::kDisconnected;
  for (const auto& [inherited, profile_first] :
       {std::pair{false, true}, std::pair{false, false},
        std::pair{true, true}, std::pair{true, false}}) {
    const Graph fresh = GraphToWalk(g, inherited, fact);
    if (!inherited) {
      EXPECT_EQ(fresh.known_connectivity(), Graph::Connectivity::kUnknown);
    }
    for (const Method method :
         {Method::kNoiseCorrected, Method::kNaiveThreshold}) {
      const auto scored = RunMethod(method, fresh);
      ASSERT_TRUE(scored.ok());
      const ScoreOrder order(*scored);
      const SweepProfile expected = ReferenceProfile(order);
      const auto check_profile = [&] {
        const SweepProfile profile = BuildSweepProfile(order);
        EXPECT_EQ(profile.target_nodes, expected.target_nodes);
        EXPECT_EQ(profile.total_weight, expected.total_weight);
        EXPECT_EQ(profile.connect_k, expected.connect_k);
        EXPECT_EQ(profile.covered_nodes, expected.covered_nodes);
        // Bit for bit: the cumulative sums run in the same rank order.
        EXPECT_EQ(profile.kept_weight, expected.kept_weight);
      };
      const auto check_grow = [&] {
        EXPECT_EQ(GrowUntilConnected(order).keep,
                  order.PrefixMask(expected.connect_k).keep);
      };
      if (profile_first) {
        check_profile();
        EXPECT_EQ(fresh.known_connectivity(), fact);
        check_grow();
      } else {
        check_grow();
        EXPECT_EQ(fresh.known_connectivity(), fact);
        check_profile();
      }
      if (spans) {
        EXPECT_LT(expected.connect_k, g.num_edges());
      } else {
        EXPECT_EQ(expected.connect_k, g.num_edges());
      }
    }
  }
}

TEST(SweepProfileEarlyStopTest, DisconnectedErMatchesPlainWalk) {
  // Average degree 3: a giant component plus small ones and isolates.
  ExpectProfileMatchesReference(MakeIntegerWeightedEr(100), /*spans=*/false);
}

TEST(SweepProfileEarlyStopTest, ConnectedBarabasiAlbertMatchesPlainWalk) {
  const Result<Graph> ba = GenerateBarabasiAlbert(
      {.num_nodes = 5000, .average_degree = 4.0, .seed = 5});
  ASSERT_TRUE(ba.ok());
  ExpectProfileMatchesReference(*ba, /*spans=*/true);
}

TEST(SweepProfileEarlyStopTest, ConnectedWithIsolatesMatchesPlainWalk) {
  // A connected core plus 500 isolates: the target excludes them, and the
  // core still connects early.
  const Result<Graph> ba = GenerateBarabasiAlbert(
      {.num_nodes = 5000, .average_degree = 4.0, .seed = 6});
  ASSERT_TRUE(ba.ok());
  GraphBuilder builder(Directedness::kUndirected);
  builder.ReserveNodes(ba->num_nodes() + 500);
  for (const Edge& e : ba->edges()) {
    // Shift ids so the isolates are interleaved below the core.
    builder.AddEdge(e.src + 500, e.dst + 500, e.weight);
  }
  const Graph g = *builder.Build();
  ASSERT_EQ(g.CountIsolates(), 500);
  ExpectProfileMatchesReference(g, /*spans=*/true);
}

TEST(SweepProfileEarlyStopTest, SelfLoopsOnlyMatchesPlainWalk) {
  GraphBuilder builder(Directedness::kUndirected, DuplicateEdgePolicy::kSum,
                       SelfLoopPolicy::kKeep);
  for (NodeId v = 0; v < 9000; ++v) {
    builder.AddEdge(v, v, 1.0 + static_cast<double>(v % 13));
  }
  ExpectProfileMatchesReference(*builder.Build(), /*spans=*/false);

  // One node with one self-loop is the degenerate connected case: the
  // first edge already covers the whole one-node target.
  GraphBuilder single(Directedness::kUndirected, DuplicateEdgePolicy::kSum,
                      SelfLoopPolicy::kKeep);
  single.AddEdge(0, 0, 2.0);
  const Graph g = *single.Build();
  const auto nt = NaiveThreshold(g);
  ASSERT_TRUE(nt.ok());
  const ScoreOrder order(*nt);
  EXPECT_EQ(BuildSweepProfile(order).connect_k, 1);
  EXPECT_EQ(g.known_connectivity(), Graph::Connectivity::kConnected);
  EXPECT_EQ(ReferenceProfile(order).connect_k, 1);
  EXPECT_EQ(GrowUntilConnected(order).kept, 1);
}

TEST(SweepProfileEarlyStopTest, SelfLoopAmongEdgesCountsItsNodeOnce) {
  // One self-loop heavy enough to lead the NT order, on a graph that
  // connects (BA: the loop walks inside union-find) and on one that never
  // does (ER: once that is known, walks run no union-find at all). The
  // first prefix edge touches one node, not two, and the later ordinary
  // edges at that node must not count it again.
  const Result<Graph> ba = GenerateBarabasiAlbert(
      {.num_nodes = 5000, .average_degree = 4.0, .seed = 7});
  ASSERT_TRUE(ba.ok());
  const Graph er = MakeIntegerWeightedEr(100);
  for (const auto& [base, spans] : {std::pair<const Graph*, bool>{&*ba, true},
                                    std::pair<const Graph*, bool>{&er, false}}) {
    GraphBuilder builder(Directedness::kUndirected, DuplicateEdgePolicy::kSum,
                         SelfLoopPolicy::kKeep);
    builder.ReserveNodes(base->num_nodes());
    for (const Edge& e : base->edges()) builder.AddEdge(e.src, e.dst, e.weight);
    builder.AddEdge(42, 42, 1e9);
    const Graph g = *builder.Build();
    const auto nt = NaiveThreshold(g);
    ASSERT_TRUE(nt.ok());
    const ScoreOrder order(*nt);
    ASSERT_EQ(g.edge(order.id_at(0)).src, g.edge(order.id_at(0)).dst);
    EXPECT_EQ(ReferenceProfile(order).covered_nodes[1], 1);
    EXPECT_EQ(BuildSweepProfile(order).covered_nodes[1], 1);
    ExpectProfileMatchesReference(g, spans);
  }
}

// ---------------------------------------------------------------------------
// EvaluatePrefix: one prefix evaluated alone, bit for bit the profile's.
// ---------------------------------------------------------------------------

/// The prefix lengths worth checking on an order: all of them on a small
/// one; otherwise the ends (0, 1, |E| - 1, |E|), every tenth of the order,
/// and both sides of the first 64 rank boundaries between unequal scores,
/// where a prefix stops cutting a tie run.
std::vector<int64_t> CheckedPrefixes(const ScoreOrder& order) {
  const int64_t n = order.size();
  std::vector<int64_t> ks;
  if (n <= 600) {
    for (int64_t k = 0; k <= n; ++k) ks.push_back(k);
    return ks;
  }
  for (const int64_t k : {int64_t{0}, int64_t{1}, n - 1, n}) ks.push_back(k);
  for (int tenth = 1; tenth < 10; ++tenth) ks.push_back(n * tenth / 10);
  int boundaries = 0;
  for (int64_t k = 1; k < n && boundaries < 64; ++k) {
    const double before = order.scored().at(order.id_at(k - 1)).score;
    const double after = order.scored().at(order.id_at(k)).score;
    if (before == after) continue;
    ks.push_back(k - 1);
    ks.push_back(k);
    ks.push_back(k + 1);
    ++boundaries;
  }
  return ks;
}

/// Scores a rebuild of `source` (nothing learned about it yet) with
/// `score`, evaluates every checked prefix alone, and checks that this
/// left the graph's connectivity unknown and that each point equals the
/// profile's, bit for bit — NaN coverage of an empty target included —
/// and that the weight share is the prefix weight over the graph's total,
/// in [0, 1], non-decreasing in k, and exactly 1 at k = |E|.
template <typename Score>
void ExpectPointsMatchProfile(const Graph& source, const Score& score) {
  const Graph g = Rebuilt(source);
  ASSERT_EQ(g.known_connectivity(), Graph::Connectivity::kUnknown);
  const ScoredEdges scored = score(g);
  const ScoreOrder order(scored);
  const std::vector<int64_t> ks = CheckedPrefixes(order);
  std::vector<PrefixPoint> points;
  for (const int64_t k : ks) points.push_back(EvaluatePrefix(order, k));
  EXPECT_EQ(g.known_connectivity(), Graph::Connectivity::kUnknown);

  const SweepProfile profile = BuildSweepProfile(order);
  for (size_t i = 0; i < ks.size(); ++i) {
    const int64_t k = ks[i];
    EXPECT_EQ(points[i].target_nodes, profile.target_nodes) << "k=" << k;
    EXPECT_EQ(std::bit_cast<uint64_t>(points[i].coverage),
              std::bit_cast<uint64_t>(profile.CoverageAt(k)))
        << "k=" << k;
    EXPECT_EQ(std::bit_cast<uint64_t>(points[i].weight_share),
              std::bit_cast<uint64_t>(profile.WeightShareAt(k)))
        << "k=" << k;
    const double kept = profile.kept_weight[static_cast<size_t>(k)];
    const double total = g.total_weight();
    const double share = !(total > 0.0)      ? 0.0
                         : k == order.size() ? 1.0
                                             : std::min(kept / total, 1.0);
    EXPECT_EQ(std::bit_cast<uint64_t>(points[i].weight_share),
              std::bit_cast<uint64_t>(share))
        << "k=" << k;
  }
  for (int64_t k = 1; k <= order.size(); ++k) {
    EXPECT_LE(profile.WeightShareAt(k - 1), profile.WeightShareAt(k));
    EXPECT_LE(profile.WeightShareAt(k), 1.0);
  }
  if (g.total_weight() > 0.0) {
    EXPECT_EQ(std::bit_cast<uint64_t>(profile.WeightShareAt(order.size())),
              std::bit_cast<uint64_t>(1.0));
  }
}

/// ExpectPointsMatchProfile for each of NT, NC and DF.
void ExpectMethodPointsMatchProfile(const Graph& source) {
  for (const Method method : {Method::kNaiveThreshold,
                              Method::kNoiseCorrected,
                              Method::kDisparityFilter}) {
    ExpectPointsMatchProfile(source, [method](const Graph& g) {
      Result<ScoredEdges> scored = RunMethod(method, g);
      EXPECT_TRUE(scored.ok()) << MethodTag(method);
      return *std::move(scored);
    });
  }
}

TEST(EvaluatePrefixTest, SmallFixturesMatchProfileAtEveryPrefix) {
  ExpectMethodPointsMatchProfile(MakeWeightedPath());
  ExpectMethodPointsMatchProfile(MakeTiedScores());
  ExpectMethodPointsMatchProfile(MakeDisconnected());
}

TEST(EvaluatePrefixTest, DirectedAndUndirectedMatchProfile) {
  ExpectMethodPointsMatchProfile(MakeDirected());
  ExpectMethodPointsMatchProfile(MakeUndirected());
}

TEST(EvaluatePrefixTest, ConnectedAndNeverConnectedMatchProfile) {
  const Result<Graph> ba = GenerateBarabasiAlbert(
      {.num_nodes = 5000, .average_degree = 4.0, .seed = 5});
  ASSERT_TRUE(ba.ok());
  ExpectMethodPointsMatchProfile(*ba);
  // Integer weights: NT ties heavily, so the checked boundaries cut long
  // tie runs; the graph never connects.
  ExpectMethodPointsMatchProfile(MakeIntegerWeightedEr(4));
}

TEST(EvaluatePrefixTest, RealValuedWeightsMatchProfile) {
  // Real weights: each method's rank-order sum of every weight rounds
  // apart from the builder's id-order total. One zero-weight edge ranks
  // last under NT, so the prefix before it holds NT's whole sum, which
  // rounds above the total: its share is clamped to 1.
  const Result<Graph> er = GenerateErdosRenyi(
      {.num_nodes = 3000, .average_degree = 4.0, .seed = 17});
  ASSERT_TRUE(er.ok());
  GraphBuilder builder(Directedness::kUndirected);
  for (const Edge& e : er->edges()) builder.AddEdge(e.src, e.dst, e.weight);
  NodeId stranger = 1;
  while (er->FindEdge(0, stranger) >= 0) ++stranger;
  builder.AddEdge(0, stranger, 0.0);
  const Graph g = *builder.Build();
  for (const Method method : {Method::kNaiveThreshold,
                              Method::kNoiseCorrected,
                              Method::kDisparityFilter}) {
    const Result<ScoredEdges> scored = RunMethod(method, g);
    ASSERT_TRUE(scored.ok());
    const std::vector<double> kept =
        BuildSweepProfile(ScoreOrder(*scored)).kept_weight;
    EXPECT_NE(kept.back(), g.total_weight()) << MethodTag(method);
    if (method == Method::kNaiveThreshold) {
      EXPECT_GT(kept[kept.size() - 2], g.total_weight());
    }
  }
  ExpectMethodPointsMatchProfile(g);
}

TEST(EvaluatePrefixTest, ZeroAndSignedZeroWeightsMatchProfile) {
  // Every weight zero, half of them -0.0: the total is zero, so every
  // weight share is 0, and coverage still grows.
  GraphBuilder zero(Directedness::kUndirected);
  for (NodeId v = 0; v < 40; ++v) {
    zero.AddEdge(v, (v + 1) % 40, v % 2 == 0 ? 0.0 : -0.0);
    zero.AddEdge(v, (v + 7) % 40, 0.0);
  }
  const Graph all_zero = *zero.Build();
  ASSERT_EQ(all_zero.num_edges(), 80);
  ExpectPointsMatchProfile(all_zero, [](const Graph& g) {
    return *NaiveThreshold(g);
  });
  // Some zero weights among positive ones, and scores that mix +0.0,
  // -0.0 and numbers, so the signed zeros tie in the order.
  GraphBuilder mixed(Directedness::kUndirected);
  for (NodeId v = 0; v < 60; ++v) {
    mixed.AddEdge(v, (v + 1) % 60, v % 3 == 0 ? 0.0 : 1.0 + v % 5);
    mixed.AddEdge(v, (v + 11) % 60, v % 4 == 0 ? -0.0 : 2.0);
  }
  const Graph some_zero = *mixed.Build();
  ExpectPointsMatchProfile(some_zero, [](const Graph& g) {
    return *NaiveThreshold(g);
  });
  ExpectPointsMatchProfile(some_zero, [](const Graph& g) {
    return HandScored(g, [](size_t i) {
      return i % 3 == 0 ? 0.0 : i % 3 == 1 ? -0.0 : static_cast<double>(i);
    });
  });
}

TEST(EvaluatePrefixTest, NanScoresMatchProfile) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const auto score = [nan](const Graph& g) {
    return HandScored(g, [nan](size_t i) {
      return i % 4 == 0 ? nan : i % 4 == 1 ? -nan : static_cast<double>(i % 9);
    });
  };
  ExpectPointsMatchProfile(MakeUndirected(), score);
  ExpectPointsMatchProfile(MakeIntegerWeightedEr(100), score);
}

TEST(EvaluatePrefixTest, IsolatesOnlyMatchProfile) {
  // No edge: the target is empty, so coverage is NaN (0 / 0) in both, the
  // weight share 0, and the only prefix is k = 0 — larger k clamp to it.
  GraphBuilder builder(Directedness::kUndirected);
  builder.ReserveNodes(5);
  const Graph isolates = *builder.Build();
  ASSERT_EQ(isolates.num_edges(), 0);
  const auto score = [](const Graph& g) {
    return HandScored(g, [](size_t) { return 0.0; });
  };
  ExpectPointsMatchProfile(isolates, score);
  const ScoredEdges scored = score(isolates);
  const ScoreOrder order(scored);
  const PrefixPoint clamped = EvaluatePrefix(order, 3);
  EXPECT_EQ(clamped.target_nodes, 0);
  EXPECT_TRUE(std::isnan(clamped.coverage));
  EXPECT_EQ(clamped.weight_share, 0.0);
}

TEST(EvaluatePrefixTest, SelfLoopsMatchProfile) {
  GraphBuilder loops(Directedness::kUndirected, DuplicateEdgePolicy::kSum,
                     SelfLoopPolicy::kKeep);
  for (NodeId v = 0; v < 300; ++v) {
    loops.AddEdge(v, v, 1.0 + static_cast<double>(v % 13));
  }
  ExpectPointsMatchProfile(*loops.Build(), [](const Graph& g) {
    return *NaiveThreshold(g);
  });

  // A heavy self-loop leads the order of a graph with ordinary edges, so
  // the first prefix covers one node, not two.
  GraphBuilder builder(Directedness::kUndirected, DuplicateEdgePolicy::kSum,
                       SelfLoopPolicy::kKeep);
  const Graph base = MakeUndirected();
  builder.ReserveNodes(base.num_nodes());
  for (const Edge& e : base.edges()) builder.AddEdge(e.src, e.dst, e.weight);
  builder.AddEdge(42, 42, 1e9);
  const Graph g = *builder.Build();
  ExpectPointsMatchProfile(g, [](const Graph& graph) {
    return *NaiveThreshold(graph);
  });
  ExpectPointsMatchProfile(g, [](const Graph& graph) {
    return *RunMethod(Method::kNoiseCorrected, graph);
  });
}

// ---------------------------------------------------------------------------
// StabilitySweep vs per-point MeanStability.
// ---------------------------------------------------------------------------

TemporalNetwork MakeTemporal() {
  // Three snapshots with drifting weights over a fixed edge set.
  std::vector<Graph> years;
  for (int year = 0; year < 3; ++year) {
    GraphBuilder builder(Directedness::kUndirected);
    double w = 1.0;
    for (NodeId v = 0; v < 12; ++v) {
      builder.AddEdge(v, (v + 1) % 12, w + 0.3 * year);
      builder.AddEdge(v, (v + 3) % 12, 2.0 * w);
      w += 0.7;
    }
    years.push_back(*builder.Build());
  }
  return *TemporalNetwork::Create(std::move(years), "drift");
}

TEST(StabilitySweepTest, MatchesPerPointMeanStability) {
  const TemporalNetwork network = MakeTemporal();
  const std::vector<double> shares = {0.25, 0.5, 0.75, 1.0};
  for (const Method method :
       {Method::kNaiveThreshold, Method::kDisparityFilter}) {
    for (const int threads : {1, 2, 8}) {
      RunMethodOptions options;
      options.num_threads = threads;
      const auto sweep = StabilitySweep(network, method, shares, options);
      ASSERT_TRUE(sweep.ok()) << sweep.status().ToString();
      ASSERT_EQ(sweep->size(), shares.size());
      for (size_t s = 0; s < shares.size(); ++s) {
        const auto per_point = MeanStability(
            network, [&](const Graph& year) {
              Result<ScoredEdges> scored = RunMethod(method, year, options);
              if (!scored.ok()) {
                return Result<BackboneMask>(scored.status());
              }
              return Result<BackboneMask>(TopShare(*scored, shares[s]));
            });
        ASSERT_TRUE(per_point.ok());
        ASSERT_TRUE((*sweep)[s].ok());
        EXPECT_EQ(*(*sweep)[s], *per_point)
            << MethodName(method) << " share " << shares[s] << " threads "
            << threads;
      }
    }
  }
}

TEST(StabilitySweepTest, SinglePointWrapperMatchesBatch) {
  const TemporalNetwork network = MakeTemporal();
  const auto wrapper =
      MeanStability(network, Method::kNaiveThreshold, 0.5);
  ASSERT_TRUE(wrapper.ok());
  const std::vector<double> one = {0.5};
  const auto batch = StabilitySweep(network, Method::kNaiveThreshold, one);
  ASSERT_TRUE(batch.ok());
  ASSERT_TRUE(batch->front().ok());
  EXPECT_EQ(*wrapper, *batch->front());
}

TEST(StabilitySweepTest, TinySharesFailPerShareNotWholesale) {
  const TemporalNetwork network = MakeTemporal();
  // share 0 keeps no edges -> Stability undefined for that share only.
  const std::vector<double> shares = {0.0, 1.0};
  const auto sweep =
      StabilitySweep(network, Method::kNaiveThreshold, shares);
  ASSERT_TRUE(sweep.ok());
  EXPECT_FALSE((*sweep)[0].ok());
  EXPECT_TRUE((*sweep)[1].ok());
}

TEST(StabilitySweepTest, NeedsTwoSnapshots) {
  std::vector<Graph> one = {MakeWeightedPath()};
  const auto network = TemporalNetwork::Create(std::move(one), "single");
  ASSERT_TRUE(network.ok());
  const std::vector<double> shares = {1.0};
  EXPECT_FALSE(
      StabilitySweep(*network, Method::kNaiveThreshold, shares).ok());
}

}  // namespace
}  // namespace netbone
