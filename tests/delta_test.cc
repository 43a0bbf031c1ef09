// Tests for the incremental rescoring path: GraphDelta extraction, the
// DeltaRescore capability and the ScoreOrder patch constructor (the
// dirty-subset scoring entry is tested in simd_kernels_test.cc). The
// central property, checked under randomized deltas: the incremental
// path's output — scores, order, sweep profile, errors — is bit-identical
// to a full rescore for every method and thread count, with zero global
// sorts.

#include <algorithm>
#include <cstdint>
#include <optional>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "core/delta_rescore.h"
#include "core/registry.h"
#include "core/scored_edges.h"
#include "core/sweep.h"
#include "graph/builder.h"
#include "graph/delta.h"
#include "graph/graph.h"

namespace netbone {
namespace {

struct TestEdge {
  NodeId src;
  NodeId dst;
  double weight;
};

Graph BuildGraph(Directedness directedness, NodeId num_nodes,
                 const std::vector<TestEdge>& edges) {
  GraphBuilder builder(directedness, DuplicateEdgePolicy::kSum,
                       SelfLoopPolicy::kDrop);
  builder.ReserveNodes(num_nodes);
  for (const TestEdge& e : edges) builder.AddEdge(e.src, e.dst, e.weight);
  Result<Graph> graph = builder.Build();
  EXPECT_TRUE(graph.ok()) << graph.status().message();
  return *std::move(graph);
}

/// A random connected-ish multigraph with small integer weights. Integer
/// weights make marginal and total sums exact, so weight redistribution
/// preserves totals bitwise — the regime where NC stays incremental.
std::vector<TestEdge> RandomEdges(Rng& rng, NodeId num_nodes,
                                  int64_t num_edges, bool directed) {
  std::vector<TestEdge> edges;
  for (int64_t i = 0; i < num_edges; ++i) {
    NodeId a = static_cast<NodeId>(
        rng.NextBounded(static_cast<uint64_t>(num_nodes)));
    NodeId b = static_cast<NodeId>(
        rng.NextBounded(static_cast<uint64_t>(num_nodes)));
    if (a == b) continue;  // builder drops self-loops anyway
    if (!directed && a > b) std::swap(a, b);
    edges.push_back(TestEdge{
        a, b, static_cast<double>(rng.UniformInt(1, 20))});
  }
  return edges;
}

/// Applies a random mutation: some weight changes, some deletions, some
/// insertions. When `preserve_total` is set, mutations only move integer
/// weight between surviving edges, keeping N_.. bitwise equal.
std::vector<TestEdge> Mutate(Rng& rng, const Graph& base,
                             bool preserve_total) {
  std::vector<TestEdge> edges;
  for (const Edge& e : base.edges()) {
    edges.push_back(TestEdge{e.src, e.dst, e.weight});
  }
  const size_t n = edges.size();
  if (n < 4) return edges;

  if (preserve_total) {
    // Move one unit of weight between random edge pairs.
    const int64_t transfers = rng.UniformInt(1, 4);
    for (int64_t t = 0; t < transfers; ++t) {
      const size_t a = static_cast<size_t>(rng.NextBounded(n));
      const size_t b = static_cast<size_t>(rng.NextBounded(n));
      if (a == b) continue;
      if (edges[a].weight >= 2.0) {
        edges[a].weight -= 1.0;
        edges[b].weight += 1.0;
      }
    }
    return edges;
  }

  // Arbitrary churn: rescale weights, drop a few edges, add a few.
  const int64_t changes = rng.UniformInt(1, 4);
  for (int64_t c = 0; c < changes; ++c) {
    const size_t i = static_cast<size_t>(rng.NextBounded(n));
    edges[i].weight = static_cast<double>(rng.UniformInt(1, 40));
  }
  const int64_t deletions = rng.UniformInt(0, 2);
  for (int64_t d = 0; d < deletions && edges.size() > 4; ++d) {
    edges.erase(edges.begin() +
                static_cast<int64_t>(rng.NextBounded(edges.size())));
  }
  const int64_t insertions = rng.UniformInt(0, 2);
  for (int64_t ins = 0; ins < insertions; ++ins) {
    NodeId a = static_cast<NodeId>(
        rng.NextBounded(static_cast<uint64_t>(base.num_nodes())));
    NodeId b = static_cast<NodeId>(
        rng.NextBounded(static_cast<uint64_t>(base.num_nodes())));
    if (a == b) continue;
    if (!base.directed() && a > b) std::swap(a, b);
    edges.push_back(TestEdge{
        a, b, static_cast<double>(rng.UniformInt(1, 20))});
  }
  return edges;
}

TEST(GraphDeltaTest, ClassifiesChangesInsertionsDeletions) {
  const Graph base = BuildGraph(Directedness::kUndirected, 5,
                                {{0, 1, 2.0}, {1, 2, 3.0}, {2, 3, 4.0}});
  const Graph next = BuildGraph(Directedness::kUndirected, 5,
                                {{0, 1, 2.0}, {1, 2, 7.0}, {3, 4, 1.0}});
  const Result<GraphDelta> delta = ComputeGraphDelta(base, next);
  ASSERT_TRUE(delta.ok());

  ASSERT_EQ(delta->changed.size(), 1u);
  EXPECT_EQ(delta->changed[0].base_id, base.FindEdge(1, 2));
  EXPECT_EQ(delta->changed[0].next_id, next.FindEdge(1, 2));
  EXPECT_EQ(delta->changed[0].base_weight, 3.0);
  EXPECT_EQ(delta->changed[0].next_weight, 7.0);

  ASSERT_EQ(delta->deleted.size(), 1u);
  EXPECT_EQ(delta->deleted[0], base.FindEdge(2, 3));
  ASSERT_EQ(delta->inserted.size(), 1u);
  EXPECT_EQ(delta->inserted[0], next.FindEdge(3, 4));

  EXPECT_FALSE(delta->totals_equal);  // 9 vs 10
  EXPECT_EQ(delta->AffectedEdges(), 3);
  // Nodes 0 is untouched; 1..4 all see a marginal move.
  EXPECT_EQ(delta->changed_nodes, (std::vector<NodeId>{1, 2, 3, 4}));
  // Every successor edge touches a changed node here: (0,1) via node 1,
  // (1,2) via both, (3,4) via both.
  EXPECT_EQ(delta->star_edges, (std::vector<EdgeId>{0, 1, 2}));
}

TEST(GraphDeltaTest, EmptyDeltaForIdenticalGraphs) {
  const Graph base = BuildGraph(Directedness::kDirected, 4,
                                {{0, 1, 2.0}, {1, 2, 3.0}});
  const Graph next = BuildGraph(Directedness::kDirected, 4,
                                {{0, 1, 2.0}, {1, 2, 3.0}});
  const Result<GraphDelta> delta = ComputeGraphDelta(base, next);
  ASSERT_TRUE(delta.ok());
  EXPECT_TRUE(delta->Empty());
  EXPECT_TRUE(delta->totals_equal);
}

TEST(GraphDeltaTest, RejectsIncomparableGraphs) {
  const Graph undirected =
      BuildGraph(Directedness::kUndirected, 3, {{0, 1, 1.0}});
  const Graph directed =
      BuildGraph(Directedness::kDirected, 3, {{0, 1, 1.0}});
  EXPECT_FALSE(ComputeGraphDelta(undirected, directed).ok());

  GraphBuilder labeled(Directedness::kUndirected);
  labeled.AddLabeledEdge("a", "b", 1.0);
  const Graph with_labels = *labeled.Build();
  EXPECT_FALSE(ComputeGraphDelta(undirected, with_labels).ok());

  GraphBuilder other_order(Directedness::kUndirected);
  other_order.AddLabeledEdge("b", "a", 1.0);  // same network, ids swapped
  const Graph swapped = *other_order.Build();
  EXPECT_FALSE(ComputeGraphDelta(with_labels, swapped).ok());
}

TEST(GraphDeltaTest, MatchingLabeledUniversesDiff) {
  GraphBuilder a(Directedness::kUndirected);
  a.AddLabeledEdge("x", "y", 2.0);
  a.AddLabeledEdge("y", "z", 3.0);
  GraphBuilder b(Directedness::kUndirected);
  b.AddLabeledEdge("x", "y", 2.0);
  b.AddLabeledEdge("y", "z", 5.0);
  const Graph base = *a.Build();
  const Graph next = *b.Build();
  const Result<GraphDelta> delta = ComputeGraphDelta(base, next);
  ASSERT_TRUE(delta.ok());
  ASSERT_EQ(delta->changed.size(), 1u);
  EXPECT_EQ(delta->changed[0].next_weight, 5.0);
}

TEST(DeltaRescoreTest, SupportExactlyTheLocalMethods) {
  EXPECT_TRUE(SupportsDeltaRescore(Method::kNoiseCorrected));
  EXPECT_TRUE(SupportsDeltaRescore(Method::kDisparityFilter));
  EXPECT_TRUE(SupportsDeltaRescore(Method::kNaiveThreshold));
  EXPECT_FALSE(SupportsDeltaRescore(Method::kHighSalienceSkeleton));
  EXPECT_FALSE(SupportsDeltaRescore(Method::kDoublyStochastic));
  EXPECT_FALSE(SupportsDeltaRescore(Method::kMaximumSpanningTree));
  EXPECT_FALSE(SupportsDeltaRescore(Method::kKCore));
}

/// The bit-identity property, randomized: for every method, the
/// incremental result (when offered) equals a full rescore bit for bit —
/// scores, the patched order, the rebuilt profile — at thread counts
/// 1/2/8, and the patch never advances the global sort counter.
TEST(DeltaRescoreTest, RandomizedDeltasBitIdenticalToFullRescore) {
  Rng rng(20260728);
  int incremental_checked = 0;
  for (int round = 0; round < 24; ++round) {
    const bool directed = round % 2 == 1;
    const bool preserve_total = round % 3 != 0;
    const Directedness directedness =
        directed ? Directedness::kDirected : Directedness::kUndirected;
    const NodeId num_nodes = static_cast<NodeId>(rng.UniformInt(12, 40));
    const Graph base = BuildGraph(
        directedness, num_nodes,
        RandomEdges(rng, num_nodes, rng.UniformInt(30, 90), directed));
    if (base.num_edges() < 8) continue;
    const Graph next = BuildGraph(directedness, num_nodes,
                                  Mutate(rng, base, preserve_total));

    const Result<GraphDelta> delta = ComputeGraphDelta(base, next);
    ASSERT_TRUE(delta.ok()) << delta.status().message();

    for (const Method method : AllMethods()) {
      const Result<ScoredEdges> base_scored = RunMethod(method, base);
      if (!base_scored.ok()) continue;  // method rejects this fixture
      const Result<ScoredEdges> full = RunMethod(method, next);
      ASSERT_TRUE(full.ok()) << MethodName(method) << ": "
                             << full.status().message();

      std::optional<DeltaRescoreResult> reference;
      for (const int threads : {1, 2, 8}) {
        DeltaRescoreOptions options;
        options.num_threads = threads;
        options.grain = threads == 8 ? 2 : 16;  // exercise block shapes
        const Result<std::optional<DeltaRescoreResult>> patched =
            DeltaRescore(method, *base_scored, next, *delta, options);
        ASSERT_TRUE(patched.ok()) << patched.status().message();

        if (!patched->has_value()) {
          // Exactly the documented refusals: a global method, or NC with
          // a moved matrix total.
          EXPECT_TRUE(!SupportsDeltaRescore(method) ||
                      (method == Method::kNoiseCorrected &&
                       !delta->totals_equal))
              << MethodName(method);
          continue;
        }
        ASSERT_TRUE(SupportsDeltaRescore(method));
        const DeltaRescoreResult& result = **patched;

        // Scores bitwise equal to the full rescore, sdev included.
        ASSERT_EQ(static_cast<int64_t>(result.scores.size()), full->size());
        for (EdgeId id = 0; id < full->size(); ++id) {
          EXPECT_EQ(result.scores[static_cast<size_t>(id)].score,
                    full->at(id).score)
              << MethodName(method) << " edge " << id;
          EXPECT_EQ(result.scores[static_cast<size_t>(id)].sdev,
                    full->at(id).sdev);
        }

        // Thread counts are interchangeable: identical dirty set too.
        if (!reference.has_value()) {
          reference = result;
          ++incremental_checked;
        } else {
          EXPECT_EQ(result.dirty, reference->dirty);
          EXPECT_EQ(result.base_to_next, reference->base_to_next);
        }
      }

      if (!reference.has_value()) continue;

      // The patched ScoreOrder equals a fresh sort element-for-element
      // and performs zero global sorts.
      const ScoredEdges patched_scored(&next, full->method(),
                                       reference->scores,
                                       full->has_sdev());
      const ScoreOrder base_order(*base_scored);
      const int64_t sorts_before = ScoreOrder::SortsPerformed();
      const ScoreOrder patched_order(patched_scored, base_order,
                                     reference->base_to_next,
                                     reference->dirty);
      EXPECT_EQ(ScoreOrder::SortsPerformed(), sorts_before)
          << MethodName(method) << ": patching must not sort";
      const ScoreOrder full_order(*full);
      ASSERT_EQ(patched_order.size(), full_order.size());
      for (int64_t rank = 0; rank < full_order.size(); ++rank) {
        ASSERT_EQ(patched_order.id_at(rank), full_order.id_at(rank))
            << MethodName(method) << " rank " << rank;
      }

      // The profile rebuilt from the patched order matches in full.
      const SweepProfile patched_profile = BuildSweepProfile(patched_order);
      const SweepProfile full_profile = BuildSweepProfile(full_order);
      EXPECT_EQ(patched_profile.covered_nodes, full_profile.covered_nodes);
      EXPECT_EQ(patched_profile.kept_weight, full_profile.kept_weight);
      EXPECT_EQ(patched_profile.connect_k, full_profile.connect_k);
      EXPECT_EQ(patched_profile.target_nodes, full_profile.target_nodes);
    }
  }
  // The generator must actually exercise the incremental path.
  EXPECT_GE(incremental_checked, 20);
}

TEST(DeltaRescoreTest, CleanEdgesAreCopiedNotRescored) {
  // A weight change on one edge of a path graph dirties only the stars of
  // its endpoints.
  const Graph base = BuildGraph(
      Directedness::kUndirected, 6,
      {{0, 1, 4.0}, {1, 2, 4.0}, {2, 3, 4.0}, {3, 4, 4.0}, {4, 5, 4.0}});
  // Move a unit from (2,3) to (0,1): totals preserved, nodes 0..3 dirty.
  const Graph next = BuildGraph(
      Directedness::kUndirected, 6,
      {{0, 1, 5.0}, {1, 2, 4.0}, {2, 3, 3.0}, {3, 4, 4.0}, {4, 5, 4.0}});
  const Result<GraphDelta> delta = ComputeGraphDelta(base, next);
  ASSERT_TRUE(delta.ok());
  EXPECT_TRUE(delta->totals_equal);
  EXPECT_EQ(delta->changed_nodes, (std::vector<NodeId>{0, 1, 2, 3}));

  const Result<ScoredEdges> base_scored =
      RunMethod(Method::kNoiseCorrected, base);
  ASSERT_TRUE(base_scored.ok());
  const Result<std::optional<DeltaRescoreResult>> patched = DeltaRescore(
      Method::kNoiseCorrected, *base_scored, next, *delta, {});
  ASSERT_TRUE(patched.ok());
  ASSERT_TRUE(patched->has_value());
  // Dirty = edges incident to nodes 0..3 = the first four edges; the
  // (4,5) edge is clean.
  EXPECT_EQ((*patched)->dirty,
            (std::vector<EdgeId>{0, 1, 2, 3}));
}

TEST(DeltaRescoreTest, NaiveThresholdDirtiesOnlyChangedEdges) {
  const Graph base = BuildGraph(
      Directedness::kUndirected, 5,
      {{0, 1, 4.0}, {1, 2, 4.0}, {2, 3, 4.0}, {3, 4, 4.0}});
  const Graph next = BuildGraph(
      Directedness::kUndirected, 5,
      {{0, 1, 6.0}, {1, 2, 4.0}, {2, 3, 4.0}, {3, 4, 4.0}});
  const Result<GraphDelta> delta = ComputeGraphDelta(base, next);
  ASSERT_TRUE(delta.ok());
  const Result<ScoredEdges> base_scored =
      RunMethod(Method::kNaiveThreshold, base);
  ASSERT_TRUE(base_scored.ok());
  const Result<std::optional<DeltaRescoreResult>> patched = DeltaRescore(
      Method::kNaiveThreshold, *base_scored, next, *delta, {});
  ASSERT_TRUE(patched.ok());
  ASSERT_TRUE(patched->has_value());
  // NT reads only the weight: the endpoint stars stay clean.
  EXPECT_EQ((*patched)->dirty, (std::vector<EdgeId>{0}));
}

TEST(DeltaRescoreTest, NoiseCorrectedRefusesMovedTotals) {
  const Graph base = BuildGraph(Directedness::kUndirected, 4,
                                {{0, 1, 2.0}, {1, 2, 3.0}, {2, 3, 4.0}});
  const Graph next = BuildGraph(Directedness::kUndirected, 4,
                                {{0, 1, 9.0}, {1, 2, 3.0}, {2, 3, 4.0}});
  const Result<GraphDelta> delta = ComputeGraphDelta(base, next);
  ASSERT_TRUE(delta.ok());
  EXPECT_FALSE(delta->totals_equal);
  const Result<ScoredEdges> base_scored =
      RunMethod(Method::kNoiseCorrected, base);
  ASSERT_TRUE(base_scored.ok());
  const Result<std::optional<DeltaRescoreResult>> patched = DeltaRescore(
      Method::kNoiseCorrected, *base_scored, next, *delta, {});
  ASSERT_TRUE(patched.ok());
  EXPECT_FALSE(patched->has_value());

  // DF has no global input: the same delta stays incremental.
  const Result<ScoredEdges> base_df =
      RunMethod(Method::kDisparityFilter, base);
  ASSERT_TRUE(base_df.ok());
  const Result<std::optional<DeltaRescoreResult>> df_patched = DeltaRescore(
      Method::kDisparityFilter, *base_df, next, *delta, {});
  ASSERT_TRUE(df_patched.ok());
  EXPECT_TRUE(df_patched->has_value());
}

TEST(ScoreOrderPatchTest, InconsistentInputsFallBackToFullSort) {
  const Graph base = BuildGraph(Directedness::kUndirected, 4,
                                {{0, 1, 2.0}, {1, 2, 3.0}, {2, 3, 4.0}});
  const Result<ScoredEdges> base_scored =
      RunMethod(Method::kNaiveThreshold, base);
  ASSERT_TRUE(base_scored.ok());
  const ScoreOrder base_order(*base_scored);

  // An inconsistent dirty list makes the patch degrade to a counted full
  // sort that stays correct.
  const auto expect_fallback = [&](const Graph& next,
                                   const std::vector<EdgeId>& dirty) {
    const Result<ScoredEdges> next_scored =
        RunMethod(Method::kNaiveThreshold, next);
    ASSERT_TRUE(next_scored.ok());
    std::vector<EdgeId> base_to_next(3);
    for (EdgeId b = 0; b < 3; ++b) {
      base_to_next[static_cast<size_t>(b)] =
          next.FindEdge(base.edge(b).src, base.edge(b).dst);
    }
    const int64_t sorts_before = ScoreOrder::SortsPerformed();
    const ScoreOrder patched(*next_scored, base_order, base_to_next, dirty);
    EXPECT_EQ(ScoreOrder::SortsPerformed(), sorts_before + 1);
    const ScoreOrder fresh(*next_scored);
    ASSERT_EQ(patched.size(), fresh.size());
    for (int64_t rank = 0; rank < fresh.size(); ++rank) {
      EXPECT_EQ(patched.id_at(rank), fresh.id_at(rank));
    }
  };

  // A dirty list that omits the inserted edge (1,3).
  expect_fallback(
      BuildGraph(Directedness::kUndirected, 4,
                 {{0, 1, 2.0}, {1, 2, 3.0}, {1, 3, 5.0}, {2, 3, 4.0}}),
      {});
  // Two inserted edges, and a list that names (1,3) twice and omits
  // (0,2): its length still adds up to the table.
  const Graph two_inserted = BuildGraph(
      Directedness::kUndirected, 4,
      {{0, 1, 2.0}, {0, 2, 6.0}, {1, 2, 3.0}, {1, 3, 5.0}, {2, 3, 4.0}});
  expect_fallback(two_inserted,
                  {two_inserted.FindEdge(1, 3), two_inserted.FindEdge(1, 3)});
}

}  // namespace
}  // namespace netbone
