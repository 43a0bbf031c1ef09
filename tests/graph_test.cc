// Tests for the graph substrate: builder policies, marginals (the N_i.,
// N_.j, N_.. every null model consumes), lookups, labels, isolates, and
// the edge-set facts a weight-only revision inherits from its ancestor
// (Graph::InheritEdgeFacts), checked against MaterializeEdgeColumns.

#include "graph/graph.h"

#include <cmath>
#include <cstdint>
#include <cstring>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/registry.h"
#include "core/sweep.h"
#include "gen/barabasi_albert.h"
#include "gen/erdos_renyi.h"
#include "graph/builder.h"
#include "graph/delta.h"

namespace netbone {
namespace {

TEST(GraphBuilderTest, BuildsDirectedGraphWithMarginals) {
  GraphBuilder builder(Directedness::kDirected);
  builder.AddEdge(0, 1, 3.0);
  builder.AddEdge(0, 2, 2.0);
  builder.AddEdge(2, 1, 4.0);
  const auto g = builder.Build();
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->num_nodes(), 3);
  EXPECT_EQ(g->num_edges(), 3);
  EXPECT_DOUBLE_EQ(g->total_weight(), 9.0);
  EXPECT_DOUBLE_EQ(g->matrix_total(), 9.0);
  EXPECT_DOUBLE_EQ(g->out_strength(0), 5.0);
  EXPECT_DOUBLE_EQ(g->in_strength(1), 7.0);
  EXPECT_DOUBLE_EQ(g->in_strength(0), 0.0);
  EXPECT_EQ(g->out_degree(0), 2);
  EXPECT_EQ(g->in_degree(1), 2);
}

TEST(GraphBuilderTest, UndirectedMarginalsAreSymmetric) {
  GraphBuilder builder(Directedness::kUndirected);
  builder.AddEdge(0, 1, 3.0);
  builder.AddEdge(1, 2, 4.0);
  const auto g = builder.Build();
  ASSERT_TRUE(g.ok());
  // Symmetric matrix view: N_.. counts each undirected edge twice.
  EXPECT_DOUBLE_EQ(g->total_weight(), 7.0);
  EXPECT_DOUBLE_EQ(g->matrix_total(), 14.0);
  EXPECT_DOUBLE_EQ(g->out_strength(1), 7.0);
  EXPECT_DOUBLE_EQ(g->in_strength(1), 7.0);
  EXPECT_EQ(g->out_degree(1), 2);
}

TEST(GraphBuilderTest, UndirectedEdgesAreCanonicalized) {
  GraphBuilder builder(Directedness::kUndirected);
  builder.AddEdge(5, 2, 1.0);
  const auto g = builder.Build();
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->edge(0).src, 2);
  EXPECT_EQ(g->edge(0).dst, 5);
  EXPECT_DOUBLE_EQ(g->WeightOf(5, 2), 1.0);
  EXPECT_DOUBLE_EQ(g->WeightOf(2, 5), 1.0);
}

TEST(GraphBuilderTest, DuplicateSumPolicyAccumulates) {
  GraphBuilder builder(Directedness::kDirected, DuplicateEdgePolicy::kSum);
  builder.AddEdge(0, 1, 1.5);
  builder.AddEdge(0, 1, 2.5);
  const auto g = builder.Build();
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->num_edges(), 1);
  EXPECT_DOUBLE_EQ(g->edge(0).weight, 4.0);
}

TEST(GraphBuilderTest, DuplicateMaxPolicyKeepsHeaviest) {
  GraphBuilder builder(Directedness::kDirected, DuplicateEdgePolicy::kMax);
  builder.AddEdge(0, 1, 1.5);
  builder.AddEdge(0, 1, 2.5);
  builder.AddEdge(0, 1, 0.5);
  const auto g = builder.Build();
  ASSERT_TRUE(g.ok());
  EXPECT_DOUBLE_EQ(g->edge(0).weight, 2.5);
}

TEST(GraphBuilderTest, DuplicateErrorPolicyFails) {
  GraphBuilder builder(Directedness::kDirected,
                       DuplicateEdgePolicy::kError);
  builder.AddEdge(0, 1, 1.0);
  builder.AddEdge(0, 1, 2.0);
  const auto g = builder.Build();
  ASSERT_FALSE(g.ok());
  EXPECT_TRUE(g.status().IsInvalidArgument());
}

TEST(GraphBuilderTest, UndirectedReversedDuplicatesMerge) {
  GraphBuilder builder(Directedness::kUndirected,
                       DuplicateEdgePolicy::kSum);
  builder.AddEdge(0, 1, 1.0);
  builder.AddEdge(1, 0, 2.0);  // same undirected pair
  const auto g = builder.Build();
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->num_edges(), 1);
  EXPECT_DOUBLE_EQ(g->edge(0).weight, 3.0);
}

TEST(GraphBuilderTest, SelfLoopDropPolicySilentlyDiscards) {
  GraphBuilder builder(Directedness::kDirected, DuplicateEdgePolicy::kSum,
                       SelfLoopPolicy::kDrop);
  builder.AddEdge(2, 2, 5.0);
  builder.AddEdge(0, 1, 1.0);
  const auto g = builder.Build();
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->num_edges(), 1);
  EXPECT_EQ(g->num_nodes(), 3);  // node 2 still exists (as isolate)
  EXPECT_EQ(g->CountIsolates(), 1);
}

TEST(GraphBuilderTest, SelfLoopKeepPolicyStoresDiagonal) {
  GraphBuilder builder(Directedness::kUndirected, DuplicateEdgePolicy::kSum,
                       SelfLoopPolicy::kKeep);
  builder.AddEdge(0, 0, 5.0);
  builder.AddEdge(0, 1, 1.0);
  const auto g = builder.Build();
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->num_edges(), 2);
  // Diagonal counts once in the symmetric matrix total: 2*1 + 5.
  EXPECT_DOUBLE_EQ(g->matrix_total(), 7.0);
}

TEST(GraphBuilderTest, SelfLoopErrorPolicyFails) {
  GraphBuilder builder(Directedness::kDirected, DuplicateEdgePolicy::kSum,
                       SelfLoopPolicy::kError);
  builder.AddEdge(1, 1, 1.0);
  EXPECT_FALSE(builder.Build().ok());
}

TEST(GraphBuilderTest, RejectsNegativeWeight) {
  GraphBuilder builder(Directedness::kDirected);
  builder.AddEdge(0, 1, -1.0);
  EXPECT_FALSE(builder.Build().ok());
}

TEST(GraphBuilderTest, RejectsNonFiniteWeight) {
  GraphBuilder builder(Directedness::kDirected);
  builder.AddEdge(0, 1, std::numeric_limits<double>::infinity());
  EXPECT_FALSE(builder.Build().ok());
}

TEST(GraphBuilderTest, RejectsNegativeNodeId) {
  GraphBuilder builder(Directedness::kDirected);
  builder.AddEdge(-1, 1, 1.0);
  EXPECT_FALSE(builder.Build().ok());
}

TEST(GraphBuilderTest, ReserveNodesCreatesIsolates) {
  GraphBuilder builder(Directedness::kDirected);
  builder.ReserveNodes(10);
  builder.AddEdge(0, 1, 1.0);
  const auto g = builder.Build();
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->num_nodes(), 10);
  EXPECT_EQ(g->CountIsolates(), 8);
}

TEST(GraphBuilderTest, LabeledEdgesInternAndResolve) {
  GraphBuilder builder(Directedness::kDirected);
  builder.AddLabeledEdge("USA", "DEU", 7.0);
  builder.AddLabeledEdge("DEU", "JPN", 3.0);
  builder.AddLabeledEdge("USA", "JPN", 2.0);
  const auto g = builder.Build();
  ASSERT_TRUE(g.ok());
  EXPECT_TRUE(g->has_labels());
  EXPECT_EQ(g->LabelOf(0), "USA");
  const auto deu = g->FindLabel("DEU");
  ASSERT_TRUE(deu.ok());
  EXPECT_DOUBLE_EQ(g->WeightOf(*g->FindLabel("USA"), *deu), 7.0);
  EXPECT_FALSE(g->FindLabel("FRA").ok());
}

TEST(GraphTest, FindEdgeReturnsMinusOneWhenAbsent) {
  GraphBuilder builder(Directedness::kDirected);
  builder.AddEdge(0, 1, 1.0);
  const auto g = builder.Build();
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->FindEdge(1, 0), -1);
  EXPECT_GE(g->FindEdge(0, 1), 0);
  EXPECT_DOUBLE_EQ(g->WeightOf(1, 0), 0.0);
}

TEST(GraphTest, EdgesAreSortedBySrcThenDst) {
  GraphBuilder builder(Directedness::kDirected);
  builder.AddEdge(2, 0, 1.0);
  builder.AddEdge(0, 2, 1.0);
  builder.AddEdge(0, 1, 1.0);
  builder.AddEdge(1, 2, 1.0);
  const auto g = builder.Build();
  ASSERT_TRUE(g.ok());
  for (EdgeId id = 1; id < g->num_edges(); ++id) {
    const Edge& prev = g->edge(id - 1);
    const Edge& cur = g->edge(id);
    EXPECT_TRUE(prev.src < cur.src ||
                (prev.src == cur.src && prev.dst < cur.dst));
  }
}

TEST(GraphTest, EmptyGraphBasics) {
  GraphBuilder builder(Directedness::kUndirected);
  builder.ReserveNodes(4);
  const auto g = builder.Build();
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->num_edges(), 0);
  EXPECT_EQ(g->CountIsolates(), 4);
  EXPECT_DOUBLE_EQ(g->total_weight(), 0.0);
}

TEST(GraphTest, LabelOfFallsBackToDecimalId) {
  GraphBuilder builder(Directedness::kDirected);
  builder.AddEdge(0, 1, 1.0);
  const auto g = builder.Build();
  ASSERT_TRUE(g.ok());
  EXPECT_FALSE(g->has_labels());
  EXPECT_EQ(g->LabelOf(1), "1");
}

TEST(GraphTest, MixedLabeledAndPlainIdsGetPlaceholders) {
  GraphBuilder builder(Directedness::kDirected);
  builder.AddLabeledEdge("A", "B", 1.0);
  builder.AddEdge(2, 3, 1.0);  // ids beyond the label table
  const auto g = builder.Build();
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->LabelOf(0), "A");
  EXPECT_EQ(g->LabelOf(3), "3");
}

// ---------------------------------------------------------------------------
// Edge-set facts inherited across a weight-only delta.
// ---------------------------------------------------------------------------

/// `g`'s edge table rebuilt with `weights[id]` on edge `id` (self-loops
/// kept, node count preserved): a fresh graph, nothing learned about it.
Graph WithWeights(const Graph& g, const std::vector<double>& weights) {
  GraphBuilder builder(g.directedness(), DuplicateEdgePolicy::kSum,
                       SelfLoopPolicy::kKeep);
  builder.ReserveNodes(g.num_nodes());
  for (EdgeId id = 0; id < g.num_edges(); ++id) {
    const Edge& e = g.edge(id);
    builder.AddEdge(e.src, e.dst, weights[static_cast<size_t>(id)]);
  }
  return *builder.Build();
}

std::vector<double> WeightsOf(const Graph& g) {
  std::vector<double> weights;
  for (const Edge& e : g.edges()) weights.push_back(e.weight);
  return weights;
}

/// A count-data graph: ER edges with integer weights, plus a self-loop on
/// every 17th node when `self_loops` is set.
Graph MakeCountGraph(Directedness directedness, bool self_loops) {
  const Result<Graph> er =
      GenerateErdosRenyi({.num_nodes = 2000,
                          .average_degree = 4.0,
                          .directedness = directedness,
                          .seed = 31});
  GraphBuilder builder(directedness, DuplicateEdgePolicy::kSum,
                       SelfLoopPolicy::kKeep);
  builder.ReserveNodes(er->num_nodes());
  for (const Edge& e : er->edges()) {
    builder.AddEdge(e.src, e.dst, std::floor(e.weight));
  }
  if (self_loops) {
    for (NodeId v = 0; v < er->num_nodes(); v += 17) {
      builder.AddEdge(v, v, 3.0 + static_cast<double>(v % 5));
    }
  }
  return *builder.Build();
}

/// The noisy re-observation: `transfers` single units of weight moved
/// between spread-out edges (every weight stays >= 1, so the edge set and
/// the matrix total are unchanged).
Graph Reobserved(const Graph& g, int transfers) {
  std::vector<double> weights = WeightsOf(g);
  const size_t n = weights.size();
  for (int t = 0; t < transfers; ++t) {
    const size_t from = (static_cast<size_t>(t) * 7919) % n;
    const size_t to = (static_cast<size_t>(t) * 104729 + 1) % n;
    if (from == to || weights[from] < 2.0) continue;
    weights[from] -= 1.0;
    weights[to] += 1.0;
  }
  return WithWeights(g, weights);
}

/// A double column's bit patterns: operator== would equate +0.0 and -0.0.
std::vector<uint64_t> Bits(const std::vector<double>& column) {
  std::vector<uint64_t> bits(column.size());
  if (!column.empty()) {
    std::memcpy(bits.data(), column.data(), column.size() * sizeof(double));
  }
  return bits;
}

void ExpectColumnsEqual(const EdgeColumns& got, const EdgeColumns& want) {
  // Element for element and bit for bit.
  EXPECT_EQ(Bits(got.weight), Bits(want.weight));
  EXPECT_EQ(Bits(got.n_i), Bits(want.n_i));
  EXPECT_EQ(Bits(got.n_j), Bits(want.n_j));
  EXPECT_EQ(Bits(got.dm1_i), Bits(want.dm1_i));
  EXPECT_EQ(Bits(got.dm1_j), Bits(want.dm1_j));
  EXPECT_EQ(got.bytes(), want.bytes());
  // Five 8-byte columns: weight, n_i, n_j, dm1_i, dm1_j.
  EXPECT_EQ(got.bytes(), 40 * got.size());
}

/// Derives `child`'s columns from `ancestor` (columns built first) and
/// checks them against a fresh materialization of `child`.
void ExpectDerivedColumnsMatch(const Graph& ancestor, const Graph& child) {
  const Result<GraphDelta> delta = ComputeGraphDelta(ancestor, child);
  ASSERT_TRUE(delta.ok());
  ASSERT_FALSE(delta->changed.empty());
  ancestor.edge_columns();
  ASSERT_FALSE(child.edge_columns_materialized());
  ASSERT_TRUE(child.InheritEdgeFacts(ancestor, *delta));
  ASSERT_TRUE(child.edge_columns_materialized());
  EdgeColumns want;
  MaterializeEdgeColumns(child, &want);
  ExpectColumnsEqual(child.edge_columns(), want);
}

TEST(InheritEdgeFactsTest, DerivedColumnsMatchMaterialized) {
  for (const Directedness d :
       {Directedness::kDirected, Directedness::kUndirected}) {
    const Graph base = MakeCountGraph(d, false);
    ExpectDerivedColumnsMatch(base, Reobserved(base, 40));
  }
}

TEST(InheritEdgeFactsTest, DerivedColumnsMatchMaterializedWithSelfLoops) {
  for (const Directedness d :
       {Directedness::kDirected, Directedness::kUndirected}) {
    const Graph base = MakeCountGraph(d, true);
    // Move weight onto and off the self-loops too.
    std::vector<double> weights = WeightsOf(base);
    for (EdgeId id = 0; id < base.num_edges(); ++id) {
      const Edge& e = base.edge(id);
      if (e.src == e.dst && e.src % 34 == 0) {
        weights[static_cast<size_t>(id)] += 2.0;
        weights[static_cast<size_t>(id + 1) % weights.size()] += 1.0;
      }
    }
    ExpectDerivedColumnsMatch(base, WithWeights(base, weights));
  }
}

TEST(InheritEdgeFactsTest, TransferThroughSharedEndpointKeepsItsStrength) {
  // Node 0 gives one unit from (0, 1) to (0, 2): node 0's strength is
  // unchanged, so (0, 3) is clean while (0, 1) and (0, 2) sit in the
  // stars of nodes 1 and 2.
  GraphBuilder builder(Directedness::kUndirected);
  builder.AddEdge(0, 1, 3.0);
  builder.AddEdge(0, 2, 5.0);
  builder.AddEdge(0, 3, 2.0);
  builder.AddEdge(1, 4, 7.0);
  builder.AddEdge(2, 3, 1.0);
  const Graph base = *builder.Build();
  std::vector<double> weights = WeightsOf(base);
  weights[static_cast<size_t>(base.FindEdge(0, 1))] -= 1.0;
  weights[static_cast<size_t>(base.FindEdge(0, 2))] += 1.0;
  const Graph child = WithWeights(base, weights);
  ASSERT_EQ(child.out_strength(0), base.out_strength(0));

  const Result<GraphDelta> delta = ComputeGraphDelta(base, child);
  ASSERT_TRUE(delta.ok());
  EXPECT_EQ(delta->changed_nodes, (std::vector<NodeId>{1, 2}));
  EXPECT_EQ(delta->changed.size(), 2u);
  ExpectDerivedColumnsMatch(base, child);
}

TEST(InheritEdgeFactsTest, SignedZeroWeightsDeriveBitwise) {
  // 0.0 -> -0.0 is a change (the delta compares bit patterns), and the
  // derived weight column must carry the sign bit the edge table holds.
  GraphBuilder builder(Directedness::kUndirected);
  builder.AddEdge(0, 1, 0.0);
  builder.AddEdge(0, 2, 2.0);
  builder.AddEdge(1, 3, 1.0);
  builder.AddEdge(3, 4, 0.0);
  const Graph base = *builder.Build();
  std::vector<double> weights = WeightsOf(base);
  weights[static_cast<size_t>(base.FindEdge(0, 1))] = -0.0;
  weights[static_cast<size_t>(base.FindEdge(3, 4))] = -0.0;
  const Graph child = WithWeights(base, weights);
  ExpectDerivedColumnsMatch(base, child);
  EXPECT_TRUE(std::signbit(
      child.edge_columns().weight[static_cast<size_t>(child.FindEdge(0, 1))]));
}

TEST(InheritEdgeFactsTest, StructuralDeltaDerivesNothing) {
  const Graph base = MakeCountGraph(Directedness::kUndirected, false);
  base.edge_columns();
  base.RecordConnectivity(Graph::Connectivity::kDisconnected);
  const std::vector<double> weights = WeightsOf(base);

  // An inserted edge, a deleted edge, and one extra (isolated) node.
  GraphBuilder inserted(Directedness::kUndirected);
  for (const Edge& e : base.edges()) inserted.AddEdge(e.src, e.dst, e.weight);
  inserted.AddEdge(0, base.num_nodes() - 1, 1.0);
  GraphBuilder deleted(Directedness::kUndirected);
  deleted.ReserveNodes(base.num_nodes());
  for (EdgeId id = 1; id < base.num_edges(); ++id) {
    const Edge& e = base.edge(id);
    deleted.AddEdge(e.src, e.dst, e.weight);
  }
  GraphBuilder grown(Directedness::kUndirected);
  grown.ReserveNodes(base.num_nodes() + 1);
  for (const Edge& e : base.edges()) grown.AddEdge(e.src, e.dst, e.weight);

  for (GraphBuilder* builder : {&inserted, &deleted, &grown}) {
    const Graph child = *builder->Build();
    const Result<GraphDelta> delta = ComputeGraphDelta(base, child);
    ASSERT_TRUE(delta.ok());
    EXPECT_FALSE(child.InheritEdgeFacts(base, *delta));
    EXPECT_FALSE(child.edge_columns_materialized());
    EXPECT_EQ(child.known_connectivity(), Graph::Connectivity::kUnknown);
    // The lazy build still runs as before.
    EdgeColumns want;
    MaterializeEdgeColumns(child, &want);
    ExpectColumnsEqual(child.edge_columns(), want);
  }
}

TEST(InheritEdgeFactsTest, UnbuiltAncestorPassesConnectivityOnly) {
  const Graph base = MakeCountGraph(Directedness::kDirected, false);
  base.RecordConnectivity(Graph::Connectivity::kDisconnected);
  const Graph child = Reobserved(base, 40);
  const Result<GraphDelta> delta = ComputeGraphDelta(base, child);
  ASSERT_TRUE(delta.ok());
  EXPECT_TRUE(child.InheritEdgeFacts(base, *delta));
  EXPECT_EQ(child.known_connectivity(), Graph::Connectivity::kDisconnected);
  EXPECT_FALSE(base.edge_columns_materialized());
  EXPECT_FALSE(child.edge_columns_materialized());
  EdgeColumns want;
  MaterializeEdgeColumns(child, &want);
  ExpectColumnsEqual(child.edge_columns(), want);
}

TEST(InheritEdgeFactsTest, InheritedConnectedRecordYieldsExactConnectK) {
  const Result<Graph> ba = GenerateBarabasiAlbert(
      {.num_nodes = 3000, .average_degree = 4.0, .seed = 9});
  ASSERT_TRUE(ba.ok());
  std::vector<double> counts = WeightsOf(*ba);
  for (double& w : counts) w = 1.0 + std::floor(w);
  const Graph base = WithWeights(*ba, counts);
  const Graph child = Reobserved(base, 300);
  for (const Method method :
       {Method::kNoiseCorrected, Method::kNaiveThreshold}) {
    const Graph fresh = WithWeights(child, WeightsOf(child));
    const Graph inheriting = WithWeights(child, WeightsOf(child));
    const auto base_scores = RunMethod(method, base);
    ASSERT_TRUE(base_scores.ok());
    BuildSweepProfile(ScoreOrder(*base_scores));
    ASSERT_EQ(base.known_connectivity(), Graph::Connectivity::kConnected);

    const Result<GraphDelta> delta = ComputeGraphDelta(base, inheriting);
    ASSERT_TRUE(delta.ok());
    ASSERT_TRUE(inheriting.InheritEdgeFacts(base, *delta));
    EXPECT_EQ(inheriting.known_connectivity(),
              Graph::Connectivity::kConnected);

    const auto want_scores = RunMethod(method, fresh);
    const auto got_scores = RunMethod(method, inheriting);
    ASSERT_TRUE(want_scores.ok() && got_scores.ok());
    const ScoreOrder want_order(*want_scores);
    const ScoreOrder got_order(*got_scores);
    const SweepProfile want = BuildSweepProfile(want_order);
    const SweepProfile got = BuildSweepProfile(got_order);
    EXPECT_LT(want.connect_k, child.num_edges());
    EXPECT_EQ(got.connect_k, want.connect_k);
    EXPECT_EQ(got.covered_nodes, want.covered_nodes);
    EXPECT_EQ(GrowUntilConnected(got_order).kept, want.connect_k);
  }
}

TEST(InheritEdgeFactsTest, DerivationRacingFirstReadersBuildsOnce) {
  // Four threads race the derivation against edge_columns() on one child:
  // whichever road fills the once-only slot, every reader sees the same
  // columns, equal to a materialization.
  const Graph base = MakeCountGraph(Directedness::kUndirected, true);
  base.edge_columns();
  base.RecordConnectivity(Graph::Connectivity::kDisconnected);
  const Graph reobserved = Reobserved(base, 40);
  EdgeColumns want;
  MaterializeEdgeColumns(reobserved, &want);
  const Result<GraphDelta> delta = ComputeGraphDelta(base, reobserved);
  ASSERT_TRUE(delta.ok());
  for (int round = 0; round < 8; ++round) {
    const Graph child = WithWeights(reobserved, WeightsOf(reobserved));
    std::vector<const EdgeColumns*> seen(4, nullptr);
    std::vector<std::thread> threads;
    for (int t = 0; t < 4; ++t) {
      threads.emplace_back([&, t] {
        if ((t + round) % 2 == 0) child.InheritEdgeFacts(base, *delta);
        seen[static_cast<size_t>(t)] = &child.edge_columns();
      });
    }
    for (std::thread& thread : threads) thread.join();
    for (const EdgeColumns* columns : seen) {
      EXPECT_EQ(columns, seen[0]);
    }
    ExpectColumnsEqual(*seen[0], want);
    EXPECT_EQ(child.known_connectivity(), Graph::Connectivity::kDisconnected);
  }
}

}  // namespace
}  // namespace netbone
