// Tests for the graph fingerprint (service/graph_store.h) and the store's
// revision road: a fingerprint derived from the parent's through the
// delta equals the full hash under randomized edits (weight changes,
// insertions, deletions, node growth and shrinkage, self-loops, +0.0 <->
// -0.0 flips) on directed and undirected, labeled and unlabeled graphs;
// the road falls back to the full hash when the base is gone or the diff
// refuses; a sign flip of a zero weight is a change to the delta, the
// fingerprint and the inherited columns alike; and a corpus of more than
// 10k distinct graphs has no two fingerprints equal.

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <map>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "gen/barabasi_albert.h"
#include "gen/erdos_renyi.h"
#include "graph/builder.h"
#include "graph/delta.h"
#include "graph/edge_columns.h"
#include "graph/graph.h"
#include "service/graph_store.h"

namespace netbone {
namespace {

/// A graph as the property tests edit it: canonical (src, dst) -> weight
/// over `num_nodes` nodes. Labeled specs name node v "node-v", interned in
/// id order, so two specs agree label for label on their shared prefix.
struct GraphSpec {
  Directedness directedness = Directedness::kUndirected;
  bool labeled = false;
  NodeId num_nodes = 0;
  std::map<std::pair<NodeId, NodeId>, double> edges;

  std::pair<NodeId, NodeId> Ends(NodeId src, NodeId dst) const {
    if (directedness == Directedness::kUndirected && src > dst) {
      std::swap(src, dst);
    }
    return {src, dst};
  }

  Graph Build() const {
    GraphBuilder builder(directedness, DuplicateEdgePolicy::kError,
                         SelfLoopPolicy::kKeep);
    if (labeled) {
      for (NodeId v = 0; v < num_nodes; ++v) {
        builder.InternLabel("node-" + std::to_string(v));
      }
    }
    builder.ReserveNodes(num_nodes);
    for (const auto& [ends, weight] : edges) {
      builder.AddEdge(ends.first, ends.second, weight);
    }
    Result<Graph> graph = builder.Build();
    EXPECT_TRUE(graph.ok()) << graph.status().ToString();
    return *std::move(graph);
  }
};

/// Weights drawn so that zeros of both signs, equal integers and distinct
/// reals all occur.
double RandomWeight(Rng& rng) {
  switch (rng.NextBounded(5)) {
    case 0:
      return rng.NextBounded(2) == 0 ? 0.0 : -0.0;
    case 1:
    case 2:
      return static_cast<double>(1 + rng.NextBounded(4));
    default:
      return rng.Uniform(0.5, 50.0);
  }
}

GraphSpec RandomSpec(Rng& rng, Directedness directedness, bool labeled) {
  GraphSpec spec;
  spec.directedness = directedness;
  spec.labeled = labeled;
  spec.num_nodes = static_cast<NodeId>(6 + rng.NextBounded(30));
  const uint64_t target = 2 * static_cast<uint64_t>(spec.num_nodes);
  for (uint64_t i = 0; i < target; ++i) {
    const NodeId src = static_cast<NodeId>(rng.NextBounded(
        static_cast<uint64_t>(spec.num_nodes)));
    const NodeId dst =
        rng.NextBounded(8) == 0
            ? src  // a self-loop
            : static_cast<NodeId>(rng.NextBounded(
                  static_cast<uint64_t>(spec.num_nodes)));
    spec.edges[spec.Ends(src, dst)] = RandomWeight(rng);
  }
  return spec;
}

/// A random existing edge; precondition: the spec has one.
std::map<std::pair<NodeId, NodeId>, double>::iterator AnyEdge(
    GraphSpec& spec, Rng& rng) {
  auto it = spec.edges.begin();
  std::advance(it, static_cast<long>(rng.NextBounded(spec.edges.size())));
  return it;
}

enum class Edit {
  kWeights,
  kInsert,
  kDelete,
  kGrow,
  kShrink,
  kSelfLoop,
  kZeroFlip,
  kMixed,
};

constexpr Edit kEdits[] = {Edit::kWeights, Edit::kInsert,   Edit::kDelete,
                           Edit::kGrow,    Edit::kShrink,   Edit::kSelfLoop,
                           Edit::kZeroFlip, Edit::kMixed};

void ApplyEdit(Edit edit, GraphSpec& spec, Rng& rng) {
  const auto random_node = [&] {
    return static_cast<NodeId>(
        rng.NextBounded(static_cast<uint64_t>(spec.num_nodes)));
  };
  switch (edit) {
    case Edit::kWeights:
      for (int i = 0; i < 3 && !spec.edges.empty(); ++i) {
        AnyEdge(spec, rng)->second = RandomWeight(rng);
      }
      return;
    case Edit::kInsert:
      for (int i = 0; i < 3; ++i) {
        spec.edges[spec.Ends(random_node(), random_node())] =
            RandomWeight(rng);
      }
      return;
    case Edit::kDelete:
      for (int i = 0; i < 3 && !spec.edges.empty(); ++i) {
        spec.edges.erase(AnyEdge(spec, rng));
      }
      return;
    case Edit::kGrow: {
      const NodeId old_nodes = spec.num_nodes;
      spec.num_nodes += static_cast<NodeId>(1 + rng.NextBounded(4));
      // Some new nodes get edges, some stay isolated.
      for (NodeId v = old_nodes; v < spec.num_nodes; v += 2) {
        spec.edges[spec.Ends(v, random_node())] = RandomWeight(rng);
      }
      return;
    }
    case Edit::kShrink: {
      spec.num_nodes = std::max<NodeId>(
          1, spec.num_nodes - static_cast<NodeId>(1 + rng.NextBounded(3)));
      std::erase_if(spec.edges, [&](const auto& entry) {
        return entry.first.first >= spec.num_nodes ||
               entry.first.second >= spec.num_nodes;
      });
      return;
    }
    case Edit::kSelfLoop: {
      const NodeId v = random_node();
      spec.edges[{v, v}] = RandomWeight(rng);
      return;
    }
    case Edit::kZeroFlip: {
      // Flip the sign of a zero weight, making one first if none exists.
      for (auto& [ends, weight] : spec.edges) {
        if (weight == 0.0) {
          weight = -weight;
          return;
        }
      }
      if (!spec.edges.empty()) AnyEdge(spec, rng)->second = -0.0;
      return;
    }
    case Edit::kMixed:
      for (const Edit each : {Edit::kWeights, Edit::kInsert, Edit::kDelete,
                              Edit::kSelfLoop, Edit::kZeroFlip}) {
        ApplyEdit(each, spec, rng);
      }
      ApplyEdit(rng.NextBounded(2) == 0 ? Edit::kGrow : Edit::kShrink, spec,
                rng);
      return;
  }
}

/// Interns `base`, submits `child` as its revision, and checks that the
/// store took the derived road and landed on the full hash.
void ExpectDerivedMatchesFull(const Graph& base, const Graph& child) {
  GraphStore store;
  const StoredGraph stored_base = store.Intern(base);
  ASSERT_EQ(stored_base.fingerprint, GraphFingerprint(base));
  const uint64_t full = GraphFingerprint(child);
  const StoredRevision revision =
      store.InternRevision(child, stored_base.fingerprint);
  ASSERT_TRUE(revision.delta.ok()) << revision.delta.status().ToString();
  EXPECT_EQ(revision.stored.fingerprint, full);
  EXPECT_EQ(store.Find(full), revision.stored.graph);
}

TEST(FingerprintDerivationTest, DerivedEqualsFullUnderRandomEdits) {
  Rng rng(2024);
  int checked = 0;
  for (const Directedness d :
       {Directedness::kDirected, Directedness::kUndirected}) {
    for (const bool labeled : {false, true}) {
      for (const Edit edit : kEdits) {
        for (int trial = 0; trial < 25; ++trial) {
          const GraphSpec base = RandomSpec(rng, d, labeled);
          GraphSpec next = base;
          ApplyEdit(edit, next, rng);
          SCOPED_TRACE(testing::Message()
                       << "directed=" << (d == Directedness::kDirected)
                       << " labeled=" << labeled
                       << " edit=" << static_cast<int>(edit)
                       << " trial=" << trial);
          ExpectDerivedMatchesFull(base.Build(), next.Build());
          ++checked;
        }
      }
    }
  }
  EXPECT_EQ(checked, 2 * 2 * 8 * 25);
}

TEST(FingerprintDerivationTest, DerivedAlongALineageChain) {
  // Each revision derives from the previous derived fingerprint, so an
  // error would compound; it must not drift from the full hash.
  Rng rng(7);
  for (const bool labeled : {false, true}) {
    GraphStore store;
    GraphSpec spec = RandomSpec(rng, Directedness::kUndirected, labeled);
    uint64_t parent = store.Intern(spec.Build()).fingerprint;
    for (int hop = 0; hop < 40; ++hop) {
      ApplyEdit(kEdits[hop % 8], spec, rng);
      const Graph child = spec.Build();
      const StoredRevision revision = store.InternRevision(child, parent);
      ASSERT_TRUE(revision.delta.ok());
      ASSERT_EQ(revision.stored.fingerprint, GraphFingerprint(child))
          << "hop " << hop;
      parent = revision.stored.fingerprint;
    }
  }
}

TEST(FingerprintDerivationTest, FallsBackToFullHashWhenBaseIsEvicted) {
  const Graph base = *GenerateErdosRenyi({.num_nodes = 200, .seed = 3});
  GraphSpec spec;
  spec.num_nodes = base.num_nodes();
  for (const Edge& e : base.edges()) spec.edges[{e.src, e.dst}] = e.weight;
  spec.edges.begin()->second += 1.0;
  const Graph child = spec.Build();

  // A budget that holds one graph: interning a second evicts the base.
  GraphStore store(/*byte_budget=*/ApproxGraphBytes(base) + 1);
  const uint64_t base_fp = store.Intern(base).fingerprint;
  store.Intern(*GenerateErdosRenyi({.num_nodes = 200, .seed = 4}));
  ASSERT_EQ(store.Find(base_fp), nullptr);

  const StoredRevision revision = store.InternRevision(child, base_fp);
  EXPECT_EQ(revision.delta.status().code(), Status::Code::kNotFound);
  EXPECT_EQ(revision.stored.fingerprint, GraphFingerprint(child));
  EXPECT_NE(store.Find(revision.stored.fingerprint), nullptr);
}

TEST(FingerprintDerivationTest, FallsBackToFullHashWhenTheDiffRefuses) {
  Rng rng(11);
  for (const bool labeled : {false, true}) {
    // Directedness differs: the same pairs, read as directed.
    const GraphSpec undirected =
        RandomSpec(rng, Directedness::kUndirected, labeled);
    GraphSpec directed = undirected;
    directed.directedness = Directedness::kDirected;

    GraphStore store;
    const uint64_t base_fp = store.Intern(undirected.Build()).fingerprint;
    const Graph child = directed.Build();
    const StoredRevision revision = store.InternRevision(child, base_fp);
    EXPECT_EQ(revision.delta.status().code(),
              Status::Code::kInvalidArgument);
    EXPECT_EQ(revision.stored.fingerprint, GraphFingerprint(child));
    EXPECT_NE(revision.stored.fingerprint, base_fp);
  }

  // Label universes differ id for id.
  GraphBuilder ab(Directedness::kUndirected);
  ab.AddLabeledEdge("a", "b", 1.0);
  GraphBuilder ba(Directedness::kUndirected);
  ba.AddLabeledEdge("c", "a", 1.0);
  GraphStore store;
  const uint64_t base_fp = store.Intern(*ab.Build()).fingerprint;
  const Graph child = *ba.Build();
  const StoredRevision revision = store.InternRevision(child, base_fp);
  EXPECT_EQ(revision.delta.status().code(), Status::Code::kInvalidArgument);
  EXPECT_EQ(revision.stored.fingerprint, GraphFingerprint(child));
}

TEST(FingerprintDerivationTest, LabeledDedupHitIndexesTheResidentTable) {
  // The revision's content is already resident with its labels interned
  // in another order: the child dedupes to that copy, and the delta must
  // index the resident's edge table, not the submitted one's.
  GraphBuilder base_builder(Directedness::kUndirected);
  base_builder.AddLabeledEdge("a", "b", 1.0);
  base_builder.AddLabeledEdge("b", "c", 2.0);
  const Graph base = *base_builder.Build();
  GraphBuilder resident_builder(Directedness::kUndirected);
  resident_builder.AddLabeledEdge("c", "b", 5.0);
  resident_builder.AddLabeledEdge("b", "a", 1.0);
  const Graph resident = *resident_builder.Build();
  GraphBuilder child_builder(Directedness::kUndirected);
  child_builder.AddLabeledEdge("a", "b", 1.0);
  child_builder.AddLabeledEdge("b", "c", 5.0);
  const Graph child = *child_builder.Build();
  ASSERT_EQ(GraphFingerprint(resident), GraphFingerprint(child));

  GraphStore store;
  const uint64_t base_fp = store.Intern(base).fingerprint;
  const StoredGraph stored_resident = store.Intern(resident);
  const StoredRevision revision = store.InternRevision(child, base_fp);
  EXPECT_EQ(revision.stored.graph, stored_resident.graph);
  const Result<GraphDelta> direct =
      ComputeGraphDelta(base, *stored_resident.graph);
  ASSERT_EQ(revision.delta.ok(), direct.ok());
  EXPECT_EQ(revision.delta.status().code(), direct.status().code());
}

// ---------------------------------------------------------------------------
// A +0.0 <-> -0.0 flip is a change everywhere.
// ---------------------------------------------------------------------------

bool SameBits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

TEST(FingerprintDerivationTest, ZeroSignFlipIsAChange) {
  for (const Directedness d :
       {Directedness::kDirected, Directedness::kUndirected}) {
    GraphSpec spec;
    spec.directedness = d;
    spec.num_nodes = 5;
    spec.edges = {{{0, 1}, 2.0}, {{1, 2}, 0.0}, {{2, 3}, 3.0},
                  {{3, 4}, 0.0}, {{0, 4}, 1.0}};
    const Graph base = spec.Build();
    spec.edges[{1, 2}] = -0.0;
    const Graph child = spec.Build();

    // The delta lists the flipped edge.
    const Result<GraphDelta> delta = ComputeGraphDelta(base, child);
    ASSERT_TRUE(delta.ok());
    ASSERT_EQ(delta->changed.size(), 1u);
    EXPECT_EQ(child.edge(delta->changed[0].next_id).src, 1);
    EXPECT_EQ(child.edge(delta->changed[0].next_id).dst, 2);

    // The derived fingerprint is the full one, and differs from the base.
    ExpectDerivedMatchesFull(base, child);
    EXPECT_NE(GraphFingerprint(base), GraphFingerprint(child));

    // The inherited columns are the materialized ones, bit for bit.
    base.edge_columns();
    ASSERT_TRUE(child.InheritEdgeFacts(base, *delta));
    EdgeColumns want;
    MaterializeEdgeColumns(child, &want);
    const EdgeColumns& got = child.edge_columns();
    EXPECT_TRUE(SameBits(got.weight, want.weight));
    EXPECT_TRUE(SameBits(got.n_i, want.n_i));
    EXPECT_TRUE(SameBits(got.n_j, want.n_j));
  }
}

// ---------------------------------------------------------------------------
// No collisions across a corpus of distinct graphs.
// ---------------------------------------------------------------------------

/// Bitwise content equality: the same network, dense ids and all.
bool SameContent(const Graph& a, const Graph& b) {
  if (a.directed() != b.directed() || a.num_nodes() != b.num_nodes() ||
      a.num_edges() != b.num_edges() || a.labels() != b.labels()) {
    return false;
  }
  return std::memcmp(a.edges().data(), b.edges().data(),
                     a.edges().size() * sizeof(Edge)) == 0;
}

Graph WithLabels(const Graph& graph) {
  GraphBuilder builder(graph.directedness(), DuplicateEdgePolicy::kError,
                       SelfLoopPolicy::kKeep);
  for (NodeId v = 0; v < graph.num_nodes(); ++v) {
    std::string label = "v";
    label += std::to_string(v);
    builder.InternLabel(label);
  }
  for (const Edge& e : graph.edges()) builder.AddEdge(e.src, e.dst, e.weight);
  return *builder.Build();
}

Graph WithEdges(const Graph& graph, const std::vector<Edge>& edges) {
  GraphBuilder builder(graph.directedness(), DuplicateEdgePolicy::kError,
                       SelfLoopPolicy::kKeep);
  if (graph.has_labels()) {
    for (const std::string& label : graph.labels()) {
      builder.InternLabel(label);
    }
  }
  builder.ReserveNodes(graph.num_nodes());
  for (const Edge& e : edges) builder.AddEdge(e.src, e.dst, e.weight);
  return *builder.Build();
}

TEST(FingerprintCollisionTest, DistinctGraphsNeverShareAFingerprint) {
  std::vector<Graph> corpus;
  for (uint64_t seed = 1; seed <= 1600; ++seed) {
    for (const Directedness d :
         {Directedness::kDirected, Directedness::kUndirected}) {
      const Graph er = *GenerateErdosRenyi(
          {.num_nodes = 24, .average_degree = 3.0, .directedness = d,
           .seed = seed});
      corpus.push_back(WithLabels(er));
      corpus.push_back(er);
    }
    const Graph ba = *GenerateBarabasiAlbert(
        {.num_nodes = 24, .average_degree = 3.0, .seed = seed});
    corpus.push_back(WithLabels(ba));
    corpus.push_back(ba);
  }
  // Every one-edge weight change, deletion and zero of either sign of a
  // small graph, in all four flavours.
  for (const Directedness d :
       {Directedness::kDirected, Directedness::kUndirected}) {
    const Graph small = *GenerateErdosRenyi(
        {.num_nodes = 30, .average_degree = 4.0, .directedness = d,
         .seed = 99});
    for (const Graph& base : {small, WithLabels(small)}) {
      corpus.push_back(base);
      const std::vector<Edge>& edges = base.edges();
      for (size_t i = 0; i < edges.size(); ++i) {
        std::vector<Edge> edited = edges;
        edited[i].weight += 1.0;
        corpus.push_back(WithEdges(base, edited));
        edited[i].weight = 0.0;
        corpus.push_back(WithEdges(base, edited));
        edited[i].weight = -0.0;
        corpus.push_back(WithEdges(base, edited));
        edited.erase(edited.begin() + static_cast<long>(i));
        corpus.push_back(WithEdges(base, edited));
      }
    }
  }

  std::unordered_map<uint64_t, size_t> seen;
  int64_t distinct = 0;
  int64_t collisions = 0;
  for (size_t i = 0; i < corpus.size(); ++i) {
    const auto [it, inserted] = seen.emplace(GraphFingerprint(corpus[i]), i);
    if (inserted) {
      ++distinct;
    } else if (!SameContent(corpus[it->second], corpus[i])) {
      ++collisions;
      ADD_FAILURE() << "graphs " << it->second << " and " << i
                    << " share a fingerprint";
    }
  }
  EXPECT_EQ(collisions, 0);
  EXPECT_GE(distinct, 10000);
}

}  // namespace
}  // namespace netbone
