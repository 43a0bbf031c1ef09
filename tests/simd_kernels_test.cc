// Tests for the batched SIMD scoring kernels (core/simd_kernels.h). The
// central property, checked exhaustively around lane boundaries: every
// level SupportedSimdLevels() reports — including the remainder and
// scalar-fallback paths — produces output BIT-IDENTICAL to the scalar
// per-edge oracle: scores, sdevs, and first-failing edge ids, for every
// NC flag variant and DF endpoint rule, on graphs of every size in
// [W*k - 2, W*k + 2] for k in 0..4 (W = widest lane count), with
// self-loops and zero-weight edges mixed in, through the full parallel
// sweeps at thread counts 1, 2 and 4 and through the dirty-subset
// patching path. Runs under the asan/tsan presets (smoke label), both
// with the host's best level and with NETBONE_SIMD=scalar forced.

#include "core/simd_kernels.h"

#include <cstdint>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "core/disparity_filter.h"
#include "core/naive.h"
#include "core/noise_corrected.h"
#include "core/scored_edges.h"
#include "graph/builder.h"
#include "graph/edge_columns.h"
#include "graph/graph.h"

namespace netbone {
namespace {

bool BitEqual(const EdgeScore& a, const EdgeScore& b) {
  return std::memcmp(&a, &b, sizeof(EdgeScore)) == 0;
}

bool BitEqual(const std::vector<EdgeScore>& a,
              const std::vector<EdgeScore>& b) {
  if (a.size() != b.size()) return false;
  return a.empty() ||
         std::memcmp(a.data(), b.data(), a.size() * sizeof(EdgeScore)) == 0;
}

/// Deterministic graph with exactly `num_edges` edges over 8 nodes:
/// distinct node pairs in lexicographic order (so the builder's dedup can
/// never merge two of them), a self-loop as the first edge when requested,
/// and every fourth weight exactly zero — the inputs the vector kernels'
/// validity masks and conservative fallbacks must handle. Zero-weight
/// edges here share endpoints with positive ones, so every endpoint keeps
/// positive strength and NC accepts the whole table.
Graph MakeLaneGraph(int64_t num_edges, Directedness directedness,
                    bool with_self_loop, uint64_t seed) {
  constexpr NodeId kNodes = 8;
  GraphBuilder builder(directedness, DuplicateEdgePolicy::kError,
                       SelfLoopPolicy::kKeep);
  builder.ReserveNodes(kNodes);
  Rng rng(seed);
  int64_t added = 0;
  if (with_self_loop && added < num_edges) {
    builder.AddEdge(0, 0, static_cast<double>(rng.UniformInt(1, 9)));
    ++added;
  }
  for (NodeId a = 0; a < kNodes && added < num_edges; ++a) {
    const NodeId b_begin = directedness == Directedness::kDirected ? 0 : a + 1;
    for (NodeId b = b_begin; b < kNodes && added < num_edges; ++b) {
      if (a == b) continue;  // the one self-loop above is enough
      const double weight =
          added % 4 == 3 ? 0.0 : static_cast<double>(rng.UniformInt(1, 9));
      builder.AddEdge(a, b, weight);
      ++added;
    }
  }
  EXPECT_EQ(added, num_edges) << "graph family too small for requested size";
  Result<Graph> graph = builder.Build();
  EXPECT_TRUE(graph.ok()) << graph.status().message();
  return *std::move(graph);
}

/// All NC formula variants the kernels support (the binomial-pvalue
/// variant never reaches them; see noise_corrected.cc).
std::vector<NcKernelConfig> NcConfigVariants(double n_total) {
  std::vector<NcKernelConfig> variants(4);
  for (NcKernelConfig& cfg : variants) cfg.n_total = n_total;
  variants[1].bayesian_prior = false;
  variants[2].python_erratum_beta = true;
  variants[3].marginals_respond_to_weight = false;
  return variants;
}

constexpr DisparityEndpointRule kDfRules[] = {
    DisparityEndpointRule::kEither, DisparityEndpointRule::kBoth,
    DisparityEndpointRule::kSource};

/// Checks one (kernel, range) call at `level` against the scalar oracle:
/// same first-failing id, and bitwise-equal output on every slot the
/// contract defines (all of [begin, end) on success, [begin, bad) on
/// failure — out[] is unspecified from the failing id on).
template <typename BatchAt>
void ExpectRangeMatchesScalar(const BatchAt& batch_at, SimdLevel level,
                              int64_t begin, int64_t end,
                              const std::string& what) {
  const int64_t n = end - begin;
  if (n < 0) return;
  // Poison both buffers identically so "unwritten" slots cannot hide a
  // kernel that writes outside its range.
  const EdgeScore poison{-12345.0, -54321.0};
  std::vector<EdgeScore> scalar_out(static_cast<size_t>(end) + 1, poison);
  std::vector<EdgeScore> vector_out(static_cast<size_t>(end) + 1, poison);
  const int64_t scalar_bad =
      batch_at(SimdLevel::kScalar, begin, end, scalar_out.data());
  const int64_t vector_bad = batch_at(level, begin, end, vector_out.data());
  EXPECT_EQ(scalar_bad, vector_bad)
      << what << " level=" << SimdLevelName(level) << " range=[" << begin
      << "," << end << ")";
  const int64_t defined_end = scalar_bad >= 0 ? scalar_bad : end;
  for (int64_t i = begin; i < defined_end; ++i) {
    EXPECT_TRUE(BitEqual(scalar_out[static_cast<size_t>(i)],
                         vector_out[static_cast<size_t>(i)]))
        << what << " level=" << SimdLevelName(level) << " edge=" << i
        << " range=[" << begin << "," << end << ")";
  }
  // Slots outside [begin, end) must stay untouched at every level.
  EXPECT_TRUE(BitEqual(vector_out[static_cast<size_t>(end)], poison)) << what;
  if (begin > 0) {
    EXPECT_TRUE(BitEqual(vector_out[0], poison)) << what;
  }
}

/// Sweeps every supported level and a set of sub-ranges chosen to hit
/// every lane/remainder alignment: full table, offset starts 1..3 (partial
/// first block), and short ends (partial last block).
void CheckGraphAgainstScalar(const Graph& graph) {
  const EdgeColumns& cols = graph.edge_columns();
  const int64_t m = cols.size();
  const double n_total = graph.matrix_total();

  std::vector<std::pair<int64_t, int64_t>> ranges = {{0, m}};
  for (int64_t begin : {int64_t{1}, int64_t{2}, int64_t{3}}) {
    if (begin <= m) ranges.emplace_back(begin, m);
  }
  if (m > 1) ranges.emplace_back(0, m - 1);
  if (m > 3) ranges.emplace_back(2, m - 1);

  for (const SimdLevel level : SupportedSimdLevels()) {
    for (const auto& [begin, end] : ranges) {
      for (const NcKernelConfig& cfg : NcConfigVariants(n_total)) {
        ExpectRangeMatchesScalar(
            [&](SimdLevel at, int64_t b, int64_t e, EdgeScore* out) {
              return NoiseCorrectedBatchAt(at, cols, cfg, b, e, out);
            },
            level, begin, end, "nc");
      }
      for (const DisparityEndpointRule rule : kDfRules) {
        ExpectRangeMatchesScalar(
            [&](SimdLevel at, int64_t b, int64_t e, EdgeScore* out) {
              return DisparityFilterBatchAt(at, cols, rule, b, e, out);
            },
            level, begin, end, "df");
      }
    }
  }
}

TEST(SimdDispatchTest, SupportedLevelsStartWithScalarAndAscend) {
  const std::vector<SimdLevel> levels = SupportedSimdLevels();
  ASSERT_FALSE(levels.empty());
  EXPECT_EQ(levels.front(), SimdLevel::kScalar);
  for (size_t i = 1; i < levels.size(); ++i) {
    EXPECT_LT(static_cast<int>(levels[i - 1]), static_cast<int>(levels[i]));
  }
  for (const SimdLevel level : levels) {
    EXPECT_STRNE(SimdLevelName(level), "");
  }
}

TEST(SimdDispatchTest, ScopedOverrideForcesAndRestores) {
  const SimdLevel ambient = ActiveSimdLevel();
  {
    ScopedSimdLevelOverride scalar(SimdLevel::kScalar);
    EXPECT_EQ(ActiveSimdLevel(), SimdLevel::kScalar);
    {
      // Nested override wins, then restores the outer one.
      ScopedSimdLevelOverride best(SupportedSimdLevels().back());
      EXPECT_EQ(ActiveSimdLevel(), SupportedSimdLevels().back());
    }
    EXPECT_EQ(ActiveSimdLevel(), SimdLevel::kScalar);
  }
  EXPECT_EQ(ActiveSimdLevel(), ambient);
}

TEST(SimdDispatchTest, WideLanesImpliesAvx2Active) {
  EXPECT_EQ(SimdHasWideLanes(), ActiveSimdLevel() == SimdLevel::kAvx2);
}

/// The tail-path property sweep: every size straddling a lane boundary
/// for the widest kernel (4 lanes), i.e. 4k +- 2 for k in 0..4 — which is
/// every size in [0, 18] — in both directednesses, with and without a
/// self-loop, two weight seeds each.
TEST(SimdKernelsTest, LaneBoundarySizesMatchScalarBitwise) {
  for (int64_t m = 0; m <= 18; ++m) {
    for (const Directedness directedness :
         {Directedness::kDirected, Directedness::kUndirected}) {
      for (const bool self_loop : {false, true}) {
        for (const uint64_t seed : {uint64_t{7}, uint64_t{99}}) {
          const Graph graph =
              MakeLaneGraph(m, directedness, self_loop, seed + 31 * m);
          SCOPED_TRACE("m=" + std::to_string(m) + " directed=" +
                       std::to_string(directedness == Directedness::kDirected) +
                       " loop=" + std::to_string(self_loop) +
                       " seed=" + std::to_string(seed));
          CheckGraphAgainstScalar(graph);
        }
      }
    }
  }
}

/// Invalid NC inputs (zero-strength endpoints from an isolated zero-weight
/// edge) must surface the same lowest failing id at every level, with all
/// slots before it still bit-identical — the conservative-mask fallback
/// path. Two invalid edges prove lowest-wins.
TEST(SimdKernelsTest, InvalidEdgesReportSameFirstFailureAtEveryLevel) {
  GraphBuilder builder(Directedness::kUndirected);
  builder.AddEdge(0, 1, 5.0);
  builder.AddEdge(0, 2, 3.0);
  builder.AddEdge(1, 2, 2.0);
  builder.AddEdge(3, 4, 0.0);  // both endpoints have zero strength
  builder.AddEdge(5, 6, 0.0);  // second invalid edge: must NOT win
  Result<Graph> graph = builder.Build();
  ASSERT_TRUE(graph.ok());
  const EdgeColumns& cols = graph->edge_columns();
  const double n_total = graph->matrix_total();

  // Locate the invalid ids in the canonical (src, dst)-sorted table.
  std::vector<int64_t> invalid;
  for (int64_t i = 0; i < cols.size(); ++i) {
    if (cols.weight[static_cast<size_t>(i)] == 0.0) invalid.push_back(i);
  }
  ASSERT_EQ(invalid.size(), 2u);

  for (const SimdLevel level : SupportedSimdLevels()) {
    for (const NcKernelConfig& cfg : NcConfigVariants(n_total)) {
      std::vector<EdgeScore> out(static_cast<size_t>(cols.size()));
      const int64_t bad =
          NoiseCorrectedBatchAt(level, cols, cfg, 0, cols.size(), out.data());
      EXPECT_EQ(bad, invalid[0]) << SimdLevelName(level);
      // A range that starts past the first invalid edge reports the second.
      const int64_t bad2 = NoiseCorrectedBatchAt(
          level, cols, cfg, invalid[0] + 1, cols.size(), out.data());
      EXPECT_EQ(bad2, invalid[1]) << SimdLevelName(level);
    }
    ExpectRangeMatchesScalar(
        [&](SimdLevel at, int64_t b, int64_t e, EdgeScore* out) {
          NcKernelConfig cfg;
          cfg.n_total = n_total;
          return NoiseCorrectedBatchAt(at, cols, cfg, b, e, out);
        },
        level, 0, cols.size(), "nc-invalid");
  }

  // The full NoiseCorrected sweep turns that id into the oracle's exact
  // Status, identically with and without vector kernels.
  NoiseCorrectedOptions options;
  options.num_threads = 2;
  const Result<ScoredEdges> vec = NoiseCorrected(*graph, options);
  ScopedSimdLevelOverride scalar(SimdLevel::kScalar);
  const Result<ScoredEdges> ref = NoiseCorrected(*graph, options);
  ASSERT_FALSE(vec.ok());
  ASSERT_FALSE(ref.ok());
  EXPECT_EQ(vec.status().code(), ref.status().code());
  EXPECT_EQ(vec.status().message(), ref.status().message());
}

/// A larger graph than any single chunk, scored through the public method
/// entry points: forced-scalar and ambient-level results must be bitwise
/// equal at thread counts 1, 2 and 4, and NC must match the per-edge
/// detail path (NoiseCorrectedWithDetails), which never vectorizes.
TEST(SimdKernelsTest, FullSweepsBitIdenticalAcrossLevelsAndThreads) {
  Rng rng(2026);
  GraphBuilder builder(Directedness::kUndirected,
                       DuplicateEdgePolicy::kSum, SelfLoopPolicy::kKeep);
  constexpr NodeId kNodes = 60;
  builder.ReserveNodes(kNodes);
  for (int64_t i = 0; i < 900; ++i) {
    const NodeId a = static_cast<NodeId>(rng.NextBounded(kNodes));
    const NodeId b = static_cast<NodeId>(rng.NextBounded(kNodes));
    builder.AddEdge(a, b, static_cast<double>(rng.UniformInt(1, 20)));
  }
  Result<Graph> graph = builder.Build();
  ASSERT_TRUE(graph.ok());

  for (const int threads : {1, 2, 4}) {
    NoiseCorrectedOptions nc;
    nc.num_threads = threads;
    DisparityFilterOptions df;
    df.num_threads = threads;
    NaiveThresholdOptions nt;
    nt.num_threads = threads;

    std::optional<ScopedSimdLevelOverride> scalar(SimdLevel::kScalar);
    const Result<ScoredEdges> nc_ref = NoiseCorrected(*graph, nc);
    const Result<ScoredEdges> df_ref = DisparityFilter(*graph, df);
    const Result<ScoredEdges> nt_ref = NaiveThreshold(*graph, nt);
    ASSERT_TRUE(nc_ref.ok() && df_ref.ok() && nt_ref.ok());
    scalar.reset();

    // The per-edge oracle path, independent of every kernel.
    std::vector<NoiseCorrectedDetail> details;
    const Result<ScoredEdges> nc_detail =
        NoiseCorrectedWithDetails(*graph, nc, &details);
    ASSERT_TRUE(nc_detail.ok());
    EXPECT_TRUE(BitEqual(nc_ref->scores(), nc_detail->scores()))
        << "threads=" << threads;
    for (EdgeId id = 0; id < graph->num_edges(); ++id) {
      ASSERT_TRUE(BitEqual(nt_ref->at(id),
                           EdgeScore{graph->edge(id).weight, 0.0}))
          << "edge " << id;
    }

    for (const SimdLevel level : SupportedSimdLevels()) {
      ScopedSimdLevelOverride forced(level);
      const Result<ScoredEdges> nc_vec = NoiseCorrected(*graph, nc);
      const Result<ScoredEdges> df_vec = DisparityFilter(*graph, df);
      const Result<ScoredEdges> nt_vec = NaiveThreshold(*graph, nt);
      ASSERT_TRUE(nc_vec.ok() && df_vec.ok() && nt_vec.ok());
      EXPECT_TRUE(BitEqual(nc_vec->scores(), nc_ref->scores()))
          << "threads=" << threads << " level=" << SimdLevelName(level);
      EXPECT_TRUE(BitEqual(df_vec->scores(), df_ref->scores()))
          << "threads=" << threads << " level=" << SimdLevelName(level);
      EXPECT_TRUE(BitEqual(nt_vec->scores(), nt_ref->scores()))
          << "threads=" << threads << " level=" << SimdLevelName(level);
    }
  }
}

/// The dirty-subset patching entry (ParallelScoreEdgeRangeSubset) must
/// write bitwise the same slots the full batch computes, for an id set
/// mixing contiguous runs (vector lanes) with isolated ids (width-1
/// scalar tails), at several thread counts and grains.
TEST(SimdKernelsTest, SubsetPatchingMatchesFullBatchBitwise) {
  const Graph graph =
      MakeLaneGraph(18, Directedness::kDirected, /*with_self_loop=*/true, 5);
  const EdgeColumns& cols = graph.edge_columns();
  const int64_t m = cols.size();
  NcKernelConfig cfg;
  cfg.n_total = graph.matrix_total();

  std::vector<EdgeScore> full(static_cast<size_t>(m));
  ASSERT_EQ(NoiseCorrectedBatchAt(SimdLevel::kScalar, cols, cfg, 0, m,
                                  full.data()),
            -1);

  // Runs [2..8] and [12..15], isolated ids 0 and 10, id 17 alone at the
  // end. Ascending, as the patch contract requires.
  const std::vector<EdgeId> dirty = {0, 2, 3, 4, 5, 6, 7, 8, 10, 12, 13, 14,
                                     15, 17};
  for (const int threads : {1, 2, 4}) {
    for (const int64_t grain : {int64_t{1}, int64_t{4}, int64_t{64}}) {
      std::vector<EdgeScore> patched(static_cast<size_t>(m),
                                     EdgeScore{-1.0, -1.0});
      const Status status = ParallelScoreEdgeRangeSubset(
          dirty, threads, grain,
          [&](int64_t begin, int64_t end, EdgeScore* out) {
            return NoiseCorrectedBatch(cols, cfg, begin, end, out);
          },
          [](EdgeId) { return Status::OK(); }, &patched);
      ASSERT_TRUE(status.ok()) << status.message();
      std::vector<bool> is_dirty(static_cast<size_t>(m), false);
      for (const EdgeId id : dirty) is_dirty[static_cast<size_t>(id)] = true;
      for (int64_t i = 0; i < m; ++i) {
        if (is_dirty[static_cast<size_t>(i)]) {
          EXPECT_TRUE(BitEqual(patched[static_cast<size_t>(i)],
                               full[static_cast<size_t>(i)]))
              << "threads=" << threads << " grain=" << grain << " id=" << i;
        } else {
          EXPECT_EQ(patched[static_cast<size_t>(i)].score, -1.0)
              << "untouched slot overwritten, id=" << i;
        }
      }
    }
  }
}

/// When several dirty edges fail, ParallelScoreEdgeRangeSubset reports the
/// lowest failing id's replayed status whatever block finishes first; a
/// replay that accepts the flagged id is a kernel bug and yields Internal.
TEST(SimdKernelsTest, SubsetPatchingLowestEdgeIdErrorWins) {
  // Ids 0..59 without the multiples of 5: runs of four with gaps, so the
  // blocks split into several ranges, and 17 is present.
  std::vector<EdgeId> dirty;
  for (EdgeId id = 0; id < 60; ++id) {
    if (id % 5 != 0) dirty.push_back(id);
  }
  const EdgeId first_bad = 17;
  const auto score_range = [&](int64_t begin, int64_t end, EdgeScore* out) {
    for (int64_t id = begin; id < end; ++id) {
      if (id >= first_bad) return id;
      out[id] = EdgeScore{1.0, 0.0};
    }
    return int64_t{-1};
  };
  const auto rejecting_replay = [](EdgeId id) {
    return Status::InvalidArgument("edge " + std::to_string(id));
  };
  for (const int threads : {1, 2, 8}) {
    for (const int64_t grain : {int64_t{1}, int64_t{4}}) {
      std::vector<EdgeScore> scores(60);
      const Status status = ParallelScoreEdgeRangeSubset(
          dirty, threads, grain, score_range, rejecting_replay, &scores);
      EXPECT_TRUE(status.IsInvalidArgument())
          << "threads=" << threads << " grain=" << grain;
      EXPECT_EQ(status.message(), "edge 17")
          << "threads=" << threads << " grain=" << grain;

      const Status accepted = ParallelScoreEdgeRangeSubset(
          dirty, threads, grain, score_range,
          [](EdgeId) { return Status::OK(); }, &scores);
      EXPECT_TRUE(accepted.IsInternal())
          << "threads=" << threads << " grain=" << grain;
    }
  }
}

}  // namespace
}  // namespace netbone
