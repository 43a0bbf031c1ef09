// Tests for the parallel-execution subsystem (common/parallel.h) — the
// work-stealing TaskScheduler/TaskGroup runtime — the ParallelScoreEdgeRanges
// sweep, the reusable Dijkstra workspace, and the determinism guarantees
// of the threaded scoring paths: identical scores for every thread count
// and steal order, serial-equivalent first-error-wins status aggregation,
// seeded reproducibility of the sampled HSS mode, and the
// one-sort-per-method contract under the serving engine's concurrent
// batch fan-out.

#include "common/parallel.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <functional>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/cancel.h"
#include "common/mpmc_queue.h"

#include "core/disparity_filter.h"
#include "core/maximum_spanning_tree.h"
#include "core/doubly_stochastic.h"
#include "core/high_salience_skeleton.h"
#include "core/naive.h"
#include "core/noise_corrected.h"
#include "core/registry.h"
#include "core/scored_edges.h"
#include "core/sweep.h"
#include "gen/erdos_renyi.h"
#include "graph/adjacency.h"
#include "graph/builder.h"
#include "graph/paths.h"
#include "service/engine.h"
#include "stats/correlation.h"
#include "metric_value.h"

namespace netbone {
namespace {

// ---------------------------------------------------------------------------
// ParallelFor.
// ---------------------------------------------------------------------------

TEST(ParallelForTest, CoversRangeExactlyOnce) {
  for (const int64_t n : {0, 1, 2, 7, 100, 1000}) {
    for (const int threads : {1, 2, 3, 8, 33}) {
      std::vector<int> hits(static_cast<size_t>(n), 0);
      ParallelFor(n, threads, [&](int64_t begin, int64_t end, int chunk) {
        EXPECT_GE(chunk, 0);
        EXPECT_LT(begin, end);
        for (int64_t i = begin; i < end; ++i) {
          hits[static_cast<size_t>(i)]++;
        }
      });
      for (const int h : hits) EXPECT_EQ(h, 1);
    }
  }
}

TEST(ParallelForTest, ChunkBoundariesDependOnlyOnInputs) {
  // The deterministic-partition contract: same (n, num_threads) => same
  // chunks, regardless of scheduling. Record and compare two runs.
  const int64_t n = 1003;
  const int threads = 7;
  auto record = [&] {
    std::vector<std::pair<int64_t, int64_t>> chunks(
        static_cast<size_t>(threads), {-1, -1});
    ParallelFor(n, threads, [&](int64_t begin, int64_t end, int chunk) {
      chunks[static_cast<size_t>(chunk)] = {begin, end};
    });
    return chunks;
  };
  EXPECT_EQ(record(), record());
}

TEST(ParallelForTest, NestedCallsDegradeGracefully) {
  // A ParallelFor inside a pool task must not deadlock; its chunks join
  // the shared stealing pool (two-level parallelism).
  std::atomic<int> total{0};
  ParallelFor(8, 8, [&](int64_t begin, int64_t end, int) {
    for (int64_t i = begin; i < end; ++i) {
      ParallelFor(4, 4, [&](int64_t b, int64_t e, int) {
        total += static_cast<int>(e - b);
      });
    }
  });
  EXPECT_EQ(total.load(), 32);
}

// ---------------------------------------------------------------------------
// TaskScheduler / TaskGroup / ParallelForDynamic: the work-stealing
// runtime.
// ---------------------------------------------------------------------------

TEST(TaskGroupTest, RunsEveryTaskExactlyOnce) {
  TaskScheduler scheduler(4);
  EXPECT_EQ(scheduler.num_workers(), 3);
  TaskGroup group(&scheduler);
  std::vector<std::atomic<int>> hits(300);
  for (int i = 0; i < 300; ++i) {
    group.Spawn([&hits, i] { hits[static_cast<size_t>(i)]++; });
  }
  group.Wait();
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(TaskGroupTest, SingleThreadSchedulerRunsTasksInTheWaiter) {
  TaskScheduler scheduler(1);
  EXPECT_EQ(scheduler.num_workers(), 0);
  TaskGroup group(&scheduler);
  int sum = 0;  // no synchronization: every task runs on this thread
  for (int i = 0; i < 5; ++i) {
    group.Spawn([&sum, i] { sum += i; });
  }
  group.Wait();
  EXPECT_EQ(sum, 0 + 1 + 2 + 3 + 4);
}

TEST(TaskGroupTest, GroupIsReusableAfterWait) {
  TaskScheduler scheduler(3);
  TaskGroup group(&scheduler);
  std::atomic<int> total{0};
  for (int round = 0; round < 4; ++round) {
    for (int i = 0; i < 16; ++i) {
      group.Spawn([&total] { total++; });
    }
    group.Wait();
    EXPECT_EQ(total.load(), 16 * (round + 1));
  }
}

TEST(TaskGroupTest, StealOrderIndependenceAcross100SeededRuns) {
  // The determinism contract under genuine stealing: per-index slots make
  // the output identical whatever the steal interleaving. Per-task busy
  // work is jittered by (run, index) so the 100 runs at each pool width
  // explore different steal patterns; the pools own real OS threads even
  // on a single-core box, so the interleavings are real.
  constexpr int kTasks = 256;
  std::vector<uint64_t> expected(kTasks);
  for (int i = 0; i < kTasks; ++i) {
    expected[static_cast<size_t>(i)] =
        static_cast<uint64_t>(i) * 0x9E3779B97F4A7C15ULL + 1;
  }
  for (const int threads : {1, 2, 8}) {
    TaskScheduler scheduler(threads);
    for (int run = 0; run < 100; ++run) {
      std::vector<uint64_t> out(kTasks, 0);
      TaskGroup group(&scheduler);
      for (int i = 0; i < kTasks; ++i) {
        group.Spawn([&out, i, run] {
          volatile uint64_t spin = 0;  // jitter: run-dependent duration
          const uint64_t work =
              (static_cast<uint64_t>(i) * 31 + static_cast<uint64_t>(run)) %
              97;
          for (uint64_t k = 0; k < work; ++k) spin = spin + k;
          out[static_cast<size_t>(i)] =
              static_cast<uint64_t>(i) * 0x9E3779B97F4A7C15ULL + 1;
        });
      }
      group.Wait();
      ASSERT_EQ(out, expected) << "threads=" << threads << " run=" << run;
    }
  }
}

TEST(TaskGroupTest, NestedGroupsInsidePoolTasksDoNotDeadlock) {
  // Every outer task parks in an inner Wait; with only 3 workers plus the
  // caller, progress requires the helping wait (a blocked Wait executing
  // pending tasks itself). A deadlock here times out the test suite.
  TaskScheduler scheduler(4);
  std::atomic<int> total{0};
  TaskGroup outer(&scheduler);
  for (int i = 0; i < 16; ++i) {
    outer.Spawn([&scheduler, &total] {
      TaskGroup inner(&scheduler);
      for (int j = 0; j < 8; ++j) {
        inner.Spawn([&total] { total++; });
      }
      inner.Wait();
      total++;
    });
  }
  outer.Wait();
  EXPECT_EQ(total.load(), 16 * 8 + 16);
}

TEST(ParallelForDynamicTest, CoversRangeExactlyOnceWithBoundedBlocks) {
  for (const int64_t n : {0, 1, 2, 7, 100, 1000}) {
    for (const int64_t grain : {1, 3, 16, 1000}) {
      for (const int threads : {1, 2, 8}) {
        std::vector<int> hits(static_cast<size_t>(n), 0);
        ParallelForDynamic(n, grain, threads,
                           [&](int64_t begin, int64_t end) {
                             EXPECT_LT(begin, end);
                             if (threads != 1) {
                               // Parallel decomposition: blocks honor the
                               // grain (the serial path is one block).
                               EXPECT_LE(end - begin,
                                         std::max<int64_t>(grain, 1));
                             }
                             for (int64_t i = begin; i < end; ++i) {
                               hits[static_cast<size_t>(i)]++;
                             }
                           });
        for (const int h : hits) EXPECT_EQ(h, 1);
      }
    }
  }
}

TEST(ParallelForDynamicTest, PerIndexSlotsIdenticalAcrossThreadCounts) {
  constexpr int64_t kN = 5000;
  std::vector<uint64_t> reference(kN);
  ParallelForDynamic(kN, 16, 1, [&](int64_t begin, int64_t end) {
    for (int64_t i = begin; i < end; ++i) {
      reference[static_cast<size_t>(i)] =
          static_cast<uint64_t>(i * i) ^ 0xABCDULL;
    }
  });
  for (const int threads : {2, 8}) {
    std::vector<uint64_t> out(kN, 0);
    ParallelForDynamic(kN, 16, threads, [&](int64_t begin, int64_t end) {
      for (int64_t i = begin; i < end; ++i) {
        out[static_cast<size_t>(i)] =
            static_cast<uint64_t>(i * i) ^ 0xABCDULL;
      }
    });
    EXPECT_EQ(out, reference) << "threads=" << threads;
  }
}

TEST(ParallelForDynamicTest, NestedInsideParallelForSharesThePool) {
  // The two-level shape the sweep engine uses: outer static chunks, inner
  // dynamic blocks, one shared pool, no deadlock, exact coverage.
  std::atomic<int64_t> total{0};
  ParallelFor(8, 8, [&](int64_t begin, int64_t end, int) {
    for (int64_t i = begin; i < end; ++i) {
      ParallelForDynamic(64, 4, 8, [&](int64_t b, int64_t e) {
        total += e - b;
      });
    }
  });
  EXPECT_EQ(total.load(), 8 * 64);
}

TEST(ResolveThreadCountTest, PositivePassesThroughZeroResolvesHardware) {
  EXPECT_EQ(ResolveThreadCount(3), 3);
  EXPECT_GE(ResolveThreadCount(0), 1);
  EXPECT_GE(ResolveThreadCount(-5), 1);
}

// ---------------------------------------------------------------------------
// Scoring determinism across thread counts.
// ---------------------------------------------------------------------------

Graph MakeScoringGraph(Directedness directedness) {
  // Large enough (30k edges) that the scoring sweep genuinely splits the
  // table into multiple chunks instead of collapsing to one.
  auto g = GenerateErdosRenyi({.num_nodes = 10000,
                               .average_degree = 6.0,
                               .directedness = directedness,
                               .seed = 5});
  return *std::move(g);
}

void ExpectBitIdenticalAcrossThreads(Method method, const Graph& graph) {
  RunMethodOptions serial;
  serial.num_threads = 1;
  const auto reference = RunMethod(method, graph, serial);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  for (const int threads : {2, 8}) {
    RunMethodOptions options;
    options.num_threads = threads;
    const auto scored = RunMethod(method, graph, options);
    ASSERT_TRUE(scored.ok()) << scored.status().ToString();
    ASSERT_EQ(scored->size(), reference->size());
    for (EdgeId id = 0; id < reference->size(); ++id) {
      // Bit-identical, not just close: same chunks compute the same FP
      // expressions on the same inputs.
      EXPECT_EQ(scored->at(id).score, reference->at(id).score)
          << MethodName(method) << " edge " << id << " threads " << threads;
      EXPECT_EQ(scored->at(id).sdev, reference->at(id).sdev);
    }
  }
}

TEST(ParallelScoreEdgesTest, NoiseCorrectedDeterministicUndirected) {
  ExpectBitIdenticalAcrossThreads(Method::kNoiseCorrected,
                                  MakeScoringGraph(Directedness::kUndirected));
}

TEST(ParallelScoreEdgesTest, NoiseCorrectedDeterministicDirected) {
  ExpectBitIdenticalAcrossThreads(Method::kNoiseCorrected,
                                  MakeScoringGraph(Directedness::kDirected));
}

TEST(ParallelScoreEdgesTest, DisparityFilterDeterministic) {
  ExpectBitIdenticalAcrossThreads(Method::kDisparityFilter,
                                  MakeScoringGraph(Directedness::kUndirected));
  ExpectBitIdenticalAcrossThreads(Method::kDisparityFilter,
                                  MakeScoringGraph(Directedness::kDirected));
}

TEST(ParallelScoreEdgesTest, NaiveThresholdDeterministic) {
  ExpectBitIdenticalAcrossThreads(Method::kNaiveThreshold,
                                  MakeScoringGraph(Directedness::kUndirected));
}

TEST(ParallelScoreEdgesTest, HighSalienceSkeletonDeterministic) {
  auto g = GenerateErdosRenyi(
      {.num_nodes = 120, .average_degree = 5.0, .seed = 9});
  ASSERT_TRUE(g.ok());
  ExpectBitIdenticalAcrossThreads(Method::kHighSalienceSkeleton, *g);
}

TEST(ParallelScoreEdgesTest, DoublyStochasticDeterministic) {
  // The Sinkhorn sweeps are node-major: every node's row/column sums fold
  // whole, in fixed CSR arc order, inside one chunk — so the balanced
  // scores must be bit-identical for every thread count, not just close.
  // A circulant graph (three chord lengths, varying weights) is regular,
  // hence has total support and converges; 600 nodes give ParallelFor a
  // real multi-chunk partition at every tested thread count.
  GraphBuilder builder(Directedness::kUndirected);
  const NodeId n = 600;
  for (NodeId v = 0; v < n; ++v) {
    builder.AddEdge(v, (v + 1) % n, 1.0 + (v % 13));
    builder.AddEdge(v, (v + 7) % n, 2.0 + (v % 5));
    builder.AddEdge(v, (v + 23) % n, 0.5 + (v % 3));
  }
  const Graph g = *builder.Build();
  ExpectBitIdenticalAcrossThreads(Method::kDoublyStochastic, g);
}

/// Runs a per-edge scorer Status(EdgeId, const Edge&, EdgeScore*) as a
/// range scorer, replaying the first failing id for its exact Status.
template <typename Scorer>
Result<std::vector<EdgeScore>> ScoreEachEdge(const Graph& g, int threads,
                                             const Scorer& score_edge,
                                             const CancelToken& cancel = {}) {
  const auto range = [&](int64_t begin, int64_t end, EdgeScore* out) {
    for (EdgeId id = begin; id < end; ++id) {
      if (!score_edge(id, g.edge(id), &out[id]).ok()) return id;
    }
    return EdgeId{-1};
  };
  EdgeScore unused;
  const auto replay = [&](EdgeId id) {
    return score_edge(id, g.edge(id), &unused);
  };
  return ParallelScoreEdgeRanges(g, threads, range, replay, cancel);
}

TEST(ParallelScoreEdgeRangesTest, ScorerSeesAlignedEdgeIds) {
  const Graph g = MakeScoringGraph(Directedness::kUndirected);
  const auto scores = ScoreEachEdge(
      g, 4, [&](EdgeId id, const Edge& e, EdgeScore* out) -> Status {
        EXPECT_EQ(e, g.edge(id));
        *out = EdgeScore{static_cast<double>(id), 0.0};
        return Status::OK();
      });
  ASSERT_TRUE(scores.ok());
  for (size_t i = 0; i < scores->size(); ++i) {
    EXPECT_EQ((*scores)[i].score, static_cast<double>(i));
  }
}

// ---------------------------------------------------------------------------
// First-error-wins status aggregation.
// ---------------------------------------------------------------------------

/// A graph whose NC sweep fails mid-table: zero-weight edges to
/// otherwise-isolated nodes give that endpoint zero strength, which
/// NoiseCorrectedEdge rejects. The chain is long enough (20k edges) that
/// the parallel sweep uses several chunks, and the invalid edges land in
/// different chunks so the error aggregation is actually contested.
Graph MakeGraphWithInvalidEdges() {
  GraphBuilder builder(Directedness::kUndirected);
  for (NodeId v = 0; v < 20000; ++v) {
    builder.AddEdge(v, v + 1, 2.0 + (v % 17));
  }
  builder.AddEdge(500, 20001, 0.0);    // earliest invalid edge in id order
  builder.AddEdge(10000, 20002, 0.0);  // mid-table invalid edge
  builder.AddEdge(19000, 20003, 0.0);  // late invalid edge
  return *builder.Build();
}

TEST(ParallelScoreEdgesTest, ErrorFromMidChunkEdgePropagates) {
  const Graph g = MakeGraphWithInvalidEdges();
  for (const int threads : {1, 2, 8}) {
    NoiseCorrectedOptions options;
    options.num_threads = threads;
    const auto scored = NoiseCorrected(g, options);
    ASSERT_FALSE(scored.ok()) << "threads " << threads;
    EXPECT_TRUE(scored.status().IsInvalidArgument());
  }
}

TEST(ParallelScoreEdgeRangesTest, FirstErrorWinsMatchesSerialSweep) {
  const Graph g = MakeGraphWithInvalidEdges();
  // Distinct error messages per edge id let us observe which error won.
  auto scorer_result = [&](int threads) {
    return ScoreEachEdge(
        g, threads, [](EdgeId id, const Edge& e, EdgeScore* out) -> Status {
          if (e.weight == 0.0) {
            return Status::InvalidArgument("zero weight at edge " +
                                           std::to_string(id));
          }
          *out = EdgeScore{e.weight, 0.0};
          return Status::OK();
        });
  };
  const auto serial = scorer_result(1);
  ASSERT_FALSE(serial.ok());
  for (const int threads : {2, 8, 16}) {
    const auto parallel = scorer_result(threads);
    ASSERT_FALSE(parallel.ok());
    EXPECT_EQ(parallel.status().ToString(), serial.status().ToString())
        << "threads " << threads;
  }
}

// ---------------------------------------------------------------------------
// Cooperative cancellation inside the scoring loops.
// ---------------------------------------------------------------------------

TEST(ParallelScoreEdgeRangesTest, PreCancelledTokenStopsBeforeScoring) {
  const Graph g = MakeScoringGraph(Directedness::kUndirected);
  CancelSource source;
  source.Cancel();
  std::atomic<int64_t> scored{0};
  for (const int threads : {1, 4}) {
    const auto result = ScoreEachEdge(
        g, threads,
        [&](EdgeId, const Edge& e, EdgeScore* out) -> Status {
          scored.fetch_add(1, std::memory_order_relaxed);
          *out = EdgeScore{e.weight, 0.0};
          return Status::OK();
        },
        source.token());
    ASSERT_FALSE(result.ok()) << "threads " << threads;
    EXPECT_TRUE(result.status().IsCancelled());
  }
  // Polled at chunk granularity: a token fired before the sweep starts
  // means at most a stride per worker runs, never the full edge table.
  EXPECT_LT(scored.load(), g.num_edges());
}

TEST(ParallelScoreEdgeRangesTest, ExpiredDeadlineReturnsDeadlineExceeded) {
  const Graph g = MakeScoringGraph(Directedness::kUndirected);
  CancelSource source(std::chrono::steady_clock::now() -
                      std::chrono::milliseconds(1));
  const auto result = ScoreEachEdge(
      g, 4,
      [](EdgeId, const Edge& e, EdgeScore* out) -> Status {
        *out = EdgeScore{e.weight, 0.0};
        return Status::OK();
      },
      source.token());
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsDeadlineExceeded());
}

TEST(ParallelScoreEdgeRangesTest, RecordedEdgeErrorOutranksCancellation) {
  // An edge error recorded before the token fires beats the cancellation:
  // a serial sweep would have hit that edge before any cancellation check
  // at or past it. Edge 0 errors *and* fires the token, so every later
  // chunk may bail cancelled — the edge-0 error must still win.
  const Graph g = MakeScoringGraph(Directedness::kUndirected);
  for (const int threads : {1, 4}) {
    CancelSource source;
    const auto result = ScoreEachEdge(
        g, threads,
        [&](EdgeId id, const Edge&, EdgeScore*) -> Status {
          if (id == 0) {
            source.Cancel();
            return Status::InvalidArgument("bad edge 0");
          }
          return Status::OK();
        },
        source.token());
    ASSERT_FALSE(result.ok()) << "threads " << threads;
    EXPECT_TRUE(result.status().IsInvalidArgument());
  }
}

TEST(ParallelScoreEdgesTest, MethodOptionsPlumbCancelTokens) {
  const Graph g = MakeScoringGraph(Directedness::kUndirected);
  CancelSource source;
  source.Cancel();

  NoiseCorrectedOptions nc;
  nc.cancel = source.token();
  const auto nc_result = NoiseCorrected(g, nc);
  ASSERT_FALSE(nc_result.ok());
  EXPECT_TRUE(nc_result.status().IsCancelled());

  DisparityFilterOptions df;
  df.cancel = source.token();
  const auto df_result = DisparityFilter(g, df);
  ASSERT_FALSE(df_result.ok());
  EXPECT_TRUE(df_result.status().IsCancelled());

  NaiveThresholdOptions nt;
  nt.cancel = source.token();
  const auto nt_result = NaiveThreshold(g, nt);
  ASSERT_FALSE(nt_result.ok());
  EXPECT_TRUE(nt_result.status().IsCancelled());
}

TEST(ParallelScoreEdgesTest, HssHonoursDeadlineBetweenSourceBatches) {
  const Graph g = MakeScoringGraph(Directedness::kUndirected);
  HighSalienceSkeletonOptions options;
  CancelSource source(std::chrono::steady_clock::now() -
                      std::chrono::milliseconds(1));
  options.cancel = source.token();
  const auto result = HighSalienceSkeleton(g, options);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsDeadlineExceeded());
}

// ---------------------------------------------------------------------------
// DijkstraWorkspace: zero-alloc reuse must match the allocating wrapper.
// ---------------------------------------------------------------------------

TEST(DijkstraWorkspaceTest, MatchesAllocatingDijkstraAcrossReuse) {
  const auto g = GenerateErdosRenyi(
      {.num_nodes = 150, .average_degree = 4.0, .seed = 21});
  ASSERT_TRUE(g.ok());
  const Adjacency adjacency(*g);
  DijkstraWorkspace workspace;
  // Reuse one workspace over many sources; stale state from the previous
  // source must never leak into the next run.
  for (NodeId source = 0; source < 40; ++source) {
    DijkstraInto(adjacency, source, {}, &workspace);
    const ShortestPathTree fresh = Dijkstra(adjacency, source);
    for (NodeId v = 0; v < g->num_nodes(); ++v) {
      const size_t i = static_cast<size_t>(v);
      EXPECT_EQ(workspace.distance(v), fresh.distance[i]);
      EXPECT_EQ(workspace.parent_edge(v), fresh.parent_edge[i]);
      EXPECT_EQ(workspace.parent(v), fresh.parent[i]);
    }
  }
}

TEST(DijkstraWorkspaceTest, TouchedListsSourceAndAllReachedNodes) {
  GraphBuilder builder(Directedness::kUndirected);
  builder.AddEdge(0, 1, 1.0);
  builder.AddEdge(1, 2, 1.0);
  builder.AddEdge(3, 4, 1.0);  // separate component
  const Graph g = *builder.Build();
  const Adjacency adjacency(g);
  DijkstraWorkspace workspace;
  DijkstraInto(adjacency, 0, {}, &workspace);
  EXPECT_EQ(workspace.touched().size(), 3u);
  EXPECT_TRUE(std::isinf(workspace.distance(3)));
  EXPECT_EQ(workspace.parent_edge(4), -1);
}

// ---------------------------------------------------------------------------
// Sampled HSS: seeded reproducibility and agreement with the exact run.
// ---------------------------------------------------------------------------

TEST(SampledHssTest, SameSeedReproducesScoresExactly) {
  const auto g = GenerateErdosRenyi(
      {.num_nodes = 200, .average_degree = 5.0, .seed = 31});
  ASSERT_TRUE(g.ok());
  HighSalienceSkeletonOptions options;
  options.source_sample_size = 32;
  options.sample_seed = 7;
  const auto a = HighSalienceSkeleton(*g, options);
  options.num_threads = 3;  // threading must not disturb the sample
  const auto b = HighSalienceSkeleton(*g, options);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  for (EdgeId id = 0; id < g->num_edges(); ++id) {
    EXPECT_EQ(a->at(id).score, b->at(id).score);
  }
}

TEST(SampledHssTest, DifferentSeedsSampleDifferentSources) {
  const auto g = GenerateErdosRenyi(
      {.num_nodes = 200, .average_degree = 5.0, .seed = 31});
  ASSERT_TRUE(g.ok());
  HighSalienceSkeletonOptions a_options;
  a_options.source_sample_size = 16;
  a_options.sample_seed = 1;
  HighSalienceSkeletonOptions b_options = a_options;
  b_options.sample_seed = 2;
  const auto a = HighSalienceSkeleton(*g, a_options);
  const auto b = HighSalienceSkeleton(*g, b_options);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  bool any_difference = false;
  for (EdgeId id = 0; id < g->num_edges(); ++id) {
    if (a->at(id).score != b->at(id).score) any_difference = true;
  }
  EXPECT_TRUE(any_difference);
}

TEST(SampledHssTest, SampledScoresAgreeWithExact) {
  // Acceptance gate: k = 256 sources on a small graph must rank edges
  // nearly identically to the exact |V|-source run.
  const auto g = GenerateErdosRenyi(
      {.num_nodes = 400, .average_degree = 4.0, .seed = 41});
  ASSERT_TRUE(g.ok());
  const auto exact = HighSalienceSkeleton(*g);
  ASSERT_TRUE(exact.ok());
  HighSalienceSkeletonOptions options;
  options.source_sample_size = 256;
  const auto sampled = HighSalienceSkeleton(*g, options);
  ASSERT_TRUE(sampled.ok());
  const auto spearman = SpearmanCorrelation(exact->ScoreValues(),
                                            sampled->ScoreValues());
  ASSERT_TRUE(spearman.ok()) << spearman.status().ToString();
  EXPECT_GE(*spearman, 0.9);
}

TEST(SampledHssTest, SamplingLiftsTheExactCostCap) {
  // A budget that rejects the exact |V|*|E| run admits the k*|E| sampled
  // run on the same graph — the new large-graph HSS scenario.
  const auto g = GenerateErdosRenyi(
      {.num_nodes = 500, .average_degree = 4.0, .seed = 51});
  ASSERT_TRUE(g.ok());
  HighSalienceSkeletonOptions options;
  options.max_cost = 100 * g->num_edges();  // < |V| * |E|
  const auto exact = HighSalienceSkeleton(*g, options);
  ASSERT_FALSE(exact.ok());
  EXPECT_TRUE(exact.status().IsFailedPrecondition());
  options.source_sample_size = 64;  // 64 * |E| fits the same budget
  const auto sampled = HighSalienceSkeleton(*g, options);
  ASSERT_TRUE(sampled.ok()) << sampled.status().ToString();
  for (EdgeId id = 0; id < g->num_edges(); ++id) {
    EXPECT_GE(sampled->at(id).score, 0.0);
    EXPECT_LE(sampled->at(id).score, 1.0);
  }
}

TEST(SampledHssTest, SampleSizeAboveNodeCountRunsExact) {
  const auto g = GenerateErdosRenyi(
      {.num_nodes = 50, .average_degree = 4.0, .seed = 61});
  ASSERT_TRUE(g.ok());
  HighSalienceSkeletonOptions options;
  options.source_sample_size = 1000;  // >= |V|: silently exact
  const auto a = HighSalienceSkeleton(*g, options);
  const auto b = HighSalienceSkeleton(*g);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  for (EdgeId id = 0; id < g->num_edges(); ++id) {
    EXPECT_EQ(a->at(id).score, b->at(id).score);
  }
}

// ---------------------------------------------------------------------------
// Registry plumbing.
// ---------------------------------------------------------------------------

// ---------------------------------------------------------------------------
// ParallelSort and the parallel MST Kruskal sort built on it.
// ---------------------------------------------------------------------------

TEST(ParallelSortTest, MatchesStdSortForTotalOrders) {
  // Shuffled distinct values: the comparator is a strict total order, so
  // the sorted sequence is unique and must be identical to std::sort for
  // every thread count. 50k elements exercises the chunked merge path.
  std::vector<int64_t> base(50000);
  for (size_t i = 0; i < base.size(); ++i) {
    base[i] = static_cast<int64_t>((i * 2654435761u) % 1000003u) * 1000003 +
              static_cast<int64_t>(i);  // distinct
  }
  std::vector<int64_t> expected = base;
  std::sort(expected.begin(), expected.end());
  for (const int threads : {1, 2, 3, 7, 16}) {
    std::vector<int64_t> v = base;
    ParallelSort(&v, threads, std::less<int64_t>());
    EXPECT_EQ(v, expected) << "threads=" << threads;
  }
}

TEST(ParallelSortTest, SmallInputsFallBackToSerialSort) {
  std::vector<int> v = {5, 3, 9, 1, 1, 3};
  ParallelSort(&v, 8, std::less<int>());
  EXPECT_EQ(v, (std::vector<int>{1, 1, 3, 3, 5, 9}));
}

TEST(MstParallelTest, BitIdenticalAcrossThreadCounts) {
  // Big enough (>= 8192 pairs) that the Kruskal sort actually runs the
  // chunked parallel path; both directednesses.
  for (const Directedness directedness :
       {Directedness::kUndirected, Directedness::kDirected}) {
    const auto g = GenerateErdosRenyi({.num_nodes = 8000,
                                       .average_degree = 4.0,
                                       .directedness = directedness,
                                       .seed = 81});
    ASSERT_TRUE(g.ok());
    MaximumSpanningTreeOptions serial;
    serial.num_threads = 1;
    const auto reference = MaximumSpanningTree(*g, serial);
    ASSERT_TRUE(reference.ok());
    for (const int threads : {2, 3, 8}) {
      MaximumSpanningTreeOptions options;
      options.num_threads = threads;
      const auto scored = MaximumSpanningTree(*g, options);
      ASSERT_TRUE(scored.ok());
      for (EdgeId id = 0; id < g->num_edges(); ++id) {
        ASSERT_EQ(scored->at(id).score, reference->at(id).score)
            << "threads=" << threads << " edge=" << id;
      }
    }
  }
}

TEST(MstParallelTest, ThreadsFlowThroughRunMethod) {
  const auto g = GenerateErdosRenyi(
      {.num_nodes = 500, .average_degree = 3.0, .seed = 82});
  ASSERT_TRUE(g.ok());
  RunMethodOptions two_threads;
  two_threads.num_threads = 2;
  const auto a = RunMethod(Method::kMaximumSpanningTree, *g, two_threads);
  const auto b = RunMethod(Method::kMaximumSpanningTree, *g);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  for (EdgeId id = 0; id < g->num_edges(); ++id) {
    EXPECT_EQ(a->at(id).score, b->at(id).score);
  }
}

// ---------------------------------------------------------------------------
// Registry plumbing.
// ---------------------------------------------------------------------------

// ---------------------------------------------------------------------------
// Serving-engine scheduling: phase 1 of ExecuteBatch now resolves
// distinct cold keys as concurrent work-stealing tasks — the one-sort /
// one-score-per-key contract must hold exactly as it did when the keys
// were resolved serially.
// ---------------------------------------------------------------------------

TEST(ExecuteBatchSchedulingTest, OneSortPerMethodUnderConcurrentColdKeys) {
  BackboneEngine engine;
  const auto g1 = GenerateErdosRenyi(
      {.num_nodes = 300, .average_degree = 3.0, .seed = 91});
  const auto g2 = GenerateErdosRenyi(
      {.num_nodes = 300, .average_degree = 3.0, .seed = 92});
  ASSERT_TRUE(g1.ok());
  ASSERT_TRUE(g2.ok());
  const uint64_t f1 = engine.AddGraph(*g1);
  const uint64_t f2 = engine.AddGraph(*g2);

  // 2 graphs x 4 methods x 2 shares = 16 requests over 8 distinct keys,
  // all cold.
  std::vector<BackboneRequest> batch;
  for (const uint64_t graph : {f1, f2}) {
    for (const Method method :
         {Method::kNoiseCorrected, Method::kDisparityFilter,
          Method::kMaximumSpanningTree, Method::kNaiveThreshold}) {
      for (const double share : {0.2, 0.5}) {
        BackboneRequest request;
        request.graph = graph;
        request.method = method;
        request.kind = RequestKind::kTopShare;
        request.share = share;
        batch.push_back(request);
      }
    }
  }

  const int64_t sorts_before = ScoreOrder::SortsPerformed();
  const std::vector<Result<BackboneResponse>> cold =
      engine.ExecuteBatch(batch);
  ASSERT_EQ(cold.size(), batch.size());
  for (const auto& result : cold) ASSERT_TRUE(result.ok());
  // However the 8 cold-key tasks interleaved, each key scored and sorted
  // exactly once.
  EXPECT_EQ(ScoreOrder::SortsPerformed() - sorts_before, 8);
  EXPECT_EQ(Metric(engine, "engine.scores_computed"), 8);

  // A warm replay stays zero-sort / zero-score.
  const std::vector<Result<BackboneResponse>> warm =
      engine.ExecuteBatch(batch);
  EXPECT_EQ(ScoreOrder::SortsPerformed() - sorts_before, 8);
  EXPECT_EQ(Metric(engine, "engine.scores_computed"), 8);
  for (size_t i = 0; i < warm.size(); ++i) {
    ASSERT_TRUE(warm[i].ok());
    EXPECT_TRUE(warm[i]->cache_hit);
    EXPECT_EQ(warm[i]->kept_edges, cold[i]->kept_edges);
  }
}

TEST(SchedulerThreadsFromEnvTest, ParsesClampsAndRejects) {
  // Unset / empty / 0 / garbage / negative / overflow -> hardware count.
  EXPECT_EQ(SchedulerThreadsFromEnv(nullptr, 8), 8);
  EXPECT_EQ(SchedulerThreadsFromEnv("", 8), 8);
  EXPECT_EQ(SchedulerThreadsFromEnv("0", 8), 8);
  EXPECT_EQ(SchedulerThreadsFromEnv("4x", 8), 8);
  EXPECT_EQ(SchedulerThreadsFromEnv("2.5", 8), 8);
  EXPECT_EQ(SchedulerThreadsFromEnv("-3", 8), 8);
  EXPECT_EQ(SchedulerThreadsFromEnv("threads", 8), 8);
  EXPECT_EQ(SchedulerThreadsFromEnv("99999999999999999999", 8), 8);

  // Valid values pass through, clamped above.
  EXPECT_EQ(SchedulerThreadsFromEnv("1", 8), 1);
  EXPECT_EQ(SchedulerThreadsFromEnv("4", 8), 4);
  EXPECT_EQ(SchedulerThreadsFromEnv("16", 2), 16);  // may exceed hardware
  EXPECT_EQ(SchedulerThreadsFromEnv("1000000", 8), kMaxSchedulerThreads);

  // A degenerate hardware report still yields a usable pool.
  EXPECT_EQ(SchedulerThreadsFromEnv(nullptr, 0), 1);
}

TEST(RegistryParallelTest, SampledHssOptionsFlowThroughRunMethod) {
  const auto g = GenerateErdosRenyi(
      {.num_nodes = 200, .average_degree = 4.0, .seed = 71});
  ASSERT_TRUE(g.ok());
  RunMethodOptions options;
  options.hss_source_sample_size = 32;
  options.hss_sample_seed = 9;
  const auto a = RunMethod(Method::kHighSalienceSkeleton, *g, options);
  ASSERT_TRUE(a.ok());
  HighSalienceSkeletonOptions direct;
  direct.source_sample_size = 32;
  direct.sample_seed = 9;
  const auto b = HighSalienceSkeleton(*g, direct);
  ASSERT_TRUE(b.ok());
  for (EdgeId id = 0; id < g->num_edges(); ++id) {
    EXPECT_EQ(a->at(id).score, b->at(id).score);
  }
}

// ---------------------------------------------------------------------------
// MpmcQueue — the scheduler's lock-free injection ring.
// ---------------------------------------------------------------------------

TEST(MpmcQueueTest, CapacityRoundsUpToPowerOfTwo) {
  EXPECT_EQ(MpmcQueue<int>(0).capacity(), 2u);
  EXPECT_EQ(MpmcQueue<int>(1).capacity(), 2u);
  EXPECT_EQ(MpmcQueue<int>(5).capacity(), 8u);
  EXPECT_EQ(MpmcQueue<int>(64).capacity(), 64u);
}

TEST(MpmcQueueTest, FifoOrderSingleThread) {
  MpmcQueue<int> queue(8);
  for (int i = 0; i < 8; ++i) EXPECT_TRUE(queue.TryPush(i));
  int out = -1;
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(queue.TryPop(&out));
    EXPECT_EQ(out, i);
  }
  EXPECT_FALSE(queue.TryPop(&out));
}

TEST(MpmcQueueTest, PushRefusesWhenFullPopRefusesWhenEmpty) {
  MpmcQueue<int> queue(2);
  int out = -1;
  EXPECT_FALSE(queue.TryPop(&out));  // empty from the start
  EXPECT_TRUE(queue.TryPush(1));
  EXPECT_TRUE(queue.TryPush(2));
  EXPECT_FALSE(queue.TryPush(3));  // full: value refused, caller keeps it
  ASSERT_TRUE(queue.TryPop(&out));
  EXPECT_EQ(out, 1);
  EXPECT_TRUE(queue.TryPush(3));  // the freed cell is reusable next lap
  ASSERT_TRUE(queue.TryPop(&out));
  EXPECT_EQ(out, 2);
  ASSERT_TRUE(queue.TryPop(&out));
  EXPECT_EQ(out, 3);
  EXPECT_FALSE(queue.TryPop(&out));
}

TEST(MpmcQueueTest, WrapsAcrossManyLaps) {
  MpmcQueue<int> queue(4);
  int out = -1;
  for (int lap = 0; lap < 1000; ++lap) {
    EXPECT_TRUE(queue.TryPush(lap));
    EXPECT_TRUE(queue.TryPush(lap + 1000000));
    ASSERT_TRUE(queue.TryPop(&out));
    EXPECT_EQ(out, lap);
    ASSERT_TRUE(queue.TryPop(&out));
    EXPECT_EQ(out, lap + 1000000);
  }
  EXPECT_FALSE(queue.TryPop(&out));
}

TEST(MpmcQueueTest, ConcurrentProducersConsumersDeliverEveryValueOnce) {
  constexpr int kProducers = 4;
  constexpr int kConsumers = 4;
  constexpr int kPerProducer = 5000;
  MpmcQueue<int> queue(64);  // far smaller than the traffic: wraps a lot
  std::atomic<int> popped{0};
  std::vector<std::atomic<int>> seen(kProducers * kPerProducer);

  std::vector<std::thread> threads;
  for (int p = 0; p < kProducers; ++p) {
    threads.emplace_back([&queue, p]() {
      for (int i = 0; i < kPerProducer; ++i) {
        const int value = p * kPerProducer + i;
        while (!queue.TryPush(value)) std::this_thread::yield();
      }
    });
  }
  for (int c = 0; c < kConsumers; ++c) {
    threads.emplace_back([&queue, &popped, &seen]() {
      int out = -1;
      while (popped.load(std::memory_order_relaxed) <
             kProducers * kPerProducer) {
        if (queue.TryPop(&out)) {
          seen[static_cast<size_t>(out)]++;
          popped.fetch_add(1, std::memory_order_relaxed);
        } else {
          std::this_thread::yield();
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();

  EXPECT_EQ(popped.load(), kProducers * kPerProducer);
  for (const auto& count : seen) EXPECT_EQ(count.load(), 1);
}

TEST(MpmcQueueTest, PerProducerFifoOrderHoldsUnderConcurrency) {
  // FIFO holds per claimed position; with a single consumer, each
  // producer's values must drain in that producer's push order.
  constexpr int kProducers = 3;
  constexpr int kPerProducer = 4000;
  MpmcQueue<int> queue(32);
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&queue, p]() {
      for (int i = 0; i < kPerProducer; ++i) {
        while (!queue.TryPush(p * kPerProducer + i)) {
          std::this_thread::yield();
        }
      }
    });
  }
  std::vector<int> last(kProducers, -1);
  int drained = 0;
  int out = -1;
  while (drained < kProducers * kPerProducer) {
    if (!queue.TryPop(&out)) {
      std::this_thread::yield();
      continue;
    }
    const int producer = out / kPerProducer;
    const int seq = out % kPerProducer;
    EXPECT_GT(seq, last[static_cast<size_t>(producer)]);
    last[static_cast<size_t>(producer)] = seq;
    ++drained;
  }
  for (std::thread& t : producers) t.join();
  for (int p = 0; p < kProducers; ++p) {
    EXPECT_EQ(last[static_cast<size_t>(p)], kPerProducer - 1);
  }
}

}  // namespace
}  // namespace netbone
