// Tests for the serving subsystem (src/service/): graph fingerprint
// stability across label insertion order, content-addressed dedup and
// LRU-under-byte-budget eviction (with in-flight pins) in the GraphStore,
// LRU eviction order under the ScoreCache byte budget, in-flight
// coalescing (a single underlying score per key no matter how many
// concurrent identical requests), negative caching of scoring failures,
// warm-path zero-sort / zero-rescore behavior, engine determinism across
// thread counts and against the uncached library path, the exact set of
// counter and gauge names the engine's metrics readout carries, and the
// byte-bound trim of the HSS workspace pool.

#include "service/engine.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <future>
#include <latch>
#include <optional>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include <gtest/gtest-spi.h>
#include <gtest/gtest.h>

#include "common/cancel.h"
#include "common/random.h"
#include "core/filter.h"
#include "core/high_salience_skeleton.h"
#include "core/registry.h"
#include "core/sweep.h"
#include "eval/coverage.h"
#include "eval/stability.h"
#include "eval/sweep_metrics.h"
#include "gen/erdos_renyi.h"
#include "graph/builder.h"
#include "graph/delta.h"
#include "service/fault_injection.h"
#include "service/graph_store.h"
#include "service/score_cache.h"
#include "metric_value.h"

namespace netbone {
namespace {

using LabeledEdge = std::tuple<std::string, std::string, double>;

Graph BuildLabeled(const std::vector<LabeledEdge>& edges,
                   Directedness directedness = Directedness::kUndirected) {
  GraphBuilder builder(directedness);
  for (const auto& [src, dst, weight] : edges) {
    builder.AddLabeledEdge(src, dst, weight);
  }
  return *builder.Build();
}

Graph BenchGraph(uint64_t seed = 7, NodeId num_nodes = 300) {
  return *GenerateErdosRenyi(
      {.num_nodes = num_nodes, .average_degree = 3.0, .seed = seed});
}

/// A TopShare request.
BackboneRequest ShareRequest(uint64_t graph, Method method,
                             double share = 0.3) {
  BackboneRequest request;
  request.graph = graph;
  request.method = method;
  request.kind = RequestKind::kTopShare;
  request.share = share;
  return request;
}

// ---------------------------------------------------------------------------
// GraphFingerprint.
// ---------------------------------------------------------------------------

TEST(GraphFingerprintTest, StableAcrossLabelInsertionOrder) {
  // Same labeled network, interned in three different orders (the third
  // also flips endpoint order within an edge): the dense node ids differ,
  // the content does not.
  const Graph a =
      BuildLabeled({{"ann", "bob", 1.0}, {"bob", "cat", 2.0},
                    {"cat", "dee", 3.0}});
  const Graph b =
      BuildLabeled({{"cat", "dee", 3.0}, {"ann", "bob", 1.0},
                    {"bob", "cat", 2.0}});
  const Graph c =
      BuildLabeled({{"dee", "cat", 3.0}, {"cat", "bob", 2.0},
                    {"bob", "ann", 1.0}});
  EXPECT_EQ(GraphFingerprint(a), GraphFingerprint(b));
  EXPECT_EQ(GraphFingerprint(a), GraphFingerprint(c));

  // Any content change moves the fingerprint.
  const Graph weight_changed =
      BuildLabeled({{"ann", "bob", 1.5}, {"bob", "cat", 2.0},
                    {"cat", "dee", 3.0}});
  const Graph edge_added =
      BuildLabeled({{"ann", "bob", 1.0}, {"bob", "cat", 2.0},
                    {"cat", "dee", 3.0}, {"dee", "ann", 4.0}});
  const Graph label_changed =
      BuildLabeled({{"ann", "bob", 1.0}, {"bob", "cat", 2.0},
                    {"cat", "eve", 3.0}});
  EXPECT_NE(GraphFingerprint(a), GraphFingerprint(weight_changed));
  EXPECT_NE(GraphFingerprint(a), GraphFingerprint(edge_added));
  EXPECT_NE(GraphFingerprint(a), GraphFingerprint(label_changed));
}

TEST(GraphFingerprintTest, DirectedLabeledRespectsDirection) {
  const Graph ab = BuildLabeled({{"a", "b", 1.0}, {"b", "c", 2.0}},
                                Directedness::kDirected);
  const Graph ab2 = BuildLabeled({{"b", "c", 2.0}, {"a", "b", 1.0}},
                                 Directedness::kDirected);
  const Graph reversed = BuildLabeled({{"b", "a", 1.0}, {"c", "b", 2.0}},
                                      Directedness::kDirected);
  EXPECT_EQ(GraphFingerprint(ab), GraphFingerprint(ab2));
  EXPECT_NE(GraphFingerprint(ab), GraphFingerprint(reversed));
}

TEST(GraphFingerprintTest, UnlabeledCanonicalTableIsOrderFree) {
  GraphBuilder b1(Directedness::kUndirected);
  b1.AddEdge(0, 1, 1.0);
  b1.AddEdge(1, 2, 2.0);
  GraphBuilder b2(Directedness::kUndirected);
  b2.AddEdge(2, 1, 2.0);  // flipped + reordered: canonicalization absorbs
  b2.AddEdge(1, 0, 1.0);
  EXPECT_EQ(GraphFingerprint(*b1.Build()), GraphFingerprint(*b2.Build()));

  GraphBuilder b3(Directedness::kUndirected);
  b3.AddEdge(0, 1, 1.0);
  b3.AddEdge(1, 2, 2.5);
  EXPECT_NE(GraphFingerprint(*b1.Build()), GraphFingerprint(*b3.Build()));
}

TEST(GraphFingerprintTest, IsolatesChangeTheFingerprint) {
  GraphBuilder b1(Directedness::kUndirected);
  b1.AddEdge(0, 1, 1.0);
  GraphBuilder b2(Directedness::kUndirected);
  b2.AddEdge(0, 1, 1.0);
  b2.ReserveNodes(5);
  EXPECT_NE(GraphFingerprint(*b1.Build()), GraphFingerprint(*b2.Build()));
}

// ---------------------------------------------------------------------------
// GraphStore.
// ---------------------------------------------------------------------------

TEST(GraphStoreTest, DedupesIdenticalContent) {
  GraphStore store;
  obs::MetricRegistry store_metrics;
  store.RegisterMetrics(store_metrics, "store", &store);
  const StoredGraph first = store.Intern(BenchGraph(/*seed=*/11));
  const StoredGraph again = store.Intern(BenchGraph(/*seed=*/11));
  const StoredGraph other = store.Intern(BenchGraph(/*seed=*/12));

  EXPECT_EQ(first.fingerprint, again.fingerprint);
  EXPECT_EQ(first.graph.get(), again.graph.get());  // one resident copy
  EXPECT_NE(first.fingerprint, other.fingerprint);

  const obs::MetricsSnapshot stats = store_metrics.Snapshot();
  EXPECT_EQ(Metric(stats, "store.graphs"), 2);
  EXPECT_EQ(Metric(stats, "store.inserts"), 2);
  EXPECT_EQ(Metric(stats, "store.dedup_hits"), 1);
  EXPECT_GT(Metric(stats, "store.resident_bytes"), 0);

  EXPECT_EQ(store.Find(first.fingerprint).get(), first.graph.get());
  EXPECT_EQ(store.Find(0xdeadbeef), nullptr);
}

TEST(GraphStoreTest, LruEvictionUnderByteBudgetSkipsPinned) {
  // Three same-shape graphs -> three same-size entries; budget admits two.
  const int64_t one = ApproxGraphBytes(BenchGraph(61));
  GraphStore store(2 * one + one / 2);
  obs::MetricRegistry store_metrics;
  store.RegisterMetrics(store_metrics, "store", &store);
  const StoredGraph ga = store.Intern(BenchGraph(61));
  const StoredGraph gb = store.Intern(BenchGraph(62));
  EXPECT_EQ(Metric(store_metrics, "store.graphs"), 2);
  EXPECT_EQ(Metric(store_metrics, "store.evictions"), 0);

  // Touch A so B becomes least-recently-used, then intern C: B must go.
  EXPECT_NE(store.Find(ga.fingerprint), nullptr);
  const StoredGraph gc = store.Intern(BenchGraph(63));
  EXPECT_EQ(Metric(store_metrics, "store.graphs"), 2);
  EXPECT_EQ(Metric(store_metrics, "store.evictions"), 1);
  EXPECT_EQ(store.Find(gb.fingerprint), nullptr);  // evicted
  EXPECT_NE(store.Find(gc.fingerprint), nullptr);
  // The evicted handle stays valid; only residency is gone.
  EXPECT_EQ(gb.graph->num_nodes(), 300);

  // Residency read without touching recency (Find would refresh it).
  const auto resident = [&store](uint64_t fingerprint) {
    for (const StoredGraph& stored : store.ResidentGraphs()) {
      if (stored.fingerprint == fingerprint) return true;
    }
    return false;
  };

  // A pinned graph survives a trim that reaches it: A is now least
  // recently used, so interning D sheds the unpinned C in its place.
  store.Pin(ga.fingerprint);
  const StoredGraph gd = store.Intern(BenchGraph(64));
  EXPECT_TRUE(resident(ga.fingerprint));   // pinned: kept
  EXPECT_FALSE(resident(gc.fingerprint));  // unpinned: evicted
  EXPECT_TRUE(resident(gd.fingerprint));
  EXPECT_EQ(Metric(store_metrics, "store.evictions"), 2);

  // Unpinning makes it evictable on the next trim.
  store.Unpin(ga.fingerprint);
  const StoredGraph ge = store.Intern(BenchGraph(65));
  EXPECT_FALSE(resident(ga.fingerprint));
  EXPECT_TRUE(resident(gd.fingerprint));
  EXPECT_TRUE(resident(ge.fingerprint));
  EXPECT_EQ(Metric(store_metrics, "store.graphs"), 2);
  EXPECT_EQ(Metric(store_metrics, "store.evictions"), 3);
}

// ---------------------------------------------------------------------------
// ScoreCache.
// ---------------------------------------------------------------------------

std::shared_ptr<const CachedScore> ScoreFor(
    const std::shared_ptr<const Graph>& graph) {
  Result<ScoredEdges> scored =
      RunMethod(Method::kNaiveThreshold, *graph);
  EXPECT_TRUE(scored.ok());
  return CachedScore::Build(graph, std::move(*scored));
}

TEST(ScoreCacheTest, LruEvictionOrderUnderByteBudget) {
  // Three same-shape graphs -> three same-size entries; budget admits two.
  GraphStore store;
  const StoredGraph ga = store.Intern(BenchGraph(21));
  const StoredGraph gb = store.Intern(BenchGraph(22));
  const StoredGraph gc = store.Intern(BenchGraph(23));
  const auto sa = ScoreFor(ga.graph);
  const auto sb = ScoreFor(gb.graph);
  const auto sc = ScoreFor(gc.graph);
  const ScoreKey ka{ga.fingerprint, Method::kNaiveThreshold, {}};
  const ScoreKey kb{gb.fingerprint, Method::kNaiveThreshold, {}};
  const ScoreKey kc{gc.fingerprint, Method::kNaiveThreshold, {}};

  ScoreCache cache(sa->bytes() + sb->bytes() + sb->bytes() / 2);
  obs::MetricRegistry cache_metrics;
  cache.RegisterMetrics(cache_metrics, "cache", &cache);
  cache.Put(ka, sa);
  cache.Put(kb, sb);
  EXPECT_EQ(Metric(cache_metrics, "cache.entries"), 2);
  EXPECT_EQ(Metric(cache_metrics, "cache.evictions"), 0);

  // Touch A so B becomes least-recently-used, then insert C: B must go.
  EXPECT_NE(cache.Get(ka), nullptr);
  cache.Put(kc, sc);
  EXPECT_EQ(Metric(cache_metrics, "cache.entries"), 2);
  EXPECT_EQ(Metric(cache_metrics, "cache.evictions"), 1);
  EXPECT_NE(cache.Get(ka), nullptr);
  EXPECT_NE(cache.Get(kc), nullptr);
  EXPECT_EQ(cache.Get(kb), nullptr);  // evicted

  const obs::MetricsSnapshot stats = cache_metrics.Snapshot();
  EXPECT_EQ(Metric(stats, "cache.hits"), 3);    // ka bump + ka, kc lookups
  EXPECT_EQ(Metric(stats, "cache.misses"), 1);  // the evicted kb lookup

  // Entries larger than the whole budget are evicted immediately; the
  // caller's handle keeps the value usable.
  ScoreCache tiny(/*byte_budget=*/1);
  obs::MetricRegistry tiny_metrics;
  tiny.RegisterMetrics(tiny_metrics, "cache", &tiny);
  tiny.Put(ka, sa);
  EXPECT_EQ(Metric(tiny_metrics, "cache.entries"), 0);
  EXPECT_EQ(Metric(tiny_metrics, "cache.evictions"), 1);
  EXPECT_GT(sa->order().size(), 0);
}

TEST(ScoreCacheTest, KeySeparatesMethodAndOptions) {
  GraphStore store;
  const StoredGraph g = store.Intern(BenchGraph(31));
  const auto score = ScoreFor(g.graph);
  ScoreCache cache(/*byte_budget=*/0);  // unlimited

  const ScoreKey nt{g.fingerprint, Method::kNaiveThreshold, {}};
  ScoreKey sampled = nt;
  sampled.method = Method::kHighSalienceSkeleton;
  sampled.options.hss_source_sample_size = 64;
  cache.Put(nt, score);
  EXPECT_NE(cache.Get(nt), nullptr);
  EXPECT_EQ(cache.Get(sampled), nullptr);
  ScoreKey other_seed = sampled;
  other_seed.options.hss_sample_seed = 43;
  EXPECT_FALSE(sampled == other_seed);
  EXPECT_FALSE(nt == sampled);
}

// ---------------------------------------------------------------------------
// BackboneEngine: warm path, coalescing, determinism.
// ---------------------------------------------------------------------------

TEST(BackboneEngineTest, WarmRequestsPerformZeroSortsAndZeroRescoring) {
  BackboneEngine engine;
  const uint64_t graph = engine.AddGraph(BenchGraph(41));

  BackboneRequest request = ShareRequest(graph, Method::kNoiseCorrected, 0.2);
  const Result<BackboneResponse> cold = engine.Execute(request);
  ASSERT_TRUE(cold.ok());
  EXPECT_FALSE(cold->cache_hit);
  EXPECT_EQ(Metric(engine, "engine.scores_computed"), 1);

  // Every further request on the cached (graph, method) key — whatever
  // the threshold rule — must sort and score exactly zero times.
  const int64_t sorts_before = ScoreOrder::SortsPerformed();
  BackboneRequest top_k = request;
  top_k.kind = RequestKind::kTopK;
  top_k.k = 37;
  BackboneRequest threshold = request;
  threshold.kind = RequestKind::kScoreThreshold;
  threshold.threshold = 0.5;
  BackboneRequest grow = request;
  grow.kind = RequestKind::kGrowUntilConnected;
  BackboneRequest coverage = request;
  coverage.kind = RequestKind::kCoveragePoint;
  coverage.share = 0.4;
  BackboneRequest sweep = request;
  sweep.kind = RequestKind::kSweep;
  sweep.shares = {0.1, 0.2, 0.5, 1.0};
  for (const BackboneRequest* warm :
       {&request, &top_k, &threshold, &grow, &coverage, &sweep}) {
    const Result<BackboneResponse> response = engine.Execute(*warm);
    ASSERT_TRUE(response.ok());
    EXPECT_TRUE(response->cache_hit);
  }
  EXPECT_EQ(ScoreOrder::SortsPerformed() - sorts_before, 0);
  EXPECT_EQ(Metric(engine, "engine.scores_computed"), 1);
  EXPECT_EQ(Metric(engine, "cache.hits"), 6);
}

TEST(BackboneEngineTest, IrrelevantScoreOptionsShareOneCacheEntry) {
  // HSS sampling knobs cannot change a NoiseCorrected score, so requests
  // differing only in those knobs must resolve to one cache entry
  // (MakeScoreKey canonicalization).
  BackboneEngine engine;
  const uint64_t graph = engine.AddGraph(BenchGraph(40));
  BackboneRequest request = ShareRequest(graph, Method::kNoiseCorrected, 0.2);
  request.score_options.hss_sample_seed = 7;
  ASSERT_TRUE(engine.Execute(request).ok());
  request.score_options.hss_sample_seed = 99;
  request.score_options.hss_source_sample_size = 16;
  const Result<BackboneResponse> warm = engine.Execute(request);
  ASSERT_TRUE(warm.ok());
  EXPECT_TRUE(warm->cache_hit);
  EXPECT_EQ(Metric(engine, "engine.scores_computed"), 1);
}

TEST(BackboneEngineTest, ResponsesMatchTheUncachedPath) {
  const Graph graph = BenchGraph(42);
  Result<ScoredEdges> scored = RunMethod(Method::kDisparityFilter, graph);
  ASSERT_TRUE(scored.ok());

  BackboneEngine engine;
  const uint64_t fingerprint = engine.AddGraph(BenchGraph(42));

  BackboneRequest request;
  request.graph = fingerprint;
  request.method = Method::kDisparityFilter;

  // TopShare.
  request.kind = RequestKind::kTopShare;
  request.share = 0.3;
  Result<BackboneResponse> response = engine.Execute(request);
  ASSERT_TRUE(response.ok());
  const BackboneMask top_share = TopShare(*scored, 0.3);
  EXPECT_EQ(response->kept_edges, MaskToEdgeIds(top_share));
  EXPECT_EQ(response->kept, top_share.kept);
  EXPECT_EQ(response->coverage, *CoverageOfMask(graph, top_share));

  // TopK.
  request.kind = RequestKind::kTopK;
  request.k = 55;
  response = engine.Execute(request);
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->kept_edges, MaskToEdgeIds(TopK(*scored, 55)));

  // Score threshold (strictly-above semantics, like FilterByScore).
  request.kind = RequestKind::kScoreThreshold;
  request.threshold = 0.4;
  response = engine.Execute(request);
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->kept_edges,
            MaskToEdgeIds(FilterByScore(*scored, 0.4)));

  // GrowUntilConnected.
  request.kind = RequestKind::kGrowUntilConnected;
  response = engine.Execute(request);
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->kept_edges,
            MaskToEdgeIds(GrowUntilConnected(*scored)));

  // Sweep: element-wise identical to the batch CoverageSweep.
  request.kind = RequestKind::kSweep;
  request.shares = {0.1, 0.25, 0.5, 0.75, 1.0};
  response = engine.Execute(request);
  ASSERT_TRUE(response.ok());
  const Result<std::vector<double>> reference =
      CoverageSweep(*scored, request.shares);
  ASSERT_TRUE(reference.ok());
  ASSERT_EQ(response->sweep.size(), reference->size());
  for (size_t p = 0; p < reference->size(); ++p) {
    EXPECT_EQ(response->sweep[p].coverage, (*reference)[p]);
  }
}

TEST(BackboneEngineTest, UnknownFingerprintIsNotFound) {
  BackboneEngine engine;
  BackboneRequest request;
  request.graph = 0x1234;
  const Result<BackboneResponse> response = engine.Execute(request);
  ASSERT_FALSE(response.ok());
  EXPECT_TRUE(response.status().IsNotFound());
}

// A non-finite share used to pass the [0, 1] clamp and round to an edge
// budget of INT64_MIN, served as OK. Every entry point must refuse it
// before resolution: nothing scored, nothing negative-cached, and a
// finite sibling in the same batch still answered.
void ExpectNonFiniteShareRejected(BackboneRequest bad,
                                  BackboneEngine& engine) {
  BackboneRequest good = bad;
  good.share = 0.5;
  good.shares = {0.25, 0.5};

  const Result<BackboneResponse> direct = engine.Execute(bad);
  ASSERT_FALSE(direct.ok());
  EXPECT_TRUE(direct.status().IsInvalidArgument())
      << direct.status().ToString();
  const auto batch = engine.ExecuteBatch(std::vector<BackboneRequest>{bad});
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_TRUE(batch[0].status().IsInvalidArgument())
      << batch[0].status().ToString();
  const auto async = engine.Submit({bad}).get();
  ASSERT_EQ(async.size(), 1u);
  EXPECT_TRUE(async[0].status().IsInvalidArgument())
      << async[0].status().ToString();
  EXPECT_EQ(Metric(engine, "engine.scores_computed"), 0);
  EXPECT_EQ(Metric(engine, "engine.negative_entries"), 0);

  const auto mixed =
      engine.ExecuteBatch(std::vector<BackboneRequest>{bad, good});
  ASSERT_EQ(mixed.size(), 2u);
  EXPECT_TRUE(mixed[0].status().IsInvalidArgument())
      << mixed[0].status().ToString();
  EXPECT_TRUE(mixed[1].ok()) << mixed[1].status().ToString();
  EXPECT_EQ(Metric(engine, "engine.scores_computed"), 1);
  EXPECT_EQ(Metric(engine, "engine.negative_entries"), 0);
}

TEST(BackboneEngineTest, NonFiniteTopShareIsInvalidArgument) {
  for (const double share : {std::nan(""), HUGE_VAL, -HUGE_VAL}) {
    BackboneEngine engine;
    BackboneRequest bad = ShareRequest(engine.AddGraph(BenchGraph(90)),
                                       Method::kNoiseCorrected);
    bad.share = share;
    ExpectNonFiniteShareRejected(bad, engine);
  }
}

TEST(BackboneEngineTest, NonFiniteCoveragePointShareIsInvalidArgument) {
  BackboneEngine engine;
  BackboneRequest bad = ShareRequest(engine.AddGraph(BenchGraph(91)),
                                     Method::kNoiseCorrected);
  bad.kind = RequestKind::kCoveragePoint;
  bad.share = std::nan("");
  ExpectNonFiniteShareRejected(bad, engine);
}

TEST(BackboneEngineTest, NonFiniteSweepShareIsInvalidArgument) {
  BackboneEngine engine;
  BackboneRequest bad = ShareRequest(engine.AddGraph(BenchGraph(92)),
                                     Method::kNoiseCorrected);
  bad.kind = RequestKind::kSweep;
  bad.shares = {0.25, std::nan(""), 0.75};
  ExpectNonFiniteShareRejected(bad, engine);
}

TEST(BackboneEngineTest, NonFiniteStabilityPointShareIsInvalidArgument) {
  BackboneEngine engine;
  BackboneRequest bad = ShareRequest(engine.AddGraph(BenchGraph(93)),
                                     Method::kNoiseCorrected);
  bad.kind = RequestKind::kStabilityPoint;
  bad.next_graph = engine.AddGraph(BenchGraph(94));
  bad.share = std::nan("");
  ExpectNonFiniteShareRejected(bad, engine);
}

TEST(BackboneEngineTest, CoalescesConcurrentIdenticalRequests) {
  BackboneEngine engine;
  const uint64_t graph = engine.AddGraph(BenchGraph(43, /*num_nodes=*/800));

  // HSS: slow enough for the requests to overlap.
  BackboneRequest request =
      ShareRequest(graph, Method::kHighSalienceSkeleton, 0.25);

  const int64_t sorts_before = ScoreOrder::SortsPerformed();
  constexpr int kThreads = 8;
  std::vector<std::optional<Result<BackboneResponse>>> responses(kThreads);
  {
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back(
          [&, t] { responses[static_cast<size_t>(t)] = engine.Execute(request); });
    }
    for (std::thread& t : threads) t.join();
  }

  // However the executions interleaved (coalesced onto the in-flight
  // score or served from the cache), the method ran exactly once.
  EXPECT_EQ(Metric(engine, "engine.scores_computed"), 1);
  EXPECT_EQ(ScoreOrder::SortsPerformed() - sorts_before, 1);
  ASSERT_TRUE(responses[0]->ok());
  const std::vector<EdgeId>& kept = (*responses[0])->kept_edges;
  EXPECT_GT(kept.size(), 0u);
  for (const auto& response : responses) {
    ASSERT_TRUE(response->ok());
    EXPECT_EQ((*response)->kept_edges, kept);
  }
}

TEST(BackboneEngineTest, BatchCoalescesDuplicateKeys) {
  BackboneEngine engine;
  const uint64_t graph = engine.AddGraph(BenchGraph(44));

  std::vector<BackboneRequest> batch;
  for (int i = 0; i < 6; ++i) {
    // Different points, one key.
    BackboneRequest request =
        ShareRequest(graph, Method::kNoiseCorrected, 0.1 * (i + 1));
    batch.push_back(request);
  }
  BackboneRequest other = batch.front();
  other.method = Method::kNaiveThreshold;
  batch.push_back(other);

  const int64_t sorts_before = ScoreOrder::SortsPerformed();
  const std::vector<Result<BackboneResponse>> results =
      engine.ExecuteBatch(batch);
  ASSERT_EQ(results.size(), batch.size());
  for (const auto& result : results) ASSERT_TRUE(result.ok());
  // Two distinct keys -> two scores, two sorts, no matter the batch size.
  EXPECT_EQ(Metric(engine, "engine.scores_computed"), 2);
  EXPECT_EQ(ScoreOrder::SortsPerformed() - sorts_before, 2);
  EXPECT_EQ(Metric(engine, "engine.requests"),
            static_cast<int64_t>(batch.size()));
}

TEST(BackboneEngineTest, DeterministicAcrossThreadCounts) {
  std::optional<std::vector<Result<BackboneResponse>>> reference;
  for (const int threads : {1, 2, 5}) {
    BackboneEngineOptions options;
    options.num_threads = threads;
    BackboneEngine engine(options);
    const uint64_t graph = engine.AddGraph(BenchGraph(45));

    std::vector<BackboneRequest> batch;
    for (const Method method :
         {Method::kNoiseCorrected, Method::kDisparityFilter,
          Method::kMaximumSpanningTree, Method::kNaiveThreshold}) {
      BackboneRequest request = ShareRequest(graph, method);
      batch.push_back(request);
      request.kind = RequestKind::kSweep;
      request.shares = {0.2, 0.6, 1.0};
      batch.push_back(request);
    }
    std::vector<Result<BackboneResponse>> results =
        engine.ExecuteBatch(batch);
    if (!reference.has_value()) {
      reference = std::move(results);
      continue;
    }
    ASSERT_EQ(results.size(), reference->size());
    for (size_t i = 0; i < results.size(); ++i) {
      ASSERT_TRUE(results[i].ok());
      EXPECT_EQ(results[i]->kept_edges, (*reference)[i]->kept_edges);
      EXPECT_EQ(results[i]->kept, (*reference)[i]->kept);
      EXPECT_EQ(results[i]->coverage, (*reference)[i]->coverage);
      EXPECT_EQ(results[i]->weight_share, (*reference)[i]->weight_share);
      EXPECT_EQ(results[i]->sweep, (*reference)[i]->sweep);
    }
  }
}

TEST(BackboneEngineTest, AsyncSubmitMatchesSync) {
  BackboneEngine engine;
  const uint64_t graph = engine.AddGraph(BenchGraph(46));

  std::vector<BackboneRequest> batch;
  for (const double share : {0.1, 0.4, 0.8}) {
    BackboneRequest request =
        ShareRequest(graph, Method::kDisparityFilter, share);
    batch.push_back(request);
  }

  std::future<std::vector<Result<BackboneResponse>>> future =
      engine.Submit(batch);
  const std::vector<Result<BackboneResponse>> async = future.get();
  const std::vector<Result<BackboneResponse>> sync =
      engine.ExecuteBatch(batch);
  ASSERT_EQ(async.size(), sync.size());
  for (size_t i = 0; i < async.size(); ++i) {
    ASSERT_TRUE(async[i].ok());
    ASSERT_TRUE(sync[i].ok());
    EXPECT_EQ(async[i]->kept_edges, sync[i]->kept_edges);
    EXPECT_EQ(async[i]->coverage, sync[i]->coverage);
  }
  EXPECT_EQ(Metric(engine, "engine.submitted_batches"), 1);
  // The async batch scored DF once; the sync replay was all warm.
  EXPECT_EQ(Metric(engine, "engine.scores_computed"), 1);
}

TEST(BackboneEngineTest, StabilityPointMatchesDirectEvaluation) {
  const Graph year0 = BenchGraph(47);
  const Graph year1 = BenchGraph(48);  // same node universe, new weights

  BackboneEngine engine;
  const uint64_t f0 = engine.AddGraph(BenchGraph(47));
  const uint64_t f1 = engine.AddGraph(BenchGraph(48));

  BackboneRequest request;
  request.graph = f0;
  request.next_graph = f1;
  request.method = Method::kNoiseCorrected;
  request.kind = RequestKind::kStabilityPoint;
  request.share = 0.5;
  const Result<BackboneResponse> response = engine.Execute(request);
  ASSERT_TRUE(response.ok());

  Result<ScoredEdges> scored = RunMethod(Method::kNoiseCorrected, year0);
  ASSERT_TRUE(scored.ok());
  const BackboneMask mask = TopShare(*scored, 0.5);
  const Result<double> direct = Stability(year0, year1, mask);
  ASSERT_TRUE(direct.ok());
  EXPECT_EQ(response->stability, *direct);
  EXPECT_EQ(response->kept, mask.kept);
}

TEST(BackboneEngineTest, NegativeCacheSuppressesRepeatedFailures) {
  BackboneEngine engine;  // default negative_ttl: 30s
  const uint64_t graph = engine.AddGraph(BenchGraph(70));

  // The HSS cost guard rejects this deterministically: |V| * |E| > 1.
  BackboneRequest request =
      ShareRequest(graph, Method::kHighSalienceSkeleton, 0.5);
  request.score_options.hss_max_cost = 1;

  const Result<BackboneResponse> first = engine.Execute(request);
  ASSERT_FALSE(first.ok());
  EXPECT_TRUE(first.status().IsFailedPrecondition());
  EXPECT_EQ(Metric(engine, "engine.scores_computed"), 1);
  EXPECT_EQ(Metric(engine, "engine.negative_hits"), 0);
  EXPECT_EQ(Metric(engine, "engine.negative_entries"), 1);

  // Hammering the bad key is answered from the negative cache: the same
  // error, zero further scoring attempts.
  for (int i = 0; i < 3; ++i) {
    const Result<BackboneResponse> repeat = engine.Execute(request);
    ASSERT_FALSE(repeat.ok());
    EXPECT_EQ(repeat.status().ToString(), first.status().ToString());
  }
  // A batch of two identical bad requests collapses to one key — one
  // negative hit answers both.
  const auto batch_results =
      engine.ExecuteBatch(std::vector<BackboneRequest>{request, request});
  for (const auto& result : batch_results) EXPECT_FALSE(result.ok());
  EXPECT_EQ(Metric(engine, "engine.scores_computed"), 1);
  EXPECT_EQ(Metric(engine, "engine.negative_hits"), 4);

  // Clearing the negative cache re-arms the key.
  engine.ClearNegativeCache();
  EXPECT_EQ(Metric(engine, "engine.negative_entries"), 0);
  ASSERT_FALSE(engine.Execute(request).ok());
  EXPECT_EQ(Metric(engine, "engine.scores_computed"), 2);
}

TEST(BackboneEngineTest, NegativeTtlZeroDisablesNegativeCaching) {
  BackboneEngineOptions options;
  options.negative_ttl = std::chrono::milliseconds(0);
  BackboneEngine engine(options);
  const uint64_t graph = engine.AddGraph(BenchGraph(71));

  BackboneRequest request =
      ShareRequest(graph, Method::kHighSalienceSkeleton, 0.5);
  request.score_options.hss_max_cost = 1;

  ASSERT_FALSE(engine.Execute(request).ok());
  ASSERT_FALSE(engine.Execute(request).ok());
  // Pre-PR-4 behavior: every request re-attempts the scoring.
  EXPECT_EQ(Metric(engine, "engine.scores_computed"), 2);
  EXPECT_EQ(Metric(engine, "engine.negative_hits"), 0);
  EXPECT_EQ(Metric(engine, "engine.negative_entries"), 0);
}

TEST(BackboneEngineTest, GraphByteBudgetEvictsColdGraphs) {
  BackboneEngineOptions options;
  options.graph_byte_budget =
      2 * ApproxGraphBytes(BenchGraph(72)) +
      ApproxGraphBytes(BenchGraph(72)) / 2;  // admits two same-shape graphs
  BackboneEngine engine(options);
  const uint64_t f1 = engine.AddGraph(BenchGraph(72));
  const uint64_t f2 = engine.AddGraph(BenchGraph(73));
  const uint64_t f3 = engine.AddGraph(BenchGraph(74));
  EXPECT_EQ(Metric(engine, "store.graphs"), 2);
  EXPECT_EQ(Metric(engine, "store.evictions"), 1);

  // The least-recently-used fingerprint stopped resolving...
  BackboneRequest request = ShareRequest(f1, Method::kNaiveThreshold, 0.5);
  const Result<BackboneResponse> evicted = engine.Execute(request);
  ASSERT_FALSE(evicted.ok());
  EXPECT_TRUE(evicted.status().IsNotFound());

  // ... the resident ones still serve, and re-interning revives f1.
  for (const uint64_t resident : {f2, f3}) {
    request.graph = resident;
    EXPECT_TRUE(engine.Execute(request).ok());
  }
  EXPECT_EQ(engine.AddGraph(BenchGraph(72)), f1);
  request.graph = f1;
  EXPECT_TRUE(engine.Execute(request).ok());
}

TEST(BackboneEngineTest, DedupesResubmittedGraphs) {
  BackboneEngine engine;
  const uint64_t first = engine.AddGraph(BenchGraph(49));
  const uint64_t again = engine.AddGraph(BenchGraph(49));
  EXPECT_EQ(first, again);
  EXPECT_EQ(Metric(engine, "store.graphs"), 1);
  EXPECT_EQ(Metric(engine, "store.dedup_hits"), 1);
}

// ---------------------------------------------------------------------------
// The metrics readout: BackboneEngine::Metrics() is the engine's only
// counter readout, so its names are the contract every reader cites.
// ---------------------------------------------------------------------------

/// The counter and gauge names under `prefixes`, sorted.
std::vector<std::string> NamesUnder(
    const std::vector<obs::MetricsSnapshot::Value>& values,
    const std::vector<std::string>& prefixes) {
  std::vector<std::string> names;
  for (const obs::MetricsSnapshot::Value& value : values) {
    for (const std::string& prefix : prefixes) {
      if (value.name.starts_with(prefix)) {
        names.push_back(value.name);
        break;
      }
    }
  }
  std::sort(names.begin(), names.end());
  return names;
}

TEST(EngineMetricsTest, FreshEngineCarriesExactlyTheDocumentedNames) {
  // The names engine.h documents on Metrics(). enable_metrics gates only
  // the latency histograms, so both settings must report the same set.
  const std::vector<std::string> want_counters = {
      "engine.background_refreshes", "engine.cancellations",
      "engine.coalesced_waits",      "engine.deadline_hits",
      "engine.degraded_served",      "engine.delta_fallbacks",
      "engine.delta_rescores",       "engine.inflight_rejected",
      "engine.negative_exempt",      "engine.negative_hits",
      "engine.profiles_built",       "engine.rejected_batches",
      "engine.requests",             "engine.retries",
      "engine.scores_computed",      "engine.shed_batches",
      "engine.snapshot_failures",    "engine.snapshot_writes",
      "engine.submitted_batches",
  };
  const std::vector<std::string> want_gauges = {
      "cache.byte_budget",
      "cache.bytes",
      "cache.entries",
      "cache.evictions",
      "cache.hits",
      "cache.insert_failures",
      "cache.misses",
      "engine.inflight_scores",
      "engine.negative_entries",
      "engine.quarantined_sections",
      "engine.queue_depth",
      "engine.restored_entries",
      "engine.restored_graphs",
      "engine.restored_lineage",
      "engine.snapshot_restore_errors",
      "store.byte_budget",
      "store.dedup_hits",
      "store.evictions",
      "store.graphs",
      "store.inserts",
      "store.lineage_entries",
      "store.resident_bytes",
  };
  const std::vector<std::string> prefixes = {"engine.", "cache.", "store."};
  for (const bool enable_metrics : {true, false}) {
    BackboneEngineOptions options;
    options.enable_metrics = enable_metrics;
    BackboneEngine engine(options);
    const obs::MetricsSnapshot snapshot = engine.Metrics();
    EXPECT_EQ(NamesUnder(snapshot.counters, prefixes), want_counters)
        << "enable_metrics=" << enable_metrics;
    EXPECT_EQ(NamesUnder(snapshot.gauges, prefixes), want_gauges)
        << "enable_metrics=" << enable_metrics;
    // Fresh means zero everywhere except the budgets.
    for (const std::string& name : want_counters) {
      EXPECT_EQ(Metric(snapshot, name), 0) << name;
    }
    EXPECT_EQ(Metric(snapshot, "cache.byte_budget"),
              options.cache_byte_budget);
    EXPECT_EQ(Metric(snapshot, "store.byte_budget"),
              options.graph_byte_budget);
  }
}

TEST(EngineMetricsTest, ReadingAnAbsentNameFailsTheTest) {
  BackboneEngine engine;
  // A misspelled name must not read as 0.
  EXPECT_NONFATAL_FAILURE(Metric(engine, "engine.request"),
                          "no counter or gauge named \"engine.request\"");
  EXPECT_NONFATAL_FAILURE(Metric(engine.Metrics(), "cache.hit"),
                          "no counter or gauge named \"cache.hit\"");
}

// ---------------------------------------------------------------------------
// HSS workspace pool byte-bound trim.
// ---------------------------------------------------------------------------

TEST(HssWorkspacePoolTest, ByteBudgetTrimsRetainedWorkspaces) {
  // A big exact HSS run leaves peak-size workspaces in the pool.
  const Graph big = BenchGraph(51, /*num_nodes=*/2000);
  ASSERT_TRUE(HighSalienceSkeleton(big).ok());
  EXPECT_GT(HssWorkspacePoolRetainedBytes(), 0);

  // A tight budget sheds the peak-size scratch immediately...
  constexpr int64_t kBudget = 16 << 10;
  SetHssWorkspacePoolByteBudget(kBudget);
  EXPECT_LE(HssWorkspacePoolRetainedBytes(), kBudget);

  // ... and keeps holding on every later release: a small run may retain
  // its (small) workspaces, a big run's are dropped on release.
  const Graph small = BenchGraph(52, /*num_nodes=*/64);
  ASSERT_TRUE(HighSalienceSkeleton(small).ok());
  EXPECT_LE(HssWorkspacePoolRetainedBytes(), kBudget);
  ASSERT_TRUE(HighSalienceSkeleton(big).ok());
  EXPECT_LE(HssWorkspacePoolRetainedBytes(), kBudget);

  // Restore the default so other tests keep full reuse.
  SetHssWorkspacePoolByteBudget(0);
}

// ---------------------------------------------------------------------------
// Incremental delta rescoring through the engine.
// ---------------------------------------------------------------------------

/// The bench graph re-weighted to small integers: the paper's count-data
/// regime, where weight redistribution preserves marginals and totals
/// exactly (integer sums are exact in doubles).
Graph IntWeightGraph(uint64_t seed = 7, NodeId num_nodes = 300) {
  const Graph er = BenchGraph(seed, num_nodes);
  GraphBuilder builder(Directedness::kUndirected);
  builder.ReserveNodes(num_nodes);
  for (const Edge& e : er.edges()) {
    builder.AddEdge(e.src, e.dst, std::floor(e.weight) + 1.0);
  }
  return *builder.Build();
}

/// A noisy re-observation: moves one unit of weight between `transfers`
/// random edge pairs. Totals are bitwise preserved, so NC stays
/// incremental.
Graph TransferWeight(const Graph& base, int64_t transfers, uint64_t seed) {
  std::vector<Edge> edges(base.edges().begin(), base.edges().end());
  Rng rng(seed);
  for (int64_t t = 0; t < transfers; ++t) {
    const size_t a = static_cast<size_t>(rng.NextBounded(edges.size()));
    const size_t b = static_cast<size_t>(rng.NextBounded(edges.size()));
    if (a == b || edges[a].weight < 2.0) continue;
    edges[a].weight -= 1.0;
    edges[b].weight += 1.0;
  }
  GraphBuilder builder(base.directedness());
  builder.ReserveNodes(base.num_nodes());
  for (const Edge& e : edges) builder.AddEdge(e.src, e.dst, e.weight);
  return *builder.Build();
}

/// Every extraction-shaped request kind, with budgets on both sides of
/// the clamp: TopK 0 / 1 / E / E+5, a threshold above every score (an
/// empty prefix) and GrowUntilConnected.
std::vector<BackboneRequest> ExtractionRequests(uint64_t graph,
                                                Method method,
                                                int64_t num_edges,
                                                double above_max) {
  std::vector<BackboneRequest> requests;
  BackboneRequest request;
  request.graph = graph;
  request.method = method;
  request.kind = RequestKind::kTopK;
  for (const int64_t k : {int64_t{0}, int64_t{1}, num_edges, num_edges + 5}) {
    request.k = k;
    requests.push_back(request);
  }
  request.kind = RequestKind::kScoreThreshold;
  request.threshold = above_max;
  requests.push_back(request);
  request.kind = RequestKind::kGrowUntilConnected;
  requests.push_back(request);
  return requests;
}

/// The mask oracle for one ExtractionRequests entry.
std::vector<EdgeId> OracleEdges(const ScoreOrder& order,
                                const SweepProfile& profile,
                                const BackboneRequest& request) {
  switch (request.kind) {
    case RequestKind::kTopK:
      return MaskToEdgeIds(order.PrefixMask(request.k));
    case RequestKind::kScoreThreshold:
      return MaskToEdgeIds(FilterByScore(order.scored(), request.threshold));
    default:
      return MaskToEdgeIds(order.PrefixMask(profile.connect_k));
  }
}

TEST(BackboneEngineTest, ExtractionMatchesTheMaskOracleOffWordBoundaries) {
  const Graph graph = IntWeightGraph(43);
  const int64_t num_edges = graph.num_edges();
  ASSERT_NE(num_edges % 64, 0);  // the last bitmap word is partial
  BackboneEngine engine;
  const uint64_t fingerprint = engine.AddGraph(IntWeightGraph(43));
  for (const Method method :
       {Method::kNaiveThreshold, Method::kNoiseCorrected}) {
    const Result<ScoredEdges> scored = RunMethod(method, graph);
    ASSERT_TRUE(scored.ok());
    const ScoreOrder order(*scored);
    const SweepProfile profile = BuildSweepProfile(order);
    double max_score = -HUGE_VAL;
    for (const EdgeScore& s : scored->scores()) {
      max_score = std::max(max_score, s.score);
    }
    const std::vector<BackboneRequest> requests =
        ExtractionRequests(fingerprint, method, num_edges, max_score + 1.0);
    const std::vector<Result<BackboneResponse>> batch =
        engine.ExecuteBatch(requests);
    ASSERT_EQ(batch.size(), requests.size());
    for (size_t i = 0; i < requests.size(); ++i) {
      const std::vector<EdgeId> expected =
          OracleEdges(order, profile, requests[i]);
      const Result<BackboneResponse> single = engine.Execute(requests[i]);
      ASSERT_TRUE(single.ok()) << "request " << i;
      ASSERT_TRUE(batch[i].ok()) << "request " << i;
      EXPECT_EQ(single->kept_edges, expected) << "request " << i;
      EXPECT_EQ(batch[i]->kept_edges, expected) << "request " << i;
      EXPECT_EQ(single->kept, static_cast<int64_t>(expected.size()));
      EXPECT_EQ(batch[i]->kept, static_cast<int64_t>(expected.size()));
    }
  }
}

TEST(BackboneEngineTest, TracedWarmHitExtractStartsWhereLookupEnds) {
  BackboneEngineOptions options;
  options.trace_sample_rate = 1;
  BackboneEngine engine(options);
  BackboneRequest request;
  request.graph = engine.AddGraph(BenchGraph(44));
  request.method = Method::kDisparityFilter;
  request.kind = RequestKind::kTopShare;
  request.share = 0.3;
  ASSERT_TRUE(engine.Execute(request).ok());  // cold: fills the cache
  const Result<BackboneResponse> warm = engine.Execute(request);
  ASSERT_TRUE(warm.ok());
  ASSERT_TRUE(warm->cache_hit);

  // The lookup starts at the entry reading and both spans end within the
  // request's total. Execute's extract starts at the lookup's end
  // reading; ExecuteBatch's reads its own start after the lookup.
  const auto check_last_trace = [&engine](const char* entry_point,
                                          bool extract_at_lookup_end) {
    SCOPED_TRACE(entry_point);
    const std::vector<obs::RequestTrace> traces = engine.tracer().Snapshot();
    ASSERT_FALSE(traces.empty());
    const obs::RequestTrace& trace = traces.back();
    EXPECT_EQ(trace.path, obs::AnswerPath::kWarm);
    const obs::TraceSpan* lookup = nullptr;
    const obs::TraceSpan* extract = nullptr;
    for (int s = 0; s < trace.num_spans; ++s) {
      if (trace.spans[s].kind == obs::SpanKind::kCacheLookup) {
        lookup = &trace.spans[s];
      } else if (trace.spans[s].kind == obs::SpanKind::kExtract) {
        extract = &trace.spans[s];
      }
    }
    ASSERT_NE(lookup, nullptr);
    ASSERT_NE(extract, nullptr);
    EXPECT_EQ(lookup->start_ns, 0);
    EXPECT_GE(lookup->duration_ns, 0);
    const int64_t lookup_end = lookup->start_ns + lookup->duration_ns;
    if (extract_at_lookup_end) {
      EXPECT_EQ(extract->start_ns, lookup_end);
    } else {
      EXPECT_GE(extract->start_ns, lookup_end);
    }
    EXPECT_GE(extract->duration_ns, 0);
    EXPECT_LE(extract->start_ns + extract->duration_ns, trace.total_ns);
  };
  check_last_trace("Execute", /*extract_at_lookup_end=*/true);

  // ExecuteBatch starts the lookup at the batch's entry reading too.
  const std::vector<BackboneRequest> batch = {request};
  const std::vector<Result<BackboneResponse>> batched =
      engine.ExecuteBatch(batch);
  ASSERT_EQ(batched.size(), 1u);
  ASSERT_TRUE(batched[0].ok());
  ASSERT_TRUE(batched[0]->cache_hit);
  check_last_trace("ExecuteBatch", /*extract_at_lookup_end=*/false);
}

TEST(BackboneEngineTest, RevisionIsPatchedNotRescored) {
  const Graph base = IntWeightGraph();
  const Graph next = TransferWeight(base, 8, 99);

  // Reference: a lineage-less engine scores the revision cold.
  BackboneEngine cold_engine;
  const uint64_t cold_fp = cold_engine.AddGraph(next);
  const Result<BackboneResponse> cold =
      cold_engine.Execute(ShareRequest(cold_fp, Method::kNoiseCorrected));
  ASSERT_TRUE(cold.ok());

  BackboneEngine engine;
  const uint64_t base_fp = engine.AddGraph(base);
  ASSERT_TRUE(
      engine.Execute(ShareRequest(base_fp, Method::kNoiseCorrected))
          .ok());
  const uint64_t next_fp = engine.AddGraphRevision(next, base_fp);
  ASSERT_NE(next_fp, base_fp);

  const int64_t sorts_before = ScoreOrder::SortsPerformed();
  const int64_t scores_before = Metric(engine, "engine.scores_computed");
  const Result<BackboneResponse> patched =
      engine.Execute(ShareRequest(next_fp, Method::kNoiseCorrected));
  ASSERT_TRUE(patched.ok());
  EXPECT_FALSE(patched->cache_hit);  // it did trigger a (cheap) computation

  // The incremental contract: zero global sorts, zero full rescorings,
  // one delta rescore — and a bit-identical response.
  EXPECT_EQ(ScoreOrder::SortsPerformed(), sorts_before);
  EXPECT_EQ(Metric(engine, "engine.scores_computed"), scores_before);
  EXPECT_EQ(Metric(engine, "engine.delta_rescores"), 1);
  EXPECT_EQ(Metric(engine, "engine.delta_fallbacks"), 0);
  EXPECT_EQ(patched->kept_edges, cold->kept_edges);
  EXPECT_EQ(patched->kept, cold->kept);
  EXPECT_EQ(patched->coverage, cold->coverage);
  EXPECT_EQ(patched->weight_share, cold->weight_share);

  // The patched entry is a first-class cache entry: the next request on
  // the revision is a plain warm hit.
  const Result<BackboneResponse> warm =
      engine.Execute(ShareRequest(next_fp, Method::kNoiseCorrected));
  ASSERT_TRUE(warm.ok());
  EXPECT_TRUE(warm->cache_hit);
}

TEST(BackboneEngineTest, RevisionPatchIsDeterministicAcrossThreadCounts) {
  const Graph base = IntWeightGraph(9);
  const Graph next = TransferWeight(base, 6, 123);
  std::optional<BackboneResponse> reference;
  for (const int threads : {1, 2, 4}) {
    BackboneEngineOptions options;
    options.num_threads = threads;
    BackboneEngine engine(options);
    const uint64_t base_fp = engine.AddGraph(base);
    ASSERT_TRUE(
        engine.Execute(ShareRequest(base_fp, Method::kDisparityFilter))
            .ok());
    const uint64_t next_fp = engine.AddGraphRevision(next, base_fp);
    const Result<BackboneResponse> response = engine.Execute(
        ShareRequest(next_fp, Method::kDisparityFilter));
    ASSERT_TRUE(response.ok());
    EXPECT_EQ(Metric(engine, "engine.delta_rescores"), 1);
    if (!reference.has_value()) {
      reference = *response;
    } else {
      EXPECT_EQ(response->kept_edges, reference->kept_edges);
      EXPECT_EQ(response->coverage, reference->coverage);
      EXPECT_EQ(response->weight_share, reference->weight_share);
    }
  }
}

TEST(BackboneEngineTest, LineageChainResolvesAcrossUnscoredHops) {
  // rev2 -> rev1 -> base, where rev1 was never scored: the walk must hop
  // through rev1 and patch rev2 directly from base's warm entry.
  const Graph base = IntWeightGraph(11);
  const Graph rev1 = TransferWeight(base, 4, 5);
  const Graph rev2 = TransferWeight(rev1, 4, 6);

  BackboneEngine engine;
  const uint64_t base_fp = engine.AddGraph(base);
  ASSERT_TRUE(
      engine.Execute(ShareRequest(base_fp, Method::kNoiseCorrected))
          .ok());
  const uint64_t rev1_fp = engine.AddGraphRevision(rev1, base_fp);
  const uint64_t rev2_fp = engine.AddGraphRevision(rev2, rev1_fp);

  const Result<BackboneResponse> response =
      engine.Execute(ShareRequest(rev2_fp, Method::kNoiseCorrected));
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(Metric(engine, "engine.delta_rescores"), 1);

  BackboneEngine cold_engine;
  const uint64_t cold_fp = cold_engine.AddGraph(rev2);
  const Result<BackboneResponse> cold =
      cold_engine.Execute(ShareRequest(cold_fp, Method::kNoiseCorrected));
  ASSERT_TRUE(cold.ok());
  EXPECT_EQ(response->kept_edges, cold->kept_edges);
  EXPECT_EQ(response->coverage, cold->coverage);
}

TEST(BackboneEngineTest, GlobalMethodsFallBackToFullRescore) {
  const Graph base = IntWeightGraph(13, /*num_nodes=*/120);
  const Graph next = TransferWeight(base, 4, 7);

  BackboneEngine engine;
  const uint64_t base_fp = engine.AddGraph(base);
  ASSERT_TRUE(
      engine
          .Execute(ShareRequest(base_fp, Method::kHighSalienceSkeleton))
          .ok());
  const uint64_t next_fp = engine.AddGraphRevision(next, base_fp);
  const int64_t scores_before = Metric(engine, "engine.scores_computed");
  const Result<BackboneResponse> response = engine.Execute(
      ShareRequest(next_fp, Method::kHighSalienceSkeleton));
  ASSERT_TRUE(response.ok());
  // HSS is not incremental: the request full-rescored (and, because the
  // method is unsupported, it does not even count as a fallback attempt).
  EXPECT_EQ(Metric(engine, "engine.scores_computed"), scores_before + 1);
  EXPECT_EQ(Metric(engine, "engine.delta_rescores"), 0);

  BackboneEngine cold_engine;
  const uint64_t cold_fp = cold_engine.AddGraph(next);
  const Result<BackboneResponse> cold = cold_engine.Execute(
      ShareRequest(cold_fp, Method::kHighSalienceSkeleton));
  ASSERT_TRUE(cold.ok());
  EXPECT_EQ(response->kept_edges, cold->kept_edges);
}

TEST(BackboneEngineTest, DeltaRescoreCanBeDisabled) {
  const Graph base = IntWeightGraph(15);
  const Graph next = TransferWeight(base, 4, 8);
  BackboneEngineOptions options;
  options.enable_delta_rescore = false;
  BackboneEngine engine(options);
  const uint64_t base_fp = engine.AddGraph(base);
  ASSERT_TRUE(
      engine.Execute(ShareRequest(base_fp, Method::kNoiseCorrected))
          .ok());
  const uint64_t next_fp = engine.AddGraphRevision(next, base_fp);
  ASSERT_TRUE(
      engine.Execute(ShareRequest(next_fp, Method::kNoiseCorrected))
          .ok());
  EXPECT_EQ(Metric(engine, "engine.delta_rescores"), 0);
  EXPECT_EQ(Metric(engine, "engine.scores_computed"), 2);
}

TEST(BackboneEngineTest, EndlessRevisionStreamPatchesEveryRevision) {
  // Revisions that never repeat, at high churn, under bounded cache and
  // graph budgets: each one's lineage is priced and evicted with its
  // graph, so it never crowds the score entries out of the cache, and
  // every revision patches from its parent's warm entries.
  constexpr Method kMethods[] = {Method::kNoiseCorrected,
                                 Method::kDisparityFilter,
                                 Method::kNaiveThreshold};
  constexpr int kRevisions = 60;
  const Graph base = IntWeightGraph(19, /*num_nodes=*/1200);
  const auto shared_base = std::make_shared<const Graph>(base);
  const int64_t entry_bytes =
      CachedScore::Build(shared_base,
                         *RunMethod(Method::kNoiseCorrected, *shared_base))
          ->bytes();
  BackboneEngineOptions options;
  options.cache_byte_budget = 8 * entry_bytes;  // about two revisions
  options.graph_byte_budget = 4 * ApproxGraphBytes(base);
  BackboneEngine engine(options);

  uint64_t parent = engine.AddGraph(base);
  for (const Method method : kMethods) {
    ASSERT_TRUE(engine.Execute(ShareRequest(parent, method)).ok());
  }
  ASSERT_EQ(Metric(engine, "engine.scores_computed"), 3);
  std::vector<uint64_t> seen = {parent};
  Graph current = base;
  for (int revision = 1; revision <= kRevisions; ++revision) {
    SCOPED_TRACE(testing::Message() << "revision " << revision);
    // A fifth of the edges move a unit of weight per revision.
    current = TransferWeight(current, base.num_edges() / 10,
                             static_cast<uint64_t>(1000 + revision));
    const uint64_t child = engine.AddGraphRevision(current, parent);
    ASSERT_EQ(std::find(seen.begin(), seen.end(), child), seen.end());
    seen.push_back(child);
    for (const Method method : kMethods) {
      ASSERT_TRUE(engine.Execute(ShareRequest(child, method)).ok());
    }
    const obs::MetricsSnapshot stats = engine.Metrics();
    ASSERT_EQ(Metric(stats, "engine.delta_rescores"), 3 * revision);
    ASSERT_EQ(Metric(stats, "engine.scores_computed"), 3);
    ASSERT_GT(Metric(stats, "cache.entries"), 0);
    ASSERT_LE(Metric(stats, "cache.bytes"), options.cache_byte_budget);
    ASSERT_LE(Metric(stats, "store.resident_bytes"),
              options.graph_byte_budget);
    parent = child;
  }

  // The last patch answers as a cold engine does.
  BackboneEngine cold_engine;
  const uint64_t cold_fp = cold_engine.AddGraph(current);
  for (const Method method : kMethods) {
    const Result<BackboneResponse> cold =
        cold_engine.Execute(ShareRequest(cold_fp, method));
    const Result<BackboneResponse> warm =
        engine.Execute(ShareRequest(parent, method));
    ASSERT_TRUE(cold.ok());
    ASSERT_TRUE(warm.ok());
    EXPECT_EQ(warm->kept_edges, cold->kept_edges);
    EXPECT_EQ(warm->coverage, cold->coverage);
    EXPECT_EQ(warm->weight_share, cold->weight_share);
  }
}

TEST(BackboneEngineTest, ColdScoringPinsItsGraphUntilTheEntryIsCached) {
  // Same-size graphs; the store's budget holds two of them.
  const Graph base = IntWeightGraph(23);
  BackboneEngineOptions options;
  options.graph_byte_budget = 2 * ApproxGraphBytes(base);
  BackboneEngine engine(options);
  const uint64_t pinned = engine.AddGraph(base);
  const auto resident = [&engine](uint64_t fingerprint) {
    const std::vector<uint64_t> all = engine.ResidentFingerprints();
    return std::find(all.begin(), all.end(), fingerprint) != all.end();
  };

  FaultInjector injector(24);
  injector.Configure(FaultSite::kScoringLatency,
                     {.probability = 1.0,
                      .latency = std::chrono::milliseconds(300)});
  {
    ScopedFaultInjection scope(&injector);
    std::optional<Result<BackboneResponse>> result;
    std::thread worker([&] {
      result = engine.Execute(ShareRequest(pinned, Method::kNoiseCorrected));
    });
    // The latency draw comes after the pin: from here the scoring stalls
    // with its graph pinned.
    const auto give_up =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (Metric(engine, "fault.scoring_latency.draws") < 1 &&
           std::chrono::steady_clock::now() < give_up) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    // Two more graphs trim the store past the least recently used one.
    engine.AddGraph(TransferWeight(base, 4, 1));
    engine.AddGraph(TransferWeight(base, 4, 2));
    EXPECT_EQ(Metric(engine, "store.evictions"), 1);
    EXPECT_TRUE(resident(pinned));
    worker.join();
    ASSERT_TRUE(result.has_value());
    ASSERT_TRUE(result->ok());
  }

  // Scored and cached: the pin is gone, and the next trim evicts it.
  engine.AddGraph(TransferWeight(base, 4, 3));
  EXPECT_FALSE(resident(pinned));
  EXPECT_EQ(Metric(engine, "store.evictions"), 2);
}

// ---------------------------------------------------------------------------
// The lazily built sweep profile (CachedScore::profile).
// ---------------------------------------------------------------------------

/// Each point kind on `graph` with the NC method: TopShare, TopK,
/// ScoreThreshold and CoveragePoint.
std::vector<BackboneRequest> PointRequests(uint64_t graph) {
  BackboneRequest share = ShareRequest(graph, Method::kNoiseCorrected);
  BackboneRequest top_k = share;
  top_k.kind = RequestKind::kTopK;
  top_k.k = 41;
  BackboneRequest threshold = share;
  threshold.kind = RequestKind::kScoreThreshold;
  threshold.threshold = 0.5;
  BackboneRequest coverage = share;
  coverage.kind = RequestKind::kCoveragePoint;
  coverage.share = 0.45;
  return {share, top_k, threshold, coverage};
}

void ExpectSameAnswer(const BackboneResponse& got,
                      const BackboneResponse& want) {
  EXPECT_EQ(got.kept_edges, want.kept_edges);
  EXPECT_EQ(got.kept, want.kept);
  EXPECT_EQ(got.coverage, want.coverage);
  EXPECT_EQ(got.weight_share, want.weight_share);
  EXPECT_EQ(got.sweep, want.sweep);
  EXPECT_EQ(got.connect_k, want.connect_k);
}

TEST(LazyProfileTest, ColdAndDeltaPointRequestsBuildNoProfile) {
  const Graph base = IntWeightGraph(23);
  BackboneEngine engine;
  const uint64_t base_fp = engine.AddGraph(base);
  const Result<BackboneResponse> cold =
      engine.Execute(ShareRequest(base_fp, Method::kNoiseCorrected));
  ASSERT_TRUE(cold.ok());
  EXPECT_FALSE(cold->cache_hit);
  EXPECT_EQ(Metric(engine, "engine.profiles_built"), 0);

  const uint64_t next_fp =
      engine.AddGraphRevision(TransferWeight(base, 8, 5), base_fp);
  const Result<BackboneResponse> patched =
      engine.Execute(ShareRequest(next_fp, Method::kNoiseCorrected));
  ASSERT_TRUE(patched.ok());
  EXPECT_FALSE(patched->cache_hit);
  EXPECT_EQ(Metric(engine, "engine.delta_rescores"), 1);
  EXPECT_EQ(Metric(engine, "engine.profiles_built"), 0);
}

TEST(LazyProfileTest, FirstHitBuildsOneProfileAndAnswersAlike) {
  // Per point kind, on a fresh engine: the cold request evaluates its
  // prefix alone, the first hit builds the profile, and both answer the
  // same bit for bit. Later hits of every kind build nothing.
  for (const BackboneRequest& shape : PointRequests(0)) {
    BackboneEngine engine;
    BackboneRequest request = shape;
    request.graph = engine.AddGraph(IntWeightGraph(24));
    const Result<BackboneResponse> cold = engine.Execute(request);
    ASSERT_TRUE(cold.ok());
    EXPECT_EQ(Metric(engine, "engine.profiles_built"), 0);
    const Result<BackboneResponse> hit = engine.Execute(request);
    ASSERT_TRUE(hit.ok());
    EXPECT_TRUE(hit->cache_hit);
    EXPECT_EQ(Metric(engine, "engine.profiles_built"), 1);
    ExpectSameAnswer(*hit, *cold);

    for (BackboneRequest later : PointRequests(request.graph)) {
      ASSERT_TRUE(engine.Execute(later).ok());
    }
    BackboneRequest sweep = request;
    sweep.kind = RequestKind::kSweep;
    sweep.shares = {0.1, 0.5};
    BackboneRequest grow = request;
    grow.kind = RequestKind::kGrowUntilConnected;
    ASSERT_TRUE(engine.Execute(sweep).ok());
    ASSERT_TRUE(engine.Execute(grow).ok());
    EXPECT_EQ(Metric(engine, "engine.profiles_built"), 1);
  }
}

TEST(LazyProfileTest, ConcurrentFirstHitsBuildOneProfile) {
  BackboneEngine engine;
  const uint64_t graph = engine.AddGraph(IntWeightGraph(25, 2000));
  const BackboneRequest request =
      ShareRequest(graph, Method::kNoiseCorrected);
  const Result<BackboneResponse> cold = engine.Execute(request);
  ASSERT_TRUE(cold.ok());
  ASSERT_EQ(Metric(engine, "engine.profiles_built"), 0);

  // Eight hits on the profile-less entry, released at once.
  constexpr int kThreads = 8;
  std::vector<std::optional<Result<BackboneResponse>>> responses(kThreads);
  std::latch start(kThreads);
  {
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        start.arrive_and_wait();
        responses[static_cast<size_t>(t)] = engine.Execute(request);
      });
    }
    for (std::thread& t : threads) t.join();
  }
  EXPECT_EQ(Metric(engine, "engine.profiles_built"), 1);
  for (const auto& response : responses) {
    ASSERT_TRUE(response->ok());
    EXPECT_TRUE((*response)->cache_hit);
    ExpectSameAnswer(**response, *cold);
  }
}

TEST(LazyProfileTest, ColdSweepAndGrowBuildTheirProfile) {
  BackboneEngine engine;
  const uint64_t graph = engine.AddGraph(IntWeightGraph(26));
  BackboneRequest sweep = ShareRequest(graph, Method::kNoiseCorrected);
  sweep.kind = RequestKind::kSweep;
  sweep.shares = {0.1, 0.3, 0.9};
  const Result<BackboneResponse> cold_sweep = engine.Execute(sweep);
  ASSERT_TRUE(cold_sweep.ok());
  EXPECT_FALSE(cold_sweep->cache_hit);
  EXPECT_EQ(Metric(engine, "engine.profiles_built"), 1);

  BackboneRequest grow = ShareRequest(graph, Method::kDisparityFilter);
  grow.kind = RequestKind::kGrowUntilConnected;
  const Result<BackboneResponse> cold_grow = engine.Execute(grow);
  ASSERT_TRUE(cold_grow.ok());
  EXPECT_FALSE(cold_grow->cache_hit);
  EXPECT_EQ(Metric(engine, "engine.profiles_built"), 2);

  // Both entries hold their profile now: hits build nothing.
  const Result<BackboneResponse> warm_sweep = engine.Execute(sweep);
  ASSERT_TRUE(warm_sweep.ok());
  ExpectSameAnswer(*warm_sweep, *cold_sweep);
  ASSERT_TRUE(engine.Execute(grow).ok());
  EXPECT_EQ(Metric(engine, "engine.profiles_built"), 2);
}

TEST(LazyProfileTest, ColdBatchBuildsNoProfileEvenForARepeatedKey) {
  BackboneEngine engine;
  const uint64_t once = engine.AddGraph(IntWeightGraph(27));
  const uint64_t twice = engine.AddGraph(IntWeightGraph(28));
  // `twice` is asked two points in the batch that resolves it; each is
  // evaluated alone, as coalesced waiters on one cold key are in Execute.
  std::vector<BackboneRequest> batch = {
      ShareRequest(once, Method::kNoiseCorrected),
      PointRequests(twice)[0], PointRequests(twice)[3]};
  const std::vector<Result<BackboneResponse>> cold =
      engine.ExecuteBatch(batch);
  for (const Result<BackboneResponse>& response : cold) {
    ASSERT_TRUE(response.ok());
    EXPECT_FALSE(response->cache_hit);
  }
  EXPECT_EQ(Metric(engine, "engine.profiles_built"), 0);

  // The warm batch builds each key's profile once.
  const std::vector<Result<BackboneResponse>> warm =
      engine.ExecuteBatch(batch);
  for (size_t i = 0; i < batch.size(); ++i) {
    ASSERT_TRUE(warm[i].ok());
    EXPECT_TRUE(warm[i]->cache_hit);
    ExpectSameAnswer(*warm[i], *cold[i]);
  }
  EXPECT_EQ(Metric(engine, "engine.profiles_built"), 2);
}

TEST(ScoreCacheTest, PeekDoesNotCountHits) {
  ScoreCache cache(/*byte_budget=*/0);
  obs::MetricRegistry cache_metrics;
  cache.RegisterMetrics(cache_metrics, "cache", &cache);
  const ScoreKey key = MakeScoreKey(42, Method::kNoiseCorrected, {});
  EXPECT_EQ(cache.Peek(key), nullptr);
  EXPECT_EQ(Metric(cache_metrics, "cache.misses"), 0);
  EXPECT_EQ(cache.Get(key), nullptr);
  EXPECT_EQ(Metric(cache_metrics, "cache.misses"), 1);
}

// ---------------------------------------------------------------------------
// Fault injection (deterministic chaos harness).
// ---------------------------------------------------------------------------

TEST(FaultInjectorTest, SameSeedSameDecisionSequence) {
  FaultInjector a(1234), b(1234), c(99);
  const FaultSpec spec{.probability = 0.3};
  for (FaultInjector* injector : {&a, &b, &c}) {
    injector->Configure(FaultSite::kScoringFailure, spec);
  }
  int same = 0, diff = 0;
  int64_t injected_a = 0;
  for (int draw = 0; draw < 200; ++draw) {
    const bool da = a.Draw(FaultSite::kScoringFailure);
    const bool db = b.Draw(FaultSite::kScoringFailure);
    const bool dc = c.Draw(FaultSite::kScoringFailure);
    injected_a += da ? 1 : 0;
    EXPECT_EQ(da, db);  // identical seeds replay identically
    (da == dc ? same : diff)++;
  }
  EXPECT_GT(diff, 0);  // a different seed is a different schedule
  EXPECT_EQ(a.draws(FaultSite::kScoringFailure), 200);
  EXPECT_EQ(a.injected(FaultSite::kScoringFailure), injected_a);
  // ~30% of 200, loosely bounded: the point is "neither none nor all".
  EXPECT_GT(injected_a, 20);
  EXPECT_LT(injected_a, 140);
}

TEST(FaultInjectorTest, MaxInjectionsBoundsTheFaults) {
  FaultInjector injector(7);
  injector.Configure(FaultSite::kCacheInsertFailure,
                     {.probability = 1.0, .max_injections = 3});
  int64_t fired = 0;
  for (int draw = 0; draw < 10; ++draw) {
    fired += injector.Draw(FaultSite::kCacheInsertFailure) ? 1 : 0;
  }
  EXPECT_EQ(fired, 3);
  EXPECT_EQ(injector.injected(FaultSite::kCacheInsertFailure), 3);
  EXPECT_EQ(injector.draws(FaultSite::kCacheInsertFailure), 10);
}

TEST(FaultInjectorTest, DisabledIsInertAndScopesRestore) {
  EXPECT_EQ(ActiveFaultInjector(), nullptr);
  EXPECT_FALSE(InjectFault(FaultSite::kScoringFailure));
  FaultInjector outer(1), inner(2);
  {
    ScopedFaultInjection outer_scope(&outer);
    EXPECT_EQ(ActiveFaultInjector(), &outer);
    {
      ScopedFaultInjection inner_scope(&inner);
      EXPECT_EQ(ActiveFaultInjector(), &inner);
    }
    EXPECT_EQ(ActiveFaultInjector(), &outer);
  }
  EXPECT_EQ(ActiveFaultInjector(), nullptr);
}

// ---------------------------------------------------------------------------
// Deadlines, cancellation, and the failure taxonomy.
// ---------------------------------------------------------------------------

TEST(BackboneEngineFaultTest, DeadlineExceededIsTypedAndNeverNegativeCached) {
  BackboneEngine engine;
  const uint64_t graph = engine.AddGraph(BenchGraph(80));
  FaultInjector injector(11);
  injector.Configure(FaultSite::kScoringLatency,
                     {.probability = 1.0,
                      .latency = std::chrono::milliseconds(500)});
  {
    ScopedFaultInjection scope(&injector);
    BackboneRequest request = ShareRequest(graph, Method::kNoiseCorrected);
    request.timeout = std::chrono::milliseconds(15);
    const auto start = std::chrono::steady_clock::now();
    const Result<BackboneResponse> result = engine.Execute(request);
    const auto elapsed = std::chrono::steady_clock::now() - start;
    ASSERT_FALSE(result.ok());
    EXPECT_TRUE(result.status().IsDeadlineExceeded());
    EXPECT_TRUE(result.status().IsCancellationShaped());
    // Within deadline + one grain (1ms sleep slice + scheduling slack),
    // nowhere near the 500ms the stalled scoring would have served.
    EXPECT_LT(elapsed, std::chrono::milliseconds(200));
  }
  const obs::MetricsSnapshot stats = engine.Metrics();
  EXPECT_EQ(Metric(stats, "engine.deadline_hits"), 1);
  // The taxonomy exemption: a deadline is never negative-cached.
  EXPECT_EQ(Metric(stats, "engine.negative_entries"), 0);
  EXPECT_GE(Metric(stats, "engine.negative_exempt"), 1);

  // The key was never poisoned: the same request without a budget
  // succeeds on the first try (injection scope has ended).
  const Result<BackboneResponse> retry =
      engine.Execute(ShareRequest(graph, Method::kNoiseCorrected));
  ASSERT_TRUE(retry.ok());
  EXPECT_EQ(Metric(engine, "engine.negative_hits"), 0);
}

TEST(BackboneEngineFaultTest, CallerCancelTokenStopsTheRequest) {
  BackboneEngine engine;
  const uint64_t graph = engine.AddGraph(BenchGraph(81));
  FaultInjector injector(12);
  injector.Configure(FaultSite::kScoringLatency,
                     {.probability = 1.0,
                      .latency = std::chrono::milliseconds(500)});
  ScopedFaultInjection scope(&injector);

  CancelSource source;
  BackboneRequest request = ShareRequest(graph, Method::kDisparityFilter);
  request.cancel = source.token();
  std::optional<Result<BackboneResponse>> result;
  std::thread worker([&] { result = engine.Execute(request); });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  source.Cancel();
  worker.join();
  ASSERT_TRUE(result.has_value());
  ASSERT_FALSE(result->ok());
  EXPECT_TRUE(result->status().IsCancelled());
  const obs::MetricsSnapshot stats = engine.Metrics();
  EXPECT_EQ(Metric(stats, "engine.cancellations"), 1);
  EXPECT_EQ(Metric(stats, "engine.negative_entries"), 0);
  EXPECT_GE(Metric(stats, "engine.negative_exempt"), 1);
}

TEST(BackboneEngineFaultTest, TransientFailuresRetryThenSucceed) {
  BackboneEngine engine;  // default max_retries = 3
  const uint64_t graph = engine.AddGraph(BenchGraph(82));
  FaultInjector injector(13);
  // Exactly the first two attempts fail; the third succeeds.
  injector.Configure(FaultSite::kScoringFailure,
                     {.probability = 1.0, .max_injections = 2});
  ScopedFaultInjection scope(&injector);
  const Result<BackboneResponse> result =
      engine.Execute(ShareRequest(graph, Method::kNoiseCorrected));
  ASSERT_TRUE(result.ok());
  const obs::MetricsSnapshot stats = engine.Metrics();
  EXPECT_EQ(Metric(stats, "engine.retries"), 2);
  // Only the successful attempt scored.
  EXPECT_EQ(Metric(stats, "engine.scores_computed"), 1);
  EXPECT_EQ(Metric(stats, "engine.negative_entries"), 0);
}

TEST(BackboneEngineFaultTest, ExhaustedRetriesAreNegativeCached) {
  BackboneEngine engine;
  const uint64_t graph = engine.AddGraph(BenchGraph(83));
  FaultInjector injector(14);
  injector.Configure(FaultSite::kScoringFailure, {.probability = 1.0});
  {
    ScopedFaultInjection scope(&injector);
    const Result<BackboneResponse> result =
        engine.Execute(ShareRequest(graph, Method::kNaiveThreshold));
    ASSERT_FALSE(result.ok());
    EXPECT_TRUE(result.status().IsUnavailable());
    EXPECT_TRUE(result.status().IsTransient());
  }
  const obs::MetricsSnapshot stats = engine.Metrics();
  // 1 attempt + 3 re-attempts, all injected; transient-but-exhausted
  // is negative-cached.
  EXPECT_EQ(Metric(stats, "engine.retries"), 3);
  EXPECT_EQ(Metric(stats, "engine.negative_entries"), 1);

  // Injection is gone, but the negative cache answers until cleared.
  ASSERT_FALSE(engine.Execute(ShareRequest(graph, Method::kNaiveThreshold))
                   .ok());
  EXPECT_EQ(Metric(engine, "engine.negative_hits"), 1);
  engine.ClearNegativeCache();
  ASSERT_TRUE(engine.Execute(ShareRequest(graph, Method::kNaiveThreshold))
                  .ok());
}

// ---------------------------------------------------------------------------
// Admission control and backpressure.
// ---------------------------------------------------------------------------

/// Waits until the dispatcher has popped whatever it is working on, so
/// the next Submit lands in a queue of known depth.
void AwaitQueueDrainedToDepth(const BackboneEngine& engine, int64_t depth) {
  for (int spin = 0; spin < 2000; ++spin) {
    if (Metric(engine, "engine.queue_depth") <= depth) return;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  FAIL() << "queue never drained to depth " << depth;
}

TEST(BackboneEngineFaultTest, BoundedQueueRejectsNewBatches) {
  BackboneEngineOptions options;
  options.max_queued_batches = 1;
  options.overload_policy = OverloadPolicy::kRejectNew;
  BackboneEngine engine(options);
  const uint64_t graph = engine.AddGraph(BenchGraph(84));
  FaultInjector injector(15);
  // Stall the dispatcher on the first batch only, long enough to pile up.
  injector.Configure(FaultSite::kDispatcherStall,
                     {.probability = 1.0,
                      .latency = std::chrono::milliseconds(300),
                      .max_injections = 1});
  ScopedFaultInjection scope(&injector);

  const std::vector<BackboneRequest> batch{
      ShareRequest(graph, Method::kNaiveThreshold)};
  auto first = engine.Submit(batch);
  AwaitQueueDrainedToDepth(engine, 0);  // dispatcher holds it, stalled
  auto queued = engine.Submit(batch);   // fills the 1-deep queue
  auto rejected = engine.Submit(batch);  // bounces

  const auto refused = rejected.get();
  ASSERT_EQ(refused.size(), 1u);
  ASSERT_FALSE(refused[0].ok());
  EXPECT_TRUE(refused[0].status().IsResourceExhausted());
  EXPECT_EQ(Metric(engine, "engine.rejected_batches"), 1);

  // The accepted work still completes exactly.
  for (auto* future : {&first, &queued}) {
    for (const auto& result : future->get()) EXPECT_TRUE(result.ok());
  }
  EXPECT_EQ(Metric(engine, "engine.shed_batches"), 0);
}

TEST(BackboneEngineFaultTest, ShedOldestFailsTheQueuedBatch) {
  BackboneEngineOptions options;
  options.max_queued_batches = 1;
  options.overload_policy = OverloadPolicy::kShedOldest;
  BackboneEngine engine(options);
  const uint64_t graph = engine.AddGraph(BenchGraph(85));
  FaultInjector injector(16);
  injector.Configure(FaultSite::kDispatcherStall,
                     {.probability = 1.0,
                      .latency = std::chrono::milliseconds(300),
                      .max_injections = 1});
  ScopedFaultInjection scope(&injector);

  const std::vector<BackboneRequest> batch{
      ShareRequest(graph, Method::kNaiveThreshold)};
  auto first = engine.Submit(batch);
  AwaitQueueDrainedToDepth(engine, 0);
  auto shed = engine.Submit(batch);      // queued...
  auto fresh = engine.Submit(batch);     // ...then shed by this one

  const auto shed_results = shed.get();  // resolves immediately
  ASSERT_EQ(shed_results.size(), 1u);
  ASSERT_FALSE(shed_results[0].ok());
  EXPECT_TRUE(shed_results[0].status().IsUnavailable());
  EXPECT_EQ(Metric(engine, "engine.shed_batches"), 1);

  for (auto* future : {&first, &fresh}) {
    for (const auto& result : future->get()) EXPECT_TRUE(result.ok());
  }
  EXPECT_EQ(Metric(engine, "engine.rejected_batches"), 0);
}

TEST(BackboneEngineFaultTest, InflightLimitRefusesNewColdScorings) {
  BackboneEngineOptions options;
  options.max_inflight_scores = 1;
  BackboneEngine engine(options);
  const uint64_t graph = engine.AddGraph(BenchGraph(86));
  FaultInjector injector(17);
  // Only the first scoring stalls (the probe below must run unstalled).
  injector.Configure(FaultSite::kScoringLatency,
                     {.probability = 1.0,
                      .latency = std::chrono::milliseconds(400),
                      .max_injections = 1});
  ScopedFaultInjection scope(&injector);

  std::optional<Result<BackboneResponse>> slow;
  std::thread worker([&] {
    slow = engine.Execute(ShareRequest(graph, Method::kNoiseCorrected));
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  // A second *key* is refused while the first scoring occupies the slot.
  const Result<BackboneResponse> refused =
      engine.Execute(ShareRequest(graph, Method::kDisparityFilter));
  ASSERT_FALSE(refused.ok());
  EXPECT_TRUE(refused.status().IsResourceExhausted());
  worker.join();
  ASSERT_TRUE(slow.has_value());
  EXPECT_TRUE(slow->ok());
  EXPECT_EQ(Metric(engine, "engine.inflight_rejected"), 1);

  // The refusal was about engine load, not the key: it works now.
  EXPECT_TRUE(
      engine.Execute(ShareRequest(graph, Method::kDisparityFilter)).ok());
  EXPECT_EQ(Metric(engine, "engine.negative_hits"), 0);
}

TEST(BackboneEngineFaultTest, JoinerInheritingAForeignDeadlineScoresItself) {
  // A starter stalls in an injected sleep and dies of its own short
  // deadline; a joiner without a deadline that coalesced onto it must not
  // inherit that failure. It re-enters the resolve loop, scores the key
  // itself and answers exactly: once through Execute, once through the
  // ExecuteBatch fan-out (two keys on two threads, so the joiner's future
  // is recorded in phase 1 and awaited afterwards).
  const Graph graph = BenchGraph(92);
  const Result<ScoredEdges> scored =
      RunMethod(Method::kNoiseCorrected, graph);
  ASSERT_TRUE(scored.ok());
  const BackboneMask expected = TopShare(*scored, 0.3);
  for (const bool batch : {false, true}) {
    SCOPED_TRACE(batch ? "ExecuteBatch" : "Execute");
    BackboneEngineOptions options;
    options.num_threads = 2;
    BackboneEngine engine(options);
    const uint64_t fingerprint = engine.AddGraph(BenchGraph(92));
    // The batch's second key, warmed before any fault is armed.
    const BackboneRequest warm =
        ShareRequest(fingerprint, Method::kNaiveThreshold);
    if (batch) {
      ASSERT_TRUE(engine.Execute(warm).ok());
    }
    const int64_t computed_before = Metric(engine, "engine.scores_computed");

    FaultInjector injector(21);
    injector.Configure(FaultSite::kScoringLatency,
                       {.probability = 1.0,
                        .latency = std::chrono::seconds(10),
                        .max_injections = 1});
    ScopedFaultInjection scope(&injector);
    BackboneRequest starter =
        ShareRequest(fingerprint, Method::kNoiseCorrected);
    starter.timeout = std::chrono::milliseconds(300);
    std::optional<Result<BackboneResponse>> started;
    std::thread worker([&] { started = engine.Execute(starter); });
    const auto give_up =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (Metric(engine, "engine.inflight_scores") < 1 &&
           std::chrono::steady_clock::now() < give_up) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    const int64_t inflight = Metric(engine, "engine.inflight_scores");

    const BackboneRequest joiner =
        ShareRequest(fingerprint, Method::kNoiseCorrected);
    std::vector<Result<BackboneResponse>> results;
    if (batch) {
      results = engine.ExecuteBatch(std::vector<BackboneRequest>{joiner, warm});
    } else {
      results.push_back(engine.Execute(joiner));
    }
    worker.join();  // before any assertion can leave the scope
    EXPECT_EQ(inflight, 1);
    ASSERT_EQ(results.size(), batch ? 2u : 1u);
    if (batch) {
      EXPECT_TRUE(results[1].ok());
    }
    const Result<BackboneResponse>& joined = results[0];
    ASSERT_TRUE(started.has_value());
    ASSERT_FALSE(started->ok());
    EXPECT_TRUE(started->status().IsDeadlineExceeded());
    ASSERT_TRUE(joined.ok()) << joined.status().message();
    EXPECT_FALSE(joined->cache_hit);
    EXPECT_EQ(joined->kept_edges, MaskToEdgeIds(expected));
    EXPECT_EQ(joined->kept, expected.kept);
    // The starter died in the injected sleep, before it scored: the one
    // scoring is the joiner's.
    EXPECT_EQ(Metric(engine, "engine.scores_computed"), computed_before + 1);
    EXPECT_GE(Metric(engine, "engine.coalesced_waits"), 1);
  }
}

TEST(BackboneEngineFaultTest, QueueDelayCountsAgainstSubmitDeadlines) {
  BackboneEngine engine;
  const uint64_t graph = engine.AddGraph(BenchGraph(87));
  FaultInjector injector(18);
  injector.Configure(FaultSite::kDispatcherStall,
                     {.probability = 1.0,
                      .latency = std::chrono::milliseconds(100),
                      .max_injections = 1});
  ScopedFaultInjection scope(&injector);

  BackboneRequest request = ShareRequest(graph, Method::kNaiveThreshold);
  request.timeout = std::chrono::milliseconds(10);
  const auto results =
      engine.Submit(std::vector<BackboneRequest>{request}).get();
  ASSERT_EQ(results.size(), 1u);
  ASSERT_FALSE(results[0].ok());
  // Armed at Submit, expired in the (stalled) queue: pre-answered without
  // ever scoring.
  EXPECT_TRUE(results[0].status().IsDeadlineExceeded());
  EXPECT_EQ(Metric(engine, "engine.scores_computed"), 0);
  EXPECT_GE(Metric(engine, "engine.deadline_hits"), 1);
}

// ---------------------------------------------------------------------------
// Shutdown with queued work (regression: futures must never dangle).
// ---------------------------------------------------------------------------

TEST(BackboneEngineFaultTest, DestructionResolvesQueuedSubmitFutures) {
  FaultInjector injector(19);
  injector.Configure(FaultSite::kDispatcherStall,
                     {.probability = 1.0,
                      .latency = std::chrono::milliseconds(400)});
  ScopedFaultInjection scope(&injector);

  std::vector<std::future<std::vector<Result<BackboneResponse>>>> futures;
  {
    BackboneEngine engine;
    const uint64_t graph = engine.AddGraph(BenchGraph(88));
    for (int i = 0; i < 4; ++i) {
      futures.push_back(engine.Submit(std::vector<BackboneRequest>{
          ShareRequest(graph, Method::kNoiseCorrected)}));
    }
    // Destructor runs with the dispatcher stalled on the first batch and
    // the rest queued.
  }
  for (auto& future : futures) {
    ASSERT_EQ(future.wait_for(std::chrono::seconds(5)),
              std::future_status::ready);
    for (const auto& result : future.get()) {
      if (result.ok()) continue;
      // A queued batch is cancelled with a typed status; the stalled one
      // may also surface the shutdown cancellation from its scoring.
      EXPECT_TRUE(result.status().IsUnavailable() ||
                  result.status().IsCancellationShaped())
          << result.status().ToString();
    }
  }
}

// ---------------------------------------------------------------------------
// Negative-cache TTL expiry and concurrent ClearNegativeCache.
// ---------------------------------------------------------------------------

TEST(BackboneEngineFaultTest, NegativeCacheTtlExpiresAndRearms) {
  BackboneEngineOptions options;
  options.negative_ttl = std::chrono::milliseconds(50);
  BackboneEngine engine(options);
  const uint64_t graph = engine.AddGraph(BenchGraph(89));

  // Deterministic failure: the HSS cost guard (|V| * |E| > 1).
  BackboneRequest request =
      ShareRequest(graph, Method::kHighSalienceSkeleton);
  request.score_options.hss_max_cost = 1;

  ASSERT_FALSE(engine.Execute(request).ok());
  EXPECT_EQ(Metric(engine, "engine.negative_entries"), 1);
  ASSERT_FALSE(engine.Execute(request).ok());
  // Answered from memory.
  EXPECT_EQ(Metric(engine, "engine.scores_computed"), 1);
  EXPECT_EQ(Metric(engine, "engine.negative_hits"), 1);

  std::this_thread::sleep_for(std::chrono::milliseconds(80));
  // Expired, not yet swept.
  EXPECT_EQ(Metric(engine, "engine.negative_entries"), 0);
  ASSERT_FALSE(engine.Execute(request).ok());
  // TTL lapsed: re-attempted.
  EXPECT_EQ(Metric(engine, "engine.scores_computed"), 2);
  EXPECT_EQ(Metric(engine, "engine.negative_hits"), 1);
}

TEST(BackboneEngineFaultTest, ClearNegativeCacheUnderConcurrentSubmitLoad) {
  BackboneEngine engine;
  const uint64_t graph = engine.AddGraph(BenchGraph(90));

  BackboneRequest good = ShareRequest(graph, Method::kNaiveThreshold);
  BackboneRequest bad = ShareRequest(graph, Method::kHighSalienceSkeleton);
  bad.score_options.hss_max_cost = 1;

  std::atomic<int64_t> good_failures{0}, bad_successes{0};
  constexpr int kThreads = 4;
  constexpr int kBatchesPerThread = 20;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&] {
      for (int i = 0; i < kBatchesPerThread; ++i) {
        auto results =
            engine.Submit(std::vector<BackboneRequest>{good, bad}).get();
        if (!results[0].ok()) good_failures.fetch_add(1);
        if (results[1].ok()) bad_successes.fetch_add(1);
      }
    });
  }
  // Hammer the clear while the submits run: entries appear and vanish,
  // in-flight failures re-insert concurrently.
  for (int i = 0; i < 200; ++i) {
    engine.ClearNegativeCache();
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  for (std::thread& worker : workers) worker.join();

  // Whatever the interleaving: good requests always succeed, the guarded
  // HSS key always fails (from the negative cache or a fresh attempt).
  EXPECT_EQ(good_failures.load(), 0);
  EXPECT_EQ(bad_successes.load(), 0);
  ASSERT_TRUE(engine.Execute(good).ok());
  const Result<BackboneResponse> still_bad = engine.Execute(bad);
  ASSERT_FALSE(still_bad.ok());
  EXPECT_TRUE(still_bad.status().IsFailedPrecondition());
}

// ---------------------------------------------------------------------------
// Graceful degradation.
// ---------------------------------------------------------------------------

TEST(BackboneEngineFaultTest, DegradedRequestServedFromWarmAncestor) {
  BackboneEngineOptions options;
  options.enable_delta_rescore = false;  // force the (stalled) full path
  BackboneEngine engine(options);
  const Graph base_graph = IntWeightGraph(91);
  const uint64_t base = engine.AddGraph(base_graph);
  const uint64_t revision =
      engine.AddGraphRevision(TransferWeight(base_graph, 6, 3), base);

  const Result<BackboneResponse> warm =
      engine.Execute(ShareRequest(base, Method::kNoiseCorrected));
  ASSERT_TRUE(warm.ok());

  FaultInjector injector(20);
  injector.Configure(FaultSite::kScoringLatency,
                     {.probability = 1.0,
                      .latency = std::chrono::milliseconds(400)});
  ScopedFaultInjection scope(&injector);

  BackboneRequest request = ShareRequest(revision, Method::kNoiseCorrected);
  request.timeout = std::chrono::milliseconds(10);

  // Without the opt-in, the lapse is a plain typed failure.
  const Result<BackboneResponse> strict = engine.Execute(request);
  ASSERT_FALSE(strict.ok());
  EXPECT_TRUE(strict.status().IsDeadlineExceeded());

  // With it, the stale-but-exact ancestor entry answers, flagged, and the
  // exact recompute is queued behind the client.
  request.allow_degraded = true;
  const Result<BackboneResponse> degraded = engine.Execute(request);
  ASSERT_TRUE(degraded.ok());
  EXPECT_TRUE(degraded->degraded);
  EXPECT_EQ(degraded->degraded_from, base);
  EXPECT_EQ(degraded->kept_edges, warm->kept_edges);
  EXPECT_EQ(degraded->coverage, warm->coverage);
  const obs::MetricsSnapshot stats = engine.Metrics();
  EXPECT_GE(Metric(stats, "engine.degraded_served"), 1);
  EXPECT_GE(Metric(stats, "engine.background_refreshes"), 1);
}

TEST(BackboneEngineFaultTest, DegradedServeBuildsAProfileOnlyForSweep) {
  BackboneEngineOptions options;
  options.enable_delta_rescore = false;  // force the (stalled) full path
  BackboneEngine engine(options);
  const Graph base_graph = IntWeightGraph(92);
  const uint64_t base = engine.AddGraph(base_graph);
  const uint64_t swept_revision =
      engine.AddGraphRevision(TransferWeight(base_graph, 6, 4), base);
  const uint64_t point_revision =
      engine.AddGraphRevision(TransferWeight(base_graph, 6, 5), base);
  // The ancestor entry comes from a cold TopShare: it holds no profile.
  const Result<BackboneResponse> warm =
      engine.Execute(ShareRequest(base, Method::kNoiseCorrected));
  ASSERT_TRUE(warm.ok());

  FaultInjector injector(21);
  injector.Configure(FaultSite::kScoringLatency,
                     {.probability = 1.0,
                      .latency = std::chrono::milliseconds(400)});
  ScopedFaultInjection scope(&injector);

  // A point kind is served from the profile-less ancestor alone.
  BackboneRequest point =
      ShareRequest(point_revision, Method::kNoiseCorrected);
  point.kind = RequestKind::kCoveragePoint;
  point.timeout = std::chrono::milliseconds(10);
  point.allow_degraded = true;
  const Result<BackboneResponse> served = engine.Execute(point);
  ASSERT_TRUE(served.ok());
  EXPECT_TRUE(served->degraded);
  EXPECT_EQ(served->coverage, warm->coverage);
  EXPECT_EQ(served->weight_share, warm->weight_share);
  EXPECT_EQ(Metric(engine, "engine.profiles_built"), 0);
  engine.WaitIdle();  // its refresh is a cold point request: no profile
  EXPECT_EQ(Metric(engine, "engine.profiles_built"), 0);

  // A sweep needs the profile: the degraded serve builds the ancestor's,
  // once, and answers as the ancestor's own sweep does.
  BackboneRequest sweep =
      ShareRequest(swept_revision, Method::kNoiseCorrected);
  sweep.kind = RequestKind::kSweep;
  sweep.shares = {0.2, 0.6};
  sweep.timeout = std::chrono::milliseconds(10);
  sweep.allow_degraded = true;
  const Result<BackboneResponse> swept = engine.Execute(sweep);
  ASSERT_TRUE(swept.ok());
  EXPECT_TRUE(swept->degraded);
  EXPECT_EQ(swept->degraded_from, base);
  EXPECT_EQ(Metric(engine, "engine.profiles_built"), 1);
  BackboneRequest base_sweep = sweep;
  base_sweep.graph = base;
  base_sweep.allow_degraded = false;
  const Result<BackboneResponse> direct = engine.Execute(base_sweep);
  ASSERT_TRUE(direct.ok());
  EXPECT_TRUE(direct->cache_hit);
  EXPECT_EQ(swept->sweep, direct->sweep);
  EXPECT_EQ(swept->connect_k, direct->connect_k);
  EXPECT_EQ(Metric(engine, "engine.profiles_built"), 1);
  engine.WaitIdle();  // the exact refresh is a cold sweep: it builds one
  EXPECT_EQ(Metric(engine, "engine.profiles_built"), 2);
}

TEST(BackboneEngineFaultTest, WaitIdleDrainsTheDegradedServesRefresh) {
  BackboneEngineOptions options;
  options.enable_delta_rescore = false;  // force the (stalled) full path
  BackboneEngine engine(options);
  const Graph base_graph = IntWeightGraph(93);
  const uint64_t base = engine.AddGraph(base_graph);
  const uint64_t revision =
      engine.AddGraphRevision(TransferWeight(base_graph, 6, 4), base);
  ASSERT_TRUE(engine.Execute(ShareRequest(base, Method::kNoiseCorrected))
                  .ok());

  // Only the client's own scoring stalls; the background refresh it
  // queues draws clean and computes the exact score.
  FaultInjector injector(22);
  injector.Configure(FaultSite::kScoringLatency,
                     {.probability = 1.0,
                      .latency = std::chrono::milliseconds(400),
                      .max_injections = 1});
  ScopedFaultInjection scope(&injector);
  BackboneRequest request = ShareRequest(revision, Method::kNoiseCorrected);
  request.timeout = std::chrono::milliseconds(10);
  request.allow_degraded = true;
  const Result<BackboneResponse> degraded = engine.Execute(request);
  ASSERT_TRUE(degraded.ok());
  ASSERT_TRUE(degraded->degraded);

  engine.WaitIdle();
  const obs::MetricsSnapshot stats = engine.Metrics();
  EXPECT_EQ(Metric(stats, "engine.queue_depth"), 0);
  EXPECT_EQ(Metric(stats, "engine.background_refreshes"), 1);

  const Result<BackboneResponse> exact =
      engine.Execute(ShareRequest(revision, Method::kNoiseCorrected));
  ASSERT_TRUE(exact.ok());
  EXPECT_FALSE(exact->degraded);
  EXPECT_TRUE(exact->cache_hit);
}

TEST(BackboneEngineFaultTest, DegradedHssFallsBackToSampledApproximation) {
  BackboneEngineOptions options;
  options.degraded_hss_sample = 32;
  BackboneEngine engine(options);
  const uint64_t graph = engine.AddGraph(BenchGraph(92));

  // Reference: what an explicit sampled request computes (same seed).
  BackboneEngine reference_engine;
  const uint64_t ref_graph = reference_engine.AddGraph(BenchGraph(92));
  BackboneRequest sampled =
      ShareRequest(ref_graph, Method::kHighSalienceSkeleton);
  sampled.score_options.hss_source_sample_size = 32;
  const Result<BackboneResponse> reference =
      reference_engine.Execute(sampled);
  ASSERT_TRUE(reference.ok());

  FaultInjector injector(21);
  // Stall only the exact scoring; the sampled fallback (the second draw)
  // runs clean.
  injector.Configure(FaultSite::kScoringLatency,
                     {.probability = 1.0,
                      .latency = std::chrono::milliseconds(400),
                      .max_injections = 1});
  ScopedFaultInjection scope(&injector);

  BackboneRequest request = ShareRequest(graph, Method::kHighSalienceSkeleton);
  request.timeout = std::chrono::milliseconds(10);
  request.allow_degraded = true;
  const Result<BackboneResponse> degraded = engine.Execute(request);
  ASSERT_TRUE(degraded.ok());
  EXPECT_TRUE(degraded->degraded);
  EXPECT_EQ(degraded->degraded_from, graph);
  // The approximation is itself exact *for its declared sample*: it is
  // bit-identical to the explicitly-sampled request, never a silently
  // perturbed exact answer.
  EXPECT_EQ(degraded->kept_edges, reference->kept_edges);
  EXPECT_EQ(degraded->coverage, reference->coverage);
  EXPECT_GE(Metric(engine, "engine.degraded_served"), 1);
}

TEST(GraphStoreTest, InternRevisionDiffsAgainstResidentBase) {
  GraphStore store;
  const Graph base = IntWeightGraph(17, /*num_nodes=*/60);
  const Graph next = TransferWeight(base, 3, 21);
  const StoredGraph stored_base = store.Intern(base);

  StoredRevision revision = store.InternRevision(next, stored_base.fingerprint);
  ASSERT_TRUE(revision.delta.ok());
  EXPECT_TRUE((*revision.delta)->totals_equal);
  EXPECT_EQ((*revision.delta)->base_edges, base.num_edges());
  EXPECT_EQ(revision.stored.fingerprint, GraphFingerprint(next));
  EXPECT_EQ(store.Find(revision.stored.fingerprint), revision.stored.graph);
  // Identity mirrors the direct computation.
  const Result<GraphDelta> direct = ComputeGraphDelta(base, next);
  ASSERT_TRUE(direct.ok());
  EXPECT_EQ((*revision.delta)->AffectedEdges(), direct->AffectedEdges());

  // An unknown base: no delta, and the child is still interned under its
  // full hash.
  const Graph other = TransferWeight(base, 3, 22);
  revision = store.InternRevision(other, 12345u);
  EXPECT_EQ(revision.delta.status().code(), Status::Code::kNotFound);
  EXPECT_EQ(revision.stored.fingerprint, GraphFingerprint(other));
  EXPECT_NE(store.Find(revision.stored.fingerprint), nullptr);
}


TEST(GraphStoreTest, LineageIsPricedOnTheChildAndEvictedWithIt) {
  const Graph base = IntWeightGraph(17, /*num_nodes=*/60);
  const int64_t one = ApproxGraphBytes(base);
  {
    GraphStore store;
    obs::MetricRegistry store_metrics;
    store.RegisterMetrics(store_metrics, "store", &store);
    const uint64_t base_fp = store.Intern(base).fingerprint;
    const StoredRevision child =
        store.InternRevision(TransferWeight(base, 3, 21), base_fp);
    const uint64_t child_fp = child.stored.fingerprint;
    ASSERT_TRUE(child.delta.ok());
    const GraphLineage lineage = store.LineageOf(child_fp);
    EXPECT_EQ(lineage.parent, base_fp);
    EXPECT_EQ(lineage.delta, *child.delta);  // the one shared record
    EXPECT_EQ(store.LineageOf(base_fp).parent, 0u);
    EXPECT_EQ(store.LineageOf(0xdeadbeef).parent, 0u);
    EXPECT_EQ(Metric(store_metrics, "store.lineage_entries"), 1);
    EXPECT_EQ(Metric(store_metrics, "store.resident_bytes"),
              2 * one + lineage.delta->ApproxBytes());

    // A revision that dedupes to its own base records no lineage.
    EXPECT_EQ(store.InternRevision(base, base_fp).stored.fingerprint,
              base_fp);
    EXPECT_EQ(store.LineageOf(base_fp).parent, 0u);

    // A re-registration overwrites, and keeps the parent when the delta
    // is refused (here: the base is not resident). The old delta's bytes
    // leave with it.
    const StoredRevision again =
        store.InternRevision(TransferWeight(base, 3, 21), 12345u);
    EXPECT_EQ(again.stored.fingerprint, child_fp);
    EXPECT_EQ(again.delta.status().code(), Status::Code::kNotFound);
    EXPECT_EQ(store.LineageOf(child_fp).parent, 12345u);
    EXPECT_EQ(store.LineageOf(child_fp).delta, nullptr);
    EXPECT_EQ(Metric(store_metrics, "store.resident_bytes"), 2 * one);

    // LineageOf leaves recency alone: the base stays least recently used.
    ASSERT_EQ(store.ResidentGraphs().front().fingerprint, base_fp);
    store.LineageOf(base_fp);
    EXPECT_EQ(store.ResidentGraphs().front().fingerprint, base_fp);
  }

  // Under a budget of three graphs, the record leaves with its child.
  GraphStore store(3 * one);
  obs::MetricRegistry store_metrics;
  store.RegisterMetrics(store_metrics, "store", &store);
  const uint64_t base_fp = store.Intern(base).fingerprint;
  const Graph child = TransferWeight(base, 3, 22);
  const uint64_t child_fp =
      store.InternRevision(child, base_fp).stored.fingerprint;
  store.Intern(TransferWeight(base, 3, 23));  // sheds the base
  EXPECT_EQ(store.Find(base_fp), nullptr);
  EXPECT_EQ(store.LineageOf(child_fp).parent, base_fp);
  store.Intern(TransferWeight(base, 3, 24));  // sheds the child
  EXPECT_EQ(store.Find(child_fp), nullptr);
  EXPECT_EQ(store.LineageOf(child_fp).parent, 0u);
  EXPECT_EQ(Metric(store_metrics, "store.lineage_entries"), 0);
  EXPECT_LE(Metric(store_metrics, "store.resident_bytes"), 3 * one);
  // Re-interned by plain Intern, the child has no lineage.
  EXPECT_EQ(store.Intern(child).fingerprint, child_fp);
  EXPECT_EQ(store.LineageOf(child_fp).parent, 0u);
}

// ---------------------------------------------------------------------------
// One request path: Execute, ExecuteBatch and Submit answer alike.
// ---------------------------------------------------------------------------

enum class EntryPoint { kExecute, kBatch, kSubmit };
constexpr EntryPoint kEntryPoints[] = {EntryPoint::kExecute,
                                       EntryPoint::kBatch, EntryPoint::kSubmit};

std::vector<Result<BackboneResponse>> Send(
    BackboneEngine& engine, EntryPoint entry,
    const std::vector<BackboneRequest>& requests) {
  if (entry == EntryPoint::kBatch) return engine.ExecuteBatch(requests);
  if (entry == EntryPoint::kSubmit) return engine.Submit(requests).get();
  std::vector<Result<BackboneResponse>> results;
  for (const BackboneRequest& request : requests) {
    results.push_back(engine.Execute(request));
  }
  return results;
}

TEST(EntryPointIdentityTest, EveryEntryPointAnswersAlikeColdAndWarm) {
  // Indexed [warm][request]: Execute's answers at one thread.
  std::vector<std::vector<Result<BackboneResponse>>> reference;
  for (const int threads : {1, 4}) {
    for (const EntryPoint entry : kEntryPoints) {
      BackboneEngineOptions options;
      options.num_threads = threads;
      BackboneEngine engine(options);
      const uint64_t graph = engine.AddGraph(BenchGraph(47));
      const uint64_t next = engine.AddGraph(BenchGraph(48));
      // Every kind under NC, DF and NT, then a repeated key, an unknown
      // fingerprint and a NaN share.
      std::vector<BackboneRequest> requests;
      for (const Method method : {Method::kNoiseCorrected,
                                  Method::kDisparityFilter,
                                  Method::kNaiveThreshold}) {
        BackboneRequest request = ShareRequest(graph, method, 0.5);
        request.k = 37;
        request.threshold = 0.5;
        request.shares = {0.1, 0.5, 0.9};
        request.next_graph = next;
        for (int kind = 0; kind < kNumRequestKinds; ++kind) {
          request.kind = static_cast<RequestKind>(kind);
          requests.push_back(request);
        }
      }
      requests.push_back(requests[1]);
      requests.push_back(ShareRequest(0x1234, Method::kNoiseCorrected));
      requests.push_back(
          ShareRequest(graph, Method::kNoiseCorrected, std::nan("")));
      for (const bool warm : {false, true}) {
        std::vector<Result<BackboneResponse>> got =
            Send(engine, entry, requests);
        if (reference.size() < 2) reference.push_back(got);
        const std::vector<Result<BackboneResponse>>& want = reference[warm];
        ASSERT_EQ(got.size(), want.size());
        EXPECT_TRUE(got[got.size() - 2].status().IsNotFound());
        EXPECT_TRUE(got.back().status().IsInvalidArgument());
        for (size_t i = 0; i + 2 < got.size(); ++i) {
          SCOPED_TRACE(testing::Message() << threads << " threads, entry "
                       << static_cast<int>(entry) << ", warm " << warm);
          ASSERT_TRUE(got[i].ok()) << i << ": " << got[i].status().ToString();
          ExpectSameAnswer(*got[i], *want[i]);
          EXPECT_EQ(got[i]->stability, want[i]->stability);
          // Which cold request of a key resolves it depends on the entry
          // point; in the warm round every request hits.
          EXPECT_TRUE(got[i]->cache_hit || !warm);
        }
      }
    }
  }
}

/// A degradable request on a revision whose base entry is warm, in an
/// engine that scores the revision in full: the road an injected scoring
/// stall sends to the warm ancestor.
BackboneRequest DegradableRevisionRequest(BackboneEngine& engine,
                                          uint64_t* base) {
  const Graph base_graph = IntWeightGraph(94);
  *base = engine.AddGraph(base_graph);
  EXPECT_TRUE(
      engine.Execute(ShareRequest(*base, Method::kNoiseCorrected)).ok());
  BackboneRequest request = ShareRequest(
      engine.AddGraphRevision(TransferWeight(base_graph, 6, 3), *base),
      Method::kNoiseCorrected);
  request.allow_degraded = true;
  return request;
}

TEST(EntryPointIdentityTest, WarmAncestorServesEveryEntryPointTillShutdown) {
  FaultInjector injector(23);
  injector.Configure(FaultSite::kScoringLatency,
                     {.probability = 1.0,
                      .latency = std::chrono::seconds(30)});
  BackboneEngineOptions options;
  options.enable_delta_rescore = false;  // force the (stalled) full path
  std::optional<BackboneResponse> reference;  // Execute's
  for (const EntryPoint entry : kEntryPoints) {
    SCOPED_TRACE(static_cast<int>(entry));
    BackboneEngine engine(options);
    uint64_t base = 0;
    BackboneRequest request = DegradableRevisionRequest(engine, &base);
    request.timeout = std::chrono::milliseconds(10);
    ScopedFaultInjection scope(&injector);
    const std::vector<Result<BackboneResponse>> got =
        Send(engine, entry, {request});
    ASSERT_TRUE(got[0].ok()) << got[0].status().ToString();
    EXPECT_TRUE(got[0]->degraded);
    EXPECT_EQ(got[0]->degraded_from, base);
    if (!reference.has_value()) reference = *got[0];
    EXPECT_EQ(got[0]->kept_edges, reference->kept_edges);
    EXPECT_EQ(Metric(engine, "engine.degraded_served"), 1);
    EXPECT_EQ(Metric(engine, "engine.background_refreshes"), 1);
  }

  // Once shutdown has begun nothing is served degraded: a batch with no
  // budget of its own, stalled until the destructor cancels its scoring,
  // answers that cancellation.
  std::future<std::vector<Result<BackboneResponse>>> future;
  {
    BackboneEngine engine(options);
    uint64_t base = 0;
    const BackboneRequest request = DegradableRevisionRequest(engine, &base);
    ScopedFaultInjection scope(&injector);
    const int64_t stalls = injector.injected(FaultSite::kScoringLatency);
    future = engine.Submit({request});
    while (injector.injected(FaultSite::kScoringLatency) == stalls) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  const std::vector<Result<BackboneResponse>> got = future.get();
  EXPECT_TRUE(got[0].status().IsCancelled()) << got[0].status().ToString();
}

}  // namespace
}  // namespace netbone
