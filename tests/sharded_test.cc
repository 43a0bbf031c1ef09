// Tests for sharded serving (service/sharded_engine.h): fingerprint
// routing determinism at any thread count, revision co-location via
// routing overrides, batch partition/scatter order, prompt table swaps
// while threads execute, stats rollup coherence, and the boot-time
// routing self-heal over per-shard snapshots.

#include "service/sharded_engine.h"

#include <cmath>
#include <cstdint>
#include <filesystem>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "core/registry.h"
#include "core/sweep.h"
#include "gen/erdos_renyi.h"
#include "graph/builder.h"
#include "service/engine.h"
#include "service/fault_injection.h"
#include "service/graph_store.h"
#include "metric_value.h"

namespace netbone {
namespace {

namespace fs = std::filesystem;

Graph IntWeightEr(int num_nodes, uint64_t seed) {
  const auto er = GenerateErdosRenyi(
      {.num_nodes = num_nodes, .average_degree = 3.0, .seed = seed});
  GraphBuilder builder(Directedness::kUndirected);
  builder.ReserveNodes(num_nodes);
  for (const Edge& e : er->edges()) {
    builder.AddEdge(e.src, e.dst, std::floor(e.weight * 3.0) + 2.0);
  }
  return *builder.Build();
}

/// Weight-preserving perturbation so NC deltas stay incremental.
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

BackboneRequest ShareRequest(uint64_t graph, Method method = Method::kNoiseCorrected,
                             double share = 0.3) {
  BackboneRequest request;
  request.graph = graph;
  request.method = method;
  request.kind = RequestKind::kTopShare;
  request.share = share;
  return request;
}

bool SamePayload(const BackboneResponse& a, const BackboneResponse& b) {
  return a.kept_edges == b.kept_edges && a.kept == b.kept &&
         a.coverage == b.coverage && a.weight_share == b.weight_share &&
         a.sweep == b.sweep && a.connect_k == b.connect_k &&
         a.stability == b.stability;
}

/// A graph whose fingerprint routes to `shard` on a fresh `num_shards`
/// engine — found by deterministic seed search.
Graph GraphOnShard(const ShardedBackboneEngine& engine, int shard,
                   int num_nodes, uint64_t start_seed) {
  for (uint64_t seed = start_seed;; ++seed) {
    Graph g = IntWeightEr(num_nodes, seed);
    if (engine.ShardOf(GraphFingerprint(g)) == shard) return g;
  }
}

// ---------------------------------------------------------------------------
// Routing determinism.
// ---------------------------------------------------------------------------

TEST(ShardedEngineTest, RoutingIsDeterministicAcrossInstancesAndThreads) {
  ShardedBackboneEngineOptions options;
  options.num_shards = 4;
  ShardedBackboneEngine a(options);
  ShardedBackboneEngine b(options);

  std::vector<uint64_t> fps;
  for (uint64_t fp = 1; fp <= 64; ++fp) fps.push_back(fp * 0x9E3779B97F4A7C15ULL);

  // Same fingerprint -> same shard on independent engines (pure function
  // of fingerprint and table; both tables are empty).
  for (const uint64_t fp : fps) EXPECT_EQ(a.ShardOf(fp), b.ShardOf(fp));

  // ... and from any number of concurrent readers.
  std::vector<std::vector<int>> per_thread(4);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&a, &fps, &per_thread, t]() {
      for (const uint64_t fp : fps) {
        per_thread[static_cast<size_t>(t)].push_back(a.ShardOf(fp));
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (int t = 1; t < 4; ++t) {
    EXPECT_EQ(per_thread[static_cast<size_t>(t)], per_thread[0]);
  }
}

TEST(ShardedEngineTest, SingleShardBehavesLikeBareEngine) {
  const Graph graph = IntWeightEr(120, 5);

  BackboneEngine bare;
  const uint64_t bare_fp = bare.AddGraph(graph);
  const auto want = bare.Execute(ShareRequest(bare_fp));
  ASSERT_TRUE(want.ok());

  ShardedBackboneEngine sharded;  // defaults: 1 shard
  EXPECT_EQ(sharded.num_shards(), 1);
  const uint64_t fp = sharded.AddGraph(graph);
  EXPECT_EQ(fp, bare_fp);
  EXPECT_EQ(sharded.ShardOf(fp), 0);
  const auto got = sharded.Execute(ShareRequest(fp));
  ASSERT_TRUE(got.ok());
  EXPECT_TRUE(SamePayload(*got, *want));
}

TEST(ShardedEngineTest, RequestForUnknownGraphFailsNotCrashes) {
  ShardedBackboneEngineOptions options;
  options.num_shards = 3;
  ShardedBackboneEngine engine(options);
  const auto response = engine.Execute(ShareRequest(0xDEADBEEFULL));
  EXPECT_FALSE(response.ok());
}

// ---------------------------------------------------------------------------
// Revision co-location.
// ---------------------------------------------------------------------------

TEST(ShardedEngineTest, RevisionIsPinnedToBaseShard) {
  ShardedBackboneEngineOptions options;
  options.num_shards = 4;
  ShardedBackboneEngine engine(options);

  const Graph base = IntWeightEr(150, 21);
  const uint64_t base_fp = engine.AddGraph(base);
  const int home = engine.ShardOf(base_fp);

  // Chain three revisions; every one must land on the base's shard no
  // matter where its own hash points, and each off-hash child must show
  // up as a routing override. The hash shard is read off a fresh engine
  // whose table has no overrides.
  ShardedBackboneEngine hash_oracle(options);
  int64_t off_hash = 0;
  uint64_t parent = base_fp;
  Graph current = base;
  for (int i = 0; i < 3; ++i) {
    current = TransferWeight(current, 4, 31u + static_cast<uint64_t>(i));
    const uint64_t child = engine.AddGraphRevision(current, parent);
    ASSERT_NE(child, parent);
    // The base's shard derived the child's fingerprint from the parent's
    // (the router hashes nothing); a full hash agrees.
    EXPECT_EQ(child, GraphFingerprint(current));
    EXPECT_EQ(engine.ShardOf(child), home);
    // The graph must actually live on that shard, not just route there.
    EXPECT_NE(engine.shard(home).FindGraph(child), nullptr);
    if (hash_oracle.ShardOf(child) != home) ++off_hash;
    parent = child;
  }
  EXPECT_EQ(Metric(engine, "sharded.routing_overrides"), off_hash);
  // Pinned children ride the delta warm path on the home shard.
  ASSERT_TRUE(engine.Execute(ShareRequest(base_fp)).ok());
  const int64_t deltas_before =
      Metric(engine.shard(home), "engine.delta_rescores");
  ASSERT_TRUE(engine.Execute(ShareRequest(parent)).ok());
  EXPECT_GT(Metric(engine.shard(home), "engine.delta_rescores"),
            deltas_before);
}

// ---------------------------------------------------------------------------
// Batch partition and scatter.
// ---------------------------------------------------------------------------

TEST(ShardedEngineTest, BatchResultsComeBackInRequestOrder) {
  ShardedBackboneEngineOptions options;
  options.num_shards = 4;
  ShardedBackboneEngine engine(options);

  std::vector<uint64_t> fps;
  for (int i = 0; i < 6; ++i) {
    fps.push_back(engine.AddGraph(IntWeightEr(100 + 10 * i,
                                              50u + static_cast<uint64_t>(i))));
  }

  // Interleave shards and methods; include one failing request mid-batch.
  std::vector<BackboneRequest> batch;
  for (int round = 0; round < 3; ++round) {
    for (size_t i = 0; i < fps.size(); ++i) {
      batch.push_back(ShareRequest(
          fps[i], round == 1 ? Method::kDisparityFilter
                             : Method::kNoiseCorrected,
          0.2 + 0.1 * static_cast<double>(round)));
    }
  }
  batch.insert(batch.begin() + 7, ShareRequest(0x5151515151ULL));

  // Reference: element-wise sequential execution.
  std::vector<Result<BackboneResponse>> want;
  for (const BackboneRequest& r : batch) want.push_back(engine.Execute(r));

  const auto got = engine.ExecuteBatch(batch);
  ASSERT_EQ(got.size(), batch.size());
  for (size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i].ok(), want[i].ok()) << "index " << i;
    if (got[i].ok()) {
      EXPECT_TRUE(SamePayload(*got[i], *want[i])) << "index " << i;
    }
  }

  auto future = engine.Submit(batch);
  const auto submitted = future.get();
  ASSERT_EQ(submitted.size(), batch.size());
  for (size_t i = 0; i < submitted.size(); ++i) {
    ASSERT_EQ(submitted[i].ok(), want[i].ok()) << "index " << i;
    if (submitted[i].ok()) {
      EXPECT_TRUE(SamePayload(*submitted[i], *want[i])) << "index " << i;
    }
  }
}

// ---------------------------------------------------------------------------
// Table swaps under concurrent clients.
// ---------------------------------------------------------------------------

TEST(ShardedEngineTest, WriterThreadRoutesItsRevisionOnItsNextRequest) {
  ShardedBackboneEngineOptions options;
  options.num_shards = 4;
  ShardedBackboneEngine engine(options);

  // One family per client thread, each child found off its base's hash
  // shard, so routing it by a stale table would miss: the child is
  // interned only on the pinned shard.
  constexpr int kThreads = 4;
  std::vector<uint64_t> bases;
  std::vector<Graph> children;
  for (int t = 0; t < kThreads; ++t) {
    const Graph base =
        IntWeightEr(120 + 10 * t, 800u + static_cast<uint64_t>(t));
    bases.push_back(engine.AddGraph(base));
    for (uint64_t seed = 900;; ++seed) {
      Graph child = TransferWeight(base, 4, seed);
      if (engine.ShardOf(GraphFingerprint(child)) !=
          engine.ShardOf(bases.back())) {
        children.push_back(std::move(child));
        break;
      }
    }
  }

  std::vector<std::thread> clients;
  std::vector<int> routed(kThreads, -1);
  std::vector<int> pinned(kThreads, -2);
  std::vector<int> served(kThreads, 0);
  for (int t = 0; t < kThreads; ++t) {
    clients.emplace_back([&, t]() {
      const size_t i = static_cast<size_t>(t);
      // Load this thread's table cache before the swap.
      (void)engine.Execute(ShareRequest(bases[i]));
      const uint64_t child = engine.AddGraphRevision(children[i], bases[i]);
      served[i] = engine.Execute(ShareRequest(child)).ok() ? 1 : 0;
      routed[i] = engine.ShardOf(child);
      pinned[i] = engine.ShardOf(bases[i]);
    });
  }
  for (std::thread& client : clients) client.join();
  for (int t = 0; t < kThreads; ++t) {
    const size_t i = static_cast<size_t>(t);
    EXPECT_EQ(served[i], 1) << "thread " << t;
    EXPECT_EQ(routed[i], pinned[i]) << "thread " << t;
  }
}

// ---------------------------------------------------------------------------
// Metrics rollup and namespaces.
// ---------------------------------------------------------------------------

TEST(ShardedEngineTest, MetricsRollupSumsShards) {
  ShardedBackboneEngineOptions options;
  options.num_shards = 3;
  ShardedBackboneEngine engine(options);
  std::vector<uint64_t> fps;
  for (int i = 0; i < 5; ++i) {
    fps.push_back(engine.AddGraph(IntWeightEr(110 + 10 * i,
                                              700u + static_cast<uint64_t>(i))));
  }
  for (const uint64_t fp : fps) {
    ASSERT_TRUE(engine.Execute(ShareRequest(fp)).ok());
    ASSERT_TRUE(engine.Execute(ShareRequest(fp)).ok());  // warm hit
  }

  const obs::MetricsSnapshot metrics = engine.Metrics();
  EXPECT_EQ(Metric(metrics, "sharded.shards"), 3);
  // The unprefixed rollup is the sum of the "shard<i>." views, for
  // counters and for the cache/store gauge groups alike.
  for (const char* name : {"engine.requests", "engine.scores_computed",
                           "cache.hits", "store.graphs"}) {
    int64_t per_shard = 0;
    for (int i = 0; i < 3; ++i) {
      per_shard +=
          Metric(metrics, "shard" + std::to_string(i) + "." + name);
    }
    EXPECT_EQ(Metric(metrics, name), per_shard) << name;
  }
  EXPECT_EQ(Metric(metrics, "engine.requests"),
            static_cast<int64_t>(fps.size()) * 2);
  EXPECT_EQ(Metric(metrics, "store.graphs"),
            static_cast<int64_t>(fps.size()));
}

TEST(ShardedEngineTest, MetricsEmitProcessWideFaultGaugesOnce) {
  // Every shard reads the one installed injector, so summing the shards'
  // fault gauges would report N times the injector's own counts.
  FaultInjector injector(/*seed=*/17);
  injector.Configure(FaultSite::kScoringFailure, FaultSpec{.probability = 0.5});
  injector.Configure(FaultSite::kCacheInsertFailure,
                     FaultSpec{.probability = 0.25});
  ScopedFaultInjection scope(&injector);

  ShardedBackboneEngineOptions options;
  options.num_shards = 3;
  ShardedBackboneEngine engine(options);
  for (int i = 0; i < 6; ++i) {
    const uint64_t fp = engine.AddGraph(
        IntWeightEr(110 + 10 * i, 740u + static_cast<uint64_t>(i)));
    (void)engine.Execute(ShareRequest(fp));
  }

  const obs::MetricsSnapshot metrics = engine.Metrics();
  ASSERT_GT(injector.draws(FaultSite::kScoringFailure), 0);
  for (int s = 0; s < kNumFaultSites; ++s) {
    const FaultSite site = static_cast<FaultSite>(s);
    const std::string base = std::string("fault.") + FaultSiteName(site);
    EXPECT_EQ(Metric(metrics, base + ".injected"), injector.injected(site))
        << base;
    EXPECT_EQ(Metric(metrics, base + ".draws"), injector.draws(site))
        << base;
  }
  // Not a per-shard fact: no shard view repeats them.
  for (const obs::MetricsSnapshot::Value& gauge : metrics.gauges) {
    EXPECT_FALSE(gauge.name.starts_with("shard") &&
                 gauge.name.find(".fault.") != std::string::npos)
        << gauge.name;
  }
}

// ---------------------------------------------------------------------------
// Per-shard snapshots and routing self-heal.
// ---------------------------------------------------------------------------

TEST(ShardedEngineTest, WarmRestartRestoresEveryShardAndHealsRouting) {
  const fs::path root =
      fs::temp_directory_path() / "netbone_sharded_test_snap";
  std::error_code ec;
  fs::remove_all(root, ec);

  ShardedBackboneEngineOptions options;
  options.num_shards = 4;
  options.engine.snapshot_dir = root.string();
  options.engine.snapshot_on_shutdown = false;

  uint64_t fp_a = 0, fp_rev = 0, fp_b = 0;
  int hash_shard = -1;
  BackboneResponse want_a, want_rev, want_b;
  {
    ShardedBackboneEngine engine(options);
    const Graph graph_a = GraphOnShard(engine, 2, 130, 800);
    const Graph graph_b = GraphOnShard(engine, 2, 145, 900);
    fp_a = engine.AddGraph(graph_a);
    fp_b = engine.AddGraph(graph_b);
    // A revision whose hash shard is not its base's: pinning puts it on
    // shard 2, and only the boot self-heal can route it there again.
    Graph revision;
    for (uint64_t seed = 99;; ++seed) {
      revision = TransferWeight(graph_a, 4, seed);
      hash_shard = engine.ShardOf(GraphFingerprint(revision));
      if (hash_shard != 2) break;
    }
    fp_rev = engine.AddGraphRevision(std::move(revision), fp_a);
    ASSERT_EQ(engine.ShardOf(fp_rev), 2);
    want_a = *engine.Execute(ShareRequest(fp_a));
    want_rev = *engine.Execute(ShareRequest(fp_rev));
    want_b = *engine.Execute(ShareRequest(fp_b));
    ASSERT_TRUE(engine.WriteSnapshotNow().ok());
  }

  {
    ShardedBackboneEngine engine(options);
    const obs::MetricsSnapshot stats = engine.Metrics();
    EXPECT_GT(Metric(stats, "engine.restored_entries"), 0);
    EXPECT_GT(Metric(stats, "engine.restored_graphs"), 0);
    EXPECT_EQ(Metric(stats, "engine.quarantined_sections"), 0);

    // Self-heal routes the pinned revision to its base's shard, which
    // holds it, not to its hash shard.
    EXPECT_EQ(engine.ShardOf(fp_a), 2);
    EXPECT_EQ(engine.ShardOf(fp_rev), 2);
    EXPECT_EQ(engine.ShardOf(fp_b), 2);
    EXPECT_EQ(engine.shard(hash_shard).FindGraph(fp_rev), nullptr);
    EXPECT_EQ(Metric(stats, "sharded.routing_overrides"), 1);
    EXPECT_EQ(engine.RoutingEpoch(), 1u);
    EXPECT_EQ(Metric(stats, "sharded.routing_epoch"), 1);

    // Fully warm, bit-identical serving from the per-shard snapshots.
    const int64_t sorts_before = ScoreOrder::SortsPerformed();
    const auto got_a = engine.Execute(ShareRequest(fp_a));
    const auto got_rev = engine.Execute(ShareRequest(fp_rev));
    const auto got_b = engine.Execute(ShareRequest(fp_b));
    ASSERT_TRUE(got_a.ok() && got_rev.ok() && got_b.ok());
    EXPECT_TRUE(SamePayload(*got_a, want_a));
    EXPECT_TRUE(SamePayload(*got_rev, want_rev));
    EXPECT_TRUE(SamePayload(*got_b, want_b));
    EXPECT_TRUE(got_a->cache_hit && got_rev->cache_hit && got_b->cache_hit);
    EXPECT_EQ(Metric(engine, "engine.scores_computed"), 0);
    EXPECT_EQ(Metric(engine, "engine.delta_rescores"), 0);
    EXPECT_EQ(ScoreOrder::SortsPerformed(), sorts_before);
  }

  fs::remove_all(root, ec);
}

// ---------------------------------------------------------------------------
// Thread-count independence of the full request path.
// ---------------------------------------------------------------------------

TEST(ShardedEngineTest, ResponsesIdenticalAcrossShardAndThreadCounts) {
  const std::vector<Graph> graphs = {IntWeightEr(130, 41), IntWeightEr(150, 42),
                                     IntWeightEr(170, 43)};

  // Reference from a bare single-engine run.
  std::vector<BackboneResponse> want;
  std::vector<uint64_t> fingerprints;
  {
    BackboneEngine bare;
    for (const Graph& g : graphs) fingerprints.push_back(bare.AddGraph(g));
    for (const uint64_t fp : fingerprints) {
      for (const Method m : {Method::kNoiseCorrected, Method::kDisparityFilter,
                             Method::kNaiveThreshold}) {
        want.push_back(*bare.Execute(ShareRequest(fp, m)));
      }
    }
  }

  for (const int shards : {2, 4}) {
    for (const int threads : {1, 2}) {
      ShardedBackboneEngineOptions options;
      options.num_shards = shards;
      options.engine.num_threads = threads;
      ShardedBackboneEngine engine(options);
      std::vector<uint64_t> fps;
      for (const Graph& g : graphs) fps.push_back(engine.AddGraph(g));
      ASSERT_EQ(fps, fingerprints);
      size_t at = 0;
      for (const uint64_t fp : fps) {
        for (const Method m : {Method::kNoiseCorrected,
                               Method::kDisparityFilter,
                               Method::kNaiveThreshold}) {
          const auto got = engine.Execute(ShareRequest(fp, m));
          ASSERT_TRUE(got.ok());
          EXPECT_TRUE(SamePayload(*got, want[at]))
              << "shards=" << shards << " threads=" << threads
              << " index=" << at;
          ++at;
        }
      }
    }
  }
}

}  // namespace
}  // namespace netbone
