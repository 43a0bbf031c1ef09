// Layer probes of the traced run. Each probe times one layer's public
// functions from outside the engine, on the workload's own inputs, so a
// change in an end-to-end number can be traced to a named layer. The
// engine's internal tracer stays off throughout.

#include <atomic>
#include <cstdio>
#include <optional>
#include <thread>

#include "core/delta_rescore.h"
#include "graph/delta.h"
#include "obs/metrics.h"
#include "service/graph_store.h"
#include "service/score_cache.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr int kReps = 5;        // write-road repetitions (medians)
constexpr int kBatches = 200;   // read-road batches per thread
constexpr int kBatchOps = 256;  // calls per timed batch

/// Keeps a value observable so the timed call cannot be optimized away.
template <typename T>
void Keep(const T& value) {
  asm volatile("" : : "r"(&value) : "memory");
}

/// Median ns per call of `op(i)` over timed batches, run on `threads`
/// threads at once (each with its own batches).
template <typename Op>
double BatchedNs(int threads, const Op& op) {
  std::vector<std::vector<double>> per_thread(static_cast<size_t>(threads));
  std::atomic<int> ready{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      std::vector<double>& out = per_thread[static_cast<size_t>(t)];
      ++ready;
      while (ready.load() < threads) std::this_thread::yield();
      size_t i = static_cast<size_t>(t) * 7919;
      for (int b = 0; b < kBatches; ++b) {
        const int64_t start = NowNs();
        for (int k = 0; k < kBatchOps; ++k) op(i++);
        out.push_back(static_cast<double>(NowNs() - start) / kBatchOps);
      }
    });
  }
  for (std::thread& worker : workers) worker.join();
  std::vector<double> all;
  for (const std::vector<double>& v : per_thread) {
    all.insert(all.end(), v.begin(), v.end());
  }
  return Median(all);
}

void Fail(LayerTimes* out, const char* what) {
  std::fprintf(stderr, "perfbench: layer probe failed: %s\n", what);
  ++out->probe_failures;
}

}  // namespace

void ProbeReadRoad(nb::BackboneEngine& engine, const ReadSet& set,
                   LayerTimes* out) {
  const int threads = HostThreads();
  const std::vector<int>& sequence = set.sequences[0];

  // store: Find on a store holding the same graphs, timing on as in the
  // engine.
  nb::GraphStore store;
  store.set_metrics_timing(true);
  for (const auto& graph : set.graphs) store.Intern(nb::Graph(*graph));
  std::vector<uint64_t> find_keys;
  for (const int r : sequence) {
    find_keys.push_back(set.requests[static_cast<size_t>(r)].graph);
  }
  out->store_find_ns = BatchedNs(1, [&](size_t i) {
    Keep(store.Find(find_keys[i % find_keys.size()]));
  });

  // cache: Get on a cache holding the same entries.
  nb::ScoreCache cache(/*byte_budget=*/0);
  cache.set_metrics_timing(true);
  for (size_t i = 0; i < set.refs.size(); ++i) {
    const Reference& ref = *set.refs[i];
    cache.Put(nb::MakeScoreKey(set.fingerprints[i / kMethods.size()],
                               kMethods[i % kMethods.size()], {}),
              nb::CachedScore::Build(ref.graph(), ref.scored()));
  }
  std::vector<nb::ScoreKey> get_keys;
  for (const int r : sequence) {
    const nb::BackboneRequest& request = set.requests[static_cast<size_t>(r)];
    get_keys.push_back(nb::MakeScoreKey(request.graph, request.method,
                                        request.score_options));
  }
  const auto get = [&](size_t i) {
    Keep(cache.Get(get_keys[i % get_keys.size()]));
  };
  out->cache_get_ns = BatchedNs(1, get);
  out->cache_get_ns_contended = BatchedNs(threads, get);

  // obs: one counter bump plus one histogram record, the per-request
  // instrumentation unit, from every thread at once.
  nb::obs::ShardedCounter counter;
  nb::obs::LatencyHistogram histogram;
  out->obs_record_ns = BatchedNs(threads, [&](size_t i) {
    counter.Increment();
    histogram.Record(static_cast<int64_t>(1000 + (i * 7919) % 100000));
  });

  // engine extraction: response assembly from the artifacts, per request
  // of the workload's mix.
  std::vector<double> extract_us;
  std::vector<double> bytes;
  for (size_t i = 0; i < std::min<size_t>(sequence.size(), 4096); ++i) {
    const size_t r = static_cast<size_t>(sequence[i]);
    const int64_t start = NowNs();
    const nb::BackboneResponse response =
        set.refs[static_cast<size_t>(set.request_ref[r])]->Answer(
            set.requests[r]);
    extract_us.push_back(static_cast<double>(NowNs() - start) / 1e3);
    bytes.push_back(ResponseBytes(response));
  }
  out->engine_extract_us = Median(extract_us);
  out->engine_response_bytes = Mean(bytes);

  // engine contention: per-request time at HostThreads() clients over
  // the time at one client, same requests.
  Phase one;
  Phase many;
  std::vector<double> one_us;
  std::vector<double> many_us;
  RunReadClients(engine, set, 1, 0.5, nullptr, &one, &one_us);
  RunReadClients(engine, set, threads, 0.5, nullptr, &many, &many_us);
  out->engine_contention_x = Median(many_us) / Median(one_us);
  if (one.failed + one.wrong + many.failed + many.wrong > 0) {
    Fail(out, "contention clients got wrong answers");
  }
}

void ProbeWriteRoad(const GraphSpec& base, const GraphSpec& next,
                    LayerTimes* out) {
  const int threads = HostThreads();
  const auto none = [](int) {};
  const std::shared_ptr<const nb::Graph> base_graph = base.BuildShared();
  const uint64_t base_fp = nb::GraphFingerprint(*base_graph);

  // graph + store: columns on a fresh graph, fingerprint, diff.
  std::vector<std::shared_ptr<const nb::Graph>> fresh(kReps);
  out->graph_columns_us = MedianUs(
      kReps, [&](int rep) { fresh[rep] = next.BuildShared(); },
      [&](int rep) { Keep(fresh[rep]->edge_columns()); });
  const std::shared_ptr<const nb::Graph> next_graph = fresh.back();
  out->store_fingerprint_us = MedianUs(
      kReps, none, [&](int) { Keep(nb::GraphFingerprint(*next_graph)); });
  std::optional<nb::GraphDelta> delta;
  out->graph_delta_us = MedianUs(kReps, none, [&](int) {
    delta = *nb::ComputeGraphDelta(*base_graph, *next_graph);
  });

  out->core_sort_us = out->core_profile_us = out->core_patch_us = 0.0;
  out->core_order_patch_us = out->cache_build_patched_us = 0.0;
  out->core_dirty_share = 0.0;
  const int64_t edges = next_graph->num_edges();
  for (size_t m = 0; m < kMethods.size(); ++m) {
    const nb::Method method = kMethods[m];
    nb::RunMethodOptions run;
    run.num_threads = threads;

    // core, cold road: scoring, the one sort, the sweep profile.
    std::optional<nb::ScoredEdges> scored;
    out->core_score_us[m] = MedianUs(kReps, none, [&](int) {
      scored = *nb::RunMethod(method, *next_graph, run);
    });
    std::optional<nb::ScoreOrder> order;
    out->core_sort_us += MedianUs(kReps, [&](int) { order.reset(); },
                                  [&](int) { order.emplace(*scored); });
    out->core_profile_us += MedianUs(
        kReps, none, [&](int) { Keep(nb::BuildSweepProfile(*order)); });

    // core + cache, revision road: patch the base table, patch the order,
    // build the patched cache entry.
    const nb::Result<nb::ScoredEdges> base_scored =
        nb::RunMethod(method, *base_graph, run);
    const nb::ScoreOrder base_order(*base_scored);
    nb::DeltaRescoreOptions rescore;
    rescore.num_threads = threads;
    rescore.grain = nb::BackboneEngineOptions{}.delta_grain;
    std::optional<nb::DeltaRescoreResult> patch;
    out->core_patch_us += MedianUs(kReps, none, [&](int) {
      nb::Result<std::optional<nb::DeltaRescoreResult>> patched =
          nb::DeltaRescore(method, *base_scored, *next_graph, *delta,
                           rescore);
      if (patched.ok() && patched->has_value()) patch = **std::move(patched);
    });
    if (!patch.has_value()) {
      Fail(out, "delta rescore not applicable");
      continue;
    }
    const nb::ScoredEdges patched(next_graph.get(), base_scored->method(),
                                  patch->scores, base_scored->has_sdev());
    for (int64_t id = 0; id < edges; ++id) {
      if (patched.at(id).score != scored->at(id).score ||
          patched.at(id).sdev != scored->at(id).sdev) {
        Fail(out, "patched scores differ from a full rescore");
        break;
      }
    }
    out->core_order_patch_us += MedianUs(kReps, none, [&](int) {
      const nb::ScoreOrder patched_order(patched, base_order,
                                         patch->base_to_next, patch->dirty);
      Keep(patched_order);
    });
    const std::shared_ptr<const nb::CachedScore> base_entry =
        nb::CachedScore::Build(base_graph, *base_scored);
    std::optional<nb::ScoredEdges> input;
    out->cache_build_patched_us += MedianUs(
        kReps, [&](int) { input = patched; },
        [&](int) {
          Keep(nb::CachedScore::BuildPatched(
              next_graph, *std::move(input), *base_entry,
              patch->base_to_next, patch->dirty, base_fp));
        });
    out->core_dirty_share += static_cast<double>(patch->dirty.size()) /
                             static_cast<double>(edges) /
                             static_cast<double>(kMethods.size());
  }

  // engine: AddGraphRevision (fingerprint + intern + submission-time
  // diff) against a resident base, on a fresh engine each repetition.
  std::unique_ptr<nb::BackboneEngine> engine;
  std::optional<nb::Graph> revision;
  out->engine_add_revision_us = MedianUs(
      kReps,
      [&](int) {
        engine.reset();
        engine = std::make_unique<nb::BackboneEngine>();
        engine->AddGraph(nb::Graph(*base_graph));
        revision = next.Build();
      },
      [&](int) {
        Keep(engine->AddGraphRevision(*std::move(revision), base_fp));
      });
}

}  // namespace perfbench
