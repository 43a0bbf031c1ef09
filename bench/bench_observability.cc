// Acceptance gate for the observability layer (src/obs/ + the engine
// instrumentation): the process exits non-zero on any violation, so
// `ctest -L smoke` keeps the flight recorder honest.
//
// Usage: bench_observability [identity|timing]. No argument runs both;
// identity and timing are separate ctest entries, so a slow host fails
// only the timing one. The timing gate:
//   * Overhead — the default production config (enable_metrics, tracing
//     off) replays a mixed warm trace no more than 5% slower than the
//     same engine with every hook off; the maximal debug config (rate-1
//     tracing on top) stays under 25% — tracing every request pays a few
//     clock reads per span boundary by design and is an explicit opt-in,
//     but it must never balloon (min-of-replays, measured in-process so
//     machine noise cancels).
// The identity gates:
//   * Request accounting — after a replayed workload the per-kind
//     latency histograms hold exactly one record per request counted by
//     engine.requests. (The counter names themselves are pinned by
//     tests/service_test.cc.)
//   * Histogram determinism — one multiset of values recorded through
//     every shard/thread combination yields bit-identical bucket counts
//     and p50/p95/p99 readouts.
//   * Span chains — with rate-1 sampling, one complete trace per request
//     with the correct answer-path tag and span set for each of the
//     warm / delta / cold / degraded / negative / failed roads.
//
// Artifacts: BENCH_observability.json (the timing run's overhead timings
// + exported warm p95) and METRICS_observability.json (the identity run's
// full merged metrics snapshot, schema-compatible with the bench logs so
// compare_bench_json.py can diff exported percentiles across runs).

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <initializer_list>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "common/random.h"
#include "common/timer.h"
#include "core/registry.h"
#include "gen/erdos_renyi.h"
#include "graph/builder.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "service/engine.h"
#include "service/fault_injection.h"

namespace nb = netbone;
using netbone::bench::Banner;
using netbone::bench::Num;
using netbone::bench::PrintRow;

namespace {

nb::Graph BenchGraph() {
  const nb::Result<nb::Graph> er = nb::GenerateErdosRenyi(
      {.num_nodes = 2000, .average_degree = 3.0, .seed = 78});
  nb::GraphBuilder builder(nb::Directedness::kUndirected);
  builder.ReserveNodes(2000);
  for (const nb::Edge& e : er->edges()) {
    builder.AddEdge(e.src, e.dst, std::floor(e.weight) + 1.0);
  }
  return *builder.Build();
}

/// A noisy re-observation touching ~1% of the edges (unit weight
/// transfers, totals preserved) — the delta path's fixture shape.
nb::Graph MakeRevision(const nb::Graph& base, uint64_t seed) {
  std::vector<nb::Edge> edges(base.edges().begin(), base.edges().end());
  nb::Rng rng(seed);
  const int64_t transfers = std::max<int64_t>(
      1, std::llround(static_cast<double>(edges.size()) * 0.01 / 2.0));
  for (int64_t t = 0; t < transfers; ++t) {
    const size_t a = static_cast<size_t>(rng.NextBounded(edges.size()));
    const size_t b = static_cast<size_t>(rng.NextBounded(edges.size()));
    if (a == b || edges[a].weight < 2.0) continue;
    edges[a].weight -= 1.0;
    edges[b].weight += 1.0;
  }
  nb::GraphBuilder builder(base.directedness());
  builder.ReserveNodes(base.num_nodes());
  for (const nb::Edge& e : edges) builder.AddEdge(e.src, e.dst, e.weight);
  return *builder.Build();
}

nb::BackboneRequest ShareRequest(uint64_t graph, nb::Method method,
                                 double share = 0.25) {
  nb::BackboneRequest request;
  request.graph = graph;
  request.method = method;
  request.kind = nb::RequestKind::kTopShare;
  request.share = share;
  return request;
}

/// The serving bench's mixed warm workload: rotating methods, a spread of
/// shares, and a kind rotation (top-share / coverage-point / top-k).
nb::BackboneRequest MixedRequest(uint64_t graph, int r, int total) {
  static const nb::Method kMethods[] = {
      nb::Method::kNaiveThreshold, nb::Method::kDisparityFilter,
      nb::Method::kNoiseCorrected, nb::Method::kHighSalienceSkeleton};
  nb::BackboneRequest request;
  request.graph = graph;
  request.method = kMethods[static_cast<size_t>(r) % 4];
  request.kind = nb::RequestKind::kTopShare;
  request.share = 0.05 + 0.9 * static_cast<double>(r) / total;
  if (r % 3 == 1) {
    request.kind = nb::RequestKind::kCoveragePoint;
  } else if (r % 3 == 2) {
    request.kind = nb::RequestKind::kTopK;
    request.k = 100 + r;
  }
  return request;
}

/// Primes every method's key so the replay below is all-warm.
bool Prime(nb::BackboneEngine& engine, uint64_t fp) {
  for (const nb::Method method :
       {nb::Method::kNaiveThreshold, nb::Method::kDisparityFilter,
        nb::Method::kNoiseCorrected, nb::Method::kHighSalienceSkeleton}) {
    if (!engine.Execute(ShareRequest(fp, method)).ok()) return false;
  }
  return true;
}

/// Min-of-replays warm per-request seconds for one engine configuration.
double WarmPerRequest(nb::BackboneEngine& engine, uint64_t fp, int requests,
                      int reps, bool* ok) {
  double best = 1e300;
  for (int rep = 0; rep < reps; ++rep) {
    nb::Timer timer;
    for (int r = 0; r < requests; ++r) {
      if (!engine.Execute(MixedRequest(fp, r, requests)).ok()) *ok = false;
    }
    best = std::min(best, timer.ElapsedSeconds() / requests);
  }
  return best;
}

bool HasSpan(const nb::obs::RequestTrace& trace, nb::obs::SpanKind kind) {
  for (int s = 0; s < trace.num_spans; ++s) {
    if (trace.spans[s].kind == kind) return true;
  }
  return false;
}

/// The most recent sampled trace, or nullptr (checked) when none.
const nb::obs::RequestTrace* LastTrace(
    const std::vector<nb::obs::RequestTrace>& traces) {
  return traces.empty() ? nullptr : &traces.back();
}

struct SpanExpectation {
  nb::obs::SpanKind kind;
  bool expected;
};

bool CheckTrace(const char* label, const nb::obs::RequestTrace* trace,
                nb::obs::AnswerPath path, bool ok_flag,
                std::initializer_list<SpanExpectation> spans) {
  if (trace == nullptr) {
    std::printf("  %-10s FAIL (no sampled trace)\n", label);
    return false;
  }
  bool pass = trace->path == path && trace->ok == ok_flag;
  for (const SpanExpectation& e : spans) {
    if (HasSpan(*trace, e.kind) != e.expected) pass = false;
  }
  std::printf("  %-10s path=%-9s ok=%d spans=[", label,
              nb::obs::AnswerPathName(trace->path), trace->ok ? 1 : 0);
  for (int s = 0; s < trace->num_spans; ++s) {
    std::printf("%s%s", s > 0 ? " " : "",
                nb::obs::SpanKindName(trace->spans[s].kind));
  }
  std::printf("] %s\n", pass ? "PASS" : "FAIL");
  return pass;
}

}  // namespace

int main(int argc, char** argv) {
  const std::optional<netbone::bench::Gates> gates =
      netbone::bench::ParseGates(argc, argv);
  if (!gates.has_value()) return 2;
  const bool run_identity = gates->identity;
  const bool run_timing = gates->timing;
  Banner("observability",
         "metrics overhead, request accounting, histogram determinism, "
         "trace span chains");
  const bool quick = netbone::bench::QuickMode();
  netbone::bench::JsonBenchLog json("observability");
  bool ok = true;

  const nb::Graph graph = BenchGraph();
  const int64_t num_edges = graph.num_edges();
  const int requests = quick ? 200 : 2000;
  // Min-of-5 in every mode: the minimum is the noise-robust statistic,
  // and five replays of the quick trace still cost only milliseconds.
  const int reps = 5;

  // ---------------------------------------------------------------------
  // Gate 1: warm-path overhead. Three configs replayed back-to-back so
  // machine drift hits all sides equally; min-of-replays per side. The
  // default config (metrics on, tracing off — what production runs)
  // carries the 5% gate; the maximal debug config (rate-1 tracing on
  // every request) pays clock reads per span by design and gets a
  // looser never-balloon bound.
  // ---------------------------------------------------------------------
  if (run_timing) {
    nb::BackboneEngineOptions off;
    off.enable_metrics = false;
    off.trace_sample_rate = 0;
    nb::BackboneEngine base_engine(off);
    const uint64_t base_fp = base_engine.AddGraph(BenchGraph());
    if (!Prime(base_engine, base_fp)) ok = false;

    nb::BackboneEngineOptions metrics_only;  // the defaults, spelled out
    metrics_only.enable_metrics = true;
    metrics_only.trace_sample_rate = 0;
    nb::BackboneEngine metrics_engine(metrics_only);
    const uint64_t metrics_fp = metrics_engine.AddGraph(BenchGraph());
    if (!Prime(metrics_engine, metrics_fp)) ok = false;

    nb::BackboneEngineOptions traced = metrics_only;
    traced.trace_sample_rate = 1;
    nb::BackboneEngine traced_engine(traced);
    const uint64_t traced_fp = traced_engine.AddGraph(BenchGraph());
    if (!Prime(traced_engine, traced_fp)) ok = false;

    double base_s = 1e300;
    double metrics_s = 1e300;
    double traced_s = 1e300;
    double metrics_ratio = 0.0;
    double traced_ratio = 0.0;
    bool metrics_within = false;
    bool traced_within = false;
    // Noise guard: a loaded machine (a full ctest run executes this
    // bench alongside every other suite) inflates individual replays
    // unpredictably, and the default gate sits within a few percent of
    // the true overhead. Extra replays only tighten each config's min
    // toward its quiescent floor, so when a gate fails, keep measuring
    // — up to 3x the base replay count — before declaring a regression.
    // A real regression fails all three rounds.
    for (int round = 0; round < 3; ++round) {
      for (int rep = 0; rep < reps; ++rep) {
        bool run_ok = true;
        base_s = std::min(
            base_s, WarmPerRequest(base_engine, base_fp, requests, 1,
                                   &run_ok));
        metrics_s = std::min(metrics_s, WarmPerRequest(metrics_engine,
                                                       metrics_fp, requests,
                                                       1, &run_ok));
        traced_s = std::min(traced_s, WarmPerRequest(traced_engine, traced_fp,
                                                     requests, 1, &run_ok));
        if (!run_ok) ok = false;
      }
      metrics_ratio = metrics_s / base_s;
      traced_ratio = traced_s / base_s;
      metrics_within = metrics_ratio <= 1.05;
      traced_within = traced_ratio <= 1.25;
      if (metrics_within && traced_within) break;
    }
    // Wall-clock ratios gate only the production binary: sanitizer
    // instrumentation slows the hook paths and the base path unevenly.
    const bool ratios_armed = !netbone::bench::SanitizerBuild();
    if (ratios_armed && (!metrics_within || !traced_within)) ok = false;
    const auto verdict = [ratios_armed](bool within, const char* bound) {
      const char* word = !ratios_armed ? "skipped" : within ? "PASS" : "FAIL";
      return std::string(word) + " (" + bound + ")";
    };
    PrintRow({"config", "per-request", "ratio", "gate"});
    PrintRow({"all off", Num(base_s * 1e6, 2) + " us", "1.000", ""});
    PrintRow({"metrics (default)", Num(metrics_s * 1e6, 2) + " us",
              Num(metrics_ratio, 3), verdict(metrics_within, "<=1.05")});
    PrintRow({"metrics+trace=1", Num(traced_s * 1e6, 2) + " us",
              Num(traced_ratio, 3), verdict(traced_within, "<=1.25")});
    json.RecordSeconds("warm_base_per_request", num_edges, 1, base_s,
                       base_s);
    json.RecordSeconds("warm_metrics_per_request", num_edges, 1, metrics_s,
                       metrics_s);
    json.RecordSeconds("warm_traced_per_request", num_edges, 1, traced_s,
                       traced_s);

    // Export the instrumented engine's own warm-path percentile so the
    // history diff tool can gate tail latency across PRs.
    const nb::obs::MetricsSnapshot metrics = metrics_engine.Metrics();
    const nb::obs::HistogramSnapshot* warm =
        metrics.FindHistogram("engine.latency.path.warm");
    if (warm == nullptr || warm->count == 0) {
      std::printf("engine.latency.path.warm missing or empty: FAIL\n");
      ok = false;
    } else {
      json.Record("warm_path_latency", num_edges, 1,
                  static_cast<double>(warm->p50()),
                  static_cast<double>(warm->min),
                  static_cast<double>(warm->p95()));
    }
  }

  // ---------------------------------------------------------------------
  // Gate 2: request accounting — after a replayed workload the per-kind
  // histograms must hold exactly one record per request the
  // engine.requests counter saw.
  // ---------------------------------------------------------------------
  if (run_identity) {
    nb::BackboneEngine engine;
    const uint64_t fp = engine.AddGraph(BenchGraph());
    if (!Prime(engine, fp)) ok = false;
    const int n = quick ? 64 : 256;
    for (int r = 0; r < n; ++r) {
      if (!engine.Execute(MixedRequest(fp, r, n)).ok()) ok = false;
    }
    // A delta-patched revision and a batch, so those roads record too.
    const uint64_t rev = engine.AddGraphRevision(MakeRevision(graph, 4242),
                                                 fp);
    if (!engine.Execute(ShareRequest(rev, nb::Method::kNoiseCorrected))
             .ok()) {
      ok = false;
    }
    std::vector<nb::BackboneRequest> batch;
    for (int r = 0; r < 8; ++r) batch.push_back(MixedRequest(fp, r, 8));
    auto future = engine.Submit(std::move(batch));
    for (const auto& result : future.get()) {
      if (!result.ok()) ok = false;
    }

    const nb::obs::MetricsSnapshot metrics = engine.Metrics();
    const int64_t requests = metrics.ValueOf("engine.requests", -1);
    int64_t kind_records = 0;
    for (int k = 0; k < nb::kNumRequestKinds; ++k) {
      const nb::obs::HistogramSnapshot* hist = metrics.FindHistogram(
          std::string("engine.latency.kind.") +
          nb::RequestKindName(static_cast<nb::RequestKind>(k)));
      if (hist != nullptr) kind_records += hist->count;
    }
    // Prime's four requests, the replay, the revision and the batch.
    const int64_t issued = 4 + n + 1 + 8;
    const bool accounted = requests == issued && kind_records == requests;
    if (!accounted) {
      std::printf("  issued %lld, engine.requests %lld, per-kind histogram "
                  "records %lld\n",
                  static_cast<long long>(issued),
                  static_cast<long long>(requests),
                  static_cast<long long>(kind_records));
      ok = false;
    }
    std::printf("request accounting: %lld requests, one histogram record "
                "each: %s\n",
                static_cast<long long>(requests), accounted ? "PASS" : "FAIL");
  }

  // ---------------------------------------------------------------------
  // Gate 3: histogram determinism — one multiset, every shard/thread
  // combination, identical buckets and percentiles.
  // ---------------------------------------------------------------------
  if (run_identity) {
    std::vector<int64_t> values;
    nb::Rng rng(0x0B5E55ED);
    const int samples = quick ? 20000 : 100000;
    for (int i = 0; i < samples; ++i) {
      values.push_back(static_cast<int64_t>(
          rng.NextBounded(uint64_t{1} << (5 + i % 30))));
    }
    nb::obs::LatencyHistogram reference(1);
    for (const int64_t v : values) reference.Record(v);
    const nb::obs::HistogramSnapshot expected = reference.Snapshot();
    bool deterministic = true;
    for (const int shards : {1, 4, 16}) {
      for (const int threads : {1, 2, 8}) {
        nb::obs::LatencyHistogram hist(shards);
        std::vector<std::thread> workers;
        for (int t = 0; t < threads; ++t) {
          workers.emplace_back([&, t] {
            for (size_t i = static_cast<size_t>(t); i < values.size();
                 i += static_cast<size_t>(threads)) {
              hist.Record(values[i]);
            }
          });
        }
        for (std::thread& w : workers) w.join();
        const nb::obs::HistogramSnapshot snap = hist.Snapshot();
        if (snap.buckets != expected.buckets || snap.count != expected.count ||
            snap.sum != expected.sum || snap.min != expected.min ||
            snap.max != expected.max || snap.p50() != expected.p50() ||
            snap.p95() != expected.p95() || snap.p99() != expected.p99()) {
          std::printf("  divergence at %d shards / %d threads\n", shards,
                      threads);
          deterministic = false;
        }
      }
    }
    if (!deterministic) ok = false;
    std::printf(
        "histogram determinism: %d values x 9 shard/thread combos "
        "(p50=%lld p95=%lld p99=%lld): %s\n",
        samples, static_cast<long long>(expected.p50()),
        static_cast<long long>(expected.p95()),
        static_cast<long long>(expected.p99()),
        deterministic ? "PASS" : "FAIL");
  }

  // ---------------------------------------------------------------------
  // Gate 4: span chains — rate-1 sampling, one scenario per answer path,
  // each trace tagged correctly with the right span set.
  // ---------------------------------------------------------------------
  if (run_identity) {
    std::printf("span chains (rate-1 sampling):\n");
    using nb::obs::AnswerPath;
    using nb::obs::SpanKind;
    nb::BackboneEngineOptions options;
    options.trace_sample_rate = 1;
    {
      nb::BackboneEngine engine(options);
      const uint64_t fp = engine.AddGraph(BenchGraph());

      // Cold: fresh key scores from scratch.
      if (!engine.Execute(ShareRequest(fp, nb::Method::kNoiseCorrected))
               .ok()) {
        ok = false;
      }
      ok &= CheckTrace("cold", LastTrace(engine.tracer().Snapshot()),
                       AnswerPath::kCold, /*ok_flag=*/true,
                       {{SpanKind::kCacheLookup, true},
                        {SpanKind::kColdScore, true},
                        {SpanKind::kExtract, true},
                        {SpanKind::kDeltaPatch, false}});

      // Warm: the identical request answers from cache.
      if (!engine.Execute(ShareRequest(fp, nb::Method::kNoiseCorrected))
               .ok()) {
        ok = false;
      }
      ok &= CheckTrace("warm", LastTrace(engine.tracer().Snapshot()),
                       AnswerPath::kWarm, /*ok_flag=*/true,
                       {{SpanKind::kCacheLookup, true},
                        {SpanKind::kExtract, true},
                        {SpanKind::kColdScore, false},
                        {SpanKind::kDeltaPatch, false}});

      // Delta: a 1%-revision of the warm graph patches incrementally.
      const uint64_t rev =
          engine.AddGraphRevision(MakeRevision(graph, 4242), fp);
      if (!engine.Execute(ShareRequest(rev, nb::Method::kNoiseCorrected))
               .ok()) {
        ok = false;
      }
      ok &= CheckTrace("delta", LastTrace(engine.tracer().Snapshot()),
                       AnswerPath::kDelta, /*ok_flag=*/true,
                       {{SpanKind::kCacheLookup, true},
                        {SpanKind::kLineageWalk, true},
                        {SpanKind::kDeltaPatch, true},
                        {SpanKind::kColdScore, false},
                        {SpanKind::kExtract, true}});
    }

    // Failed + negative: every scoring attempt fails; the second request
    // on the key answers from the negative cache.
    {
      nb::BackboneEngineOptions failing = options;
      failing.max_retries = 0;
      nb::BackboneEngine engine(failing);
      const uint64_t fp = engine.AddGraph(BenchGraph());
      nb::FaultInjector injector(0xBAD5C0DE);
      injector.Configure(nb::FaultSite::kScoringFailure,
                         {.probability = 1.0});
      nb::ScopedFaultInjection scope(&injector);
      if (engine.Execute(ShareRequest(fp, nb::Method::kNoiseCorrected))
              .ok()) {
        ok = false;  // injected failure must surface
      }
      ok &= CheckTrace("failed", LastTrace(engine.tracer().Snapshot()),
                       AnswerPath::kFailed, /*ok_flag=*/false,
                       {{SpanKind::kCacheLookup, true},
                        {SpanKind::kColdScore, true},
                        {SpanKind::kExtract, false}});
      if (engine.Execute(ShareRequest(fp, nb::Method::kNoiseCorrected))
              .ok()) {
        ok = false;  // negative cache must answer with the failure
      }
      ok &= CheckTrace("negative", LastTrace(engine.tracer().Snapshot()),
                       AnswerPath::kNegative, /*ok_flag=*/false,
                       {{SpanKind::kCacheLookup, true},
                        {SpanKind::kColdScore, false}});
    }

    // Degraded: exact path pinned behind injected latency; the opted-in
    // request on a revision serves from the warm ancestor, flagged.
    {
      nb::BackboneEngineOptions degraded = options;
      degraded.enable_delta_rescore = false;  // force the stalled path
      nb::BackboneEngine engine(degraded);
      const uint64_t base = engine.AddGraph(BenchGraph());
      if (!engine.Execute(ShareRequest(base, nb::Method::kNoiseCorrected))
               .ok()) {
        ok = false;
      }
      const uint64_t rev =
          engine.AddGraphRevision(MakeRevision(graph, 4343), base);
      nb::FaultInjector injector(0xDE62ADED);
      injector.Configure(nb::FaultSite::kScoringLatency,
                         {.probability = 1.0,
                          .latency = std::chrono::milliseconds(200)});
      const nb::obs::RequestTrace* trace = nullptr;
      std::vector<nb::obs::RequestTrace> traces;
      {
        nb::ScopedFaultInjection scope(&injector);
        nb::BackboneRequest request =
            ShareRequest(rev, nb::Method::kNoiseCorrected);
        request.timeout = std::chrono::milliseconds(10);
        request.allow_degraded = true;
        const auto result = engine.Execute(request);
        if (!result.ok() || !result->degraded) ok = false;
        // The background exact refresh may commit its own trace later;
        // pick the degraded-tagged one rather than assuming order.
        traces = engine.tracer().Snapshot();
        for (const nb::obs::RequestTrace& t : traces) {
          if (t.path == AnswerPath::kDegraded) trace = &t;
        }
      }
      ok &= CheckTrace("degraded", trace, AnswerPath::kDegraded,
                       /*ok_flag=*/true, {{SpanKind::kCacheLookup, true}});
      if (trace != nullptr && !trace->degraded) ok = false;

      // Satellite contract: the chaos fire counts flow through the
      // registry while the injector is scoped (single source of truth).
      // The degraded serve queued an exact background refresh, which
      // draws from the injector on the dispatcher; wait for it, so the
      // gauge and the injector's own count are read with no draw able to
      // land in between.
      engine.WaitIdle();
      nb::ScopedFaultInjection scope(&injector);
      const nb::obs::MetricsSnapshot metrics = engine.Metrics();
      if (metrics.ValueOf("fault.scoring_latency.injected", -1) !=
          injector.injected(nb::FaultSite::kScoringLatency)) {
        std::printf("  fault.scoring_latency.injected diverges: FAIL\n");
        ok = false;
      }
    }
  }

  // ---------------------------------------------------------------------
  // Artifact: the merged engine + process metrics snapshot, written with
  // the BENCH_*.json schema next to the bench log.
  // ---------------------------------------------------------------------
  if (run_identity) {
    nb::BackboneEngineOptions options;
    options.trace_sample_rate = 4;
    nb::BackboneEngine engine(options);
    const uint64_t fp = engine.AddGraph(BenchGraph());
    if (!Prime(engine, fp)) ok = false;
    for (int r = 0; r < (quick ? 64 : 256); ++r) {
      if (!engine.Execute(MixedRequest(fp, r, 256)).ok()) ok = false;
    }
    nb::obs::MetricsSnapshot merged = engine.Metrics();
    merged.Merge(nb::obs::MetricRegistry::Global().Snapshot());
    const char* toggle = std::getenv("NETBONE_BENCH_JSON");
    if (toggle == nullptr || std::string(toggle) != "0") {
      const char* dir = std::getenv("NETBONE_BENCH_JSON_DIR");
      const std::string path =
          (dir != nullptr && *dir != '\0')
              ? std::string(dir) + "/METRICS_observability.json"
              : "METRICS_observability.json";
      if (!merged.WriteJsonFile(path, "observability_metrics")) {
        std::printf("failed to write %s\n", path.c_str());
        ok = false;
      } else {
        std::printf("metrics snapshot (%zu counters, %zu gauges, %zu "
                    "histograms) -> %s\n",
                    merged.counters.size(), merged.gauges.size(),
                    merged.histograms.size(), path.c_str());
      }
    }
  }

  std::printf("\n%lld edges; observability gates: %s\n",
              static_cast<long long>(num_edges), ok ? "PASS" : "FAIL");
  return ok ? 0 : 1;
}
