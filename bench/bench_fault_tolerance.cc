// Chaos gate for the fault-tolerance layer (src/service/): replays a
// skewed request trace against the serving engine with seeded injected
// scoring failures, scoring latency, cache-insert drops and dispatcher
// stalls (service/fault_injection.h) at 1% and 5% rates.
//
// Contract being demonstrated (and enforced — the process exits non-zero
// on any violation):
//   * the engine neither deadlocks nor crashes under fault pressure
//     (every Submit future resolves within a generous global timeout);
//   * every successful response under chaos is bit-identical to the
//     fault-free run of the same trace, or explicitly flagged degraded;
//     every failed response carries a typed failure status — nothing is
//     silently approximated;
//   * a request that hits its deadline returns within deadline + one
//     cancellation-check grain (the 1ms sleep slice plus scheduling
//     slack), not after the full scoring it abandoned;
//   * the degraded path answers from the warm lineage ancestor's exact
//     artifacts, flagged with provenance, and schedules the exact
//     recompute in the background;
//   * with injection disabled the warm path pays nothing for the hooks:
//     when NETBONE_BENCH_BASELINE names a BENCH_serving_engine.json from
//     the same machine, warm mixed-workload per-request time must not
//     regress by more than 5% (the gate stays disarmed without a
//     baseline — cross-machine wall-clock comparisons are noise).

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <future>
#include <string>
#include <vector>

#include "bench_common.h"
#include "common/random.h"
#include "common/timer.h"
#include "core/registry.h"
#include "gen/erdos_renyi.h"
#include "service/engine.h"
#include "service/fault_injection.h"
#include "stats/descriptive.h"

namespace nb = netbone;
using netbone::bench::Banner;
using netbone::bench::Num;
using netbone::bench::PrintRow;

namespace {

nb::Graph BenchGraph() {
  return *nb::GenerateErdosRenyi(
      {.num_nodes = 2000, .average_degree = 3.0, .seed = 78});
}

/// Deterministic skewed trace: NoiseCorrected-heavy method mix, a hot
/// 0.25 threshold with a tail of scattered shares, and a rotation of
/// request kinds — the shape of a dashboard hammering one backbone view
/// while ad-hoc queries trickle in.
std::vector<nb::BackboneRequest> BuildTrace(uint64_t fingerprint, int n,
                                            uint64_t seed) {
  nb::Rng rng(seed);
  std::vector<nb::BackboneRequest> trace;
  trace.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    nb::BackboneRequest request;
    request.graph = fingerprint;
    const double m = rng.NextDouble();
    request.method = m < 0.60   ? nb::Method::kNoiseCorrected
                     : m < 0.80 ? nb::Method::kDisparityFilter
                     : m < 0.95 ? nb::Method::kNaiveThreshold
                                : nb::Method::kHighSalienceSkeleton;
    const double share =
        rng.NextDouble() < 0.5 ? 0.25 : rng.Uniform(0.05, 0.95);
    const double k = rng.NextDouble();
    if (k < 0.55) {
      request.kind = nb::RequestKind::kTopShare;
      request.share = share;
    } else if (k < 0.75) {
      request.kind = nb::RequestKind::kCoveragePoint;
      request.share = share;
    } else if (k < 0.90) {
      request.kind = nb::RequestKind::kTopK;
      request.k = rng.UniformInt(10, 500);
    } else {
      request.kind = nb::RequestKind::kSweep;
      request.shares = {0.1, 0.25, 0.5, share};
    }
    trace.push_back(std::move(request));
  }
  return trace;
}

bool SameResponse(const nb::BackboneResponse& a,
                  const nb::BackboneResponse& b) {
  return a.kept_edges == b.kept_edges && a.kept == b.kept &&
         a.coverage == b.coverage && a.weight_share == b.weight_share &&
         a.sweep == b.sweep && a.connect_k == b.connect_k &&
         a.stability == b.stability;
}

bool TypedFailure(const nb::Status& status) {
  return status.IsUnavailable() || status.IsResourceExhausted() ||
         status.IsDeadlineExceeded() || status.IsCancelled();
}

/// Pulls the warm_mixed_per_request median_ns out of a
/// BENCH_serving_engine.json (the flat format JsonBenchLog writes).
double BaselineWarmPerRequestNs(const std::string& path) {
  std::FILE* in = std::fopen(path.c_str(), "r");
  if (in == nullptr) return -1.0;
  std::string text;
  char buffer[4096];
  size_t got;
  while ((got = std::fread(buffer, 1, sizeof(buffer), in)) > 0) {
    text.append(buffer, got);
  }
  std::fclose(in);
  const size_t record = text.find("\"warm_mixed_per_request\"");
  if (record == std::string::npos) return -1.0;
  const size_t field = text.find("\"median_ns\": ", record);
  if (field == std::string::npos) return -1.0;
  return std::strtod(text.c_str() + field + std::strlen("\"median_ns\": "),
                     nullptr);
}

}  // namespace

int main() {
  Banner("fault tolerance",
         "chaos replay of a skewed trace with seeded fault injection");
  const bool quick = netbone::bench::QuickMode();
  netbone::bench::JsonBenchLog json("fault_tolerance");
  bool ok = true;

  const nb::Graph graph = BenchGraph();
  const int64_t num_edges = graph.num_edges();
  const int trace_len = quick ? 96 : 480;
  constexpr int kBatchSize = 8;
  constexpr uint64_t kTraceSeed = 0x5EED5EED;

  // ---------------------------------------------------------------------
  // Fault-free reference: the trace's exact answers.
  // ---------------------------------------------------------------------
  std::vector<nb::Result<nb::BackboneResponse>> reference;
  {
    nb::BackboneEngine engine;
    const uint64_t fp = engine.AddGraph(BenchGraph());
    const auto trace = BuildTrace(fp, trace_len, kTraceSeed);
    reference.reserve(trace.size());
    for (const auto& request : trace) {
      reference.push_back(engine.Execute(request));
      if (!reference.back().ok()) ok = false;
    }
  }

  // ---------------------------------------------------------------------
  // Chaos replays: same trace through Submit batches under injection.
  // ---------------------------------------------------------------------
  PrintRow({"fault rate", "ok", "failed", "retries", "dl hits",
            "cache drops", "identical"});
  for (const double rate : {0.01, 0.05}) {
    nb::FaultInjector injector(0xC0FFEE00 +
                               static_cast<uint64_t>(rate * 1000.0));
    injector.Configure(nb::FaultSite::kScoringFailure,
                       {.probability = rate});
    injector.Configure(nb::FaultSite::kScoringLatency,
                       {.probability = rate,
                        .latency = std::chrono::microseconds(500)});
    injector.Configure(nb::FaultSite::kCacheInsertFailure,
                       {.probability = rate});
    injector.Configure(nb::FaultSite::kDispatcherStall,
                       {.probability = rate,
                        .latency = std::chrono::microseconds(500)});

    // A 1-byte cache budget evicts every entry on insert, so (almost)
    // every request rescores — without this the trace is warm after four
    // cold scorings and the injection sites see next to no draws.
    nb::BackboneEngineOptions options;
    options.cache_byte_budget = 1;
    nb::BackboneEngine engine(options);
    const uint64_t fp = engine.AddGraph(BenchGraph());
    const auto trace = BuildTrace(fp, trace_len, kTraceSeed);

    int64_t ok_count = 0;
    int64_t failed = 0;
    bool identical = true;
    {
      nb::ScopedFaultInjection scope(&injector);
      std::vector<std::future<std::vector<nb::Result<nb::BackboneResponse>>>>
          futures;
      for (size_t begin = 0; begin < trace.size(); begin += kBatchSize) {
        const size_t end = std::min(begin + kBatchSize, trace.size());
        futures.push_back(engine.Submit(std::vector<nb::BackboneRequest>(
            trace.begin() + static_cast<ptrdiff_t>(begin),
            trace.begin() + static_cast<ptrdiff_t>(end))));
      }
      size_t index = 0;
      for (auto& future : futures) {
        // Deadlock gate: a future that does not resolve inside the
        // global timeout means the dispatcher wedged under injection.
        if (future.wait_for(std::chrono::seconds(120)) !=
            std::future_status::ready) {
          std::printf("DEADLOCK: batch future unresolved after 120 s\n");
          ok = false;
          identical = false;
          break;
        }
        for (const auto& result : future.get()) {
          const auto& ref = reference[index++];
          if (result.ok()) {
            ++ok_count;
            // Bit-identical to the fault-free answer or flagged: the
            // trace never opts into degradation, so here it must be
            // bit-identical outright.
            if (result->degraded || !ref.ok() ||
                !SameResponse(*result, *ref)) {
              identical = false;
            }
          } else {
            ++failed;
            if (!TypedFailure(result.status())) {
              std::printf("untyped failure under chaos: %s\n",
                          result.status().message().c_str());
              identical = false;
            }
          }
        }
      }
    }
    const nb::obs::MetricsSnapshot stats = engine.Metrics();
    if (!identical) ok = false;
    // Retry must absorb nearly all of the injected pressure: with
    // max_retries=3 a 5% per-attempt failure rate leaves ~6e-6 residual.
    if (failed > trace_len / 20) ok = false;
    PrintRow({Num(rate, 2), std::to_string(ok_count),
              std::to_string(failed),
              std::to_string(stats.ValueOf("engine.retries")),
              std::to_string(stats.ValueOf("engine.deadline_hits")),
              std::to_string(stats.ValueOf("cache.insert_failures")),
              identical ? "PASS" : "FAIL"});
  }

  // ---------------------------------------------------------------------
  // Deadline promptness: a request whose cold path is pinned behind
  // injected latency must come back within deadline + one grain.
  // ---------------------------------------------------------------------
  {
    const auto injected_latency =
        std::chrono::milliseconds(quick ? 100 : 200);
    const auto timeout = std::chrono::milliseconds(20);
    // One cancellation-check grain: the 1ms InterruptibleSleep slice (the
    // scoring-chunk checks are far finer on this graph), plus scheduling
    // slack for CI boxes.
    const auto grain = std::chrono::milliseconds(25);
    nb::FaultInjector injector(0xDEAD715E);
    injector.Configure(nb::FaultSite::kScoringLatency,
                       {.probability = 1.0, .latency = injected_latency});
    nb::BackboneEngine engine;
    const uint64_t fp = engine.AddGraph(BenchGraph());
    nb::ScopedFaultInjection scope(&injector);
    for (int rep = 0; rep < 3; ++rep) {
      nb::BackboneRequest request;
      request.graph = fp;
      request.method = nb::Method::kNoiseCorrected;
      request.kind = nb::RequestKind::kTopShare;
      request.share = 0.25;
      request.timeout = timeout;
      nb::Timer timer;
      const auto result = engine.Execute(request);
      const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::duration<double>(timer.ElapsedSeconds()));
      const bool typed = !result.ok() && result.status().IsDeadlineExceeded();
      const bool prompt = elapsed <= timeout + grain;
      if (!typed || !prompt) ok = false;
      std::printf(
          "deadline rep %d: %s in %lld ms (budget %lld + grain %lld): %s\n",
          rep, typed ? "kDeadlineExceeded" : "WRONG STATUS",
          static_cast<long long>(elapsed.count()),
          static_cast<long long>(timeout.count()),
          static_cast<long long>(grain.count()),
          typed && prompt ? "PASS" : "FAIL");
    }
    if (engine.Metrics().ValueOf("engine.deadline_hits") < 3) ok = false;
  }

  // ---------------------------------------------------------------------
  // Degradation: with the exact path pinned behind latency, an opted-in
  // request on a revision graph is served from the warm ancestor's exact
  // artifacts, flagged, with the exact recompute queued behind it.
  // ---------------------------------------------------------------------
  {
    nb::BackboneEngineOptions options;
    options.enable_delta_rescore = false;  // force the (stalled) full path
    nb::BackboneEngine engine(options);
    const uint64_t base = engine.AddGraph(BenchGraph());
    const uint64_t revision = engine.AddGraphRevision(
        *nb::GenerateErdosRenyi(
            {.num_nodes = 2000, .average_degree = 3.0, .seed = 79}),
        base);

    nb::BackboneRequest warm;
    warm.graph = base;
    warm.method = nb::Method::kNoiseCorrected;
    warm.kind = nb::RequestKind::kTopShare;
    warm.share = 0.25;
    const auto warm_ref = engine.Execute(warm);
    if (!warm_ref.ok()) ok = false;

    nb::FaultInjector injector(0xDE62ADED);
    injector.Configure(nb::FaultSite::kScoringLatency,
                       {.probability = 1.0,
                        .latency = std::chrono::milliseconds(200)});
    bool degraded_ok = false;
    {
      nb::ScopedFaultInjection scope(&injector);
      nb::BackboneRequest request = warm;
      request.graph = revision;
      request.timeout = std::chrono::milliseconds(10);
      request.allow_degraded = true;
      const auto result = engine.Execute(request);
      degraded_ok = result.ok() && result->degraded &&
                    result->degraded_from == base && warm_ref.ok() &&
                    SameResponse(*result, *warm_ref);
    }
    const nb::obs::MetricsSnapshot stats = engine.Metrics();
    const int64_t served = stats.ValueOf("engine.degraded_served");
    const int64_t refreshes = stats.ValueOf("engine.background_refreshes");
    if (!degraded_ok || served < 1 || refreshes < 1) {
      ok = false;
    }
    std::printf("degraded serve from warm ancestor: %s "
                "(served %lld, refreshes queued %lld)\n",
                degraded_ok ? "PASS" : "FAIL",
                static_cast<long long>(served),
                static_cast<long long>(refreshes));
  }

  // ---------------------------------------------------------------------
  // Warm-path cost of the hooks: injection disabled, mixed warm workload
  // (the serving bench's shape), compared against a recorded baseline
  // when one is provided.
  // ---------------------------------------------------------------------
  {
    const std::vector<nb::Method> methods = {
        nb::Method::kNaiveThreshold, nb::Method::kDisparityFilter,
        nb::Method::kNoiseCorrected, nb::Method::kHighSalienceSkeleton};
    nb::BackboneEngine engine;
    const uint64_t fp = engine.AddGraph(BenchGraph());
    for (const nb::Method method : methods) {
      nb::BackboneRequest request;
      request.graph = fp;
      request.method = method;
      request.kind = nb::RequestKind::kTopShare;
      request.share = 0.25;
      if (!engine.Execute(request).ok()) ok = false;
    }
    const int requests = quick ? 200 : 2000;
    nb::Timer timer;
    for (int r = 0; r < requests; ++r) {
      nb::BackboneRequest request;
      request.graph = fp;
      request.method = methods[static_cast<size_t>(r) % methods.size()];
      request.kind = nb::RequestKind::kTopShare;
      request.share = 0.05 + 0.9 * static_cast<double>(r) / requests;
      if (r % 3 == 1) {
        request.kind = nb::RequestKind::kCoveragePoint;
      } else if (r % 3 == 2) {
        request.kind = nb::RequestKind::kTopK;
        request.k = 100 + r;
      }
      if (!engine.Execute(request).ok()) ok = false;
    }
    const double per_request = timer.ElapsedSeconds() / requests;
    json.RecordSeconds("warm_mixed_per_request", num_edges, 1, per_request,
                       per_request);
    const char* baseline_path = std::getenv("NETBONE_BENCH_BASELINE");
    if (baseline_path != nullptr && *baseline_path != '\0') {
      const double baseline_ns = BaselineWarmPerRequestNs(baseline_path);
      if (baseline_ns > 0.0) {
        const double ratio = per_request * 1e9 / baseline_ns;
        const bool within = ratio <= 1.05;
        if (!within) ok = false;
        std::printf(
            "warm per-request %s us vs baseline %s us (ratio %s, "
            "<= 1.05 required): %s\n",
            Num(per_request * 1e6, 2).c_str(),
            Num(baseline_ns * 1e-3, 2).c_str(), Num(ratio, 3).c_str(),
            within ? "PASS" : "FAIL");
      } else {
        std::printf("warm-regression gate: baseline %s unreadable, "
                    "gate disarmed\n", baseline_path);
      }
    } else {
      std::printf("warm per-request %s us "
                  "(set NETBONE_BENCH_BASELINE=BENCH_serving_engine.json "
                  "to arm the <5%% regression gate)\n",
                  Num(per_request * 1e6, 2).c_str());
    }
  }

  std::printf("\n%lld edges, %d-request trace; chaos gates: %s\n",
              static_cast<long long>(num_edges), trace_len,
              ok ? "PASS" : "FAIL");
  return ok ? 0 : 1;
}
