// Acceptance harness for the serving engine (src/service/): cold vs
// warm-cache request latency, hit rate, and requests/sec on the 2000-node
// bench graph.
//
// Usage: bench_serving_engine [identity|timing]. No argument runs both;
// identity and timing are separate ctest entries, so a slow host fails
// only the timing one. The process exits non-zero on any violation of
// the gates the run arms:
//   * identity: warm extraction requests on a cached (graph, method) key
//     perform zero rescoring and zero sorts (engine scores_computed stays
//     flat and ScoreOrder::SortsPerformed advances by exactly one per
//     method, from the single cold request); the cold request builds no
//     sweep profile and the first warm hit builds exactly one; every
//     response is bit-identical to the uncached RunMethod + TopShare +
//     CoverageOfMask path, at every engine thread count;
//   * timing: the warm path is >= 10x faster than the cold path in median
//     latency (median taken across methods; per-method ratios printed
//     and recorded in BENCH_serving_engine.json, with the mixed-method
//     warm throughput).

#include <algorithm>
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "bench_common.h"
#include "common/timer.h"
#include "core/filter.h"
#include "core/registry.h"
#include "core/sweep.h"
#include "eval/coverage.h"
#include "gen/erdos_renyi.h"
#include "service/engine.h"
#include "stats/descriptive.h"

namespace nb = netbone;
using netbone::bench::Banner;
using netbone::bench::Num;
using netbone::bench::PrintRow;

namespace {

nb::BackboneRequest ShareRequest(uint64_t graph, nb::Method method,
                                 double share) {
  nb::BackboneRequest request;
  request.graph = graph;
  request.method = method;
  request.kind = nb::RequestKind::kTopShare;
  request.share = share;
  return request;
}

}  // namespace

int main(int argc, char** argv) {
  const std::optional<netbone::bench::Gates> gates =
      netbone::bench::ParseGates(argc, argv);
  if (!gates.has_value()) return 2;
  const bool run_identity = gates->identity;
  const bool run_timing = gates->timing;
  Banner("serving engine",
         "cold vs warm-cache backbone requests on the 2000-node graph");
  const bool quick = netbone::bench::QuickMode();
  netbone::bench::JsonBenchLog json("serving_engine");

  const auto graph = nb::GenerateErdosRenyi(
      {.num_nodes = 2000, .average_degree = 3.0, .seed = 78});
  if (!graph.ok()) return 1;
  const int64_t num_edges = graph->num_edges();

  const std::vector<nb::Method> methods = {
      nb::Method::kNaiveThreshold, nb::Method::kDisparityFilter,
      nb::Method::kNoiseCorrected, nb::Method::kHighSalienceSkeleton};
  const int cold_reps = quick ? 1 : 3;
  const int warm_reps = quick ? 50 : 400;

  bool ok = true;
  std::vector<double> ratios;
  if (run_timing) {
    PrintRow({"method", "cold ms", "warm us", "ratio", "hit rate"});
  }

  for (const nb::Method method : methods) {
    // Reference: the uncached library path (what callers did before the
    // engine existed). Scored once here for the identity checks.
    const auto scored = nb::RunMethod(method, *graph);
    if (!scored.ok()) {
      std::printf("%-22s n/a (%s)\n", nb::MethodTag(method).c_str(),
                  scored.status().message().c_str());
      continue;
    }

    // Cold: a fresh engine per repetition — the first request pays
    // scoring, the one sort, and one O(E) pass for its point; it builds
    // no sweep profile.
    std::vector<double> cold_times;
    for (int rep = 0; rep < (run_timing ? cold_reps : 1); ++rep) {
      nb::BackboneEngine engine;
      const uint64_t fingerprint = engine.AddGraph(*nb::GenerateErdosRenyi(
          {.num_nodes = 2000, .average_degree = 3.0, .seed = 78}));
      const nb::BackboneRequest request =
          ShareRequest(fingerprint, method, 0.25);
      nb::Timer timer;
      const auto response = engine.Execute(request);
      cold_times.push_back(timer.ElapsedSeconds());
      if (!response.ok() || response->cache_hit) ok = false;
      if (run_identity &&
          engine.Metrics().ValueOf("engine.profiles_built", -1) != 0) {
        ok = false;
      }
    }

    // The warm shares, and for the identity checks their reference
    // results via the uncached path — computed up front because
    // TopShare(scored, share) sorts per call, and the warm window below
    // must observe zero sorts from the engine.
    std::vector<double> shares;
    std::vector<std::vector<nb::EdgeId>> ref_edges;
    std::vector<int64_t> ref_kept;
    std::vector<double> ref_coverage;
    for (int rep = 0; rep < warm_reps; ++rep) {
      const double share =
          0.05 + 0.9 * static_cast<double>(rep) / warm_reps;
      shares.push_back(share);
      if (!run_identity) continue;
      const nb::BackboneMask mask = nb::TopShare(*scored, share);
      const auto coverage = nb::CoverageOfMask(*graph, mask);
      if (!coverage.ok()) {
        ok = false;
        shares.pop_back();
        continue;
      }
      ref_edges.push_back(nb::MaskToEdgeIds(mask));
      ref_kept.push_back(mask.kept);
      ref_coverage.push_back(*coverage);
    }

    // Warm: one engine, many requests on the cached key with varying
    // thresholds. Zero sorts and zero rescoring, pinned below; the first
    // hit builds the sweep profile, once.
    nb::BackboneEngine engine;
    const uint64_t fingerprint = engine.AddGraph(*nb::GenerateErdosRenyi(
        {.num_nodes = 2000, .average_degree = 3.0, .seed = 78}));
    if (!engine.Execute(ShareRequest(fingerprint, method, 0.25)).ok()) {
      ok = false;
    }
    const int64_t scores_before =
        engine.Metrics().ValueOf("engine.scores_computed");
    const int64_t sorts_before = nb::ScoreOrder::SortsPerformed();
    std::vector<double> warm_times;
    warm_times.reserve(shares.size());
    for (size_t rep = 0; rep < shares.size(); ++rep) {
      const nb::BackboneRequest request =
          ShareRequest(fingerprint, method, shares[rep]);
      nb::Timer timer;
      const auto response = engine.Execute(request);
      warm_times.push_back(timer.ElapsedSeconds());
      if (!response.ok() || !response->cache_hit) {
        ok = false;
        continue;
      }

      // Bit-identity with the uncached path at this share.
      if (run_identity && (response->kept_edges != ref_edges[rep] ||
                           response->kept != ref_kept[rep] ||
                           response->coverage != ref_coverage[rep])) {
        ok = false;
      }
    }
    if (run_identity) {
      if (engine.Metrics().ValueOf("engine.scores_computed") !=
          scores_before) {
        ok = false;
      }
      if (nb::ScoreOrder::SortsPerformed() != sorts_before) ok = false;
      if (engine.Metrics().ValueOf("engine.profiles_built", -1) != 1) {
        ok = false;
      }

      // Identity across engine thread counts (1 vs 2 vs 4 workers).
      for (const int threads : {1, 2, 4}) {
        nb::BackboneEngineOptions options;
        options.num_threads = threads;
        nb::BackboneEngine threaded(options);
        const uint64_t fp = threaded.AddGraph(*nb::GenerateErdosRenyi(
            {.num_nodes = 2000, .average_degree = 3.0, .seed = 78}));
        const auto response =
            threaded.Execute(ShareRequest(fp, method, 0.25));
        const nb::BackboneMask mask = nb::TopShare(*scored, 0.25);
        if (!response.ok() ||
            response->kept_edges != nb::MaskToEdgeIds(mask)) {
          ok = false;
        }
      }
    }

    if (!run_timing) continue;
    const double cold_med = nb::Median(cold_times);
    const double warm_med = nb::Median(warm_times);
    const double ratio = warm_med > 0.0 ? cold_med / warm_med : 0.0;
    ratios.push_back(ratio);
    const nb::obs::MetricsSnapshot stats = engine.Metrics();
    const int64_t hits = stats.ValueOf("cache.hits");
    const double hit_rate =
        static_cast<double>(hits) /
        static_cast<double>(hits + stats.ValueOf("cache.misses"));
    PrintRow({nb::MethodTag(method), Num(cold_med * 1e3, 3),
              Num(warm_med * 1e6, 2), Num(ratio, 1), Num(hit_rate, 4)});
    json.RecordSeconds("cold:" + nb::MethodTag(method), num_edges, 1,
                       cold_med,
                       *std::min_element(cold_times.begin(),
                                         cold_times.end()));
    json.RecordSeconds("warm:" + nb::MethodTag(method), num_edges, 1,
                       warm_med,
                       *std::min_element(warm_times.begin(),
                                         warm_times.end()));
  }

  // Mixed-method warm throughput: every method's key is cached in one
  // engine; requests cycle methods, kinds and thresholds.
  {
    nb::BackboneEngine engine;
    const uint64_t fingerprint = engine.AddGraph(*nb::GenerateErdosRenyi(
        {.num_nodes = 2000, .average_degree = 3.0, .seed = 78}));
    for (const nb::Method method : methods) {
      if (!engine.Execute(ShareRequest(fingerprint, method, 0.25)).ok()) {
        ok = false;
      }
    }
    const int requests = quick ? 200 : 2000;
    nb::Timer timer;
    for (int r = 0; r < requests; ++r) {
      nb::BackboneRequest request = ShareRequest(
          fingerprint, methods[static_cast<size_t>(r) % methods.size()],
          0.05 + 0.9 * static_cast<double>(r) / requests);
      if (r % 3 == 1) {
        request.kind = nb::RequestKind::kCoveragePoint;
      } else if (r % 3 == 2) {
        request.kind = nb::RequestKind::kTopK;
        request.k = 100 + r;
      }
      if (!engine.Execute(request).ok()) ok = false;
    }
    const double elapsed = timer.ElapsedSeconds();
    if (run_timing) {
      const double rps = static_cast<double>(requests) / elapsed;
      std::printf("\nwarm mixed workload: %d requests in %s s = %s req/s\n",
                  requests, Num(elapsed, 3).c_str(), Num(rps, 0).c_str());
      json.RecordSeconds("warm_mixed_per_request", num_edges, 1,
                         elapsed / requests, elapsed / requests);
    }
  }

  const double median_ratio = ratios.empty() ? 0.0 : nb::Median(ratios);
  const bool fast_enough = !run_timing || median_ratio >= 10.0 ||
                           netbone::bench::SanitizerBuild();
  const char* timing_verdict =
      !run_timing                        ? "NOT RUN"
      : netbone::bench::SanitizerBuild() ? "skipped, sanitizer build"
      : fast_enough                      ? "PASS"
                                         : "FAIL";
  std::printf(
      "%lld edges; median warm-vs-cold ratio %sx (>= 10x required: %s); "
      "identity/zero-sort checks: %s\n",
      static_cast<long long>(num_edges),
      run_timing ? Num(median_ratio, 1).c_str() : "-", timing_verdict,
      !run_identity ? "NOT RUN" : ok ? "PASS" : "FAIL");
  return ok && fast_enough ? 0 : 1;
}
