// Serving benchmark program: one BackboneEngine, one workload per run.
//
//   netbone_perfbench --workload <warm_hot|revision_churn|cold_ingest>
//                     --seed <n> --seconds <s> --trace <0|1>
//
// --trace 0 measures the end-to-end metrics; --trace 1 measures the
// per-layer metrics (an untraced half, a traced half and the layer
// probes). Either way every response is checked against the uncached
// library path, the last stdout line is one JSON object
// {"correct", "attempted", "failed", "metrics"}, and the exit code is
// non-zero when any op failed or answered wrong. README.md describes the
// workloads and metrics.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "bench_util.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr int kSetUpReps = 15;
/// Ops right after set-up pay for page faults and cold caches: they are
/// checked, but not measured.
constexpr double kWarmUpSeconds = 1.0;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      args->trace = std::strcmp(value, "0") != 0;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && args->seconds > 0.0;
}

double PerOp(int64_t count, const Phase& phase) {
  return phase.attempted > 0 ? static_cast<double>(count) /
                                   static_cast<double>(phase.attempted)
                             : 0.0;
}

void PrintPhase(const char* label, const Phase& phase) {
  const int64_t bad = phase.failed + phase.wrong;
  std::printf(
      "  %-10s attempted %lld, succeeded %lld, failed %lld, wrong %lld, "
      "error_rate %.6f\n",
      label, static_cast<long long>(phase.attempted),
      static_cast<long long>(phase.attempted - bad),
      static_cast<long long>(phase.failed),
      static_cast<long long>(phase.wrong),
      phase.attempted > 0 ? static_cast<double>(bad) /
                                static_cast<double>(phase.attempted)
                          : 0.0);
  std::printf("  %-10s latency us (raw, median over %zu windows): p50 %.2f, "
              "p95 %.2f, p99 %.2f over %lld ops; %d client(s); host probe "
              "%.1f us\n",
              "", phase.windows.size(), phase.MedianOf(&Window::p50_us, false),
              phase.MedianOf(&Window::p95_us, false),
              phase.MedianOf(&Window::p99_us, false),
              static_cast<long long>(phase.ops()), phase.clients,
              phase.MedianOf(&Window::probe_us, false));
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: %s --workload <warm_hot|revision_churn|cold_ingest> "
                 "--seed <n> --seconds <s> --trace <0|1>\n",
                 argv[0]);
    return 2;
  }
  std::unique_ptr<Workload> workload = MakeWorkload(args.workload);
  if (workload == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  std::printf("workload %s, seed %llu, %.1f s, trace %d, %d threads\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0, HostThreads());

  const Clock::time_point prepare_start = Clock::now();
  workload->Prepare(args.seed);
  std::printf("inputs and reference answers: %.2f s (not a metric)\n",
              SecondsSince(prepare_start));
  // peak_rss_mb covers set-up and serving; the inputs and reference
  // answers built above stay resident and count, their transient build
  // memory does not.
  ResetPeakRss();

  // Each set-up is scaled by the host probe taken around it.
  HostSpeed host;
  std::vector<double> setups;
  std::vector<double> scaled_setups;
  double probe_before = host.SampleUs();
  for (int rep = 0; rep < kSetUpReps; ++rep) {
    setups.push_back(workload->SetUp());
    const double probe_after = host.SampleUs();
    scaled_setups.push_back(
        setups.back() * HostSpeed::ScaleFor((probe_before + probe_after) / 2));
    probe_before = probe_after;
  }

  Report report;
  int64_t attempted = 0;
  int64_t bad = 0;
  const auto account = [&](const Phase& phase) {
    attempted += phase.attempted;
    bad += phase.failed + phase.wrong;
  };
  const Phase warmup = Measure(*workload, kWarmUpSeconds, nullptr, &host);
  account(warmup);

  if (!args.trace) {
    const Phase phase = Measure(*workload, args.seconds, nullptr, &host);
    account(phase);
    std::printf("\nmeasured phase\n");
    PrintPhase("warm-up", warmup);
    PrintPhase("measured", phase);
    std::printf("  host probe median %.1f us over %zu samples (reference "
                "%.0f us): each window's times below are x reference / "
                "its probe\n",
                host.MedianUs(), host.samples(), HostSpeed::kReferenceUs);
    const std::string samples = std::to_string(phase.ops()) + " ops in " +
                                std::to_string(phase.windows.size()) +
                                " windows";
    const auto add = [&](const char* name, double Window::*field,
                         const char* unit) {
      report.Add(name, phase.MedianOf(field, true), unit,
                 samples + ", raw " +
                     std::to_string(phase.MedianOf(field, false)));
    };
    add("latency_p50_us", &Window::p50_us, "us");
    add("throughput_ops", &Window::throughput, "1/s");
    report.Add("setup_s", Median(scaled_setups), "s",
               "median of " + std::to_string(kSetUpReps) + " set-ups, raw " +
                   std::to_string(Median(setups)));
    report.Add("peak_rss_mb", PeakRssMb(), "MiB");
    report.PrintTable("end-to-end metrics (times at the reference speed)");
    // Tails are printed but not gated: on the single-client workloads they
    // follow the neighbours' bursts more than the program.
    for (const auto& [name, field] :
         {std::pair{"latency_p95_us", &Window::p95_us},
          std::pair{"latency_p99_us", &Window::p99_us}}) {
      std::printf("  %-28s %16.4f us        %s, raw %.2f (not gated)\n", name,
                  phase.MedianOf(field, true), samples.c_str(),
                  phase.MedianOf(field, false));
    }
  } else {
    const Phase untraced = Measure(*workload, args.seconds / 2, nullptr, &host);
    SpanLog spans;
    const Phase traced = Measure(*workload, args.seconds / 2, &spans, &host);
    account(untraced);
    account(traced);
    LayerTimes t;
    workload->Probe(&t);
    bad += t.probe_failures;

    std::printf("\nmeasured phases (raw times; host probe median %.1f us, "
                "reference %.0f us)\n",
                host.MedianUs(), HostSpeed::kReferenceUs);
    PrintPhase("warm-up", warmup);
    PrintPhase("untraced", untraced);
    PrintPhase("traced", traced);
    std::printf("\nspans of the traced phase (benchmark-side, around engine "
                "calls)\n");
    spans.PrintSummary();

    const double e2e_untraced = untraced.MedianOf(&Window::p50_us, false);
    const double e2e_traced = traced.MedianOf(&Window::p50_us, false);
    std::printf("\nreconciliation against the untraced end-to-end median "
                "%.2f us\n",
                e2e_untraced);
    const double road_us = workload->PrintRoadBudget(t);
    std::printf("  layers %.2f us + engine.self %.2f us = %.2f us; tracing "
                "overhead %.3f us (traced median %.2f us)\n",
                road_us, e2e_untraced - road_us, e2e_untraced,
                e2e_traced - e2e_untraced, e2e_traced);

    const Counts& c = untraced.counts;
    report.Add("store.find_ns", t.store_find_ns, "ns", "1 thread");
    report.Add("cache.get_ns", t.cache_get_ns, "ns", "1 thread");
    report.Add("cache.get_ns_contended", t.cache_get_ns_contended, "ns",
               std::to_string(HostThreads()) + " threads");
    report.Add("obs.record_ns", t.obs_record_ns, "ns",
               std::to_string(HostThreads()) + " threads");
    report.Add("engine.contention_x", t.engine_contention_x, "x");
    report.Add("engine.extract_us", t.engine_extract_us, "us");
    report.Add("engine.response_bytes", t.engine_response_bytes, "bytes");
    report.Add("engine.add_revision_us", t.engine_add_revision_us, "us");
    report.Add("store.fingerprint_us", t.store_fingerprint_us, "us");
    report.Add("graph.delta_us", t.graph_delta_us, "us");
    report.Add("graph.columns_us", t.graph_columns_us, "us");
    report.Add("core.patch_us", t.core_patch_us, "us", "3 methods");
    report.Add("core.order_patch_us", t.core_order_patch_us, "us",
               "3 methods");
    report.Add("core.profile_us", t.core_profile_us, "us", "3 methods");
    report.Add("cache.build_patched_us", t.cache_build_patched_us, "us",
               "3 methods");
    report.Add("core.dirty_share", t.core_dirty_share, "share");
    for (size_t m = 0; m < kMethods.size(); ++m) {
      report.Add(std::string("core.score_us.") + MethodShort(kMethods[m]),
                 t.core_score_us[m], "us");
    }
    report.Add("core.sort_us", t.core_sort_us, "us", "3 methods");
    report.Add("sched.tasks", PerOp(c.sched_tasks, untraced), "count/op");
    report.Add("sched.steals", PerOp(c.sched_steals, untraced), "count/op");
    const int64_t lookups = c.hits + c.misses;
    report.Add("cache.hit_ratio",
               lookups > 0 ? static_cast<double>(c.hits) /
                                 static_cast<double>(lookups)
                           : 0.0,
               "share");
    report.Add("cache.evictions", PerOp(c.evictions, untraced), "count/op");
    report.Add("engine.delta_rescores", PerOp(c.delta_rescores, untraced),
               "count/op");
    report.Add("engine.delta_fallbacks", PerOp(c.delta_fallbacks, untraced),
               "count/op");
    report.Add("engine.scores_computed", PerOp(c.scores_computed, untraced),
               "count/op");
    report.Add("core.sorts", PerOp(c.sorts, untraced), "count/op");
    report.Add("engine.e2e_untraced_us", e2e_untraced, "us");
    report.Add("engine.e2e_traced_us", e2e_traced, "us");
    report.Add("trace.overhead_us", e2e_traced - e2e_untraced, "us");
    report.Add("engine.layers_us", road_us, "us");
    report.Add("engine.self_us", e2e_untraced - road_us, "us");
    report.PrintTable("per-layer metrics");
  }

  bad += workload->setup_failures();
  const bool correct = bad == 0 && attempted > 0;
  std::printf("\n%s: %lld ops attempted, %lld failed or wrong\n",
              correct ? "PASS" : "FAIL", static_cast<long long>(attempted),
              static_cast<long long>(bad));
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false", static_cast<long long>(attempted),
              static_cast<long long>(bad), report.Json().c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
