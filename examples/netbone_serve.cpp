// Serving-engine tour: stand up a BackboneEngine, intern a few networks
// (one submitted twice to show content-addressed dedup), replay a
// deterministic request trace through the async Submit pipeline, and dump
// the engine's cache statistics.
//
//   ./example_netbone_serve [num_requests] [cache_mb]
//   ./example_netbone_serve --shards=N [num_requests] [cache_mb]
//   ./example_netbone_serve --chaos[=seed] [num_requests] [cache_mb]
//   ./example_netbone_serve --snapshot-dir=PATH [num_requests] [cache_mb]
//   ./example_netbone_serve --stats-interval=MS --metrics-json=PATH
//                           --trace-sample=N [num_requests] [cache_mb]
//
// The trace mimics a production mix: a skewed graph popularity (one hot
// network), method cycling, and a mix of request kinds — threshold
// extractions, O(1) coverage points, full sweep profiles.
//
// --shards=N serves the same trace through a ShardedBackboneEngine:
// every request routes to one of N independent engine shards by graph
// fingerprint (budgets split N ways, per-shard snapshot subdirectories
// under --snapshot-dir, per-shard "shardK." metric namespaces next to
// the unprefixed rollup). Responses are bit-identical at every N.
//
// --chaos replays the same trace under seeded fault injection
// (service/fault_injection.h): 2% scoring failures, 2% injected scoring
// latency, 2% dropped cache inserts and 2% dispatcher stalls — plus,
// when --snapshot-dir is given, 10% snapshot write failures, short
// reads and pre-rename kills — with every request carrying a 250 ms
// deadline and opting into degradation. The seed makes a run
// reproducible — rerunning with the same seed injects the same faults at
// the same draws. Failed requests are expected here (and typed); the
// exit code only reflects crashes/untyped failures.
//
// --snapshot-dir=PATH enables crash-safe persistence: the engine
// restores the snapshot found there at startup (a second run of this
// example serves warm from request one), writes a fresh one on clean
// shutdown, and a SIGTERM mid-replay stops the trace and snapshots
// before exiting — kill -TERM is a clean drain, not a data loss.
//
// Observability (src/obs/): the final summary always ends with the
// engine's full metric table (merged with the process-wide scheduler
// registry). --stats-interval=MS additionally dumps that table roughly
// every MS milliseconds while the replay runs, and SIGUSR1 triggers one
// on-demand dump at the next monitor tick. --metrics-json=PATH writes
// the final snapshot as BENCH_*.json-schema JSON (diffable with
// bench/compare_bench_json.py). --trace-sample=N samples every Nth
// request into the trace ring and prints the span chains of the last
// few sampled requests at exit.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/timer.h"
#include "core/registry.h"
#include "gen/erdos_renyi.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "service/fault_injection.h"
#include "service/sharded_engine.h"

namespace nb = netbone;

namespace {

// Async-signal-safe flags: the handlers only set them; the replay loop
// and the monitor thread poll them. SIGTERM drains cleanly; SIGUSR1
// requests one metrics dump at the next monitor tick.
volatile std::sig_atomic_t g_terminate = 0;
volatile std::sig_atomic_t g_dump_metrics = 0;

void HandleSigterm(int) { g_terminate = 1; }
void HandleSigusr1(int) { g_dump_metrics = 1; }

/// Engine registry merged with the process-wide one (scheduler metrics),
/// so one dump shows the whole serving stack. With --shards=N this is
/// the rollup plus every shard's "shardK." namespace.
nb::obs::MetricsSnapshot MergedMetrics(
    const nb::ShardedBackboneEngine& engine) {
  nb::obs::MetricsSnapshot snapshot = engine.Metrics();
  snapshot.Merge(nb::obs::MetricRegistry::Global().Snapshot());
  return snapshot;
}

/// Background metrics monitor: wakes every 50 ms to honour SIGUSR1
/// promptly, and prints the full table every `interval` (0 = only on
/// signal). Stopped (and joined) before the final summary prints.
class MetricsMonitor {
 public:
  MetricsMonitor(const nb::ShardedBackboneEngine& engine,
                 std::chrono::milliseconds interval)
      : engine_(engine), interval_(interval) {
    thread_ = std::thread([this] { Run(); });
  }
  ~MetricsMonitor() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_one();
    thread_.join();
  }

 private:
  void Run() {
    auto next_dump = interval_.count() > 0
                         ? std::chrono::steady_clock::now() + interval_
                         : std::chrono::steady_clock::time_point::max();
    std::unique_lock<std::mutex> lock(mu_);
    while (!stop_) {
      cv_.wait_for(lock, std::chrono::milliseconds(50),
                   [this] { return stop_; });
      if (stop_) break;
      const bool on_demand = g_dump_metrics != 0;
      const bool periodic =
          interval_.count() > 0 &&
          std::chrono::steady_clock::now() >= next_dump;
      if (!on_demand && !periodic) continue;
      g_dump_metrics = 0;
      if (periodic) next_dump += interval_;
      lock.unlock();
      std::printf("\n--- metrics %s ---\n%s",
                  on_demand ? "(SIGUSR1)" : "(interval)",
                  MergedMetrics(engine_).RenderText().c_str());
      std::fflush(stdout);
      lock.lock();
    }
  }

  const nb::ShardedBackboneEngine& engine_;
  const std::chrono::milliseconds interval_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::thread thread_;
};

}  // namespace

int main(int argc, char** argv) {
  bool chaos = false;
  uint64_t chaos_seed = 0xC7A05;
  std::string snapshot_dir;
  std::string metrics_json;
  long stats_interval_ms = 0;
  long trace_sample = 0;
  int num_shards = 1;
  int positional[2] = {400, 64};
  int positionals = 0;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--shards=", 9) == 0) {
      num_shards = std::max(1, static_cast<int>(
                                   std::strtol(argv[i] + 9, nullptr, 0)));
    } else if (std::strncmp(argv[i], "--chaos", 7) == 0) {
      chaos = true;
      if (argv[i][7] == '=') {
        chaos_seed = std::strtoull(argv[i] + 8, nullptr, 0);
      }
    } else if (std::strncmp(argv[i], "--snapshot-dir=", 15) == 0) {
      snapshot_dir = argv[i] + 15;
    } else if (std::strncmp(argv[i], "--metrics-json=", 15) == 0) {
      metrics_json = argv[i] + 15;
    } else if (std::strncmp(argv[i], "--stats-interval=", 17) == 0) {
      stats_interval_ms = std::strtol(argv[i] + 17, nullptr, 0);
    } else if (std::strncmp(argv[i], "--trace-sample=", 15) == 0) {
      trace_sample = std::strtol(argv[i] + 15, nullptr, 0);
    } else if (positionals < 2) {
      positional[positionals++] = std::atoi(argv[i]);
    }
  }
  const int num_requests = positional[0];
  const int64_t cache_mb = positional[1];

  nb::BackboneEngineOptions options;
  options.cache_byte_budget = cache_mb << 20;
  options.snapshot_dir = snapshot_dir;
  options.trace_sample_rate = trace_sample;
  if (chaos) {
    // Bounded admission so the stalled dispatcher exercises shedding.
    options.max_queued_batches = 8;
    options.overload_policy = nb::OverloadPolicy::kShedOldest;
  }
  // Install injection before the engine exists and keep it installed
  // until after the engine is destroyed: background refreshes may still
  // draw faults on the dispatcher thread during teardown.
  std::unique_ptr<nb::FaultInjector> injector;
  std::unique_ptr<nb::ScopedFaultInjection> injection;
  if (chaos) {
    injector = std::make_unique<nb::FaultInjector>(chaos_seed);
    injector->Configure(nb::FaultSite::kScoringFailure,
                        {.probability = 0.02});
    injector->Configure(nb::FaultSite::kScoringLatency,
                        {.probability = 0.02,
                         .latency = std::chrono::milliseconds(5)});
    injector->Configure(nb::FaultSite::kCacheInsertFailure,
                        {.probability = 0.02});
    injector->Configure(nb::FaultSite::kDispatcherStall,
                        {.probability = 0.02,
                         .latency = std::chrono::milliseconds(5)});
    if (!snapshot_dir.empty()) {
      // Snapshot I/O runs a handful of times per process (restore,
      // periodic, shutdown), so these sites get a higher rate than the
      // per-request ones to actually fire in a short demo.
      injector->Configure(nb::FaultSite::kSnapshotWriteFailure,
                          {.probability = 0.10});
      injector->Configure(nb::FaultSite::kSnapshotShortRead,
                          {.probability = 0.10});
      injector->Configure(nb::FaultSite::kSnapshotRenameKill,
                          {.probability = 0.10});
    }
    injection = std::make_unique<nb::ScopedFaultInjection>(injector.get());
    std::printf("chaos mode: seed 0x%llx, 2%% fault rates, 250 ms "
                "deadlines, degradation on\n",
                static_cast<unsigned long long>(chaos_seed));
  }
  if (!snapshot_dir.empty()) {
    std::signal(SIGTERM, HandleSigterm);
  }
  std::signal(SIGUSR1, HandleSigusr1);
  nb::ShardedBackboneEngineOptions sharded_options;
  sharded_options.num_shards = num_shards;
  sharded_options.engine = options;
  nb::ShardedBackboneEngine engine(sharded_options);
  if (num_shards > 1) {
    std::printf("sharded serving: %d shards, routing epoch %llu\n",
                engine.num_shards(),
                static_cast<unsigned long long>(engine.RoutingEpoch()));
  }
  // The monitor owns all mid-replay dumps (periodic + SIGUSR1); scoped so
  // it joins before the final summary prints.
  std::unique_ptr<MetricsMonitor> monitor = std::make_unique<MetricsMonitor>(
      engine, std::chrono::milliseconds(stats_interval_ms));
  if (!snapshot_dir.empty()) {
    const nb::obs::MetricsSnapshot boot = engine.Metrics();
    std::printf("snapshot restore: %lld graphs, %lld entries, %lld "
                "lineage, %lld quarantined\n",
                static_cast<long long>(boot.ValueOf("engine.restored_graphs")),
                static_cast<long long>(boot.ValueOf("engine.restored_entries")),
                static_cast<long long>(boot.ValueOf("engine.restored_lineage")),
                static_cast<long long>(
                    boot.ValueOf("engine.quarantined_sections")));
  }

  // Three resident networks; the "hot" one is submitted twice and dedupes
  // to a single resident copy.
  std::vector<uint64_t> graphs;
  for (const uint64_t seed : {101, 102, 103}) {
    const auto graph = nb::GenerateErdosRenyi(
        {.num_nodes = seed == 101 ? 2000 : 800,
         .average_degree = 3.0,
         .seed = seed});
    if (!graph.ok()) {
      std::fprintf(stderr, "generator failed: %s\n",
                   graph.status().ToString().c_str());
      return 1;
    }
    graphs.push_back(engine.AddGraph(*graph));
  }
  const auto hot_again = nb::GenerateErdosRenyi(
      {.num_nodes = 2000, .average_degree = 3.0, .seed = 101});
  engine.AddGraph(*hot_again);  // dedup: no second resident copy

  // Deterministic trace. Graph popularity is skewed 4:1:1 toward the hot
  // network; methods and kinds cycle.
  const std::vector<nb::Method> methods = {
      nb::Method::kNoiseCorrected, nb::Method::kDisparityFilter,
      nb::Method::kNaiveThreshold, nb::Method::kMaximumSpanningTree};
  std::vector<nb::BackboneRequest> trace;
  trace.reserve(static_cast<size_t>(num_requests));
  for (int i = 0; i < num_requests; ++i) {
    nb::BackboneRequest request;
    request.graph = graphs[static_cast<size_t>(i % 6 < 4 ? 0 : 1 + i % 2)];
    request.method = methods[static_cast<size_t>(i) % methods.size()];
    request.share = 0.05 + 0.9 * static_cast<double>(i % 17) / 17.0;
    switch (i % 4) {
      case 0:
        request.kind = nb::RequestKind::kTopShare;
        break;
      case 1:
        request.kind = nb::RequestKind::kCoveragePoint;
        break;
      case 2:
        request.kind = nb::RequestKind::kTopK;
        request.k = 50 + i;
        break;
      default:
        request.kind = nb::RequestKind::kSweep;
        request.shares = {0.1, 0.25, 0.5, 0.75, 1.0};
        break;
    }
    if (chaos) {
      request.timeout = std::chrono::milliseconds(250);
      request.allow_degraded = true;
    }
    trace.push_back(std::move(request));
  }

  // Replay through the async pipeline in batches of 32.
  std::printf("replaying %d requests over %lld resident graphs...\n",
              num_requests,
              static_cast<long long>(
                  engine.Metrics().ValueOf("store.graphs")));
  nb::Timer timer;
  std::vector<std::future<std::vector<nb::Result<nb::BackboneResponse>>>>
      futures;
  for (size_t begin = 0; begin < trace.size(); begin += 32) {
    if (g_terminate != 0) {
      std::printf("SIGTERM: draining after %zu submitted requests\n",
                  begin);
      break;
    }
    const size_t end = std::min(begin + 32, trace.size());
    futures.push_back(engine.Submit(std::vector<nb::BackboneRequest>(
        trace.begin() + static_cast<ptrdiff_t>(begin),
        trace.begin() + static_cast<ptrdiff_t>(end))));
  }
  int64_t ok_count = 0, failed = 0, degraded = 0, untyped = 0;
  for (auto& future : futures) {
    for (const auto& result : future.get()) {
      if (result.ok()) {
        ++ok_count;
        if (result->degraded) ++degraded;
      } else {
        ++failed;
        // Under chaos every failure must be typed: overload, deadline,
        // cancellation, or a retried-out transient.
        const nb::Status& status = result.status();
        if (!status.IsUnavailable() && !status.IsResourceExhausted() &&
            !status.IsDeadlineExceeded() && !status.IsCancelled()) {
          ++untyped;
          std::fprintf(stderr, "untyped failure: %s\n",
                       status.ToString().c_str());
        }
      }
    }
  }
  const double elapsed = timer.ElapsedSeconds();

  // One readout for the whole summary: the sharded rollup (equal to the
  // engine's own names at --shards=1) plus the router's gauges.
  const nb::obs::MetricsSnapshot summary = engine.Metrics();
  const auto value = [&summary](const std::string& name) {
    return static_cast<long long>(summary.ValueOf(name));
  };
  if (num_shards > 1) {
    std::printf("\n%-28s %12lld\n", "routing epoch",
                value("sharded.routing_epoch"));
    std::printf("%-28s %12lld\n", "routing overrides",
                value("sharded.routing_overrides"));
    for (int s = 0; s < engine.num_shards(); ++s) {
      std::printf("shard %-22d %12lld requests\n", s,
                  value("shard" + std::to_string(s) + ".engine.requests"));
    }
  }
  std::printf("\n%-28s %12lld\n", "requests ok / failed",
              static_cast<long long>(ok_count));
  std::printf("%-28s %12lld\n", "  failed",
              static_cast<long long>(failed));
  std::printf("%-28s %12.1f\n", "requests / second",
              static_cast<double>(ok_count + failed) / elapsed);
  std::printf("%-28s %12lld\n", "methods scored (cold)",
              value("engine.scores_computed"));
  const long long hits = value("cache.hits");
  const long long lookups = hits + value("cache.misses");
  std::printf("%-28s %12lld\n", "cache hits", hits);
  std::printf("%-28s %12lld\n", "cache misses", value("cache.misses"));
  // No lookups (an empty trace) reads as a 0 hit rate, not 0/0.
  std::printf("%-28s %12.4f\n", "hit rate",
              lookups > 0 ? static_cast<double>(hits) /
                                static_cast<double>(lookups)
                          : 0.0);
  std::printf("%-28s %12lld\n", "cache evictions", value("cache.evictions"));
  std::printf("%-28s %12.2f\n", "cache MB",
              static_cast<double>(value("cache.bytes")) / (1 << 20));
  std::printf("%-28s %12lld\n", "resident graphs", value("store.graphs"));
  std::printf("%-28s %12lld\n", "graph dedup hits",
              value("store.dedup_hits"));
  std::printf("%-28s %12.2f\n", "resident graph MB",
              static_cast<double>(value("store.resident_bytes")) / (1 << 20));
  if (!snapshot_dir.empty()) {
    // Snapshot the drained state explicitly (a SIGTERM drain wants the
    // state on disk even if the destructor's shutdown snapshot is then a
    // no-op re-write) and report durability counters.
    const nb::Status written = engine.WriteSnapshotNow();
    if (!written.ok()) {
      std::fprintf(stderr, "snapshot write failed: %s\n",
                   written.ToString().c_str());
    }
    const nb::obs::MetricsSnapshot snap = engine.Metrics();
    std::printf("%-28s %12lld\n", "snapshot writes",
                static_cast<long long>(snap.ValueOf("engine.snapshot_writes")));
    std::printf("%-28s %12lld\n", "snapshot write failures",
                static_cast<long long>(
                    snap.ValueOf("engine.snapshot_failures")));
  }
  // Final observability summary: stop the monitor first so its dumps
  // cannot interleave, then render one merged snapshot. The same
  // snapshot drives the chaos per-site report below — injected-vs-drawn
  // counts come from the registry's fault gauges, the same source of
  // truth every other dump reads, not from a private injector pointer.
  monitor.reset();
  const nb::obs::MetricsSnapshot metrics = MergedMetrics(engine);
  std::printf("\n--- final metrics ---\n%s", metrics.RenderText().c_str());
  if (!metrics_json.empty()) {
    if (metrics.WriteJsonFile(metrics_json, "netbone_serve")) {
      std::printf("metrics json: %s\n", metrics_json.c_str());
    } else {
      std::fprintf(stderr, "failed to write metrics json: %s\n",
                   metrics_json.c_str());
    }
  }
  if (trace_sample > 0) {
    // Each shard samples into its own ring; the demo prints shard 0's
    // span chains (with --shards=1 that is every trace).
    const nb::obs::TraceRecorder& tracer = engine.shard(0).tracer();
    const auto traces = tracer.Snapshot();
    std::printf("\ntraces: %lld sampled, %lld dropped; last %zu:\n",
                static_cast<long long>(tracer.sampled()),
                static_cast<long long>(tracer.dropped()),
                std::min<size_t>(traces.size(), 3));
    for (size_t t = traces.size() - std::min<size_t>(traces.size(), 3);
         t < traces.size(); ++t) {
      const nb::obs::RequestTrace& trace = traces[t];
      std::printf("  #%llu %s/%s path=%s total=%lldus spans:",
                  static_cast<unsigned long long>(trace.request_id),
                  trace.method, trace.kind,
                  nb::obs::AnswerPathName(trace.path),
                  static_cast<long long>(trace.total_ns / 1000));
      for (int s = 0; s < trace.num_spans; ++s) {
        std::printf(" %s=%lldus",
                    nb::obs::SpanKindName(trace.spans[s].kind),
                    static_cast<long long>(
                        trace.spans[s].duration_ns / 1000));
      }
      std::printf("\n");
    }
  }
  if (chaos) {
    std::printf("\n%-28s %12lld\n", "degraded responses",
                static_cast<long long>(degraded));
    for (const char* name :
         {"engine.retries", "engine.deadline_hits", "engine.shed_batches",
          "cache.insert_failures", "engine.background_refreshes"}) {
      std::printf("%-28s %12lld\n", name,
                  static_cast<long long>(metrics.ValueOf(name)));
    }
    for (int s = 0; s < nb::kNumFaultSites; ++s) {
      const auto site = static_cast<nb::FaultSite>(s);
      const std::string base =
          std::string("fault.") + nb::FaultSiteName(site);
      std::printf("fault %-22s %6lld / %-6lld injected/draws\n",
                  nb::FaultSiteName(site),
                  static_cast<long long>(metrics.ValueOf(base + ".injected")),
                  static_cast<long long>(metrics.ValueOf(base + ".draws")));
    }
    // Chaos succeeds as long as nothing crashed, wedged, or failed with
    // an untyped status; injected failures are the point.
    return untyped == 0 ? 0 : 1;
  }
  return failed == 0 ? 0 : 1;
}
