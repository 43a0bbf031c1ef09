// The serving benchmark's workloads and the pieces they share: graph
// specs the client builds and submits, the uncached reference answers
// every response is checked against, the closed-loop client loop, and
// the layer probes of the traced run (layers.cc).

#ifndef NETBONE_PERFBENCH_WORKLOADS_H_
#define NETBONE_PERFBENCH_WORKLOADS_H_

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "core/registry.h"
#include "core/sweep.h"
#include "graph/graph.h"
#include "service/engine.h"

namespace perfbench {

namespace nb = netbone;

/// The three local methods every workload requests (the ones the delta
/// road can patch).
inline constexpr std::array<nb::Method, 3> kMethods = {
    nb::Method::kNoiseCorrected, nb::Method::kDisparityFilter,
    nb::Method::kNaiveThreshold};
const char* MethodShort(nb::Method method);

/// Worker and client thread count: the host's hardware concurrency.
int HostThreads();

/// A graph as the client holds it before submission: the canonical edge
/// table. Build() runs the GraphBuilder, so every call yields a fresh
/// Graph whose lazily built edge columns are not yet materialized.
struct GraphSpec {
  nb::Directedness directedness = nb::Directedness::kUndirected;
  nb::NodeId num_nodes = 0;
  std::vector<nb::Edge> edges;

  nb::Graph Build() const;
  std::shared_ptr<const nb::Graph> BuildShared() const;
};

/// One unit weight moved from edge `from` to edge `to` (edge ids of a
/// spec's table): the count-data noise model of a re-observation, which
/// keeps every node total and the matrix total unchanged.
struct Transfer {
  int64_t from = 0;
  int64_t to = 0;
};

/// Applies `transfers` to `spec` (sign +1) or undoes them (sign -1).
void ApplyTransfers(const std::vector<Transfer>& transfers, int sign,
                    GraphSpec* spec);

/// Draws `edges_touched / 2` transfers over edges not yet in `used`
/// (marked as it goes), each taking from an edge of weight >= 2, so any
/// subset of drawn transfers leaves every weight >= 1.
std::vector<Transfer> DrawTransfers(const GraphSpec& spec,
                                    int64_t edges_touched, nb::Rng* rng,
                                    std::vector<bool>* used);

/// The uncached library path for one (graph, method): RunMethod, the one
/// ScoreOrder sort and the SweepProfile pass, then prefix or profile
/// reads per request.
class Reference {
 public:
  Reference(std::shared_ptr<const nb::Graph> graph, nb::Method method,
            int threads);

  const std::shared_ptr<const nb::Graph>& graph() const { return graph_; }
  const nb::ScoredEdges& scored() const { return *scored_; }
  const nb::ScoreOrder& order() const { return *order_; }

  /// The response the engine must return for `request` on this graph and
  /// method.
  nb::BackboneResponse Answer(const nb::BackboneRequest& request) const;

 private:
  std::shared_ptr<const nb::Graph> graph_;
  std::unique_ptr<nb::ScoredEdges> scored_;  // order_ points into it
  std::unique_ptr<nb::ScoreOrder> order_;
  nb::SweepProfile profile_;
};

/// Field-by-field, bit-exact comparison of the answer fields.
bool SameAnswer(const nb::BackboneResponse& got,
                const nb::BackboneResponse& want);

/// Approximate bytes a response hands the client.
double ResponseBytes(const nb::BackboneResponse& response);

nb::BackboneRequest TopShareRequest(uint64_t graph, nb::Method method,
                                    double share);

/// A warm working set: resident graphs, their reference answers, the
/// request mix and each client's request sequence.
struct ReadSet {
  std::vector<std::shared_ptr<const nb::Graph>> graphs;
  std::vector<uint64_t> fingerprints;           ///< per graph
  std::vector<std::unique_ptr<Reference>> refs;  ///< [graph * 3 + method]
  std::vector<nb::BackboneRequest> requests;
  std::vector<int> request_ref;  ///< refs index answering each request
  std::vector<nb::BackboneResponse> expected;  ///< per request
  std::vector<std::vector<int>> sequences;     ///< per client
};

/// Builds the read set of one graph with the three TopShare requests, in
/// round-robin order for every client.
ReadSet TopShareReadSet(std::shared_ptr<const nb::Graph> graph, double share);

/// Engine counts of one phase, read through Metrics() and
/// ScoreOrder::SortsPerformed(), plus the global scheduler's counters.
struct Counts {
  int64_t hits = 0;
  int64_t misses = 0;
  int64_t evictions = 0;
  int64_t delta_rescores = 0;
  int64_t delta_fallbacks = 0;
  int64_t scores_computed = 0;
  int64_t sorts = 0;
  int64_t sched_tasks = 0;
  int64_t sched_steals = 0;

  static Counts Read(const nb::BackboneEngine& engine);
  Counts operator-(const Counts& before) const;
};

/// Order statistics of one measurement window of a phase, in raw
/// microseconds, and the host-probe time measured around it.
struct Window {
  int64_t ops = 0;
  double p50_us = 0;
  double p95_us = 0;
  double p99_us = 0;
  /// Little's law on the closed loop: clients / mean op latency, so
  /// client-side input building and answer checks are excluded.
  double throughput = 0;
  double probe_us = 0;  ///< mean of the samples just before and after

  /// The statistics of `latency_us` (+inf for a failed op, which counts
  /// in the percentiles but not in the throughput).
  static Window Of(const std::vector<double>& latency_us, int clients,
                   double probe_us);
};

/// Outcome of one closed-loop phase: its ops, split into equal windows
/// of about kWindowSeconds each.
struct Phase {
  int64_t attempted = 0;
  int64_t failed = 0;  ///< non-OK Status
  int64_t wrong = 0;   ///< OK but different from the reference answer
  int clients = 1;
  Counts counts;
  std::vector<Window> windows;

  /// Median over the windows of `field`, each window's value multiplied
  /// by its host scale when `scaled` (HostSpeed::ScaleFor), so that times
  /// read at the reference speed. A throughput takes the inverse scale.
  double MedianOf(double Window::*field, bool scaled) const;
  int64_t ops() const;
};

/// Length of one measurement window. The host is probed between windows
/// and every window is reduced to its own order statistics, so a burst of
/// host load touches few windows and moves no median over windows.
inline constexpr double kWindowSeconds = 2.0;

/// Runs `clients` closed-loop client threads against `engine` for
/// `seconds`, each walking its own sequence of `set`'s requests and
/// checking every answer (all must be cache hits). Appends every op's
/// latency (+inf for a failed op) to `latency_us` and counts the ops in
/// `phase`. Spans go to `spans` when non-null.
void RunReadClients(nb::BackboneEngine& engine, const ReadSet& set,
                    int clients, double seconds, SpanLog* spans,
                    Phase* phase, std::vector<double>* latency_us);

/// Layer times of the traced run; see README.md for each one's meaning.
struct LayerTimes {
  double store_find_ns = 0;
  double cache_get_ns = 0;
  double cache_get_ns_contended = 0;
  double obs_record_ns = 0;
  double engine_extract_us = 0;
  double engine_response_bytes = 0;
  double engine_contention_x = 0;
  double engine_add_revision_us = 0;
  double store_fingerprint_us = 0;
  double graph_delta_us = 0;
  double graph_columns_us = 0;
  double core_patch_us = 0;
  double core_order_patch_us = 0;
  double core_profile_us = 0;
  double cache_build_patched_us = 0;
  double core_dirty_share = 0;
  std::array<double, 3> core_score_us{};  ///< per kMethods entry
  double core_sort_us = 0;
  /// Probe steps that failed or saw a wrong answer (they fail the run).
  int64_t probe_failures = 0;
};

/// Read-road probes (store, cache, obs, extraction) on a warm set, plus
/// the engine's 1-client vs `HostThreads()`-client contention ratio.
void ProbeReadRoad(nb::BackboneEngine& engine, const ReadSet& set,
                   LayerTimes* out);

/// Write-road probes on a graph and one re-observation of it: the cold
/// road's stages on `next` (fingerprint, columns, scoring, sort, profile)
/// and the revision road's stages from `base` to `next` (submission,
/// diff, patch, order patch, patched entry build).
void ProbeWriteRoad(const GraphSpec& base, const GraphSpec& next,
                    LayerTimes* out);

/// One workload of the benchmark.
class Workload {
 public:
  virtual ~Workload() = default;

  /// Generates the inputs from `seed` and computes every reference
  /// answer. Untimed.
  virtual void Prepare(uint64_t seed) = 0;

  /// One engine set-up from scratch (construct, ingest, warm); returns
  /// its wall seconds. The last set-up's engine serves the next RunFor.
  virtual double SetUp() = 0;

  /// Closed-loop ops for about `seconds`: appends each op's latency (+inf
  /// for a failed op) to `latency_us` and counts the ops in `phase`.
  /// Records spans when `spans` is set.
  virtual void RunFor(double seconds, SpanLog* spans, Phase* phase,
                      std::vector<double>* latency_us) = 0;

  /// Closed-loop clients RunFor drives at once.
  virtual int clients() const { return 1; }

  /// The engine the last SetUp built.
  const nb::BackboneEngine& engine() const { return *engine_; }

  /// Runs the layer probes on this workload's inputs.
  virtual void Probe(LayerTimes* out) = 0;

  /// Prints the stages one op of this road goes through, with their
  /// times, and returns their sum in microseconds.
  virtual double PrintRoadBudget(const LayerTimes& t) const = 0;

  /// Set-up ops that failed or answered wrong (they fail the run).
  int64_t setup_failures() const { return setup_failures_; }

 protected:
  std::unique_ptr<nb::BackboneEngine> engine_;
  int64_t setup_failures_ = 0;
};

/// One closed-loop phase of `workload` lasting `seconds`, in equal windows
/// of about kWindowSeconds, with one `host` sample before the first window
/// and one after each.
Phase Measure(Workload& workload, double seconds, SpanLog* spans,
              HostSpeed* host);

/// "warm_hot", "revision_churn" or "cold_ingest"; nullptr otherwise.
std::unique_ptr<Workload> MakeWorkload(const std::string& name);

}  // namespace perfbench

#endif  // NETBONE_PERFBENCH_WORKLOADS_H_
