// The three workloads of the serving benchmark. Each drives one
// BackboneEngine through one road in a closed loop (every caller waits for
// its answer) and checks every response against the uncached library path.
// README.md records why each workload was chosen.

#include "workloads.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <limits>
#include <thread>
#include <utility>

#include "common/random.h"
#include "core/filter.h"
#include "gen/barabasi_albert.h"
#include "gen/erdos_renyi.h"
#include "graph/builder.h"
#include "obs/metrics.h"
#include "service/graph_store.h"

namespace perfbench {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

[[noreturn]] void Die(const std::string& what) {
  std::fprintf(stderr, "perfbench: %s\n", what.c_str());
  std::exit(2);
}

/// Re-weights a generated topology with integer counts drawn by `weight`.
GraphSpec CountSpec(const nb::Graph& topology,
                    const std::function<double()>& weight) {
  GraphSpec spec;
  spec.directedness = topology.directedness();
  spec.num_nodes = topology.num_nodes();
  spec.edges = topology.edges();
  for (nb::Edge& e : spec.edges) e.weight = weight();
  return spec;
}

/// The fig9 scalability family (Erdos-Renyi, average degree 3) at 150k
/// edges, re-weighted to counts in [2, 100] as bench_delta_rescore does.
GraphSpec Fig9Spec(uint64_t seed) {
  nb::Result<nb::Graph> er = nb::GenerateErdosRenyi(
      {.num_nodes = 100000, .average_degree = 3.0, .seed = seed});
  if (!er.ok()) Die("ER generation failed: " + er.status().message());
  GraphSpec spec;
  spec.directedness = er->directedness();
  spec.num_nodes = er->num_nodes();
  spec.edges = er->edges();
  for (nb::Edge& e : spec.edges) e.weight = std::floor(e.weight) + 1.0;
  return spec;
}

/// Runs fn(i) for i in [0, n) on HostThreads() threads.
void ParallelIndex(int n, const std::function<void(int)>& fn) {
  std::atomic<int> next{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < std::min(n, HostThreads()); ++t) {
    threads.emplace_back([&] {
      for (int i = next++; i < n; i = next++) fn(i);
    });
  }
  for (std::thread& thread : threads) thread.join();
}

/// One re-observation of `base` touching 0.1% of its edges.
GraphSpec ChurnRevision(const GraphSpec& base) {
  GraphSpec next = base;
  std::vector<bool> used(base.edges.size(), false);
  nb::Rng rng(nb::Mix64(base.edges.size()));
  const int64_t touched = static_cast<int64_t>(base.edges.size()) / 1000;
  ApplyTransfers(DrawTransfers(base, touched, &rng, &used), +1, &next);
  return next;
}

using Answers = std::array<nb::BackboneResponse, kMethods.size()>;

/// The TopShare answers of one graph for every method, computed on one
/// thread (callers parallelize over graphs).
Answers TopShareAnswers(const GraphSpec& spec, double share) {
  const std::shared_ptr<const nb::Graph> graph = spec.BuildShared();
  Answers answers;
  for (size_t m = 0; m < kMethods.size(); ++m) {
    const Reference ref(graph, kMethods[m], /*threads=*/1);
    answers[m] = ref.Answer(TopShareRequest(0, kMethods[m], share));
  }
  return answers;
}

}  // namespace

const char* MethodShort(nb::Method method) {
  switch (method) {
    case nb::Method::kNoiseCorrected:
      return "nc";
    case nb::Method::kDisparityFilter:
      return "df";
    case nb::Method::kNaiveThreshold:
      return "nt";
    default:
      return "other";
  }
}

int HostThreads() {
  return static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
}

nb::Graph GraphSpec::Build() const {
  nb::GraphBuilder builder(directedness);
  builder.ReserveNodes(num_nodes);
  for (const nb::Edge& e : edges) builder.AddEdge(e.src, e.dst, e.weight);
  nb::Result<nb::Graph> graph = builder.Build();
  if (!graph.ok()) Die("graph build failed: " + graph.status().message());
  return *std::move(graph);
}

std::shared_ptr<const nb::Graph> GraphSpec::BuildShared() const {
  return std::make_shared<const nb::Graph>(Build());
}

void ApplyTransfers(const std::vector<Transfer>& transfers, int sign,
                    GraphSpec* spec) {
  for (const Transfer& t : transfers) {
    spec->edges[static_cast<size_t>(t.from)].weight -= sign;
    spec->edges[static_cast<size_t>(t.to)].weight += sign;
  }
}

std::vector<Transfer> DrawTransfers(const GraphSpec& spec,
                                    int64_t edges_touched, nb::Rng* rng,
                                    std::vector<bool>* used) {
  const uint64_t n = spec.edges.size();
  const size_t count =
      static_cast<size_t>(std::max<int64_t>(1, edges_touched / 2));
  std::vector<Transfer> out;
  while (out.size() < count) {
    const uint64_t a = rng->NextBounded(n);
    const uint64_t b = rng->NextBounded(n);
    if (a == b || (*used)[a] || (*used)[b] || spec.edges[a].weight < 2.0) {
      continue;
    }
    (*used)[a] = (*used)[b] = true;
    out.push_back(Transfer{static_cast<int64_t>(a), static_cast<int64_t>(b)});
  }
  return out;
}

Reference::Reference(std::shared_ptr<const nb::Graph> graph,
                     nb::Method method, int threads)
    : graph_(std::move(graph)) {
  nb::RunMethodOptions options;
  options.num_threads = threads;
  nb::Result<nb::ScoredEdges> scored = nb::RunMethod(method, *graph_, options);
  if (!scored.ok()) Die("reference scoring failed: " + scored.status().message());
  scored_ = std::make_unique<nb::ScoredEdges>(*std::move(scored));
  order_ = std::make_unique<nb::ScoreOrder>(*scored_);
  profile_ = nb::BuildSweepProfile(*order_);
}

nb::BackboneResponse Reference::Answer(
    const nb::BackboneRequest& request) const {
  nb::BackboneResponse response;
  const auto extraction = [&](int64_t k) {
    const int64_t kept = std::clamp<int64_t>(k, 0, order_->size());
    response.kept = kept;
    if (profile_.target_nodes > 0) response.coverage = profile_.CoverageAt(kept);
    response.weight_share = profile_.WeightShareAt(kept);
    if (request.include_edges) {
      response.kept_edges = nb::MaskToEdgeIds(order_->PrefixMask(k));
    }
  };
  switch (request.kind) {
    case nb::RequestKind::kTopK:
      extraction(request.k);
      break;
    case nb::RequestKind::kTopShare:
      extraction(order_->KForShare(request.share));
      break;
    case nb::RequestKind::kScoreThreshold:
      extraction(order_->CountAbove(request.threshold));
      break;
    case nb::RequestKind::kGrowUntilConnected:
      extraction(profile_.connect_k);
      break;
    case nb::RequestKind::kSweep:
      for (const double share : request.shares) {
        const int64_t k = order_->KForShare(share);
        response.sweep.push_back(nb::SweepPoint{k, profile_.CoverageAt(k),
                                                profile_.WeightShareAt(k)});
      }
      response.connect_k = profile_.connect_k;
      break;
    case nb::RequestKind::kCoveragePoint: {
      const int64_t k = order_->KForShare(request.share);
      response.kept = k;
      response.coverage = profile_.CoverageAt(k);
      response.weight_share = profile_.WeightShareAt(k);
      break;
    }
    case nb::RequestKind::kStabilityPoint:
      Die("stability requests are not part of any workload");
  }
  return response;
}

bool SameAnswer(const nb::BackboneResponse& got,
                const nb::BackboneResponse& want) {
  return !got.degraded && got.kept_edges == want.kept_edges &&
         got.kept == want.kept && got.coverage == want.coverage &&
         got.weight_share == want.weight_share && got.sweep == want.sweep &&
         got.connect_k == want.connect_k;
}

double ResponseBytes(const nb::BackboneResponse& response) {
  return static_cast<double>(
      sizeof(nb::BackboneResponse) +
      response.kept_edges.size() * sizeof(nb::EdgeId) +
      response.sweep.size() * sizeof(nb::SweepPoint));
}

nb::BackboneRequest TopShareRequest(uint64_t graph, nb::Method method,
                                    double share) {
  nb::BackboneRequest request;
  request.graph = graph;
  request.method = method;
  request.kind = nb::RequestKind::kTopShare;
  request.share = share;
  return request;
}

ReadSet TopShareReadSet(std::shared_ptr<const nb::Graph> graph,
                        double share) {
  ReadSet set;
  const uint64_t fingerprint = nb::GraphFingerprint(*graph);
  set.graphs.push_back(graph);
  set.fingerprints.push_back(fingerprint);
  for (size_t m = 0; m < kMethods.size(); ++m) {
    set.refs.push_back(
        std::make_unique<Reference>(graph, kMethods[m], HostThreads()));
    set.requests.push_back(TopShareRequest(fingerprint, kMethods[m], share));
    set.request_ref.push_back(static_cast<int>(m));
    set.expected.push_back(set.refs.back()->Answer(set.requests.back()));
  }
  for (int c = 0; c < HostThreads(); ++c) {
    std::vector<int> sequence;
    for (int i = 0; i < 3; ++i) sequence.push_back((c + i) % 3);
    set.sequences.push_back(sequence);
  }
  return set;
}

Counts Counts::Read(const nb::BackboneEngine& engine) {
  const nb::obs::MetricsSnapshot metrics = engine.Metrics();
  const nb::obs::MetricsSnapshot global =
      nb::obs::MetricRegistry::Global().Snapshot();
  Counts c;
  c.hits = metrics.ValueOf("cache.hits");
  c.misses = metrics.ValueOf("cache.misses");
  c.evictions = metrics.ValueOf("cache.evictions");
  c.delta_rescores = metrics.ValueOf("engine.delta_rescores");
  c.delta_fallbacks = metrics.ValueOf("engine.delta_fallbacks");
  c.scores_computed = metrics.ValueOf("engine.scores_computed");
  c.sorts = nb::ScoreOrder::SortsPerformed();
  c.sched_tasks = global.ValueOf("scheduler.tasks_executed");
  c.sched_steals = global.ValueOf("scheduler.steals");
  return c;
}

Counts Counts::operator-(const Counts& before) const {
  Counts d;
  d.hits = hits - before.hits;
  d.misses = misses - before.misses;
  d.evictions = evictions - before.evictions;
  d.delta_rescores = delta_rescores - before.delta_rescores;
  d.delta_fallbacks = delta_fallbacks - before.delta_fallbacks;
  d.scores_computed = scores_computed - before.scores_computed;
  d.sorts = sorts - before.sorts;
  d.sched_tasks = sched_tasks - before.sched_tasks;
  d.sched_steals = sched_steals - before.sched_steals;
  return d;
}

Window Window::Of(const std::vector<double>& latency_us, int clients,
                  double probe_us) {
  Window w;
  w.ops = static_cast<int64_t>(latency_us.size());
  w.p50_us = Median(latency_us);
  w.p95_us = Quantile(latency_us, 0.95);
  w.p99_us = Quantile(latency_us, 0.99);
  double busy_us = 0.0;
  int64_t completed = 0;
  for (const double us : latency_us) {
    if (std::isfinite(us)) {
      busy_us += us;
      ++completed;
    }
  }
  w.throughput = busy_us > 0.0 ? clients * static_cast<double>(completed) /
                                     (busy_us / 1e6)
                               : 0.0;
  w.probe_us = probe_us;
  return w;
}

double Phase::MedianOf(double Window::*field, bool scaled) const {
  std::vector<double> values;
  for (const Window& w : windows) {
    const double scale = scaled ? HostSpeed::ScaleFor(w.probe_us) : 1.0;
    values.push_back(field == &Window::throughput ? w.*field / scale
                                                  : w.*field * scale);
  }
  return Median(values);
}

int64_t Phase::ops() const {
  int64_t n = 0;
  for (const Window& w : windows) n += w.ops;
  return n;
}

Phase Measure(Workload& workload, double seconds, SpanLog* spans,
              HostSpeed* host) {
  Phase phase;
  phase.clients = workload.clients();
  const Counts before = Counts::Read(workload.engine());
  std::vector<double> latency_us;
  // Reserved up front, as the clients' logs are.
  latency_us.reserve(
      static_cast<size_t>(kWindowSeconds * 200000.0 * phase.clients));
  const int windows =
      std::max(1, static_cast<int>(std::lround(seconds / kWindowSeconds)));
  double probe_before = host->SampleUs();
  for (int w = 0; w < windows; ++w) {
    latency_us.clear();
    workload.RunFor(seconds / windows, spans, &phase, &latency_us);
    const double probe_after = host->SampleUs();
    phase.windows.push_back(Window::Of(latency_us, phase.clients,
                                       (probe_before + probe_after) / 2));
    probe_before = probe_after;
  }
  phase.counts = Counts::Read(workload.engine()) - before;
  return phase;
}

void RunReadClients(nb::BackboneEngine& engine, const ReadSet& set,
                    int clients, double seconds, SpanLog* spans,
                    Phase* phase, std::vector<double>* latency_us) {
  struct ClientLog {
    std::vector<double> latency_us;
    int64_t failed = 0;
    int64_t wrong = 0;
    SpanLog spans;
  };
  std::vector<ClientLog> logs(static_cast<size_t>(clients));
  std::atomic<bool> stop{false};
  std::atomic<int> ready{0};
  // Later windows of a phase start further along the sequences.
  const size_t offset = static_cast<size_t>(phase->attempted);
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      ClientLog& log = logs[static_cast<size_t>(c)];
      const std::vector<int>& sequence =
          set.sequences[static_cast<size_t>(c) % set.sequences.size()];
      const int name = log.spans.Intern("engine.Execute");
      // Reserved up front (untouched pages cost no RSS): growth by
      // doubling would make peak RSS jump with throughput.
      log.latency_us.reserve(static_cast<size_t>(seconds * 200000.0));
      ++ready;
      while (ready.load() < clients) std::this_thread::yield();
      for (size_t i = offset; !stop.load(std::memory_order_relaxed); ++i) {
        const int r = sequence[i % sequence.size()];
        const int64_t start = NowNs();
        const int span = spans != nullptr ? log.spans.Open(name) : -1;
        nb::Result<nb::BackboneResponse> response =
            engine.Execute(set.requests[static_cast<size_t>(r)]);
        if (span >= 0) log.spans.Close(span);
        const int64_t end = NowNs();
        if (!response.ok()) {
          ++log.failed;
          log.latency_us.push_back(kInf);
          continue;
        }
        log.latency_us.push_back(static_cast<double>(end - start) / 1e3);
        if (!response->cache_hit ||
            !SameAnswer(*response, set.expected[static_cast<size_t>(r)])) {
          ++log.wrong;
        }
      }
    });
  }
  while (ready.load() < clients) std::this_thread::yield();
  std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
  stop = true;
  for (std::thread& thread : threads) thread.join();

  for (const ClientLog& log : logs) {
    latency_us->insert(latency_us->end(), log.latency_us.begin(),
                       log.latency_us.end());
    phase->attempted += static_cast<int64_t>(log.latency_us.size());
    phase->failed += log.failed;
    phase->wrong += log.wrong;
    if (spans != nullptr) spans->Append(log.spans);
  }
}

namespace {

// ---------------------------------------------------------------------------
// warm_hot: HostThreads() clients read a resident working set of a dozen
// count-data graphs (3k-30k edges) with Zipf-skewed keys; every request is
// a cache hit.
// ---------------------------------------------------------------------------
class WarmHot final : public Workload {
 public:
  void Prepare(uint64_t seed) override {
    nb::Rng rng(seed);
    for (int i = 0; i < kGraphs; ++i) {
      // Log-spaced sizes from 3k to 30k edges at average degree 20,
      // alternating undirected ER, directed ER and undirected BA.
      const double edges = 3000.0 * std::pow(10.0, i / (kGraphs - 1.0));
      const uint64_t graph_seed = nb::Mix64(seed * kGraphs + i + 1);
      const nb::Result<nb::Graph> topology = [&] {
        if (i % 3 == 2) {
          return nb::GenerateBarabasiAlbert(
              {.num_nodes = static_cast<nb::NodeId>(edges / 10.0),
               .average_degree = 20.0,
               .seed = graph_seed});
        }
        const bool directed = i % 3 == 1;
        return nb::GenerateErdosRenyi(
            {.num_nodes =
                 static_cast<nb::NodeId>(edges / (directed ? 20.0 : 10.0)),
             .average_degree = 20.0,
             .directedness = directed ? nb::Directedness::kDirected
                                      : nb::Directedness::kUndirected,
             .seed = graph_seed});
      }();
      if (!topology.ok()) Die("warm graph generation failed");
      // Heavy-tailed counts in [1, 1000), like trade or flow tallies.
      specs_.push_back(CountSpec(*topology, [&rng] {
        return std::floor(std::pow(1000.0, rng.NextDouble()));
      }));
    }

    set_.graphs.resize(kGraphs);
    set_.fingerprints.resize(kGraphs);
    set_.refs.resize(kGraphs * kMethods.size());
    ParallelIndex(kGraphs, [&](int g) {
      set_.graphs[g] = specs_[g].BuildShared();
      set_.fingerprints[g] = nb::GraphFingerprint(*set_.graphs[g]);
      for (size_t m = 0; m < kMethods.size(); ++m) {
        set_.refs[g * kMethods.size() + m] =
            std::make_unique<Reference>(set_.graphs[g], kMethods[m], 1);
      }
    });

    for (int g = 0; g < kGraphs; ++g) {
      for (size_t m = 0; m < kMethods.size(); ++m) {
        const int ref_index = static_cast<int>(g * kMethods.size() + m);
        const Reference& ref = *set_.refs[static_cast<size_t>(ref_index)];
        for (nb::BackboneRequest request :
             Variants(ref, set_.fingerprints[g], kMethods[m])) {
          set_.expected.push_back(ref.Answer(request));
          set_.requests.push_back(std::move(request));
          set_.request_ref.push_back(ref_index);
        }
      }
    }

    // Zipf(1) over graphs with a fixed popularity ranking, so the seed
    // changes the graphs and the draw order but not which sizes are hot.
    constexpr int kHotOrder[kGraphs] = {5, 11, 2, 8, 0, 6, 9, 3, 10, 1, 7, 4};
    std::vector<double> cdf;
    double total = 0.0;
    for (int rank = 0; rank < kGraphs; ++rank) {
      total += 1.0 / (rank + 1.0);
      cdf.push_back(total);
    }
    const int per_graph = static_cast<int>(set_.requests.size()) / kGraphs;
    for (int c = 0; c < HostThreads(); ++c) {
      nb::Rng draw(nb::Mix64(seed ^ (0x5eedULL + c)));
      std::vector<int> sequence;
      for (int i = 0; i < (1 << 16); ++i) {
        const double u = draw.NextDouble() * total;
        const int rank = static_cast<int>(
            std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
        const int g = kHotOrder[std::min(rank, kGraphs - 1)];
        sequence.push_back(g * per_graph +
                           static_cast<int>(draw.NextBounded(per_graph)));
      }
      set_.sequences.push_back(std::move(sequence));
    }
  }

  double SetUp() override {
    std::vector<nb::Graph> fresh;
    for (const GraphSpec& spec : specs_) fresh.push_back(spec.Build());
    engine_.reset();
    nb::BackboneEngineOptions options;
    options.cache_byte_budget = 0;  // unlimited: exceeds the working set
    const Clock::time_point start = Clock::now();
    engine_ = std::make_unique<nb::BackboneEngine>(options);
    std::vector<uint64_t> fingerprints;
    for (nb::Graph& graph : fresh) {
      fingerprints.push_back(engine_->AddGraph(std::move(graph)));
    }
    std::vector<nb::Result<nb::BackboneResponse>> warm;
    for (const uint64_t fingerprint : fingerprints) {
      for (const nb::Method method : kMethods) {
        warm.push_back(
            engine_->Execute(TopShareRequest(fingerprint, method, 0.05)));
      }
    }
    const double seconds = SecondsSince(start);

    for (size_t i = 0; i < warm.size(); ++i) {
      const size_t g = i / kMethods.size();
      const nb::BackboneRequest request =
          TopShareRequest(set_.fingerprints[g], kMethods[i % kMethods.size()],
                          0.05);
      if (fingerprints[g] != set_.fingerprints[g] || !warm[i].ok() ||
          !SameAnswer(*warm[i], set_.refs[i]->Answer(request))) {
        ++setup_failures_;
      }
    }
    // Warm-up pass, untimed: every distinct request once.
    for (size_t r = 0; r < set_.requests.size(); ++r) {
      nb::Result<nb::BackboneResponse> response =
          engine_->Execute(set_.requests[r]);
      if (!response.ok() || !SameAnswer(*response, set_.expected[r])) {
        ++setup_failures_;
      }
    }
    return seconds;
  }

  void RunFor(double seconds, SpanLog* spans, Phase* phase,
              std::vector<double>* latency_us) override {
    RunReadClients(*engine_, set_, clients(), seconds, spans, phase,
                   latency_us);
  }

  int clients() const override { return HostThreads(); }

  void Probe(LayerTimes* out) override {
    ProbeReadRoad(*engine_, set_, out);
    // The write road on the largest graph of the set and one 0.1%-churn
    // re-observation of it.
    ProbeWriteRoad(specs_.back(), ChurnRevision(specs_.back()), out);
  }

  double PrintRoadBudget(const LayerTimes& t) const override {
    const double find = t.store_find_ns / 1e3;
    const double get = t.cache_get_ns / 1e3;
    const double obs = t.obs_record_ns / 1e3;
    std::printf("  warm road, per request (layer medians, 1 thread):\n");
    std::printf("    store.find %.3f + cache.get %.3f + engine.extract %.3f"
                " + obs.record %.3f us\n",
                find, get, t.engine_extract_us, obs);
    return find + get + t.engine_extract_us + obs;
  }

 private:
  static constexpr int kGraphs = 12;

  /// The request mix on one (graph, method): every extraction kind with
  /// its edge list, coverage points and a 20-point sweep.
  static std::vector<nb::BackboneRequest> Variants(const Reference& ref,
                                                   uint64_t fingerprint,
                                                   nb::Method method) {
    const int64_t edges = ref.order().size();
    std::vector<nb::BackboneRequest> out;
    const auto add = [&](nb::RequestKind kind) -> nb::BackboneRequest& {
      nb::BackboneRequest request;
      request.graph = fingerprint;
      request.method = method;
      request.kind = kind;
      out.push_back(request);
      return out.back();
    };
    add(nb::RequestKind::kTopShare).share = 0.05;
    add(nb::RequestKind::kTopShare).share = 0.2;
    add(nb::RequestKind::kTopK).k = 100;
    add(nb::RequestKind::kTopK).k = edges / 10;
    add(nb::RequestKind::kScoreThreshold).threshold =
        ref.scored().at(ref.order().id_at(edges / 20)).score;
    add(nb::RequestKind::kGrowUntilConnected);
    add(nb::RequestKind::kCoveragePoint).share = 0.1;
    add(nb::RequestKind::kCoveragePoint).share = 0.3;
    nb::BackboneRequest& sweep = add(nb::RequestKind::kSweep);
    for (int i = 1; i <= 20; ++i) sweep.shares.push_back(i / 20.0);
    return out;
  }

  std::vector<GraphSpec> specs_;
  ReadSet set_;
};

// ---------------------------------------------------------------------------
// Shared by the two ingest workloads: one client submits 150k-edge graphs
// and asks one TopShare per method; store and cache are bounded to about
// two graphs so memory stays flat and a graph seen again later is cold.
// ---------------------------------------------------------------------------
class IngestWorkload : public Workload {
 protected:
  static constexpr double kShare = 0.1;

  /// Sizes the store and cache budgets to 2.5 graphs' worth, measured on
  /// a scratch engine that ingested `spec`.
  void SizeBudgets(const GraphSpec& spec) {
    nb::BackboneEngineOptions unlimited;
    unlimited.cache_byte_budget = 0;
    nb::BackboneEngine scratch(unlimited);
    const uint64_t fingerprint = scratch.AddGraph(spec.Build());
    for (const nb::Method method : kMethods) {
      if (!scratch.Execute(TopShareRequest(fingerprint, method, kShare))
               .ok()) {
        ++setup_failures_;
      }
    }
    const nb::obs::MetricsSnapshot metrics = scratch.Metrics();
    options_.cache_byte_budget =
        metrics.ValueOf("cache.bytes") * 5 / 2;
    options_.graph_byte_budget =
        metrics.ValueOf("store.resident_bytes") * 5 / 2;
  }

  /// Set-up: a fresh engine ingests `spec` cold. Returns its seconds.
  double SetUpWith(const GraphSpec& spec, const Answers& want) {
    nb::Graph graph = spec.Build();
    engine_.reset();
    const Clock::time_point start = Clock::now();
    engine_ = std::make_unique<nb::BackboneEngine>(options_);
    const uint64_t fingerprint = engine_->AddGraph(std::move(graph));
    std::vector<nb::Result<nb::BackboneResponse>> responses;
    for (const nb::Method method : kMethods) {
      responses.push_back(
          engine_->Execute(TopShareRequest(fingerprint, method, kShare)));
    }
    const double seconds = SecondsSince(start);
    for (size_t m = 0; m < kMethods.size(); ++m) {
      if (!responses[m].ok() || !SameAnswer(*responses[m], want[m])) {
        ++setup_failures_;
      }
    }
    current_fp_ = fingerprint;
    return seconds;
  }

  /// One op: submit `graph` (as a revision of `base_fp` when non-zero),
  /// then one TopShare per method. Records latency and correctness.
  void Ingest(nb::Graph graph, uint64_t base_fp, const Answers& want,
              SpanLog* spans, Phase* phase, std::vector<double>* latency_us) {
    std::vector<nb::Result<nb::BackboneResponse>> responses;
    responses.reserve(kMethods.size());
    const int64_t start = NowNs();
    const int op = spans != nullptr ? spans->Open(spans->Intern("op")) : -1;
    const int submit =
        spans != nullptr
            ? spans->Open(spans->Intern(base_fp != 0
                                            ? "engine.AddGraphRevision"
                                            : "engine.AddGraph"),
                          op)
            : -1;
    const uint64_t fingerprint =
        base_fp != 0 ? engine_->AddGraphRevision(std::move(graph), base_fp)
                     : engine_->AddGraph(std::move(graph));
    if (submit >= 0) spans->Close(submit);
    for (size_t m = 0; m < kMethods.size(); ++m) {
      const int span =
          spans != nullptr
              ? spans->Open(spans->Intern(std::string("engine.Execute.") +
                                          MethodShort(kMethods[m])),
                            op)
              : -1;
      responses.push_back(
          engine_->Execute(TopShareRequest(fingerprint, kMethods[m], kShare)));
      if (span >= 0) spans->Close(span);
    }
    if (op >= 0) spans->Close(op);
    const int64_t end = NowNs();

    ++phase->attempted;
    bool ok = true;
    bool same = true;
    for (size_t m = 0; m < kMethods.size(); ++m) {
      ok = ok && responses[m].ok();
      same = same && responses[m].ok() && SameAnswer(*responses[m], want[m]);
    }
    if (!ok) {
      ++phase->failed;
      latency_us->push_back(kInf);
    } else {
      latency_us->push_back(static_cast<double>(end - start) / 1e3);
      if (!same) ++phase->wrong;
    }
    current_fp_ = fingerprint;
  }

  /// Probes on the warm graph `current` and the next input `next`.
  void ProbeOn(const GraphSpec& current, const GraphSpec& next,
               LayerTimes* out) {
    const ReadSet set = TopShareReadSet(current.BuildShared(), kShare);
    if (set.fingerprints[0] != current_fp_) ++setup_failures_;
    ProbeReadRoad(*engine_, set, out);
    ProbeWriteRoad(current, next, out);
  }

  double PrintLookups(const LayerTimes& t) const {
    const double per_request = t.engine_extract_us +
                               (t.store_find_ns + t.cache_get_ns +
                                t.obs_record_ns) /
                                   1e3;
    std::printf("    3 x (store.find + cache.get + engine.extract + "
                "obs.record) = 3 x %.3f us\n",
                per_request);
    return 3.0 * per_request;
  }

  nb::BackboneEngineOptions options_;
  uint64_t current_fp_ = 0;
};

// ---------------------------------------------------------------------------
// revision_churn: a stream of noisy re-observations of one 150k-edge
// count-data graph, 0.1% churn each, submitted as revisions of the last.
// ---------------------------------------------------------------------------
class RevisionChurn final : public IngestWorkload {
 public:
  void Prepare(uint64_t seed) override {
    base_ = Fig9Spec(nb::Mix64(seed));
    // The revisions walk a cycle of 2H distinct states: H steps that
    // apply disjoint transfer sets, then H steps that undo them in the
    // same order. Each step touches 0.1% of the edges, and a state comes
    // back only after 2H steps, long after the bounded store and cache
    // dropped it, so every step takes the delta road.
    nb::Rng rng(nb::Mix64(seed ^ 0xc4u));
    std::vector<bool> used(base_.edges.size(), false);
    const int64_t touched = static_cast<int64_t>(base_.edges.size()) / 1000;
    for (int j = 0; j < kHalfCycle; ++j) {
      steps_.push_back(DrawTransfers(base_, touched, &rng, &used));
    }
    answers_.resize(2 * kHalfCycle);
    ParallelIndex(2 * kHalfCycle, [&](int state) {
      GraphSpec spec = base_;
      for (int s = 0; s < state; ++s) Step(s, &spec);
      answers_[state] = TopShareAnswers(spec, kShare);
    });
    SizeBudgets(base_);
  }

  double SetUp() override {
    current_ = base_;
    state_ = 0;
    return SetUpWith(base_, answers_[0]);
  }

  void RunFor(double seconds, SpanLog* spans, Phase* phase,
              std::vector<double>* latency_us) override {
    const Clock::time_point start = Clock::now();
    while (SecondsSince(start) < seconds) {
      Step(state_, &current_);
      state_ = (state_ + 1) % (2 * kHalfCycle);
      Ingest(current_.Build(), current_fp_, answers_[state_], spans, phase,
             latency_us);
    }
  }

  void Probe(LayerTimes* out) override {
    GraphSpec next = current_;
    Step(state_, &next);
    ProbeOn(current_, next, out);
  }

  double PrintRoadBudget(const LayerTimes& t) const override {
    std::printf("  revision road, per revision (layer medians):\n");
    std::printf("    engine.add_revision %.1f (store.fingerprint %.1f + "
                "graph.delta %.1f + intern) + graph.columns %.1f +\n"
                "    core.patch %.1f + cache.build_patched %.1f "
                "(core.order_patch %.1f + core.profile %.1f) us\n",
                t.engine_add_revision_us, t.store_fingerprint_us,
                t.graph_delta_us, t.graph_columns_us, t.core_patch_us,
                t.cache_build_patched_us, t.core_order_patch_us,
                t.core_profile_us);
    return t.engine_add_revision_us + t.graph_columns_us + t.core_patch_us +
           t.cache_build_patched_us + PrintLookups(t);
  }

 private:
  static constexpr int kHalfCycle = 12;

  /// Moves `spec` from cycle state `state` to the next one.
  void Step(int state, GraphSpec* spec) const {
    if (state < kHalfCycle) {
      ApplyTransfers(steps_[static_cast<size_t>(state)], +1, spec);
    } else {
      ApplyTransfers(steps_[static_cast<size_t>(state - kHalfCycle)], -1,
                     spec);
    }
  }

  GraphSpec base_;
  GraphSpec current_;
  int state_ = 0;
  std::vector<std::vector<Transfer>> steps_;
  std::vector<Answers> answers_;  ///< per cycle state
};

// ---------------------------------------------------------------------------
// cold_ingest: fresh, unrelated 150k-edge graphs, each scored from scratch.
// ---------------------------------------------------------------------------
class ColdIngest final : public IngestWorkload {
 public:
  void Prepare(uint64_t seed) override {
    pool_.resize(kPool);
    answers_.resize(kPool);
    ParallelIndex(kPool, [&](int k) {
      pool_[k] = Fig9Spec(nb::Mix64(seed * kPool + k + 1));
      answers_[k] = TopShareAnswers(pool_[k], kShare);
    });
    SizeBudgets(pool_[0]);
  }

  double SetUp() override {
    next_ = 1;
    return SetUpWith(pool_[0], answers_[0]);
  }

  void RunFor(double seconds, SpanLog* spans, Phase* phase,
              std::vector<double>* latency_us) override {
    const Clock::time_point start = Clock::now();
    while (SecondsSince(start) < seconds) {
      last_ = next_;
      next_ = (next_ + 1) % kPool;
      Ingest(pool_[last_].Build(), 0, answers_[last_], spans, phase,
             latency_us);
    }
  }

  void Probe(LayerTimes* out) override {
    ProbeOn(pool_[last_], ChurnRevision(pool_[last_]), out);
  }

  double PrintRoadBudget(const LayerTimes& t) const override {
    double score = 0.0;
    for (const double us : t.core_score_us) score += us;
    std::printf("  cold road, per graph (layer medians):\n");
    std::printf("    store.fingerprint %.1f + graph.columns %.1f + "
                "core.score %.1f (nc %.1f, df %.1f, nt %.1f) +\n"
                "    core.sort %.1f + core.profile %.1f us\n",
                t.store_fingerprint_us, t.graph_columns_us, score,
                t.core_score_us[0], t.core_score_us[1], t.core_score_us[2],
                t.core_sort_us, t.core_profile_us);
    return t.store_fingerprint_us + t.graph_columns_us + score +
           t.core_sort_us + t.core_profile_us + PrintLookups(t);
  }

 private:
  /// Pool size: a graph comes back after kPool ops, long after the
  /// bounded store and cache dropped it.
  static constexpr int kPool = 6;

  std::vector<GraphSpec> pool_;
  std::vector<Answers> answers_;
  int next_ = 1;
  int last_ = 0;
};

}  // namespace

std::unique_ptr<Workload> MakeWorkload(const std::string& name) {
  if (name == "warm_hot") return std::make_unique<WarmHot>();
  if (name == "revision_churn") return std::make_unique<RevisionChurn>();
  if (name == "cold_ingest") return std::make_unique<ColdIngest>();
  return nullptr;
}

}  // namespace perfbench
