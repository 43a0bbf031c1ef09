// Acceptance harness for incremental delta rescoring (graph/delta.h,
// core/delta_rescore.h, the ScoreOrder patch constructor, and the
// engine's lineage path): full rescore vs patch-from-ancestor for a
// 1%-edge delta on the 2000-node bench graph, re-weighted to small
// integers (the paper's count-data regime, where weight redistribution
// preserves marginals and totals bitwise).
//
// The timed quantity is the *rescore step* the PR replaces — scoring the
// table plus ordering it:
//     full:  RunMethod + ScoreOrder (the one global sort)
//     patch: DeltaRescore (copy clean, rescore dirty) + the ScoreOrder
//            remove+merge patch (zero global sorts)
// both at one thread, with the GraphDelta precomputed as the engine does
// at AddGraphRevision (submission-time, amortized across methods and
// requests — the full side's AddGraph fingerprint is likewise untimed).
// The SweepProfile build is identical batch work on both paths (the
// union-find pass is not incremental by design) and is reported
// separately, as are the end-to-end engine latencies. The engine builds
// no profile for either request timed there: each asks one TopShare
// point of a fresh entry, answered by one O(E) pass (EvaluatePrefix).
//
// Usage: bench_delta_rescore [identity|timing]. No argument runs both;
// identity and timing are separate ctest entries, so a slow host fails
// only the timing one. The process exits non-zero on any violation of
// the gates the run arms. Identity (one untimed repetition):
//   * the incremental response is bit-identical to the cold full-rescore
//     response for every incremental method (NC, DF, NT) at engine thread
//     counts 1 / 2 / 4, and patched scores/order/profile equal the full
//     rescore's bit for bit at the core level;
//   * the incremental path performs zero global sorts
//     (ScoreOrder::SortsPerformed stays flat) and zero full rescorings
//     (engine scores_computed stays flat; delta_rescores advances);
//   * non-incremental methods (HSS) fall back to the full path with
//     identical output.
// Timing (the timed repetitions, BENCH_delta_rescore.json):
//   * the rescore step is >= 5x faster incrementally, as the median
//     across the incremental methods of per-method median ratios. (The
//     bound was 10x against the scalar per-edge full sweep; the
//     vectorized batch kernels cut the full-rescore denominator several
//     fold, so the same patch path now clears a smaller ratio.)

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <optional>
#include <vector>

#include "bench_common.h"
#include "common/random.h"
#include "common/timer.h"
#include "core/delta_rescore.h"
#include "core/registry.h"
#include "core/sweep.h"
#include "gen/erdos_renyi.h"
#include "graph/builder.h"
#include "graph/delta.h"
#include "service/engine.h"
#include "stats/descriptive.h"

namespace nb = netbone;
using netbone::bench::Banner;
using netbone::bench::Num;
using netbone::bench::PrintRow;

namespace {

/// The 2000-node bench fixture re-weighted to integers in [1, 100].
nb::Graph MakeBase() {
  const nb::Result<nb::Graph> er = nb::GenerateErdosRenyi(
      {.num_nodes = 2000, .average_degree = 3.0, .seed = 78});
  nb::GraphBuilder builder(nb::Directedness::kUndirected);
  builder.ReserveNodes(2000);
  for (const nb::Edge& e : er->edges()) {
    builder.AddEdge(e.src, e.dst, std::floor(e.weight) + 1.0);
  }
  return *builder.Build();
}

/// A noisy re-observation touching ~`fraction` of the edges: unit weight
/// transfers between random pairs (totals preserved exactly).
nb::Graph MakeRevision(const nb::Graph& base, double fraction,
                       uint64_t seed) {
  std::vector<nb::Edge> edges(base.edges().begin(), base.edges().end());
  nb::Rng rng(seed);
  const int64_t transfers = std::max<int64_t>(
      1, std::llround(static_cast<double>(edges.size()) * fraction / 2.0));
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

nb::BackboneRequest ShareRequest(uint64_t graph, nb::Method method) {
  nb::BackboneRequest request;
  request.graph = graph;
  request.method = method;
  request.kind = nb::RequestKind::kTopShare;
  request.share = 0.25;
  return request;
}

bool SameResponse(const nb::BackboneResponse& a,
                  const nb::BackboneResponse& b) {
  return a.kept_edges == b.kept_edges && a.kept == b.kept &&
         a.coverage == b.coverage && a.weight_share == b.weight_share;
}

}  // namespace

int main(int argc, char** argv) {
  const std::optional<netbone::bench::Gates> gates =
      netbone::bench::ParseGates(argc, argv);
  if (!gates.has_value()) return 2;
  const bool run_identity = gates->identity;
  const bool run_timing = gates->timing;
  Banner("delta rescore",
         "full rescore vs incremental patch for a 1%-edge delta on the "
         "2000-node graph");
  const bool quick = netbone::bench::QuickMode();
  netbone::bench::JsonBenchLog json("delta_rescore");

  const nb::Graph base = MakeBase();
  const nb::Graph next = MakeRevision(base, /*fraction=*/0.01, 4242);
  const int64_t num_edges = base.num_edges();
  const nb::Result<nb::GraphDelta> delta_or =
      nb::ComputeGraphDelta(base, next);
  if (!delta_or.ok() || !delta_or->totals_equal) {
    std::printf("fixture broken: %s\n",
                delta_or.ok() ? "totals moved"
                              : delta_or.status().message().c_str());
    return 1;
  }
  const nb::GraphDelta& delta = *delta_or;
  std::printf("%lld edges, %lld affected (%.2f%%), totals preserved\n",
              static_cast<long long>(num_edges),
              static_cast<long long>(delta.AffectedEdges()),
              100.0 * static_cast<double>(delta.AffectedEdges()) /
                  static_cast<double>(num_edges));

  const std::vector<nb::Method> methods = {nb::Method::kNoiseCorrected,
                                           nb::Method::kDisparityFilter,
                                           nb::Method::kNaiveThreshold};
  const int reps = !run_timing ? 1 : quick ? 7 : 25;
  nb::RunMethodOptions one_thread;
  one_thread.num_threads = 1;
  nb::DeltaRescoreOptions patch_options;
  patch_options.num_threads = 1;

  bool ok = true;
  std::vector<double> ratios;
  if (run_timing) {
    PrintRow({"method", "full us", "patch us", "ratio", "dirty",
              "profile us"});
  }

  for (const nb::Method method : methods) {
    const nb::Result<nb::ScoredEdges> base_scored =
        nb::RunMethod(method, base, one_thread);
    if (!base_scored.ok()) {
      ok = false;
      continue;
    }

    // --- Timed: the full rescore step (score + the one global sort). ---
    std::vector<double> full_times;
    std::optional<nb::ScoredEdges> full_scored;
    for (int rep = 0; rep < reps; ++rep) {
      nb::Timer timer;
      nb::Result<nb::ScoredEdges> scored =
          nb::RunMethod(method, next, one_thread);
      if (!scored.ok()) {
        ok = false;
        break;
      }
      const nb::ScoreOrder order(*scored);
      full_times.push_back(timer.ElapsedSeconds());
      if (rep + 1 == reps) full_scored = *std::move(scored);
    }
    if (!full_scored.has_value()) {
      ok = false;
      continue;
    }
    const nb::ScoreOrder full_order(*full_scored);

    // --- Timed: the incremental rescore step (patch + merge). ---
    std::vector<double> patch_times;
    std::optional<nb::DeltaRescoreResult> patch;
    const nb::ScoreOrder base_order(*base_scored);
    const int64_t sorts_before = nb::ScoreOrder::SortsPerformed();
    for (int rep = 0; rep < reps; ++rep) {
      nb::Timer timer;
      nb::Result<std::optional<nb::DeltaRescoreResult>> patched =
          nb::DeltaRescore(method, *base_scored, next, delta, patch_options);
      if (!patched.ok() || !patched->has_value()) {
        ok = false;
        break;
      }
      const nb::ScoredEdges patched_scored(&next, full_scored->method(),
                                           (*patched)->scores,
                                           full_scored->has_sdev());
      const nb::ScoreOrder patched_order(patched_scored, base_order,
                                         (*patched)->base_to_next,
                                         (*patched)->dirty);
      patch_times.push_back(timer.ElapsedSeconds());
      if (rep + 1 == reps) patch = *std::move(*patched);
    }
    // Zero global sorts across every patch repetition.
    if (nb::ScoreOrder::SortsPerformed() != sorts_before) ok = false;
    if (!patch.has_value()) {
      ok = false;
      continue;
    }

    // --- Core-level bit-identity: scores, order, rebuilt profile. ---
    const nb::ScoredEdges patched_scored(&next, full_scored->method(),
                                         patch->scores,
                                         full_scored->has_sdev());
    const nb::ScoreOrder patched_order(patched_scored, base_order,
                                       patch->base_to_next, patch->dirty);
    double profile_us = 0.0;
    {
      nb::Timer timer;
      const nb::SweepProfile patched_profile =
          nb::BuildSweepProfile(patched_order);
      profile_us = timer.ElapsedSeconds() * 1e6;
      if (run_identity) {
        for (int64_t id = 0; id < full_scored->size(); ++id) {
          if (patch->scores[static_cast<size_t>(id)].score !=
                  full_scored->at(id).score ||
              patch->scores[static_cast<size_t>(id)].sdev !=
                  full_scored->at(id).sdev) {
            ok = false;
          }
        }
        for (int64_t rank = 0; rank < full_order.size(); ++rank) {
          if (patched_order.id_at(rank) != full_order.id_at(rank)) {
            ok = false;
          }
        }
        const nb::SweepProfile full_profile =
            nb::BuildSweepProfile(full_order);
        if (patched_profile.covered_nodes != full_profile.covered_nodes ||
            patched_profile.kept_weight != full_profile.kept_weight ||
            patched_profile.connect_k != full_profile.connect_k) {
          ok = false;
        }
      }
    }
    if (!run_timing) continue;

    const double full_med = nb::Median(full_times);
    const double patch_med = nb::Median(patch_times);
    const double ratio = patch_med > 0.0 ? full_med / patch_med : 0.0;
    ratios.push_back(ratio);
    PrintRow({nb::MethodTag(method), Num(full_med * 1e6, 1),
              Num(patch_med * 1e6, 1), Num(ratio, 1),
              std::to_string(patch->dirty.size()), Num(profile_us, 1)});
    json.RecordSeconds("full:" + nb::MethodTag(method), num_edges, 1,
                       full_med,
                       *std::min_element(full_times.begin(),
                                         full_times.end()));
    json.RecordSeconds("patch:" + nb::MethodTag(method), num_edges, 1,
                       patch_med,
                       *std::min_element(patch_times.begin(),
                                         patch_times.end()));
  }

  // --- Engine end-to-end latency, reported for context: a cold request
  // on a fresh engine vs the revision request patched from a warm base,
  // one thread. ---
  if (run_timing) {
    std::vector<double> engine_full_times;
    std::vector<double> engine_patch_times;
    nb::BackboneEngineOptions one_engine_thread;
    one_engine_thread.num_threads = 1;
    for (const nb::Method method : methods) {
      {
        nb::BackboneEngine engine;
        const uint64_t fp = engine.AddGraph(next);
        nb::Timer timer;
        if (!engine.Execute(ShareRequest(fp, method)).ok()) ok = false;
        engine_full_times.push_back(timer.ElapsedSeconds());
      }
      nb::BackboneEngine engine(one_engine_thread);
      const uint64_t base_fp = engine.AddGraph(base);
      if (!engine.Execute(ShareRequest(base_fp, method)).ok()) ok = false;
      const uint64_t next_fp = engine.AddGraphRevision(next, base_fp);
      nb::Timer timer;
      if (!engine.Execute(ShareRequest(next_fp, method)).ok()) ok = false;
      engine_patch_times.push_back(timer.ElapsedSeconds());
    }
    std::printf(
        "\nengine end-to-end (1 thread): cold %s us median vs revision %s "
        "us median (shared response assembly included; neither builds a "
        "sweep profile)\n",
        Num(nb::Median(engine_full_times) * 1e6, 1).c_str(),
        Num(nb::Median(engine_patch_times) * 1e6, 1).c_str());
    json.RecordSeconds("engine_cold", num_edges, 1,
                       nb::Median(engine_full_times),
                       nb::Median(engine_full_times));
    json.RecordSeconds("engine_revision", num_edges, 1,
                       nb::Median(engine_patch_times),
                       nb::Median(engine_patch_times));
  }

  // --- Engine-level gates: lineage resolution, zero sorts / rescores,
  // response identity across thread counts, warm follow-up. ---
  if (run_identity) {
    for (const nb::Method method : methods) {
      std::optional<nb::BackboneResponse> cold_response;
      {
        nb::BackboneEngine engine;
        const uint64_t fp = engine.AddGraph(next);
        const auto response = engine.Execute(ShareRequest(fp, method));
        if (!response.ok()) {
          ok = false;
          continue;
        }
        cold_response = *response;
      }
      for (const int threads : {1, 2, 4}) {
        nb::BackboneEngineOptions options;
        options.num_threads = threads;
        nb::BackboneEngine engine(options);
        const uint64_t base_fp = engine.AddGraph(base);
        if (!engine.Execute(ShareRequest(base_fp, method)).ok()) ok = false;
        const uint64_t next_fp = engine.AddGraphRevision(next, base_fp);
        const int64_t sorts_before = nb::ScoreOrder::SortsPerformed();
        const int64_t scores_before =
            engine.Metrics().ValueOf("engine.scores_computed");
        const auto response = engine.Execute(ShareRequest(next_fp, method));
        const nb::obs::MetricsSnapshot stats = engine.Metrics();
        if (!response.ok() || stats.ValueOf("engine.delta_rescores") != 1 ||
            stats.ValueOf("engine.scores_computed") != scores_before ||
            nb::ScoreOrder::SortsPerformed() != sorts_before ||
            !SameResponse(*response, *cold_response)) {
          ok = false;
          continue;
        }
        // The patched entry is a first-class cache entry: warm next.
        const auto warm = engine.Execute(ShareRequest(next_fp, method));
        if (!warm.ok() || !warm->cache_hit) ok = false;
      }
    }
  }

  // Fallback identity: HSS is not incremental — a revision request must
  // full-rescore and still match the cold path bit for bit.
  if (run_identity) {
    nb::BackboneEngine engine;
    const uint64_t base_fp = engine.AddGraph(base);
    if (!engine.Execute(ShareRequest(base_fp,
                                     nb::Method::kHighSalienceSkeleton))
             .ok()) {
      ok = false;
    }
    const uint64_t next_fp = engine.AddGraphRevision(next, base_fp);
    const auto patched = engine.Execute(
        ShareRequest(next_fp, nb::Method::kHighSalienceSkeleton));
    nb::BackboneEngine cold_engine;
    const uint64_t cold_fp = cold_engine.AddGraph(next);
    const auto cold = cold_engine.Execute(
        ShareRequest(cold_fp, nb::Method::kHighSalienceSkeleton));
    if (!patched.ok() || !cold.ok() || !SameResponse(*patched, *cold) ||
        engine.Metrics().ValueOf("engine.delta_rescores") != 0) {
      ok = false;
    }
    std::printf("HSS fallback: full rescore, identical output: %s\n",
                ok ? "PASS" : "FAIL");
  }

  const double median_ratio = ratios.empty() ? 0.0 : nb::Median(ratios);
  // The full-rescore denominator runs the vectorized batch kernels, so
  // the patch's advantage is structural (O(dirty) vs O(E)), not a
  // scalar-code artifact; 5x on the 3000-edge quick fixture leaves room
  // for the merge path's fixed costs while still catching an O(E)
  // regression of the patch.
  const bool fast_enough = !run_timing || median_ratio >= 5.0 ||
                           netbone::bench::SanitizerBuild();
  const char* timing_verdict =
      !run_timing                        ? "NOT RUN"
      : netbone::bench::SanitizerBuild() ? "skipped, sanitizer build"
      : fast_enough                      ? "PASS"
                                         : "FAIL";
  std::printf(
      "rescore-step patch-vs-full median ratio %sx across NC/DF/NT "
      "(>= 5x required: %s); identity/zero-sort/fallback checks: %s\n",
      run_timing ? Num(median_ratio, 1).c_str() : "-", timing_verdict,
      !run_identity ? "NOT RUN" : ok ? "PASS" : "FAIL");
  return ok && fast_enough ? 0 : 1;
}
