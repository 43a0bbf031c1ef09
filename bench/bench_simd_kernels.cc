// Measures the vectorized scoring kernels (core/simd_kernels.h) against
// their scalar oracles on the Fig. 9 graph family (ER, average degree 3),
// and enforces the two contracts the SIMD layer ships under.
//
// Usage: bench_simd_kernels [identity|timing]. No argument runs both;
// identity and timing are separate ctest entries, so a slow host fails
// only the timing one.
//
//   1. IDENTITY (the identity gates; checked on every host): the full
//      NC / DF / NT sweeps produce bit-identical score tables at every
//      supported level and with the level forced to scalar, at 1, 2 and
//      4 threads. Any mismatch fails the run.
//   2. SPEEDUP (the timing gate; wide-lane hosts only): with >= 4
//      doubles per lane group (AVX2), the NC and DF batch kernels at the widest
//      supported level must run at least 2x faster per edge than the
//      scalar oracle loop. Hosts without wide lanes (SSE2/NEON 2-wide,
//      or -DNETBONE_SIMD=off builds) skip the gate — 2-wide speedups
//      are real but are not held to 2x, and a scalar build has nothing
//      to compare.
//
// Timings are single-threaded calls straight into the batch entry points
// (no pool handoff), so per-edge ns isolates kernel throughput. Every
// level the host supports is timed against scalar, so a 2-wide level
// (SSE2/NEON) is recorded next to AVX2 on hosts that have both. NT has
// no kernel (its score is the weight, copied from the edge table), so it
// is timed nowhere and checked only in the identity gate. The timing run
// writes BENCH_simd_kernels.json: per-method total ("NC_scalar") and per-edge
// ("NC_scalar/edge") records, one pair per supported level.
// NETBONE_BENCH_QUICK=1 shrinks sizes and reps to smoke-test level.

#include <algorithm>
#include <array>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "bench_common.h"
#include "common/timer.h"
#include "core/disparity_filter.h"
#include "core/naive.h"
#include "core/noise_corrected.h"
#include "core/simd_kernels.h"
#include "gen/erdos_renyi.h"
#include "graph/edge_columns.h"

namespace nb = netbone;
using netbone::bench::Banner;
using netbone::bench::Num;
using netbone::bench::PrintRow;

namespace {

/// Median/min of `reps` timed calls of one batch kernel over the whole
/// edge table at a forced level, in ns per edge. The output buffer is
/// reused and its first element folded into a sink so the calls cannot
/// be optimized away.
template <typename Batch>
std::pair<double, double> TimeBatch(nb::SimdLevel level, int64_t num_edges,
                                    int reps, std::vector<nb::EdgeScore>* out,
                                    double* sink, const Batch& batch) {
  nb::ScopedSimdLevelOverride forced(level);
  std::vector<double> times;
  for (int rep = 0; rep < reps; ++rep) {
    nb::Timer timer;
    const int64_t bad = batch(0, num_edges, out->data());
    const double elapsed = timer.ElapsedSeconds();
    if (bad >= 0) return {netbone::bench::NaN(), netbone::bench::NaN()};
    *sink += (*out)[0].score;
    times.push_back(elapsed * 1e9 / static_cast<double>(num_edges));
  }
  std::sort(times.begin(), times.end());
  return {times[times.size() / 2], times.front()};
}

bool BitEqualScores(const std::vector<nb::EdgeScore>& a,
                    const std::vector<nb::EdgeScore>& b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(),
                                   a.size() * sizeof(nb::EdgeScore)) == 0);
}

/// The identity gate: full public sweeps at every supported level against
/// forced scalar, at 1, 2 and 4 threads, on a fresh graph from the same
/// family. Returns whether every sweep was bit-identical.
bool IdentityGate(bool quick, const std::vector<nb::SimdLevel>& levels) {
  const auto graph = nb::GenerateErdosRenyi(
      {.num_nodes = quick ? 20000 : 100000, .average_degree = 3.0,
       .seed = 91});
  if (!graph.ok()) {
    std::printf("FAILED: could not generate the identity-gate graph\n");
    return false;
  }
  bool identical = true;
  for (const int threads : {1, 2, 4}) {
    nb::NoiseCorrectedOptions nc;
    nc.num_threads = threads;
    nb::DisparityFilterOptions df;
    df.num_threads = threads;
    nb::NaiveThresholdOptions nt;
    nt.num_threads = threads;
    const auto sweep = [&](nb::SimdLevel level) {
      nb::ScopedSimdLevelOverride forced(level);
      return std::array<nb::Result<nb::ScoredEdges>, 3>{
          nb::NoiseCorrected(*graph, nc), nb::DisparityFilter(*graph, df),
          nb::NaiveThreshold(*graph, nt)};
    };
    const auto ref = sweep(nb::SimdLevel::kScalar);
    for (const nb::SimdLevel level : levels) {
      const auto got = sweep(level);
      bool ok = true;
      for (size_t k = 0; k < got.size(); ++k) {
        ok = ok && got[k].ok() && ref[k].ok() &&
             BitEqualScores(got[k]->scores(), ref[k]->scores());
      }
      std::printf("identity @ %s, %d thread(s): %s\n",
                  nb::SimdLevelName(level), threads,
                  ok ? "bit-identical" : "MISMATCH");
      identical = identical && ok;
    }
  }
  if (!identical) {
    std::printf("FAILED: vector kernels are not bit-identical to scalar\n");
  }
  return identical;
}

}  // namespace

int main(int argc, char** argv) {
  const std::optional<netbone::bench::Gates> gates =
      netbone::bench::ParseGates(argc, argv);
  if (!gates.has_value()) return 2;
  const bool run_identity = gates->identity;
  const bool run_timing = gates->timing;
  Banner("simd_kernels",
         "batched kernel throughput vs scalar oracle + identity gate");
  const bool quick = netbone::bench::QuickMode();
  netbone::bench::JsonBenchLog json("simd_kernels");

  const std::vector<nb::SimdLevel> levels = nb::SupportedSimdLevels();
  std::printf("active level: %s, wide lanes: %s\n",
              nb::SimdLevelName(nb::ActiveSimdLevel()),
              nb::SimdHasWideLanes() ? "yes" : "no");

  // Timed graph sizes: none when only the identity gate runs.
  std::vector<nb::NodeId> sizes;
  if (run_timing) {
    sizes = quick ? std::vector<nb::NodeId>{60000}
                  : std::vector<nb::NodeId>{200000, 800000};
  }
  const int reps = quick ? 5 : 7;

  double sink = 0.0;
  double nc_speedup = netbone::bench::NaN();
  double df_speedup = netbone::bench::NaN();

  if (run_timing) {
    PrintRow({"edges", "kernel", "level", "ns/edge", "min", "speedup"});
  }
  for (const nb::NodeId n : sizes) {
    const auto graph = nb::GenerateErdosRenyi(
        {.num_nodes = n, .average_degree = 3.0, .seed = 77});
    if (!graph.ok()) continue;
    // Materialize outside the timed region: production sweeps amortize
    // this one O(|E|) gather across every rescore of the graph.
    const nb::EdgeColumns& cols = graph->edge_columns();
    const int64_t m = cols.size();
    std::vector<nb::EdgeScore> out(static_cast<size_t>(m));

    nb::NcKernelConfig nc_cfg;
    nc_cfg.n_total = graph->matrix_total();
    const auto nc_batch = [&](int64_t b, int64_t e, nb::EdgeScore* o) {
      return nb::NoiseCorrectedBatch(cols, nc_cfg, b, e, o);
    };
    const auto df_batch = [&](int64_t b, int64_t e, nb::EdgeScore* o) {
      return nb::DisparityFilterBatch(cols, nb::DisparityEndpointRule::kEither,
                                      b, e, o);
    };

    for (const std::string tag : {"NC", "DF"}) {
      double scalar_ns = netbone::bench::NaN();
      // levels ascends from kScalar, so the last speedup is the widest
      // level's — the one the gate reads.
      for (const nb::SimdLevel level : levels) {
        const std::pair<double, double> ns =
            tag == "NC"
                ? TimeBatch(level, m, reps, &out, &sink, nc_batch)
                : TimeBatch(level, m, reps, &out, &sink, df_batch);
        if (level == nb::SimdLevel::kScalar) scalar_ns = ns.first;
        const double speedup = scalar_ns / ns.first;
        const std::string name = nb::SimdLevelName(level);
        PrintRow({std::to_string(m), tag, name, Num(ns.first, 2),
                  Num(ns.second, 2), Num(speedup, 2)});
        // Per-edge ns records carry the trajectory across commits; totals let
        // compare_bench_json.py weigh large-graph noise sensibly.
        json.Record(tag + "_" + name + "/edge", m, 1, ns.first, ns.second);
        json.Record(tag + "_" + name, m, 1,
                    ns.first * static_cast<double>(m),
                    ns.second * static_cast<double>(m));
        // The gate reads the largest graph (last size), where per-edge
        // cost is steadiest.
        if (tag == "NC") nc_speedup = speedup;
        if (tag == "DF") df_speedup = speedup;
      }
    }
  }

  if (run_identity && !IdentityGate(quick, levels)) return 1;
  if (!run_timing) {
    std::printf("PASSED (identity gate; timing not run)\n");
    return 0;
  }
  std::printf("(sink %.3f)\n", sink);

  // Speedup gate, wide-lane hosts and uninstrumented builds only.
  if (netbone::bench::SanitizerBuild()) {
    std::printf("speedup gate skipped: sanitizer build\n");
    return 0;
  }
  if (!nb::SimdHasWideLanes()) {
    std::printf(
        "speedup gate skipped: no >=4-wide SIMD level active on this "
        "host/build\n");
    return 0;
  }
  std::printf("speedup gate (>= 2x required): NC %.2fx, DF %.2fx\n",
              nc_speedup, df_speedup);
  if (!(nc_speedup >= 2.0) || !(df_speedup >= 2.0)) {
    std::printf("FAILED: wide-lane host but NC/DF kernel speedup < 2x\n");
    return 1;
  }
  std::printf("PASSED\n");
  return 0;
}
