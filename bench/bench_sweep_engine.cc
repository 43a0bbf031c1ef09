// Acceptance harness for the one-sort threshold-sweep engine
// (core/sweep.h, eval/sweep_metrics.h): a 50-point Fig. 7-style share
// sweep on the 2000-node bench graph, per method.
//
// Contract being demonstrated (and enforced — the process exits non-zero
// on any value or mask mismatch):
//   * the batch path performs exactly one score sort per method
//     (ScoreOrder::SortsPerformed), versus one per sweep point before;
//   * Coverage values and kept-masks are element-wise identical to the
//     per-point TopShare + CoverageOfMask path at every sweep point;
//   * the batch path is expected >= 5x faster than the per-point path
//     (reported below and in BENCH_sweep_engine.json; the hard identity
//     checks are what gate CI, timings on shared hardware only inform).
//
// A second table times the sort stage alone: ScoreOrder construction on a
// 150k-edge fig9 ER graph with integer counts for weights (the serving
// benchmark's ingest graph), per method at widths 1 and 4, recorded as
// score_order_sort:<method>. Every order must equal a std::sort over the
// (score desc, weight desc, id asc) comparator element for element; that
// identity gates, the timings only inform.

#include <algorithm>
#include <cmath>
#include <numeric>
#include <vector>

#include "bench_common.h"
#include "common/timer.h"
#include "core/filter.h"
#include "core/registry.h"
#include "core/sweep.h"
#include "eval/coverage.h"
#include "eval/sweep_metrics.h"
#include "gen/erdos_renyi.h"
#include "graph/builder.h"
#include "stats/descriptive.h"

namespace nb = netbone;
using netbone::bench::Banner;
using netbone::bench::Num;
using netbone::bench::PrintRow;

namespace {

double MedianOf3(double a, double b, double c) {
  return std::max(std::min(a, b), std::min(std::max(a, b), c));
}

/// The reference permutation: std::sort over edge ids with the (score
/// desc, weight desc, id asc) comparator.
std::vector<nb::EdgeId> ReferenceOrder(const nb::ScoredEdges& scored) {
  const nb::Graph& g = scored.graph();
  std::vector<nb::EdgeId> ids(static_cast<size_t>(scored.size()));
  std::iota(ids.begin(), ids.end(), nb::EdgeId{0});
  std::sort(ids.begin(), ids.end(), [&](nb::EdgeId a, nb::EdgeId b) {
    const double sa = scored.at(a).score;
    const double sb = scored.at(b).score;
    if (sa != sb) return sa > sb;
    const double wa = g.edge(a).weight;
    const double wb = g.edge(b).weight;
    if (wa != wb) return wa > wb;
    return a < b;
  });
  return ids;
}

/// Times ScoreOrder construction per method and width on the fig9 ingest
/// graph; returns false when any order differs from the reference.
bool RunSortStage(bool quick, netbone::bench::JsonBenchLog* json) {
  const auto er = nb::GenerateErdosRenyi(
      {.num_nodes = 100000, .average_degree = 3.0, .seed = 91});
  if (!er.ok()) return false;
  nb::GraphBuilder builder(er->directedness());
  builder.ReserveNodes(er->num_nodes());
  for (const nb::Edge& e : er->edges()) {
    builder.AddEdge(e.src, e.dst, std::floor(e.weight) + 1.0);
  }
  const auto graph = builder.Build();
  if (!graph.ok()) return false;
  const int64_t num_edges = graph->num_edges();
  const int reps = quick ? 3 : 9;

  std::printf("\nsort stage: ScoreOrder on %lld edges (median of %d)\n",
              static_cast<long long>(num_edges), reps);
  PrintRow({"method", "threads", "median ms", "min ms", "identical"});
  bool all_match = true;
  for (const nb::Method m :
       {nb::Method::kNoiseCorrected, nb::Method::kDisparityFilter,
        nb::Method::kNaiveThreshold}) {
    const auto scored = nb::RunMethod(m, *graph);
    if (!scored.ok()) return false;
    const std::vector<nb::EdgeId> expected = ReferenceOrder(*scored);
    for (const int threads : {1, 4}) {
      std::vector<double> times;
      bool match = true;
      for (int rep = 0; rep < reps; ++rep) {
        nb::Timer timer;
        const nb::ScoreOrder order(*scored, threads);
        times.push_back(timer.ElapsedSeconds());
        match = match && std::equal(order.ids().begin(), order.ids().end(),
                                    expected.begin(), expected.end());
      }
      all_match = all_match && match;
      const double med = nb::Median(times);
      const double min = *std::min_element(times.begin(), times.end());
      PrintRow({nb::MethodTag(m), std::to_string(threads), Num(med * 1e3, 2),
                Num(min * 1e3, 2), match ? "yes" : "NO"});
      json->RecordSeconds("score_order_sort:" + nb::MethodTag(m), num_edges,
                          threads, med, min);
    }
  }
  return all_match;
}

}  // namespace

int main() {
  Banner("sweep engine", "50-point share sweep: per-point vs one-sort batch");
  const bool quick = netbone::bench::QuickMode();
  netbone::bench::JsonBenchLog json("sweep_engine");

  // The 2000-node bench graph (the fig9 slow-method fixture).
  const auto graph = nb::GenerateErdosRenyi(
      {.num_nodes = 2000, .average_degree = 3.0, .seed = 78});
  if (!graph.ok()) return 1;
  const int64_t num_edges = graph->num_edges();

  // 50 evenly spaced retention shares, 0.02 .. 1.00.
  std::vector<double> shares;
  for (int p = 1; p <= 50; ++p) {
    shares.push_back(static_cast<double>(p) / 50.0);
  }

  const std::vector<nb::Method> methods = {
      nb::Method::kNaiveThreshold, nb::Method::kDisparityFilter,
      nb::Method::kNoiseCorrected, nb::Method::kHighSalienceSkeleton};
  const int reps = quick ? 1 : 3;

  PrintRow({"method", "per-point s", "batch s", "speedup", "sorts"});
  bool all_match = true;
  for (const nb::Method m : methods) {
    const auto scored = nb::RunMethod(m, *graph);
    if (!scored.ok()) {
      std::printf("%-22s n/a (%s)\n", nb::MethodTag(m).c_str(),
                  scored.status().message().c_str());
      continue;
    }

    // Before: P sorts + P isolate scans.
    std::vector<double> per_point;
    std::vector<double> before_times;
    for (int rep = 0; rep < reps; ++rep) {
      per_point.clear();
      nb::Timer timer;
      for (const double share : shares) {
        const auto coverage =
            nb::CoverageOfMask(*graph, nb::TopShare(*scored, share));
        per_point.push_back(coverage.ok() ? *coverage : -1.0);
      }
      before_times.push_back(timer.ElapsedSeconds());
    }

    // After: one sort + one union-find pass for the whole grid. The sort
    // counter pins down the one-sort contract.
    std::vector<double> batch;
    std::vector<double> after_times;
    int64_t sorts = 0;
    for (int rep = 0; rep < reps; ++rep) {
      const int64_t sorts_before = nb::ScoreOrder::SortsPerformed();
      nb::Timer timer;
      const nb::ScoreOrder order(*scored);
      const auto coverage = nb::CoverageSweep(order, shares);
      after_times.push_back(timer.ElapsedSeconds());
      sorts = nb::ScoreOrder::SortsPerformed() - sorts_before;
      if (!coverage.ok()) {
        all_match = false;
        continue;
      }
      batch = *coverage;
      // Masks must agree point for point with the per-point TopShare
      // (checked on the last rep only — they are deterministic).
      if (rep + 1 == reps) {
        for (const double share : shares) {
          const nb::BackboneMask a = nb::TopShare(*scored, share);
          const nb::BackboneMask b = nb::TopShare(order, share);
          if (a.keep != b.keep || a.kept != b.kept) all_match = false;
        }
      }
    }
    if (batch != per_point) all_match = false;
    if (sorts != 1) all_match = false;

    const double before_med = reps == 3
                                  ? MedianOf3(before_times[0],
                                              before_times[1],
                                              before_times[2])
                                  : before_times[0];
    const double after_med =
        reps == 3 ? MedianOf3(after_times[0], after_times[1], after_times[2])
                  : after_times[0];
    const double before_min =
        *std::min_element(before_times.begin(), before_times.end());
    const double after_min =
        *std::min_element(after_times.begin(), after_times.end());
    PrintRow({nb::MethodTag(m), Num(before_med, 5), Num(after_med, 5),
              Num(after_med > 0.0 ? before_med / after_med : 0.0, 1),
              std::to_string(sorts)});
    json.RecordSeconds("sweep50_per_point:" + nb::MethodTag(m), num_edges,
                       1, before_med, before_min);
    json.RecordSeconds("sweep50_batch:" + nb::MethodTag(m), num_edges, 1,
                       after_med, after_min);
  }

  if (!RunSortStage(quick, &json)) all_match = false;

  std::printf("\n%lld edges, %zu sweep points; identity checks: %s\n",
              static_cast<long long>(num_edges), shares.size(),
              all_match ? "PASS" : "FAIL");
  return all_match ? 0 : 1;
}
