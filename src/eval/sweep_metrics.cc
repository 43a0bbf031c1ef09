#include "eval/sweep_metrics.h"

#include <cmath>
#include <utility>

#include "common/parallel.h"
#include "eval/stability.h"

namespace netbone {

Result<std::vector<double>> CoverageSweep(const ScoreOrder& order,
                                          std::span<const double> shares) {
  // KForShare clamps to [0, 1], but a NaN passes the clamp and would round
  // to an out-of-range edge budget.
  for (const double share : shares) {
    if (!std::isfinite(share)) {
      return Status::InvalidArgument("share must be a finite number");
    }
  }
  const SweepProfile profile = BuildSweepProfile(order);
  if (profile.target_nodes == 0) {
    return Status::FailedPrecondition("original graph is all isolates");
  }
  std::vector<double> coverage;
  coverage.reserve(shares.size());
  for (const double share : shares) {
    coverage.push_back(profile.CoverageAt(order.KForShare(share)));
  }
  return coverage;
}

Result<std::vector<double>> CoverageSweep(const ScoredEdges& scored,
                                          std::span<const double> shares) {
  return CoverageSweep(ScoreOrder(scored), shares);
}

Result<double> CoverageAtShare(const ScoreOrder& order, double share) {
  const std::span<const double> one(&share, 1);
  NETBONE_ASSIGN_OR_RETURN(std::vector<double> coverage,
                           CoverageSweep(order, one));
  return coverage.front();
}

std::vector<MethodCoverageSweep> CoverageSweepByMethod(
    const Graph& graph, std::span<const Method> methods,
    std::span<const double> shares, const RunMethodOptions& options) {
  std::vector<MethodCoverageSweep> results(methods.size());
  // One slot per method, one grain-1 task per method: each task computes
  // its slot end to end, so the output is independent of scheduling. The
  // tasks share the work-stealing pool with the methods' own inner
  // ParallelFor fan-outs (two-level schedule) — while one task is deep in
  // the slow method's per-source loop, idle workers execute the other
  // methods' chunks instead of waiting for the method level to finish.
  ParallelForDynamic(
      static_cast<int64_t>(methods.size()), /*grain=*/1,
      options.num_threads, [&](int64_t begin, int64_t end) {
        for (int64_t i = begin; i < end; ++i) {
          MethodCoverageSweep& out = results[static_cast<size_t>(i)];
          out.method = methods[static_cast<size_t>(i)];
          const Result<ScoredEdges> scored =
              RunMethod(out.method, graph, options);
          if (!scored.ok()) {
            out.status = scored.status();
            continue;
          }
          Result<std::vector<double>> coverage =
              CoverageSweep(ScoreOrder(*scored, options.num_threads),
                            shares);
          if (!coverage.ok()) {
            out.status = coverage.status();
            continue;
          }
          out.coverage = std::move(*coverage);
        }
      });
  return results;
}

Result<std::vector<Result<double>>> StabilitySweep(
    const TemporalNetwork& network, Method method,
    std::span<const double> shares, const RunMethodOptions& options) {
  if (network.num_snapshots() < 2) {
    return Status::FailedPrecondition("need at least two snapshots");
  }
  const int64_t num_pairs = network.num_snapshots() - 1;
  const size_t num_shares = shares.size();

  // stability[t] holds one Result per share for the pair (t, t+1); a
  // scoring failure is recorded in score_status[t] instead. Each pair is
  // computed by exactly one task (grain 1), so slots never race and the
  // final fold below is a fixed-order serial pass. Pair-level tasks and
  // the scoring's inner per-edge/per-source loops share one stealing
  // pool, so a snapshot with an expensive scoring no longer serializes
  // the cores that finished their own pairs.
  std::vector<std::vector<Result<double>>> stability(
      static_cast<size_t>(num_pairs));
  std::vector<Status> score_status(static_cast<size_t>(num_pairs));

  ParallelForDynamic(
      num_pairs, /*grain=*/1, options.num_threads,
      [&](int64_t begin, int64_t end) {
        for (int64_t t = begin; t < end; ++t) {
          const Graph& year_t = network.snapshot(t);
          const Result<ScoredEdges> scored =
              RunMethod(method, year_t, options);
          if (!scored.ok()) {
            score_status[static_cast<size_t>(t)] = scored.status();
            continue;
          }
          // The one sort this snapshot pays for the whole grid.
          const ScoreOrder order(*scored, options.num_threads);
          auto& row = stability[static_cast<size_t>(t)];
          row.reserve(num_shares);
          for (const double share : shares) {
            row.push_back(Stability(year_t, network.snapshot(t + 1),
                                    TopShare(order, share)));
          }
        }
      });

  // Earliest-snapshot-first error semantics, matching the serial
  // MeanStability sweep.
  for (const Status& status : score_status) {
    if (!status.ok()) return status;
  }

  std::vector<Result<double>> means;
  means.reserve(num_shares);
  for (size_t s = 0; s < num_shares; ++s) {
    Result<double> mean = 0.0;
    double total = 0.0;
    for (int64_t t = 0; t < num_pairs; ++t) {
      const Result<double>& cell = stability[static_cast<size_t>(t)][s];
      if (!cell.ok()) {
        mean = cell.status();
        break;
      }
      total += *cell;
    }
    if (mean.ok()) mean = total / static_cast<double>(num_pairs);
    means.push_back(std::move(mean));
  }
  return means;
}

Result<double> MeanStability(const TemporalNetwork& network, Method method,
                             double share,
                             const RunMethodOptions& options) {
  const std::span<const double> one(&share, 1);
  NETBONE_ASSIGN_OR_RETURN(std::vector<Result<double>> means,
                           StabilitySweep(network, method, one, options));
  return means.front();
}

}  // namespace netbone
