// Copyright 2026 The netbone Authors.
//
// Batch evaluation over threshold sweeps. The paper's Fig. 7 (Coverage vs
// share retained) and Fig. 8 (Stability vs share retained) evaluate every
// method at many retention levels; these entry points price an entire
// share grid at one sort + one linear profile pass per scored table
// (core/sweep.h), instead of a fresh sort and a fresh O(E) isolate scan
// per point. Independent methods (CoverageSweepByMethod) and independent
// snapshot pairs (StabilitySweep) run as work-stealing tasks that share
// one pool with the methods' own inner parallel loops (a two-level
// schedule); results are bit-identical for every thread count and steal
// order because each slot is computed entirely by one task and combined
// in index order.

#ifndef NETBONE_EVAL_SWEEP_METRICS_H_
#define NETBONE_EVAL_SWEEP_METRICS_H_

#include <span>
#include <vector>

#include "common/result.h"
#include "core/registry.h"
#include "core/sweep.h"
#include "graph/temporal.h"

namespace netbone {

/// Coverage at every share of the grid, element-wise identical to
/// CoverageOfMask(graph, TopShare(scored, share)) per point, in
/// O(E a(E) + P) after the order's one sort. Fails with InvalidArgument
/// on a non-finite share, and when the original graph is all isolates
/// (the Coverage denominator is zero).
Result<std::vector<double>> CoverageSweep(const ScoreOrder& order,
                                          std::span<const double> shares);

/// Convenience overload: builds the one ScoreOrder internally.
Result<std::vector<double>> CoverageSweep(const ScoredEdges& scored,
                                          std::span<const double> shares);

/// Single-point wrapper riding a precomputed order: identical to
/// CoverageOfMask(order.graph(), TopShare(order.scored(), share)).
Result<double> CoverageAtShare(const ScoreOrder& order, double share);

/// One method's column of a Fig. 7-style sweep.
struct MethodCoverageSweep {
  Method method = Method::kNaiveThreshold;
  /// Non-OK when the method failed to score the graph (e.g. DS
  /// non-convergence, HSS cost guard); `coverage` is then empty.
  Status status;
  /// Coverage per share, aligned with the input grid.
  std::vector<double> coverage;
};

/// Runs every method once and sweeps the whole share grid on its shared
/// order. Methods are independent, so each runs as its own work-stealing
/// task (`options.num_threads` as the thread knob; 0 = hardware
/// concurrency), and the methods' inner parallel loops spawn into the
/// same pool: with M methods on C cores the schedule is two-level — when
/// one slow method dominates (HSS), the cores that finished the cheap
/// methods steal its inner per-source chunks instead of idling until the
/// method level drains. Chunk partitions depend only on (n, num_threads),
/// so the output is bit-identical to the serial sweep at every thread
/// count; num_threads == 1 runs fully inline.
std::vector<MethodCoverageSweep> CoverageSweepByMethod(
    const Graph& graph, std::span<const Method> methods,
    std::span<const double> shares, const RunMethodOptions& options = {});

/// Fig. 8 batch: mean Stability (Spearman of consecutive-snapshot weights
/// over the backbone kept at t) per share. Each snapshot is scored and
/// sorted exactly once for the entire grid — the per-point path re-runs
/// the method P times per snapshot. Snapshot pairs run as work-stealing
/// tasks sharing the pool with the scoring's inner loops; the mean is
/// accumulated in snapshot order, so results are bit-identical for every
/// thread count and element-wise identical to the per-point
/// MeanStability/TopShare path.
///
/// The outer Result fails when the network has fewer than two snapshots
/// or the method fails to score a snapshot (earliest snapshot wins). The
/// inner per-share Results fail when Stability is undefined at that share
/// (fewer than 3 retained edges), earliest snapshot pair winning — the
/// same error the serial per-point path reports.
Result<std::vector<Result<double>>> StabilitySweep(
    const TemporalNetwork& network, Method method,
    std::span<const double> shares, const RunMethodOptions& options = {});

/// Single-point wrapper over StabilitySweep: the batch engine priced at
/// one share. Identical to the MeanStability template in eval/stability.h
/// with a RunMethod + TopShare mask factory.
Result<double> MeanStability(const TemporalNetwork& network, Method method,
                             double share,
                             const RunMethodOptions& options = {});

}  // namespace netbone

#endif  // NETBONE_EVAL_SWEEP_METRICS_H_
