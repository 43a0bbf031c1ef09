// Copyright 2026 The netbone Authors.
//
// Naive thresholding (paper Sec. III-B): the edge weight itself is the
// score, so FilterByScore(scored, delta) drops every edge with weight <=
// delta. The weakest baseline — no null model, blind to the broad and
// locally correlated weight distributions that motivate the paper.

#ifndef NETBONE_CORE_NAIVE_H_
#define NETBONE_CORE_NAIVE_H_

#include "common/result.h"
#include "core/scored_edges.h"
#include "graph/graph.h"

namespace netbone {

/// Options for NaiveThreshold.
struct NaiveThresholdOptions {
  /// Worker threads for the scoring sweep (ParallelScoreEdgeRanges).
  /// 0 = hardware concurrency. Scores are bit-identical for every value.
  int num_threads = 0;

  /// Cooperative cancellation, polled at chunk granularity inside the
  /// scoring sweep; a fired token returns Cancelled / DeadlineExceeded.
  CancelToken cancel;
};

/// Scores every edge with its raw weight.
Result<ScoredEdges> NaiveThreshold(const Graph& graph,
                                   const NaiveThresholdOptions& options = {});

/// Writes out[id] = {weight, 0} for edges [begin, end), the weight copied
/// from the edge table: the one NT scorer, shared by NaiveThreshold and
/// DeltaRescore so the full and patched paths write the same bits. Never
/// fails; returns -1 like the batch kernels (core/simd_kernels.h).
int64_t NaiveThresholdRange(const Graph& graph, int64_t begin, int64_t end,
                            EdgeScore* out);

}  // namespace netbone

#endif  // NETBONE_CORE_NAIVE_H_
