// Copyright 2026 The netbone Authors.
//
// Incremental rescoring: patch a method's score table across a sparse
// graph update instead of rescoring the whole graph. The local methods —
// Noise-Corrected, Disparity Filter, naive threshold — score each edge as
// a pure function of (n_ij, n_i., n_.j, n_..): after a delta, the only
// edges whose scores can move are the changed/inserted edges themselves
// plus every edge incident to a node whose marginals moved (the union of
// the endpoint stars). Everything else is copied bitwise from the base
// table, and only the dirty set pays scoring work — O(affected edges),
// not O(E).
//
// Bit-identity is the contract, not an aspiration: a clean edge's score
// inputs compare bitwise equal (GraphDelta's marginal comparison is
// exact), and a dirty edge is recomputed by the same per-edge kernel the
// full sweep runs, so the patched table equals a full rescore bit for bit
// at every thread count. The same reasoning covers errors: an edge whose
// inputs are unchanged cannot start failing, so the lowest-id failing
// edge — the full sweep's reported error — is always dirty and the
// incremental path reports the identical status.
//
// The global methods (HSS, DS, MST, k-core) couple every score to every
// edge through paths / iterative normalization / global structure; they
// report "not incremental" (nullopt) and callers fall back to the full
// path. NC does too when the matrix total N_.. moved, since the total
// enters every edge's null expectation. For count data (the paper's
// setting: integer interaction counts) totals survive weight
// redistribution exactly, so the common noisy-reobservation delta stays
// incremental.

#ifndef NETBONE_CORE_DELTA_RESCORE_H_
#define NETBONE_CORE_DELTA_RESCORE_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "common/result.h"
#include "core/registry.h"
#include "core/scored_edges.h"
#include "graph/delta.h"
#include "graph/graph.h"

namespace netbone {

/// True for methods whose scores are local in (n_ij, n_i., n_.j, n_..) and
/// can therefore be patched: NC, DF, naive threshold. The global methods
/// (HSS, DS, MST, k-core) always rescore in full.
bool SupportsDeltaRescore(Method method);

/// Options for DeltaRescore.
struct DeltaRescoreOptions {
  /// Worker threads for the dirty-edge rescoring (0 = hardware
  /// concurrency). Output is bit-identical for every value.
  int num_threads = 0;
  /// Block size for the dynamic dirty-edge schedule
  /// (ParallelScoreEdgeRangeSubset): dirty work is skewed — a hub's star
  /// lands as one contiguous id run — so blocks are claimed dynamically.
  int64_t grain = 32;
  /// Cooperative cancellation, polled at block granularity inside the
  /// dirty-edge rescoring sweep.
  CancelToken cancel;
};

/// A patched score table plus the bookkeeping the downstream artifact
/// patches need (ScoreOrder's merge update).
struct DeltaRescoreResult {
  /// Scores for every edge of the successor graph: clean slots copied
  /// bitwise from the base table, dirty slots recomputed.
  std::vector<EdgeScore> scores;
  /// Successor edge ids that were recomputed (ascending): changed or
  /// inserted edges plus edges incident to a changed-marginal node.
  std::vector<EdgeId> dirty;
  /// For each base edge id, the successor id of the same (src, dst) edge,
  /// or -1 when the edge was deleted. Monotone (both tables are
  /// (src, dst)-sorted), which is what lets ScoreOrder patch its
  /// permutation without re-sorting the clean run. Empty encodes the
  /// identity mapping — the common weight-changes-only delta, where edge
  /// ids align and no remap table is worth materializing.
  std::vector<EdgeId> base_to_next;
};

/// Patches `base` (a scored table of `delta`'s base graph, produced by
/// `method` with its registry-default options) into the score table of
/// `next`. Returns nullopt when the update cannot be expressed
/// incrementally — unsupported method, a moved matrix total under NC, or
/// a successor with no edges (the full path owns the canonical error) —
/// and the caller runs the full rescore. Errors mirror the full sweep:
/// the status of the lowest-id failing edge.
Result<std::optional<DeltaRescoreResult>> DeltaRescore(
    Method method, const ScoredEdges& base, const Graph& next,
    const GraphDelta& delta, const DeltaRescoreOptions& options = {});

}  // namespace netbone

#endif  // NETBONE_CORE_DELTA_RESCORE_H_
