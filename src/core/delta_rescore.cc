#include "core/delta_rescore.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "core/disparity_filter.h"
#include "core/naive.h"
#include "core/noise_corrected.h"
#include "core/simd_kernels.h"
#include "graph/edge_columns.h"

namespace netbone {
namespace {

/// Copies clean slots and collects the dirty set, then rescores the dirty
/// ids through `score_range` (NC/DF: the batched kernel over the
/// successor's SoA columns; NT: NaiveThresholdRange's weight copy) with
/// `replay_edge` regenerating the winning per-edge Status —
/// ParallelScoreEdgeRangeSubset hands the contiguous runs that dominate
/// real deltas (endpoint stars) to whole vector lanes.
/// `needs_marginals` is false for the naive threshold, whose score reads
/// only the weight — its dirty set is exactly the changed/inserted edges.
///
/// Two shapes. The common one — weight changes only, no structural churn
/// (the noisy re-observation of a fixed edge set) — keeps edge ids
/// aligned: the base score table is copied wholesale (one memcpy-shaped
/// vector copy), the dirty set is the union of the delta's precollected
/// changed and star lists (O(affected), no table scan), and
/// `base_to_next` stays empty (the documented identity encoding).
/// Structural deltas derive the alignment and dirty set from the
/// delta's own inserted/deleted/changed/star lists — the classification
/// lives in ComputeGraphDelta alone; nothing here re-compares edges.
template <typename RangeScorer, typename Replay>
Result<std::optional<DeltaRescoreResult>> PatchScores(
    const ScoredEdges& base, const Graph& next, const GraphDelta& delta,
    const DeltaRescoreOptions& options, bool needs_marginals,
    const RangeScorer& score_range, const Replay& replay_edge) {
  const Graph& base_graph = base.graph();
  const bool scan_stars = needs_marginals && !delta.changed_nodes.empty();

  DeltaRescoreResult out;
  const bool identity = delta.inserted.empty() && delta.deleted.empty() &&
                        base_graph.num_edges() == next.num_edges();
  if (identity) {
    out.scores = base.scores();  // clean slots wholesale; dirty overwritten
    if (!scan_stars) {
      // Weight-only sensitivity (NT, or a delta that moved no marginal):
      // the dirty set is exactly the changed list.
      out.dirty.reserve(delta.changed.size());
      for (const EdgeWeightChange& change : delta.changed) {
        out.dirty.push_back(change.next_id);
      }
    } else {
      // Dirty = changed ∪ endpoint stars, both precollected ascending by
      // the delta extraction — a two-pointer union over O(affected)
      // entries, no table scan.
      out.dirty.reserve(delta.changed.size() + delta.star_edges.size());
      size_t ci = 0;
      size_t si = 0;
      while (ci < delta.changed.size() || si < delta.star_edges.size()) {
        const EdgeId c = ci < delta.changed.size()
                             ? delta.changed[ci].next_id
                             : std::numeric_limits<EdgeId>::max();
        const EdgeId s = si < delta.star_edges.size()
                             ? delta.star_edges[si]
                             : std::numeric_limits<EdgeId>::max();
        const EdgeId id = std::min(c, s);
        if (c == id) ++ci;
        if (s == id) ++si;
        out.dirty.push_back(id);
      }
    }
  } else {
    // Structural delta: everything needed is already classified on the
    // GraphDelta — no second table walk. The surviving base edges map to
    // the successor ids that are not insertions, in order (both tables
    // are (src, dst)-sorted, so the surviving subsequences align).
    out.scores.resize(static_cast<size_t>(next.num_edges()));
    out.base_to_next.assign(static_cast<size_t>(base_graph.num_edges()),
                            EdgeId{-1});
    size_t di = 0;
    size_t ii = 0;
    EdgeId ni = 0;
    for (EdgeId bi = 0; bi < base_graph.num_edges(); ++bi) {
      if (di < delta.deleted.size() && delta.deleted[di] == bi) {
        ++di;
        continue;  // no successor slot
      }
      while (ii < delta.inserted.size() && delta.inserted[ii] == ni) {
        ++ii;
        ++ni;
      }
      out.base_to_next[static_cast<size_t>(bi)] = ni;
      // Copy unconditionally: dirty survivors are overwritten by the
      // rescore below, so no cleanliness test is needed here.
      out.scores[static_cast<size_t>(ni)] = base.at(bi);
      ++ni;
    }
    // Dirty = changed ∪ inserted ∪ (endpoint stars when the method reads
    // marginals); all three lists are ascending, so a three-way union.
    constexpr EdgeId kDone = std::numeric_limits<EdgeId>::max();
    size_t ci = 0;
    size_t xi = 0;
    size_t si = 0;
    const size_t stars = scan_stars ? delta.star_edges.size() : 0;
    out.dirty.reserve(delta.changed.size() + delta.inserted.size() + stars);
    for (;;) {
      const EdgeId c =
          ci < delta.changed.size() ? delta.changed[ci].next_id : kDone;
      const EdgeId x = xi < delta.inserted.size() ? delta.inserted[xi] : kDone;
      const EdgeId s = si < stars ? delta.star_edges[si] : kDone;
      const EdgeId id = std::min(c, std::min(x, s));
      if (id == kDone) break;
      if (c == id) ++ci;
      if (x == id) ++xi;
      if (s == id) ++si;
      out.dirty.push_back(id);
    }
  }

  Status status = ParallelScoreEdgeRangeSubset(
      out.dirty, options.num_threads, options.grain, score_range,
      replay_edge, &out.scores, options.cancel);
  if (!status.ok()) return status;
  return std::optional<DeltaRescoreResult>(std::move(out));
}

}  // namespace

bool SupportsDeltaRescore(Method method) {
  return method == Method::kNoiseCorrected ||
         method == Method::kDisparityFilter ||
         method == Method::kNaiveThreshold;
}

Result<std::optional<DeltaRescoreResult>> DeltaRescore(
    Method method, const ScoredEdges& base, const Graph& next,
    const GraphDelta& delta, const DeltaRescoreOptions& options) {
  const std::optional<DeltaRescoreResult> not_incremental;
  if (!SupportsDeltaRescore(method)) return not_incremental;
  // An edgeless successor fails every method's precondition; the full
  // path owns that canonical error.
  if (next.num_edges() == 0) return not_incremental;

  switch (method) {
    case Method::kNoiseCorrected: {
      // N_.. enters every edge's null expectation: a moved total dirties
      // the whole table, which is exactly a full rescore.
      const double n_total = next.matrix_total();
      if (!delta.totals_equal || !(n_total > 0.0)) return not_incremental;
      const EdgeColumns& cols = next.edge_columns();
      NcKernelConfig cfg;  // flag defaults match the registry defaults
      cfg.n_total = n_total;
      return PatchScores(
          base, next, delta, options, /*needs_marginals=*/true,
          [&cols, cfg](int64_t begin, int64_t end, EdgeScore* out) {
            return NoiseCorrectedBatch(cols, cfg, begin, end, out);
          },
          [&next, n_total](EdgeId id) {
            const Edge& e = next.edge(id);
            return NoiseCorrectedEdge(e.weight, next.out_strength(e.src),
                                      next.in_strength(e.dst), n_total,
                                      NoiseCorrectedOptions{})
                .status();
          });
    }
    case Method::kDisparityFilter: {
      const EdgeColumns& cols = next.edge_columns();
      const DisparityFilterOptions df;  // registry defaults
      return PatchScores(
          base, next, delta, options, /*needs_marginals=*/true,
          [&cols, df](int64_t begin, int64_t end, EdgeScore* out) {
            return DisparityFilterBatch(cols, df.endpoint_rule, begin, end,
                                        out);
          },
          [](EdgeId) { return Status::OK(); });
    }
    case Method::kNaiveThreshold:
      return PatchScores(
          base, next, delta, options, /*needs_marginals=*/false,
          [&next](int64_t begin, int64_t end, EdgeScore* out) {
            return NaiveThresholdRange(next, begin, end, out);
          },
          [](EdgeId) { return Status::OK(); });
    default:
      return not_incremental;
  }
}

}  // namespace netbone
