// Copyright 2026 The netbone Authors.
//
// Common output representation of every backboning method, mirroring the
// author's Python module where each measure returns a table
// (src, trg, nij, score[, sdev_cij]) that a separate thresholding step
// turns into a backbone.

#ifndef NETBONE_CORE_SCORED_EDGES_H_
#define NETBONE_CORE_SCORED_EDGES_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/cancel.h"
#include "common/parallel.h"
#include "common/result.h"
#include "graph/graph.h"

namespace netbone {

/// Per-edge significance record, aligned with the Graph's canonical edge
/// table: entry k scores graph.edge(k).
struct EdgeScore {
  /// Method-specific significance; larger means more salient.
  double score = 0.0;
  /// Standard deviation of the score. Only the Noise-Corrected method
  /// produces one (the paper's posterior sdev of the transformed lift);
  /// zero elsewhere.
  double sdev = 0.0;
};

/// Scores for every edge of a graph, produced by one backboning method.
class ScoredEdges {
 public:
  ScoredEdges() = default;

  /// Wraps scores aligned with `graph`'s edge table.
  ScoredEdges(const Graph* graph, std::string method,
              std::vector<EdgeScore> scores, bool has_sdev)
      : graph_(graph),
        method_(std::move(method)),
        scores_(std::move(scores)),
        has_sdev_(has_sdev) {}

  /// The scored graph (not owned; must outlive this object).
  const Graph& graph() const { return *graph_; }

  /// Human-readable method name ("noise_corrected", "disparity_filter"...).
  const std::string& method() const { return method_; }

  /// Number of scored edges (== graph().num_edges()).
  int64_t size() const { return static_cast<int64_t>(scores_.size()); }

  /// Score record of edge `id`.
  const EdgeScore& at(EdgeId id) const {
    return scores_[static_cast<size_t>(id)];
  }

  /// Raw score vector, aligned with the edge table.
  const std::vector<EdgeScore>& scores() const { return scores_; }

  /// True when the method produces meaningful sdev values (NC only).
  bool has_sdev() const { return has_sdev_; }

  /// All scores as a flat vector (for histograms / distribution plots).
  std::vector<double> ScoreValues() const;

  /// score - delta * sdev for every edge; the quantity whose distribution
  /// the paper plots in Fig. 2.
  std::vector<double> ShiftedScores(double delta) const;

 private:
  const Graph* graph_ = nullptr;
  std::string method_;
  std::vector<EdgeScore> scores_;
  bool has_sdev_ = false;
};

/// Edges scored between two polls of a cancel token in the scoring sweeps.
inline constexpr int64_t kCancelCheckStride = 1024;

/// Scores every edge of `graph` over deterministic contiguous chunks of
/// the edge table on the shared thread pool (common/parallel.h), handing
/// each chunk's sub-ranges whole to `score_range` — the entry point the
/// vectorized kernels (core/simd_kernels.h) plug into, so lanes are
/// filled from sequential loads with no per-edge dispatch. Output is
/// bit-identical for every `num_threads` (<= 0 = hardware concurrency):
/// each chunk writes disjoint slots of a pre-sized vector.
///
/// `score_range` has signature int64_t(int64_t begin, int64_t end,
/// EdgeScore* out): score edges [begin, end) into out[begin..end) and
/// return the lowest edge id in the range with invalid inputs (out[] is
/// unspecified from that id on), or -1 on success. It may also write
/// extra per-edge outputs (e.g. the NC detail table) at the edge's index
/// — ranges never overlap. `replay_edge` has signature Status(EdgeId) and
/// regenerates the exact per-edge Status by re-running the scalar oracle;
/// it is invoked once, after the join, on the lowest failing id, so the
/// error a serial sweep would report wins whatever the schedule.
///
/// `cancel` is polled every kCancelCheckStride edges; once it fires,
/// remaining chunks stop scoring and the token's status (Cancelled /
/// DeadlineExceeded) is returned — unless some edge already failed for
/// real, in which case the lowest-id edge error still wins (a serial
/// sweep would have hit that edge before any cancellation check at or
/// past it). A null token adds zero per-edge work.
template <typename RangeScorer, typename Replay>
Result<std::vector<EdgeScore>> ParallelScoreEdgeRanges(
    const Graph& graph, int num_threads, const RangeScorer& score_range,
    const Replay& replay_edge, const CancelToken& cancel = {}) {
  const int64_t n = graph.num_edges();
  std::vector<EdgeScore> scores(static_cast<size_t>(n));
  if (n == 0) return scores;
  const bool cancellable = cancel.CanExpire();

  // Very small edge tables are not worth a pool handoff; a single chunk is
  // observably identical (same slots, same first error) and faster. The
  // reduced count feeds ParallelFor as its thread knob, which is exact:
  // NumParallelChunks(n, chunks) == chunks whenever chunks <= n.
  constexpr int64_t kMinEdgesPerChunk = 2048;
  const int64_t max_useful = std::max<int64_t>(n / kMinEdgesPerChunk, 1);
  const int chunks = static_cast<int>(std::min<int64_t>(
      NumParallelChunks(n, num_threads), max_useful));

  std::vector<EdgeId> chunk_error_edge(static_cast<size_t>(chunks), -1);
  std::atomic<bool> saw_cancel{false};

  ParallelFor(n, chunks, [&](int64_t begin, int64_t end, int chunk) {
    for (int64_t sub = begin; sub < end; sub += kCancelCheckStride) {
      if (cancellable) {
        if (saw_cancel.load(std::memory_order_relaxed)) return;
        if (!cancel.Check().ok()) {
          saw_cancel.store(true, std::memory_order_relaxed);
          return;
        }
      }
      const int64_t sub_end = std::min<int64_t>(end, sub + kCancelCheckStride);
      const int64_t bad = score_range(sub, sub_end, scores.data());
      if (bad >= 0) {
        chunk_error_edge[static_cast<size_t>(chunk)] = bad;
        return;
      }
    }
  });

  EdgeId first_error = -1;
  for (const EdgeId bad : chunk_error_edge) {
    if (bad >= 0 && (first_error < 0 || bad < first_error)) first_error = bad;
  }
  if (first_error >= 0) {
    Status status = replay_edge(first_error);
    if (!status.ok()) return status;
    // A kernel may only flag ids the oracle rejects; anything else is a
    // kernel bug worth surfacing loudly rather than scoring silently.
    return Status::Internal("batch kernel flagged an edge the scalar "
                            "oracle accepts");
  }
  if (saw_cancel.load(std::memory_order_relaxed)) return cancel.Check();
  return scores;
}

/// Rescores only the edges named by `ids` (ascending edge ids) — the
/// dirty-edge patching fast path of core/delta_rescore.h. `scores` must be
/// sized to the full edge table; results land in scores[id] and every
/// other slot is preserved. Blocks of at most `grain` ids are claimed
/// dynamically (dirty work is skewed: a hub's star lands contiguous ids),
/// and each block is decomposed into its maximal runs of *consecutive*
/// edge ids, every run going to `score_range` (same contract as in
/// ParallelScoreEdgeRanges) whole — so the contiguous spans that dominate
/// real deltas (endpoint stars, inserted blocks of a sorted table) are
/// scored by the vector kernels with sequential loads instead of a
/// per-edge gather, while isolated ids degrade to width-1 ranges (the
/// kernels' scalar tail). First-error-wins matches the full sweep: the
/// lowest failing position (== lowest id, since ids ascend) wins, and its
/// Status is regenerated by `replay_edge`; a replay that accepts yields
/// Internal.
template <typename RangeScorer, typename Replay>
Status ParallelScoreEdgeRangeSubset(std::span<const EdgeId> ids,
                                    int num_threads, int64_t grain,
                                    const RangeScorer& score_range,
                                    const Replay& replay_edge,
                                    std::vector<EdgeScore>* scores,
                                    const CancelToken& cancel = {}) {
  const int64_t count = static_cast<int64_t>(ids.size());
  if (count <= 0) return Status::OK();
  const bool cancellable = cancel.CanExpire();
  std::atomic<int64_t> first_error_pos{count};
  std::atomic<bool> saw_cancel{false};
  ParallelForDynamic(
      count, grain, num_threads, [&](int64_t begin, int64_t end) {
        if (cancellable) {
          if (saw_cancel.load(std::memory_order_relaxed)) return;
          if (!cancel.Check().ok()) {
            saw_cancel.store(true, std::memory_order_relaxed);
            return;
          }
        }
        int64_t i = begin;
        while (i < end) {
          // Extend the run while ids stay consecutive.
          int64_t run_end = i + 1;
          while (run_end < end &&
                 ids[static_cast<size_t>(run_end)] ==
                     ids[static_cast<size_t>(run_end - 1)] + 1) {
            ++run_end;
          }
          const EdgeId lo = ids[static_cast<size_t>(i)];
          const EdgeId hi = ids[static_cast<size_t>(run_end - 1)] + 1;
          const int64_t bad = score_range(lo, hi, scores->data());
          if (bad >= 0) {
            // Consecutive run: position of the failing id is offset from
            // the run start by the id distance.
            const int64_t pos = i + (bad - lo);
            int64_t seen = first_error_pos.load(std::memory_order_relaxed);
            while (pos < seen &&
                   !first_error_pos.compare_exchange_weak(
                       seen, pos, std::memory_order_relaxed)) {
            }
            return;  // abandon the rest of this block
          }
          i = run_end;
        }
      });
  const int64_t winner = first_error_pos.load(std::memory_order_relaxed);
  if (winner == count) {
    if (saw_cancel.load(std::memory_order_relaxed)) return cancel.Check();
    return Status::OK();
  }
  Status status = replay_edge(ids[static_cast<size_t>(winner)]);
  if (!status.ok()) return status;
  return Status::Internal("batch kernel flagged an edge the scalar oracle "
                          "accepts");
}

}  // namespace netbone

#endif  // NETBONE_CORE_SCORED_EDGES_H_
