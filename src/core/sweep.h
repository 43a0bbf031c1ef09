// Copyright 2026 The netbone Authors.
//
// One-sort threshold-sweep engine. The paper's evaluation criteria
// (Coverage Sec. V-D, Stability Sec. V-F, the Fig. 7-8 share sweeps) are
// defined over *families* of backbones — one method evaluated at many
// retention levels. Pricing every sweep point independently costs
// P * (E log E + E a(E)) per method: a fresh sort for each TopK/TopShare
// call plus a fresh isolate scan for each Coverage. This engine computes
// the deterministic (score desc, weight desc, id asc) permutation exactly
// once per ScoredEdges (ScoreOrder) — a parallel LSD radix sort, a few
// linear passes over 64-bit order keys — then answers the entire
// descending sweep in a single linear pass: live coverage counters plus
// an incremental union-find that runs only until connectivity is settled
// yield Coverage, kept-weight share, and the GrowUntilConnected stopping
// index for all P thresholds in O(E + E a(E) + P) total (SweepProfile).
//
// The single-point entry points in core/filter.h (TopK, TopShare,
// GrowUntilConnected) are thin wrappers over the overloads below, so every
// caller shares one comparator and one tie-break rule.

#ifndef NETBONE_CORE_SWEEP_H_
#define NETBONE_CORE_SWEEP_H_

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "common/result.h"
#include "core/filter.h"
#include "core/scored_edges.h"
#include "graph/graph.h"

namespace netbone {

/// The deterministic descending-score permutation of a ScoredEdges table:
/// edge ids sorted by (score desc, weight desc, id asc), computed exactly
/// once at construction. Everything downstream — prefix masks, budget
/// lookups, sweep profiles — reads the permutation instead of re-sorting.
///
/// The order is total. -0.0 and +0.0 compare equal. NaN, which no method
/// emits but the ScoredEdges constructor accepts, sorts after every number
/// (-inf included); NaNs of any sign and payload are equal to each other,
/// so ties among them fall to the weight and then the id. Weights follow
/// the same rule. Every constructor, the patch merge and FromPermutation
/// share this one order.
///
/// The wrapped ScoredEdges (and its Graph) must outlive the order.
class ScoreOrder {
 public:
  /// Sorts once. This is the only place in the library that orders edges
  /// by score; the process-wide counter below observes every call. The
  /// sort is a stable LSD radix sort of (64-bit order key, id) pairs over
  /// 11-bit digits, on `num_threads` workers (0 = hardware concurrency,
  /// 1 = serial): one pass per weight-key digit that varies across the
  /// table, then one per varying score-key digit, each pass a per-chunk
  /// histogram and a stable scatter. Weight digits are skipped outright
  /// when every score equals its weight (NT). Measured passes on the
  /// 150k-edge fig9 ER graph with integer-count weights: NC 1 weight + 6
  /// score, DF 1 + 5, NT 1 in all; a constant table takes none.
  /// Transient memory is at most 24 bytes per edge (two buffers of
  /// 8-byte keys and 4-byte ids) plus 8 KiB of counters per chunk. Stable
  /// passes from ascending ids give the one order above, so the
  /// permutation is the same at every width. The default follows
  /// RunMethodOptions::num_threads, so the wrappers in core/filter.h sort
  /// at hardware width; called inside a ParallelFor fan-out, the chunk
  /// passes are tasks on the same work-stealing pool, not extra threads.
  explicit ScoreOrder(const ScoredEdges& scored, int num_threads = 0);

  /// Patch construction for the incremental rescoring path
  /// (core/delta_rescore.h): builds the order of `scored` from `base` —
  /// the order of the ancestor table — without a global sort.
  /// `base_to_next` maps each base edge id to its successor id (-1 =
  /// deleted; empty = the identity mapping of a weight-changes-only
  /// delta); `dirty` lists the successor ids whose scores were
  /// recomputed, ascending, and must include every inserted edge. The
  /// clean run keeps its base order (scores and weights are bitwise
  /// unchanged and the id remap is monotone, so the (score desc, weight
  /// desc, id asc) comparator agrees), the dirty ids are ranked among
  /// themselves — O(d log d) at worst over the delta, not the table, and
  /// near O(d) when they arrive nearly sorted — and each is placed into
  /// the clean run by a search that starts from its old slot, in place
  /// inside the result. The permutation is element-for-element identical
  /// to sorting from scratch (the comparator is a total order).
  /// SortsPerformed() does not advance: patching is not a sort. If the
  /// inputs are inconsistent (clean + dirty does not cover the table) the
  /// constructor falls back to the full sort of the sorting constructor,
  /// on `num_threads` workers — correct, counted, slow.
  ScoreOrder(const ScoredEdges& scored, const ScoreOrder& base,
             std::span<const EdgeId> base_to_next,
             std::span<const EdgeId> dirty, int num_threads = 0);

  /// Restore construction for the snapshot path (service/snapshot.h):
  /// adopts a previously computed permutation instead of sorting. The
  /// candidate is fully validated in O(E) — it must be a permutation of
  /// [0, E) whose every adjacent pair satisfies the (score desc, weight
  /// desc, id asc) comparator, NaN placed as above; the comparator is a
  /// total order, so adjacent agreement pins the entire sequence to the
  /// one permutation the sorting constructor would produce. Returns
  /// Corruption when the candidate fails either check. SortsPerformed()
  /// does not advance: restoring is not a sort, and the warm-restart
  /// zero-sort gate counts on that.
  static Result<ScoreOrder> FromPermutation(const ScoredEdges& scored,
                                            std::vector<EdgeId> ids);

  /// The scored table the order was built from.
  const ScoredEdges& scored() const { return *scored_; }

  /// The underlying graph.
  const Graph& graph() const { return scored_->graph(); }

  /// Number of ordered edges (== scored().size()).
  int64_t size() const { return static_cast<int64_t>(ids_.size()); }

  /// Edge ids in descending-score order.
  std::span<const EdgeId> ids() const { return ids_; }

  /// The edge id at `rank` (0 = highest score).
  EdgeId id_at(int64_t rank) const {
    return ids_[static_cast<size_t>(rank)];
  }

  /// Edge budget for a retention share: llround(share * |E|) with share
  /// clamped to [0, 1] — the exact TopShare rule.
  int64_t KForShare(double share) const;

  /// Mask keeping the first min(k, |E|) edges of the order; element-wise
  /// identical to TopK(scored(), k).
  BackboneMask PrefixMask(int64_t k) const;

  /// Ascending edge ids of the first clamp(k, 0, |E|) ranks, element for
  /// element MaskToEdgeIds(PrefixMask(k)). O(k + |E|/64) instead of the
  /// mask's two O(E) passes: one bit per kept id goes into a transient
  /// bitmap of ceil(|E|/64) words, and a countr_zero walk over the words
  /// reads the ids back in ascending order. The serving engine's edge
  /// lists come from here.
  std::vector<EdgeId> PrefixIds(int64_t k) const;

  /// Number of edges with score strictly greater than `threshold`;
  /// O(log E) binary search over the descending score sequence, identical
  /// to the linear CountAboveScore in eval/edge_budget.h.
  int64_t CountAbove(double threshold) const;

  /// Process-wide count of score sorts ever performed (ScoreOrder
  /// constructions). Test instrumentation for the one-sort-per-method
  /// contract: a P-point batch sweep must advance this by exactly one per
  /// scored method, never by P.
  static int64_t SortsPerformed();

 private:
  struct ValidatedTag {};
  ScoreOrder(ValidatedTag, const ScoredEdges& scored, std::vector<EdgeId> ids)
      : scored_(&scored), ids_(std::move(ids)) {}

  const ScoredEdges* scored_ = nullptr;
  std::vector<EdgeId> ids_;
};

/// Prefix profile of the full descending sweep, computed by one linear
/// pass over a ScoreOrder. Index k describes the backbone that keeps the
/// first k edges of the order (k in [0, |E|]).
struct SweepProfile {
  /// covered_nodes[k]: distinct endpoints among the first k edges — the
  /// Coverage numerator at prefix k.
  std::vector<int64_t> covered_nodes;

  /// kept_weight[k]: total weight of the first k edges (cumulative sum in
  /// rank order), for kept-weight-share curves.
  std::vector<double> kept_weight;

  /// Non-isolated node count of the original graph — the Coverage
  /// denominator (|V| - |I_G|).
  int64_t target_nodes = 0;

  /// The GrowUntilConnected stopping index: the smallest k whose prefix
  /// backbone covers every originally non-isolated node in one connected
  /// component. |E| when no prefix ever does (the grow rule then keeps
  /// every edge); 0 when the graph has no edges to cover.
  int64_t connect_k = 0;

  /// Coverage at prefix k, as CoverageOfMask would compute it.
  double CoverageAt(int64_t k) const {
    return static_cast<double>(covered_nodes[static_cast<size_t>(k)]) /
           static_cast<double>(target_nodes);
  }

  /// Share of total weight retained at prefix k (0 when the graph has no
  /// weight).
  double WeightShareAt(int64_t k) const {
    const double total = kept_weight.back();
    return total > 0.0 ? kept_weight[static_cast<size_t>(k)] / total : 0.0;
  }
};

/// Runs the single O(E a(E)) pass. The profile answers any number of
/// sweep points afterwards in O(1) each. The pass is two loops: one with
/// union-find while the connect index is undecided, stopping at
/// connect_k, and a tail that only counts coverage (byte flags, no
/// branch). A walk that ends without connecting the non-isolated nodes
/// records on the graph that its edges never do
/// (Graph::known_connectivity); later walks of the same graph, and of a
/// weight-only revision that inherited the record (Graph::
/// InheritEdgeFacts), read that, take connect_k = |E|, and run only the
/// tail. Either way the profile is identical to a walk that unions every
/// edge.
SweepProfile BuildSweepProfile(const ScoreOrder& order);

/// TopK riding a precomputed order: no sort, O(E) mask build.
BackboneMask TopK(const ScoreOrder& order, int64_t k);

/// TopShare riding a precomputed order.
BackboneMask TopShare(const ScoreOrder& order, double share);

/// The Doubly Stochastic stopping rule riding a precomputed order: walks
/// the order with an incremental union-find and stops at the connect
/// index (early exit — it does not build a full profile). On a graph known
/// never to connect — found by an earlier walk, or inherited from an
/// ancestor — it keeps every edge without walking.
BackboneMask GrowUntilConnected(const ScoreOrder& order);

namespace internal {

/// The sorting constructor's radix sort with 64-bit ids in every pass:
/// the instantiation it picks only for tables of more than 2^32 edges,
/// here run on a table of any size. Exposed for tests, which check it
/// against the reference order; SortsPerformed() does not advance.
std::vector<EdgeId> SortedIdsWith64BitIds(const ScoredEdges& scored,
                                          int num_threads);

}  // namespace internal

}  // namespace netbone

#endif  // NETBONE_CORE_SWEEP_H_
