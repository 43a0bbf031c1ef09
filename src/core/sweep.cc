#include "core/sweep.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>

#include "common/parallel.h"
#include "graph/edge_columns.h"
#include "graph/union_find.h"

namespace netbone {
namespace {

/// Every score sort in the process goes through ScoreOrder's constructor;
/// this counter lets tests prove a batch sweep sorted exactly once per
/// method.
std::atomic<int64_t> g_sorts_performed{0};

/// The one comparison every score ordering uses: (score desc, weight
/// desc, id asc). Total order — ids are unique — so the sorted sequence
/// is unique and patch-merged orders are bit-identical to sorted ones.
bool Precedes(double sa, double wa, EdgeId a, double sb, double wb,
              EdgeId b) {
  if (sa != sb) return sa > sb;
  if (wa != wb) return wa > wb;
  return a < b;
}

/// Precedes over edge ids, loading each side's score and weight from the
/// tables: the comparator of the patch merge and of permutation
/// validation, which only ever compare O(d log n) or O(E) adjacent pairs.
struct DescendingScore {
  const ScoredEdges* scored;
  const Graph* graph;

  bool operator()(EdgeId a, EdgeId b) const {
    return Precedes(scored->at(a).score, graph->edge(a).weight, a,
                    scored->at(b).score, graph->edge(b).weight, b);
  }
};

/// One element of the full sort: the comparison keys of an edge,
/// materialized next to its id so the O(E log E) comparisons read
/// contiguous memory instead of two random loads per side.
struct SortKey {
  double score;
  double weight;
  EdgeId id;
};

/// The full sort, and the only place a ScoreOrder's permutation is sorted
/// from scratch. ParallelSort is bit-identical to std::sort for a total
/// order, so the result does not depend on `num_threads`.
std::vector<EdgeId> SortedIds(const ScoredEdges& scored, int num_threads) {
  const size_t n = static_cast<size_t>(scored.size());
  const std::vector<Edge>& edges = scored.graph().edges();
  std::vector<SortKey> keys(n);
  for (size_t i = 0; i < n; ++i) {
    keys[i] = SortKey{scored.scores()[i].score, edges[i].weight,
                      static_cast<EdgeId>(i)};
  }
  ParallelSort(&keys, num_threads, [](const SortKey& a, const SortKey& b) {
    return Precedes(a.score, a.weight, a.id, b.score, b.weight, b.id);
  });
  std::vector<EdgeId> ids(n);
  for (size_t i = 0; i < n; ++i) ids[i] = keys[i].id;
  g_sorts_performed.fetch_add(1, std::memory_order_relaxed);
  return ids;
}

/// Counters the connect-index walk hands back to its caller.
struct WalkResult {
  /// Smallest prefix length covering all non-isolated nodes in one
  /// component; |E| when none does, 0 when there is nothing to cover.
  int64_t connect_k = 0;
  /// Non-isolated node count of the original graph.
  int64_t target_nodes = 0;
};

/// The connect-index walk shared by GrowUntilConnected and
/// BuildSweepProfile: feeds `visit(rank, weight, covered)` the edges in
/// rank order together with the running covered-endpoint count, so callers
/// building prefix arrays read the walk's own counters instead of
/// re-deriving them. `stop_at_connect` enables the early exit for
/// single-point callers. Endpoints and weights come from the graph's SoA
/// columns (graph/edge_columns.h): the walk visits edges in rank order —
/// random edge ids — and the dense int32/double columns touch half the
/// bytes per probe that striding 16-byte Edge structs would. Covered
/// endpoints are byte flags counted without a branch (`covered += 1 -
/// flag`), so the unpredictable first-touch test costs no mispredictions;
/// a self-loop's second endpoint reads the flag its first just set and
/// counts once.
///
/// Two loops. The first runs union-find and only runs while connectivity
/// is undecided: once the prefix connects the non-isolated nodes, later
/// Unions could change nothing the walk reports. A first loop that ends
/// without connecting them has proved the whole edge set never does, and
/// records that on the graph (Graph::known_connectivity), so later walks
/// of the same graph — the other methods' profiles, and a weight-only
/// revision's walks (Graph::InheritEdgeFacts) — skip it and start in the
/// second loop with connect_k = |E| settled. The second loop only counts
/// coverage. No pass runs just to learn the fact, so a graph that connects
/// pays nothing for it.
template <typename Visit>
WalkResult WalkOrder(const ScoreOrder& order, bool stop_at_connect,
                     const Visit& visit) {
  const Graph& g = order.graph();
  WalkResult result;
  result.target_nodes = g.num_nodes() - g.CountIsolates();
  if (result.target_nodes == 0) return result;  // no edges to walk either

  const int64_t num_edges = order.size();
  result.connect_k = num_edges;
  const bool settled =
      g.known_connectivity() == Graph::Connectivity::kDisconnected;
  if (settled && stop_at_connect) return result;

  const EdgeColumns& cols = g.edge_columns();
  const std::span<const EdgeId> ids = order.ids();
  std::vector<uint8_t> touched(static_cast<size_t>(g.num_nodes()), 0);
  int64_t covered = 0;
  const auto cover = [&](NodeId v) {
    uint8_t& flag = touched[static_cast<size_t>(v)];
    covered += 1 - flag;
    flag = 1;
  };

  int64_t rank = 0;
  if (!settled) {
    UnionFind uf(g.num_nodes());
    // The prefix connects the target exactly when its merges form a
    // spanning tree of it: target_nodes - 1 of them (a merge only ever
    // joins touched nodes, so all of them are touched then). A one-node
    // target needs none and connects at its first edge.
    int64_t merges_left = result.target_nodes - 1;
    while (rank < num_edges) {
      const size_t id = static_cast<size_t>(ids[static_cast<size_t>(rank)]);
      const NodeId src = cols.src[id];
      const NodeId dst = cols.dst[id];
      cover(src);
      cover(dst);
      visit(rank, cols.weight[id], covered);
      ++rank;
      merges_left -= uf.Union(src, dst) ? 1 : 0;
      if (merges_left == 0) break;
    }
    if (merges_left != 0) {
      g.RecordConnectivity(Graph::Connectivity::kDisconnected);
      return result;  // the loop walked every edge
    }
    result.connect_k = rank;
    g.RecordConnectivity(Graph::Connectivity::kConnected);
    if (stop_at_connect) return result;
  }
  for (; rank < num_edges; ++rank) {
    const size_t id = static_cast<size_t>(ids[static_cast<size_t>(rank)]);
    cover(cols.src[id]);
    cover(cols.dst[id]);
    visit(rank, cols.weight[id], covered);
  }
  return result;
}

}  // namespace

ScoreOrder::ScoreOrder(const ScoredEdges& scored, int num_threads)
    : scored_(&scored), ids_(SortedIds(scored, num_threads)) {}

Result<ScoreOrder> ScoreOrder::FromPermutation(const ScoredEdges& scored,
                                               std::vector<EdgeId> ids) {
  const size_t n = static_cast<size_t>(scored.size());
  if (ids.size() != n) {
    return Status::Corruption("score order length does not match table");
  }
  std::vector<char> seen(n, 0);
  for (const EdgeId id : ids) {
    if (id < 0 || static_cast<size_t>(id) >= n ||
        seen[static_cast<size_t>(id)] != 0) {
      return Status::Corruption("score order is not a permutation");
    }
    seen[static_cast<size_t>(id)] = 1;
  }
  // Adjacent-pair agreement with the strict-weak-order comparator is
  // enough: a total order has exactly one sorted permutation.
  const DescendingScore cmp{&scored, &scored.graph()};
  for (size_t i = 1; i < n; ++i) {
    if (cmp(ids[i], ids[i - 1])) {
      return Status::Corruption("score order violates the sort comparator");
    }
  }
  return ScoreOrder(ValidatedTag{}, scored, std::move(ids));
}

ScoreOrder::ScoreOrder(const ScoredEdges& scored, const ScoreOrder& base,
                       std::span<const EdgeId> base_to_next,
                       std::span<const EdgeId> dirty, int num_threads)
    : scored_(&scored) {
  const size_t n = static_cast<size_t>(scored.size());
  std::vector<char> is_dirty(n, 0);
  for (const EdgeId id : dirty) is_dirty[static_cast<size_t>(id)] = 1;

  // The surviving clean run, remapped to successor ids in base rank
  // order (an empty base_to_next is the identity mapping). Monotone remap
  // + bitwise-unchanged keys => still sorted under the shared comparator.
  std::vector<EdgeId> clean;
  clean.reserve(n);
  if (base_to_next.empty()) {
    for (const EdgeId b : base.ids()) {
      if (static_cast<size_t>(b) < n && is_dirty[static_cast<size_t>(b)] == 0) {
        clean.push_back(b);
      }
    }
  } else {
    for (const EdgeId b : base.ids()) {
      const EdgeId next_id = base_to_next[static_cast<size_t>(b)];
      if (next_id >= 0 && is_dirty[static_cast<size_t>(next_id)] == 0) {
        clean.push_back(next_id);
      }
    }
  }

  if (clean.size() + dirty.size() != n) {
    // Inconsistent patch inputs (a dirty list missing an inserted edge,
    // a stale base). Degrade to the plain sort: correct, and visible on
    // the counter so zero-sort tests catch the misuse.
    ids_ = SortedIds(scored, num_threads);
    return;
  }

  const DescendingScore cmp{&scored, &scored.graph()};
  std::vector<EdgeId> ranked(dirty.begin(), dirty.end());
  std::sort(ranked.begin(), ranked.end(), cmp);  // O(d log d), d = |dirty|

  // Merge by insertion point instead of element-by-element: each dirty id
  // binary-searches its slot in the remaining clean run (d log n
  // comparator calls, not n) and the clean segments between slots move as
  // contiguous copies. The comparator is a total order, so the result is
  // exactly std::merge's — and exactly the full sort's.
  ids_.resize(n);
  EdgeId* out = ids_.data();
  const EdgeId* clean_pos = clean.data();
  const EdgeId* const clean_end = clean_pos + clean.size();
  for (const EdgeId id : ranked) {
    const EdgeId* insert_at = std::lower_bound(clean_pos, clean_end, id, cmp);
    out = std::copy(clean_pos, insert_at, out);
    *out++ = id;
    clean_pos = insert_at;
  }
  std::copy(clean_pos, clean_end, out);
  // No g_sorts_performed bump: zero global sorts is the patch's contract.
}

int64_t ScoreOrder::KForShare(double share) const {
  share = std::clamp(share, 0.0, 1.0);
  return static_cast<int64_t>(
      std::llround(share * static_cast<double>(size())));
}

BackboneMask ScoreOrder::PrefixMask(int64_t k) const {
  BackboneMask mask;
  mask.keep.assign(ids_.size(), false);
  const int64_t limit = std::clamp<int64_t>(k, 0, size());
  for (int64_t rank = 0; rank < limit; ++rank) {
    mask.keep[static_cast<size_t>(id_at(rank))] = true;
  }
  mask.kept = limit;
  return mask;
}

std::vector<EdgeId> ScoreOrder::PrefixIds(int64_t k) const {
  const size_t limit = static_cast<size_t>(std::clamp<int64_t>(k, 0, size()));
  std::vector<uint64_t> words((ids_.size() + 63) / 64, 0);
  for (size_t rank = 0; rank < limit; ++rank) {
    const uint64_t id = static_cast<uint64_t>(ids_[rank]);
    words[id / 64] |= uint64_t{1} << (id % 64);
  }
  std::vector<EdgeId> out(limit);
  EdgeId* next = out.data();
  for (size_t w = 0; w < words.size(); ++w) {
    const EdgeId base = static_cast<EdgeId>(w * 64);
    for (uint64_t bits = words[w]; bits != 0; bits &= bits - 1) {
      *next++ = base + std::countr_zero(bits);
    }
  }
  return out;
}

int64_t ScoreOrder::CountAbove(double threshold) const {
  const auto above = [&](EdgeId id) {
    return scored_->at(id).score > threshold;
  };
  return std::partition_point(ids_.begin(), ids_.end(), above) -
         ids_.begin();
}

int64_t ScoreOrder::SortsPerformed() {
  return g_sorts_performed.load(std::memory_order_relaxed);
}

SweepProfile BuildSweepProfile(const ScoreOrder& order) {
  const int64_t num_edges = order.size();
  SweepProfile profile;
  profile.covered_nodes.assign(static_cast<size_t>(num_edges) + 1, 0);
  profile.kept_weight.assign(static_cast<size_t>(num_edges) + 1, 0.0);

  double weight = 0.0;
  const WalkResult walk = WalkOrder(
      order, /*stop_at_connect=*/false,
      [&](int64_t rank, double edge_weight, int64_t covered) {
        weight += edge_weight;
        profile.covered_nodes[static_cast<size_t>(rank) + 1] = covered;
        profile.kept_weight[static_cast<size_t>(rank) + 1] = weight;
      });
  profile.connect_k = walk.connect_k;
  profile.target_nodes = walk.target_nodes;
  return profile;
}

BackboneMask TopK(const ScoreOrder& order, int64_t k) {
  return order.PrefixMask(k);
}

BackboneMask TopShare(const ScoreOrder& order, double share) {
  return order.PrefixMask(order.KForShare(share));
}

BackboneMask GrowUntilConnected(const ScoreOrder& order) {
  const WalkResult walk = WalkOrder(order, /*stop_at_connect=*/true,
                                    [](int64_t, double, int64_t) {});
  return order.PrefixMask(walk.connect_k);
}

}  // namespace netbone
