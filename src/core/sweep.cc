#include "core/sweep.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <memory>
#include <numeric>

#include "common/parallel.h"
#include "graph/union_find.h"

namespace netbone {
namespace {

/// Every score sort in the process goes through ScoreOrder's constructor;
/// this counter lets tests prove a batch sweep sorted exactly once per
/// method.
std::atomic<int64_t> g_sorts_performed{0};

/// The order key of a score or weight: an unsigned integer whose
/// ascending order is the double's descending order. -0.0 folds onto +0.0
/// (they compare equal), and every NaN, whatever its sign or payload,
/// takes the largest key: NaN sorts after every number, -inf included.
uint64_t DescendingKey(double x) {
  if (std::isnan(x)) return ~uint64_t{0};
  const uint64_t bits = std::bit_cast<uint64_t>(x == 0.0 ? 0.0 : x);
  // Positive doubles order like their bits, negative ones reversed: flip
  // the magnitude of the positives and both halves descend.
  return (bits >> 63) != 0 ? bits : bits ^ (~uint64_t{0} >> 1);
}

/// Whether two scores (or weights) tie in the order: equal numbers, -0.0
/// and +0.0 included, or both NaN.
bool Tied(double x, double y) {
  return x == y || (std::isnan(x) && std::isnan(y));
}

/// Whether x goes before y, given they do not tie: the larger number
/// first, NaN after every number — the order of DescendingKey.
bool Before(double x, double y) {
  return x > y || (std::isnan(y) && !std::isnan(x));
}

/// The one comparison every score ordering uses: (score desc, weight
/// desc, id asc) — the radix sort's (score key, weight key, id) order,
/// on the raw doubles. Total order — ids are unique — so the sorted
/// sequence is unique and patch-merged orders are bit-identical to
/// sorted ones.
bool Precedes(double sa, double wa, EdgeId a, double sb, double wb,
              EdgeId b) {
  if (!Tied(sa, sb)) return Before(sa, sb);
  if (!Tied(wa, wb)) return Before(wa, wb);
  return a < b;
}

/// The full sort is an LSD radix sort over 11-bit digits of the two order
/// keys: 2048 buckets of counters per chunk stay in L1, and a 64-bit key
/// takes at most six passes.
constexpr int kDigitBits = 11;
constexpr size_t kBuckets = size_t{1} << kDigitBits;
constexpr uint64_t kDigitMask = kBuckets - 1;

/// Edges per chunk below which another chunk costs more in histogram
/// set-up and task hand-off than it saves: each pass is two fork-joins,
/// and tables of a few 10k edges sorted by concurrent callers (a serving
/// engine's set-up) finish sooner on one chunk each.
constexpr size_t kMinChunkEdges = 16384;

/// The shifts of the digits of a key that vary across the table, given
/// the OR of every key XOR the first one; constant digits move nothing.
std::vector<int> VaryingDigits(uint64_t diff) {
  std::vector<int> shifts;
  for (int shift = 0; shift < 64; shift += kDigitBits) {
    if (((diff >> shift) & kDigitMask) != 0) shifts.push_back(shift);
  }
  return shifts;
}

/// One stable counting pass over `chunks` contiguous chunks of [0, n):
/// each chunk counts the digit at `shift` of its keys, the counts become
/// offsets by a prefix sum in (digit, chunk) order, and each chunk
/// scatters its elements in input order. Chunk c's run of digit d thus
/// lands after every earlier chunk's run of d, so the pass is stable and
/// its output is the same for every chunking. `source(i)` yields the
/// (key, id) of input element i; `sink(pos, key, id)` writes output slot
/// `pos`. `counts` holds chunks * kBuckets slots.
template <typename Index, typename Source, typename Sink>
void CountingPass(std::span<const size_t> bounds, int shift, Index* counts,
                  const Source& source, const Sink& sink) {
  const int chunks = static_cast<int>(bounds.size()) - 1;
  ParallelRun(chunks, [&](int c) {
    Index* count = counts + static_cast<size_t>(c) * kBuckets;
    std::fill(count, count + kBuckets, Index{0});
    for (size_t i = bounds[c]; i < bounds[c + 1]; ++i) {
      ++count[(source(i).first >> shift) & kDigitMask];
    }
  });
  Index offset = 0;
  for (size_t digit = 0; digit < kBuckets; ++digit) {
    for (int c = 0; c < chunks; ++c) {
      Index& slot = counts[static_cast<size_t>(c) * kBuckets + digit];
      const Index count = slot;
      slot = offset;
      offset += count;
    }
  }
  ParallelRun(chunks, [&](int c) {
    Index* next = counts + static_cast<size_t>(c) * kBuckets;
    for (size_t i = bounds[c]; i < bounds[c + 1]; ++i) {
      const auto [key, id] = source(i);
      sink(static_cast<size_t>(next[(key >> shift) & kDigitMask]++), key,
           id);
    }
  });
}

/// The full sort, and the only place a ScoreOrder's permutation is sorted
/// from scratch: a stable LSD radix sort of (key, id) pairs. The ids start
/// ascending; the weight key's varying digits go first, then the score
/// key's, each pass stable, so the result is ordered by (score key,
/// weight key, id) — exactly Precedes. Weight passes are skipped when
/// every score equals its weight (NT): equal scores then carry equal
/// weights, and the weight breaks no tie. `Index` is the id type the
/// passes carry: 32 bits whenever the table fits, halving the id bytes.
///
/// Transient memory: two buffers of 8-byte keys and Index ids (24 B/edge
/// at 32-bit ids), the second only from the third pass on, plus 8 KiB of
/// counters per chunk. The first pass reads its keys straight from the
/// tables, the last writes EdgeIds straight into the result, and the pass
/// that switches from the weight to the score key gathers each score as
/// it scatters.
template <typename Index>
std::vector<EdgeId> RadixSortedIds(const ScoredEdges& scored,
                                   int num_threads) {
  const size_t n = static_cast<size_t>(scored.size());
  const EdgeScore* scores = scored.scores().data();
  const Edge* edges = scored.graph().edges().data();
  const auto score_key = [scores](size_t i) {
    return DescendingKey(scores[i].score);
  };
  const auto weight_key = [edges](size_t i) {
    return DescendingKey(edges[i].weight);
  };

  // Contiguous chunks; the permutation does not depend on their number.
  const size_t chunks = std::clamp<size_t>(
      n / kMinChunkEdges, 1,
      static_cast<size_t>(ResolveThreadCount(num_threads)));
  std::vector<size_t> bounds(chunks + 1);
  for (size_t c = 0; c <= chunks; ++c) bounds[c] = n * c / chunks;

  // Which digits vary, and whether any score differs from its weight.
  struct Spread {
    uint64_t score = 0;
    uint64_t weight = 0;
    uint64_t score_vs_weight = 0;
  };
  std::vector<Spread> spreads(chunks);
  if (n > 0) {
    const uint64_t first_score = score_key(0);
    const uint64_t first_weight = weight_key(0);
    ParallelRun(static_cast<int>(chunks), [&](int c) {
      Spread spread;
      for (size_t i = bounds[c]; i < bounds[c + 1]; ++i) {
        const uint64_t s = score_key(i);
        const uint64_t w = weight_key(i);
        spread.score |= s ^ first_score;
        spread.weight |= w ^ first_weight;
        spread.score_vs_weight |= s ^ w;
      }
      spreads[c] = spread;
    });
  }
  Spread spread;
  for (const Spread& s : spreads) {
    spread.score |= s.score;
    spread.weight |= s.weight;
    spread.score_vs_weight |= s.score_vs_weight;
  }
  std::vector<int> shifts;
  if (spread.score_vs_weight != 0) shifts = VaryingDigits(spread.weight);
  const size_t weight_passes = shifts.size();
  for (const int shift : VaryingDigits(spread.score)) shifts.push_back(shift);
  const size_t passes = shifts.size();

  std::vector<EdgeId> sorted(n);
  if (passes == 0) {
    std::iota(sorted.begin(), sorted.end(), EdgeId{0});
    return sorted;
  }

  // Pass p reads buffer p % 2 and writes buffer (p + 1) % 2; the first
  // pass reads the tables and the last writes `sorted`.
  std::unique_ptr<uint64_t[]> keys[2];
  std::unique_ptr<Index[]> ids[2];
  for (size_t b = 0; b < 2; ++b) {
    if (passes > 2 - b) {
      keys[b] = std::make_unique_for_overwrite<uint64_t[]>(n);
      ids[b] = std::make_unique_for_overwrite<Index[]>(n);
    }
  }
  const auto counts =
      std::make_unique_for_overwrite<Index[]>(chunks * kBuckets);

  const auto run_pass = [&](size_t p, const auto& source) {
    const int shift = shifts[p];
    uint64_t* out_keys = keys[(p + 1) % 2].get();
    Index* out_ids = ids[(p + 1) % 2].get();
    if (p + 1 == passes) {
      CountingPass<Index>(bounds, shift, counts.get(), source,
                          [&](size_t pos, uint64_t, Index id) {
                            sorted[pos] = static_cast<EdgeId>(id);
                          });
    } else if (p + 1 == weight_passes) {
      CountingPass<Index>(bounds, shift, counts.get(), source,
                          [&](size_t pos, uint64_t, Index id) {
                            out_keys[pos] = score_key(id);
                            out_ids[pos] = id;
                          });
    } else {
      CountingPass<Index>(bounds, shift, counts.get(), source,
                          [&](size_t pos, uint64_t key, Index id) {
                            out_keys[pos] = key;
                            out_ids[pos] = id;
                          });
    }
  };
  const auto from_table = [](const auto& key_of) {
    return [key_of](size_t i) {
      return std::pair<uint64_t, Index>(key_of(i), static_cast<Index>(i));
    };
  };
  if (weight_passes > 0) {
    run_pass(0, from_table(weight_key));
  } else {
    run_pass(0, from_table(score_key));
  }
  for (size_t p = 1; p < passes; ++p) {
    const uint64_t* in_keys = keys[p % 2].get();
    const Index* in_ids = ids[p % 2].get();
    run_pass(p, [in_keys, in_ids](size_t i) {
      return std::pair<uint64_t, Index>(in_keys[i], in_ids[i]);
    });
  }
  return sorted;
}

std::vector<EdgeId> SortedIds(const ScoredEdges& scored, int num_threads) {
  std::vector<EdgeId> ids =
      static_cast<uint64_t>(scored.size()) <= UINT32_MAX
          ? RadixSortedIds<uint32_t>(scored, num_threads)
          : RadixSortedIds<uint64_t>(scored, num_threads);
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
/// single-point callers. Endpoints and weights come from the graph's
/// edge table: the walk visits edges in rank order — random edge ids —
/// and one 16-byte Edge holds all three fields in one cache line, where
/// the SoA columns (graph/edge_columns.h) would cost three lines per
/// probe, one each for src, dst and weight. Covered
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

  const std::vector<Edge>& edges = g.edges();
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
      const Edge& e =
          edges[static_cast<size_t>(ids[static_cast<size_t>(rank)])];
      cover(e.src);
      cover(e.dst);
      visit(rank, e.weight, covered);
      ++rank;
      merges_left -= uf.Union(e.src, e.dst) ? 1 : 0;
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
    const Edge& e = edges[static_cast<size_t>(ids[static_cast<size_t>(rank)])];
    cover(e.src);
    cover(e.dst);
    visit(rank, e.weight, covered);
  }
  return result;
}

/// A dirty id of an order patch with its new keys beside it, and a hint
/// where to start looking for its slot: its old slot in the clean run.
struct DirtyKey {
  double score;
  double weight;
  EdgeId id;
  size_t hint;
};

/// Marks of the order patch, one byte per successor id.
enum DirtyMark : char { kClean = 0, kDirty = 1, kDirtyMet = 2 };

/// The walk of the order patch: visits the base order, maps each id to
/// its successor (negative = deleted), and splits the successors by
/// their mark. Clean ids go to `tail` in base order (at most `room` of
/// them are written); dirty ids are marked met and noted with their hint
/// (at most `capacity`). Returns the clean and the dirty count met; a
/// separate function, so the counters stay in registers.
template <typename Successor>
std::pair<size_t, size_t> SplitBaseOrder(std::span<const EdgeId> base_ids,
                                         const Successor& successor,
                                         char* marks, size_t n, EdgeId* tail,
                                         size_t room, DirtyKey* noted,
                                         size_t capacity) {
  size_t kept = 0;
  size_t met = 0;
  for (const EdgeId b : base_ids) {
    const EdgeId id = successor(b);
    const size_t slot = static_cast<size_t>(id);
    if (id < 0 || slot >= n) continue;  // deleted, or a stale base
    if (marks[slot] == kClean) {
      if (kept < room) tail[kept] = id;
      ++kept;
    } else {
      marks[slot] = kDirtyMet;
      if (met < capacity) {
        noted[met].id = id;
        noted[met++].hint = kept;
      }
    }
  }
  return {kept, met};
}

}  // namespace

namespace internal {

std::vector<EdgeId> SortedIdsWith64BitIds(const ScoredEdges& scored,
                                          int num_threads) {
  return RadixSortedIds<uint64_t>(scored, num_threads);
}

}  // namespace internal

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
  const Graph& g = scored.graph();
  for (size_t i = 1; i < n; ++i) {
    const EdgeId a = ids[i];
    const EdgeId b = ids[i - 1];
    if (Precedes(scored.at(a).score, g.edge(a).weight, a, scored.at(b).score,
                 g.edge(b).weight, b)) {
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
  std::vector<char> marks(n, kClean);
  for (const EdgeId id : dirty) marks[static_cast<size_t>(id)] = kDirty;

  // One walk of the base order, remapped to successor ids (an empty
  // base_to_next is the identity mapping). The clean ids keep their base
  // order: monotone remap + bitwise-unchanged keys => still sorted under
  // the shared comparator. They go to the tail of ids_, behind room for
  // the d dirty ids, and the merge below fills ids_ from the front in
  // place. Each dirty id met on the way is noted with its old slot in the
  // clean run as a hint; inserted edges are never met.
  const size_t d = dirty.size();
  ids_.resize(n);
  std::vector<DirtyKey> ranked(d);
  EdgeId* const tail = ids_.data() + std::min(d, n);
  const size_t room = n > d ? n - d : 0;
  const auto [kept, met] =
      base_to_next.empty()
          ? SplitBaseOrder(
                base.ids(), [](EdgeId b) { return b; }, marks.data(), n, tail,
                room, ranked.data(), d)
          : SplitBaseOrder(
                base.ids(),
                [base_to_next](EdgeId b) {
                  return base_to_next[static_cast<size_t>(b)];
                },
                marks.data(), n, tail, room, ranked.data(), d);
  // The inserted edges: dirty ids the walk never met. No old slot.
  size_t found = met;
  for (const EdgeId id : dirty) {
    char& mark = marks[static_cast<size_t>(id)];
    if (mark == kDirty && found < d) {
      mark = kDirtyMet;
      ranked[found].id = id;
      ranked[found++].hint = 0;
    }
  }

  if (kept + d != n || found != d) {
    // Inconsistent patch inputs (a dirty list missing an inserted edge or
    // naming an id twice, a stale base). Degrade to the plain sort:
    // correct, and visible on the counter so zero-sort tests catch the
    // misuse.
    ids_ = SortedIds(scored, num_threads);
    return;
  }

  // The dirty ids with their new keys beside them, ranked among
  // themselves on contiguous memory. Met in base order, they arrive
  // nearly sorted when scores moved little (small count transfers), so
  // an insertion sort runs first; past a budget of d element moves it
  // hands over to std::sort, so the worst case stays O(d log d) and a
  // patch whose scores moved far wastes at most d moves.
  const Graph& g = scored.graph();
  for (DirtyKey& key : ranked) {
    key.score = scored.at(key.id).score;
    key.weight = g.edge(key.id).weight;
  }
  const auto key_first = [](const DirtyKey& a, const DirtyKey& b) {
    return Precedes(a.score, a.weight, a.id, b.score, b.weight, b.id);
  };
  size_t moves = 0;
  for (size_t i = 1; i < d && moves <= d; ++i) {
    const DirtyKey key = ranked[i];
    size_t j = i;
    for (; j > 0 && key_first(key, ranked[j - 1]); --j) {
      ranked[j] = ranked[j - 1];
    }
    ranked[j] = key;
    moves += i - j;
  }
  if (moves > d) std::sort(ranked.begin(), ranked.end(), key_first);

  // Merge by insertion point instead of element-by-element: each dirty id
  // searches its slot in the remaining clean run (O(d log n) comparator
  // calls at worst, not n) and the clean segments between slots move as
  // contiguous copies. The search starts at the hint and gallops toward
  // the slot, then bisects the last stride, so a dirty id whose score
  // moved little costs a few comparisons. The comparator is a total
  // order, so the result is exactly std::merge's — and exactly the full
  // sort's.
  const auto clean_first = [&](EdgeId c, const DirtyKey& key) {
    return Precedes(scored.at(c).score, g.edge(c).weight, c, key.score,
                    key.weight, key.id);
  };
  // The write cursor trails the clean read cursor by the dirty ids not
  // yet placed, so it never overwrites a clean id still to be read, and
  // once the last dirty id is placed the rest of the run is in place.
  EdgeId* out = ids_.data();
  const EdgeId* const clean_begin = ids_.data() + d;
  const EdgeId* const clean_end = ids_.data() + n;
  const EdgeId* clean_pos = clean_begin;
  for (const DirtyKey& key : ranked) {
    // Narrow [lo, hi) to hold the slot: everything before lo precedes
    // the dirty id, nothing from hi on does.
    const EdgeId* lo = clean_pos;
    const EdgeId* hi = clean_end;
    const EdgeId* const start = std::clamp(clean_begin + key.hint, lo, hi);
    size_t stride = 1;
    if (start < hi && clean_first(*start, key)) {
      lo = start + 1;
      while (stride <= static_cast<size_t>(hi - lo) &&
             clean_first(lo[stride - 1], key)) {
        lo += stride;
        stride *= 2;
      }
      hi = lo + std::min(stride - 1, static_cast<size_t>(hi - lo));
    } else {
      hi = start;
      while (stride <= static_cast<size_t>(hi - lo) &&
             !clean_first(*(hi - stride), key)) {
        hi -= stride;
        stride *= 2;
      }
      lo = hi - std::min(stride - 1, static_cast<size_t>(hi - lo));
    }
    const EdgeId* insert_at = std::lower_bound(lo, hi, key, clean_first);
    out = std::copy(clean_pos, insert_at, out);
    *out++ = key.id;
    clean_pos = insert_at;
  }
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
