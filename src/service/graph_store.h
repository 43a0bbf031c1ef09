// Copyright 2026 The netbone Authors.
//
// Content-addressed graph residency for the serving layer. A long-lived
// backbone server sees the same networks submitted over and over (the
// paper's score-once / threshold-many workflow, issued by many clients);
// the GraphStore gives every canonical graph a stable 64-bit fingerprint
// and keeps exactly one resident copy per distinct content, so repeated
// submissions dedupe to a shared_ptr bump instead of a second multi-MB
// edge table. The fingerprint is also the graph half of every ScoreCache
// key (service/score_cache.h).
//
// Residency is optionally bounded: under a byte budget (common/bytes.h
// accounting via ApproxGraphBytes) the least-recently-used unpinned
// graphs are evicted first, so multi-tenant churn cannot grow resident
// bytes without bound. Pins are in-flight refcounts: the engine pins a
// graph while a scoring on it runs, and pinned graphs are never evicted
// (the budget is exceeded rather than dropping a graph mid-use).
// Eviction only drops the store's reference — outstanding shared_ptr
// handles (requests, cached scores) stay valid; the evicted fingerprint
// simply stops resolving until the graph is re-interned.

#ifndef NETBONE_SERVICE_GRAPH_STORE_H_
#define NETBONE_SERVICE_GRAPH_STORE_H_

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/random.h"  // Mix64, the shared hash diffusion step
#include "obs/metrics.h"
#include "common/result.h"
#include "graph/delta.h"
#include "graph/graph.h"

namespace netbone {

namespace internal {
struct SnapshotStoreAccess;
}  // namespace internal

/// Stable content fingerprint: two Graphs hash equal iff they describe
/// the same weighted network. It is a header term (directedness, node and
/// edge counts, whether labeled) plus a sum, mod 2^64, of independent
/// terms, one per edge: a strong mix of the edge's endpoints and its
/// weight's bit pattern. Unlabeled graphs name endpoints by dense id, the
/// identity of their nodes. Labeled graphs name them by label hash (an
/// ordered pair if directed, (min, max) if not) and add one term per node
/// label, so the hash does not depend on the order in which labels were
/// interned at build time (the same CSV loaded in a different row order
/// fingerprints identically). A sum has no dependency chain, and a
/// revision's fingerprint follows from its parent's in O(churn)
/// (GraphStore::InternRevision). Collisions are possible in principle
/// (64-bit) and accepted: the store treats equal fingerprints as equal
/// content.
uint64_t GraphFingerprint(const Graph& graph);

/// Approximate resident heap bytes of a Graph (edge table, marginal
/// arrays, labels + label index), priced with the common/bytes.h
/// accounting. Used for the store's resident_bytes gauge and any byte
/// budgeting above it.
int64_t ApproxGraphBytes(const Graph& graph);

/// A graph resident in a GraphStore: its fingerprint plus a shared
/// handle. The handle keeps the graph alive independently of the store.
struct StoredGraph {
  uint64_t fingerprint = 0;
  std::shared_ptr<const Graph> graph;
};

/// What GraphStore::InternRevision hands back: the interned child, and
/// the delta from its base, or why there is none (base not resident, or
/// the diff refused).
struct StoredRevision {
  StoredGraph stored;
  Result<GraphDelta> delta;
};

/// Thread-safe content-addressed store with optional LRU-under-byte-
/// budget eviction. Intern() and InternRevision() are the only public
/// ways in (snapshot restore has a private one that skips re-hashing):
/// submitting a graph whose fingerprint is already resident returns the
/// existing copy and drops the new one. Both, and Find(), count as uses
/// for recency.
class GraphStore {
 public:
  /// byte_budget <= 0 means unlimited (no eviction) — the default.
  explicit GraphStore(int64_t byte_budget = 0);
  GraphStore(const GraphStore&) = delete;
  GraphStore& operator=(const GraphStore&) = delete;

  /// Fingerprints `graph` and either adopts it (first submission) or
  /// returns the already-resident copy with the same content. Either way
  /// the graph becomes most-recently-used; an insert that pushes the
  /// store past its budget evicts least-recently-used unpinned graphs
  /// (never the one just interned — it is the most recent).
  StoredGraph Intern(Graph graph);

  /// The resident graph with this fingerprint (marked most-recently-used)
  /// or nullptr.
  std::shared_ptr<const Graph> Find(uint64_t fingerprint) const;

  /// The revision road. Resolves `base_fingerprint` (refreshing its
  /// recency), diffs `graph` against it (ComputeGraphDelta), derives the
  /// child's fingerprint from the base's plus the O(churn) terms the delta
  /// names, and interns under it as Intern() would. The fingerprint
  /// always equals GraphFingerprint(graph). When the base is not resident
  /// or the diff refuses (directedness or labels differ), it hashes in
  /// full and returns the reason in place of the delta. The delta indexes
  /// the base's and the resident child's edge tables.
  StoredRevision InternRevision(Graph graph, uint64_t base_fingerprint);

  /// In-flight refcount: while a fingerprint holds pins the budget never
  /// evicts it. No-op when the fingerprint is not resident. Balance every
  /// Pin with one Unpin.
  void Pin(uint64_t fingerprint);
  void Unpin(uint64_t fingerprint);

  /// All resident graphs, least-recently-used first and without touching
  /// recency — the snapshot writer's enumeration order (restoring by
  /// re-Intern in sequence reproduces the same LRU order).
  std::vector<StoredGraph> ResidentGraphs() const;

  /// Registers this store's counters and occupancy as one gauge group
  /// (`graphs` resident, `resident_bytes` by ApproxGraphBytes, `inserts`
  /// that added a graph, `dedup_hits` answered by a resident, budget
  /// `evictions`, `byte_budget`), read under a single lock acquisition so
  /// a snapshot never tears, and its operation latency histograms
  /// (intern/evict, populated only while set_metrics_timing(true)) under
  /// `<prefix>.<name>`. `intern_ns` times each Intern (full hash and
  /// insert) and each InternRevision (base lookup, diff, fingerprint
  /// derivation or full hash, insert). Find is not
  /// timed: a clock pair would cost about as much as the call, and a
  /// traced request's cache_lookup span already covers it. The caller
  /// owns unregistration via the `owner` cookie.
  void RegisterMetrics(obs::MetricRegistry& registry,
                       const std::string& prefix, const void* owner);

  /// Turns on latency recording for Intern and eviction.
  void set_metrics_timing(bool on) {
    metrics_timing_.store(on, std::memory_order_relaxed);
  }

 private:
  // Snapshot restore has just checked a decoded graph against its stored
  // fingerprint and interns it under that key through Adopt rather than
  // hashing it a second time (service/snapshot.cc). Nothing else may
  // hand the store a key.
  friend struct internal::SnapshotStoreAccess;

  struct Entry {
    std::shared_ptr<const Graph> graph;
    int64_t bytes = 0;
    int64_t pins = 0;
    std::list<uint64_t>::iterator lru_it;
  };

  /// Inserts `graph` under `fingerprint`, or returns the resident copy
  /// with it; the bool says whether `graph` was adopted. Either way the
  /// entry becomes most-recently-used.
  std::pair<StoredGraph, bool> Adopt(Graph graph, uint64_t fingerprint);
  /// Moves the entry to the MRU front. Precondition: mu_ held.
  void TouchLocked(Entry& entry) const;
  /// Evicts LRU-first unpinned entries until the budget holds (or only
  /// pinned / kept entries remain). `keep` exempts one fingerprint — the
  /// graph Intern is in the middle of handing back. Precondition: mu_
  /// held.
  void TrimLocked(uint64_t keep);

  // Its own cache line: every request locks it (Find, Pin, Unpin), so a
  // neighbour sharing the line would bounce between the request threads.
  alignas(64) mutable std::mutex mu_;
  const int64_t byte_budget_;
  // Logically-const bookkeeping: Find() refreshes recency.
  mutable std::list<uint64_t> lru_;  // front = most recently used
  mutable std::unordered_map<uint64_t, Entry> graphs_;
  int64_t resident_bytes_ = 0;
  int64_t inserts_ = 0;
  int64_t dedup_hits_ = 0;
  int64_t evictions_ = 0;

  std::atomic<bool> metrics_timing_{false};
  obs::LatencyHistogram intern_ns_;  ///< Intern/InternRevision latency
  obs::LatencyHistogram evict_ns_;   ///< per-Trim latency when it evicted
};

}  // namespace netbone

#endif  // NETBONE_SERVICE_GRAPH_STORE_H_
