// Copyright 2026 The netbone Authors.
//
// The serving front door: a long-lived BackboneEngine that turns the
// library's score-once / threshold-many workflow (Coscia & Neffke, ICDE
// 2017) into a request pipeline. Clients intern graphs once (AddGraph,
// content-addressed via service/graph_store.h), then issue typed
// BackboneRequests; the engine amortizes the expensive inference step —
// scoring + the one sort + the one sweep pass, once it is needed — across
// every request that shares a (graph, method, options) key
// (service/score_cache.h).
//
// Request lifecycle, one path for Execute, ExecuteBatch and Submit:
//   1. admit: a request past its deadline, with a non-finite share, or on
//      a fingerprint the GraphStore does not hold is answered there;
//   2. resolve the ScoreKey against the ScoreCache; on a miss, register
//      the key in the in-flight table and score on the shared pool
//      (common/parallel.h) — concurrent identical requests coalesce onto
//      the one computation instead of scoring twice. Graphs registered as
//      revisions (AddGraphRevision) take a third road between "cache" and
//      "recompute": *patch* — the lineage records on the store's entries
//      lead to a warm ancestor entry, which is diffed against the new
//      graph (or patched with the submission-time delta) and only the
//      affected edges are rescored, the score order merged without a
//      global sort (core/delta_rescore.h);
//   3. answer the request from the cached artifact chain: extraction
//      kinds are an O(k + E/64) prefix walk, coverage points are O(1)
//      reads of the sweep profile, zero rescoring and zero sorts when
//      warm. The profile is built lazily: the request whose resolve
//      produced the entry answers its one point without it (a walk of
//      the k kept ranks, O(k + V), core/sweep.h EvaluatePrefix), and the
//      entry's first hit builds it, once. A failed resolve may be
//      answered degraded instead (Failure semantics below).
//
// Warm-path contract (pinned by tests/service_test.cc and
// bench/bench_serving_engine.cc): requests on a cached key advance
// ScoreOrder::SortsPerformed() by exactly zero, and every response is
// bit-identical to the uncached RunMethod + TopK/TopShare/FilterByScore +
// CoverageOfMask path at every thread count.
//
// Failures are remembered too (negative caching): a scoring failure is
// recorded against its key with a TTL, so a client that hammers a bad
// (graph, method, options) combination gets the same error back without
// re-running the scoring every time. Entries expire after
// BackboneEngineOptions::negative_ttl or on ClearNegativeCache();
// successes never consult the negative table.
//
// Concurrency invariant (deadlock freedom): in-flight score futures are
// only ever *waited on* from caller context — Execute, the post-fan-out
// join in ExecuteBatch, or the async dispatcher thread — never from
// inside a work-stealing task. A batch admits every request, then phase
// 1 runs StartOrJoinScore over its distinct keys as ParallelForDynamic
// tasks (each scoring with full inner parallelism via nested spawns): a
// key already in flight hands its future back for the caller to await
// after the fan-out joins. Phase 2 answers every request on the pool,
// without the blocking sampled-HSS fallback. Tasks therefore always run
// to completion without blocking on other requests (common/parallel.h).
//
// Failure semantics (the fault-tolerance layer):
//  * Deadlines + cancellation: BackboneRequest::timeout arms a deadline
//    at Execute / ExecuteBatch / Submit entry; together with the
//    request's own CancelToken and the engine's shutdown token it forms
//    the token the scoring loops poll at chunk granularity
//    (common/cancel.h). A request past its budget returns a typed
//    kDeadlineExceeded / kCancelled and the scoring stops burning cores
//    at the next check. Deadlines bound *work*, not delivery: a batch
//    request whose key finishes scoring under a sibling's longer
//    deadline still receives the (exact, bit-identical) result.
//  * Retry: transient scoring failures (kUnavailable, kIOError) are
//    retried up to max_retries with exponential backoff and
//    deterministic jitter (a Mix64 hash of key and attempt — reruns of
//    the same workload back off identically). Cancellation-shaped
//    failures are never retried and never negative-cached.
//  * Admission control: the Submit queue is bounded (max_queued_batches;
//    reject-new or shed-oldest under overload) and cold scorings are
//    bounded (max_inflight_scores) — overload answers kResourceExhausted
//    / kUnavailable instead of growing queues without bound.
//  * Degradation: a request that opts in via allow_degraded and misses
//    its budget may be answered from a warm lineage ancestor's entry
//    (stale but exact-for-the-ancestor) or, for HSS, a seeded sampled
//    approximation — always flagged degraded=true with provenance, and
//    the exact result is scheduled in the background. Nothing silently
//    approximates: every unflagged response keeps the bit-identity
//    contract above.
//  * Shutdown: the destructor stops the dispatcher, *cancels* queued
//    batches (futures resolve with kUnavailable, never dangle) and fires
//    the engine-wide cancel token so in-flight scorings abort before the
//    caches are torn down.
// All of this is exercised deterministically by the seeded
// fault-injection harness (service/fault_injection.h) and the chaos
// bench (bench/bench_fault_tolerance.cc).

#ifndef NETBONE_SERVICE_ENGINE_H_
#define NETBONE_SERVICE_ENGINE_H_

#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/cancel.h"
#include "common/result.h"
#include "core/registry.h"
#include "graph/graph.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "service/graph_store.h"
#include "service/score_cache.h"
#include "service/snapshot.h"

namespace netbone {

/// What a BackboneRequest asks the engine to compute.
enum class RequestKind {
  /// Backbone keeping the k highest-scoring edges (TopK semantics).
  kTopK,
  /// Backbone keeping round(share * |E|) edges (TopShare semantics).
  kTopShare,
  /// Backbone keeping edges with score strictly above `threshold`
  /// (FilterByScore semantics).
  kScoreThreshold,
  /// The Doubly Stochastic stopping rule (GrowUntilConnected semantics),
  /// read off the entry's sweep profile like kSweep.
  kGrowUntilConnected,
  /// Coverage / kept-weight share over a whole share grid plus the
  /// connect index. Always read off the entry's sweep profile (built by
  /// the first request that needs it), O(1) per point.
  kSweep,
  /// Coverage + kept-weight share at one retention share; no edge list is
  /// materialized. Warm, it is the cheapest request (two profile reads);
  /// on the request that resolved the entry, one O(k + V) walk of the
  /// kept ranks instead of the profile build.
  kCoveragePoint,
  /// Stability (Spearman of consecutive-snapshot weights, Sec. V-F) of
  /// the share-backbone of `graph` against `next_graph`.
  kStabilityPoint,
};
inline constexpr int kNumRequestKinds = 7;

/// Stable short name for a request kind (metric names, trace labels).
const char* RequestKindName(RequestKind kind);

/// A typed request against an interned graph.
struct BackboneRequest {
  /// Fingerprint of a graph previously interned with AddGraph.
  uint64_t graph = 0;
  /// Scoring method; with `score_options` this selects the cache entry.
  Method method = Method::kNoiseCorrected;
  ScoreOptions score_options;

  RequestKind kind = RequestKind::kTopShare;
  int64_t k = 0;            ///< kTopK
  /// kTopShare / kCoveragePoint / kStabilityPoint; clamped to [0, 1].
  /// A non-finite share (and, for kSweep, any non-finite grid entry) is
  /// answered InvalidArgument before resolution.
  double share = 0.0;
  double threshold = 0.0;   ///< kScoreThreshold
  std::vector<double> shares;  ///< kSweep grid
  uint64_t next_graph = 0;  ///< kStabilityPoint: the t+1 snapshot

  /// When false, extraction kinds skip materializing `kept_edges`
  /// (coverage/weight bookkeeping is still filled).
  bool include_edges = true;

  /// Soft deadline: > 0 arms a deadline of now + timeout when the
  /// request enters the engine (Execute / ExecuteBatch call time; Submit
  /// time for async batches, so queueing delay counts against the
  /// budget). Past the deadline the request returns kDeadlineExceeded
  /// and its scoring stops at the next chunk-granularity check. 0 = no
  /// deadline.
  std::chrono::milliseconds timeout{0};

  /// Optional caller-held cancellation (CancelSource::token()). Honoured
  /// like the deadline in Execute; in batches it pre-empts the request's
  /// own response but does not abort a scoring shared with siblings.
  CancelToken cancel;

  /// Opt-in graceful degradation: when the exact path misses its budget
  /// (deadline/cancel) or fails transiently, the engine may answer from
  /// a warm lineage ancestor's entry or (HSS, Execute only) a seeded
  /// sampled approximation — flagged degraded=true, with the exact
  /// result scheduled in the background. Never changes an unflagged
  /// response.
  bool allow_degraded = false;
};

/// One sweep-grid point of a kSweep response.
struct SweepPoint {
  int64_t k = 0;            ///< edge budget at this share
  double coverage = 0.0;    ///< Coverage at the prefix
  double weight_share = 0.0;  ///< share of total weight retained

  friend bool operator==(const SweepPoint&, const SweepPoint&) = default;
};

/// Typed response; which fields are meaningful depends on the request
/// kind. Values are deterministic: bit-identical for every engine thread
/// count and to the equivalent uncached library calls.
struct BackboneResponse {
  /// Extraction kinds: retained edge ids, ascending (empty when
  /// include_edges was false).
  std::vector<EdgeId> kept_edges;
  /// Extraction kinds + kCoveragePoint/kStabilityPoint: retained count.
  int64_t kept = 0;
  /// Coverage of the result backbone (0 when the graph has no
  /// non-isolated node). Filled for extraction kinds and kCoveragePoint.
  double coverage = 0.0;
  /// Kept-weight share of the result backbone (same kinds as coverage).
  double weight_share = 0.0;
  /// kSweep: one point per requested share.
  std::vector<SweepPoint> sweep;
  /// kSweep: the GrowUntilConnected stopping index of the full order.
  int64_t connect_k = 0;
  /// kStabilityPoint: the Spearman stability value.
  double stability = 0.0;
  /// True when the score was already resident in the ScoreCache when the
  /// request executed — the warm path. False when the request triggered,
  /// or waited on (coalesced with), a fresh computation.
  bool cache_hit = false;

  /// True when this response was served by a degraded path (stale warm
  /// ancestor or sampled-HSS approximation) after the exact path missed
  /// its budget; see BackboneRequest::allow_degraded. A degraded
  /// response is exact *for the artifacts that served it* — it is never
  /// a silently perturbed version of the exact answer.
  bool degraded = false;
  /// Degraded responses: fingerprint of the graph whose cached artifacts
  /// served the answer (the warm ancestor; the request's own graph for
  /// the sampled-HSS path). 0 otherwise.
  uint64_t degraded_from = 0;
};

/// What Submit does when its bounded queue is full.
enum class OverloadPolicy {
  /// Fail the incoming batch with kResourceExhausted; queued work keeps
  /// its place (favours earlier clients — predictable under ramp load).
  kRejectNew,
  /// Fail the *oldest* queued batch with kUnavailable and enqueue the
  /// incoming one (favours fresh requests — the oldest batch is the most
  /// likely to be past its caller's patience anyway).
  kShedOldest,
};

/// Options for BackboneEngine.
struct BackboneEngineOptions {
  /// ScoreCache byte budget (<= 0 = unlimited).
  int64_t cache_byte_budget = int64_t{256} << 20;
  /// GraphStore byte budget (<= 0 = unlimited): under it, the least-
  /// recently-used graphs are evicted — except graphs pinned by an
  /// in-flight scoring — so multi-tenant churn cannot grow residency
  /// without bound. Requests on an evicted fingerprint return NotFound
  /// until the graph is re-interned.
  int64_t graph_byte_budget = 0;
  /// Worker threads for scoring and batch fan-out (0 = hardware
  /// concurrency). Responses are bit-identical for every value.
  int num_threads = 0;
  /// How long a scoring failure is remembered per key before the engine
  /// re-attempts it (negative caching). <= 0 disables: every request on
  /// a failing key re-runs the scoring.
  std::chrono::milliseconds negative_ttl = std::chrono::seconds(30);
  /// When true (the default), a cold key whose graph was registered as a
  /// revision of an ancestor (AddGraphRevision) and whose method supports
  /// incremental rescoring (core/delta_rescore.h) is *patched* from the
  /// warm ancestor entry — scoring only the affected edges and merging
  /// the score order with zero global sorts — instead of fully rescored.
  /// Responses are bit-identical either way; false forces the full path.
  bool enable_delta_rescore = true;
  /// Block size for the delta path's dirty-edge rescoring
  /// (DeltaRescoreOptions::grain).
  int64_t delta_grain = 32;

  /// Retries for transiently-failed cold scorings (kUnavailable /
  /// kIOError): up to this many re-attempts after the first failure.
  /// 0 disables retry. Cancellation-shaped failures never retry. Attempt
  /// k sleeps ~1 ms * 2^k, capped at 50 ms, scaled by a deterministic
  /// jitter in [0.5, 1.0) derived from (key, attempt) — identical
  /// workloads back off identically, distinct keys decorrelate. The sleep
  /// is deadline-aware (it never outlives the request budget).
  int max_retries = 3;

  /// Bound on queued Submit batches (admission control). 0 = unbounded.
  /// When full, `overload_policy` decides.
  int64_t max_queued_batches = 0;
  OverloadPolicy overload_policy = OverloadPolicy::kRejectNew;

  /// Bound on concurrently in-flight cold scorings. A request whose key
  /// is warm, negative-cached or already in flight is unaffected; one
  /// that would *start* a new scoring past the bound returns
  /// kResourceExhausted instead (never negative-cached). 0 = unlimited.
  int64_t max_inflight_scores = 0;

  /// Source-sample size for the degraded sampled-HSS fallback
  /// (BackboneRequest::allow_degraded); <= 0 disables that fallback.
  int64_t degraded_hss_sample = 64;

  /// Directory for crash-safe snapshots of the serving state
  /// (service/snapshot.h). Non-empty enables persistence: the
  /// constructor restores the snapshot found there (salvaging intact
  /// sections of a corrupted one and starting cold for the rest), and
  /// WriteSnapshotNow / the periodic + shutdown hooks below write new
  /// ones atomically. Empty (the default) disables all of it.
  std::string snapshot_dir;
  /// Write a final snapshot in the destructor, after the dispatcher has
  /// drained — a clean shutdown preserves the warm state.
  bool snapshot_on_shutdown = true;
  /// When > 0, the dispatcher thread also writes a snapshot roughly this
  /// often. Background snapshots carry no request deadline — they are
  /// maintenance, not serving work.
  std::chrono::milliseconds snapshot_interval{0};

  /// Observability (src/obs/). When true (the default) the engine
  /// registers its counters/gauges/histograms in its MetricRegistry and
  /// records per-kind / per-answer-path latency distributions. The cost
  /// is a few relaxed fetch_adds and two clock reads per request; false
  /// keeps only the counters and gauges (Metrics() still reports them).
  bool enable_metrics = true;
  /// Trace sampling: 0 (default) disables per-request traces entirely
  /// (no ring allocated, one predictable branch per request); 1 traces
  /// every request; N traces every Nth. Sampled requests additionally
  /// pay one clock read per span boundary. The trace ring holds 1 MiB of
  /// traces (rounded down to whole slots).
  int64_t trace_sample_rate = 0;
};

/// Long-lived serving engine: graph residency + score cache + request
/// execution, safe for concurrent use from any number of threads.
class BackboneEngine {
 public:
  using Options = BackboneEngineOptions;

  explicit BackboneEngine(const Options& options = {});
  ~BackboneEngine();

  BackboneEngine(const BackboneEngine&) = delete;
  BackboneEngine& operator=(const BackboneEngine&) = delete;

  /// Interns a graph (content-addressed dedup) and returns the
  /// fingerprint to cite in requests.
  uint64_t AddGraph(Graph graph);

  /// Interns like AddGraph and additionally records `base_fingerprint`
  /// (a previously-interned graph this one revises — the next noisy
  /// observation of the same network) as the graph's lineage parent on
  /// its GraphStore entry, with the delta from the base; the record is
  /// priced in the store's bytes and evicted with the graph. A later cold
  /// request on the new fingerprint then resolves a warm ancestor along
  /// the lineage chain and patches its artifacts instead of rescoring the
  /// world (see BackboneEngineOptions::enable_delta_rescore). The store
  /// diffs the graph against a resident base once, here, and derives its
  /// fingerprint from the base's in O(churn) (GraphStore::InternRevision).
  /// base_fingerprint == 0 — or a graph that dedupes to its own base —
  /// degrades to plain AddGraph.
  uint64_t AddGraphRevision(Graph graph, uint64_t base_fingerprint);

  /// The resident graph for a fingerprint, or nullptr.
  std::shared_ptr<const Graph> FindGraph(uint64_t fingerprint) const;

  /// Executes one request synchronously on the calling thread (scoring
  /// runs on the shared pool). May block on an identical in-flight
  /// request instead of recomputing.
  Result<BackboneResponse> Execute(const BackboneRequest& request);

  /// Executes a batch on Execute's path: distinct score keys are resolved
  /// once each, at most options.num_threads at a time, then every request
  /// is answered on the pool. Results align with `requests` and are
  /// bit-identical to executing each request alone. Unlike Execute, a
  /// request's cancel token pre-empts only its own answer, never a
  /// scoring its siblings share, and only a warm ancestor may serve it
  /// degraded (no sampled-HSS fallback).
  std::vector<Result<BackboneResponse>> ExecuteBatch(
      std::span<const BackboneRequest> requests);

  /// Queues a batch for the dispatcher thread and returns immediately.
  /// Batches execute FIFO; the future delivers the same results
  /// ExecuteBatch would.
  std::future<std::vector<Result<BackboneResponse>>> Submit(
      std::vector<BackboneRequest> requests);

  /// Blocks until the submit queue is empty and the dispatcher is not
  /// running a batch: every Submit batch and every background refresh a
  /// degraded serve queued before this call has finished (refreshes
  /// those batches queue in turn are waited for too). Returns at once
  /// after shutdown. For callers that need a quiescent read — a metrics
  /// or fault-count comparison, a snapshot — not for the serving path.
  void WaitIdle();

  /// Forgets all remembered scoring failures at once: the next request
  /// on a previously-failing key re-attempts it. For operators that
  /// fixed an environmental cause.
  void ClearNegativeCache();

  /// Writes a snapshot of the current serving state to
  /// options.snapshot_dir via the atomic temp-file + fsync + rename
  /// protocol (service/snapshot.h); on any failure the previous snapshot
  /// is untouched. FailedPrecondition when no snapshot_dir is
  /// configured. Safe from any thread; concurrent serving continues
  /// (the writer holds the store/cache locks only to enumerate).
  Status WriteSnapshotNow();

  /// Fingerprints of graphs currently resident in this engine's store,
  /// least-recently-used first. ShardedBackboneEngine's boot self-heal
  /// reads it to route each restored graph to the shard that holds it.
  std::vector<uint64_t> ResidentFingerprints() const;

  /// One consistent snapshot of every metric the engine registered —
  /// the engine's only counter readout:
  ///  * counters `engine.{requests, scores_computed, coalesced_waits,
  ///    submitted_batches, negative_hits, delta_rescores,
  ///    delta_fallbacks, shed_batches, rejected_batches,
  ///    inflight_rejected, deadline_hits, cancellations, retries,
  ///    negative_exempt, degraded_served, background_refreshes,
  ///    snapshot_writes, snapshot_failures, profiles_built}`
  ///    (profiles_built counts the sweep profiles built while answering
  ///    requests, each entry's at most once; snapshots neither write nor
  ///    restore profiles, so a restored entry counts its own first build);
  ///  * gauges `engine.{queue_depth, inflight_scores, negative_entries}`
  ///    (live negative entries only), the constructor's restore outcome
  ///    `engine.{restored_graphs, restored_entries, restored_lineage,
  ///    quarantined_sections, snapshot_restore_errors}`,
  ///    `trace.{sampled, dropped}`, the cache's `cache.*` and the
  ///    store's `store.*` groups (ScoreCache / GraphStore
  ///    RegisterMetrics), and `fault.<site>.{injected, draws}` per
  ///    fault-injection site;
  ///  * latency histograms per request kind and per answer path
  ///    (`engine.latency.{kind,path}.*`, when enable_metrics) plus the
  ///    queue-wait, batch, snapshot and cache/store operation timings.
  /// Merge with obs::MetricRegistry::Global().Snapshot() for the
  /// process-wide scheduler metrics.
  obs::MetricsSnapshot Metrics() const { return registry_.Snapshot(); }

  /// The engine's own registry (for callers that want to add metrics or
  /// render alongside the engine's).
  obs::MetricRegistry& registry() const { return registry_; }

  /// The per-request trace ring (enabled() is false unless
  /// Options::trace_sample_rate > 0).
  const obs::TraceRecorder& tracer() const { return tracer_; }

 private:
  using ScoreResult = Result<std::shared_ptr<const CachedScore>>;

  /// Per-request resolve bookkeeping threaded through the score-resolution
  /// helpers: which roads the request took (for answer-path classification)
  /// and, when tracing is on, where the time went (span boundaries in
  /// tracer_ timebase; start < 0 = span never entered).
  struct ResolveInfo {
    bool cache_hit = false;      ///< positive cache answered
    bool negative_hit = false;   ///< negative cache answered (failure)
    bool delta_patched = false;  ///< answered by patching a warm ancestor
    int retries = 0;             ///< transient-failure re-attempts
    bool timed = false;          ///< span clocks on (tracer enabled)
    /// A clock reading the caller already took at request entry: the
    /// first cache lookup starts there instead of reading again (-1 =
    /// none; consumed by that lookup).
    int64_t entry_ns = -1;
    int64_t lookup_start_ns = -1;   ///< kCacheLookup
    int64_t lookup_ns = 0;
    int64_t lineage_start_ns = -1;  ///< kLineageWalk
    int64_t lineage_ns = 0;
    int64_t patch_start_ns = -1;    ///< kDeltaPatch
    int64_t patch_ns = 0;
    int64_t score_start_ns = -1;    ///< kColdScore
    int64_t score_ns = 0;
    /// kExtract. It has no duration field: the span runs until the
    /// end read RecordOutcome takes anyway.
    int64_t extract_start_ns = -1;
  };

  /// The non-blocking half of score resolution: positive cache, negative
  /// cache, then either computes the score itself (registering the key
  /// in-flight) or — when another request has the key in flight —
  /// returns nullopt with *pending set to that computation's future,
  /// which the caller awaits from caller context. Never waits on other
  /// requests' work, so it also runs inside ExecuteBatch's phase-1 tasks.
  std::optional<ScoreResult> StartOrJoinScore(
      const ScoreKey& key, const std::shared_ptr<const Graph>& graph,
      ResolveInfo* info, std::shared_future<ScoreResult>* pending,
      const CancelToken& cancel);

  /// StartOrJoinScore that awaits a join. Caller context only. The join
  /// honours `cancel`: a waiter whose budget lapses stops waiting (the
  /// shared computation keeps running for the others), and a waiter that
  /// inherits a *foreign* cancellation — the starter's budget died, not
  /// this caller's — re-enters the loop and may become the starter. A
  /// valid `joined` (a future StartOrJoinScore already handed back) is
  /// awaited as the first round instead of a fresh lookup.
  ScoreResult GetOrComputeScore(const ScoreKey& key,
                                const std::shared_ptr<const Graph>& graph,
                                ResolveInfo* info, const CancelToken& cancel,
                                std::shared_future<ScoreResult> joined = {});

  /// Admission: the request's answer when it is past `deadline` at `now`
  /// (a counted deadline hit), has a non-finite share or names no
  /// resident graph; otherwise OK with *graph set.
  Status Admit(const BackboneRequest& request,
               std::chrono::steady_clock::time_point deadline,
               std::chrono::steady_clock::time_point now,
               std::shared_ptr<const Graph>* graph);

  /// GetOrComputeScore with `key`'s graph pinned in the store meanwhile.
  ScoreResult ResolvePinned(const ScoreKey& key,
                            const std::shared_ptr<const Graph>& graph,
                            ResolveInfo* info, const CancelToken& cancel);

  /// An admitted request's response from its resolved `score`: a failure
  /// is counted and may be served by TryDegraded (never once shutdown has
  /// begun), a success is assembled by BuildResponse. Only Execute, which
  /// answers on its caller's thread right after its own lookup, passes
  /// `may_block`; its traced warm hit's extract span starts at the
  /// lookup's end reading.
  Result<BackboneResponse> Answer(const BackboneRequest& request,
                                  const ScoreKey& key,
                                  const std::shared_ptr<const Graph>& graph,
                                  const ScoreResult& score, ResolveInfo* info,
                                  bool may_block);

  /// Counts a failed resolve's deadline hit or cancellation, and returns
  /// whether `request` may be answered degraded instead: it opted in and
  /// the failure is cancellation-shaped, transient or an admission
  /// rejection.
  bool CountFailureMayDegrade(const BackboneRequest& request,
                              const Status& status);

  /// The cold scoring itself, with the transient-failure retry loop and
  /// the scoring fault-injection sites. Runs in the in-flight window
  /// (the key is registered); never touches engine locks.
  ScoreResult ComputeScoreWithRetry(const ScoreKey& key,
                                    const std::shared_ptr<const Graph>& graph,
                                    const CancelToken& cancel,
                                    ResolveInfo* info);

  /// Records a scoring failure in the negative cache — unless the status
  /// is cancellation-shaped or an admission rejection, which say nothing
  /// about the key itself (the taxonomy split; such failures bump
  /// engine.negative_exempt instead). Precondition: score_mu_ held and
  /// negative caching enabled.
  void RememberFailureLocked(const ScoreKey& key, const Status& status);

  /// The incremental fast path for a cold key: walks the store's lineage
  /// records (bounded hops) for a warm ancestor entry of the same (method,
  /// options), diffs the ancestor's graph against `graph`, and patches
  /// scores + order (core/delta_rescore.h, zero global sorts).
  /// Returns nullptr when not applicable — no lineage, no warm ancestor,
  /// a non-incremental method or delta — and the caller runs the full
  /// rescore. Never blocks on other requests' work.
  std::shared_ptr<const CachedScore> TryDeltaRescore(
      const ScoreKey& key, const std::shared_ptr<const Graph>& graph,
      const CancelToken& cancel, ResolveInfo* info);

  /// What BuildResponse may do with the entry's lazily built sweep
  /// profile (CachedScore::profile). Every choice answers bit-identically.
  enum class ProfileUse {
    /// A cache hit: build the profile if the entry has none (once per
    /// entry), then read every kind off it.
    kBuild,
    /// The request whose resolve produced the entry (cold, delta or
    /// coalesced) or a degraded serve: TopK, TopShare, ScoreThreshold and
    /// CoveragePoint evaluate their one prefix alone unless the profile
    /// is held; Sweep and GrowUntilConnected build it.
    kPoint,
  };

  /// Response assembly from a resolved score. Never blocks on other
  /// requests' work; a concurrent first build of the same profile is
  /// waited for, not repeated.
  Result<BackboneResponse> BuildResponse(const BackboneRequest& request,
                                         const CachedScore& score,
                                         bool cache_hit, ProfileUse use);

  /// A warm cache entry along `key`'s lineage chain (the same walk the
  /// delta path uses), plus its fingerprint. entry == nullptr when none.
  struct WarmAncestor {
    std::shared_ptr<const CachedScore> entry;
    uint64_t fingerprint = 0;
    std::shared_ptr<const GraphDelta> delta;  ///< set when direct parent
  };
  WarmAncestor FindWarmAncestor(const ScoreKey& key);

  /// A degraded answer, flagged with its provenance, and the exact
  /// recompute queued: from a warm lineage ancestor's entry (never
  /// blocks), else, when `may_block`, from HSS scored on a seeded source
  /// sample (options_.degraded_hss_sample) under no deadline. nullopt
  /// when neither serves: the caller answers the original error.
  std::optional<Result<BackboneResponse>> TryDegraded(
      const BackboneRequest& request, const ScoreKey& key,
      const std::shared_ptr<const Graph>& graph, bool may_block);

  /// Queues a background exact recompute of `request`'s key (stripped of
  /// deadline/cancel/degradation) after a degraded serve. Dropped when
  /// the queue is full or shutting down — degradation never sheds client
  /// work to make room for its own refresh.
  void ScheduleBackgroundRefresh(const BackboneRequest& request);

  /// Batch execution against per-request deadlines armed by the caller
  /// (Execute/ExecuteBatch arm at call time, Submit at submit time).
  /// `queue_wait_ns` is the batch's time in the Submit queue (0 for
  /// synchronous paths) — the admission span of every request's trace.
  std::vector<Result<BackboneResponse>> ExecuteBatchWithDeadlines(
      std::span<const BackboneRequest> requests,
      std::span<const std::chrono::steady_clock::time_point> deadlines,
      int64_t queue_wait_ns);

  void DispatcherLoop();

  /// The entry reading `now` in tracer_ timebase when any
  /// instrumentation wants it (metrics or tracing), else 0 — the one
  /// branch the uninstrumented hot path pays. The tracer's epoch is
  /// armed even at sample rate 0, so its timebase is always valid.
  int64_t MetricsNs(std::chrono::steady_clock::time_point now) const {
    return options_.enable_metrics || tracer_.enabled() ? tracer_.ToNs(now)
                                                        : 0;
  }

  /// Which road ultimately answered, from the resolve bookkeeping.
  static obs::AnswerPath ClassifyPath(bool ok, bool degraded,
                                      const ResolveInfo& info);

  /// Terminal accounting for one request's final response: records the
  /// per-kind and per-path latency histograms (when enable_metrics) and
  /// commits a trace span chain (when this request sampled). Its one
  /// clock read ends the request and closes the extract span. `begin_ns`
  /// is the request's dispatch time in tracer_ timebase (0 when tracing
  /// off); `deadline` as armed (time_point::max() = none).
  void RecordOutcome(const BackboneRequest& request,
                     const Result<BackboneResponse>& response,
                     const ResolveInfo& info, int64_t begin_ns,
                     std::chrono::steady_clock::time_point deadline,
                     int64_t queue_wait_ns);

  /// Registers every engine metric (counters, gauges, per-kind/per-path
  /// histograms, cache/store/fault gauges) into registry_. Constructor
  /// only, before the dispatcher thread starts.
  void RegisterEngineMetrics();

  const Options options_;

  /// Declared before the caches and counters they reference: members are
  /// destroyed in reverse order, so the registry (non-owning pointers)
  /// outlives everything registered in it.
  mutable obs::MetricRegistry registry_;
  obs::TraceRecorder tracer_;

  GraphStore graphs_;
  ScoreCache cache_;

  /// Guards the cache-lookup + in-flight-registration window so exactly
  /// one computation per key can be live, plus the negative cache
  /// (mutable: the negative_entries gauge reads the entry count). On its
  /// own cache line, like the store's and the cache's mutexes: every
  /// request locks all three, and their offsets otherwise move with any
  /// member declared before them.
  alignas(64) mutable std::mutex score_mu_;
  std::unordered_map<ScoreKey, std::shared_future<ScoreResult>, ScoreKeyHash>
      inflight_;

  /// Remembered scoring failures, keyed like the positive cache. An entry
  /// answers only while its expiry is in the future (ClearNegativeCache
  /// empties the table outright); expired entries are dropped lazily on
  /// lookup and wholesale when the table hits its capacity bound.
  struct NegativeEntry {
    Status status;
    std::chrono::steady_clock::time_point expiry;
  };
  std::unordered_map<ScoreKey, NegativeEntry, ScoreKeyHash> negative_;

  /// Request-path counters: sharded relaxed-atomic (obs/metrics.h), so
  /// concurrent bumps never contend on a shared cache line. Exact; the
  /// registry reads these instances directly.
  obs::ShardedCounter requests_;           ///< requests executed (all kinds)
  obs::ShardedCounter scores_computed_;    ///< RunMethod invocations
  obs::ShardedCounter coalesced_waits_;    ///< joined an in-flight score
  obs::ShardedCounter submitted_batches_;  ///< Submit() calls accepted
  obs::ShardedCounter negative_hits_;  ///< failures answered from memory
  obs::ShardedCounter delta_rescores_;  ///< cold keys patched from ancestor
  obs::ShardedCounter delta_fallbacks_;  ///< warm ancestor, patch refused
  obs::ShardedCounter shed_batches_;      ///< failed by shed-oldest overflow
  obs::ShardedCounter rejected_batches_;  ///< failed by reject-new overflow
  obs::ShardedCounter inflight_rejected_;  ///< refused: max_inflight_scores
  obs::ShardedCounter deadline_hits_;  ///< exact path hit its deadline
  obs::ShardedCounter cancellations_;  ///< requests answered kCancelled
  obs::ShardedCounter retries_;        ///< transient-failure re-attempts
  obs::ShardedCounter negative_exempt_;  ///< failures never negative-cached
  obs::ShardedCounter degraded_served_;  ///< served by a degraded path
  obs::ShardedCounter background_refreshes_;  ///< queued by degradation
  obs::ShardedCounter snapshot_writes_;    ///< snapshots committed to disk
  obs::ShardedCounter snapshot_failures_;  ///< snapshot writes that failed

  /// Latency distributions (populated when Options::enable_metrics), one
  /// per (request kind, answer path) pair, so a request pays a single
  /// Record. Each is registered under its kind's name and under its
  /// path's name; the registry merges same-name histograms, which yields
  /// the per-kind and per-path views. A pair that never occurs (and the
  /// kUnknown path, which is never recorded) allocates no shards.
  std::array<obs::LatencyHistogram, kNumRequestKinds * obs::kNumAnswerPaths>
      outcome_latency_;
  static size_t OutcomeSlot(RequestKind kind, obs::AnswerPath path) {
    return static_cast<size_t>(kind) * obs::kNumAnswerPaths +
           static_cast<size_t>(path);
  }
  obs::LatencyHistogram queue_wait_ns_;      ///< Submit -> dispatch
  obs::LatencyHistogram batch_execute_ns_;   ///< batch dispatch -> done
  obs::LatencyHistogram snapshot_write_ns_;
  obs::LatencyHistogram snapshot_restore_ns_;

  /// Ids for sampled traces (bumped only when a request samples).
  std::atomic<uint64_t> trace_ids_{0};

  /// Set once by the constructor's restore attempt, before any other
  /// thread exists; plain fields on purpose.
  int64_t restored_graphs_ = 0;
  int64_t restored_entries_ = 0;
  int64_t restored_lineage_ = 0;
  int64_t quarantined_sections_ = 0;
  int64_t snapshot_restore_errors_ = 0;

  /// Engine-wide shutdown token, chained as a parent into every
  /// request's cancel token: the destructor fires it so in-flight
  /// scorings abort before ScoreCache / GraphStore are torn down.
  CancelSource lifetime_;

  struct PendingBatch {
    std::vector<BackboneRequest> requests;
    /// Per-request deadlines armed at Submit time (queueing delay counts
    /// against the budget); time_point::max() = none.
    std::vector<std::chrono::steady_clock::time_point> deadlines;
    std::promise<std::vector<Result<BackboneResponse>>> promise;
    /// When the batch entered the queue — the dispatcher turns this into
    /// the queue-wait histogram and the traces' admission span.
    std::chrono::steady_clock::time_point enqueued;
  };
  mutable std::mutex queue_mu_;  // mutable: a gauge reads queue depth
  std::condition_variable queue_cv_;
  std::deque<PendingBatch> queue_;
  /// True while the dispatcher runs a batch it popped (guarded by
  /// queue_mu_); with an empty queue_, false means idle.
  bool dispatching_ = false;
  /// Signalled when the dispatcher finishes a batch, for WaitIdle.
  std::condition_variable idle_cv_;
  bool shutdown_ = false;
  /// Sweep profiles built on demand (engine.profiles_built). Declared
  /// after every member the request path touches, so they keep their
  /// offsets: this 1 KiB counter declared among them moved perfbench's
  /// warm_hot p50 by ~3% even when nothing incremented it.
  obs::ShardedCounter profiles_built_;
  std::thread dispatcher_;
};

}  // namespace netbone

#endif  // NETBONE_SERVICE_ENGINE_H_
