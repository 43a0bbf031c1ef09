#include "service/engine.h"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <optional>
#include <unordered_map>
#include <utility>

#include "common/parallel.h"
#include "common/random.h"
#include "core/delta_rescore.h"
#include "core/filter.h"
#include "eval/stability.h"
#include "graph/delta.h"
#include "service/fault_injection.h"
#include "service/snapshot.h"

namespace netbone {
namespace {

using SteadyClock = std::chrono::steady_clock;

/// Retry backoff: attempt k sleeps ~kRetryBackoff * 2^k, capped at
/// kRetryBackoffMax, before its jitter.
constexpr std::chrono::milliseconds kRetryBackoff{1};
constexpr std::chrono::milliseconds kRetryBackoffMax{50};
/// Byte budget for the trace ring (rounded down to whole slots).
constexpr int64_t kTraceBufferBytes = int64_t{1} << 20;

/// time_point::max() encodes "no deadline" throughout the engine.
SteadyClock::time_point DeadlineFor(const BackboneRequest& request,
                                    SteadyClock::time_point now) {
  return request.timeout.count() > 0 ? now + request.timeout
                                     : SteadyClock::time_point::max();
}

std::vector<Result<BackboneResponse>> FailAll(size_t n,
                                              const Status& status) {
  std::vector<Result<BackboneResponse>> failed;
  failed.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    failed.push_back(Result<BackboneResponse>(status));
  }
  return failed;
}

/// Rejects a request whose retention share is not a finite number. The
/// share is clamped into [0, 1] downstream, but a NaN passes the clamp
/// and rounds to an edge budget of INT64_MIN, so it is refused before any
/// resolution — an argument error, never scored and never negative-cached.
Status ValidateShares(const BackboneRequest& request) {
  switch (request.kind) {
    case RequestKind::kTopShare:
    case RequestKind::kCoveragePoint:
    case RequestKind::kStabilityPoint:
      if (!std::isfinite(request.share)) {
        return Status::InvalidArgument("share must be a finite number");
      }
      break;
    case RequestKind::kSweep:
      for (const double share : request.shares) {
        if (!std::isfinite(share)) {
          return Status::InvalidArgument(
              "every sweep share must be a finite number");
        }
      }
      break;
    case RequestKind::kTopK:
    case RequestKind::kScoreThreshold:
    case RequestKind::kGrowUntilConnected:
      break;
  }
  return Status::OK();
}

/// Deterministic backoff jitter in [0.5, 1.0): a pure Mix64 hash of
/// (key, attempt), so a replayed workload backs off identically while
/// distinct keys retrying the same transient outage decorrelate.
double BackoffJitter(const ScoreKey& key, int attempt) {
  const uint64_t h =
      Mix64(ScoreKeyHash{}(key) ^ (static_cast<uint64_t>(attempt) + 1));
  return 0.5 + 0.5 * (static_cast<double>(h >> 11) * 0x1.0p-53);
}

/// Scope guard for one trace span: stamps start on entry and duration on
/// exit into the ResolveInfo fields the caller names. `on` is the
/// caller's info->timed — when false nothing is read or written, so the
/// untraced path pays one branch.
class SpanTimer {
 public:
  SpanTimer(const obs::TraceRecorder& tracer, bool on, int64_t* start_ns,
            int64_t* duration_ns)
      : tracer_(tracer), on_(on), start_(start_ns), duration_(duration_ns) {
    if (on_) *start_ = tracer_.NowNs();
  }
  ~SpanTimer() {
    if (on_) *duration_ = tracer_.NowNs() - *start_;
  }
  SpanTimer(const SpanTimer&) = delete;
  SpanTimer& operator=(const SpanTimer&) = delete;

 private:
  const obs::TraceRecorder& tracer_;
  const bool on_;
  int64_t* start_;
  int64_t* duration_;
};

}  // namespace

const char* RequestKindName(RequestKind kind) {
  switch (kind) {
    case RequestKind::kTopK:
      return "top_k";
    case RequestKind::kTopShare:
      return "top_share";
    case RequestKind::kScoreThreshold:
      return "score_threshold";
    case RequestKind::kGrowUntilConnected:
      return "grow_until_connected";
    case RequestKind::kSweep:
      return "sweep";
    case RequestKind::kCoveragePoint:
      return "coverage_point";
    case RequestKind::kStabilityPoint:
      return "stability_point";
  }
  return "unknown";
}

BackboneEngine::BackboneEngine(const Options& options)
    : options_(options),
      tracer_(options.trace_sample_rate, kTraceBufferBytes),
      graphs_(options.graph_byte_budget),
      cache_(options.cache_byte_budget) {
  cache_.set_metrics_timing(options_.enable_metrics);
  graphs_.set_metrics_timing(options_.enable_metrics);
  if (!options_.snapshot_dir.empty()) {
    // Restore before the dispatcher exists: the store and cache are
    // mutated single-threaded. A missing snapshot is the normal first
    // boot; a corrupted one salvages what it can (quarantine counters
    // below) and a hard failure — unreadable file, version skew — starts
    // cold and is counted, never thrown.
    std::error_code ec;
    std::filesystem::create_directories(options_.snapshot_dir, ec);
    obs::ScopedRecord timing(options_.enable_metrics, &snapshot_restore_ns_);
    Result<SnapshotRestoreReport> restored = RestoreSnapshot(
        SnapshotFilePath(options_.snapshot_dir), &graphs_, &cache_);
    if (restored.ok()) {
      restored_graphs_ = restored->graphs_restored;
      restored_entries_ = restored->entries_restored;
      restored_lineage_ = restored->lineage_restored;
      quarantined_sections_ = restored->sections_quarantined;
    } else if (!restored.status().IsNotFound()) {
      ++snapshot_restore_errors_;
    }
  }
  RegisterEngineMetrics();
  dispatcher_ = std::thread([this] { DispatcherLoop(); });
}

BackboneEngine::~BackboneEngine() {
  // Shutdown ordering: flag first, then fire the engine-wide cancel
  // token so in-flight scorings abort at their next chunk check, then
  // join the dispatcher — which *cancels* still-queued batches (their
  // futures resolve with kUnavailable; they are never executed against
  // caches about to be torn down). Only after the join do the members
  // (ScoreCache, GraphStore) destruct, in reverse declaration order.
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    shutdown_ = true;
  }
  lifetime_.Cancel();
  queue_cv_.notify_all();
  dispatcher_.join();
  // With the dispatcher drained and no API callers left (destruction
  // implies exclusive access), the state is quiescent: the shutdown
  // snapshot captures exactly what a restart will restore.
  if (options_.snapshot_on_shutdown && !options_.snapshot_dir.empty()) {
    // A failure here is already counted in snapshot_failures_; there is
    // no caller left to report it to.
    WriteSnapshotNow();
  }
}

Status BackboneEngine::WriteSnapshotNow() {
  if (options_.snapshot_dir.empty()) {
    return Status::FailedPrecondition("engine has no snapshot_dir");
  }
  obs::ScopedRecord timing(options_.enable_metrics, &snapshot_write_ns_);
  Result<SnapshotWriteStats> written = WriteSnapshot(
      SnapshotFilePath(options_.snapshot_dir), graphs_, cache_);
  if (!written.ok()) {
    snapshot_failures_.Increment();
    return written.status();
  }
  snapshot_writes_.Increment();
  return Status::OK();
}

uint64_t BackboneEngine::AddGraph(Graph graph) {
  return graphs_.Intern(std::move(graph)).fingerprint;
}

uint64_t BackboneEngine::AddGraphRevision(Graph graph,
                                          uint64_t base_fingerprint) {
  // The store diffs the revision against its base once, at submission,
  // and derives the child's fingerprint from the base's — request-time
  // patching then starts from precomputed difference lists. An
  // unresolvable or incomparable base just degrades to lineage-without-
  // delta (the request path re-diffs or falls back).
  StoredRevision revision =
      graphs_.InternRevision(std::move(graph), base_fingerprint);
  const StoredGraph& stored = revision.stored;
  std::shared_ptr<const GraphDelta> delta;
  if (revision.delta.ok()) {
    delta = std::make_shared<const GraphDelta>(*std::move(revision.delta));
  }
  // RegisterLineage ignores self-edges (a revision that dedupes to its
  // base) and zero fingerprints.
  cache_.RegisterLineage(stored.fingerprint, base_fingerprint,
                         std::move(delta));
  return stored.fingerprint;
}

std::shared_ptr<const Graph> BackboneEngine::FindGraph(
    uint64_t fingerprint) const {
  return graphs_.Find(fingerprint);
}

std::vector<uint64_t> BackboneEngine::ResidentFingerprints() const {
  std::vector<uint64_t> fingerprints;
  for (const StoredGraph& stored : graphs_.ResidentGraphs()) {
    fingerprints.push_back(stored.fingerprint);
  }
  return fingerprints;
}

void BackboneEngine::RememberFailureLocked(const ScoreKey& key,
                                           const Status& status) {
  // Failure taxonomy: cancellation-shaped statuses (deadline, explicit
  // cancel) and admission rejections describe the *caller's budget* or
  // the *engine's load*, not the key — the identical scoring may well
  // succeed for the next caller. Negative-caching them would poison the
  // key for every client behind one impatient request.
  if (status.IsCancellationShaped() || status.IsResourceExhausted()) {
    negative_exempt_.Increment();
    return;
  }
  // The table is bounded: negative keys are attacker/typo-shaped input,
  // so a hard cap beats unbounded growth. On overflow, sweep dead
  // entries; if every entry is live, drop the table — the cost is one
  // re-attempt per key, not correctness.
  constexpr size_t kMaxNegativeEntries = 4096;
  if (negative_.size() >= kMaxNegativeEntries) {
    const auto now = std::chrono::steady_clock::now();
    for (auto it = negative_.begin(); it != negative_.end();) {
      it = it->second.expiry <= now ? negative_.erase(it) : std::next(it);
    }
    if (negative_.size() >= kMaxNegativeEntries) negative_.clear();
  }
  negative_[key] = NegativeEntry{
      status, std::chrono::steady_clock::now() + options_.negative_ttl};
}

std::optional<BackboneEngine::ScoreResult> BackboneEngine::StartOrJoinScore(
    const ScoreKey& key, const std::shared_ptr<const Graph>& graph,
    ResolveInfo* info, std::shared_future<ScoreResult>* pending,
    const CancelToken& cancel) {
  info->cache_hit = false;
  const bool negative_enabled = options_.negative_ttl.count() > 0;
  std::promise<ScoreResult> promise;
  // The lookup span covers the whole cache + negative + in-flight
  // resolution window (including the lock wait); it is closed before any
  // of the block's returns and once more on the compute fall-through.
  // The first lookup starts at the request's (or batch's) entry reading
  // instead of a fresh one, so it covers the store lookup and pin too.
  if (info->timed) {
    info->lookup_start_ns = info->entry_ns >= 0
                                ? std::exchange(info->entry_ns, -1)
                                : tracer_.NowNs();
  }
  const auto end_lookup = [&] {
    if (info->timed) {
      info->lookup_ns = tracer_.NowNs() - info->lookup_start_ns;
    }
  };
  {
    std::unique_lock<std::mutex> lock(score_mu_);
    if (std::shared_ptr<const CachedScore> hit = cache_.Get(key)) {
      info->cache_hit = true;
      end_lookup();
      return ScoreResult(std::move(hit));
    }
    if (negative_enabled) {
      const auto it = negative_.find(key);
      if (it != negative_.end()) {
        if (std::chrono::steady_clock::now() < it->second.expiry) {
          negative_hits_.Increment();
          info->negative_hit = true;
          end_lookup();
          return ScoreResult(it->second.status);
        }
        negative_.erase(it);  // expired: re-attempt
      }
    }
    const auto it = inflight_.find(key);
    if (it != inflight_.end()) {
      // Someone is already scoring this key: share their result. The
      // future is handed back, never awaited here — waiting is caller-
      // context-only (header invariant), and this function also runs
      // inside ExecuteBatch's work-stealing tasks.
      *pending = it->second;
      end_lookup();
      return std::nullopt;
    }
    // Admission control: a cold scoring past the in-flight bound is
    // refused before registration (warm hits, negative hits and joins
    // above are untouched — the bound prices *computations*, not
    // requests). Never negative-cached: the key is fine, the engine is
    // busy.
    if (options_.max_inflight_scores > 0 &&
        static_cast<int64_t>(inflight_.size()) >=
            options_.max_inflight_scores) {
      inflight_rejected_.Increment();
      end_lookup();
      return ScoreResult(
          Status::ResourceExhausted("in-flight scoring limit reached"));
    }
    inflight_.emplace(key, promise.get_future().share());
  }
  end_lookup();

  // The caller holds the store pin for this graph (taken at resolve time,
  // before any fan-out, so the byte budget cannot evict the fingerprint
  // between resolution and this scoring). Three roads, cheapest first:
  // the positive cache answered above; a warm ancestor patch; the full
  // (retrying) rescore.
  ScoreResult result = [&]() -> ScoreResult {
    if (Status budget = cancel.Check(); !budget.ok()) {
      return ScoreResult(budget);
    }
    if (options_.enable_delta_rescore) {
      if (std::shared_ptr<const CachedScore> patched =
              TryDeltaRescore(key, graph, cancel, info)) {
        info->delta_patched = true;
        return ScoreResult(std::move(patched));
      }
    }
    return ComputeScoreWithRetry(key, graph, cancel, info);
  }();
  {
    std::lock_guard<std::mutex> lock(score_mu_);
    if (result.ok()) {
      cache_.Put(key, *result);
    } else if (negative_enabled) {
      // The error is shared with current waiters AND remembered: repeated
      // requests on a bad key are answered from the negative cache until
      // the TTL lapses or the generation is cleared. (Cancellation-shaped
      // failures are exempted inside — see the taxonomy note there.)
      RememberFailureLocked(key, result.status());
    }
    inflight_.erase(key);
  }
  promise.set_value(result);
  return result;
}

BackboneEngine::ScoreResult BackboneEngine::ComputeScoreWithRetry(
    const ScoreKey& key, const std::shared_ptr<const Graph>& graph,
    const CancelToken& cancel, ResolveInfo* info) {
  // The cold-score span covers the whole retry loop: injected latency,
  // backoff sleeps and re-attempts are all time this key spent scoring.
  SpanTimer span(tracer_, info->timed, &info->score_start_ns,
                 &info->score_ns);
  RunMethodOptions run;
  run.num_threads = options_.num_threads;
  run.hss_max_cost = key.options.hss_max_cost;
  run.hss_source_sample_size = key.options.hss_source_sample_size;
  run.hss_sample_seed = key.options.hss_sample_seed;
  run.cancel = cancel;
  for (int attempt = 0;; ++attempt) {
    // Injected latency models a slow scoring backend. The sleep honours
    // the request budget (InterruptibleSleep), so a stalled scoring
    // still returns within deadline + one slice instead of serving the
    // full stall.
    if (FaultInjector* injector = ActiveFaultInjector();
        injector != nullptr &&
        injector->Draw(FaultSite::kScoringLatency)) {
      Status slept = InterruptibleSleep(
          injector->latency(FaultSite::kScoringLatency), cancel);
      if (!slept.ok()) return ScoreResult(slept);
    }
    if (Status budget = cancel.Check(); !budget.ok()) {
      return ScoreResult(budget);
    }
    ScoreResult result = [&]() -> ScoreResult {
      // The failure site sits *inside* the retry loop so a retried
      // attempt draws independently — chaos runs exercise the recovery
      // path, not just the failure.
      if (InjectFault(FaultSite::kScoringFailure)) {
        return ScoreResult(
            Status::Unavailable("injected scoring failure"));
      }
      scores_computed_.Increment();
      Result<ScoredEdges> scored = RunMethod(key.method, *graph, run);
      if (!scored.ok()) return ScoreResult(scored.status());
      return ScoreResult(CachedScore::Build(graph, std::move(*scored),
                                            options_.num_threads));
    }();
    if (result.ok() || !result.status().IsTransient() ||
        attempt >= options_.max_retries) {
      return result;
    }
    retries_.Increment();
    ++info->retries;
    // Exponential backoff with deterministic jitter; the sleep never
    // outlives the budget (a lapsed deadline surfaces as the sleep's
    // status, typed, not as a burned core).
    const int shift = std::min(attempt, 10);
    auto delay = std::chrono::nanoseconds(kRetryBackoff) *
                 (int64_t{1} << shift);
    delay = std::min(delay, std::chrono::nanoseconds(kRetryBackoffMax));
    delay = std::chrono::nanoseconds(static_cast<int64_t>(
        static_cast<double>(delay.count()) * BackoffJitter(key, attempt)));
    if (delay.count() > 0) {
      Status slept = InterruptibleSleep(delay, cancel);
      if (!slept.ok()) return ScoreResult(slept);
    }
  }
}

BackboneEngine::WarmAncestor BackboneEngine::FindWarmAncestor(
    const ScoreKey& key) {
  // Walk the lineage chain for the nearest warm ancestor entry of this
  // (method, options). Bounded hops guard against cycles a client could
  // register; the probe uses Peek so ancestor lookups don't distort the
  // request-facing hit rate. When the warm ancestor is the direct parent,
  // the submission-time delta is already on the lineage record; a deeper
  // ancestor has none (the delta path re-diffs).
  constexpr int kMaxLineageHops = 8;
  WarmAncestor found;
  uint64_t fingerprint = key.graph;
  for (int hop = 0; hop < kMaxLineageHops; ++hop) {
    ScoreCache::Lineage lineage = cache_.LineageFor(fingerprint);
    if (lineage.parent == 0 || lineage.parent == key.graph) break;
    if (std::shared_ptr<const CachedScore> entry = cache_.Peek(
            MakeScoreKey(lineage.parent, key.method, key.options))) {
      found.entry = std::move(entry);
      found.fingerprint = lineage.parent;
      if (fingerprint == key.graph) found.delta = std::move(lineage.delta);
      break;
    }
    fingerprint = lineage.parent;
  }
  return found;
}

std::shared_ptr<const CachedScore> BackboneEngine::TryDeltaRescore(
    const ScoreKey& key, const std::shared_ptr<const Graph>& graph,
    const CancelToken& cancel, ResolveInfo* info) {
  if (!SupportsDeltaRescore(key.method)) return nullptr;

  WarmAncestor ancestor = [&] {
    SpanTimer span(tracer_, info->timed, &info->lineage_start_ns,
                   &info->lineage_ns);
    return FindWarmAncestor(key);
  }();
  if (ancestor.entry == nullptr) return nullptr;
  const std::shared_ptr<const CachedScore>& base = ancestor.entry;
  const uint64_t base_fingerprint = ancestor.fingerprint;

  // From here on a warm ancestor exists: any bail-out is a fallback the
  // metrics should show. The ancestor graph comes from the entry's own
  // handle, so a GraphStore eviction of the ancestor cannot break the
  // diff. The patch span covers diff + rescore + merge, including
  // attempts that end in a fallback.
  SpanTimer span(tracer_, info->timed, &info->patch_start_ns,
                 &info->patch_ns);
  std::optional<GraphDelta> computed;
  if (ancestor.delta == nullptr) {
    Result<GraphDelta> diff = ComputeGraphDelta(base->graph(), *graph);
    if (!diff.ok()) {
      delta_fallbacks_.Increment();
      return nullptr;
    }
    computed = *std::move(diff);
  }
  const GraphDelta& delta =
      ancestor.delta != nullptr ? *ancestor.delta : *computed;
  // A weight-only delta leaves the edge set alone: the child's columns are
  // the ancestor's with the changed entries re-read, and its connectivity
  // is the ancestor's, so none of its profile walks repeats a union-find
  // the ancestor already settled.
  graph->InheritEdgeFacts(base->graph(), delta);
  DeltaRescoreOptions rescore_options;
  rescore_options.num_threads = options_.num_threads;
  rescore_options.grain = options_.delta_grain;
  rescore_options.cancel = cancel;
  Result<std::optional<DeltaRescoreResult>> rescored = DeltaRescore(
      key.method, base->scored(), *graph, delta, rescore_options);
  if (!rescored.ok() || !rescored->has_value()) {
    // A rescoring *error* also falls back: the full path reproduces the
    // canonical error and feeds the negative cache as usual. A lapsed
    // budget mid-patch is not a patch shortcoming, so it skips the
    // fallback counter (the full path returns the typed status at its
    // own pre-flight check).
    if (rescored.ok() || !rescored.status().IsCancellationShaped()) {
      delta_fallbacks_.Increment();
    }
    return nullptr;
  }
  DeltaRescoreResult& patch = **rescored;
  delta_rescores_.Increment();
  return CachedScore::BuildPatched(
      graph,
      ScoredEdges(graph.get(), base->scored().method(),
                  std::move(patch.scores), base->scored().has_sdev()),
      *base, patch.base_to_next, patch.dirty, base_fingerprint,
      options_.num_threads);
}

BackboneEngine::ScoreResult BackboneEngine::GetOrComputeScore(
    const ScoreKey& key, const std::shared_ptr<const Graph>& graph,
    ResolveInfo* info, const CancelToken& cancel,
    std::shared_future<ScoreResult> joined) {
  // Bounded resolve loop: round k re-enters when round k-1's shared
  // computation died of a *foreign* budget (the starter's deadline, not
  // ours) — on re-entry this caller may become the starter. Bounded so a
  // pathological storm of dying starters cannot spin forever.
  constexpr int kMaxResolveRounds = 4;
  ScoreResult last = ScoreResult(Status::Cancelled("operation cancelled"));
  for (int round = 0; round < kMaxResolveRounds; ++round) {
    // Round 0 awaits the caller's `joined` computation when it has one;
    // the move leaves `joined` empty for every later round.
    std::shared_future<ScoreResult> pending = std::move(joined);
    std::optional<ScoreResult> result;
    if (!pending.valid()) {
      result = StartOrJoinScore(key, graph, info, &pending, cancel);
    }
    if (!result.has_value()) {
      coalesced_waits_.Increment();
      if (cancel.CanExpire()) {
        // Joiners wait with their *own* budget: the shared computation
        // keeps running for everyone else when this caller gives up.
        constexpr auto kJoinSlice = std::chrono::milliseconds(1);
        while (pending.wait_for(kJoinSlice) !=
               std::future_status::ready) {
          if (Status budget = cancel.Check(); !budget.ok()) {
            return ScoreResult(budget);
          }
        }
      }
      result = pending.get();  // caller context: safe to block
    }
    if (result->ok()) return *std::move(result);
    const Status& status = result->status();
    if (status.IsCancellationShaped() && cancel.Check().ok()) {
      last = *std::move(result);
      continue;  // foreign cancellation; our budget is still live
    }
    return *std::move(result);
  }
  return last;
}

bool BackboneEngine::CountFailureMayDegrade(const BackboneRequest& request,
                                            const Status& status) {
  if (status.IsDeadlineExceeded()) {
    deadline_hits_.Increment();
  } else if (status.IsCancelled()) {
    cancellations_.Increment();
  }
  return request.allow_degraded &&
         (status.IsCancellationShaped() || status.IsTransient() ||
          status.IsResourceExhausted());
}

void BackboneEngine::ClearNegativeCache() {
  std::lock_guard<std::mutex> lock(score_mu_);
  negative_.clear();
}

Result<BackboneResponse> BackboneEngine::BuildResponse(
    const BackboneRequest& request, const CachedScore& score, bool cache_hit,
    ProfileUse use) {
  const ScoreOrder& order = score.order();
  BackboneResponse response;
  response.cache_hit = cache_hit;

  // The sweep profile, built at most once per entry (the build is
  // counted).
  const auto profile = [&]() -> const SweepProfile& {
    if (const SweepProfile* held = score.built_profile()) return *held;
    bool built = false;
    const SweepProfile& fresh = score.profile(&built);
    if (built) profiles_built_.Increment();
    return fresh;
  };
  // One prefix: read off the profile when this request may build it or
  // the entry holds it, else evaluated alone — bit-identical either way.
  const auto point = [&](int64_t k) -> PrefixPoint {
    const SweepProfile* held =
        use == ProfileUse::kBuild ? &profile() : score.built_profile();
    if (held == nullptr) return EvaluatePrefix(order, k);
    return PrefixPoint{held->CoverageAt(k), held->WeightShareAt(k),
                       held->target_nodes};
  };
  const auto fill_extraction = [&](int64_t k) {
    // PrefixIds clamps the same way, so `kept` needs no edge list; the
    // O(k + |E|/64) bitmap walk only runs when the caller wants one.
    const int64_t kept = std::clamp<int64_t>(k, 0, order.size());
    const PrefixPoint at = point(kept);
    response.kept = kept;
    if (at.target_nodes > 0) response.coverage = at.coverage;
    response.weight_share = at.weight_share;
    if (request.include_edges) {
      response.kept_edges = order.PrefixIds(k);
    }
  };

  switch (request.kind) {
    case RequestKind::kTopK:
      fill_extraction(request.k);
      break;
    case RequestKind::kTopShare:
      fill_extraction(order.KForShare(request.share));
      break;
    case RequestKind::kScoreThreshold:
      // The order is score-descending, so the edges strictly above the
      // threshold are exactly the first CountAbove ranks — the same set
      // FilterByScore keeps.
      fill_extraction(order.CountAbove(request.threshold));
      break;
    case RequestKind::kGrowUntilConnected:
      fill_extraction(profile().connect_k);
      break;
    case RequestKind::kSweep: {
      const SweepProfile& held = profile();
      if (held.target_nodes <= 0) {
        return Status::FailedPrecondition(
            "graph has no connected node to cover");
      }
      response.sweep.reserve(request.shares.size());
      for (const double share : request.shares) {
        const int64_t k = order.KForShare(share);
        response.sweep.push_back(
            SweepPoint{k, held.CoverageAt(k), held.WeightShareAt(k)});
      }
      response.connect_k = held.connect_k;
      break;
    }
    case RequestKind::kCoveragePoint: {
      const int64_t k = order.KForShare(request.share);
      const PrefixPoint at = point(k);
      if (at.target_nodes <= 0) {
        return Status::FailedPrecondition(
            "graph has no connected node to cover");
      }
      response.kept = k;
      response.coverage = at.coverage;
      response.weight_share = at.weight_share;
      break;
    }
    case RequestKind::kStabilityPoint: {
      const std::shared_ptr<const Graph> next =
          graphs_.Find(request.next_graph);
      if (next == nullptr) {
        return Status::NotFound("unknown next_graph fingerprint");
      }
      if (next->num_nodes() != score.graph().num_nodes()) {
        return Status::InvalidArgument(
            "stability snapshots must share the node universe");
      }
      const BackboneMask mask =
          order.PrefixMask(order.KForShare(request.share));
      const Result<double> stability =
          Stability(score.graph(), *next, mask);
      if (!stability.ok()) return stability.status();
      response.stability = *stability;
      response.kept = mask.kept;
      break;
    }
  }
  return response;
}

Status BackboneEngine::Admit(const BackboneRequest& request,
                             SteadyClock::time_point deadline,
                             SteadyClock::time_point now,
                             std::shared_ptr<const Graph>* graph) {
  // Only a batched request can arrive expired: Execute arms at `now`.
  if (deadline <= now) {
    deadline_hits_.Increment();
    return Status::DeadlineExceeded(
        "deadline expired before batch execution");
  }
  if (Status invalid = ValidateShares(request); !invalid.ok()) return invalid;
  *graph = graphs_.Find(request.graph);
  return *graph != nullptr
             ? Status::OK()
             : Status::NotFound("unknown graph fingerprint (AddGraph first)");
}

BackboneEngine::ScoreResult BackboneEngine::ResolvePinned(
    const ScoreKey& key, const std::shared_ptr<const Graph>& graph,
    ResolveInfo* info, const CancelToken& cancel) {
  // Pinned from resolve through scoring: the store's byte budget must not
  // evict a graph a request is actively using (the shared_ptr keeps the
  // memory alive regardless — the pin keeps the *fingerprint* resolvable
  // for the requests that will want the cached score next).
  graphs_.Pin(key.graph);
  ScoreResult score = GetOrComputeScore(key, graph, info, cancel);
  graphs_.Unpin(key.graph);
  return score;
}

Result<BackboneResponse> BackboneEngine::Answer(
    const BackboneRequest& request, const ScoreKey& key,
    const std::shared_ptr<const Graph>& graph, const ScoreResult& score,
    ResolveInfo* info, bool may_block) {
  if (!score.ok()) {
    const Status& status = score.status();
    // Nothing is served degraded once shutdown has begun.
    if (CountFailureMayDegrade(request, status) &&
        !lifetime_.CancellationRequested()) {
      if (std::optional<Result<BackboneResponse>> degraded =
              TryDegraded(request, key, graph, may_block)) {
        return *std::move(degraded);
      }
    }
    return status;
  }
  // Execute's warm hit starts its extract span at the lookup's end
  // reading; the outcome's end reading closes it.
  if (info->timed) {
    info->extract_start_ns = may_block && info->cache_hit
                                 ? info->lookup_start_ns + info->lookup_ns
                                 : tracer_.NowNs();
  }
  return BuildResponse(request, **score, info->cache_hit,
                       info->cache_hit ? ProfileUse::kBuild
                                       : ProfileUse::kPoint);
}

Result<BackboneResponse> BackboneEngine::Execute(
    const BackboneRequest& request) {
  requests_.Increment();
  // The one clock read at entry: the deadline base, begin_ns, and the
  // start of a traced request's cache_lookup span.
  const SteadyClock::time_point entry = SteadyClock::now();
  const SteadyClock::time_point deadline = DeadlineFor(request, entry);
  const int64_t begin_ns = MetricsNs(entry);
  ResolveInfo info;
  info.timed = tracer_.enabled();
  if (info.timed) info.entry_ns = begin_ns;
  Result<BackboneResponse> response = [&]() -> Result<BackboneResponse> {
    std::shared_ptr<const Graph> graph;
    Status admitted = Admit(request, deadline, entry, &graph);
    if (!admitted.ok()) return admitted;
    // One token carries all three reasons this request may stop: its
    // deadline (armed here), the caller's explicit cancel, and engine
    // shutdown.
    CancelSource source(deadline, request.cancel, lifetime_.token());
    const ScoreKey key =
        MakeScoreKey(request.graph, request.method, request.score_options);
    const ScoreResult score =
        ResolvePinned(key, graph, &info, source.token());
    return Answer(request, key, graph, score, &info, /*may_block=*/true);
  }();
  RecordOutcome(request, response, info, begin_ns, deadline,
                /*queue_wait_ns=*/0);
  return response;
}

std::optional<Result<BackboneResponse>> BackboneEngine::TryDegraded(
    const BackboneRequest& request, const ScoreKey& key,
    const std::shared_ptr<const Graph>& graph, bool may_block) {
  // nullopt when the assembly itself fails.
  const auto serve = [&](const CachedScore& score, bool cache_hit,
                         ProfileUse use, uint64_t from)
      -> std::optional<Result<BackboneResponse>> {
    Result<BackboneResponse> response =
        BuildResponse(request, score, cache_hit, use);
    if (!response.ok()) return std::nullopt;
    response->degraded = true;
    response->degraded_from = from;
    degraded_served_.Increment();
    ScheduleBackgroundRefresh(request);
    return response;
  };
  // A warm ancestor entry is a *stale but exact* answer: computed on the
  // previous noisy observation of the same network, bit-identical to
  // what that snapshot's own requests were served.
  if (WarmAncestor ancestor = FindWarmAncestor(key);
      ancestor.entry != nullptr) {
    if (std::optional<Result<BackboneResponse>> stale =
            serve(*ancestor.entry, /*cache_hit=*/true, ProfileUse::kPoint,
                  ancestor.fingerprint)) {
      return stale;
    }
  }
  // HSS may block on a seeded source sample, when that shrinks the work:
  // an exact request, or a sampled one coarser than the fallback sample.
  const int64_t requested = request.score_options.hss_source_sample_size;
  if (!may_block || request.method != Method::kHighSalienceSkeleton ||
      options_.degraded_hss_sample <= 0 ||
      (requested > 0 && requested <= options_.degraded_hss_sample)) {
    return std::nullopt;
  }
  ScoreOptions sampled = request.score_options;
  sampled.hss_source_sample_size = options_.degraded_hss_sample;
  // The sampled run is bounded by construction (k sources, not |V|), so
  // it runs without the lapsed deadline — only engine shutdown can stop
  // it. It caches under its canonical sampled key: repeat degradations
  // on the same graph are warm.
  ResolveInfo sampled_info;
  const ScoreResult score =
      ResolvePinned(MakeScoreKey(request.graph, request.method, sampled),
                    graph, &sampled_info, lifetime_.token());
  if (!score.ok()) return std::nullopt;
  return serve(**score, sampled_info.cache_hit,
               sampled_info.cache_hit ? ProfileUse::kBuild
                                      : ProfileUse::kPoint,
               request.graph);
}

void BackboneEngine::ScheduleBackgroundRefresh(
    const BackboneRequest& request) {
  BackboneRequest exact = request;
  exact.timeout = std::chrono::milliseconds(0);
  exact.cancel = CancelToken();
  exact.allow_degraded = false;
  exact.include_edges = false;  // the point is warming the score cache
  PendingBatch batch;
  batch.requests.push_back(std::move(exact));
  batch.deadlines.push_back(SteadyClock::time_point::max());
  batch.enqueued = SteadyClock::now();
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    // Refreshes never displace client work: full queue (or shutdown)
    // just drops the refresh — the next degraded serve re-queues it.
    if (shutdown_) return;
    if (options_.max_queued_batches > 0 &&
        static_cast<int64_t>(queue_.size()) >= options_.max_queued_batches) {
      return;
    }
    queue_.push_back(std::move(batch));
    background_refreshes_.Increment();
  }
  queue_cv_.notify_one();
}

std::vector<Result<BackboneResponse>> BackboneEngine::ExecuteBatch(
    std::span<const BackboneRequest> requests) {
  const SteadyClock::time_point now = SteadyClock::now();
  std::vector<SteadyClock::time_point> deadlines;
  deadlines.reserve(requests.size());
  for (const BackboneRequest& request : requests) {
    deadlines.push_back(DeadlineFor(request, now));
  }
  return ExecuteBatchWithDeadlines(requests, deadlines,
                                   /*queue_wait_ns=*/0);
}

std::vector<Result<BackboneResponse>>
BackboneEngine::ExecuteBatchWithDeadlines(
    std::span<const BackboneRequest> requests,
    std::span<const SteadyClock::time_point> deadlines,
    int64_t queue_wait_ns) {
  const int64_t n = static_cast<int64_t>(requests.size());
  requests_.Add(n);
  obs::ScopedRecord batch_timing(options_.enable_metrics,
                                 &batch_execute_ns_);
  const SteadyClock::time_point entry_now = SteadyClock::now();
  const int64_t begin_ns = MetricsNs(entry_now);

  // Admit every request and collapse the admitted ones onto their
  // distinct score keys (first-appearance order, so the scoring order is
  // deterministic). A refused request is pre-answered and never touches
  // scoring — an expired batch costs O(n), not O(scoring).
  struct Admitted {
    Status rejected;  // non-OK = pre-answered with this status
    size_t key_slot = 0;
  };
  struct KeySlot {
    ScoreKey key;
    std::shared_ptr<const Graph> graph;
    // The scoring budget: the *latest* member deadline — the key keeps
    // computing as long as any request still wants it.
    SteadyClock::time_point deadline;
    std::unique_ptr<CancelSource> source;
    ResolveInfo info;
    std::optional<ScoreResult> score;
    std::shared_future<ScoreResult> pending;
  };
  std::vector<Admitted> admitted(static_cast<size_t>(n));
  std::vector<KeySlot> keys;
  std::unordered_map<ScoreKey, size_t, ScoreKeyHash> key_slots;
  for (size_t i = 0; i < admitted.size(); ++i) {
    const BackboneRequest& request = requests[i];
    std::shared_ptr<const Graph> graph;
    admitted[i].rejected = Admit(request, deadlines[i], entry_now, &graph);
    if (!admitted[i].rejected.ok()) continue;
    const ScoreKey key =
        MakeScoreKey(request.graph, request.method, request.score_options);
    const auto [it, inserted] = key_slots.try_emplace(key, keys.size());
    if (inserted) {
      KeySlot& slot = keys.emplace_back();
      slot.key = key;
      slot.graph = std::move(graph);
      slot.deadline = deadlines[i];
    } else {
      keys[it->second].deadline =
          std::max(keys[it->second].deadline, deadlines[i]);
    }
    admitted[i].key_slot = it->second;
  }

  // Per key: one cancel source (latest member deadline, chained under
  // engine shutdown; per-request cancel tokens are not folded in — a
  // shared computation must not die because one sibling lost interest,
  // they gate that sibling's own answer in phase 2 instead); a lookup
  // span that starts at the batch's entry reading, as Execute's starts at
  // its own; and a store pin held through phase 1, so the byte budget
  // cannot evict a fingerprint between this resolution and its scoring.
  for (KeySlot& slot : keys) {
    slot.source = std::make_unique<CancelSource>(
        slot.deadline, CancelToken(), lifetime_.token());
    slot.info.timed = tracer_.enabled();
    if (slot.info.timed) slot.info.entry_ns = begin_ns;
    graphs_.Pin(slot.key.graph);
  }

  // Phase 1: resolve every distinct score once, concurrently, so a batch
  // of cold keys overlaps their scorings. The tasks only start or join
  // (the header's deadlock-freedom invariant): a key in flight elsewhere
  // hands its future back for the caller to await after the fan-out.
  ParallelForDynamic(
      static_cast<int64_t>(keys.size()), /*grain=*/1, options_.num_threads,
      [&](int64_t begin, int64_t end) {
        for (int64_t s = begin; s < end; ++s) {
          KeySlot& slot = keys[static_cast<size_t>(s)];
          slot.score = StartOrJoinScore(slot.key, slot.graph, &slot.info,
                                        &slot.pending, slot.source->token());
        }
      });
  for (KeySlot& slot : keys) {
    if (!slot.score.has_value()) {
      // Coalesced with a foreign computation: the resolve loop awaits it
      // as its first round, under this key's own budget.
      slot.score = GetOrComputeScore(slot.key, slot.graph, &slot.info,
                                     slot.source->token(),
                                     std::move(slot.pending));
    }
  }
  for (const KeySlot& slot : keys) graphs_.Unpin(slot.key.graph);

  // Phase 2: per-request answers on the pool, each slot written by one
  // chunk. A request whose own deadline lapsed mid-batch still receives
  // its key's result when a sibling's longer budget finished the scoring.
  std::vector<std::optional<Result<BackboneResponse>>> out(
      static_cast<size_t>(n));
  ParallelFor(
      n, options_.num_threads,
      [&](int64_t begin, int64_t end, int /*chunk*/) {
        for (size_t slot = static_cast<size_t>(begin);
             slot < static_cast<size_t>(end); ++slot) {
          const Admitted& a = admitted[slot];
          const BackboneRequest& request = requests[slot];
          // A pre-answered request carries an empty ResolveInfo; an
          // answered one copies its key's shared info, so the
          // per-request extract span lands in a private copy.
          ResolveInfo info;
          info.timed = tracer_.enabled();
          Result<BackboneResponse> response =
              [&]() -> Result<BackboneResponse> {
            if (!a.rejected.ok()) return a.rejected;
            if (!request.cancel.IsNull() && !request.cancel.Check().ok()) {
              cancellations_.Increment();
              return request.cancel.Check();
            }
            const KeySlot& key = keys[a.key_slot];
            info = key.info;
            return Answer(request, key.key, key.graph, *key.score, &info,
                          /*may_block=*/false);
          }();
          RecordOutcome(request, response, info, begin_ns, deadlines[slot],
                        queue_wait_ns);
          out[slot] = std::move(response);
        }
      });

  std::vector<Result<BackboneResponse>> results;
  results.reserve(static_cast<size_t>(n));
  for (auto& slot : out) results.push_back(std::move(*slot));
  return results;
}

std::future<std::vector<Result<BackboneResponse>>> BackboneEngine::Submit(
    std::vector<BackboneRequest> requests) {
  // Deadlines arm at submit time, so queueing delay counts against the
  // request budget — an async client's patience starts when it hands the
  // batch over, not when the dispatcher gets around to it.
  const SteadyClock::time_point now = SteadyClock::now();
  PendingBatch batch;
  batch.enqueued = now;
  batch.deadlines.reserve(requests.size());
  for (const BackboneRequest& request : requests) {
    batch.deadlines.push_back(DeadlineFor(request, now));
  }
  batch.requests = std::move(requests);
  std::future<std::vector<Result<BackboneResponse>>> future =
      batch.promise.get_future();
  std::optional<PendingBatch> shed;
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    if (shutdown_) {
      batch.promise.set_value(
          FailAll(batch.requests.size(),
                  Status::Unavailable("engine is shutting down")));
      return future;
    }
    // Admission control: a bounded queue answers overload with a typed
    // refusal instead of unbounded memory growth.
    if (options_.max_queued_batches > 0 &&
        static_cast<int64_t>(queue_.size()) >=
            options_.max_queued_batches) {
      if (options_.overload_policy == OverloadPolicy::kRejectNew) {
        rejected_batches_.Increment();
        batch.promise.set_value(
            FailAll(batch.requests.size(),
                    Status::ResourceExhausted("submit queue is full")));
        return future;
      }
      shed = std::move(queue_.front());
      queue_.pop_front();
      shed_batches_.Increment();
    }
    queue_.push_back(std::move(batch));
    submitted_batches_.Increment();
  }
  if (shed.has_value()) {
    // Resolved outside the lock: a waiter on the shed future may react
    // by submitting again, which takes queue_mu_.
    shed->promise.set_value(
        FailAll(shed->requests.size(),
                Status::Unavailable("shed by overload policy")));
  }
  queue_cv_.notify_one();
  return future;
}

void BackboneEngine::DispatcherLoop() {
  std::unique_lock<std::mutex> lock(queue_mu_);
  // Periodic background snapshots ride the dispatcher thread: it already
  // exists, already wakes for work, and a snapshot between batches can
  // never run concurrently with one from the destructor. Snapshots are
  // maintenance — no request deadline applies to them.
  const bool periodic = options_.snapshot_interval.count() > 0 &&
                        !options_.snapshot_dir.empty();
  auto next_snapshot = periodic
                           ? SteadyClock::now() + options_.snapshot_interval
                           : SteadyClock::time_point::max();
  for (;;) {
    if (periodic) {
      queue_cv_.wait_until(lock, next_snapshot, [this] {
        return shutdown_ || !queue_.empty();
      });
    } else {
      queue_cv_.wait(lock, [this] { return shutdown_ || !queue_.empty(); });
    }
    if (shutdown_) break;
    if (periodic && SteadyClock::now() >= next_snapshot) {
      lock.unlock();
      WriteSnapshotNow();  // failures counted in snapshot_failures_
      lock.lock();
      next_snapshot = SteadyClock::now() + options_.snapshot_interval;
    }
    if (queue_.empty()) continue;
    PendingBatch batch = std::move(queue_.front());
    queue_.pop_front();
    dispatching_ = true;
    lock.unlock();
    // Fault-injection site: a stalled dispatcher. The stall is bounded
    // by engine shutdown (lifetime token), never by request deadlines —
    // the point is to let queued requests' budgets burn.
    if (FaultInjector* injector = ActiveFaultInjector();
        injector != nullptr &&
        injector->Draw(FaultSite::kDispatcherStall)) {
      InterruptibleSleep(injector->latency(FaultSite::kDispatcherStall),
                         lifetime_.token());
    }
    // Queue wait includes any injected stall above — from the client's
    // side both are time the batch sat between Submit and execution.
    const int64_t queue_wait_ns =
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            SteadyClock::now() - batch.enqueued)
            .count();
    if (options_.enable_metrics) queue_wait_ns_.Record(queue_wait_ns);
    batch.promise.set_value(ExecuteBatchWithDeadlines(
        batch.requests, batch.deadlines, queue_wait_ns));
    lock.lock();
    dispatching_ = false;
    idle_cv_.notify_all();
  }
  // Shutdown: queued batches are *cancelled*, not executed — their
  // futures resolve immediately with a typed status instead of racing
  // the destructor's cache teardown. (lock is held here.)
  while (!queue_.empty()) {
    PendingBatch batch = std::move(queue_.front());
    queue_.pop_front();
    batch.promise.set_value(FailAll(
        batch.requests.size(),
        Status::Unavailable("engine is shutting down")));
  }
  idle_cv_.notify_all();
}

void BackboneEngine::WaitIdle() {
  std::unique_lock<std::mutex> lock(queue_mu_);
  idle_cv_.wait(lock, [this] {
    return shutdown_ || (queue_.empty() && !dispatching_);
  });
}

obs::AnswerPath BackboneEngine::ClassifyPath(bool ok, bool degraded,
                                             const ResolveInfo& info) {
  // Precedence mirrors how the answer was actually produced: a degraded
  // serve overrides everything (the exact path already failed), then
  // failures split on whether the negative cache answered. A coalesced
  // joiner without its own cache hit classifies as cold — it paid (a
  // share of) a fresh computation's latency, which is what the per-path
  // histogram prices.
  if (degraded) return obs::AnswerPath::kDegraded;
  if (!ok) {
    return info.negative_hit ? obs::AnswerPath::kNegative
                             : obs::AnswerPath::kFailed;
  }
  if (info.cache_hit) return obs::AnswerPath::kWarm;
  if (info.delta_patched) return obs::AnswerPath::kDelta;
  return obs::AnswerPath::kCold;
}

void BackboneEngine::RecordOutcome(const BackboneRequest& request,
                                   const Result<BackboneResponse>& response,
                                   const ResolveInfo& info, int64_t begin_ns,
                                   SteadyClock::time_point deadline,
                                   int64_t queue_wait_ns) {
  const bool metrics = options_.enable_metrics;
  const bool tracing = tracer_.enabled();
  if (!metrics && !tracing) return;
  const bool ok = response.ok();
  const bool degraded = ok && response->degraded;
  const int64_t end_ns = tracer_.NowNs();
  const int64_t total_ns = std::max<int64_t>(end_ns - begin_ns, 0);
  const obs::AnswerPath path = ClassifyPath(ok, degraded, info);
  if (metrics) {
    outcome_latency_[OutcomeSlot(request.kind, path)].Record(total_ns);
  }
  if (!tracing || !tracer_.ShouldSample()) return;

  obs::RequestTrace trace;
  trace.request_id =
      trace_ids_.fetch_add(1, std::memory_order_relaxed) + 1;
  trace.SetMethod(MethodName(request.method));
  trace.SetKind(RequestKindName(request.kind));
  trace.path = path;
  trace.ok = ok;
  trace.cache_hit = info.cache_hit;
  trace.degraded = degraded;
  trace.retries = static_cast<uint8_t>(std::min(info.retries, 255));
  // The trace starts at admission: queue wait (async batches) precedes
  // the execution window begin_ns opened.
  const int64_t origin = begin_ns - queue_wait_ns;
  trace.begin_ns = origin;
  trace.total_ns = end_ns - origin;
  if (deadline != SteadyClock::time_point::max()) {
    trace.deadline_slack_ns = tracer_.ToNs(deadline) - end_ns;
  }
  if (queue_wait_ns > 0) {
    trace.AddSpan(obs::SpanKind::kAdmission, 0, queue_wait_ns);
  }
  const auto add_span = [&](obs::SpanKind kind, int64_t start_ns,
                            int64_t duration_ns) {
    if (start_ns >= 0) {
      trace.AddSpan(kind, start_ns - origin, duration_ns);
    }
  };
  add_span(obs::SpanKind::kCacheLookup, info.lookup_start_ns,
           info.lookup_ns);
  add_span(obs::SpanKind::kLineageWalk, info.lineage_start_ns,
           info.lineage_ns);
  add_span(obs::SpanKind::kDeltaPatch, info.patch_start_ns, info.patch_ns);
  add_span(obs::SpanKind::kColdScore, info.score_start_ns, info.score_ns);
  add_span(obs::SpanKind::kExtract, info.extract_start_ns,
           end_ns - info.extract_start_ns);
  tracer_.Commit(trace);
}

void BackboneEngine::RegisterEngineMetrics() {
  auto counter = [&](const char* name, obs::ShardedCounter* c) {
    registry_.RegisterCounter(name, c, this);
  };
  counter("engine.requests", &requests_);
  counter("engine.scores_computed", &scores_computed_);
  counter("engine.coalesced_waits", &coalesced_waits_);
  counter("engine.submitted_batches", &submitted_batches_);
  counter("engine.negative_hits", &negative_hits_);
  counter("engine.delta_rescores", &delta_rescores_);
  counter("engine.delta_fallbacks", &delta_fallbacks_);
  counter("engine.shed_batches", &shed_batches_);
  counter("engine.rejected_batches", &rejected_batches_);
  counter("engine.inflight_rejected", &inflight_rejected_);
  counter("engine.deadline_hits", &deadline_hits_);
  counter("engine.cancellations", &cancellations_);
  counter("engine.retries", &retries_);
  counter("engine.negative_exempt", &negative_exempt_);
  counter("engine.degraded_served", &degraded_served_);
  counter("engine.background_refreshes", &background_refreshes_);
  counter("engine.snapshot_writes", &snapshot_writes_);
  counter("engine.snapshot_failures", &snapshot_failures_);
  counter("engine.profiles_built", &profiles_built_);

  registry_.RegisterGauge(
      "engine.queue_depth",
      [this] {
        std::lock_guard<std::mutex> lock(queue_mu_);
        return static_cast<int64_t>(queue_.size());
      },
      this);
  registry_.RegisterGauge(
      "engine.inflight_scores",
      [this] {
        std::lock_guard<std::mutex> lock(score_mu_);
        return static_cast<int64_t>(inflight_.size());
      },
      this);
  registry_.RegisterGauge(
      "engine.negative_entries",
      [this] {
        // Live entries only: expired ones awaiting a lazy sweep don't
        // count.
        const auto now = std::chrono::steady_clock::now();
        std::lock_guard<std::mutex> lock(score_mu_);
        int64_t live = 0;
        for (const auto& [key, entry] : negative_) {
          if (now < entry.expiry) ++live;
        }
        return live;
      },
      this);
  registry_.RegisterGauge("engine.restored_graphs",
                          [this] { return restored_graphs_; }, this);
  registry_.RegisterGauge("engine.restored_entries",
                          [this] { return restored_entries_; }, this);
  registry_.RegisterGauge("engine.restored_lineage",
                          [this] { return restored_lineage_; }, this);
  registry_.RegisterGauge("engine.quarantined_sections",
                          [this] { return quarantined_sections_; }, this);
  registry_.RegisterGauge("engine.snapshot_restore_errors",
                          [this] { return snapshot_restore_errors_; },
                          this);
  registry_.RegisterGauge(
      "trace.sampled", [this] { return tracer_.sampled(); }, this);
  registry_.RegisterGauge(
      "trace.dropped", [this] { return tracer_.dropped(); }, this);

  // Fault-injection fire counts, one gauge pair per site, read from
  // whatever injector is active at snapshot time — chaos runs report
  // injected-vs-observed from the same registry as everything else.
  for (int s = 0; s < kNumFaultSites; ++s) {
    const FaultSite site = static_cast<FaultSite>(s);
    const std::string base = std::string("fault.") + FaultSiteName(site);
    registry_.RegisterGauge(
        base + ".injected",
        [site] {
          FaultInjector* injector = ActiveFaultInjector();
          return injector != nullptr ? injector->injected(site) : 0;
        },
        this);
    registry_.RegisterGauge(
        base + ".draws",
        [site] {
          FaultInjector* injector = ActiveFaultInjector();
          return injector != nullptr ? injector->draws(site) : 0;
        },
        this);
  }

  if (options_.enable_metrics) {
    for (int k = 0; k < kNumRequestKinds; ++k) {
      const auto kind = static_cast<RequestKind>(k);
      for (int p = 1; p < obs::kNumAnswerPaths; ++p) {  // skip kUnknown
        const auto path = static_cast<obs::AnswerPath>(p);
        const obs::LatencyHistogram* hist =
            &outcome_latency_[OutcomeSlot(kind, path)];
        registry_.RegisterHistogram(
            std::string("engine.latency.kind.") + RequestKindName(kind),
            hist, this);
        registry_.RegisterHistogram(
            std::string("engine.latency.path.") + obs::AnswerPathName(path),
            hist, this);
      }
    }
  }
  registry_.RegisterHistogram("engine.queue_wait_ns", &queue_wait_ns_,
                              this);
  registry_.RegisterHistogram("engine.batch_execute_ns",
                              &batch_execute_ns_, this);
  registry_.RegisterHistogram("engine.snapshot_write_ns",
                              &snapshot_write_ns_, this);
  registry_.RegisterHistogram("engine.snapshot_restore_ns",
                              &snapshot_restore_ns_, this);

  cache_.RegisterMetrics(registry_, "cache", this);
  graphs_.RegisterMetrics(registry_, "store", this);
}

}  // namespace netbone
