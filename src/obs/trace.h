// Copyright 2026 The netbone Authors.
//
// Per-request trace spans — the sampled half of observability. Where
// metrics.h answers "how many / how slow in aggregate", a trace answers
// "what did *this* request do": which spans it passed through
// (admission → cache lookup → lineage walk → delta patch | cold score →
// extraction), which answer path ultimately served it
// (warm|delta|cold|degraded|negative|failed), how many retries it
// burned, and how much deadline slack it had left.
//
// TraceRecorder is a fixed-byte-budget ring of trivially-copyable
// RequestTrace slots. Writers claim a slot with one relaxed fetch_add
// (the ticket) and take a per-slot CAS lock (even seq -> odd) for the
// copy; a writer that loses the CAS — the ring has lapped itself into a
// slot someone else holds — drops the trace and counts it, so the hot
// path never blocks and never allocates. Readers take the same per-slot
// lock, which keeps concurrent snapshot-during-traffic TSan-clean.
// Sampling is a cheap counter mod: rate 0 disables tracing entirely
// (ShouldSample is one predictable branch), rate 1 records every
// request, rate N records every Nth.

#ifndef NETBONE_OBS_TRACE_H_
#define NETBONE_OBS_TRACE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

namespace netbone::obs {

/// Lifecycle stages a request can pass through. A trace holds the spans
/// it actually entered — a warm hit has no kLineageWalk or kColdScore.
enum class SpanKind : uint8_t {
  kAdmission = 0,   ///< submit -> dispatch (queue wait)
  /// Request entry -> score resolved or missed: share validation, the
  /// graph lookup and pin, the ScoreCache probe and the negative-cache
  /// check. Starts at the entry clock reading in both Execute and
  /// ExecuteBatch (a batch's entry for all its requests).
  kCacheLookup,
  kLineageWalk,     ///< warm-ancestor search through the lineage records
  kDeltaPatch,      ///< incremental rescore from a warm ancestor
  kColdScore,       ///< full from-scratch scoring
  kExtract,         ///< response assembly (sweep / threshold / top-k)
};
inline constexpr int kNumSpanKinds = 6;

const char* SpanKindName(SpanKind kind);

/// Which road ultimately answered (the outcome tag on the whole trace).
enum class AnswerPath : uint8_t {
  kUnknown = 0,
  kWarm,      ///< served from the score cache
  kDelta,     ///< patched incrementally from a warm ancestor
  kCold,      ///< scored from scratch
  kDegraded,  ///< served approximate (warm ancestor / sampled HSS)
  kNegative,  ///< refused fast from the negative cache
  kFailed,    ///< errored (deadline, cancellation, scoring failure)
};
inline constexpr int kNumAnswerPaths = 7;

const char* AnswerPathName(AnswerPath path);

struct TraceSpan {
  SpanKind kind = SpanKind::kAdmission;
  int64_t start_ns = 0;     ///< relative to RequestTrace::begin_ns
  int64_t duration_ns = 0;
};

/// One request's record. Trivially copyable by design — the ring slots
/// copy it with operator=, and labels are fixed char buffers, not
/// std::string.
struct RequestTrace {
  static constexpr int kMaxSpans = 8;
  static constexpr int kLabelBytes = 24;

  uint64_t request_id = 0;
  char method[kLabelBytes] = {0};   ///< backbone method name
  char kind[kLabelBytes] = {0};     ///< request kind name
  int64_t begin_ns = 0;             ///< recorder-epoch-relative start
  int64_t total_ns = 0;
  int64_t deadline_slack_ns = 0;    ///< remaining at completion; <0 = blown
  AnswerPath path = AnswerPath::kUnknown;
  uint8_t retries = 0;
  bool cache_hit = false;
  bool degraded = false;
  bool ok = false;
  uint8_t num_spans = 0;
  TraceSpan spans[kMaxSpans];

  /// Appends a span; silently drops past kMaxSpans (num_spans still
  /// reflects only the kept spans — a chain never reads torn).
  void AddSpan(SpanKind kind, int64_t start_ns, int64_t duration_ns) {
    if (num_spans >= kMaxSpans) return;
    spans[num_spans++] = TraceSpan{kind, start_ns, duration_ns};
  }
  void SetMethod(const std::string& name) { CopyLabel(method, name); }
  void SetKind(const std::string& name) { CopyLabel(kind, name); }

 private:
  static void CopyLabel(char (&dst)[kLabelBytes], const std::string& src) {
    const size_t n = std::min(src.size(), sizeof(dst) - 1);
    std::memcpy(dst, src.data(), n);
    dst[n] = '\0';
  }
};

static_assert(std::is_trivially_copyable_v<RequestTrace>,
              "ring slots copy RequestTrace by assignment");

/// Fixed-budget ring of sampled request traces. All methods are safe to
/// call from any thread at any time.
class TraceRecorder {
 public:
  /// sample_rate: 0 = off, 1 = every request, N = every Nth request.
  /// buffer_bytes is rounded down to whole slots (>= 1 slot when on).
  TraceRecorder(int64_t sample_rate, int64_t buffer_bytes);

  TraceRecorder(const TraceRecorder&) = delete;
  TraceRecorder& operator=(const TraceRecorder&) = delete;

  bool enabled() const { return sample_rate_ > 0; }
  int64_t sample_rate() const { return sample_rate_; }
  int64_t capacity() const { return static_cast<int64_t>(slots_.size()); }

  /// True for the requests the configured rate selects. Each true return
  /// consumes one sampling ticket, so exactly 1-in-N requests sample.
  bool ShouldSample() {
    if (sample_rate_ <= 0) return false;
    return sample_counter_.fetch_add(1, std::memory_order_relaxed) %
               sample_rate_ ==
           0;
  }

  /// Stores a finished trace in the ring (overwriting the oldest).
  /// Never blocks: losing the per-slot lock race drops the trace and
  /// bumps dropped().
  void Commit(const RequestTrace& trace);

  /// Monotonic ns since this recorder was built — the timebase every
  /// stored begin_ns/span uses.
  int64_t NowNs() const;

  /// A steady_clock reading the caller already took, in the NowNs()
  /// timebase. The timebase is steady_clock minus the recorder's epoch,
  /// so converting needs no second clock read: a request that reads the
  /// clock once at entry for its deadline reuses that reading as its
  /// trace start.
  int64_t ToNs(std::chrono::steady_clock::time_point t) const;

  /// Stable copy of the ring's current contents, oldest first. Slots
  /// mid-write are skipped (they will appear in a later snapshot).
  std::vector<RequestTrace> Snapshot() const;

  /// Snapshot rendered as a JSON array of span-chain objects.
  std::string DumpJson() const;

  int64_t sampled() const {
    return committed_.load(std::memory_order_relaxed);
  }
  int64_t dropped() const { return dropped_.load(std::memory_order_relaxed); }

 private:
  struct alignas(64) Slot {
    /// Even = stable (seq/2 completed writes), odd = locked. Writers and
    /// readers both CAS even->odd, so payload access is always exclusive.
    std::atomic<uint64_t> seq{0};
    uint64_t ticket = 0;
    RequestTrace trace;
  };

  int64_t sample_rate_ = 0;
  int64_t epoch_ns_ = 0;
  std::vector<std::unique_ptr<Slot>> slots_;
  std::atomic<uint64_t> sample_counter_{0};
  std::atomic<uint64_t> tickets_{0};
  std::atomic<int64_t> committed_{0};
  std::atomic<int64_t> dropped_{0};
};

}  // namespace netbone::obs

#endif  // NETBONE_OBS_TRACE_H_
