// Copyright 2026 The netbone Authors.
//
// Low-overhead metrics primitives for the serving stack — the
// flight-recorder half that is always on. Three primitives and a
// registry:
//
//  * ShardedCounter — a monotonic (or up/down) integer spread over
//    cache-line-padded per-thread slots. The hot path is one relaxed
//    fetch_add on the caller's own slot — no contention, no fence — and
//    Value() sums the slots on read. Counts are exact: relaxed ordering
//    loosens *when* a slot's increment becomes visible, never whether it
//    is counted.
//  * LatencyHistogram — log2-bucketed with 16 linear sub-buckets per
//    octave (HdrHistogram-style), giving ~6% value resolution across
//    [0, 2^40) ns with a fixed 592-counter footprint per shard. Records
//    are exact bucket counts plus exact min/max/sum, so a merged snapshot
//    is *deterministic*: the same multiset of recorded values yields the
//    same buckets and the same p50/p95/p99 readout for every shard count
//    and every thread interleaving (pinned by tests/obs_test.cc).
//  * Callback gauges — point-in-time values (byte occupancy, queue
//    depth) read on demand at snapshot time, so the owning subsystem
//    pays nothing to maintain them.
//
// MetricRegistry names the primitives and renders one consistent
// MetricsSnapshot as an aligned text table or as JSON that is
// schema-compatible with the bench logs (BENCH_*.json): histogram rows
// carry {method, n, threads, median_ns, min_ns, p95_ns, p99_ns, max_ns},
// so bench/compare_bench_json.py can diff exported latency percentiles
// across runs exactly like bench medians.
//
// Ownership: the registry holds non-owning pointers. Register metrics
// with an `owner` cookie and Unregister(owner) before the metrics die
// (BackboneEngine and TaskScheduler do this in their destructors).

#ifndef NETBONE_OBS_METRICS_H_
#define NETBONE_OBS_METRICS_H_

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace netbone::obs {

/// Stable per-thread slot index used to spread counter/histogram traffic
/// over shards: threads are numbered on first use, so a thread always
/// lands on the same slot and two threads collide only when more than
/// `shards` threads exist (then they share a slot's fetch_add, still
/// exact).
uint32_t ThreadSlot();

/// Monotonic (or up/down — Add takes negative deltas) counter sharded
/// over cache-line-padded slots. Exact under any concurrency.
class ShardedCounter {
 public:
  /// Compile-time shard count: enough to keep 8–16 active threads on
  /// private lines without making every counter page-sized.
  static constexpr uint32_t kShards = 16;

  ShardedCounter() = default;
  ShardedCounter(const ShardedCounter&) = delete;
  ShardedCounter& operator=(const ShardedCounter&) = delete;

  void Add(int64_t delta) {
    shards_[ThreadSlot() & (kShards - 1)].value.fetch_add(
        delta, std::memory_order_relaxed);
  }
  void Increment() { Add(1); }

  /// Sum over all slots. Exact once writers quiesce; during concurrent
  /// writes it is a valid linearization point per slot.
  int64_t Value() const {
    int64_t total = 0;
    for (const Shard& shard : shards_) {
      total += shard.value.load(std::memory_order_relaxed);
    }
    return total;
  }

  /// Resets every slot to zero. Callers must quiesce writers first.
  void Reset() {
    for (Shard& shard : shards_) {
      shard.value.store(0, std::memory_order_relaxed);
    }
  }

 private:
  struct alignas(64) Shard {
    std::atomic<int64_t> value{0};
  };
  std::array<Shard, kShards> shards_;
};

/// Bucket layout shared by LatencyHistogram and HistogramSnapshot:
/// values 0..15 get exact unit buckets; larger values get 16 linear
/// sub-buckets per power of two (so relative bucket width is <= 1/16).
/// Values at or above 2^40 ns (~18 minutes) clamp into the last bucket;
/// min/max stay exact regardless.
inline constexpr int kHistogramSubBuckets = 16;
inline constexpr int kHistogramMaxMajor = 40;  // values < 2^40 resolve
inline constexpr int kHistogramBuckets =
    kHistogramSubBuckets + (kHistogramMaxMajor - 4) * kHistogramSubBuckets;

/// The bucket a value lands in. Negative values clamp to bucket 0.
int HistogramBucketIndex(int64_t value);

/// Inclusive lower bound of a bucket — the deterministic representative
/// value percentile readouts report.
int64_t HistogramBucketLowerBound(int index);

/// A merged, immutable readout of one histogram (or several: Merge sums
/// bucket counts and is associative + commutative, so any merge order —
/// and any shard count — yields the same snapshot).
struct HistogramSnapshot {
  int64_t count = 0;
  int64_t sum = 0;
  int64_t min = 0;  ///< exact; 0 when count == 0
  int64_t max = 0;  ///< exact; 0 when count == 0
  std::array<int64_t, kHistogramBuckets> buckets{};

  void Merge(const HistogramSnapshot& other);

  /// The recorded value at quantile q in [0, 1]: the lower bound of the
  /// first bucket whose cumulative count reaches ceil(q * count), except
  /// q high enough to select the final recorded value reports the exact
  /// max. 0 when empty. Deterministic in the bucket counts alone.
  int64_t ValueAtQuantile(double q) const;

  int64_t p50() const { return ValueAtQuantile(0.50); }
  int64_t p95() const { return ValueAtQuantile(0.95); }
  int64_t p99() const { return ValueAtQuantile(0.99); }
  double mean() const {
    return count > 0 ? static_cast<double>(sum) / static_cast<double>(count)
                     : 0.0;
  }
};

/// Concurrent log2/linear-sub-bucket histogram. Record() touches one
/// shard: a relaxed fetch_add on the bucket counter plus relaxed
/// min/max/sum maintenance — no locks, no fences on the hot path. There
/// is no count field to bump: Snapshot() sums the buckets. The shards
/// (~4.8 KB each) are allocated by the first Record, so a histogram that
/// never records costs a few bytes — an engine keeps one per (request
/// kind, answer path) pair and uses a handful.
class LatencyHistogram {
 public:
  /// num_shards <= 0 picks a default sized for concurrent recording;
  /// pass 1 for single-writer histograms (e.g. per-worker slots).
  explicit LatencyHistogram(int num_shards = 0);
  ~LatencyHistogram();

  LatencyHistogram(const LatencyHistogram&) = delete;
  LatencyHistogram& operator=(const LatencyHistogram&) = delete;

  void Record(int64_t value);

  /// Merged readout over all shards. Deterministic: depends only on the
  /// multiset of recorded values, not shard count or thread schedule.
  HistogramSnapshot Snapshot() const;

  /// Resets all shards. Callers must quiesce writers first.
  void Reset();

  int num_shards() const { return num_shards_; }

 private:
  struct alignas(64) Shard {
    std::array<std::atomic<int64_t>, kHistogramBuckets> buckets{};
    std::atomic<int64_t> sum{0};
    std::atomic<int64_t> min{INT64_MAX};
    std::atomic<int64_t> max{INT64_MIN};
  };
  /// The shard block, allocating it on first use. Racing first
  /// recorders each build one; the loser of the publish frees its own.
  Shard* Shards();

  int num_shards_ = 0;
  // One contiguous block (null until the first Record): Record reaches
  // its shard with one load fewer than per-shard allocations would take.
  std::atomic<Shard*> shards_{nullptr};
};

/// RAII timing gate: records the scope's wall time into `hist` on exit,
/// but only when `on` is true — reading the clock is the one cost of
/// latency instrumentation, so subsystems gate it behind an opt-in flag
/// and uninstrumented callers keep a branch-and-nothing-else hot path.
class ScopedRecord {
 public:
  ScopedRecord(bool on, LatencyHistogram* hist)
      : hist_(on ? hist : nullptr) {
    if (hist_ != nullptr) start_ = std::chrono::steady_clock::now();
  }
  ~ScopedRecord() {
    if (hist_ != nullptr) {
      hist_->Record(std::chrono::duration_cast<std::chrono::nanoseconds>(
                        std::chrono::steady_clock::now() - start_)
                        .count());
    }
  }
  ScopedRecord(const ScopedRecord&) = delete;
  ScopedRecord& operator=(const ScopedRecord&) = delete;

 private:
  LatencyHistogram* hist_;
  std::chrono::steady_clock::time_point start_;
};

/// One consistent readout of a registry (or several merged): counters,
/// gauges, histograms, each sorted by name. Plain data — safe to hold,
/// merge, render after the source registry has moved on.
struct MetricsSnapshot {
  struct Value {
    std::string name;
    int64_t value = 0;
  };
  struct Histogram {
    std::string name;
    HistogramSnapshot hist;
  };

  std::vector<Value> counters;
  std::vector<Value> gauges;
  std::vector<Histogram> histograms;

  /// Folds `other` in: same-name counters/gauges add, same-name
  /// histograms merge bucket-wise, new names append. Keeps name order.
  void Merge(const MetricsSnapshot& other);

  /// A copy with `prefix` prepended to every counter/gauge/histogram
  /// name. Lets a multi-shard owner re-emit one shard's snapshot under a
  /// per-shard namespace ("shard3.") next to the unprefixed rollup.
  MetricsSnapshot WithPrefix(const std::string& prefix) const;

  /// Counter or gauge value by exact name; `fallback` when absent.
  int64_t ValueOf(const std::string& name, int64_t fallback = 0) const;
  /// Histogram by exact name; nullptr when absent.
  const HistogramSnapshot* FindHistogram(const std::string& name) const;

  /// Human-readable aligned table: counters, gauges, then histograms
  /// with count/p50/p95/p99/max columns (ns rendered adaptively).
  std::string RenderText() const;

  /// BENCH_*.json-schema JSON: {"bench": <name>, "records": [...]} where
  /// histogram records carry median_ns/min_ns/p95_ns/p99_ns/max_ns and
  /// counter/gauge records carry their value in "value" (median_ns null).
  std::string RenderJson(const std::string& name) const;

  /// Writes RenderJson to `path` (false on I/O failure).
  bool WriteJsonFile(const std::string& path,
                     const std::string& name) const;
};

/// Name -> primitive registry. Registration is infrequent (setup /
/// teardown); Snapshot() walks every metric once under the registry lock
/// — callback gauges run inside that walk, so keep them cheap.
class MetricRegistry {
 public:
  MetricRegistry() = default;
  MetricRegistry(const MetricRegistry&) = delete;
  MetricRegistry& operator=(const MetricRegistry&) = delete;

  /// `owner` groups registrations for Unregister; nullptr = never
  /// unregistered (static lifetime).
  void RegisterCounter(std::string name, const ShardedCounter* counter,
                       const void* owner = nullptr);
  void RegisterGauge(std::string name, std::function<int64_t()> read,
                     const void* owner = nullptr);
  /// A gauge *group*: one callback producing several named values,
  /// evaluated exactly once per Snapshot(). Use this when the values
  /// are fields of one mutex-guarded struct — per-field gauges would
  /// each take the owner's lock separately and a snapshot could observe
  /// fields from different instants; a group reads them atomically.
  void RegisterGaugeGroup(
      std::function<std::vector<MetricsSnapshot::Value>()> read,
      const void* owner = nullptr);
  void RegisterHistogram(std::string name, const LatencyHistogram* histogram,
                         const void* owner = nullptr);

  /// Drops every metric registered with this owner cookie.
  void Unregister(const void* owner);

  MetricsSnapshot Snapshot() const;

  /// Process-wide registry for process-wide subsystems (the global
  /// TaskScheduler). Engine-scoped metrics live in the engine's own
  /// registry; merge the two snapshots for a full picture.
  static MetricRegistry& Global();

 private:
  struct Entry {
    std::string name;  // empty for gauge groups (values carry full names)
    const void* owner = nullptr;
    const ShardedCounter* counter = nullptr;        // exactly one of
    std::function<int64_t()> gauge;                 // these four is
    std::function<std::vector<MetricsSnapshot::Value>()> gauge_group;
    const LatencyHistogram* histogram = nullptr;    // set
  };

  mutable std::mutex mu_;
  std::vector<Entry> entries_;
};

}  // namespace netbone::obs

#endif  // NETBONE_OBS_METRICS_H_
