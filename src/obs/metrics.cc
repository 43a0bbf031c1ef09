// Copyright 2026 The netbone Authors.

#include "obs/metrics.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>

namespace netbone::obs {

uint32_t ThreadSlot() {
  static std::atomic<uint32_t> next_slot{0};
  thread_local uint32_t slot =
      next_slot.fetch_add(1, std::memory_order_relaxed);
  return slot;
}

int HistogramBucketIndex(int64_t value) {
  if (value < 0) value = 0;
  if (value < kHistogramSubBuckets) return static_cast<int>(value);
  const uint64_t v = static_cast<uint64_t>(value);
  int major = std::bit_width(v) - 1;  // v >= 16 so major >= 4
  if (major >= kHistogramMaxMajor) return kHistogramBuckets - 1;
  const int minor =
      static_cast<int>((v >> (major - 4)) & (kHistogramSubBuckets - 1));
  return kHistogramSubBuckets + (major - 4) * kHistogramSubBuckets + minor;
}

int64_t HistogramBucketLowerBound(int index) {
  if (index < 0) return 0;
  if (index >= kHistogramBuckets) index = kHistogramBuckets - 1;
  if (index < kHistogramSubBuckets) return index;
  const int rel = index - kHistogramSubBuckets;
  const int major = 4 + rel / kHistogramSubBuckets;
  const int minor = rel % kHistogramSubBuckets;
  return static_cast<int64_t>(kHistogramSubBuckets + minor) << (major - 4);
}

void HistogramSnapshot::Merge(const HistogramSnapshot& other) {
  if (other.count == 0) return;
  if (count == 0) {
    min = other.min;
    max = other.max;
  } else {
    min = std::min(min, other.min);
    max = std::max(max, other.max);
  }
  count += other.count;
  sum += other.sum;
  for (int i = 0; i < kHistogramBuckets; ++i) buckets[i] += other.buckets[i];
}

int64_t HistogramSnapshot::ValueAtQuantile(double q) const {
  if (count == 0) return 0;
  q = std::clamp(q, 0.0, 1.0);
  int64_t rank = static_cast<int64_t>(
      std::ceil(q * static_cast<double>(count)));
  rank = std::clamp<int64_t>(rank, 1, count);
  // The final recorded value is known exactly; report it rather than a
  // bucket lower bound when the quantile selects it.
  if (rank == count) return max;
  int64_t cumulative = 0;
  for (int i = 0; i < kHistogramBuckets; ++i) {
    cumulative += buckets[i];
    if (cumulative >= rank) return HistogramBucketLowerBound(i);
  }
  return max;  // unreachable when bucket counts sum to `count`
}

namespace {

/// Computed once: hardware_concurrency() reads sysfs, and an engine
/// constructs dozens of histograms.
int DefaultHistogramShards() {
  static const int shards = [] {
    const unsigned hw = std::thread::hardware_concurrency();
    return std::clamp(
        static_cast<int>(std::bit_ceil(hw == 0 ? 4u : hw)), 1, 16);
  }();
  return shards;
}

}  // namespace

LatencyHistogram::LatencyHistogram(int num_shards)
    : num_shards_(num_shards > 0 ? num_shards : DefaultHistogramShards()) {}

LatencyHistogram::~LatencyHistogram() {
  delete[] shards_.load(std::memory_order_acquire);
}

LatencyHistogram::Shard* LatencyHistogram::Shards() {
  Shard* block = shards_.load(std::memory_order_acquire);
  if (block != nullptr) return block;
  Shard* fresh = new Shard[static_cast<size_t>(num_shards_)]();
  if (shards_.compare_exchange_strong(block, fresh,
                                      std::memory_order_acq_rel,
                                      std::memory_order_acquire)) {
    return fresh;
  }
  delete[] fresh;  // another recorder published first; `block` is theirs
  return block;
}

void LatencyHistogram::Record(int64_t value) {
  if (value < 0) value = 0;
  Shard& shard =
      Shards()[ThreadSlot() % static_cast<uint32_t>(num_shards_)];
  shard.buckets[HistogramBucketIndex(value)].fetch_add(
      1, std::memory_order_relaxed);
  shard.sum.fetch_add(value, std::memory_order_relaxed);
  int64_t seen = shard.min.load(std::memory_order_relaxed);
  while (value < seen && !shard.min.compare_exchange_weak(
                             seen, value, std::memory_order_relaxed)) {
  }
  seen = shard.max.load(std::memory_order_relaxed);
  while (value > seen && !shard.max.compare_exchange_weak(
                             seen, value, std::memory_order_relaxed)) {
  }
}

HistogramSnapshot LatencyHistogram::Snapshot() const {
  HistogramSnapshot snap;
  const Shard* const block = shards_.load(std::memory_order_acquire);
  if (block == nullptr) return snap;  // never recorded
  int64_t min = INT64_MAX;
  int64_t max = INT64_MIN;
  for (int s = 0; s < num_shards_; ++s) {
    const Shard& shard = block[s];
    snap.sum += shard.sum.load(std::memory_order_relaxed);
    min = std::min(min, shard.min.load(std::memory_order_relaxed));
    max = std::max(max, shard.max.load(std::memory_order_relaxed));
    for (int i = 0; i < kHistogramBuckets; ++i) {
      snap.buckets[i] += shard.buckets[i].load(std::memory_order_relaxed);
    }
  }
  // The count is the bucket total rather than a counter of its own: one
  // atomic fewer per Record, and the readout's count always agrees with
  // its buckets.
  for (const int64_t n : snap.buckets) snap.count += n;
  snap.min = snap.count > 0 ? min : 0;
  snap.max = snap.count > 0 ? max : 0;
  return snap;
}

void LatencyHistogram::Reset() {
  Shard* const block = shards_.load(std::memory_order_acquire);
  if (block == nullptr) return;
  for (int s = 0; s < num_shards_; ++s) {
    Shard& shard = block[s];
    for (int i = 0; i < kHistogramBuckets; ++i) {
      shard.buckets[i].store(0, std::memory_order_relaxed);
    }
    shard.sum.store(0, std::memory_order_relaxed);
    shard.min.store(INT64_MAX, std::memory_order_relaxed);
    shard.max.store(INT64_MIN, std::memory_order_relaxed);
  }
}

namespace {

template <typename Vec>
void MergeValues(Vec& into, const Vec& from) {
  for (const auto& value : from) {
    auto it = std::find_if(into.begin(), into.end(), [&](const auto& v) {
      return v.name == value.name;
    });
    if (it == into.end()) {
      into.push_back(value);
    } else {
      it->value += value.value;
    }
  }
}

std::string FormatNs(int64_t ns) {
  char buf[48];
  if (ns >= 1'000'000'000) {
    std::snprintf(buf, sizeof(buf), "%.2fs", static_cast<double>(ns) / 1e9);
  } else if (ns >= 1'000'000) {
    std::snprintf(buf, sizeof(buf), "%.2fms", static_cast<double>(ns) / 1e6);
  } else if (ns >= 1'000) {
    std::snprintf(buf, sizeof(buf), "%.1fus", static_cast<double>(ns) / 1e3);
  } else {
    std::snprintf(buf, sizeof(buf), "%lldns", static_cast<long long>(ns));
  }
  return buf;
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace

void MetricsSnapshot::Merge(const MetricsSnapshot& other) {
  MergeValues(counters, other.counters);
  MergeValues(gauges, other.gauges);
  for (const auto& histogram : other.histograms) {
    auto it = std::find_if(
        histograms.begin(), histograms.end(),
        [&](const Histogram& h) { return h.name == histogram.name; });
    if (it == histograms.end()) {
      histograms.push_back(histogram);
    } else {
      it->hist.Merge(histogram.hist);
    }
  }
}

MetricsSnapshot MetricsSnapshot::WithPrefix(const std::string& prefix) const {
  MetricsSnapshot out = *this;
  for (Value& v : out.counters) v.name = prefix + v.name;
  for (Value& v : out.gauges) v.name = prefix + v.name;
  for (Histogram& h : out.histograms) h.name = prefix + h.name;
  return out;
}

int64_t MetricsSnapshot::ValueOf(const std::string& name,
                                 int64_t fallback) const {
  for (const Value& counter : counters) {
    if (counter.name == name) return counter.value;
  }
  for (const Value& gauge : gauges) {
    if (gauge.name == name) return gauge.value;
  }
  return fallback;
}

const HistogramSnapshot* MetricsSnapshot::FindHistogram(
    const std::string& name) const {
  for (const Histogram& histogram : histograms) {
    if (histogram.name == name) return &histogram.hist;
  }
  return nullptr;
}

std::string MetricsSnapshot::RenderText() const {
  size_t width = 8;
  for (const Value& v : counters) width = std::max(width, v.name.size());
  for (const Value& v : gauges) width = std::max(width, v.name.size());
  for (const Histogram& h : histograms) width = std::max(width, h.name.size());

  std::ostringstream out;
  auto pad = [&](const std::string& name) {
    out << "  " << name << std::string(width - name.size() + 2, ' ');
  };
  if (!counters.empty()) {
    out << "counters:\n";
    for (const Value& v : counters) {
      pad(v.name);
      out << v.value << "\n";
    }
  }
  if (!gauges.empty()) {
    out << "gauges:\n";
    for (const Value& v : gauges) {
      pad(v.name);
      out << v.value << "\n";
    }
  }
  if (!histograms.empty()) {
    out << "histograms:" << std::string(width - 8, ' ')
        << "count      p50      p95      p99      max\n";
    for (const Histogram& h : histograms) {
      pad(h.name);
      char row[128];
      std::snprintf(row, sizeof(row), "%-9lld%-9s%-9s%-9s%-9s",
                    static_cast<long long>(h.hist.count),
                    FormatNs(h.hist.p50()).c_str(),
                    FormatNs(h.hist.p95()).c_str(),
                    FormatNs(h.hist.p99()).c_str(),
                    FormatNs(h.hist.max).c_str());
      out << row << "\n";
    }
  }
  return out.str();
}

std::string MetricsSnapshot::RenderJson(const std::string& name) const {
  // Matches the JsonBenchLog schema: one object with a "records" array
  // whose entries are keyed by (method, n, threads). Histograms expose
  // their percentiles in the *_ns fields compare_bench_json.py reads;
  // counters/gauges carry "value" and a null median so the comparer
  // skips them for latency diffs but tools can still read them.
  std::ostringstream out;
  out << "{\n  \"bench\": \"" << JsonEscape(name) << "\",\n"
      << "  \"records\": [";
  bool first = true;
  auto begin_record = [&](const std::string& metric, const char* kind) {
    if (!first) out << ",";
    first = false;
    out << "\n    {\"method\": \"" << JsonEscape(metric) << "\", \"kind\": \""
        << kind << "\"";
  };
  for (const Value& v : counters) {
    begin_record(v.name, "counter");
    out << ", \"n\": 1, \"threads\": 1, \"value\": " << v.value
        << ", \"median_ns\": null, \"min_ns\": null}";
  }
  for (const Value& v : gauges) {
    begin_record(v.name, "gauge");
    out << ", \"n\": 1, \"threads\": 1, \"value\": " << v.value
        << ", \"median_ns\": null, \"min_ns\": null}";
  }
  for (const Histogram& h : histograms) {
    begin_record(h.name, "histogram");
    out << ", \"n\": " << h.hist.count << ", \"threads\": 1"
        << ", \"median_ns\": " << h.hist.p50()
        << ", \"min_ns\": " << h.hist.min
        << ", \"p95_ns\": " << h.hist.p95()
        << ", \"p99_ns\": " << h.hist.p99()
        << ", \"max_ns\": " << h.hist.max
        << ", \"sum_ns\": " << h.hist.sum << "}";
  }
  out << "\n  ]\n}\n";
  return out.str();
}

bool MetricsSnapshot::WriteJsonFile(const std::string& path,
                                    const std::string& name) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  out << RenderJson(name);
  out.flush();
  return static_cast<bool>(out);
}

void MetricRegistry::RegisterCounter(std::string name,
                                     const ShardedCounter* counter,
                                     const void* owner) {
  std::lock_guard<std::mutex> lock(mu_);
  Entry entry;
  entry.name = std::move(name);
  entry.owner = owner;
  entry.counter = counter;
  entries_.push_back(std::move(entry));
}

void MetricRegistry::RegisterGauge(std::string name,
                                   std::function<int64_t()> read,
                                   const void* owner) {
  std::lock_guard<std::mutex> lock(mu_);
  Entry entry;
  entry.name = std::move(name);
  entry.owner = owner;
  entry.gauge = std::move(read);
  entries_.push_back(std::move(entry));
}

void MetricRegistry::RegisterGaugeGroup(
    std::function<std::vector<MetricsSnapshot::Value>()> read,
    const void* owner) {
  std::lock_guard<std::mutex> lock(mu_);
  Entry entry;
  entry.owner = owner;
  entry.gauge_group = std::move(read);
  entries_.push_back(std::move(entry));
}

void MetricRegistry::RegisterHistogram(std::string name,
                                       const LatencyHistogram* histogram,
                                       const void* owner) {
  std::lock_guard<std::mutex> lock(mu_);
  Entry entry;
  entry.name = std::move(name);
  entry.owner = owner;
  entry.histogram = histogram;
  entries_.push_back(std::move(entry));
}

void MetricRegistry::Unregister(const void* owner) {
  if (owner == nullptr) return;
  std::lock_guard<std::mutex> lock(mu_);
  std::erase_if(entries_,
                [owner](const Entry& e) { return e.owner == owner; });
}

MetricsSnapshot MetricRegistry::Snapshot() const {
  MetricsSnapshot snap;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const Entry& entry : entries_) {
      if (entry.counter != nullptr) {
        snap.counters.push_back({entry.name, entry.counter->Value()});
      } else if (entry.gauge) {
        snap.gauges.push_back({entry.name, entry.gauge()});
      } else if (entry.gauge_group) {
        // One callback invocation yields all of the group's values, so
        // they come from a single coherent read of the owner's state.
        for (MetricsSnapshot::Value& value : entry.gauge_group()) {
          snap.gauges.push_back(std::move(value));
        }
      } else if (entry.histogram != nullptr) {
        snap.histograms.push_back({entry.name, entry.histogram->Snapshot()});
      }
    }
  }
  auto by_name = [](const auto& a, const auto& b) { return a.name < b.name; };
  std::sort(snap.counters.begin(), snap.counters.end(), by_name);
  std::sort(snap.gauges.begin(), snap.gauges.end(), by_name);
  std::sort(snap.histograms.begin(), snap.histograms.end(), by_name);
  // Coalesce same-name registrations (per-worker histograms and counters
  // register under one shared name): counters/gauges sum, histograms merge.
  auto coalesce_values = [](std::vector<MetricsSnapshot::Value>& values) {
    size_t out = 0;
    for (size_t i = 0; i < values.size(); ++i) {
      if (out > 0 && values[out - 1].name == values[i].name) {
        values[out - 1].value += values[i].value;
      } else {
        if (out != i) values[out] = std::move(values[i]);  // no self-move
        ++out;
      }
    }
    values.resize(out);
  };
  coalesce_values(snap.counters);
  coalesce_values(snap.gauges);
  size_t out = 0;
  for (size_t i = 0; i < snap.histograms.size(); ++i) {
    if (out > 0 && snap.histograms[out - 1].name == snap.histograms[i].name) {
      snap.histograms[out - 1].hist.Merge(snap.histograms[i].hist);
    } else {
      if (out != i) snap.histograms[out] = std::move(snap.histograms[i]);
      ++out;
    }
  }
  snap.histograms.resize(out);
  return snap;
}

MetricRegistry& MetricRegistry::Global() {
  static MetricRegistry* registry = new MetricRegistry();  // leaked: outlives
  return *registry;                                        // worker threads
}

}  // namespace netbone::obs
