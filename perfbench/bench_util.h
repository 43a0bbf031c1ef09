// Small helpers shared by the serving benchmark: clocks, order statistics,
// the in-memory span log of the traced run, and the metric report that
// becomes the run's final JSON line.

#ifndef NETBONE_PERFBENCH_BENCH_UTIL_H_
#define NETBONE_PERFBENCH_BENCH_UTIL_H_

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Value at quantile q in [0, 1] (nearest rank), 0 when empty.
inline double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  const size_t rank = std::min(
      values.size() - 1,
      static_cast<size_t>(std::ceil(q * static_cast<double>(values.size()))) -
          (q > 0.0 ? 1 : 0));
  std::nth_element(values.begin(), values.begin() + rank, values.end());
  return values[rank];
}

inline double Median(const std::vector<double>& values) {
  return Quantile(values, 0.5);
}

inline double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (const double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

/// Returns freed heap to the kernel and resets the kernel's peak-RSS mark
/// to the current RSS, so PeakRssMb() covers only what runs afterwards
/// (plus what is still resident). A no-op where /proc/self/clear_refs is
/// not writable.
inline void ResetPeakRss() {
  malloc_trim(0);
  if (std::FILE* f = std::fopen("/proc/self/clear_refs", "w")) {
    std::fputs("5", f);
    std::fclose(f);
  }
}

/// Peak resident set in MiB since the last ResetPeakRss() (VmHWM), or
/// since process start where /proc is unavailable.
inline double PeakRssMb() {
  if (std::FILE* f = std::fopen("/proc/self/status", "r")) {
    char line[256];
    long long kib = -1;
    while (std::fgets(line, sizeof(line), f) != nullptr) {
      if (std::sscanf(line, "VmHWM: %lld kB", &kib) == 1) break;
    }
    std::fclose(f);
    if (kib >= 0) return static_cast<double>(kib) / 1024.0;
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// Calls `fn` `reps` times and returns the median wall time in
/// microseconds. `before` runs untimed ahead of every call (fresh inputs).
template <typename Before, typename Fn>
double MedianUs(int reps, const Before& before, const Fn& fn) {
  std::vector<double> times;
  times.reserve(static_cast<size_t>(reps));
  for (int rep = 0; rep < reps; ++rep) {
    before(rep);
    const int64_t start = NowNs();
    fn(rep);
    times.push_back(static_cast<double>(NowNs() - start) / 1e3);
  }
  return Median(times);
}

/// Host-speed probe for shared hosts, whose neighbours slow this VM by 20%
/// to 90% for minutes at a time — compute less than memory access. Times
/// benchmark-owned code that no change to the library touches: a
/// single-thread sort of 256k doubles (compute on cached data) plus 200k
/// dependent loads through a 16 MiB random cycle (memory latency).
/// End-to-end times are reported at the reference speed, measured time x
/// kReferenceUs / probe time, the probe taken just before and just after
/// each measurement window or set-up, so runs made under different host
/// load compare. Raw times are printed too.
class HostSpeed {
 public:
  /// Nominal probe time defining the reference speed: about what the
  /// probe takes on the reference host (4 x86 cores with AVX2) when its
  /// neighbours are quiet.
  static constexpr double kReferenceUs = 40000.0;

  HostSpeed() : input_(1 << 18), work_(input_.size()), next_(1 << 22) {
    uint64_t x = 88172645463325252ULL;
    const auto draw = [&x] {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      return x;
    };
    for (double& v : input_) v = static_cast<double>(draw() >> 11);
    // A random order linked into one cycle through every slot, so the
    // chase never settles into a short, cache-resident loop.
    std::vector<uint32_t> order(next_.size());
    for (size_t i = 0; i < order.size(); ++i) order[i] = static_cast<uint32_t>(i);
    for (size_t i = order.size() - 1; i > 0; --i) {
      std::swap(order[i], order[draw() % i]);
    }
    for (size_t i = 0; i < order.size(); ++i) {
      next_[order[i]] = order[(i + 1) % order.size()];
    }
  }

  /// Takes one sample and returns its time in microseconds.
  double SampleUs() {
    std::copy(input_.begin(), input_.end(), work_.begin());
    const int64_t start = NowNs();
    std::sort(work_.begin(), work_.end());
    uint32_t at = cursor_;
    for (int step = 0; step < 200000; ++step) at = next_[at];
    cursor_ = at;  // keeps the chase observable
    samples_.push_back(static_cast<double>(NowNs() - start) / 1e3);
    return samples_.back();
  }

  double MedianUs() const { return Median(samples_); }
  size_t samples() const { return samples_.size(); }

  /// Factor from a time measured at probe time `probe_us` to
  /// reference-speed time.
  static double ScaleFor(double probe_us) { return kReferenceUs / probe_us; }

 private:
  std::vector<double> input_;
  std::vector<double> work_;
  std::vector<uint32_t> next_;
  uint32_t cursor_ = 0;
  std::vector<double> samples_;
};

/// The traced run's span log, kept in memory and summarized at the end.
/// Spans are recorded by the benchmark around its own calls into the
/// engine; the engine's internal tracer stays off.
class SpanLog {
 public:
  struct Span {
    int name = 0;
    int parent = -1;  ///< index of the enclosing span, -1 for a root
    int64_t start_ns = 0;
    int64_t end_ns = 0;
  };

  int Intern(const std::string& name) {
    for (size_t i = 0; i < names_.size(); ++i) {
      if (names_[i] == name) return static_cast<int>(i);
    }
    names_.push_back(name);
    return static_cast<int>(names_.size() - 1);
  }

  /// Opens a span and returns its index; Close() stamps its end.
  int Open(int name, int parent = -1) {
    spans_.push_back(Span{name, parent, NowNs(), 0});
    return static_cast<int>(spans_.size() - 1);
  }
  void Close(int span) { spans_[static_cast<size_t>(span)].end_ns = NowNs(); }

  /// Durations (us) of every closed span named `name`.
  std::vector<double> DurationsUs(const std::string& name) const {
    std::vector<double> out;
    for (const Span& span : spans_) {
      if (names_[static_cast<size_t>(span.name)] == name && span.end_ns > 0) {
        out.push_back(static_cast<double>(span.end_ns - span.start_ns) / 1e3);
      }
    }
    return out;
  }

  /// Prints count / p50 / p95 per span name, plus each root span's self
  /// time (duration minus the time its children cover).
  void PrintSummary() const {
    std::printf("  %-28s %10s %12s %12s\n", "span", "count", "p50 us",
                "p95 us");
    for (const std::string& name : names_) {
      const std::vector<double> d = DurationsUs(name);
      std::printf("  %-28s %10zu %12.2f %12.2f\n", name.c_str(), d.size(),
                  Median(d), Quantile(d, 0.95));
    }
    std::vector<int64_t> child_ns(spans_.size(), 0);
    for (const Span& span : spans_) {
      if (span.parent >= 0) {
        child_ns[static_cast<size_t>(span.parent)] +=
            span.end_ns - span.start_ns;
      }
    }
    std::vector<double> self_us;
    for (size_t i = 0; i < spans_.size(); ++i) {
      if (spans_[i].parent < 0 && spans_[i].end_ns > 0) {
        self_us.push_back(static_cast<double>(spans_[i].end_ns -
                                              spans_[i].start_ns -
                                              child_ns[i]) /
                          1e3);
      }
    }
    std::printf("  %-28s %10zu %12.2f %12.2f\n", "(root self time)",
                self_us.size(), Median(self_us), Quantile(self_us, 0.95));
  }

  /// Appends `other`'s spans (a client thread's private log).
  void Append(const SpanLog& other) {
    const int offset = static_cast<int>(spans_.size());
    for (Span span : other.spans_) {
      span.name = Intern(other.names_[static_cast<size_t>(span.name)]);
      if (span.parent >= 0) span.parent += offset;
      spans_.push_back(span);
    }
  }

 private:
  std::vector<std::string> names_;
  std::vector<Span> spans_;
};

/// Named metrics in print order; rendered as a table and as the "metrics"
/// object of the final JSON line.
class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit,
           const std::string& note = "") {
    entries_.push_back(Entry{name, value, unit, note});
  }

  void PrintTable(const char* title) const {
    std::printf("\n%s\n", title);
    for (const Entry& e : entries_) {
      std::printf("  %-28s %16.4f %-9s %s\n", e.name.c_str(), e.value,
                  e.unit.c_str(), e.note.c_str());
    }
  }

  std::string Json() const {
    std::string out = "{";
    for (size_t i = 0; i < entries_.size(); ++i) {
      const Entry& e = entries_[i];
      // JSON has no infinities; a failed op (infinite latency) already
      // makes the run incorrect, so the clamp only keeps the line valid.
      const double v = std::isfinite(e.value)
                           ? e.value
                           : std::numeric_limits<double>::max();
      char value[64];
      std::snprintf(value, sizeof(value), "%.17g", v);
      out += (i > 0 ? ", \"" : "\"") + e.name + "\": {\"value\": " + value +
             ", \"unit\": \"" + e.unit + "\"}";
    }
    return out + "}";
  }

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
    std::string note;
  };
  std::vector<Entry> entries_;
};

}  // namespace perfbench

#endif  // NETBONE_PERFBENCH_BENCH_UTIL_H_
