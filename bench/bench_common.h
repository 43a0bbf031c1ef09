// Copyright 2026 The netbone Authors.
//
// Shared helpers for the experiment harnesses: aligned table printing,
// the quick-mode switch (NETBONE_BENCH_QUICK=1 shrinks workloads for CI),
// and the machine-readable JSON timing log (JsonBenchLog) that tracks the
// perf trajectory across PRs instead of losing it in stdout.

#ifndef NETBONE_BENCH_BENCH_COMMON_H_
#define NETBONE_BENCH_BENCH_COMMON_H_

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace netbone::bench {

/// True when the NETBONE_BENCH_QUICK environment variable is set to a
/// non-zero value; harnesses then shrink sizes/seeds to smoke-test level.
inline bool QuickMode() {
  const char* env = std::getenv("NETBONE_BENCH_QUICK");
  return env != nullptr && std::string(env) != "0" &&
         std::string(env) != "";
}

/// True when the binary is instrumented by ASan or TSan. Sanitizer
/// builds run the smoke suite for its *correctness* gates (identity,
/// zero-sort, error taxonomy); pure timing-ratio gates are skipped there
/// — instrumentation overhead is wildly non-uniform across code shapes
/// (per-access checks dwarf vector kernels but swamp scheduler and
/// cache-bookkeeping paths), so a ratio measured under a sanitizer says
/// nothing about the production binary.
inline constexpr bool SanitizerBuild() {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
  return true;
#else
  return false;
#endif
#else
  return false;
#endif
}

/// Prints a banner naming the experiment and the paper artifact it
/// regenerates.
inline void Banner(const std::string& experiment,
                   const std::string& description) {
  std::printf("\n================================================================================\n");
  std::printf("%s — %s\n", experiment.c_str(), description.c_str());
  std::printf("================================================================================\n");
}

/// Fixed-width row printer: first column 22 chars, the rest 12.
inline void PrintRow(const std::vector<std::string>& cells) {
  for (size_t i = 0; i < cells.size(); ++i) {
    std::printf(i == 0 ? "%-22s" : "%12s", cells[i].c_str());
  }
  std::printf("\n");
}

/// Formats a double with the given precision ("n/a" for NaN sentinels).
inline std::string Num(double value, int precision = 4) {
  if (value != value) return "n/a";
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.*f", precision, value);
  return buffer;
}

/// NaN sentinel used to mark "n/a" cells.
inline double NaN() { return std::nan(""); }

/// Which gates an acceptance harness run arms. Harnesses with a
/// wall-clock ratio take `[identity|timing]` as their one argument (none
/// runs both); the two halves are separate ctest entries, so a slow host
/// fails only the timing one.
struct Gates {
  bool identity = true;
  bool timing = true;
};

/// Parses the optional `identity` / `timing` argument; nullopt, after a
/// usage line on stderr, for anything else.
inline std::optional<Gates> ParseGates(int argc, char** argv) {
  const std::string arg = argc > 1 ? argv[1] : "";
  if (argc > 2 || (argc == 2 && arg != "identity" && arg != "timing")) {
    std::fprintf(stderr, "usage: %s [identity|timing]\n", argv[0]);
    return std::nullopt;
  }
  return Gates{arg != "timing", arg != "identity"};
}

/// Machine-readable timing log. Each harness constructs one with its
/// artifact name ("fig9", "sweep_engine", ...) and Record()s one entry per
/// (method, problem size, threads) timing; destruction writes
/// `BENCH_<name>.json` so CI can diff perf across PRs without scraping
/// stdout. The file lands in the directory named by the
/// NETBONE_BENCH_JSON_DIR environment variable (default: the working
/// directory); NETBONE_BENCH_JSON=0 disables writing entirely.
class JsonBenchLog {
 public:
  explicit JsonBenchLog(std::string name) : name_(std::move(name)) {}

  JsonBenchLog(const JsonBenchLog&) = delete;
  JsonBenchLog& operator=(const JsonBenchLog&) = delete;

  ~JsonBenchLog() { Flush(); }

  /// Appends one timing record. `n` is the problem size (edges, nodes —
  /// whatever the harness sweeps); NaN timings are recorded as null.
  /// `p95_ns` is optional: when given (non-NaN), the record carries a
  /// "p95_ns" field and bench/compare_bench_json.py gates tail-latency
  /// regressions on it alongside the median.
  void Record(const std::string& method, int64_t n, int threads,
              double median_ns, double min_ns, double p95_ns = NaN()) {
    records_.push_back(Entry{method, n, threads, median_ns, min_ns,
                             p95_ns, nullptr});
  }

  /// Which way a figure improves.
  enum class Better { kLower, kHigher };

  /// Appends one record of a figure that is not a time — a ratio, a share
  /// — as both its median and min, marked with the direction in which it
  /// improves. The record carries "better": "higher" or "lower", which
  /// bench/compare_bench_json.py honours; records without it are times,
  /// lower is better.
  void RecordFigure(const std::string& method, int64_t n, int threads,
                    double value, Better better) {
    records_.push_back(Entry{method, n, threads, value, value, NaN(),
                             better == Better::kHigher ? "higher" : "lower"});
  }

  /// Seconds-flavored convenience for harnesses that time with Timer.
  void RecordSeconds(const std::string& method, int64_t n, int threads,
                     double median_s, double min_s) {
    Record(method, n, threads, median_s * 1e9, min_s * 1e9);
  }

  /// Writes the file now (idempotent; a second call rewrites it).
  void Flush() {
    const char* toggle = std::getenv("NETBONE_BENCH_JSON");
    if (toggle != nullptr && std::string(toggle) == "0") return;
    if (records_.empty()) return;
    const char* dir = std::getenv("NETBONE_BENCH_JSON_DIR");
    const std::string path = (dir != nullptr && *dir != '\0')
                                 ? std::string(dir) + "/BENCH_" + name_ +
                                       ".json"
                                 : "BENCH_" + name_ + ".json";
    std::FILE* out = std::fopen(path.c_str(), "w");
    if (out == nullptr) return;
    std::fprintf(out, "{\n  \"bench\": \"%s\",\n  \"records\": [\n",
                 name_.c_str());
    for (size_t i = 0; i < records_.size(); ++i) {
      const Entry& e = records_[i];
      // p95_ns is emitted only when recorded, so older tooling that
      // expects exactly the median/min schema keeps parsing untouched
      // files byte-identically.
      std::string extra;
      if (e.p95_ns == e.p95_ns) {
        extra = ", \"p95_ns\": " + JsonNumber(e.p95_ns);
      }
      if (e.better != nullptr) {
        extra += std::string(", \"better\": \"") + e.better + "\"";
      }
      std::fprintf(out,
                   "    {\"method\": \"%s\", \"n\": %lld, \"threads\": %d, "
                   "\"median_ns\": %s, \"min_ns\": %s%s}%s\n",
                   JsonEscape(e.method).c_str(),
                   static_cast<long long>(e.n), e.threads,
                   JsonNumber(e.median_ns).c_str(),
                   JsonNumber(e.min_ns).c_str(), extra.c_str(),
                   i + 1 < records_.size() ? "," : "");
    }
    std::fprintf(out, "  ]\n}\n");
    std::fclose(out);
  }

 private:
  struct Entry {
    std::string method;
    int64_t n;
    int threads;
    double median_ns;
    double min_ns;
    double p95_ns;  ///< NaN = not recorded (field omitted from JSON)
    const char* better;  ///< "higher"/"lower", or nullptr for a time
  };

  static std::string JsonNumber(double value) {
    if (value != value) return "null";  // NaN sentinel -> JSON null
    char buffer[64];
    std::snprintf(buffer, sizeof(buffer), "%.1f", value);
    return buffer;
  }

  static std::string JsonEscape(const std::string& s) {
    std::string out;
    out.reserve(s.size());
    for (const char c : s) {
      if (c == '"' || c == '\\') out.push_back('\\');
      if (static_cast<unsigned char>(c) >= 0x20) out.push_back(c);
    }
    return out;
  }

  std::string name_;
  std::vector<Entry> records_;
};

}  // namespace netbone::bench

#endif  // NETBONE_BENCH_BENCH_COMMON_H_
