// Acceptance harness for crash-safe persistence (src/service/snapshot.h):
// a warm-restarted engine must serve the recorded trace bit-identically
// with ZERO rescores and ZERO sorts, and a corrupted snapshot must
// degrade to a cold start for the damaged sections — never a crash,
// never a wrong bit.
//
// Contract being demonstrated (and enforced — the process exits non-zero
// on any violation):
//   * phase A records a mixed trace (3 graphs x {NC, DF, NT} x
//     {TopShare, TopK, CoveragePoint, Sweep}) against an engine with a
//     snapshot_dir, then snapshots explicitly;
//   * phase B boots a second engine on the same directory: every cache
//     entry restores (quarantined_sections == 0), the full trace replays
//     bit-identically with scores_computed == 0 and
//     ScoreOrder::SortsPerformed() unchanged, and every response is a
//     cache hit;
//   * phase C corrupts the snapshot deterministically (truncation to
//     60%, a bit flip mid-file) and boots engines on the damage: restore
//     salvages what it can, quarantines the rest, and the replayed trace
//     is STILL bit-identical — the quarantined keys just pay a cold
//     rescore instead of crashing or serving garbage.
//
// Restore throughput (entries/s and bytes/s over repeated RestoreSnapshot
// calls into fresh stores) lands in BENCH_warm_restart.json.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "common/timer.h"
#include "core/registry.h"
#include "core/sweep.h"
#include "gen/erdos_renyi.h"
#include "service/engine.h"
#include "service/snapshot.h"
#include "stats/descriptive.h"

namespace nb = netbone;
namespace fs = std::filesystem;
using netbone::bench::Banner;
using netbone::bench::Num;
using netbone::bench::PrintRow;

namespace {

/// Field-exact response comparison (BackboneResponse has no operator==;
/// cache_hit/degraded are provenance, not payload, so they are excluded).
bool SamePayload(const nb::BackboneResponse& a,
                 const nb::BackboneResponse& b) {
  return a.kept_edges == b.kept_edges && a.kept == b.kept &&
         a.coverage == b.coverage && a.weight_share == b.weight_share &&
         a.sweep == b.sweep && a.connect_k == b.connect_k &&
         a.stability == b.stability;
}

/// The recorded trace: every (graph, method) pair exercised through every
/// warm-servable request kind.
std::vector<nb::BackboneRequest> BuildTrace(
    const std::vector<uint64_t>& fingerprints) {
  const std::vector<nb::Method> methods = {nb::Method::kNoiseCorrected,
                                           nb::Method::kDisparityFilter,
                                           nb::Method::kNaiveThreshold};
  std::vector<nb::BackboneRequest> trace;
  for (const uint64_t fingerprint : fingerprints) {
    for (const nb::Method method : methods) {
      nb::BackboneRequest share;
      share.graph = fingerprint;
      share.method = method;
      share.kind = nb::RequestKind::kTopShare;
      share.share = 0.25;
      trace.push_back(share);

      nb::BackboneRequest topk = share;
      topk.kind = nb::RequestKind::kTopK;
      topk.k = 150;
      trace.push_back(topk);

      nb::BackboneRequest point = share;
      point.kind = nb::RequestKind::kCoveragePoint;
      point.share = 0.4;
      trace.push_back(point);

      nb::BackboneRequest sweep = share;
      sweep.kind = nb::RequestKind::kSweep;
      sweep.shares = {0.1, 0.3, 0.5, 0.8};
      trace.push_back(sweep);
    }
  }
  return trace;
}

/// Runs the trace, appending each response; false on any request failure.
bool RunTrace(nb::BackboneEngine& engine,
              const std::vector<nb::BackboneRequest>& trace,
              std::vector<nb::BackboneResponse>* out) {
  bool ok = true;
  for (const nb::BackboneRequest& request : trace) {
    auto response = engine.Execute(request);
    if (!response.ok()) {
      std::printf("  request failed: %s\n",
                  response.status().message().c_str());
      ok = false;
      out->emplace_back();
      continue;
    }
    out->push_back(*std::move(response));
  }
  return ok;
}

std::vector<unsigned char> ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<unsigned char>(std::istreambuf_iterator<char>(in),
                                    std::istreambuf_iterator<char>());
}

void WriteFileBytes(const std::string& path,
                    const std::vector<unsigned char>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

}  // namespace

int main() {
  Banner("warm restart",
         "snapshot/restore: bit-identical serving, zero rescores, "
         "corruption-tolerant boot");
  const bool quick = netbone::bench::QuickMode();
  netbone::bench::JsonBenchLog json("warm_restart");
  bool ok = true;

  const fs::path root =
      fs::temp_directory_path() / "netbone_warm_restart_bench";
  std::error_code ec;
  fs::remove_all(root, ec);
  fs::create_directories(root / "live");

  // Three graphs of different sizes/seeds so the snapshot holds multiple
  // graph sections and a dozen-plus score entries.
  const int base_nodes = quick ? 400 : 1500;
  std::vector<uint64_t> fingerprints;
  std::vector<nb::Graph> graphs;
  for (int i = 0; i < 3; ++i) {
    auto graph = nb::GenerateErdosRenyi({.num_nodes = base_nodes + 200 * i,
                                         .average_degree = 3.0,
                                         .seed = 90u + static_cast<uint64_t>(i)});
    if (!graph.ok()) return 1;
    graphs.push_back(*std::move(graph));
  }

  // ---- Phase A: record the trace against a snapshotting engine. -------
  std::vector<nb::BackboneRequest> trace;
  std::vector<nb::BackboneResponse> reference;
  {
    nb::BackboneEngineOptions options;
    options.snapshot_dir = (root / "live").string();
    options.snapshot_on_shutdown = false;  // the explicit write below
    nb::BackboneEngine engine(options);
    for (const nb::Graph& graph : graphs) {
      fingerprints.push_back(engine.AddGraph(graph));
    }
    trace = BuildTrace(fingerprints);
    if (!RunTrace(engine, trace, &reference)) ok = false;
    const nb::Status wrote = engine.WriteSnapshotNow();
    if (!wrote.ok()) {
      std::printf("snapshot write failed: %s\n", wrote.message().c_str());
      ok = false;
    }
    std::printf("phase A: %zu requests recorded, %lld scores computed\n",
                trace.size(),
                static_cast<long long>(
                    engine.Metrics().ValueOf("engine.scores_computed")));
  }
  const std::string live_path = nb::SnapshotFilePath((root / "live").string());
  const std::vector<unsigned char> snapshot_bytes = ReadFileBytes(live_path);
  if (snapshot_bytes.empty()) {
    std::printf("no snapshot written\n");
    return 1;
  }

  // ---- Phase B: warm restart — bit-identity, zero rescores/sorts. -----
  {
    nb::BackboneEngineOptions options;
    options.snapshot_dir = (root / "live").string();
    options.snapshot_on_shutdown = false;
    nb::Timer boot;
    nb::BackboneEngine engine(options);
    const double boot_seconds = boot.ElapsedSeconds();
    const nb::obs::MetricsSnapshot stats = engine.Metrics();
    const int64_t entries = stats.ValueOf("engine.restored_entries");
    const int64_t restored_graphs = stats.ValueOf("engine.restored_graphs");
    if (entries <= 0 || restored_graphs <= 0) {
      std::printf("restore salvaged nothing (entries=%lld graphs=%lld)\n",
                  static_cast<long long>(entries),
                  static_cast<long long>(restored_graphs));
      ok = false;
    }
    const int64_t quarantined = stats.ValueOf("engine.quarantined_sections");
    const int64_t errors = stats.ValueOf("engine.snapshot_restore_errors");
    if (quarantined != 0 || errors != 0) {
      std::printf("clean snapshot quarantined %lld sections, %lld errors\n",
                  static_cast<long long>(quarantined),
                  static_cast<long long>(errors));
      ok = false;
    }

    const int64_t sorts_before = nb::ScoreOrder::SortsPerformed();
    std::vector<nb::BackboneResponse> replay;
    if (!RunTrace(engine, trace, &replay)) ok = false;
    const int64_t rescored =
        engine.Metrics().ValueOf("engine.scores_computed");
    if (rescored != 0) {
      std::printf("warm restart recomputed %lld scores (want 0)\n",
                  static_cast<long long>(rescored));
      ok = false;
    }
    if (nb::ScoreOrder::SortsPerformed() != sorts_before) {
      std::printf("warm restart performed sorts (want 0)\n");
      ok = false;
    }
    size_t mismatches = 0;
    size_t misses = 0;
    for (size_t i = 0; i < replay.size(); ++i) {
      if (!SamePayload(replay[i], reference[i])) ++mismatches;
      if (!replay[i].cache_hit) ++misses;
    }
    if (mismatches != 0 || misses != 0) {
      std::printf("warm replay: %zu mismatched, %zu cache misses (want 0)\n",
                  mismatches, misses);
      ok = false;
    }
    PrintRow({"phase B", "entries", "graphs", "boot ms", "identical"});
    PrintRow({"", std::to_string(entries), std::to_string(restored_graphs),
              Num(boot_seconds * 1e3, 2), mismatches == 0 ? "yes" : "NO"});
  }

  // ---- Restore throughput: repeated RestoreSnapshot into fresh stores.
  {
    const int reps = quick ? 3 : 9;
    std::vector<double> times;
    int64_t entries = 0;
    for (int rep = 0; rep < reps; ++rep) {
      nb::GraphStore store;
      nb::ScoreCache cache(int64_t{256} << 20);
      nb::Timer timer;
      const auto report = nb::RestoreSnapshot(live_path, &store, &cache);
      times.push_back(timer.ElapsedSeconds());
      if (!report.ok() || !report->committed) ok = false;
      if (report.ok()) entries = report->entries_restored;
    }
    const double median = nb::Median(times);
    const double best = *std::min_element(times.begin(), times.end());
    const double mb = static_cast<double>(snapshot_bytes.size()) / 1e6;
    std::printf("\nrestore: %lld entries, %s MB in %s ms median "
                "(%s MB/s)\n",
                static_cast<long long>(entries), Num(mb, 2).c_str(),
                Num(median * 1e3, 2).c_str(),
                Num(mb / median, 1).c_str());
    json.RecordSeconds("restore",
                       static_cast<int64_t>(snapshot_bytes.size()), 1,
                       median, best);
    json.RecordSeconds("restore_per_entry",
                       entries, 1,
                       entries > 0 ? median / static_cast<double>(entries)
                                   : netbone::bench::NaN(),
                       entries > 0 ? best / static_cast<double>(entries)
                                   : netbone::bench::NaN());
  }

  // ---- Phase C: deterministic corruption drills. ----------------------
  // Each drill damages a copy of the snapshot, boots an engine on it, and
  // requires: the engine constructs (no crash), damage is observable in
  // the metrics, and the trace STILL replays bit-identically — quarantined
  // keys pay a cold rescore, nothing serves wrong bits.
  struct Drill {
    const char* name;
    std::vector<unsigned char> bytes;
  };
  std::vector<Drill> drills;
  {
    // Torn write: keep only the first 60% of the file (footer lost).
    std::vector<unsigned char> torn(
        snapshot_bytes.begin(),
        snapshot_bytes.begin() +
            static_cast<ptrdiff_t>(snapshot_bytes.size() * 6 / 10));
    drills.push_back({"truncated-60pct", std::move(torn)});

    // One flipped bit mid-file: a payload or header hash must catch it.
    std::vector<unsigned char> flipped = snapshot_bytes;
    flipped[flipped.size() / 2] ^= 0x40;
    drills.push_back({"bitflip-midfile", std::move(flipped)});
  }

  PrintRow({"\nphase C drill", "entries", "quarant.", "rescored",
            "identical"});
  for (const Drill& drill : drills) {
    const fs::path dir = root / drill.name;
    fs::create_directories(dir);
    WriteFileBytes(nb::SnapshotFilePath(dir.string()), drill.bytes);

    nb::BackboneEngineOptions options;
    options.snapshot_dir = dir.string();
    options.snapshot_on_shutdown = false;
    nb::BackboneEngine engine(options);
    const nb::obs::MetricsSnapshot stats = engine.Metrics();
    const int64_t restored = stats.ValueOf("engine.restored_entries");
    const int64_t quarantined = stats.ValueOf("engine.quarantined_sections");
    const bool damage_seen =
        quarantined > 0 ||
        restored < static_cast<int64_t>(trace.size()) / 4 ||
        stats.ValueOf("engine.snapshot_restore_errors") > 0;
    if (!damage_seen) {
      std::printf("%s: damage invisible in metrics\n", drill.name);
      ok = false;
    }

    // Quarantined graphs must be re-interned before replay — exactly what
    // a production boot path does when restore reports missing graphs.
    for (const nb::Graph& graph : graphs) engine.AddGraph(graph);

    std::vector<nb::BackboneResponse> replay;
    if (!RunTrace(engine, trace, &replay)) ok = false;
    size_t mismatches = 0;
    for (size_t i = 0; i < replay.size(); ++i) {
      if (!SamePayload(replay[i], reference[i])) ++mismatches;
    }
    if (mismatches != 0) ok = false;
    PrintRow({drill.name, std::to_string(restored),
              std::to_string(quarantined),
              std::to_string(
                  engine.Metrics().ValueOf("engine.scores_computed")),
              mismatches == 0 ? "yes" : "NO"});
  }

  fs::remove_all(root, ec);
  std::printf("\nwarm-restart gates (restore, zero-rescore, zero-sort, "
              "bit-identity, corruption salvage): %s\n",
              ok ? "PASS" : "FAIL");
  return ok ? 0 : 1;
}
