// Copyright 2026 The netbone Authors.
//
// Crash-safe snapshot/restore of the serving state: the GraphStore's
// resident graphs plus every ScoreCache entry (ScoredEdges + ScoreOrder +
// delta provenance, keyed by the run-stable (GraphFingerprint, method,
// ScoreOptions)) and the lineage map. A restarted engine that restores a
// snapshot serves the same requests bit-identically with zero rescores
// and zero sorts — the difference between a cache and a database. The
// sweep profile is not persisted: it is one linear pass over the order,
// so a restored entry builds it on first use, exactly as a fresh entry
// does (CachedScore::profile), and a snapshot write builds none.
//
// File format (all scalars little-endian; the header tags byte order):
//
//   FileHeader  { magic u64, version u32, reserved u32, endian u64 }
//   Section*    { type u32, reserved u32, payload_len u64,
//                 payload_hash u64, header_hash u64 } payload[payload_len]
//   ...the last section is a kFooter — the commit marker.
//
// Every section header carries two XXH64 digests: header_hash
// authenticates the header's own first 24 bytes (so a corrupted length
// cannot send the walk off the rails) and payload_hash authenticates the
// payload. Sections are self-delimiting, so restore is a linear walk that
// classifies each section independently:
//
//   * bad header hash / truncated header or payload -> the remaining
//     bytes cannot be located: quarantine and stop (salvage the prefix);
//   * bad payload hash or a decode failure -> quarantine this section
//     and continue with the next;
//   * a score entry whose graph section was quarantined -> quarantined
//     too (never served against a guessed graph);
//   * footer missing or wrong -> the snapshot was torn mid-publish:
//     everything salvaged so far is kept, committed=false is reported.
//
// Atomicity: WriteSnapshot writes `<path>.tmp`, fsyncs it, renames it
// over `path`, and fsyncs the directory — a crash at any point leaves
// either the old snapshot or the new one, never a mix. The
// kSnapshotWriteFailure / kSnapshotShortRead / kSnapshotRenameKill fault
// sites let the chaos harness exercise mid-write kills and short reads
// deterministically.

#ifndef NETBONE_SERVICE_SNAPSHOT_H_
#define NETBONE_SERVICE_SNAPSHOT_H_

#include <cstdint>
#include <string>

#include "common/result.h"
#include "service/graph_store.h"
#include "service/score_cache.h"

namespace netbone {

/// The snapshot file a directory holds (a single well-known name: the
/// atomic-rename protocol needs a fixed target).
std::string SnapshotFilePath(const std::string& snapshot_dir);

/// What a completed write put on disk.
struct SnapshotWriteStats {
  int64_t graphs = 0;         ///< graph sections written
  int64_t entries = 0;        ///< score-entry sections written
  int64_t lineage = 0;        ///< lineage sections written
  int64_t bytes = 0;          ///< total file size
};

/// Serializes `store` + `cache` to `path` via the temp-file + fsync +
/// rename protocol. On any failure (including injected ones) the previous
/// snapshot at `path` is untouched. IOError for filesystem failures.
Result<SnapshotWriteStats> WriteSnapshot(const std::string& path,
                                         const GraphStore& store,
                                         const ScoreCache& cache);

/// What a restore salvaged, and what it had to quarantine.
struct SnapshotRestoreReport {
  int64_t graphs_restored = 0;
  int64_t entries_restored = 0;
  int64_t lineage_restored = 0;
  int64_t sections_quarantined = 0;
  /// True when the commit footer was present and consistent; false means
  /// the file was torn and only an intact prefix was salvaged.
  bool committed = false;
  /// The first per-section failure encountered (OK when none) — kept for
  /// operator visibility; quarantined sections never fail the restore.
  Status first_error;
};

/// Restores a snapshot into `store` and `cache`, salvaging every intact
/// section and quarantining the rest (see the format notes above). Hard
/// failures — the only ones that return a non-OK Result — are a missing
/// file (NotFound), an unreadable file (IOError), a file too short to
/// hold a header or with a wrong magic (Corruption), and a version or
/// endianness mismatch (NotSupported). Everything else is a salvage:
/// the Result is OK and the report says what was kept.
Result<SnapshotRestoreReport> RestoreSnapshot(const std::string& path,
                                              GraphStore* store,
                                              ScoreCache* cache);

}  // namespace netbone

#endif  // NETBONE_SERVICE_SNAPSHOT_H_
