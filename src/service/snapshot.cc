// Copyright 2026 The netbone Authors.

#include "service/snapshot.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/checksum.h"
#include "common/serialize.h"
#include "core/serialize.h"
#include "graph/codec.h"
#include "graph/delta.h"
#include "service/fault_injection.h"

namespace netbone {
namespace {

// "netbsnap" as little-endian bytes; rejects every non-snapshot file up
// front without guessing at sections.
constexpr uint64_t kSnapshotMagic = 0x70616E736274656EULL;
// Version 3: score-entry sections no longer carry the sweep profile; a
// restored entry builds it from its validated order on first use, like a
// fresh one. (Version 2 keyed graphs by the summed fingerprint,
// service/graph_store.h.)
constexpr uint32_t kSnapshotVersion = 3;
// Written as a u64; a foreign-endian reader sees the bytes reversed and
// rejects the file as NotSupported instead of decoding garbage.
constexpr uint64_t kEndianTag = 0x0102030405060708ULL;

constexpr size_t kFileHeaderBytes = 24;
constexpr size_t kSectionHeaderBytes = 32;

enum class SectionType : uint32_t {
  kGraph = 1,
  kScoreEntry = 2,
  kLineage = 3,
  kFooter = 4,
};

static_assert(sizeof(EdgeWeightChange) ==
                  2 * sizeof(EdgeId) + 2 * sizeof(double),
              "EdgeWeightChange must be padding-free for the PodVec path");

// ---------------------------------------------------------------------------
// Section payload codecs.
// ---------------------------------------------------------------------------

void EncodeGraphSection(uint64_t fingerprint, bool resident,
                        const Graph& graph, ByteWriter* writer) {
  writer->U64(fingerprint);
  writer->U32(resident ? 1u : 0u);
  EncodeGraph(graph, writer);
}

void EncodeScoreEntrySection(const ScoreKey& key, const CachedScore& entry,
                             ByteWriter* writer) {
  writer->U64(key.graph);
  writer->U32(static_cast<uint32_t>(key.method));
  writer->I64(key.options.hss_max_cost);
  writer->I64(key.options.hss_source_sample_size);
  writer->U64(key.options.hss_sample_seed);
  EncodeScoredEdges(entry.scored(), writer);
  EncodeScoreOrder(entry.order(), writer);
  const CachedScore::DeltaProvenance* provenance = entry.delta_provenance();
  writer->U32(provenance != nullptr ? 1u : 0u);
  if (provenance != nullptr) {
    writer->U64(provenance->base_fingerprint);
    writer->I64(provenance->dirty_edges);
    writer->I64(provenance->total_edges);
  }
}

void EncodeLineageSection(uint64_t child, const ScoreCache::Lineage& record,
                          ByteWriter* writer) {
  writer->U64(child);
  writer->U64(record.parent);
  writer->U32(record.delta != nullptr ? 1u : 0u);
  if (record.delta != nullptr) {
    const GraphDelta& delta = *record.delta;
    writer->PodVec(delta.changed);
    writer->PodVec(delta.inserted);
    writer->PodVec(delta.deleted);
    writer->PodVec(delta.changed_nodes);
    writer->PodVec(delta.star_edges);
    writer->U32(delta.totals_equal ? 1u : 0u);
    writer->I64(delta.base_edges);
    writer->I64(delta.next_edges);
  }
}

Result<std::pair<uint64_t, ScoreCache::Lineage>> DecodeLineageSection(
    ByteReader* reader) {
  NETBONE_ASSIGN_OR_RETURN(const uint64_t child, reader->U64());
  ScoreCache::Lineage record;
  NETBONE_ASSIGN_OR_RETURN(record.parent, reader->U64());
  NETBONE_ASSIGN_OR_RETURN(const uint32_t has_delta, reader->U32());
  if (has_delta > 1) return Status::Corruption("bad lineage delta flag");
  if (has_delta == 1) {
    auto delta = std::make_shared<GraphDelta>();
    NETBONE_ASSIGN_OR_RETURN(delta->changed,
                             reader->PodVec<EdgeWeightChange>());
    NETBONE_ASSIGN_OR_RETURN(delta->inserted, reader->PodVec<EdgeId>());
    NETBONE_ASSIGN_OR_RETURN(delta->deleted, reader->PodVec<EdgeId>());
    NETBONE_ASSIGN_OR_RETURN(delta->changed_nodes, reader->PodVec<NodeId>());
    NETBONE_ASSIGN_OR_RETURN(delta->star_edges, reader->PodVec<EdgeId>());
    NETBONE_ASSIGN_OR_RETURN(const uint32_t totals_equal, reader->U32());
    if (totals_equal > 1) return Status::Corruption("bad totals flag");
    delta->totals_equal = totals_equal == 1;
    NETBONE_ASSIGN_OR_RETURN(delta->base_edges, reader->I64());
    NETBONE_ASSIGN_OR_RETURN(delta->next_edges, reader->I64());
    record.delta = std::move(delta);
  }
  return std::make_pair(child, std::move(record));
}

// ---------------------------------------------------------------------------
// Section framing.
// ---------------------------------------------------------------------------

void AppendSection(SectionType type, const std::string& payload,
                   ByteWriter* out) {
  ByteWriter header;
  header.U32(static_cast<uint32_t>(type));
  header.U32(0);  // reserved
  header.U64(static_cast<uint64_t>(payload.size()));
  header.U64(Checksum64(payload.data(), payload.size()));
  header.U64(Checksum64(header.buffer().data(), header.size()));
  out->Raw(header.buffer().data(), header.size());
  out->Raw(payload.data(), payload.size());
}

struct SectionView {
  SectionType type = SectionType::kFooter;
  std::span<const unsigned char> payload;
};

// Reads one section at `pos`. Returns:
//  * a SectionView when header + payload authenticate,
//  * a Status explaining the failure otherwise; `fatal` is set when the
//    header itself cannot be trusted, so the walk must stop (the
//    remaining bytes cannot be located).
Result<SectionView> ReadSection(std::span<const unsigned char> file,
                                size_t* pos, bool* fatal) {
  *fatal = false;
  const size_t remaining = file.size() - *pos;
  if (remaining < kSectionHeaderBytes) {
    *fatal = true;
    return Status::Corruption("torn section header at file tail");
  }
  const unsigned char* header = file.data() + *pos;
  uint64_t header_hash;
  std::memcpy(&header_hash, header + 24, sizeof(header_hash));
  if (Checksum64(header, 24) != header_hash) {
    *fatal = true;
    return Status::Corruption("section header checksum mismatch");
  }
  uint32_t type_raw;
  uint64_t payload_len, payload_hash;
  std::memcpy(&type_raw, header, sizeof(type_raw));
  std::memcpy(&payload_len, header + 8, sizeof(payload_len));
  std::memcpy(&payload_hash, header + 16, sizeof(payload_hash));
  if (type_raw < static_cast<uint32_t>(SectionType::kGraph) ||
      type_raw > static_cast<uint32_t>(SectionType::kFooter)) {
    // The header authenticated, so this is a writer/reader version skew,
    // not bit rot; skip the section if its payload is all there.
    if (payload_len > remaining - kSectionHeaderBytes) {
      *fatal = true;
      return Status::Corruption("unknown section type with torn payload");
    }
    *pos += kSectionHeaderBytes + static_cast<size_t>(payload_len);
    return Status::NotSupported("unknown section type " +
                                std::to_string(type_raw));
  }
  if (payload_len > remaining - kSectionHeaderBytes) {
    *fatal = true;
    return Status::Corruption("section payload overruns file");
  }
  const std::span<const unsigned char> payload =
      file.subspan(*pos + kSectionHeaderBytes,
                   static_cast<size_t>(payload_len));
  *pos += kSectionHeaderBytes + static_cast<size_t>(payload_len);
  if (Checksum64(payload.data(), payload.size()) != payload_hash) {
    // Length came from an authenticated header: skip just this section.
    return Status::Corruption("section payload checksum mismatch");
  }
  return SectionView{static_cast<SectionType>(type_raw), payload};
}

// ---------------------------------------------------------------------------
// POSIX plumbing.
// ---------------------------------------------------------------------------

Status WriteFileDurably(const std::string& path, const std::string& bytes) {
  const std::string tmp = path + ".tmp";
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    return Status::IOError("open " + tmp + ": " + std::strerror(errno));
  }
  size_t written = 0;
  while (written < bytes.size()) {
    const ssize_t n =
        ::write(fd, bytes.data() + written, bytes.size() - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      const std::string err = std::strerror(errno);
      ::close(fd);
      ::unlink(tmp.c_str());
      return Status::IOError("write " + tmp + ": " + err);
    }
    written += static_cast<size_t>(n);
  }
  if (::fsync(fd) != 0) {
    const std::string err = std::strerror(errno);
    ::close(fd);
    ::unlink(tmp.c_str());
    return Status::IOError("fsync " + tmp + ": " + err);
  }
  if (::close(fd) != 0) {
    const std::string err = std::strerror(errno);
    ::unlink(tmp.c_str());
    return Status::IOError("close " + tmp + ": " + err);
  }
  // Fault site: the process dies after the temp file is durable but
  // before the rename publishes it — the torn-publish window the atomic
  // protocol exists for. The temp file is left behind, exactly as a real
  // kill would leave it; the committed snapshot must still be the old
  // one.
  if (InjectFault(FaultSite::kSnapshotRenameKill)) {
    return Status::IOError("injected kill before snapshot rename");
  }
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    const std::string err = std::strerror(errno);
    ::unlink(tmp.c_str());
    return Status::IOError("rename " + tmp + ": " + err);
  }
  // fsync the directory so the rename itself is durable. Failure here is
  // reported, but the rename already happened — the snapshot is visible,
  // just not guaranteed durable across power loss.
  const size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos
                              ? std::string(".")
                              : path.substr(0, slash == 0 ? 1 : slash);
  const int dir_fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (dir_fd < 0) {
    return Status::IOError("open dir " + dir + ": " + std::strerror(errno));
  }
  const int rc = ::fsync(dir_fd);
  const int fsync_errno = errno;
  ::close(dir_fd);
  if (rc != 0) {
    return Status::IOError("fsync dir " + dir + ": " +
                           std::strerror(fsync_errno));
  }
  return Status::OK();
}

Result<std::vector<unsigned char>> ReadFileFully(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    if (errno == ENOENT) {
      return Status::NotFound("no snapshot at " + path);
    }
    return Status::IOError("open " + path + ": " + std::strerror(errno));
  }
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    const std::string err = std::strerror(errno);
    ::close(fd);
    return Status::IOError("stat " + path + ": " + err);
  }
  std::vector<unsigned char> bytes(static_cast<size_t>(st.st_size));
  size_t got = 0;
  while (got < bytes.size()) {
    const ssize_t n = ::read(fd, bytes.data() + got, bytes.size() - got);
    if (n < 0) {
      if (errno == EINTR) continue;
      const std::string err = std::strerror(errno);
      ::close(fd);
      return Status::IOError("read " + path + ": " + err);
    }
    if (n == 0) break;  // racing truncation: keep what we got
    got += static_cast<size_t>(n);
  }
  ::close(fd);
  bytes.resize(got);
  // Fault site: a short read (torn page, truncated volume) hands the
  // restore path half the file; the salvage walk must keep the intact
  // prefix and never crash.
  if (InjectFault(FaultSite::kSnapshotShortRead)) {
    bytes.resize(bytes.size() / 2);
  }
  return bytes;
}

}  // namespace

std::string SnapshotFilePath(const std::string& snapshot_dir) {
  if (snapshot_dir.empty()) return "netbone.snapshot";
  if (snapshot_dir.back() == '/') return snapshot_dir + "netbone.snapshot";
  return snapshot_dir + "/netbone.snapshot";
}

namespace internal {

struct SnapshotStoreAccess {
  /// Interns a decoded graph under the fingerprint restore has just
  /// checked it against, without hashing it a second time.
  static StoredGraph Intern(GraphStore* store, Graph graph,
                            uint64_t fingerprint) {
    return store->Adopt(std::move(graph), fingerprint).first;
  }
};

}  // namespace internal

namespace {

// Serializes the snapshot image (header + sections + footer) for `store`
// + `cache` into a byte string.
std::string BuildSnapshotImage(const GraphStore& store,
                               const ScoreCache& cache,
                               SnapshotWriteStats* stats) {
  ByteWriter file;
  file.U64(kSnapshotMagic);
  file.U32(kSnapshotVersion);
  file.U32(0);  // reserved
  file.U64(kEndianTag);

  uint64_t section_count = 0;
  const auto emit = [&](SectionType type, const std::string& payload) {
    AppendSection(type, payload, &file);
    ++section_count;
  };

  // Graphs first (restore needs them before the entries), LRU-first so a
  // re-Intern replay reproduces recency. Entries can outlive a GraphStore
  // eviction, so any entry graph missing from the store rides along as a
  // non-resident section: restorable entries never dangle.
  const std::vector<StoredGraph> residents = store.ResidentGraphs();
  const auto entries = cache.Entries();
  std::unordered_map<uint64_t, bool> written_graphs;
  for (const StoredGraph& resident : residents) {
    ByteWriter payload;
    EncodeGraphSection(resident.fingerprint, /*resident=*/true,
                       *resident.graph, &payload);
    emit(SectionType::kGraph, payload.buffer());
    written_graphs.emplace(resident.fingerprint, true);
    ++stats->graphs;
  }
  for (const auto& [key, entry] : entries) {
    if (written_graphs.emplace(key.graph, false).second) {
      ByteWriter payload;
      EncodeGraphSection(key.graph, /*resident=*/false, entry->graph(),
                         &payload);
      emit(SectionType::kGraph, payload.buffer());
      ++stats->graphs;
    }
  }

  for (const auto& [key, entry] : entries) {
    ByteWriter payload;
    EncodeScoreEntrySection(key, *entry, &payload);
    emit(SectionType::kScoreEntry, payload.buffer());
    ++stats->entries;
  }

  for (const auto& [child, record] : cache.LineageEntries()) {
    ByteWriter payload;
    EncodeLineageSection(child, record, &payload);
    emit(SectionType::kLineage, payload.buffer());
    ++stats->lineage;
  }

  // The commit marker: restore treats a snapshot without a consistent
  // footer as torn and reports committed=false.
  ByteWriter footer;
  footer.U64(section_count);
  emit(SectionType::kFooter, footer.buffer());

  stats->bytes = static_cast<int64_t>(file.size());
  return file.buffer();
}

// The salvage walk over an in-memory snapshot image: RestoreSnapshot's
// body once the file is read.
Result<SnapshotRestoreReport> RestoreFromImage(
    std::span<const unsigned char> file, GraphStore* store,
    ScoreCache* cache) {
  if (file.size() < kFileHeaderBytes) {
    return Status::Corruption("snapshot too short for a header");
  }
  ByteReader header(file.subspan(0, kFileHeaderBytes));
  const uint64_t magic = *header.U64();
  const uint32_t version = *header.U32();
  header.U32().value();  // reserved
  const uint64_t endian = *header.U64();
  if (magic != kSnapshotMagic) {
    if (magic == __builtin_bswap64(kSnapshotMagic)) {
      return Status::NotSupported(
          "snapshot written on a foreign-endian host");
    }
    return Status::Corruption("bad snapshot magic");
  }
  if (endian != kEndianTag) {
    return Status::NotSupported("snapshot written on a foreign-endian host");
  }
  if (version != kSnapshotVersion) {
    return Status::NotSupported("snapshot version " +
                                std::to_string(version) +
                                " (reader speaks " +
                                std::to_string(kSnapshotVersion) + ")");
  }

  SnapshotRestoreReport report;
  const auto quarantine = [&report](Status status) {
    ++report.sections_quarantined;
    if (report.first_error.ok()) report.first_error = std::move(status);
  };

  // Local graph map, independent of the store: restoring an entry must
  // not depend on the store's budget keeping its graph resident, and
  // non-resident graph sections never enter the store at all.
  std::unordered_map<uint64_t, std::shared_ptr<const Graph>> graphs;
  uint64_t sections_walked = 0;   // authenticated and dispatched
  uint64_t sections_skipped = 0;  // located but quarantined in place
  size_t pos = kFileHeaderBytes;
  bool saw_footer = false;
  while (pos < file.size() && !saw_footer) {
    bool fatal = false;
    Result<SectionView> section = ReadSection(file, &pos, &fatal);
    if (!section.ok()) {
      quarantine(section.status());
      if (fatal) break;
      // Authenticated header, bad payload: skip and carry on. Still a
      // located section for the footer's count.
      ++sections_skipped;
      continue;
    }
    ++sections_walked;
    ByteReader reader(section->payload);
    switch (section->type) {
      case SectionType::kGraph: {
        const auto decode = [&]() -> Status {
          NETBONE_ASSIGN_OR_RETURN(const uint64_t fingerprint,
                                   reader.U64());
          NETBONE_ASSIGN_OR_RETURN(const uint32_t resident, reader.U32());
          if (resident > 1) return Status::Corruption("bad resident flag");
          NETBONE_ASSIGN_OR_RETURN(Graph graph, DecodeGraph(&reader));
          if (GraphFingerprint(graph) != fingerprint) {
            return Status::Corruption(
                "graph content does not match its fingerprint");
          }
          if (resident == 1) {
            const StoredGraph stored = internal::SnapshotStoreAccess::Intern(
                store, std::move(graph), fingerprint);
            graphs.emplace(fingerprint, stored.graph);
          } else {
            graphs.emplace(fingerprint, std::make_shared<const Graph>(
                                            std::move(graph)));
          }
          ++report.graphs_restored;
          return Status::OK();
        };
        Status status = decode();
        if (!status.ok()) quarantine(std::move(status));
        break;
      }
      case SectionType::kScoreEntry: {
        const auto decode = [&]() -> Status {
          ScoreKey key;
          NETBONE_ASSIGN_OR_RETURN(key.graph, reader.U64());
          NETBONE_ASSIGN_OR_RETURN(const uint32_t method_raw, reader.U32());
          if (method_raw > static_cast<uint32_t>(Method::kKCore)) {
            return Status::Corruption("unknown method in score entry");
          }
          key.method = static_cast<Method>(method_raw);
          NETBONE_ASSIGN_OR_RETURN(key.options.hss_max_cost, reader.I64());
          NETBONE_ASSIGN_OR_RETURN(key.options.hss_source_sample_size,
                                   reader.I64());
          NETBONE_ASSIGN_OR_RETURN(key.options.hss_sample_seed,
                                   reader.U64());
          const auto graph_it = graphs.find(key.graph);
          if (graph_it == graphs.end()) {
            // Its graph section was quarantined (or missing): this entry
            // cannot be authenticated against a graph, so it goes too.
            return Status::Corruption(
                "score entry references a quarantined graph");
          }
          const std::shared_ptr<const Graph>& graph = graph_it->second;
          NETBONE_ASSIGN_OR_RETURN(
              ScoredEdges scored, DecodeScoredEdges(&reader, graph.get()));
          NETBONE_ASSIGN_OR_RETURN(std::vector<EdgeId> order_ids,
                                   reader.PodVec<EdgeId>());
          NETBONE_ASSIGN_OR_RETURN(const uint32_t has_provenance,
                                   reader.U32());
          if (has_provenance > 1) {
            return Status::Corruption("bad provenance flag");
          }
          std::optional<CachedScore::DeltaProvenance> provenance;
          if (has_provenance == 1) {
            CachedScore::DeltaProvenance p;
            NETBONE_ASSIGN_OR_RETURN(p.base_fingerprint, reader.U64());
            NETBONE_ASSIGN_OR_RETURN(p.dirty_edges, reader.I64());
            NETBONE_ASSIGN_OR_RETURN(p.total_edges, reader.I64());
            provenance = p;
          }
          NETBONE_ASSIGN_OR_RETURN(
              std::shared_ptr<const CachedScore> entry,
              CachedScore::Restore(graph, std::move(scored),
                                   std::move(order_ids),
                                   std::move(provenance)));
          cache->Put(key, std::move(entry));
          ++report.entries_restored;
          return Status::OK();
        };
        Status status = decode();
        if (!status.ok()) quarantine(std::move(status));
        break;
      }
      case SectionType::kLineage: {
        Result<std::pair<uint64_t, ScoreCache::Lineage>> lineage =
            DecodeLineageSection(&reader);
        if (!lineage.ok()) {
          quarantine(lineage.status());
          break;
        }
        cache->RegisterLineage(lineage->first, lineage->second.parent,
                               lineage->second.delta);
        ++report.lineage_restored;
        break;
      }
      case SectionType::kFooter: {
        Result<uint64_t> count = reader.U64();
        if (!count.ok()) {
          quarantine(count.status());
        } else if (*count != sections_walked - 1 + sections_skipped) {
          // The footer is intact but disagrees with the sections the walk
          // located — mixed generations or spliced files. Keep the
          // salvage, report the snapshot as not cleanly committed.
          quarantine(Status::Corruption(
              "footer section count does not match walk"));
        } else {
          report.committed = true;
        }
        saw_footer = true;
        break;
      }
    }
  }
  if (!saw_footer && report.first_error.ok()) {
    report.first_error =
        Status::Corruption("snapshot has no commit footer (torn write)");
  }
  return report;
}

}  // namespace

Result<SnapshotWriteStats> WriteSnapshot(const std::string& path,
                                         const GraphStore& store,
                                         const ScoreCache& cache) {
  // Fault site: the write fails wholesale (full disk, yanked volume).
  // Checked up front so a chaos run pays no serialization cost for it.
  if (InjectFault(FaultSite::kSnapshotWriteFailure)) {
    return Status::IOError("injected snapshot write failure");
  }
  SnapshotWriteStats stats;
  const std::string image = BuildSnapshotImage(store, cache, &stats);
  NETBONE_RETURN_IF_ERROR(WriteFileDurably(path, image));
  return stats;
}

Result<SnapshotRestoreReport> RestoreSnapshot(const std::string& path,
                                              GraphStore* store,
                                              ScoreCache* cache) {
  NETBONE_ASSIGN_OR_RETURN(const std::vector<unsigned char> bytes,
                           ReadFileFully(path));
  return RestoreFromImage(std::span<const unsigned char>(bytes), store,
                          cache);
}

}  // namespace netbone
