// Tests for the crash-safe persistence layer: the XXH64 checksum, the
// ByteWriter/ByteReader primitives, the graph and scoring-artifact codecs
// (including ScoreOrder::FromPermutation's O(E) validation), snapshot
// write/restore round trips, the hard-failure taxonomy (bad magic,
// version skew, foreign endianness), a seeded corruption fuzz sweep —
// truncations and bit flips at random offsets must never crash, only
// quarantine — the engine-level warm-restart contract (bit-identical
// responses, zero rescores, zero sorts; snapshots carry no sweep profile,
// so a restored entry builds its own on first hit; an old-format file is
// refused and the engine boots cold), and the three snapshot fault-injection
// sites (write failure, short read, kill-before-rename).

#include "service/snapshot.h"

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <memory>
#include <fstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/checksum.h"
#include "common/random.h"
#include "common/serialize.h"
#include "core/registry.h"
#include "core/serialize.h"
#include "core/sweep.h"
#include "gen/erdos_renyi.h"
#include "graph/builder.h"
#include "graph/codec.h"
#include "graph/graph.h"
#include "service/engine.h"
#include "service/fault_injection.h"
#include "service/graph_store.h"
#include "service/score_cache.h"
#include "metric_value.h"

namespace netbone {
namespace {

namespace fs = std::filesystem;

std::string TempPath(const std::string& name) {
  return (fs::path(::testing::TempDir()) / name).string();
}

std::vector<unsigned char> ReadBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<unsigned char>(std::istreambuf_iterator<char>(in),
                                    std::istreambuf_iterator<char>());
}

void WriteBytes(const std::string& path,
                const std::vector<unsigned char>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

// ---------------------------------------------------------------- XXH64

TEST(ChecksumTest, EmptyInputMatchesReferenceVector) {
  // The canonical XXH64 test vector: XXH64("", seed=0).
  EXPECT_EQ(Checksum64(nullptr, 0), 0xEF46DB3751D8E999ULL);
}

TEST(ChecksumTest, DeterministicAndSensitive) {
  std::vector<unsigned char> data(100);
  for (size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<unsigned char>(i * 7 + 3);
  }
  const uint64_t digest = Checksum64(data.data(), data.size());
  EXPECT_EQ(digest, Checksum64(data.data(), data.size()));

  // Any single flipped bit changes the digest — at every length class
  // (tail-only, one stripe, stripes + tail).
  for (const size_t len : {3UL, 8UL, 15UL, 32UL, 33UL, 100UL}) {
    const uint64_t base = Checksum64(data.data(), len);
    for (size_t i = 0; i < len; ++i) {
      data[i] ^= 0x01;
      EXPECT_NE(Checksum64(data.data(), len), base)
          << "flip at " << i << " len " << len;
      data[i] ^= 0x01;
    }
  }

  // The seed participates.
  EXPECT_NE(Checksum64(data.data(), data.size(), 1), digest);
}

// ---------------------------------------------------- ByteWriter/Reader

TEST(SerializeTest, ScalarAndVectorRoundTrip) {
  ByteWriter writer;
  writer.U32(7);
  writer.U64(0xDEADBEEFCAFEF00DULL);
  writer.I64(-42);
  writer.F64(3.5);
  writer.Str("netbone");
  writer.PodVec(std::vector<double>{1.0, -2.0, 0.25});

  ByteReader reader(writer.buffer().data(), writer.size());
  auto u32 = reader.U32();
  ASSERT_TRUE(u32.ok());
  EXPECT_EQ(*u32, 7u);
  auto u64 = reader.U64();
  ASSERT_TRUE(u64.ok());
  EXPECT_EQ(*u64, 0xDEADBEEFCAFEF00DULL);
  auto i64 = reader.I64();
  ASSERT_TRUE(i64.ok());
  EXPECT_EQ(*i64, -42);
  auto f64 = reader.F64();
  ASSERT_TRUE(f64.ok());
  EXPECT_EQ(*f64, 3.5);
  auto str = reader.Str();
  ASSERT_TRUE(str.ok());
  EXPECT_EQ(*str, "netbone");
  auto vec = reader.PodVec<double>();
  ASSERT_TRUE(vec.ok());
  EXPECT_EQ(*vec, (std::vector<double>{1.0, -2.0, 0.25}));
  EXPECT_TRUE(reader.exhausted());
}

TEST(SerializeTest, UnderflowIsTypedCorruption) {
  ByteWriter writer;
  writer.U32(1);
  ByteReader reader(writer.buffer().data(), writer.size());
  auto u64 = reader.U64();  // asks for 8 bytes of the 4 present
  ASSERT_FALSE(u64.ok());
  EXPECT_EQ(u64.status().code(), Status::Code::kCorruption);

  // A hostile vector length cannot drive an allocation: count is
  // validated against the remaining bytes first.
  ByteWriter bad;
  bad.U64(uint64_t{1} << 60);  // "2^60 elements follow" — they do not
  ByteReader hostile(bad.buffer().data(), bad.size());
  auto vec = hostile.PodVec<double>();
  ASSERT_FALSE(vec.ok());
  EXPECT_EQ(vec.status().code(), Status::Code::kCorruption);
}

// ---------------------------------------------------------- graph codec

Graph SmallLabeledGraph() {
  GraphBuilder builder(Directedness::kUndirected,
                       DuplicateEdgePolicy::kSum, SelfLoopPolicy::kKeep);
  const NodeId a = builder.InternLabel("alpha");
  const NodeId b = builder.InternLabel("beta");
  const NodeId c = builder.InternLabel("gamma");
  builder.AddEdge(a, b, 2.0);
  builder.AddEdge(b, c, 1.5);
  builder.AddEdge(c, c, 0.5);  // self-loop survives the round trip
  auto graph = builder.Build();
  EXPECT_TRUE(graph.ok());
  return *std::move(graph);
}

TEST(GraphCodecTest, RoundTripPreservesFingerprint) {
  const auto er = GenerateErdosRenyi(
      {.num_nodes = 300, .average_degree = 4.0, .seed = 11});
  ASSERT_TRUE(er.ok());
  for (const Graph* graph :
       {&*er, static_cast<const Graph*>(nullptr)}) {
    const Graph source = graph != nullptr ? *graph : SmallLabeledGraph();
    ByteWriter writer;
    EncodeGraph(source, &writer);
    ByteReader reader(writer.buffer().data(), writer.size());
    auto decoded = DecodeGraph(&reader);
    ASSERT_TRUE(decoded.ok()) << decoded.status().message();
    EXPECT_EQ(decoded->num_nodes(), source.num_nodes());
    EXPECT_EQ(decoded->num_edges(), source.num_edges());
    EXPECT_EQ(GraphFingerprint(*decoded), GraphFingerprint(source));
  }
}

TEST(GraphCodecTest, EmptyAndDirectedGraphsRoundTrip) {
  GraphBuilder empty(Directedness::kUndirected);
  auto empty_graph = empty.Build();
  ASSERT_TRUE(empty_graph.ok());

  GraphBuilder directed(Directedness::kDirected);
  directed.ReserveNodes(4);
  directed.AddEdge(0, 1, 1.0);
  directed.AddEdge(1, 0, 2.0);  // both directions are distinct edges
  directed.AddEdge(2, 3, 4.0);
  auto directed_graph = directed.Build();
  ASSERT_TRUE(directed_graph.ok());

  for (const Graph* graph : {&*empty_graph, &*directed_graph}) {
    ByteWriter writer;
    EncodeGraph(*graph, &writer);
    ByteReader reader(writer.buffer().data(), writer.size());
    auto decoded = DecodeGraph(&reader);
    ASSERT_TRUE(decoded.ok()) << decoded.status().message();
    EXPECT_EQ(GraphFingerprint(*decoded), GraphFingerprint(*graph));
    EXPECT_EQ(decoded->directedness(), graph->directedness());
  }
}

TEST(GraphCodecTest, CorruptEndpointIsTypedCorruption) {
  const Graph graph = SmallLabeledGraph();
  ByteWriter writer;
  EncodeGraph(graph, &writer);
  // The edge table sits at the end; smash the final edge's bytes so an
  // endpoint leaves the node range.
  auto bytes = writer.TakeBuffer();
  bytes[bytes.size() - 16] = 0xFF;
  bytes[bytes.size() - 15] = 0xFF;
  bytes[bytes.size() - 14] = 0xFF;
  bytes[bytes.size() - 13] = 0x7F;
  ByteReader reader(bytes.data(), bytes.size());
  auto decoded = DecodeGraph(&reader);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), Status::Code::kCorruption);
}

// ---------------------------------------------------- artifact codecs

struct ScoredFixture {
  /// Heap-held so the ScoredEdges' internal graph pointer stays valid
  /// however the fixture moves.
  std::shared_ptr<Graph> graph;
  ScoredEdges scored;
};

ScoredFixture MakeScored() {
  auto graph = GenerateErdosRenyi(
      {.num_nodes = 200, .average_degree = 4.0, .seed = 21});
  EXPECT_TRUE(graph.ok());
  ScoredFixture fixture{std::make_shared<Graph>(*std::move(graph)), {}};
  auto scored = RunMethod(Method::kNoiseCorrected, *fixture.graph);
  EXPECT_TRUE(scored.ok());
  fixture.scored = *std::move(scored);
  return fixture;
}

TEST(ArtifactCodecTest, ScoredEdgesRoundTripIsBitwise) {
  const ScoredFixture fixture = MakeScored();
  ByteWriter writer;
  EncodeScoredEdges(fixture.scored, &writer);
  ByteReader reader(writer.buffer().data(), writer.size());
  auto decoded = DecodeScoredEdges(&reader, fixture.graph.get());
  ASSERT_TRUE(decoded.ok()) << decoded.status().message();
  EXPECT_EQ(decoded->method(), fixture.scored.method());
  EXPECT_EQ(decoded->has_sdev(), fixture.scored.has_sdev());
  ASSERT_EQ(decoded->size(), fixture.scored.size());
  for (int64_t i = 0; i < decoded->size(); ++i) {
    EXPECT_EQ(decoded->at(i).score, fixture.scored.at(i).score);
    EXPECT_EQ(decoded->at(i).sdev, fixture.scored.at(i).sdev);
  }
}

TEST(ArtifactCodecTest, ScoreOrderRoundTripPerformsNoSort) {
  const ScoredFixture fixture = MakeScored();
  const ScoreOrder order(fixture.scored);  // the one counted sort
  ByteWriter writer;
  EncodeScoreOrder(order, &writer);

  const int64_t sorts_before = ScoreOrder::SortsPerformed();
  ByteReader reader(writer.buffer().data(), writer.size());
  auto decoded = DecodeScoreOrder(&reader, fixture.scored);
  ASSERT_TRUE(decoded.ok()) << decoded.status().message();
  EXPECT_EQ(ScoreOrder::SortsPerformed(), sorts_before);
  ASSERT_EQ(decoded->size(), order.size());
  for (int64_t i = 0; i < order.size(); ++i) {
    EXPECT_EQ(decoded->id_at(i), order.id_at(i));
  }
}

TEST(ArtifactCodecTest, FromPermutationRejectsHostileCandidates) {
  const ScoredFixture fixture = MakeScored();
  const ScoreOrder order(fixture.scored);
  const std::vector<EdgeId> good(order.ids().begin(), order.ids().end());

  // Wrong length.
  std::vector<EdgeId> short_ids(good.begin(), good.end() - 1);
  EXPECT_FALSE(ScoreOrder::FromPermutation(fixture.scored,
                                           std::move(short_ids)).ok());

  // Not a permutation: duplicate entry.
  std::vector<EdgeId> dup = good;
  dup[1] = dup[0];
  EXPECT_FALSE(ScoreOrder::FromPermutation(fixture.scored,
                                           std::move(dup)).ok());

  // Out-of-range id.
  std::vector<EdgeId> range = good;
  range[0] = static_cast<EdgeId>(fixture.scored.size());
  EXPECT_FALSE(ScoreOrder::FromPermutation(fixture.scored,
                                           std::move(range)).ok());

  // A permutation in the wrong order: swap two adjacent, differently
  // scored entries (adjacent equal scores would still compare fine, so
  // find a strict descent first).
  for (size_t i = 1; i < good.size(); ++i) {
    if (fixture.scored.at(good[i - 1]).score !=
        fixture.scored.at(good[i]).score) {
      std::vector<EdgeId> swapped = good;
      std::swap(swapped[i - 1], swapped[i]);
      auto result =
          ScoreOrder::FromPermutation(fixture.scored, std::move(swapped));
      ASSERT_FALSE(result.ok());
      EXPECT_EQ(result.status().code(), Status::Code::kCorruption);
      break;
    }
  }

  // And the genuine permutation is adopted without a sort.
  const int64_t sorts_before = ScoreOrder::SortsPerformed();
  auto adopted = ScoreOrder::FromPermutation(fixture.scored, good);
  ASSERT_TRUE(adopted.ok());
  EXPECT_EQ(ScoreOrder::SortsPerformed(), sorts_before);
}

// ------------------------------------------------------- snapshot layer

/// A populated engine state on disk: three methods scored against one
/// graph, snapshotted into `dir`. Returns the trace's fingerprints.
uint64_t PopulateSnapshot(const std::string& dir, int num_nodes = 150) {
  BackboneEngineOptions options;
  options.snapshot_dir = dir;
  options.snapshot_on_shutdown = false;
  BackboneEngine engine(options);
  auto graph = GenerateErdosRenyi(
      {.num_nodes = num_nodes, .average_degree = 3.0, .seed = 5});
  EXPECT_TRUE(graph.ok());
  const uint64_t fingerprint = engine.AddGraph(*std::move(graph));
  for (const Method method : {Method::kNoiseCorrected,
                              Method::kDisparityFilter,
                              Method::kNaiveThreshold}) {
    BackboneRequest request;
    request.graph = fingerprint;
    request.method = method;
    request.kind = RequestKind::kTopShare;
    request.share = 0.3;
    EXPECT_TRUE(engine.Execute(request).ok());
  }
  EXPECT_TRUE(engine.WriteSnapshotNow().ok());
  return fingerprint;
}

TEST(SnapshotTest, WriteRestoreRoundTrip) {
  const std::string dir = TempPath("snapshot_roundtrip");
  fs::create_directories(dir);
  PopulateSnapshot(dir);

  GraphStore store;
  obs::MetricRegistry store_metrics;
  store.RegisterMetrics(store_metrics, "store", &store);
  ScoreCache cache(0);
  auto report = RestoreSnapshot(SnapshotFilePath(dir), &store, &cache);
  ASSERT_TRUE(report.ok()) << report.status().message();
  EXPECT_TRUE(report->committed);
  EXPECT_EQ(report->graphs_restored, 1);
  EXPECT_EQ(report->entries_restored, 3);
  EXPECT_EQ(report->sections_quarantined, 0);
  EXPECT_TRUE(report->first_error.ok());
  EXPECT_EQ(Metric(store_metrics, "store.graphs"), 1);
  fs::remove_all(dir);
}

TEST(SnapshotTest, MissingFileIsNotFound) {
  GraphStore store;
  ScoreCache cache(0);
  auto report = RestoreSnapshot(TempPath("no_such_snapshot_dir/nope"),
                                &store, &cache);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), Status::Code::kNotFound);
}

TEST(SnapshotTest, HardFailureTaxonomy) {
  const std::string dir = TempPath("snapshot_taxonomy");
  fs::create_directories(dir);
  PopulateSnapshot(dir);
  const std::string path = SnapshotFilePath(dir);
  const std::vector<unsigned char> pristine = ReadBytes(path);
  ASSERT_GT(pristine.size(), 24u);

  GraphStore store;
  ScoreCache cache(0);

  // Too short to hold a file header.
  WriteBytes(path, {0x01, 0x02, 0x03});
  auto tiny = RestoreSnapshot(path, &store, &cache);
  ASSERT_FALSE(tiny.ok());
  EXPECT_EQ(tiny.status().code(), Status::Code::kCorruption);

  // Wrong magic.
  std::vector<unsigned char> bad_magic = pristine;
  bad_magic[0] ^= 0xFF;
  WriteBytes(path, bad_magic);
  auto magic = RestoreSnapshot(path, &store, &cache);
  ASSERT_FALSE(magic.ok());
  EXPECT_EQ(magic.status().code(), Status::Code::kCorruption);

  // Version from the future.
  std::vector<unsigned char> future = pristine;
  future[8] = 0x63;  // version u32 little-endian at offset 8
  WriteBytes(path, future);
  auto version = RestoreSnapshot(path, &store, &cache);
  ASSERT_FALSE(version.ok());
  EXPECT_EQ(version.status().code(), Status::Code::kNotSupported);

  // Foreign endianness: byteswap the endian tag AND the magic, the way a
  // big-endian writer would have laid them out.
  std::vector<unsigned char> swapped = pristine;
  for (const size_t base : {0UL, 16UL}) {
    for (size_t i = 0; i < 4; ++i) {
      std::swap(swapped[base + i], swapped[base + 7 - i]);
    }
  }
  WriteBytes(path, swapped);
  auto endian = RestoreSnapshot(path, &store, &cache);
  ASSERT_FALSE(endian.ok());
  EXPECT_EQ(endian.status().code(), Status::Code::kNotSupported);

  fs::remove_all(dir);
}

TEST(SnapshotTest, PreviousFormatVersionIsRefusedAndBootsCold) {
  // A version-2 file carries a sweep profile in every score entry; this
  // reader does not parse it. A fresh file relabelled as version 2 is
  // refused whole, and an engine booted on it starts cold.
  const std::string dir = TempPath("snapshot_version_2");
  fs::remove_all(dir);
  fs::create_directories(dir);
  const uint64_t fingerprint = PopulateSnapshot(dir);
  const std::string path = SnapshotFilePath(dir);
  std::vector<unsigned char> bytes = ReadBytes(path);
  ASSERT_GE(bytes.size(), 12u);
  uint32_t version = 0;
  std::memcpy(&version, bytes.data() + 8, sizeof(version));
  ASSERT_EQ(version, 3u);
  version = 2;
  std::memcpy(bytes.data() + 8, &version, sizeof(version));
  WriteBytes(path, bytes);

  GraphStore store;
  ScoreCache cache(0);
  auto report = RestoreSnapshot(path, &store, &cache);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), Status::Code::kNotSupported);
  EXPECT_TRUE(store.ResidentGraphs().empty());
  EXPECT_TRUE(cache.Entries().empty());

  BackboneEngineOptions options;
  options.snapshot_dir = dir;
  options.snapshot_on_shutdown = false;
  BackboneEngine engine(options);
  EXPECT_EQ(Metric(engine, "engine.snapshot_restore_errors"), 1);
  EXPECT_EQ(Metric(engine, "engine.restored_graphs"), 0);
  EXPECT_EQ(Metric(engine, "engine.restored_entries"), 0);
  BackboneRequest request;
  request.graph = fingerprint;
  request.kind = RequestKind::kTopShare;
  request.share = 0.3;
  EXPECT_EQ(engine.Execute(request).status().code(),
            Status::Code::kNotFound);
  // Re-added, the same graph scores from scratch.
  auto graph = GenerateErdosRenyi(
      {.num_nodes = 150, .average_degree = 3.0, .seed = 5});
  ASSERT_TRUE(graph.ok());
  ASSERT_EQ(engine.AddGraph(*std::move(graph)), fingerprint);
  auto response = engine.Execute(request);
  ASSERT_TRUE(response.ok());
  EXPECT_FALSE(response->cache_hit);
  EXPECT_EQ(Metric(engine, "engine.scores_computed"), 1);
  fs::remove_all(dir);
}

TEST(SnapshotTest, TornWriteSalvagesPrefixUncommitted) {
  const std::string dir = TempPath("snapshot_torn");
  fs::create_directories(dir);
  PopulateSnapshot(dir);
  const std::string path = SnapshotFilePath(dir);
  const std::vector<unsigned char> pristine = ReadBytes(path);

  // Drop the last 40% — the footer is gone, some sections survive.
  std::vector<unsigned char> torn(
      pristine.begin(),
      pristine.begin() + static_cast<ptrdiff_t>(pristine.size() * 6 / 10));
  WriteBytes(path, torn);

  GraphStore store;
  ScoreCache cache(0);
  auto report = RestoreSnapshot(path, &store, &cache);
  ASSERT_TRUE(report.ok()) << report.status().message();
  EXPECT_FALSE(report->committed);
  EXPECT_FALSE(report->first_error.ok());
  EXPECT_LT(report->entries_restored, 3);
  fs::remove_all(dir);
}

TEST(SnapshotTest, SeededCorruptionFuzzNeverCrashes) {
  const std::string dir = TempPath("snapshot_fuzz");
  fs::create_directories(dir);
  PopulateSnapshot(dir);
  const std::string path = SnapshotFilePath(dir);
  const std::vector<unsigned char> pristine = ReadBytes(path);
  ASSERT_GT(pristine.size(), 64u);

  // Reference restore: what an undamaged snapshot yields.
  int64_t full_entries = 0;
  {
    GraphStore store;
    ScoreCache cache(0);
    auto report = RestoreSnapshot(path, &store, &cache);
    ASSERT_TRUE(report.ok());
    full_entries = report->entries_restored;
  }

  Rng rng(0xC0FFEE);
  int salvages = 0;
  int hard_failures = 0;
  for (int trial = 0; trial < 60; ++trial) {
    std::vector<unsigned char> bytes = pristine;
    if (trial == 0) {
      bytes.resize(10);  // deterministic: shorter than the file header
    } else if (trial == 1) {
      bytes[3] ^= 0x10;  // deterministic: magic damage, hard Corruption
    } else if (trial % 2 == 0) {
      // Truncation to a random length (may cut anywhere, header included).
      bytes.resize(rng.NextBounded(bytes.size()));
    } else {
      // 1-3 random bit flips.
      const uint64_t flips = 1 + rng.NextBounded(3);
      for (uint64_t f = 0; f < flips; ++f) {
        const size_t offset = rng.NextBounded(bytes.size());
        bytes[offset] ^= static_cast<unsigned char>(
            1u << rng.NextBounded(8));
      }
    }
    WriteBytes(path, bytes);

    GraphStore store;
    ScoreCache cache(0);
    // The one non-negotiable property: this call RETURNS, with either a
    // typed hard failure or a salvage report. Crashing fails the test by
    // not getting here.
    auto report = RestoreSnapshot(path, &store, &cache);
    if (!report.ok()) {
      ++hard_failures;
      const Status::Code code = report.status().code();
      EXPECT_TRUE(code == Status::Code::kCorruption ||
                  code == Status::Code::kNotSupported ||
                  code == Status::Code::kNotFound ||
                  code == Status::Code::kIOError)
          << "untyped hard failure: " << report.status().message();
      continue;
    }
    ++salvages;
    EXPECT_LE(report->entries_restored, full_entries);
    // Whatever was salvaged must be intact enough to enumerate.
    EXPECT_EQ(static_cast<int64_t>(cache.Entries().size()),
              report->entries_restored);
  }
  // The sweep must have exercised both regimes.
  EXPECT_GT(salvages, 0);
  EXPECT_GT(hard_failures, 0);
  fs::remove_all(dir);
}

/// Re-keys the image's first section — a graph section, since every
/// image writes its graphs first — to `key` with the given resident flag,
/// and re-seals both of its checksums, so the key is the only fault.
void RekeyFirstGraphSection(std::vector<unsigned char>* image, uint64_t key,
                            uint32_t resident) {
  constexpr size_t kFileHeaderBytes = 24;
  constexpr size_t kSectionHeaderBytes = 32;
  unsigned char* header = image->data() + kFileHeaderBytes;
  uint32_t type;
  uint64_t payload_len;
  std::memcpy(&type, header, sizeof(type));
  std::memcpy(&payload_len, header + 8, sizeof(payload_len));
  ASSERT_EQ(type, 1u);  // kGraph
  unsigned char* payload = header + kSectionHeaderBytes;
  std::memcpy(payload, &key, sizeof(key));
  std::memcpy(payload + 8, &resident, sizeof(resident));
  const uint64_t payload_hash = Checksum64(payload, payload_len);
  std::memcpy(header + 16, &payload_hash, sizeof(payload_hash));
  const uint64_t header_hash = Checksum64(header, 24);
  std::memcpy(header + 24, &header_hash, sizeof(header_hash));
}

TEST(SnapshotTest, GraphSectionUnderWrongKeyIsQuarantined) {
  const std::string dir = TempPath("snapshot_wrong_key");
  fs::create_directories(dir);
  const uint64_t fingerprint = PopulateSnapshot(dir);
  const std::string path = SnapshotFilePath(dir);
  const std::vector<unsigned char> pristine = ReadBytes(path);
  const uint64_t wrong_key = fingerprint ^ 0x9E3779B97F4A7C15ULL;

  for (const uint32_t resident : {1u, 0u}) {
    std::vector<unsigned char> image = pristine;
    RekeyFirstGraphSection(&image, wrong_key, resident);
    WriteBytes(path, image);

    GraphStore store;
    ScoreCache cache(0);
    auto report = RestoreSnapshot(path, &store, &cache);
    ASSERT_TRUE(report.ok()) << report.status().message();
    // Every checksum holds, so only the content check can catch the key:
    // the graph is quarantined and its three entries with it.
    EXPECT_TRUE(report->committed) << "resident=" << resident;
    EXPECT_EQ(report->graphs_restored, 0) << "resident=" << resident;
    EXPECT_EQ(report->entries_restored, 0) << "resident=" << resident;
    EXPECT_EQ(report->sections_quarantined, 4) << "resident=" << resident;
    EXPECT_EQ(report->first_error.code(), Status::Code::kCorruption);
    EXPECT_EQ(store.Find(fingerprint), nullptr) << "resident=" << resident;
    EXPECT_EQ(store.Find(wrong_key), nullptr) << "resident=" << resident;
    EXPECT_TRUE(store.ResidentGraphs().empty());
    EXPECT_TRUE(cache.Entries().empty());
  }
  fs::remove_all(dir);
}

// ------------------------------------------------- engine warm restart

TEST(WarmRestartTest, BitIdenticalZeroRescoreZeroSort) {
  const std::string dir = TempPath("warm_restart");
  fs::create_directories(dir);

  auto graph = GenerateErdosRenyi(
      {.num_nodes = 250, .average_degree = 3.0, .seed = 31});
  ASSERT_TRUE(graph.ok());

  std::vector<BackboneRequest> trace;
  for (const Method method : {Method::kNoiseCorrected,
                              Method::kDisparityFilter}) {
    BackboneRequest share;
    share.method = method;
    share.kind = RequestKind::kTopShare;
    share.share = 0.25;
    trace.push_back(share);
    BackboneRequest sweep = share;
    sweep.kind = RequestKind::kSweep;
    sweep.shares = {0.1, 0.5, 0.9};
    trace.push_back(sweep);
  }

  std::vector<BackboneResponse> reference;
  {
    BackboneEngineOptions options;
    options.snapshot_dir = dir;  // shutdown snapshot path: on by default
    BackboneEngine engine(options);
    const uint64_t fingerprint = engine.AddGraph(*graph);
    for (BackboneRequest request : trace) {
      request.graph = fingerprint;
      auto response = engine.Execute(request);
      ASSERT_TRUE(response.ok());
      reference.push_back(*std::move(response));
    }
  }  // destructor writes the snapshot

  BackboneEngineOptions options;
  options.snapshot_dir = dir;
  options.snapshot_on_shutdown = false;
  BackboneEngine restarted(options);
  const obs::MetricsSnapshot stats = restarted.Metrics();
  EXPECT_EQ(Metric(stats, "engine.restored_graphs"), 1);
  EXPECT_EQ(Metric(stats, "engine.restored_entries"), 2);
  EXPECT_EQ(Metric(stats, "engine.quarantined_sections"), 0);

  const uint64_t fingerprint = GraphFingerprint(*graph);
  const int64_t sorts_before = ScoreOrder::SortsPerformed();
  for (size_t i = 0; i < trace.size(); ++i) {
    BackboneRequest request = trace[i];
    request.graph = fingerprint;
    auto response = restarted.Execute(request);
    ASSERT_TRUE(response.ok());
    EXPECT_TRUE(response->cache_hit);
    EXPECT_EQ(response->kept_edges, reference[i].kept_edges);
    EXPECT_EQ(response->kept, reference[i].kept);
    EXPECT_EQ(response->coverage, reference[i].coverage);
    EXPECT_EQ(response->weight_share, reference[i].weight_share);
    EXPECT_EQ(response->sweep, reference[i].sweep);
    EXPECT_EQ(response->connect_k, reference[i].connect_k);
  }
  EXPECT_EQ(Metric(restarted, "engine.scores_computed"), 0);
  EXPECT_EQ(ScoreOrder::SortsPerformed(), sorts_before);
  fs::remove_all(dir);
}

TEST(WarmRestartTest, PointOnlyEntriesSnapshotAndRestoreWarm) {
  // Every entry is answered once, by a point request, so none holds a
  // sweep profile when the snapshot is written. The file (format 3)
  // carries no profile at all: the restored entries are like fresh ones
  // and each builds its profile once, on its first hit.
  const std::string dir = TempPath("point_only_restart");
  fs::remove_all(dir);
  fs::create_directories(dir);
  auto graph = GenerateErdosRenyi(
      {.num_nodes = 250, .average_degree = 3.0, .seed = 33});
  ASSERT_TRUE(graph.ok());

  std::vector<BackboneRequest> trace(3);
  trace[0].method = Method::kNoiseCorrected;
  trace[0].kind = RequestKind::kTopShare;
  trace[0].share = 0.2;
  trace[1].method = Method::kDisparityFilter;
  trace[1].kind = RequestKind::kCoveragePoint;
  trace[1].share = 0.6;
  trace[2].method = Method::kNaiveThreshold;
  trace[2].kind = RequestKind::kTopK;
  trace[2].k = 77;
  const auto sweep_of = [](BackboneRequest request) {
    request.kind = RequestKind::kSweep;
    request.shares = {0.1, 0.5, 0.9};
    return request;
  };

  std::vector<BackboneResponse> reference;
  std::vector<BackboneResponse> reference_sweeps;
  {
    BackboneEngineOptions options;
    options.snapshot_dir = dir;
    options.snapshot_on_shutdown = false;
    BackboneEngine engine(options);
    const uint64_t fingerprint = engine.AddGraph(*graph);
    for (BackboneRequest request : trace) {
      request.graph = fingerprint;
      auto response = engine.Execute(request);
      ASSERT_TRUE(response.ok());
      EXPECT_FALSE(response->cache_hit);
      reference.push_back(*std::move(response));
    }
    EXPECT_EQ(Metric(engine, "engine.profiles_built"), 0);
    ASSERT_TRUE(engine.WriteSnapshotNow().ok());
    // The write builds no profile: each entry's first hit after it does.
    EXPECT_EQ(Metric(engine, "engine.profiles_built"), 0);
    for (size_t i = 0; i < trace.size(); ++i) {
      BackboneRequest request = trace[i];
      request.graph = fingerprint;
      auto response = engine.Execute(request);
      ASSERT_TRUE(response.ok());
      EXPECT_TRUE(response->cache_hit);
      EXPECT_EQ(response->coverage, reference[i].coverage);
      EXPECT_EQ(response->weight_share, reference[i].weight_share);
      auto sweep = engine.Execute(sweep_of(request));
      ASSERT_TRUE(sweep.ok());
      reference_sweeps.push_back(*std::move(sweep));
    }
    EXPECT_EQ(Metric(engine, "engine.profiles_built"), 3);
  }
  const std::vector<unsigned char> bytes =
      ReadBytes(SnapshotFilePath(dir));
  ASSERT_GE(bytes.size(), 12u);
  uint32_t version = 0;
  std::memcpy(&version, bytes.data() + 8, sizeof(version));
  EXPECT_EQ(version, 3u);

  BackboneEngineOptions options;
  options.snapshot_dir = dir;
  options.snapshot_on_shutdown = false;
  BackboneEngine restarted(options);
  EXPECT_EQ(Metric(restarted, "engine.restored_entries"), 3);
  EXPECT_EQ(Metric(restarted, "engine.quarantined_sections"), 0);
  EXPECT_EQ(Metric(restarted, "engine.profiles_built"), 0);
  const uint64_t fingerprint = GraphFingerprint(*graph);
  const int64_t sorts_before = ScoreOrder::SortsPerformed();
  for (size_t i = 0; i < trace.size(); ++i) {
    BackboneRequest request = trace[i];
    request.graph = fingerprint;
    auto response = restarted.Execute(request);
    ASSERT_TRUE(response.ok());
    EXPECT_TRUE(response->cache_hit);
    EXPECT_EQ(response->kept_edges, reference[i].kept_edges);
    EXPECT_EQ(response->kept, reference[i].kept);
    EXPECT_EQ(response->coverage, reference[i].coverage);
    EXPECT_EQ(response->weight_share, reference[i].weight_share);
    // The first hit built this entry's profile from its restored order;
    // the sweep reads it and builds nothing more.
    EXPECT_EQ(Metric(restarted, "engine.profiles_built"),
              static_cast<int64_t>(i) + 1);
    auto sweep = restarted.Execute(sweep_of(request));
    ASSERT_TRUE(sweep.ok());
    EXPECT_EQ(sweep->sweep, reference_sweeps[i].sweep);
    EXPECT_EQ(sweep->connect_k, reference_sweeps[i].connect_k);
    EXPECT_EQ(Metric(restarted, "engine.profiles_built"),
              static_cast<int64_t>(i) + 1);
  }
  EXPECT_EQ(Metric(restarted, "engine.scores_computed"), 0);
  EXPECT_EQ(Metric(restarted, "engine.delta_rescores"), 0);
  EXPECT_EQ(Metric(restarted, "engine.profiles_built"), 3);
  EXPECT_EQ(ScoreOrder::SortsPerformed(), sorts_before);
  fs::remove_all(dir);
}

TEST(WarmRestartTest, PeriodicSnapshotRestoresWarm) {
  const std::string dir = TempPath("periodic_snapshot");
  fs::remove_all(dir);
  fs::create_directories(dir);

  auto graph = GenerateErdosRenyi(
      {.num_nodes = 200, .average_degree = 3.0, .seed = 17});
  ASSERT_TRUE(graph.ok());
  BackboneRequest request;
  request.method = Method::kNoiseCorrected;
  request.kind = RequestKind::kTopShare;
  request.share = 0.3;

  BackboneResponse reference;
  {
    BackboneEngineOptions options;
    options.snapshot_dir = dir;
    options.snapshot_on_shutdown = false;  // only the timer writes
    options.snapshot_interval = std::chrono::milliseconds(10);
    BackboneEngine engine(options);
    request.graph = engine.AddGraph(*graph);
    auto response = engine.Execute(request);
    ASSERT_TRUE(response.ok());
    reference = *std::move(response);
    // A write already under way may predate the entry; the second one
    // to finish from here on began after it was cached.
    const int64_t writes = Metric(engine, "engine.snapshot_writes");
    const auto give_up =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (Metric(engine, "engine.snapshot_writes") < writes + 2 &&
           std::chrono::steady_clock::now() < give_up) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    ASSERT_GE(Metric(engine, "engine.snapshot_writes"), writes + 2);
    EXPECT_EQ(Metric(engine, "engine.snapshot_failures"), 0);
  }
  ASSERT_TRUE(fs::exists(SnapshotFilePath(dir)));

  BackboneEngineOptions options;
  options.snapshot_dir = dir;
  options.snapshot_on_shutdown = false;
  BackboneEngine restarted(options);
  EXPECT_EQ(Metric(restarted, "engine.restored_graphs"), 1);
  EXPECT_EQ(Metric(restarted, "engine.restored_entries"), 1);
  EXPECT_EQ(Metric(restarted, "engine.quarantined_sections"), 0);

  const int64_t sorts_before = ScoreOrder::SortsPerformed();
  auto response = restarted.Execute(request);
  ASSERT_TRUE(response.ok());
  EXPECT_TRUE(response->cache_hit);
  EXPECT_EQ(response->kept, reference.kept);
  EXPECT_EQ(response->weight_share, reference.weight_share);
  EXPECT_EQ(Metric(restarted, "engine.scores_computed"), 0);
  EXPECT_EQ(ScoreOrder::SortsPerformed(), sorts_before);
  fs::remove_all(dir);
}

// ------------------------------------------------ fault-injection sites

TEST(SnapshotFaultTest, InjectedWriteFailureLeavesOldSnapshotIntact) {
  const std::string dir = TempPath("snapshot_write_fault");
  fs::create_directories(dir);
  PopulateSnapshot(dir);
  const std::string path = SnapshotFilePath(dir);
  const std::vector<unsigned char> pristine = ReadBytes(path);

  FaultInjector injector(0xABCD);
  injector.Configure(FaultSite::kSnapshotWriteFailure,
                     {.probability = 1.0});
  ScopedFaultInjection scope(&injector);

  GraphStore store;
  ScoreCache cache(0);
  auto wrote = WriteSnapshot(path, store, cache);
  ASSERT_FALSE(wrote.ok());
  EXPECT_EQ(wrote.status().code(), Status::Code::kIOError);
  EXPECT_EQ(ReadBytes(path), pristine);  // bit-for-bit untouched
  fs::remove_all(dir);
}

TEST(SnapshotFaultTest, KillBeforeRenameLeavesOldSnapshotCommitted) {
  const std::string dir = TempPath("snapshot_rename_fault");
  fs::create_directories(dir);
  PopulateSnapshot(dir);
  const std::string path = SnapshotFilePath(dir);
  const std::vector<unsigned char> pristine = ReadBytes(path);

  FaultInjector injector(0xABCE);
  injector.Configure(FaultSite::kSnapshotRenameKill, {.probability = 1.0});
  ScopedFaultInjection scope(&injector);

  GraphStore store;
  ScoreCache cache(0);
  auto wrote = WriteSnapshot(path, store, cache);
  ASSERT_FALSE(wrote.ok());
  EXPECT_EQ(wrote.status().code(), Status::Code::kIOError);
  // The committed snapshot is the old one, bit-for-bit; the orphaned
  // temp file is the expected crash debris.
  EXPECT_EQ(ReadBytes(path), pristine);
  EXPECT_TRUE(fs::exists(path + ".tmp"));
  fs::remove_all(dir);
}

TEST(SnapshotFaultTest, InjectedShortReadSalvagesWithoutCrashing) {
  const std::string dir = TempPath("snapshot_short_read");
  fs::create_directories(dir);
  PopulateSnapshot(dir);

  FaultInjector injector(0xABCF);
  injector.Configure(FaultSite::kSnapshotShortRead, {.probability = 1.0});
  ScopedFaultInjection scope(&injector);

  GraphStore store;
  ScoreCache cache(0);
  auto report = RestoreSnapshot(SnapshotFilePath(dir), &store, &cache);
  // Half the file: either a salvage report (torn prefix) or a typed hard
  // failure; never a crash.
  if (report.ok()) {
    EXPECT_FALSE(report->committed);
    EXPECT_LT(report->entries_restored, 3);
  } else {
    EXPECT_EQ(report.status().code(), Status::Code::kCorruption);
  }
  EXPECT_EQ(injector.injected(FaultSite::kSnapshotShortRead), 1);
  fs::remove_all(dir);
}

TEST(SnapshotFaultTest, EngineCountsInjectedSnapshotFailures) {
  const std::string dir = TempPath("snapshot_engine_fault");
  fs::create_directories(dir);

  FaultInjector injector(0xABD0);
  injector.Configure(FaultSite::kSnapshotWriteFailure,
                     {.probability = 1.0});
  ScopedFaultInjection scope(&injector);

  BackboneEngineOptions options;
  options.snapshot_dir = dir;
  options.snapshot_on_shutdown = false;
  BackboneEngine engine(options);
  EXPECT_FALSE(engine.WriteSnapshotNow().ok());
  const obs::MetricsSnapshot stats = engine.Metrics();
  EXPECT_EQ(Metric(stats, "engine.snapshot_writes"), 0);
  EXPECT_EQ(Metric(stats, "engine.snapshot_failures"), 1);
  fs::remove_all(dir);
}

}  // namespace
}  // namespace netbone
