// Copyright 2026 The netbone Authors.
//
// Binary codecs for the cached scoring artifacts — ScoredEdges and
// ScoreOrder — used by the snapshot subsystem (service/snapshot.h).
// Scores are stored bitwise (PodVec), and a restored ScoreOrder adopts the
// stored permutation through ScoreOrder::FromPermutation, which validates
// it in O(E) without sorting: a warm-restarted engine answers the same
// requests bit-identically with zero rescores and zero sorts. The sweep
// profile is not an artifact here; it is rebuilt from the order on use.
//
// Decoders assume hostile bytes: every size and index is validated against
// the graph the artifact claims to describe, and violations come back as
// typed Corruption. Content authentication (section checksums) is the
// snapshot layer's job.

#ifndef NETBONE_CORE_SERIALIZE_H_
#define NETBONE_CORE_SERIALIZE_H_

#include "common/result.h"
#include "common/serialize.h"
#include "core/scored_edges.h"
#include "core/sweep.h"
#include "graph/graph.h"

namespace netbone {

/// Appends `scored` (method name, sdev flag, the score table).
void EncodeScoredEdges(const ScoredEdges& scored, ByteWriter* writer);

/// Decodes a ScoredEdges over `graph` (which must outlive the result).
/// Corruption when the table length does not match graph.num_edges().
Result<ScoredEdges> DecodeScoredEdges(ByteReader* reader, const Graph* graph);

/// Appends `order`'s permutation.
void EncodeScoreOrder(const ScoreOrder& order, ByteWriter* writer);

/// Decodes a ScoreOrder over `scored` (which must outlive the result) via
/// ScoreOrder::FromPermutation — O(E) validation, no sort performed.
Result<ScoreOrder> DecodeScoreOrder(ByteReader* reader,
                                    const ScoredEdges& scored);

}  // namespace netbone

#endif  // NETBONE_CORE_SERIALIZE_H_
