// Copyright 2026 The netbone Authors.
//
// Binary codec for the cached score table, ScoredEdges, used by the
// snapshot subsystem (service/snapshot.h). Scores are stored bitwise
// (PodVec). The snapshot writes a score entry's order as its bare
// permutation and restores it through ScoreOrder::FromPermutation, which
// validates it in O(E) without sorting: a warm-restarted engine answers
// the same requests bit-identically with zero rescores and zero sorts. The
// sweep profile is not stored; it is rebuilt from the order on use.
//
// The decoder assumes hostile bytes: the table length is validated against
// the graph it claims to describe, and violations come back as typed
// Corruption. Content authentication (section checksums) is the snapshot
// layer's job.

#ifndef NETBONE_CORE_SERIALIZE_H_
#define NETBONE_CORE_SERIALIZE_H_

#include "common/result.h"
#include "common/serialize.h"
#include "core/scored_edges.h"
#include "graph/graph.h"

namespace netbone {

/// Appends `scored` (method name, sdev flag, the score table).
void EncodeScoredEdges(const ScoredEdges& scored, ByteWriter* writer);

/// Decodes a ScoredEdges over `graph` (which must outlive the result).
/// Corruption when the table length does not match graph.num_edges().
Result<ScoredEdges> DecodeScoredEdges(ByteReader* reader, const Graph* graph);

}  // namespace netbone

#endif  // NETBONE_CORE_SERIALIZE_H_
