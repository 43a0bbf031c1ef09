// Copyright 2026 The netbone Authors.

#include "core/serialize.h"

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace netbone {

namespace {

static_assert(sizeof(EdgeScore) == 2 * sizeof(double),
              "EdgeScore must be padding-free for the PodVec fast path");

}  // namespace

void EncodeScoredEdges(const ScoredEdges& scored, ByteWriter* writer) {
  writer->Str(scored.method());
  writer->U32(scored.has_sdev() ? 1u : 0u);
  writer->PodVec(scored.scores());
}

Result<ScoredEdges> DecodeScoredEdges(ByteReader* reader,
                                      const Graph* graph) {
  NETBONE_ASSIGN_OR_RETURN(std::string method, reader->Str());
  NETBONE_ASSIGN_OR_RETURN(const uint32_t has_sdev, reader->U32());
  if (has_sdev > 1) {
    return Status::Corruption("bad sdev flag");
  }
  NETBONE_ASSIGN_OR_RETURN(std::vector<EdgeScore> scores,
                           reader->PodVec<EdgeScore>());
  if (static_cast<int64_t>(scores.size()) != graph->num_edges()) {
    return Status::Corruption("score table length does not match graph");
  }
  return ScoredEdges(graph, std::move(method), std::move(scores),
                     has_sdev == 1);
}

}  // namespace netbone
