// Copyright 2026 The netbone Authors.
//
// Internal glue for the batched scoring kernels: the scalar per-edge
// oracle loops (shared by the kScalar dispatch table, every vector
// kernel's remainder tail, and the invalid-lane fallback blocks) and the
// per-ISA kernel table the runtime dispatcher indexes. Not installed;
// include core/simd_kernels.h instead.

#ifndef NETBONE_CORE_SIMD_KERNELS_INTERNAL_H_
#define NETBONE_CORE_SIMD_KERNELS_INTERNAL_H_

#include <algorithm>
#include <cstdint>

#include "core/disparity_filter.h"
#include "core/noise_corrected.h"
#include "core/scored_edges.h"
#include "core/simd_kernels.h"
#include "graph/edge_columns.h"

namespace netbone::internal_simd {

/// Largest degree-minus-one the vector DF path converts to a lane
/// exponent (the AVX2 conversion goes through int32). A lane block with
/// any exponent above this drops to the scalar ladder, which takes the
/// full uint64 range. Unreachable in practice: it would take a 2^30-degree
/// node.
inline constexpr double kMaxVectorExponent = 1073741824.0;  // 2^30

/// Scalar NC oracle over [begin, end): exactly NoiseCorrectedEdge per
/// element. Returns the lowest failing edge id, or -1.
inline int64_t ScalarNcRange(const EdgeColumns& cols,
                             const NcKernelConfig& cfg, int64_t begin,
                             int64_t end, EdgeScore* out) {
  NoiseCorrectedOptions options;
  options.bayesian_prior = cfg.bayesian_prior;
  options.python_erratum_beta = cfg.python_erratum_beta;
  options.marginals_respond_to_weight = cfg.marginals_respond_to_weight;
  for (int64_t i = begin; i < end; ++i) {
    const size_t k = static_cast<size_t>(i);
    const Result<NoiseCorrectedDetail> d = NoiseCorrectedEdge(
        cols.weight[k], cols.n_i[k], cols.n_j[k], cfg.n_total, options);
    if (!d.ok()) return i;
    out[i] = EdgeScore{d->transformed_lift, d->sdev};
  }
  return -1;
}

/// Scalar DF oracle over [begin, end): exactly DisparityFilterEdgeScore
/// per element, reading the pre-gathered columns. Cannot fail.
inline int64_t ScalarDfRange(const EdgeColumns& cols,
                             DisparityEndpointRule rule, int64_t begin,
                             int64_t end, EdgeScore* out) {
  for (int64_t i = begin; i < end; ++i) {
    const size_t k = static_cast<size_t>(i);
    const double w = cols.weight[k];
    const double out_total = cols.n_i[k];
    const double in_total = cols.n_j[k];
    const double src_share = out_total > 0.0 ? w / out_total : 0.0;
    const double dst_share = in_total > 0.0 ? w / in_total : 0.0;
    const double src_score =
        1.0 - DisparityPValueDm1(src_share, cols.dm1_i[k]);
    const double dst_score =
        1.0 - DisparityPValueDm1(dst_share, cols.dm1_j[k]);
    double score = 0.0;
    switch (rule) {
      case DisparityEndpointRule::kEither:
        score = std::max(src_score, dst_score);
        break;
      case DisparityEndpointRule::kBoth:
        score = std::min(src_score, dst_score);
        break;
      case DisparityEndpointRule::kSource:
        score = src_score;
        break;
    }
    out[i] = EdgeScore{score, 0.0};
  }
  return -1;
}

/// One ISA's kernel set; the dispatcher holds one table per SimdLevel.
struct KernelTable {
  int64_t (*nc)(const EdgeColumns&, const NcKernelConfig&, int64_t, int64_t,
                EdgeScore*);
  int64_t (*df)(const EdgeColumns&, DisparityEndpointRule, int64_t, int64_t,
                EdgeScore*);
};

/// Per-ISA tables. Each lives in its own TU, compiled with that ISA's
/// flags; a TU built without its ISA (or with -DNETBONE_SIMD=off) returns
/// nullptr and the dispatcher skips the level.
const KernelTable* Avx2Kernels();
const KernelTable* Sse2Kernels();
const KernelTable* NeonKernels();

}  // namespace netbone::internal_simd

#endif  // NETBONE_CORE_SIMD_KERNELS_INTERNAL_H_
