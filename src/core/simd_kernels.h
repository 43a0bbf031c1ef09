// Copyright 2026 The netbone Authors.
//
// Batched scoring kernels over the structure-of-arrays edge view
// (graph/edge_columns.h), with runtime CPU dispatch.
//
// Each kernel scores a contiguous range [begin, end) of the edge table in
// fixed-width SIMD lanes (AVX2: 4 doubles, SSE2/NEON: 2) with a scalar
// remainder, writing EdgeScore pairs. The contract that makes this safe to
// wire under every caller:
//
//   The batched result is BIT-IDENTICAL to running the scalar per-edge
//   oracle (NoiseCorrectedEdge / DisparityFilterEdgeScore) over the same
//   range, at every width, on every input.
//
// The naive threshold has no kernel: its score is the weight itself, a
// copy straight from the edge table (NaiveThresholdRange, core/naive.h)
// that lanes would not speed up.
//
// That holds because the kernels use only IEEE correctly-rounded ops
// (+,-,*,/,sqrt) in exactly the scalar oracle's expression grouping, their
// TUs are compiled with FMA contraction off, the disparity power is the
// same deterministic integer-exponent ladder in both forms (PowUIntExp),
// and lanes the fast path cannot reproduce exactly (invalid NC inputs,
// oversized DF exponents) drop that block to the scalar oracle itself.
//
// Dispatch: the best level the host supports is picked once at startup
// (kScalar always works). The NETBONE_SIMD environment variable
// (scalar|sse2|neon|avx2|auto; "off" = scalar) caps the level for a whole
// process; ScopedSimdLevelOverride forces it programmatically for tests
// and benchmarks. Building with -DNETBONE_SIMD=off compiles the vector
// TUs empty, leaving only the scalar table.

#ifndef NETBONE_CORE_SIMD_KERNELS_H_
#define NETBONE_CORE_SIMD_KERNELS_H_

#include <cstdint>
#include <vector>

#include "core/disparity_filter.h"
#include "core/scored_edges.h"
#include "graph/edge_columns.h"

namespace netbone {

/// Instruction-set level a batch kernel runs at. Order is preference:
/// higher enumerators are wider/faster.
enum class SimdLevel {
  kScalar = 0,  ///< per-edge oracle loop; always available, the identity
                ///< baseline every other level must reproduce bitwise
  kSse2 = 1,    ///< 2-wide, x86-64 baseline
  kNeon = 2,    ///< 2-wide, aarch64 baseline
  kAvx2 = 3,    ///< 4-wide x86-64
};

/// Short lowercase name ("scalar", "sse2", "neon", "avx2") for logs,
/// bench JSON and the NETBONE_SIMD variable.
const char* SimdLevelName(SimdLevel level);

/// The level batch calls use right now: active override if any, else the
/// NETBONE_SIMD cap, else the best level this host supports.
SimdLevel ActiveSimdLevel();

/// Every level usable on this host (compiled in and CPU-supported),
/// ascending; always starts with kScalar. What identity tests sweep.
std::vector<SimdLevel> SupportedSimdLevels();

/// True when ActiveSimdLevel() processes >= 4 doubles per lane group —
/// the hosts where the bench gate demands a >= 2x kernel speedup.
bool SimdHasWideLanes();

/// Forces ActiveSimdLevel() to `level` (clamped to host support) for the
/// scope's lifetime; restores the previous state on destruction. For
/// tests and benches only — not synchronized against concurrent scoring
/// calls on other threads.
class ScopedSimdLevelOverride {
 public:
  explicit ScopedSimdLevelOverride(SimdLevel level);
  ~ScopedSimdLevelOverride();

  ScopedSimdLevelOverride(const ScopedSimdLevelOverride&) = delete;
  ScopedSimdLevelOverride& operator=(const ScopedSimdLevelOverride&) = delete;

 private:
  int previous_;
};

/// Graph-constant inputs of the NC kernel: the matrix total and the
/// option flags that select the formula variant. Mirrors the subset of
/// NoiseCorrectedOptions the closed-form path reads (the binomial-pvalue
/// variant never reaches these kernels; see noise_corrected.cc).
struct NcKernelConfig {
  double n_total = 0.0;
  bool bayesian_prior = true;
  bool python_erratum_beta = false;
  bool marginals_respond_to_weight = true;
};

/// Scores edges [begin, end) of `cols` with the noise-corrected kernel at
/// the active level, writing out[begin..end). Returns the lowest edge id
/// in the range whose inputs are invalid (non-positive endpoint strength
/// or negative weight) with out[] unspecified from that id on, or -1 on
/// full success. Callers recover the precise Status by replaying the
/// scalar oracle at the returned id.
int64_t NoiseCorrectedBatch(const EdgeColumns& cols, const NcKernelConfig& cfg,
                            int64_t begin, int64_t end, EdgeScore* out);

/// NoiseCorrectedBatch at an explicit level (clamped to host support).
int64_t NoiseCorrectedBatchAt(SimdLevel level, const EdgeColumns& cols,
                              const NcKernelConfig& cfg, int64_t begin,
                              int64_t end, EdgeScore* out);

/// Scores edges [begin, end) with the disparity-filter kernel at the
/// active level. DF accepts every input, so this always succeeds; the
/// int64_t return (-1) keeps the batch signature uniform.
int64_t DisparityFilterBatch(const EdgeColumns& cols,
                             DisparityEndpointRule rule, int64_t begin,
                             int64_t end, EdgeScore* out);

/// DisparityFilterBatch at an explicit level (clamped to host support).
int64_t DisparityFilterBatchAt(SimdLevel level, const EdgeColumns& cols,
                               DisparityEndpointRule rule, int64_t begin,
                               int64_t end, EdgeScore* out);

}  // namespace netbone

#endif  // NETBONE_CORE_SIMD_KERNELS_H_
