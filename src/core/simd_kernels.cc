#include "core/simd_kernels.h"

#include <atomic>
#include <cctype>
#include <cstdlib>
#include <string>

#include "core/simd_kernels_internal.h"

namespace netbone {
namespace {

using internal_simd::KernelTable;

const KernelTable kScalarTable = {&internal_simd::ScalarNcRange,
                                  &internal_simd::ScalarDfRange};

/// The table compiled for exactly `level`, or nullptr when the build
/// left that ISA out.
const KernelTable* TableForExact(SimdLevel level) {
  switch (level) {
    case SimdLevel::kScalar:
      return &kScalarTable;
    case SimdLevel::kSse2:
      return internal_simd::Sse2Kernels();
    case SimdLevel::kNeon:
      return internal_simd::NeonKernels();
    case SimdLevel::kAvx2:
      return internal_simd::Avx2Kernels();
  }
  return &kScalarTable;
}

bool CpuSupports(SimdLevel level) {
  switch (level) {
    case SimdLevel::kScalar:
      return true;
    case SimdLevel::kSse2:
      // SSE2 is part of the x86-64 baseline; its TU compiles iff we are
      // on x86-64, which TableForExact already encodes.
      return true;
    case SimdLevel::kNeon:
      // Likewise the aarch64 baseline.
      return true;
    case SimdLevel::kAvx2:
#if (defined(__x86_64__) || defined(_M_X64)) && defined(__GNUC__)
      return __builtin_cpu_supports("avx2") != 0;
#else
      return false;
#endif
  }
  return false;
}

bool LevelUsable(SimdLevel level) {
  return CpuSupports(level) && TableForExact(level) != nullptr;
}

/// Best usable level no higher than `want` (enum order is preference
/// order); kScalar is always usable.
SimdLevel ClampToUsable(SimdLevel want) {
  static constexpr SimdLevel kPreference[] = {
      SimdLevel::kAvx2, SimdLevel::kNeon, SimdLevel::kSse2,
      SimdLevel::kScalar};
  for (const SimdLevel level : kPreference) {
    if (static_cast<int>(level) <= static_cast<int>(want) &&
        LevelUsable(level)) {
      return level;
    }
  }
  return SimdLevel::kScalar;
}

/// Process-wide base level: the NETBONE_SIMD cap if set, else the best
/// the host supports. Read once; ScopedSimdLevelOverride layers on top.
SimdLevel BaseLevelFromEnv() {
  const char* env = std::getenv("NETBONE_SIMD");
  if (env == nullptr) return ClampToUsable(SimdLevel::kAvx2);
  std::string value(env);
  for (char& c : value) {
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  if (value == "scalar" || value == "off") return SimdLevel::kScalar;
  if (value == "sse2") return ClampToUsable(SimdLevel::kSse2);
  if (value == "neon") return ClampToUsable(SimdLevel::kNeon);
  if (value == "avx2") return ClampToUsable(SimdLevel::kAvx2);
  // "auto" and anything unrecognized: best available.
  return ClampToUsable(SimdLevel::kAvx2);
}

SimdLevel BaseLevel() {
  static const SimdLevel level = BaseLevelFromEnv();
  return level;
}

/// -1 = no override; otherwise the forced level as an int.
std::atomic<int> g_override{-1};

}  // namespace

const char* SimdLevelName(SimdLevel level) {
  switch (level) {
    case SimdLevel::kScalar:
      return "scalar";
    case SimdLevel::kSse2:
      return "sse2";
    case SimdLevel::kNeon:
      return "neon";
    case SimdLevel::kAvx2:
      return "avx2";
  }
  return "scalar";
}

SimdLevel ActiveSimdLevel() {
  const int forced = g_override.load(std::memory_order_relaxed);
  if (forced >= 0) return static_cast<SimdLevel>(forced);
  return BaseLevel();
}

std::vector<SimdLevel> SupportedSimdLevels() {
  std::vector<SimdLevel> levels = {SimdLevel::kScalar};
  for (const SimdLevel level :
       {SimdLevel::kSse2, SimdLevel::kNeon, SimdLevel::kAvx2}) {
    if (LevelUsable(level)) levels.push_back(level);
  }
  return levels;
}

bool SimdHasWideLanes() { return ActiveSimdLevel() == SimdLevel::kAvx2; }

ScopedSimdLevelOverride::ScopedSimdLevelOverride(SimdLevel level)
    : previous_(g_override.exchange(
          static_cast<int>(ClampToUsable(level)), std::memory_order_relaxed)) {
}

ScopedSimdLevelOverride::~ScopedSimdLevelOverride() {
  g_override.store(previous_, std::memory_order_relaxed);
}

int64_t NoiseCorrectedBatchAt(SimdLevel level, const EdgeColumns& cols,
                              const NcKernelConfig& cfg, int64_t begin,
                              int64_t end, EdgeScore* out) {
  return TableForExact(ClampToUsable(level))->nc(cols, cfg, begin, end, out);
}

int64_t NoiseCorrectedBatch(const EdgeColumns& cols, const NcKernelConfig& cfg,
                            int64_t begin, int64_t end, EdgeScore* out) {
  return NoiseCorrectedBatchAt(ActiveSimdLevel(), cols, cfg, begin, end, out);
}

int64_t DisparityFilterBatchAt(SimdLevel level, const EdgeColumns& cols,
                               DisparityEndpointRule rule, int64_t begin,
                               int64_t end, EdgeScore* out) {
  return TableForExact(ClampToUsable(level))->df(cols, rule, begin, end, out);
}

int64_t DisparityFilterBatch(const EdgeColumns& cols,
                             DisparityEndpointRule rule, int64_t begin,
                             int64_t end, EdgeScore* out) {
  return DisparityFilterBatchAt(ActiveSimdLevel(), cols, rule, begin, end,
                                out);
}

}  // namespace netbone
