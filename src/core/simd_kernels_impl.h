// Copyright 2026 The netbone Authors.
//
// Width-generic vector scoring kernels, instantiated once per ISA trait
// (common/simd.h) by the per-ISA TUs (simd_kernels_{avx2,sse2,neon}.cc).
// Include nowhere else: the including TU's compile flags decide which
// instructions these templates lower to, and those TUs are the ones built
// with FMA contraction disabled.
//
// Every kernel mirrors its scalar oracle expression by expression — same
// operations, same left-to-right grouping, no reassociation — so each
// lane computes exactly the scalar result (see simd_kernels.h for the
// full bit-identity argument). Comments below point at the oracle lines
// being mirrored; change either side only in lockstep.

#ifndef NETBONE_CORE_SIMD_KERNELS_IMPL_H_
#define NETBONE_CORE_SIMD_KERNELS_IMPL_H_

#include <cstdint>

#include "common/simd.h"
#include "core/simd_kernels_internal.h"

namespace netbone::internal_simd {

/// NC over [begin, end): mirrors NoiseCorrectedEdge (noise_corrected.cc)
/// composed with HypergeometricPriorMoments / FitBetaByMoments /
/// BinomialVariance (stats/distributions.cc). Lane blocks containing any
/// invalid input (non-positive strength, negative or NaN weight) fall back
/// to the scalar oracle for that whole block, which also regenerates the
/// first-failing-id protocol exactly.
template <class T>
int64_t VecNcRange(const EdgeColumns& cols, const NcKernelConfig& cfg,
                   int64_t begin, int64_t end, EdgeScore* out) {
  using VD = typename T::VD;
  using VM = typename T::VM;
  constexpr int64_t W = T::kWidth;

  const double n_total = cfg.n_total;
  if (!(n_total > 0.0)) {
    // Every edge fails the oracle's total-weight check; let it say so.
    return ScalarNcRange(cols, cfg, begin, end, out);
  }
  // Graph constants, computed once with the same scalar expressions the
  // oracle evaluates per edge (identical bits every iteration).
  const double n2 = n_total * n_total;
  const bool variance_defined = n_total > 1.0;
  const double variance_denom = n2 * n2 * (n_total - 1.0);

  const VD vzero = T::Set1(0.0);
  const VD vone = T::Set1(1.0);
  const VD vtwo = T::Set1(2.0);
  const VD vn = T::Set1(n_total);
  const VD vn2 = T::Set1(n2);
  const VD vvar_denom = T::Set1(variance_denom);

  int64_t i = begin;
  for (; i + W <= end; i += W) {
    const size_t k = static_cast<size_t>(i);
    const VD w = T::Load(&cols.weight[k]);
    const VD ni = T::Load(&cols.n_i[k]);
    const VD nj = T::Load(&cols.n_j[k]);

    // Oracle validation: ni > 0 && nj > 0 && !(w < 0). The quiet-ordered
    // compares reject NaN lanes too, which conservatively routes any lane
    // the oracle would treat specially through the oracle itself.
    const VM valid = T::MaskAnd(
        T::MaskAnd(T::CmpGt(ni, vzero), T::CmpGt(nj, vzero)),
        T::CmpGe(w, vzero));
    if (!T::AllTrue(valid)) {
      const int64_t bad = ScalarNcRange(cols, cfg, i, i + W, out);
      if (bad >= 0) return bad;
      continue;
    }

    // d.expectation = ni*nj / n;  kappa = 1/expectation;  t = kappa*nij.
    const VD ninj = T::Mul(ni, nj);
    const VD expectation = T::Div(ninj, vn);
    const VD kappa = T::Div(vone, expectation);
    const VD t = T::Mul(kappa, w);
    // transformed_lift = (kappa*nij - 1) / (kappa*nij + 1).
    const VD tp1 = T::Add(t, vone);
    const VD score = T::Div(T::Sub(t, vone), tp1);

    // HypergeometricPriorMoments: mean = ni*nj/n2; variance =
    // ((ni*nj)*(n-ni))*(n-nj) / (n2*n2*(n-1)), or 0 when n <= 1.
    const VD mean = T::Div(ninj, vn2);
    const VD variance =
        variance_defined
            ? T::Div(T::Mul(T::Mul(ninj, T::Sub(vn, ni)), T::Sub(vn, nj)),
                     vvar_denom)
            : vzero;

    VD posterior;
    if (cfg.bayesian_prior) {
      const VD one_m_mean = T::Sub(vone, mean);
      // FitBetaByMoments preconditions as a lane mask; failing lanes take
      // the oracle's degenerate-prior fallback (posterior = prior mean).
      VM fit_ok = T::MaskAnd(T::CmpGt(mean, vzero), T::CmpLt(mean, vone));
      fit_ok = T::MaskAnd(fit_ok, T::CmpGt(variance, vzero));
      VD beta;
      if (!cfg.python_erratum_beta) {
        fit_ok =
            T::MaskAnd(fit_ok, T::CmpLt(variance, T::Mul(mean, one_m_mean)));
        // beta = mean * ((1-mean)*(1-mean)/variance + 1) - 1.
        beta = T::Sub(
            T::Mul(mean, T::Add(T::Div(T::Mul(one_m_mean, one_m_mean),
                                       variance),
                                vone)),
            vone);
      } else {
        // backboning.py erratum: beta = (mean/variance)*(1 - mean*mean)
        //                               - (1 - mean).
        beta = T::Sub(T::Mul(T::Div(mean, variance),
                             T::Sub(vone, T::Mul(mean, mean))),
                      one_m_mean);
      }
      // alpha = (mean*mean/variance)*(1-mean) - mean (both variants).
      const VD alpha = T::Sub(
          T::Mul(T::Div(T::Mul(mean, mean), variance), one_m_mean), mean);
      // Posterior Beta[nij + alpha, n - nij + beta] mean.
      const VD alpha_post = T::Add(alpha, w);
      const VD beta_post = T::Add(beta, T::Sub(vn, w));
      const VD fitted = T::Div(alpha_post, T::Add(alpha_post, beta_post));
      // Lanes where the fit fails may hold inf/NaN garbage in `fitted`;
      // the blend discards those bits, matching the oracle's branch.
      posterior = T::Blend(fit_ok, fitted, mean);
    } else {
      // Ablation plug-in: posterior_p = nij / n.
      posterior = T::Div(w, vn);
    }

    // BinomialVariance: n * p * (1 - p).
    const VD variance_nij =
        T::Mul(T::Mul(vn, posterior), T::Sub(vone, posterior));
    // dkappa = 1/(ni*nj) - n*(ni+nj) / ((ni*nj)*(ni*nj)), or 0 with
    // fixed marginals.
    const VD dkappa =
        cfg.marginals_respond_to_weight
            ? T::Sub(T::Div(vone, ninj),
                     T::Div(T::Mul(vn, T::Add(ni, nj)), T::Mul(ninj, ninj)))
            : vzero;
    // jacobian = 2*(kappa + nij*dkappa) / (kappa*nij + 1)^2.
    const VD denom = T::Mul(tp1, tp1);
    const VD jacobian =
        T::Div(T::Mul(vtwo, T::Add(kappa, T::Mul(w, dkappa))), denom);
    // variance_lift = variance_nij * jacobian * jacobian (left-assoc).
    const VD variance_lift = T::Mul(T::Mul(variance_nij, jacobian), jacobian);
    const VD sdev = T::Sqrt(variance_lift);

    T::StorePairs(reinterpret_cast<double*>(out + i), score, sdev);
  }
  if (i < end) return ScalarNcRange(cols, cfg, i, end, out);
  return -1;
}

/// The DF p-value ladder: PowUIntExp (disparity_filter.h) with per-lane
/// exponents. Finished lanes keep squaring the base harmlessly (base in
/// [0,1], and their odd-bit mask never fires again), exactly like the
/// scalar ladder's final unconditional square.
template <class T>
typename T::VD VecDisparityPValue(typename T::VD share, typename T::VD dm1) {
  using VD = typename T::VD;
  using VM = typename T::VM;
  using VE = typename T::VE;
  const VD vzero = T::Set1(0.0);
  const VD vone = T::Set1(1.0);
  // std::clamp(share, 0, 1) == min(max(share, 0), 1) for every input the
  // callers produce (shares are finite: weight / positive strength, or an
  // exact 0 from the blend).
  const VD clamped = T::Min(T::Max(share, vzero), vone);
  const VD base = T::Sub(vone, clamped);
  VE e = T::ExpFromDouble(dm1);
  VD result = vone;
  VD b = base;
  while (!T::ExpAllZero(e)) {
    const VM odd = T::ExpOddMask(e);
    result = T::Blend(odd, T::Mul(result, b), result);
    b = T::Mul(b, b);
    e = T::ExpHalve(e);
  }
  // degree <= 1 lanes: exponent converts to <= 0 ... dm1 is >= 0 by
  // construction (endpoints have degree >= 1), so dm1 == 0 lanes simply
  // skip every odd-bit multiply and keep the ladder's initial 1.0 —
  // the oracle's early return.
  return result;
}

/// DF over [begin, end): mirrors ScalarDfRange / DisparityFilterEdgeScore.
/// Never fails; always returns -1.
template <class T>
int64_t VecDfRange(const EdgeColumns& cols, DisparityEndpointRule rule,
                   int64_t begin, int64_t end, EdgeScore* out) {
  using VD = typename T::VD;
  constexpr int64_t W = T::kWidth;
  const VD vzero = T::Set1(0.0);
  const VD vone = T::Set1(1.0);
  const VD vmax_exp = T::Set1(kMaxVectorExponent);

  int64_t i = begin;
  for (; i + W <= end; i += W) {
    const size_t k = static_cast<size_t>(i);
    const VD dm1_i = T::Load(&cols.dm1_i[k]);
    const VD dm1_j = T::Load(&cols.dm1_j[k]);
    // Exponents beyond the safe int conversion range (2^30) drop the
    // block to the scalar uint64 ladder.
    if (T::AnyTrue(T::CmpGt(T::Max(dm1_i, dm1_j), vmax_exp))) {
      ScalarDfRange(cols, rule, i, i + W, out);
      continue;
    }
    const VD w = T::Load(&cols.weight[k]);
    const VD ni = T::Load(&cols.n_i[k]);
    const VD nj = T::Load(&cols.n_j[k]);
    // share = total > 0 ? w / total : 0. The division runs on every lane
    // and the blend discards the zero-strength lanes' inf/NaN bits.
    const VD src_share = T::Blend(T::CmpGt(ni, vzero), T::Div(w, ni), vzero);
    const VD dst_share = T::Blend(T::CmpGt(nj, vzero), T::Div(w, nj), vzero);
    const VD src_score =
        T::Sub(vone, VecDisparityPValue<T>(src_share, dm1_i));
    const VD dst_score =
        T::Sub(vone, VecDisparityPValue<T>(dst_share, dm1_j));
    // Endpoint rule. Scores are never NaN (shares clamp to [0,1]), and
    // equal operands make vector min/max trivially agree with std::min/
    // std::max, so selection semantics match the scalar switch.
    VD score = src_score;
    switch (rule) {
      case DisparityEndpointRule::kEither:
        score = T::Max(src_score, dst_score);
        break;
      case DisparityEndpointRule::kBoth:
        score = T::Min(src_score, dst_score);
        break;
      case DisparityEndpointRule::kSource:
        score = src_score;
        break;
    }
    T::StorePairs(reinterpret_cast<double*>(out + i), score, vzero);
  }
  if (i < end) ScalarDfRange(cols, rule, i, end, out);
  return -1;
}

/// Builds one ISA's dispatch entries from its trait.
template <class T>
constexpr KernelTable MakeKernelTable() {
  return KernelTable{&VecNcRange<T>, &VecDfRange<T>};
}

}  // namespace netbone::internal_simd

#endif  // NETBONE_CORE_SIMD_KERNELS_IMPL_H_
