#include "qdi/dpa/kernels.hpp"

#include <cmath>

#include "qdi/util/cpu.hpp"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define QDI_KERNELS_X86 1
#include <immintrin.h>
#endif

// The AVX2 arm below performs, per accumulator cell, the exact same
// sequence of IEEE operations in the exact same order as the portable
// arm — it only packs independent sample-axis lanes into one register.
// Multiplies and adds stay separate (its target set excludes "fma", so
// the compiler cannot contract them), divisions stay divisions, and
// scalar tails repeat the identical expressions.
// tests/test_dpa_kernels.cpp pins the arms against each other bit for
// bit; treat any divergence there as a bug in this file.

namespace qdi::dpa::kernels {

namespace {

// ---------------------------------------------------------------- portable

void cpa_moments_portable(double* sum_s, double* sum_s2,
                          const double* const* rows, std::size_t cnt,
                          std::size_t m) {
  for (std::size_t c = 0; c < cnt; ++c) {
    const double* s = rows[c];
    for (std::size_t j = 0; j < m; ++j) {
      sum_s[j] += s[j];
      sum_s2[j] += s[j] * s[j];
    }
  }
}

void cpa_rank_update_portable(double* sum_hs, const double* const* rows,
                              const double* const* hyp, std::size_t cnt,
                              unsigned guesses, std::size_t m,
                              std::size_t stride) {
  for (unsigned g = 0; g < guesses; ++g) {
    double* dst = sum_hs + static_cast<std::size_t>(g) * stride;
    for (std::size_t c = 0; c < cnt; ++c) {
      const double h = hyp[c][g];
      if (h == 0.0) continue;  // zero hypothesis contributes nothing
      const double* s = rows[c];
      for (std::size_t j = 0; j < m; ++j) dst[j] += h * s[j];
    }
  }
}

void row_add_portable(double* dst, const double* src, std::size_t m) {
  for (std::size_t j = 0; j < m; ++j) dst[j] += src[j];
}

void variance_portable(double* var, const double* sum_s, const double* sum_s2,
                       double nn, std::size_t m) {
  for (std::size_t j = 0; j < m; ++j)
    var[j] = sum_s2[j] - sum_s[j] * sum_s[j] / nn;
}

void corr_scan_portable(double* rho, const double* hs, const double* sum_s,
                        const double* var_s, double sum_h, double var_h,
                        double nn, std::size_t m) {
  for (std::size_t j = 0; j < m; ++j) {
    if (var_s[j] > 0.0) {
      const double cov = hs[j] - sum_h * sum_s[j] / nn;
      rho[j] = cov / std::sqrt(var_h * var_s[j]);
    } else {
      rho[j] = 0.0;
    }
  }
}

constexpr KernelTable kPortable = {
    "portable",        &cpa_moments_portable, &cpa_rank_update_portable,
    &row_add_portable, &variance_portable,    &corr_scan_portable,
};

#ifdef QDI_KERNELS_X86

// ------------------------------------------------------------------- avx2
// target("avx2") only — deliberately NOT "fma": mul and add must round
// separately to match the portable arm bit for bit.

__attribute__((target("avx2"))) void cpa_moments_avx2(
    double* sum_s, double* sum_s2, const double* const* rows, std::size_t cnt,
    std::size_t m) {
  for (std::size_t c = 0; c < cnt; ++c) {
    const double* s = rows[c];
    std::size_t j = 0;
    for (; j + 4 <= m; j += 4) {
      const __m256d v = _mm256_loadu_pd(s + j);
      _mm256_storeu_pd(sum_s + j,
                       _mm256_add_pd(_mm256_loadu_pd(sum_s + j), v));
      _mm256_storeu_pd(sum_s2 + j, _mm256_add_pd(_mm256_loadu_pd(sum_s2 + j),
                                                 _mm256_mul_pd(v, v)));
    }
    for (; j < m; ++j) {
      sum_s[j] += s[j];
      sum_s2[j] += s[j] * s[j];
    }
  }
}

// The read-time fold: guesses accumulator rows (`stride` apart, m
// columns each), every touched class. Guesses are walked in pairs so
// one s[j] vector load feeds two accumulator rows (the class sum is the
// only stream the unpaired form reloads per guess). Pairing never
// reorders a cell's contributions — both rows still see class sums in
// ascending c — and a pair member with h == 0.0 falls back to the
// single-row form, preserving the portable arm's exact skip decisions.
__attribute__((target("avx2"))) void rank_row_avx2(double* dst, double h,
                                                   const double* s,
                                                   std::size_t m) {
  const __m256d hv = _mm256_set1_pd(h);
  std::size_t j = 0;
  for (; j + 4 <= m; j += 4) {
    const __m256d prod = _mm256_mul_pd(hv, _mm256_loadu_pd(s + j));
    _mm256_storeu_pd(dst + j, _mm256_add_pd(_mm256_loadu_pd(dst + j), prod));
  }
  for (; j < m; ++j) dst[j] += h * s[j];
}

__attribute__((target("avx2"))) void cpa_rank_update_avx2(
    double* sum_hs, const double* const* rows, const double* const* hyp,
    std::size_t cnt, unsigned guesses, std::size_t m, std::size_t stride) {
  unsigned g = 0;
  for (; g + 2 <= guesses; g += 2) {
    double* dst0 = sum_hs + static_cast<std::size_t>(g) * stride;
    double* dst1 = dst0 + stride;
    for (std::size_t c = 0; c < cnt; ++c) {
      const double h0 = hyp[c][g];
      const double h1 = hyp[c][g + 1];
      const double* s = rows[c];
      if (h0 != 0.0 && h1 != 0.0) {
        const __m256d h0v = _mm256_set1_pd(h0);
        const __m256d h1v = _mm256_set1_pd(h1);
        std::size_t j = 0;
        for (; j + 4 <= m; j += 4) {
          const __m256d sv = _mm256_loadu_pd(s + j);
          _mm256_storeu_pd(
              dst0 + j, _mm256_add_pd(_mm256_loadu_pd(dst0 + j),
                                      _mm256_mul_pd(h0v, sv)));
          _mm256_storeu_pd(
              dst1 + j, _mm256_add_pd(_mm256_loadu_pd(dst1 + j),
                                      _mm256_mul_pd(h1v, sv)));
        }
        for (; j < m; ++j) {
          dst0[j] += h0 * s[j];
          dst1[j] += h1 * s[j];
        }
      } else {
        if (h0 != 0.0) rank_row_avx2(dst0, h0, s, m);
        if (h1 != 0.0) rank_row_avx2(dst1, h1, s, m);
      }
    }
  }
  for (; g < guesses; ++g) {
    double* dst = sum_hs + static_cast<std::size_t>(g) * stride;
    for (std::size_t c = 0; c < cnt; ++c) {
      const double h = hyp[c][g];
      if (h == 0.0) continue;
      rank_row_avx2(dst, h, rows[c], m);
    }
  }
}

__attribute__((target("avx2"))) void row_add_avx2(double* dst,
                                                  const double* src,
                                                  std::size_t m) {
  std::size_t j = 0;
  for (; j + 4 <= m; j += 4)
    _mm256_storeu_pd(
        dst + j, _mm256_add_pd(_mm256_loadu_pd(dst + j),
                               _mm256_loadu_pd(src + j)));
  for (; j < m; ++j) dst[j] += src[j];
}

__attribute__((target("avx2"))) void variance_avx2(double* var,
                                                   const double* sum_s,
                                                   const double* sum_s2,
                                                   double nn, std::size_t m) {
  const __m256d nv = _mm256_set1_pd(nn);
  std::size_t j = 0;
  for (; j + 4 <= m; j += 4) {
    const __m256d sv = _mm256_loadu_pd(sum_s + j);
    const __m256d mean_sq = _mm256_div_pd(_mm256_mul_pd(sv, sv), nv);
    _mm256_storeu_pd(var + j,
                     _mm256_sub_pd(_mm256_loadu_pd(sum_s2 + j), mean_sq));
  }
  for (; j < m; ++j) var[j] = sum_s2[j] - sum_s[j] * sum_s[j] / nn;
}

__attribute__((target("avx2"))) void corr_scan_avx2(
    double* rho, const double* hs, const double* sum_s, const double* var_s,
    double sum_h, double var_h, double nn, std::size_t m) {
  const __m256d hv = _mm256_set1_pd(sum_h);
  const __m256d nv = _mm256_set1_pd(nn);
  const __m256d vh = _mm256_set1_pd(var_h);
  const __m256d zero = _mm256_setzero_pd();
  std::size_t j = 0;
  for (; j + 4 <= m; j += 4) {
    const __m256d vs = _mm256_loadu_pd(var_s + j);
    const __m256d cov = _mm256_sub_pd(
        _mm256_loadu_pd(hs + j),
        _mm256_div_pd(_mm256_mul_pd(hv, _mm256_loadu_pd(sum_s + j)), nv));
    const __m256d r =
        _mm256_div_pd(cov, _mm256_sqrt_pd(_mm256_mul_pd(vh, vs)));
    // Lanes with var_s <= 0 computed garbage (NaN/inf); the and-mask
    // replaces them with +0.0, which finalize()'s strict max ignores.
    _mm256_storeu_pd(rho + j,
                     _mm256_and_pd(_mm256_cmp_pd(vs, zero, _CMP_GT_OQ), r));
  }
  for (; j < m; ++j) {
    if (var_s[j] > 0.0) {
      const double cov = hs[j] - sum_h * sum_s[j] / nn;
      rho[j] = cov / std::sqrt(var_h * var_s[j]);
    } else {
      rho[j] = 0.0;
    }
  }
}

constexpr KernelTable kAvx2 = {
    "avx2",        &cpa_moments_avx2, &cpa_rank_update_avx2,
    &row_add_avx2, &variance_avx2,    &corr_scan_avx2,
};

#endif  // QDI_KERNELS_X86

}  // namespace

bool supported(Kind k) noexcept {
  switch (k) {
    case Kind::Portable:
      return true;
#ifdef QDI_KERNELS_X86
    case Kind::Avx2:
      return util::cpu_features().avx2;
#else
    case Kind::Avx2:
      return false;
#endif
  }
  return false;
}

const KernelTable* table(Kind k) noexcept {
  if (!supported(k)) return nullptr;
  switch (k) {
    case Kind::Portable:
      return &kPortable;
#ifdef QDI_KERNELS_X86
    case Kind::Avx2:
      return &kAvx2;
#else
    case Kind::Avx2:
      return nullptr;
#endif
  }
  return nullptr;
}

const KernelTable& active() noexcept {
  static const KernelTable* const picked = [] {
    if (!util::force_portable())
      if (const KernelTable* avx2 = table(Kind::Avx2)) return avx2;
    return table(Kind::Portable);
  }();
  return *picked;
}

}  // namespace qdi::dpa::kernels
