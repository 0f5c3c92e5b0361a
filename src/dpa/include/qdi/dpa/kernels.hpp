// Runtime-dispatched SIMD kernels for the streaming analysis engine.
//
// The hot loops of dpa::OnlineCpa / dpa::OnlineDpa — per-trace ingest
// (the shared per-sample moments and the one vector add into the
// trace's class sum), the read-time fold of class sums into the
// guesses x m matrix, and the finalize-side covariance scans — are
// factored into this table of function pointers with portable and
// AVX2 arms (on x86-64 the portable arm is itself -O3-autovectorized
// to SSE2). The arm is picked ONCE at load via
// util::cpu_features() — the same pattern as util::Sha256's SHA-NI
// compressor — and QDI_FORCE_PORTABLE pins the portable arm everywhere.
//
// Determinism contract (why the arms are interchangeable): every
// kernel vectorizes over the SAMPLE axis j only. Each accumulator cell
// still receives its contributions in the caller's order (traces for
// the moments and class sums, classes for the fold), one rounding per
// add and one per multiply (mul-then-add, never FMA — the arms exclude
// "fma" from their target sets so the compiler cannot contract), and
// the scalar tail performs the identical operations on the identical
// values. There is no reassociation anywhere, so the AVX2 arm is
// BIT-IDENTICAL to the portable arm — a property
// tests/test_dpa_kernels.cpp asserts on awkward geometries rather than
// assumes.
#pragma once

#include <cstddef>

namespace qdi::dpa::kernels {

/// One implementation of every analysis hot loop. All pointers are
/// non-null in any table returned by table() / active().
struct KernelTable {
  const char* name;  ///< "portable" / "avx2"

  /// CPA per-sample moments: for each trace c in order,
  /// sum_s[j] += s[j]; sum_s2[j] += s[j]*s[j].
  void (*cpa_moments)(double* sum_s, double* sum_s2,
                      const double* const* rows, std::size_t cnt,
                      std::size_t m);

  /// The read-time fold, a rank-cnt update over m columns: for each
  /// hypothesis column g, dst = sum_hs + g*stride; for each class sum
  /// s = rows[c] in order: h = hyp[c][g]; if h == 0.0 the class is
  /// skipped (identical skip decision in every arm); else dst[j] +=
  /// h * s[j] for j < m. CPA folds its hypothesis rows through it; DPA
  /// folds {0.0, 1.0} decision rows, for which it adds a class sum
  /// exactly (1.0 * x == x) or skips it.
  ///
  /// A caller folds the column range [lo, lo + m) of a guesses x stride
  /// matrix by passing sum_hs + lo, rows offset by lo and the full row
  /// length as stride. Leaving out columns where every s[j] is ±0.0 is
  /// exact when every h is finite and no dst cell is -0.0: then
  /// h * s[j] is ±0.0 and adding it changes no cell. A folded cell
  /// starts at +0.0 and only ever has values added to it, and such a
  /// sum is never -0.0 (x + y is -0.0 only for -0.0 + -0.0).
  void (*cpa_rank_update)(double* sum_hs, const double* const* rows,
                          const double* const* hyp, std::size_t cnt,
                          unsigned guesses, std::size_t m, std::size_t stride);

  /// dst[j] += src[j]: the per-trace add into a class sum (and the DPA
  /// shared per-sample sum), and the class-sum merge.
  void (*row_add)(double* dst, const double* src, std::size_t m);

  /// var[j] = sum_s2[j] - sum_s[j] * (sum_s[j] / nn) is NOT what we
  /// compute — the scan keeps the engine's historical expression
  /// var[j] = sum_s2[j] - sum_s[j] * sum_s[j] / nn (mul, then divide,
  /// then subtract) so cached variances match the pre-kernel bits.
  void (*variance)(double* var, const double* sum_s, const double* sum_s2,
                   double nn, std::size_t m);

  /// Signed correlation scan for one guess over a sample range:
  /// cov = hs[j] - sum_h * sum_s[j] / nn;
  /// rho[j] = var_s[j] > 0.0 ? cov / sqrt(var_h * var_s[j]) : 0.0.
  /// The zeroed lanes can never win finalize()'s strict max scan, so
  /// the select reproduces the historical "skip non-positive variance"
  /// semantics bit-for-bit.
  void (*corr_scan)(double* rho, const double* hs, const double* sum_s,
                    const double* var_s, double sum_h, double var_h,
                    double nn, std::size_t m);
};

enum class Kind { Portable, Avx2 };

/// True when this build/CPU can run the given arm (Portable: always).
bool supported(Kind k) noexcept;

/// The named arm, or nullptr when unsupported on this build/CPU.
/// Differential tests use this to pit the arms against each other.
const KernelTable* table(Kind k) noexcept;

/// The arm every accumulator uses by default: the widest supported
/// one, picked once at load; QDI_FORCE_PORTABLE pins Portable.
const KernelTable& active() noexcept;

}  // namespace qdi::dpa::kernels
