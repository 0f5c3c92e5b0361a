// Private power-module header (not installed): the charge-model rules
// the scalar accumulator, the 64-lane accumulator and triangle_overlap()
// share — pulse shape, edge charge, pulse span, bin loop and the
// sample-grid precondition. One definition keeps every binning path
// bit-identical.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>

#include "qdi/power/synth.hpp"

namespace qdi::power::detail {

/// CDF of the normalized triangular pulse on [0,1] with apex 1/2
/// (pdf 4u on [0,1/2], 4(1-u) on [1/2,1]). Binning differences it at
/// adjacent bin boundaries.
inline double triangle_cdf(double u) noexcept {
  if (u <= 0.0) return 0.0;
  if (u >= 1.0) return 1.0;
  if (u <= 0.5) return 2.0 * u * u;
  const double v = 1.0 - u;
  return 1.0 - 2.0 * v * v;
}

/// A sample grid needs a finite, positive step: 0 would size every
/// window to zero samples, a negative step to a negative count.
inline double checked_sample_period(double dt_ps, const char* who) {
  if (!std::isfinite(dt_ps) || !(dt_ps > 0.0))
    throw std::invalid_argument(
        std::string(who) +
        ": PowerModelParams::sample_period_ps must be finite and > 0");
  return dt_ps;
}

/// Supply charge of a rising or falling edge on a net of load `cap_ff`:
/// q = weight · C_total · Vdd (fC), and the scale q / dt that multiplies
/// each bin's fraction of the pulse.
struct EdgeCharge {
  double q;
  double scale;
};
inline EdgeCharge edge_charge(bool rising, double cap_ff,
                              const PowerModelParams& p) noexcept {
  const double weight = rising ? p.rise_weight : p.fall_weight;
  const double q = weight * p.total_cap_ff(cap_ff) * p.vdd;
  return {q, q / p.sample_period_ps};
}

/// Bins [j_lo, j_hi) of a window that one pulse may touch.
struct PulseSpan {
  double start;      ///< pulse start, t_commit - width
  double inv_width;  ///< 1 / width
  double t0;         ///< window start
  double dt;         ///< sample period
  std::size_t j_lo;
  std::size_t j_hi;  ///< >= j_lo

  /// Pulse CDF at the lower boundary of bin j.
  double cdf_at(std::size_t j) const noexcept {
    return triangle_cdf((t0 + static_cast<double>(j) * dt - start) *
                        inv_width);
  }
};

/// Span of the pulse of a commit at `t_ps` with slew `slew_ps` on the
/// window [t0, t_end) of `n` samples of `dt`; nullopt if it misses the
/// window. Charge flows while the output swings, so the pulse covers
/// [t_commit - width, t_commit], width = max(slew, 1 fs).
inline std::optional<PulseSpan> pulse_span(double t_ps, double slew_ps,
                                           double t0, double t_end, double dt,
                                           std::size_t n) noexcept {
  const double width = std::max(slew_ps, 1e-3);
  const double start = t_ps - width;
  if (start >= t_end || start + width <= t0) return std::nullopt;
  const std::size_t j_hi = std::min(
      n, static_cast<std::size_t>(std::ceil((start + width - t0) / dt)) + 1);
  const std::size_t j_lo = std::min(
      j_hi, static_cast<std::size_t>(
                std::max(0.0, std::floor((start - t0) / dt))));
  return PulseSpan{start, 1.0 / width, t0, dt, j_lo, j_hi};
}

/// The bin loop: emit(j, scale · frac_j) for each bin of `s` in
/// ascending order, frac_j differenced from the CDF at adjacent bin
/// boundaries (charge-exact by telescoping). A bin the pulse does not
/// reach (frac 0, only at a span's ends) gets +0.0, which leaves any
/// bin bit-equal: bins start at +0.0 and never become -0.0.
template <class Emit>
inline void bin_pulse(const PulseSpan& s, double scale, Emit&& emit) {
  double cdf_lo = s.cdf_at(s.j_lo);
  for (std::size_t j = s.j_lo; j < s.j_hi; ++j) {
    const double cdf_hi = s.cdf_at(j + 1);
    const double frac = cdf_hi - cdf_lo;
    cdf_lo = cdf_hi;
    emit(j, frac > 0.0 ? scale * frac : 0.0);
  }
}

/// [lo, hi): addends ad[0, n) without their leading and trailing zeros.
inline std::pair<std::size_t, std::size_t> nonzero_range(
    const double* ad, std::size_t n) noexcept {
  std::size_t lo = 0;
  std::size_t hi = n;
  while (lo < hi && ad[lo] == 0.0) ++lo;
  while (hi > lo && ad[hi - 1] == 0.0) --hi;
  return {lo, hi};
}

}  // namespace qdi::power::detail
