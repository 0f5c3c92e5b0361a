// Private power-module header (not installed): the pulse shape and the
// sample-grid precondition shared by the scalar accumulator, the
// 64-lane accumulator and triangle_overlap(). One definition keeps the
// three binning paths bit-identical.
#pragma once

#include <cmath>
#include <stdexcept>
#include <string>

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

}  // namespace qdi::power::detail
