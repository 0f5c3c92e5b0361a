#include "qdi/power/batch_synth.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

#include "pulse.hpp"

namespace qdi::power {

using detail::triangle_cdf;

BatchAccumulator::BatchAccumulator(PowerModelParams params,
                                   std::span<const double> cap_ff_per_net)
    : params_(params) {
  const double dt = detail::checked_sample_period(params_.sample_period_ps,
                                                  "BatchAccumulator");
  scale_rise_.resize(cap_ff_per_net.size());
  scale_fall_.resize(cap_ff_per_net.size());
  for (std::size_t net = 0; net < cap_ff_per_net.size(); ++net) {
    // Exact operation order of transition_charge_fc + on_transition:
    // q = weight * C_total * vdd, scale = q / dt.
    const double q_rise =
        params_.rise_weight * params_.total_cap_ff(cap_ff_per_net[net]) *
        params_.vdd;
    const double q_fall =
        params_.fall_weight * params_.total_cap_ff(cap_ff_per_net[net]) *
        params_.vdd;
    scale_rise_[net] = q_rise == 0.0 ? 0.0 : q_rise / dt;
    scale_fall_[net] = q_fall == 0.0 ? 0.0 : q_fall / dt;
  }
}

void BatchAccumulator::begin_windows(const double* t0_ps, std::uint64_t mask,
                                     double window_ps) {
  const double dt = params_.sample_period_ps;
  const std::size_t n = static_cast<std::size_t>(std::ceil(window_ps / dt));
  if (n != n_ || rows_.size() != sim::kBatchLanes * n) {
    n_ = n;
    rows_.assign(sim::kBatchLanes * n_, 0.0);
    std::fill(std::begin(j_min_), std::end(j_min_), n_);
    std::fill(std::begin(j_max_), std::end(j_max_), std::size_t{0});
  }
  window_ps_ = window_ps;
  aligned_ = true;
  double shared_t0 = 0.0;
  bool first = true;
  std::uint64_t m = mask;
  while (m != 0) {
    const unsigned lane = static_cast<unsigned>(std::countr_zero(m));
    m &= m - 1;
    t0_[lane] = t0_ps[lane];
    t_end_[lane] = t0_ps[lane] + window_ps;
    // Only the previously touched bins are dirty.
    if (j_min_[lane] < j_max_[lane])
      std::fill(rows_.begin() + static_cast<std::ptrdiff_t>(lane * n_ +
                                                            j_min_[lane]),
                rows_.begin() + static_cast<std::ptrdiff_t>(lane * n_ +
                                                            j_max_[lane]),
                0.0);
    j_min_[lane] = n_;
    j_max_[lane] = 0;
    if (first) {
      shared_t0 = t0_ps[lane];
      first = false;
    } else if (t0_ps[lane] != shared_t0) {
      aligned_ = false;
    }
  }
}

void BatchAccumulator::on_batch_transition(double t_ps, std::uint32_t net,
                                           std::uint64_t live,
                                           std::uint64_t rising,
                                           double slew_ps) {
  const double dt = params_.sample_period_ps;
  const double width = std::max(slew_ps, 1e-3);
  const double start = t_ps - width;
  const double inv_width = 1.0 / width;

  if (aligned_) {
    // Shared window: one set of per-bin fractions serves every live
    // lane. The lead lane's window stands in for all of them.
    const unsigned lead = static_cast<unsigned>(std::countr_zero(live));
    const double t0 = t0_[lead];
    if (start >= t_end_[lead] || start + width <= t0) return;
    std::size_t j_lo = static_cast<std::size_t>(
        std::max(0.0, std::floor((start - t0) / dt)));
    const std::size_t j_hi = std::min(
        n_,
        static_cast<std::size_t>(std::ceil((start + width - t0) / dt)) + 1);
    if (frac_.size() < j_hi - j_lo) frac_.resize(j_hi - j_lo);

    // One addend table per edge direction: addend[k] = scale * frac[k],
    // computed once; every lane of that direction replays the identical
    // adds (same IEEE product and sum operands as the scalar
    // accumulator). Almost every merged commit moves all its lanes the
    // same way (the rails of a four-phase stage rise together and
    // return to zero together), so the common case builds one table,
    // fused with the CDF differencing.
    const std::uint64_t fall = live & ~rising;
    const auto cdf_at = [&](std::size_t j) {
      return triangle_cdf((t0 + static_cast<double>(j) * dt - start) *
                          inv_width);
    };
    // Per-direction addend build over [j_lo, j_hi): writes addend_[k]
    // = scale * (cdf(j+1) - cdf(j)) and returns it for the lane loop.
    const auto build = [&](double scale) {
      double cdf_lo = cdf_at(j_lo);
      double* ad = frac_.data();
      for (std::size_t j = j_lo; j < j_hi; ++j) {
        const double cdf_hi = cdf_at(j + 1);
        ad[j - j_lo] = scale * (cdf_hi - cdf_lo);
        cdf_lo = cdf_hi;
      }
    };
    // Only the boundary bins can carry a zero fraction (the CDF is
    // strictly increasing inside the pulse); trimming them makes the
    // per-lane loop branch-free while adding exactly what the scalar
    // accumulator's `frac > 0` test adds (an interior zero addend would
    // contribute +0.0, which leaves the non-negative rows bit-equal).
    const auto add_lanes = [&](std::uint64_t m, std::size_t lo,
                               std::size_t hi) {
      const double* ad = frac_.data() + (lo - j_lo);
      const std::size_t nb = hi - lo;
      while (m != 0) {
        const unsigned lane = static_cast<unsigned>(std::countr_zero(m));
        m &= m - 1;
        double* row = rows_.data() + lane * n_ + lo;
        for (std::size_t k = 0; k < nb; ++k) row[k] += ad[k];
        j_min_[lane] = std::min(j_min_[lane], lo);
        j_max_[lane] = std::max(j_max_[lane], hi);
      }
    };
    for (const bool up : {true, false}) {
      const std::uint64_t m = up ? (live & rising) : fall;
      if (m == 0) continue;
      const double scale = up ? scale_rise_[net] : scale_fall_[net];
      if (scale == 0.0) continue;  // scalar q == 0 early-out
      build(scale);
      std::size_t lo = j_lo;
      std::size_t hi = j_hi;
      const double* ad = frac_.data();
      while (lo < hi && ad[lo - j_lo] == 0.0) ++lo;
      while (hi > lo && ad[hi - 1 - j_lo] == 0.0) --hi;
      if (lo == hi) continue;
      add_lanes(m, lo, hi);
    }
    return;
  }

  // Jittered windows: replay the scalar binning per lane against that
  // lane's own window.
  std::uint64_t m = live;
  while (m != 0) {
    const unsigned lane = static_cast<unsigned>(std::countr_zero(m));
    m &= m - 1;
    const double scale = (rising >> lane) & 1u ? scale_rise_[net]
                                               : scale_fall_[net];
    if (scale == 0.0) continue;
    const double t0 = t0_[lane];
    if (start >= t_end_[lane] || start + width <= t0) continue;
    const std::size_t j_lo = static_cast<std::size_t>(
        std::max(0.0, std::floor((start - t0) / dt)));
    const std::size_t j_hi = std::min(
        n_,
        static_cast<std::size_t>(std::ceil((start + width - t0) / dt)) + 1);
    double* row = rows_.data() + lane * n_;
    double cdf_lo = triangle_cdf(
        (t0 + static_cast<double>(j_lo) * dt - start) * inv_width);
    for (std::size_t j = j_lo; j < j_hi; ++j) {
      const double cdf_hi = triangle_cdf(
          (t0 + static_cast<double>(j + 1) * dt - start) * inv_width);
      const double frac = cdf_hi - cdf_lo;
      cdf_lo = cdf_hi;
      if (frac > 0.0) row[j] += scale * frac;
    }
    j_min_[lane] = std::min(j_min_[lane], j_lo);
    j_max_[lane] = std::max(j_max_[lane], j_hi);
  }
}

void BatchAccumulator::finish_into_lane(std::size_t lane, PowerTrace& dst,
                                        util::Rng* noise) const {
  // Single pass over the n_ samples: zeros outside the touched range,
  // scaled row values inside (reset() would memset the whole buffer
  // first and then overwrite the touched part again).
  dst.reset_geometry(t0_[lane], params_.sample_period_ps, n_);
  const double* row = rows_.data() + lane * n_;
  const std::size_t lo = std::min(j_min_[lane], n_);
  const std::size_t hi = std::min(j_max_[lane], n_);
  double* out = dst.samples().data();
  std::fill(out, out + lo, 0.0);
  for (std::size_t j = lo; j < hi; ++j) out[j] = row[j] * 1000.0;
  std::fill(out + std::max(lo, hi), out + n_, 0.0);
  add_noise(dst, params_, noise);
}

}  // namespace qdi::power
