#include "qdi/power/batch_synth.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <optional>

#include "pulse.hpp"

namespace qdi::power {

BatchAccumulator::BatchAccumulator(PowerModelParams params,
                                   std::span<const double> cap_ff_per_net)
    : params_(params) {
  detail::checked_sample_period(params_.sample_period_ps, "BatchAccumulator");
  scale_rise_.resize(cap_ff_per_net.size());
  scale_fall_.resize(cap_ff_per_net.size());
  for (std::size_t net = 0; net < cap_ff_per_net.size(); ++net) {
    const double cap = cap_ff_per_net[net];
    scale_rise_[net] = detail::edge_charge(true, cap, params_).scale;
    scale_fall_[net] = detail::edge_charge(false, cap, params_).scale;
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
  // Lanes of one edge direction that share a window (all of them when
  // aligned, one at a time when jittered) replay one addend table: the
  // scalar accumulator's exact adds. An aligned commit usually builds
  // one table, as a four-phase stage's rails rise and return to zero
  // together. Trimming the zero end addends keeps the lane loop
  // branch-free.
  for (const bool up : {true, false}) {
    const double scale = up ? scale_rise_[net] : scale_fall_[net];
    if (scale == 0.0) continue;  // q == 0: the scalar path skips it too
    std::uint64_t m = live & (up ? rising : ~rising);
    while (m != 0) {
      const unsigned lead = static_cast<unsigned>(std::countr_zero(m));
      const std::uint64_t group = aligned_ ? m : std::uint64_t{1} << lead;
      m &= ~group;
      const std::optional<detail::PulseSpan> ps =
          detail::pulse_span(t_ps, slew_ps, t0_[lead], t_end_[lead],
                             params_.sample_period_ps, n_);
      if (!ps) continue;
      const std::size_t span = ps->j_hi - ps->j_lo;
      if (frac_.size() < span) frac_.resize(span);
      double* ad = frac_.data();
      detail::bin_pulse(*ps, scale, [&](std::size_t j, double a) {
        ad[j - ps->j_lo] = a;
      });
      const auto [k_lo, k_hi] = detail::nonzero_range(ad, span);
      if (k_lo == k_hi) continue;
      const std::size_t lo = ps->j_lo + k_lo;
      const std::size_t hi = ps->j_lo + k_hi;
      for (std::uint64_t g = group; g != 0; g &= g - 1) {
        const unsigned lane = static_cast<unsigned>(std::countr_zero(g));
        double* row = rows_.data() + lane * n_ + lo;
        const double* add = ad + k_lo;
        for (std::size_t k = 0; k < hi - lo; ++k) row[k] += add[k];
        j_min_[lane] = std::min(j_min_[lane], lo);
        j_max_[lane] = std::max(j_max_[lane], hi);
      }
    }
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
