#include "qdi/power/synth.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <optional>
#include <utility>

#include "pulse.hpp"

namespace qdi::power {

namespace {

/// Bounds of the addend pool (doubles). Between them, the pool holds
/// two spans of the warm-up window's mean length per (net, edge) the
/// group table can index (1.8 distinct pulses per (net, edge) on the
/// skewed des_round).
constexpr std::size_t kPoolSpansPerGroup = 2;
constexpr std::size_t kPoolMin = std::size_t{1} << 12;
constexpr std::size_t kPoolMax = std::size_t{1} << 20;
/// Nets past this id always bin directly.
constexpr std::size_t kMaxCachedNet = std::size_t{1} << 24;

}  // namespace

double triangle_overlap(double start, double width, double a, double b) noexcept {
  if (width <= 0.0) {
    // Degenerate impulse: all charge at `start`.
    return (start >= a && start < b) ? 1.0 : 0.0;
  }
  const double ua = (a - start) / width;
  const double ub = (b - start) / width;
  return detail::triangle_cdf(ub) - detail::triangle_cdf(ua);
}

double transition_charge_fc(const sim::Transition& t,
                            const PowerModelParams& params) noexcept {
  return detail::edge_charge(t.rising, t.cap_ff, params).q;
}

StreamingAccumulator::StreamingAccumulator(PowerModelParams params)
    : params_(params) {
  detail::checked_sample_period(params_.sample_period_ps,
                                "StreamingAccumulator");
}

void StreamingAccumulator::begin_window(double t0_ps, double window_ps) {
  const double dt = params_.sample_period_ps;
  const std::size_t n = static_cast<std::size_t>(std::ceil(window_ps / dt));
  trace_.reset(t0_ps, dt, n);  // capacity-retaining zero-fill
  t_end_ps_ = t0_ps + window_ps;
  if (window_ps_ >= 0.0 && !warm_) allocate_cache();
  if (t0_ps != t0_ps_ || window_ps != window_ps_) {
    // Stored spans are window-relative: start a new generation.
    t0_ps_ = t0_ps;
    window_ps_ = window_ps;
    pool_.clear();
    if (++gen_ == 0) {  // wrapped: no stale group may look current
      for (PulseGroup& g : groups_) g.gen = 0;
      gen_ = 1;
    }
  }
}

void StreamingAccumulator::on_transition(const sim::Transition& t) {
  const std::size_t gi =
      (static_cast<std::size_t>(t.net) << 1) | (t.rising ? 1u : 0u);
  if (gi < groups_.size()) {
    const PulseGroup& g = groups_[gi];
    if (g.gen == gen_ && g.slew_ps == t.slew_ps && g.cap_ff == t.cap_ff) {
      for (unsigned s = 0; s < g.used; ++s) {
        if (g.t_ps[s] != t.t_ps) continue;
        ++hits_;
        double* bins = trace_.samples().data() + g.j_lo[s];
        const double* ad = pool_.data() + g.offset[s];
        for (unsigned k = 0; k < g.count[s]; ++k) bins[k] += ad[k];
        return;
      }
    }
  }
  bin_direct(t, gi);
}

/// The first window binned directly and measured the working set; size
/// the cache from it in one allocation each. Net ids past the warm-up's
/// highest (the other rail of a late dual-rail bit) get 1/8 headroom.
void StreamingAccumulator::allocate_cache() {
  if (warm_groups_ == 0) return;  // nothing binned yet: keep warming up
  warm_ = true;
  groups_.reserve(warm_groups_ + warm_groups_ / 8);
  groups_.resize(warm_groups_);
  const std::size_t mean_span =
      warm_spans_ == 0 ? 1 : (warm_bins_ + warm_spans_ - 1) / warm_spans_;
  pool_.reserve(std::clamp(kPoolSpansPerGroup * groups_.capacity() * mean_span,
                           kPoolMin, kPoolMax));
}

/// The group that may record `t`'s pulse as a new slot, or nullptr when
/// the cache cannot hold it (the pulse then bins without a record).
StreamingAccumulator::PulseGroup* StreamingAccumulator::recordable(
    const sim::Transition& t, std::size_t gi) {
  if (t.net >= kMaxCachedNet) return nullptr;
  if (!warm_) {
    warm_groups_ = std::max(warm_groups_, gi + 1);
    return nullptr;
  }
  if (gi >= groups_.size()) {
    if (gi >= groups_.capacity()) return nullptr;
    groups_.resize(gi + 1);
  }
  PulseGroup& g = groups_[gi];
  if (g.gen != gen_ || g.used == 0) {
    g.gen = gen_;
    g.used = 0;
    g.slew_ps = t.slew_ps;
    g.cap_ff = t.cap_ff;
  } else if (g.slew_ps != t.slew_ps || g.cap_ff != t.cap_ff) {
    return nullptr;
  }
  return g.used < kSlots ? &g : nullptr;
}

/// Miss path: bin `t` directly, recording its span when the cache can
/// hold it.
void StreamingAccumulator::bin_direct(const sim::Transition& t,
                                      std::size_t gi) {
  const detail::EdgeCharge c =
      detail::edge_charge(t.rising, t.cap_ff, params_);
  if (c.q == 0.0) return;
  ++misses_;
  PulseGroup* g = recordable(t, gi);
  const auto record = [&](std::size_t j_lo, std::size_t offset,
                          std::size_t count) {
    const unsigned s = g->used++;
    g->t_ps[s] = t.t_ps;
    g->j_lo[s] = static_cast<std::uint16_t>(j_lo);
    g->offset[s] = static_cast<std::uint32_t>(offset);
    g->count[s] = static_cast<std::uint8_t>(count);
  };

  const std::optional<detail::PulseSpan> ps =
      detail::pulse_span(t.t_ps, t.slew_ps, trace_.t0_ps(), t_end_ps_,
                         trace_.dt_ps(), trace_.size());
  if (!ps) {
    if (g != nullptr) record(0, 0, 0);  // an empty span hits too
    return;
  }
  const std::size_t j_lo = ps->j_lo;
  const std::size_t span = ps->j_hi - j_lo;
  const std::size_t offset = pool_.size();
  if (!warm_) {
    warm_bins_ += span;
    ++warm_spans_;
  }
  if (g == nullptr || offset + span > pool_.capacity() ||
      span > UINT8_MAX || ps->j_hi > UINT16_MAX) {
    double* bins = trace_.samples().data();
    detail::bin_pulse(*ps, c.scale,
                      [&](std::size_t j, double a) { bins[j] += a; });
    return;
  }

  // Record the addends, trimmed to the first..last nonzero one, then add
  // them like a hit.
  pool_.resize(offset + span);
  double* ad = pool_.data() + offset;
  detail::bin_pulse(*ps, c.scale,
                    [&](std::size_t j, double a) { ad[j - j_lo] = a; });
  const auto [lo, hi] = detail::nonzero_range(ad, span);
  if (lo > 0) std::copy(ad + lo, ad + hi, ad);
  pool_.resize(offset + (hi - lo));
  record(j_lo + lo, offset, hi - lo);
  double* bins = trace_.samples().data() + j_lo + lo;
  for (std::size_t k = 0; k < hi - lo; ++k) bins[k] += ad[k];
}

PowerTrace StreamingAccumulator::finish(util::Rng* noise) {
  PowerTrace out;
  finish_into(out, noise);
  return out;
}

void StreamingAccumulator::finish_into(PowerTrace& dst, util::Rng* noise) {
  // Unit bookkeeping: q is in fC, bins in ps, so q/dt is fC/ps = mA.
  // Scale to µA for friendlier magnitudes.
  trace_ *= 1000.0;
  // Buffer ping-pong: dst's old storage becomes the next window.
  std::swap(dst, trace_);
  add_noise(dst, params_, noise);
}

void add_noise(PowerTrace& trace, const PowerModelParams& params,
               util::Rng* noise) {
  if (noise == nullptr || !(params.noise_sigma_ua > 0.0)) return;
  for (std::size_t j = 0; j < trace.size(); ++j)
    trace[j] += noise->gaussian(0.0, params.noise_sigma_ua);
}

PowerTrace synthesize(const std::vector<sim::Transition>& transitions,
                      double window_t0_ps, double window_ps,
                      const PowerModelParams& params, util::Rng* noise) {
  StreamingAccumulator acc(params);
  acc.begin_window(window_t0_ps, window_ps);
  for (const sim::Transition& t : transitions) acc.on_transition(t);
  return acc.finish(noise);
}

}  // namespace qdi::power
