// BatchAccumulator — the 64-lane form of StreamingAccumulator.
//
// The batch kernel commits one merged (t, net) event for up to 64 lanes
// at once; this sink bins each lane's triangular charge pulse into that
// lane's sample row, bit-identical to the scalar accumulator: both bin
// through the rules of src/power/pulse.hpp, and
//
//   * the charge scale q / dt depends only on the net and the edge
//     direction, so it is tabulated per net;
//   * per-net slew is static (see BatchSimulator), so the lanes of a
//     merged commit that share a window (all of them at jitter 0) share
//     one addend table per edge direction;
//   * a lane's pulses arrive in that lane's scalar commit order (the
//     canonical (t, net) pop order), so each row's floating-point
//     accumulation order matches the scalar trace exactly.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "qdi/power/synth.hpp"
#include "qdi/sim/batch_simulator.hpp"

namespace qdi::power {

class BatchAccumulator final : public sim::BatchPowerSink {
 public:
  /// `cap_ff_per_net` is CompiledNetlist::cap_ff; the per-net scales are
  /// tabulated here, once per worker. Throws std::invalid_argument
  /// unless params.sample_period_ps is finite and > 0.
  BatchAccumulator(PowerModelParams params,
                   std::span<const double> cap_ff_per_net);

  const PowerModelParams& params() const noexcept { return params_; }

  /// Open per-lane windows [t0_ps[l], t0_ps[l] + window_ps) for the
  /// lanes of `mask`. All windows share the sample count
  /// ceil(window_ps / dt); their starts may differ (acquisition jitter).
  void begin_windows(const double* t0_ps, std::uint64_t mask,
                     double window_ps);

  void on_batch_transition(double t_ps, std::uint32_t net,
                           std::uint64_t live, std::uint64_t rising,
                           double slew_ps) override;

  /// Scale lane `lane`'s row to µA into `dst` (geometry reset to that
  /// lane's window) and add per-sample Gaussian noise from `noise` —
  /// the per-lane twin of StreamingAccumulator::finish_into. The row is
  /// left behind (it is cleared by the next begin_windows).
  void finish_into_lane(std::size_t lane, PowerTrace& dst,
                        util::Rng* noise = nullptr) const;

 private:
  PowerModelParams params_;
  std::vector<double> scale_rise_;  ///< per net: q_rise / dt (0 skips)
  std::vector<double> scale_fall_;  ///< per net: q_fall / dt
  std::vector<double> rows_;        ///< lane-major: rows_[lane * n_ + j]
  /// Addend table (scale * frac per bin) of the lanes that share a
  /// window, built once per edge direction and replayed by each.
  std::vector<double> frac_;
  double t0_[sim::kBatchLanes] = {};
  double t_end_[sim::kBatchLanes] = {};
  // Touched-bin range per lane: activity usually covers a fraction of
  // the window, so begin_windows re-zeroes and finish_into_lane reads
  // only [j_min, j_max) instead of sweeping all n_ bins.
  std::size_t j_min_[sim::kBatchLanes] = {};
  std::size_t j_max_[sim::kBatchLanes] = {};
  std::size_t n_ = 0;
  double window_ps_ = 0.0;
  bool aligned_ = true;  ///< all open windows share t0 (jitter == 0)
};

}  // namespace qdi::power
