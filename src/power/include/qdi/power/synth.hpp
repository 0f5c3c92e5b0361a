// Behavioural current synthesis — the reproduction's substitute for the
// paper's transistor-level Eldo simulation (section V).
//
// Model (section III of the paper): each committed net transition
// charges or discharges the switched node's total capacitance
// C = Cl + Cpar + Csc through the driving gate, drawing the charge
// Q = C·Vdd from the supply over the charge time Δt(C):
//
//     I(t) = C · dV/dt,   ∫ I dt = C·Vdd,   support width Δt(C).
//
// We synthesize each transition as a triangular pulse of width Δt and
// area Q, accumulate all pulses into sample bins charge-exactly, and
// optionally add the Gaussian measurement noise P_dn of eq. 5. Rising
// edges (charging from Vdd) appear at full weight in the supply current;
// falling edges (discharge to ground) at a reduced weight — only the
// short-circuit component is visible on the supply rail.
//
// The accumulator is streaming-first: StreamingAccumulator is a
// sim::PowerSink that bins transitions as the simulator commits them, so
// acquisition never materializes a transition log. synthesize() is a
// thin wrapper that replays a recorded log through the same accumulator
// — the two paths are bit-identical by construction.
//
// Pulse cache. A pulse's per-bin addends scale·frac[j] depend only on
// (net, edge, t_ps, slew, cap) and the window (t0, length). Every trace
// of a campaign replays from the same post-reset epoch into the same
// window, so almost every pulse repeats an earlier trace's (99.8% of
// des_round pulses over 4000 traces). The accumulator therefore keeps, per (net, edge), a few
// slots (t_ps -> span of stored addends in a pool) and replays a stored
// span on a hit, adding the same values in the same order as direct
// binning. A bin the direct path skips (frac == 0) inside a span gets
// +0.0, which leaves the never-negative-zero bins bit-equal. Anything the
// cache cannot hold bins directly — never an error: a new window bumps
// the generation and empties the cache; a slew or cap differing from
// the group's (a forced net), a full group or a full pool skip the
// record. The first window is a warm-up that bins directly and measures
// the working set; the next begin_window allocates the group table and
// the pool once from it, and neither grows past its capacity afterwards,
// so the steady-state loop allocates nothing.
#pragma once

#include <cstdint>
#include <vector>

#include "qdi/power/trace.hpp"
#include "qdi/sim/transition.hpp"
#include "qdi/util/rng.hpp"

namespace qdi::power {

struct PowerModelParams {
  double vdd = 1.2;              ///< supply voltage (HCMOS9 0.13 µm class)
  double sample_period_ps = 10;  ///< acquisition sampling step
  double cpar_ff = 1.5;          ///< parasitic capacitance added per node
  double csc_ff = 0.8;           ///< short-circuit equivalent capacitance
  double rise_weight = 1.0;      ///< supply visibility of charging edges
  double fall_weight = 0.35;     ///< supply visibility of discharging edges
  double noise_sigma_ua = 0.0;   ///< Gaussian current noise per sample, µA

  /// Total switched capacitance for a net of load `cap_ff`:
  /// C = Cl + Cpar + Csc (section III).
  double total_cap_ff(double cap_ff) const noexcept {
    return cap_ff + cpar_ff + csc_ff;
  }
};

/// Streaming charge accumulator: bins each transition's triangular pulse
/// into the sample grid of the current window at commit time. Attach it
/// to a simulation engine as the PowerSink for zero-log acquisition, or
/// feed it a recorded log (what synthesize() does).
class StreamingAccumulator final : public sim::PowerSink {
 public:
  /// Throws std::invalid_argument unless params.sample_period_ps is
  /// finite and > 0.
  explicit StreamingAccumulator(PowerModelParams params = {});

  const PowerModelParams& params() const noexcept { return params_; }

  /// Open a fresh window covering [t0_ps, t0_ps + window_ps). Clears any
  /// previous accumulation; the sample buffer's capacity is retained
  /// only until finish() moves it out.
  void begin_window(double t0_ps, double window_ps);

  /// Accumulate one transition's overlap with the open window. Call
  /// order must be commit order for bit-identical results.
  void on_transition(const sim::Transition& t) override;

  /// Scale to µA, add per-sample Gaussian noise if `noise` is provided
  /// and noise_sigma_ua > 0, and move the finished trace out.
  PowerTrace finish(util::Rng* noise = nullptr);

  /// finish() into a caller-owned trace by swapping buffers: `dst`
  /// receives the finished trace and its previous sample buffer becomes
  /// the accumulator's next window — after one warm-up trace per worker
  /// the begin_window/finish_into cycle performs no allocation at all.
  /// The two steps are separable: finish_into(dst) followed by
  /// add_noise(dst, params(), noise) is the same trace, bit for bit, and
  /// leaves `noise` at the same stream position. The campaign layer's
  /// trace memo stores the trace between the steps and replays it
  /// through add_noise alone.
  void finish_into(PowerTrace& dst, util::Rng* noise = nullptr);

  /// Pulses replayed from the pulse cache / binned directly, since
  /// construction (pulses with zero charge count as neither).
  std::uint64_t pulse_hits() const noexcept { return hits_; }
  std::uint64_t pulse_misses() const noexcept { return misses_; }

 private:
  /// Distinct commit times remembered per (net, edge). On des_round
  /// with a skewed sbox (the benchmark victim) a third of the groups see
  /// three commit times; 16 of 6,880 see four.
  static constexpr unsigned kSlots = 3;

  /// Cached pulses of one (net, edge), one cache line: slot s adds
  /// pool_[offset[s] + k] to bin j_lo[s] + k for k < count[s]. Valid
  /// only while gen == gen_, and only for transitions with this slew
  /// and cap. Spans past bin 65535 or longer than 255 bins are never
  /// recorded.
  struct alignas(64) PulseGroup {
    double slew_ps = 0.0;
    double cap_ff = 0.0;
    double t_ps[kSlots] = {};
    std::uint32_t offset[kSlots] = {};
    std::uint16_t j_lo[kSlots] = {};
    std::uint8_t count[kSlots] = {};
    std::uint8_t used = 0;
    std::uint16_t gen = 0;
  };
  static_assert(sizeof(PulseGroup) == 64);

  void allocate_cache();
  void bin_direct(const sim::Transition& t, std::size_t group);
  PulseGroup* recordable(const sim::Transition& t, std::size_t group);

  PowerModelParams params_;
  PowerTrace trace_;
  double t0_ps_ = 0.0;       ///< window of the current generation
  double window_ps_ = -1.0;  ///< < 0: no window opened yet
  double t_end_ps_ = 0.0;    ///< exact window end (≤ t0 + size·dt)

  std::vector<PulseGroup> groups_;  ///< index (net << 1) | rising
  std::vector<double> pool_;        ///< stored addends of this generation
  std::uint16_t gen_ = 1;
  /// Past the warm-up window: the cache is allocated and never grows.
  bool warm_ = false;
  // Working set of the warm-up window, which bins directly.
  std::size_t warm_groups_ = 0;  ///< highest group index + 1
  std::size_t warm_bins_ = 0;
  std::size_t warm_spans_ = 0;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
};

/// The measurement noise P_dn of eq. 5, the one definition every
/// accumulator and the trace memo share: when `noise` is provided and
/// params.noise_sigma_ua > 0, add one N(0, sigma) draw to each sample in
/// index order; otherwise leave the trace (and the stream) untouched.
void add_noise(PowerTrace& trace, const PowerModelParams& params,
               util::Rng* noise);

/// Accumulate the given transitions into a trace covering
/// [window_t0_ps, window_t0_ps + window_ps). Transitions outside the
/// window contribute their overlapping part only. If `noise` is provided
/// and noise_sigma_ua > 0, adds i.i.d. Gaussian noise per sample. Thin
/// wrapper over StreamingAccumulator for recorded transition logs.
PowerTrace synthesize(const std::vector<sim::Transition>& transitions,
                      double window_t0_ps, double window_ps,
                      const PowerModelParams& params,
                      util::Rng* noise = nullptr);

/// Charge of one transition as seen on the supply rail (µA·ps = fC):
/// weight(edge) · C_total · Vdd, the edge charge both accumulators bin.
double transition_charge_fc(const sim::Transition& t,
                            const PowerModelParams& params) noexcept;

/// Fraction of a triangular pulse spanning [start, start+width) that
/// falls inside [a, b). Exposed for tests (must integrate to 1).
double triangle_overlap(double start, double width, double a, double b) noexcept;

}  // namespace qdi::power
