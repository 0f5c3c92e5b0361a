// Four-phase handshake test environment (fig. 2 of the paper):
//   Phase 1 — environment drives valid data on the input channels,
//   Phase 2 — downstream acknowledge is asserted,
//   Phase 3 — inputs return to zero (invalid),
//   Phase 4 — acknowledge is released.
//
// The environment plays both the producer (drives input rails) and the
// consumer (asserts the block's downstream-ack inputs after observing
// valid outputs). Cycles are aligned on a fixed period so that power
// traces from different codewords are sample-aligned for DPA.
#pragma once

#include <cmath>
#include <cstdint>
#include <span>
#include <vector>

#include "qdi/netlist/netlist.hpp"
#include "qdi/sim/engine.hpp"

namespace qdi::sim {

struct EnvSpec {
  std::vector<netlist::ChannelId> inputs;   ///< env-driven channels
  std::vector<netlist::ChannelId> outputs;  ///< observed channels
  /// Ack inputs of the block that the environment drives as the consumer
  /// (asserted in phase 2, released in phase 4).
  std::vector<netlist::NetId> acks_to_block;
  netlist::NetId reset = netlist::kNoNet;  ///< active-high reset input
  double period_ps = 4000.0;  ///< cycle period (trace window length)
  double phase_gap_ps = 50.0; ///< idle gap the env waits before each phase
  /// Tester time grid for the ack/return-to-zero phase drives: when > 0,
  /// each phase 2/3/4 drive time is rounded UP to the next multiple of
  /// this grid (a real tester toggles pins on a clock, not at the DUT's
  /// exact completion instant). 0 keeps the exact now + phase_gap_ps
  /// times. Besides realism, a grid makes traces with different data
  /// reach the later phases at the SAME absolute times — which is what
  /// lets the batch engine keep its 64 lanes in lockstep through the
  /// return-to-zero wavefront instead of diverging per lane.
  double phase_align_ps = 0.0;
  /// Strict mode (default) logs a warning on a stalled handshake and
  /// throws when a cycle overruns the period — right for fault-free
  /// acquisition, where either is a harness bug. Fault campaigns run
  /// tolerant (strict = false): stalls and overruns are expected outcomes
  /// of an injection and are reported through CycleResult::handshake
  /// without noise or unwinding.
  bool strict = true;
};

/// Where a four-phase cycle stalled (first phase that failed to complete).
enum class HandshakePhase : std::uint8_t {
  None,          ///< no stall
  DataValid,     ///< outputs never became valid after data was driven
  Ack,           ///< (reserved — ack assertion cannot stall in this env)
  ReturnToZero,  ///< outputs never emptied after inputs returned to zero
  AckRelease,    ///< (reserved — ack release cannot stall in this env)
};

inline const char* name(HandshakePhase p) noexcept {
  switch (p) {
    case HandshakePhase::None: return "none";
    case HandshakePhase::DataValid: return "data-valid";
    case HandshakePhase::Ack: return "ack";
    case HandshakePhase::ReturnToZero: return "return-to-zero";
    case HandshakePhase::AckRelease: return "ack-release";
  }
  return "?";
}

/// Outcome of one four-phase handshake cycle. A QDI block hit by a fault
/// does not produce a wrong answer and move on — it *stalls* (the
/// completion tree waits forever for a rail that cannot rise); this
/// struct is the observable form of that deadlock, and the primitive the
/// fault classifier is built on.
struct HandshakeOutcome {
  bool completed = false;  ///< all four phases ran to completion
  HandshakePhase stalled_phase = HandshakePhase::None;
  /// First output channel that was invalid (DataValid stall) or still
  /// occupied (ReturnToZero stall); Netlist::kNoChannel when not a
  /// channel-attributable stall.
  netlist::ChannelId stalling_channel = netlist::Netlist::kNoChannel;
  /// The handshake finished but took >= period_ps (tolerant mode only;
  /// strict mode throws instead).
  bool period_overrun = false;
};

// The handshake rules FourPhaseEnv and BatchFourPhaseEnv share.

/// Throws std::invalid_argument, naming the field and the id, unless
/// each of `inputs` and `outputs` is a channel of `nl` and each of
/// `acks_to_block` and `reset` (unless kNoNet) a net.
void check_env(const netlist::Netlist& nl, const EnvSpec& spec);

/// Throws std::invalid_argument unless `values` holds exactly one 1-of-N
/// index per input channel of `spec`, each in [0, rails) of its channel.
/// The message names the first offending input index. Both environments
/// check every stimulus through it before driving a rail.
void check_stimulus(const netlist::Netlist& nl, const EnvSpec& spec,
                    std::span<const int> values);

/// Start of the next cycle after time `now`: the next period-grid point,
/// which keeps the traces of different codewords sample-aligned.
inline double cycle_start(double now, const EnvSpec& spec) noexcept {
  return std::ceil((now + 1e-9) / spec.period_ps) * spec.period_ps;
}

/// Drive time of phase 2, 3 or 4 once the block settled at `now`: after
/// phase_gap_ps, on the next phase_align_ps tester edge if one is set.
inline double phase_time(double now, const EnvSpec& spec) noexcept {
  const double t = now + spec.phase_gap_ps;
  if (spec.phase_align_ps <= 0.0) return t;
  return std::ceil(t / spec.phase_align_ps) * spec.phase_align_ps;
}

/// 1-of-N decode of channel `c`, `high(rail)` reading one rail: the
/// index of its single high rail, -1 if none or several are high.
template <class RailHigh>
int decode_channel(const netlist::Channel& c, RailHigh&& high) {
  int value = -1;
  for (std::size_t r = 0; r < c.rails.size(); ++r) {
    if (high(c.rails[r])) {
      if (value != -1) return -1;  // two rails high: protocol violation
      value = static_cast<int>(r);
    }
  }
  return value;
}

/// Drives any SimEngine (the reference Simulator or the compiled kernel)
/// through four-phase cycles; the engine choice never changes the
/// environment's behaviour.
class FourPhaseEnv {
 public:
  /// Throws std::invalid_argument via check_env.
  FourPhaseEnv(SimEngine& sim, EnvSpec spec);

  const EnvSpec& spec() const noexcept { return spec_; }

  /// Start time of the next cycle (cycle_start), exposed so streaming
  /// acquisition can open its power window before the cycle runs.
  double next_cycle_start() const noexcept {
    return cycle_start(sim_->now(), spec_);
  }

  /// Pulse reset: assert, settle, release, settle. Leaves the block empty.
  void apply_reset(double pulse_ps = 200.0);

  struct CycleResult {
    double t_start = 0.0;  ///< aligned cycle start
    double t_valid = 0.0;  ///< all outputs valid (end of phase 1)
    double t_empty = 0.0;  ///< all outputs returned to zero (end of phase 3)
    double t_end = 0.0;    ///< end of phase 4
    std::vector<int> outputs;       ///< decoded output values
    std::size_t transitions = 0;    ///< net transitions in the whole cycle
    bool ok = false;                ///< protocol completed correctly
    HandshakeOutcome handshake;     ///< where (and whether) the cycle stalled
  };

  /// Run one full four-phase cycle transmitting values[i] on input
  /// channel i (values are 1-of-N indices). Throws std::invalid_argument
  /// for a malformed stimulus (check_stimulus) and std::runtime_error if
  /// the cycle does not fit in the period.
  CycleResult send(std::span<const int> values);

  /// send() into a caller-owned result, reusing its `outputs` capacity —
  /// the allocation-free form the acquisition hot loop runs (one
  /// CycleResult per worker, reused across traces).
  void send_into(std::span<const int> values, CycleResult& out);

  /// Decoded value of a channel: the index of its single high rail, -1 if
  /// the channel is invalid (no rail or several rails high).
  int read_channel(netlist::ChannelId ch) const;
  bool outputs_valid() const;
  bool outputs_empty() const;

 private:
  void drive_acks(bool value, double at_ps);
  netlist::ChannelId first_invalid_output() const;
  netlist::ChannelId first_occupied_output() const;

  SimEngine* sim_;
  EnvSpec spec_;
};

}  // namespace qdi::sim
