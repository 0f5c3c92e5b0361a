#include "qdi/sim/environment.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "qdi/util/log.hpp"

namespace qdi::sim {

using netlist::ChannelId;
using netlist::kNoNet;

void check_env(const netlist::Netlist& nl, const EnvSpec& spec) {
  // `at`: the position in a list field, npos for `reset`.
  const auto check = [](const char* field, std::size_t at, std::size_t id,
                        std::size_t count, const char* what) {
    if (id < count) return;
    std::string name = field;
    if (at != std::string::npos) name += "[" + std::to_string(at) + "]";
    throw std::invalid_argument("EnvSpec: " + name + " = " +
                                std::to_string(id) + " is not a " + what +
                                " of the netlist");
  };
  const auto each = [&](const char* field, const auto& ids, std::size_t count,
                        const char* what) {
    for (std::size_t i = 0; i < ids.size(); ++i)
      check(field, i, ids[i], count, what);
  };
  each("inputs", spec.inputs, nl.num_channels(), "channel");
  each("outputs", spec.outputs, nl.num_channels(), "channel");
  each("acks_to_block", spec.acks_to_block, nl.num_nets(), "net");
  if (spec.reset != kNoNet)
    check("reset", std::string::npos, spec.reset, nl.num_nets(), "net");
}

void check_stimulus(const netlist::Netlist& nl, const EnvSpec& spec,
                    std::span<const int> values) {
  const std::size_t n = spec.inputs.size();
  if (values.size() != n) {
    const std::size_t i = std::min(values.size(), n);
    throw std::invalid_argument(
        "stimulus: input " + std::to_string(i) +
        (values.size() < n ? " has no value (" : " has no channel (") +
        std::to_string(values.size()) + " values for " + std::to_string(n) +
        " input channels)");
  }
  for (std::size_t i = 0; i < n; ++i) {
    const netlist::Channel& ch = nl.channel(spec.inputs[i]);
    if (values[i] < 0 || static_cast<std::size_t>(values[i]) >= ch.rails.size())
      throw std::invalid_argument(
          "stimulus: input " + std::to_string(i) + " value " +
          std::to_string(values[i]) + " is outside [0, " +
          std::to_string(ch.rails.size()) + ") of channel '" + ch.name + "'");
  }
}

FourPhaseEnv::FourPhaseEnv(SimEngine& sim, EnvSpec spec)
    : sim_(&sim), spec_(std::move(spec)) {
  check_env(sim_->netlist(), spec_);
}

void FourPhaseEnv::apply_reset(double pulse_ps) {
  if (spec_.reset != kNoNet) sim_->drive(spec_.reset, true, sim_->now());
  // Settle combinational gates (inverters on ack paths etc.) against the
  // all-zero inputs, with reset asserted.
  sim_->initialize();
  sim_->run_until_stable();
  if (spec_.reset != kNoNet) {
    sim_->drive(spec_.reset, false, sim_->now() + pulse_ps);
    sim_->run_until_stable();
  }
  // Make sure the environment side is in the all-zero state.
  for (ChannelId ch : spec_.inputs)
    for (netlist::NetId rail : sim_->netlist().channel(ch).rails)
      sim_->drive(rail, false, sim_->now());
  drive_acks(false, sim_->now());
  sim_->run_until_stable();
}

int FourPhaseEnv::read_channel(ChannelId ch) const {
  return decode_channel(sim_->netlist().channel(ch),
                        [&](netlist::NetId rail) { return sim_->value(rail); });
}

bool FourPhaseEnv::outputs_valid() const {
  return first_invalid_output() == netlist::Netlist::kNoChannel;
}

bool FourPhaseEnv::outputs_empty() const {
  return first_occupied_output() == netlist::Netlist::kNoChannel;
}

ChannelId FourPhaseEnv::first_invalid_output() const {
  for (ChannelId ch : spec_.outputs)
    if (read_channel(ch) < 0) return ch;
  return netlist::Netlist::kNoChannel;
}

ChannelId FourPhaseEnv::first_occupied_output() const {
  for (ChannelId ch : spec_.outputs)
    for (netlist::NetId rail : sim_->netlist().channel(ch).rails)
      if (sim_->value(rail)) return ch;
  return netlist::Netlist::kNoChannel;
}

void FourPhaseEnv::drive_acks(bool value, double at_ps) {
  for (netlist::NetId ack : spec_.acks_to_block) sim_->drive(ack, value, at_ps);
}

FourPhaseEnv::CycleResult FourPhaseEnv::send(std::span<const int> values) {
  CycleResult res;
  send_into(values, res);
  return res;
}

void FourPhaseEnv::send_into(std::span<const int> values, CycleResult& res) {
  check_stimulus(sim_->netlist(), spec_, values);
  // Drive `value` on each input channel's stimulus rail.
  const auto drive_data = [&](bool value, double at_ps) {
    for (std::size_t i = 0; i < values.size(); ++i) {
      const netlist::Channel& ch = sim_->netlist().channel(spec_.inputs[i]);
      sim_->drive(ch.rails[static_cast<std::size_t>(values[i])], value, at_ps);
    }
  };

  // Reset in place; `outputs` keeps its capacity across reuses.
  res.t_start = res.t_valid = res.t_empty = res.t_end = 0.0;
  res.outputs.clear();
  res.transitions = 0;
  res.ok = false;
  res.handshake = HandshakeOutcome{};
  const std::size_t before = sim_->transition_count();

  // Align the cycle start on the period grid.
  const double t0 = next_cycle_start();
  sim_->advance_to(t0);
  res.t_start = t0;

  // Phase 1: drive valid data.
  drive_data(true, t0);
  sim_->run_until_stable();
  res.handshake.stalling_channel = first_invalid_output();
  if (res.handshake.stalling_channel != netlist::Netlist::kNoChannel) {
    if (spec_.strict)
      util::log_warn("FourPhaseEnv: outputs did not become valid");
    res.handshake.stalled_phase = HandshakePhase::DataValid;
    return;
  }
  res.t_valid = sim_->now();
  res.outputs.reserve(spec_.outputs.size());
  for (ChannelId ch : spec_.outputs) res.outputs.push_back(read_channel(ch));

  // Phase 2: consumer acknowledges.
  drive_acks(true, phase_time(sim_->now(), spec_));
  sim_->run_until_stable();

  // Phase 3: return to zero.
  drive_data(false, phase_time(sim_->now(), spec_));
  sim_->run_until_stable();
  res.handshake.stalling_channel = first_occupied_output();
  if (res.handshake.stalling_channel != netlist::Netlist::kNoChannel) {
    if (spec_.strict)
      util::log_warn("FourPhaseEnv: outputs did not return to zero");
    res.handshake.stalled_phase = HandshakePhase::ReturnToZero;
    return;
  }
  res.t_empty = sim_->now();

  // Phase 4: release acknowledge.
  drive_acks(false, phase_time(sim_->now(), spec_));
  sim_->run_until_stable();
  res.t_end = sim_->now();
  res.transitions = sim_->transition_count() - before;

  if (res.t_end - res.t_start >= spec_.period_ps) {
    if (spec_.strict)
      throw std::runtime_error(
          "FourPhaseEnv: cycle exceeded the period; increase "
          "EnvSpec::period_ps");
    // Tolerant mode: a fault stretched the handshake past the trace
    // window — report it as an overrun, not a completed cycle.
    res.handshake.period_overrun = true;
    return;
  }

  res.ok = true;
  res.handshake.completed = true;
}

}  // namespace qdi::sim
