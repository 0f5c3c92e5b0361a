#include "qdi/sim/simulator.hpp"

#include <cassert>
#include <cmath>
#include <stdexcept>

namespace qdi::sim {

using netlist::CellId;
using netlist::CellKind;
using netlist::kNoCell;
using netlist::kNoNet;
using netlist::NetId;

Simulator::Simulator(const netlist::Netlist& nl, DelayModel model)
    : nl_(&nl), model_(model) {
  reset_state();
}

void Simulator::reset_state() {
  // assign() and clear() retain capacity: after the first reset no
  // container here ever reallocates, so per-trace epochs are cheap.
  values_.assign(nl_->num_nets(), 0);
  pending_seq_.assign(nl_->num_nets(), 0);
  pending_value_.assign(nl_->num_nets(), 0);
  pending_slew_.assign(nl_->num_nets(), 0.0);
  queue_.clear();
  forces_.clear();
  now_ = 0.0;
  glitches_ = 0;
  total_transitions_ = 0;
}

void Simulator::initialize() {
  for (CellId c = 0; c < nl_->num_cells(); ++c) evaluate_cell(c, now_);
}

void Simulator::drive(NetId net, bool value, double at_ps) {
  assert(net < nl_->num_nets());
  assert(nl_->net(net).driver != kNoCell &&
         nl_->cell(nl_->net(net).driver).kind == CellKind::Input &&
         "drive() is only legal on primary-input nets");
  schedule(net, value, at_ps, 0.0);
}

void Simulator::arm_force(NetId net, bool value, double from_ps,
                          double until_ps) {
  if (net >= nl_->num_nets())
    throw std::invalid_argument("Simulator::arm_force: no such net");
  if (from_ps < now_)
    throw std::invalid_argument(
        "Simulator::arm_force: force window starts in the past");
  if (!(until_ps > from_ps))
    throw std::invalid_argument("Simulator::arm_force: empty force window");
  forces_.arm(net, value, from_ps, until_ps);
  // Marker events carry flag bits in seq, bypassing the pending arrays —
  // inertial filtering can neither cancel them nor be confused by them.
  queue_.push(Event{from_ps, kForceMarkerFlag | next_seq_++, net, value});
  if (std::isfinite(until_ps))
    queue_.push(Event{until_ps, kForceMarkerFlag | kForceReleaseBit | next_seq_++,
                      net, value});
}

void Simulator::handle_force_marker(const Event& ev) {
  now_ = ev.t_ps;
  if ((ev.seq & kForceReleaseBit) == 0) {
    NetForce* f = forces_.find(ev.net);
    if (f == nullptr) return;  // force was cleared after arming
    f->active = true;
    // Any in-flight event on the net yields to the force; its value is
    // shadowed first (a drive scheduled before the window opened but
    // landing inside it must still replay at release). The forced edge
    // then schedules (or dedupes) against the committed value.
    if (pending_seq_[ev.net] != 0) {
      f->shadow_valid = true;
      f->shadow_value = pending_value_[ev.net];
      pending_seq_[ev.net] = 0;
    }
    schedule(ev.net, f->value, ev.t_ps, 0.0);
  } else {
    NetForce rec;
    if (!forces_.take(ev.net, rec)) return;
    const CellId driver = nl_->net(ev.net).driver;
    if (driver == kNoCell) return;
    if (nl_->cell(driver).kind == CellKind::Input) {
      // Replay what the environment drove while the force held the net.
      if (rec.shadow_valid) schedule(ev.net, rec.shadow_value, ev.t_ps, 0.0);
    } else {
      // The net recovers its combinational value one gate delay after
      // the release, like a node let go by a probe.
      evaluate_cell(driver, ev.t_ps);
    }
  }
}

void Simulator::schedule(NetId net, bool value, double t_ps, double slew_ps) {
  // An active force suppresses contradicting commits before sequence
  // allocation, so faulty and fault-free runs share the same event
  // numbering up to the injection point in both engines.
  if (!forces_.empty() && forces_.suppress(net, value)) return;
  // Inertial filtering: if a pending event exists, the new evaluation
  // supersedes it. If the new target equals the current steady value and
  // a pending event would have changed it, the pending event was a glitch.
  if (pending_seq_[net] != 0) {
    if (pending_value_[net] == static_cast<char>(value)) return;  // already scheduled
    pending_seq_[net] = 0;  // cancel (lazy: stale seq stays in the heap)
    ++glitches_;
    if (static_cast<char>(value) == values_[net]) return;  // back to steady: nothing to do
  } else if (static_cast<char>(value) == values_[net]) {
    return;  // no change
  }
  const std::uint64_t seq = next_seq_++;
  pending_seq_[net] = seq;
  pending_value_[net] = static_cast<char>(value);
  pending_slew_[net] = slew_ps;
  queue_.push(Event{t_ps, seq, net, value});
}

void Simulator::evaluate_cell(CellId cell, double t_ps) {
  const netlist::Cell& c = nl_->cell(cell);
  if (c.kind == CellKind::Input || c.kind == CellKind::Output) return;
  if (c.output == kNoNet) return;

  // Gather input values (pending events do NOT count: evaluation sees the
  // committed state, like a real gate sees its input voltages).
  bool in_vals[8];
  assert(c.inputs.size() <= 8);
  for (std::size_t i = 0; i < c.inputs.size(); ++i)
    in_vals[i] = values_[c.inputs[i]] != 0;

  const bool prev = values_[c.output] != 0;
  const bool out = netlist::evaluate(
      c.kind, std::span<const bool>(in_vals, c.inputs.size()), prev);

  const double cap = nl_->net(c.output).cap_ff;
  schedule(c.output, out,
           t_ps + model_.delay_ps(c.kind, cap) + c.delay_jitter_ps,
           model_.slew_ps(cap));
}

void Simulator::commit(const Event& ev) {
  values_[ev.net] = static_cast<char>(ev.value);
  now_ = ev.t_ps;
  ++total_transitions_;
  if (sink_ != nullptr)
    sink_->on_transition({ev.t_ps, ev.net, ev.value, nl_->net(ev.net).cap_ff,
                          pending_slew_[ev.net]});
  for (const netlist::Pin& p : nl_->net(ev.net).sinks)
    evaluate_cell(p.cell, ev.t_ps);
}

std::size_t Simulator::run_until_stable(std::size_t max_events) {
  std::size_t committed = 0;
  while (!queue_.empty()) {
    const Event ev = queue_.top();
    queue_.pop();
    if (ev.seq & kForceMarkerFlag) {  // fault-injection start/release
      handle_force_marker(ev);
      continue;
    }
    if (pending_seq_[ev.net] != ev.seq) continue;  // cancelled/stale
    pending_seq_[ev.net] = 0;
    commit(ev);
    if (++committed > max_events)
      throw std::runtime_error(
          "Simulator::run_until_stable: event budget exhausted "
          "(oscillating netlist?)");
  }
  return committed;
}

}  // namespace qdi::sim
