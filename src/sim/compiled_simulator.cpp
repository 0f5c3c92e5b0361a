#include "qdi/sim/compiled_simulator.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <stdexcept>

namespace qdi::sim {

using netlist::CellKind;
using netlist::kNoNet;
using netlist::NetId;

namespace {

/// Process-unique epoch ids (epochs may move between simulator clones).
std::uint64_t next_epoch_id() noexcept {
  static std::atomic<std::uint64_t> counter{0};
  return counter.fetch_add(1, std::memory_order_relaxed) + 1;
}

}  // namespace

CompiledSimulator::CompiledSimulator(std::shared_ptr<const CompiledNetlist> cn)
    : cn_(std::move(cn)), wheel_(*cn_) {
  const std::uint32_t nn = cn_->num_nets();
  values_.resize(nn);
  pins_.resize(cn_->num_cells());
  pending_seq_.resize(nn);
  pending_value_.resize(nn);
  pending_slew_.resize(nn);
  dirty_mark_.resize(nn);
  reset_state();
}

void CompiledSimulator::clear_dirty() {
  for (NetId n : dirty_) dirty_mark_[n] = 0;
  dirty_.clear();
}

void CompiledSimulator::mark_dirty(NetId net) {
  if (dirty_mark_[net] == 0) {
    dirty_mark_[net] = 1;
    dirty_.push_back(net);
  }
}

void CompiledSimulator::reset_state() {
  // Capacity-retaining memset: the arrays were sized at construction and
  // never reallocate across epochs.
  std::fill(values_.begin(), values_.end(), char{0});
  std::fill(pins_.begin(), pins_.end(), std::uint8_t{0});
  std::fill(pending_seq_.begin(), pending_seq_.end(), std::uint64_t{0});
  std::fill(pending_value_.begin(), pending_value_.end(), char{0});
  std::fill(pending_slew_.begin(), pending_slew_.end(), 0.0);
  wheel_.clear();
  tombstones_ = 0;
  forces_.clear();
  clear_dirty();
  baseline_epoch_ = 0;
  next_seq_ = 1;
  now_ = 0.0;
  glitches_ = 0;
  total_transitions_ = 0;
}

CompiledSimulator::Epoch CompiledSimulator::save_epoch() {
  if (!wheel_.empty())
    throw std::logic_error(
        "CompiledSimulator::save_epoch: event queue must be drained "
        "(run run_until_stable first)");
  if (!forces_.empty())
    throw std::logic_error(
        "CompiledSimulator::save_epoch: clear_forces() before snapshotting "
        "(an epoch must capture fault-free state)");
  Epoch e;
  e.values = values_;
  e.now = now_;
  e.next_seq = next_seq_;
  e.glitches = glitches_;
  e.total_transitions = total_transitions_;
  e.id = next_epoch_id();
  // The live state now coincides with `e`: future commits accumulate the
  // dirty set against it.
  clear_dirty();
  baseline_epoch_ = e.id;
  return e;
}

void CompiledSimulator::restore_epoch(const Epoch& e) {
  if (!wheel_.empty())
    throw std::logic_error(
        "CompiledSimulator::restore_epoch: event queue must be drained "
        "(run run_until_stable first)");
  if (e.values.size() != values_.size())
    throw std::invalid_argument(
        "CompiledSimulator::restore_epoch: epoch geometry does not match "
        "this netlist");
  // A drained queue implies no live pending events (pending_seq_ is all
  // zero), so only net values diverge from the snapshot — and only at
  // the nets committed since the state last coincided with it.
  if (e.id != 0 && e.id == baseline_epoch_) {
    for (NetId n : dirty_) {
      // Most dirty nets returned to their snapshot value within the
      // cycle (return-to-zero); their pin bits are already right.
      if (values_[n] == e.values[n]) continue;
      values_[n] = e.values[n];
      sync_pins(n);
    }
    clear_dirty();
  } else {
    std::copy(e.values.begin(), e.values.end(), values_.begin());
    rebuild_pins();
    clear_dirty();
    baseline_epoch_ = e.id;
  }
  forces_.clear();
  next_seq_ = e.next_seq;
  now_ = e.now;
  glitches_ = e.glitches;
  total_transitions_ = e.total_transitions;
}

void CompiledSimulator::initialize() {
  const std::uint32_t nc = cn_->num_cells();
  for (std::uint32_t c = 0; c < nc; ++c) evaluate_cell(c, now_);
}

void CompiledSimulator::drive(NetId net, bool value, double at_ps) {
  if (net >= values_.size() || !cn_->driven_by_input[net])
    throw std::invalid_argument(
        "CompiledSimulator::drive: only primary-input nets can be driven");
  schedule(net, value, at_ps, 0.0);
}

void CompiledSimulator::arm_force(NetId net, bool value, double from_ps,
                                  double until_ps) {
  if (net >= values_.size())
    throw std::invalid_argument("CompiledSimulator::arm_force: no such net");
  if (from_ps < now_)
    throw std::invalid_argument(
        "CompiledSimulator::arm_force: force window starts in the past");
  if (!(until_ps > from_ps))
    throw std::invalid_argument(
        "CompiledSimulator::arm_force: empty force window");
  forces_.arm(net, value, from_ps, until_ps);
  // Marker events carry flag bits in seq, bypassing the pending arrays —
  // inertial filtering can neither cancel them nor be confused by them.
  wheel_.push(Event{from_ps, kForceMarkerFlag | next_seq_++, net, value});
  if (std::isfinite(until_ps))
    wheel_.push(Event{until_ps,
                      kForceMarkerFlag | kForceReleaseBit | next_seq_++, net,
                      value});
}

void CompiledSimulator::handle_force_marker(const Event& ev) {
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
      ++tombstones_;  // the orphaned event pops as stale later
    }
    schedule(ev.net, f->value, ev.t_ps, 0.0);
  } else {
    NetForce rec;
    if (!forces_.take(ev.net, rec)) return;
    const netlist::CellId driver = cn_->source().net(ev.net).driver;
    if (driver == netlist::kNoCell) return;
    if (cn_->driven_by_input[ev.net]) {
      // Replay what the environment drove while the force held the net.
      if (rec.shadow_valid) schedule(ev.net, rec.shadow_value, ev.t_ps, 0.0);
    } else {
      // The net recovers its combinational value one gate delay after
      // the release, like a node let go by a probe.
      evaluate_cell(driver, ev.t_ps);
    }
  }
}

/// Drop every tombstoned (lazily cancelled) event in place. Never
/// changes the commit sequence — tombstones are skipped at pop anyway —
/// it only bounds queue growth under pathological retraction patterns.
void CompiledSimulator::purge_tombstones() {
  const auto stale = [this](const Event& ev) {
    // Force markers are never stale: their flagged seq lives outside the
    // pending arrays entirely.
    return (ev.seq & kForceMarkerFlag) == 0 && pending_seq_[ev.net] != ev.seq;
  };
  wheel_.erase_if(stale);
  tombstones_ = 0;
}

void CompiledSimulator::schedule(NetId net, bool value, double t_ps,
                                 double slew_ps) {
  // An active force suppresses contradicting commits before sequence
  // allocation, so faulty and fault-free runs share the same event
  // numbering up to the injection point in both engines.
  if (!forces_.empty() && forces_.suppress(net, value)) return;
  // Inertial filtering — identical to Simulator::schedule.
  if (pending_seq_[net] != 0) {
    if (pending_value_[net] == static_cast<char>(value)) return;
    pending_seq_[net] = 0;  // cancel (lazy: the event stays as a tombstone)
    ++glitches_;
    if (++tombstones_ * 2 > wheel_.size() && wheel_.size() >= 64)
      purge_tombstones();
    if (static_cast<char>(value) == values_[net]) return;
  } else if (static_cast<char>(value) == values_[net]) {
    return;
  }
  const std::uint64_t seq = next_seq_++;
  pending_seq_[net] = seq;
  pending_value_[net] = static_cast<char>(value);
  pending_slew_[net] = slew_ps;
  wheel_.push(Event{t_ps, seq, net, value});
}

void CompiledSimulator::evaluate_cell(std::uint32_t cell, double t_ps) {
  const CompiledNetlist& cn = *cn_;
  const CellKind k = cn.kind[cell];
  const std::uint32_t out_net = cn.output[cell];
  if (k == CellKind::Input || k == CellKind::Output || out_net == kNoNet)
    return;
  const bool out = cn.evaluate(k, pins_[cell], values_[out_net] != 0);
  schedule(out_net, out, t_ps + cn.delay_ps[cell], cn.slew_ps[cell]);
}

void CompiledSimulator::sync_pins(NetId net) noexcept {
  const CompiledNetlist& cn = *cn_;
  const auto v = static_cast<std::uint8_t>(values_[net] != 0);
  for (std::uint32_t i = cn.fanout_offset[net]; i < cn.fanout_offset[net + 1];
       ++i) {
    const std::uint8_t pin = cn.fanout_pin[i];
    std::uint8_t& w = pins_[cn.fanout_cell[i]];
    w = static_cast<std::uint8_t>((w & ~(1u << pin)) | (v << pin));
  }
}

void CompiledSimulator::rebuild_pins() noexcept {
  const CompiledNetlist& cn = *cn_;
  for (std::uint32_t c = 0; c < cn.num_cells(); ++c) {
    unsigned w = 0;
    for (std::uint32_t i = cn.fanin_offset[c]; i < cn.fanin_offset[c + 1]; ++i)
      w |= static_cast<unsigned>(values_[cn.fanin_net[i]] != 0)
           << (i - cn.fanin_offset[c]);
    pins_[c] = static_cast<std::uint8_t>(w);
  }
}

void CompiledSimulator::commit(const Event& ev) {
  const CompiledNetlist& cn = *cn_;
  values_[ev.net] = static_cast<char>(ev.value);
  mark_dirty(ev.net);
  now_ = ev.t_ps;
  ++total_transitions_;
  if (sink_ != nullptr)
    sink_->on_transition(
        {ev.t_ps, ev.net, ev.value, cn.cap_ff[ev.net], pending_slew_[ev.net]});
  // Every pin the net drives reads its new value before any fanout cell
  // evaluates: a cell listening on the net through two pins must see
  // both move, as the reference engine's values_ walk does.
  sync_pins(ev.net);
  const std::uint32_t lo = cn.fanout_offset[ev.net];
  const std::uint32_t hi = cn.fanout_offset[ev.net + 1];
  for (std::uint32_t i = lo; i < hi; ++i)
    evaluate_cell(cn.fanout_cell[i], ev.t_ps);
}

std::size_t CompiledSimulator::run_until_stable(std::size_t max_events) {
  std::size_t committed = 0;
  while (!wheel_.empty()) {
    const Event ev = wheel_.pop();
    if (ev.seq & kForceMarkerFlag) {  // fault-injection start/release
      handle_force_marker(ev);
      continue;
    }
    if (pending_seq_[ev.net] != ev.seq) {  // cancelled/stale
      --tombstones_;
      continue;
    }
    pending_seq_[ev.net] = 0;
    commit(ev);
    if (++committed > max_events)
      throw std::runtime_error(
          "CompiledSimulator::run_until_stable: event budget exhausted "
          "(oscillating netlist?)");
  }
  return committed;
}

}  // namespace qdi::sim
