#include "qdi/sim/batch_simulator.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <stdexcept>
#include <string>

#include "qdi/netlist/cell_kind.hpp"

namespace qdi::sim {

using netlist::CellKind;
using netlist::kNoNet;
using netlist::NetId;

namespace {

constexpr std::uint64_t kAllLanes = ~std::uint64_t{0};

inline std::uint64_t lane_bit(unsigned lane) noexcept {
  return std::uint64_t{1} << lane;
}

bool combinational(CellKind k) noexcept {
  return !netlist::is_muller(k) && !netlist::is_pseudo(k);
}

/// The kernel's static per-net slew, after Kahn's algorithm has checked
/// that the combinational cells form no cycle. Edges run between
/// combinational cells only: Muller latches, environment-driven nets and
/// undriven nets are cut points.
std::vector<double> static_net_slew(const CompiledNetlist& c) {
  const std::uint32_t num_cells = c.num_cells();
  const std::uint32_t num_nets = c.num_nets();

  // One driver per net (add_cell enforces it); num_cells means none.
  std::vector<std::uint32_t> driver(num_nets, num_cells);
  for (std::uint32_t cell = 0; cell < num_cells; ++cell)
    if (c.output[cell] != kNoNet) driver[c.output[cell]] = cell;

  std::vector<std::uint32_t> indegree(num_cells, 0);
  std::vector<std::uint32_t> worklist;
  std::size_t comb_cells = 0;
  for (std::uint32_t cell = 0; cell < num_cells; ++cell) {
    if (!combinational(c.kind[cell])) continue;
    ++comb_cells;
    for (std::uint32_t i = c.fanin_offset[cell]; i < c.fanin_offset[cell + 1];
         ++i) {
      const std::uint32_t d = driver[c.fanin_net[i]];
      if (d != num_cells && combinational(c.kind[d])) ++indegree[cell];
    }
    if (indegree[cell] == 0) worklist.push_back(cell);
  }
  std::size_t processed = 0;
  while (!worklist.empty()) {
    const std::uint32_t cell = worklist.back();
    worklist.pop_back();
    ++processed;
    const std::uint32_t out = c.output[cell];
    if (out == kNoNet) continue;
    for (std::uint32_t i = c.fanout_offset[out]; i < c.fanout_offset[out + 1];
         ++i) {
      const std::uint32_t sink = c.fanout_cell[i];
      if (combinational(c.kind[sink]) && --indegree[sink] == 0)
        worklist.push_back(sink);
    }
  }
  if (processed != comb_cells) {
    // Name the lowest-id cell stuck on the cycle — deterministic, and
    // the source netlist still carries the human-readable names.
    for (std::uint32_t cell = 0; cell < num_cells; ++cell) {
      if (!combinational(c.kind[cell]) || indegree[cell] == 0) continue;
      const netlist::Cell& src = c.source().cell(cell);
      const std::string net_name = src.output != kNoNet
                                       ? c.source().net(src.output).name
                                       : std::string("<none>");
      throw std::invalid_argument(
          "BatchSimulator: combinational cone cannot be levelized — cell '" +
          src.name + "' (net '" + net_name +
          "') sits on a combinational cycle; the batch engine needs "
          "Muller-latch cut points between cones (use the compiled or "
          "reference engine for this netlist)");
    }
  }

  std::vector<double> slew(num_nets, 0.0);
  for (std::uint32_t net = 0; net < num_nets; ++net)
    if (!c.driven_by_input[net] && driver[net] != num_cells)
      slew[net] = c.slew_ps[driver[net]];
  return slew;
}

}  // namespace

BatchSimulator::BatchSimulator(std::shared_ptr<const CompiledNetlist> cn)
    : cn_(std::move(cn)), net_slew_ps_(static_net_slew(*cn_)), wheel_(*cn_) {
  const std::uint32_t nn = cn_->num_nets();
  cur_.resize(nn);
  pend_.resize(nn);
  spill_.resize(nn);
  reset_state();
}

void BatchSimulator::reset_state() {
  std::fill(cur_.begin(), cur_.end(), std::uint64_t{0});
  std::fill(pend_.begin(), pend_.end(), PendState{});
  for (auto& g : spill_) g.clear();
  wheel_.clear();
  std::fill(std::begin(now_), std::end(now_), 0.0);
  std::fill(std::begin(glitches_), std::end(glitches_), std::size_t{0});
  std::fill(std::begin(transitions_), std::end(transitions_), std::size_t{0});
}

BatchSimulator::Epoch BatchSimulator::save_epoch() const {
  if (!wheel_.empty())
    throw std::logic_error(
        "BatchSimulator::save_epoch: event queue must be drained");
  Epoch e;
  e.values.resize(cur_.size());
  for (std::size_t net = 0; net < cur_.size(); ++net) {
    const std::uint64_t w = cur_[net];
    if (w != 0 && w != kAllLanes)
      throw std::logic_error(
          "BatchSimulator::save_epoch: lanes diverged — an epoch must "
          "capture lane-uniform (post-reset) state");
    e.values[net] = w != 0 ? 1 : 0;
  }
  for (std::size_t l = 1; l < kBatchLanes; ++l)
    if (now_[l] != now_[0] || glitches_[l] != glitches_[0] ||
        transitions_[l] != transitions_[0])
      throw std::logic_error(
          "BatchSimulator::save_epoch: lane clocks diverged — an epoch "
          "must capture lane-uniform (post-reset) state");
  e.now = now_[0];
  e.glitches = glitches_[0];
  e.transitions = transitions_[0];
  return e;
}

void BatchSimulator::restore_epoch(const Epoch& e) {
  if (!wheel_.empty())
    throw std::logic_error(
        "BatchSimulator::restore_epoch: event queue must be drained");
  if (e.values.size() != cur_.size())
    throw std::invalid_argument(
        "BatchSimulator::restore_epoch: epoch geometry does not match "
        "this netlist");
  for (std::size_t net = 0; net < cur_.size(); ++net)
    cur_[net] = e.values[net] != 0 ? kAllLanes : std::uint64_t{0};
  // A drained queue implies no live pending lanes (every group born
  // pushed a key, and that key's pop either commits the group or
  // tombstones its absence); clear defensively anyway — it is O(nets)
  // next to a 64-trace block.
  std::fill(pend_.begin(), pend_.end(), PendState{});
  for (auto& g : spill_) g.clear();
  std::fill(std::begin(now_), std::end(now_), e.now);
  std::fill(std::begin(glitches_), std::end(glitches_), e.glitches);
  std::fill(std::begin(transitions_), std::end(transitions_), e.transitions);
}

void BatchSimulator::advance_to(double t_ps, std::uint64_t mask) {
  while (mask != 0) {
    const unsigned lane = static_cast<unsigned>(std::countr_zero(mask));
    mask &= mask - 1;
    now_[lane] = std::max(now_[lane], t_ps);
  }
}

void BatchSimulator::initialize(std::uint64_t mask) {
  const std::uint32_t nc = cn_->num_cells();
  for (std::uint32_t c = 0; c < nc; ++c) evaluate_cell(c, now_[0], mask);
}

void BatchSimulator::drive(NetId net, bool value, double at_ps,
                           std::uint64_t mask) {
  if (net >= cur_.size() || !cn_->driven_by_input[net])
    throw std::invalid_argument(
        "BatchSimulator::drive: only primary-input nets can be driven");
  schedule_word(net, value ? mask : 0, mask, at_ps);
}

// The word form of the scalar inertial-filtering schedule(): per lane of
// `mask`, drop a same-value pending, cancel (glitch) a contradicting
// one, and queue a new edge iff the wanted value differs from the
// committed one. Identical per-lane outcomes to
// CompiledSimulator::schedule / Simulator::schedule by construction.
void BatchSimulator::schedule_word(std::uint32_t net, std::uint64_t want,
                                   std::uint64_t mask, double t_ps) {
  PendState& ps = pend_[net];
  const std::uint64_t pend = ps.mask;
  // Nearly half of all evaluations re-derive the value the net already
  // holds with nothing in flight: no edge to queue, none to cancel.
  // Return before the update path dirties the net's pending line.
  if (((want ^ cur_[net]) & mask) == 0 && (pend & mask) == 0) return;
  const std::uint64_t val = ps.value;
  const std::uint64_t have = pend & mask;
  std::uint64_t cancel = have & (val ^ want);  // pending, different value
  const std::uint64_t need =
      ((mask & ~have) | cancel) & (want ^ cur_[net]);
  ps.mask = (pend & ~cancel) | need;
  if (need != 0) ps.value = (val & ~need) | (want & need);
  // Computed from the pre-update state: lanes pending outside the inline
  // group can only live in spill_[net].
  const bool had_spill = (pend & ~ps.g0_mask) != 0;
  if (cancel != 0) {
    // Retract the cancelled lanes from their old time groups; an emptied
    // group dies silently and its heap key pops as a tombstone.
    ps.g0_mask &= ~cancel;
    if (had_spill) {
      std::vector<PendGroup>& sp = spill_[net];
      for (std::size_t i = 0; i < sp.size();) {
        sp[i].mask &= ~cancel;
        if (sp[i].mask == 0) {
          sp[i] = sp.back();
          sp.pop_back();
        } else {
          ++i;
        }
      }
    }
    std::uint64_t m = cancel;
    while (m != 0) {
      const unsigned lane = static_cast<unsigned>(std::countr_zero(m));
      m &= m - 1;
      ++glitches_[lane];
    }
  }
  if (need != 0) {
    if (ps.g0_mask != 0 && ps.g0_t == t_ps) {
      ps.g0_mask |= need;
      return;
    }
    if (had_spill) {
      for (PendGroup& g : spill_[net]) {
        if (g.t_ps == t_ps) {
          g.mask |= need;
          return;
        }
      }
    }
    if (ps.g0_mask == 0) {
      ps.g0_t = t_ps;
      ps.g0_mask = need;
    } else {
      spill_[net].push_back(PendGroup{t_ps, need});
    }
    wheel_.push(HeapEvent{t_ps, net});  // one key per group, popped once
  }
}

void BatchSimulator::evaluate_cell(std::uint32_t cell, double t_ps,
                                   std::uint64_t mask) {
  const CompiledNetlist& cn = *cn_;
  const CellKind k = cn.kind[cell];
  const std::uint32_t out_net = cn.output[cell];
  if (k == CellKind::Input || k == CellKind::Output || out_net == kNoNet)
    return;

  // Word truth tables — the per-lane projection must mirror
  // netlist::evaluate() exactly, like the scalar kernels' inlined
  // switch.
  const std::uint32_t lo = cn.fanin_offset[cell];
  const std::uint32_t hi = cn.fanin_offset[cell + 1];
  const auto in = [&](std::uint32_t i) { return cur_[cn.fanin_net[lo + i]]; };
  const auto all = [&](std::uint32_t a, std::uint32_t b) {
    std::uint64_t w = kAllLanes;
    for (std::uint32_t i = a; i < b; ++i) w &= cur_[cn.fanin_net[i]];
    return w;
  };
  const auto any = [&](std::uint32_t a, std::uint32_t b) {
    std::uint64_t w = 0;
    for (std::uint32_t i = a; i < b; ++i) w |= cur_[cn.fanin_net[i]];
    return w;
  };
  // Muller word formula: set where all inputs high, hold where some are.
  const auto muller = [&](std::uint32_t a, std::uint32_t b,
                          std::uint64_t prev) {
    return all(a, b) | (prev & any(a, b));
  };

  const std::uint64_t prev = cur_[out_net];
  std::uint64_t out = 0;
  switch (k) {
    case CellKind::Input:
    case CellKind::Output:
      return;
    case CellKind::Buf:
      out = in(0);
      break;
    case CellKind::Inv:
      out = ~in(0);
      break;
    case CellKind::And2:
    case CellKind::And3:
      out = all(lo, hi);
      break;
    case CellKind::Or2:
    case CellKind::Or3:
    case CellKind::Or4:
      out = any(lo, hi);
      break;
    case CellKind::Nor2:
    case CellKind::Nor3:
    case CellKind::Nor4:
      out = ~any(lo, hi);
      break;
    case CellKind::Nand2:
    case CellKind::Nand3:
      out = ~all(lo, hi);
      break;
    case CellKind::Xor2:
      out = in(0) ^ in(1);
      break;
    case CellKind::Xnor2:
      out = ~(in(0) ^ in(1));
      break;
    case CellKind::Muller2:
    case CellKind::Muller3:
    case CellKind::Muller4:
      out = muller(lo, hi, prev);
      break;
    case CellKind::Muller2R:
    case CellKind::Muller3R:
      // Last pin is the active-high reset: it forces the output low.
      out = muller(lo, hi - 1, prev) & ~cur_[cn.fanin_net[hi - 1]];
      break;
  }

  schedule_word(out_net, out, mask, t_ps + cn.delay_ps[cell]);
}

void BatchSimulator::commit(double t_ps, std::uint32_t net,
                            std::uint64_t live) {
  const CompiledNetlist& cn = *cn_;
  const std::uint64_t val = pend_[net].value;
  cur_[net] = (cur_[net] & ~live) | (val & live);
  ++merged_commits_;
  lane_commits_ += static_cast<std::uint64_t>(std::popcount(live));
  std::uint64_t m = live;
  while (m != 0) {
    const unsigned lane = static_cast<unsigned>(std::countr_zero(m));
    m &= m - 1;
    now_[lane] = t_ps;
    ++transitions_[lane];
  }
  if (sink_ != nullptr)
    sink_->on_batch_transition(t_ps, net, live, val & live,
                               net_slew_ps_[net]);
  const std::uint32_t lo = cn.fanout_offset[net];
  const std::uint32_t hi = cn.fanout_offset[net + 1];
  for (std::uint32_t i = lo; i < hi; ++i)
    evaluate_cell(cn.fanout_cell[i], t_ps, live);
}

std::size_t BatchSimulator::run_until_stable(std::size_t max_events) {
  std::size_t committed = 0;
  while (!wheel_.empty()) {
    const HeapEvent ev = wheel_.pop();
    // Merge duplicate keys (a group can die to cancellation and a new
    // one be born at the same (t, net), each pushing a key). Duplicates
    // share a tick, so they sit adjacent in the served batch.
    for (const HeapEvent* dup = wheel_.peek_served();
         dup != nullptr && dup->t_ps == ev.t_ps && dup->net == ev.net;
         dup = wheel_.peek_served())
      wheel_.pop();
    // Live lanes: the group scheduled for exactly this time. A missing
    // group means every lane of it was cancelled or rescheduled — the
    // key is a tombstone, like the scalar engines' stale-seq check.
    PendState& ps = pend_[ev.net];
    std::uint64_t live = 0;
    if (ps.g0_mask != 0 && ps.g0_t == ev.t_ps) {
      live = ps.g0_mask;
      ps.g0_mask = 0;
    } else if ((ps.mask & ~ps.g0_mask) != 0) {
      std::vector<PendGroup>& sp = spill_[ev.net];
      for (std::size_t i = 0; i < sp.size(); ++i) {
        if (sp[i].t_ps == ev.t_ps) {
          live = sp[i].mask;
          sp[i] = sp.back();
          sp.pop_back();
          break;
        }
      }
    }
    if (live == 0) continue;
    ps.mask &= ~live;
    commit(ev.t_ps, ev.net, live);
    if (++committed > max_events)
      throw std::runtime_error(
          "BatchSimulator::run_until_stable: event budget exhausted "
          "(oscillating netlist?)");
  }
  return committed;
}

// ---- BatchFourPhaseEnv ------------------------------------------------------

BatchFourPhaseEnv::BatchFourPhaseEnv(BatchSimulator& sim, EnvSpec spec)
    : sim_(&sim), spec_(std::move(spec)) {
  if (!spec_.strict)
    throw std::invalid_argument(
        "BatchFourPhaseEnv: tolerant handshakes (fault campaigns) are a "
        "scalar-engine feature — the batch environment is strict-only");
  check_env(sim_->netlist(), spec_);
}

void BatchFourPhaseEnv::drive_grouped(NetId net, bool value,
                                      const double* t_ps,
                                      std::uint64_t mask) {
  while (mask != 0) {
    const unsigned lead = static_cast<unsigned>(std::countr_zero(mask));
    const double t = t_ps[lead];
    std::uint64_t group = 0;
    std::uint64_t m = mask;
    while (m != 0) {
      const unsigned lane = static_cast<unsigned>(std::countr_zero(m));
      m &= m - 1;
      if (t_ps[lane] == t) group |= lane_bit(lane);
    }
    sim_->drive(net, value, t, group);
    mask &= ~group;
  }
}

void BatchFourPhaseEnv::apply_reset(double pulse_ps) {
  // Lane-uniform replica of FourPhaseEnv::apply_reset across all 64
  // lanes (so the saved epoch serves full and partial blocks alike).
  double t[kBatchLanes];
  const auto now_times = [&] {
    for (std::size_t l = 0; l < kBatchLanes; ++l) t[l] = sim_->now(l);
  };
  now_times();
  if (spec_.reset != kNoNet) drive_grouped(spec_.reset, true, t, kAllLanes);
  sim_->initialize(kAllLanes);
  sim_->run_until_stable();
  if (spec_.reset != kNoNet) {
    now_times();
    for (double& x : t) x += pulse_ps;
    drive_grouped(spec_.reset, false, t, kAllLanes);
    sim_->run_until_stable();
  }
  now_times();
  for (netlist::ChannelId ch : spec_.inputs)
    for (NetId rail : sim_->netlist().channel(ch).rails)
      drive_grouped(rail, false, t, kAllLanes);
  for (NetId ack : spec_.acks_to_block) drive_grouped(ack, false, t, kAllLanes);
  sim_->run_until_stable();
}

void BatchFourPhaseEnv::send_into(
    std::span<const std::vector<int>* const> values, BatchCycleResult& res) {
  const std::size_t lanes = values.size();
  assert(lanes >= 1 && lanes <= kBatchLanes);
  const std::uint64_t mask =
      lanes == kBatchLanes ? kAllLanes : (lane_bit(lanes) - 1);

  res.lanes = lanes;
  res.num_outputs = spec_.outputs.size();
  res.outputs.assign(lanes * res.num_outputs, -1);

  // Every lane is checked before any lane's state moves.
  for (std::size_t l = 0; l < lanes; ++l) {
    assert(values[l] != nullptr);
    check_stimulus(sim_->netlist(), spec_, *values[l]);
  }
  // Drive `value` on each input channel's stimulus rail, lane l at t[l]:
  // per channel, the lanes picking the same rail go out as one word.
  double t[kBatchLanes];
  const auto drive_data = [&](bool value) {
    for (std::size_t i = 0; i < spec_.inputs.size(); ++i) {
      const netlist::Channel& ch = sim_->netlist().channel(spec_.inputs[i]);
      for (std::size_t r = 0; r < ch.rails.size(); ++r) {
        std::uint64_t m = 0;
        for (std::size_t l = 0; l < lanes; ++l)
          if (static_cast<std::size_t>((*values[l])[i]) == r)
            m |= lane_bit(static_cast<unsigned>(l));
        if (m != 0) drive_grouped(ch.rails[r], value, t, m);
      }
    }
  };
  std::size_t before[kBatchLanes];
  for (std::size_t l = 0; l < lanes; ++l) {
    before[l] = sim_->transition_count(l);
    t[l] = next_cycle_start(l);
    res.t_start[l] = t[l];
    sim_->advance_to(t[l], lane_bit(static_cast<unsigned>(l)));
  }

  // Phase 1: drive valid data.
  drive_data(true);
  sim_->run_until_stable();
  for (std::size_t l = 0; l < lanes; ++l) {
    for (std::size_t i = 0; i < res.num_outputs; ++i) {
      const int v = decode_channel(
          sim_->netlist().channel(spec_.outputs[i]),
          [&](NetId rail) { return sim_->value(rail, l); });
      if (v < 0)
        throw std::runtime_error(
            "BatchFourPhaseEnv: outputs did not become valid "
            "(four-phase protocol failure)");
      res.outputs[l * res.num_outputs + i] = v;
    }
    res.t_valid[l] = sim_->now(l);
  }

  // Phase 2: consumer acknowledges. Phases 2-4 drive at each lane's
  // phase_time (a tester grid re-converges the lanes' phase times,
  // turning the RTZ wavefront back into full-width word drives).
  for (std::size_t l = 0; l < lanes; ++l)
    t[l] = phase_time(sim_->now(l), spec_);
  for (NetId ack : spec_.acks_to_block) drive_grouped(ack, true, t, mask);
  sim_->run_until_stable();

  // Phase 3: return to zero.
  for (std::size_t l = 0; l < lanes; ++l)
    t[l] = phase_time(sim_->now(l), spec_);
  drive_data(false);
  sim_->run_until_stable();
  for (std::size_t l = 0; l < lanes; ++l) {
    for (netlist::ChannelId ch : spec_.outputs)
      for (NetId rail : sim_->netlist().channel(ch).rails)
        if (sim_->value(rail, l))
          throw std::runtime_error(
              "BatchFourPhaseEnv: outputs did not return to zero "
              "(four-phase protocol failure)");
    res.t_empty[l] = sim_->now(l);
  }

  // Phase 4: release acknowledge.
  for (std::size_t l = 0; l < lanes; ++l)
    t[l] = phase_time(sim_->now(l), spec_);
  for (NetId ack : spec_.acks_to_block) drive_grouped(ack, false, t, mask);
  sim_->run_until_stable();
  for (std::size_t l = 0; l < lanes; ++l) {
    res.t_end[l] = sim_->now(l);
    if (res.t_end[l] - res.t_start[l] >= spec_.period_ps)
      throw std::runtime_error(
          "BatchFourPhaseEnv: cycle exceeded the period; increase "
          "EnvSpec::period_ps");
    res.transitions[l] = sim_->transition_count(l) - before[l];
  }
}

}  // namespace qdi::sim
