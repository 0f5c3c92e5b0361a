// BatchSimulator — the bit-parallel third engine: 64 traces per machine
// word.
//
// 64 independent simulations of the SAME netlist advance in lockstep.
// Net state is word-packed (bit l of a net's word is lane l's value), so
// one gate evaluation is a handful of bitwise ops serving all 64 lanes
// (AND/OR/NOT and the Muller majority-with-hold as word formulas). The
// four-phase handshake skeleton stays event-driven: a shared min-queue
// of merged (t, net) keys replaces 64 scalar queues, and a per-lane
// pending mask lets lanes that stall, diverge, or finish early drop out
// of a word without perturbing the others.
//
// Exactness contract — the reason this engine can exist at all:
// every engine orders events by the canonical (t_ps, net, seq) total
// order, and at most one LIVE event exists per (lane, net, time)
// (delays are strictly positive, one pending per net). So for each
// lane, popping merged (t, net) keys in (t, net) order replays exactly
// the scalar pop order of that lane's events — commit times, values,
// glitch (retraction) counts, transition counts, and the floating-point
// accumulation order of every power sample are bit-identical to the
// CompiledSimulator and the reference interpreter
// (tests/test_batch_sim.cpp, tests/test_property_fuzz.cpp).
//
// The kernel runs the CompiledNetlist the scalar compiled engine runs
// and relies on two structural facts scalar simulation never needed
// spelled out, both established once by the constructor:
//
//   * every combinational cone between handshake latches is acyclic.
//     Muller C-elements (the QDI latches) and environment-driven nets
//     are the cut points. A cone with a cycle (e.g. a cross-coupled NAND
//     latch built from "combinational" cells) would make word-parallel
//     evaluation order-sensitive, so the constructor REFUSES it with an
//     error naming the offending cell and net rather than silently
//     falling back to scalar runs;
//   * per-net slew is static: a net has exactly one driver, and the
//     per-cell slew depends only on the cell kind and its static output
//     load, so the kernel looks slew up per net instead of carrying
//     per-lane pending-slew state. Environment-driven nets use slew 0,
//     exactly like SimEngine::drive().
//
// Scope: acquisition only. Forces/fault injection and per-transition
// PowerSinks (a sim::TransitionLog) are scalar-engine features;
// Campaign::engine(Batch) guards the unsupported combinations with
// explicit errors instead of falling back.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "qdi/sim/compiled_netlist.hpp"
#include "qdi/sim/environment.hpp"
#include "qdi/sim/time_wheel.hpp"

namespace qdi::sim {

inline constexpr std::size_t kBatchLanes = 64;

/// Streaming power sink of the batch kernel: one callback per merged
/// (t, net) commit. `live` marks the lanes that committed, `rising`
/// (a subset of live) the lanes whose new value is 1. Per-lane slew is
/// not needed — slew is static per net (see above).
class BatchPowerSink {
 public:
  virtual ~BatchPowerSink() = default;
  virtual void on_batch_transition(double t_ps, std::uint32_t net,
                                   std::uint64_t live, std::uint64_t rising,
                                   double slew_ps) = 0;
};

class BatchSimulator {
 public:
  /// Shares `cn` read-only (worker kernels over one victim share one
  /// compiled form). Throws std::invalid_argument, naming the cell and
  /// its output net, when a combinational cone has a cycle.
  explicit BatchSimulator(std::shared_ptr<const CompiledNetlist> cn);

  const netlist::Netlist& netlist() const noexcept { return cn_->source(); }

  /// All-lane return to the power-on state (t = 0, all nets low).
  void reset_state();

  /// Evaluate every cell once against the current values in cell-id
  /// order, as SimEngine::initialize() does per lane. Lane `now` must be
  /// uniform (it is at reset / after apply_reset).
  void initialize(std::uint64_t mask);

  bool value(netlist::NetId net, std::size_t lane) const {
    return (cur_[net] >> lane) & 1u;
  }

  /// Drive a primary-input net in every lane of `mask` at `at_ps`.
  void drive(netlist::NetId net, bool value, double at_ps,
             std::uint64_t mask);

  /// Drain the merged event queue. The budget counts merged commits (a
  /// merged commit serves up to 64 lanes); an oscillating lane still
  /// exhausts it. Returns the merged commit count.
  std::size_t run_until_stable(std::size_t max_events = 10'000'000);

  double now(std::size_t lane) const { return now_[lane]; }
  void advance_to(double t_ps, std::uint64_t mask);

  std::size_t glitch_count(std::size_t lane) const {
    return glitches_[lane];
  }
  std::size_t transition_count(std::size_t lane) const {
    return transitions_[lane];
  }

  void set_power_sink(BatchPowerSink* sink) noexcept { sink_ = sink; }

  /// Post-reset snapshot, shared by all lanes (save requires a drained
  /// queue and lane-uniform state — which apply_reset guarantees).
  /// restore broadcasts it into every lane: one word per net, so a
  /// 64-trace block pays O(nets), not O(64 x activity).
  struct Epoch {
    std::vector<char> values;
    double now = 0.0;
    std::size_t glitches = 0;
    std::size_t transitions = 0;
  };
  Epoch save_epoch() const;
  void restore_epoch(const Epoch& e);

  /// Lane-occupancy statistics since construction: how many lanes the
  /// average merged commit served. 64.0 = perfect lockstep, 1.0 = the
  /// lanes fully diverged (batch degenerates to scalar cost).
  std::uint64_t merged_commits() const noexcept { return merged_commits_; }
  double mean_lane_occupancy() const noexcept {
    return merged_commits_ > 0 ? static_cast<double>(lane_commits_) /
                                     static_cast<double>(merged_commits_)
                               : 0.0;
  }

 private:
  struct HeapEvent {
    double t_ps;
    std::uint32_t net;
  };
  // Merged-queue order: earliest (t, net) pops first — the projection of
  // the engines' canonical (t_ps, net, seq) order onto live events.
  struct Earlier {
    bool operator()(const HeapEvent& a, const HeapEvent& b) const noexcept {
      if (a.t_ps != b.t_ps) return a.t_ps < b.t_ps;
      return a.net < b.net;
    }
  };

  void schedule_word(std::uint32_t net, std::uint64_t want, std::uint64_t mask,
                     double t_ps);
  void evaluate_cell(std::uint32_t cell, double t_ps, std::uint64_t mask);
  void commit(double t_ps, std::uint32_t net, std::uint64_t live);

  std::shared_ptr<const CompiledNetlist> cn_;
  /// Static slew per net: 0 for environment-driven nets, the driving
  /// cell's slew_ps otherwise.
  std::vector<double> net_slew_ps_;

  // Word-packed per-net state: lane l's value is bit l. Committed values
  // stay in their own dense array — the gate-evaluation word loops read
  // nothing else, and 8 bytes per net keeps their footprint minimal.
  std::vector<std::uint64_t> cur_;  // committed values
  struct PendGroup {
    double t_ps;
    std::uint64_t mask;
  };
  // Pending lanes of a net, grouped by scheduled time: lanes in lockstep
  // share one group, so a net almost always holds at most one. The group
  // is the lazy-cancellation token — a popped (t, net) key commits
  // exactly the group whose time equals t (a missing group is a
  // tombstone) — and the dedup unit: a heap key is pushed only when a
  // group is born. The first group lives inline (g0_t/g0_mask, mask == 0
  // when vacant); additional simultaneous times spill into spill_[net],
  // and `mask & ~g0_mask != 0` is the cheap "spill is non-empty" test
  // (the groups of a net partition its pending lanes).
  //
  // The four pending words of a net share one 32-byte slot: the event
  // hot path (pop, commit, schedule) is bound by scattered per-net
  // loads, and the 32-byte alignment pins each slot inside a single
  // cache line — one line touched per net instead of the four that
  // parallel arrays would spread the same state across.
  struct alignas(32) PendState {
    std::uint64_t mask = 0;     // lanes with a live pending event
    std::uint64_t value = 0;    // pending values of those lanes
    double g0_t = 0.0;          // inline group: scheduled time...
    std::uint64_t g0_mask = 0;  // ...and its lanes (0 = vacant)
  };
  std::vector<PendState> pend_;
  std::vector<std::vector<PendGroup>> spill_;

  // Merged (t, net) keys, one per pending group born (time_wheel.hpp);
  // keys the serve of a tick births into its own tick pop in order.
  detail::TimeWheel<HeapEvent, Earlier> wheel_;

  double now_[kBatchLanes] = {};
  std::size_t glitches_[kBatchLanes] = {};
  std::size_t transitions_[kBatchLanes] = {};

  BatchPowerSink* sink_ = nullptr;
  std::uint64_t merged_commits_ = 0;
  std::uint64_t lane_commits_ = 0;
};

/// Four-phase handshake environment over the batch kernel: per lane, the
/// cycle of sim::FourPhaseEnv::send_into under the same handshake rules
/// (environment.hpp), with drives grouped into masked words and the four
/// run_until_stable barriers shared (the lanes are independent, so a
/// global drain preserves each lane's event subsequence). Strict-mode
/// only — acquisition is its sole client; a protocol failure or period
/// overrun in ANY lane throws.
class BatchFourPhaseEnv {
 public:
  /// Throws std::invalid_argument for a tolerant spec or via check_env.
  BatchFourPhaseEnv(BatchSimulator& sim, EnvSpec spec);

  /// Reset handshake across all 64 lanes (they are identical during
  /// reset, so this runs once per worker, then save_epoch snapshots it).
  void apply_reset(double pulse_ps = 200.0);

  double next_cycle_start(std::size_t lane) const noexcept {
    return cycle_start(sim_->now(lane), spec_);
  }

  struct BatchCycleResult {
    double t_start[kBatchLanes] = {};
    double t_valid[kBatchLanes] = {};
    double t_empty[kBatchLanes] = {};
    double t_end[kBatchLanes] = {};
    std::size_t transitions[kBatchLanes] = {};
    /// Decoded output channel values, lane-major:
    /// outputs[lane * num_outputs + i].
    std::vector<int> outputs;
    std::size_t num_outputs = 0;
    std::size_t lanes = 0;
  };

  /// One four-phase cycle in lanes [0, values.size());
  /// values[l] points at lane l's per-input-channel stimulus.
  void send_into(std::span<const std::vector<int>* const> values,
                 BatchCycleResult& res);

 private:
  /// Masked drive with a per-lane time array: lanes of `mask` sharing
  /// the same time are driven as one word.
  void drive_grouped(netlist::NetId net, bool value, const double* t_ps,
                     std::uint64_t mask);

  BatchSimulator* sim_;
  EnvSpec spec_;
};

}  // namespace qdi::sim
