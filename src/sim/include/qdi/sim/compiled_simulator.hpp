// CompiledSimulator — the execution kernel of the event-driven
// simulator, running against the flattened SoA CompiledNetlist.
//
// Semantics are identical to the reference `Simulator` (inertial-delay
// filtering, glitch counting, Muller C-element state held through the
// output net, deterministic (time, seq) event ordering); the equivalence
// is asserted bit-for-bit over every registry target in
// tests/test_compiled_sim.cpp. The differences are purely mechanical:
//
//   * gate evaluation is one lookup, CompiledNetlist::evaluate(): each
//     cell keeps a pin word (bit i = the value on input pin i) that a
//     commit updates in every fanout cell before any of them evaluates,
//     and the output is bit (pins | prev << 4) of the kind's truth
//     table, tabulated from netlist::evaluate() — gate semantics have
//     one definition, shared with the reference engine;
//   * per-cell delay and slew come from arrays precomputed at compile
//     time (they depend only on the static output load);
//   * the event queue is the shared calendar queue (time_wheel.hpp),
//     keyed by the exact (t_ps, net, seq) total order of the reference
//     engine's priority queue, which is the oracle it is checked
//     against (tests/test_compiled_sim.cpp, the FuzzEpochs suite);
//   * commits are reported only through the attached PowerSink, like
//     the reference engine's — acquisition bins power samples there;
//   * reset_state() is a capacity-retaining memset, and save_epoch() /
//     restore_epoch() snapshot the post-reset state. Restoring tracks a
//     dirty set: only nets committed since the last save/restore are
//     reverted (with the pin words of their fanout cells), so a
//     steady-state trace epoch costs O(activity), not O(num_nets), and
//     performs zero allocations (all queue and dirty-set scratch retains
//     capacity).
//
// Lazily cancelled (inertial-filtered) events stay in the queue as
// tombstones until their pop; when tombstones outnumber live events the
// kernel purges them in place, so pathological retraction patterns
// cannot grow the queue unboundedly.
#pragma once

#include <cassert>
#include <cstdint>
#include <memory>
#include <vector>

#include "qdi/sim/compiled_netlist.hpp"
#include "qdi/sim/engine.hpp"
#include "qdi/sim/time_wheel.hpp"
#include "qdi/sim/transition.hpp"

namespace qdi::sim {

class CompiledSimulator final : public SimEngine {
 public:
  explicit CompiledSimulator(std::shared_ptr<const CompiledNetlist> cn);

  const CompiledNetlist& compiled() const noexcept { return *cn_; }
  const netlist::Netlist& netlist() const noexcept override {
    return cn_->source();
  }

  void reset_state() override;
  void initialize() override;

  bool value(netlist::NetId net) const override {
    assert(net < values_.size());
    return values_[net] != 0;
  }

  void drive(netlist::NetId net, bool value, double at_ps) override;
  std::size_t run_until_stable(std::size_t max_events = 10'000'000) override;

  // ---- fault injection (see force.hpp) -----------------------------------

  void arm_force(netlist::NetId net, bool value, double from_ps,
                 double until_ps) override;
  void clear_forces() override { forces_.clear(); }
  std::size_t armed_forces() const noexcept override { return forces_.size(); }

  double now() const noexcept override { return now_; }
  void advance_to(double t_ps) noexcept override {
    if (t_ps > now_) now_ = t_ps;
  }

  std::size_t glitch_count() const noexcept override { return glitches_; }
  std::size_t transition_count() const noexcept override {
    return total_transitions_;
  }

  /// Pending events still queued (live + tombstones). 0 after
  /// run_until_stable returns.
  std::size_t queue_size() const noexcept { return wheel_.size(); }
  /// Lazily cancelled events still queued (bounded by queue_size() / 2
  /// plus one purge hysteresis — see the tombstone purge).
  std::size_t tombstone_count() const noexcept { return tombstones_; }

  void set_power_sink(PowerSink* sink) noexcept override { sink_ = sink; }

  // ---- trace epochs ------------------------------------------------------

  /// Snapshot of a quiescent simulation state (empty event queue). Taken
  /// once after the reset handshake settles; restoring it starts the next
  /// trace epoch from the identical state — and identical absolute time —
  /// without re-simulating reset.
  struct Epoch {
    std::vector<char> values;
    double now = 0.0;
    std::uint64_t next_seq = 1;
    std::size_t glitches = 0;
    std::size_t total_transitions = 0;
    /// Process-unique snapshot identity: lets restore_epoch() prove the
    /// dirty set was accumulated against THIS snapshot and take the
    /// O(activity) revert; any other epoch falls back to a full copy.
    std::uint64_t id = 0;
  };

  /// Snapshot the current state. The event queue must be drained (run
  /// run_until_stable first); a non-empty queue is a hard error in all
  /// build modes — a snapshot with in-flight events would silently
  /// corrupt every epoch restored from it.
  Epoch save_epoch();

  /// Epoch bump: revert to `e`. The queue must be
  /// drained and `e` must come from a simulator of identical geometry
  /// (both hard errors in release builds). When `e` is the epoch the
  /// current state diverged from, only the nets committed since then are
  /// reverted — O(activity); restoring a different epoch copies all net
  /// values. No container reallocates either way.
  void restore_epoch(const Epoch& e);

 private:
  struct Event {
    double t_ps;
    std::uint64_t seq;  // tie-break + lazy-deletion token
    netlist::NetId net;
    bool value;
  };
  // Queue order: earliest (t_ps, net, seq) pops first — the canonical
  // total order shared with the reference engine and the batch engine
  // (see Simulator::EventOrder for why net breaks timestamp ties). The
  // triple is unique per event, so any correct scheduler yields the
  // reference priority_queue's commit sequence.
  struct Earlier {
    bool operator()(const Event& a, const Event& b) const noexcept {
      if (a.t_ps != b.t_ps) return a.t_ps < b.t_ps;
      if (a.net != b.net) return a.net < b.net;
      return a.seq < b.seq;
    }
  };

  void schedule(netlist::NetId net, bool value, double t_ps, double slew_ps);
  void evaluate_cell(std::uint32_t cell, double t_ps);
  void sync_pins(netlist::NetId net) noexcept;
  void rebuild_pins() noexcept;
  void commit(const Event& ev);
  void handle_force_marker(const Event& ev);
  void purge_tombstones();
  void mark_dirty(netlist::NetId net);
  void clear_dirty();

  std::shared_ptr<const CompiledNetlist> cn_;

  std::vector<char> values_;
  /// Per cell: bit i = values_ of its input pin i (kept in step with
  /// values_ by commit, reset_state and restore_epoch).
  std::vector<std::uint8_t> pins_;
  std::vector<std::uint64_t> pending_seq_;  // live pending event per net (0 = none)
  std::vector<char> pending_value_;
  std::vector<double> pending_slew_;
  std::uint64_t next_seq_ = 1;
  ForceSet forces_;

  detail::TimeWheel<Event, Earlier> wheel_;  // live events + tombstones
  std::size_t tombstones_ = 0;  // lazily cancelled events still queued

  // Dirty-set epoch tracking: nets committed since the state last
  // coincided with epoch `baseline_epoch_` (0 = no baseline).
  std::vector<netlist::NetId> dirty_;
  std::vector<char> dirty_mark_;
  std::uint64_t baseline_epoch_ = 0;

  double now_ = 0.0;
  PowerSink* sink_ = nullptr;
  std::size_t glitches_ = 0;
  std::size_t total_transitions_ = 0;
};

}  // namespace qdi::sim
