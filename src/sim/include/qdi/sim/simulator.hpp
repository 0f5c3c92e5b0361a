// Event-driven gate-level simulator for QDI netlists — the *reference*
// engine, interpreting the construction-oriented netlist::Netlist
// directly. The compiled kernel (compiled_simulator.hpp) reproduces its
// semantics bit-for-bit against the flattened execution form; this class
// stays as the readable specification and equivalence oracle.
//
// Inertial-delay semantics: each net has at most one pending event; a
// re-evaluation that contradicts a pending event cancels it (the would-be
// glitch is counted — QDI circuits are hazard-free, so a non-zero glitch
// count on a QDI block is a design bug and tests assert it stays zero).
//
// Muller C-elements hold state through their current output net value;
// reset pins are ordinary inputs (the qdi generators wire them to a reset
// net driven by the environment).
//
// Every committed transition goes to the attached PowerSink together
// with the switched net's capacitance — exactly the (C, Δt, t) triples the
// power model of section III needs (a sim::TransitionLog records them,
// see transition.hpp).
#pragma once

#include <cassert>
#include <cstdint>
#include <queue>
#include <vector>

#include "qdi/netlist/netlist.hpp"
#include "qdi/sim/delay_model.hpp"
#include "qdi/sim/engine.hpp"
#include "qdi/sim/transition.hpp"

namespace qdi::sim {

class Simulator final : public SimEngine {
 public:
  explicit Simulator(const netlist::Netlist& nl, DelayModel model = {});

  const netlist::Netlist& netlist() const noexcept override { return *nl_; }
  const DelayModel& delay_model() const noexcept { return model_; }

  /// Forget all state: all nets low, time zero, counters cleared. Containers
  /// retain their capacity — no reallocation after the first call.
  void reset_state() override;

  /// Evaluate every gate once at the current time so that combinational
  /// outputs inconsistent with the all-zero state (e.g. inverters) settle.
  /// Call once after reset_state()/drive() of initial input values, then
  /// run_until_stable().
  void initialize() override;

  bool value(netlist::NetId net) const override {
    assert(net < values_.size());
    return values_[net] != 0;
  }

  /// Externally drive a net (must be the output of an Input pseudo-cell).
  /// The change commits at `at_ps` with zero slew attributed to the
  /// environment (environment transitions carry the net's cap so input
  /// wire loading is still modeled).
  void drive(netlist::NetId net, bool value, double at_ps) override;

  /// Process events until the queue drains. Returns the number of
  /// committed transitions. Throws std::runtime_error after `max_events`
  /// commits (runaway oscillation — a ring would otherwise hang).
  std::size_t run_until_stable(std::size_t max_events = 10'000'000) override;

  // ---- fault injection (see force.hpp) -----------------------------------

  void arm_force(netlist::NetId net, bool value, double from_ps,
                 double until_ps) override;
  void clear_forces() override { forces_.clear(); }
  std::size_t armed_forces() const noexcept override { return forces_.size(); }

  /// Current simulation time = commit time of the latest event.
  double now() const noexcept override { return now_; }
  /// Move the clock forward (idle gap between handshake phases).
  void advance_to(double t_ps) noexcept override {
    if (t_ps > now_) now_ = t_ps;
  }

  void set_power_sink(PowerSink* sink) noexcept override { sink_ = sink; }

  /// Count of cancelled pending events (potential glitches). Zero on any
  /// hazard-free QDI block.
  std::size_t glitch_count() const noexcept override { return glitches_; }

  /// Total committed transitions since reset.
  std::size_t transition_count() const noexcept override {
    return total_transitions_;
  }

 private:
  struct Event {
    double t_ps;
    std::uint64_t seq;  // tie-break + lazy-deletion token
    netlist::NetId net;
    bool value;
  };
  // Canonical (t_ps, net, seq) total order shared by every engine. The
  // net tie-break (rather than raw insertion order) is what lets the
  // batch engine key its merged 64-lane queue on (t, net) and still
  // replay each lane's commit/glitch/power stream bit-identically —
  // see sim/batch_simulator.hpp. At most one *live* event exists per
  // (t, net) (delays are strictly positive; one pending per net), so
  // the seq component only orders tombstones and force markers.
  struct EventOrder {
    bool operator()(const Event& a, const Event& b) const noexcept {
      if (a.t_ps != b.t_ps) return a.t_ps > b.t_ps;
      if (a.net != b.net) return a.net > b.net;
      return a.seq > b.seq;
    }
  };
  /// priority_queue with a capacity-retaining clear() (the underlying
  /// container is protected, not private — this is the sanctioned way in).
  struct EventQueue : std::priority_queue<Event, std::vector<Event>, EventOrder> {
    void clear() noexcept { c.clear(); }
  };

  void schedule(netlist::NetId net, bool value, double t_ps, double slew_ps);
  void evaluate_cell(netlist::CellId cell, double t_ps);
  void commit(const Event& ev);
  void handle_force_marker(const Event& ev);

  const netlist::Netlist* nl_;
  DelayModel model_;

  std::vector<char> values_;          // current net values
  std::vector<std::uint64_t> pending_seq_;  // seq of live pending event per net (0 = none)
  std::vector<char> pending_value_;
  std::vector<double> pending_slew_;
  EventQueue queue_;
  std::uint64_t next_seq_ = 1;
  ForceSet forces_;

  double now_ = 0.0;
  PowerSink* sink_ = nullptr;
  std::size_t glitches_ = 0;
  std::size_t total_transitions_ = 0;
};

}  // namespace qdi::sim
