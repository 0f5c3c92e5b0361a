// Committed-transition record and the streaming power hook.
//
// A Transition is exactly the (C, Δt, t) triple the power model of
// section III consumes. Both simulation engines (the reference
// `Simulator` and the compiled kernel) report every commit through one
// channel: the `PowerSink` attached to them. Acquisition attaches an
// accumulator that bins power samples as transitions commit; a
// `TransitionLog` records them instead, for post-hoc analysis (the
// reference synthesis path, the activity reports, the engine
// equivalence tests).
#pragma once

#include <vector>

#include "qdi/netlist/netlist.hpp"

namespace qdi::sim {

struct Transition {
  double t_ps = 0.0;       ///< commit time
  netlist::NetId net = netlist::kNoNet;
  bool rising = false;
  double cap_ff = 0.0;     ///< net capacitance at switch time
  double slew_ps = 0.0;    ///< Δt(C) of the driving gate
};

/// Streaming consumer of committed transitions. Attached to a simulation
/// engine, it observes every commit in commit order — the order a
/// TransitionLog records, so a streaming accumulator is bit-identical to
/// a walk of the recorded log by construction.
class PowerSink {
 public:
  virtual ~PowerSink() = default;
  virtual void on_transition(const Transition& t) = 0;
};

/// PowerSink that records every commit while attached. Clear
/// `transitions` to start a new window.
struct TransitionLog final : PowerSink {
  std::vector<Transition> transitions;

  void on_transition(const Transition& t) override {
    transitions.push_back(t);
  }
};

}  // namespace qdi::sim
