// SimEngine — the minimal surface the four-phase environment (and any
// other test harness) needs from a simulation engine. Two
// implementations exist:
//
//   * `Simulator` — the reference engine, interpreting the
//     construction-oriented `netlist::Netlist` directly;
//   * `CompiledSimulator` — the execution kernel, running against the
//     flattened SoA `CompiledNetlist` with a time-wheel event queue.
//
// `Simulator` is the oracle: the kernel produces bit-identical event
// sequences (asserted over every registry target in
// tests/test_compiled_sim.cpp, and across epoch rewinds by the
// FuzzEpochs suite in tests/test_property_fuzz.cpp). The virtual calls
// here sit on the environment side (a handful per handshake phase); the
// hot event loop inside each engine is non-virtual.
#pragma once

#include <cstddef>

#include "qdi/netlist/netlist.hpp"
#include "qdi/sim/force.hpp"
#include "qdi/sim/transition.hpp"

namespace qdi::sim {

/// Which engine a simulation-backed trace source should run.
enum class EngineKind {
  Compiled,   ///< flattened SoA kernel (default)
  Reference,  ///< construction-form interpreter
  /// Bit-parallel 64-lane kernel (sim::BatchSimulator): fault-free power
  /// acquisition only. Campaign::engine(Batch) builds a
  /// campaign::BatchSimTraceSource; combinations the kernel cannot honor
  /// (fault injection, non-levelizable netlists) throw instead of
  /// silently falling back to a scalar engine.
  Batch,
};

class SimEngine {
 public:
  virtual ~SimEngine() = default;

  /// The construction netlist this engine simulates (for channel and
  /// name queries; never consulted in the event loop by the kernel).
  virtual const netlist::Netlist& netlist() const noexcept = 0;

  /// Forget all state: all nets low, time zero, counters cleared.
  virtual void reset_state() = 0;

  /// Evaluate every gate once at the current time (see Simulator).
  virtual void initialize() = 0;

  virtual bool value(netlist::NetId net) const = 0;

  /// Externally drive a primary-input net.
  virtual void drive(netlist::NetId net, bool value, double at_ps) = 0;

  /// Process events until the queue drains; see Simulator.
  virtual std::size_t run_until_stable(std::size_t max_events = 10'000'000) = 0;

  /// Arm a forced value on any net (fault injection, see force.hpp):
  /// from `from_ps` (>= now) the net is pinned to `value`; contradicting
  /// commits are suppressed until `until_ps` (exclusive; +infinity = a
  /// stuck-at fault that holds until clear_forces()). One force per net.
  /// Both engines produce bit-identical event streams under the same
  /// armed force. Throws std::invalid_argument on a window starting in
  /// the past, an empty window, or a double-armed net.
  virtual void arm_force(netlist::NetId net, bool value, double from_ps,
                         double until_ps) = 0;

  /// Disarm every force. Net values are left as-is (restore an epoch or
  /// reset to recover the fault-free state).
  virtual void clear_forces() = 0;

  /// Number of currently armed forces.
  virtual std::size_t armed_forces() const noexcept = 0;

  virtual double now() const noexcept = 0;
  virtual void advance_to(double t_ps) noexcept = 0;

  virtual std::size_t glitch_count() const noexcept = 0;
  virtual std::size_t transition_count() const noexcept = 0;

  /// Transition consumer (nullptr detaches): sees every commit in
  /// commit order while attached — the engine's only transition report
  /// (a TransitionLog records them, see transition.hpp).
  virtual void set_power_sink(PowerSink* sink) noexcept = 0;
};

}  // namespace qdi::sim
