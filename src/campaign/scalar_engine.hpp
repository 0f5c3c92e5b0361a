// Private campaign-internal header (not installed): the scalar
// simulation rig behind SimTraceSource (trace_source.cpp) and the fault
// sweep's FaultRunner (fault_campaign.cpp), and the one rule that picks
// the compiled form every engine and the fault sweep run.
#pragma once

#include <memory>
#include <optional>
#include <utility>

#include "qdi/campaign/trace_source.hpp"
#include "qdi/sim/compiled_simulator.hpp"
#include "qdi/sim/environment.hpp"
#include "qdi/sim/simulator.hpp"

namespace qdi::campaign::detail {

/// The compiled form an engine over `opt` runs: null for the reference
/// engine, else `opt.precompiled` when given, else a fresh compile of
/// `nl` with `opt.delays`. The compiled and batch kernels run the same
/// form.
inline std::shared_ptr<const sim::CompiledNetlist> compiled_form(
    const netlist::Netlist& nl, const SimTraceSourceOptions& opt) {
  if (opt.engine == sim::EngineKind::Reference) return nullptr;
  return opt.precompiled ? opt.precompiled : sim::compile(nl, opt.delays);
}

/// One worker's scalar engine — the compiled kernel over `compiled` when
/// it is non-null, else the reference interpreter over `nl` with
/// `delays` — driven by a FourPhaseEnv over `spec`.
class ScalarRig {
 public:
  ScalarRig(const std::shared_ptr<const sim::CompiledNetlist>& compiled,
            const netlist::Netlist& nl, const sim::DelayModel& delays,
            sim::EnvSpec spec)
      : sim_(compiled ? std::unique_ptr<sim::SimEngine>(
                            std::make_unique<sim::CompiledSimulator>(compiled))
                      : std::make_unique<sim::Simulator>(nl, delays)),
        csim_(compiled ? static_cast<sim::CompiledSimulator*>(sim_.get())
                       : nullptr),
        env_(*sim_, std::move(spec)) {}

  sim::SimEngine& engine() noexcept { return *sim_; }
  sim::FourPhaseEnv& env() noexcept { return env_; }

  /// Return to the post-reset state, so every cycle runs at the same
  /// absolute times (bit-identical floating point). The compiled kernel
  /// simulates the reset once, then restores its snapshot; the reference
  /// engine re-simulates it each time.
  void rewind() {
    if (csim_ != nullptr && epoch_.has_value()) {
      csim_->restore_epoch(*epoch_);
      return;
    }
    sim_->reset_state();
    env_.apply_reset();
    if (csim_ != nullptr) epoch_ = csim_->save_epoch();
  }

  /// Make the next rewind() re-simulate the reset: an oscillation abort
  /// leaves queued events that restoring the snapshot would not clear.
  void forget_epoch() noexcept { epoch_.reset(); }

 private:
  std::unique_ptr<sim::SimEngine> sim_;
  sim::CompiledSimulator* csim_;  ///< sim_ if compiled, else null
  sim::FourPhaseEnv env_;
  std::optional<sim::CompiledSimulator::Epoch> epoch_;  ///< post-reset snapshot
};

}  // namespace qdi::campaign::detail
