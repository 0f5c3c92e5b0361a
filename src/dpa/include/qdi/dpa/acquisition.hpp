// Trace acquisition: runs a circuit under its four-phase environment for
// N random plaintexts and synthesizes one power trace per cycle — the
// reproduction's stand-in for the oscilloscope bench of a physical DPA
// setup. Each trace window covers the full four-phase cycle: evaluation
// and return-to-zero phases, as in fig. 6 of the paper.
#pragma once

#include <cstdint>
#include <functional>
#include <utility>

#include "qdi/dpa/trace_set.hpp"
#include "qdi/power/synth.hpp"
#include "qdi/sim/environment.hpp"
#include "qdi/sim/simulator.hpp"

namespace qdi::dpa {

struct Acquisition {
  std::size_t num_traces = 500;
  std::uint64_t seed = 1;
  power::PowerModelParams power{};
  /// Trace misalignment: the acquisition window of each trace starts
  /// uniformly in [0, start_jitter_ps) *after* the cycle start. Models
  /// the attacker's central difficulty with clockless circuits — there
  /// is no clock edge to trigger on. 0 = perfectly aligned (a designer-
  /// side bench, or an attacker with a perfect EM trigger).
  double start_jitter_ps = 0.0;
};

/// Stimulus callback: produces (per-input-channel 1-of-N values, recorded
/// plaintext bytes) for one acquisition.
using StimulusFn = std::function<
    std::pair<std::vector<int>, std::vector<std::uint8_t>>(util::Rng&)>;

/// Generic engine: resets the environment once, then runs `num_traces`
/// back-to-back cycles (no reset between traces), synthesizing the
/// supply-current trace of each full cycle from the transition log.
/// Sequential-RNG, single-threaded — the campaign API's
/// SimTraceSource + WorkerPool is the parallel, per-trace-stream
/// replacement; this engine remains for bench-style sweeps that want
/// the continuous-operation model. (The per-circuit acquire_<circuit>()
/// wrappers it used to carry are gone — use qdi::campaign targets.)
TraceSet acquire(sim::Simulator& sim, sim::FourPhaseEnv& env,
                 const StimulusFn& stimulus, const Acquisition& cfg);

}  // namespace qdi::dpa
