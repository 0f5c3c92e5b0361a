// BatchSimTraceSource — acquisition over the 64-lane batch kernel.
//
// One four-phase cycle of the BatchSimulator acquires up to 64 traces:
// each lane runs its own stimulus from the shared post-reset epoch, and
// the BatchAccumulator bins each lane's power straight into that lane's
// sample row. Per-trace results — power samples, ciphertext, transition
// and glitch counts — are bit-identical to SimTraceSource over the
// scalar engines (same canonical event order, same per-trace prelude
// and output packing (src/campaign/per_trace.hpp), same floating-point
// accumulation order per lane; asserted over every simulatable
// registry target in tests/test_batch_sim.cpp).
//
// Lanes are fully independent, so results are also invariant to how the
// campaign partitions trace indices into blocks: a 1-lane block, the
// partial final block of a campaign, and a full 64-lane block all
// reproduce the same per-index traces.
#pragma once

#include <array>
#include <memory>
#include <optional>

#include "qdi/campaign/trace_source.hpp"
#include "qdi/power/batch_synth.hpp"
#include "qdi/sim/batch_simulator.hpp"

namespace qdi::campaign {

/// TraceSource running sim::BatchSimulator, 64 trace lanes per block,
/// over the same CompiledNetlist the compiled engine runs: `precompiled`
/// when provided, else one sim::compile() shared by every clone.
/// Construction throws std::invalid_argument for the reference engine,
/// when a combinational cone has a cycle (see BatchSimulator) and via
/// BatchFourPhaseEnv when the environment is not strict.
class BatchSimTraceSource final : public TraceSource {
 public:
  BatchSimTraceSource(const netlist::Netlist& nl, sim::EnvSpec env,
                      StimulusFn stimulus, SimTraceSourceOptions opt = {});

  BatchSimTraceSource(const BatchSimTraceSource&) = delete;
  BatchSimTraceSource& operator=(const BatchSimTraceSource&) = delete;

  void acquire_into(const TraceRequest& req, AcquiredTrace& out) override;
  std::size_t batch_width() const override { return sim::kBatchLanes; }
  /// Throws std::invalid_argument when `count` is outside
  /// [1, kBatchLanes].
  void acquire_block(std::uint64_t seed, std::size_t first, std::size_t count,
                     AcquiredTrace* out) override;
  std::unique_ptr<TraceSource> clone() const override;
  std::string name() const override { return "batch-sim"; }

  /// Lane-occupancy of the merged commits this worker ran (64 = perfect
  /// lockstep). Benchmark context; see BatchSimulator.
  double mean_lane_occupancy() const noexcept {
    return sim_.mean_lane_occupancy();
  }

 private:
  /// The common part; clone() shares `compiled`.
  BatchSimTraceSource(const netlist::Netlist& nl, sim::EnvSpec env,
                      StimulusFn stimulus, SimTraceSourceOptions opt,
                      std::shared_ptr<const sim::CompiledNetlist> compiled);

  const netlist::Netlist* nl_;
  sim::EnvSpec spec_;
  StimulusFn stimulus_;
  SimTraceSourceOptions opt_;
  /// Execution form shared read-only by all worker clones.
  std::shared_ptr<const sim::CompiledNetlist> compiled_;
  sim::BatchSimulator sim_;
  sim::BatchFourPhaseEnv env_;
  power::BatchAccumulator acc_;
  /// Per-worker scratch, capacity-retaining across blocks.
  std::array<Stimulus, sim::kBatchLanes> stim_;
  std::array<util::Rng, sim::kBatchLanes> rng_;
  sim::BatchFourPhaseEnv::BatchCycleResult cyc_;
  std::optional<sim::BatchSimulator::Epoch> epoch_;  ///< post-reset snapshot
};

}  // namespace qdi::campaign
