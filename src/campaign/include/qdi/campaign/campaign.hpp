// Campaign — the one-stop attack-campaign API of this reproduction.
//
// The paper's whole methodology is a campaign: build a victim under a
// chosen design flow, acquire N power traces, run DPA/CPA, and read the
// dissymmetry criterion next to the attack outcome. The fluent builder
// wires those stages together over any CircuitTarget and any TraceSource:
//
//   auto r = Campaign()
//                .target(aes_byte_slice())
//                .key(0x4f)
//                .flow(core::FlowOptions{...})   // optional P&R stage
//                .traces(10'000)
//                .threads(8)                     // batched parallel acquisition
//                .attack(Dpa{})                  // or Cpa{}
//                .fused()                        // optional: O(1)-memory stream
//                .run();
//
// Results are deterministic in (target, key, seed) and bit-identical for
// any thread count (see trace_source.hpp for the contract). With fused()
// the acquired segments stream straight into the dpa::OnlineCpa /
// dpa::OnlineDpa accumulators and are discarded — same results as the
// materialized path, memory independent of the trace budget.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "qdi/campaign/attack.hpp"
#include "qdi/campaign/fault_campaign.hpp"
#include "qdi/campaign/shard.hpp"
#include "qdi/campaign/target.hpp"
#include "qdi/campaign/trace_source.hpp"
#include "qdi/core/criterion.hpp"
#include "qdi/core/secure_flow.hpp"
#include "qdi/dpa/dpa.hpp"
#include "qdi/xform/pass.hpp"

namespace qdi::campaign {

struct CampaignResult {
  std::string target;
  std::uint64_t key = 0;

  /// The victim netlist as attacked (after flow + prepare hooks and the
  /// countermeasure recipe, if any) — for follow-up inspection,
  /// reporting, or re-running with other settings.
  netlist::Netlist nl;

  /// Countermeasure stage, when a recipe ran: its name and the per-pass
  /// transform reports.
  std::string recipe;
  std::optional<xform::PipelineReport> xform;

  std::optional<core::FlowResult> flow;
  std::vector<core::ChannelCriterion> criteria;  ///< post-flow, post-prepare
  double max_da = 0.0;
  double mean_da = 0.0;

  /// The materialized trace set. Empty in fused mode — samples are
  /// folded into the attack accumulators chunk by chunk and discarded.
  dpa::TraceSet traces;
  AcquisitionStats acquisition;

  std::optional<AttackOutcome> attack;
  std::vector<RankPoint> rank_trajectory;

  /// Fault-resilience probe (Campaign::faults()): the full classified
  /// sweep over the as-attacked netlist (run_fault_campaign).
  std::optional<FaultCampaignResult> faults;

  double total_wall_ms = 0.0;

  bool key_recovered() const noexcept {
    return attack && attack->true_key_rank == 0;
  }
};

/// One countermeasure variant of a sweep: the same campaign run against
/// the same victim family transformed by one xform::Recipe.
struct SweepVariant {
  std::string recipe;
  CampaignResult result;  ///< includes the per-pass xform reports
  /// Post-transform structural security metrics (the paper's section
  /// III/VI designer-side view): symmetry scan over every registered
  /// channel plus the capacitance-imbalance criterion.
  std::size_t channels = 0;
  std::size_t asymmetric_channels = 0;

  std::size_t mtd() const noexcept { return result.attack ? result.attack->mtd : 0; }
  double bias_peak() const noexcept {
    return result.attack ? result.attack->known_key_bias_peak : 0.0;
  }
  /// Fault-resilience counters of this variant (null without faults()).
  const FaultSummary* faults() const noexcept {
    return result.faults ? &result.faults->summary : nullptr;
  }
};

/// Outcome of Campaign::sweep — the paper's unprotected-vs-balanced
/// comparison as one object.
struct SweepResult {
  std::vector<SweepVariant> variants;  ///< recipe order

  const SweepVariant* find(std::string_view recipe) const noexcept;

  /// Comparison table: one row per variant (cells added, cap added,
  /// asymmetric channels, max dA, true-key rank, MTD, known-key bias,
  /// best attack score, and — when faults() ran — the
  /// deadlock/masked/exploitable counts).
  util::Table table() const;
};

class Campaign {
 public:
  using PrepareFn = std::function<void(netlist::Netlist&)>;
  using SourceFactory =
      std::function<std::unique_ptr<TraceSource>(const TargetInstance&,
                                                 const SimTraceSourceOptions&)>;

  Campaign& target(CircuitTarget t) { target_ = std::move(t); return *this; }
  Campaign& key(std::uint64_t k) { key_ = k; return *this; }

  /// Run the DPA-aware design flow (place, extract, criterion) before
  /// acquisition; net caps are back-annotated into the victim netlist.
  Campaign& flow(core::FlowOptions opt) { flow_ = std::move(opt); return *this; }

  /// Arbitrary netlist hook after the flow stage (capacitance injection,
  /// selective repair, ...). Multiple hooks run in registration order.
  Campaign& prepare(PrepareFn fn) {
    prepare_.push_back(std::move(fn));
    return *this;
  }

  /// Countermeasure stage: run the recipe's xform pipeline on the victim
  /// netlist after flow + prepare and before criterion evaluation and
  /// acquisition (the transformed netlist is what sim::compile() sees).
  /// The result records the recipe name and per-pass reports.
  Campaign& recipe(xform::Recipe r) {
    recipe_ = std::move(r);
    return *this;
  }

  Campaign& traces(std::size_t n) { num_traces_ = n; return *this; }
  Campaign& threads(unsigned n) { threads_ = n; return *this; }
  Campaign& seed(std::uint64_t s) { seed_ = s; return *this; }
  Campaign& power(power::PowerModelParams p) { opt_.power = p; return *this; }
  Campaign& delays(sim::DelayModel d) { opt_.delays = d; return *this; }
  Campaign& jitter(double start_jitter_ps) {
    opt_.start_jitter_ps = start_jitter_ps;
    return *this;
  }

  /// Simulation engine for the default trace source: the compiled SoA
  /// kernel (default), the construction-form reference interpreter, or
  /// the bit-parallel 64-lane batch kernel (Batch builds a
  /// BatchSimTraceSource — fault-free acquisition only, and the netlist
  /// must batch-compile; unsupported combinations throw with the
  /// offending cell/option named instead of silently falling back).
  /// Traces are bit-identical across all engines
  /// (tests/test_compiled_sim.cpp, tests/test_batch_sim.cpp).
  Campaign& engine(sim::EngineKind k) {
    opt_.engine = k;
    return *this;
  }

  Campaign& attack(Dpa a) { attack_ = std::move(a); return *this; }
  Campaign& attack(Cpa a) { attack_ = std::move(a); return *this; }

  /// Fused acquire-and-attack: stream acquisition blocks straight into
  /// the streaming analysis accumulators (dpa::OnlineCpa /
  /// dpa::OnlineDpa) and discard the samples. `chunk_traces` budgets the
  /// traces in flight across all workers (WorkerPool::block_traces), so
  /// peak memory is O(chunk · samples + guesses · samples), independent of
  /// the trace budget — attacks on millions of traces without ever
  /// materializing a TraceSet. Attack results, MTD, and the rank
  /// trajectory are bit-identical to the materialized path (both run
  /// the same accumulators in the same order; asserted in
  /// tests/test_online_analysis.cpp). Requires attack(); the result's
  /// `traces` stays empty. A chunk of 0 is clamped to 1 — asking for
  /// fused mode must never silently fall back to materializing. Either
  /// way the analysis runs on the pipeline's commit chain, overlapped
  /// with acquisition (a materialized run also appends each block to
  /// `traces` there), and attack->wall_ms counts that commit-side feed
  /// plus the final read, subtracted from acquisition.wall_ms.
  Campaign& fused(std::size_t chunk_traces = 1024) {
    fused_chunk_ = chunk_traces == 0 ? 1 : chunk_traces;
    return *this;
  }

  /// Thread-sharded fused ingest: partition the trace stream into
  /// fixed-width blocks keyed by absolute trace index, fold each block
  /// into the partial accumulator of its pool buffer slot on whichever
  /// worker acquired it, and merge the partials into the master
  /// accumulator in ascending block order (WorkerPool::run's ingest and
  /// commit + dpa::OnlineCpa/OnlineDpa::merge). Analysis now scales with
  /// the acquisition threads, and because the block partition is keyed by
  /// absolute trace index the outcome depends only on `block_traces`,
  /// never on the thread count or scheduling
  /// (tests/test_dpa_kernels.cpp). The block fold changes the FP
  /// reduction order relative to the serial fused stream (merge() adds
  /// per-block sums where the stream adds traces one by one), so
  /// results match run()'s serial fused path to ~1e-12 rather than
  /// bitwise — which is why this is opt-in rather than implied by
  /// threads(). Requires fused(); rank/MTD checkpoints are preserved
  /// exactly (checkpoint prefixes become additional block cuts, so
  /// every probe still fires at its exact trace count). 0 disables
  /// (the default, serial in-order feeding).
  Campaign& sharded_ingest(std::size_t block_traces = 256) {
    sharded_ingest_ = block_traces;
    return *this;
  }

  /// Fault-resilience probe: after acquisition, sweep the configured
  /// (site x kind x time) fault injections over the as-attacked netlist
  /// (post-flow, post-prepare, post-recipe) and classify every run as
  /// deadlock / masked / exploitable (see fault_campaign.hpp). The probe
  /// runs with the campaign's delay model and engine so it exercises
  /// exactly the simulated victim; results land in
  /// CampaignResult::faults and in the sweep comparison table. With
  /// traces(0) and no attack the run is a fault sweep alone, over the
  /// victim the flow, prepare and recipe stages produce.
  /// Incompatible with source(): the probe injects into the simulated
  /// netlist, which a custom source bypasses — validate() throws.
  Campaign& faults(FaultCampaignOptions opt = {}) {
    faults_ = std::move(opt);
    return *this;
  }

  /// Plug a different TraceSource (cache, replay, hardware bench). The
  /// default factory builds a SimTraceSource over the prepared netlist.
  Campaign& source(SourceFactory f) { source_ = std::move(f); return *this; }

  /// Record the true-key rank every `step` traces (0 = off). Uses the
  /// configured attack; adds analysis cost, not acquisition cost.
  Campaign& rank_trajectory(std::size_t step) {
    rank_step_ = step;
    return *this;
  }

  /// Validate the configuration and run all stages. Throws
  /// std::invalid_argument on an inconsistent configuration.
  CampaignResult run() const;

  /// Crash-safe sharded run (shard.hpp): partition the trace budget
  /// into `opt.shards` deterministic index ranges, run each shard's
  /// fused acquire-and-attack loop with durable checkpoints every
  /// `opt.checkpoint_interval` traces, and merge the shard states into
  /// one attack outcome. A killed run re-invoked with the same
  /// configuration resumes from the checkpoints in `opt.checkpoint_dir`
  /// and produces bit-identical results to an uninterrupted sharded run
  /// (tests/test_shard_runtime.cpp); a degraded run (a shard exhausted
  /// its attempts) merges every durable partial sum and reports honest
  /// per-shard coverage instead of throwing. Requires attack(),
  /// traces(n > 0), and a checkpoint_dir; incompatible with faults()
  /// and rank_trajectory() (the sharded trajectory is probed at shard
  /// boundaries instead), and with fused() and sharded_ingest(), whose
  /// sharded counterparts are ShardedOptions::chunk_traces and
  /// ::ingest_block_traces. Throws std::invalid_argument otherwise.
  ShardedResult sharded(ShardedOptions opt) const;

  /// Run the same campaign once per countermeasure recipe and compare.
  /// Each variant is a copy of this campaign given .recipe(r) — plus
  /// .fused() when an attack is configured and fused() was not called,
  /// since a sweep's purpose is comparison, not trace retention — and
  /// then run(): its own victim build, flow + prepare, recipe, compile
  /// and worker pool. Results per variant are therefore bit-identical to
  /// a standalone .recipe(r).fused().run() campaign, and peak memory is
  /// independent of both the trace budget and the number of recipes.
  /// Throws std::invalid_argument on an empty recipe list, on a recipe()
  /// already set, or on an inconsistent configuration.
  SweepResult sweep(const std::vector<xform::Recipe>& recipes) const;

 private:
  void validate(const TargetInstance& inst) const;
  void prepare_victim(TargetInstance& inst, CampaignResult* res) const;
  std::unique_ptr<TraceSource> make_source(const TargetInstance& inst) const;

  CircuitTarget target_;
  std::uint64_t key_ = 0;
  std::optional<core::FlowOptions> flow_;
  std::vector<PrepareFn> prepare_;
  std::optional<xform::Recipe> recipe_;
  std::size_t num_traces_ = 0;
  unsigned threads_ = 1;
  std::uint64_t seed_ = 1;
  SimTraceSourceOptions opt_{};
  AttackConfig attack_;
  std::optional<FaultCampaignOptions> faults_;
  SourceFactory source_;
  std::size_t rank_step_ = 0;
  std::size_t fused_chunk_ = 0;  ///< 0 = materialize a TraceSet (default)
  std::size_t sharded_ingest_ = 0;  ///< block width; 0 = serial fused feed
};

}  // namespace qdi::campaign
