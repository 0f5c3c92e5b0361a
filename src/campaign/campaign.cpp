#include "qdi/campaign/campaign.hpp"

#include <algorithm>
#include <chrono>
#include <memory>
#include <optional>
#include <stdexcept>
#include <utility>
#include <vector>

#include "attack_state.hpp"
#include "shard_runtime.hpp"
#include "qdi/campaign/batch_trace_source.hpp"
#include "qdi/dpa/online.hpp"
#include "qdi/netlist/graph.hpp"
#include "qdi/netlist/symmetry.hpp"
#include "qdi/util/sha256.hpp"

namespace qdi::campaign {

namespace {

double ms_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

/// Acquisition workers of a campaign over `traces` traces: threads(0)
/// runs one, and no more run than there are traces.
unsigned pool_threads(unsigned threads, std::size_t traces) {
  return static_cast<unsigned>(
      std::min<std::size_t>(threads == 0 ? 1 : threads, traces));
}

/// Single-pass streaming analysis of run(): the pipeline's commit hands it
/// every block in ascending trace order, and at each precomputed
/// checkpoint the running sums are finalized in place to emit a
/// rank-trajectory point and/or advance the measurements-to-disclosure
/// scan. Checkpoint prefixes are block cuts of the pipeline call
/// (checkpoint_cuts()), so every probe fires after a whole block, at
/// exactly its trace count; prefix-0 probes fire at construction. A
/// serial feed adds the rows in trace order whatever the block width, so
/// materialized and fused runs read the same sums at the same points and
/// are bit-identical by construction. The accumulator pair, the probe
/// rules and the ingest rule live in detail::AttackState and
/// detail::Ingest, shared with the sharded runtime (shard.cpp) so the
/// two paths cannot drift.
class StreamingAnalysis {
 public:
  StreamingAnalysis(const AttackConfig& attack, const TargetInstance& inst,
                    std::size_t rank_step, std::size_t total)
      : state_(attack, inst), total_(total) {
    if (const Dpa* cfg = std::get_if<Dpa>(&attack)) {
      if (cfg->compute_mtd) plan_mtd(cfg->mtd_start, cfg->mtd_step);
    } else {
      const Cpa& c = std::get<Cpa>(attack);
      if (c.compute_mtd) plan_mtd(c.mtd_start, c.mtd_step);
    }
    if (rank_step > 0)
      for (std::size_t n = rank_step; n < total_; n += rank_step)
        checkpoints_.push_back({n, /*rank=*/true, /*mtd=*/false});
    for (std::size_t n : mtd_points_)
      checkpoints_.push_back({n, /*rank=*/false, /*mtd=*/true});
    // Sort the union of the two grids and coalesce coinciding points so
    // each prefix is probed once with the merged flags.
    std::sort(checkpoints_.begin(), checkpoints_.end(),
              [](const Checkpoint& a, const Checkpoint& b) { return a.n < b.n; });
    std::size_t out = 0;
    for (const Checkpoint& cp : checkpoints_) {
      if (out > 0 && checkpoints_[out - 1].n == cp.n) {
        checkpoints_[out - 1].rank |= cp.rank;
        checkpoints_[out - 1].mtd |= cp.mtd;
      } else {
        checkpoints_[out++] = cp;
      }
    }
    checkpoints_.resize(out);
    fire_through(0);
  }

  /// Checkpoint prefixes as absolute cut positions for the pipeline
  /// call (WorkerPool::run's extra_cuts): a checkpoint can end a block
  /// but never fall inside one.
  std::vector<std::size_t> checkpoint_cuts() const {
    std::vector<std::size_t> cuts;
    cuts.reserve(checkpoints_.size());
    for (const Checkpoint& cp : checkpoints_) cuts.push_back(cp.n);
    return cuts;
  }

  /// Fold block `blk` through `ingest` and fire every checkpoint at its
  /// end. Must be called in ascending block order (the pipeline's commit
  /// order).
  void commit(const WorkerPool::Block& blk, const detail::Ingest& ingest) {
    ingest.commit(blk, state_);
    fire_through(blk.first + blk.count);
  }

  /// Final attack outcome + the closing rank-trajectory point.
  AttackOutcome finish(std::size_t rank_step,
                       std::vector<RankPoint>& trajectory) {
    AttackOutcome out = state_.outcome();
    if (state_.mtd_enabled() && out.true_key_rank == 0) out.mtd = mtd_.value();
    trajectory = std::move(trajectory_);
    if (rank_step > 0) trajectory.push_back({total_, out.true_key_rank});
    return out;
  }

 private:
  struct Checkpoint {
    std::size_t n = 0;
    bool rank = false;
    bool mtd = false;
  };

  void plan_mtd(std::size_t start, std::size_t step) {
    for (std::size_t n = start; n <= total_; n += step)
      mtd_points_.push_back(n);
  }

  /// Probe every checkpoint at a prefix of at most `n` traces.
  void fire_through(std::size_t n) {
    for (; next_cp_ < checkpoints_.size() && checkpoints_[next_cp_].n <= n;
         ++next_cp_) {
      const Checkpoint& cp = checkpoints_[next_cp_];
      if (cp.rank) trajectory_.push_back({cp.n, state_.rank_now()});
      if (cp.mtd) state_.probe_mtd(mtd_, cp.n);
    }
  }

  detail::AttackState state_;
  std::size_t total_;
  std::vector<Checkpoint> checkpoints_;
  std::vector<std::size_t> mtd_points_;
  std::size_t next_cp_ = 0;
  dpa::MtdScan mtd_;
  std::vector<RankPoint> trajectory_;
};

}  // namespace

void Campaign::validate(const TargetInstance& inst) const {
  const bool attacking = !std::holds_alternative<std::monostate>(attack_);
  if (attacking && num_traces_ == 0)
    throw std::invalid_argument(
        "Campaign: an attack needs traces(n > 0) to analyse");
  if (attacking && inst.num_guesses == 0)
    throw std::invalid_argument("Campaign: target '" + inst.name +
                                "' has no keyed intermediate to attack");
  if (attacking && inst.true_guess >= inst.num_guesses)
    throw std::invalid_argument(
        "Campaign: target '" + inst.name + "' has true_guess " +
        std::to_string(inst.true_guess) + ", outside its " +
        std::to_string(inst.num_guesses) + " guesses");
  if (std::holds_alternative<Cpa>(attack_) && !inst.leakage)
    throw std::invalid_argument("Campaign: target '" + inst.name +
                                "' has no leakage model for CPA");
  if (std::holds_alternative<Dpa>(attack_) && inst.selection_bits.empty())
    throw std::invalid_argument("Campaign: target '" + inst.name +
                                "' has no selection functions for DPA");
  if (num_traces_ > 0 && !inst.simulatable && !source_)
    throw std::invalid_argument(
        "Campaign: target '" + inst.name +
        "' is flow-only; acquisition needs a custom source()");
  if (num_traces_ > 0 && inst.simulatable && !inst.stimulus && !source_)
    throw std::invalid_argument("Campaign: target '" + inst.name +
                                "' provides no stimulus");
  if (rank_step_ > 0 && !attacking)
    throw std::invalid_argument(
        "Campaign: rank_trajectory() needs an attack() to rank with");
  const bool mtd_step_zero =
      (std::holds_alternative<Dpa>(attack_) && std::get<Dpa>(attack_).compute_mtd &&
       std::get<Dpa>(attack_).mtd_step == 0) ||
      (std::holds_alternative<Cpa>(attack_) && std::get<Cpa>(attack_).compute_mtd &&
       std::get<Cpa>(attack_).mtd_step == 0);
  if (mtd_step_zero)
    throw std::invalid_argument(
        "Campaign: compute_mtd needs mtd_step > 0 (the prefix grid must "
        "advance)");
  if (fused_chunk_ > 0 && !attacking)
    throw std::invalid_argument(
        "Campaign: fused() discards traces, so it needs an attack() to "
        "stream them into");
  if (sharded_ingest_ > 0 && fused_chunk_ == 0)
    throw std::invalid_argument(
        "Campaign: sharded_ingest() folds trace blocks into the streaming "
        "accumulators — it needs fused()");
  if (faults_ && source_)
    throw std::invalid_argument(
        "Campaign: faults() injects into the simulated netlist, which a "
        "custom source() bypasses — drop one of the two");
  if (faults_ && !inst.simulatable)
    throw std::invalid_argument(
        "Campaign: target '" + inst.name +
        "' is flow-only; faults() needs a simulatable netlist to inject "
        "into");
  if (faults_ && opt_.engine == sim::EngineKind::Batch)
    throw std::invalid_argument(
        "Campaign: faults() needs a scalar engine — the batch kernel "
        "cannot inject forces; drop faults() or use engine(Compiled / "
        "Reference)");
}

/// Design flow, prepare hooks, then the countermeasure recipe — the
/// stages every entry point runs on a freshly built victim, in this
/// order. Their reports land in `res` when the caller keeps one.
void Campaign::prepare_victim(TargetInstance& inst,
                              CampaignResult* res) const {
  if (flow_) {
    auto flow = core::run_secure_flow(inst.nl, *flow_);
    if (res != nullptr) res->flow = std::move(flow);
  }
  for (const PrepareFn& fn : prepare_) fn(inst.nl);
  if (recipe_) {
    auto xf = recipe_->pipeline.run(inst.nl);
    if (res != nullptr) {
      res->recipe = recipe_->name;
      res->xform = std::move(xf);
    }
  }
}

/// The source() factory's source, or the default simulator source for
/// the configured engine.
std::unique_ptr<TraceSource> Campaign::make_source(
    const TargetInstance& inst) const {
  if (source_) return source_(inst, opt_);
  if (opt_.engine == sim::EngineKind::Batch)
    return std::make_unique<BatchSimTraceSource>(inst.nl, inst.env,
                                                 inst.stimulus, opt_);
  return std::make_unique<SimTraceSource>(inst.nl, inst.env, inst.stimulus,
                                          opt_);
}

CampaignResult Campaign::run() const {
  const auto t_run = std::chrono::steady_clock::now();
  if (!target_.valid())
    throw std::invalid_argument("Campaign: no target set");
  TargetInstance inst = target_.build(key_);
  validate(inst);

  CampaignResult res;
  res.target = inst.name;
  res.key = key_;

  prepare_victim(inst, &res);
  res.criteria = core::evaluate_criterion(inst.nl);
  res.max_da = core::max_dA(res.criteria);
  res.mean_da = core::mean_dA(res.criteria);

  const bool attacking = !std::holds_alternative<std::monostate>(attack_);

  // ---- acquisition + analysis ----------------------------------------------
  if (num_traces_ > 0) {
    const std::unique_ptr<TraceSource> src = make_source(inst);
    WorkerPool pool(*src, pool_threads(threads_, num_traces_));
    // One pipeline call for every mode. The commit appends each block to
    // res.traces unless fused(), then folds it into the attack
    // accumulators through the ingest rule while the other workers keep
    // acquiring; the probes fire at exactly their trace counts
    // (checkpoint prefixes are block cuts).
    detail::Ingest ingest(
        attack_, inst, pool,
        fused_chunk_ > 0 ? fused_chunk_ : WorkerPool::kMaterializeBudget,
        sharded_ingest_);
    std::optional<StreamingAnalysis> analysis;
    std::vector<std::size_t> cuts;
    if (attacking) {
      analysis.emplace(attack_, inst, rank_step_, num_traces_);
      cuts = analysis->checkpoint_cuts();
    }
    // The pipeline's wall clock covers acquisition + commits; only the
    // analysis share of the commits is subtracted back out, so
    // acquisition.wall_ms and attack->wall_ms partition the stage.
    double feed_ms = 0.0;
    pool.run({{0, num_traces_}}, seed_, ingest.block_traces(), cuts,
             [&](unsigned, const WorkerPool::Block& blk) { ingest.fold(blk); },
             [&](const WorkerPool::Block& blk) {
               if (fused_chunk_ == 0)
                 WorkerPool::append_block(blk, res.traces, res.acquisition,
                                          num_traces_);
               if (!analysis) return;
               const auto t_feed = std::chrono::steady_clock::now();
               analysis->commit(blk, ingest);
               feed_ms += ms_since(t_feed);
             },
             res.acquisition);
    if (analysis) {
      // finish() runs after the stage clock stops and is attributed to
      // the attack alone.
      const auto t_finish = std::chrono::steady_clock::now();
      AttackOutcome out = analysis->finish(rank_step_, res.rank_trajectory);
      out.wall_ms = feed_ms + ms_since(t_finish);
      res.acquisition.wall_ms = std::max(0.0, res.acquisition.wall_ms - feed_ms);
      res.acquisition.traces_per_s =
          res.acquisition.wall_ms > 0.0
              ? 1e3 * static_cast<double>(num_traces_) / res.acquisition.wall_ms
              : 0.0;
      res.attack = std::move(out);
    }
  }

  // ---- fault-resilience probe ----------------------------------------------
  // Runs on the as-attacked netlist (post-flow, post-prepare,
  // post-recipe) and must precede the move below — the probe's
  // simulators point into inst.nl.
  if (faults_)
    res.faults = run_fault_campaign(inst, key_, *faults_, opt_, seed_,
                                    threads_ == 0 ? 1 : threads_);

  res.nl = std::move(inst.nl);
  res.total_wall_ms = ms_since(t_run);
  return res;
}

namespace {

/// Campaign-configuration fingerprint: ties a shard checkpoint to one
/// (target name, key, seed, budget, shard geometry, attack, trace
/// physics) tuple. Engine, thread count, and checkpoint interval are
/// deliberately excluded — none of them changes a single trace value
/// (the determinism contract of trace_source.hpp), so a campaign may
/// resume on a different engine or commit cadence; the shard stream
/// digest remains the arbiter of trace identity. So, for now, is the
/// netlist: victims that flow(), prepare() or recipe() made different
/// share a fingerprint (ROADMAP open item 2).
/// `ingest_block` is ShardedOptions::ingest_block_traces. It enters the
/// fingerprint ONLY when non-zero: the block-fold changes the
/// accumulator's FP reduction order, so its checkpoints must never be
/// adopted by a serial run (or by a run with a different block width) —
/// while every pre-existing serial fingerprint stays byte-identical.
std::uint64_t config_fingerprint(const TargetInstance& inst, std::uint64_t key,
                                 std::uint64_t seed, std::size_t num_traces,
                                 std::size_t shards, const AttackConfig& attack,
                                 const SimTraceSourceOptions& opt,
                                 std::size_t ingest_block) {
  util::Sha256 h;
  const auto str = [&](std::string_view s) {
    h.update_u64(s.size());
    h.update(s.data(), s.size());
  };
  const auto f64 = [&](double v) { h.update(&v, sizeof(v)); };
  str("qdi-sharded-campaign-v1");
  str(inst.name);
  h.update_u64(key);
  h.update_u64(seed);
  h.update_u64(num_traces);
  h.update_u64(shards);
  h.update_u64(inst.num_guesses);
  if (const Dpa* d = std::get_if<Dpa>(&attack)) {
    str("dpa");
    h.update_u64(d->bits.size());
    for (int b : d->bits) h.update_u64(static_cast<std::uint64_t>(b));
    h.update_u64(inst.selection_bits.size());
  } else {
    str("cpa");
  }
  // Trace physics: any change alters the sample values themselves, so
  // sums from an old configuration must never merge into a new one.
  f64(opt.delays.base_ps);
  f64(opt.delays.per_input_ps);
  f64(opt.delays.per_ff_ps);
  f64(opt.delays.slew_base_ps);
  f64(opt.delays.slew_per_ff_ps);
  f64(opt.power.vdd);
  f64(opt.power.sample_period_ps);
  f64(opt.power.cpar_ff);
  f64(opt.power.csc_ff);
  f64(opt.power.rise_weight);
  f64(opt.power.fall_weight);
  f64(opt.power.noise_sigma_ua);
  f64(opt.start_jitter_ps);
  if (ingest_block > 0) {
    str("block-fold-ingest");
    h.update_u64(ingest_block);
  }
  const std::array<std::uint8_t, 32> d = h.digest();
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i)
    v |= static_cast<std::uint64_t>(d[static_cast<std::size_t>(i)]) << (8 * i);
  return v;
}

}  // namespace

ShardedResult Campaign::sharded(ShardedOptions opt) const {
  const auto t_run = std::chrono::steady_clock::now();
  if (!target_.valid())
    throw std::invalid_argument("Campaign: no target set");
  if (std::holds_alternative<std::monostate>(attack_))
    throw std::invalid_argument(
        "Campaign: sharded() streams into attack accumulators — configure "
        "attack(Dpa) or attack(Cpa)");
  if (num_traces_ == 0)
    throw std::invalid_argument("Campaign: sharded() needs traces(n > 0)");
  if (opt.checkpoint_dir.empty())
    throw std::invalid_argument(
        "Campaign: sharded() needs a checkpoint_dir for its durable state");
  if (faults_)
    throw std::invalid_argument(
        "Campaign: sharded() does not run the faults() probe — run it as a "
        "separate campaign over the same target");
  if (rank_step_ > 0)
    throw std::invalid_argument(
        "Campaign: sharded() probes the rank trajectory at shard merge "
        "boundaries; drop rank_trajectory()");
  if (fused_chunk_ > 0)
    throw std::invalid_argument(
        "Campaign: sharded() always streams fused and ignores fused(); set "
        "ShardedOptions::chunk_traces instead");
  if (sharded_ingest_ > 0)
    throw std::invalid_argument(
        "Campaign: sharded() ignores sharded_ingest(); set "
        "ShardedOptions::ingest_block_traces instead");
  TargetInstance inst = target_.build(key_);
  validate(inst);

  // Same victim preparation as run() (minus the criterion): the shard
  // runtime attacks exactly the netlist a fused run() would attack.
  prepare_victim(inst, nullptr);
  const std::unique_ptr<TraceSource> src = make_source(inst);

  opt.shards = plan_shards(num_traces_, opt.shards).size();  // after clamping
  const std::uint64_t fingerprint =
      config_fingerprint(inst, key_, seed_, num_traces_, opt.shards, attack_,
                         opt_, opt.ingest_block_traces);
  ShardedResult res = detail::run_shards(
      inst, attack_, *src, fingerprint, seed_, num_traces_,
      pool_threads(threads_, num_traces_), std::move(opt));
  res.key = key_;
  res.total_wall_ms = ms_since(t_run);
  return res;
}

SweepResult Campaign::sweep(const std::vector<xform::Recipe>& recipes) const {
  if (recipes.empty())
    throw std::invalid_argument("Campaign: sweep() needs at least one recipe");
  if (!target_.valid())
    throw std::invalid_argument("Campaign: no target set");
  if (recipe_)
    throw std::invalid_argument(
        "Campaign: sweep() and recipe() both set the countermeasure stage — "
        "pass every variant (including the recipe() one) in the sweep list");

  const bool attacking = !std::holds_alternative<std::monostate>(attack_);
  SweepResult out;
  out.variants.reserve(recipes.size());
  // Variants whose pipeline never alters connectivity all share the base
  // netlist's symmetry scan (every variant rebuilds the same instance
  // and runs the same flow/prepare stages) — computed at most once.
  std::optional<std::size_t> base_asymmetric;
  for (const xform::Recipe& recipe : recipes) {
    // Each variant is a standalone run() of a copy of this campaign, so
    // it rebuilds the victim through the target's builder (recipes never
    // see each other's edits) and owns its worker pool. An attack always
    // streams fused: a sweep's purpose is comparison, not trace retention.
    Campaign variant_campaign = *this;
    variant_campaign.recipe(recipe);
    if (attacking && fused_chunk_ == 0) variant_campaign.fused();
    SweepVariant variant;
    variant.recipe = recipe.name;
    variant.result = variant_campaign.run();
    // Post-transform structural metrics: the symmetry scan next to the
    // attack outcome — the paper's designer-vs-attacker comparison.
    // When the recipe's cone-balance pass already re-verified (its
    // metric_after is this very count) and every later pass declared
    // itself structure-preserving, reuse the count instead of scanning
    // the netlist a third time (multi-second on aes_core-scale targets).
    variant.channels = variant.result.nl.num_channels();
    const xform::PipelineReport* xf =
        variant.result.xform ? &*variant.result.xform : nullptr;
    const xform::PassReport* verified_count = nullptr;
    bool structure_untouched = true;
    if (xf != nullptr) {
      for (const xform::PassReport& p : xf->passes) {
        if (p.pass == "cone-balance" && p.verified)
          verified_count = &p;
        else if (!p.structure_preserving)
          verified_count = nullptr;  // may have altered connectivity
        structure_untouched &= p.structure_preserving;
      }
    }
    if (verified_count != nullptr) {
      variant.asymmetric_channels =
          static_cast<std::size_t>(verified_count->metric_after);
    } else if (structure_untouched && base_asymmetric) {
      variant.asymmetric_channels = *base_asymmetric;
    } else {
      variant.asymmetric_channels = netlist::count_asymmetric_channels(
          netlist::Graph(variant.result.nl));
      if (structure_untouched) base_asymmetric = variant.asymmetric_channels;
    }
    out.variants.push_back(std::move(variant));
  }
  return out;
}

const SweepVariant* SweepResult::find(std::string_view recipe) const noexcept {
  for (const SweepVariant& v : variants)
    if (v.recipe == recipe) return &v;
  return nullptr;
}

util::Table SweepResult::table() const {
  util::Table t({"recipe", "cells+", "cap+fF", "asym ch", "max dA", "rank",
                 "MTD", "bias peak", "best score", "faults d/m/e"});
  for (const SweepVariant& v : variants) {
    const FaultSummary* fs = v.faults();
    const std::string fault_cell =
        fs != nullptr ? std::to_string(fs->deadlock) + "/" +
                            std::to_string(fs->masked) + "/" +
                            std::to_string(fs->exploitable)
                      : "-";
    const std::size_t cells_added =
        v.result.xform ? v.result.xform->cells_added() : 0;
    const double cap_added =
        v.result.xform ? v.result.xform->cap_added_ff() : 0.0;
    t.add_row({v.recipe, std::to_string(cells_added),
               t.format_double(cap_added),
               std::to_string(v.asymmetric_channels) + "/" +
                   std::to_string(v.channels),
               t.format_double(v.result.max_da),
               v.result.attack
                   ? std::to_string(v.result.attack->true_key_rank)
                   : "-",
               v.result.attack ? std::to_string(v.result.attack->mtd) : "-",
               // The known-key bias is a DPA-side quantity; printing the
               // 0.0 default for a CPA sweep would read as "no bias" on
               // a leaking variant.
               v.result.attack && v.result.attack->kind == "dpa"
                   ? t.format_double(v.bias_peak())
                   : "-",
               v.result.attack ? t.format_double(v.result.attack->best_score)
                               : "-",
               fault_cell});
  }
  return t;
}

}  // namespace qdi::campaign
