// E8 — google-benchmark microbenchmarks: throughput of the pillars the
// experiments stand on (event simulation, trace synthesis, DPA bias,
// placement annealing). These quantify the cost of reproducing the
// paper's experiments and guard against performance regressions.
#include <benchmark/benchmark.h>

#include <cstdio>

#include "qdi/qdi.hpp"

namespace qg = qdi::gates;
namespace qs = qdi::sim;
namespace qp = qdi::power;
namespace qd = qdi::dpa;
namespace qc = qdi::core;

static void BM_XorStageCycle(benchmark::State& state) {
  qg::XorStage x = qg::build_xor_stage();
  qs::Simulator sim(x.nl);
  qs::TransitionLog log;
  sim.set_power_sink(&log);
  qs::FourPhaseEnv env(sim, x.env);
  env.apply_reset();
  int v = 0;
  for (auto _ : state) {
    const std::vector<int> values{v & 1, (v >> 1) & 1};
    benchmark::DoNotOptimize(env.send(values));
    log.transitions.clear();
    ++v;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_XorStageCycle);

static void BM_AesSliceCycle(benchmark::State& state) {
  qg::AesByteSlice slice = qg::build_aes_byte_slice();
  qs::Simulator sim(slice.nl);
  qs::TransitionLog log;
  sim.set_power_sink(&log);
  qs::FourPhaseEnv env(sim, slice.env);
  env.apply_reset();
  unsigned p = 0;
  for (auto _ : state) {
    std::vector<int> values;
    for (int b = 0; b < 8; ++b) values.push_back((p >> b) & 1);
    for (int b = 0; b < 8; ++b) values.push_back(0);
    benchmark::DoNotOptimize(env.send(values));
    log.transitions.clear();
    ++p;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_AesSliceCycle);

static void BM_TraceSynthesis(benchmark::State& state) {
  qg::AesByteSlice slice = qg::build_aes_byte_slice();
  qs::Simulator sim(slice.nl);
  qs::TransitionLog log;
  sim.set_power_sink(&log);
  qs::FourPhaseEnv env(sim, slice.env);
  env.apply_reset();
  std::vector<int> values(16, 0);
  values[3] = 1;
  const auto cyc = env.send(values);
  const qp::PowerModelParams pm;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        qp::synthesize(log.transitions, cyc.t_start, slice.env.period_ps, pm,
                       nullptr));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TraceSynthesis);

static void BM_DpaBias(benchmark::State& state) {
  // Synthetic set sized like an attack batch.
  qdi::util::Rng rng(1);
  qd::TraceSet ts;
  for (int i = 0; i < 512; ++i) {
    qp::PowerTrace t(0.0, 10.0, 512);
    for (std::size_t j = 0; j < t.size(); ++j) t[j] = rng.gaussian();
    ts.add(std::move(t), {rng.byte()});
  }
  const auto d = qd::aes_sbox_selection(0, 0);
  unsigned g = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(qd::dpa_bias(ts, d, g++ & 0xff));
  }
  state.SetItemsProcessed(state.iterations() * 512);
}
BENCHMARK(BM_DpaBias);

static void BM_FlatPlacementSlice(benchmark::State& state) {
  const qdi::netlist::Netlist nl = qg::build_aes_byte_slice().nl;
  qp::PowerModelParams unused;
  (void)unused;
  for (auto _ : state) {
    qdi::pnr::PlacerOptions opt;
    opt.mode = qdi::pnr::FlowMode::Flat;
    opt.seed = static_cast<std::uint64_t>(state.iterations());
    opt.moves_per_cell = 10;
    opt.stages = 20;
    benchmark::DoNotOptimize(qdi::pnr::place(nl, opt));
  }
}
BENCHMARK(BM_FlatPlacementSlice)->Unit(benchmark::kMillisecond);

static void BM_CriterionEvaluation(benchmark::State& state) {
  qdi::netlist::Netlist nl = qg::build_aes_byte_slice().nl;
  for (auto _ : state) {
    benchmark::DoNotOptimize(qc::evaluate_criterion(nl));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<long>(nl.num_channels()));
}
BENCHMARK(BM_CriterionEvaluation);

// Campaign acquisition throughput: the batched parallel TraceSource fan-
// out, per thread count. Bit-identical results across rows (asserted by
// test_campaign); this measures the wall-clock side of that contract.
// Runs the default (compiled) engine, end to end including target build.
static void BM_CampaignAcquire(benchmark::State& state) {
  const auto threads = static_cast<unsigned>(state.range(0));
  const qdi::campaign::CircuitTarget target = qdi::campaign::xor_stage();
  for (auto _ : state) {
    const qdi::campaign::CampaignResult r = qdi::campaign::Campaign()
                                                .target(target)
                                                .traces(64)
                                                .threads(threads)
                                                .seed(1)
                                                .run();
    benchmark::DoNotOptimize(r.traces.size());
  }
  state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_CampaignAcquire)->Arg(1)->Arg(2)->Arg(4)->Unit(benchmark::kMillisecond);

// Run a persistent pool at steady state: the pool's recycled block
// buffers keep their capacity across calls, so after warm-up the timed
// loop is allocation-free — it measures per-trace engine cost plus the
// segment memcpy both engines share, not TraceSet construction churn.
// This is the fused campaign's production feed, and like a campaign each
// call acquires the next `traces` indices from `*next`: re-acquiring the
// same indices would time the compiled engine's trace memo replaying
// them, not the kernel, on every target whose stimuli do not repeat
// within a campaign anyway.
static void steady_state_acquire(qdi::campaign::WorkerPool& pool,
                                 std::size_t traces, std::size_t* next) {
  qdi::campaign::AcquisitionStats st;
  pool.run({{*next, *next + traces}}, 1, pool.block_traces(traces), {},
           nullptr,
           [](const qdi::campaign::WorkerPool::Block& blk) {
             benchmark::DoNotOptimize(blk.segment.size());
           },
           st);
  *next += traces;
}

// Scalar-engine acquisition rows: 32-trace batches at advancing indices
// from one prebuilt target, differing only in the engine. On
// aes_byte_slice and des_sbox_slice (256 and 64 distinct stimuli) the
// compiled rows mostly replay from the trace memo after warm-up, as a
// campaign on those targets does; the des_round rows stay kernel-bound
// (32 random R bits per trace never repeat), and the reference and
// batch rows have no memo. The CI bench job guards the des_round
// BM_ReferenceAcquireDes / BM_CompiledAcquireDes speedup (the compiled
// event loop against the oracle) and the AES pair's (memo replay
// against the oracle), and divides the per-trace times of the des_round
// / des_sbox_slice compiled rows by their BM_BatchAcquire* twins below.
// (Traces are bit-identical between the rows — tests/test_compiled_sim
// and tests/test_batch_sim.)
static void acquire_engine_bench(benchmark::State& state,
                                 const qdi::campaign::TargetInstance& inst,
                                 qdi::sim::EngineKind kind,
                                 std::size_t traces) {
  qdi::campaign::SimTraceSourceOptions opt;
  opt.engine = kind;
  // Source (and, for the compiled rows, netlist compilation) constructed
  // once outside the timed loop: the rows differ only in per-trace
  // engine cost, exactly what the CI speedup lines divide.
  qdi::campaign::SimTraceSource src(inst.nl, inst.env, inst.stimulus, opt);
  // The pool persists across iterations so its slots and block buffers
  // reach steady state: the loop measures per-trace acquisition
  // cost, not pool setup.
  qdi::campaign::WorkerPool pool(src, 1);
  std::size_t next = 0;
  for (auto _ : state) {
    steady_state_acquire(pool, traces, &next);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(traces));
}

static const qdi::campaign::TargetInstance& aes_workload() {
  static const qdi::campaign::TargetInstance inst =
      qdi::campaign::aes_byte_slice().build(0x2b);
  return inst;
}

static void BM_ReferenceAcquire(benchmark::State& state) {
  acquire_engine_bench(state, aes_workload(), qdi::sim::EngineKind::Reference,
                       32);
}
BENCHMARK(BM_ReferenceAcquire)->Unit(benchmark::kMillisecond);

static void BM_CompiledAcquire(benchmark::State& state) {
  acquire_engine_bench(state, aes_workload(), qdi::sim::EngineKind::Compiled,
                       32);
}
BENCHMARK(BM_CompiledAcquire)->Unit(benchmark::kMillisecond);

static const qdi::campaign::TargetInstance& des_workload() {
  static const qdi::campaign::TargetInstance inst =
      qdi::campaign::des_round().build(0x2b);
  return inst;
}

static void BM_ReferenceAcquireDes(benchmark::State& state) {
  acquire_engine_bench(state, des_workload(), qdi::sim::EngineKind::Reference,
                       32);
}
BENCHMARK(BM_ReferenceAcquireDes)->Unit(benchmark::kMillisecond);

static void BM_CompiledAcquireDes(benchmark::State& state) {
  // Same workload as BM_BatchAcquire: the per-trace quotient of this
  // row and that one is the guarded batch-kernel speedup.
  acquire_engine_bench(state, des_workload(), qdi::sim::EngineKind::Compiled,
                       32);
}
BENCHMARK(BM_CompiledAcquireDes)->Unit(benchmark::kMillisecond);

static void BM_CompiledAcquireSbox(benchmark::State& state) {
  // Same workload as BM_BatchAcquireSbox.
  static const qdi::campaign::TargetInstance inst =
      qdi::campaign::des_sbox_slice().build(0x2b);
  acquire_engine_bench(state, inst, qdi::sim::EngineKind::Compiled, 32);
}
BENCHMARK(BM_CompiledAcquireSbox)->Unit(benchmark::kMillisecond);

// Batch-engine acquisition rows: the same per-trace contract as the
// compiled rows (bit-identical traces — tests/test_batch_sim.cpp), but
// 64 lanes advance per machine word. Dividing the per-trace times of
// BM_CompiledAcquireDes and BM_BatchAcquire (same des_round workload) is
// the headline speedup of the batch kernel; the CI bench job prints and
// guards that ratio, with the sbox and aes pairs alongside. The
// mean_lane_occupancy counter reports how many of the 64 lanes commit
// per merged event pop — the lockstep quality the speedup rides on.
static void batch_acquire_bench(benchmark::State& state,
                                const qdi::campaign::TargetInstance& inst,
                                std::size_t traces) {
  qdi::campaign::SimTraceSourceOptions opt;
  opt.engine = qdi::sim::EngineKind::Batch;
  // Source (batch compilation, lane state, epoch) constructed once
  // outside the timed loop, mirroring acquire_engine_bench.
  qdi::campaign::BatchSimTraceSource src(inst.nl, inst.env, inst.stimulus,
                                         opt);
  // Persistent pool, as in acquire_engine_bench: steady-state scratch.
  qdi::campaign::WorkerPool pool(src, 1);
  std::size_t next = 0;
  for (auto _ : state) {
    steady_state_acquire(pool, traces, &next);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(traces));
  state.counters["mean_lane_occupancy"] = src.mean_lane_occupancy();
}

static void BM_BatchAcquireAes(benchmark::State& state) {
  static const qdi::campaign::TargetInstance inst =
      qdi::campaign::aes_byte_slice().build(0x2b);
  batch_acquire_bench(state, inst, 64);
}
BENCHMARK(BM_BatchAcquireAes)->Unit(benchmark::kMillisecond);

static void BM_BatchAcquire(benchmark::State& state) {
  // des_round: the heaviest simulatable target (same host as
  // BM_CompiledAcquireDes), one full 64-lane block per iteration.
  batch_acquire_bench(state, des_workload(), 64);
}
BENCHMARK(BM_BatchAcquire)->Unit(benchmark::kMillisecond);

static void BM_BatchAcquireSbox(benchmark::State& state) {
  static const qdi::campaign::TargetInstance inst =
      qdi::campaign::des_sbox_slice().build(0x2b);
  batch_acquire_bench(state, inst, 64);
}
BENCHMARK(BM_BatchAcquireSbox)->Unit(benchmark::kMillisecond);

// End-to-end campaign including the DPA analysis stage (the per-scenario
// unit of bench/dpa_key_recovery), on each engine. BM_CampaignDpaEndToEnd
// is pinned to the reference interpreter as the baseline row;
// BM_CompiledDpaEndToEnd is the same campaign on the compiled kernel.
static void dpa_end_to_end_bench(benchmark::State& state,
                                 qdi::sim::EngineKind kind) {
  const qdi::campaign::CircuitTarget target = qdi::campaign::des_sbox_slice();
  for (auto _ : state) {
    const qdi::campaign::CampaignResult r =
        qdi::campaign::Campaign()
            .target(target)
            .key(0x2b)
            .traces(32)
            .threads(2)
            .engine(kind)
            .attack(qdi::campaign::Dpa{})
            .run();
    benchmark::DoNotOptimize(r.attack->best_guess);
  }
  state.SetItemsProcessed(state.iterations() * 32);
}

static void BM_CampaignDpaEndToEnd(benchmark::State& state) {
  dpa_end_to_end_bench(state, qdi::sim::EngineKind::Reference);
}
BENCHMARK(BM_CampaignDpaEndToEnd)->Unit(benchmark::kMillisecond);

static void BM_CompiledDpaEndToEnd(benchmark::State& state) {
  dpa_end_to_end_bench(state, qdi::sim::EngineKind::Compiled);
}
BENCHMARK(BM_CompiledDpaEndToEnd)->Unit(benchmark::kMillisecond);

// Full-core rows: the fig. 8 ~25k-cell aes_core, end to end. The
// acquisition row measures steady-state per-trace cost of one complete
// four-phase handshake of the whole core (compiled engine, persistent
// worker — the production feed of a fused full-core CPA campaign). The
// cone-balance row runs ConeBalancePass with its default round cap
// (max_rounds = 8) on a pristine copy of the core netlist: each channel
// walks its rail cones once and keeps them, every clone-and-rewire edit
// patches the stored cones it reaches, and later rounds revisit only
// the channels whose bitset footprint an edit dirtied. Verify scans are
// off (they are the pass's only threaded code), so the row measures the
// transform, not the symmetry audit. The CI bench job prints their
// informational ratio — the designer-side balancing cost in units of
// 64-trace acquisitions.
static const qdi::campaign::TargetInstance& aes_core_workload() {
  static const qdi::campaign::TargetInstance inst =
      qdi::campaign::aes_core().build(0x2b);
  return inst;
}

static void BM_AesCoreAcquire(benchmark::State& state) {
  const qdi::campaign::TargetInstance& inst = aes_core_workload();
  const qdi::campaign::SimTraceSourceOptions opt;
  qdi::campaign::SimTraceSource src(inst.nl, inst.env, inst.stimulus, opt);
  qdi::campaign::WorkerPool pool(src, 1);
  std::size_t next = 0;
  for (auto _ : state) {
    steady_state_acquire(pool, 8, &next);
  }
  state.SetItemsProcessed(state.iterations() * 8);
}
BENCHMARK(BM_AesCoreAcquire)->Unit(benchmark::kMillisecond);

// Fused full-core CPA: BM_AesCoreAcquire's steady-state acquisition
// with the 256-guess streaming analysis fused in — the production
// shape of a full-core attack campaign (acquire a chunk, fold it into
// the accumulators, discard it). The delta against BM_AesCoreAcquire
// is the analysis tax per trace on a ~25k-cell victim; the CI bench
// job prints it as an informational row.
static void BM_AesCoreFusedCpa(benchmark::State& state) {
  const qdi::campaign::TargetInstance& inst = aes_core_workload();
  const qdi::campaign::SimTraceSourceOptions opt;
  qdi::campaign::SimTraceSource src(inst.nl, inst.env, inst.stimulus, opt);
  qdi::campaign::WorkerPool pool(src, 1);
  qd::OnlineCpa acc(inst.leakage, inst.num_guesses);
  const auto commit = [&](const qdi::campaign::WorkerPool::Block& blk) {
    acc.add_prefix(blk.segment, 0, blk.count);
  };
  // The next 8 indices per iteration, as steady_state_acquire does.
  std::size_t next = 0;
  for (auto _ : state) {
    qdi::campaign::AcquisitionStats st;
    pool.run({{next, next + 8}}, 1, pool.block_traces(8), {}, nullptr, commit,
             st);
    next += 8;
    benchmark::DoNotOptimize(acc.count());
  }
  state.SetItemsProcessed(state.iterations() * 8);
}
BENCHMARK(BM_AesCoreFusedCpa)->Unit(benchmark::kMillisecond);

static void BM_ConeBalanceAes(benchmark::State& state) {
  const qdi::campaign::TargetInstance& pristine = aes_core_workload();
  for (auto _ : state) {
    qdi::netlist::Netlist nl = pristine.nl;  // fresh copy per iteration
    const qdi::xform::PassReport rep =
        qdi::xform::ConeBalancePass{{.verify = false, .threads = 1}}.run(nl);
    benchmark::DoNotOptimize(rep.cells_added);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ConeBalanceAes)->Unit(benchmark::kMillisecond);

// Batch-vs-online analysis pair on the aes_byte_slice workload: 256
// guesses, full measurements-to-disclosure scan (prefix grid 8, 8).
// BM_CpaBatch runs the scan the way the pre-streaming code did — one
// full cpa_attack per probed prefix; BM_CpaOnline advances one
// dpa::OnlineCpa accumulator across the same grid and finalizes the
// running sums at each probe. Identical results (the batch attack is
// itself a wrapper over the online engine); the CI bench job prints the
// BM_CpaOnline / BM_CpaBatch speedup next to the acquire ratio.
static const qd::TraceSet& cpa_workload() {
  static const qd::TraceSet ts = [] {
    qdi::campaign::TargetInstance inst =
        qdi::campaign::aes_byte_slice().build(0x3c);
    for (qdi::netlist::ChannelId ch = 0; ch < inst.nl.num_channels(); ++ch) {
      const qdi::netlist::Channel& c = inst.nl.channel(ch);
      if (c.name.find("sbox/out") != std::string::npos ||
          c.name.find("hb/q_q") != std::string::npos)
        inst.nl.net(c.rails[1]).cap_ff *= 2.0;
    }
    qdi::campaign::SimTraceSource src(inst.nl, inst.env, inst.stimulus, {});
    return qdi::campaign::WorkerPool(src, 1).acquire(128, 9);
  }();
  return ts;
}

static void BM_CpaBatch(benchmark::State& state) {
  const qd::TraceSet& ts = cpa_workload();
  const qd::LeakageModel model = qd::aes_sbox_hw_model(0);
  for (auto _ : state) {
    std::size_t mtd = 0;
    for (std::size_t n = 8; n <= ts.size(); n += 8) {
      const qd::CpaResult r = qd::cpa_attack(ts, model, 256, n);
      const bool ok = (r.best_guess == 0x3c) && r.best_rho > 0.0;
      if (ok && mtd == 0) mtd = n;
      if (!ok) mtd = 0;
    }
    benchmark::DoNotOptimize(mtd);
  }
  state.SetItemsProcessed(static_cast<long>(state.iterations() * ts.size()));
}
BENCHMARK(BM_CpaBatch)->Unit(benchmark::kMillisecond);

static void BM_CpaOnline(benchmark::State& state) {
  const qd::TraceSet& ts = cpa_workload();
  const qd::LeakageModel model = qd::aes_sbox_hw_model(0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        qd::cpa_measurements_to_disclosure(ts, model, 256, 0x3c, 8, 8));
  }
  state.SetItemsProcessed(static_cast<long>(state.iterations() * ts.size()));
}
BENCHMARK(BM_CpaOnline)->Unit(benchmark::kMillisecond);

// SIMD-dispatch pair: the 256-guess byte-indexed CPA ingest of the
// same materialized 128-trace workload plus one finalize(), once pinned
// to the portable kernel arm and once on the load-time
// kernels::active() pick (AVX2 on CI). Ingest alone is one class-sum
// add per trace; the finalize() is where the guesses × classes rank
// update (the read-time fold) and the correlation scans run, so the
// pair times every dispatched kernel. Identical results by the arms'
// bit-identity contract (tests/test_dpa_kernels.cpp); the CI bench job
// prints the BM_CpaIngestPortable / BM_CpaIngestSimd speedup and guards
// it against regression. Note the portable arm is itself
// autovectorized by -O3 (SSE2 on x86-64), so this ratio measures the
// AVX2 arm against real compiled scalar code, not against a strawman.
static void cpa_ingest_bench(benchmark::State& state,
                             const qd::kernels::KernelTable& table) {
  const qd::TraceSet& ts = cpa_workload();
  const qd::LeakageModel model = qd::aes_sbox_hw_model(0);
  qd::OnlineCpa acc(model, 256);
  acc.set_kernels(table);
  for (auto _ : state) {
    acc.reset();
    acc.add_prefix(ts, 0, ts.size());
    benchmark::DoNotOptimize(acc.finalize().best_rho);
  }
  state.SetItemsProcessed(static_cast<long>(state.iterations() * ts.size()));
  state.SetLabel(table.name);
}

static void BM_CpaIngestPortable(benchmark::State& state) {
  cpa_ingest_bench(state, *qd::kernels::table(qd::kernels::Kind::Portable));
}
BENCHMARK(BM_CpaIngestPortable)->Unit(benchmark::kMillisecond);

static void BM_CpaIngestSimd(benchmark::State& state) {
  cpa_ingest_bench(state, qd::kernels::active());
}
BENCHMARK(BM_CpaIngestSimd)->Unit(benchmark::kMillisecond);

// Countermeasure-variant campaign rows on the DES round (the heaviest
// simulatable registry target): the same fused CPA campaign against the
// unprotected netlist and against the xform-balanced one (cone
// balancing + capacitance equalization applied through the recipe
// stage, netlist rebuilt and recompiled per iteration like a sweep
// variant does). The pair quantifies the acquisition-side cost of the
// countermeasure — the balanced netlist carries extra cells and padded
// caps — next to its security gain (tests/test_sweep.cpp).
static void sweep_variant_bench(benchmark::State& state,
                                const qdi::xform::Recipe& (*recipe)()) {
  const qdi::campaign::CircuitTarget target = qdi::campaign::des_round();
  // Compile hoisted out of the timed loop: the recipe is deterministic,
  // so the post-transform netlist — and therefore its compiled form —
  // is identical every iteration. Build it once here and hand the
  // shared compiled netlist to each iteration's source; the rows then
  // measure recipe + campaign throughput, not repeated compilation.
  qdi::campaign::TargetInstance pre = target.build(0x2b);
  recipe().pipeline.run(pre.nl);
  const std::shared_ptr<const qdi::sim::CompiledNetlist> cn =
      qdi::sim::compile(pre.nl);
  const auto source = [&cn](const qdi::campaign::TargetInstance& inst,
                            const qdi::campaign::SimTraceSourceOptions& opt)
      -> std::unique_ptr<qdi::campaign::TraceSource> {
    qdi::campaign::SimTraceSourceOptions o = opt;
    o.precompiled = cn;
    return std::make_unique<qdi::campaign::SimTraceSource>(
        inst.nl, inst.env, inst.stimulus, o);
  };
  for (auto _ : state) {
    const qdi::campaign::CampaignResult r = qdi::campaign::Campaign()
                                                .target(target)
                                                .key(0x2b)
                                                .traces(16)
                                                .fused(8)
                                                .recipe(recipe())
                                                .source(source)
                                                .attack(qdi::campaign::Cpa{})
                                                .run();
    benchmark::DoNotOptimize(r.attack->best_guess);
  }
  state.SetItemsProcessed(state.iterations() * 16);
}

static const qdi::xform::Recipe& unprotected_recipe() {
  static const qdi::xform::Recipe r = qdi::xform::unprotected();
  return r;
}

static const qdi::xform::Recipe& balanced_recipe() {
  // Verification scans off: the rows measure campaign throughput, not
  // the designer-side symmetry audit.
  static const qdi::xform::Recipe r =
      qdi::xform::balanced({.verify = false}, {});
  return r;
}

static void BM_SweepVariantUnprotected(benchmark::State& state) {
  sweep_variant_bench(state, unprotected_recipe);
}
BENCHMARK(BM_SweepVariantUnprotected)->Unit(benchmark::kMillisecond);

static void BM_SweepVariantBalanced(benchmark::State& state) {
  sweep_variant_bench(state, balanced_recipe);
}
BENCHMARK(BM_SweepVariantBalanced)->Unit(benchmark::kMillisecond);

// Fused acquire-and-attack campaign: acquisition segments stream into
// the online accumulators, no TraceSet is ever materialized. End to end
// including target build, like BM_CampaignAcquire.
static void BM_FusedCampaign(benchmark::State& state) {
  const qdi::campaign::CircuitTarget target = qdi::campaign::des_sbox_slice();
  for (auto _ : state) {
    const qdi::campaign::CampaignResult r = qdi::campaign::Campaign()
                                                .target(target)
                                                .key(0x2b)
                                                .traces(64)
                                                .fused(16)
                                                .attack(qdi::campaign::Cpa{})
                                                .run();
    benchmark::DoNotOptimize(r.attack->best_guess);
  }
  state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_FusedCampaign)->Unit(benchmark::kMillisecond);

// The sharded-overhead pair: the SAME des_round acquire-and-attack
// workload (16384 traces, end to end including target build), once
// through the fused streaming loop and once through the crash-safe
// sharded runtime committing at its DEFAULT checkpoint interval. The
// delta is the per-trace cost of crash safety: the stream digest plus,
// every interval, an accumulator snapshot sealed with SHA-256 and
// published by atomic rename (~6 MB for a des_round DPA state). The CI
// bench job prints the fused/sharded ratio as an informational row —
// at the default interval the tax should stay under ~5% per trace.
// The trace count matters: it has to cover several default-interval
// windows, or the pair would only measure the one final commit.
static void BM_FusedCampaignDes(benchmark::State& state) {
  const qdi::campaign::CircuitTarget target = qdi::campaign::des_round();
  for (auto _ : state) {
    const qdi::campaign::CampaignResult r = qdi::campaign::Campaign()
                                                .target(target)
                                                .key(0x0123456789abULL)
                                                .traces(16384)
                                                .fused(256)
                                                .attack(qdi::campaign::Dpa{})
                                                .run();
    benchmark::DoNotOptimize(r.attack->best_guess);
  }
  state.SetItemsProcessed(state.iterations() * 16384);
}
BENCHMARK(BM_FusedCampaignDes)->Unit(benchmark::kMillisecond);

static void BM_ShardedCampaign(benchmark::State& state) {
  const qdi::campaign::CircuitTarget target = qdi::campaign::des_round();
  qdi::campaign::ShardedOptions opt;
  opt.shards = 1;  // isolate the checkpoint tax, not the merge/partition
  opt.checkpoint_dir = "bench_sharded_ckpt";
  for (auto _ : state) {
    // Wipe the previous iteration's checkpoints: a completed store would
    // short-circuit the run into pure recovery and measure nothing.
    std::remove(qdi::campaign::checkpoint_path(opt.checkpoint_dir, 0).c_str());
    std::remove(
        qdi::campaign::checkpoint_prev_path(opt.checkpoint_dir, 0).c_str());
    const qdi::campaign::ShardedResult r = qdi::campaign::Campaign()
                                               .target(target)
                                               .key(0x0123456789abULL)
                                               .traces(16384)
                                               .attack(qdi::campaign::Dpa{})
                                               .sharded(opt);
    benchmark::DoNotOptimize(r.attack->best_guess);
  }
  state.SetItemsProcessed(state.iterations() * 16384);
}
BENCHMARK(BM_ShardedCampaign)->Unit(benchmark::kMillisecond);

// Fault-injection sweep on the des_sbox_slice victim: a fixed
// (12 sites x stuck-at-0/1 x 2 repeats) grid, every run classified as
// deadlock / masked / exploitable. The per-run cost is golden cycle +
// epoch rewind + faulted cycle, so one fault run should stay within a
// small factor of one BM_CampaignAcquire trace; the CI bench job prints
// the BM_FaultSweep / BM_CampaignAcquire per-item ratio next to the
// other engine ratios.
static void BM_FaultSweep(benchmark::State& state) {
  // Target build and netlist compilation hoisted out of the timed loop
  // (SimTraceSourceOptions::precompiled): every iteration sweeps the
  // same victim, so the rows measure injection + classification
  // throughput, not repeated target construction.
  static const qdi::campaign::TargetInstance inst =
      qdi::campaign::des_sbox_slice().build(0x2b);
  qdi::campaign::SimTraceSourceOptions engine;
  engine.precompiled = qdi::sim::compile(inst.nl);
  qdi::campaign::FaultCampaignOptions opt;
  opt.max_sites = 12;
  opt.repeats = 2;
  opt.run_dfa = false;
  std::size_t runs = 0;
  for (auto _ : state) {
    const qdi::campaign::FaultCampaignResult r =
        qdi::campaign::run_fault_campaign(inst, 0x2b, opt, engine, 1, 1);
    runs = r.summary.runs;
    benchmark::DoNotOptimize(r.summary.deadlock);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(runs));
}
BENCHMARK(BM_FaultSweep)->Unit(benchmark::kMillisecond);

int main(int argc, char** argv) {
  // The standard library_build_type context key describes the google-
  // benchmark LIBRARY binary (a debug build on some distros); this key
  // records how the qdi code under test was compiled. The CI bench job
  // refuses a committed BENCH_campaign.json whose capture was not an
  // optimized build.
#ifdef NDEBUG
  benchmark::AddCustomContext("qdi_build_type", "release");
#else
  benchmark::AddCustomContext("qdi_build_type", "debug");
#endif
  // Lane width of the batch kernel (BM_BatchAcquire* rows process this
  // many traces per machine word); occupancy is per-row (counters).
  benchmark::AddCustomContext(
      "batch_lane_width", std::to_string(qdi::sim::kBatchLanes));
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
