// Compiled-kernel equivalence and unit tests.
//
// The CompiledSimulator must be indistinguishable from the reference
// Simulator at every observable level: per-transition (recorded commits),
// per-trace (power samples, ciphertext, transition/glitch counts), and
// per-campaign (any thread count). These tests pin all three, for every
// simulatable CircuitTarget in the registry.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdlib>
#include <new>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "qdi/campaign/target.hpp"
#include "qdi/gates/builder.hpp"
#include "qdi/gates/testbench.hpp"
#include "qdi/sim/compiled_simulator.hpp"

namespace qc = qdi::campaign;
namespace qn = qdi::netlist;
namespace qs = qdi::sim;

namespace {

qdi::dpa::TraceSet acquire(const qc::TargetInstance& inst, qs::EngineKind kind,
                           unsigned threads, qc::AcquisitionStats* stats,
                           std::size_t n = 8, double jitter_ps = 0.0,
                           double noise = 0.0) {
  qc::SimTraceSourceOptions opt;
  opt.engine = kind;
  opt.start_jitter_ps = jitter_ps;
  opt.power.noise_sigma_ua = noise;
  qc::SimTraceSource src(inst.nl, inst.env, inst.stimulus, opt);
  return qc::WorkerPool(src, threads).acquire(n, /*seed=*/42, stats);
}

void expect_bit_identical(const qdi::dpa::TraceSet& a,
                          const qdi::dpa::TraceSet& b) {
  ASSERT_EQ(a.size(), b.size());
  ASSERT_EQ(a.num_samples(), b.num_samples());
  const auto bytes = [](std::span<const std::uint8_t> s) {
    return std::vector<std::uint8_t>(s.begin(), s.end());
  };
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(bytes(a.plaintext(i)), bytes(b.plaintext(i))) << "trace " << i;
    ASSERT_EQ(bytes(a.ciphertext(i)), bytes(b.ciphertext(i))) << "trace " << i;
    for (std::size_t j = 0; j < a.num_samples(); ++j)
      ASSERT_EQ(a.trace(i)[j], b.trace(i)[j])
          << "trace " << i << " sample " << j;
  }
}

/// Acquire traces [first, first + n) of seed 7 one at a time from a
/// compiled source and from a reference one, and compare everything
/// bit for bit: sample bit patterns (+0.0 vs -0.0 included), window
/// geometry, plaintext, ciphertext, transition and glitch counts.
void expect_same_acquisitions(qc::SimTraceSource& compiled,
                              qc::SimTraceSource& reference,
                              std::size_t first, std::size_t n) {
  qc::AcquiredTrace a;
  qc::AcquiredTrace b;
  for (std::size_t i = first; i < first + n; ++i) {
    compiled.acquire_into({7, i}, a);
    reference.acquire_into({7, i}, b);
    ASSERT_EQ(a.trace.t0_ps(), b.trace.t0_ps()) << "trace " << i;
    ASSERT_EQ(a.trace.dt_ps(), b.trace.dt_ps()) << "trace " << i;
    ASSERT_EQ(a.trace.size(), b.trace.size()) << "trace " << i;
    for (std::size_t j = 0; j < a.trace.size(); ++j)
      ASSERT_EQ(std::bit_cast<std::uint64_t>(a.trace[j]),
                std::bit_cast<std::uint64_t>(b.trace[j]))
          << "trace " << i << " sample " << j;
    ASSERT_EQ(a.plaintext, b.plaintext) << "trace " << i;
    ASSERT_EQ(a.ciphertext, b.ciphertext) << "trace " << i;
    ASSERT_EQ(a.transitions, b.transitions) << "trace " << i;
    ASSERT_EQ(a.glitches, b.glitches) << "trace " << i;
  }
}

qc::SimTraceSourceOptions engine_opts(qs::EngineKind kind, double noise,
                                      double jitter_ps = 0.0) {
  qc::SimTraceSourceOptions opt;
  opt.engine = kind;
  opt.power.noise_sigma_ua = noise;
  opt.start_jitter_ps = jitter_ps;
  return opt;
}

}  // namespace

// ---- registry-wide trace equivalence ---------------------------------------

TEST(CompiledEquivalence, AllRegistryTargetsBitIdenticalAnyThreadCount) {
  for (const std::string& name : qc::list_targets()) {
    SCOPED_TRACE(name);
    const qc::TargetInstance inst = qc::find_target(name).build(0x2b);
    if (!inst.simulatable || !inst.stimulus) continue;

    qc::AcquisitionStats ref_stats;
    const qdi::dpa::TraceSet ref =
        acquire(inst, qs::EngineKind::Reference, 1, &ref_stats);

    for (unsigned threads : {1u, 3u}) {
      SCOPED_TRACE(threads);
      qc::AcquisitionStats stats;
      const qdi::dpa::TraceSet compiled =
          acquire(inst, qs::EngineKind::Compiled, threads, &stats);
      expect_bit_identical(ref, compiled);
      EXPECT_EQ(stats.transitions, ref_stats.transitions);
      EXPECT_EQ(stats.glitches, ref_stats.glitches);
      EXPECT_EQ(stats.per_trace_transitions, ref_stats.per_trace_transitions);
    }
  }
}

TEST(CompiledEquivalence, JitterAndNoiseStreamsMatchReference) {
  // Jitter exercises the predicted-window path of the streaming
  // accumulator; noise exercises the RNG draw order around it.
  const qc::TargetInstance inst = qc::xor_stage().build(0);
  const qdi::dpa::TraceSet ref = acquire(inst, qs::EngineKind::Reference, 1,
                                         nullptr, 12, 300.0, 1.5);
  const qdi::dpa::TraceSet compiled = acquire(inst, qs::EngineKind::Compiled, 2,
                                              nullptr, 12, 300.0, 1.5);
  expect_bit_identical(ref, compiled);
}

TEST(CompiledEquivalence, UnbalancedCapsSurviveCompilation) {
  // Compilation snapshots per-net capacitance; a prepare-style mutation
  // before source construction must show up identically in both engines.
  qc::TargetInstance inst = qc::des_sbox_slice().build(0x15);
  for (qn::ChannelId ch = 0; ch < inst.nl.num_channels(); ++ch) {
    const qn::Channel& c = inst.nl.channel(ch);
    if (c.name.find("sbox/out") != std::string::npos)
      inst.nl.net(c.rails[1]).cap_ff *= 1.8;
  }
  const qdi::dpa::TraceSet ref =
      acquire(inst, qs::EngineKind::Reference, 1, nullptr, 16);
  const qdi::dpa::TraceSet compiled =
      acquire(inst, qs::EngineKind::Compiled, 1, nullptr, 16);
  expect_bit_identical(ref, compiled);
}

// ---- log-level equivalence -------------------------------------------------

TEST(CompiledKernel, TransitionLogMatchesReferenceExactly) {
  const qdi::gates::XorStage x = qdi::gates::build_xor_stage();

  qs::Simulator ref(x.nl);
  qs::FourPhaseEnv ref_env(ref, x.env);
  ref_env.apply_reset();
  qs::TransitionLog ref_log;
  ref.set_power_sink(&ref_log);

  qs::CompiledSimulator comp(qs::compile(x.nl));
  qs::FourPhaseEnv comp_env(comp, x.env);
  comp_env.apply_reset();
  qs::TransitionLog comp_log;
  comp.set_power_sink(&comp_log);

  for (int v = 0; v < 4; ++v) {
    const std::vector<int> values{v & 1, (v >> 1) & 1};
    ref_log.transitions.clear();
    comp_log.transitions.clear();
    const auto rc = ref_env.send(values);
    const auto cc = comp_env.send(values);
    ASSERT_TRUE(rc.ok);
    ASSERT_TRUE(cc.ok);
    EXPECT_EQ(rc.outputs, cc.outputs);
    ASSERT_EQ(ref_log.transitions.size(), comp_log.transitions.size());
    for (std::size_t i = 0; i < ref_log.transitions.size(); ++i) {
      const qs::Transition& a = ref_log.transitions[i];
      const qs::Transition& b = comp_log.transitions[i];
      EXPECT_EQ(a.t_ps, b.t_ps) << "transition " << i;
      EXPECT_EQ(a.net, b.net) << "transition " << i;
      EXPECT_EQ(a.rising, b.rising) << "transition " << i;
      EXPECT_EQ(a.cap_ff, b.cap_ff) << "transition " << i;
      EXPECT_EQ(a.slew_ps, b.slew_ps) << "transition " << i;
    }
    EXPECT_EQ(ref.transition_count(), comp.transition_count());
    EXPECT_EQ(ref.glitch_count(), comp.glitch_count());
  }
}

// ---- epoch snapshot --------------------------------------------------------

TEST(CompiledKernel, EpochRestoreReplaysIdenticalCycles) {
  const qdi::gates::XorStage x = qdi::gates::build_xor_stage();
  qs::CompiledSimulator sim(qs::compile(x.nl));
  qs::FourPhaseEnv env(sim, x.env);
  env.apply_reset();
  const auto epoch = sim.save_epoch();
  qs::TransitionLog log;
  sim.set_power_sink(&log);

  const std::vector<int> values{1, 0};
  auto first = env.send(values);
  ASSERT_TRUE(first.ok);
  const std::vector<qs::Transition> first_log = log.transitions;

  // Restoring the epoch must replay the cycle bit-identically — same
  // absolute times, same transition sequence.
  sim.restore_epoch(epoch);
  log.transitions.clear();
  auto second = env.send(values);
  ASSERT_TRUE(second.ok);
  EXPECT_EQ(first.t_start, second.t_start);
  EXPECT_EQ(first.transitions, second.transitions);
  ASSERT_EQ(first_log.size(), log.transitions.size());
  for (std::size_t i = 0; i < first_log.size(); ++i) {
    EXPECT_EQ(first_log[i].t_ps, log.transitions[i].t_ps);
    EXPECT_EQ(first_log[i].net, log.transitions[i].net);
    EXPECT_EQ(first_log[i].rising, log.transitions[i].rising);
  }
}

TEST(CompiledKernel, EpochRestoreMatchesResetPerCodewordReference) {
  // Per-transition check of the kernel's epoch reuse against the oracle:
  // the kernel restores its post-reset snapshot before each of the XOR
  // stage's four codewords, the reference re-simulates reset each time.
  const qdi::gates::XorStage x = qdi::gates::build_xor_stage();

  qs::CompiledSimulator sim(qs::compile(x.nl));
  qs::FourPhaseEnv env(sim, x.env);
  env.apply_reset();
  const auto epoch = sim.save_epoch();
  qs::TransitionLog log;
  sim.set_power_sink(&log);

  qs::Simulator ref(x.nl);
  qs::FourPhaseEnv ref_env(ref, x.env);
  qs::TransitionLog ref_log;
  ref.set_power_sink(&ref_log);

  for (int v = 0; v < 4; ++v) {
    SCOPED_TRACE(v);
    sim.restore_epoch(epoch);
    log.transitions.clear();
    ref.reset_state();
    ref_env.apply_reset();
    ref_log.transitions.clear();
    const std::vector<int> values{v & 1, (v >> 1) & 1};
    const auto cc = env.send(values);
    const auto rc = ref_env.send(values);
    ASSERT_TRUE(cc.ok);
    ASSERT_TRUE(rc.ok);
    EXPECT_EQ(cc.outputs, rc.outputs);
    const std::vector<qs::Transition>& got = log.transitions;
    const std::vector<qs::Transition>& want = ref_log.transitions;
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].t_ps, want[i].t_ps) << "transition " << i;
      EXPECT_EQ(got[i].net, want[i].net) << "transition " << i;
      EXPECT_EQ(got[i].rising, want[i].rising) << "transition " << i;
      EXPECT_EQ(got[i].slew_ps, want[i].slew_ps) << "transition " << i;
    }
    EXPECT_EQ(sim.transition_count(), ref.transition_count());
    EXPECT_EQ(sim.glitch_count(), ref.glitch_count());
    EXPECT_EQ(sim.queue_size(), 0u);
  }
}

TEST(CompiledKernel, RestoringAnOlderEpochFallsBackToFullCopyCorrectly) {
  // The dirty set is accumulated against the most recent save/restore
  // baseline; restoring a DIFFERENT epoch must still be exact (full
  // copy), and re-restoring it afterwards takes the dirty fast path.
  const qdi::gates::XorStage x = qdi::gates::build_xor_stage();
  qs::CompiledSimulator sim(qs::compile(x.nl));
  qs::TransitionLog log;
  sim.set_power_sink(&log);
  qs::FourPhaseEnv env(sim, x.env);
  env.apply_reset();
  const auto e1 = sim.save_epoch();

  ASSERT_TRUE(env.send(std::vector<int>{1, 0}).ok);
  const auto e2 = sim.save_epoch();  // mid-campaign snapshot, t advanced

  ASSERT_TRUE(env.send(std::vector<int>{0, 1}).ok);

  // Full-copy path: baseline is e2, restoring e1.
  sim.restore_epoch(e1);
  log.transitions.clear();
  const auto first = env.send(std::vector<int>{1, 1});
  ASSERT_TRUE(first.ok);
  const std::vector<qs::Transition> first_log = log.transitions;

  // Dirty path: baseline is now e1.
  sim.restore_epoch(e1);
  log.transitions.clear();
  const auto second = env.send(std::vector<int>{1, 1});
  ASSERT_TRUE(second.ok);
  EXPECT_EQ(first.t_start, second.t_start);
  ASSERT_EQ(first_log.size(), log.transitions.size());
  for (std::size_t i = 0; i < first_log.size(); ++i) {
    EXPECT_EQ(first_log[i].t_ps, log.transitions[i].t_ps);
    EXPECT_EQ(first_log[i].net, log.transitions[i].net);
    EXPECT_EQ(first_log[i].rising, log.transitions[i].rising);
  }

  // And e2 still restores exactly (full copy again).
  sim.restore_epoch(e2);
  const auto third = env.send(std::vector<int>{1, 1});
  ASSERT_TRUE(third.ok);
  EXPECT_EQ(third.t_start,
            std::ceil((e2.now + 1e-9) / x.env.period_ps) * x.env.period_ps);
}

TEST(CompiledKernel, EpochPreconditionsAreHardErrorsInReleaseBuilds) {
  const qdi::gates::XorStage x = qdi::gates::build_xor_stage();
  qs::CompiledSimulator sim(qs::compile(x.nl));
  qs::FourPhaseEnv env(sim, x.env);
  env.apply_reset();
  const auto epoch = sim.save_epoch();

  // Undrained queue: schedule an input transition but do not run it.
  sim.drive(x.nl.channel(x.env.inputs[0]).rails[1], true, sim.now() + 10.0);
  ASSERT_GT(sim.queue_size(), 0u);
  EXPECT_THROW(sim.save_epoch(), std::logic_error);
  EXPECT_THROW(sim.restore_epoch(epoch), std::logic_error);
  sim.run_until_stable();

  // Geometry mismatch: an epoch from a different netlist.
  qs::CompiledSimulator other(qs::compile(qdi::gates::build_xor_stage().nl));
  auto foreign = other.save_epoch();
  foreign.values.resize(3);
  EXPECT_THROW(sim.restore_epoch(foreign), std::invalid_argument);

  // Driving a non-input net is rejected in all build modes.
  EXPECT_THROW(sim.drive(x.nl.channel(x.env.outputs[0]).rails[0], true,
                         sim.now()),
               std::invalid_argument);
}

TEST(CompiledKernel, TombstonePurgeBoundsQueueGrowthUnderRetraction) {
  // Pathological retraction: toggle a primary input faster than its
  // inertial commit, so every second drive cancels the pending event and
  // leaves a tombstone. Without the purge the queue grows by one stale
  // event per cancelled pair; with it, stale events never exceed live
  // events (+ purge hysteresis).
  const qdi::gates::XorStage x = qdi::gates::build_xor_stage();
  const qn::NetId in0 = x.nl.channel(x.env.inputs[0]).rails[1];
  qs::CompiledSimulator sim(qs::compile(x.nl));
  qs::FourPhaseEnv env(sim, x.env);
  env.apply_reset();
  const double t0 = sim.now();
  std::size_t max_queue = 0;
  for (int i = 0; i < 4096; ++i) {
    // Alternating far-future drives: each pair schedules then cancels.
    sim.drive(in0, (i & 1) == 0, t0 + 1e6 + i);
    max_queue = std::max(max_queue, sim.queue_size());
    // The purge fires once the queue passes its 64-event hysteresis;
    // below that tombstones may transiently dominate.
    EXPECT_LE(sim.tombstone_count(),
              std::max<std::size_t>(sim.queue_size() / 2 + 1, 64))
        << "tombstones exceeded half the queue at drive " << i;
  }
  EXPECT_LT(max_queue, 128u) << "queue grew unboundedly under retraction";
  sim.run_until_stable();
  EXPECT_EQ(sim.queue_size(), 0u);
  EXPECT_EQ(sim.tombstone_count(), 0u);
}

// ---- trace memo ------------------------------------------------------------

TEST(TraceMemo, RepeatedStimuliReplayBitIdenticalToReference) {
  // aes_byte_slice has 256 distinct stimuli, des_sbox_slice 64: most
  // traces past the first few hundred are replays, each with its own
  // noise draw.
  const std::pair<const char*, std::size_t> cases[] = {
      {"aes_byte_slice", 768}, {"des_sbox_slice", 256}};
  for (const auto& [name, n] : cases) {
    SCOPED_TRACE(name);
    const qc::TargetInstance inst = qc::find_target(name).build(0x2b);
    qc::SimTraceSource compiled(inst.nl, inst.env, inst.stimulus,
                                engine_opts(qs::EngineKind::Compiled, 0.7));
    qc::SimTraceSource reference(inst.nl, inst.env, inst.stimulus,
                                 engine_opts(qs::EngineKind::Reference, 0.7));
    expect_same_acquisitions(compiled, reference, 0, n);
    EXPECT_EQ(compiled.memo_hits() + compiled.memo_misses(), n);
    EXPECT_GT(compiled.memo_hits(), n / 4);
    EXPECT_GT(compiled.memo_entries(), 0u);
    EXPECT_EQ(reference.memo_hits() + reference.memo_misses(), 0u);
  }
  // Through the pool: every worker clone keeps its own memo.
  const qc::TargetInstance inst = qc::des_sbox_slice().build(0x2b);
  const qdi::dpa::TraceSet ref =
      acquire(inst, qs::EngineKind::Reference, 1, nullptr, 512, 0.0, 0.7);
  for (unsigned threads : {1u, 3u}) {
    SCOPED_TRACE(threads);
    expect_bit_identical(
        ref, acquire(inst, qs::EngineKind::Compiled, threads, nullptr, 512,
                     0.0, 0.7));
  }
}

TEST(TraceMemo, JitteredSourceNeverReplays) {
  const qc::TargetInstance inst = qc::des_sbox_slice().build(0x2b);
  qc::SimTraceSource compiled(
      inst.nl, inst.env, inst.stimulus,
      engine_opts(qs::EngineKind::Compiled, 0.7, /*jitter_ps=*/300.0));
  qc::SimTraceSource reference(
      inst.nl, inst.env, inst.stimulus,
      engine_opts(qs::EngineKind::Reference, 0.7, /*jitter_ps=*/300.0));
  expect_same_acquisitions(compiled, reference, 0, 256);
  EXPECT_EQ(compiled.memo_hits(), 0u);
  EXPECT_EQ(compiled.memo_misses(), 0u);
  EXPECT_EQ(compiled.memo_entries(), 0u);
}

TEST(TraceMemo, NonRepeatingStimuliStoreNothing) {
  // des_round draws 32 random R bits per trace: no stimulus repeats, so
  // the admission filter never passes one.
  const qc::TargetInstance inst = qc::des_round().build(0x2b);
  qc::SimTraceSource compiled(inst.nl, inst.env, inst.stimulus,
                              engine_opts(qs::EngineKind::Compiled, 0.7));
  qc::SimTraceSource reference(inst.nl, inst.env, inst.stimulus,
                               engine_opts(qs::EngineKind::Reference, 0.7));
  expect_same_acquisitions(compiled, reference, 0, 2048);
  EXPECT_EQ(compiled.memo_entries(), 0u);
  EXPECT_EQ(compiled.memo_hits(), 0u);
  EXPECT_EQ(compiled.memo_misses(), 2048u);
}

namespace {

constexpr int kWideBits = 11;

/// kWideBits buffered dual-rail bits; trace i drives the bits of
/// `value(rng, i)` (< 2^kWideBits) and records it as a 2-byte plaintext.
template <class ValueFn>
qc::TargetInstance wide_buffer(ValueFn value) {
  qc::TargetInstance inst;
  inst.nl = qn::Netlist("wide_buffer");
  qdi::gates::Builder b(inst.nl);
  for (int i = 0; i < kWideBits; ++i) {
    const qdi::gates::DualRail d = b.dr_input("in" + std::to_string(i));
    const qdi::gates::DualRail q =
        b.as_dual_rail(b.buf(d.r0), b.buf(d.r1), "q" + std::to_string(i));
    b.dr_output(q, "q" + std::to_string(i));
    inst.env.inputs.push_back(d.ch);
    inst.env.outputs.push_back(q.ch);
  }
  inst.env.period_ps = 2000.0;
  inst.stimulus = [value](qdi::util::Rng& rng, std::size_t index,
                          qc::Stimulus& st) {
    const std::size_t v = value(rng, index);
    st.values.clear();
    for (int i = 0; i < kWideBits; ++i)
      st.values.push_back(static_cast<int>((v >> i) & 1u));
    st.plaintext.assign({static_cast<std::uint8_t>(v),
                         static_cast<std::uint8_t>(v >> 8)});
  };
  return inst;
}

}  // namespace

TEST(TraceMemo, AdmissionFilterSpreadsOverAllItsSlots) {
  // kCap distinct stimuli, each seen once, then the same sequence again:
  // a stimulus is admitted on its second sighting unless a later one
  // overwrote its filter slot in between. Spread over all 4·kCap slots,
  // about e^(-1/4) ≈ 78% survive; on half of them (an index that
  // ignores a bit every hash shares) about e^(-1/2) ≈ 61%.
  constexpr std::size_t kCap = qc::SimTraceSource::kMemoCapacity;
  static_assert(kCap <= (std::size_t{1} << kWideBits));
  const qc::TargetInstance inst = wide_buffer(
      [](qdi::util::Rng&, std::size_t index) { return index % kCap; });
  qc::SimTraceSource compiled(inst.nl, inst.env, inst.stimulus,
                              engine_opts(qs::EngineKind::Compiled, 0.3));
  qc::AcquiredTrace slot;
  for (std::size_t i = 0; i < 2 * kCap; ++i) compiled.acquire_into({7, i}, slot);
  EXPECT_EQ(compiled.memo_hits(), 0u);
  EXPECT_GT(compiled.memo_entries(), kCap * 7 / 10);
  EXPECT_LT(compiled.memo_entries(), kCap * 9 / 10);
}

TEST(TraceMemo, StimuliBeyondCapacitySimulateWhileStoredOnesKeepHitting) {
  // Eleven buffered dual-rail bits driven with one of kDistinct random
  // values per trace: 512 more distinct stimuli than the memo can store.
  constexpr std::size_t kCap = qc::SimTraceSource::kMemoCapacity;
  constexpr std::size_t kDistinct = kCap + 512;
  static_assert(kDistinct <= (std::size_t{1} << kWideBits));
  const qc::TargetInstance inst = wide_buffer(
      [](qdi::util::Rng& rng, std::size_t) { return rng.below(kDistinct); });
  qc::SimTraceSource compiled(inst.nl, inst.env, inst.stimulus,
                              engine_opts(qs::EngineKind::Compiled, 0.3));
  qc::SimTraceSource reference(inst.nl, inst.env, inst.stimulus,
                               engine_opts(qs::EngineKind::Reference, 0.3));
  qc::AcquiredTrace probe;
  // Acquire trace i on both engines; true iff the compiled one replayed.
  const auto step = [&](std::size_t i, std::size_t* v) {
    const std::uint64_t hits = compiled.memo_hits();
    expect_same_acquisitions(compiled, reference, i, 1);
    reference.acquire_into({7, i}, probe);
    *v = probe.plaintext[0] | std::size_t{probe.plaintext[1]} << 8;
    return compiled.memo_hits() != hits;
  };
  // Fill until every stored stimulus has replayed once; a stimulus that
  // replayed once replays at every later sighting.
  std::vector<char> replayed(kDistinct, 0);
  std::size_t replayed_keys = 0;
  std::size_t i = 0;
  for (; i < 40 * kDistinct && replayed_keys < kCap; ++i) {
    std::size_t v = 0;
    const bool hit = step(i, &v);
    ASSERT_FALSE(HasFatalFailure());
    if (replayed[v] != 0) ASSERT_TRUE(hit) << "trace " << i;
    if (hit && replayed[v] == 0) {
      replayed[v] = 1;
      ++replayed_keys;
    }
  }
  ASSERT_EQ(replayed_keys, kCap);
  ASSERT_EQ(compiled.memo_entries(), kCap);
  // The memo is full and admits nothing more: the stored stimuli keep
  // replaying, the other 512 simulate.
  std::size_t misses = 0;
  for (const std::size_t end = i + 2 * kDistinct; i < end; ++i) {
    std::size_t v = 0;
    const bool hit = step(i, &v);
    ASSERT_FALSE(HasFatalFailure());
    ASSERT_EQ(hit, replayed[v] != 0) << "trace " << i;
    misses += hit ? 0 : 1;
  }
  EXPECT_GT(misses, 0u);
  EXPECT_EQ(compiled.memo_entries(), kCap);
}

// ---- allocation-free steady state ------------------------------------------

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define QDI_SANITIZER_ACTIVE 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define QDI_SANITIZER_ACTIVE 1
#endif
#endif

#ifndef QDI_SANITIZER_ACTIVE
namespace {
std::atomic<std::uint64_t> g_new_count{0};
}  // namespace

// Counting scalar new/delete: pass-through to malloc/free, used only to
// assert the steady-state acquisition loop allocates nothing.
void* operator new(std::size_t n) {
  g_new_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

TEST(CompiledKernel, SteadyStateAcquisitionLoopIsAllocationFree) {
  // aes_byte_slice mixes memo replays with simulated traces; des_round's
  // stimuli never repeat, so every one of its traces runs the event loop.
  for (const char* target : {"aes_byte_slice", "des_sbox_slice", "des_round"}) {
    const qc::TargetInstance inst = qc::find_target(target).build(0x2b);
    qc::SimTraceSource src(inst.nl, inst.env, inst.stimulus, {});
    qc::AcquiredTrace slot;
    // Warm-up traces pay reset, the epoch snapshot, and buffer sizing.
    for (std::size_t i = 0; i < 8; ++i) src.acquire_into({1, i}, slot);
    const std::uint64_t before = g_new_count.load(std::memory_order_relaxed);
    for (std::size_t i = 8; i < 108; ++i) src.acquire_into({1, i}, slot);
    EXPECT_EQ(g_new_count.load(std::memory_order_relaxed) - before, 0u)
        << target << ": the steady-state per-trace loop allocated";
  }
}
TEST(TraceMemo, HitPathIsAllocationFree) {
  // des_sbox_slice restricted to 4 of its stimuli, trace i taking the
  // stimulus of base trace i % 4: the 8 warm-up traces see each twice,
  // which admits all four, and every measured trace replays. (The
  // kernel's own steady state, admissions included, is
  // SteadyStateAcquisitionLoopIsAllocationFree's.)
  const qc::TargetInstance inst = qc::des_sbox_slice().build(0x2b);
  const qc::StimulusFn four = [base = inst.stimulus](
                                  qdi::util::Rng&, std::size_t index,
                                  qc::Stimulus& st) {
    qdi::util::Rng rng = qdi::util::split_stream(1, index % 4);
    base(rng, index % 4, st);
  };
  qc::SimTraceSourceOptions opt;
  opt.power.noise_sigma_ua = 0.7;
  qc::SimTraceSource src(inst.nl, inst.env, four, opt);
  qc::AcquiredTrace slot;
  for (std::size_t i = 0; i < 8; ++i) src.acquire_into({1, i}, slot);
  const std::uint64_t hits = src.memo_hits();
  const std::uint64_t before = g_new_count.load(std::memory_order_relaxed);
  for (std::size_t i = 8; i < 108; ++i) src.acquire_into({1, i}, slot);
  EXPECT_EQ(g_new_count.load(std::memory_order_relaxed) - before, 0u)
      << "the replay loop allocated";
  EXPECT_EQ(src.memo_hits() - hits, 100u);
}
#endif  // !QDI_SANITIZER_ACTIVE

// ---- compiled structure sanity ---------------------------------------------

TEST(CompiledNetlist, CsrStructureMirrorsSource) {
  const qc::TargetInstance inst = qc::xor_stage().build(0);
  const qs::CompiledNetlist cn(inst.nl);
  ASSERT_EQ(cn.num_nets(), inst.nl.num_nets());
  ASSERT_EQ(cn.num_cells(), inst.nl.num_cells());
  for (qn::NetId n = 0; n < cn.num_nets(); ++n)
    EXPECT_EQ(cn.cap_ff[n], inst.nl.net(n).cap_ff);
  for (qn::CellId c = 0; c < cn.num_cells(); ++c) {
    const qn::Cell& cell = inst.nl.cell(c);
    EXPECT_EQ(cn.kind[c], cell.kind);
    const std::uint32_t lo = cn.fanin_offset[c];
    const std::uint32_t hi = cn.fanin_offset[c + 1];
    ASSERT_EQ(hi - lo, cell.inputs.size());
    for (std::size_t i = 0; i < cell.inputs.size(); ++i)
      EXPECT_EQ(cn.fanin_net[lo + i], cell.inputs[i]);
  }
  // Fanout CSR: every non-Output sink pin appears, in order.
  for (qn::NetId n = 0; n < cn.num_nets(); ++n) {
    std::vector<std::uint32_t> expect;
    for (const qn::Pin& p : inst.nl.net(n).sinks)
      if (inst.nl.cell(p.cell).kind != qn::CellKind::Output)
        expect.push_back(p.cell);
    const std::vector<std::uint32_t> got(
        cn.fanout_cell.begin() + cn.fanout_offset[n],
        cn.fanout_cell.begin() + cn.fanout_offset[n + 1]);
    EXPECT_EQ(got, expect) << "net " << n;
  }
}

// ---- truth tables ----------------------------------------------------------

TEST(CompiledNetlist, TruthTablesMatchNetlistEvaluateForEveryKind) {
  const qc::TargetInstance inst = qc::xor_stage().build(0);
  const qs::CompiledNetlist cn(inst.nl);
  for (int k = 0; k < qn::kNumCellKinds; ++k) {
    const auto kind = static_cast<qn::CellKind>(k);
    SCOPED_TRACE(std::string(qn::name(kind)));
    const int nin = qn::info(kind).num_inputs;
    ASSERT_LE(nin, static_cast<int>(qs::CompiledNetlist::kTruthTablePins));
    for (unsigned pins = 0; pins < (1u << nin); ++pins) {
      bool in[qs::CompiledNetlist::kTruthTablePins] = {};
      for (int i = 0; i < nin; ++i) in[i] = (pins >> i) & 1u;
      for (const bool prev : {false, true})
        EXPECT_EQ(cn.evaluate(kind, pins, prev),
                  qn::evaluate(kind, std::span<const bool>(in, nin), prev))
            << "pins " << pins << " prev " << prev;
    }
  }
}

namespace {

/// Cells listening on one net through several pins: a, b, rst drive
/// And2(a,a), Muller2(a,a), Xnor2(a,a), Muller3R(a,b,a,rst) and an
/// Or2 over two of them.
struct SharedPins {
  qn::Netlist nl{"shared_pins"};
  qn::NetId a, b, rst;
  SharedPins() {
    a = nl.add_input("a");
    b = nl.add_input("b");
    rst = nl.add_input("rst");
    const qn::NetId x = nl.add_net("x");
    const qn::NetId y = nl.add_net("y");
    const qn::NetId z = nl.add_net("z");
    const qn::NetId w = nl.add_net("w");
    const qn::NetId o = nl.add_net("o");
    nl.add_cell(qn::CellKind::And2, "and_aa", {a, a}, x);
    nl.add_cell(qn::CellKind::Muller2, "c_aa", {a, a}, y);
    nl.add_cell(qn::CellKind::Xnor2, "xnor_aa", {a, a}, w);
    nl.add_cell(qn::CellKind::Muller3R, "cr_aba", {a, b, a, rst}, z);
    nl.add_cell(qn::CellKind::Or2, "or_xz", {x, z}, o);
    for (const qn::NetId n : {x, y, z, w, o})
      nl.mark_output(n, nl.net(n).name);
  }
};

using Steps = std::vector<std::pair<qn::NetId, bool>>;

void play(qs::SimEngine& sim, const Steps& steps) {
  for (const auto& [net, value] : steps) {
    sim.drive(net, value, sim.now() + 50.0);
    sim.run_until_stable();
  }
}

/// Both engines' recorded commits and glitch counts agree.
void expect_same_log(const qs::SimEngine& ref,
                     const qs::TransitionLog& ref_log, const qs::SimEngine& got,
                     const qs::TransitionLog& got_log) {
  const std::vector<qs::Transition>& a = ref_log.transitions;
  const std::vector<qs::Transition>& b = got_log.transitions;
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].t_ps, b[i].t_ps) << "transition " << i;
    EXPECT_EQ(a[i].net, b[i].net) << "transition " << i;
    EXPECT_EQ(a[i].rising, b[i].rising) << "transition " << i;
    EXPECT_EQ(a[i].slew_ps, b[i].slew_ps) << "transition " << i;
  }
  EXPECT_EQ(ref.glitch_count(), got.glitch_count());
}

}  // namespace

TEST(CompiledKernel, NetDrivingTwoPinsOfACellMatchesReference) {
  const SharedPins f;
  const Steps s1{{f.a, true}, {f.b, true}};
  const Steps s2{{f.a, false}, {f.rst, true}};
  const Steps s3{{f.b, true}, {f.a, true}, {f.rst, true}, {f.a, false},
                 {f.rst, false}, {f.a, true}, {f.b, false}, {f.a, false}};
  const Steps s4{{f.b, false}, {f.a, false}, {f.a, true}};

  qs::CompiledSimulator comp(qs::compile(f.nl));
  qs::TransitionLog comp_log;
  comp.set_power_sink(&comp_log);
  comp.initialize();
  comp.run_until_stable();
  const auto e0 = comp.save_epoch();
  // The kernel restores `e`, then records from there on.
  const auto restore = [&](const qs::CompiledSimulator::Epoch& e) {
    comp.restore_epoch(e);
    comp_log.transitions.clear();
  };

  qs::Simulator ref(f.nl);
  qs::TransitionLog ref_log;
  ref.set_power_sink(&ref_log);
  // The reference replays `prefix` from reset, then records `steps`.
  const auto ref_run = [&](const Steps& prefix, const Steps& steps) {
    ref.reset_state();
    ref.initialize();
    ref.run_until_stable();
    play(ref, prefix);
    ref_log.transitions.clear();
    play(ref, steps);
  };

  {
    SCOPED_TRACE("from reset");
    comp_log.transitions.clear();
    play(comp, s1);
    ref_run({}, s1);
    expect_same_log(ref, ref_log, comp, comp_log);
  }
  const auto e1 = comp.save_epoch();  // a is high: x, y, z hold 1
  play(comp, s2);
  {
    SCOPED_TRACE("older epoch: full copy");
    restore(e0);  // baseline is e1
    play(comp, s3);
    ref_run({}, s3);
    expect_same_log(ref, ref_log, comp, comp_log);
  }
  play(comp, s1);  // leave a state that differs from e0 again
  {
    SCOPED_TRACE("dirty-set restore");
    restore(e0);
    play(comp, s3);
    expect_same_log(ref, ref_log, comp, comp_log);
  }
  {
    SCOPED_TRACE("full copy into a mid-run epoch");
    restore(e1);
    play(comp, s4);
    ref_run(s1, s4);
    expect_same_log(ref, ref_log, comp, comp_log);
  }
}

// ---- name index ------------------------------------------------------------

TEST(NameIndex, HashedLookupMatchesLinearScanAndSurvivesMutation) {
  qn::Netlist nl("idx");
  std::vector<qn::NetId> ids;
  // Well past kNameIndexThreshold so the hashed path is exercised.
  for (int i = 0; i < 100; ++i)
    ids.push_back(nl.add_net("net" + std::to_string(i)));
  EXPECT_EQ(nl.find_net("net0"), ids[0]);
  EXPECT_EQ(nl.find_net("net99"), ids[99]);
  EXPECT_EQ(nl.find_net("net100"), qn::kNoNet);

  // Adding after the index was built must invalidate and find the new net.
  const qn::NetId fresh = nl.add_net("fresh");
  EXPECT_EQ(nl.find_net("fresh"), fresh);

  // Renaming through the mutable accessor must also invalidate.
  nl.net(ids[7]).name = "renamed";
  EXPECT_EQ(nl.find_net("renamed"), ids[7]);
  EXPECT_EQ(nl.find_net("net7"), qn::kNoNet);

  // Duplicate names resolve to the lowest id, like the linear scan.
  nl.net(ids[5]).name = "dup";
  nl.net(ids[9]).name = "dup";
  EXPECT_EQ(nl.find_net("dup"), ids[5]);
}
