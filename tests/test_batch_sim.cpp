// Batch-engine equivalence and guard-rail tests.
//
// The 64-lane BatchSimulator must be bit-identical PER TRACE to the
// scalar engines: the same (seed, index) request produces the same power
// samples, ciphertext, transition count, and glitch count whether it ran
// as a scalar wheel acquisition, one lane of a full 64-lane block, or a
// lane of the partial final block of a campaign — for any worker thread
// count. These tests pin that over every simulatable registry target,
// plus the explicit refusals for the combinations the batch kernel does
// not support (fault injection, flow-only targets, non-levelizable
// netlists, tolerant handshakes).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "qdi/campaign/batch_trace_source.hpp"
#include "qdi/campaign/campaign.hpp"
#include "qdi/campaign/target.hpp"
#include "qdi/sim/batch_simulator.hpp"

namespace qc = qdi::campaign;
namespace qn = qdi::netlist;
namespace qs = qdi::sim;

namespace {

qdi::dpa::TraceSet acquire(const qc::TargetInstance& inst, qs::EngineKind kind,
                           unsigned threads, qc::AcquisitionStats* stats,
                           std::size_t n, double jitter_ps = 0.0,
                           double noise = 0.0) {
  qc::SimTraceSourceOptions opt;
  opt.engine = kind;
  opt.start_jitter_ps = jitter_ps;
  opt.power.noise_sigma_ua = noise;
  std::unique_ptr<qc::TraceSource> src;
  if (kind == qs::EngineKind::Batch)
    src = std::make_unique<qc::BatchSimTraceSource>(inst.nl, inst.env,
                                                    inst.stimulus, opt);
  else
    src = std::make_unique<qc::SimTraceSource>(inst.nl, inst.env,
                                               inst.stimulus, opt);
  return qc::WorkerPool(*src, threads).acquire(n, /*seed=*/42, stats);
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

}  // namespace

// ---- registry-wide per-trace equivalence -----------------------------------

TEST(BatchEquivalence, AllRegistryTargetsBitIdenticalToWheelAnyThreadCount) {
  // 70 traces = one full 64-lane block plus a 6-lane partial block, so
  // the partial-batch path runs on every target.
  constexpr std::size_t kTraces = 70;
  for (const std::string& name : qc::list_targets()) {
    SCOPED_TRACE(name);
    const qc::TargetInstance inst = qc::find_target(name).build(0x2b);
    if (!inst.simulatable || !inst.stimulus) continue;

    qc::AcquisitionStats ref_stats;
    const qdi::dpa::TraceSet ref =
        acquire(inst, qs::EngineKind::Compiled, 1, &ref_stats, kTraces);

    for (unsigned threads : {1u, 3u}) {
      SCOPED_TRACE(threads);
      qc::AcquisitionStats stats;
      const qdi::dpa::TraceSet batch =
          acquire(inst, qs::EngineKind::Batch, threads, &stats, kTraces);
      expect_bit_identical(ref, batch);
      EXPECT_EQ(stats.transitions, ref_stats.transitions);
      EXPECT_EQ(stats.glitches, ref_stats.glitches);
      EXPECT_EQ(stats.per_trace_transitions, ref_stats.per_trace_transitions);
    }
  }
}

TEST(BatchEquivalence, JitterAndNoiseStreamsMatchWheel) {
  // Jitter de-aligns the per-lane power windows (the accumulator's
  // per-lane replay path); noise exercises the per-lane RNG draw order.
  const qc::TargetInstance inst = qc::xor_stage().build(0);
  const qdi::dpa::TraceSet ref = acquire(inst, qs::EngineKind::Compiled, 1,
                                         nullptr, 70, 300.0, 1.5);
  const qdi::dpa::TraceSet batch = acquire(inst, qs::EngineKind::Batch, 2,
                                           nullptr, 70, 300.0, 1.5);
  expect_bit_identical(ref, batch);
}

TEST(BatchEquivalence, PhaseAlignedHandshakesMatchWheel) {
  // phase_align_ps snaps every handshake drive onto a coarse tester
  // grid; both environments must round the same way, so the aligned
  // per-trace streams stay bit-identical between the engines.
  qc::TargetInstance inst = qc::des_sbox_slice().build(0x2b);
  inst.env.phase_align_ps = 200.0;
  const qdi::dpa::TraceSet ref =
      acquire(inst, qs::EngineKind::Compiled, 1, nullptr, 70);
  const qdi::dpa::TraceSet batch =
      acquire(inst, qs::EngineKind::Batch, 2, nullptr, 70);
  expect_bit_identical(ref, batch);
}

TEST(BatchEquivalence, BlockPartitionIsNotObservable) {
  // The same trace index must produce the same record as a 1-lane
  // block, as a lane of a full 64-lane block, and as a lane of a
  // partial block — lane independence is what makes the WorkerPool's
  // block partition a pure scheduling choice.
  const qc::TargetInstance inst = qc::des_sbox_slice().build(0x15);
  qc::SimTraceSourceOptions opt;
  opt.engine = qs::EngineKind::Batch;
  qc::BatchSimTraceSource src(inst.nl, inst.env, inst.stimulus, opt);

  std::vector<qc::AcquiredTrace> full(64);
  src.acquire_block(42, 0, 64, full.data());

  qc::BatchSimTraceSource single(inst.nl, inst.env, inst.stimulus, opt);
  for (std::size_t i : {std::size_t{0}, std::size_t{17}, std::size_t{63}}) {
    SCOPED_TRACE(i);
    qc::AcquiredTrace one;
    single.acquire_into({42, i}, one);
    ASSERT_EQ(one.trace.size(), full[i].trace.size());
    for (std::size_t j = 0; j < one.trace.size(); ++j)
      ASSERT_EQ(one.trace[j], full[i].trace[j]) << "sample " << j;
    EXPECT_EQ(one.ciphertext, full[i].ciphertext);
    EXPECT_EQ(one.plaintext, full[i].plaintext);
    EXPECT_EQ(one.transitions, full[i].transitions);
    EXPECT_EQ(one.glitches, full[i].glitches);
  }

  // A partial block starting mid-campaign reproduces the same indices.
  qc::BatchSimTraceSource partial(inst.nl, inst.env, inst.stimulus, opt);
  std::vector<qc::AcquiredTrace> tail(5);
  partial.acquire_block(42, 17, 5, tail.data());
  for (std::size_t l = 0; l < 2; ++l) {
    ASSERT_EQ(tail[l].trace.size(), full[17 + l].trace.size());
    for (std::size_t j = 0; j < tail[l].trace.size(); ++j)
      ASSERT_EQ(tail[l].trace[j], full[17 + l].trace[j]);
    EXPECT_EQ(tail[l].ciphertext, full[17 + l].ciphertext);
  }
}

// ---- campaign-level equivalence --------------------------------------------

TEST(BatchCampaign, AttackOutcomeMatchesCompiledEngine) {
  const auto run = [](qs::EngineKind kind) {
    return qc::Campaign()
        .target(qc::aes_byte_slice())
        .key(0x2b)
        .traces(96)
        .threads(2)
        .engine(kind)
        .attack(qc::Dpa{})
        .run();
  };
  const qc::CampaignResult compiled = run(qs::EngineKind::Compiled);
  const qc::CampaignResult batch = run(qs::EngineKind::Batch);
  ASSERT_TRUE(compiled.attack.has_value());
  ASSERT_TRUE(batch.attack.has_value());
  EXPECT_EQ(compiled.attack->best_guess, batch.attack->best_guess);
  EXPECT_EQ(compiled.attack->true_key_rank, batch.attack->true_key_rank);
  // Same traces in, same accumulator order: scores are bit-identical.
  EXPECT_EQ(compiled.attack->guess_scores, batch.attack->guess_scores);
  EXPECT_EQ(compiled.acquisition.transitions, batch.acquisition.transitions);
}

// ---- lockstep statistics ---------------------------------------------------

TEST(BatchKernel, LockstepOccupancyIsHighOnRegistryTargets) {
  // QDI handshake skeletons keep most lanes on the same (t, net) keys;
  // if occupancy degenerated toward 1 the engine would silently run at
  // scalar cost. Pin a generous floor so a lockstep regression shows up.
  const qc::TargetInstance inst = qc::aes_byte_slice().build(0x2b);
  qc::SimTraceSourceOptions opt;
  opt.engine = qs::EngineKind::Batch;
  qc::BatchSimTraceSource src(inst.nl, inst.env, inst.stimulus, opt);
  std::vector<qc::AcquiredTrace> out(64);
  src.acquire_block(1, 0, 64, out.data());
  EXPECT_GT(src.mean_lane_occupancy(), 4.0);
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
// assert the steady-state block loop allocates nothing.
void* operator new(std::size_t n) {
  g_new_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

TEST(BatchKernel, SteadyStateBlockLoopIsAllocationFree) {
  for (const char* target : {"des_sbox_slice", "des_round"}) {
    const qc::TargetInstance inst = qc::find_target(target).build(0x2b);
    qc::SimTraceSourceOptions opt;
    opt.engine = qs::EngineKind::Batch;
    qc::BatchSimTraceSource src(inst.nl, inst.env, inst.stimulus, opt);
    std::vector<qc::AcquiredTrace> out(qs::kBatchLanes);
    // Warm-up blocks pay reset, the epoch snapshot, and buffer sizing.
    src.acquire_block(1, 0, 64, out.data());
    src.acquire_block(1, 64, 64, out.data());
    const std::uint64_t before = g_new_count.load(std::memory_order_relaxed);
    // 100 traces: a full block, then a 36-lane partial one.
    src.acquire_block(1, 128, 64, out.data());
    src.acquire_block(1, 192, 36, out.data());
    EXPECT_EQ(g_new_count.load(std::memory_order_relaxed) - before, 0u)
        << target << ": the steady-state block loop allocated";
  }
}
#endif  // !QDI_SANITIZER_ACTIVE

// ---- guard rails: unsupported combinations throw ---------------------------

TEST(BatchGuards, FlowOnlyTargetIsRejectedByValidate) {
  // A flow-only victim (explicitly opted out of simulation — aes_core
  // itself simulates these days) has nothing to acquire, batch or not.
  qc::TargetInstance flow_only;
  flow_only.nl = qn::Netlist("flow_only");
  flow_only.simulatable = false;
  flow_only.name = "flow_only";
  EXPECT_THROW(qc::Campaign()
                   .target(qc::prebuilt(std::move(flow_only)))
                   .key(0x2b)
                   .traces(64)
                   .engine(qs::EngineKind::Batch)
                   .run(),
               std::invalid_argument);
}

namespace {

/// A cross-coupled NAND latch smuggled in as combinational cells.
qn::Netlist nand_latch() {
  qn::Netlist nl("sr_latch");
  const qn::NetId s = nl.add_input("s");
  const qn::NetId r = nl.add_input("r");
  const qn::NetId q = nl.add_net("q");
  const qn::NetId qb = nl.add_net("qb");
  nl.add_cell(qn::CellKind::Nand2, "nand_q", {s, qb}, q);
  nl.add_cell(qn::CellKind::Nand2, "nand_qb", {r, q}, qb);
  return nl;
}

}  // namespace

TEST(BatchGuards, NonLevelizableConeIsRefusedNamingTheCell) {
  // The batch kernel must refuse the NAND latch (word-parallel
  // evaluation would be order-sensitive) and name the offending cell
  // instead of silently falling back to a scalar engine.
  const qn::Netlist nl = nand_latch();
  try {
    qs::BatchSimulator sim(qs::compile(nl));
    FAIL() << "BatchSimulator accepted a combinational cycle";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("nand_q"), std::string::npos) << msg;
    EXPECT_NE(msg.find("combinational cycle"), std::string::npos) << msg;
  }
}

TEST(BatchGuards, CampaignOnANonLevelizableConeThrowsNamingTheCell) {
  // Campaign::engine(Batch) reaches the same refusal through the one
  // compiled form it builds of the victim.
  qc::TargetInstance inst;
  inst.nl = nand_latch();
  inst.name = "sr_latch";
  inst.stimulus = [](qdi::util::Rng&, std::size_t, qc::Stimulus& out) {
    out.values.clear();
    out.plaintext.clear();
  };
  try {
    qc::Campaign()
        .target(qc::prebuilt(std::move(inst)))
        .key(0)
        .traces(8)
        .engine(qs::EngineKind::Batch)
        .run();
    FAIL() << "Campaign ran the batch engine on a combinational cycle";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("nand_q"), std::string::npos)
        << e.what();
  }
}

TEST(BatchGuards, MullerCutPointsMakeTheSameConeLevelizable) {
  // The same cross-coupling through a Muller cell is a legal QDI cone:
  // state-holding cells are cut points, so the batch kernel accepts it.
  qn::Netlist nl("c_loop");
  const qn::NetId a = nl.add_input("a");
  const qn::NetId b = nl.add_input("b");
  const qn::NetId q = nl.add_net("q");
  const qn::NetId inv = nl.add_net("inv");
  nl.add_cell(qn::CellKind::Muller2, "c_el", {a, inv}, q);
  nl.add_cell(qn::CellKind::Inv, "fb", {q}, inv);
  (void)b;
  EXPECT_NO_THROW(qs::BatchSimulator(qs::compile(nl)));
}

TEST(BatchGuards, FaultCampaignRejectsBatchEngine) {
  qc::SimTraceSourceOptions engine;
  engine.engine = qs::EngineKind::Batch;
  const qc::TargetInstance inst = qc::des_sbox_slice().build(0x15);
  EXPECT_THROW(qc::run_fault_campaign(inst, 0x15, qc::FaultCampaignOptions{},
                                      engine, 1, 1),
               std::invalid_argument);
  // The campaign front end rejects the combination up front too.
  EXPECT_THROW(qc::Campaign()
                   .target(qc::des_sbox_slice())
                   .key(0x15)
                   .traces(8)
                   .engine(qs::EngineKind::Batch)
                   .faults(qc::FaultCampaignOptions{})
                   .run(),
               std::invalid_argument);
}

TEST(BatchGuards, AcquireBlockRejectsCountOutsideOneBlock) {
  // A block is 1..64 lanes; any other count would overrun the source's
  // per-lane arrays.
  const qc::TargetInstance inst = qc::xor_stage().build(0);
  qc::SimTraceSourceOptions opt;
  opt.engine = qs::EngineKind::Batch;
  qc::BatchSimTraceSource src(inst.nl, inst.env, inst.stimulus, opt);
  std::vector<qc::AcquiredTrace> out(qs::kBatchLanes + 1);
  for (const std::size_t count : {std::size_t{0}, qs::kBatchLanes + 1}) {
    SCOPED_TRACE(count);
    try {
      src.acquire_block(1, 0, count, out.data());
      ADD_FAILURE() << "accepted a block of " << count << " traces";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("count " + std::to_string(count) +
                                            " outside [1, 64]"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(BatchGuards, ScalarSourceRejectsBatchEngineKind) {
  const qc::TargetInstance inst = qc::xor_stage().build(0);
  qc::SimTraceSourceOptions opt;
  opt.engine = qs::EngineKind::Batch;
  EXPECT_THROW(qc::SimTraceSource(inst.nl, inst.env, inst.stimulus, opt),
               std::invalid_argument);
}

TEST(BatchGuards, BatchSourceRejectsReferenceEngineKind) {
  const qc::TargetInstance inst = qc::xor_stage().build(0);
  qc::SimTraceSourceOptions opt;
  opt.engine = qs::EngineKind::Reference;
  EXPECT_THROW(qc::BatchSimTraceSource(inst.nl, inst.env, inst.stimulus, opt),
               std::invalid_argument);
}

TEST(BatchGuards, TolerantEnvironmentIsRejected) {
  const qc::TargetInstance inst = qc::xor_stage().build(0);
  qs::BatchSimulator sim(qs::compile(inst.nl));
  qs::EnvSpec spec = inst.env;
  spec.strict = false;
  EXPECT_THROW(qs::BatchFourPhaseEnv(sim, spec), std::invalid_argument);
}

TEST(BatchGuards, OutOfRangeSpecIdsThrowNamingFieldAndId) {
  const qc::TargetInstance inst = qc::xor_stage().build(0);
  const auto cn = qs::compile(inst.nl);
  const auto channels = static_cast<qn::ChannelId>(inst.nl.num_channels());
  const auto nets = static_cast<qn::NetId>(inst.nl.num_nets());
  // (expected message part, spec with one id the netlist lacks)
  std::vector<std::pair<std::string, qs::EnvSpec>> bad(4, {"", inst.env});
  bad[0].second.inputs[0] = channels;
  bad[0].first = "inputs[0] = " + std::to_string(channels);
  bad[1].second.outputs[0] = channels + 5;
  bad[1].first = "outputs[0] = " + std::to_string(channels + 5);
  bad[2].second.acks_to_block[0] = nets;
  bad[2].first = "acks_to_block[0] = " + std::to_string(nets);
  bad[3].second.reset = nets + 1;
  bad[3].first = "reset = " + std::to_string(nets + 1);
  for (const auto& [want, spec] : bad) {
    SCOPED_TRACE(want);
    qs::BatchSimulator sim(cn);
    try {
      qs::BatchFourPhaseEnv env(sim, spec);
      ADD_FAILURE() << "accepted an out-of-range id";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(want), std::string::npos)
          << e.what();
    }
  }
}

// ---- precompiled reuse ------------------------------------------------------

TEST(BatchSource, PrecompiledNetlistIsSharedNotRecompiled) {
  const qc::TargetInstance inst = qc::xor_stage().build(0);
  auto cn = qs::compile(inst.nl);
  qc::SimTraceSourceOptions opt;
  opt.engine = qs::EngineKind::Batch;
  opt.precompiled = cn;
  qc::BatchSimTraceSource src(inst.nl, inst.env, inst.stimulus, opt);
  qc::AcquiredTrace slot;
  src.acquire_into({7, 0}, slot);

  qc::SimTraceSourceOptions plain;
  plain.engine = qs::EngineKind::Batch;
  qc::BatchSimTraceSource fresh(inst.nl, inst.env, inst.stimulus, plain);
  qc::AcquiredTrace expect;
  fresh.acquire_into({7, 0}, expect);
  ASSERT_EQ(slot.trace.size(), expect.trace.size());
  for (std::size_t j = 0; j < slot.trace.size(); ++j)
    ASSERT_EQ(slot.trace[j], expect.trace[j]);
  EXPECT_EQ(slot.ciphertext, expect.ciphertext);
}
