// Tests for the qdi::campaign attack-campaign API: builder validation,
// deterministic RNG stream splitting, single- vs multi-threaded
// acquisition equality, and end-to-end key recovery.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "qdi/qdi.hpp"

namespace qc = qdi::campaign;
namespace qn = qdi::netlist;
namespace qu = qdi::util;

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define QDI_SANITIZER_ACTIVE 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define QDI_SANITIZER_ACTIVE 1
#endif
#endif

// ---- builder validation ----------------------------------------------------

TEST(CampaignValidation, EmptyTargetThrows) {
  EXPECT_THROW(qc::Campaign().run(), std::invalid_argument);
}

TEST(CampaignValidation, AttackWithoutTracesThrows) {
  EXPECT_THROW(
      qc::Campaign().target(qc::xor_stage()).attack(qc::Dpa{}).run(),
      std::invalid_argument);
}

TEST(CampaignValidation, AttackOnUnattackableTargetThrows) {
  EXPECT_THROW(qc::Campaign()
                   .target(qc::xor_stage())
                   .traces(4)
                   .attack(qc::Dpa{})
                   .run(),
               std::invalid_argument);
}

TEST(CampaignValidation, DpaBitIndexOutOfRangeThrows) {
  qc::Dpa cfg;
  cfg.bits = {99};
  EXPECT_THROW(qc::Campaign()
                   .target(qc::des_sbox_slice())
                   .traces(4)
                   .attack(cfg)
                   .run(),
               std::invalid_argument);
}

TEST(CampaignValidation, FlowOnlyTargetRefusesAcquisition) {
  // aes_core is simulatable these days; a flow-only victim is modeled
  // with an explicit prebuilt instance that opted out of simulation.
  qc::TargetInstance flow_only;
  flow_only.nl = qn::Netlist("flow_only");
  flow_only.simulatable = false;
  flow_only.name = "flow_only";
  EXPECT_THROW(
      qc::Campaign().target(qc::prebuilt(std::move(flow_only))).traces(1).run(),
      std::invalid_argument);
}

TEST(CampaignValidation, RankTrajectoryWithoutAttackThrows) {
  EXPECT_THROW(qc::Campaign()
                   .target(qc::xor_stage())
                   .traces(4)
                   .rank_trajectory(2)
                   .run(),
               std::invalid_argument);
}

TEST(CampaignValidation, DpaOnTargetWithoutSelectionBitsThrows) {
  // A custom target that claims a guess space but registers no selection
  // functions must be rejected up front, not crash in the analysis stage.
  qc::TargetInstance inst = qc::xor_stage().build(0);
  inst.num_guesses = 4;
  EXPECT_THROW(qc::Campaign()
                   .target(qc::prebuilt(std::move(inst)))
                   .traces(4)
                   .attack(qc::Dpa{})
                   .run(),
               std::invalid_argument);
}

TEST(CampaignValidation, TrueGuessOutsideTheGuessSpaceThrows) {
  // The outcome ranks the true guess among the scores; a custom target
  // whose true guess lies outside its guess space must be rejected up
  // front, not read past the score vector.
  qc::TargetInstance inst = qc::des_sbox_slice().build(0x15);
  inst.true_guess = inst.num_guesses;
  const std::string want = "true_guess " + std::to_string(inst.num_guesses);
  for (const bool cpa : {false, true}) {
    SCOPED_TRACE(cpa ? "cpa" : "dpa");
    qc::Campaign c;
    c.target(qc::prebuilt(inst)).traces(4);
    if (cpa)
      c.attack(qc::Cpa{});
    else
      c.attack(qc::Dpa{});
    try {
      (void)c.run();
      ADD_FAILURE() << "accepted a true guess outside the guess space";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(want), std::string::npos)
          << e.what();
    }
  }
}

TEST(CampaignValidation, NonPositiveSamplePeriodThrows) {
  // A zero period used to acquire empty traces and attack them.
  for (const double dt : {0.0, -10.0}) {
    qdi::power::PowerModelParams pm;
    pm.sample_period_ps = dt;
    for (const qdi::sim::EngineKind engine :
         {qdi::sim::EngineKind::Compiled, qdi::sim::EngineKind::Reference,
          qdi::sim::EngineKind::Batch}) {
      EXPECT_THROW(qc::Campaign()
                       .target(qc::xor_stage())
                       .power(pm)
                       .engine(engine)
                       .traces(4)
                       .run(),
                   std::invalid_argument)
          << "period " << dt << " engine " << static_cast<int>(engine);
    }
  }
}

// ---- malformed stimuli -----------------------------------------------------

namespace {

/// Malformed stimuli for dual_rail_pair (two dual-rail input channels)
/// and the input index each message must name.
struct BadStimulus {
  std::vector<int> values;
  const char* input;
};
const BadStimulus kBadStimuli[] = {
    {{1}, "input 1 "},      // short vector
    {{0, 2}, "input 1 "},   // value 2 on a dual-rail channel
    {{-1, 0}, "input 0 "},  // negative value
};

/// what() of the std::invalid_argument `f` throws ("" if it throws
/// nothing or something else).
template <class F>
std::string invalid_argument_message(F&& f) {
  try {
    f();
  } catch (const std::invalid_argument& e) {
    return e.what();
  } catch (...) {
  }
  return "";
}

}  // namespace

// A malformed stimulus must fail in every build type: unchecked, the
// scalar engines drive past ch.rails and the batch engine reads past a
// short vector.
TEST(StimulusValidation, EveryEngineRejectsWithTheSameMessage) {
  const qc::TargetInstance inst = qc::dual_rail_pair().build(0);
  for (const BadStimulus& bad : kBadStimuli) {
    qdi::sim::Simulator ref(inst.nl);
    qdi::sim::FourPhaseEnv ref_env(ref, inst.env);
    ref_env.apply_reset();
    const std::string msg =
        invalid_argument_message([&] { ref_env.send(bad.values); });
    EXPECT_NE(msg.find(bad.input), std::string::npos) << msg;

    qdi::sim::CompiledSimulator compiled(qdi::sim::compile(inst.nl));
    qdi::sim::FourPhaseEnv compiled_env(compiled, inst.env);
    compiled_env.apply_reset();
    EXPECT_EQ(invalid_argument_message(
                  [&] { compiled_env.send(bad.values); }),
              msg);

    // The bad stimulus in lane 1 of a two-lane block.
    qdi::sim::BatchSimulator batch(qdi::sim::compile_batch(inst.nl));
    qdi::sim::BatchFourPhaseEnv batch_env(batch, inst.env);
    batch_env.apply_reset();
    const std::vector<int> good = {0, 1};
    const std::vector<int>* lanes[] = {&good, &bad.values};
    qdi::sim::BatchFourPhaseEnv::BatchCycleResult cyc;
    EXPECT_EQ(invalid_argument_message(
                  [&] { batch_env.send_into(lanes, cyc); }),
              msg);
  }
}

TEST(CampaignValidation, MalformedStimulusThrowsOnEveryEngine) {
  for (const BadStimulus& bad : kBadStimuli) {
    qc::TargetInstance inst = qc::dual_rail_pair().build(0);
    inst.stimulus = [values = bad.values](qu::Rng&, std::size_t,
                                          qc::Stimulus& st) {
      st.values = values;
      st.plaintext.assign(1, 0);
    };
    const qc::CircuitTarget target = qc::prebuilt(std::move(inst));
    for (const qdi::sim::EngineKind engine :
         {qdi::sim::EngineKind::Compiled, qdi::sim::EngineKind::Reference,
          qdi::sim::EngineKind::Batch}) {
      const std::string msg = invalid_argument_message([&] {
        qc::Campaign().target(target).engine(engine).traces(4).run();
      });
      EXPECT_NE(msg.find(bad.input), std::string::npos)
          << "engine " << static_cast<int>(engine) << ": '" << msg << "'";
    }
  }
}

// ---- registry --------------------------------------------------------------

TEST(CampaignRegistry, PrebuiltTargetIsReusableAndDeterministic) {
  const qc::CircuitTarget t = qc::prebuilt(qc::des_sbox_slice().build(0x15));
  const auto run = [&] {
    return qc::Campaign().target(t).seed(9).traces(8).run();
  };
  const qc::CampaignResult a = run();
  const qc::CampaignResult b = run();  // second campaign over the same build
  ASSERT_EQ(a.traces.size(), b.traces.size());
  for (std::size_t i = 0; i < a.traces.size(); ++i)
    for (std::size_t j = 0; j < a.traces.num_samples(); ++j)
      ASSERT_EQ(a.traces.trace(i)[j], b.traces.trace(i)[j]);
}

TEST(CampaignRegistry, EveryListedTargetResolves) {
  for (const std::string& name : qc::list_targets()) {
    const qc::CircuitTarget t = qc::find_target(name);
    EXPECT_TRUE(t.valid());
    EXPECT_EQ(t.name(), name);
  }
  EXPECT_THROW(qc::find_target("no_such_circuit"), std::invalid_argument);
}

// ---- deterministic stream split --------------------------------------------

TEST(CampaignRng, SplitStreamIsReproducibleAndIndependent) {
  qu::Rng a = qu::split_stream(42, 7);
  qu::Rng b = qu::split_stream(42, 7);
  for (int i = 0; i < 64; ++i) EXPECT_EQ(a.next(), b.next());

  // Different stream or different seed must diverge immediately with
  // overwhelming probability.
  EXPECT_NE(qu::split_stream(42, 7).next(), qu::split_stream(42, 8).next());
  EXPECT_NE(qu::split_stream(42, 7).next(), qu::split_stream(43, 7).next());
}

TEST(CampaignRng, DomainTagSeparatesFaultAndAcquisitionStreams) {
  // The fault campaign draws run i from the kFaultDomain-tagged stream;
  // power acquisition draws trace i from the untagged one. At the same
  // (seed, index) the two must not overlap — arming a fault probe next
  // to an acquisition must never replay the acquisition's plaintexts.
  for (std::uint64_t seed : {1ull, 42ull, 31337ull}) {
    for (std::uint64_t index : {0ull, 1ull, 255ull}) {
      qu::Rng acq = qu::split_stream(seed, index);
      qu::Rng fault = qu::split_stream(seed, index, qu::kFaultDomain);
      EXPECT_NE(acq.next(), fault.next()) << seed << "/" << index;
    }
  }
  // And the tagged stream is itself reproducible.
  qu::Rng a = qu::split_stream(9, 4, qu::kFaultDomain);
  qu::Rng b = qu::split_stream(9, 4, qu::kFaultDomain);
  for (int i = 0; i < 64; ++i) EXPECT_EQ(a.next(), b.next());
}

// ---- acquisition determinism -----------------------------------------------

TEST(CampaignAcquisition, MultiThreadedTracesAreBitIdentical) {
  const auto run = [](unsigned threads) {
    return qc::Campaign()
        .target(qc::des_sbox_slice())
        .key(0x2b)
        .seed(5)
        .traces(24)
        .threads(threads)
        .run();
  };
  const qc::CampaignResult one = run(1);
  const qc::CampaignResult four = run(4);
  ASSERT_EQ(one.traces.size(), four.traces.size());
  EXPECT_EQ(four.acquisition.threads_used, 4u);
  for (std::size_t i = 0; i < one.traces.size(); ++i) {
    ASSERT_EQ(one.traces.plaintext(i)[0], four.traces.plaintext(i)[0])
        << "trace " << i;
    ASSERT_EQ(one.traces.ciphertext(i)[0], four.traces.ciphertext(i)[0]);
    for (std::size_t j = 0; j < one.traces.num_samples(); ++j)
      ASSERT_EQ(one.traces.trace(i)[j], four.traces.trace(i)[j])
          << "trace " << i << " sample " << j;
  }
}

TEST(CampaignAcquisition, NoiseAndJitterStayDeterministicAcrossThreads) {
  const auto run = [](unsigned threads) {
    qdi::power::PowerModelParams pm;
    pm.noise_sigma_ua = 1.0;
    return qc::Campaign()
        .target(qc::xor_stage())
        .seed(17)
        .traces(12)
        .threads(threads)
        .power(pm)
        .jitter(200.0)
        .run();
  };
  const qc::CampaignResult a = run(1);
  const qc::CampaignResult b = run(3);
  ASSERT_EQ(a.traces.size(), b.traces.size());
  for (std::size_t i = 0; i < a.traces.size(); ++i)
    for (std::size_t j = 0; j < a.traces.num_samples(); ++j)
      ASSERT_EQ(a.traces.trace(i)[j], b.traces.trace(i)[j]);
}

TEST(CampaignAcquisition, SeedChangesPlaintextSequence) {
  const auto run = [](std::uint64_t seed) {
    return qc::Campaign()
        .target(qc::aes_byte_slice())
        .key(0x55)
        .seed(seed)
        .traces(16)
        .run();
  };
  const qc::CampaignResult a = run(1);
  const qc::CampaignResult b = run(2);
  bool differs = false;
  for (std::size_t i = 0; i < a.traces.size(); ++i)
    if (a.traces.plaintext(i)[0] != b.traces.plaintext(i)[0]) differs = true;
  EXPECT_TRUE(differs);
}

TEST(CampaignAcquisition, CiphertextsMatchGoldenModelAndStatsFilled) {
  const qc::CampaignResult r = qc::Campaign()
                                   .target(qc::aes_byte_slice())
                                   .key(0x2b)
                                   .traces(20)
                                   .run();
  ASSERT_EQ(r.traces.size(), 20u);
  for (std::size_t i = 0; i < r.traces.size(); ++i) {
    const std::uint8_t p = r.traces.plaintext(i)[0];
    EXPECT_EQ(r.traces.ciphertext(i)[0],
              qdi::crypto::aes_sbox(static_cast<std::uint8_t>(p ^ 0x2b)));
  }
  EXPECT_EQ(r.acquisition.per_trace_transitions.size(), 20u);
  EXPECT_GT(r.acquisition.transitions, 0u);
  EXPECT_EQ(r.acquisition.glitches, 0u);  // hazard-free QDI
  EXPECT_GT(r.acquisition.traces_per_s, 0.0);
}

// ---- pipeline failure injection --------------------------------------------

namespace {

constexpr std::size_t kNeverFail = ~std::size_t{0};

struct InjectedFault : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// Source decorator that throws from acquire_block for the block holding
/// trace `*fail_at` (shared by every clone, so a run can be disarmed
/// without rebuilding the pool). It throws before delegating, so the
/// wrapped simulator is never left mid-trace.
class ThrowingSource final : public qc::TraceSource {
 public:
  ThrowingSource(std::unique_ptr<qc::TraceSource> inner,
                 std::shared_ptr<std::atomic<std::size_t>> fail_at)
      : inner_(std::move(inner)), fail_at_(std::move(fail_at)) {}

  void acquire_into(const qc::TraceRequest& req,
                    qc::AcquiredTrace& out) override {
    acquire_block(req.seed, req.index, 1, &out);
  }
  std::size_t batch_width() const override { return inner_->batch_width(); }
  void acquire_block(std::uint64_t seed, std::size_t first, std::size_t count,
                     qc::AcquiredTrace* out) override {
    const std::size_t f = fail_at_->load();
    if (f >= first && f < first + count) throw InjectedFault("source");
    inner_->acquire_block(seed, first, count, out);
  }
  std::unique_ptr<qc::TraceSource> clone() const override {
    return std::make_unique<ThrowingSource>(inner_->clone(), fail_at_);
  }
  std::string name() const override { return "throwing"; }

 private:
  std::unique_ptr<qc::TraceSource> inner_;
  std::shared_ptr<std::atomic<std::size_t>> fail_at_;
};

/// Every trace of [0, n) in commit order, checking the order on the way.
qdi::dpa::TraceSet collect(qc::WorkerPool& pool, std::size_t n,
                           std::size_t block) {
  qdi::dpa::TraceSet out;
  qc::WorkerPool::ShardedIngest si;
  si.commit = [&](std::size_t, const qdi::dpa::TraceSet& seg,
                  std::size_t first) {
    EXPECT_EQ(first, out.size()) << "commit out of order";
    for (std::size_t k = 0; k < seg.size(); ++k)
      out.add(seg.trace(k), seg.plaintext(k), seg.ciphertext(k));
  };
  pool.acquire_sharded_range(0, n, /*seed=*/9, block, {}, si);
  return out;
}

void expect_same_traces(const qdi::dpa::TraceSet& a,
                        const qdi::dpa::TraceSet& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a.plaintext(i)[0], b.plaintext(i)[0]) << "trace " << i;
    for (std::size_t j = 0; j < a.num_samples(); ++j)
      ASSERT_EQ(a.trace(i)[j], b.trace(i)[j])
          << "trace " << i << " sample " << j;
  }
}

}  // namespace

// Throw from the source, from ingest and from commit at a seeded random
// block, at 1-4 threads and batch widths 1 and 64: the exception must
// reach the caller (and the call return — a deadlock hangs the test),
// and the same pool must then complete a clean run bit-identical to a
// fresh pool's, so no in-flight block leaked or stayed half-written.
TEST(WorkerPoolPipeline, FailureInjectionSurfacesErrorAndPoolStaysUsable) {
  const qc::TargetInstance inst = qc::des_sbox_slice().build(0x2b);
  constexpr std::size_t kTraces = 256;
  const char* const kStages[] = {"source", "ingest", "commit"};
  qu::Rng rng = qu::split_stream(0xfa11, 0);
  for (const qdi::sim::EngineKind kind :
       {qdi::sim::EngineKind::Compiled, qdi::sim::EngineKind::Batch}) {
    qc::SimTraceSourceOptions opt;
    opt.engine = kind;
    std::unique_ptr<qc::TraceSource> inner;
    if (kind == qdi::sim::EngineKind::Batch)
      inner = std::make_unique<qc::BatchSimTraceSource>(inst.nl, inst.env,
                                                        inst.stimulus, opt);
    else
      inner = std::make_unique<qc::SimTraceSource>(inst.nl, inst.env,
                                                   inst.stimulus, opt);
    const auto fail_at = std::make_shared<std::atomic<std::size_t>>(kNeverFail);
    ThrowingSource src(std::move(inner), fail_at);
    const std::size_t block = src.batch_width() == 1 ? 16 : 64;
    const std::size_t num_blocks = kTraces / block;
    for (unsigned threads = 1; threads <= 4; ++threads) {
      qc::WorkerPool fresh(src, threads);
      const qdi::dpa::TraceSet reference = collect(fresh, kTraces, block);
      ASSERT_EQ(reference.size(), kTraces);
      qc::WorkerPool pool(src, threads);
      for (const std::string stage : kStages) {
        const std::size_t bad = rng.below(num_blocks);
        SCOPED_TRACE(testing::Message()
                     << "width " << src.batch_width() << ", " << threads
                     << " threads, " << stage << " throws at block " << bad);
        fail_at->store(stage == "source" ? bad * block + rng.below(block)
                                         : kNeverFail);
        qc::WorkerPool::ShardedIngest si;
        si.ingest = [&](unsigned, std::size_t b, const qdi::dpa::TraceSet&,
                        std::size_t) {
          if (stage == "ingest" && b == bad) throw InjectedFault("ingest");
        };
        si.commit = [&](std::size_t b, const qdi::dpa::TraceSet&,
                        std::size_t) {
          if (stage == "commit" && b == bad) throw InjectedFault("commit");
        };
        try {
          pool.acquire_sharded_range(0, kTraces, /*seed=*/9, block, {}, si);
          ADD_FAILURE() << "the injected exception was swallowed";
        } catch (const InjectedFault& e) {
          EXPECT_EQ(std::string(e.what()), stage);
        }
        fail_at->store(kNeverFail);
        expect_same_traces(collect(pool, kTraces, block), reference);
      }
    }
  }
}

// ---- claim gate ------------------------------------------------------------

namespace {

/// A source that costs nothing: trace i is four samples of its own
/// stream, so the commit chain is the pipeline's only bottleneck.
class FreeSource final : public qc::TraceSource {
 public:
  void acquire_into(const qc::TraceRequest& req,
                    qc::AcquiredTrace& out) override {
    qu::Rng rng = qu::split_stream(req.seed, req.index);
    out.trace.reset(0.0, 1.0, 4);
    for (std::size_t j = 0; j < 4; ++j) out.trace[j] = rng.uniform(0.0, 1.0);
    out.plaintext.assign(1, static_cast<std::uint8_t>(req.index));
    out.ciphertext.clear();
    out.transitions = 1;
    out.glitches = 0;
  }
  std::unique_ptr<qc::TraceSource> clone() const override {
    return std::make_unique<FreeSource>();
  }
  std::string name() const override { return "free"; }
};

}  // namespace

// Let T be the thread count and F the blocks whose ingest has finished
// but whose commit has not. After its claim a block is held by its
// worker (acquire, ingest), then parked in done[], then taken by the
// commit chain (one block at a time, on a worker that is not acquiring
// meanwhile), then committed. Take the last claim before F peaks: the
// gate admitted it with at most T - 1 blocks parked, and the held blocks
// plus the one being committed occupied at most T workers. No claim
// follows, so F grows only by those blocks finishing:
// F <= (T - 1) + T = 2T - 1. The in-flight rule alone (claims at most
// 2T + 2 blocks ahead of the commit frontier) lets every claimed block
// finish behind a slow commit, so F reaches 2T + 2 without the parked
// condition.
TEST(WorkerPoolPipeline, CommitBoundPipelineParksFewerThanTwoBlocksPerThread) {
  FreeSource src;
  constexpr std::size_t kTraces = 96;
  constexpr std::size_t kBlock = 2;
  qdi::dpa::TraceSet first_run;
  for (unsigned threads = 1; threads <= 4; ++threads) {
    SCOPED_TRACE(testing::Message() << threads << " threads");
    qc::WorkerPool pool(src, threads);
    std::atomic<std::size_t> finished{0};
    std::atomic<std::size_t> committed{0};
    std::atomic<std::size_t> peak{0};
    qdi::dpa::TraceSet out;
    qc::WorkerPool::ShardedIngest si;
    si.ingest = [&](unsigned, std::size_t, const qdi::dpa::TraceSet&,
                    std::size_t) {
      const std::size_t f = finished.fetch_add(1) + 1 - committed.load();
      std::size_t p = peak.load();
      while (f > p && !peak.compare_exchange_weak(p, f)) {
      }
    };
    si.commit = [&](std::size_t, const qdi::dpa::TraceSet& seg,
                    std::size_t first) {
      std::this_thread::sleep_for(std::chrono::microseconds(500));
      EXPECT_EQ(first, out.size()) << "commit out of order";
      for (std::size_t k = 0; k < seg.size(); ++k)
        out.add(seg.trace(k), seg.plaintext(k), seg.ciphertext(k));
      committed.fetch_add(1);
    };
    pool.acquire_sharded_range(0, kTraces, /*seed=*/9, kBlock, {}, si);
    EXPECT_LE(peak.load(), 2 * std::size_t{threads} - 1);
    ASSERT_EQ(out.size(), kTraces);
    if (threads == 1)
      first_run = std::move(out);
    else
      expect_same_traces(out, first_run);
  }
}

// A block's slot is its buffer: held from the block's claim until its
// commit returned, or until a failed call gave the block up. Per-slot
// consumer state (the block-fold partials, the shard fingerprints) relies
// on two things checked here over several calls on one pool, one of which
// throws mid-stream: every slot is below slots(), and no two blocks hold
// one slot between the ingest and the end of the commit. The owner table
// uses relaxed atomics, which order nothing, so the plain `payload`
// written at ingest and read at commit is ordered only by the pool's own
// handoff, and ThreadSanitizer reports a race if the handoff is missing.
TEST(WorkerPoolPipeline, BlockSlotsStayBelowTheBoundAndAreNeverShared) {
  FreeSource src;
  constexpr std::size_t kTraces = 80;
  constexpr std::size_t kBlock = 2;
  constexpr std::size_t kFree = 0;
  for (unsigned threads = 1; threads <= 4; ++threads) {
    SCOPED_TRACE(testing::Message() << threads << " threads");
    qc::WorkerPool pool(src, threads);
    const std::size_t slots = pool.slots();
    EXPECT_EQ(slots, 2 * std::size_t{threads} + 2);
    std::vector<std::atomic<std::size_t>> owner(slots);
    std::vector<std::size_t> payload(slots);
    std::atomic<std::size_t> violations{0};
    std::atomic<std::size_t> max_slot{0};
    for (int call = 0; call < 4; ++call) {
      // Call 1 throws from an ingest, call 2 from a commit.
      const std::size_t first = static_cast<std::size_t>(call) * kTraces;
      const std::size_t bad = first + 14;
      const auto ingest = [&](unsigned, const qc::WorkerPool::Block& blk) {
        std::size_t seen = max_slot.load(std::memory_order_relaxed);
        while (blk.slot > seen &&
               !max_slot.compare_exchange_weak(seen, blk.slot)) {
        }
        if (blk.slot >= slots) {
          violations.fetch_add(1);
          return;
        }
        if (owner[blk.slot].exchange(blk.first + 1,
                                     std::memory_order_relaxed) != kFree)
          violations.fetch_add(1);
        payload[blk.slot] = blk.first;
        if (call == 1 && blk.first == bad) throw std::runtime_error("ingest");
      };
      std::size_t committed = first;
      const auto commit = [&](const qc::WorkerPool::Block& blk) {
        std::this_thread::sleep_for(std::chrono::microseconds(200));
        EXPECT_EQ(blk.first, committed) << "commit out of order";
        committed += blk.count;
        if (blk.slot >= slots) return;
        EXPECT_EQ(payload[blk.slot], blk.first);
        if (call == 2 && blk.first == bad) throw std::runtime_error("commit");
        if (owner[blk.slot].exchange(kFree, std::memory_order_relaxed) !=
            blk.first + 1)
          violations.fetch_add(1);
      };
      qc::AcquisitionStats st;
      try {
        pool.run({{first, first + kTraces}}, /*seed=*/3, kBlock, {}, ingest,
                 commit, st);
        EXPECT_TRUE(call != 1 && call != 2) << "the exception was swallowed";
        EXPECT_EQ(committed, first + kTraces);
      } catch (const std::runtime_error&) {
        EXPECT_TRUE(call == 1 || call == 2) << "call " << call << " threw";
        // The pool gave up the blocks it never committed: their slots
        // are free for the next call.
        for (std::atomic<std::size_t>& o : owner) o.store(kFree);
      }
      for (const std::atomic<std::size_t>& o : owner)
        EXPECT_EQ(o.load(), kFree);
    }
    EXPECT_EQ(violations.load(), 0u);
    EXPECT_LT(max_slot.load(), slots);
  }
}

// ---- end-to-end key recovery -----------------------------------------------

TEST(CampaignEndToEnd, RecoversDesSubkeyOnUnbalancedSlice) {
  qc::Dpa cfg;
  cfg.compute_mtd = true;
  cfg.mtd_start = 40;
  cfg.mtd_step = 40;
  const qc::CampaignResult r =
      qc::Campaign()
          .target(qc::des_sbox_slice())
          .key(0x2b)
          .seed(31337)
          .traces(400)
          .threads(2)
          .prepare([](qn::Netlist& nl) {
            // What an uncontrolled P&R does: unbalance the S-Box outputs.
            for (qn::ChannelId ch = 0; ch < nl.num_channels(); ++ch) {
              const qn::Channel& c = nl.channel(ch);
              if (c.name.find("sbox/out") != std::string::npos)
                nl.net(c.rails[1]).cap_ff *= 1.8;
            }
          })
          .attack(cfg)
          .rank_trajectory(100)
          .run();

  ASSERT_TRUE(r.attack.has_value());
  EXPECT_EQ(r.attack->kind, "dpa");
  EXPECT_EQ(r.attack->best_guess, 0x2bu);
  EXPECT_EQ(r.attack->true_key_rank, 0u);
  EXPECT_TRUE(r.key_recovered());
  EXPECT_GT(r.attack->known_key_bias_peak, 0.0);
  // MTD scans with the single-bit D-function, which is weaker than the
  // multi-bit recovery above; 0 means "not stably recovered at this
  // budget" and is a legal outcome — but it must never exceed the budget.
  EXPECT_LE(r.attack->mtd, r.traces.size());
  EXPECT_GT(r.max_da, 0.0);  // the injected dissymmetry shows in dA

  // Trajectory: rank must settle at 0 by the full trace budget.
  ASSERT_FALSE(r.rank_trajectory.empty());
  EXPECT_EQ(r.rank_trajectory.back().traces, r.traces.size());
  EXPECT_EQ(r.rank_trajectory.back().rank, 0u);
}

TEST(CampaignEndToEnd, CpaAgreesOnTheSameCampaign) {
  const qc::CampaignResult r =
      qc::Campaign()
          .target(qc::des_sbox_slice())
          .key(0x19)
          .seed(777)
          .traces(400)
          .prepare([](qn::Netlist& nl) {
            for (qn::ChannelId ch = 0; ch < nl.num_channels(); ++ch) {
              const qn::Channel& c = nl.channel(ch);
              if (c.name.find("sbox/out") != std::string::npos)
                nl.net(c.rails[1]).cap_ff *= 1.8;
            }
          })
          .attack(qc::Cpa{})
          .run();
  ASSERT_TRUE(r.attack.has_value());
  EXPECT_EQ(r.attack->kind, "cpa");
  EXPECT_EQ(r.attack->true_key_rank, 0u);
}

TEST(CampaignEndToEnd, AesCoreGoldenPathFusedCpaAndFaultProbe) {
#ifdef QDI_SANITIZER_ACTIVE
  GTEST_SKIP() << "25k-cell campaigns are minutes-long under sanitizers";
#endif
  const std::uint64_t key = 0x2b7e151628aed2a6ull;

  // Golden path: every materialized trace of the full core decodes to
  // exactly what the crypto::aes-derived reference computes for its
  // plaintext record (data_out and nk_out, all 64 rail-group values).
  const qc::TargetInstance ref = qc::aes_core().build(key);
  const qc::CampaignResult mat =
      qc::Campaign().target(qc::aes_core()).key(key).seed(5).traces(8).run();
  ASSERT_EQ(mat.traces.size(), 8u);
  EXPECT_GT(mat.acquisition.transitions, 0u);
  for (std::size_t i = 0; i < mat.traces.size(); ++i) {
    const auto pt = mat.traces.plaintext(i);
    const std::vector<int> want =
        ref.golden(std::vector<std::uint8_t>(pt.begin(), pt.end()));
    // Trace ciphertexts pack the decoded output-channel bits LSB-first.
    std::vector<std::uint8_t> packed((want.size() + 7) / 8, 0);
    for (std::size_t b = 0; b < want.size(); ++b)
      if (want[b]) packed[b / 8] |= static_cast<std::uint8_t>(1u << (b % 8));
    const auto got = mat.traces.ciphertext(i);
    ASSERT_EQ(got.size(), packed.size()) << "trace " << i;
    for (std::size_t j = 0; j < packed.size(); ++j)
      EXPECT_EQ(got[j], packed[j]) << "trace " << i << " byte " << j;
  }

  // Fused CPA through the standard streaming path: the 256-guess
  // first-round S-Box analysis runs on the whole core without ever
  // materializing a TraceSet.
  const qc::CampaignResult fused = qc::Campaign()
                                       .target(qc::aes_core())
                                       .key(key)
                                       .seed(5)
                                       .traces(64)
                                       .fused(16)
                                       .attack(qc::Cpa{})
                                       .run();
  ASSERT_TRUE(fused.attack.has_value());
  EXPECT_EQ(fused.attack->kind, "cpa");
  EXPECT_EQ(fused.traces.size(), 0u);  // fused mode keeps no samples
  EXPECT_LT(fused.attack->best_guess, 256u);
  EXPECT_LT(fused.attack->true_key_rank, 256u);

  // Bounded fault probe: a handful of injection sites on the full core
  // classify through the same deadlock/masked/exploitable machinery as
  // the slice targets.
  qc::FaultCampaignOptions probe;
  probe.max_sites = 4;
  probe.repeats = 1;
  const qc::CampaignResult faulted = qc::Campaign()
                                         .target(qc::aes_core())
                                         .key(key)
                                         .seed(5)
                                         .faults(probe)
                                         .run();
  ASSERT_TRUE(faulted.faults.has_value());
  EXPECT_GT(faulted.faults->summary.runs, 0u);
  EXPECT_EQ(faulted.faults->summary.runs,
            faulted.faults->summary.deadlock + faulted.faults->summary.masked +
                faulted.faults->summary.exploitable);
}

TEST(CampaignFlow, FlowOnlyCampaignEvaluatesCriterion) {
  qdi::core::FlowOptions flow;
  flow.placer.mode = qdi::pnr::FlowMode::Flat;
  flow.placer.seed = 3;
  flow.placer.moves_per_cell = 4;
  const qc::CampaignResult r =
      qc::Campaign().target(qc::xor_stage()).flow(flow).run();
  ASSERT_TRUE(r.flow.has_value());
  EXPECT_FALSE(r.criteria.empty());
  EXPECT_GE(r.max_da, 0.0);
  EXPECT_EQ(r.traces.size(), 0u);
  EXPECT_FALSE(r.attack.has_value());
  EXPECT_GT(r.nl.num_gates(), 0u);
}
