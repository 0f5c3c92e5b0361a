// Fault-injection subsystem tests: forced-value semantics in both
// engines, engine equivalence under an armed fault, the
// HandshakeOutcome deadlock primitive, fault-sweep classification and
// its determinism contract, DFA key recovery, the golden-path
// equivalence of every simulatable registry target, and the
// configuration guards.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "qdi/qdi.hpp"

namespace qc = qdi::campaign;
namespace qg = qdi::gates;
namespace qn = qdi::netlist;
namespace qs = qdi::sim;
namespace qu = qdi::util;
using qn::CellKind;

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// a --inv--> b --inv--> c : the smallest circuit with a gate-driven net
/// to fault (b) and a primary input to shadow (a).
struct InvChain {
  qn::Netlist nl{"invchain"};
  qn::NetId a, b, c;
  InvChain() {
    a = nl.add_input("a");
    b = nl.add_net("b");
    c = nl.add_net("c");
    nl.add_cell(CellKind::Inv, "i1", {a}, b);
    nl.add_cell(CellKind::Inv, "i2", {b}, c);
    nl.mark_output(c, "c");
  }
};

std::unique_ptr<qs::SimEngine> make_engine(const qn::Netlist& nl,
                                           qs::EngineKind kind) {
  if (kind == qs::EngineKind::Reference)
    return std::make_unique<qs::Simulator>(nl);
  return std::make_unique<qs::CompiledSimulator>(qs::compile(nl));
}

struct EngineCase {
  const char* label;
  qs::EngineKind kind;
};

constexpr EngineCase kEngines[] = {
    {"reference", qs::EngineKind::Reference},
    {"compiled", qs::EngineKind::Compiled},
};

/// A fault sweep alone: a campaign with faults(opt) and no traces.
qc::FaultCampaignResult fault_sweep(
    qc::CircuitTarget target, std::uint64_t key, std::uint64_t seed,
    unsigned threads, const qc::FaultCampaignOptions& opt,
    qs::EngineKind engine = qs::EngineKind::Compiled) {
  qc::CampaignResult r = qc::Campaign()
                             .target(std::move(target))
                             .key(key)
                             .seed(seed)
                             .threads(threads)
                             .engine(engine)
                             .faults(opt)
                             .run();
  return std::move(*r.faults);
}

}  // namespace

// ---- forced-value semantics (both engines) ---------------------------------

TEST(ForceSemantics, StuckAtPinsNetAgainstDriver) {
  for (const EngineCase& ec : kEngines) {
    SCOPED_TRACE(ec.label);
    InvChain f;
    auto sim = make_engine(f.nl, ec.kind);
    sim->initialize();
    sim->run_until_stable();
    ASSERT_TRUE(sim->value(f.b));  // inv(0)

    // Stuck-at-1 on b: driving a high would normally pull b low.
    sim->arm_force(f.b, true, sim->now() + 10.0, kInf);
    sim->run_until_stable();
    EXPECT_EQ(sim->armed_forces(), 1u);
    sim->drive(f.a, true, sim->now() + 100.0);
    sim->run_until_stable();
    EXPECT_TRUE(sim->value(f.a));
    EXPECT_TRUE(sim->value(f.b)) << "stuck-at-1 must override the driver";
    EXPECT_FALSE(sim->value(f.c));

    sim->clear_forces();
    EXPECT_EQ(sim->armed_forces(), 0u);
  }
}

TEST(ForceSemantics, GlitchReleasesAndGateRecovers) {
  for (const EngineCase& ec : kEngines) {
    SCOPED_TRACE(ec.label);
    InvChain f;
    auto sim = make_engine(f.nl, ec.kind);
    sim->initialize();
    sim->run_until_stable();
    ASSERT_TRUE(sim->value(f.b));

    // Transient 0 on b for 300 ps; the driving inverter must re-assert
    // b = inv(a) = 1 after the window closes.
    const double t0 = sim->now() + 50.0;
    sim->arm_force(f.b, false, t0, t0 + 300.0);
    sim->run_until_stable();
    EXPECT_EQ(sim->armed_forces(), 0u) << "transient must self-disarm";
    EXPECT_TRUE(sim->value(f.b)) << "gate must recover after the window";
    EXPECT_FALSE(sim->value(f.c));
  }
}

TEST(ForceSemantics, InputForceReplaysShadowedDrive) {
  for (const EngineCase& ec : kEngines) {
    SCOPED_TRACE(ec.label);
    InvChain f;
    auto sim = make_engine(f.nl, ec.kind);
    sim->initialize();
    sim->run_until_stable();

    // Raise the input, then hold it high while the environment drives a
    // falling edge into the window: the edge is swallowed by the force
    // (shadowed) and replays at release.
    sim->drive(f.a, true, sim->now() + 10.0);
    sim->run_until_stable();
    ASSERT_TRUE(sim->value(f.a));
    const double t0 = sim->now() + 50.0;
    sim->arm_force(f.a, true, t0, t0 + 500.0);
    sim->drive(f.a, false, t0 + 100.0);
    sim->run_until_stable();
    EXPECT_FALSE(sim->value(f.a)) << "swallowed drive must replay at release";
    EXPECT_TRUE(sim->value(f.b));
  }
}

TEST(ForceSemantics, ArmValidation) {
  for (const EngineCase& ec : kEngines) {
    SCOPED_TRACE(ec.label);
    InvChain f;
    auto sim = make_engine(f.nl, ec.kind);
    sim->initialize();
    sim->run_until_stable();
    const double t = sim->now();
    EXPECT_THROW(sim->arm_force(999, true, t + 1.0, kInf),
                 std::invalid_argument);
    EXPECT_THROW(sim->arm_force(f.b, true, t - 1.0, kInf),
                 std::invalid_argument);  // window starts in the past
    EXPECT_THROW(sim->arm_force(f.b, true, t + 10.0, t + 10.0),
                 std::invalid_argument);  // empty window
    sim->arm_force(f.b, true, t + 10.0, kInf);
    EXPECT_THROW(sim->arm_force(f.b, false, t + 20.0, kInf),
                 std::invalid_argument);  // double-arm
  }
}

TEST(ForceSemantics, CompiledSnapshotWithArmedForceThrows) {
  InvChain f;
  qs::CompiledSimulator sim(qs::compile(f.nl));
  sim.initialize();
  sim.run_until_stable();
  sim.arm_force(f.b, true, sim.now() + 10.0, kInf);
  EXPECT_THROW((void)sim.save_epoch(), std::logic_error);
}

// ---- engine equivalence under a fault -------------------------------------

TEST(ForceEquivalence, EnginesBitIdenticalUnderArmedFault) {
  const qc::TargetInstance inst = qc::des_sbox_slice().build(0x2b);
  const std::vector<qn::NetId> sites = qs::fault_sites(inst.nl);
  ASSERT_GE(sites.size(), 3u);

  qs::EnvSpec spec = inst.env;
  spec.strict = false;

  const auto faulted_log = [&](const EngineCase& ec, qn::NetId site,
                               qs::FaultKind kind) {
    auto sim = make_engine(inst.nl, ec.kind);
    qs::FourPhaseEnv env(*sim, spec);
    sim->reset_state();
    env.apply_reset();
    qs::TransitionLog log;
    sim->set_power_sink(&log);
    qu::Rng rng = qu::split_stream(7, 0, qu::kFaultDomain);
    qc::Stimulus stim;
    inst.stimulus(rng, 0, stim);
    qs::FaultInjector inj(*sim);
    inj.arm({site, kind, 500.0, 200.0}, env.next_cycle_start());
    qs::FourPhaseEnv::CycleResult cyc;
    env.send_into(stim.values, cyc);
    sim->set_power_sink(nullptr);
    return log.transitions;
  };

  for (std::size_t i : {std::size_t{0}, sites.size() / 2, sites.size() - 1}) {
    for (qs::FaultKind kind : {qs::FaultKind::StuckAt1, qs::FaultKind::Glitch0}) {
      SCOPED_TRACE(std::string("site ") + std::to_string(sites[i]) + " kind " +
                   qs::name(kind));
      const std::vector<qs::Transition> ref =
          faulted_log(kEngines[0], sites[i], kind);
      ASSERT_FALSE(ref.empty());
      const std::vector<qs::Transition> got =
          faulted_log(kEngines[1], sites[i], kind);
      ASSERT_EQ(got.size(), ref.size());
      for (std::size_t k = 0; k < ref.size(); ++k) {
        EXPECT_EQ(got[k].net, ref[k].net) << "transition " << k;
        EXPECT_EQ(got[k].rising, ref[k].rising) << "transition " << k;
        EXPECT_DOUBLE_EQ(got[k].t_ps, ref[k].t_ps) << "transition " << k;
      }
    }
  }
}

// ---- the HandshakeOutcome deadlock primitive -------------------------------

TEST(HandshakeOutcome, FaultFreeCycleCompletes) {
  const qc::TargetInstance inst = qc::des_sbox_slice().build(0x2b);
  qs::EnvSpec spec = inst.env;
  spec.strict = false;
  qs::Simulator sim(inst.nl);
  qs::FourPhaseEnv env(sim, spec);
  sim.reset_state();
  env.apply_reset();
  qu::Rng rng(3);
  qc::Stimulus stim;
  inst.stimulus(rng, 0, stim);
  const auto cyc = env.send(stim.values);
  EXPECT_TRUE(cyc.ok);
  EXPECT_TRUE(cyc.handshake.completed);
  EXPECT_EQ(cyc.handshake.stalled_phase, qs::HandshakePhase::None);
}

TEST(HandshakeOutcome, StuckOutputRailStallsDataValidWithChannel) {
  const qc::TargetInstance inst = qc::des_sbox_slice().build(0x2b);
  qs::EnvSpec spec = inst.env;
  spec.strict = false;
  const qn::ChannelId out_ch = spec.outputs.front();
  qs::Simulator sim(inst.nl);
  qs::FourPhaseEnv env(sim, spec);
  sim.reset_state();
  env.apply_reset();
  // Pin both rails of the first output channel low: it can never become
  // valid and phase 1 must stall on exactly that channel.
  for (qn::NetId rail : inst.nl.channel(out_ch).rails)
    sim.arm_force(rail, false, env.next_cycle_start(), kInf);
  qu::Rng rng(3);
  qc::Stimulus stim;
  inst.stimulus(rng, 0, stim);
  const auto cyc = env.send(stim.values);
  EXPECT_FALSE(cyc.ok);
  EXPECT_FALSE(cyc.handshake.completed);
  EXPECT_EQ(cyc.handshake.stalled_phase, qs::HandshakePhase::DataValid);
  EXPECT_EQ(cyc.handshake.stalling_channel, out_ch);
}

// ---- fault sweep: classification and determinism --------------------------

TEST(FaultCampaign, ClassificationDeterministicAcrossThreads) {
  qc::FaultCampaignOptions opt;
  opt.max_sites = 10;
  opt.repeats = 3;
  const auto sweep = [&](unsigned threads) {
    return fault_sweep(qc::des_sbox_slice(), 0x2b, 99, threads, opt);
  };
  const qc::FaultCampaignResult ref = sweep(1);
  EXPECT_EQ(ref.summary.runs, ref.records.size());
  EXPECT_EQ(ref.summary.runs,
            ref.summary.deadlock + ref.summary.masked + ref.summary.exploitable)
      << "every injection must land in exactly one class";
  for (unsigned threads : {2u, 3u}) {
    SCOPED_TRACE(threads);
    const qc::FaultCampaignResult got = sweep(threads);
    ASSERT_EQ(got.records.size(), ref.records.size());
    for (std::size_t i = 0; i < ref.records.size(); ++i) {
      EXPECT_EQ(got.records[i].net, ref.records[i].net) << "run " << i;
      EXPECT_EQ(got.records[i].cls, ref.records[i].cls) << "run " << i;
      EXPECT_EQ(got.records[i].plaintext, ref.records[i].plaintext)
          << "run " << i;
      EXPECT_EQ(got.records[i].golden, ref.records[i].golden) << "run " << i;
    }
  }
}

TEST(FaultCampaign, StimulusErrorIsRethrownAtAnyThreadCount) {
  // One injection swept over 16 plaintext repeats: stimulus index k is
  // run k, so the throwing stimulus fails exactly one run.
  const qc::TargetInstance base = qc::des_sbox_slice().build(0x2b);
  const qdi::netlist::NetId site =
      qs::fault_sites(base.nl, std::vector<std::string>{"addkey0"}).front();
  qc::FaultCampaignOptions opt;
  opt.sites = {site};
  opt.kinds = {qs::FaultKind::StuckAt1};
  opt.repeats = 16;
  const auto sweep = [&](qc::StimulusFn stimulus, unsigned threads) {
    qc::TargetInstance inst = base;
    inst.stimulus = std::move(stimulus);
    return fault_sweep(qc::prebuilt(std::move(inst)), 0x2b, 7, threads, opt);
  };
  const qc::StimulusFn throwing = [clean = base.stimulus](
                                      qu::Rng& rng, std::size_t index,
                                      qc::Stimulus& st) {
    if (index == 11) throw std::runtime_error("stimulus failed at run 11");
    clean(rng, index, st);
  };
  for (unsigned threads : {1u, 4u}) {
    SCOPED_TRACE(threads);
    try {
      sweep(throwing, threads);
      ADD_FAILURE() << "the stimulus exception was swallowed";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "stimulus failed at run 11");
    }
  }
  // A clean sweep afterwards is unaffected by the failed ones.
  const qc::FaultCampaignResult ref = sweep(base.stimulus, 1);
  const qc::FaultCampaignResult got = sweep(base.stimulus, 4);
  ASSERT_EQ(ref.records.size(), 16u);
  ASSERT_EQ(got.records.size(), ref.records.size());
  for (std::size_t i = 0; i < ref.records.size(); ++i) {
    EXPECT_EQ(got.records[i].cls, ref.records[i].cls) << "run " << i;
    EXPECT_EQ(got.records[i].plaintext, ref.records[i].plaintext)
        << "run " << i;
    EXPECT_EQ(got.records[i].golden, ref.records[i].golden) << "run " << i;
    EXPECT_EQ(got.records[i].faulty, ref.records[i].faulty) << "run " << i;
    EXPECT_EQ(got.records[i].stalled_phase, ref.records[i].stalled_phase)
        << "run " << i;
  }
}

TEST(FaultCampaign, ReferenceEngineAgreesWithCompiled) {
  qc::FaultCampaignOptions opt;
  opt.max_sites = 6;
  opt.repeats = 2;
  const auto sweep = [&](qs::EngineKind kind) {
    return fault_sweep(qc::des_sbox_slice(), 0x15, 5, 1, opt, kind);
  };
  const qc::FaultCampaignResult a = sweep(qs::EngineKind::Compiled);
  const qc::FaultCampaignResult b = sweep(qs::EngineKind::Reference);
  ASSERT_EQ(a.records.size(), b.records.size());
  for (std::size_t i = 0; i < a.records.size(); ++i) {
    EXPECT_EQ(a.records[i].cls, b.records[i].cls) << "run " << i;
    EXPECT_EQ(a.records[i].faulty, b.records[i].faulty) << "run " << i;
  }
}

TEST(FaultCampaign, QdiDualRailYieldsNoExploitableFaults) {
  // The paper's security claim: stuck rails on a QDI dual-rail victim
  // starve completion (deadlock) or are absorbed (masked) — they never
  // emit a valid-looking wrong ciphertext.
  qc::FaultCampaignOptions opt;
  opt.max_sites = 16;
  opt.repeats = 3;
  for (const char* target : {"des_sbox_slice", "aes_byte_slice"}) {
    SCOPED_TRACE(target);
    const qc::FaultCampaignResult r =
        fault_sweep(qc::find_target(target), 0x2b, 31337, 2, opt);
    EXPECT_EQ(r.summary.exploitable, 0u)
        << "QDI target leaked DFA material";
    EXPECT_GT(r.summary.deadlock, 0u)
        << "stuck rails must stall the handshake somewhere";
    EXPECT_FALSE(r.dfa.has_value());
  }
}

TEST(FaultCampaign, SyncCounterexampleIsExploitableAndDfaRecoversKey) {
  const std::uint8_t key = 0x2b;
  qc::FaultCampaignOptions opt;
  opt.site_filters = {"addkey0"};
  opt.repeats = 16;
  const qc::FaultCampaignResult r =
      fault_sweep(qc::des_sbox_sync(), key, 31337, 2, opt);
  EXPECT_GT(r.summary.exploitable, 0u)
      << "the sync-style victim must emit wrong ciphertexts";
  EXPECT_EQ(r.summary.deadlock, 0u)
      << "faked completion never stalls the handshake";
  ASSERT_TRUE(r.dfa.has_value());
  EXPECT_EQ(r.dfa->rank_of(r.true_guess), 0u)
      << "DFA must recover the 6-bit subkey exactly";
  EXPECT_EQ(r.dfa->best_guess, static_cast<unsigned>(key));
}

TEST(FaultCampaign, TransientGlitchesAreClassifiedToo) {
  qc::FaultCampaignOptions opt;
  opt.max_sites = 8;
  opt.kinds = {qs::FaultKind::Glitch0, qs::FaultKind::Glitch1};
  opt.times_ps = {0.0, 1000.0};
  opt.glitch_ps = 400.0;
  opt.repeats = 2;
  const qc::FaultCampaignResult r =
      fault_sweep(qc::des_sbox_slice(), 0x07, 11, 1, opt);
  EXPECT_EQ(r.summary.runs, r.injections * 2);
  EXPECT_EQ(r.summary.runs,
            r.summary.deadlock + r.summary.masked + r.summary.exploitable);
  EXPECT_EQ(r.summary.exploitable, 0u);
}

// ---- Campaign::faults() integration ----------------------------------------

TEST(CampaignFaults, ProbeMatchesStandaloneFaultCampaign) {
  qc::FaultCampaignOptions opt;
  opt.max_sites = 8;
  opt.repeats = 2;
  const qc::CampaignResult via_campaign = qc::Campaign()
                                              .target(qc::des_sbox_slice())
                                              .key(0x2b)
                                              .seed(123)
                                              .threads(2)
                                              .faults(opt)
                                              .run();
  ASSERT_TRUE(via_campaign.faults.has_value());
  const qc::TargetInstance inst = qc::des_sbox_slice().build(0x2b);
  const qc::FaultCampaignResult standalone = qc::run_fault_campaign(
      inst, 0x2b, opt, qc::SimTraceSourceOptions{}, 123, 2);
  ASSERT_EQ(via_campaign.faults->records.size(), standalone.records.size());
  for (std::size_t i = 0; i < standalone.records.size(); ++i) {
    EXPECT_EQ(via_campaign.faults->records[i].net, standalone.records[i].net);
    EXPECT_EQ(via_campaign.faults->records[i].cls, standalone.records[i].cls);
  }
  EXPECT_EQ(via_campaign.faults->summary.deadlock,
            standalone.summary.deadlock);
}

TEST(CampaignFaults, SweepSeesThePreparedVictim) {
  // The recipe adds cells, so the prepared victim has more gate-driven
  // nets than the registry build: the sweep must enumerate the former.
  qc::FaultCampaignOptions opt;
  opt.kinds = {qs::FaultKind::StuckAt0};
  opt.repeats = 1;
  opt.run_dfa = false;
  const qc::CampaignResult r = qc::Campaign()
                                   .target(qc::aes_byte_slice())
                                   .key(0x4f)
                                   .threads(2)
                                   .recipe(qdi::xform::balanced())
                                   .faults(opt)
                                   .run();
  ASSERT_TRUE(r.faults.has_value());
  ASSERT_TRUE(r.xform.has_value());
  ASSERT_GT(r.xform->cells_added(), 0u);
  EXPECT_EQ(r.faults->sites, qs::fault_sites(r.nl).size());
  const qc::TargetInstance raw = qc::aes_byte_slice().build(0x4f);
  EXPECT_NE(r.faults->sites, qs::fault_sites(raw.nl).size());
}

TEST(CampaignFaults, TablesRenderFaultColumns) {
  qc::FaultCampaignOptions opt;
  opt.max_sites = 4;
  opt.repeats = 1;
  const qc::FaultCampaignResult r =
      fault_sweep(qc::dual_rail_pair(), 0, 1, 1, opt);
  const std::string text = r.table().to_string();
  EXPECT_NE(text.find("deadlock"), std::string::npos);
  EXPECT_NE(text.find("exploitable"), std::string::npos);
}

// ---- configuration guards (satellite: consistency) -------------------------

TEST(FaultGuards, CustomSourcePlusFaultsThrows) {
  qc::Campaign c;
  c.target(qc::des_sbox_slice())
      .traces(4)
      .faults(qc::FaultCampaignOptions{})
      .source([](const qc::TargetInstance& inst,
                 const qc::SimTraceSourceOptions& opt) {
        return std::make_unique<qc::SimTraceSource>(inst.nl, inst.env,
                                                    inst.stimulus, opt);
      });
  EXPECT_THROW(c.run(), std::invalid_argument);
}

TEST(FaultGuards, FlowOnlyTargetThrows) {
  // aes_core is simulatable these days; a flow-only victim is modeled
  // with an explicit prebuilt instance that opted out of simulation.
  const auto flow_only = [] {
    qc::TargetInstance inst;
    inst.nl = qn::Netlist("flow_only");
    inst.simulatable = false;
    inst.name = "flow_only";
    return inst;
  };
  EXPECT_THROW(qc::Campaign()
                   .target(qc::prebuilt(flow_only()))
                   .faults(qc::FaultCampaignOptions{})
                   .run(),
               std::invalid_argument);
  EXPECT_THROW(qc::run_fault_campaign(flow_only(), 0, {}, {}, 1, 1),
               std::invalid_argument);
}

TEST(FaultGuards, DegenerateSweepGridsThrow) {
  const auto sweep = [](const qc::FaultCampaignOptions& opt) {
    return fault_sweep(qc::des_sbox_slice(), 0, 1, 1, opt);
  };
  const qc::FaultCampaignOptions base;
  EXPECT_THROW(qc::Campaign().faults(base).run(),
               std::invalid_argument);  // no target
  qc::FaultCampaignOptions opt = base;
  opt.kinds = {};
  EXPECT_THROW(sweep(opt), std::invalid_argument);
  opt = base;
  opt.times_ps = {};
  EXPECT_THROW(sweep(opt), std::invalid_argument);
  opt = base;
  opt.repeats = 0;
  EXPECT_THROW(sweep(opt), std::invalid_argument);
  opt = base;
  opt.site_filters = {"no_such_net_name"};
  EXPECT_THROW(sweep(opt), std::invalid_argument);
  opt = base;
  opt.sites = {qn::NetId{1u << 30}};
  EXPECT_THROW(sweep(opt), std::invalid_argument);
}

TEST(FaultGuards, DfaTargetWithTrueGuessOutsideTheGuessesThrows) {
  // A fault-only campaign sets no attack, so Campaign::validate does not
  // check true_guess; the sweep itself must, before a DFA verdict is
  // ranked against it.
  qc::TargetInstance inst = qc::des_sbox_sync().build(0x2b);
  ASSERT_TRUE(static_cast<bool>(inst.dfa));
  inst.true_guess = inst.num_guesses;
  qc::FaultCampaignOptions opt;
  opt.site_filters = {"addkey0"};
  const std::string want = "true_guess " + std::to_string(inst.num_guesses) +
                           ", outside its " +
                           std::to_string(inst.num_guesses) + " guesses";
  try {
    qc::run_fault_campaign(inst, 0x2b, opt, {}, 1, 1);
    ADD_FAILURE() << "run_fault_campaign accepted the true_guess";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(want), std::string::npos)
        << e.what();
  }
  EXPECT_THROW(qc::Campaign()
                   .target(qc::prebuilt(std::move(inst)))
                   .key(0x2b)
                   .faults(opt)
                   .run(),
               std::invalid_argument);
}

// ---- DFA analysis unit tests -----------------------------------------------

TEST(Dfa, RankOfRejectsKeyOutsideTheGuesses) {
  const std::vector<qdi::dpa::DfaPair> pairs = {{0x11, 0x22, 0x23}};
  const qdi::dpa::DfaResult r =
      qdi::dpa::dfa_attack(qdi::dpa::des_sbox_dfa_model(0), pairs, 64);
  EXPECT_NO_THROW(r.rank_of(63));
  try {
    (void)r.rank_of(64);
    ADD_FAILURE() << "rank_of accepted key 64 of 64 guesses";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("key 64 outside [0, 64)"),
              std::string::npos)
        << e.what();
  }
}

TEST(Dfa, AesModelRecoversKeyFromSyntheticSingleBitFaults) {
  const std::uint8_t key = 0x4f;
  std::vector<qdi::dpa::DfaPair> pairs;
  qu::Rng rng(17);
  for (int i = 0; i < 24; ++i) {
    const auto p = static_cast<std::uint8_t>(rng.below(256));
    const auto e = static_cast<std::uint8_t>(1u << rng.below(8));
    const std::uint8_t in = p ^ key;
    pairs.push_back({p, qdi::crypto::aes_sbox(in),
                     qdi::crypto::aes_sbox(static_cast<std::uint8_t>(in ^ e))});
  }
  const qdi::dpa::DfaResult r =
      qdi::dpa::dfa_attack(qdi::dpa::aes_sbox_dfa_model(), pairs, 256);
  EXPECT_EQ(r.rank_of(key), 0u);
  EXPECT_EQ(r.best_guess, key);
  EXPECT_EQ(r.pairs_used, pairs.size());
  EXPECT_GE(r.best_votes, r.second_votes);
}

TEST(Dfa, GoldenEqualsFaultyPairsAreSkipped) {
  std::vector<qdi::dpa::DfaPair> pairs(5, qdi::dpa::DfaPair{0x11, 0x22, 0x22});
  const qdi::dpa::DfaResult r =
      qdi::dpa::dfa_attack(qdi::dpa::des_sbox_dfa_model(0), pairs, 64);
  EXPECT_EQ(r.pairs_used, 0u);
  EXPECT_EQ(r.survivors, 64u) << "no information: every guess survives";
}

// ---- golden path: simulation matches the crypto:: reference ----------------

TEST(GoldenPath, SimulatedOutputsMatchReferenceForAllRegistryTargets) {
  for (const std::string& name : qc::list_targets()) {
    SCOPED_TRACE(name);
    const qc::TargetInstance inst = qc::find_target(name).build(0x2b);
    if (!inst.simulatable || !inst.stimulus || !inst.golden) continue;

    qs::Simulator sim(inst.nl);
    qs::FourPhaseEnv env(sim, inst.env);
    sim.reset_state();
    env.apply_reset();
    qc::Stimulus stim;
    for (std::size_t i = 0; i < 6; ++i) {
      qu::Rng rng = qu::split_stream(42, i);
      inst.stimulus(rng, i, stim);
      const auto cyc = env.send(stim.values);
      ASSERT_TRUE(cyc.ok) << "fault-free cycle " << i << " failed";
      EXPECT_EQ(cyc.outputs, inst.golden(stim.plaintext)) << "cycle " << i;
    }
  }
}

// ---- fault_sites helper ----------------------------------------------------

TEST(FaultSites, GateDrivenNetsOnlyAndFilterable) {
  const qc::TargetInstance inst = qc::des_sbox_slice().build(0);
  const std::vector<qn::NetId> all = qs::fault_sites(inst.nl);
  ASSERT_FALSE(all.empty());
  for (qn::NetId n : all) {
    const qn::CellId d = inst.nl.net(n).driver;
    ASSERT_NE(d, qn::kNoCell);
    EXPECT_NE(inst.nl.cell(d).kind, CellKind::Input);
  }
  const std::vector<std::string> filters = {"sbox"};
  const std::vector<qn::NetId> sbox_only = qs::fault_sites(inst.nl, filters);
  ASSERT_FALSE(sbox_only.empty());
  EXPECT_LT(sbox_only.size(), all.size());
  for (qn::NetId n : sbox_only)
    EXPECT_NE(inst.nl.net(n).name.find("sbox"), std::string::npos);
}
