// Property-based fuzzing of the dual-rail circuit builder: random
// expression DAGs built from the DIMS gate set must, for EVERY input
// assignment,
//   * compute the same value as the software evaluation of the DAG,
//   * complete the four-phase protocol (valid then empty),
//   * fire a constant number of transitions (the QDI balance invariant),
//   * stay glitch-free.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <stdexcept>
#include <vector>

#include "qdi/campaign/batch_trace_source.hpp"
#include "qdi/campaign/trace_source.hpp"
#include "qdi/gates/builder.hpp"
#include "qdi/sim/compiled_simulator.hpp"
#include "qdi/sim/environment.hpp"
#include "qdi/sim/fault.hpp"
#include "qdi/sim/simulator.hpp"
#include "qdi/util/rng.hpp"

namespace qn = qdi::netlist;
namespace qs = qdi::sim;
namespace qg = qdi::gates;
namespace qu = qdi::util;

namespace {

enum class Op { Xor, And, Or, Xnor, Mux, Not };

struct Node {
  Op op;
  int a = -1, b = -1, s = -1;  ///< operand node ids (-1 for unused)
};

/// A random DAG over `num_inputs` leaves; node i only references earlier
/// nodes, so evaluation order is the vector order.
struct ExprDag {
  int num_inputs;
  std::vector<Node> nodes;  ///< ids num_inputs.. follow the leaves
  int root;

  int eval(unsigned input_bits) const {
    std::vector<int> value(static_cast<std::size_t>(num_inputs) + nodes.size());
    for (int i = 0; i < num_inputs; ++i)
      value[static_cast<std::size_t>(i)] = (input_bits >> i) & 1;
    for (std::size_t n = 0; n < nodes.size(); ++n) {
      const Node& node = nodes[n];
      const int va = value[static_cast<std::size_t>(node.a)];
      const int vb = node.b >= 0 ? value[static_cast<std::size_t>(node.b)] : 0;
      int out = 0;
      switch (node.op) {
        case Op::Xor: out = va ^ vb; break;
        case Op::And: out = va & vb; break;
        case Op::Or: out = va | vb; break;
        case Op::Xnor: out = 1 - (va ^ vb); break;
        case Op::Not: out = 1 - va; break;
        case Op::Mux:
          out = value[static_cast<std::size_t>(node.s)] ? vb : va;
          break;
      }
      value[static_cast<std::size_t>(num_inputs) + n] = out;
    }
    return value[static_cast<std::size_t>(root)];
  }
};

ExprDag random_dag(qu::Rng& rng, int num_inputs, int num_nodes) {
  ExprDag dag;
  dag.num_inputs = num_inputs;
  for (int n = 0; n < num_nodes; ++n) {
    Node node;
    const int id_limit = num_inputs + n;
    node.a = static_cast<int>(rng.below(static_cast<std::uint64_t>(id_limit)));
    node.b = static_cast<int>(rng.below(static_cast<std::uint64_t>(id_limit)));
    switch (rng.below(6)) {
      case 0: node.op = Op::Xor; break;
      case 1: node.op = Op::And; break;
      case 2: node.op = Op::Or; break;
      case 3: node.op = Op::Xnor; break;
      case 4: node.op = Op::Not; node.b = -1; break;
      default:
        node.op = Op::Mux;
        node.s = static_cast<int>(rng.below(static_cast<std::uint64_t>(id_limit)));
        break;
    }
    dag.nodes.push_back(node);
  }
  dag.root = num_inputs + num_nodes - 1;
  return dag;
}

/// Instantiate the DAG as dual-rail hardware.
struct Hardware {
  qn::Netlist nl{"fuzz"};
  std::vector<qg::DualRail> inputs;
  qs::EnvSpec spec;

  explicit Hardware(const ExprDag& dag) {
    qg::Builder b(nl);
    std::vector<qg::DualRail> value;
    for (int i = 0; i < dag.num_inputs; ++i) {
      const qg::DualRail in = b.dr_input("i" + std::to_string(i));
      inputs.push_back(in);
      value.push_back(in);
    }
    for (std::size_t n = 0; n < dag.nodes.size(); ++n) {
      const Node& node = dag.nodes[n];
      const std::string name = "n" + std::to_string(n);
      const qg::DualRail a = value[static_cast<std::size_t>(node.a)];
      const qg::DualRail c =
          node.b >= 0 ? value[static_cast<std::size_t>(node.b)] : a;
      qg::DualRail out;
      switch (node.op) {
        case Op::Xor: out = b.dr_xor(a, c, name); break;
        case Op::And: out = b.dr_and(a, c, name); break;
        case Op::Or: out = b.dr_or(a, c, name); break;
        case Op::Xnor: out = b.dr_xnor(a, c, name); break;
        case Op::Not: out = b.dr_not(a); break;
        case Op::Mux:
          out = b.dr_mux2(value[static_cast<std::size_t>(node.s)], a, c, name);
          break;
      }
      value.push_back(out);
    }
    const qg::DualRail root = value[static_cast<std::size_t>(dag.root)];
    b.dr_output(root, "out");
    for (const auto& d : inputs) spec.inputs.push_back(d.ch);
    spec.outputs = {root.ch};
    spec.period_ps = 30000.0;
  }
};

}  // namespace

class FuzzDag : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FuzzDag, FunctionalAndBalanced) {
  qu::Rng rng(GetParam());
  const int num_inputs = 3 + static_cast<int>(rng.below(3));  // 3..5
  const int num_nodes = 4 + static_cast<int>(rng.below(9));   // 4..12
  const ExprDag dag = random_dag(rng, num_inputs, num_nodes);
  Hardware hw(dag);
  ASSERT_TRUE(hw.nl.check().empty());

  qs::Simulator sim(hw.nl);
  qs::FourPhaseEnv env(sim, hw.spec);
  env.apply_reset();

  std::size_t expected_transitions = 0;
  for (unsigned bits = 0; bits < (1u << num_inputs); ++bits) {
    std::vector<int> values(static_cast<std::size_t>(num_inputs));
    for (int i = 0; i < num_inputs; ++i)
      values[static_cast<std::size_t>(i)] = (bits >> i) & 1;
    const auto cyc = env.send(values);
    ASSERT_TRUE(cyc.ok) << "seed " << GetParam() << " bits " << bits;
    EXPECT_EQ(cyc.outputs.at(0), dag.eval(bits))
        << "seed " << GetParam() << " bits " << bits;
    if (expected_transitions == 0)
      expected_transitions = cyc.transitions;
    else
      EXPECT_EQ(cyc.transitions, expected_transitions)
          << "seed " << GetParam() << " bits " << bits;
  }
  EXPECT_EQ(sim.glitch_count(), 0u) << "seed " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(RandomDags, FuzzDag,
                         ::testing::Range<std::uint64_t>(0, 30));

class FuzzSymmetry : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FuzzSymmetry, RegisteredChannelsHaveValidRails) {
  // Structural fuzz: every registered channel's rails are distinct,
  // driven nets.
  qu::Rng rng(GetParam() + 1000);
  const ExprDag dag = random_dag(rng, 4, 8);
  Hardware hw(dag);
  for (const qn::Channel& ch : hw.nl.channels()) {
    for (std::size_t i = 0; i < ch.rails.size(); ++i) {
      EXPECT_NE(hw.nl.net(ch.rails[i]).driver, qn::kNoCell) << ch.name;
      for (std::size_t j = i + 1; j < ch.rails.size(); ++j)
        EXPECT_NE(ch.rails[i], ch.rails[j]) << ch.name;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RandomDags, FuzzSymmetry,
                         ::testing::Range<std::uint64_t>(0, 10));

// ---- epoch-rewind differential fuzz ----------------------------------------
//
// The compiled kernel must match the reference interpreter transition for
// transition on ANY netlist, delay model, stimulus sequence, and epoch
// save/restore pattern. The reference engine has no epochs: on every
// rewind it is rebuilt from scratch and replays the input prefix the
// restored epoch was reached with, so it stays on the compiled kernel's
// absolute timeline through all 24 cycles.
//
// A complete four-phase cycle returns every net to its post-reset value,
// so a rewind between clean cycles reverts nothing. Some rewinds
// therefore follow a cycle with a random fault armed (the fault
// campaign's golden/faulty pattern): a stalled or corrupted cycle leaves
// nets away from the epoch's values, and only a correct dirty-set revert
// puts the kernel back on the reference's timeline.

namespace {

/// Reference engine driven from reset through `prefix`, one cycle each,
/// recording its commits into `log`.
struct ReferenceRun {
  qs::Simulator sim;
  qs::FourPhaseEnv env;
  qs::TransitionLog log;

  ReferenceRun(const qn::Netlist& nl, const qs::DelayModel& dm,
               const qs::EnvSpec& spec,
               const std::vector<std::vector<int>>& prefix)
      : sim(nl, dm), env(sim, spec) {
    sim.set_power_sink(&log);
    env.apply_reset();
    for (const std::vector<int>& values : prefix)
      if (!env.send(values).ok)
        throw std::runtime_error("reference replay: protocol failure");
  }
};

struct FaultedCycle {
  bool threw = false;
  std::vector<int> outputs;
};

/// One cycle with `fs` armed, from the engine's current state; its
/// commits are left in `log`, the engine's attached recorder.
FaultedCycle send_faulted(qs::SimEngine& sim, qs::TransitionLog& log,
                          const qs::EnvSpec& spec, const qs::FaultSpec& fs,
                          const std::vector<int>& values) {
  qs::FourPhaseEnv env(sim, spec);
  log.transitions.clear();
  qs::FaultInjector inj(sim);
  inj.arm(fs, env.next_cycle_start());
  FaultedCycle r;
  try {
    r.outputs = env.send(values).outputs;
  } catch (const std::runtime_error&) {
    r.threw = true;
  }
  inj.disarm();
  return r;
}

void expect_logs_equal(const qs::TransitionLog& log_a,
                       const qs::TransitionLog& log_b, std::uint64_t seed,
                       int cycle) {
  const std::vector<qs::Transition>& a = log_a.transitions;
  const std::vector<qs::Transition>& b = log_b.transitions;
  ASSERT_EQ(a.size(), b.size()) << "seed " << seed << " cycle " << cycle;
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].t_ps, b[i].t_ps)
        << "seed " << seed << " cycle " << cycle << " transition " << i;
    ASSERT_EQ(a[i].net, b[i].net)
        << "seed " << seed << " cycle " << cycle << " transition " << i;
    ASSERT_EQ(a[i].rising, b[i].rising)
        << "seed " << seed << " cycle " << cycle << " transition " << i;
    ASSERT_EQ(a[i].slew_ps, b[i].slew_ps)
        << "seed " << seed << " cycle " << cycle << " transition " << i;
  }
}

}  // namespace

class FuzzEpochs : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FuzzEpochs, CompiledMatchesReferenceAcrossRewinds) {
  qu::Rng rng(GetParam() + 7000);
  const int num_inputs = 2 + static_cast<int>(rng.below(3));  // 2..4
  const int num_nodes = 3 + static_cast<int>(rng.below(10));  // 3..12
  const ExprDag dag = random_dag(rng, num_inputs, num_nodes);
  Hardware hw(dag);
  ASSERT_TRUE(hw.nl.check().empty());

  // Random delay model: stresses the wheel geometry (bucket width and
  // rotation size derive from the delay range) well beyond the default
  // standard-cell calibration, including near-degenerate spreads.
  qs::DelayModel dm;
  dm.base_ps = 1.0 + rng.uniform(0.0, 60.0);
  dm.per_input_ps = rng.uniform(0.0, 10.0);
  dm.per_ff_ps = rng.uniform(0.0, 12.0);
  dm.slew_base_ps = 1.0 + rng.uniform(0.0, 20.0);
  dm.slew_per_ff_ps = rng.uniform(0.0, 8.0);

  qs::CompiledSimulator sim(qs::compile(hw.nl, dm));
  qs::FourPhaseEnv env(sim, hw.spec);
  qs::TransitionLog log;
  sim.set_power_sink(&log);
  env.apply_reset();

  // Faulted cycles stall by design; they run under a tolerant environment.
  qs::EnvSpec tolerant = hw.spec;
  tolerant.strict = false;
  const std::vector<qn::NetId> sites = qs::fault_sites(hw.nl);
  ASSERT_FALSE(sites.empty());

  // Each saved epoch with the inputs sent since reset to reach it.
  std::vector<qs::CompiledSimulator::Epoch> epochs{sim.save_epoch()};
  std::vector<std::vector<std::vector<int>>> prefixes(1);
  std::vector<std::vector<int>> history;
  auto ref = std::make_unique<ReferenceRun>(hw.nl, dm, hw.spec, history);

  for (int cycle = 0; cycle < 24; ++cycle) {
    // Random epoch action: occasionally snapshot the quiescent state or
    // rewind to a random earlier snapshot (the reference replays to it),
    // sometimes right after a faulted cycle.
    const std::uint64_t action = rng.below(8);
    if (action == 0) {
      epochs.push_back(sim.save_epoch());
      prefixes.push_back(history);
    } else if (action == 1 || action == 2) {
      if (action == 2) {
        qs::FaultSpec fs;
        fs.net = sites[rng.below(sites.size())];
        fs.kind = static_cast<qs::FaultKind>(rng.below(4));
        fs.t_offset_ps = rng.uniform(0.0, tolerant.period_ps * 0.5);
        fs.duration_ps = 50.0 + rng.uniform(0.0, 500.0);
        std::vector<int> values(static_cast<std::size_t>(num_inputs));
        for (int i = 0; i < num_inputs; ++i)
          values[static_cast<std::size_t>(i)] = static_cast<int>(rng.below(2));
        const FaultedCycle got = send_faulted(sim, log, tolerant, fs, values);
        const FaultedCycle want =
            send_faulted(ref->sim, ref->log, tolerant, fs, values);
        ASSERT_EQ(got.threw, want.threw)
            << "seed " << GetParam() << " cycle " << cycle;
        ASSERT_EQ(got.outputs, want.outputs)
            << "seed " << GetParam() << " cycle " << cycle;
        expect_logs_equal(log, ref->log, GetParam(), cycle);
        // An oscillation abort leaves events queued; only a full reset
        // drains them (the fault campaign's re-initialization path).
        if (got.threw) {
          sim.reset_state();
          env.apply_reset();
        }
      }
      const std::size_t k = rng.below(epochs.size());
      sim.restore_epoch(epochs[k]);
      history = prefixes[k];
      ref = std::make_unique<ReferenceRun>(hw.nl, dm, hw.spec, history);
    }

    std::vector<int> values(static_cast<std::size_t>(num_inputs));
    for (int i = 0; i < num_inputs; ++i)
      values[static_cast<std::size_t>(i)] = static_cast<int>(rng.below(2));
    history.push_back(values);

    log.transitions.clear();
    ref->log.transitions.clear();
    const auto cc = env.send(values);
    const auto rc = ref->env.send(values);
    ASSERT_TRUE(cc.ok) << "seed " << GetParam() << " cycle " << cycle;
    ASSERT_TRUE(rc.ok) << "seed " << GetParam() << " cycle " << cycle;
    ASSERT_EQ(cc.outputs, rc.outputs)
        << "seed " << GetParam() << " cycle " << cycle;
    ASSERT_EQ(cc.transitions, rc.transitions)
        << "seed " << GetParam() << " cycle " << cycle;
    expect_logs_equal(log, ref->log, GetParam(), cycle);
    ASSERT_EQ(sim.glitch_count(), ref->sim.glitch_count())
        << "seed " << GetParam() << " cycle " << cycle;
    ASSERT_EQ(sim.transition_count(), ref->sim.transition_count())
        << "seed " << GetParam() << " cycle " << cycle;
  }
}

INSTANTIATE_TEST_SUITE_P(RandomDags, FuzzEpochs,
                         ::testing::Range<std::uint64_t>(0, 20));

// ---- fault-injection differential fuzz -------------------------------------
//
// With a randomly armed fault (site, kind, offset, width all fuzzed) the
// compiled kernel must still agree with the reference transition for
// transition: the marker events and forced-value suppression are part of
// the deterministic (t_ps, net, seq) order, whether the faulted cycle
// completes, stalls, or aborts.

class FuzzFaultInjection : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FuzzFaultInjection, EnginesAgreeUnderRandomFaults) {
  qu::Rng rng(GetParam() + 9100);
  const int num_inputs = 2 + static_cast<int>(rng.below(3));
  const int num_nodes = 3 + static_cast<int>(rng.below(10));
  const ExprDag dag = random_dag(rng, num_inputs, num_nodes);
  Hardware hw(dag);
  ASSERT_TRUE(hw.nl.check().empty());
  qs::EnvSpec spec = hw.spec;
  spec.strict = false;  // stalls are an expected outcome, not a bug

  const std::vector<qn::NetId> sites = qs::fault_sites(hw.nl);
  ASSERT_FALSE(sites.empty());
  const auto cn = qs::compile(hw.nl);

  struct Run {
    bool threw = false;
    bool completed = false;
    std::vector<int> outputs;
    std::vector<qs::Transition> log;
  };
  const auto faulted_cycle = [&](qs::SimEngine& sim, const qs::FaultSpec& fs,
                                 const std::vector<int>& values) {
    qs::FourPhaseEnv env(sim, spec);
    sim.reset_state();
    env.apply_reset();
    qs::TransitionLog log;
    sim.set_power_sink(&log);
    qs::FaultInjector inj(sim);
    inj.arm(fs, env.next_cycle_start());
    Run r;
    try {
      const auto cyc = env.send(values);
      r.completed = cyc.handshake.completed;
      r.outputs = cyc.outputs;
    } catch (const std::runtime_error&) {
      r.threw = true;
    }
    sim.set_power_sink(nullptr);
    r.log = std::move(log.transitions);
    return r;
  };

  for (int round = 0; round < 10; ++round) {
    qs::FaultSpec fs;
    fs.net = sites[rng.below(sites.size())];
    fs.kind = static_cast<qs::FaultKind>(rng.below(4));
    fs.t_offset_ps = rng.uniform(0.0, spec.period_ps * 0.5);
    fs.duration_ps = 50.0 + rng.uniform(0.0, 500.0);
    std::vector<int> values(static_cast<std::size_t>(num_inputs));
    for (int i = 0; i < num_inputs; ++i)
      values[static_cast<std::size_t>(i)] = static_cast<int>(rng.below(2));

    qs::Simulator ref_sim(hw.nl);
    qs::CompiledSimulator compiled(cn);
    const Run ref = faulted_cycle(ref_sim, fs, values);
    const Run got = faulted_cycle(compiled, fs, values);
    ASSERT_EQ(got.threw, ref.threw)
        << "seed " << GetParam() << " round " << round;
    ASSERT_EQ(got.completed, ref.completed)
        << "seed " << GetParam() << " round " << round;
    ASSERT_EQ(got.outputs, ref.outputs)
        << "seed " << GetParam() << " round " << round;
    ASSERT_EQ(got.log.size(), ref.log.size())
        << "seed " << GetParam() << " round " << round;
    for (std::size_t i = 0; i < ref.log.size(); ++i) {
      ASSERT_EQ(got.log[i].t_ps, ref.log[i].t_ps)
          << "seed " << GetParam() << " round " << round << " tr " << i;
      ASSERT_EQ(got.log[i].net, ref.log[i].net)
          << "seed " << GetParam() << " round " << round << " tr " << i;
      ASSERT_EQ(got.log[i].rising, ref.log[i].rising)
          << "seed " << GetParam() << " round " << round << " tr " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RandomDags, FuzzFaultInjection,
                         ::testing::Range<std::uint64_t>(0, 12));

// ---- batch-engine differential fuzz ----------------------------------------
//
// Three-way witness for the 64-lane batch kernel: on random DAGs, random
// delay models, and random stimuli, acquisition through the batch engine
// must be bit-identical (samples, ciphertexts, transition and glitch
// counts) to BOTH scalar engines, the reference interpreter and the
// compiled kernel — at batch sizes that hit a single lane, a partial
// block, exactly one full block, and a full block plus a 1-lane tail.

class FuzzBatch : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FuzzBatch, BatchMatchesReferenceAndCompiledAtAwkwardBatchSizes) {
  namespace qc = qdi::campaign;
  qu::Rng rng(GetParam() + 11000);
  const int num_inputs = 2 + static_cast<int>(rng.below(3));  // 2..4
  const int num_nodes = 3 + static_cast<int>(rng.below(10));  // 3..12
  const ExprDag dag = random_dag(rng, num_inputs, num_nodes);
  Hardware hw(dag);
  ASSERT_TRUE(hw.nl.check().empty());

  qs::DelayModel dm;
  dm.base_ps = 1.0 + rng.uniform(0.0, 60.0);
  dm.per_input_ps = rng.uniform(0.0, 10.0);
  dm.per_ff_ps = rng.uniform(0.0, 12.0);
  dm.slew_base_ps = 1.0 + rng.uniform(0.0, 20.0);
  dm.slew_per_ff_ps = rng.uniform(0.0, 8.0);

  // Random dual-rail stimulus; the plaintext byte records the bits so a
  // mismatch pinpoints the offending assignment.
  const int ni = num_inputs;
  const qc::StimulusFn stimulus = [ni](qu::Rng& r, std::size_t,
                                       qc::Stimulus& out) {
    out.values.clear();
    out.plaintext.assign(1, 0);
    for (int i = 0; i < ni; ++i) {
      const int bit = static_cast<int>(r.below(2));
      out.values.push_back(bit);
      out.plaintext[0] |= static_cast<std::uint8_t>(bit << i);
    }
  };

  const auto acquire = [&](qs::EngineKind kind, std::size_t n) {
    qc::SimTraceSourceOptions opt;
    opt.engine = kind;
    opt.delays = dm;
    std::unique_ptr<qc::TraceSource> src;
    if (kind == qs::EngineKind::Batch)
      src = std::make_unique<qc::BatchSimTraceSource>(hw.nl, hw.spec, stimulus,
                                                      opt);
    else
      src = std::make_unique<qc::SimTraceSource>(hw.nl, hw.spec, stimulus, opt);
    return qc::WorkerPool(*src, 1).acquire(n, /*seed=*/GetParam() + 1);
  };

  for (const std::size_t n : {std::size_t{1}, std::size_t{63}, std::size_t{64},
                              std::size_t{65}}) {
    const qdi::dpa::TraceSet ref = acquire(qs::EngineKind::Reference, n);
    const qdi::dpa::TraceSet compiled = acquire(qs::EngineKind::Compiled, n);
    const qdi::dpa::TraceSet batch = acquire(qs::EngineKind::Batch, n);
    ASSERT_EQ(ref.size(), n);
    ASSERT_EQ(compiled.size(), n);
    ASSERT_EQ(batch.size(), n);
    for (std::size_t i = 0; i < n; ++i) {
      const auto pt = ref.plaintext(i);
      ASSERT_TRUE(std::equal(pt.begin(), pt.end(), batch.plaintext(i).begin(),
                             batch.plaintext(i).end()))
          << "seed " << GetParam() << " n " << n << " trace " << i;
      const auto ct = ref.ciphertext(i);
      ASSERT_TRUE(std::equal(ct.begin(), ct.end(),
                             compiled.ciphertext(i).begin(),
                             compiled.ciphertext(i).end()))
          << "seed " << GetParam() << " n " << n << " trace " << i;
      ASSERT_TRUE(std::equal(ct.begin(), ct.end(), batch.ciphertext(i).begin(),
                             batch.ciphertext(i).end()))
          << "seed " << GetParam() << " n " << n << " trace " << i;
      for (std::size_t j = 0; j < ref.num_samples(); ++j) {
        ASSERT_EQ(ref.trace(i)[j], compiled.trace(i)[j])
            << "seed " << GetParam() << " n " << n << " trace " << i
            << " sample " << j;
        ASSERT_EQ(ref.trace(i)[j], batch.trace(i)[j])
            << "seed " << GetParam() << " n " << n << " trace " << i
            << " sample " << j;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RandomDags, FuzzBatch,
                         ::testing::Range<std::uint64_t>(0, 12));
