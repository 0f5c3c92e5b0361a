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

// ---- scheduler differential fuzz -------------------------------------------
//
// The time-wheel and heap schedulers of the compiled kernel must produce
// identical transition logs on ANY netlist, delay model, stimulus
// sequence, and epoch save/restore pattern — the (t_ps, net, seq) total order
// is scheduler-independent by construction, and this fuzz pass pins it
// across random instances of all four dimensions (plus the reference
// interpreter as a third witness).

namespace {

struct SchedulerRun {
  qs::CompiledSimulator sim;
  qs::FourPhaseEnv env;
  std::vector<qs::CompiledSimulator::Epoch> epochs;

  SchedulerRun(const std::shared_ptr<const qs::CompiledNetlist>& cn,
               const qs::EnvSpec& spec, qs::SchedulerKind kind)
      : sim(cn, kind), env(sim, spec) {
    sim.set_log_enabled(true);
    env.apply_reset();
    epochs.push_back(sim.save_epoch());
  }
};

void expect_logs_equal(const qs::CompiledSimulator& a,
                       const qs::CompiledSimulator& b, std::uint64_t seed,
                       int cycle) {
  ASSERT_EQ(a.log().size(), b.log().size())
      << "seed " << seed << " cycle " << cycle;
  for (std::size_t i = 0; i < a.log().size(); ++i) {
    ASSERT_EQ(a.log()[i].t_ps, b.log()[i].t_ps)
        << "seed " << seed << " cycle " << cycle << " transition " << i;
    ASSERT_EQ(a.log()[i].net, b.log()[i].net)
        << "seed " << seed << " cycle " << cycle << " transition " << i;
    ASSERT_EQ(a.log()[i].rising, b.log()[i].rising)
        << "seed " << seed << " cycle " << cycle << " transition " << i;
    ASSERT_EQ(a.log()[i].slew_ps, b.log()[i].slew_ps)
        << "seed " << seed << " cycle " << cycle << " transition " << i;
  }
}

}  // namespace

class FuzzScheduler : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FuzzScheduler, WheelMatchesHeapOnRandomNetlistsDelaysAndEpochs) {
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
  const auto cn = qs::compile(hw.nl, dm);

  // Reference interpreter as a third witness on the same delay model.
  qs::Simulator ref(hw.nl, dm);
  qs::FourPhaseEnv ref_env(ref, hw.spec);
  ref_env.apply_reset();

  SchedulerRun wheel(cn, hw.spec, qs::SchedulerKind::Wheel);
  SchedulerRun heap(cn, hw.spec, qs::SchedulerKind::Heap);

  bool ref_in_sync = true;  // until the first rewind diverges the timeline
  for (int cycle = 0; cycle < 24; ++cycle) {
    // Random epoch action: occasionally snapshot the quiescent state or
    // rewind to a random earlier snapshot (both runs in lockstep).
    const std::uint64_t action = rng.below(8);
    if (action == 0) {
      wheel.epochs.push_back(wheel.sim.save_epoch());
      heap.epochs.push_back(heap.sim.save_epoch());
    } else if (action == 1) {
      const std::size_t k = rng.below(wheel.epochs.size());
      wheel.sim.restore_epoch(wheel.epochs[k]);
      heap.sim.restore_epoch(heap.epochs[k]);
      ref_in_sync = false;
    }

    std::vector<int> values(static_cast<std::size_t>(num_inputs));
    for (int i = 0; i < num_inputs; ++i)
      values[static_cast<std::size_t>(i)] = static_cast<int>(rng.below(2));

    wheel.sim.clear_log();
    heap.sim.clear_log();
    const auto wc = wheel.env.send(values);
    const auto hc = heap.env.send(values);
    ASSERT_TRUE(wc.ok) << "seed " << GetParam() << " cycle " << cycle;
    ASSERT_TRUE(hc.ok) << "seed " << GetParam() << " cycle " << cycle;
    ASSERT_EQ(wc.outputs, hc.outputs);
    ASSERT_EQ(wc.transitions, hc.transitions);
    expect_logs_equal(wheel.sim, heap.sim, GetParam(), cycle);
    ASSERT_EQ(wheel.sim.glitch_count(), heap.sim.glitch_count());

    // The reference engine never rewinds; compare against it only while
    // no restore has diverged the absolute timeline.
    if (ref_in_sync) {
      ref.clear_log();
      const auto rc = ref_env.send(values);
      ASSERT_TRUE(rc.ok);
      ASSERT_EQ(rc.outputs, wc.outputs);
      ASSERT_EQ(ref.log().size(), wheel.sim.log().size());
      for (std::size_t i = 0; i < ref.log().size(); ++i) {
        ASSERT_EQ(ref.log()[i].t_ps, wheel.sim.log()[i].t_ps);
        ASSERT_EQ(ref.log()[i].net, wheel.sim.log()[i].net);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RandomDags, FuzzScheduler,
                         ::testing::Range<std::uint64_t>(0, 20));

// ---- fault-injection differential fuzz -------------------------------------
//
// With a randomly armed fault (site, kind, offset, width all fuzzed) the
// three engines must still agree transition for transition: the marker
// events and forced-value suppression are part of the deterministic
// (t_ps, net, seq) order, whether the faulted cycle completes, stalls, or
// aborts.

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
    sim.set_log_enabled(true);
    sim.clear_log();
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
    r.log = sim.log();
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
    qs::CompiledSimulator wheel(cn, qs::SchedulerKind::Wheel);
    qs::CompiledSimulator heap(cn, qs::SchedulerKind::Heap);
    const Run ref = faulted_cycle(ref_sim, fs, values);
    for (qs::SimEngine* sim : {static_cast<qs::SimEngine*>(&wheel),
                               static_cast<qs::SimEngine*>(&heap)}) {
      const Run got = faulted_cycle(*sim, fs, values);
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
}

INSTANTIATE_TEST_SUITE_P(RandomDags, FuzzFaultInjection,
                         ::testing::Range<std::uint64_t>(0, 12));

// ---- batch-engine differential fuzz ----------------------------------------
//
// Three-way witness for the 64-lane batch kernel: on random DAGs, random
// delay models, and random stimuli, acquisition through the batch engine
// must be bit-identical (samples, ciphertexts, transition and glitch
// counts) to BOTH scalar schedulers — at batch sizes that hit a single
// lane, a partial block, exactly one full block, and a full block plus a
// 1-lane tail.

class FuzzBatch : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FuzzBatch, BatchMatchesWheelAndHeapAtAwkwardBatchSizes) {
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

  const auto acquire = [&](qs::EngineKind kind, qs::SchedulerKind sched,
                           std::size_t n) {
    qc::SimTraceSourceOptions opt;
    opt.engine = kind;
    opt.scheduler = sched;
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
    const qdi::dpa::TraceSet wheel =
        acquire(qs::EngineKind::Compiled, qs::SchedulerKind::Wheel, n);
    const qdi::dpa::TraceSet heap =
        acquire(qs::EngineKind::Compiled, qs::SchedulerKind::Heap, n);
    const qdi::dpa::TraceSet batch =
        acquire(qs::EngineKind::Batch, qs::SchedulerKind::Wheel, n);
    ASSERT_EQ(wheel.size(), n);
    ASSERT_EQ(batch.size(), n);
    for (std::size_t i = 0; i < n; ++i) {
      const auto pt = wheel.plaintext(i);
      ASSERT_TRUE(std::equal(pt.begin(), pt.end(), batch.plaintext(i).begin(),
                             batch.plaintext(i).end()))
          << "seed " << GetParam() << " n " << n << " trace " << i;
      const auto ct = wheel.ciphertext(i);
      ASSERT_TRUE(std::equal(ct.begin(), ct.end(), heap.ciphertext(i).begin(),
                             heap.ciphertext(i).end()));
      ASSERT_TRUE(std::equal(ct.begin(), ct.end(), batch.ciphertext(i).begin(),
                             batch.ciphertext(i).end()))
          << "seed " << GetParam() << " n " << n << " trace " << i;
      for (std::size_t j = 0; j < wheel.num_samples(); ++j) {
        ASSERT_EQ(wheel.trace(i)[j], heap.trace(i)[j])
            << "seed " << GetParam() << " n " << n << " trace " << i;
        ASSERT_EQ(wheel.trace(i)[j], batch.trace(i)[j])
            << "seed " << GetParam() << " n " << n << " trace " << i
            << " sample " << j;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RandomDags, FuzzBatch,
                         ::testing::Range<std::uint64_t>(0, 12));
