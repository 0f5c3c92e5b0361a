#include <gtest/gtest.h>
#include <cmath>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "qdi/gates/testbench.hpp"
#include "qdi/sim/environment.hpp"
#include "qdi/sim/simulator.hpp"

namespace qs = qdi::sim;
namespace qg = qdi::gates;
namespace qn = qdi::netlist;

namespace {
struct XorFixture {
  qg::XorStage x = qg::build_xor_stage();
  qs::Simulator sim{x.nl};
  qs::FourPhaseEnv env{sim, x.env};
  XorFixture() { env.apply_reset(); }
};
}  // namespace

TEST(FourPhaseEnv, ResetLeavesBlockEmpty) {
  XorFixture f;
  EXPECT_TRUE(f.env.outputs_empty());
  EXPECT_FALSE(f.sim.value(f.x.co0));
  EXPECT_FALSE(f.sim.value(f.x.co1));
  // Completion NOR is high when the output channel is empty (fig. 4).
  EXPECT_TRUE(f.sim.value(f.x.ack_out));
}

// Exhaustive four-phase functional check of the fig. 4 XOR.
class XorCycle : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(XorCycle, ComputesXorAndReturnsToZero) {
  XorFixture f;
  const auto [a, b] = GetParam();
  const std::vector<int> values{a, b};
  const auto cyc = f.env.send(values);
  ASSERT_TRUE(cyc.ok);
  ASSERT_EQ(cyc.outputs.size(), 1u);
  EXPECT_EQ(cyc.outputs[0], a ^ b);
  EXPECT_GT(cyc.t_valid, cyc.t_start);
  EXPECT_GT(cyc.t_empty, cyc.t_valid);
  EXPECT_GE(cyc.t_end, cyc.t_empty);
  EXPECT_TRUE(f.env.outputs_empty());
}

INSTANTIATE_TEST_SUITE_P(AllInputs, XorCycle,
                         ::testing::Values(std::pair{0, 0}, std::pair{0, 1},
                                           std::pair{1, 0}, std::pair{1, 1}));

TEST(FourPhaseEnv, TransitionCountIsDataIndependent) {
  // The central QDI-security invariant (section II): every computation
  // involves the same number of transitions, whatever the data.
  XorFixture f;
  std::size_t expected = 0;
  for (int a = 0; a < 2; ++a) {
    for (int b = 0; b < 2; ++b) {
      const std::vector<int> values{a, b};
      const auto cyc = f.env.send(values);
      ASSERT_TRUE(cyc.ok);
      if (expected == 0)
        expected = cyc.transitions;
      else
        EXPECT_EQ(cyc.transitions, expected) << a << "," << b;
    }
  }
  EXPECT_GT(expected, 0u);
}

TEST(FourPhaseEnv, EvaluationPhaseHasNtEqualNcEqual4) {
  // Fig. 5 reading: Nt = Nc = 4 — four gates fire between data arrival
  // and output validity (M, O, Cr, NOR).
  XorFixture f;
  qs::TransitionLog log;
  f.sim.set_power_sink(&log);
  const std::vector<int> values{1, 0};
  const auto cyc = f.env.send(values);
  ASSERT_TRUE(cyc.ok);
  std::size_t eval_transitions = 0;
  for (const auto& t : log.transitions) {
    if (t.t_ps >= cyc.t_start && t.t_ps <= cyc.t_valid) {
      // Only block-internal nets (skip env-driven input rails).
      const auto& net = f.x.nl.net(t.net);
      const auto& drv = f.x.nl.cell(net.driver);
      if (!qdi::netlist::is_pseudo(drv.kind)) ++eval_transitions;
    }
  }
  EXPECT_EQ(eval_transitions, 4u);
}

TEST(FourPhaseEnv, NoGlitchesInQdiBlock) {
  XorFixture f;
  for (int i = 0; i < 8; ++i) {
    const std::vector<int> values{i & 1, (i >> 1) & 1};
    ASSERT_TRUE(f.env.send(values).ok);
  }
  EXPECT_EQ(f.sim.glitch_count(), 0u);
}

TEST(FourPhaseEnv, CyclesAlignOnPeriodGrid) {
  XorFixture f;
  const std::vector<int> v{1, 1};
  const auto c1 = f.env.send(v);
  const auto c2 = f.env.send(v);
  const double period = f.x.env.period_ps;
  EXPECT_DOUBLE_EQ(std::fmod(c1.t_start, period), 0.0);
  EXPECT_DOUBLE_EQ(std::fmod(c2.t_start, period), 0.0);
  EXPECT_GE(c2.t_start, c1.t_start + period);
}

TEST(FourPhaseEnv, BackToBackCyclesAreIndependent) {
  XorFixture f;
  // Same value twice, then different: outputs must always be correct
  // (return-to-zero between codewords erases history).
  for (int v : {1, 1, 0, 1, 0, 0}) {
    const std::vector<int> values{v, 0};
    const auto cyc = f.env.send(values);
    ASSERT_TRUE(cyc.ok);
    EXPECT_EQ(cyc.outputs[0], v);
  }
}

TEST(FourPhaseEnv, ReadChannelDetectsInvalid) {
  XorFixture f;
  // Before any data, the output channel is empty -> -1.
  EXPECT_EQ(f.env.read_channel(f.x.out_ch), -1);
}

TEST(FourPhaseEnv, PeriodOverflowThrows) {
  qg::XorStage x = qg::build_xor_stage(/*period_ps=*/100.0);  // far too short
  qs::Simulator sim(x.nl);
  qs::FourPhaseEnv env(sim, x.env);
  env.apply_reset();
  const std::vector<int> v{1, 0};
  EXPECT_THROW(env.send(v), std::runtime_error);
}

// ---- EnvSpec ids ------------------------------------------------------------

TEST(FourPhaseEnv, OutOfRangeSpecIdsThrowNamingFieldAndId) {
  const qg::XorStage x = qg::build_xor_stage();
  const auto channels = static_cast<qn::ChannelId>(x.nl.num_channels());
  const auto nets = static_cast<qn::NetId>(x.nl.num_nets());
  // (expected message part, spec with one id the netlist lacks)
  std::vector<std::pair<std::string, qs::EnvSpec>> bad(4, {"", x.env});
  bad[0].second.inputs[1] = channels + 3;
  bad[0].first = "inputs[1] = " + std::to_string(channels + 3);
  bad[1].second.outputs[0] = channels;
  bad[1].first = "outputs[0] = " + std::to_string(channels);
  bad[2].second.acks_to_block[0] = nets + 7;
  bad[2].first = "acks_to_block[0] = " + std::to_string(nets + 7);
  bad[3].second.reset = nets;
  bad[3].first = "reset = " + std::to_string(nets);
  for (const auto& [want, spec] : bad) {
    SCOPED_TRACE(want);
    qs::Simulator sim(x.nl);
    try {
      qs::FourPhaseEnv env(sim, spec);
      ADD_FAILURE() << "accepted an out-of-range id";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(want), std::string::npos)
          << e.what();
    }
  }
  // No reset net is a valid spec.
  qs::EnvSpec spec = x.env;
  spec.reset = qn::kNoNet;
  qs::Simulator sim(x.nl);
  EXPECT_NO_THROW(qs::FourPhaseEnv(sim, spec));
}
