#include <gtest/gtest.h>

#include "qdi/dpa/spa.hpp"
#include "qdi/gates/testbench.hpp"
#include "qdi/power/synth.hpp"
#include "qdi/sim/environment.hpp"
#include "qdi/sim/simulator.hpp"

namespace qd = qdi::dpa;
namespace qp = qdi::power;
namespace qg = qdi::gates;
namespace qs = qdi::sim;

namespace {
qp::PowerTrace xor_cycle_trace(qg::XorStage& x, qs::Simulator& sim,
                               qs::FourPhaseEnv& env, int a, int b) {
  qs::TransitionLog log;
  sim.set_power_sink(&log);
  const std::vector<int> v{a, b};
  const auto cyc = env.send(v);
  sim.set_power_sink(nullptr);
  EXPECT_TRUE(cyc.ok);
  qp::PowerModelParams pm;
  return qp::synthesize(log.transitions, cyc.t_start, x.env.period_ps, pm,
                        nullptr);
}
}  // namespace

TEST(Spa, FindsTheFourPhaseBursts) {
  qg::XorStage x = qg::build_xor_stage();
  // Generous inter-phase idle gaps so the phases separate cleanly in the
  // trace (the default 50 ps gap keeps consecutive pulses fused).
  x.env.phase_gap_ps = 400.0;
  qs::Simulator sim(x.nl);
  qs::FourPhaseEnv env(sim, x.env);
  env.apply_reset();
  const qp::PowerTrace t = xor_cycle_trace(x, sim, env, 1, 0);
  const auto bursts = qd::find_bursts(t, 1.0, 4);
  // Evaluation, acknowledge, return-to-zero, release: between 2 and 4
  // visible bursts depending on the gap threshold — at least eval + RTZ.
  EXPECT_GE(bursts.size(), 2u);
  for (const auto& b : bursts) {
    EXPECT_LT(b.start, b.end);
    EXPECT_GT(b.charge_fc, 0.0);
    EXPECT_GT(b.peak_ua, 0.0);
  }
  // Bursts are ordered and non-overlapping.
  for (std::size_t i = 1; i < bursts.size(); ++i)
    EXPECT_GE(bursts[i].start, bursts[i - 1].end);
}

TEST(Spa, EmptyTraceHasNoBursts) {
  const qp::PowerTrace quiet(0.0, 10.0, 100);
  EXPECT_TRUE(qd::find_bursts(quiet, 0.5).empty());
}

TEST(Spa, BalancedXorIsSpaIndistinguishable) {
  // The SPA resistance claim of section II: on a balanced block, any two
  // codewords produce byte-identical traces (same transitions, same caps).
  qg::XorStage x = qg::build_xor_stage();
  qs::Simulator sim(x.nl);
  qs::FourPhaseEnv env(sim, x.env);
  env.apply_reset();
  const qp::PowerTrace t00 = xor_cycle_trace(x, sim, env, 0, 0);
  const qp::PowerTrace t11 = xor_cycle_trace(x, sim, env, 1, 1);
  const qp::PowerTrace t10 = xor_cycle_trace(x, sim, env, 1, 0);
  EXPECT_NEAR(qd::spa_distance(t00, t11), 0.0, 1e-9);
  EXPECT_NEAR(qd::spa_distance(t00, t10), 0.0, 1e-9);
}

TEST(Spa, UnbalancedXorIsSpaDistinguishable) {
  qg::XorStage x = qg::build_xor_stage();
  x.nl.net(x.s0).cap_ff = 32.0;  // heavy xor=0 path
  qs::Simulator sim(x.nl);
  qs::FourPhaseEnv env(sim, x.env);
  env.apply_reset();
  const qp::PowerTrace t00 = xor_cycle_trace(x, sim, env, 0, 0);  // xor=0
  const qp::PowerTrace t10 = xor_cycle_trace(x, sim, env, 1, 0);  // xor=1
  EXPECT_GT(qd::spa_distance(t00, t10), 100.0);
}

TEST(Spa, LocatePatternFindsTheCycle) {
  qg::XorStage x = qg::build_xor_stage();
  qs::Simulator sim(x.nl);
  qs::FourPhaseEnv env(sim, x.env);
  env.apply_reset();
  const qp::PowerTrace cycle = xor_cycle_trace(x, sim, env, 0, 1);

  // Embed the active part of the cycle into a longer quiet trace.
  const auto bursts = qd::find_bursts(cycle, 1.0, 100);
  ASSERT_FALSE(bursts.empty());
  const std::size_t span = bursts.back().end - bursts.front().start;
  qp::PowerTrace pattern(0.0, cycle.dt_ps(), span);
  for (std::size_t j = 0; j < span; ++j)
    pattern[j] = cycle[bursts.front().start + j];

  qp::PowerTrace haystack(0.0, cycle.dt_ps(), 3 * cycle.size());
  const std::size_t at = 517;
  for (std::size_t j = 0; j < span; ++j) haystack[at + j] = pattern[j];

  const qd::MatchResult m = qd::locate_pattern(haystack, pattern);
  EXPECT_EQ(m.offset, at);
  EXPECT_GT(m.correlation, 0.99);
}

TEST(Spa, LocatePatternDegenerateCases) {
  qp::PowerTrace t(0.0, 1.0, 10);
  qp::PowerTrace big(0.0, 1.0, 20);
  EXPECT_EQ(qd::locate_pattern(t, big).correlation, 0.0);  // pattern too long
  qp::PowerTrace empty;
  EXPECT_EQ(qd::locate_pattern(t, empty).correlation, 0.0);
}
