#include <gtest/gtest.h>

#include <cmath>

#include "qdi/core/formal_model.hpp"
#include "qdi/gates/testbench.hpp"
#include "qdi/sim/environment.hpp"
#include "qdi/sim/simulator.hpp"
#include "qdi/util/stats.hpp"

namespace qn = qdi::netlist;
namespace qs = qdi::sim;
namespace qg = qdi::gates;
namespace qc = qdi::core;
namespace qp = qdi::power;

TEST(AnalyzeBlock, XorStageMatchesFig5) {
  qg::XorStage x = qg::build_xor_stage();
  const qn::Graph g(x.nl);
  const qc::BlockProfile p = qc::analyze_block(g);
  EXPECT_EQ(p.nc, 4);
  ASSERT_EQ(p.nij_max.size(), 4u);
  // 10 real gates: 4 Muller + 2 OR + 2 Cr + NOR + ack inverter.
  EXPECT_EQ(p.gates, 10u);
}

TEST(MeasureActivity, EvaluationPhaseOfXor) {
  // The paper's fig. 5 reading: Nt = Nc = 4, Nij = 1 at each level during
  // a computation.
  qg::XorStage x = qg::build_xor_stage();
  qs::Simulator sim(x.nl);
  qs::FourPhaseEnv env(sim, x.env);
  env.apply_reset();
  qs::TransitionLog log;
  sim.set_power_sink(&log);
  const std::vector<int> v{1, 1};
  const auto cyc = env.send(v);
  ASSERT_TRUE(cyc.ok);

  const qn::Graph g(x.nl);
  const qc::MeasuredActivity a =
      qc::measure_activity(g, log.transitions, cyc.t_start, cyc.t_valid + 1.0);
  EXPECT_EQ(a.nt, 4u);
  ASSERT_EQ(a.nij.size(), 5u);
  EXPECT_EQ(a.nij[1], 1u);
  EXPECT_EQ(a.nij[2], 1u);
  EXPECT_EQ(a.nij[3], 1u);
  EXPECT_EQ(a.nij[4], 1u);
}

TEST(MeasureActivity, FullCycleIsTenTransitions) {
  qg::XorStage x = qg::build_xor_stage();
  qs::Simulator sim(x.nl);
  qs::FourPhaseEnv env(sim, x.env);
  env.apply_reset();
  qs::TransitionLog log;
  sim.set_power_sink(&log);
  const std::vector<int> v{0, 1};
  const auto cyc = env.send(v);
  ASSERT_TRUE(cyc.ok);
  const qn::Graph g(x.nl);
  const qc::MeasuredActivity a =
      qc::measure_activity(g, log.transitions, cyc.t_start, cyc.t_end + 1.0);
  // 4 eval + 4 RTZ + 2 ack-inverter transitions.
  EXPECT_EQ(a.nt, 10u);
}

TEST(DynamicPower, Eq1GateFormula) {
  // Pd = C·Vdd²·f: 10 fF at 1.2 V and 100 MHz = 1.44 µW = 1440 nW.
  EXPECT_NEAR(qc::gate_dynamic_power_nw(10.0, 1.2, 100.0), 1440.0, 1e-9);
  // Activity scales linearly (eq. 2's η).
  EXPECT_NEAR(qc::gate_dynamic_power_nw(10.0, 1.2, 100.0, 0.5), 720.0, 1e-9);
}

TEST(DynamicPower, Eq3BlockSumsNets) {
  qg::XorStage x = qg::build_xor_stage();
  double cap_sum = 0.0;
  for (const auto& n : x.nl.nets()) cap_sum += n.cap_ff;
  const double expected = cap_sum * 1.2 * 1.2 * 50.0;
  EXPECT_NEAR(qc::block_dynamic_power_nw(x.nl, 1.2, 50.0), expected, 1e-6);
}

TEST(ArrivalTimes, MonotoneAlongLevels) {
  qg::XorStage x = qg::build_xor_stage();
  const qn::Graph g(x.nl);
  const qs::DelayModel dm;
  const auto arr = qc::arrival_times_ps(g, dm);
  EXPECT_LT(arr[x.m[0]], arr[x.s0]);
  EXPECT_LT(arr[x.s0], arr[x.co0]);
  EXPECT_LT(arr[x.co0], arr[x.ack_out]);
}

TEST(ArrivalTimes, GrowWithCapacitance) {
  qg::XorStage x = qg::build_xor_stage();
  const qs::DelayModel dm;
  const qn::Graph g1(x.nl);
  const auto arr1 = qc::arrival_times_ps(g1, dm);
  x.nl.net(x.s0).cap_ff = 32.0;  // heavier level-2 net
  const qn::Graph g2(x.nl);
  const auto arr2 = qc::arrival_times_ps(g2, dm);
  EXPECT_GT(arr2[x.co0], arr1[x.co0]);      // downstream shifted
  EXPECT_DOUBLE_EQ(arr2[x.co1], arr1[x.co1]);  // other rail untouched
}

namespace {
std::vector<qn::NetId> xor_class_nets(const qg::XorStage& x, int xor_value) {
  // Firing set of the evaluation phase for output class 0 / 1; both
  // minterm gates of the class are listed with their shared OR and Cr:
  // per computation exactly one of (m1, m2) fires for class 0 — using m1
  // (inputs 0,0) as the representative.
  if (xor_value == 0) return {x.m[0], x.s0, x.co0, x.ack_out};
  return {x.m[2], x.s1, x.co1, x.ack_out};
}
}  // namespace

TEST(PredictBias, ZeroForBalancedCaps) {
  qg::XorStage x = qg::build_xor_stage();
  const qn::Graph g(x.nl);
  const qs::DelayModel dm;
  qp::PowerModelParams pm;
  const auto bias = qc::predict_bias(g, dm, pm, xor_class_nets(x, 0),
                                     xor_class_nets(x, 1), 2000.0);
  EXPECT_NEAR(qdi::util::max_abs(bias), 0.0, 1e-9);
}

TEST(PredictBias, NonzeroWithCapImbalance) {
  qg::XorStage x = qg::build_xor_stage();
  x.nl.net(x.s0).cap_ff = 16.0;  // the paper's fig. 7-b experiment
  const qn::Graph g(x.nl);
  const qs::DelayModel dm;
  qp::PowerModelParams pm;
  const auto bias = qc::predict_bias(g, dm, pm, xor_class_nets(x, 0),
                                     xor_class_nets(x, 1), 2000.0);
  EXPECT_GT(qdi::util::max_abs(bias), 0.1);
}

TEST(PredictBias, DeeperImbalanceShiftsMoreOfTheCurve) {
  // Fig. 7's reading: an imbalance at level 1 (beginning of the path)
  // shifts everything downstream, producing a larger integrated bias
  // than the same imbalance at the last level.
  qp::PowerModelParams pm;
  const qs::DelayModel dm;

  qg::XorStage x_late = qg::build_xor_stage();
  x_late.nl.net(x_late.co0).cap_ff = 16.0;  // level 3 (fig. 7-a)
  const qn::Graph g_late(x_late.nl);
  const auto bias_late =
      qc::predict_bias(g_late, dm, pm, xor_class_nets(x_late, 0),
                       xor_class_nets(x_late, 1), 2000.0);

  qg::XorStage x_early = qg::build_xor_stage();
  x_early.nl.net(x_early.m[0]).cap_ff = 16.0;  // level 1 (fig. 7-c)
  const qn::Graph g_early(x_early.nl);
  const auto bias_early =
      qc::predict_bias(g_early, dm, pm, xor_class_nets(x_early, 0),
                       xor_class_nets(x_early, 1), 2000.0);

  EXPECT_GT(qdi::util::sum_abs(bias_early), qdi::util::sum_abs(bias_late));
}

TEST(PredictBias, ScalesWithImbalanceMagnitude) {
  // Fig. 7-c vs 7-d: 16 fF vs 32 fF on the same nets -> larger signature.
  const qs::DelayModel dm;
  qp::PowerModelParams pm;
  double prev = 0.0;
  for (double cap : {8.0, 16.0, 32.0}) {
    qg::XorStage x = qg::build_xor_stage();
    x.nl.net(x.m[0]).cap_ff = cap;
    x.nl.net(x.m[1]).cap_ff = cap;
    const qn::Graph g(x.nl);
    const auto bias = qc::predict_bias(g, dm, pm, xor_class_nets(x, 0),
                                       xor_class_nets(x, 1), 2000.0);
    const double mag = qdi::util::sum_abs(bias);
    EXPECT_GE(mag, prev);
    prev = mag;
  }
  EXPECT_GT(prev, 0.0);
}

TEST(PredictClassProfile, ChargeMatchesFiringSet) {
  qg::XorStage x = qg::build_xor_stage();
  const qn::Graph g(x.nl);
  const qs::DelayModel dm;
  qp::PowerModelParams pm;
  const auto nets = xor_class_nets(x, 0);
  const qp::PowerTrace prof =
      qc::predict_class_profile(g, dm, pm, nets, 2000.0);
  double q_expected = 0.0;
  for (qn::NetId n : nets)
    q_expected += 1000.0 * pm.total_cap_ff(x.nl.net(n).cap_ff) * pm.vdd;
  EXPECT_NEAR(prof.total_charge_fc(), q_expected, 1e-6);
}

TEST(ModelVsSimulation, BiasAgreesOnPeakLocationSign) {
  // Eq. 12 validation in miniature (the full sweep is a bench): unbalance
  // s0, simulate both classes, and check the analytic bias has the same
  // sign at its peak as the measured bias.
  qg::XorStage x = qg::build_xor_stage();
  x.nl.net(x.s0).cap_ff = 24.0;
  const qs::DelayModel dm;
  qp::PowerModelParams pm;

  qs::Simulator sim(x.nl, dm);
  qs::FourPhaseEnv env(sim, x.env);
  env.apply_reset();
  qs::TransitionLog log;
  sim.set_power_sink(&log);

  // Measure: average eval-phase trace for xor=0 (inputs 0,0) minus xor=1
  // (inputs 1,0).
  auto trace_for = [&](int a, int b) {
    log.transitions.clear();
    const std::vector<int> v{a, b};
    const auto cyc = env.send(v);
    EXPECT_TRUE(cyc.ok);
    return qp::synthesize(log.transitions, cyc.t_start, x.env.period_ps, pm,
                          nullptr);
  };
  const qp::PowerTrace t0 = trace_for(0, 0);
  const qp::PowerTrace t1 = trace_for(1, 0);
  std::vector<double> measured(t0.size());
  for (std::size_t j = 0; j < t0.size(); ++j) measured[j] = t0[j] - t1[j];

  const qn::Graph g(x.nl);
  const std::vector<qn::NetId> class0{x.m[0], x.s0, x.co0, x.ack_out};
  const std::vector<qn::NetId> class1{x.m[2], x.s1, x.co1, x.ack_out};
  std::vector<double> predicted =
      qc::predict_bias(g, dm, pm, class0, class1, x.env.period_ps);

  const std::size_t jp = qdi::util::argmax_abs(predicted);
  const std::size_t jm = qdi::util::argmax_abs(measured);
  // Peaks land in the same part of the evaluation phase (within 250 ps —
  // a few pulse widths; the analytic model ignores the completion NOR's
  // falling-edge timing detail) and have the same sign.
  EXPECT_NEAR(static_cast<double>(jp), static_cast<double>(jm), 25.0);
  EXPECT_GT(predicted[jp] * measured[jm], 0.0);
}
