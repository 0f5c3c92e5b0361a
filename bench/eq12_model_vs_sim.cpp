// E3 — Eq. 12 validation: the formal model's predicted DPA bias
// (section IV, annotated-graph analysis with arrival times and charge
// pulses) against the measured bias from event-driven simulation +
// synthesized traces, across an imbalance sweep on each level of the
// fig. 4 XOR.
//
// Reported: predicted vs measured peak |S| and integrated |S| per config,
// plus the Pearson correlation of the two series across the sweep.
#include <cstdio>
#include <vector>

#include "bench_common.hpp"
#include "qdi/core/formal_model.hpp"
#include "qdi/gates/testbench.hpp"
#include "qdi/power/synth.hpp"
#include "qdi/sim/environment.hpp"
#include "qdi/sim/simulator.hpp"
#include "qdi/util/stats.hpp"
#include "qdi/util/table.hpp"

namespace qg = qdi::gates;
namespace qs = qdi::sim;
namespace qp = qdi::power;
namespace qu = qdi::util;
namespace qc = qdi::core;
namespace qn = qdi::netlist;

namespace {

std::vector<double> measured_bias(qg::XorStage& x, const qs::DelayModel& dm) {
  qs::Simulator sim(x.nl, dm);
  qs::FourPhaseEnv env(sim, x.env);
  qs::TransitionLog log;
  sim.set_power_sink(&log);
  env.apply_reset();
  qp::PowerModelParams pm;
  qu::VectorMean m0, m1;
  for (int a = 0; a < 2; ++a) {
    for (int b = 0; b < 2; ++b) {
      log.transitions.clear();
      const std::vector<int> v{a, b};
      const auto cyc = env.send(v);
      const qp::PowerTrace t =
          qp::synthesize(log.transitions, cyc.t_start, x.env.period_ps, pm,
                         nullptr);
      ((a ^ b) == 0 ? m0 : m1).add(t.samples());
    }
  }
  return qu::subtract(m0.mean(), m1.mean());
}

std::vector<double> predicted_bias(qg::XorStage& x, const qs::DelayModel& dm) {
  const qn::Graph g(x.nl);
  qp::PowerModelParams pm;
  const std::vector<qn::NetId> class0{x.m[0], x.s0, x.co0, x.ack_out};
  const std::vector<qn::NetId> class1{x.m[2], x.s1, x.co1, x.ack_out};
  return qc::predict_bias(g, dm, pm, class0, class1, x.env.period_ps);
}

}  // namespace

int main() {
  bench::header("Eq. 12 — formal-model bias prediction vs simulation");
  const qs::DelayModel dm;

  struct Sweep {
    const char* label;
    int which;  // 0: m1+m2, 1: s0, 2: co0
    double cap;
  };
  std::vector<Sweep> sweeps;
  for (double cap : {8.0, 12.0, 16.0, 24.0, 32.0, 48.0}) {
    sweeps.push_back({"level1 (Cl11=Cl12)", 0, cap});
    sweeps.push_back({"level2 (Cl21)", 1, cap});
    sweeps.push_back({"level3 (Cl31)", 2, cap});
  }

  qu::Table table({"imbalanced net(s)", "cap (fF)", "predicted peak",
                   "measured peak", "predicted integral", "measured integral"});
  table.set_precision(3);

  std::vector<double> pred_series, meas_series;
  for (const Sweep& s : sweeps) {
    qg::XorStage x = qg::build_xor_stage();
    switch (s.which) {
      case 0:
        x.nl.net(x.m[0]).cap_ff = s.cap;
        x.nl.net(x.m[1]).cap_ff = s.cap;
        break;
      case 1:
        x.nl.net(x.s0).cap_ff = s.cap;
        break;
      default:
        x.nl.net(x.co0).cap_ff = s.cap;
        break;
    }
    const auto pred = predicted_bias(x, dm);
    const auto meas = measured_bias(x, dm);
    table.add_row({s.label, table.format_double(s.cap),
                   table.format_double(qu::max_abs(pred)),
                   table.format_double(qu::max_abs(meas)),
                   table.format_double(qu::sum_abs(pred)),
                   table.format_double(qu::sum_abs(meas))});
    pred_series.push_back(qu::sum_abs(pred));
    meas_series.push_back(qu::sum_abs(meas));
  }

  std::printf("%s", table.to_string().c_str());
  const double corr = qu::pearson(pred_series, meas_series);
  std::printf("\n  Pearson correlation (predicted vs measured integrated bias)"
              " over the sweep: %.4f\n", corr);
  std::printf("  expected: strong positive correlation — the analytic eq. 12 "
              "model tracks the\n  simulated leakage across level and "
              "magnitude (the model covers the evaluation\n  phase only, so "
              "absolute integrals differ by the RTZ-phase contribution).\n");
  return 0;
}
