#include <gtest/gtest.h>

#include <stdexcept>

#include "qdi/gates/builder.hpp"
#include "qdi/netlist/netlist.hpp"
#include "qdi/sim/simulator.hpp"

namespace qn = qdi::netlist;
namespace qs = qdi::sim;
namespace qg = qdi::gates;
using qn::CellKind;

namespace {
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
}  // namespace

TEST(Simulator, InitializeSettlesInverters) {
  InvChain f;
  qs::Simulator sim(f.nl);
  sim.initialize();
  sim.run_until_stable();
  EXPECT_FALSE(sim.value(f.a));
  EXPECT_TRUE(sim.value(f.b));   // inv(0)
  EXPECT_FALSE(sim.value(f.c));  // inv(inv(0))
}

TEST(Simulator, DrivePropagates) {
  InvChain f;
  qs::Simulator sim(f.nl);
  sim.initialize();
  sim.run_until_stable();
  sim.drive(f.a, true, 100.0);
  sim.run_until_stable();
  EXPECT_TRUE(sim.value(f.a));
  EXPECT_FALSE(sim.value(f.b));
  EXPECT_TRUE(sim.value(f.c));
  EXPECT_GT(sim.now(), 100.0);
}

TEST(Simulator, DelayScalesWithLoadCap) {
  InvChain f1, f2;
  f2.nl.net(f2.b).cap_ff = 80.0;  // 10x the default load on the inner net
  qs::Simulator s1(f1.nl), s2(f2.nl);
  for (auto* s : {&s1, &s2}) {
    s->initialize();
    s->run_until_stable();
  }
  s1.drive(f1.a, true, 0.0);
  s2.drive(f2.a, true, 0.0);
  s1.run_until_stable();
  s2.run_until_stable();
  EXPECT_GT(s2.now(), s1.now());
}

TEST(Simulator, TransitionLogRecordsCapAndSlew) {
  InvChain f;
  f.nl.net(f.b).cap_ff = 20.0;
  qs::Simulator sim(f.nl);
  sim.initialize();
  sim.run_until_stable();
  qs::TransitionLog log;
  sim.set_power_sink(&log);
  sim.drive(f.a, true, 10.0);
  sim.run_until_stable();
  bool saw_b = false;
  for (const auto& t : log.transitions) {
    if (t.net == f.b) {
      saw_b = true;
      EXPECT_FALSE(t.rising);  // b falls when a rises
      EXPECT_DOUBLE_EQ(t.cap_ff, 20.0);
      EXPECT_DOUBLE_EQ(t.slew_ps, sim.delay_model().slew_ps(20.0));
    }
  }
  EXPECT_TRUE(saw_b);
}

TEST(Simulator, MullerHoldsState) {
  qn::Netlist nl("c");
  const qn::NetId x = nl.add_input("x");
  const qn::NetId y = nl.add_input("y");
  const qn::NetId z = nl.add_net("z");
  nl.add_cell(CellKind::Muller2, "c1", {x, y}, z);
  nl.mark_output(z, "z");

  qs::Simulator sim(nl);
  sim.initialize();
  sim.run_until_stable();
  sim.drive(x, true, 0.0);
  sim.run_until_stable();
  EXPECT_FALSE(sim.value(z));  // only one input high: hold 0
  sim.drive(y, true, sim.now());
  sim.run_until_stable();
  EXPECT_TRUE(sim.value(z));  // consensus high
  sim.drive(x, false, sim.now());
  sim.run_until_stable();
  EXPECT_TRUE(sim.value(z));  // hold 1
  sim.drive(y, false, sim.now());
  sim.run_until_stable();
  EXPECT_FALSE(sim.value(z));  // consensus low
}

TEST(Simulator, GlitchCancellation) {
  // a -> inv -> n1; (a, n1) -> and2 -> g. A 0->1 step on `a` produces a
  // static hazard at `g` under inertial semantics: the momentary (1,1)
  // overlap schedules a rise that the inverter's fall then cancels.
  qn::Netlist nl("hazard");
  const qn::NetId a = nl.add_input("a");
  const qn::NetId n1 = nl.add_net("n1");
  const qn::NetId g = nl.add_net("g");
  nl.add_cell(CellKind::Inv, "i", {a}, n1);
  nl.add_cell(CellKind::And2, "u", {a, n1}, g);
  nl.mark_output(g, "g");

  qs::Simulator sim(nl);
  sim.initialize();
  sim.run_until_stable();
  EXPECT_EQ(sim.glitch_count(), 0u);
  sim.drive(a, true, 0.0);
  sim.run_until_stable();
  EXPECT_FALSE(sim.value(g));       // final value is correct
  EXPECT_GT(sim.glitch_count(), 0u);  // and the hazard was counted
}

TEST(Simulator, OscillationGuardThrows) {
  // Ring oscillator: 3-inverter loop (odd ring has no stable state).
  qn::Netlist nl("ring");
  const qn::NetId a = nl.add_net("a");
  const qn::NetId b = nl.add_net("b");
  const qn::NetId c = nl.add_net("c");
  nl.add_cell(CellKind::Inv, "i1", {a}, b);
  nl.add_cell(CellKind::Inv, "i2", {b}, c);
  nl.add_cell(CellKind::Inv, "i3", {c}, a);
  qs::Simulator sim(nl);
  sim.initialize();
  EXPECT_THROW(sim.run_until_stable(1000), std::runtime_error);
}

TEST(Simulator, TwoInverterLoopIsBistable) {
  // The even ring settles into one of its two stable states instead of
  // oscillating — a latch, not an oscillator.
  qn::Netlist nl("latch");
  const qn::NetId a = nl.add_net("a");
  const qn::NetId b = nl.add_net("b");
  nl.add_cell(CellKind::Inv, "i1", {a}, b);
  nl.add_cell(CellKind::Inv, "i2", {b}, a);
  qs::Simulator sim(nl);
  sim.initialize();
  sim.run_until_stable();
  EXPECT_NE(sim.value(a), sim.value(b));
}

TEST(Simulator, ResetStateClearsEverything) {
  InvChain f;
  qs::Simulator sim(f.nl);
  sim.initialize();
  sim.run_until_stable();
  sim.drive(f.a, true, 50.0);
  sim.run_until_stable();
  qs::TransitionLog log;
  sim.set_power_sink(&log);
  sim.reset_state();
  EXPECT_DOUBLE_EQ(sim.now(), 0.0);
  EXPECT_TRUE(log.transitions.empty());  // a reset commits nothing
  EXPECT_FALSE(sim.value(f.a));
  EXPECT_FALSE(sim.value(f.b));
  EXPECT_EQ(sim.transition_count(), 0u);
}

TEST(Simulator, DeterministicAcrossRuns) {
  InvChain f;
  auto run = [&] {
    qs::Simulator sim(f.nl);
    qs::TransitionLog log;
    sim.set_power_sink(&log);
    sim.initialize();
    sim.run_until_stable();
    sim.drive(f.a, true, 10.0);
    sim.drive(f.a, false, 500.0);
    sim.run_until_stable();
    return std::make_pair(sim.now(), log.transitions.size());
  };
  const auto r1 = run();
  const auto r2 = run();
  EXPECT_EQ(r1, r2);
}

TEST(Simulator, ResetWithPendingEventsReplaysIdentically) {
  // reset_state() now clears the event queue in place (capacity
  // retained); resetting with events still pending must leave no stale
  // state behind — a rerun from reset is bit-identical to a fresh run.
  InvChain f;
  qs::Simulator sim(f.nl);
  qs::TransitionLog log;
  sim.set_power_sink(&log);
  auto run = [&] {
    log.transitions.clear();
    sim.initialize();
    sim.run_until_stable();
    sim.drive(f.a, true, 10.0);
    sim.run_until_stable();
    return std::make_pair(sim.now(), log.transitions.size());
  };
  const auto fresh = run();
  sim.drive(f.a, false, sim.now() + 5.0);  // leave an event in the queue
  sim.reset_state();
  const auto again = run();
  EXPECT_EQ(fresh, again);
}

TEST(Simulator, PowerSinkSeesEveryCommit) {
  struct Counter final : qs::PowerSink {
    std::size_t seen = 0;
    void on_transition(const qs::Transition&) override { ++seen; }
  };
  InvChain f;
  qs::Simulator sim(f.nl);
  Counter sink;
  sim.set_power_sink(&sink);
  sim.initialize();
  sim.run_until_stable();
  sim.drive(f.a, true, 50.0);
  sim.run_until_stable();
  EXPECT_EQ(sink.seen, sim.transition_count());
}

TEST(Simulator, LoadInsensitiveModelHasConstantDelay) {
  const qs::DelayModel m = qs::DelayModel::load_insensitive();
  EXPECT_DOUBLE_EQ(m.delay_ps(CellKind::Inv, 8.0), m.delay_ps(CellKind::Inv, 80.0));
  EXPECT_DOUBLE_EQ(m.slew_ps(8.0), m.slew_ps(80.0));
}

TEST(DelayModel, MonotoneInCapAndArity) {
  const qs::DelayModel m;
  EXPECT_LT(m.delay_ps(CellKind::Inv, 8.0), m.delay_ps(CellKind::Inv, 16.0));
  EXPECT_LT(m.delay_ps(CellKind::Inv, 8.0), m.delay_ps(CellKind::Muller3, 8.0));
  EXPECT_LT(m.slew_ps(4.0), m.slew_ps(64.0));
}
