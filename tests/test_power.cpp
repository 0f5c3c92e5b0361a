#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "qdi/campaign/target.hpp"
#include "qdi/gates/testbench.hpp"
#include "qdi/power/batch_synth.hpp"
#include "qdi/power/synth.hpp"
#include "qdi/sim/compiled_simulator.hpp"
#include "qdi/sim/environment.hpp"
#include "qdi/sim/fault.hpp"
#include "qdi/sim/simulator.hpp"

namespace qc = qdi::campaign;
namespace qn = qdi::netlist;
namespace qp = qdi::power;
namespace qs = qdi::sim;
namespace qg = qdi::gates;
namespace qu = qdi::util;

TEST(TriangleOverlap, IntegratesToOne) {
  for (double width : {1.0, 7.5, 40.0}) {
    double total = 0.0;
    const double bin = 3.0;
    for (double a = -10.0; a < 60.0; a += bin)
      total += qp::triangle_overlap(0.0, width, a, a + bin);
    EXPECT_NEAR(total, 1.0, 1e-12) << "width " << width;
  }
}

TEST(TriangleOverlap, SymmetricAroundApex) {
  const double w = 10.0;
  const double left = qp::triangle_overlap(0.0, w, 0.0, 5.0);
  const double right = qp::triangle_overlap(0.0, w, 5.0, 10.0);
  EXPECT_NEAR(left, right, 1e-12);
  EXPECT_NEAR(left, 0.5, 1e-12);
}

TEST(TriangleOverlap, OutsideSupportIsZero) {
  EXPECT_DOUBLE_EQ(qp::triangle_overlap(100.0, 10.0, 0.0, 50.0), 0.0);
  EXPECT_DOUBLE_EQ(qp::triangle_overlap(100.0, 10.0, 120.0, 130.0), 0.0);
}

TEST(TriangleOverlap, DegenerateImpulse) {
  EXPECT_DOUBLE_EQ(qp::triangle_overlap(5.0, 0.0, 0.0, 10.0), 1.0);
  EXPECT_DOUBLE_EQ(qp::triangle_overlap(15.0, 0.0, 0.0, 10.0), 0.0);
}

TEST(PowerTrace, ArithmeticAndCharge) {
  qp::PowerTrace a(0.0, 2.0, 4);
  a[0] = 1.0;
  a[1] = 3.0;
  qp::PowerTrace b(0.0, 2.0, 4);
  b[0] = 0.5;
  b += a;
  EXPECT_DOUBLE_EQ(b[0], 1.5);
  EXPECT_DOUBLE_EQ(b[1], 3.0);
  b -= a;
  EXPECT_DOUBLE_EQ(b[0], 0.5);
  b *= 2.0;
  EXPECT_DOUBLE_EQ(b[0], 1.0);
  EXPECT_DOUBLE_EQ(a.total_charge_fc(), (1.0 + 3.0) * 2.0);
  EXPECT_DOUBLE_EQ(a.time_of(0), 1.0);
}

namespace {
std::vector<qs::Transition> one_transition(double t, bool rising, double cap,
                                           double slew) {
  qs::Transition tr;
  tr.t_ps = t;
  tr.net = 0;
  tr.rising = rising;
  tr.cap_ff = cap;
  tr.slew_ps = slew;
  return {tr};
}
}  // namespace

TEST(Synthesize, ChargeExactness) {
  // One rising transition: integral of the trace = weight * C_total * Vdd,
  // in µA·ps after the mA -> µA scaling (x1000 cancels against fC units).
  qp::PowerModelParams pm;
  pm.sample_period_ps = 5.0;
  const auto trs = one_transition(200.0, true, 8.0, 50.0);
  const qp::PowerTrace trace = qp::synthesize(trs, 0.0, 1000.0, pm, nullptr);
  const double q_expected = 1000.0 * pm.total_cap_ff(8.0) * pm.vdd;  // µA·ps
  EXPECT_NEAR(trace.total_charge_fc(), q_expected, 1e-9);
}

TEST(Synthesize, FallingEdgeIsWeighted) {
  qp::PowerModelParams pm;
  const qp::PowerTrace up =
      qp::synthesize(one_transition(200.0, true, 8.0, 50.0), 0.0, 500.0, pm, nullptr);
  const qp::PowerTrace dn =
      qp::synthesize(one_transition(200.0, false, 8.0, 50.0), 0.0, 500.0, pm, nullptr);
  EXPECT_NEAR(dn.total_charge_fc() / up.total_charge_fc(),
              pm.fall_weight / pm.rise_weight, 1e-9);
}

TEST(Synthesize, PulseEndsAtCommitTime) {
  qp::PowerModelParams pm;
  pm.sample_period_ps = 1.0;
  const auto trs = one_transition(300.0, true, 8.0, 40.0);
  const qp::PowerTrace trace = qp::synthesize(trs, 0.0, 600.0, pm, nullptr);
  // All charge must lie in [260, 300].
  for (std::size_t j = 0; j < trace.size(); ++j) {
    const double t = trace.time_of(j);
    if (t < 259.0 || t > 301.0) EXPECT_EQ(trace[j], 0.0) << t;
  }
  EXPECT_GT(trace[280], 0.0);
}

TEST(Synthesize, WindowClipping) {
  qp::PowerModelParams pm;
  // Transition entirely before the window contributes nothing.
  const qp::PowerTrace t1 =
      qp::synthesize(one_transition(100.0, true, 8.0, 20.0), 500.0, 300.0, pm, nullptr);
  EXPECT_DOUBLE_EQ(t1.total_charge_fc(), 0.0);
  // Transition straddling the window start contributes partially.
  const qp::PowerTrace t2 =
      qp::synthesize(one_transition(510.0, true, 8.0, 40.0), 500.0, 300.0, pm, nullptr);
  EXPECT_GT(t2.total_charge_fc(), 0.0);
  const double full = 1000.0 * pm.total_cap_ff(8.0) * pm.vdd;
  EXPECT_LT(t2.total_charge_fc(), full);
}

TEST(Synthesize, BiggerCapMeansMoreChargeAndWiderPulse) {
  qp::PowerModelParams pm;
  pm.sample_period_ps = 1.0;
  const qp::PowerTrace small =
      qp::synthesize(one_transition(200.0, true, 4.0, 30.0), 0.0, 400.0, pm, nullptr);
  const qp::PowerTrace big =
      qp::synthesize(one_transition(200.0, true, 40.0, 210.0), 0.0, 400.0, pm, nullptr);
  EXPECT_GT(big.total_charge_fc(), small.total_charge_fc());
  // Wider pulse: the big-cap trace has more non-zero samples.
  std::size_t nz_small = 0, nz_big = 0;
  for (std::size_t j = 0; j < small.size(); ++j) {
    if (small[j] > 0.0) ++nz_small;
    if (big[j] > 0.0) ++nz_big;
  }
  EXPECT_GT(nz_big, nz_small);
}

TEST(Synthesize, NoiseIsSeededAndZeroMean) {
  qp::PowerModelParams pm;
  pm.noise_sigma_ua = 2.0;
  const std::vector<qs::Transition> none;
  qdi::util::Rng r1(99), r2(99), r3(100);
  const qp::PowerTrace a = qp::synthesize(none, 0.0, 10000.0, pm, &r1);
  const qp::PowerTrace b = qp::synthesize(none, 0.0, 10000.0, pm, &r2);
  const qp::PowerTrace c = qp::synthesize(none, 0.0, 10000.0, pm, &r3);
  for (std::size_t j = 0; j < a.size(); ++j) EXPECT_DOUBLE_EQ(a[j], b[j]);
  bool differs = false;
  for (std::size_t j = 0; j < a.size(); ++j)
    if (a[j] != c[j]) differs = true;
  EXPECT_TRUE(differs);
  // Mean near zero.
  double mean = 0.0;
  for (std::size_t j = 0; j < a.size(); ++j) mean += a[j];
  mean /= static_cast<double>(a.size());
  EXPECT_NEAR(mean, 0.0, 0.3);
}

TEST(Synthesize, ZeroNoiseWithoutRng) {
  qp::PowerModelParams pm;
  pm.noise_sigma_ua = 5.0;  // ignored without an Rng
  const std::vector<qs::Transition> none;
  const qp::PowerTrace t = qp::synthesize(none, 0.0, 1000.0, pm, nullptr);
  for (std::size_t j = 0; j < t.size(); ++j) EXPECT_DOUBLE_EQ(t[j], 0.0);
}

TEST(Synthesize, XorCycleTraceHasBothPhases) {
  // Integration: the fig. 6 setup — a full XOR cycle produces current
  // activity in the evaluation phase and in the return-to-zero phase.
  qg::XorStage x = qg::build_xor_stage();
  qs::Simulator sim(x.nl);
  qs::FourPhaseEnv env(sim, x.env);
  env.apply_reset();
  qs::TransitionLog log;
  sim.set_power_sink(&log);
  const std::vector<int> v{1, 0};
  const auto cyc = env.send(v);
  ASSERT_TRUE(cyc.ok);
  qp::PowerModelParams pm;
  const qp::PowerTrace trace = qp::synthesize(log.transitions, cyc.t_start,
                                              x.env.period_ps, pm, nullptr);
  // Charge in the evaluation window and in the RTZ window must both be
  // strictly positive.
  double q_eval = 0.0, q_rtz = 0.0;
  for (std::size_t j = 0; j < trace.size(); ++j) {
    const double t = trace.time_of(j);
    if (t <= cyc.t_valid)
      q_eval += trace[j];
    else if (t >= cyc.t_valid && t <= cyc.t_empty)
      q_rtz += trace[j];
  }
  EXPECT_GT(q_eval, 0.0);
  EXPECT_GT(q_rtz, 0.0);
}

// ---- pulse cache -------------------------------------------------------------
//
// A long-lived StreamingAccumulator replays stored pulse spans across
// traces; every path — hit, record, and each direct-binning fallback —
// must equal power::synthesize over the reference engine's log.

namespace {

/// One accumulator fed by the compiled kernel over many traces of a
/// target, each trace checked against synthesize() over the reference
/// engine's log of the same trace.
class CacheHarness {
 public:
  explicit CacheHarness(const qc::TargetInstance& inst)
      : inst_(inst),
        spec_(relaxed(inst.env)),
        comp_(qs::compile(inst.nl)),
        comp_env_(comp_, spec_),
        ref_(inst.nl),
        ref_env_(ref_, spec_) {
    comp_env_.apply_reset();
    epoch_ = comp_.save_epoch();
  }

  /// Trace `i` in the window [cycle start - `early_ps`, + `window_ps`),
  /// with `arm` (if set) called on each engine before the cycle runs.
  void trace(std::size_t i, double early_ps, double window_ps,
             const std::function<void(qs::SimEngine&, double)>& arm = {}) {
    SCOPED_TRACE("trace " + std::to_string(i));
    qu::Rng rng = qu::split_stream(5, i);
    inst_.stimulus(rng, i, stim_);

    comp_.restore_epoch(epoch_);
    const double t_start = comp_env_.next_cycle_start();
    if (arm) arm(comp_, t_start);
    acc_.begin_window(t_start - early_ps, window_ps);
    comp_.set_power_sink(&acc_);
    comp_env_.send_into(stim_.values, cyc_);
    comp_.set_power_sink(nullptr);
    qp::PowerTrace got;
    acc_.finish_into(got);

    ref_.reset_state();
    ref_env_.apply_reset();
    ref_log_.transitions.clear();
    ASSERT_EQ(ref_env_.next_cycle_start(), t_start);
    if (arm) arm(ref_, t_start);
    ref_.set_power_sink(&ref_log_);
    ref_env_.send_into(stim_.values, cyc_);
    ref_.set_power_sink(nullptr);
    const qp::PowerTrace want =
        qp::synthesize(ref_log_.transitions, t_start - early_ps, window_ps,
                       acc_.params(), nullptr);

    ASSERT_EQ(got.t0_ps(), want.t0_ps());
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t j = 0; j < want.size(); ++j)
      ASSERT_EQ(got[j], want[j]) << "sample " << j;
  }

  const qp::StreamingAccumulator& acc() const { return acc_; }
  /// The reference engine's commits in the last trace.
  const std::vector<qs::Transition>& log() const {
    return ref_log_.transitions;
  }

 private:
  static qs::EnvSpec relaxed(qs::EnvSpec spec) {
    spec.strict = false;  // a faulted cycle may stall; its power still counts
    return spec;
  }

  const qc::TargetInstance& inst_;
  qs::EnvSpec spec_;
  qs::CompiledSimulator comp_;
  qs::FourPhaseEnv comp_env_;
  qs::CompiledSimulator::Epoch epoch_;
  qs::Simulator ref_;
  qs::FourPhaseEnv ref_env_;
  qp::StreamingAccumulator acc_;
  qc::Stimulus stim_;
  qs::FourPhaseEnv::CycleResult cyc_;
  qs::TransitionLog ref_log_;
};

}  // namespace

TEST(PulseCache, RepeatedWindowsReplayStoredSpansBitIdentically) {
  const qc::TargetInstance inst = qc::des_sbox_slice().build(0x15);
  CacheHarness h(inst);
  for (std::size_t i = 0; i < 24; ++i) h.trace(i, 0.0, inst.env.period_ps);
  EXPECT_GT(h.acc().pulse_hits(), h.acc().pulse_misses());
}

TEST(PulseCache, JitteredWindowsFallBackToDirectBinning) {
  // start_jitter_ps > 0: every window starts elsewhere, so every window
  // is a new generation and no stored span is ever replayed.
  const qc::TargetInstance inst = qc::des_sbox_slice().build(0x15);
  CacheHarness h(inst);
  qu::Rng jitter(11);
  for (std::size_t i = 0; i < 12; ++i)
    h.trace(i, jitter.uniform(0.0, 300.0), inst.env.period_ps);
  EXPECT_EQ(h.acc().pulse_hits(), 0u);
  EXPECT_GT(h.acc().pulse_misses(), 0u);
}

TEST(PulseCache, ForcedNetWithZeroSlewBinsDirectly) {
  // A fault-campaign glitch commits the forced edge with slew 0; the
  // same (net, edge) commits with its driver's slew in fault-free
  // traces. Alternating the two exercises the slew-mismatch fallback
  // in both orders (group recorded by a forced or by a free edge).
  const qc::TargetInstance inst = qc::des_sbox_slice().build(0x15);
  const std::vector<qn::NetId> sites = qs::fault_sites(inst.nl);
  ASSERT_FALSE(sites.empty());
  CacheHarness h(inst);
  bool saw_forced = false;
  bool saw_free = false;
  for (const qn::NetId site : {sites[sites.size() / 3], sites[sites.size() / 2]}) {
    for (std::size_t i = 0; i < 8; ++i) {
      const bool forced = i % 3 != 1;
      h.trace(i / 2, 0.0, inst.env.period_ps,
              [&](qs::SimEngine& sim, double t_start) {
                if (forced)
                  qs::FaultInjector(sim).arm(
                      {site, qs::FaultKind::Glitch1, 150.0, 200.0}, t_start);
              });
      for (const qs::Transition& t : h.log()) {
        if (t.net != site || !t.rising) continue;
        (t.slew_ps == 0.0 ? saw_forced : saw_free) = true;
      }
    }
  }
  EXPECT_TRUE(saw_forced);
  EXPECT_TRUE(saw_free);
  EXPECT_GT(h.acc().pulse_hits(), 0u);
}

TEST(PulseCache, SlewOrCapMismatchAtACachedTimeBinsDirectly) {
  // The same (net, edge, t_ps) as a stored span, but with the slew of a
  // forced edge (0) or another load: the stored addends do not apply.
  qp::PowerModelParams pm;
  const qs::Transition free_edge{300.0, 5, true, 4.0, 30.0};
  qs::Transition forced = free_edge;
  forced.slew_ps = 0.0;
  qs::Transition loaded = free_edge;
  loaded.cap_ff = 8.0;
  qp::StreamingAccumulator acc(pm);
  qp::PowerTrace got;
  int w = 0;
  for (const qs::Transition& t :
       {free_edge, free_edge, forced, loaded, free_edge, forced}) {
    SCOPED_TRACE("window " + std::to_string(w++));
    const qp::PowerTrace want = qp::synthesize({t}, 0.0, 600.0, pm, nullptr);
    acc.begin_window(0.0, 600.0);
    acc.on_transition(t);
    acc.finish_into(got);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t j = 0; j < want.size(); ++j)
      ASSERT_EQ(got[j], want[j]) << "sample " << j;
  }
  // Window 0 warms up, window 1 records; only window 4 replays.
  EXPECT_EQ(acc.pulse_hits(), 1u);
  EXPECT_EQ(acc.pulse_misses(), 5u);
}

TEST(PulseCache, GenerationWrapNeverReplaysAStaleSpan) {
  // A span recorded in one generation, then exactly one full turn of
  // the generation counter of window changes: the stale span must not
  // look current again.
  qp::PowerModelParams pm;
  const std::vector<qs::Transition> edge{{300.0, 5, true, 4.0, 30.0}};
  qp::StreamingAccumulator acc(pm);
  qp::PowerTrace got;
  for (int w = 0; w < 2; ++w) {  // warm-up, then record
    acc.begin_window(0.0, 600.0);
    acc.on_transition(edge[0]);
    acc.finish_into(got);
  }
  const double turn = 65535.0;  // window changes back to that generation
  for (double t0 = 1.0; t0 < turn; t0 += 1.0) {
    acc.begin_window(t0, 600.0);
    acc.finish_into(got);
  }
  acc.begin_window(turn, 600.0);
  acc.on_transition(edge[0]);
  acc.finish_into(got);
  const qp::PowerTrace want = qp::synthesize(edge, turn, 600.0, pm, nullptr);
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t j = 0; j < want.size(); ++j)
    ASSERT_EQ(got[j], want[j]) << "sample " << j;
  EXPECT_EQ(acc.pulse_hits(), 0u);
}

TEST(PulseCache, MoreCommitTimesThanSlotsBinDirectly) {
  // One (net, edge) rising at six distinct times per window — more than
  // a pulse group holds — amid ordinary one-time pulses.
  qp::PowerModelParams pm;
  std::vector<qs::Transition> trs;
  for (int k = 0; k < 6; ++k) {
    trs.push_back({100.0 + 120.0 * k, 3, true, 6.0, 37.0});
    trs.push_back({160.0 + 120.0 * k, 3, false, 6.0, 37.0});
  }
  trs.push_back({905.0, 1, true, 2.5, 18.0});
  trs.push_back({905.0, 2, false, 9.0, 55.0});
  const qp::PowerTrace want = qp::synthesize(trs, 40.0, 1000.0, pm, nullptr);

  qp::StreamingAccumulator acc(pm);
  qp::PowerTrace got;
  for (int w = 0; w < 4; ++w) {
    acc.begin_window(40.0, 1000.0);
    for (const qs::Transition& t : trs) acc.on_transition(t);
    acc.finish_into(got);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t j = 0; j < want.size(); ++j)
      ASSERT_EQ(got[j], want[j]) << "window " << w << " sample " << j;
  }
  EXPECT_GT(acc.pulse_hits(), 0u);
  // Later windows still bin part of the crowded group directly.
  EXPECT_GT(acc.pulse_misses(), trs.size());
}

TEST(PulseCache, WindowLengthChangeOnALiveAccumulator) {
  // Shorter windows clip late pulses (recorded as empty spans), longer
  // ones reach them; each change starts a new generation, and returning
  // to an earlier length must not replay the spans of the one between.
  const qc::TargetInstance inst = qc::des_sbox_slice().build(0x15);
  CacheHarness h(inst);
  const double p = inst.env.period_ps;
  std::size_t i = 0;
  for (const double len : {p, p, 0.4 * p, 0.4 * p, 1.5 * p, p, p})
    h.trace(i++, 0.0, len);
  EXPECT_GT(h.acc().pulse_hits(), 0u);
}

TEST(PulseCache, DesRoundHitRateAfter64Traces) {
  // Each distinct (net, edge, t) pulse misses once; after 64 warm-up
  // traces (both rails of most bits seen) nearly every pulse replays.
  const qc::TargetInstance inst = qc::des_round().build(0x2b);
  CacheHarness h(inst);
  for (std::size_t i = 0; i < 64; ++i) h.trace(i, 0.0, inst.env.period_ps);
  const std::uint64_t hits0 = h.acc().pulse_hits();
  const std::uint64_t misses0 = h.acc().pulse_misses();
  for (std::size_t i = 64; i < 128; ++i) h.trace(i, 0.0, inst.env.period_ps);
  const auto hits = static_cast<double>(h.acc().pulse_hits() - hits0);
  const auto misses = static_cast<double>(h.acc().pulse_misses() - misses0);
  EXPECT_GE(hits / (hits + misses), 0.95)
      << hits << " hits, " << misses << " misses";
}

// ---- scalar vs 64-lane accumulator ------------------------------------------
//
// Both accumulators bin through the same pulse rules. Fed one random
// stream of merged commits — lane l of the batch accumulator sees the
// commits whose live mask holds l, a scalar accumulator per lane sees
// the same subsequence — they must agree bit for bit over several
// windows, and both must conserve each pulse's charge in the window.

namespace {

/// One merged commit of the batch kernel.
struct Commit {
  double t_ps;
  std::uint32_t net;
  std::uint64_t live;
  std::uint64_t rising;
};

void expect_accumulators_agree(const qp::PowerModelParams& pm, bool jittered,
                               std::uint64_t seed) {
  constexpr std::size_t kNets = 48;
  constexpr std::size_t kLanes = qs::kBatchLanes;
  constexpr double kT0 = 10000.0;
  constexpr double kWindowPs = 3000.0;  // 300 bins of 10 ps
  qu::Rng rng(seed);
  std::vector<double> caps(kNets);
  std::vector<double> slews(kNets);
  for (std::size_t net = 0; net < kNets; ++net) {
    caps[net] = rng.uniform(1.0, 20.0);
    // Every 8th net swings over more than 255 bins: its spans are never
    // stored in the pulse cache. Net 1 has a sub-femtosecond slew, which
    // binning widens to 1 fs.
    slews[net] = net % 8 == 0 ? rng.uniform(2600.0, 4000.0)
                 : net == 1   ? 0.0
                              : rng.uniform(5.0, 120.0);
  }
  // Commit times reach from well before the window (long pulses
  // straddle its start) to past its end (pulses straddle it or miss).
  const auto random_commit = [&] {
    return Commit{kT0 + rng.uniform(-4500.0, kWindowPs + 600.0),
                  static_cast<std::uint32_t>(rng.below(kNets)), rng.next(),
                  rng.next()};
  };
  // A stream shared by every window, so the scalar accumulators replay
  // stored spans once warm; each window adds fresh commits.
  std::vector<Commit> shared(160);
  for (Commit& c : shared) c = random_commit();

  qp::BatchAccumulator batch(pm, caps);
  std::vector<qp::StreamingAccumulator> scalar(kLanes,
                                               qp::StreamingAccumulator(pm));
  for (int w = 0; w < 4; ++w) {
    SCOPED_TRACE("window " + std::to_string(w));
    double t0[kLanes];
    for (std::size_t l = 0; l < kLanes; ++l) {
      t0[l] = jittered ? kT0 + rng.uniform(0.0, 400.0) : kT0;
      scalar[l].begin_window(t0[l], kWindowPs);
    }
    batch.begin_windows(t0, ~std::uint64_t{0}, kWindowPs);
    std::vector<Commit> commits = shared;
    for (int k = 0; k < 80; ++k) commits.push_back(random_commit());

    std::vector<double> charge(kLanes, 0.0);  // fC expected in the window
    for (const Commit& c : commits) {
      batch.on_batch_transition(c.t_ps, c.net, c.live, c.rising & c.live,
                                slews[c.net]);
      for (std::size_t l = 0; l < kLanes; ++l) {
        if (((c.live >> l) & 1u) == 0) continue;
        const qs::Transition t{c.t_ps, c.net, ((c.rising >> l) & 1u) != 0,
                               caps[c.net], slews[c.net]};
        scalar[l].on_transition(t);
        const double width = std::max(t.slew_ps, 1e-3);
        charge[l] += qp::transition_charge_fc(t, pm) *
                     qp::triangle_overlap(t.t_ps - width, width, t0[l],
                                          t0[l] + kWindowPs);
      }
    }
    for (std::size_t l = 0; l < kLanes; ++l) {
      SCOPED_TRACE("lane " + std::to_string(l));
      qp::PowerTrace got;
      qp::PowerTrace want;
      batch.finish_into_lane(l, got);
      scalar[l].finish_into(want);
      ASSERT_EQ(got.t0_ps(), want.t0_ps());
      ASSERT_EQ(got.size(), want.size());
      for (std::size_t j = 0; j < want.size(); ++j)
        ASSERT_EQ(std::bit_cast<std::uint64_t>(got[j]),
                  std::bit_cast<std::uint64_t>(want[j]))
            << "sample " << j;
      // µA·ps of the trace against the fC of the pulses' overlaps.
      const double q = 1000.0 * charge[l];
      EXPECT_NEAR(want.total_charge_fc(), q, 1e-12 * std::abs(q));
    }
  }
  if (!jittered) {
    std::uint64_t hits = 0;
    for (const qp::StreamingAccumulator& a : scalar) hits += a.pulse_hits();
    EXPECT_GT(hits, 0u) << "no stored span was replayed";
  }
}

}  // namespace

TEST(AccumulatorDifferential, AlignedWindowsBitIdentical) {
  expect_accumulators_agree(qp::PowerModelParams{}, false, 1);
}

TEST(AccumulatorDifferential, JitteredWindowsBitIdentical) {
  expect_accumulators_agree(qp::PowerModelParams{}, true, 2);
}

TEST(AccumulatorDifferential, ZeroChargeFallingEdgesBitIdentical) {
  // fall_weight = 0: every falling pulse carries q == 0 and adds nothing.
  qp::PowerModelParams pm;
  pm.fall_weight = 0.0;
  expect_accumulators_agree(pm, false, 3);
  expect_accumulators_agree(pm, true, 4);
}

// ---- sample-grid precondition ----------------------------------------------

TEST(PowerAccumulators, RejectNonPositiveOrNonFiniteSamplePeriod) {
  const std::vector<double> caps(4, 3.0);
  for (const double dt : {0.0, -10.0, std::nan(""),
                          std::numeric_limits<double>::infinity()}) {
    SCOPED_TRACE(dt);
    qp::PowerModelParams pm;
    pm.sample_period_ps = dt;
    EXPECT_THROW(qp::StreamingAccumulator{pm}, std::invalid_argument);
    EXPECT_THROW(qp::BatchAccumulator(pm, caps), std::invalid_argument);
    EXPECT_THROW(qp::synthesize({}, 0.0, 100.0, pm, nullptr),
                 std::invalid_argument);
  }
}
