// Integration: the paper's full story on one byte slice —
//   balanced layout -> no exploitable DPA leak;
//   rail-capacitance dissymmetry (what flat P&R produces) -> key recovery;
//   repair / re-balancing -> leak collapses again.
#include <gtest/gtest.h>

#include "qdi/campaign/target.hpp"
#include "qdi/core/criterion.hpp"
#include "qdi/core/secure_flow.hpp"
#include "qdi/dpa/dpa.hpp"

namespace qc = qdi::campaign;
namespace qd = qdi::dpa;
namespace qo = qdi::core;
namespace qn = qdi::netlist;

namespace {

/// Multiply the cap of rail-1 of every channel whose name matches one of
/// `needles` by `factor` (a deterministic stand-in for what an
/// uncontrolled flat P&R does).
void unbalance_channels(qn::Netlist& nl,
                        std::initializer_list<const char*> needles,
                        double factor) {
  for (qn::ChannelId ch = 0; ch < nl.num_channels(); ++ch) {
    const qn::Channel& c = nl.channel(ch);
    for (const char* needle : needles)
      if (c.name.find(needle) != std::string::npos) {
        nl.net(c.rails[1]).cap_ff *= factor;
        break;
      }
  }
}

/// The S-Box output rails and the latched outputs they feed.
void unbalance_sbox_outputs(qn::Netlist& nl, double factor) {
  unbalance_channels(nl, {"sbox/out", "hb/q_q"}, factor);
}

qd::TraceSet acquire(const qc::TargetInstance& inst, std::size_t n,
                     double noise = 0.0,
                     qdi::sim::DelayModel delays = {}) {
  qc::SimTraceSourceOptions opt;
  opt.power.noise_sigma_ua = noise;
  opt.delays = delays;
  qc::SimTraceSource src(inst.nl, inst.env, inst.stimulus, opt);
  return qc::WorkerPool(src, 1).acquire(n, 1234);
}

std::vector<qd::SelectionFn> sbox_bits() {
  std::vector<qd::SelectionFn> bits;
  for (int b = 0; b < 8; ++b) bits.push_back(qd::aes_sbox_selection(0, b));
  return bits;
}

}  // namespace

TEST(EndToEnd, UnbalancedRailsLeakTheKey) {
  const std::uint8_t key = 0x4f;
  qc::TargetInstance inst = qc::aes_byte_slice().build(key);
  unbalance_sbox_outputs(inst.nl, 2.0);
  const qd::TraceSet ts = acquire(inst, 300);
  const auto r = qd::recover_key_multibit(ts, sbox_bits(), 256);
  EXPECT_EQ(r.best_guess, key);
  EXPECT_EQ(r.rank_of(key), 0u);
  EXPECT_GT(r.margin(), 1.2);
}

TEST(EndToEnd, BalancedRailsDoNotLeak) {
  const std::uint8_t key = 0x4f;
  const qc::TargetInstance inst = qc::aes_byte_slice().build(key);
  const qd::TraceSet ts = acquire(inst, 300);
  const auto r = qd::recover_key_multibit(ts, sbox_bits(), 256);
  // With uniform caps every guess's bias is numerically negligible: the
  // best peak must not stand out the way the leaky layout's does.
  EXPECT_LT(r.margin(), 1.2);
}

TEST(EndToEnd, LeakSurvivesMeasurementNoise) {
  const std::uint8_t key = 0xd2;
  qc::TargetInstance inst = qc::aes_byte_slice().build(key);
  unbalance_sbox_outputs(inst.nl, 2.0);
  const qd::TraceSet ts = acquire(inst, 600, /*noise=*/2.0);
  const auto r = qd::recover_key_multibit(ts, sbox_bits(), 256);
  EXPECT_EQ(r.best_guess, key);
}

TEST(EndToEnd, RepairPassKillsTheLeak) {
  const std::uint8_t key = 0x4f;
  qc::TargetInstance inst = qc::aes_byte_slice().build(key);
  unbalance_sbox_outputs(inst.nl, 2.0);

  // Confirm leak, then repair in place and re-acquire.
  const qd::TraceSet leaky = acquire(inst, 300);
  const auto before = qd::recover_key_multibit(leaky, sbox_bits(), 256);
  ASSERT_EQ(before.best_guess, key);

  const auto [touched, added] = qo::repair_rail_caps(inst.nl, 0.0);
  EXPECT_GT(touched, 0u);
  EXPECT_GT(added, 0.0);
  const auto criteria = qo::evaluate_criterion(inst.nl);
  EXPECT_NEAR(qo::max_dA(criteria), 0.0, 1e-9);

  const qd::TraceSet fixed = acquire(inst, 300);
  const auto after = qd::recover_key_multibit(fixed, sbox_bits(), 256);
  EXPECT_LT(after.best_peak, before.best_peak * 0.2);
}

TEST(EndToEnd, BiggerDissymmetryMeansBiggerBias) {
  // Eq. 12 end to end: the DPA bias grows with the rail-cap ratio. The
  // integrated |T| is used because the single-sample peak drifts between
  // sample bins as the imbalance also shifts timing.
  // Only the targeted bit's channels are unbalanced so the other output
  // bits do not contribute algorithmic noise, and the load-insensitive
  // delay model isolates eq. 12's charge term (with load-dependent
  // timing, the shifted downstream activity aliases across sample bins
  // and the ordering is only approximate — the ablation bench covers
  // that regime).
  const std::uint8_t key = 0x00;
  double prev = 0.0;
  for (double factor : {1.0, 1.5, 2.0, 3.0}) {
    qc::TargetInstance inst = qc::aes_byte_slice().build(key);
    unbalance_channels(inst.nl, {"sbox/out0", "hb/q_q0"}, factor);
    const qd::TraceSet ts =
        acquire(inst, 200, 0.0, qdi::sim::DelayModel::load_insensitive());
    const auto bias = qd::dpa_bias(ts, qd::aes_sbox_selection(0, 0), key);
    EXPECT_GT(bias.integrated, prev) << "factor " << factor;
    prev = bias.integrated;
  }
  EXPECT_GT(prev, 0.0);
}

TEST(EndToEnd, XorChannelLeakIsObservableWithKnownKey) {
  // Section IV's D-function on the AddRoundKey XOR output: with known
  // key (designer-side evaluation) the bias on an unbalanced x-channel
  // shows a clear peak; the balanced circuit shows none.
  const std::uint8_t key = 0xb7;
  auto bias_with_factor = [&](double factor) {
    qc::TargetInstance inst = qc::aes_byte_slice().build(key);
    unbalance_channels(inst.nl, {"addkey0/x0"}, factor);
    const qd::TraceSet ts = acquire(inst, 250);
    return qd::dpa_bias(ts, qd::aes_xor_selection(0, 0), key).peak;
  };
  const double balanced = bias_with_factor(1.0);
  const double leaky = bias_with_factor(3.0);
  EXPECT_GT(leaky, 10.0 * std::max(balanced, 1e-12));
}
