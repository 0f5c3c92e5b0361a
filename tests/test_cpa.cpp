#include <gtest/gtest.h>

#include <bit>
#include <cmath>

#include "qdi/crypto/des.hpp"

#include "qdi/campaign/target.hpp"
#include "qdi/crypto/aes.hpp"
#include "qdi/dpa/cpa.hpp"
#include "qdi/util/rng.hpp"

namespace qd = qdi::dpa;
namespace qc = qdi::crypto;
namespace qu = qdi::util;
namespace qp = qdi::power;

namespace {
/// Traces leaking hw(SBOX(p ^ key)) at one sample plus noise.
qd::TraceSet synthetic_hw_leak(std::size_t n, std::uint8_t key, double amp,
                               double noise, std::uint64_t seed) {
  qu::Rng rng(seed);
  qd::TraceSet ts;
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint8_t p = rng.byte();
    qp::PowerTrace t(0.0, 10.0, 48);
    for (std::size_t j = 0; j < 48; ++j) t[j] = rng.gaussian(0.0, noise);
    const int hw = std::popcount(
        static_cast<unsigned>(qc::aes_sbox(static_cast<std::uint8_t>(p ^ key))));
    t[17] += amp * hw;
    ts.add(std::move(t), {p});
  }
  return ts;
}
}  // namespace

TEST(LeakageModels, HammingWeights) {
  const auto m = qd::aes_sbox_hw_model(0);
  const std::vector<std::uint8_t> pt{0x00};
  EXPECT_DOUBLE_EQ(m(pt, 0x00),
                   std::popcount(static_cast<unsigned>(qc::aes_sbox(0))));
  const auto x = qd::aes_xor_hw_model(0);
  EXPECT_DOUBLE_EQ(x(pt, 0xff), 8.0);
  EXPECT_DOUBLE_EQ(x(pt, 0x0f), 4.0);
  const auto d = qd::des_sbox_hw_model(0);
  EXPECT_DOUBLE_EQ(d(pt, 0),
                   std::popcount(static_cast<unsigned>(qdi::crypto::des_sbox(0, 0))));
}

TEST(Cpa, RecoversPlantedKey) {
  const std::uint8_t key = 0x9c;
  const auto ts = synthetic_hw_leak(1500, key, 2.0, 1.0, 21);
  const qd::CpaResult r = qd::cpa_attack(ts, qd::aes_sbox_hw_model(0), 256);
  EXPECT_EQ(r.best_guess, key);
  EXPECT_EQ(r.rank_of(key), 0u);
  EXPECT_EQ(r.best_sample, 17u);
  EXPECT_GT(r.best_rho, 0.8);
  EXPECT_GT(r.margin(), 1.5);
}

TEST(Cpa, CorrelationTracePeaksAtLeakSample) {
  const std::uint8_t key = 0x42;
  const auto ts = synthetic_hw_leak(1000, key, 3.0, 0.5, 22);
  const auto rho = qd::cpa_correlation_trace(ts, qd::aes_sbox_hw_model(0), key);
  std::size_t best = 0;
  for (std::size_t j = 0; j < rho.size(); ++j)
    if (std::fabs(rho[j]) > std::fabs(rho[best])) best = j;
  EXPECT_EQ(best, 17u);
  EXPECT_GT(rho[17], 0.9);
}

TEST(Cpa, NoLeakMeansLowCorrelation) {
  const auto ts = synthetic_hw_leak(1000, 0x00, 0.0, 1.0, 23);
  const qd::CpaResult r = qd::cpa_attack(ts, qd::aes_sbox_hw_model(0), 256);
  EXPECT_LT(r.best_rho, 0.2);
}

TEST(Cpa, WindowRestrictsSearch) {
  const std::uint8_t key = 0x5d;
  const auto ts = synthetic_hw_leak(800, key, 3.0, 0.5, 24);
  // Window excluding the leak sample: correct key no longer special.
  const qd::CpaResult blind =
      qd::cpa_attack(ts, qd::aes_sbox_hw_model(0), 256, 0, 20, 48);
  EXPECT_LT(blind.best_rho, 0.3);
  // Window containing it: recovered.
  const qd::CpaResult seeing =
      qd::cpa_attack(ts, qd::aes_sbox_hw_model(0), 256, 0, 10, 20);
  EXPECT_EQ(seeing.best_guess, key);
}

TEST(Cpa, PrefixUsesFewerTraces) {
  const std::uint8_t key = 0x31;
  const auto ts = synthetic_hw_leak(2000, key, 1.0, 4.0, 25);
  const qd::CpaResult few = qd::cpa_attack(ts, qd::aes_sbox_hw_model(0), 256, 100);
  const qd::CpaResult many = qd::cpa_attack(ts, qd::aes_sbox_hw_model(0), 256, 2000);
  // With heavy noise, 100 traces are usually not enough but 2000 are.
  EXPECT_EQ(many.best_guess, key);
  EXPECT_GE(many.margin(), few.margin() * 0.8);
}

TEST(Cpa, EndToEndOnUnbalancedSlice) {
  // CPA against the simulated circuit: unbalance the S-Box output
  // channels so that rail-1 charge tracks the output Hamming weight.
  const std::uint8_t key = 0x66;
  qdi::campaign::TargetInstance inst =
      qdi::campaign::aes_byte_slice().build(key);
  for (qdi::netlist::ChannelId ch = 0; ch < inst.nl.num_channels(); ++ch) {
    const qdi::netlist::Channel& c = inst.nl.channel(ch);
    if (c.name.find("sbox/out") != std::string::npos ||
        c.name.find("hb/q_q") != std::string::npos)
      inst.nl.net(c.rails[1]).cap_ff *= 2.0;
  }
  qdi::campaign::SimTraceSource src(inst.nl, inst.env, inst.stimulus, {});
  const qd::TraceSet ts = qdi::campaign::WorkerPool(src, 1).acquire(400, 5);
  const qd::CpaResult r = qd::cpa_attack(ts, qd::aes_sbox_hw_model(0), 256);
  EXPECT_EQ(r.best_guess, key);
  EXPECT_EQ(r.rank_of(key), 0u);
}
