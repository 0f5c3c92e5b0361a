// Acquisition-layer tests against the campaign trace source, the one
// acquisition path: every trace starts from the post-reset state. Back-to-
// back cycles on one simulator are covered by tests/test_environment.cpp.
#include <gtest/gtest.h>

#include "qdi/campaign/target.hpp"
#include "qdi/crypto/aes.hpp"
#include "qdi/crypto/des.hpp"

namespace qc = qdi::campaign;
namespace qd = qdi::dpa;
namespace qy = qdi::crypto;

namespace {

/// Acquire `n` traces from a built target instance through the campaign
/// trace source (compiled engine, the default).
qd::TraceSet acquire(const qc::TargetInstance& inst, std::size_t n,
                     std::uint64_t seed,
                     qc::SimTraceSourceOptions opt = {}) {
  qc::SimTraceSource src(inst.nl, inst.env, inst.stimulus, opt);
  return qc::WorkerPool(src, 1).acquire(n, seed);
}

}  // namespace

TEST(Acquisition, AesSliceCiphertextsMatchGoldenModel) {
  const qc::TargetInstance inst = qc::aes_byte_slice().build(0x2b);
  const qd::TraceSet ts = acquire(inst, 40, 11);
  ASSERT_EQ(ts.size(), 40u);
  for (std::size_t i = 0; i < ts.size(); ++i) {
    const std::uint8_t p = ts.plaintext(i)[0];
    EXPECT_EQ(ts.ciphertext(i)[0],
              qy::aes_sbox(static_cast<std::uint8_t>(p ^ 0x2b)))
        << "trace " << i;
  }
}

TEST(Acquisition, TracesHaveUniformGeometryAndActivity) {
  const qc::TargetInstance inst = qc::aes_byte_slice().build(0x00);
  const qd::TraceSet ts = acquire(inst, 10, 1);
  const std::size_t n = ts.num_samples();
  EXPECT_GT(n, 0u);
  for (std::size_t i = 0; i < ts.size(); ++i) {
    EXPECT_EQ(ts.trace(i).size(), n);
    EXPECT_GT(ts.trace(i).total_charge_fc(), 0.0);  // real switching activity
  }
}

TEST(Acquisition, DeterministicPerSeed) {
  const qc::TargetInstance i1 = qc::aes_byte_slice().build(0x55);
  const qc::TargetInstance i2 = qc::aes_byte_slice().build(0x55);
  qc::SimTraceSourceOptions opt;
  opt.power.noise_sigma_ua = 1.0;
  const qd::TraceSet a = acquire(i1, 6, 33, opt);
  const qd::TraceSet b = acquire(i2, 6, 33, opt);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.plaintext(i)[0], b.plaintext(i)[0]);
    for (std::size_t j = 0; j < a.num_samples(); ++j)
      ASSERT_DOUBLE_EQ(a.trace(i)[j], b.trace(i)[j]);
  }
}

TEST(Acquisition, SeedsChangePlaintextSequence) {
  const qc::TargetInstance inst = qc::aes_byte_slice().build(0x55);
  const qd::TraceSet a = acquire(inst, 16, 1);
  const qd::TraceSet b = acquire(inst, 16, 2);
  bool differs = false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (a.plaintext(i)[0] != b.plaintext(i)[0]) differs = true;
  EXPECT_TRUE(differs);
}

TEST(Acquisition, DesSliceCiphertextsMatchGoldenModel) {
  const qc::TargetInstance inst = qc::des_sbox_slice().build(0x27);
  const qd::TraceSet ts = acquire(inst, 30, 1);
  for (std::size_t i = 0; i < ts.size(); ++i) {
    const std::uint8_t p = ts.plaintext(i)[0];
    EXPECT_LT(p, 64);
    EXPECT_EQ(ts.ciphertext(i)[0],
              qy::des_sbox(0, static_cast<std::uint8_t>(p ^ 0x27)));
  }
}

TEST(Acquisition, XorStageRecordsBothBits) {
  const qc::TargetInstance inst = qc::xor_stage().build(0);
  const qd::TraceSet ts = acquire(inst, 20, 1);
  for (std::size_t i = 0; i < ts.size(); ++i) {
    EXPECT_LE(ts.plaintext(i)[0], 1);
    EXPECT_LE(ts.plaintext(i)[1], 1);
    EXPECT_EQ(ts.ciphertext(i)[0],
              ts.plaintext(i)[0] ^ ts.plaintext(i)[1]);
  }
}

TEST(Acquisition, BalancedSliceShowsNoKeyDependentCharge) {
  // With uniform caps (no P&R), total per-trace charge must be identical
  // across plaintexts — the QDI balance property seen from the power side.
  const qc::TargetInstance inst = qc::aes_byte_slice().build(0x99);
  const qd::TraceSet ts = acquire(inst, 24, 1);
  const double q0 = ts.trace(0).total_charge_fc();
  for (std::size_t i = 1; i < ts.size(); ++i)
    EXPECT_NEAR(ts.trace(i).total_charge_fc(), q0, q0 * 1e-9);
}
