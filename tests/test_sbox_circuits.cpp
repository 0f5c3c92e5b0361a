#include <gtest/gtest.h>

#include <functional>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "qdi/crypto/aes.hpp"
#include "qdi/crypto/des.hpp"
#include "qdi/gates/sbox.hpp"
#include "qdi/gates/testbench.hpp"
#include "qdi/sim/environment.hpp"
#include "qdi/sim/simulator.hpp"

namespace qn = qdi::netlist;
namespace qs = qdi::sim;
namespace qg = qdi::gates;
namespace qc = qdi::crypto;

namespace {
std::vector<int> slice_values(unsigned p, unsigned k, int bits) {
  std::vector<int> v;
  for (int b = 0; b < bits; ++b) v.push_back((p >> b) & 1);
  for (int b = 0; b < bits; ++b) v.push_back((k >> b) & 1);
  return v;
}

unsigned decode_outputs(const std::vector<int>& outs) {
  unsigned v = 0;
  for (std::size_t b = 0; b < outs.size(); ++b)
    if (outs[b] == 1) v |= (1u << b);
  return v;
}
}  // namespace

TEST(BalancedLut, SmallTableExhaustive) {
  // 3-bit -> 2-bit table with balanced output columns.
  auto table = [](unsigned x) { return ((x * 3u) ^ (x >> 1)) & 3u; };
  // Verify the table is non-constant per bit (required by the generator).
  qn::Netlist nl("lut");
  qg::Builder b(nl);
  std::vector<qg::DualRail> in;
  for (int i = 0; i < 3; ++i) in.push_back(b.dr_input("i" + std::to_string(i)));
  const qg::LutResult lut = qg::build_balanced_lut(b, in, 2, table, "t");
  EXPECT_EQ(lut.minterm_lines.size(), 8u);
  EXPECT_EQ(lut.decode_levels, 2);
  for (const auto& o : lut.outputs) b.dr_output(o, "o");

  qs::EnvSpec spec;
  for (const auto& d : in) spec.inputs.push_back(d.ch);
  for (const auto& d : lut.outputs) spec.outputs.push_back(d.ch);
  spec.period_ps = 4000.0;
  qs::Simulator sim(nl);
  qs::FourPhaseEnv env(sim, spec);
  env.apply_reset();
  for (unsigned p = 0; p < 8; ++p) {
    std::vector<int> v;
    for (int bit = 0; bit < 3; ++bit) v.push_back((p >> bit) & 1);
    const auto cyc = env.send(v);
    ASSERT_TRUE(cyc.ok);
    EXPECT_EQ(decode_outputs(cyc.outputs), table(p)) << "p=" << p;
  }
}

TEST(AesByteSlice, ComputesSboxOfXorExhaustively) {
  qg::AesByteSlice slice = qg::build_aes_byte_slice();
  ASSERT_TRUE(slice.nl.check().empty());
  qs::Simulator sim(slice.nl);
  qs::FourPhaseEnv env(sim, slice.env);
  env.apply_reset();
  const unsigned key = 0x5a;
  for (unsigned p = 0; p < 256; p += 1) {
    const auto cyc = env.send(slice_values(p, key, 8));
    ASSERT_TRUE(cyc.ok) << "p=" << p;
    EXPECT_EQ(decode_outputs(cyc.outputs),
              qc::aes_sbox(static_cast<std::uint8_t>(p ^ key)))
        << "p=" << p;
  }
}

TEST(AesByteSlice, TransitionCountConstantOverAllPlaintexts) {
  // The headline security invariant at block scale: Nt is the same for
  // all 256 plaintext bytes.
  qg::AesByteSlice slice = qg::build_aes_byte_slice();
  qs::Simulator sim(slice.nl);
  qs::FourPhaseEnv env(sim, slice.env);
  env.apply_reset();
  std::size_t expected = 0;
  for (unsigned p = 0; p < 256; p += 1) {
    const auto cyc = env.send(slice_values(p, 0x3c, 8));
    ASSERT_TRUE(cyc.ok);
    if (expected == 0)
      expected = cyc.transitions;
    else
      ASSERT_EQ(cyc.transitions, expected) << "p=" << p;
  }
  EXPECT_EQ(sim.glitch_count(), 0u);
}

TEST(AesByteSlice, TransitionCountConstantOverKeys) {
  qg::AesByteSlice slice = qg::build_aes_byte_slice();
  qs::Simulator sim(slice.nl);
  qs::FourPhaseEnv env(sim, slice.env);
  env.apply_reset();
  std::size_t expected = 0;
  for (unsigned k : {0u, 1u, 0x80u, 0xffu, 0x5au}) {
    const auto cyc = env.send(slice_values(0xa7, k, 8));
    ASSERT_TRUE(cyc.ok);
    if (expected == 0)
      expected = cyc.transitions;
    else
      EXPECT_EQ(cyc.transitions, expected) << "k=" << k;
  }
}

TEST(DesSboxSlice, ComputesSbox1Exhaustively) {
  qg::DesSboxSlice slice = qg::build_des_sbox_slice(0);
  ASSERT_TRUE(slice.nl.check().empty());
  qs::Simulator sim(slice.nl);
  qs::FourPhaseEnv env(sim, slice.env);
  env.apply_reset();
  const unsigned key = 0x2b;
  for (unsigned p = 0; p < 64; ++p) {
    const auto cyc = env.send(slice_values(p, key, 6));
    ASSERT_TRUE(cyc.ok);
    EXPECT_EQ(decode_outputs(cyc.outputs),
              qc::des_sbox(0, static_cast<std::uint8_t>(p ^ key)))
        << "p=" << p;
  }
}

TEST(DesSboxSlice, OtherBoxesMatchReference) {
  for (int box : {3, 7}) {
    qg::DesSboxSlice slice = qg::build_des_sbox_slice(box);
    qs::Simulator sim(slice.nl);
    qs::FourPhaseEnv env(sim, slice.env);
    env.apply_reset();
    for (unsigned p = 0; p < 64; p += 7) {
      const auto cyc = env.send(slice_values(p, 0, 6));
      ASSERT_TRUE(cyc.ok);
      EXPECT_EQ(decode_outputs(cyc.outputs),
                qc::des_sbox(box, static_cast<std::uint8_t>(p)))
          << "box=" << box << " p=" << p;
    }
  }
}

TEST(DesSboxSlice, TransitionCountConstant) {
  qg::DesSboxSlice slice = qg::build_des_sbox_slice(0);
  qs::Simulator sim(slice.nl);
  qs::FourPhaseEnv env(sim, slice.env);
  env.apply_reset();
  std::size_t expected = 0;
  for (unsigned p = 0; p < 64; ++p) {
    const auto cyc = env.send(slice_values(p, 0x15, 6));
    ASSERT_TRUE(cyc.ok);
    if (expected == 0)
      expected = cyc.transitions;
    else
      ASSERT_EQ(cyc.transitions, expected);
  }
}

TEST(BalancedLut, MintermLinesAreOneHot) {
  // Directly probe the decode bundle: exactly one line high per codeword,
  // all low after return-to-zero.
  qn::Netlist nl("dec");
  qg::Builder b(nl);
  std::vector<qg::DualRail> in;
  for (int i = 0; i < 4; ++i) in.push_back(b.dr_input("i" + std::to_string(i)));
  auto table = [](unsigned x) { return x & 1u; };  // any valid table
  const qg::LutResult lut = qg::build_balanced_lut(b, in, 1, table, "t");
  for (const auto& o : lut.outputs) b.dr_output(o, "o");
  ASSERT_EQ(lut.minterm_lines.size(), 16u);

  qs::Simulator sim(nl);
  sim.initialize();
  sim.run_until_stable();
  for (unsigned p = 0; p < 16; ++p) {
    // Drive valid codeword.
    for (int bit = 0; bit < 4; ++bit)
      sim.drive(in[static_cast<std::size_t>(bit)].rail((p >> bit) & 1), true,
                sim.now() + 10);
    sim.run_until_stable();
    unsigned high = 0, which = 99;
    for (std::size_t m = 0; m < lut.minterm_lines.size(); ++m) {
      if (sim.value(lut.minterm_lines[m])) {
        ++high;
        which = static_cast<unsigned>(m);
      }
    }
    EXPECT_EQ(high, 1u) << "p=" << p;
    EXPECT_EQ(which, p);
    // Return to zero.
    for (int bit = 0; bit < 4; ++bit)
      sim.drive(in[static_cast<std::size_t>(bit)].rail((p >> bit) & 1), false,
                sim.now() + 10);
    sim.run_until_stable();
    for (qn::NetId line : lut.minterm_lines) EXPECT_FALSE(sim.value(line));
  }
}

TEST(BalancedLut, RejectsInvalidTablesBeforeBuildingAnything) {
  qn::Netlist nl("bad");
  qg::Builder b(nl);
  std::vector<qg::DualRail> in;
  for (int i = 0; i < 17; ++i)
    in.push_back(b.dr_input("i" + std::to_string(i)));
  const std::size_t cells = nl.num_cells();
  const std::size_t nets = nl.num_nets();
  const auto three = std::span<const qg::DualRail>(in.data(), 3);
  const auto expect_rejected = [&](std::span<const qg::DualRail> ins,
                                   int out_bits,
                                   const std::function<unsigned(unsigned)>& t,
                                   const std::string& needle) {
    try {
      qg::build_balanced_lut(b, ins, out_bits, t, "lutx");
      ADD_FAILURE() << "accepted: " << needle;
    } catch (const std::invalid_argument& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("lutx"), std::string::npos) << what;
      EXPECT_NE(what.find(needle), std::string::npos) << what;
    }
    EXPECT_EQ(nl.num_cells(), cells) << needle;
    EXPECT_EQ(nl.num_nets(), nets) << needle;
  };
  const auto balanced = [](unsigned x) { return x & 3u; };
  // Bit 1 of x | 2 is 1 on every minterm.
  expect_rejected(three, 2, [](unsigned x) { return (x & 1u) | 2u; },
                  "output bit 1");
  expect_rejected(three, 1, [](unsigned) { return 0u; }, "output bit 0");
  expect_rejected({}, 1, balanced, "0 inputs");
  expect_rejected(in, 1, balanced, "17 inputs");
  expect_rejected(three, 0, balanced, "out_bits 0");
  expect_rejected(three, 17, balanced, "out_bits 17");
  // A valid table still builds after the rejections.
  EXPECT_EQ(qg::build_balanced_lut(b, three, 2, balanced, "ok").outputs.size(),
            2u);
  EXPECT_GT(nl.num_cells(), cells);
}
