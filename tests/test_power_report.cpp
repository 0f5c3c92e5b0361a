#include <gtest/gtest.h>

#include "qdi/core/power_report.hpp"
#include "qdi/gates/testbench.hpp"
#include "qdi/sim/environment.hpp"
#include "qdi/sim/simulator.hpp"

namespace qn = qdi::netlist;
namespace qs = qdi::sim;
namespace qg = qdi::gates;
namespace qc = qdi::core;
namespace qp = qdi::power;

namespace {
std::vector<qc::BlockPower> slice_cycle_power() {
  qg::AesByteSlice slice = qg::build_aes_byte_slice();
  qs::Simulator sim(slice.nl);
  qs::FourPhaseEnv env(sim, slice.env);
  env.apply_reset();
  qs::TransitionLog log;
  sim.set_power_sink(&log);
  std::vector<int> values(16, 0);
  values[0] = 1;
  values[9] = 1;
  const auto cyc = env.send(values);
  EXPECT_TRUE(cyc.ok);
  return qc::block_power(slice.nl, log.transitions, qp::PowerModelParams{});
}
}  // namespace

TEST(BlockPower, SharesSumToOne) {
  const auto rows = slice_cycle_power();
  ASSERT_FALSE(rows.empty());
  double total_share = 0.0;
  for (const auto& b : rows) total_share += b.share;
  EXPECT_NEAR(total_share, 1.0, 1e-9);
}

TEST(BlockPower, SortedByChargeAndAllPositive) {
  const auto rows = slice_cycle_power();
  for (std::size_t i = 1; i < rows.size(); ++i)
    EXPECT_GE(rows[i - 1].charge_fc, rows[i].charge_fc);
  for (const auto& b : rows) {
    EXPECT_GT(b.transitions, 0u);
    EXPECT_GT(b.charge_fc, 0.0);
  }
}

TEST(BlockPower, SboxDominatesTheSlice) {
  // The 2.5k-gate DIMS S-Box does almost all the switching in the slice.
  const auto rows = slice_cycle_power();
  bool found = false;
  for (const auto& b : rows) {
    if (b.block == "slice/bytesub") {
      found = true;
      EXPECT_GT(b.share, 0.3);
    }
  }
  EXPECT_TRUE(found);
}

TEST(BlockPower, EnvironmentTrafficIsAttributed) {
  const auto rows = slice_cycle_power();
  bool env_found = false;
  for (const auto& b : rows)
    if (b.block == "(environment)") env_found = true;
  EXPECT_TRUE(env_found);  // the driven input rails
}

TEST(BlockPower, TableRenders) {
  const auto rows = slice_cycle_power();
  const auto t = qc::block_power_table(rows);
  EXPECT_EQ(t.rows(), rows.size());
  EXPECT_NE(t.to_string().find("slice/bytesub"), std::string::npos);
}

TEST(BlockPower, EmptyLogIsEmptyReport) {
  qg::XorStage x = qg::build_xor_stage();
  const std::vector<qs::Transition> none;
  EXPECT_TRUE(qc::block_power(x.nl, none, qp::PowerModelParams{}).empty());
}
