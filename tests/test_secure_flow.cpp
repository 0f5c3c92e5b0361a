#include <gtest/gtest.h>

#include "qdi/core/secure_flow.hpp"
#include "qdi/gates/testbench.hpp"

namespace qn = qdi::netlist;
namespace qc = qdi::core;
namespace qp = qdi::pnr;
namespace qg = qdi::gates;

namespace {
qc::FlowOptions fast_flow(qp::FlowMode mode, std::uint64_t seed) {
  qc::FlowOptions opt;
  opt.placer.mode = mode;
  opt.placer.seed = seed;
  opt.placer.moves_per_cell = 12;
  opt.placer.stages = 24;
  return opt;
}
}  // namespace

TEST(SecureFlow, PopulatesAllResultFields) {
  qn::Netlist nl = qg::build_aes_byte_slice().nl;
  const qc::FlowResult r = qc::run_secure_flow(nl, fast_flow(qp::FlowMode::Flat, 1));
  EXPECT_EQ(r.criteria.size(), nl.num_channels());
  EXPECT_GT(r.extraction.total_wirelength_um, 0.0);
  EXPECT_GT(r.max_da, 0.0);
  EXPECT_GT(r.mean_da, 0.0);
  EXPECT_GE(r.max_da, r.mean_da);
  EXPECT_EQ(r.iterations_used, 1);
  EXPECT_EQ(r.placement.cell_pos.size(), nl.num_cells());
}

TEST(SecureFlow, HierarchicalBeatsFlatOnCriterion) {
  // The paper's Table 2: hierarchical max dA = 0.13 vs flat up to 1.25.
  // At unit-test scale we assert the direction on the mean over the
  // *dual-rail data channels* (the criterion population of Table 2; the
  // 1-of-N code-group channels are dominated by extreme order statistics
  // of their N rails and are reported separately by the benches),
  // averaged across two seeds for robustness.
  auto dual_rail_mean = [](const qn::Netlist& nl,
                           const std::vector<qc::ChannelCriterion>& rows) {
    double sum = 0.0;
    std::size_t n = 0;
    for (const auto& r : rows) {
      if (nl.channel(r.id).arity() != 2) continue;
      sum += r.dA;
      ++n;
    }
    return n ? sum / static_cast<double>(n) : 0.0;
  };
  double flat_mean = 0.0, hier_mean = 0.0;
  for (std::uint64_t seed : {11ull, 12ull}) {
    qn::Netlist nl1 = qg::build_aes_byte_slice().nl;
    const auto rf = qc::run_secure_flow(nl1, fast_flow(qp::FlowMode::Flat, seed));
    flat_mean += dual_rail_mean(nl1, rf.criteria);
    qn::Netlist nl2 = qg::build_aes_byte_slice().nl;
    const auto rh =
        qc::run_secure_flow(nl2, fast_flow(qp::FlowMode::Hierarchical, seed));
    hier_mean += dual_rail_mean(nl2, rh.criteria);
  }
  EXPECT_LT(hier_mean, flat_mean);
}

TEST(SecureFlow, RetriesWithNewSeedOnRejection) {
  qn::Netlist nl = qg::build_aes_byte_slice().nl;
  qc::FlowOptions opt = fast_flow(qp::FlowMode::Flat, 5);
  opt.max_da_threshold = 1e-9;  // unattainable: every iteration rejects
  opt.max_iterations = 3;
  const qc::FlowResult r = qc::run_secure_flow(nl, opt);
  EXPECT_FALSE(r.accepted);
  EXPECT_EQ(r.iterations_used, 3);
}

TEST(SecureFlow, RepairForcesAcceptance) {
  qn::Netlist nl = qg::build_aes_byte_slice().nl;
  qc::FlowOptions opt = fast_flow(qp::FlowMode::Flat, 6);
  opt.max_da_threshold = 0.05;
  opt.repair = true;
  opt.repair_target_da = 0.03;
  const qc::FlowResult r = qc::run_secure_flow(nl, opt);
  EXPECT_TRUE(r.accepted);
  EXPECT_GT(r.repaired_channels, 0u);
  EXPECT_GT(r.repair_added_cap_ff, 0.0);
  EXPECT_LE(r.max_da, 0.05);
}

TEST(SecureFlow, FlatSeedsMoveTheCriticalChannel) {
  // Section VI: "the most sensitive channels are never the same from one
  // place and route to another". Across seeds, the identity of the worst
  // channel changes (checked over three seeds — at least two distinct).
  std::set<std::string> worst_names;
  for (std::uint64_t seed : {21ull, 22ull, 23ull}) {
    qn::Netlist nl = qg::build_aes_byte_slice().nl;
    const auto r = qc::run_secure_flow(nl, fast_flow(qp::FlowMode::Flat, seed));
    const auto top = qc::most_critical(r.criteria, 1);
    ASSERT_FALSE(top.empty());
    worst_names.insert(top[0].name);
  }
  EXPECT_GE(worst_names.size(), 2u);
}
