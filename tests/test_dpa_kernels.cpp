// SIMD analysis-kernel dispatch and thread-sharded accumulation.
//
//  * every SIMD arm the host supports (SSE2, AVX2) is fuzzed against
//    the portable arm over awkward geometries — odd sample counts,
//    vector-width±1 tails, 1/5/256 guesses, byte-indexed and generic
//    models, a mid-stream read — and must leave BIT-identical
//    accumulator state (class sums before a read, the folded matrix
//    after it) and emit bit-identical finalize()/correlation_trace()
//    results (the determinism contract of qdi/dpa/kernels.hpp);
//  * the cached per-sample variance scan is invalidated by
//    ingest/merge/restore (a stale cache would poison every prefix
//    probe after the first);
//  * Campaign::sharded_ingest block-fold results are bit-identical
//    across thread counts (the block partition, not the scheduling,
//    determines the fold order) and match the serial fused path to
//    1e-12, with rank/MTD probes firing at exactly their trace counts;
//  * ShardedOptions::ingest_block_traces reproduces the serial sharded
//    runtime's per-shard stream digests exactly (the digest is fed
//    trace-ordered either way) while its fingerprint extension keeps
//    the two modes' checkpoints from cross-adopting.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <type_traits>
#include <vector>

#include "qdi/dpa/kernels.hpp"
#include "qdi/qdi.hpp"
#include "qdi/util/cpu.hpp"

namespace qc = qdi::campaign;
namespace qd = qdi::dpa;
namespace qk = qdi::dpa::kernels;
namespace qp = qdi::power;
namespace qu = qdi::util;

namespace {

qd::TraceSet random_traces(std::size_t n, std::size_t m, qu::Rng& rng) {
  qd::TraceSet ts;
  for (std::size_t i = 0; i < n; ++i) {
    qp::PowerTrace t(0.0, 10.0, m);
    for (std::size_t j = 0; j < m; ++j) t[j] = rng.gaussian(1.0, 2.0);
    ts.add(t, {rng.byte(), rng.byte()});
  }
  return ts;
}

/// Feed `ts` through `acc` in deliberately awkward chunkings: single
/// add()s at the front, then add_prefix() chunks of co-prime widths,
/// with one read after the first 17 traces so the read-time fold runs
/// twice (once mid-stream, once at the caller's read).
template <typename Acc>
void feed_awkward(Acc& acc, const qd::TraceSet& ts) {
  std::size_t i = 0;
  for (; i < std::min<std::size_t>(3, ts.size()); ++i)
    acc.add(ts.plaintext(i), ts.trace(i).samples());
  const std::size_t widths[] = {5, 1, 7, 13};
  std::size_t w = 0;
  bool read = false;
  while (i < ts.size()) {
    const std::size_t hi = std::min(ts.size(), i + widths[w % 4]);
    acc.add_prefix(ts, i, hi);
    i = hi;
    ++w;
    if (!read && i >= 17) {
      if constexpr (std::is_same_v<Acc, qd::OnlineCpa>)
        (void)acc.finalize();
      else
        (void)acc.recover();
      read = true;
    }
  }
}

const std::vector<qk::Kind> kSimdKinds = {qk::Kind::Sse2, qk::Kind::Avx2};

/// Generic (non-byte-indexed) twin of aes_sbox_hw_model(0): forces the
/// scratch-row hypothesis path while computing the same values.
qd::LeakageModel generic_sbox_model() {
  return qd::LeakageModel([](std::span<const std::uint8_t> pt, unsigned g) {
    return static_cast<double>(std::popcount(static_cast<unsigned>(
        qdi::crypto::aes_sbox(static_cast<std::uint8_t>(pt[0] ^ g)))));
  });
}

qd::SelectionFn generic_sbox_selection(int bit) {
  return qd::SelectionFn([bit](std::span<const std::uint8_t> pt, unsigned g) {
    return (qdi::crypto::aes_sbox(static_cast<std::uint8_t>(pt[0] ^ g)) >>
            bit) &
           1;
  });
}

}  // namespace

// ---- arm-vs-arm bit identity -----------------------------------------------

TEST(KernelDispatch, ActiveArmHonorsForcePortable) {
  const qk::KernelTable& a = qk::active();
  ASSERT_NE(a.name, nullptr);
  if (qu::force_portable()) {
    EXPECT_STREQ(a.name, "portable");
    EXPECT_FALSE(qu::sha256_hw_accelerated());
  }
  // Every arm the probe reports must actually hand out a table.
  for (const qk::Kind k : kSimdKinds)
    if (qk::supported(k)) EXPECT_NE(qk::table(k), nullptr);
  EXPECT_NE(qk::table(qk::Kind::Portable), nullptr);
  EXPECT_TRUE(qk::supported(qk::Kind::Portable));
}

TEST(KernelArms, CpaStateBitIdenticalAcrossArms) {
  qu::Rng rng(0x51u);
  for (const std::size_t m : {std::size_t{1}, std::size_t{3}, std::size_t{7},
                              std::size_t{8}, std::size_t{9}, std::size_t{17},
                              std::size_t{31}, std::size_t{64},
                              std::size_t{129}}) {
    for (const unsigned guesses : {1u, 5u, 256u}) {
      const std::size_t n = 24 + rng.below(16);
      const qd::TraceSet ts = random_traces(n, m, rng);
      for (const bool byte_indexed : {true, false}) {
        const qd::LeakageModel model =
            byte_indexed ? qd::aes_sbox_hw_model(0) : generic_sbox_model();
        qd::OnlineCpa ref(model, guesses);
        ref.set_kernels(*qk::table(qk::Kind::Portable));
        feed_awkward(ref, ts);
        const std::vector<std::uint8_t> ref_state = ref.serialize_state();
        const qd::CpaResult ref_fin = ref.finalize(1, m > 2 ? m - 1 : m);
        const std::vector<std::uint8_t> ref_folded = ref.serialize_state();
        const std::vector<double> ref_rho = ref.correlation_trace(0);
        for (const qk::Kind kind : kSimdKinds) {
          if (!qk::supported(kind)) continue;
          qd::OnlineCpa acc(model, guesses);
          acc.set_kernels(*qk::table(kind));
          feed_awkward(acc, ts);
          // The whole state, byte for byte: no tolerance — the class
          // sums with the mid-stream fold, then the fold at finalize().
          EXPECT_EQ(acc.serialize_state(), ref_state)
              << qk::table(kind)->name << " m=" << m << " guesses=" << guesses
              << " byte_indexed=" << byte_indexed;
          const qd::CpaResult fin = acc.finalize(1, m > 2 ? m - 1 : m);
          EXPECT_EQ(acc.serialize_state(), ref_folded)
              << qk::table(kind)->name << " m=" << m << " guesses=" << guesses
              << " byte_indexed=" << byte_indexed;
          EXPECT_EQ(fin.best_guess, ref_fin.best_guess);
          EXPECT_EQ(fin.best_sample, ref_fin.best_sample);
          for (unsigned g = 0; g < guesses; ++g)
            EXPECT_EQ(fin.correlation[g], ref_fin.correlation[g])
                << qk::table(kind)->name << " g=" << g;
          const std::vector<double> rho = acc.correlation_trace(0);
          for (std::size_t j = 0; j < m; ++j)
            EXPECT_EQ(rho[j], ref_rho[j]) << qk::table(kind)->name;
        }
      }
    }
  }
}

TEST(KernelArms, DpaStateBitIdenticalAcrossArms) {
  qu::Rng rng(0x52u);
  for (const std::size_t m : {std::size_t{1}, std::size_t{7}, std::size_t{8},
                              std::size_t{9}, std::size_t{33},
                              std::size_t{130}}) {
    for (const unsigned guesses : {1u, 5u, 256u}) {
      const std::size_t n = 24 + rng.below(16);
      const qd::TraceSet ts = random_traces(n, m, rng);
      for (const bool byte_indexed : {true, false}) {
        std::vector<qd::SelectionFn> bits;
        if (byte_indexed) {
          bits.push_back(qd::aes_sbox_selection(0, 0));
          bits.push_back(qd::aes_sbox_selection(0, 3));
        } else {
          bits.push_back(generic_sbox_selection(0));
          bits.push_back(generic_sbox_selection(3));
        }
        qd::OnlineDpa ref(bits, guesses);
        ref.set_kernels(*qk::table(qk::Kind::Portable));
        feed_awkward(ref, ts);
        const std::vector<std::uint8_t> ref_state = ref.serialize_state();
        const qd::KeyRecoveryResult ref_rec = ref.recover();
        const std::vector<std::uint8_t> ref_folded = ref.serialize_state();
        for (const qk::Kind kind : kSimdKinds) {
          if (!qk::supported(kind)) continue;
          qd::OnlineDpa acc(bits, guesses);
          acc.set_kernels(*qk::table(kind));
          feed_awkward(acc, ts);
          EXPECT_EQ(acc.serialize_state(), ref_state)
              << qk::table(kind)->name << " m=" << m << " guesses=" << guesses
              << " byte_indexed=" << byte_indexed;
          const qd::KeyRecoveryResult rec = acc.recover();
          EXPECT_EQ(acc.serialize_state(), ref_folded)
              << qk::table(kind)->name << " m=" << m << " guesses=" << guesses
              << " byte_indexed=" << byte_indexed;
          EXPECT_EQ(rec.best_guess, ref_rec.best_guess);
          for (unsigned g = 0; g < guesses; ++g)
            EXPECT_EQ(rec.guess_peak[g], ref_rec.guess_peak[g]);
        }
      }
    }
  }
}

// ---- variance-cache correctness --------------------------------------------

TEST(KernelArms, VarianceCacheInvalidatedByIngestMergeRestore) {
  qu::Rng rng(0x53u);
  const qd::TraceSet ts = random_traces(60, 19, rng);
  const qd::LeakageModel model = qd::aes_sbox_hw_model(0);

  // finalize – ingest – finalize must equal the same state read with no
  // cache at all: a twin restored from a snapshot taken after the
  // second ingest (a stale variance cache from the first finalize would
  // poison the second). The read at n=30 folds the class sums there,
  // so against a single-shot feed the result is only 1e-12 close.
  qd::OnlineCpa probed(model, 16);
  probed.add_prefix(ts, 0, 30);
  (void)probed.finalize();           // populates the cache at n=30
  probed.add_prefix(ts, 30, 60);     // must invalidate it
  qd::OnlineCpa uncached(model, 16);
  uncached.restore_state(probed.serialize_state());
  qd::OnlineCpa fresh(model, 16);
  fresh.add_prefix(ts, 0, 60);
  const qd::CpaResult a = probed.finalize();
  const qd::CpaResult b = fresh.finalize();
  const qd::CpaResult a_ref = uncached.finalize();
  for (unsigned g = 0; g < 16; ++g) {
    EXPECT_EQ(a.correlation[g], a_ref.correlation[g]) << "g=" << g;
    EXPECT_NEAR(a.correlation[g], b.correlation[g], 1e-12) << "g=" << g;
  }

  // Same rule through merge() ...
  qd::OnlineCpa left(model, 16), right(model, 16);
  left.add_prefix(ts, 0, 30);
  (void)left.finalize();
  right.add_prefix(ts, 30, 60);
  left.merge(right);
  const qd::CpaResult c = left.finalize();
  // merge() re-associates the sums (block totals instead of trace
  // order), so this leg is 1e-12, not bitwise.
  for (unsigned g = 0; g < 16; ++g)
    EXPECT_NEAR(c.correlation[g], b.correlation[g], 1e-12) << "g=" << g;

  // ... and through restore_state().
  qd::OnlineCpa restored(model, 16);
  restored.add_prefix(ts, 0, 30);
  (void)restored.finalize();
  restored.restore_state(fresh.serialize_state());
  const qd::CpaResult d = restored.finalize();
  for (unsigned g = 0; g < 16; ++g)
    EXPECT_EQ(d.correlation[g], b.correlation[g]) << "g=" << g;
}

TEST(KernelArms, ResetDropsTracesKeepsGeometry) {
  qu::Rng rng(0x54u);
  const qd::TraceSet ts = random_traces(24, 11, rng);
  qd::OnlineCpa acc(qd::aes_sbox_hw_model(0), 8);
  acc.add_prefix(ts, 0, 12);
  acc.reset();
  EXPECT_EQ(acc.count(), 0u);
  acc.add_prefix(ts, 0, 24);
  qd::OnlineCpa fresh(qd::aes_sbox_hw_model(0), 8);
  fresh.add_prefix(ts, 0, 24);
  EXPECT_EQ(acc.serialize_state(), fresh.serialize_state());

  qd::OnlineDpa dacc({qd::aes_sbox_selection(0, 0)}, 8);
  dacc.add_prefix(ts, 0, 12);
  dacc.reset();
  EXPECT_EQ(dacc.count(), 0u);
  dacc.add_prefix(ts, 0, 24);
  qd::OnlineDpa dfresh({qd::aes_sbox_selection(0, 0)}, 8);
  dfresh.add_prefix(ts, 0, 24);
  EXPECT_EQ(dacc.serialize_state(), dfresh.serialize_state());
}

// ---- thread-sharded accumulation (campaign block-fold) ---------------------

namespace {

/// Leakage amplifier shared by the campaign tests below: skew one rail
/// of the sbox output channels so the CPA signal is real (a perfectly
/// balanced victim correlates at noise level ~1e-7, where the
/// serial-vs-block 1e-12 comparison would be dominated by catastrophic
/// cancellation in the covariance, not by the property under test).
void skew_sbox_rails(qdi::netlist::Netlist& nl) {
  for (qdi::netlist::ChannelId ch = 0; ch < nl.num_channels(); ++ch) {
    const qdi::netlist::Channel& c = nl.channel(ch);
    if (c.name.find("sbox/out") != std::string::npos ||
        c.name.find("hb/q_q") != std::string::npos)
      nl.net(c.rails[1]).cap_ff *= 2.0;
  }
}

qc::CampaignResult run_fused_campaign(unsigned threads,
                                      std::size_t sharded_block) {
  qc::Cpa cfg;
  cfg.compute_mtd = true;
  cfg.mtd_start = 30;
  cfg.mtd_step = 30;
  qc::Campaign c;
  c.target(qc::aes_byte_slice())
      .key(0x3c)
      .seed(77)
      .traces(130)  // NOT a multiple of the block width: partial final block
      .threads(threads)
      .prepare(skew_sbox_rails)
      .attack(cfg)
      .rank_trajectory(50)
      .fused(64);
  if (sharded_block > 0) c.sharded_ingest(sharded_block);
  return c.run();
}

void expect_bitwise_equal(const qc::CampaignResult& a,
                          const qc::CampaignResult& b) {
  ASSERT_TRUE(a.attack && b.attack);
  EXPECT_EQ(a.attack->best_guess, b.attack->best_guess);
  EXPECT_EQ(a.attack->best_score, b.attack->best_score);
  EXPECT_EQ(a.attack->second_score, b.attack->second_score);
  EXPECT_EQ(a.attack->true_key_rank, b.attack->true_key_rank);
  EXPECT_EQ(a.attack->mtd, b.attack->mtd);
  ASSERT_EQ(a.attack->guess_scores.size(), b.attack->guess_scores.size());
  for (std::size_t g = 0; g < a.attack->guess_scores.size(); ++g)
    EXPECT_EQ(a.attack->guess_scores[g], b.attack->guess_scores[g])
        << "g=" << g;
  ASSERT_EQ(a.rank_trajectory.size(), b.rank_trajectory.size());
  for (std::size_t i = 0; i < a.rank_trajectory.size(); ++i) {
    EXPECT_EQ(a.rank_trajectory[i].traces, b.rank_trajectory[i].traces);
    EXPECT_EQ(a.rank_trajectory[i].rank, b.rank_trajectory[i].rank);
  }
}

}  // namespace

TEST(ShardedIngest, ResultsBitIdenticalAcrossThreadCounts) {
  const qc::CampaignResult one = run_fused_campaign(1, 32);
  const qc::CampaignResult two = run_fused_campaign(2, 32);
  const qc::CampaignResult three = run_fused_campaign(3, 32);
  expect_bitwise_equal(one, two);
  expect_bitwise_equal(one, three);
}

TEST(ShardedIngest, MatchesSerialFusedWithinFpReassociation) {
  const qc::CampaignResult serial = run_fused_campaign(2, 0);
  const qc::CampaignResult block = run_fused_campaign(2, 32);
  ASSERT_TRUE(serial.attack && block.attack);
  // The block fold re-associates the sums (merge adds block sums where
  // the serial feed adds traces); the correlation's covariance step
  // amplifies that ~1e-15-relative sum perturbation by its cancellation
  // factor, so the end-to-end score tolerance is 1e-10 (the raw
  // accumulator sums agree to 1e-12 — test_online_merge.cpp) — and
  // every discrete outcome agrees exactly.
  EXPECT_EQ(serial.attack->best_guess, block.attack->best_guess);
  EXPECT_EQ(serial.attack->true_key_rank, block.attack->true_key_rank);
  EXPECT_EQ(serial.attack->mtd, block.attack->mtd);
  ASSERT_EQ(serial.attack->guess_scores.size(),
            block.attack->guess_scores.size());
  for (std::size_t g = 0; g < serial.attack->guess_scores.size(); ++g)
    EXPECT_NEAR(serial.attack->guess_scores[g], block.attack->guess_scores[g],
                1e-10)
        << "g=" << g;
  ASSERT_EQ(serial.rank_trajectory.size(), block.rank_trajectory.size());
  for (std::size_t i = 0; i < serial.rank_trajectory.size(); ++i) {
    EXPECT_EQ(serial.rank_trajectory[i].traces, block.rank_trajectory[i].traces);
    EXPECT_EQ(serial.rank_trajectory[i].rank, block.rank_trajectory[i].rank);
  }
}

TEST(ShardedIngest, RequiresFused) {
  qc::Campaign c;
  c.target(qc::aes_byte_slice())
      .traces(32)
      .attack(qc::Cpa{})
      .sharded_ingest(16);  // no fused(): nowhere to fold blocks into
  EXPECT_THROW(c.run(), std::invalid_argument);
}

// ---- thread-sharded accumulation (sharded runtime) -------------------------

namespace {

std::string fresh_dir(const std::string& name) {
  const std::string dir = "kernel_ckpt_tests/" + name;
  for (std::size_t s = 0; s < 8; ++s) {
    std::remove(qc::checkpoint_path(dir, s).c_str());
    std::remove(qc::checkpoint_prev_path(dir, s).c_str());
  }
  return dir;
}

qc::ShardedResult run_sharded(unsigned threads, std::size_t ingest_block,
                              const std::string& dir) {
  qc::ShardedOptions opt;
  opt.shards = 2;
  opt.checkpoint_interval = 48;
  opt.checkpoint_dir = dir;
  opt.chunk_traces = 16;
  opt.ingest_block_traces = ingest_block;
  qc::Cpa cfg;
  cfg.compute_mtd = true;
  cfg.mtd_start = 40;
  cfg.mtd_step = 40;
  return qc::Campaign()
      .target(qc::aes_byte_slice())
      .key(0x3c)
      .seed(9)
      .traces(110)  // 2 shards of 55: partial blocks and windows everywhere
      .threads(threads)
      .prepare(skew_sbox_rails)
      .attack(cfg)
      .sharded(opt);
}

}  // namespace

TEST(ShardedIngest, ShardRuntimeDigestsMatchSerialAndThreadsDontMatter) {
  const qc::ShardedResult serial =
      run_sharded(2, 0, fresh_dir("serial"));
  const qc::ShardedResult block2 =
      run_sharded(2, 32, fresh_dir("block_t2"));
  const qc::ShardedResult block3 =
      run_sharded(3, 32, fresh_dir("block_t3"));
  ASSERT_TRUE(serial.complete());
  ASSERT_TRUE(block2.complete());
  ASSERT_TRUE(block3.complete());

  // The stream digest is fed trace by trace in index order in BOTH
  // modes, so it is bit-identical — the strongest possible witness that
  // the block-fold acquired exactly the serial trace stream.
  ASSERT_EQ(serial.shards.size(), block2.shards.size());
  for (std::size_t s = 0; s < serial.shards.size(); ++s) {
    EXPECT_EQ(serial.shards[s].digest_hex, block2.shards[s].digest_hex);
    EXPECT_EQ(block2.shards[s].digest_hex, block3.shards[s].digest_hex);
  }

  // Accumulator results: bit-identical across thread counts, 1e-12
  // against the serial fold.
  ASSERT_TRUE(serial.attack && block2.attack && block3.attack);
  EXPECT_EQ(block2.attack->best_score, block3.attack->best_score);
  for (std::size_t g = 0; g < block2.attack->guess_scores.size(); ++g) {
    EXPECT_EQ(block2.attack->guess_scores[g], block3.attack->guess_scores[g]);
    EXPECT_NEAR(serial.attack->guess_scores[g],
                block2.attack->guess_scores[g], 1e-12);
  }
  EXPECT_EQ(serial.attack->best_guess, block2.attack->best_guess);
  EXPECT_EQ(serial.attack->true_key_rank, block2.attack->true_key_rank);
}

TEST(ShardedIngest, BlockFoldResumeIsBitIdentical) {
  // Kill the first run after its first durable commit (the on_commit
  // hook throws with max_attempts=1), then resume: the resumed
  // block-fold run must be bit-identical to an uninterrupted one.
  const std::string dir = fresh_dir("resume");
  const std::string dir_ref = fresh_dir("resume_ref");
  const qc::ShardedResult ref = [&] {
    return run_sharded(2, 32, dir_ref);
  }();

  qc::ShardedOptions opt;
  opt.shards = 2;
  opt.checkpoint_interval = 48;
  opt.checkpoint_dir = dir;
  opt.chunk_traces = 16;
  opt.ingest_block_traces = 32;
  opt.max_attempts = 1;
  unsigned commits = 0;
  opt.on_commit = [&](std::size_t, std::uint64_t) {
    if (++commits == 1) throw std::runtime_error("injected crash");
  };
  qc::Cpa cfg;
  cfg.compute_mtd = true;
  cfg.mtd_start = 40;
  cfg.mtd_step = 40;
  const auto campaign = [&] {
    return qc::Campaign()
        .target(qc::aes_byte_slice())
        .key(0x3c)
        .seed(9)
        .traces(110)
        .threads(2)
        .prepare(skew_sbox_rails)
        .attack(cfg);
  };
  const qc::ShardedResult crashed = campaign().sharded(opt);
  EXPECT_LT(crashed.covered, crashed.total_traces);

  qc::ShardedOptions resume = opt;
  resume.on_commit = nullptr;
  resume.max_attempts = 3;
  const qc::ShardedResult resumed = campaign().sharded(resume);
  ASSERT_TRUE(resumed.complete());
  ASSERT_TRUE(resumed.attack && ref.attack);
  EXPECT_EQ(resumed.attack->best_score, ref.attack->best_score);
  for (std::size_t g = 0; g < ref.attack->guess_scores.size(); ++g)
    EXPECT_EQ(resumed.attack->guess_scores[g], ref.attack->guess_scores[g]);
  ASSERT_EQ(resumed.shards.size(), ref.shards.size());
  for (std::size_t s = 0; s < ref.shards.size(); ++s)
    EXPECT_EQ(resumed.shards[s].digest_hex, ref.shards[s].digest_hex);
}
