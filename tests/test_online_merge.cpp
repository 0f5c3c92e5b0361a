// Merge and state-snapshot tests for the streaming accumulators.
//
// merge() exists so N workers can each stream a disjoint shard of the
// acquisitions and fold their partial sums at the end: every statistic
// in OnlineCpa/OnlineDpa is an additive running sum, so an N-way
// split + merge must agree with one single-pass accumulator over the
// whole stream up to floating-point re-association (1e-12), and the
// integer statistics (counts, DPA partition sizes) must agree exactly.
// serialize_state()/restore_state() round-trips are bit-exact; every
// truncation of a snapshot (pending class sums and a folded matrix
// alike), class counts that miss the trace count, and another model's
// class table are rejected without touching the receiver.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "qdi/qdi.hpp"

namespace qd = qdi::dpa;
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

/// Split [0, n) into `ways` contiguous shards with randomized cut
/// points (some shards may be empty — merging an empty accumulator must
/// be a no-op).
std::vector<std::size_t> random_cuts(std::size_t n, std::size_t ways,
                                     qu::Rng& rng) {
  std::vector<std::size_t> cuts{0};
  for (std::size_t k = 1; k < ways; ++k) cuts.push_back(rng.below(n + 1));
  cuts.push_back(n);
  std::sort(cuts.begin(), cuts.end());
  return cuts;
}

}  // namespace

TEST(OnlineMerge, CpaNWaySplitMergeMatchesSinglePass) {
  qu::Rng rng(0x51);
  for (int trial = 0; trial < 10; ++trial) {
    const std::size_t n = 8 + rng.below(120);
    const std::size_t m = 1 + rng.below(24);
    const unsigned guesses = 2 + static_cast<unsigned>(rng.below(15));
    const std::size_t ways = 2 + rng.below(5);
    const qd::TraceSet ts = random_traces(n, m, rng);
    const qd::LeakageModel model = qd::aes_xor_hw_model(0);

    qd::OnlineCpa whole(model, guesses);
    whole.add_prefix(ts, 0, n);

    const std::vector<std::size_t> cuts = random_cuts(n, ways, rng);
    qd::OnlineCpa merged(model, guesses);
    for (std::size_t k = 0; k + 1 < cuts.size(); ++k) {
      qd::OnlineCpa shard(model, guesses);
      shard.add_prefix(ts, cuts[k], cuts[k + 1]);
      merged.merge(shard);
    }
    ASSERT_EQ(merged.count(), whole.count());

    const qd::CpaResult a = whole.finalize();
    const qd::CpaResult b = merged.finalize();
    ASSERT_EQ(a.correlation.size(), b.correlation.size());
    for (unsigned g = 0; g < guesses; ++g) {
      EXPECT_NEAR(a.correlation[g], b.correlation[g], 1e-12)
          << "trial " << trial << " guess " << g;
      const std::vector<double> ra = whole.correlation_trace(g);
      const std::vector<double> rb = merged.correlation_trace(g);
      for (std::size_t j = 0; j < ra.size(); ++j)
        EXPECT_NEAR(ra[j], rb[j], 1e-12) << "guess " << g << " sample " << j;
    }
  }
}

TEST(OnlineMerge, DpaNWaySplitMergeMatchesSinglePass) {
  qu::Rng rng(0x52);
  for (int trial = 0; trial < 10; ++trial) {
    const std::size_t n = 8 + rng.below(120);
    const std::size_t m = 1 + rng.below(24);
    const unsigned guesses = 2 + static_cast<unsigned>(rng.below(15));
    const std::size_t ways = 2 + rng.below(5);
    const qd::TraceSet ts = random_traces(n, m, rng);
    const std::vector<qd::SelectionFn> bits = {qd::aes_sbox_selection(0, 0),
                                               qd::aes_sbox_selection(0, 5)};

    qd::OnlineDpa whole(bits, guesses);
    whole.add_prefix(ts, 0, n);

    const std::vector<std::size_t> cuts = random_cuts(n, ways, rng);
    qd::OnlineDpa merged(bits, guesses);
    for (std::size_t k = 0; k + 1 < cuts.size(); ++k) {
      qd::OnlineDpa shard(bits, guesses);
      shard.add_prefix(ts, cuts[k], cuts[k + 1]);
      merged.merge(shard);
    }
    ASSERT_EQ(merged.count(), whole.count());

    for (unsigned g = 0; g < guesses; ++g) {
      for (std::size_t bit = 0; bit < bits.size(); ++bit) {
        const qd::BiasResult a = whole.bias(g, bit);
        const qd::BiasResult b = merged.bias(g, bit);
        // Partition sizes are integer counts: exact.
        EXPECT_EQ(a.n0, b.n0) << "guess " << g << " bit " << bit;
        EXPECT_EQ(a.n1, b.n1) << "guess " << g << " bit " << bit;
        ASSERT_EQ(a.bias.size(), b.bias.size());
        for (std::size_t j = 0; j < a.bias.size(); ++j)
          EXPECT_NEAR(a.bias[j], b.bias[j], 1e-12)
              << "guess " << g << " bit " << bit << " sample " << j;
      }
    }
    const qd::KeyRecoveryResult ra = whole.recover();
    const qd::KeyRecoveryResult rb = merged.recover();
    for (unsigned g = 0; g < guesses; ++g)
      EXPECT_NEAR(ra.guess_peak[g], rb.guess_peak[g], 1e-12);
  }
}

TEST(OnlineMerge, MergeIntoEmptyAndFromEmpty) {
  qu::Rng rng(0x53);
  const qd::TraceSet ts = random_traces(40, 12, rng);
  const qd::LeakageModel model = qd::aes_xor_hw_model(0);

  qd::OnlineCpa full(model, 16);
  full.add_prefix(ts, 0, 40);

  // empty.merge(full) adopts the geometry; full.merge(empty) is a no-op.
  qd::OnlineCpa empty(model, 16);
  empty.merge(full);
  const qd::CpaResult a = full.finalize();
  const qd::CpaResult b = empty.finalize();
  for (unsigned g = 0; g < 16; ++g)
    EXPECT_DOUBLE_EQ(a.correlation[g], b.correlation[g]);

  qd::OnlineCpa noop(model, 16);
  full.merge(noop);
  EXPECT_EQ(full.count(), 40u);
  const qd::CpaResult c = full.finalize();
  for (unsigned g = 0; g < 16; ++g)
    EXPECT_DOUBLE_EQ(a.correlation[g], c.correlation[g]);
}

TEST(OnlineMerge, MismatchedGeometryThrows) {
  qu::Rng rng(0x54);
  const qd::TraceSet ts = random_traces(10, 8, rng);
  const qd::TraceSet ts_wide = random_traces(10, 9, rng);
  const qd::LeakageModel model = qd::aes_xor_hw_model(0);

  qd::OnlineCpa a(model, 16);
  a.add_prefix(ts, 0, 10);
  qd::OnlineCpa wrong_guesses(model, 8);
  wrong_guesses.add_prefix(ts, 0, 10);
  EXPECT_THROW(a.merge(wrong_guesses), std::invalid_argument);

  qd::OnlineCpa wrong_m(model, 16);
  wrong_m.add_prefix(ts_wide, 0, 10);
  EXPECT_THROW(a.merge(wrong_m), std::invalid_argument);

  qd::OnlineDpa d1({qd::aes_sbox_selection(0, 0)}, 16);
  d1.add_prefix(ts, 0, 10);
  qd::OnlineDpa two_bits(
      {qd::aes_sbox_selection(0, 0), qd::aes_sbox_selection(0, 1)}, 16);
  two_bits.add_prefix(ts, 0, 10);
  EXPECT_THROW(d1.merge(two_bits), std::invalid_argument);
}

TEST(OnlineMerge, CpaSnapshotRoundTripIsBitExact) {
  qu::Rng rng(0x55);
  const qd::TraceSet ts = random_traces(60, 16, rng);
  const qd::LeakageModel model = qd::aes_xor_hw_model(0);

  qd::OnlineCpa acc(model, 16);
  acc.add_prefix(ts, 0, 35);
  const std::vector<std::uint8_t> snap = acc.serialize_state();

  qd::OnlineCpa restored(model, 16);
  restored.restore_state(snap);
  EXPECT_EQ(restored.count(), acc.count());

  // Both continue with the same tail: results stay bit-identical, which
  // is what lets a checkpointed campaign resume mid-stream.
  acc.add_prefix(ts, 35, 60);
  restored.add_prefix(ts, 35, 60);
  const qd::CpaResult a = acc.finalize();
  const qd::CpaResult b = restored.finalize();
  for (unsigned g = 0; g < 16; ++g)
    EXPECT_DOUBLE_EQ(a.correlation[g], b.correlation[g]);
  EXPECT_EQ(a.best_guess, b.best_guess);
}

TEST(OnlineMerge, DpaSnapshotRoundTripIsBitExact) {
  qu::Rng rng(0x56);
  const qd::TraceSet ts = random_traces(60, 16, rng);
  const std::vector<qd::SelectionFn> bits = {qd::aes_sbox_selection(0, 3)};

  qd::OnlineDpa acc(bits, 16);
  acc.add_prefix(ts, 0, 35);
  const std::vector<std::uint8_t> snap = acc.serialize_state();

  qd::OnlineDpa restored(bits, 16);
  restored.restore_state(snap);
  acc.add_prefix(ts, 35, 60);
  restored.add_prefix(ts, 35, 60);
  const qd::KeyRecoveryResult a = acc.recover();
  const qd::KeyRecoveryResult b = restored.recover();
  for (unsigned g = 0; g < 16; ++g)
    EXPECT_DOUBLE_EQ(a.guess_peak[g], b.guess_peak[g]);
}

namespace {

/// Kind of the StateError a restore_state call throws (the call must
/// throw).
template <typename Acc>
qd::StateError::Kind restore_kind(Acc& acc,
                                  const std::vector<std::uint8_t>& bytes) {
  try {
    acc.restore_state(bytes);
  } catch (const qd::StateError& e) {
    return e.kind();
  }
  ADD_FAILURE() << "restore_state accepted a malformed snapshot of "
                << bytes.size() << " bytes";
  return qd::StateError::Kind::Truncated;
}

}  // namespace

TEST(OnlineMerge, MalformedOrMismatchedSnapshotThrowsNamedErrors) {
  qu::Rng rng(0x57);
  const qd::TraceSet ts = random_traces(20, 8, rng);
  const qd::LeakageModel model = qd::aes_xor_hw_model(0);

  qd::OnlineCpa acc(model, 16);
  acc.add_prefix(ts, 0, 20);
  std::vector<std::uint8_t> snap = acc.serialize_state();

  // Wrong receiver configuration.
  qd::OnlineCpa other_guesses(model, 8);
  EXPECT_EQ(restore_kind(other_guesses, snap), qd::StateError::Kind::Geometry);

  // Truncated and trailing-garbage payloads. StateError derives from
  // std::runtime_error, so generic catch sites still work.
  std::vector<std::uint8_t> cut(snap.begin(), snap.end() - 3);
  qd::OnlineCpa fresh(model, 16);
  EXPECT_EQ(restore_kind(fresh, cut), qd::StateError::Kind::Truncated);
  EXPECT_THROW(fresh.restore_state(cut), std::runtime_error);
  snap.push_back(0);
  EXPECT_EQ(restore_kind(fresh, snap), qd::StateError::Kind::Oversized);

  // A CPA snapshot fed to a DPA accumulator (magic mismatch).
  qd::OnlineDpa dpa({qd::aes_sbox_selection(0, 0)}, 16);
  const std::vector<std::uint8_t> cpa_snap = acc.serialize_state();
  EXPECT_EQ(restore_kind(dpa, cpa_snap), qd::StateError::Kind::BadMagic);
}

namespace {

/// Every proper prefix of `snap` must be rejected, and a failed restore
/// must leave `victim` bit-identical; the whole snapshot then lands.
template <typename Acc>
void expect_every_truncation_rejected(Acc& victim,
                                      const std::vector<std::uint8_t>& snap,
                                      std::size_t count, const char* what) {
  const std::vector<std::uint8_t> before = victim.serialize_state();
  for (std::size_t len = 0; len < snap.size(); ++len) {
    const std::vector<std::uint8_t> cut(snap.begin(),
                                        snap.begin() + static_cast<long>(len));
    EXPECT_THROW(victim.restore_state(cut), qd::StateError)
        << what << " snapshot truncated to " << len << " bytes";
    EXPECT_EQ(victim.serialize_state(), before)
        << "failed restore disturbed the accumulator (" << what << ", len "
        << len << ")";
  }
  victim.restore_state(snap);  // the untruncated snapshot still lands
  EXPECT_EQ(victim.count(), count);
  EXPECT_EQ(victim.serialize_state(), snap);
}

/// Generic (lambda) twin of a model: its class table is keyed by the
/// evaluated rows, so its snapshots carry them.
qd::LeakageModel generic_of(const qd::LeakageModel& fast) {
  return qd::LeakageModel(
      [fast](std::span<const std::uint8_t> pt, unsigned g) {
        return fast(pt, g);
      });
}

}  // namespace

TEST(OnlineMerge, EveryTruncationLengthIsRejectedAndLeavesStateUntouched) {
  // Tiny geometry so every truncation length is cheap to fuzz. Each
  // snapshot is taken with class sums still pending AND a folded matrix
  // (a read happened mid-stream), so every field of the class table —
  // rows, counts, flags, pending and folded sums, the retired-class
  // sums — is cut through.
  qu::Rng rng(0x58);
  const qd::TraceSet ts = random_traces(12, 5, rng);
  const qd::LeakageModel model = qd::aes_xor_hw_model(0);

  for (const qd::LeakageModel& m : {model, generic_of(model)}) {
    qd::OnlineCpa acc(m, 4);
    acc.add_prefix(ts, 0, 8);
    (void)acc.finalize();
    acc.add_prefix(ts, 8, 12);
    qd::OnlineCpa victim(m, 4);
    victim.add_prefix(ts, 0, 7);
    expect_every_truncation_rejected(victim, acc.serialize_state(),
                                     acc.count(), "CPA");
  }

  {
    const std::vector<qd::SelectionFn> bits = {qd::aes_sbox_selection(0, 0)};
    qd::OnlineDpa acc(bits, 4);
    acc.add_prefix(ts, 0, 6);
    (void)acc.recover();
    acc.add_prefix(ts, 6, 12);
    qd::OnlineDpa victim(bits, 4);
    victim.add_prefix(ts, 0, 7);
    expect_every_truncation_rejected(victim, acc.serialize_state(),
                                     acc.count(), "DPA");
  }
}

TEST(OnlineMerge, SnapshotWhoseClassCountsMissTheTraceCountIsGeometry) {
  qu::Rng rng(0x59);
  const qd::TraceSet ts = random_traces(20, 6, rng);
  const qd::LeakageModel model = qd::aes_xor_hw_model(0);
  // The trace count n is the 4th u64 of a CPA snapshot (magic, guesses,
  // m, n) and the 5th of a DPA one (magic, guesses, bits, m, n): move it
  // off the class counts' total in both directions.
  const auto with_n = [](std::vector<std::uint8_t> snap, std::size_t field,
                         std::uint64_t n) {
    for (int i = 0; i < 8; ++i)
      snap[8 * field + static_cast<std::size_t>(i)] =
          static_cast<std::uint8_t>(n >> (8 * i));
    return snap;
  };

  qd::OnlineCpa acc(model, 16);
  acc.add_prefix(ts, 0, 20);
  const std::vector<std::uint8_t> snap = acc.serialize_state();
  for (const std::uint64_t n : {std::uint64_t{19}, std::uint64_t{21},
                                ~std::uint64_t{0}}) {
    qd::OnlineCpa victim(model, 16);
    EXPECT_EQ(restore_kind(victim, with_n(snap, 3, n)),
              qd::StateError::Kind::Geometry)
        << "n=" << n;
    EXPECT_EQ(victim.count(), 0u);
  }
  // The same holds for the generic table, whose rows come from the
  // snapshot itself.
  qd::OnlineCpa gacc(generic_of(model), 16);
  gacc.add_prefix(ts, 0, 20);
  qd::OnlineCpa gvictim(generic_of(model), 16);
  EXPECT_EQ(restore_kind(gvictim, with_n(gacc.serialize_state(), 3, 7)),
            qd::StateError::Kind::Geometry);

  const std::vector<qd::SelectionFn> bits = {qd::aes_sbox_selection(0, 2)};
  qd::OnlineDpa dacc(bits, 16);
  dacc.add_prefix(ts, 0, 20);
  qd::OnlineDpa dvictim(bits, 16);
  EXPECT_EQ(restore_kind(dvictim, with_n(dacc.serialize_state(), 4, 22)),
            qd::StateError::Kind::Geometry);
  EXPECT_EQ(dvictim.count(), 0u);
}

TEST(OnlineMerge, SnapshotOfAnotherModelsClassTableIsGeometry) {
  // Same guesses, same samples, different byte-indexed model: the class
  // rows in the snapshot are not this accumulator's.
  qu::Rng rng(0x5a);
  const qd::TraceSet ts = random_traces(20, 6, rng);
  qd::OnlineCpa xor_acc(qd::aes_xor_hw_model(0), 16);
  xor_acc.add_prefix(ts, 0, 20);
  qd::OnlineCpa sbox(qd::aes_sbox_hw_model(0), 16);
  EXPECT_EQ(restore_kind(sbox, xor_acc.serialize_state()),
            qd::StateError::Kind::Geometry);
  // merge() refuses the same mismatch up front.
  qd::OnlineCpa sbox_acc(qd::aes_sbox_hw_model(0), 16);
  sbox_acc.add_prefix(ts, 0, 20);
  EXPECT_THROW(xor_acc.merge(sbox_acc), std::invalid_argument);
  EXPECT_EQ(xor_acc.count(), 20u);
}
