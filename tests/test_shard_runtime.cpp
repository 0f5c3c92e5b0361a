// Crash-safe sharded campaign runtime: checkpoint codec named-error
// coverage, atomic commit rotation and recovery fallback, kill/resume
// bit-identity (within a run, across runs, and fuzzed over registry
// targets × engines × thread counts), stall-watchdog re-dispatch, and
// honest degraded-coverage reporting.
//
// Checkpoint directories live under the test working directory (the
// build tree), one per test, wiped at the start of each test.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "qdi/qdi.hpp"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define QDI_SANITIZER_ACTIVE 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define QDI_SANITIZER_ACTIVE 1
#endif
#endif

namespace qc = qdi::campaign;
namespace qd = qdi::dpa;
namespace qs = qdi::sim;
namespace qu = qdi::util;

namespace {

/// Per-test checkpoint directory (relative: stays inside the build
/// tree). Stale generations from a previous run are unlinked so every
/// test starts from an empty shard store.
std::string fresh_dir(const std::string& name) {
  const std::string dir = "shard_ckpt_tests/" + name;
  for (std::size_t s = 0; s < 16; ++s) {
    std::remove(qc::checkpoint_path(dir, s).c_str());
    std::remove(qc::checkpoint_prev_path(dir, s).c_str());
  }
  return dir;
}

std::vector<std::uint8_t> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void write_file(const std::string& path, const std::vector<std::uint8_t>& b) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(b.data()),
            static_cast<std::streamsize>(b.size()));
}

void flip_byte(const std::string& path, std::size_t offset) {
  std::vector<std::uint8_t> b = read_file(path);
  ASSERT_LT(offset, b.size());
  b[offset] ^= 0x5a;
  write_file(path, b);
}

/// The strong contract: an interrupted-and-resumed sharded campaign is
/// BIT-identical to an uninterrupted one — scores, trajectories, and
/// per-shard stream digests.
void expect_identical(const qc::ShardedResult& a, const qc::ShardedResult& b) {
  EXPECT_EQ(a.covered, b.covered);
  EXPECT_EQ(a.total_traces, b.total_traces);
  ASSERT_TRUE(a.attack.has_value());
  ASSERT_TRUE(b.attack.has_value());
  EXPECT_EQ(a.attack->guess_scores, b.attack->guess_scores);  // bit-exact
  EXPECT_EQ(a.attack->best_guess, b.attack->best_guess);
  EXPECT_EQ(a.attack->true_key_rank, b.attack->true_key_rank);
  EXPECT_EQ(a.attack->mtd, b.attack->mtd);
  ASSERT_EQ(a.rank_trajectory.size(), b.rank_trajectory.size());
  for (std::size_t i = 0; i < a.rank_trajectory.size(); ++i) {
    EXPECT_EQ(a.rank_trajectory[i].traces, b.rank_trajectory[i].traces);
    EXPECT_EQ(a.rank_trajectory[i].rank, b.rank_trajectory[i].rank);
  }
  ASSERT_EQ(a.shards.size(), b.shards.size());
  for (std::size_t i = 0; i < a.shards.size(); ++i)
    EXPECT_EQ(a.shards[i].digest_hex, b.shards[i].digest_hex) << "shard " << i;
}

qc::Campaign base_campaign(qs::EngineKind engine = qs::EngineKind::Compiled,
                           unsigned threads = 1) {
  return qc::Campaign()
      .target(qc::des_sbox_slice())
      .key(0x15)
      .seed(7)
      .traces(96)
      .threads(threads)
      .engine(engine)
      .attack(qc::Dpa{});
}

qc::ShardedOptions base_opts(const std::string& dir) {
  qc::ShardedOptions opt;
  opt.shards = 3;
  opt.checkpoint_interval = 16;
  opt.chunk_traces = 8;
  opt.checkpoint_dir = dir;
  opt.backoff_ms = 0;
  return opt;
}

}  // namespace

// ---- shard planning --------------------------------------------------------

TEST(ShardPlan, BalancedContiguousCover) {
  const std::vector<qc::ShardSpec> specs = qc::plan_shards(100, 3);
  ASSERT_EQ(specs.size(), 3u);
  EXPECT_EQ(specs[0].lo, 0u);
  EXPECT_EQ(specs[0].hi, 34u);  // 100 = 34 + 33 + 33
  EXPECT_EQ(specs[1].lo, 34u);
  EXPECT_EQ(specs[1].hi, 67u);
  EXPECT_EQ(specs[2].lo, 67u);
  EXPECT_EQ(specs[2].hi, 100u);
  // More shards than traces: clamped, never an empty range.
  const std::vector<qc::ShardSpec> tiny = qc::plan_shards(2, 8);
  ASSERT_EQ(tiny.size(), 2u);
  EXPECT_EQ(tiny[1].hi, 2u);
}

// ---- checkpoint codec ------------------------------------------------------

namespace {

qc::ShardCheckpoint sample_checkpoint() {
  qc::ShardCheckpoint c;
  c.fingerprint = 0x1122334455667788ULL;
  c.shard = 1;
  c.lo = 32;
  c.hi = 64;
  c.next = 48;
  qu::Sha256 d;
  d.update_u64(0xdeadbeef);  // leave a buffered partial block behind
  c.digest = d.save();
  for (int i = 0; i < 37; ++i)
    c.acc_state.push_back(static_cast<std::uint8_t>(i * 11));
  return c;
}

qc::CheckpointError::Kind decode_kind(std::vector<std::uint8_t> bytes) {
  try {
    qc::decode_checkpoint(bytes);
  } catch (const qc::CheckpointError& e) {
    return e.kind();
  }
  ADD_FAILURE() << "decode_checkpoint accepted a malformed record of "
                << bytes.size() << " bytes";
  return qc::CheckpointError::Kind::Truncated;
}

}  // namespace

TEST(CheckpointCodec, RoundTripIsExact) {
  const qc::ShardCheckpoint c = sample_checkpoint();
  const std::vector<std::uint8_t> bytes = qc::encode_checkpoint(c);
  const qc::ShardCheckpoint back = qc::decode_checkpoint(bytes);
  EXPECT_EQ(back.fingerprint, c.fingerprint);
  EXPECT_EQ(back.shard, c.shard);
  EXPECT_EQ(back.lo, c.lo);
  EXPECT_EQ(back.hi, c.hi);
  EXPECT_EQ(back.next, c.next);
  EXPECT_EQ(back.digest.h, c.digest.h);
  EXPECT_EQ(back.digest.total_bytes, c.digest.total_bytes);
  EXPECT_EQ(back.acc_state, c.acc_state);
  // The restored digest keeps hashing identically to the original.
  qu::Sha256 a, b;
  a.restore(c.digest);
  b.restore(back.digest);
  a.update_u64(99);
  b.update_u64(99);
  EXPECT_EQ(a.digest(), b.digest());
}

TEST(CheckpointCodec, EveryTruncationLengthIsRejected) {
  const std::vector<std::uint8_t> bytes =
      qc::encode_checkpoint(sample_checkpoint());
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    const std::vector<std::uint8_t> cut(bytes.begin(),
                                        bytes.begin() + static_cast<long>(len));
    EXPECT_EQ(decode_kind(cut), qc::CheckpointError::Kind::Truncated)
        << "record truncated to " << len << " bytes";
  }
}

TEST(CheckpointCodec, CorruptionVersionAndGeometryAreNamed) {
  const qc::ShardCheckpoint c = sample_checkpoint();
  std::vector<std::uint8_t> bytes = qc::encode_checkpoint(c);

  // Any flipped payload byte breaks the trailing digest.
  for (const std::size_t off : {std::size_t{16}, bytes.size() / 2,
                                bytes.size() - 33}) {
    std::vector<std::uint8_t> bad = bytes;
    bad[off] ^= 0x01;
    EXPECT_EQ(decode_kind(bad), qc::CheckpointError::Kind::Corrupt)
        << "flip at " << off;
  }
  // A flipped digest byte is equally fatal.
  {
    std::vector<std::uint8_t> bad = bytes;
    bad.back() ^= 0x01;
    EXPECT_EQ(decode_kind(bad), qc::CheckpointError::Kind::Corrupt);
  }
  // Trailing garbage after the sealed record.
  {
    std::vector<std::uint8_t> bad = bytes;
    bad.push_back(0);
    EXPECT_EQ(decode_kind(bad), qc::CheckpointError::Kind::Corrupt);
  }
  // Bad magic.
  {
    std::vector<std::uint8_t> bad = bytes;
    bad[0] ^= 0xff;
    EXPECT_EQ(decode_kind(bad), qc::CheckpointError::Kind::Corrupt);
  }
  // Future version (the version field is outside the sealed payload).
  {
    std::vector<std::uint8_t> bad = bytes;
    bad[4] = static_cast<std::uint8_t>(qc::kCheckpointVersion + 1);
    EXPECT_EQ(decode_kind(bad), qc::CheckpointError::Kind::VersionMismatch);
  }
  // A version-1 record (per-guess accumulator sums) is not adopted: its
  // snapshot layout predates the per-class sums.
  {
    ASSERT_GT(qc::kCheckpointVersion, 1u);
    std::vector<std::uint8_t> old = bytes;
    old[4] = 1;
    EXPECT_EQ(decode_kind(old), qc::CheckpointError::Kind::VersionMismatch);
  }
  // Identity mismatches are geometry errors.
  const auto geometry_kind = [&](std::uint64_t fp, std::uint64_t shard,
                                 std::uint64_t lo, std::uint64_t hi) {
    try {
      qc::validate_checkpoint_identity(c, fp, shard, lo, hi);
    } catch (const qc::CheckpointError& e) {
      return e.kind();
    }
    ADD_FAILURE() << "identity mismatch accepted";
    return qc::CheckpointError::Kind::Truncated;
  };
  EXPECT_EQ(geometry_kind(c.fingerprint + 1, c.shard, c.lo, c.hi),
            qc::CheckpointError::Kind::GeometryMismatch);
  EXPECT_EQ(geometry_kind(c.fingerprint, c.shard + 1, c.lo, c.hi),
            qc::CheckpointError::Kind::GeometryMismatch);
  EXPECT_EQ(geometry_kind(c.fingerprint, c.shard, c.lo, c.hi + 8),
            qc::CheckpointError::Kind::GeometryMismatch);
  qc::ShardCheckpoint out_of_range = c;
  out_of_range.next = c.hi + 1;
  EXPECT_THROW(qc::validate_checkpoint_identity(out_of_range, c.fingerprint,
                                                c.shard, c.lo, c.hi),
               qc::CheckpointError);
  // And a clean record validates.
  EXPECT_NO_THROW(
      qc::validate_checkpoint_identity(c, c.fingerprint, c.shard, c.lo, c.hi));
}

TEST(CheckpointCodec, CommitRotatesAndRecoveryFallsBackToPrev) {
  const std::string dir = fresh_dir("rotation");
  qc::ShardCheckpoint c1 = sample_checkpoint();
  c1.shard = 0;
  c1.lo = 0;
  c1.hi = 64;
  c1.next = 16;
  qc::commit_checkpoint(dir, c1);
  qc::ShardCheckpoint c2 = c1;
  c2.next = 32;
  qc::commit_checkpoint(dir, c2);

  // Newest generation wins when intact.
  std::string notes;
  auto rec = qc::recover_checkpoint(dir, 0, c1.fingerprint, 0, 64, nullptr,
                                    &notes);
  ASSERT_TRUE(rec.has_value());
  EXPECT_EQ(rec->ckpt.next, 32u);
  EXPECT_TRUE(notes.empty());

  // Corrupt the newest: recovery rejects it BY NAME and adopts .prev —
  // a torn or bit-flipped record is never silently merged.
  flip_byte(qc::checkpoint_path(dir, 0), 20);
  rec = qc::recover_checkpoint(dir, 0, c1.fingerprint, 0, 64, nullptr, &notes);
  ASSERT_TRUE(rec.has_value());
  EXPECT_EQ(rec->ckpt.next, 16u);
  EXPECT_EQ(rec->file, qc::checkpoint_prev_path(dir, 0));
  EXPECT_NE(notes.find("rejected"), std::string::npos);
  EXPECT_NE(notes.find("digest mismatch"), std::string::npos);

  // Corrupt both generations: nothing to adopt, both rejections named.
  flip_byte(qc::checkpoint_prev_path(dir, 0), 20);
  rec = qc::recover_checkpoint(dir, 0, c1.fingerprint, 0, 64, nullptr, &notes);
  EXPECT_FALSE(rec.has_value());
  EXPECT_NE(notes.find(".ckpt:"), std::string::npos);
  EXPECT_NE(notes.find(".prev:"), std::string::npos);

  // An adopt hook that vetoes (e.g. dpa::StateError from a stale
  // accumulator snapshot) also falls through.
  qc::commit_checkpoint(dir, c2);
  rec = qc::recover_checkpoint(
      dir, 0, c1.fingerprint, 0, 64,
      [](const qc::ShardCheckpoint&) {
        throw qd::StateError(qd::StateError::Kind::Geometry, "veto");
      },
      &notes);
  EXPECT_FALSE(rec.has_value());
  EXPECT_NE(notes.find("veto"), std::string::npos);
}

// ---- sharded campaign: validation ------------------------------------------

TEST(ShardedValidation, InconsistentConfigurationsThrow) {
  const std::string dir = fresh_dir("validation");
  qc::ShardedOptions opt = base_opts(dir);
  // No attack.
  EXPECT_THROW(qc::Campaign()
                   .target(qc::des_sbox_slice())
                   .traces(8)
                   .sharded(opt),
               std::invalid_argument);
  // No traces.
  EXPECT_THROW(
      qc::Campaign().target(qc::des_sbox_slice()).attack(qc::Dpa{}).sharded(
          opt),
      std::invalid_argument);
  // No checkpoint directory.
  qc::ShardedOptions no_dir = opt;
  no_dir.checkpoint_dir.clear();
  EXPECT_THROW(base_campaign().sharded(no_dir), std::invalid_argument);
  // faults() and rank_trajectory() are fused-run features.
  EXPECT_THROW(base_campaign().faults().sharded(opt), std::invalid_argument);
  EXPECT_THROW(base_campaign().rank_trajectory(8).sharded(opt),
               std::invalid_argument);
}

// ---- sharded campaign: clean runs ------------------------------------------

TEST(ShardedRun, CompletesAndAgreesWithFusedCampaign) {
  const std::string dir = fresh_dir("clean");
  const qc::ShardedResult res = base_campaign().sharded(base_opts(dir));
  EXPECT_TRUE(res.complete());
  EXPECT_EQ(res.covered, 96u);
  ASSERT_EQ(res.shards.size(), 3u);
  for (const qc::ShardReport& s : res.shards) {
    EXPECT_TRUE(s.done);
    EXPECT_EQ(s.attempts, 1u);
    EXPECT_EQ(s.committed, s.hi);
    EXPECT_FALSE(s.digest_hex.empty());
    EXPECT_TRUE(s.error.empty());
  }
  EXPECT_EQ(res.rank_trajectory.size(), 3u);
  EXPECT_EQ(res.rank_trajectory.back().traces, 96u);
  EXPECT_EQ(res.table().rows(), 3u);

  const qc::CampaignResult fused = base_campaign().fused(16).run();
  ASSERT_TRUE(fused.attack.has_value());

  // A SINGLE-shard sharded run is the fused loop with commits sprinkled
  // in — window boundaries only decide where checkpoints land, never
  // the accumulation order — so its scores are BIT-identical to the
  // fused campaign's.
  qc::ShardedOptions one = base_opts(fresh_dir("clean_one"));
  one.shards = 1;
  const qc::ShardedResult res1 = base_campaign().sharded(one);
  ASSERT_TRUE(res1.attack.has_value());
  EXPECT_EQ(res1.attack->guess_scores, fused.attack->guess_scores);
  EXPECT_EQ(res1.attack->best_guess, fused.attack->best_guess);
  EXPECT_EQ(res1.attack->true_key_rank, fused.attack->true_key_rank);

  // A MULTI-shard run folds per-shard partial sums together, which
  // re-associates the floating-point additions. On a balanced QDI
  // target the DPA differential signal sits near the double-precision
  // noise floor of the sums, so score ranks among near-ties are not
  // comparable across association orders — the scores themselves agree
  // to the re-association tolerance, and the strong bit-identity
  // contract (asserted throughout this file) is sharded-vs-sharded of
  // the same configuration.
  ASSERT_TRUE(res.attack.has_value());
  ASSERT_EQ(res.attack->guess_scores.size(),
            fused.attack->guess_scores.size());
  for (std::size_t g = 0; g < res.attack->guess_scores.size(); ++g)
    EXPECT_NEAR(res.attack->guess_scores[g], fused.attack->guess_scores[g],
                1e-9);
}

TEST(ShardedRun, RepeatRunsAreBitIdenticalAndResumeFromCompleteCheckpoints) {
  const std::string dir_a = fresh_dir("repeat_a");
  const std::string dir_b = fresh_dir("repeat_b");
  const qc::ShardedResult a = base_campaign().sharded(base_opts(dir_a));
  const qc::ShardedResult b = base_campaign().sharded(base_opts(dir_b));
  expect_identical(a, b);

  // Re-running over the completed checkpoint store re-adopts the final
  // records without re-acquiring anything, bit-identically.
  const qc::ShardedResult c = base_campaign().sharded(base_opts(dir_a));
  expect_identical(a, c);
  for (const qc::ShardReport& s : c.shards)
    EXPECT_FALSE(s.resumed_from.empty());
}

// ---- crash injection: resume bit-identity ----------------------------------

TEST(ShardedCrash, CommitCrashIsRetriedWithinTheRun) {
  const std::string dir_ref = fresh_dir("commit_crash_ref");
  const qc::ShardedResult ref = base_campaign().sharded(base_opts(dir_ref));

  const std::string dir = fresh_dir("commit_crash");
  qc::ShardedOptions opt = base_opts(dir);
  std::atomic<int> crashes{1};
  opt.on_commit = [&](std::size_t shard, std::uint64_t) {
    if (shard == 1 && crashes.fetch_sub(1) > 0)
      throw std::runtime_error("injected crash right after commit");
  };
  const qc::ShardedResult res = base_campaign().sharded(opt);
  EXPECT_TRUE(res.complete());
  EXPECT_EQ(res.shards[1].attempts, 2u);
  EXPECT_FALSE(res.shards[1].resumed_from.empty());
  expect_identical(ref, res);
}

TEST(ShardedCrash, KilledRunResumesBitIdenticalAcrossInvocations) {
  const std::string dir_ref = fresh_dir("kill_ref");
  const qc::ShardedResult ref = base_campaign().sharded(base_opts(dir_ref));

  // "Kill the process" mid-run: max_attempts = 1, a hook that throws
  // mid-window on every shard after a countdown. The first invocation
  // returns a degraded result; re-invoking with the same configuration
  // resumes from the durable store until the run completes.
  const std::string dir = fresh_dir("kill");
  std::atomic<int> countdown{0};
  qc::ShardedOptions opt = base_opts(dir);
  opt.max_attempts = 1;
  opt.on_progress = [&](std::size_t, std::uint64_t) {
    if (countdown.fetch_sub(1) == 0)
      throw std::runtime_error("injected kill");
  };
  qc::ShardedResult res;
  bool resumed_at_least_once = false;
  int invocations = 0;
  for (; invocations < 32; ++invocations) {
    countdown.store(3 + invocations);  // later kills land further in
    res = base_campaign().sharded(opt);
    for (const qc::ShardReport& s : res.shards)
      resumed_at_least_once |= !s.resumed_from.empty();
    if (res.complete()) break;
  }
  ASSERT_TRUE(res.complete()) << "never completed in " << invocations
                              << " invocations";
  EXPECT_TRUE(resumed_at_least_once);
  expect_identical(ref, res);
}

TEST(ShardedCrash, CorruptOrTruncatedCheckpointIsRejectedByNameAndRecovered) {
  // Reference: uninterrupted single-shard run.
  qc::ShardedOptions ref_opt = base_opts(fresh_dir("corrupt_ref"));
  ref_opt.shards = 1;
  const qc::ShardedResult ref = base_campaign().sharded(ref_opt);

  // Interrupted run with >= 2 commits, then a corrupted newest record:
  // recovery must reject it by name, fall back to .prev, and the
  // resumed result must still be bit-identical.
  const std::string dir = fresh_dir("corrupt");
  qc::ShardedOptions opt = base_opts(dir);
  opt.shards = 1;
  opt.max_attempts = 1;
  std::atomic<int> commits{0};
  qc::ShardedOptions crash = opt;
  crash.on_commit = [&](std::size_t, std::uint64_t) {
    if (commits.fetch_add(1) + 1 == 2) throw std::runtime_error("kill");
  };
  qc::ShardedResult partial = base_campaign().sharded(crash);
  ASSERT_FALSE(partial.complete());
  ASSERT_EQ(partial.shards[0].committed, 32u);  // two 16-trace windows

  flip_byte(qc::checkpoint_path(dir, 0), 24);  // corrupt newest payload
  qc::ShardedResult res = base_campaign().sharded(opt);
  EXPECT_TRUE(res.complete());
  EXPECT_NE(res.shards[0].recovery.find("rejected"), std::string::npos);
  EXPECT_NE(res.shards[0].recovery.find("digest mismatch"), std::string::npos);
  EXPECT_EQ(res.shards[0].resumed_from, qc::checkpoint_prev_path(dir, 0));
  expect_identical(ref, res);

  // Truncation instead of corruption: same named rejection path.
  const std::string dir2 = fresh_dir("truncated");
  qc::ShardedOptions opt2 = base_opts(dir2);
  opt2.shards = 1;
  opt2.max_attempts = 1;
  commits.store(0);
  qc::ShardedOptions crash2 = opt2;
  crash2.on_commit = crash.on_commit;
  partial = base_campaign().sharded(crash2);
  ASSERT_FALSE(partial.complete());
  std::vector<std::uint8_t> bytes = read_file(qc::checkpoint_path(dir2, 0));
  bytes.resize(bytes.size() / 2);
  write_file(qc::checkpoint_path(dir2, 0), bytes);
  res = base_campaign().sharded(opt2);
  EXPECT_TRUE(res.complete());
  EXPECT_NE(res.shards[0].recovery.find("truncated"), std::string::npos);
  expect_identical(ref, res);

  // Both generations destroyed: the shard restarts from scratch and the
  // result is STILL bit-identical (determinism), with both rejections
  // named in the report.
  const std::string dir3 = fresh_dir("both_corrupt");
  qc::ShardedOptions opt3 = base_opts(dir3);
  opt3.shards = 1;
  opt3.max_attempts = 1;
  commits.store(0);
  qc::ShardedOptions crash3 = opt3;
  crash3.on_commit = crash.on_commit;
  partial = base_campaign().sharded(crash3);
  ASSERT_FALSE(partial.complete());
  flip_byte(qc::checkpoint_path(dir3, 0), 24);
  flip_byte(qc::checkpoint_prev_path(dir3, 0), 24);
  res = base_campaign().sharded(opt3);
  EXPECT_TRUE(res.complete());
  EXPECT_NE(res.shards[0].recovery.find(".ckpt:"), std::string::npos);
  EXPECT_NE(res.shards[0].recovery.find(".prev:"), std::string::npos);
  EXPECT_TRUE(res.shards[0].resumed_from.empty());
  expect_identical(ref, res);
}

TEST(ShardedCrash, ForeignFingerprintCheckpointsAreRejectedNotMerged) {
  // Complete a campaign under one key, then run a DIFFERENT key over
  // the same directory: the stale records mismatch the fingerprint, are
  // rejected by name, and the new campaign still produces the same
  // result as a fresh-directory run.
  const std::string dir = fresh_dir("foreign");
  base_campaign().sharded(base_opts(dir));

  const qc::ShardedResult fresh = qc::Campaign()
                                      .target(qc::des_sbox_slice())
                                      .key(0x2a)
                                      .seed(7)
                                      .traces(96)
                                      .attack(qc::Dpa{})
                                      .sharded(base_opts(fresh_dir("foreign_fresh")));
  const qc::ShardedResult res = qc::Campaign()
                                    .target(qc::des_sbox_slice())
                                    .key(0x2a)
                                    .seed(7)
                                    .traces(96)
                                    .attack(qc::Dpa{})
                                    .sharded(base_opts(dir));
  EXPECT_TRUE(res.complete());
  for (const qc::ShardReport& s : res.shards) {
    EXPECT_NE(s.recovery.find("fingerprint mismatch"), std::string::npos);
    EXPECT_TRUE(s.resumed_from.empty());
  }
  expect_identical(fresh, res);
}

// ---- stall watchdog --------------------------------------------------------

TEST(ShardedStall, WatchdogCancelsWedgedShardAndRedispatches) {
  const std::string dir_ref = fresh_dir("stall_ref");
  qc::ShardedOptions ref_opt = base_opts(dir_ref);
  ref_opt.shards = 2;
  const qc::ShardedResult ref = base_campaign().sharded(ref_opt);

  // The timeout must sit well above one healthy chunk's acquisition
  // time (progress only ticks at chunk boundaries) and well below the
  // injected wedge. Sanitizer builds simulate ~10x slower, so scale up.
#ifdef QDI_SANITIZER_ACTIVE
  const unsigned timeout_ms = 2000;
#else
  const unsigned timeout_ms = 400;
#endif
  const std::string dir = fresh_dir("stall");
  qc::ShardedOptions opt = base_opts(dir);
  opt.shards = 2;
  opt.stall_timeout_ms = timeout_ms;
  opt.watchdog_poll_ms = 10;
  opt.max_attempts = 3;
  std::atomic<bool> wedge_once{true};
  opt.on_progress = [&](std::size_t shard, std::uint64_t) {
    if (shard == 1 && wedge_once.exchange(false))
      std::this_thread::sleep_for(std::chrono::milliseconds(3 * timeout_ms));
  };
  const qc::ShardedResult res = base_campaign().sharded(opt);
  EXPECT_TRUE(res.complete());
  EXPECT_TRUE(res.shards[1].wedged);
  EXPECT_GE(res.shards[1].attempts, 2u);
  EXPECT_TRUE(res.shards[1].done);
  expect_identical(ref, res);
}

TEST(ShardedStall, InjectedStallCarriesHandshakePhaseDiagnostics) {
  const std::string dir = fresh_dir("stall_phase");
  qc::ShardedOptions opt = base_opts(dir);
  opt.shards = 1;
  opt.max_attempts = 2;
  opt.on_progress = [](std::size_t, std::uint64_t) {
    throw qc::ShardStall("environment wedged mid-cycle",
                         qs::HandshakePhase::Ack, "S0.out");
  };
  const qc::ShardedResult res = base_campaign().sharded(opt);
  EXPECT_FALSE(res.complete());
  EXPECT_EQ(res.covered, 0u);
  EXPECT_FALSE(res.attack.has_value());
  ASSERT_EQ(res.shards.size(), 1u);
  EXPECT_EQ(res.shards[0].attempts, 2u);
  EXPECT_NE(res.shards[0].error.find("phase ack"), std::string::npos);
  EXPECT_NE(res.shards[0].error.find("S0.out"), std::string::npos);
}

// ---- degraded runs ---------------------------------------------------------

TEST(ShardedDegraded, PartialCoverageIsReportedHonestly) {
  const std::string dir = fresh_dir("degraded");
  qc::ShardedOptions opt = base_opts(dir);
  opt.max_attempts = 2;
  // Shard 2 ([64, 96)) commits its first window and then every further
  // acquisition faults, on every attempt.
  opt.on_progress = [](std::size_t shard, std::uint64_t next) {
    if (shard == 2 && next > 80)
      throw std::runtime_error("injected acquisition fault");
  };
  const qc::ShardedResult res = base_campaign().sharded(opt);
  EXPECT_FALSE(res.complete());
  EXPECT_EQ(res.covered, 80u);  // shards 0, 1 plus shard 2's first window
  ASSERT_EQ(res.shards.size(), 3u);
  EXPECT_TRUE(res.shards[0].done);
  EXPECT_TRUE(res.shards[1].done);
  EXPECT_FALSE(res.shards[2].done);
  EXPECT_EQ(res.shards[2].committed, 80u);
  EXPECT_EQ(res.shards[2].attempts, 2u);
  EXPECT_NE(res.shards[2].error.find("injected acquisition fault"),
            std::string::npos);
  EXPECT_FALSE(res.shards[2].digest_hex.empty());
  // The partial attack outcome exists and covers exactly the merged
  // prefix sums.
  ASSERT_TRUE(res.attack.has_value());
  ASSERT_EQ(res.rank_trajectory.size(), 3u);
  EXPECT_EQ(res.rank_trajectory.back().traces, 80u);
  // The coverage table renders one row per shard, flagging the partial.
  const std::string table = res.table().to_string();
  EXPECT_NE(table.find("partial"), std::string::npos);
}

// ---- kill/resume determinism fuzz over targets × engines × threads ---------

namespace {

struct FuzzConfig {
  const char* target;
  qs::EngineKind engine;
  unsigned threads;
  std::size_t traces;
  std::uint64_t key;
};

qc::Campaign fuzz_campaign(const FuzzConfig& cfg) {
  qc::Dpa attack;
  attack.compute_mtd = true;
  attack.mtd_start = 16;
  attack.mtd_step = 16;
  return qc::Campaign()
      .target(qc::find_target(cfg.target))
      .key(cfg.key)
      .seed(11)
      .traces(cfg.traces)
      .threads(cfg.threads)
      .engine(cfg.engine)
      .attack(attack);
}

}  // namespace

TEST(ShardedFuzz, KillResumeIsBitIdenticalAcrossTargetsEnginesThreads) {
  // Every simulatable attackable registry target, both engines, 1 and 3
  // acquisition threads. Each configuration runs an uninterrupted
  // baseline, then a sequence of killed-and-resumed invocations
  // (max_attempts = 1: a thrown hook IS a process death) until the
  // store completes — and the end state must be bit-identical.
  std::vector<FuzzConfig> configs = {
      {"des_sbox_slice", qs::EngineKind::Compiled, 1, 96, 0x15},
      {"des_sbox_slice", qs::EngineKind::Batch, 3, 96, 0x15},
      {"aes_byte_slice", qs::EngineKind::Compiled, 3, 64, 0x2b},
      {"aes_byte_slice", qs::EngineKind::Batch, 1, 64, 0x2b},
      {"des_sbox_sync", qs::EngineKind::Compiled, 3, 64, 0x19},
      {"des_sbox_sync", qs::EngineKind::Batch, 1, 64, 0x19},
      {"des_round", qs::EngineKind::Compiled, 1, 48, 0x0123456789abULL},
      {"des_round", qs::EngineKind::Batch, 3, 48, 0x0123456789abULL},
  };
#ifdef QDI_SANITIZER_ACTIVE
  // Sanitizer job: keep the crash/resume coverage but halve the sweep
  // (instrumented simulation is ~10x slower).
  configs.resize(4);
#endif

  qu::Rng rng(0xC0FFEE);
  for (const FuzzConfig& cfg : configs) {
    SCOPED_TRACE(std::string(cfg.target) +
                 (cfg.engine == qs::EngineKind::Batch ? "/batch" : "/compiled") +
                 "/t" + std::to_string(cfg.threads));
    const std::string tag = std::string("fuzz_") + cfg.target + "_" +
                            (cfg.engine == qs::EngineKind::Batch ? "b" : "c") +
                            std::to_string(cfg.threads);
    qc::ShardedOptions opt;
    opt.shards = 3;
    opt.checkpoint_interval = 8;
    opt.chunk_traces = 4;
    opt.backoff_ms = 0;
    opt.concurrency = cfg.threads > 1 ? 2 : 1;

    opt.checkpoint_dir = fresh_dir(tag + "_ref");
    const qc::ShardedResult ref = fuzz_campaign(cfg).sharded(opt);
    ASSERT_TRUE(ref.complete());

    opt.checkpoint_dir = fresh_dir(tag);
    opt.max_attempts = 1;
    std::atomic<int> countdown{0};
    opt.on_progress = [&](std::size_t, std::uint64_t) {
      if (countdown.fetch_sub(1) == 0) throw std::runtime_error("kill");
    };
    opt.on_commit = [&](std::size_t, std::uint64_t) {
      if (countdown.fetch_sub(1) == 0)
        throw std::runtime_error("kill at commit");
    };
    qc::ShardedResult res;
    int invocations = 0;
    for (; invocations < 48; ++invocations) {
      // Random kill point: sometimes immediate (re-tests recovery with
      // zero new progress), sometimes deep enough to commit windows.
      countdown.store(static_cast<int>(rng.below(24)));
      res = fuzz_campaign(cfg).sharded(opt);
      if (res.complete()) break;
    }
    ASSERT_TRUE(res.complete())
        << "never completed in " << invocations << " invocations";
    expect_identical(ref, res);
    ASSERT_TRUE(res.attack.has_value());
    EXPECT_EQ(res.attack->true_key_rank, ref.attack->true_key_rank);
  }
}
