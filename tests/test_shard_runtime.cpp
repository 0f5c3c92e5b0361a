// Crash-safe sharded campaign runtime: checkpoint codec named-error
// coverage, atomic commit rotation and recovery fallback, the reduction
// structure against a layer-call rebuild, kill/resume bit-identity
// (within a run, across runs, and fuzzed over registry targets ×
// engines × thread counts × ingest modes), failure attribution,
// stall-watchdog re-dispatch (fuzzed over cancel points), and honest
// degraded-coverage reporting.
//
// Checkpoint directories live under the test working directory (the
// build tree), one per test, wiped at the start of each test.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
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
  // fused() and sharded_ingest() configure run(); sharded() reads their
  // ShardedOptions counterparts, and the message names the field to set.
  const auto message = [&](const qc::Campaign& c) {
    try {
      (void)c.sharded(opt);
    } catch (const std::invalid_argument& e) {
      return std::string(e.what());
    }
    return std::string("no throw");
  };
  EXPECT_NE(message(base_campaign().fused(16)).find("chunk_traces"),
            std::string::npos);
  EXPECT_NE(message(base_campaign().sharded_ingest(16))
                .find("ingest_block_traces"),
            std::string::npos);
  EXPECT_NE(message(base_campaign().fused(16).sharded_ingest(16))
                .find("ShardedOptions::"),
            std::string::npos);
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
  // fused campaign's. So is a block-fold run whose window ends are all
  // block edges (base_opts' interval 16 is a multiple of the width 8):
  // both drivers then fold the same blocks through one ingest rule.
  for (const std::size_t block : {std::size_t{0}, std::size_t{8}}) {
    SCOPED_TRACE(testing::Message() << "ingest_block_traces " << block);
    qc::ShardedOptions one =
        base_opts(fresh_dir("clean_one_" + std::to_string(block)));
    one.shards = 1;
    one.ingest_block_traces = block;
    const qc::ShardedResult res1 = base_campaign().sharded(one);
    qc::Campaign fused_campaign = base_campaign();
    fused_campaign.fused(16);
    if (block > 0) fused_campaign.sharded_ingest(block);
    const qc::CampaignResult fused1 = fused_campaign.run();
    ASSERT_TRUE(res1.attack.has_value());
    ASSERT_TRUE(fused1.attack.has_value());
    EXPECT_EQ(res1.attack->guess_scores, fused1.attack->guess_scores);
    EXPECT_EQ(res1.attack->best_guess, fused1.attack->best_guess);
    EXPECT_EQ(res1.attack->true_key_rank, fused1.attack->true_key_rank);
  }

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

// fsync_commits adds two fsyncs to each commit and nothing else: the
// verdict, the stream digests and every checkpoint file (newest and
// previous generation) match the default rename-only run byte for byte,
// with serial and with block-fold ingest.
TEST(ShardedRun, FsyncCommitsWriteTheSameCheckpointsAsRenameOnly) {
  for (const std::size_t block : {std::size_t{0}, std::size_t{64}}) {
    SCOPED_TRACE(testing::Message() << "ingest_block_traces " << block);
    const std::string tag = std::to_string(block);
    qc::ShardedOptions plain = base_opts(fresh_dir("rename_only_" + tag));
    plain.ingest_block_traces = block;
    qc::ShardedOptions synced = base_opts(fresh_dir("fsync_" + tag));
    synced.ingest_block_traces = block;
    synced.fsync_commits = true;
    const qc::ShardedResult a = base_campaign().sharded(plain);
    const qc::ShardedResult b = base_campaign().sharded(synced);
    EXPECT_TRUE(a.complete());
    expect_identical(a, b);
    EXPECT_EQ(a.attack->best_score, b.attack->best_score);
    EXPECT_EQ(a.attack->margin, b.attack->margin);
    for (std::size_t s = 0; s < a.shards.size(); ++s) {
      for (const auto& path : {qc::checkpoint_path, qc::checkpoint_prev_path}) {
        const std::vector<std::uint8_t> fa =
            read_file(path(plain.checkpoint_dir, s));
        EXPECT_FALSE(fa.empty());
        EXPECT_EQ(fa, read_file(path(synced.checkpoint_dir, s)))
            << path(synced.checkpoint_dir, s);
      }
    }
  }
}

// The reduction structure perfbench's layer-call rebuild of the sharded
// campaign (perfbench/campaign_bench.cpp, run_rebuilt_sharded) relies
// on: one OnlineCpa per shard, checkpoint windows cut at
// lo + k·interval, block partials merged into the shard in ascending
// block order, and shard sums merged in shard-id order. Sharing one
// pipeline across shards and windows must not move a bit of it.
TEST(ShardedRun, ReductionMatchesLayerCallRebuild) {
  constexpr std::uint64_t kKey = 0x0123456789abULL;
  constexpr std::uint64_t kSeed = 5;
  constexpr std::size_t kTraces = 2048;
  qc::ShardedOptions opt;
  opt.shards = 4;
  opt.checkpoint_interval = 256;
  opt.ingest_block_traces = 64;

  const qc::TargetInstance inst = qc::des_round().build(kKey);
  qc::SimTraceSourceOptions so;
  so.engine = qs::EngineKind::Batch;
  qc::BatchSimTraceSource src(inst.nl, inst.env, inst.stimulus, so);

  for (const unsigned threads : {1u, 4u}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    qc::WorkerPool pool(src, threads);
    std::mutex mu;
    std::map<std::size_t, std::unique_ptr<qd::OnlineCpa>> partial;
    qd::OnlineCpa merged(inst.leakage, inst.num_guesses);
    for (const qc::ShardSpec& spec : qc::plan_shards(kTraces, opt.shards)) {
      qd::OnlineCpa acc(inst.leakage, inst.num_guesses);
      for (std::uint64_t next = spec.lo; next < spec.hi;) {
        const std::uint64_t end =
            std::min<std::uint64_t>(spec.hi, next + opt.checkpoint_interval);
        qc::WorkerPool::ShardedIngest si;
        si.ingest = [&](unsigned, std::size_t block, const qd::TraceSet& seg,
                        std::size_t) {
          auto p = std::make_unique<qd::OnlineCpa>(inst.leakage,
                                                   inst.num_guesses);
          p->add_prefix(seg, 0, seg.size());
          const std::lock_guard<std::mutex> lock(mu);
          partial[block] = std::move(p);
        };
        si.commit = [&](std::size_t block, const qd::TraceSet&, std::size_t) {
          std::unique_ptr<qd::OnlineCpa> p;
          {
            const std::lock_guard<std::mutex> lock(mu);
            p = std::move(partial.at(block));
            partial.erase(block);
          }
          acc.merge(*p);
        };
        pool.acquire_sharded_range(static_cast<std::size_t>(next),
                                   static_cast<std::size_t>(end - next), kSeed,
                                   opt.ingest_block_traces, {}, si);
        next = end;
      }
      merged.merge(acc);
    }
    const qd::CpaResult rebuilt = merged.finalize();

    opt.checkpoint_dir = fresh_dir("rebuild_t" + std::to_string(threads));
    const qc::ShardedResult res = qc::Campaign()
                                      .target(qc::des_round())
                                      .key(kKey)
                                      .seed(kSeed)
                                      .traces(kTraces)
                                      .threads(threads)
                                      .engine(qs::EngineKind::Batch)
                                      .attack(qc::Cpa{})
                                      .sharded(opt);
    ASSERT_TRUE(res.complete());
    ASSERT_TRUE(res.attack.has_value());
    EXPECT_EQ(res.attack->guess_scores, rebuilt.correlation);  // bit-exact
    EXPECT_EQ(res.attack->best_guess, rebuilt.best_guess);
    EXPECT_EQ(res.attack->true_key_rank, rebuilt.rank_of(inst.true_guess));
  }
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

namespace {

/// Delegating source that throws once, on the first acquisition of
/// trace `at`; until then, acquiring trace `hold` sleeps, which parks
/// the commit frontier there while the other workers run ahead (the
/// flag is shared across worker clones).
class ThrowOnceSource final : public qc::TraceSource {
 public:
  ThrowOnceSource(std::unique_ptr<qc::TraceSource> inner,
                  std::shared_ptr<std::atomic<bool>> armed, std::size_t at,
                  std::size_t hold)
      : inner_(std::move(inner)), armed_(std::move(armed)), at_(at),
        hold_(hold) {}

  void acquire_into(const qc::TraceRequest& req,
                    qc::AcquiredTrace& out) override {
    if (req.index == hold_ && armed_->load())
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
    if (req.index == at_ && armed_->exchange(false))
      throw std::runtime_error("injected source fault");
    inner_->acquire_into(req, out);
  }
  std::unique_ptr<qc::TraceSource> clone() const override {
    return std::make_unique<ThrowOnceSource>(inner_->clone(), armed_, at_,
                                             hold_);
  }
  std::string name() const override { return inner_->name(); }

 private:
  std::unique_ptr<qc::TraceSource> inner_;
  std::shared_ptr<std::atomic<bool>> armed_;
  std::size_t at_;
  std::size_t hold_;
};

}  // namespace

TEST(ShardedCrash, SourceExceptionIsChargedToItsShard) {
  // Shard 2 is [64, 96); its second window is [80, 96). A source fault
  // there, raised on whichever worker acquires trace 90 while a slow
  // trace 60 holds the commit frontier in shard 1, must be charged to
  // shard 2 alone (the failed block's shard, not the frontier's): it
  // retries from its durable state, every other shard finishes on its
  // first attempt, and the result is bit-identical to an uninterrupted
  // run. 4-trace blocks at 4 threads let claims run 40 traces ahead of
  // the frontier.
  const auto campaign = [](std::shared_ptr<std::atomic<bool>> armed) {
    return base_campaign(qs::EngineKind::Compiled, 4)
        .source([armed](const qc::TargetInstance& inst,
                        const qc::SimTraceSourceOptions& o)
                    -> std::unique_ptr<qc::TraceSource> {
          return std::make_unique<ThrowOnceSource>(
              std::make_unique<qc::SimTraceSource>(inst.nl, inst.env,
                                                   inst.stimulus, o),
              armed, 90, 60);
        });
  };
  const auto options = [](const std::string& dir) {
    qc::ShardedOptions opt = base_opts(dir);
    opt.chunk_traces = 64;  // block_traces(64) = 4 at 4 threads
    return opt;
  };
  const qc::ShardedResult ref =
      campaign(std::make_shared<std::atomic<bool>>(false))
          .sharded(options(fresh_dir("source_fault_ref")));

  const auto armed = std::make_shared<std::atomic<bool>>(true);
  const qc::ShardedResult res =
      campaign(armed).sharded(options(fresh_dir("source_fault")));
  EXPECT_FALSE(armed->load());  // the fault fired
  EXPECT_TRUE(res.complete());
  ASSERT_EQ(res.shards.size(), 3u);
  EXPECT_EQ(res.shards[0].attempts, 1u);
  EXPECT_EQ(res.shards[1].attempts, 1u);
  EXPECT_EQ(res.shards[2].attempts, 2u);
  expect_identical(ref, res);
}

namespace {

/// Delegating source that throws on the first acquisition of trace `at`
/// (the flag is shared across clones) and stays broken: every later
/// call on the instance that threw throws too, as a simulator left with
/// events queued would. Its clones start healthy.
class BreakOnceSource final : public qc::TraceSource {
 public:
  BreakOnceSource(std::unique_ptr<qc::TraceSource> inner,
                  std::shared_ptr<std::atomic<bool>> armed, std::size_t at)
      : inner_(std::move(inner)), armed_(std::move(armed)), at_(at) {}

  void acquire_into(const qc::TraceRequest& req,
                    qc::AcquiredTrace& out) override {
    if (broken_ || (req.index == at_ && armed_->exchange(false))) {
      broken_ = true;
      throw std::runtime_error("injected source fault; source left broken");
    }
    inner_->acquire_into(req, out);
  }
  std::unique_ptr<qc::TraceSource> clone() const override {
    return std::make_unique<BreakOnceSource>(inner_->clone(), armed_, at_);
  }
  std::string name() const override { return inner_->name(); }

 private:
  std::unique_ptr<qc::TraceSource> inner_;
  std::shared_ptr<std::atomic<bool>> armed_;
  std::size_t at_;
  bool broken_ = false;
};

}  // namespace

TEST(ShardedCrash, SourceBrokenByItsOwnFaultIsReplaced) {
  // A fault at trace 10 (shard 0's first window) leaves the source
  // instance that raised it unusable. The failed call's sources are
  // rebuilt from the pristine primary, so shard 0 alone retries and the
  // other shards finish on their first attempt, at 1 and 4 threads.
  const qc::ShardedResult ref =
      base_campaign().sharded(base_opts(fresh_dir("broken_source_ref")));
  for (const unsigned threads : {1u, 4u}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    const auto armed = std::make_shared<std::atomic<bool>>(true);
    const qc::ShardedResult res =
        base_campaign(qs::EngineKind::Compiled, threads)
            .source([armed](const qc::TargetInstance& inst,
                            const qc::SimTraceSourceOptions& o)
                        -> std::unique_ptr<qc::TraceSource> {
              return std::make_unique<BreakOnceSource>(
                  std::make_unique<qc::SimTraceSource>(inst.nl, inst.env,
                                                       inst.stimulus, o),
                  armed, 10);
            })
            .sharded(base_opts(
                fresh_dir("broken_source_" + std::to_string(threads))));
    EXPECT_FALSE(armed->load());  // the fault fired
    EXPECT_TRUE(res.complete());
    ASSERT_EQ(res.shards.size(), 3u);
    EXPECT_EQ(res.shards[0].attempts, 2u);
    EXPECT_EQ(res.shards[1].attempts, 1u);
    EXPECT_EQ(res.shards[2].attempts, 1u);
    expect_identical(ref, res);
  }
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

TEST(ShardedStall, CancelMidWindowFuzzIsBitIdentical) {
  // The watchdog cancels a random block of a random window, at 1-4
  // threads, with serial and block-fold ingest: an on_progress hook
  // wedges the commit chain there until the watchdog has fired. The run
  // must finish (no deadlock), the Coordinator must find no block
  // partial or fingerprint left parked across the aborted call (it
  // throws std::logic_error otherwise), and the re-dispatched result must be
  // bit-identical to an uninterrupted run.
#ifdef QDI_SANITIZER_ACTIVE
  const unsigned timeout_ms = 250;
  const int trials = 6;
#else
  const unsigned timeout_ms = 40;
  const int trials = 12;
#endif
  const auto options = [](const std::string& dir, std::size_t block) {
    qc::ShardedOptions opt = base_opts(dir);
    opt.checkpoint_interval = 8;
    opt.chunk_traces = 4;
    opt.ingest_block_traces = block;
    return opt;
  };
  const qc::ShardedResult ref_serial =
      base_campaign().sharded(options(fresh_dir("cancel_ref_s"), 0));
  const qc::ShardedResult ref_fold =
      base_campaign().sharded(options(fresh_dir("cancel_ref_f"), 4));

  qu::Rng rng(0xCA11);
  bool redispatched = false;
  for (int trial = 0; trial < trials; ++trial) {
    const unsigned threads = 1 + static_cast<unsigned>(rng.below(4));
    const std::size_t block = trial % 2 == 0 ? 0 : 4;
    const std::size_t shard = rng.below(3);
    const std::uint64_t lo = 32 * shard;  // base_campaign: 96 = 3 × 32
    const std::uint64_t stall_after = lo + rng.below(32);
    SCOPED_TRACE("trial " + std::to_string(trial) + ": t" +
                 std::to_string(threads) + " block " + std::to_string(block) +
                 " shard " + std::to_string(shard) + " past " +
                 std::to_string(stall_after));
    qc::ShardedOptions opt =
        options(fresh_dir("cancel_" + std::to_string(trial)), block);
    opt.stall_timeout_ms = timeout_ms;
    opt.watchdog_poll_ms = 5;
    opt.max_attempts = 8;
    std::atomic<bool> wedge{true};
    opt.on_progress = [&](std::size_t s, std::uint64_t next) {
      if (s == shard && next > stall_after && wedge.exchange(false))
        std::this_thread::sleep_for(std::chrono::milliseconds(4 * timeout_ms));
    };
    const auto t0 = std::chrono::steady_clock::now();
    qc::ShardedResult res;
    ASSERT_NO_THROW(res = base_campaign(qs::EngineKind::Compiled, threads)
                              .sharded(opt));
    const double wall_s = std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - t0)
                              .count();
    EXPECT_LT(wall_s, 60.0);
    EXPECT_FALSE(wedge.load());
    EXPECT_TRUE(res.complete());
    EXPECT_TRUE(res.shards[shard].wedged);
    redispatched |= res.shards[shard].attempts > 1;
    expect_identical(block == 0 ? ref_serial : ref_fold, res);
  }
  EXPECT_TRUE(redispatched);
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
  std::size_t ingest_block = 0;  ///< ShardedOptions::ingest_block_traces
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
  // acquisition threads with serial ingest, plus a block-fold arm at 4
  // threads. Each configuration runs an uninterrupted baseline, then a
  // sequence of killed-and-resumed invocations (max_attempts = 1: a
  // thrown hook IS a process death) until the store completes — and the
  // end state must be bit-identical.
  std::vector<FuzzConfig> configs = {
      {"des_sbox_slice", qs::EngineKind::Compiled, 1, 96, 0x15},
      {"des_sbox_slice", qs::EngineKind::Batch, 3, 96, 0x15},
      {"aes_byte_slice", qs::EngineKind::Compiled, 3, 64, 0x2b},
      {"aes_byte_slice", qs::EngineKind::Batch, 1, 64, 0x2b},
      {"des_sbox_sync", qs::EngineKind::Compiled, 3, 64, 0x19},
      {"des_sbox_sync", qs::EngineKind::Batch, 1, 64, 0x19},
      {"des_round", qs::EngineKind::Compiled, 1, 48, 0x0123456789abULL},
      {"des_round", qs::EngineKind::Batch, 3, 48, 0x0123456789abULL},
      {"des_sbox_slice", qs::EngineKind::Batch, 4, 96, 0x15, 8},
      {"aes_byte_slice", qs::EngineKind::Compiled, 4, 64, 0x2b, 8},
  };
#ifdef QDI_SANITIZER_ACTIVE
  // Sanitizer job: keep the crash/resume coverage of both ingest modes
  // but halve the sweep (instrumented simulation is ~10x slower).
  configs.erase(configs.begin() + 4, configs.end() - 1);
#endif

  qu::Rng rng(0xC0FFEE);
  for (const FuzzConfig& cfg : configs) {
    SCOPED_TRACE(std::string(cfg.target) +
                 (cfg.engine == qs::EngineKind::Batch ? "/batch" : "/compiled") +
                 "/t" + std::to_string(cfg.threads) + "/block" +
                 std::to_string(cfg.ingest_block));
    const std::string tag = std::string("fuzz_") + cfg.target + "_" +
                            (cfg.engine == qs::EngineKind::Batch ? "b" : "c") +
                            std::to_string(cfg.threads) + "_" +
                            std::to_string(cfg.ingest_block);
    qc::ShardedOptions opt;
    opt.shards = 3;
    opt.checkpoint_interval = 8;
    opt.chunk_traces = 4;
    opt.ingest_block_traces = cfg.ingest_block;
    opt.backoff_ms = 0;

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
