// Absolute trace digests: one pinned SHA-256 per (target, jitter) case.
//
// The cross-engine suites compare the compiled, reference and batch
// engines with each other, so a rule the three share (handshake timing,
// pulse binning, charge, trace prelude, output packing) could drift in
// all of them at once and still pass. These pins hold the acquisition
// itself fixed: each engine must reproduce the same 64 traces — sample
// bits, window start, plaintext, ciphertext, transition and glitch
// counts — byte for byte. Noise stays 0 (gaussian draws depend on libm).
// The fault sweep's records are pinned the same way, and so are the
// analysis results: the attack outcome and rank trajectory of every
// ingest mode of run() and sharded(), each shard's stream digest and
// its final checkpoint bytes.
//
// A deliberate change of the model or of a target moves these digests;
// re-pin them only together with the change that explains why.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "qdi/campaign/batch_trace_source.hpp"
#include "qdi/campaign/campaign.hpp"
#include "qdi/campaign/checkpoint.hpp"
#include "qdi/campaign/fault_campaign.hpp"
#include "qdi/campaign/shard.hpp"
#include "qdi/campaign/target.hpp"
#include "qdi/campaign/trace_source.hpp"
#include "qdi/util/sha256.hpp"

namespace qc = qdi::campaign;
namespace qs = qdi::sim;
namespace qu = qdi::util;

namespace {

constexpr std::size_t kTraces = 64;
constexpr std::uint64_t kSeed = 42;
constexpr std::uint64_t kKey = 0x2b;

void feed(qu::Sha256& h, std::span<const std::uint8_t> bytes) {
  h.update_u64(bytes.size());
  h.update(bytes);
}

void feed(qu::Sha256& h, const qc::AcquiredTrace& t) {
  h.update_u64(std::bit_cast<std::uint64_t>(t.trace.t0_ps()));
  h.update_u64(std::bit_cast<std::uint64_t>(t.trace.dt_ps()));
  h.update_u64(t.trace.size());
  for (const double s : t.trace.samples())
    h.update_u64(std::bit_cast<std::uint64_t>(s));
  feed(h, t.plaintext);
  feed(h, t.ciphertext);
  h.update_u64(t.transitions);
  h.update_u64(t.glitches);
}

/// Digest of traces 0..kTraces-1 of `target` acquired on `engine`: the
/// scalar engines one acquire_into per index on one worker, the batch
/// engine as one full 64-lane block.
std::string trace_digest(const qc::TargetInstance& inst, qs::EngineKind engine,
                         double jitter_ps) {
  qc::SimTraceSourceOptions opt;
  opt.engine = engine;
  opt.start_jitter_ps = jitter_ps;
  opt.power.noise_sigma_ua = 0.0;
  std::vector<qc::AcquiredTrace> out(kTraces);
  if (engine == qs::EngineKind::Batch) {
    qc::BatchSimTraceSource src(inst.nl, inst.env, inst.stimulus, opt);
    src.acquire_block(kSeed, 0, kTraces, out.data());
  } else {
    qc::SimTraceSource src(inst.nl, inst.env, inst.stimulus, opt);
    for (std::size_t i = 0; i < kTraces; ++i)
      src.acquire_into({kSeed, i}, out[i]);
  }
  qu::Sha256 h;
  for (std::size_t i = 0; i < kTraces; ++i) {
    h.update_u64(i);
    feed(h, out[i]);
  }
  return h.hex();
}

struct DigestCase {
  const char* target;
  double jitter_ps;
  const char* sha256;
};

// Pinned from the engines as they stood before the acquisition rules
// were factored into shared helpers; every engine must still match.
constexpr DigestCase kCases[] = {
    {"des_round", 0.0,
     "d3ca1e67c697eb2dcd00e972b4826ddf622b9c3f33ac2b694588e3711a93bf35"},
    {"des_round", 400.0,
     "05dcbeaf6756f91a847a399fcef17e22d909856a579333e0908b3decb2db7d5f"},
    {"aes_byte_slice", 0.0,
     "446015f61d8e53eee529dda875458145a803cca95134e7d2a2ddb5da6064da1a"},
    {"aes_byte_slice", 400.0,
     "589e765124490cc625c353501b0841476b552005d31a554b053e30978531292d"},
    {"des_sbox_slice", 0.0,
     "13d17efddc4c8ce3ad6f6c7452ba05ecd9bd8eed6f4d99d8c0c852035be0beef"},
    {"des_sbox_slice", 400.0,
     "8f3b19ca26b7778d0ed3b097ce14fe137576972c95b226eb5f72c27e2f0422fc"},
};

const char* label(qs::EngineKind k) {
  switch (k) {
    case qs::EngineKind::Compiled: return "compiled";
    case qs::EngineKind::Reference: return "reference";
    case qs::EngineKind::Batch: return "batch";
  }
  return "?";
}

constexpr const char* kFaultRecordsSha256 =
    "d77051b8b900ce6f7b1fb6dfd6b6271567686ecd47c54e79b42e6840f87eff65";

// ---- analysis outcome pins --------------------------------------------------

void feed(qu::Sha256& h, double v) {
  h.update_u64(std::bit_cast<std::uint64_t>(v));
}

void feed(qu::Sha256& h, const qc::AttackOutcome& a) {
  h.update_u64(a.kind.size());
  h.update(a.kind.data(), a.kind.size());
  h.update_u64(a.guess_scores.size());
  for (const double s : a.guess_scores) feed(h, s);
  h.update_u64(a.best_guess);
  feed(h, a.best_score);
  feed(h, a.second_score);
  h.update_u64(a.true_key_rank);
  h.update_u64(a.mtd);
}

void feed(qu::Sha256& h, const std::vector<qc::RankPoint>& trajectory) {
  h.update_u64(trajectory.size());
  for (const qc::RankPoint& p : trajectory) {
    h.update_u64(p.traces);
    h.update_u64(p.rank);
  }
}

/// The pinned campaign: des_sbox_slice with its S-box output rails
/// unbalanced (so the key discloses and the MTD scan has a value to
/// pin: CPA discloses at 32 traces; the single-bit DPA scan never
/// settles on this slice, so its MTD stays 0), 192 traces at 3 threads.
qc::Campaign outcome_campaign(bool cpa) {
  qc::Campaign c = qc::Campaign()
                       .target(qc::des_sbox_slice())
                       .key(kKey)
                       .seed(kSeed)
                       .traces(192)
                       .threads(3)
                       .prepare([](qdi::netlist::Netlist& nl) {
                         for (qdi::netlist::ChannelId ch = 0;
                              ch < nl.num_channels(); ++ch) {
                           const qdi::netlist::Channel& c = nl.channel(ch);
                           if (c.name.find("sbox/out") != std::string::npos)
                             nl.net(c.rails[1]).cap_ff *= 1.8;
                         }
                       });
  if (cpa)
    c.attack(qc::Cpa{.compute_mtd = true, .mtd_start = 32, .mtd_step = 32});
  else
    c.attack(qc::Dpa{.compute_mtd = true, .mtd_start = 32, .mtd_step = 32});
  return c;
}

/// How a pinned outcome is produced: run() materialized, fused() with
/// `block` = 0 (serial feed) or fused().sharded_ingest(block), or a
/// 2-shard sharded() run with ingest_block_traces = block.
enum class Driver { Materialized, Fused, Sharded };

struct OutcomeCase {
  bool cpa;
  Driver driver;
  std::size_t block;
  const char* sha256;
};

/// Outcome + rank trajectory of a run() case.
std::string run_digest(const OutcomeCase& c) {
  qc::Campaign campaign = outcome_campaign(c.cpa);
  campaign.rank_trajectory(32);
  if (c.driver == Driver::Fused) campaign.fused(64);
  if (c.block > 0) campaign.sharded_ingest(c.block);
  const qc::CampaignResult res = campaign.run();
  EXPECT_TRUE(res.attack.has_value());
  qu::Sha256 h;
  if (res.attack) feed(h, *res.attack);
  feed(h, res.rank_trajectory);
  return h.hex();
}

/// Outcome, shard-boundary rank trajectory, per-shard stream digests
/// and final checkpoint bytes of a sharded() case.
std::string sharded_digest(const OutcomeCase& c) {
  const std::string dir = "trace_digest_ckpt/" +
                          std::string(c.cpa ? "cpa" : "dpa") + "_" +
                          std::to_string(c.block);
  for (std::size_t s = 0; s < 2; ++s) {
    std::remove(qc::checkpoint_path(dir, s).c_str());
    std::remove(qc::checkpoint_prev_path(dir, s).c_str());
  }
  qc::ShardedOptions opt;
  opt.shards = 2;
  opt.checkpoint_interval = 64;
  opt.chunk_traces = 16;
  opt.ingest_block_traces = c.block;
  opt.checkpoint_dir = dir;
  opt.backoff_ms = 0;
  const qc::ShardedResult res = outcome_campaign(c.cpa).sharded(opt);
  EXPECT_TRUE(res.complete());
  EXPECT_TRUE(res.attack.has_value());
  qu::Sha256 h;
  if (res.attack) feed(h, *res.attack);
  feed(h, res.rank_trajectory);
  h.update_u64(res.shards.size());
  for (const qc::ShardReport& s : res.shards) {
    h.update_u64(s.digest_hex.size());
    h.update(s.digest_hex.data(), s.digest_hex.size());
    std::ifstream in(qc::checkpoint_path(dir, s.shard), std::ios::binary);
    EXPECT_TRUE(in.good()) << qc::checkpoint_path(dir, s.shard);
    const std::vector<std::uint8_t> bytes{std::istreambuf_iterator<char>(in),
                                          std::istreambuf_iterator<char>()};
    feed(h, bytes);
  }
  return h.hex();
}

// Pinned from the campaign drivers as they stood before run() and
// sharded() were made to share one ingest rule; both must still match.
// Materialized and serial fused runs agree by construction.
constexpr OutcomeCase kOutcomeCases[] = {
    {false, Driver::Materialized, 0,
     "438ccfac54591628847416126415fdece773090cdc58c068ebec578dcbc7455c"},
    {false, Driver::Fused, 0,
     "438ccfac54591628847416126415fdece773090cdc58c068ebec578dcbc7455c"},
    {false, Driver::Fused, 32,
     "e3138397e130622f401a8b37aef0c599f4ac17b20c4f3c7ecdeb6d2eeb230439"},
    {false, Driver::Sharded, 0,
     "d7223c909844ae8bad622e87b0f2b96625b36b6871ba8b4ad0093739e3126e89"},
    {false, Driver::Sharded, 32,
     "dcdc4123e03e27f5ca9178f1f9cff294b188773f5df29b33ab8f0aa069210f13"},
    {true, Driver::Materialized, 0,
     "56712dc61f6032d2849b868930c72a74725b7084f701f44862b1c6e98fdbd0a3"},
    {true, Driver::Fused, 0,
     "56712dc61f6032d2849b868930c72a74725b7084f701f44862b1c6e98fdbd0a3"},
    {true, Driver::Fused, 32,
     "eb002b18400b693b1111545ba1ca2ca36a90bbe4abd626db43c0a1b900efdafa"},
    {true, Driver::Sharded, 0,
     "67671bae435060f72ea9ea7a9c88fbd0478471145b6b817cbd68a2ea163b12b6"},
    {true, Driver::Sharded, 32,
     "882681525305205030838509ccc8e526a6f36b38a57fdd0014a546153ad0a3fe"},
};

}  // namespace

TEST(TraceDigests, EveryEngineReproducesThePinnedTraces) {
  for (const DigestCase& c : kCases) {
    const qc::TargetInstance inst = qc::find_target(c.target).build(kKey);
    for (const qs::EngineKind engine :
         {qs::EngineKind::Compiled, qs::EngineKind::Reference,
          qs::EngineKind::Batch}) {
      SCOPED_TRACE(std::string(c.target) + " jitter " +
                   std::to_string(c.jitter_ps) + " " + label(engine));
      EXPECT_EQ(trace_digest(inst, engine, c.jitter_ps), c.sha256);
    }
  }
}

TEST(TraceDigests, FaultSweepReproducesThePinnedRecords) {
  for (const qs::EngineKind engine :
       {qs::EngineKind::Compiled, qs::EngineKind::Reference}) {
    SCOPED_TRACE(label(engine));
    qc::FaultCampaignOptions opt;
    opt.max_sites = 10;
    opt.kinds = {qs::FaultKind::StuckAt0, qs::FaultKind::StuckAt1,
                 qs::FaultKind::Glitch1};
    opt.times_ps = {0.0, 600.0};
    opt.repeats = 3;
    opt.run_dfa = false;
    const qc::CampaignResult run = qc::Campaign()
                                       .target(qc::des_sbox_slice())
                                       .key(kKey)
                                       .seed(99)
                                       .engine(engine)
                                       .threads(1)
                                       .faults(opt)
                                       .run();
    ASSERT_TRUE(run.faults.has_value());
    const qc::FaultCampaignResult& res = *run.faults;
    ASSERT_FALSE(res.records.empty());
    qu::Sha256 h;
    for (const qc::FaultRecord& r : res.records) {
      h.update_u64(r.net);
      h.update_u64(static_cast<std::uint64_t>(r.kind));
      h.update_u64(std::bit_cast<std::uint64_t>(r.t_offset_ps));
      h.update_u64(r.plaintext);
      h.update_u64(r.golden);
      h.update_u64(r.faulty);
      h.update_u64(static_cast<std::uint64_t>(r.cls));
      h.update_u64(static_cast<std::uint64_t>(r.stalled_phase));
    }
    EXPECT_EQ(h.hex(), kFaultRecordsSha256);
  }
}

TEST(TraceDigests, EveryIngestModeReproducesThePinnedOutcomes) {
  for (const OutcomeCase& c : kOutcomeCases) {
    SCOPED_TRACE(testing::Message()
                 << (c.cpa ? "cpa" : "dpa") << " driver "
                 << static_cast<int>(c.driver) << " block " << c.block);
    EXPECT_EQ(c.driver == Driver::Sharded ? sharded_digest(c) : run_digest(c),
              c.sha256);
  }
}
