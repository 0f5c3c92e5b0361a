// Absolute trace digests: one pinned SHA-256 per (target, jitter) case.
//
// The cross-engine suites compare the compiled, reference and batch
// engines with each other, so a rule the three share (handshake timing,
// pulse binning, charge, trace prelude, output packing) could drift in
// all of them at once and still pass. These pins hold the acquisition
// itself fixed: each engine must reproduce the same 64 traces — sample
// bits, window start, plaintext, ciphertext, transition and glitch
// counts — byte for byte. Noise stays 0 (gaussian draws depend on libm).
// The fault sweep's records are pinned the same way.
//
// A deliberate change of the model or of a target moves these digests;
// re-pin them only together with the change that explains why.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "qdi/campaign/batch_trace_source.hpp"
#include "qdi/campaign/campaign.hpp"
#include "qdi/campaign/fault_campaign.hpp"
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
