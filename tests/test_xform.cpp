// Countermeasure transform pipeline: per-pass golden idempotence,
// pipeline determinism (byte-identical netlists, bit-identical traces on
// every registry target and on both scalar engines), and the paper's
// headline structural result — the cone-balancing pass turning previously
// asymmetric registry channels symmetric, re-checked post-transform.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "qdi/qdi.hpp"

namespace qc = qdi::campaign;
namespace qn = qdi::netlist;
namespace qx = qdi::xform;

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define QDI_SANITIZER_ACTIVE 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define QDI_SANITIZER_ACTIVE 1
#endif
#endif

namespace {

/// Byte-exact serialization of everything a netlist holds — structure,
/// names, hierarchy, channel registry, cap/wirelength annotations, and
/// delay jitter — so "byte-identical netlists" is a string equality.
std::string fingerprint(const qn::Netlist& nl) {
  std::ostringstream os;
  os.precision(17);
  os << nl.name() << '\n';
  for (const qn::Cell& c : nl.cells()) {
    os << "c " << c.name << ' ' << qn::name(c.kind) << ' ' << c.hier << ' '
       << c.output << ' ' << c.delay_jitter_ps;
    for (qn::NetId in : c.inputs) os << ' ' << in;
    os << '\n';
  }
  for (const qn::Net& n : nl.nets()) {
    os << "n " << n.name << ' ' << n.driver << ' ' << n.cap_ff << ' '
       << n.wirelength_um;
    for (const qn::Pin& p : n.sinks) os << ' ' << p.cell << ':' << p.pin;
    os << '\n';
  }
  for (const qn::Channel& ch : nl.channels()) {
    os << "ch " << ch.name << ' ' << ch.ack;
    for (qn::NetId r : ch.rails) os << ' ' << r;
    os << '\n';
  }
  return os.str();
}

std::size_t asymmetric_count(const qn::Netlist& nl) {
  return qn::count_asymmetric_channels(qn::Graph(nl));
}

std::string sha256_hex(const std::string& bytes) {
  return qdi::util::Sha256::hex_of(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(bytes.data()), bytes.size()));
}

/// The cone-balance report fields a pin covers, as one comparable line:
/// the counters plus the SHA-256 of every note joined in order.
std::string report_pin(const qx::PassReport& rep) {
  std::string notes;
  for (const std::string& note : rep.notes) notes += note + '\n';
  std::ostringstream os;
  os << rep.cells_added << ' ' << rep.nets_added << ' '
     << rep.channels_touched << ' ' << rep.channels_skipped << ' '
     << sha256_hex(notes);
  return os.str();
}

}  // namespace

// ---- pass unit behaviour ---------------------------------------------------

TEST(CapEqualize, EqualizesChannelsAndReportsCost) {
  qc::TargetInstance inst = qc::des_sbox_slice().build(0x2b);
  for (qn::ChannelId ch = 0; ch < inst.nl.num_channels(); ++ch)
    inst.nl.net(inst.nl.channel(ch).rails[1]).cap_ff *= 1.8;

  const qx::CapEqualizePass pass;
  const qx::PassReport rep = pass.run(inst.nl);
  EXPECT_TRUE(rep.changed);
  EXPECT_GT(rep.channels_touched, 0u);
  EXPECT_GT(rep.cap_added_ff, 0.0);
  EXPECT_GT(rep.metric_before, 0.0);
  EXPECT_DOUBLE_EQ(rep.metric_after, 0.0);
  for (const qn::Channel& ch : inst.nl.channels()) {
    const double c0 = inst.nl.net(ch.rails[0]).cap_ff;
    for (qn::NetId r : ch.rails)
      EXPECT_DOUBLE_EQ(inst.nl.net(r).cap_ff, c0);
  }
}

TEST(CapEqualize, ToleranceBoundsResidualDissymmetry) {
  qc::TargetInstance inst = qc::des_sbox_slice().build(0x2b);
  for (qn::ChannelId ch = 0; ch < inst.nl.num_channels(); ++ch)
    inst.nl.net(inst.nl.channel(ch).rails[0]).cap_ff *= 2.5;

  const qx::CapEqualizePass pass({.tolerance_da = 0.10});
  const qx::PassReport rep = pass.run(inst.nl);
  EXPECT_LE(rep.metric_after, 0.10 + 1e-12);
  EXPECT_GT(rep.metric_after, 0.0);  // tolerance means it stops short
}

TEST(CapEqualize, TwoRailChannelMeetsToleranceExactly) {
  qn::Netlist nl("r");
  const qn::NetId a0 = nl.add_input("a_0");
  const qn::NetId a1 = nl.add_input("a_1");
  nl.net(a0).cap_ff = 10.0;
  nl.net(a1).cap_ff = 30.0;
  nl.add_channel("a", {a0, a1});
  const qx::PassReport rep = qx::CapEqualizePass({.tolerance_da = 0.2}).run(nl);
  EXPECT_EQ(rep.channels_touched, 1u);
  EXPECT_NEAR(rep.cap_added_ff, 30.0 / 1.2 - 10.0, 1e-9);
  EXPECT_NEAR(qdi::core::dissymmetry(nl.net(a0).cap_ff, nl.net(a1).cap_ff),
              0.2, 1e-9);
}

TEST(CapEqualize, NoOpOnBalancedChannels) {
  qn::Netlist nl("r");
  const qn::NetId a0 = nl.add_input("a_0");
  const qn::NetId a1 = nl.add_input("a_1");
  nl.add_channel("a", {a0, a1});
  const qx::PassReport rep = qx::CapEqualizePass({.tolerance_da = 0.1}).run(nl);
  EXPECT_EQ(rep.channels_touched, 0u);
  EXPECT_DOUBLE_EQ(rep.cap_added_ff, 0.0);
}

TEST(CapEqualize, OneOfFourChannelMeetsTolerance) {
  qn::Netlist nl("q");
  std::vector<qn::NetId> rails;
  for (int i = 0; i < 4; ++i)
    rails.push_back(nl.add_input("q_" + std::to_string(i)));
  nl.net(rails[0]).cap_ff = 8.0;
  nl.net(rails[1]).cap_ff = 9.0;
  nl.net(rails[2]).cap_ff = 10.0;
  nl.net(rails[3]).cap_ff = 20.0;
  nl.add_channel("q", rails);
  qx::CapEqualizePass({.tolerance_da = 0.1}).run(nl);
  const auto crit = qdi::core::evaluate_criterion(nl);
  EXPECT_LE(qdi::core::max_dA(crit), 0.1 + 1e-9);
}

TEST(CapEqualize, OverlappingChannelsConvergeToAFixpoint) {
  // Channels sharing rails: padding B's shared rail must not leave A
  // violating the tolerance, and the pass must stay idempotent.
  qn::Netlist nl("overlap");
  const qn::NetId r1 = nl.add_input("r1");
  const qn::NetId r2 = nl.add_input("r2");
  const qn::NetId r3 = nl.add_input("r3");
  nl.net(r1).cap_ff = 1.0;
  nl.net(r2).cap_ff = 2.0;
  nl.net(r3).cap_ff = 3.0;
  nl.add_channel("A", {r1, r2});
  nl.add_channel("B", {r2, r3});

  const qx::CapEqualizePass pass;
  const qx::PassReport first = pass.run(nl);
  EXPECT_TRUE(first.changed);
  EXPECT_DOUBLE_EQ(first.metric_after, 0.0);
  EXPECT_DOUBLE_EQ(nl.net(r1).cap_ff, 3.0);
  EXPECT_DOUBLE_EQ(nl.net(r2).cap_ff, 3.0);
  EXPECT_DOUBLE_EQ(nl.net(r3).cap_ff, 3.0);
  const qx::PassReport second = pass.run(nl);
  EXPECT_FALSE(second.changed);
  EXPECT_DOUBLE_EQ(second.cap_added_ff, 0.0);
}

TEST(RandomDelay, SeededJitterIsReproducibleAndBounded) {
  qc::TargetInstance a = qc::des_sbox_slice().build(0x2b);
  qc::TargetInstance b = qc::des_sbox_slice().build(0x2b);

  const qx::RandomDelayPass pass({.seed = 7, .max_jitter_ps = 25.0});
  pass.run(a.nl);
  pass.run(b.nl);
  EXPECT_EQ(fingerprint(a.nl), fingerprint(b.nl));
  bool any = false;
  for (qn::CellId c = 0; c < a.nl.num_cells(); ++c) {
    const double j = a.nl.cell(c).delay_jitter_ps;
    EXPECT_GE(j, 0.0);
    EXPECT_LT(j, 25.0);
    any |= j > 0.0;
  }
  EXPECT_TRUE(any);

  // A different seed draws a different jitter assignment.
  qc::TargetInstance c = qc::des_sbox_slice().build(0x2b);
  qx::RandomDelayPass{{.seed = 8, .max_jitter_ps = 25.0}}.run(c.nl);
  EXPECT_NE(fingerprint(a.nl), fingerprint(c.nl));
}

TEST(RandomDelay, NonPositiveBoundNeverProducesNegativeJitter) {
  // Cell::delay_jitter_ps must stay >= 0 (time-wheel geometry): a
  // negative bound degenerates to zero jitter instead of negatives.
  qc::TargetInstance inst = qc::des_sbox_slice().build(0x2b);
  qx::RandomDelayPass{{.seed = 1, .max_jitter_ps = -50.0}}.run(inst.nl);
  for (qn::CellId c = 0; c < inst.nl.num_cells(); ++c)
    ASSERT_GE(inst.nl.cell(c).delay_jitter_ps, 0.0);
}

// ---- the acceptance result: cone balancing flips registry channels --------

TEST(ConeBalance, FlipsAsymmetricRegistryChannelsSymmetric) {
  qc::TargetInstance inst = qc::des_sbox_slice().build(0x2b);
  const qn::Graph before_g(inst.nl);
  const auto before = qn::check_all_channels(before_g);
  std::size_t asym_before = 0;
  for (const auto& rep : before) asym_before += rep.symmetric ? 0 : 1;
  ASSERT_GT(asym_before, 0u) << "the raw slice must expose asymmetry";

  const qx::ConeBalancePass pass;
  const qx::PassReport rep = pass.run(inst.nl);
  EXPECT_TRUE(rep.changed);
  EXPECT_GT(rep.cells_added, 0u);
  EXPECT_EQ(rep.cells_added, rep.nets_added);
  EXPECT_EQ(rep.metric_before, static_cast<double>(asym_before));
  EXPECT_LT(rep.metric_after, rep.metric_before);

  // Re-check post-transform with the symmetry checker itself: at least
  // one previously asymmetric channel must now report symmetric.
  const qn::Graph after_g(inst.nl);
  const auto after = qn::check_all_channels(after_g);
  ASSERT_EQ(after.size(), before.size());
  std::size_t flipped = 0;
  for (std::size_t i = 0; i < before.size(); ++i)
    if (!before[i].symmetric && after[i].symmetric) ++flipped;
  EXPECT_GT(flipped, 0u);
  for (std::size_t i = 0; i < before.size(); ++i)
    EXPECT_FALSE(before[i].symmetric && !after[i].symmetric)
        << "balancing must never break a symmetric channel (channel "
        << after[i].channel << ")";

  // The transform is structural-identity: the netlist stays well-formed.
  EXPECT_TRUE(inst.nl.check().empty());
}

TEST(ConeBalance, PreservesFunction) {
  // The balanced slice must still compute SBOX1(p ^ k): attack-free
  // campaigns on the raw and balanced netlists see identical ciphertexts.
  const qc::CampaignResult raw = qc::Campaign()
                                     .target(qc::des_sbox_slice())
                                     .key(0x17)
                                     .seed(99)
                                     .traces(16)
                                     .run();
  const qc::CampaignResult balanced =
      qc::Campaign()
          .target(qc::des_sbox_slice())
          .key(0x17)
          .seed(99)
          .traces(16)
          .prepare([](qn::Netlist& nl) { qx::ConeBalancePass{}.run(nl); })
          .run();
  ASSERT_EQ(raw.traces.size(), balanced.traces.size());
  for (std::size_t i = 0; i < raw.traces.size(); ++i) {
    ASSERT_EQ(raw.traces.plaintext(i)[0], balanced.traces.plaintext(i)[0]);
    EXPECT_EQ(raw.traces.ciphertext(i)[0], balanced.traces.ciphertext(i)[0]);
  }
}

TEST(ConeBalance, ReportsAMissedFixpoint) {
  // aes_byte_slice needs more than the default 8 rounds to converge: the
  // capped run must say so in a pass-level note that is not a skipped
  // channel; a run with enough rounds reaches the fixpoint and does not.
  const auto fixpoint_notes = [](const qx::PassReport& rep) {
    std::size_t n = 0;
    for (const std::string& note : rep.notes)
      n += note.find("fixpoint not reached") != std::string::npos ? 1 : 0;
    return n;
  };
  qc::TargetInstance capped = qc::aes_byte_slice().build(0x2b);
  const qx::PassReport rc = qx::ConeBalancePass{{.verify = false}}.run(capped.nl);
  EXPECT_EQ(fixpoint_notes(rc), 1u);
  EXPECT_EQ(rc.channels_skipped + 1, rc.notes.size());

  qc::TargetInstance full = qc::aes_byte_slice().build(0x2b);
  const qx::PassReport rf =
      qx::ConeBalancePass{{.max_rounds = 16, .verify = false}}.run(full.nl);
  EXPECT_EQ(fixpoint_notes(rf), 0u);
  EXPECT_EQ(rf.channels_skipped, rf.notes.size());
  EXPECT_GT(rf.cells_added, rc.cells_added);
  // At the fixpoint another run adds nothing.
  const qx::ConeBalancePass again({.max_rounds = 16, .verify = false});
  EXPECT_EQ(again.run(full.nl).cells_added, 0u);
}

// ---- golden idempotence ----------------------------------------------------

TEST(XformGolden, EveryPassIsIdempotent) {
  const std::vector<std::shared_ptr<const qx::Pass>> passes = {
      std::make_shared<qx::ConeBalancePass>(),
      std::make_shared<qx::CapEqualizePass>(),
      std::make_shared<qx::RandomDelayPass>(
          qx::RandomDelayOptions{.seed = 3, .max_jitter_ps = 30.0}),
  };
  for (const auto& pass : passes) {
    qc::TargetInstance inst = qc::des_sbox_slice().build(0x2b);
    const qx::PassReport first = pass->run(inst.nl);
    const std::string golden = fingerprint(inst.nl);
    const qx::PassReport second = pass->run(inst.nl);
    EXPECT_FALSE(second.changed) << pass->name();
    EXPECT_EQ(second.cells_added, 0u) << pass->name();
    EXPECT_EQ(second.cap_added_ff, 0.0) << pass->name();
    EXPECT_EQ(golden, fingerprint(inst.nl))
        << pass->name() << " must be idempotent (first run changed="
        << first.changed << ")";
  }
}

// ---- golden cone-balance output on every registry target -------------------

TEST(XformGolden, ConeBalanceFingerprintsArePinned) {
  // SHA-256 of fingerprint() after an 8-round (the default) cone-balance
  // pass with verify off: any change to which cells are cloned, their
  // names, or the order of pins in sink and input lists moves a digest.
  // aes_core runs a single round to stay in seconds.
  const std::map<std::string, std::string> golden = {
      {"aes_byte_slice",
       "e57f521b6affb2eec172c07daf07ef71cf49f33ee5789997e032f0c006a011eb"},
      {"des_sbox_slice",
       "d74beade33130df1a0bd39c8981c858274f91133bc40d737e2a343877eaaeab1"},
      {"des_sbox_sync",
       "51c65b05f16b5bbeadf47416308bc55fc3eea858fcf3fb93985024f2f33d292b"},
      {"xor_stage",
       "53910b447682f010f6746ed5596816eca9953d9277d19ffb7fb708d87c413acf"},
      {"des_round",
       "7920904a5a032884eca4d785b7a2de0a3e4c66a646ff7e86edb8aa5a853dc128"},
      {"dual_rail_pair",
       "f5f039ed33cac06330b7ff20c7c28b9369f1401e6a7ed9d056bfc8ce749d864e"},
      {"one_of_four",
       "9816d2024977decfc94f50e4bc5f2dcd1dcd82d3d2883541496b179518a8af17"},
      {"aes_core",
       "6d05e3d61bddbec43cced3c82fbaa879c1ec621cd8521aeed2209fee808db119"},
  };
  for (const std::string& name : qc::list_targets()) {
#ifdef QDI_SANITIZER_ACTIVE
    if (name == "aes_core") continue;  // minutes-long cone scans
#endif
    const auto it = golden.find(name);
    ASSERT_NE(it, golden.end()) << "no golden digest for target " << name;
    qc::TargetInstance inst = qc::find_target(name).build(0x2b);
    qx::ConeBalancePass{{.max_rounds = name == "aes_core" ? 1 : 8,
                         .verify = false}}
        .run(inst.nl);
    const std::string fp = fingerprint(inst.nl);
    EXPECT_EQ(it->second,
              qdi::util::Sha256::hex_of(std::span<const std::uint8_t>(
                  reinterpret_cast<const std::uint8_t*>(fp.data()),
                  fp.size())))
        << name;
  }
}

TEST(XformGolden, ConeBalanceFixpointFingerprintsArePinned) {
  // The multi-round path: 32 rounds take both targets to the pass's
  // fixpoint, so every round after the first (the footprint worklist
  // over a flat graph patched clone by clone) shapes these digests.
  struct Case {
    const char* target;
    std::size_t clones;
    const char* digest;
  };
  const Case cases[] = {
      {"aes_byte_slice", 777,
       "913ec0225b1a7f3f292d593fd2bbde0c7a60d90d72c1e748dbc4279e6d4c0fc4"},
      {"des_round", 217,
       "7920904a5a032884eca4d785b7a2de0a3e4c66a646ff7e86edb8aa5a853dc128"},
  };
  for (const Case& c : cases) {
    qc::TargetInstance inst = qc::find_target(c.target).build(0x2b);
    const qx::PassReport rep =
        qx::ConeBalancePass{{.max_rounds = 32, .verify = false}}.run(inst.nl);
    EXPECT_EQ(rep.cells_added, c.clones) << c.target;
    for (const std::string& note : rep.notes)
      EXPECT_EQ(note.find("fixpoint not reached"), std::string::npos)
          << c.target << ": " << note;
    const std::string fp = fingerprint(inst.nl);
    EXPECT_EQ(c.digest,
              qdi::util::Sha256::hex_of(std::span<const std::uint8_t>(
                  reinterpret_cast<const std::uint8_t*>(fp.data()),
                  fp.size())))
        << c.target;
  }
}

TEST(XformGolden, ConeBalanceReportsArePinned) {
  // The whole PassReport of the runs pinned above: clone and net counts,
  // touched and skipped channels, and the SHA-256 of the notes joined in
  // order ("cells nets touched skipped notes-digest"). A worklist that
  // drifts can move a skip note without moving the netlist.
  const std::map<std::string, std::string> golden = {
      {"aes_byte_slice",
       "736 736 22 48 "
       "c9e776564604a3b3e82064cbbf3515dd2bdfa92858dc33fce32bed6c82cec7e6"},
      {"des_sbox_slice",
       "68 68 12 11 "
       "de2e317fe95872f5e8907f558ab37e9a07792c2d69d9add7680ee0cc5c754895"},
      {"des_sbox_sync",
       "0 0 0 4 "
       "1cc30dc3080c9701a7e1baf27f169b1bdb6b2f9f7ea731f209a1e3cc0165719f"},
      {"xor_stage",
       "0 0 0 0 "
       "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"},
      {"des_round",
       "217 217 69 103 "
       "6d8ae20360c4ff54ee47ac52bb2bb657eeb4141325e3224761f24d4300e3af20"},
      {"dual_rail_pair",
       "0 0 0 0 "
       "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"},
      {"one_of_four",
       "0 0 0 0 "
       "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"},
      {"aes_core",
       "2032 2032 292 460 "
       "81657d9b2d917fe6dc5c9704221cd05afa3c389a04107f37ca7920bdfbf6abf3"},
  };
  for (const std::string& name : qc::list_targets()) {
#ifdef QDI_SANITIZER_ACTIVE
    if (name == "aes_core") continue;  // minutes-long cone scans
#endif
    const auto it = golden.find(name);
    ASSERT_NE(it, golden.end()) << "no golden report for target " << name;
    qc::TargetInstance inst = qc::find_target(name).build(0x2b);
    const qx::PassReport rep =
        qx::ConeBalancePass{{.max_rounds = name == "aes_core" ? 1 : 8,
                             .verify = false}}
            .run(inst.nl);
    EXPECT_EQ(it->second, report_pin(rep)) << name;
  }
  // The two 32-round fixpoint runs.
  const std::map<std::string, std::string> fixpoint = {
      {"aes_byte_slice",
       "777 777 22 48 "
       "fe632238740d2a3565f5101aa7ec68790d8e76307913fa26ed61e129798a3712"},
      {"des_round",
       "217 217 69 103 "
       "6d8ae20360c4ff54ee47ac52bb2bb657eeb4141325e3224761f24d4300e3af20"},
  };
  for (const auto& [name, pin] : fixpoint) {
    qc::TargetInstance inst = qc::find_target(name).build(0x2b);
    const qx::PassReport rep =
        qx::ConeBalancePass{{.max_rounds = 32, .verify = false}}.run(inst.nl);
    EXPECT_EQ(pin, report_pin(rep)) << name << " at 32 rounds";
  }
}

TEST(XformGolden, ConeBalanceRoundDigestsArePinned) {
  // One netlist digest per round boundary: rounds 2-4 revisit channels
  // whose footprint an earlier round dirtied, so each cap here pins a
  // different set of revisits.
  struct Case {
    const char* target;
    int rounds;
    const char* digest;
  };
  const Case cases[] = {
      {"aes_byte_slice", 1,
       "340e4574afd12dd6775891ffaa763451126375fa98c7db2d6ee5dce47c6ff6a5"},
      {"aes_byte_slice", 2,
       "50cb3075f6c8fd89d4d80b2bbc667c1207234aee325057855563e7f8c31dc4a1"},
      {"aes_byte_slice", 3,
       "5a311a925e25fc31451cebb66181cca6d809a502faa1de55c97e3362fc0f296e"},
      {"aes_byte_slice", 4,
       "c047591da7dd66924c810205e684b5989d35e2535be871139d12e54946b04bc8"},
      {"des_round", 1,
       "aa0dd4ca31a9a219413df394eb8c1c1db7dced8e31f676e2546eda6997d27b48"},
      {"des_round", 2,
       "d491831c9031ee3286d434ce7664ee739765cd1ea4f56d965c97be916a292b9c"},
      {"des_round", 3,
       "4d2981d77b15647fbfa6699495536445d6324f25443c7684093f2757da9c8ee6"},
      {"des_round", 4,
       "682cc351313243848cadebe2075f5c5b276b2e74358090120656c5c1720c8897"},
  };
  for (const Case& c : cases) {
    qc::TargetInstance inst = qc::find_target(c.target).build(0x2b);
    qx::ConeBalancePass{{.max_rounds = c.rounds, .verify = false}}.run(
        inst.nl);
    EXPECT_EQ(c.digest, sha256_hex(fingerprint(inst.nl)))
        << c.target << " at max_rounds " << c.rounds;
  }
}

// ---- pipeline determinism on every registry target -------------------------

TEST(XformDeterminism, PipelineIsByteIdenticalOnEveryRegistryTarget) {
  for (const std::string& name : qc::list_targets()) {
#ifdef QDI_SANITIZER_ACTIVE
    // aes_core's tens of thousands of cells make the cone-balance scans
    // minutes-long under sanitizers; the structural determinism it
    // would exercise is identical to des_round's.
    if (name == "aes_core") continue;
#endif
    const qc::CircuitTarget target = qc::find_target(name);
    // One balancing round bounds the aes_core case to seconds; the
    // determinism property does not depend on convergence depth.
    const qx::Recipe recipe = qx::hardened(
        {.max_rounds = name == "aes_core" ? 1 : 4, .verify = false}, {},
        {.seed = 11, .max_jitter_ps = 20.0});

    qc::TargetInstance a = target.build(0x2b);
    qc::TargetInstance b = target.build(0x2b);
    const qx::PipelineReport ra = recipe.pipeline.run(a.nl);
    const qx::PipelineReport rb = recipe.pipeline.run(b.nl);
    EXPECT_EQ(fingerprint(a.nl), fingerprint(b.nl)) << name;
    ASSERT_EQ(ra.passes.size(), rb.passes.size()) << name;
    for (std::size_t i = 0; i < ra.passes.size(); ++i)
      EXPECT_EQ(ra.passes[i].cells_added, rb.passes[i].cells_added) << name;
    EXPECT_TRUE(a.nl.check().empty()) << name;
  }
}

TEST(XformDeterminism, ConeBalanceParallelMatchesSerialAtAnyThreadCount) {
  // The pass's own contract: the netlist and report are identical at
  // every thread count, on every registry target. The balancing itself
  // is serial; `threads` drives the verify scans, covered below.
  for (const std::string& name : qc::list_targets()) {
#ifdef QDI_SANITIZER_ACTIVE
    if (name == "aes_core") continue;  // minutes-long cone scans
#endif
    const qc::CircuitTarget target = qc::find_target(name);
    // One round bounds aes_core to seconds; thread-count invariance does
    // not depend on convergence depth.
    const int rounds = name == "aes_core" ? 1 : 4;

    qc::TargetInstance ref = target.build(0x2b);
    const qx::PassReport rs =
        qx::ConeBalancePass{{.max_rounds = rounds, .verify = false,
                             .threads = 1}}
            .run(ref.nl);
    const std::string golden = fingerprint(ref.nl);

    for (const unsigned threads : {2u, 4u}) {
      qc::TargetInstance par = target.build(0x2b);
      const qx::PassReport rp =
          qx::ConeBalancePass{{.max_rounds = rounds, .verify = false,
                               .threads = threads}}
              .run(par.nl);
      EXPECT_EQ(golden, fingerprint(par.nl))
          << name << " threads=" << threads;
      EXPECT_EQ(rs.cells_added, rp.cells_added) << name;
      EXPECT_EQ(rs.channels_touched, rp.channels_touched) << name;
      EXPECT_EQ(rs.channels_skipped, rp.channels_skipped) << name;
    }

    // The threaded verify scans (netlist::count_asymmetric_channels)
    // must count the same channels at every thread count. aes_core stops
    // at the structure: its two full symmetry scans would add seconds
    // per thread count.
    if (name == "aes_core") continue;
    qc::TargetInstance vref = target.build(0x2b);
    const qx::PassReport vs =
        qx::ConeBalancePass{{.max_rounds = rounds, .threads = 1}}.run(vref.nl);
    ASSERT_TRUE(vs.verified) << name;
    EXPECT_EQ(golden, fingerprint(vref.nl)) << name;
    for (const unsigned threads : {2u, 4u}) {
      qc::TargetInstance vpar = target.build(0x2b);
      const qx::PassReport vp =
          qx::ConeBalancePass{{.max_rounds = rounds, .threads = threads}}.run(
              vpar.nl);
      EXPECT_TRUE(vp.verified) << name;
      EXPECT_EQ(vs.metric_before, vp.metric_before)
          << name << " threads=" << threads;
      EXPECT_EQ(vs.metric_after, vp.metric_after)
          << name << " threads=" << threads;
      EXPECT_EQ(golden, fingerprint(vpar.nl)) << name;
    }
  }
}

TEST(XformDeterminism, TransformedTracesAreBitIdenticalAcrossRuns) {
  for (const std::string& name : qc::list_targets()) {
#ifdef QDI_SANITIZER_ACTIVE
    if (name == "aes_core") continue;  // minutes-long cone scans
#endif
    const qc::CircuitTarget base = qc::find_target(name);
    const qc::TargetInstance probe = base.build(0x2b);
    if (!probe.simulatable) continue;
    // One balancing round bounds the aes_core case to seconds (the
    // repeat-run determinism under test is round-count independent).
    const int rounds = name == "aes_core" ? 1 : 4;
    auto run = [&] {
      return qc::Campaign()
          .target(base)
          .key(0x2b)
          .seed(41)
          .traces(3)
          .recipe(qx::hardened({.max_rounds = rounds, .verify = false}, {},
                               {.seed = 11, .max_jitter_ps = 20.0}))
          .run();
    };
    const qc::CampaignResult r1 = run();
    const qc::CampaignResult r2 = run();
    ASSERT_EQ(r1.traces.size(), r2.traces.size()) << name;
    for (std::size_t i = 0; i < r1.traces.size(); ++i) {
      const auto s1 = r1.traces.trace(i).samples();
      const auto s2 = r2.traces.trace(i).samples();
      ASSERT_EQ(s1.size(), s2.size()) << name;
      for (std::size_t j = 0; j < s1.size(); ++j)
        ASSERT_EQ(s1[j], s2[j]) << name << " trace " << i << " sample " << j;
    }
    EXPECT_EQ(fingerprint(r1.nl), fingerprint(r2.nl)) << name;
  }
}

TEST(XformDeterminism, ReferenceAgreesWithCompiledOnTransformedNetlists) {
  // Reference/compiled equivalence must survive jittered per-cell delays
  // (jitter feeds the wheel's bucket geometry through min/max delay).
  auto run = [&](qdi::sim::EngineKind engine) {
    return qc::Campaign()
        .target(qc::des_sbox_slice())
        .key(0x2b)
        .seed(17)
        .traces(4)
        .engine(engine)
        .recipe(qx::jittered({.seed = 5, .max_jitter_ps = 35.0}))
        .run();
  };
  const qc::CampaignResult ref = run(qdi::sim::EngineKind::Reference);
  const qc::CampaignResult compiled = run(qdi::sim::EngineKind::Compiled);
  ASSERT_EQ(ref.traces.size(), compiled.traces.size());
  for (std::size_t i = 0; i < ref.traces.size(); ++i) {
    const auto sr = ref.traces.trace(i).samples();
    const auto sc = compiled.traces.trace(i).samples();
    ASSERT_EQ(sr.size(), sc.size());
    for (std::size_t j = 0; j < sr.size(); ++j) ASSERT_EQ(sr[j], sc[j]);
  }
}

// ---- recipe() variant through the normal compile path ---------------------

TEST(RecipeVariant, BuildsVariantThroughNormalCompilePath) {
  const qc::CampaignResult r = qc::Campaign()
                                   .target(qc::des_sbox_slice())
                                   .key(0x2b)
                                   .seed(3)
                                   .traces(4)
                                   .recipe(qx::balanced())
                                   .run();
  EXPECT_EQ(r.traces.size(), 4u);
  EXPECT_EQ(r.recipe, "balanced");
  ASSERT_TRUE(r.xform.has_value());
  EXPECT_GT(r.xform->cells_added(), 0u);
  // The balanced variant computes the same function as the base target.
  const qc::CampaignResult raw =
      qc::Campaign().target(qc::des_sbox_slice()).key(0x2b).seed(3).traces(4).run();
  for (std::size_t i = 0; i < r.traces.size(); ++i) {
    EXPECT_EQ(r.traces.plaintext(i)[0], raw.traces.plaintext(i)[0]);
    EXPECT_EQ(r.traces.ciphertext(i)[0], raw.traces.ciphertext(i)[0]);
  }
}
