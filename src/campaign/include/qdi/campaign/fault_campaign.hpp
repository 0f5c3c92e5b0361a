// Fault sweeps — the fault-injection counterpart of the power-analysis
// campaign: sweep (site x kind x time) injections over a prepared
// victim, classify every run, and feed the exploitable differentials to
// DFA. Campaign::faults() runs one on the as-attacked netlist (after
// the flow, prepare and recipe stages), with the campaign's delay model
// and engine; run_fault_campaign() is the core it calls.
//
// The paper's DFA argument (sections V-VI) is that QDI dual-rail logic
// converts faults into *denial of service* instead of faulty
// ciphertexts: a stuck rail starves the completion tree, the four-phase
// handshake stalls, and the attacker collects nothing. The sweep
// measures that claim end to end. Every injection lands in exactly one
// class:
//
//   * Deadlock     — the handshake stalled (or overran its period, or
//                    the faulted netlist oscillated): no usable output.
//   * Masked       — the handshake completed with the correct
//                    ciphertext: the fault was logically absorbed.
//   * Exploitable  — valid-looking but WRONG outputs were emitted: a
//                    (golden, faulty) pair exists and DFA can vote on it.
//
// A fault run is not a power trace, so the sweep does not go through
// the acquisition pipeline: util::parallel_for_slabs splits the runs
// into contiguous slabs, one simulator per worker classifies each run of
// its slab straight into its FaultRecord slot, and the summary, the DFA
// pairs and the DFA vote are tallied in run order afterwards.
// Determinism matches the power campaigns: run i draws its randomness
// from the domain-tagged stream split_stream(seed, i, kFaultDomain)
// (disjoint from acquisition's streams at the same seed), every run
// starts from the post-reset epoch, and classification i is
// bit-identical for any thread count or engine. The first exception a
// run throws (a stimulus, or a fault-free cycle that fails) is rethrown
// once every worker has returned.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "qdi/campaign/target.hpp"
#include "qdi/campaign/trace_source.hpp"
#include "qdi/sim/fault.hpp"
#include "qdi/util/table.hpp"

namespace qdi::campaign {

enum class FaultClass : std::uint8_t {
  Deadlock = 0,
  Masked = 1,
  Exploitable = 2,
};

inline const char* name(FaultClass c) noexcept {
  switch (c) {
    case FaultClass::Deadlock: return "deadlock";
    case FaultClass::Masked: return "masked";
    case FaultClass::Exploitable: return "exploitable";
  }
  return "?";
}

struct FaultCampaignOptions {
  /// Explicit injection sites; empty = every gate-driven net of the
  /// target, optionally narrowed by `site_filters` (substring match on
  /// net names, see sim::fault_sites).
  std::vector<netlist::NetId> sites;
  std::vector<std::string> site_filters;
  /// Deterministic subsample cap on the site list (0 = keep all). The
  /// subsample is drawn from the campaign's domain-tagged stream, so it
  /// is identical for any thread count.
  std::size_t max_sites = 0;
  /// Fault polarities/kinds swept per site.
  std::vector<sim::FaultKind> kinds = {sim::FaultKind::StuckAt0,
                                       sim::FaultKind::StuckAt1};
  /// Injection offsets within the cycle, in ps from the cycle start.
  std::vector<double> times_ps = {0.0};
  /// Random plaintexts per (site, kind, time) combination.
  std::size_t repeats = 4;
  /// Transient width for Glitch0/Glitch1 kinds.
  double glitch_ps = 200.0;
  /// Run dfa_attack over the exploitable pairs (needs the target to
  /// carry a DfaModel).
  bool run_dfa = true;
};

/// One classified injection run.
struct FaultRecord {
  netlist::NetId net = netlist::kNoNet;
  sim::FaultKind kind = sim::FaultKind::StuckAt0;
  double t_offset_ps = 0.0;
  std::uint8_t plaintext = 0;  ///< first plaintext byte of the stimulus
  std::uint8_t golden = 0;     ///< fault-free packed output byte
  std::uint8_t faulty = 0;     ///< faulted packed output byte (Exploitable)
  FaultClass cls = FaultClass::Deadlock;
  /// Where the handshake stalled (Deadlock only; None otherwise).
  sim::HandshakePhase stalled_phase = sim::HandshakePhase::None;
};

/// Per-variant fault-resilience counters — the row Campaign::sweep()
/// adds next to the DPA metrics.
struct FaultSummary {
  std::size_t runs = 0;
  std::size_t deadlock = 0;
  std::size_t masked = 0;
  std::size_t exploitable = 0;

  /// Fraction of injections that yielded DFA material. The paper's
  /// security claim is that this stays 0 on QDI targets.
  double exploitable_rate() const noexcept {
    return runs > 0 ? static_cast<double>(exploitable) /
                          static_cast<double>(runs)
                    : 0.0;
  }
};

struct FaultCampaignResult {
  std::string target;
  std::uint64_t key = 0;
  std::size_t sites = 0;       ///< injection sites after filters/subsample
  std::size_t injections = 0;  ///< sites x kinds x times
  FaultSummary summary;        ///< summary.runs = injections x repeats
  std::vector<FaultRecord> records;  ///< one per run, in run order
  /// The DFA material: (input, golden, faulty) for every exploitable run.
  std::vector<dpa::DfaPair> pairs;
  /// dfa_attack over `pairs` (present when run_dfa, the target has a
  /// DfaModel, and at least one pair was collected).
  std::optional<dpa::DfaResult> dfa;
  unsigned true_guess = 0;  ///< what dfa->rank_of should be called with

  /// One-line-per-class breakdown plus the DFA verdict.
  util::Table table() const;
};

/// The sweep core: sweep + classify + DFA over an already-built (and
/// possibly flow/recipe-processed) instance — what Campaign::faults()
/// runs on its prepared victim. The engine config comes from `sim_opt`:
/// its delay model, its engine (Compiled or Reference; the batch kernel
/// cannot inject forces) and, for the compiled engine, its
/// `precompiled` form, which must match `inst.nl` and the delay model
/// (as for SimTraceSource); its power and jitter fields are unused.
/// Throws std::invalid_argument on a non-simulatable instance, the
/// batch engine, an empty kinds/times list, repeats == 0, or an empty
/// resolved site list.
FaultCampaignResult run_fault_campaign(const TargetInstance& inst,
                                       std::uint64_t key,
                                       const FaultCampaignOptions& opt,
                                       const SimTraceSourceOptions& sim_opt,
                                       std::uint64_t seed, unsigned threads);

}  // namespace qdi::campaign
