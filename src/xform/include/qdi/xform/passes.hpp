// The paper-grounded countermeasure passes (section II's balanced
// dual-rail logic + section VI's capacitance control, plus the classic
// temporal countermeasure the conclusion points to):
//
//   * ConeBalancePass   — logical symmetry: make both rails of every
//                         channel structurally isomorphic,
//   * CapEqualizePass   — electrical symmetry: equalize the rail load
//                         capacitances (the dA criterion's numerator),
//   * RandomDelayPass   — temporal decorrelation: per-cell delay jitter.
#pragma once

#include <cstdint>

#include "qdi/xform/pass.hpp"

namespace qdi::xform {

// ---- cone balancing --------------------------------------------------------

struct ConeBalanceOptions {
  /// Whole-netlist sweeps until no channel changes (fixes the coupling
  /// between channels that share logic, e.g. the per-layer group
  /// channels of an S-Box merge tree). When the last allowed round still
  /// adds clones, the report carries a "fixpoint not reached" note.
  int max_rounds = 8;
  /// Per-channel safety valve on inserted duplicate cells.
  std::size_t max_clones_per_channel = 512;
  /// Re-verify every touched channel against netlist::check_rail_symmetry
  /// after the transform and count the asymmetric channels before/after
  /// (metric_before / metric_after). Costs one full symmetry scan.
  bool verify = true;
  /// Worker threads for the two verify scans
  /// (netlist::count_asymmetric_channels); 0 = one per hardware thread.
  /// The balancing itself is one serial sweep per round, so the netlist
  /// does not depend on this value.
  unsigned threads = 0;
};

/// Equalizes the per-level gate-kind histograms of every channel's rail
/// fanin cones by *unsharing*: where one rail's cone has fewer distinct
/// cells of some kind at some level because logic is shared more
/// aggressively on its side, the pass clones such a shared cell (same
/// kind, same inputs — an identity transform) and rewires one in-cone
/// sink to the clone. Function is preserved exactly; the registry
/// channels' residual asymmetry class (isomorphic signatures, unequal
/// distinct-ancestor counts) becomes fully symmetric. Channels whose
/// asymmetry is not fixable this way (differing primary-input support,
/// non-isomorphic signatures, no valid clone site) are reported as
/// skipped and left untouched. Idempotent: a balanced channel yields no
/// further clones.
class ConeBalancePass final : public Pass {
 public:
  explicit ConeBalancePass(ConeBalanceOptions opt = {}) : opt_(opt) {}

  std::string name() const override { return "cone-balance"; }
  PassReport run(netlist::Netlist& nl) const override;

 private:
  ConeBalanceOptions opt_;
};

// ---- capacitance equalization ----------------------------------------------

struct CapEqualizeOptions {
  /// Pad the lighter rails of each channel until the channel's worst
  /// pairwise dissymmetry dA = |C0 − C1| / min(C0, C1) is at most this.
  /// 0 equalizes exactly.
  double tolerance_da = 0.0;
};

/// Pulls every channel's rail loads toward the heaviest rail (post-
/// extraction trimming / dummy-metal fill): each rail below
/// C_max / (1 + tolerance) is padded up to that floor, which bounds
/// every pairwise dA of the channel by the tolerance. Updates the
/// netlist cap annotations, i.e. exactly the dense cap table the
/// compiled netlist consumes on the next sim::compile(). Metric:
/// max dA over all channels before/after. Idempotent.
class CapEqualizePass final : public Pass {
 public:
  explicit CapEqualizePass(CapEqualizeOptions opt = {}) : opt_(opt) {}

  std::string name() const override { return "cap-equalize"; }
  PassReport run(netlist::Netlist& nl) const override;
  bool preserves_structure() const override { return true; }  // caps only

 private:
  CapEqualizeOptions opt_;
};

// ---- random delay insertion ------------------------------------------------

struct RandomDelayOptions {
  std::uint64_t seed = 1;
  /// Per-cell jitter is uniform in [0, max_jitter_ps).
  double max_jitter_ps = 40.0;
};

/// Sets every real gate's delay_jitter_ps to a draw from the cell's own
/// util::split_stream(seed, cell_id) stream — bit-reproducible per seed,
/// independent of pass order and of how many cells other passes added
/// before it ran. Overwrites (never accumulates), so the pass is
/// idempotent. Metric: mean jitter before/after.
class RandomDelayPass final : public Pass {
 public:
  explicit RandomDelayPass(RandomDelayOptions opt = {}) : opt_(opt) {}

  std::string name() const override { return "random-delay"; }
  PassReport run(netlist::Netlist& nl) const override;
  bool preserves_structure() const override { return true; }  // delays only

 private:
  RandomDelayOptions opt_;
};

// ---- standard recipes ------------------------------------------------------

/// Baseline: empty pipeline (the attack target exactly as built).
Recipe unprotected();

/// The paper's countermeasure: cone balancing then capacitance
/// equalization.
Recipe balanced(ConeBalanceOptions cone = {}, CapEqualizeOptions cap = {});

/// balanced() plus random delay insertion.
Recipe hardened(ConeBalanceOptions cone = {}, CapEqualizeOptions cap = {},
                RandomDelayOptions delay = {});

/// Random delay insertion alone (the temporal countermeasure ablation).
Recipe jittered(RandomDelayOptions delay = {});

}  // namespace qdi::xform
