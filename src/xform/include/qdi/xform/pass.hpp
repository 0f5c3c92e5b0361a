// qdi::xform — deterministic netlist-to-netlist transform pipeline.
//
// The paper does not stop at *detecting* DPA leakage on QDI circuits; it
// removes it by rebalancing the dual-rail data path (logical symmetry of
// the rail cones, then equalization of the rail capacitances). This
// module is that countermeasure step as a compiler-style pass manager:
// each Pass mutates a netlist::Netlist in place and returns a structured
// report; a Pipeline runs an ordered list of passes; a Recipe names a
// pipeline so campaign-level sweeps can compare countermeasure variants
// ("unprotected" vs "balanced" vs "hardened") by name.
//
// Determinism contract: a pass's output depends only on (input netlist,
// pass options). All randomness is drawn through util::split_stream from
// an explicit seed, all iteration is in id order, and every pass is
// idempotent — running it twice from the same options yields a
// byte-identical netlist the second time (asserted per pass in
// tests/test_xform.cpp). Transformed netlists compile through the
// existing sim::compile() path unchanged.
#pragma once

#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "qdi/netlist/netlist.hpp"
#include "qdi/util/table.hpp"

namespace qdi::xform {

/// What one pass did to one netlist.
struct PassReport {
  std::string pass;
  bool changed = false;
  std::size_t cells_added = 0;
  std::size_t nets_added = 0;
  /// Channels the pass modified / declined. A declined channel keeps a
  /// note in `notes`; a channel can count in both when the pass changed
  /// it but could not finish (clone budget exhausted, no further valid
  /// site). `notes` may also hold pass-level notes that name no channel
  /// (e.g. a missed fixpoint).
  std::size_t channels_touched = 0;
  std::size_t channels_skipped = 0;
  /// Added silicon cost where the pass pads capacitances.
  double cap_added_ff = 0.0;
  /// Pass-specific headline metric before/after (documented per pass:
  /// asymmetric-channel count for cone balancing, max dA for cap
  /// equalization, mean jitter for random delay). `verified` marks
  /// metrics computed by a full re-verification scan (ConeBalancePass
  /// with verify=true) — consumers may reuse them instead of rescanning.
  double metric_before = 0.0;
  double metric_after = 0.0;
  bool verified = false;
  /// Stamped by Pipeline::run from Pass::preserves_structure() — lets
  /// report consumers reason about which passes could have changed the
  /// netlist's connectivity.
  bool structure_preserving = false;
  /// Wall-clock time of this pass's run() — stamped by Pipeline::run
  /// (0.0 for a bare Pass::run call), so recipe reports show where the
  /// transform time goes at core scale.
  double wall_ms = 0.0;
  std::vector<std::string> notes;
};

/// A deterministic in-place netlist transform. Implementations are
/// immutable option bundles: run() must not retain state between calls.
class Pass {
 public:
  virtual ~Pass() = default;
  virtual std::string name() const = 0;
  virtual PassReport run(netlist::Netlist& nl) const = 0;

  /// True when the pass can never change connectivity (cells, nets,
  /// pins, channels) — it only edits annotations such as capacitances
  /// or delays. Structural facts computed before such a pass (symmetry
  /// reports, cone histograms) remain valid after it. Default false:
  /// claiming preservation is an opt-in promise.
  virtual bool preserves_structure() const { return false; }
};

struct PipelineReport {
  std::vector<PassReport> passes;

  bool changed() const noexcept;
  std::size_t cells_added() const noexcept;
  std::size_t nets_added() const noexcept;
  double cap_added_ff() const noexcept;
  const PassReport* find(std::string_view pass_name) const noexcept;

  /// Per-pass report table (pass, changed, cells+, nets+, cap+, metric).
  util::Table table() const;
};

/// Ordered pass list. Passes are shared immutable objects, so pipelines
/// (and the recipes holding them) copy cheaply.
class Pipeline {
 public:
  Pipeline() = default;

  Pipeline& add(std::shared_ptr<const Pass> pass);

  template <typename P, typename... Args>
  Pipeline& emplace(Args&&... args) {
    return add(std::make_shared<const P>(std::forward<Args>(args)...));
  }

  std::size_t size() const noexcept { return passes_.size(); }
  bool empty() const noexcept { return passes_.empty(); }
  const std::vector<std::shared_ptr<const Pass>>& passes() const noexcept {
    return passes_;
  }

  /// Run every pass in order; one PassReport per pass.
  PipelineReport run(netlist::Netlist& nl) const;

 private:
  std::vector<std::shared_ptr<const Pass>> passes_;
};

/// A named pipeline — the unit a campaign sweep compares. See recipes.hpp
/// for the paper-grounded standard recipes.
struct Recipe {
  std::string name;
  Pipeline pipeline;
};

}  // namespace qdi::xform
