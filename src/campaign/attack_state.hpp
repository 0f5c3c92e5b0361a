// Private campaign-internal header (not installed): the attack
// accumulator pair behind both the fused in-process analysis driver
// (campaign.cpp's StreamingAnalysis) and the sharded runtime's
// Coordinator (shard.cpp). Keeping probe rules (true-key rank, the
// single-bit MTD success test, outcome emission) in ONE place
// is what guarantees a sharded campaign and a fused campaign cannot
// drift in how they read the same running sums.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "qdi/campaign/attack.hpp"
#include "qdi/campaign/target.hpp"
#include "qdi/campaign/trace_source.hpp"
#include "qdi/dpa/online.hpp"

namespace qdi::campaign::detail {

/// Resolve the Dpa bit list against the target's selection functions.
/// Throws std::invalid_argument on an out-of-range index.
std::vector<dpa::SelectionFn> resolve_bits(const Dpa& cfg,
                                           const TargetInstance& inst);

/// One OnlineCpa or OnlineDpa accumulator plus the probe/emission rules
/// of the campaign layer. `inst` must outlive the state (it holds the
/// selection metadata the probes rank against).
class AttackState {
 public:
  /// `attack` must hold Dpa or Cpa (the caller validates monostate out).
  AttackState(const AttackConfig& attack, const TargetInstance& inst);

  bool is_dpa() const noexcept { return dpa_.has_value(); }
  std::size_t count() const noexcept {
    return dpa_ ? dpa_->count() : cpa_->count();
  }
  bool mtd_enabled() const noexcept;

  /// Feed rows [lo, hi) of a segment (accumulation is trace-ordered;
  /// see OnlineCpa/OnlineDpa).
  void add_rows(const dpa::TraceSet& segment, std::size_t lo, std::size_t hi);

  /// True-key rank at the current prefix (the rank-trajectory probe).
  std::size_t rank_now() const;

  /// The MTD success test at the current prefix: DPA uses the paper's
  /// single-bit D-function (selection bit 0), CPA the windowed best
  /// correlation — exactly dpa::measurements_to_disclosure's rule.
  bool mtd_success_now() const;

  /// Final attack emission from the current sums. Fills everything
  /// except `mtd` and `wall_ms` (the caller owns the MTD grid and the
  /// clock).
  AttackOutcome outcome() const;

  /// Accumulator snapshot / restore (the shard checkpoint payload).
  /// restore() forwards dpa::StateError on malformed or mismatched
  /// buffers and leaves the state untouched.
  std::vector<std::uint8_t> serialize() const;
  void restore(std::span<const std::uint8_t> bytes);

  /// Fold another accumulator into this one (block partials into a
  /// shard, shards into the verdict).
  void merge(const AttackState& other);

  /// Drop accumulated traces, keep config/LUT/geometry — lets the
  /// block-fold ingest recycle one AttackState per in-flight block.
  void reset() noexcept;

 private:
  const TargetInstance* inst_;
  std::optional<Dpa> dpa_cfg_;
  std::optional<Cpa> cpa_cfg_;
  std::optional<dpa::OnlineDpa> dpa_;
  std::optional<dpa::OnlineCpa> cpa_;
};

/// Per-block partial accumulators of the block-fold ingest, one per
/// WorkerPool buffer slot: the worker that acquired a block folds it into
/// its slot's AttackState (ingest), and the in-order commit merges that
/// partial into the master accumulator (merge_into). The pool hands a
/// slot from the block's ingest to its commit, and to the next block only
/// after that commit returned (WorkerPool::Block), so a slot's partial
/// needs no lock. Because merge_into is called in ascending block order
/// — the pool's commit contract — the master's final state depends only
/// on the block partition, never on the thread count or scheduling.
class BlockMerge {
 public:
  /// `attack`/`inst` must outlive this object (they parameterize the
  /// partials); `slots` is the pool's WorkerPool::slots().
  BlockMerge(const AttackConfig& attack, const TargetInstance& inst,
             std::size_t slots)
      : attack_(&attack), inst_(&inst), partials_(slots) {}

  /// Worker side: fold all of `blk` into its slot's partial, built on the
  /// slot's first use and reset on every later one.
  void ingest(const WorkerPool::Block& blk);

  /// Commit side (ascending block order, serialized by the pool): merge
  /// `blk`'s partial into `into`.
  void merge_into(const WorkerPool::Block& blk, AttackState& into) const {
    into.merge(*partials_[blk.slot]);
  }

 private:
  const AttackConfig* attack_;
  const TargetInstance* inst_;
  std::vector<std::optional<AttackState>> partials_;
};

}  // namespace qdi::campaign::detail
