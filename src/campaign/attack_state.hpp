// Private campaign-internal header (not installed): the attack
// accumulator pair behind both the fused in-process analysis driver
// (campaign.cpp's StreamingAnalysis) and the sharded runtime's
// Coordinator (shard.cpp). Keeping probe rules (true-key rank, the
// single-bit MTD success test, outcome emission) in ONE place
// is what guarantees a sharded campaign and a fused campaign cannot
// drift in how they read the same running sums.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "qdi/campaign/attack.hpp"
#include "qdi/campaign/target.hpp"
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

/// Per-block partial-accumulator pool for the thread-sharded ingest
/// (WorkerPool::acquire_sharded_range): worker threads fold one trace
/// block each into a recycled AttackState (ingest), and the in-order
/// commit folds that partial into the master accumulator and returns
/// it to the free list (merge_into). Because merge_into is called in
/// ascending block order — the pool's commit contract — the master's
/// final state depends only on the block partition, never on the
/// thread count or scheduling.
class BlockMerge {
 public:
  /// `attack`/`inst` must outlive this object (they parameterize the
  /// pooled accumulators).
  BlockMerge(const AttackConfig& attack, const TargetInstance& inst)
      : attack_(&attack), inst_(&inst) {}

  /// Worker side (any thread): fold all of `segment` into a pooled
  /// accumulator and file it under the block's absolute first trace
  /// index (never a call-local block number, which a later call reuses).
  void ingest(std::size_t first, const dpa::TraceSet& segment);

  /// Commit side (ascending block order, serialized by the caller):
  /// merge block `first`'s partial into `into`, recycle the accumulator.
  void merge_into(std::size_t first, AttackState& into);

  /// Partials filed but not yet merged: after an aborted pipeline call,
  /// the blocks that never committed.
  std::size_t parked() const;
  /// Recycle every parked partial (the next call re-acquires those
  /// blocks).
  void drop_parked();

 private:
  const AttackConfig* attack_;
  const TargetInstance* inst_;
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<AttackState>> free_;
  std::unordered_map<std::size_t, std::unique_ptr<AttackState>> partials_;
};

}  // namespace qdi::campaign::detail
