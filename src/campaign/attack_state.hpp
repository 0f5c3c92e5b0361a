// Private campaign-internal header (not installed): the attack
// accumulator pair and the ingest rule behind both campaign drivers, the
// streaming analysis of run() (campaign.cpp's StreamingAnalysis) and the
// sharded runtime (shard.cpp). Keeping the probe rules (true-key rank,
// the MTD probe, outcome emission) and the choice between serial and
// block-fold ingest in ONE place is what guarantees a sharded campaign
// and a fused campaign cannot drift in how they fold and read the same
// running sums.
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

/// One OnlineCpa or OnlineDpa accumulator plus the probe/emission rules
/// of the campaign layer. `inst` must outlive the state (it holds the
/// selection metadata the probes rank against).
class AttackState {
 public:
  /// `attack` must hold Dpa or Cpa (the caller validates monostate out).
  AttackState(const AttackConfig& attack, const TargetInstance& inst);

  bool mtd_enabled() const noexcept;

  /// Feed all of a block's rows in trace order.
  void add(const WorkerPool::Block& blk);

  /// True-key rank at the current prefix (the rank-trajectory probe).
  std::size_t rank_now() const;

  /// Feed the MTD scan the attack at the current prefix, `prefix`
  /// traces: DPA reads the paper's single-bit D-function (selection bit
  /// 0), CPA the windowed best correlation — exactly what
  /// dpa::measurements_to_disclosure and
  /// dpa::cpa_measurements_to_disclosure read.
  void probe_mtd(dpa::MtdScan& scan, std::size_t prefix) const;

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

/// The ingest rule of both campaign drivers: serial feed or block fold,
/// and the block width that follows. Both cut their pipeline call at
/// block_traces(), run fold() as its worker ingest and commit() on its
/// commit chain, and never look at the mode.
///
/// Serial feed (`fold_width` 0): blocks of pool.block_traces(
/// `chunk_budget`) traces, whose rows commit() adds in trace order — the
/// sums of one serial pass, whatever the width or thread count.
///
/// Block fold (`fold_width` > 0): blocks of `fold_width` traces, which
/// the acquiring worker folds into a partial AttackState of the block's
/// pool slot, and commit() merges. The pool hands a slot from a block's
/// ingest to its commit and on only after that commit returned
/// (WorkerPool::Block), so a partial needs no lock; commits run in
/// ascending block order, so the sums depend only on the block
/// partition, never on the thread count or scheduling.
class Ingest {
 public:
  /// `attack`/`inst` must outlive this object (they parameterize the
  /// partials); with `fold_width` 0 the attack may be monostate.
  Ingest(const AttackConfig& attack, const TargetInstance& inst,
         const WorkerPool& pool, std::size_t chunk_budget,
         std::size_t fold_width);

  std::size_t block_traces() const noexcept { return block_traces_; }

  /// Worker side: fold `blk` into its slot's partial (built on first
  /// use, reset after). Nothing with the serial feed.
  void fold(const WorkerPool::Block& blk);

  /// Commit side (ascending block order, serialized by the pool): fold
  /// `blk` into `into` — its rows, or the partial fold() left for it.
  void commit(const WorkerPool::Block& blk, AttackState& into) const;

 private:
  const AttackConfig* attack_;
  const TargetInstance* inst_;
  std::size_t block_traces_;
  /// One per pool slot with the block fold; empty with the serial feed.
  std::vector<std::optional<AttackState>> partials_;
};

}  // namespace qdi::campaign::detail
