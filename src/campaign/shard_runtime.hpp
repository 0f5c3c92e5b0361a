// Private campaign-internal header (not installed): the sharded runtime
// behind Campaign::sharded() (shard.cpp; the model is in shard.hpp).
#pragma once

#include <cstdint>

#include "qdi/campaign/attack.hpp"
#include "qdi/campaign/shard.hpp"
#include "qdi/campaign/target.hpp"
#include "qdi/campaign/trace_source.hpp"

namespace qdi::campaign::detail {

/// Recover every shard from opt.checkpoint_dir, run the open ranges
/// through one pipeline call over `threads` workers (one more call per
/// failure, for the ranges still open) and merge. Takes the values
/// Campaign::sharded() validated: `attack` holds Dpa or Cpa,
/// `num_traces` > 0, a checkpoint_dir, opt.shards from plan_shards().
/// `primary` is cloned for every worker of every call; it and `inst`
/// must outlive the call. Shard failures degrade the result instead of
/// throwing.
ShardedResult run_shards(const TargetInstance& inst, const AttackConfig& attack,
                         const TraceSource& primary, std::uint64_t fingerprint,
                         std::uint64_t seed, std::size_t num_traces,
                         unsigned threads, ShardedOptions opt);

}  // namespace qdi::campaign::detail
