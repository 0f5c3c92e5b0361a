// Crash-safe sharded campaign runtime.
//
// A sharded campaign partitions the trace budget [0, N) into contiguous
// per-shard index ranges, each with its own accumulator, stream digest
// and durable checkpoints. Because every trace's randomness is keyed by
// (seed, trace index) — the determinism contract of trace_source.hpp —
// the partition is a scheduling choice, never an observable one: shard
// k acquires exactly the traces a monolithic run would have fed at
// indices [lo_k, hi_k).
//
// Crash safety comes from durable checkpoints (checkpoint.hpp): each
// shard commits its accumulator state, committed trace index, and
// running stream digest every `checkpoint_interval` traces, atomically.
// A killed run resumes from the last committed boundary and redoes only
// the open window — re-acquiring the same deterministic traces in the
// same order — so the resumed accumulation is bit-identical to an
// uninterrupted run of the same sharded configuration (asserted in
// tests/test_shard_runtime.cpp).
//
// Campaign::sharded() runs every shard's remaining range through one
// WorkerPool pipeline call in ascending trace order: the workers are
// shared by all shards, and a checkpoint is an event on the pipeline's
// commit chain, sealed and published while the workers keep acquiring.
// A failed block is charged to its shard, which alone is retried with
// exponential backoff from its durable state, on freshly cloned
// sources; a stall watchdog cancels the shard holding up the commit
// frontier (its report carrying the four-phase handshake diagnostics
// when the stall named one). After the last call, the shard states
// merge in shard order into one attack outcome. A degraded run — some
// shard exhausted its attempts — still merges every durable partial
// sum and reports per-shard coverage honestly instead of throwing.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "qdi/campaign/attack.hpp"
#include "qdi/campaign/checkpoint.hpp"
#include "qdi/sim/environment.hpp"
#include "qdi/util/table.hpp"

namespace qdi::campaign {

/// A shard attempt aborted because progress stalled. Carries the PR 6
/// four-phase diagnostics when the stall localized to a handshake
/// (fault-injection harnesses throw it with the stalled phase and
/// channel); the runtime's stall watchdog throws it with phase None.
class ShardStall : public std::runtime_error {
 public:
  explicit ShardStall(const std::string& what,
                      sim::HandshakePhase phase = sim::HandshakePhase::None,
                      std::string channel = {})
      : std::runtime_error(what), phase_(phase), channel_(std::move(channel)) {}

  sim::HandshakePhase phase() const noexcept { return phase_; }
  const std::string& channel() const noexcept { return channel_; }

 private:
  sim::HandshakePhase phase_;
  std::string channel_;
};

struct ShardedOptions {
  std::size_t shards = 4;
  /// Traces between durable commits. Window boundaries sit at
  /// lo + k·interval — deterministic, so a resumed shard redoes exactly
  /// the open window. A commit snapshots, seals and publishes the
  /// shard's accumulator on the pipeline's commit chain (a des_round CPA
  /// state is 1.6 MB, ~5 ms on a 4-CPU x86 box) while the workers keep
  /// acquiring; shrink the interval only if losing more than a few
  /// seconds of re-acquisition on a crash actually hurts.
  std::size_t checkpoint_interval = 8192;
  /// Directory for the per-shard checkpoint files (created if missing).
  /// Required: a sharded campaign without durable state is just a
  /// slower fused() run.
  std::string checkpoint_dir;
  /// Traces in flight with serial ingest: the pool cuts the ranges into
  /// blocks of WorkerPool::block_traces(chunk_traces) (cancel and
  /// progress granularity; never observable in results).
  std::size_t chunk_traces = 256;
  /// Thread-sharded ingest: when > 0, the traces are partitioned into
  /// blocks of this width (cut at absolute multiples of the trace
  /// index, at window ends and at shard ends), folded into pooled
  /// partial accumulators on the acquiring workers, and merged into the
  /// shard accumulator in ascending block order. The stream digest is fed
  /// trace by trace at commit time, so it stays bit-identical to the
  /// serial path; the accumulator's FP reduction order changes (merge()
  /// adds block sums where the serial feed adds traces, ~1e-12 apart),
  /// which is why Campaign::sharded() extends the configuration
  /// fingerprint when this is enabled — a block-fold run never adopts a
  /// serial run's checkpoints or vice versa. Results are independent of
  /// the thread count either way. 0 = serial in-order feeding (the
  /// default).
  std::size_t ingest_block_traces = 0;
  /// Dispatch attempts per shard (>= 1) before the runtime gives up
  /// and falls back to the shard's last durable checkpoint.
  unsigned max_attempts = 3;
  /// Exponential re-dispatch backoff: attempt k sleeps
  /// backoff_ms · 2^(k-2) first (0 = immediate retry).
  unsigned backoff_ms = 10;
  /// Stall watchdog: when the commit frontier does not advance for this
  /// long, the shard owning the frontier block is cancelled (it aborts
  /// with ShardStall at its next block) and re-dispatched. 0 = watchdog
  /// off.
  unsigned stall_timeout_ms = 0;
  unsigned watchdog_poll_ms = 5;
  /// Commit durability. Every commit is always SHA-sealed and
  /// published by atomic rename, so a killed process — the crash model
  /// of the resume tests — can neither lose nor corrupt a committed
  /// window: the record is complete-or-absent and a torn write fails
  /// the seal. The default skips the two fsyncs per commit on top of
  /// that; set true when checkpoints must also survive power loss or a
  /// kernel crash, and budget the fsync latency into
  /// checkpoint_interval.
  bool fsync_commits = false;
  /// Fault-injection hooks (crash/stall test harness; both optional).
  /// Both run on the commit chain: on_progress after every committed
  /// block, on_commit after every durable checkpoint. Either may throw
  /// to simulate a crash at exactly that point; the exception aborts
  /// the shard's attempt, not the run.
  std::function<void(std::size_t shard, std::uint64_t next)> on_progress;
  std::function<void(std::size_t shard, std::uint64_t next)> on_commit;
};

/// Per-shard outcome in the final report.
struct ShardReport {
  std::size_t shard = 0;
  std::uint64_t lo = 0;
  std::uint64_t hi = 0;
  /// Traces durably merged into the final sums: hi on a completed
  /// shard, the last checkpoint boundary on a degraded one.
  std::uint64_t committed = 0;
  unsigned attempts = 0;
  bool done = false;
  bool wedged = false;  ///< the stall watchdog fired at least once
  /// Checkpoint file the (last) attempt resumed from; empty = fresh.
  std::string resumed_from;
  /// Stream digest (hex) over traces [lo, committed) — the verifiable
  /// identity of what this shard actually acquired.
  std::string digest_hex;
  /// Last attempt's error on a shard that exhausted its attempts.
  std::string error;
  /// Named checkpoint rejections met during recovery scans (e.g.
  /// "rejected shard-0.ckpt: payload digest mismatch").
  std::string recovery;
};

struct ShardedResult {
  std::string target;
  std::uint64_t key = 0;
  std::size_t total_traces = 0;
  /// Traces merged into the final attack sums (== total_traces on a
  /// clean run; less on a degraded one).
  std::size_t covered = 0;
  std::vector<ShardReport> shards;
  /// Attack outcome over the merged sums. On a degraded run this is the
  /// honest partial result over `covered` traces.
  std::optional<AttackOutcome> attack;
  /// True-key rank after each shard merge (x = cumulative merged
  /// traces) — the sharded analogue of the fused rank trajectory, at
  /// shard-boundary granularity.
  std::vector<RankPoint> rank_trajectory;
  double total_wall_ms = 0.0;

  bool complete() const noexcept { return covered == total_traces; }
  bool key_recovered() const noexcept {
    return attack && attack->true_key_rank == 0;
  }
  /// Per-shard coverage table (shard, range, committed, attempts,
  /// status, resumed-from, digest, error).
  util::Table table() const;
};

/// The contiguous trace range of one shard.
struct ShardSpec {
  std::size_t shard = 0;
  std::uint64_t lo = 0;
  std::uint64_t hi = 0;
};

/// Deterministic balanced partition of [0, num_traces) into `shards`
/// contiguous ranges (first `num_traces % shards` ranges one longer).
std::vector<ShardSpec> plan_shards(std::size_t num_traces, std::size_t shards);

}  // namespace qdi::campaign
