// TraceSource — the acquisition abstraction of the campaign API.
//
// An attack does not care where its power traces come from: the
// event-driven simulator of this reproduction, a cached acquisition on
// disk, or (in a lab) a real oscilloscope bench. A TraceSource answers
// exactly one question — "give me the power trace of acquisition i" —
// and the campaign layer handles batching, worker fan-out, and
// deterministic randomness on top of it.
//
// Determinism contract: every trace draws all of its randomness
// (stimulus, window jitter, measurement noise) from a private RNG stream
// keyed by (campaign seed, trace index) — one prelude for every engine,
// src/campaign/per_trace.hpp — and starts from the post-reset state
// (src/campaign/scalar_engine.hpp). Acquisition i is therefore
// bit-identical whatever thread acquired it and in whatever order — the
// property test_campaign asserts. The compiled and reference engines
// are additionally bit-identical to each other (test_compiled_sim).
//
// The hot path is allocation-free: workers acquire through
// acquire_into() into reused AcquiredTrace slots, the stimulus fills a
// reused buffer, the streaming power accumulator ping-pongs one sample
// buffer per worker, and a WorkerPool keeps the per-thread simulator
// clones (and their compiled-kernel epoch snapshots) alive across any
// number of acquire calls.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "qdi/dpa/trace_set.hpp"
#include "qdi/power/synth.hpp"
#include "qdi/sim/compiled_netlist.hpp"
#include "qdi/sim/compiled_simulator.hpp"
#include "qdi/sim/environment.hpp"
#include "qdi/sim/simulator.hpp"
#include "qdi/util/rng.hpp"

namespace qdi::campaign {

/// One acquisition request: trace `index` of a campaign rooted at `seed`.
struct TraceRequest {
  std::uint64_t seed = 1;
  std::size_t index = 0;
};

/// One acquired trace plus its side-channel metadata.
struct AcquiredTrace {
  power::PowerTrace trace;
  std::vector<std::uint8_t> plaintext;
  std::vector<std::uint8_t> ciphertext;  ///< outputs packed LSB-first
  std::size_t transitions = 0;  ///< net transitions in the cycle
  std::size_t glitches = 0;     ///< cancelled events (0 on hazard-free QDI)
};

/// Stimulus for one acquisition: the 1-of-N value per environment input
/// channel, plus the plaintext bytes recorded for the analysis side.
/// Randomness must come only from `rng` (the per-trace stream); `index`
/// allows deterministic exhaustive sweeps.
struct Stimulus {
  std::vector<int> values;
  std::vector<std::uint8_t> plaintext;
};

/// Fill-style stimulus callback: overwrite `out` completely (clear and
/// refill both vectors). The campaign layer reuses one Stimulus per
/// worker, so a well-behaved implementation allocates nothing once the
/// capacities have settled.
using StimulusFn =
    std::function<void(util::Rng& rng, std::size_t index, Stimulus& out)>;

class TraceSource {
 public:
  virtual ~TraceSource() = default;

  /// Acquire one trace into `out`, overwriting it completely (the
  /// campaign layer reuses one slot per request index, so implementations
  /// should clear-and-refill the buffers rather than reassign them —
  /// that is what keeps the hot loop allocation-free). Must be
  /// deterministic in `req` alone. A simple source can just do
  /// `out = ...` and forgo the buffer reuse.
  virtual void acquire_into(const TraceRequest& req, AcquiredTrace& out) = 0;

  /// Natural block size of this source: how many consecutive trace
  /// indices one acquire_block() call acquires at once. 1 for scalar
  /// sources; sim::kBatchLanes for the bit-parallel batch engine. The
  /// WorkerPool hands out work in blocks of this width.
  virtual std::size_t batch_width() const { return 1; }

  /// Acquire traces [first, first + count) of campaign `seed` into
  /// out[0 .. count). `count` is at most batch_width() (the final block
  /// of a range may be partial). Per-trace results must be bit-identical
  /// to acquire_into on the same indices — block partitioning is a
  /// scheduling choice, never an observable one. The default forwards to
  /// acquire_into per index.
  virtual void acquire_block(std::uint64_t seed, std::size_t first,
                             std::size_t count, AcquiredTrace* out) {
    for (std::size_t i = 0; i < count; ++i)
      acquire_into({seed, first + i}, out[i]);
  }

  /// Independent copy for a worker thread.
  virtual std::unique_ptr<TraceSource> clone() const = 0;

  virtual std::string name() const = 0;
};

struct AcquisitionStats {
  /// Wall clock of the pipeline call. In a Campaign::run with an attack
  /// the analysis overlaps acquisition on the commit chain; its share is
  /// subtracted here and counted in AttackOutcome::wall_ms instead.
  double wall_ms = 0.0;
  double traces_per_s = 0.0;
  std::size_t transitions = 0;  ///< summed over all traces
  std::size_t glitches = 0;     ///< summed over all traces
  /// Filled by the materializing commit (WorkerPool::append_block:
  /// WorkerPool::acquire and a Campaign::run without fused()), next to
  /// the rows it appends; the streaming members leave it empty (a
  /// per-trace vector would grow with the trace budget and break the
  /// fused campaign's bounded-memory contract).
  std::vector<std::size_t> per_trace_transitions;
  unsigned threads_used = 1;
};

/// Persistent acquisition worker set and the one ordered block pipeline
/// every acquisition runs through. The pool keeps `threads - 1` clones
/// of a primary source (per-thread simulators with their compiled
/// netlist, epoch snapshot, and scratch buffers) plus recycled block
/// buffers alive across any number of calls. A pool serves one source
/// for its whole life: the campaign layer owns one pool per run (a sweep
/// variant is a run), benches own one per timing loop, and the shard
/// runtime builds a new one after a failed call.
///
/// Each run() call cuts its trace ranges (a sharded run: every open
/// shard range) into contiguous blocks at absolute trace indices, starts
/// its worker threads once, and lets every worker claim the next block,
/// acquire it into its own slots, assemble it as a Block (analysis rows
/// plus per-trace transition counts), and run an optional per-worker
/// `ingest` on it. A serialized `commit` then sees the blocks in
/// strictly ascending order, on whichever worker finished the frontier
/// block. What a consumer observes is fixed by the partition and that
/// order — never by the thread count or scheduling — so every result is
/// bit-identical at any thread count. acquire(), acquire_chunked() and
/// acquire_sharded_range() are run() with a fixed commit. Claims are
/// gated at most slots() = 2·threads + 2 blocks ahead of the commit
/// frontier, which bounds the traces in flight, and no worker claims while
/// `threads` finished blocks wait for the commit chain: when the serial
/// commit is slower than acquisition, blocks acquired ahead of it are
/// memory it cannot use yet. Finished-but-uncommitted blocks then stay
/// below 2·threads (the claim gate test derives the bound). The first
/// exception thrown by the source, `ingest`, or `commit` stops further
/// claims and is rethrown to the caller once every worker has returned;
/// the pool stays usable, though the source that threw may not be (the
/// shard runtime builds a new pool over fresh clones after a failure).
class WorkerPool {
 public:
  /// Traces in flight for a materialized acquisition (block_traces of
  /// it): small next to the n×m matrix the commit fills.
  static constexpr std::size_t kMaterializeBudget = 64;

  /// `src` must outlive the pool. `threads` counts `src` itself.
  WorkerPool(TraceSource& src, unsigned threads);

  unsigned threads() const noexcept {
    return static_cast<unsigned>(clones_.size()) + 1;
  }

  /// Block buffers a call can hold at once, the claim gate's bound: every
  /// Block::slot is below it.
  std::size_t slots() const noexcept { return 2 * std::size_t{threads()} + 2; }

  /// Block width that keeps about `budget` traces in flight: the budget
  /// split over the 3·threads + 2 block buffers a call can hold (one
  /// acquisition slot set per worker plus the gated claims), rounded
  /// down to a multiple of the source's batch_width(). Never more than
  /// `budget`, never 0.
  std::size_t block_traces(std::size_t budget) const;

  /// Trace range [first, end) of a call.
  using Range = std::pair<std::size_t, std::size_t>;

  /// One block of a call: traces [first, first + count), number `index`
  /// of the call's partition, assembled as analysis rows (`segment`)
  /// with one transition count per trace. A recycled buffer, valid only
  /// during the ingest or commit call that receives it.
  ///
  /// `slot` names the buffer: a number below slots(), fixed for the
  /// pool's life. A slot belongs to one block from its claim until its
  /// commit returned (or the call gave the block up), and the pool's
  /// lock orders that hand-back before the slot's next claim. So a
  /// consumer may keep per-block state in a slots()-sized array, touched
  /// by the block's ingest and then its commit, with no lock of its own.
  struct Block {
    std::size_t slot = 0;
    std::size_t index = 0;
    std::size_t first = 0;
    std::size_t count = 0;
    dpa::TraceSet segment;
    std::vector<std::size_t> transitions;
  };
  using BlockIngest = std::function<void(unsigned worker, const Block&)>;
  using BlockCommit = std::function<void(const Block&)>;

  /// The pipeline over disjoint `ranges` in ascending order. Blocks are
  /// cut at ABSOLUTE multiples of `block_traces`, at the caller's
  /// `extra_cuts` (absolute trace indices — analysis checkpoints land on
  /// block edges this way) and at every range end, so the partition
  /// depends only on (ranges, block_traces, extra_cuts): a consumer that
  /// folds per-block partials into shared state at commit time is
  /// bit-identical at any thread count, and a killed/resumed range
  /// re-derives the identical blocks. Block numbering and commit order
  /// run across the ranges. `ingest` runs on worker threads — one call
  /// per block, unordered across blocks (any one worker's calls are
  /// serialized on its thread); it must only touch per-worker or
  /// per-block state. `commit` is serialized in strictly ascending block
  /// order; this is where results fold into shared state. Either may be
  /// empty. Fills `stats`' counters, thread count, and wall clock. When
  /// a call throws, `*error_first` (if given) receives the first trace
  /// index of the block whose exception is rethrown.
  void run(const std::vector<Range>& ranges, std::uint64_t seed,
           std::size_t block_traces,
           const std::vector<std::size_t>& extra_cuts,
           const BlockIngest& ingest, const BlockCommit& commit,
           AcquisitionStats& stats, std::size_t* error_first = nullptr);

  /// The materializing commit: append `blk`'s rows to `traces` and its
  /// transition counts to `stats.per_trace_transitions`, reserving
  /// `total` rows once the first row fixes the geometry. Peak memory is
  /// then one n×m matrix plus the blocks in flight.
  static void append_block(const Block& blk, dpa::TraceSet& traces,
                           AcquisitionStats& stats, std::size_t total);

  /// Materialized acquisition into a fresh TraceSet: run() over
  /// [0, num_traces) with append_block as the commit; bit-identical for
  /// any thread count (determinism contract).
  dpa::TraceSet acquire(std::size_t num_traces, std::uint64_t seed,
                        AcquisitionStats* stats = nullptr);

  /// Chunked streaming acquisition — the O(chunk)-memory feed of the
  /// fused campaign. consume() is the commit: it receives traces
  /// [first, first + segment.size()) in ascending, contiguous segments
  /// of at most `chunk` traces (block_traces(chunk) wide) that cover
  /// [0, num_traces) exactly once, on one worker at a time. The segment
  /// is a recycled buffer valid only during the call; consumers must
  /// copy anything they keep. Trace values are bit-identical to
  /// acquire() for any thread count and chunk size.
  void acquire_chunked(
      std::size_t num_traces, std::uint64_t seed, std::size_t chunk,
      const std::function<void(const dpa::TraceSet& segment,
                               std::size_t first)>& consume,
      AcquisitionStats* stats = nullptr);

  /// Consumer pair of acquire_sharded_range: run()'s ingest and commit
  /// over the block's number, segment, and absolute first trace index.
  struct ShardedIngest {
    std::function<void(unsigned worker, std::size_t block,
                       const dpa::TraceSet& segment, std::size_t first)>
        ingest;
    std::function<void(std::size_t block, const dpa::TraceSet& segment,
                       std::size_t first)>
        commit;
  };

  /// Ranged streaming acquisition: run() over the single range
  /// [first_index, first_index + count), cut at absolute multiples of
  /// `block_traces` plus `extra_cuts`.
  void acquire_sharded_range(std::size_t first_index, std::size_t count,
                             std::uint64_t seed, std::size_t block_traces,
                             const std::vector<std::size_t>& extra_cuts,
                             const ShardedIngest& consumer,
                             AcquisitionStats* stats = nullptr);

 private:
  TraceSource* src_;
  std::vector<std::unique_ptr<TraceSource>> clones_;
  /// Acquisition slots, one set per worker; slot buffers (samples,
  /// plaintext, ciphertext) keep their capacity across calls.
  std::vector<std::vector<AcquiredTrace>> worker_records_;
  /// Free list of block buffers: clear() keeps the segment's matrix and
  /// arena capacity, so blocks recycled within a call, and every call
  /// after a pool's first (a bench's timing loop), do not reallocate.
  std::vector<std::unique_ptr<Block>> free_blocks_;
  std::size_t blocks_made_ = 0;  ///< buffers allocated, the next slot
};

struct SimTraceSourceOptions {
  sim::DelayModel delays{};
  power::PowerModelParams power{};
  /// Acquisition-window start jitter in [0, start_jitter_ps): the
  /// attacker's missing-trigger problem on clockless circuits.
  double start_jitter_ps = 0.0;
  /// Execution engine. Compiled (default): the netlist is flattened once
  /// per source into a CompiledNetlist shared by all worker clones, power
  /// samples stream into the accumulator at commit time (no transition
  /// log), and after the first trace each epoch restores the post-reset
  /// snapshot instead of re-simulating reset. Reference: the
  /// construction-form interpreter, its commits recorded by a
  /// sim::TransitionLog and synthesized post hoc. Batch: the
  /// 64-lane bit-parallel kernel — handled by BatchSimTraceSource, which
  /// Campaign::engine(Batch) builds; constructing a SimTraceSource with
  /// it throws. All engines produce bit-identical traces.
  sim::EngineKind engine = sim::EngineKind::Compiled;
  /// Reuse an existing compiled form instead of flattening the netlist
  /// again: Campaign::run hands the one it built of the prepared victim
  /// to its source and its fault probe, and benches share one across
  /// several sources. The compiled and batch engines both run it. Must
  /// have been compiled from the SAME netlist with the SAME delay model
  /// — the source trusts it. Ignored by the reference engine.
  std::shared_ptr<const sim::CompiledNetlist> precompiled;
};

namespace detail {
class ScalarRig;
}  // namespace detail

/// TraceSource backed by the event-driven simulator and the four-phase
/// handshake environment — the reproduction's oscilloscope bench.
///
/// Trace memo. With the compiled engine and no window jitter
/// (start_jitter_ps == 0) a cycle is a pure function of its stimulus
/// values: every trace restores the same post-reset epoch, the cycle
/// draws no randomness, and delay jitter is static per cell. Only the
/// measurement noise differs between two traces of one stimulus. Each
/// worker therefore keeps a memo keyed by the full Stimulus::values
/// vector: a stimulus seen for the second time stores its scaled
/// pre-noise samples (trimmed after the last sample that is not +0.0),
/// its ciphertext, transition and glitch counts, and every later
/// sighting replays them and draws the noise through power::add_noise,
/// exactly as the simulated path does — bit-identical traces, same rng
/// stream position. A direct-mapped filter of key hashes gates the
/// admission, so a source whose stimuli never repeat (des_round,
/// aes_core) stores nothing and pays one hash per trace. The memo is
/// allocated once, on the first trace, for at most kMemoCapacity stimuli
/// and kMemoSampleBudget stored samples, as one anonymous mapping: only
/// the pages written are resident, and the malloc heap is left as it
/// would be without the memo. When full it stops admitting and never
/// evicts. The reference engine (the oracle) and any jittered source
/// bypass it; clones start empty. The stimulus is validated
/// (sim::check_stimulus) before the lookup, so only valid stimuli are
/// ever keyed.
class SimTraceSource final : public TraceSource {
 public:
  /// Most stimuli one worker's trace memo stores.
  static constexpr std::size_t kMemoCapacity = 1024;
  /// Most samples (doubles) one worker's trace memo stores.
  static constexpr std::size_t kMemoSampleBudget = std::size_t{1} << 21;

  /// `nl` is shared by all clones and must outlive them; it must not be
  /// mutated during acquisition (the compiled engine snapshots it).
  SimTraceSource(const netlist::Netlist& nl, sim::EnvSpec env,
                 StimulusFn stimulus, SimTraceSourceOptions opt = {});
  ~SimTraceSource() override;

  // Non-copyable/movable: a worker's copy is made by clone().
  SimTraceSource(const SimTraceSource&) = delete;
  SimTraceSource& operator=(const SimTraceSource&) = delete;

  void acquire_into(const TraceRequest& req, AcquiredTrace& out) override;
  std::unique_ptr<TraceSource> clone() const override;
  std::string name() const override {
    return opt_.engine == sim::EngineKind::Compiled ? "sim-compiled" : "sim";
  }

  /// Traces replayed from / simulated past the trace memo since
  /// construction; both stay 0 when the memo does not apply.
  std::uint64_t memo_hits() const noexcept { return memo_hits_; }
  std::uint64_t memo_misses() const noexcept { return memo_misses_; }
  /// Stimuli stored in this worker's trace memo.
  std::size_t memo_entries() const noexcept;

 private:
  /// The common part; clone() shares `compiled` (null: reference).
  SimTraceSource(const netlist::Netlist& nl, sim::EnvSpec env,
                 StimulusFn stimulus, SimTraceSourceOptions opt,
                 std::shared_ptr<const sim::CompiledNetlist> compiled);
  class Memo;

  const netlist::Netlist* nl_;
  sim::EnvSpec spec_;
  StimulusFn stimulus_;
  SimTraceSourceOptions opt_;
  /// Execution form shared read-only by all worker clones (compiled
  /// engine only).
  std::shared_ptr<const sim::CompiledNetlist> compiled_;
  /// This worker's engine, environment and post-reset rewind.
  std::unique_ptr<detail::ScalarRig> rig_;
  /// Per-worker scratch reused across trace epochs — all of it
  /// capacity-retaining, so the steady-state loop allocates nothing.
  power::StreamingAccumulator acc_;
  sim::TransitionLog log_;  ///< the reference engine's commits
  Stimulus stim_;
  sim::FourPhaseEnv::CycleResult cyc_;
  /// Trace memo: applies iff compiled engine and start_jitter_ps == 0;
  /// allocated on the first trace.
  bool memo_applies_ = false;
  std::unique_ptr<Memo> memo_;
  std::uint64_t memo_hits_ = 0;
  std::uint64_t memo_misses_ = 0;
};

}  // namespace qdi::campaign
