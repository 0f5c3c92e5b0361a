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
// keyed by (campaign seed, trace index), and SimTraceSource starts
// every trace from the post-reset state. Acquisition i is therefore
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
  std::vector<std::uint8_t> ciphertext;
  std::size_t transitions = 0;  ///< net transitions in the cycle
  std::size_t glitches = 0;     ///< cancelled events (0 on hazard-free QDI)
  /// Fault classification when the acquisition was a fault injection
  /// (campaign/fault_campaign.hpp); -1 for ordinary power acquisitions.
  int fault_class = -1;
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

  /// Convenience value-returning form of acquire_into.
  AcquiredTrace acquire_one(const TraceRequest& req) {
    AcquiredTrace out;
    acquire_into(req, out);
    return out;
  }

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
  double wall_ms = 0.0;
  double traces_per_s = 0.0;
  std::size_t transitions = 0;  ///< summed over all traces
  std::size_t glitches = 0;     ///< summed over all traces
  /// Filled by WorkerPool::acquire only; the streaming members leave it
  /// empty (a per-trace vector would grow with the trace budget and
  /// break the fused campaign's bounded-memory contract).
  std::vector<std::size_t> per_trace_transitions;
  unsigned threads_used = 1;
};

struct TargetInstance;
struct FaultCampaignOptions;
struct FaultCampaignResult;
class Coordinator;

/// Persistent acquisition worker set and the one ordered block pipeline
/// every acquisition runs through. The pool keeps `threads - 1` clones
/// of a primary source (per-thread simulators with their compiled
/// netlist, epoch snapshot, and scratch buffers) plus recycled block
/// buffers alive across any number of calls; the campaign layer owns
/// one pool per run, benches own one per timing loop.
///
/// Each call cuts its trace range (a sharded run: every open shard
/// range) into contiguous blocks at absolute trace indices, starts its
/// worker threads once, and lets every worker claim the next block,
/// acquire it, and run an optional per-worker `ingest` on it. A
/// serialized `commit` then sees the blocks in strictly ascending order,
/// on whichever worker finished the frontier block. What a consumer
/// observes is fixed by the partition and that order — never by the
/// thread count or scheduling — so every result is bit-identical at any
/// thread count. Claims are gated at most 2·threads + 2 blocks ahead of
/// the commit frontier, which bounds the traces in flight. The first
/// exception thrown by the source, `ingest`, or `commit` stops further
/// claims and is rethrown to the caller once every worker has returned;
/// the pool stays usable (the source that threw may not: rebind()).
class WorkerPool {
 public:
  /// `src` must outlive the pool. `threads` counts `src` itself.
  WorkerPool(TraceSource& src, unsigned threads);

  unsigned threads() const noexcept {
    return static_cast<unsigned>(worker_clones_) + 1;
  }

  /// Point the pool at a different source, keeping the thread count and
  /// the recycled block buffers (their capacity was paid for by the
  /// previous campaign). This is what lets a countermeasure sweep run
  /// every variant on one shared pool: each variant's netlist gets fresh
  /// per-thread clones, the allocation-heavy buffers persist.
  /// `src` must outlive the pool, the next rebind, or an unbind().
  void rebind(TraceSource& src);

  /// Drop the source pointer and the per-thread clones but keep the
  /// buffers. A SimTraceSource points into the netlist it was built
  /// over; when that netlist dies before the pool does (a sweep
  /// variant's instance is consumed by its CampaignResult), unbinding
  /// keeps the pool from holding dangling sources between variants.
  /// Acquisition is invalid until the next rebind().
  void unbind() noexcept;

  /// Block width that keeps about `budget` traces in flight: the budget
  /// split over the 3·threads + 2 block buffers a call can hold (one
  /// acquisition slot set per worker plus the gated claims), rounded
  /// down to a multiple of the source's batch_width(). Never more than
  /// `budget`, never 0.
  std::size_t block_traces(std::size_t budget) const;

  /// Materialized acquisition into a fresh TraceSet: the commit appends
  /// each block in index order; bit-identical for any thread count
  /// (determinism contract).
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

  /// Consumer pair of acquire_sharded_range. `ingest` runs on worker
  /// threads — one call per block, unordered ACROSS blocks (any one
  /// worker's calls are serialized on its thread); it must only touch
  /// per-worker or per-block state. `commit` is serialized in strictly
  /// ascending block order (on whichever worker thread completed the
  /// frontier block) — this is where results are folded into shared
  /// state. Both see the block's assembled segment and the absolute
  /// index of its first trace; the segment is a recycled buffer, valid
  /// only for the duration of the call. Either may be empty.
  struct ShardedIngest {
    std::function<void(unsigned worker, std::size_t block,
                       const dpa::TraceSet& segment, std::size_t first)>
        ingest;
    std::function<void(std::size_t block, const dpa::TraceSet& segment,
                       std::size_t first)>
        commit;
  };

  /// Ranged streaming acquisition: traces [first_index, first_index +
  /// count) are partitioned into blocks cut at ABSOLUTE multiples of
  /// `block_traces` plus the caller's `extra_cuts` (absolute trace
  /// indices — analysis checkpoint positions land on block edges this
  /// way), acquired and ingested concurrently, and committed in
  /// ascending block order. The partition depends only on (range,
  /// block_traces, extra_cuts), so a consumer that folds per-block
  /// partials into shared state at commit time produces BIT-IDENTICAL
  /// results at any thread count, and a killed/resumed range re-derives
  /// the identical blocks.
  void acquire_sharded_range(std::size_t first_index, std::size_t count,
                             std::uint64_t seed, std::size_t block_traces,
                             const std::vector<std::size_t>& extra_cuts,
                             const ShardedIngest& consumer,
                             AcquisitionStats* stats = nullptr);

 private:
  /// The fault campaign's commit visits raw records (their fault
  /// classification travels outside the analysis rows).
  friend FaultCampaignResult run_fault_campaign(const TargetInstance&,
                                                std::uint64_t,
                                                const FaultCampaignOptions&,
                                                std::uint64_t, unsigned);
  /// The shard runtime runs every shard's remaining range in one call
  /// and attributes a failure to the shard owning the failed block.
  friend class Coordinator;

  /// Trace range [first, end) of a call.
  using Range = std::pair<std::size_t, std::size_t>;

  /// One block of a call: traces [first, first + count), number `index`
  /// of the call's partition. Recycled across blocks and calls.
  struct Block {
    std::size_t index = 0;
    std::size_t first = 0;
    std::size_t count = 0;
    /// Record mode: the block's acquired records, records[0 .. count).
    std::vector<AcquiredTrace> records;
    /// Segment mode: the block assembled as analysis rows.
    dpa::TraceSet segment;
  };
  using BlockIngest = std::function<void(unsigned worker, const Block&)>;
  using BlockCommit = std::function<void(const Block&)>;

  /// The pipeline over disjoint `ranges` in ascending order: blocks
  /// never straddle a range end, and their numbering and commit order
  /// run across the ranges. Segment mode acquires into per-worker slots
  /// and assembles Block::segment; record mode keeps the records in the
  /// block itself. Fills `st`'s counters, thread count, and wall clock.
  /// When a call throws, `*error_first` (if given) receives the first
  /// trace index of the block whose exception is rethrown.
  void run_blocks(const std::vector<Range>& ranges, std::uint64_t seed,
                  std::size_t block_traces,
                  const std::vector<std::size_t>& extra_cuts,
                  bool segments, const BlockIngest& ingest,
                  const BlockCommit& commit, AcquisitionStats& st,
                  std::size_t* error_first = nullptr);

  TraceSource* src_;
  std::size_t worker_clones_ = 0;  ///< clone count restored by rebind()
  std::vector<std::unique_ptr<TraceSource>> clones_;
  /// Segment-mode acquisition slots, one set per worker; slot buffers
  /// (samples, plaintext, ciphertext) keep their capacity across calls.
  std::vector<std::vector<AcquiredTrace>> worker_records_;
  /// Free list of block buffers: clear() keeps the segment's matrix and
  /// arena capacity, so steady-state calls (the fused campaign, a
  /// sharded run's retries, every sweep step after the first) do not
  /// reallocate.
  std::vector<std::unique_ptr<Block>> free_blocks_;
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
  /// construction-form interpreter with a post-hoc log walk. Batch: the
  /// 64-lane bit-parallel kernel — handled by BatchSimTraceSource, which
  /// Campaign::engine(Batch) builds; constructing a SimTraceSource with
  /// it throws. All engines produce bit-identical traces.
  sim::EngineKind engine = sim::EngineKind::Compiled;
  /// Reuse an existing compiled form instead of flattening the netlist
  /// again (benches and sweeps that build several sources over one
  /// victim). Must have been compiled from the SAME netlist with the
  /// SAME delay model — the source trusts it. Ignored by the reference
  /// engine.
  std::shared_ptr<const sim::CompiledNetlist> precompiled;
};

/// TraceSource backed by the event-driven simulator and the four-phase
/// handshake environment — the reproduction's oscilloscope bench.
class SimTraceSource final : public TraceSource {
 public:
  /// `nl` is shared by all clones and must outlive them; it must not be
  /// mutated during acquisition (the compiled engine snapshots it).
  SimTraceSource(const netlist::Netlist& nl, sim::EnvSpec env,
                 StimulusFn stimulus, SimTraceSourceOptions opt = {});

  // Non-copyable/movable: env_ holds a pointer into the engine, so a
  // default copy would drive the source object's simulator. Use clone().
  SimTraceSource(const SimTraceSource&) = delete;
  SimTraceSource& operator=(const SimTraceSource&) = delete;

  void acquire_into(const TraceRequest& req, AcquiredTrace& out) override;
  std::unique_ptr<TraceSource> clone() const override;
  std::string name() const override {
    return opt_.engine == sim::EngineKind::Compiled ? "sim-compiled" : "sim";
  }

 private:
  struct WorkerCloneTag {};
  SimTraceSource(const SimTraceSource& other, WorkerCloneTag);

  const netlist::Netlist* nl_;
  sim::EnvSpec spec_;
  StimulusFn stimulus_;
  SimTraceSourceOptions opt_;
  /// Execution form shared read-only by all worker clones (compiled
  /// engine only).
  std::shared_ptr<const sim::CompiledNetlist> compiled_;
  std::unique_ptr<sim::SimEngine> sim_;
  /// Kernel view of sim_ for the epoch-snapshot fast path (the only
  /// engine-specific capability); non-null iff compiled engine.
  sim::CompiledSimulator* csim_ = nullptr;
  sim::FourPhaseEnv env_;
  /// Per-worker scratch reused across trace epochs — all of it
  /// capacity-retaining, so the steady-state loop allocates nothing.
  power::StreamingAccumulator acc_;
  Stimulus stim_;
  sim::FourPhaseEnv::CycleResult cyc_;
  std::optional<sim::CompiledSimulator::Epoch> epoch_;  ///< post-reset snapshot
};

}  // namespace qdi::campaign
