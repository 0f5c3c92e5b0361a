#include "qdi/campaign/trace_source.hpp"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <exception>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <utility>

#include "scalar_engine.hpp"

namespace qdi::campaign {

namespace {

const SimTraceSourceOptions& reject_batch(const SimTraceSourceOptions& opt) {
  if (opt.engine == sim::EngineKind::Batch)
    throw std::invalid_argument(
        "SimTraceSource: EngineKind::Batch runs through "
        "campaign::BatchSimTraceSource (Campaign::engine(Batch) builds "
        "it); SimTraceSource drives the scalar engines only");
  return opt;
}

}  // namespace

SimTraceSource::SimTraceSource(const netlist::Netlist& nl, sim::EnvSpec env,
                               StimulusFn stimulus, SimTraceSourceOptions opt)
    : nl_(&nl),
      spec_(std::move(env)),
      stimulus_(std::move(stimulus)),
      opt_(reject_batch(opt)),
      compiled_(opt_.engine == sim::EngineKind::Compiled
                    ? (opt_.precompiled ? opt_.precompiled
                                        : sim::compile(nl, opt_.delays))
                    : nullptr),
      sim_(detail::make_scalar_engine(compiled_, nl, opt_.delays)),
      csim_(compiled_ ? static_cast<sim::CompiledSimulator*>(sim_.get())
                      : nullptr),
      env_(*sim_, spec_),
      acc_(opt_.power) {
  if (!stimulus_)
    throw std::invalid_argument("SimTraceSource: stimulus is required");
}

SimTraceSource::SimTraceSource(const SimTraceSource& other, WorkerCloneTag)
    : nl_(other.nl_),
      spec_(other.spec_),
      stimulus_(other.stimulus_),
      opt_(other.opt_),
      compiled_(other.compiled_),  // the compiled form is shared read-only
      sim_(detail::make_scalar_engine(compiled_, *nl_, opt_.delays)),
      csim_(compiled_ ? static_cast<sim::CompiledSimulator*>(sim_.get())
                      : nullptr),
      env_(*sim_, spec_),
      acc_(opt_.power) {}

std::unique_ptr<TraceSource> SimTraceSource::clone() const {
  return std::unique_ptr<TraceSource>(
      new SimTraceSource(*this, WorkerCloneTag{}));
}

void SimTraceSource::acquire_into(const TraceRequest& req, AcquiredTrace& out) {
  // Every trace starts from the post-reset state in its own epoch:
  // identical absolute times, hence bit-identical floating point,
  // whatever trace history the worker carries. The compiled engine pays
  // the reset handshake once and restores its snapshot afterwards (an
  // O(activity) dirty-set revert); the reference engine re-simulates it
  // each trace.
  if (csim_ != nullptr && epoch_.has_value()) {
    csim_->restore_epoch(*epoch_);
  } else {
    sim_->reset_state();
    env_.apply_reset();
    if (csim_ != nullptr) epoch_ = csim_->save_epoch();
  }

  util::Rng rng = util::split_stream(req.seed, req.index);
  stimulus_(rng, req.index, stim_);
  // The window jitter is drawn before the cycle runs — the cycle itself
  // consumes no randomness, so the stream position is the same as
  // drawing it afterwards; this lets the streaming path open its window
  // up front.
  const double jitter = opt_.start_jitter_ps > 0.0
                            ? rng.uniform(0.0, opt_.start_jitter_ps)
                            : 0.0;

  if (opt_.engine == sim::EngineKind::Compiled) {
    // Streaming power: samples are binned at commit time; no transition
    // log is ever materialized, and finish_into ping-pongs the sample
    // buffer with the caller's slot — zero steady-state allocation.
    acc_.begin_window(env_.next_cycle_start() - jitter, spec_.period_ps);
    sim_->set_power_sink(&acc_);
    env_.send_into(stim_.values, cyc_);
    sim_->set_power_sink(nullptr);
    if (!cyc_.ok)
      throw std::runtime_error("SimTraceSource: four-phase protocol failure");
    acc_.finish_into(out.trace, &rng);
  } else {
    // Reference path: post-hoc synthesis from the transition log — kept
    // as the oracle that the streaming path is checked against.
    sim_->clear_log();
    env_.send_into(stim_.values, cyc_);
    if (!cyc_.ok)
      throw std::runtime_error("SimTraceSource: four-phase protocol failure");
    out.trace = power::synthesize(sim_->log(), cyc_.t_start - jitter,
                                  spec_.period_ps, opt_.power, &rng);
  }

  // Pack the decoded output channel values as "ciphertext" bytes
  // (LSB-first bit packing, 8 channels per byte).
  out.ciphertext.assign((cyc_.outputs.size() + 7) / 8, 0);
  for (std::size_t b = 0; b < cyc_.outputs.size(); ++b)
    if (cyc_.outputs[b] == 1)
      out.ciphertext[b / 8] |= static_cast<std::uint8_t>(1u << (b % 8));
  // Copy (not move): stim_ is per-worker scratch whose capacity must
  // survive into the next trace.
  out.plaintext.assign(stim_.plaintext.begin(), stim_.plaintext.end());
  out.transitions = cyc_.transitions;
  out.glitches = sim_->glitch_count();
}

// ---- WorkerPool -------------------------------------------------------------

namespace {

unsigned clamp_threads(unsigned threads, std::size_t num_traces) {
  if (threads == 0) threads = 1;
  if (threads > num_traces)
    threads = static_cast<unsigned>(num_traces == 0 ? 1 : num_traces);
  return threads;
}

/// Traces in flight for acquire(): small next to the n×m matrix it fills.
constexpr std::size_t kMaterializeBudget = 1024;

}  // namespace

WorkerPool::WorkerPool(TraceSource& src, unsigned threads) : src_(&src) {
  if (threads == 0) threads = 1;
  worker_clones_ = threads - 1;
  clones_.reserve(worker_clones_);
  for (unsigned w = 1; w < threads; ++w) clones_.push_back(src.clone());
}

void WorkerPool::rebind(TraceSource& src) {
  clones_.clear();
  src_ = &src;
  for (std::size_t w = 0; w < worker_clones_; ++w)
    clones_.push_back(src.clone());
}

void WorkerPool::unbind() noexcept {
  clones_.clear();
  src_ = nullptr;
}

std::size_t WorkerPool::block_traces(std::size_t budget) const {
  if (budget == 0) budget = 1;
  const std::size_t width = std::max<std::size_t>(src_->batch_width(), 1);
  const std::size_t share = budget / (3 * std::size_t{threads()} + 2);
  return share >= width ? share / width * width : std::min(width, budget);
}

void WorkerPool::run_blocks(std::size_t first_index, std::size_t count,
                            std::uint64_t seed, std::size_t block_traces,
                            const std::vector<std::size_t>& extra_cuts,
                            bool segments, const BlockIngest& ingest,
                            const BlockCommit& commit, AcquisitionStats& st) {
  const auto t0 = std::chrono::steady_clock::now();
  if (block_traces == 0) block_traces = 1;
  const std::size_t end = first_index + count;
  st.threads_used = clamp_threads(threads(), count);

  // Blocks are keyed by ABSOLUTE trace index — cut at global multiples
  // of block_traces plus the caller's extra cuts — so the partition
  // depends only on (range, width, cuts). A re-threaded or resumed run
  // re-derives the identical block set, which is what makes the
  // commit-side fold independent of the thread count.
  std::vector<std::size_t> cuts(extra_cuts);
  std::sort(cuts.begin(), cuts.end());
  std::vector<std::pair<std::size_t, std::size_t>> blocks;
  {
    std::size_t lo = first_index;
    std::size_t ci = 0;
    while (lo < end) {
      std::size_t hi = std::min(end, (lo / block_traces + 1) * block_traces);
      while (ci < cuts.size() && cuts[ci] <= lo) ++ci;
      if (ci < cuts.size() && cuts[ci] < hi) hi = cuts[ci];
      blocks.emplace_back(lo, hi);
      lo = hi;
    }
  }

  if (worker_records_.size() < threads()) worker_records_.resize(threads());
  const std::size_t width = std::max<std::size_t>(src_->batch_width(), 1);

  // Acquire (+ assemble) + ingest block `k` into `blk` on worker `w`.
  auto run_block = [&](unsigned w, std::size_t k, Block& blk,
                       std::size_t* transitions, std::size_t* glitches) {
    blk.index = k;
    blk.first = blocks[k].first;
    blk.count = blocks[k].second - blk.first;
    std::vector<AcquiredTrace>& recs =
        segments ? worker_records_[w] : blk.records;
    if (recs.size() < blk.count) recs.resize(blk.count);
    TraceSource& s = (w == 0) ? *src_ : *clones_[w - 1];
    for (std::size_t b = 0; b < blk.count; b += width)
      s.acquire_block(seed, blk.first + b, std::min(width, blk.count - b),
                      recs.data() + b);
    if (segments) blk.segment.clear();
    for (std::size_t i = 0; i < blk.count; ++i) {
      const AcquiredTrace& a = recs[i];
      *transitions += a.transitions;
      *glitches += a.glitches;
      if (segments)
        blk.segment.add(power::TraceView(a.trace), a.plaintext, a.ciphertext);
    }
    if (ingest) ingest(w, blk);
  };

  if (clones_.empty() || blocks.size() <= 1) {
    // Single-worker form: same partition, same ingest-then-commit calls
    // per block — bit-identical consumer observations, no threads.
    if (free_blocks_.empty()) free_blocks_.push_back(std::make_unique<Block>());
    Block& blk = *free_blocks_.back();
    for (std::size_t k = 0; k < blocks.size(); ++k) {
      run_block(0, k, blk, &st.transitions, &st.glitches);
      if (commit) commit(blk);
    }
  } else {
    std::mutex mu;
    std::condition_variable cv;
    std::size_t next = 0;      // next unclaimed block
    std::size_t frontier = 0;  // next block to commit
    bool committing = false;   // a worker is inside the commit chain
    std::exception_ptr first_error;
    std::vector<std::unique_ptr<Block>> done(blocks.size());
    // Claim gate: fast workers may run at most a few blocks ahead of the
    // commit frontier, bounding live blocks at O(threads). The frontier
    // block's owner is never gated (its claim already happened), so the
    // frontier always advances — no deadlock.
    const std::size_t max_inflight =
        2 * static_cast<std::size_t>(threads()) + 2;

    auto worker = [&](unsigned w) {
      std::size_t my_transitions = 0;
      std::size_t my_glitches = 0;
      for (;;) {
        std::size_t k = 0;
        std::unique_ptr<Block> blk;
        {
          std::unique_lock<std::mutex> lock(mu);
          cv.wait(lock, [&] {
            return first_error != nullptr || next >= blocks.size() ||
                   next - frontier < max_inflight;
          });
          if (first_error != nullptr || next >= blocks.size()) break;
          k = next++;
          if (!free_blocks_.empty()) {
            blk = std::move(free_blocks_.back());
            free_blocks_.pop_back();
          }
        }
        if (!blk) blk = std::make_unique<Block>();
        try {
          run_block(w, k, *blk, &my_transitions, &my_glitches);
        } catch (...) {
          const std::lock_guard<std::mutex> lock(mu);
          if (!first_error) first_error = std::current_exception();
          free_blocks_.push_back(std::move(blk));
          cv.notify_all();
          break;
        }
        std::unique_lock<std::mutex> lock(mu);
        done[k] = std::move(blk);
        if (!committing) {
          // Drain the commit chain: everything contiguous from the
          // frontier, in ascending block order, outside the lock. The
          // `committing` flag keeps the chain single-threaded while other
          // workers keep claiming and ingesting.
          committing = true;
          while (first_error == nullptr && frontier < blocks.size() &&
                 done[frontier]) {
            std::unique_ptr<Block> fb = std::move(done[frontier]);
            lock.unlock();
            try {
              if (commit) commit(*fb);
            } catch (...) {
              lock.lock();
              if (!first_error) first_error = std::current_exception();
              free_blocks_.push_back(std::move(fb));
              break;
            }
            lock.lock();
            free_blocks_.push_back(std::move(fb));
            ++frontier;
            cv.notify_all();
          }
          committing = false;
          cv.notify_all();
        }
      }
      const std::lock_guard<std::mutex> lock(mu);
      st.transitions += my_transitions;
      st.glitches += my_glitches;
    };

    std::vector<std::thread> pool;
    pool.reserve(clones_.size());
    for (unsigned w = 1; w <= static_cast<unsigned>(clones_.size()); ++w)
      pool.emplace_back(worker, w);
    worker(0);
    for (std::thread& t : pool) t.join();
    // Blocks still parked after an error go back to the free list.
    for (std::unique_ptr<Block>& b : done)
      if (b) free_blocks_.push_back(std::move(b));
    if (first_error) std::rethrow_exception(first_error);
  }

  st.wall_ms = std::chrono::duration<double, std::milli>(
                   std::chrono::steady_clock::now() - t0)
                   .count();
  st.traces_per_s =
      st.wall_ms > 0.0 ? 1e3 * static_cast<double>(count) / st.wall_ms : 0.0;
}

dpa::TraceSet WorkerPool::acquire(std::size_t num_traces, std::uint64_t seed,
                                  AcquisitionStats* stats) {
  dpa::TraceSet ts;
  AcquisitionStats st;
  st.per_trace_transitions.reserve(num_traces);
  // Record mode: the commit copies each record straight into the SoA
  // matrix (span-based add: the recycled slot buffers stay in place),
  // so peak memory is one n×m matrix plus the blocks in flight.
  run_blocks(0, num_traces, seed, block_traces(kMaterializeBudget), {},
             /*segments=*/false, nullptr,
             [&](const Block& blk) {
               for (std::size_t i = 0; i < blk.count; ++i) {
                 const AcquiredTrace& a = blk.records[i];
                 st.per_trace_transitions.push_back(a.transitions);
                 ts.add(power::TraceView(a.trace), a.plaintext, a.ciphertext);
                 if (ts.size() == 1) ts.reserve(num_traces);
               }
             },
             st);
  if (stats) *stats = std::move(st);
  return ts;
}

void WorkerPool::acquire_chunked(
    std::size_t num_traces, std::uint64_t seed, std::size_t chunk,
    const std::function<void(const dpa::TraceSet& segment, std::size_t first)>&
        consume,
    AcquisitionStats* stats) {
  AcquisitionStats st;
  run_blocks(0, num_traces, seed, block_traces(chunk), {}, /*segments=*/true,
             nullptr,
             [&](const Block& blk) { consume(blk.segment, blk.first); }, st);
  if (stats) *stats = std::move(st);
}

void WorkerPool::acquire_sharded_range(std::size_t first_index,
                                       std::size_t count, std::uint64_t seed,
                                       std::size_t block_traces,
                                       const std::vector<std::size_t>& extra_cuts,
                                       const ShardedIngest& consumer,
                                       AcquisitionStats* stats) {
  AcquisitionStats st;
  BlockIngest ingest;
  if (consumer.ingest)
    ingest = [&](unsigned w, const Block& blk) {
      consumer.ingest(w, blk.index, blk.segment, blk.first);
    };
  BlockCommit commit;
  if (consumer.commit)
    commit = [&](const Block& blk) {
      consumer.commit(blk.index, blk.segment, blk.first);
    };
  run_blocks(first_index, count, seed, block_traces, extra_cuts,
             /*segments=*/true, ingest, commit, st);
  if (stats) *stats = std::move(st);
}

}  // namespace qdi::campaign
