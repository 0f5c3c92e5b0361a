#include "qdi/campaign/trace_source.hpp"

#include <algorithm>
#include <bit>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <exception>
#include <memory>
#include <mutex>
#include <span>
#include <stdexcept>
#include <thread>
#include <utility>

#include <sys/mman.h>

#include "per_trace.hpp"
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

/// One worker's trace memo (see SimTraceSource). All of its storage —
/// admission filter, entry index, entries, keys, ciphertexts and samples
/// — is one anonymous mapping made in the constructor: its pages read as
/// zero (an empty filter and index) and become resident only as entries
/// are written, the steady-state loop never allocates, and the memo
/// never takes from, or fragments, the malloc heap that the analysis
/// buffers allocated after an acquisition come from. A failed mapping
/// leaves a memo that stores nothing.
class SimTraceSource::Memo {
 public:
  /// One stored stimulus, number i: its key is keys_[i·key_len_ ..],
  /// its ciphertext cipher_[i·cipher_len_ ..], its samples
  /// samples_[offset .. offset + stored) followed by +0.0 up to the
  /// window's num_samples.
  struct Entry {
    std::uint64_t hash;
    double t0_ps;
    double dt_ps;
    std::size_t num_samples;
    std::size_t offset;
    std::size_t stored;
    std::size_t transitions;
    std::size_t glitches;
  };

  Memo(std::size_t key_len, std::size_t cipher_len,
       std::size_t window_samples)
      : key_len_(key_len),
        cipher_len_(cipher_len),
        sample_capacity_(
            std::min(kMemoCapacity * window_samples, kMemoSampleBudget)) {
    // Every part starts on an 8-byte boundary.
    const auto round8 = [](std::size_t b) { return (b + 7) & ~std::size_t{7}; };
    const std::size_t parts[] = {
        kFilterSlots * sizeof(std::uint64_t),
        kTableSlots * sizeof(std::uint32_t),
        round8(kMemoCapacity * sizeof(Entry)),
        round8(kMemoCapacity * key_len * sizeof(int)),
        round8(kMemoCapacity * cipher_len),
        sample_capacity_ * sizeof(double)};
    std::size_t bytes = 0;
    for (const std::size_t b : parts) bytes += b;
    void* p = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (p == MAP_FAILED) return;
    base_ = static_cast<std::byte*>(p);
    bytes_ = bytes;
    std::byte* at = base_;
    const auto carve = [&](std::size_t part) {
      std::byte* here = at;
      at += parts[part];
      return here;
    };
    filter_ = reinterpret_cast<std::uint64_t*>(carve(0));
    slots_ = reinterpret_cast<std::uint32_t*>(carve(1));
    entries_ = reinterpret_cast<Entry*>(carve(2));
    keys_ = reinterpret_cast<int*>(carve(3));
    cipher_ = reinterpret_cast<std::uint8_t*>(carve(4));
    samples_ = reinterpret_cast<double*>(carve(5));
  }
  ~Memo() {
    if (base_ != nullptr) ::munmap(base_, bytes_);
  }
  Memo(const Memo&) = delete;
  Memo& operator=(const Memo&) = delete;

  /// Never 0: a zero filter slot is empty.
  static std::uint64_t hash(std::span<const int> key) noexcept {
    std::uint64_t h = 0x9e3779b97f4a7c15ULL ^ key.size();
    for (const int v : key) {
      h ^= static_cast<std::uint32_t>(v);
      h *= 0xff51afd7ed558ccdULL;
      h ^= h >> 32;
    }
    h ^= h >> 33;
    h *= 0xc4ceb9fe1a85ec53ULL;
    h ^= h >> 33;
    return h | 1;
  }

  std::size_t size() const noexcept { return size_; }

  /// The entry stored for `key` (of hash `h`), or nullptr. The hash only
  /// indexes; the key is compared in full.
  const Entry* find(std::uint64_t h, std::span<const int> key) const {
    if (base_ == nullptr) return nullptr;
    for (std::size_t s = h >> kSlotShift;; s = (s + 1) & (kTableSlots - 1)) {
      const std::uint32_t e = slots_[s];
      if (e == 0) return nullptr;
      const Entry& ent = entries_[e - 1];
      if (ent.hash == h &&
          std::equal(key.begin(), key.end(), keys_ + (e - 1) * key_len_))
        return &ent;
    }
  }

  /// Overwrite `out`'s trace (pre-noise), ciphertext and counts with
  /// entry `e`'s.
  void replay(const Entry& e, AcquiredTrace& out) const {
    out.trace.reset_geometry(e.t0_ps, e.dt_ps, e.num_samples);
    double* dst = out.trace.samples().data();
    std::copy_n(samples_ + e.offset, e.stored, dst);
    std::fill(dst + e.stored, dst + e.num_samples, 0.0);
    const std::uint8_t* c = cipher_ + (&e - entries_) * cipher_len_;
    out.ciphertext.assign(c, c + cipher_len_);
    out.transitions = e.transitions;
    out.glitches = e.glitches;
  }

  /// A simulated trace of `key`, before noise: store it if this is the
  /// key's second sighting (its hash already in the filter) and there
  /// is room, else remember the hash.
  void offer(std::uint64_t h, std::span<const int> key,
             const AcquiredTrace& t) {
    if (base_ == nullptr) return;
    // Bit 0 of every hash is set, so the filter is indexed above it.
    std::uint64_t& seen = filter_[(h >> 1) & (kFilterSlots - 1)];
    if (seen != h) {
      seen = h;
      return;
    }
    const std::span<const double> smp = t.trace.samples();
    std::size_t stored = smp.size();
    while (stored > 0 && std::bit_cast<std::uint64_t>(smp[stored - 1]) == 0)
      --stored;
    if (size_ == kMemoCapacity || stored > sample_capacity_ - samples_used_)
      return;
    Entry& e = entries_[size_];
    e.hash = h;
    e.t0_ps = t.trace.t0_ps();
    e.dt_ps = t.trace.dt_ps();
    e.num_samples = smp.size();
    e.offset = samples_used_;
    e.stored = stored;
    e.transitions = t.transitions;
    e.glitches = t.glitches;
    std::copy_n(smp.data(), stored, samples_ + samples_used_);
    samples_used_ += stored;
    std::copy(key.begin(), key.end(), keys_ + size_ * key_len_);
    std::copy(t.ciphertext.begin(), t.ciphertext.end(),
              cipher_ + size_ * cipher_len_);
    ++size_;
    std::size_t s = h >> kSlotShift;
    while (slots_[s] != 0) s = (s + 1) & (kTableSlots - 1);
    slots_[s] = static_cast<std::uint32_t>(size_);
  }

 private:
  /// Admission filter: direct-mapped, 4 slots per storable entry.
  static constexpr std::size_t kFilterSlots = 4 * kMemoCapacity;
  /// Open-addressing entry index (entry + 1, 0 = empty) at load ≤ 1/2;
  /// indexed by the hash's top bits, the filter by its low bits.
  static constexpr std::size_t kTableSlots = 2 * kMemoCapacity;
  static constexpr int kSlotShift = 64 - std::countr_zero(kTableSlots);
  static_assert(std::has_single_bit(kTableSlots) &&
                std::has_single_bit(kFilterSlots));
  static_assert(alignof(Entry) <= 8);

  std::size_t key_len_;
  std::size_t cipher_len_;
  std::size_t sample_capacity_;
  std::byte* base_ = nullptr;  ///< the mapping, nullptr if it failed
  std::size_t bytes_ = 0;
  std::uint64_t* filter_ = nullptr;
  std::uint32_t* slots_ = nullptr;
  Entry* entries_ = nullptr;
  int* keys_ = nullptr;
  std::uint8_t* cipher_ = nullptr;
  double* samples_ = nullptr;
  std::size_t size_ = 0;          ///< entries stored
  std::size_t samples_used_ = 0;  ///< samples stored
};

SimTraceSource::SimTraceSource(const netlist::Netlist& nl, sim::EnvSpec env,
                               StimulusFn stimulus, SimTraceSourceOptions opt)
    : SimTraceSource(nl, std::move(env), std::move(stimulus), opt,
                     detail::compiled_form(nl, reject_batch(opt))) {
  if (!stimulus_)
    throw std::invalid_argument("SimTraceSource: stimulus is required");
}

SimTraceSource::SimTraceSource(
    const netlist::Netlist& nl, sim::EnvSpec env, StimulusFn stimulus,
    SimTraceSourceOptions opt,
    std::shared_ptr<const sim::CompiledNetlist> compiled)
    : nl_(&nl),
      spec_(std::move(env)),
      stimulus_(std::move(stimulus)),
      opt_(std::move(opt)),
      compiled_(std::move(compiled)),
      rig_(std::make_unique<detail::ScalarRig>(compiled_, nl, opt_.delays,
                                               spec_)),
      acc_(opt_.power),
      memo_applies_(compiled_ != nullptr && !(opt_.start_jitter_ps > 0.0)) {}

SimTraceSource::~SimTraceSource() = default;

std::unique_ptr<TraceSource> SimTraceSource::clone() const {
  // The compiled form is shared read-only; the memo starts empty.
  return std::unique_ptr<TraceSource>(
      new SimTraceSource(*nl_, spec_, stimulus_, opt_, compiled_));
}

std::size_t SimTraceSource::memo_entries() const noexcept {
  return memo_ ? memo_->size() : 0;
}

void SimTraceSource::acquire_into(const TraceRequest& req, AcquiredTrace& out) {
  util::Rng rng;
  const double jitter = detail::trace_prelude(
      req.seed, req.index, stimulus_, opt_.start_jitter_ps, rng, stim_);
  // Copy (not move): stim_ is per-worker scratch whose capacity must
  // survive into the next trace.
  out.plaintext.assign(stim_.plaintext.begin(), stim_.plaintext.end());

  // A repeated stimulus replays its stored pre-noise trace and skips the
  // cycle, epoch restore included (the next simulated trace rewinds).
  std::uint64_t key = 0;
  if (memo_applies_) {
    sim::check_stimulus(*nl_, spec_, stim_.values);
    key = Memo::hash(stim_.values);
    if (memo_) {
      if (const Memo::Entry* e = memo_->find(key, stim_.values)) {
        ++memo_hits_;
        memo_->replay(*e, out);
        power::add_noise(out.trace, opt_.power, &rng);
        return;
      }
    }
    ++memo_misses_;
  }

  // Every trace starts from the post-reset state in its own epoch.
  rig_->rewind();
  sim::SimEngine& sim = rig_->engine();
  sim::FourPhaseEnv& env = rig_->env();
  if (opt_.engine == sim::EngineKind::Compiled) {
    // Streaming power: samples are binned at commit time; no transition
    // log is ever materialized, and finish_into ping-pongs the sample
    // buffer with the caller's slot — zero steady-state allocation.
    acc_.begin_window(env.next_cycle_start() - jitter, spec_.period_ps);
    sim.set_power_sink(&acc_);
    env.send_into(stim_.values, cyc_);
    sim.set_power_sink(nullptr);
    if (!cyc_.ok)
      throw std::runtime_error("SimTraceSource: four-phase protocol failure");
    acc_.finish_into(out.trace);
  } else {
    // Reference path: post-hoc synthesis from the recorded commits —
    // kept as the oracle that the streaming path is checked against.
    log_.transitions.clear();
    sim.set_power_sink(&log_);
    env.send_into(stim_.values, cyc_);
    sim.set_power_sink(nullptr);
    if (!cyc_.ok)
      throw std::runtime_error("SimTraceSource: four-phase protocol failure");
    out.trace = power::synthesize(log_.transitions, cyc_.t_start - jitter,
                                  spec_.period_ps, opt_.power);
  }

  detail::pack_outputs(cyc_.outputs, out.ciphertext);
  out.transitions = cyc_.transitions;
  out.glitches = sim.glitch_count();

  if (memo_applies_) {
    // A successful cycle decodes every output and fills the same window,
    // so the first trace fixes the ciphertext and window lengths.
    if (!memo_)
      memo_ = std::make_unique<Memo>(spec_.inputs.size(),
                                     out.ciphertext.size(), out.trace.size());
    memo_->offer(key, stim_.values, out);
  }
  // The measurement noise last, as finish_into would draw it.
  power::add_noise(out.trace, opt_.power, &rng);
}

// ---- WorkerPool -------------------------------------------------------------

namespace {

unsigned clamp_threads(unsigned threads, std::size_t num_traces) {
  if (threads == 0) threads = 1;
  if (threads > num_traces)
    threads = static_cast<unsigned>(num_traces == 0 ? 1 : num_traces);
  return threads;
}

}  // namespace

WorkerPool::WorkerPool(TraceSource& src, unsigned threads) : src_(&src) {
  if (threads == 0) threads = 1;
  clones_.reserve(threads - 1);
  for (unsigned w = 1; w < threads; ++w) clones_.push_back(src.clone());
}

std::size_t WorkerPool::block_traces(std::size_t budget) const {
  if (budget == 0) budget = 1;
  const std::size_t width = std::max<std::size_t>(src_->batch_width(), 1);
  const std::size_t share = budget / (3 * std::size_t{threads()} + 2);
  return share >= width ? share / width * width : std::min(width, budget);
}

void WorkerPool::run(const std::vector<Range>& ranges, std::uint64_t seed,
                     std::size_t block_traces,
                     const std::vector<std::size_t>& extra_cuts,
                     const BlockIngest& ingest, const BlockCommit& commit,
                     AcquisitionStats& st, std::size_t* error_first) {
  const auto t0 = std::chrono::steady_clock::now();
  if (block_traces == 0) block_traces = 1;

  // Blocks are keyed by ABSOLUTE trace index — cut at global multiples
  // of block_traces, the caller's extra cuts and every range end — so
  // the partition depends only on (ranges, width, cuts). A re-threaded
  // or resumed run re-derives the identical block set, which is what
  // makes the commit-side fold independent of the thread count.
  std::vector<std::size_t> cuts(extra_cuts);
  std::sort(cuts.begin(), cuts.end());
  std::vector<Range> blocks;
  std::size_t count = 0;
  {
    std::size_t ci = 0;
    for (const auto& [first, end] : ranges) {
      count += end - first;
      for (std::size_t lo = first; lo < end;) {
        std::size_t hi = std::min(end, (lo / block_traces + 1) * block_traces);
        while (ci < cuts.size() && cuts[ci] <= lo) ++ci;
        if (ci < cuts.size() && cuts[ci] < hi) hi = cuts[ci];
        blocks.emplace_back(lo, hi);
        lo = hi;
      }
    }
  }
  st.threads_used = clamp_threads(threads(), count);

  if (worker_records_.size() < threads()) worker_records_.resize(threads());
  const std::size_t width = std::max<std::size_t>(src_->batch_width(), 1);

  // Acquire + assemble + ingest block `k` into `blk` on worker `w`.
  auto run_block = [&](unsigned w, std::size_t k, Block& blk,
                       std::size_t* transitions, std::size_t* glitches) {
    blk.index = k;
    blk.first = blocks[k].first;
    blk.count = blocks[k].second - blk.first;
    std::vector<AcquiredTrace>& recs = worker_records_[w];
    if (recs.size() < blk.count) recs.resize(blk.count);
    TraceSource& s = (w == 0) ? *src_ : *clones_[w - 1];
    for (std::size_t b = 0; b < blk.count; b += width)
      s.acquire_block(seed, blk.first + b, std::min(width, blk.count - b),
                      recs.data() + b);
    blk.segment.clear();
    blk.transitions.clear();
    for (std::size_t i = 0; i < blk.count; ++i) {
      const AcquiredTrace& a = recs[i];
      *transitions += a.transitions;
      *glitches += a.glitches;
      blk.transitions.push_back(a.transitions);
      blk.segment.add(power::TraceView(a.trace), a.plaintext, a.ciphertext);
      // The first row fixes the geometry; a fresh buffer then takes the
      // whole block in one allocation instead of growing row by row.
      if (i == 0) blk.segment.reserve(blk.count);
    }
    if (ingest) ingest(w, blk);
  };

  std::mutex mu;
  std::condition_variable cv;
  std::size_t next = 0;      // next unclaimed block
  std::size_t frontier = 0;  // next block to commit
  bool committing = false;   // a worker is inside the commit chain
  std::exception_ptr first_error;
  std::size_t first_error_at = 0;  // first trace of first_error's block
  // Inside a handler, with `mu` held: keep the call's first exception.
  const auto record_error = [&](std::size_t first) {
    if (first_error) return;
    first_error = std::current_exception();
    first_error_at = first;
  };
  std::vector<std::unique_ptr<Block>> done(blocks.size());
  std::size_t parked = 0;  // finished blocks in done[], not yet committing
  // Claim gate: fast workers may run at most a few blocks ahead of the
  // commit frontier, bounding live blocks at O(threads), and none claims
  // while `threads` finished blocks wait for the commit chain — when the
  // serial commit is the bottleneck, more acquisition ahead of it is
  // memory it cannot use yet. The frontier block's owner is never gated
  // (its claim already happened): it drains the chain, and each drain
  // step un-parks a block and notifies, so the frontier always advances
  // — no deadlock.
  const std::size_t max_inflight = slots();
  const std::size_t max_parked = threads();

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
                 (next - frontier < max_inflight && parked < max_parked);
        });
        if (first_error != nullptr || next >= blocks.size()) break;
        k = next++;
        if (!free_blocks_.empty()) {
          blk = std::move(free_blocks_.back());
          free_blocks_.pop_back();
        } else {
          // Every buffer is held by a claimed block, and the gate admits
          // at most max_inflight of those: slots stay below slots().
          blk = std::make_unique<Block>();
          blk->slot = blocks_made_++;
        }
      }
      try {
        run_block(w, k, *blk, &my_transitions, &my_glitches);
      } catch (...) {
        const std::lock_guard<std::mutex> lock(mu);
        record_error(blocks[k].first);
        free_blocks_.push_back(std::move(blk));
        cv.notify_all();
        break;
      }
      std::unique_lock<std::mutex> lock(mu);
      done[k] = std::move(blk);
      ++parked;
      if (!committing) {
        // Drain the commit chain: everything contiguous from the
        // frontier, in ascending block order, outside the lock. The
        // `committing` flag keeps the chain single-threaded while other
        // workers keep claiming and ingesting.
        committing = true;
        while (first_error == nullptr && frontier < blocks.size() &&
               done[frontier]) {
          std::unique_ptr<Block> fb = std::move(done[frontier]);
          --parked;
          cv.notify_all();
          lock.unlock();
          try {
            if (commit) commit(*fb);
          } catch (...) {
            lock.lock();
            record_error(fb->first);
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

  // The calling thread is worker 0; a call of one block (or a pool of
  // one) starts no threads.
  const std::size_t helpers =
      std::min(clones_.size(), blocks.empty() ? 0 : blocks.size() - 1);
  std::vector<std::thread> pool;
  pool.reserve(helpers);
  for (unsigned w = 1; w <= helpers; ++w) pool.emplace_back(worker, w);
  worker(0);
  for (std::thread& t : pool) t.join();
  // Blocks still parked after an error go back to the free list.
  for (std::unique_ptr<Block>& b : done)
    if (b) free_blocks_.push_back(std::move(b));
  if (first_error) {
    if (error_first != nullptr) *error_first = first_error_at;
    std::rethrow_exception(first_error);
  }

  st.wall_ms = std::chrono::duration<double, std::milli>(
                   std::chrono::steady_clock::now() - t0)
                   .count();
  st.traces_per_s =
      st.wall_ms > 0.0 ? 1e3 * static_cast<double>(count) / st.wall_ms : 0.0;
}

void WorkerPool::append_block(const Block& blk, dpa::TraceSet& traces,
                              AcquisitionStats& stats, std::size_t total) {
  const dpa::TraceSet& seg = blk.segment;
  for (std::size_t i = 0; i < seg.size(); ++i) {
    traces.add(seg.trace(i), seg.plaintext(i), seg.ciphertext(i));
    if (traces.size() == 1) {
      traces.reserve(total);
      stats.per_trace_transitions.reserve(total);
    }
  }
  stats.per_trace_transitions.insert(stats.per_trace_transitions.end(),
                                     blk.transitions.begin(),
                                     blk.transitions.end());
}

dpa::TraceSet WorkerPool::acquire(std::size_t num_traces, std::uint64_t seed,
                                  AcquisitionStats* stats) {
  dpa::TraceSet ts;
  AcquisitionStats st;
  run({{0, num_traces}}, seed, block_traces(kMaterializeBudget), {}, nullptr,
      [&](const Block& blk) { append_block(blk, ts, st, num_traces); }, st);
  if (stats) *stats = std::move(st);
  return ts;
}

void WorkerPool::acquire_chunked(
    std::size_t num_traces, std::uint64_t seed, std::size_t chunk,
    const std::function<void(const dpa::TraceSet& segment, std::size_t first)>&
        consume,
    AcquisitionStats* stats) {
  AcquisitionStats st;
  run({{0, num_traces}}, seed, block_traces(chunk), {}, nullptr,
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
  run({{first_index, first_index + count}}, seed, block_traces, extra_cuts,
      ingest, commit, st);
  if (stats) *stats = std::move(st);
}

}  // namespace qdi::campaign
