#include "qdi/campaign/shard.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "attack_state.hpp"
#include "qdi/util/sha256.hpp"

namespace qdi::campaign {

namespace {

double ms_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

/// 64-bit mix of a trace's raw sample bits. Pure integer arithmetic on
/// the IEEE-754 bit patterns, so it is bit-exact wherever the samples
/// are — any engine or thread count that produces the same
/// doubles produces the same fingerprint. Four independent lanes keep
/// the multiply chains out of each other's latency shadow; this has to
/// run per trace, next to ~100 us of simulation, so it is sized to
/// cost single-digit microseconds where hashing the full ~24 KB sample
/// vector through SHA-256 costs tens.
std::uint64_t sample_fingerprint(std::span<const double> s) noexcept {
  constexpr std::uint64_t kMul = 0x9e3779b97f4a7c15ull;
  std::uint64_t lane[4] = {0x243f6a8885a308d3ull, 0x13198a2e03707344ull,
                           0xa4093822299f31d0ull, 0x082efa98ec4e6c89ull};
  std::size_t i = 0;
  for (; i + 4 <= s.size(); i += 4) {
    for (std::size_t l = 0; l < 4; ++l) {
      std::uint64_t b;
      std::memcpy(&b, &s[i + l], sizeof b);
      lane[l] = (lane[l] ^ b) * kMul;
      lane[l] ^= lane[l] >> 29;
    }
  }
  for (; i < s.size(); ++i) {
    std::uint64_t b;
    std::memcpy(&b, &s[i], sizeof b);
    lane[i & 3] = (lane[i & 3] ^ b) * kMul;
    lane[i & 3] ^= lane[i & 3] >> 29;
  }
  std::uint64_t h = static_cast<std::uint64_t>(s.size());
  for (const std::uint64_t l : lane) {
    h = (h ^ l) * kMul;
    h ^= h >> 32;
  }
  return h;
}

/// Fold traces [first, first + segment.size()) into the stream digest:
/// global index, plaintext, and ciphertext enter the SHA-256 stream
/// verbatim (length-prefixed); the bulky sample vector enters as its
/// 64-bit fingerprint, hashed on the acquiring worker (`fingerprints`,
/// one per row). The chain stays SHA-256, so two runs with equal
/// digests replayed the same index/stimulus sequence exactly and the
/// same sample data up to the fingerprint's 2^-64 per-trace accidental
/// collision odds — ample for its job of catching nondeterministic or
/// diverging replays (checkpoint RECORD integrity is separate and
/// stays a full SHA-256 seal of the payload).
void feed_stream_digest(util::Sha256& d, const dpa::TraceSet& segment,
                        std::uint64_t first,
                        const std::vector<std::uint64_t>& fingerprints) {
  for (std::size_t i = 0; i < segment.size(); ++i) {
    d.update_u64(first + i);
    const std::span<const std::uint8_t> pt = segment.plaintext(i);
    d.update_u64(pt.size());
    d.update(pt);
    const std::span<const std::uint8_t> ct = segment.ciphertext(i);
    d.update_u64(ct.size());
    d.update(ct);
    d.update_u64(segment.num_samples());
    d.update_u64(fingerprints[i]);
  }
}

}  // namespace

std::vector<ShardSpec> plan_shards(std::size_t num_traces,
                                   std::size_t shards) {
  if (shards == 0) shards = 1;
  if (shards > num_traces && num_traces > 0) shards = num_traces;
  std::vector<ShardSpec> out;
  out.reserve(shards);
  const std::uint64_t base = num_traces / shards;
  const std::uint64_t extra = num_traces % shards;
  std::uint64_t lo = 0;
  for (std::size_t s = 0; s < shards; ++s) {
    const std::uint64_t len = base + (s < extra ? 1 : 0);
    out.push_back({s, lo, lo + len});
    lo += len;
  }
  return out;
}

// ---- Coordinator ------------------------------------------------------------

namespace {

/// One shard's state for the whole run.
struct Slot {
  ShardSpec spec;
  /// Sums over [lo, next).
  std::optional<detail::AttackState> acc;
  util::Sha256 stream;
  std::uint64_t next = 0;
  /// Set by the watchdog; the shard's next ingest or commit throws.
  std::atomic<bool> cancel{false};
  std::atomic<bool> wedged{false};
  /// Out of attempts: back at its last durable checkpoint, no longer
  /// dispatched.
  bool exhausted = false;
  ShardReport report;
};

}  // namespace

Coordinator::Coordinator(CoordinatorConfig cfg, ShardedOptions opt)
    : cfg_(std::move(cfg)), opt_(std::move(opt)) {}

ShardedResult Coordinator::run() {
  const auto t0 = std::chrono::steady_clock::now();
  if (cfg_.inst == nullptr || cfg_.attack == nullptr ||
      cfg_.primary == nullptr)
    throw std::invalid_argument(
        "Coordinator: instance, attack, and primary source are required");
  if (std::holds_alternative<std::monostate>(*cfg_.attack))
    throw std::invalid_argument(
        "Coordinator: a sharded campaign needs an attack to accumulate");
  if (cfg_.num_traces == 0)
    throw std::invalid_argument("Coordinator: num_traces must be > 0");
  if (opt_.checkpoint_dir.empty())
    throw std::invalid_argument(
        "Coordinator: checkpoint_dir is required (a sharded campaign "
        "without durable state is just a slower fused run)");
  if (opt_.max_attempts == 0) opt_.max_attempts = 1;
  if (opt_.chunk_traces == 0) opt_.chunk_traces = 1;
  ensure_checkpoint_dir(opt_.checkpoint_dir);
  const std::uint64_t interval =
      opt_.checkpoint_interval == 0 ? 1 : opt_.checkpoint_interval;

  const std::vector<ShardSpec> specs =
      plan_shards(cfg_.num_traces, opt_.shards);
  std::vector<Slot> slots(specs.size());
  // Shard owning absolute trace `index` (blocks never straddle shards).
  const auto owner = [&](std::uint64_t index) -> Slot& {
    const auto it = std::upper_bound(
        specs.begin(), specs.end(), index,
        [](std::uint64_t i, const ShardSpec& s) { return i < s.lo; });
    return slots[static_cast<std::size_t>(it - specs.begin()) - 1];
  };

  // Adopt the newest durable checkpoint that decodes, matches this
  // campaign's identity, and restores cleanly. The restore is
  // parse-then-commit (dpa::StateError vetoes the generation without
  // touching the accumulator), so a corrupt-but-well-framed record falls
  // through to the previous generation.
  const auto recover = [&](Slot& s) {
    s.acc.emplace(*cfg_.attack, *cfg_.inst);
    s.stream = util::Sha256();
    s.next = s.spec.lo;
    s.report.recovery.clear();
    const auto rec = recover_checkpoint(
        opt_.checkpoint_dir, s.spec.shard, cfg_.fingerprint, s.spec.lo,
        s.spec.hi,
        [&](const ShardCheckpoint& c) {
          s.acc->restore(c.acc_state);
          s.stream.restore(c.digest);
        },
        &s.report.recovery);
    s.report.resumed_from = rec ? rec->file : std::string();
    if (rec) s.next = rec->ckpt.next;
    if (s.next >= s.spec.hi && !s.exhausted) {
      s.report.done = true;
      s.report.error.clear();
    }
  };

  for (std::size_t i = 0; i < slots.size(); ++i) {
    slots[i].spec = specs[i];
    slots[i].report.attempts = 1;
    recover(slots[i]);
  }

  // ---- the pipeline ---------------------------------------------------------
  // Every open shard range runs through ONE WorkerPool call in ascending
  // trace order, cut at absolute multiples of the block width, at every
  // window end lo + k·interval and at every shard end: the same blocks
  // whichever shards share a call, so a resumed shard re-partitions its
  // open window identically. The commit chain routes each block to its
  // shard and, at a window end, seals and publishes the checkpoint while
  // the other workers keep acquiring under the pool's claim gate.
  //
  // Every worker, worker 0 included, runs on a clone, so `primary`
  // stays pristine: a source that threw mid-trace may be left unusable
  // (a simulator with events still queued), and a failed call rebinds
  // every worker to fresh clones of it.
  std::unique_ptr<TraceSource> src = cfg_.primary->clone();
  WorkerPool pool(*src, cfg_.threads == 0 ? 1 : cfg_.threads);
  std::optional<detail::BlockMerge> blocks;
  if (opt_.ingest_block_traces > 0) blocks.emplace(*cfg_.attack, *cfg_.inst);
  const std::size_t block_traces = blocks
                                       ? opt_.ingest_block_traces
                                       : pool.block_traces(opt_.chunk_traces);
  std::vector<WorkerPool::Range> ranges;

  // Watchdog observables: commits advance `progress`; `frontier` is the
  // first trace of the next block to commit.
  std::atomic<std::uint64_t> progress{0};
  std::atomic<std::uint64_t> frontier{0};
  std::atomic<bool> running{false};
  const auto check_cancel = [&](const Slot& s) {
    if (s.cancel.load(std::memory_order_relaxed))
      throw ShardStall("shard " + std::to_string(s.spec.shard) +
                       ": stall watchdog cancelled the attempt");
  };

  // Sample fingerprints, hashed on the workers and parked under their
  // block's first trace until its commit feeds the stream digest.
  std::mutex fp_mu;
  std::unordered_map<std::size_t, std::vector<std::uint64_t>> fingerprints;

  const auto ingest = [&](unsigned, const WorkerPool::Block& blk) {
    check_cancel(owner(blk.first));
    std::vector<std::uint64_t> fp(blk.count);
    for (std::size_t i = 0; i < blk.count; ++i)
      fp[i] = sample_fingerprint(blk.segment.trace(i).samples());
    if (blocks) blocks->ingest(blk.first, blk.segment);
    const std::lock_guard<std::mutex> lock(fp_mu);
    fingerprints[blk.first] = std::move(fp);
  };

  const auto commit = [&](const WorkerPool::Block& blk) {
    Slot& s = owner(blk.first);
    check_cancel(s);
    std::unique_lock<std::mutex> lock(fp_mu);
    const auto fp = fingerprints.extract(blk.first);
    lock.unlock();
    feed_stream_digest(s.stream, blk.segment, blk.first, fp.mapped());
    if (blocks)
      blocks->merge_into(blk.first, *s.acc);
    else
      s.acc->add_rows(blk.segment, 0, blk.count);
    s.next = blk.first + blk.count;
    progress.fetch_add(blk.count, std::memory_order_relaxed);
    if (opt_.on_progress) opt_.on_progress(s.spec.shard, s.next);
    if ((s.next - s.spec.lo) % interval == 0 || s.next == s.spec.hi) {
      const ShardCheckpoint c{cfg_.fingerprint, s.spec.shard, s.spec.lo,
                              s.spec.hi,        s.next,       s.stream.save(),
                              s.acc->serialize()};
      commit_checkpoint(opt_.checkpoint_dir, c,
                        opt_.fsync_commits ? util::Durability::Fsync
                                           : util::Durability::RenameOnly);
      // The hook fires after the durable commit: a throw here models a
      // crash between commit and the next window — the retried shard
      // must pick up at exactly `next`.
      if (opt_.on_commit) opt_.on_commit(s.spec.shard, s.next);
      if (s.next == s.spec.hi) {
        s.report.done = true;
        s.report.error.clear();
      }
    }
    // Advanced last, so a stall inside this commit's hooks is charged
    // to this block's shard.
    const auto up = std::find_if(
        ranges.begin(), ranges.end(),
        [&](const WorkerPool::Range& r) { return s.next < r.second; });
    if (up != ranges.end())
      frontier.store(std::max<std::uint64_t>(s.next, up->first),
                     std::memory_order_relaxed);
  };

  // ---- stall watchdog -------------------------------------------------------
  // A commit frontier that does not move for stall_timeout_ms cancels
  // the shard owning the frontier block.
  std::jthread watchdog;
  if (opt_.stall_timeout_ms > 0) {
    watchdog = std::jthread([&](const std::stop_token& stop) {
      std::uint64_t last = 0;
      auto since = std::chrono::steady_clock::now();
      const auto poll = std::chrono::milliseconds(
          opt_.watchdog_poll_ms == 0 ? 1 : opt_.watchdog_poll_ms);
      while (!stop.stop_requested()) {
        std::this_thread::sleep_for(poll);
        const auto now = std::chrono::steady_clock::now();
        const std::uint64_t p = progress.load(std::memory_order_relaxed);
        if (!running.load(std::memory_order_acquire) || p != last) {
          last = p;
          since = now;
        } else if (now - since >
                   std::chrono::milliseconds(opt_.stall_timeout_ms)) {
          Slot& s = owner(frontier.load(std::memory_order_relaxed));
          if (!s.cancel.exchange(true, std::memory_order_relaxed))
            s.wedged.store(true, std::memory_order_relaxed);
        }
      }
    });
  }

  // ---- dispatch -------------------------------------------------------------
  // A failed call is charged to the shard owning the failed block: only
  // that shard spends an attempt, backs off, and re-recovers from disk.
  // The others keep their in-memory state, exact at block granularity,
  // and the next call resumes every open range where it stopped.
  std::vector<std::size_t> cuts;
  for (;;) {
    ranges.clear();
    cuts.clear();
    for (Slot& s : slots) {
      if (s.report.done || s.exhausted) continue;
      ranges.emplace_back(s.next, s.spec.hi);
      for (std::uint64_t w = s.next - (s.next - s.spec.lo) % interval + interval;
           w < s.spec.hi; w += interval)
        cuts.push_back(static_cast<std::size_t>(w));
      s.cancel.store(false, std::memory_order_relaxed);
    }
    if (ranges.empty()) break;
    // A call starts with nothing parked: each partial and fingerprint
    // set is consumed by its own block's commit, and an aborted call's
    // leftovers are dropped below.
    if (!fingerprints.empty() || (blocks && blocks->parked() != 0))
      throw std::logic_error(
          "Coordinator: block partials or fingerprints parked across calls");
    frontier.store(ranges.front().first, std::memory_order_relaxed);
    // A new call restarts the stall clock even if the last one died
    // wedged.
    progress.fetch_add(1, std::memory_order_relaxed);
    running.store(true, std::memory_order_release);
    constexpr std::size_t kNoBlock = static_cast<std::size_t>(-1);
    std::size_t failed_at = kNoBlock;
    std::string error;
    try {
      AcquisitionStats st;
      pool.run_blocks(ranges, cfg_.seed, block_traces, cuts,
                      /*segments=*/true, ingest, commit, st, &failed_at);
    } catch (const std::exception& e) {
      if (failed_at == kNoBlock) throw;  // not a shard's failure
      if (const auto* stall = dynamic_cast<const ShardStall*>(&e)) {
        error = std::string("stall (phase ") + sim::name(stall->phase());
        if (!stall->channel().empty()) error += " on " + stall->channel();
        error += "): ";
      }
      error += e.what();
    }
    running.store(false, std::memory_order_release);
    if (failed_at == kNoBlock) break;  // every open range ran to its end
    // Blocks ingested but never committed: the next call re-acquires
    // them, on fresh sources.
    fingerprints.clear();
    if (blocks) blocks->drop_parked();
    std::unique_ptr<TraceSource> fresh = cfg_.primary->clone();
    pool.rebind(*fresh);
    src = std::move(fresh);
    Slot& s = owner(failed_at);
    s.report.error = std::move(error);
    // An exhausted shard falls back to its last durable checkpoint, so
    // the partial sums it DID commit still count — the result reports
    // honest partial coverage instead of discarding paid-for traces.
    if (s.report.attempts >= opt_.max_attempts) {
      s.exhausted = true;
    } else {
      ++s.report.attempts;
      if (opt_.backoff_ms > 0) {
        const unsigned shift = std::min(s.report.attempts - 2, 10u);
        std::this_thread::sleep_for(
            std::chrono::milliseconds(opt_.backoff_ms << shift));
      }
    }
    recover(s);
  }

  // ---- verdict --------------------------------------------------------------
  // Shard sums fold into the verdict in shard-id order, so the merged
  // sums and the boundary-granularity rank/MTD trajectory are
  // reproducible run to run. A boundary probe reads a copy: a read folds
  // the pending class sums (dpa/online.hpp), and the verdict must be the
  // single fold of all merged shard sums. The last point is read from
  // the final outcome() instead.
  const auto t_merge = std::chrono::steady_clock::now();
  ShardedResult res;
  res.target = cfg_.inst->name;
  res.total_traces = cfg_.num_traces;
  detail::AttackState verdict(*cfg_.attack, *cfg_.inst);
  dpa::MtdScan mtd;
  for (Slot& s : slots) {
    ShardReport rep = std::move(s.report);
    rep.shard = s.spec.shard;
    rep.lo = s.spec.lo;
    rep.hi = s.spec.hi;
    rep.committed = s.next;
    rep.wedged = s.wedged.load(std::memory_order_relaxed);
    if (s.next > s.spec.lo) {
      rep.digest_hex = s.stream.hex();
      if (res.covered > 0) {
        const detail::AttackState view = verdict;
        res.rank_trajectory.push_back({res.covered, view.rank_now()});
        if (view.mtd_enabled()) mtd.probe(view.mtd_success_now(), res.covered);
      }
      verdict.merge(*s.acc);
      res.covered += static_cast<std::size_t>(s.next - s.spec.lo);
    }
    res.shards.push_back(std::move(rep));
  }
  if (res.covered > 0) {
    AttackOutcome out = verdict.outcome();
    // The last trajectory point reads the outcome's own fold.
    res.rank_trajectory.push_back({res.covered, out.true_key_rank});
    if (verdict.mtd_enabled()) {
      mtd.probe(verdict.mtd_success_now(), res.covered);
      if (out.true_key_rank == 0) out.mtd = mtd.value();
    }
    out.wall_ms = ms_since(t_merge);
    res.attack = std::move(out);
  }
  res.total_wall_ms = ms_since(t0);
  return res;
}

// ---- report -----------------------------------------------------------------

util::Table ShardedResult::table() const {
  util::Table t({"shard", "range", "committed", "attempts", "status",
                 "resumed", "digest", "error"});
  for (const ShardReport& s : shards) {
    std::string status = s.done ? "done"
                         : s.committed > s.lo ? "partial"
                                              : "failed";
    if (s.wedged) status += "+wedged";
    t.add_row({std::to_string(s.shard),
               "[" + std::to_string(s.lo) + ", " + std::to_string(s.hi) + ")",
               std::to_string(s.committed), std::to_string(s.attempts),
               status, s.resumed_from.empty() ? "-" : s.resumed_from,
               s.digest_hex.empty() ? "-" : s.digest_hex.substr(0, 12),
               s.error.empty() ? "-" : s.error});
  }
  return t;
}

}  // namespace qdi::campaign
