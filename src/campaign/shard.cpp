#include "qdi/campaign/shard.hpp"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <memory>
#include <thread>
#include <utility>

#include "attack_state.hpp"
#include "qdi/util/sha256.hpp"

namespace qdi::campaign {

namespace {

double ms_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

std::string digest_hex(const util::Sha256::State& s) {
  util::Sha256 h;
  h.restore(s);
  return h.hex();
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
/// 64-bit fingerprint. The chain stays SHA-256, so two runs with equal
/// digests replayed the same index/stimulus sequence exactly and the
/// same sample data up to the fingerprint's 2^-64 per-trace accidental
/// collision odds — ample for its job of catching nondeterministic or
/// diverging replays (checkpoint RECORD integrity is separate and
/// stays a full SHA-256 seal of the payload).
void feed_stream_digest(util::Sha256& d, const dpa::TraceSet& segment,
                        std::uint64_t first) {
  for (std::size_t i = 0; i < segment.size(); ++i) {
    d.update_u64(first + i);
    const std::span<const std::uint8_t> pt = segment.plaintext(i);
    d.update_u64(pt.size());
    d.update(pt);
    const std::span<const std::uint8_t> ct = segment.ciphertext(i);
    d.update_u64(ct.size());
    d.update(ct);
    const std::span<const double> s = segment.trace(i).samples();
    d.update_u64(s.size());
    d.update_u64(sample_fingerprint(s));
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

// ---- ShardRunner ------------------------------------------------------------

ShardRunner::ShardRunner(const CoordinatorConfig& cfg,
                         const ShardedOptions& opt, ShardSpec spec)
    : cfg_(cfg), opt_(opt), spec_(spec) {}

ShardRunner::Outcome ShardRunner::run(std::atomic<std::uint64_t>* progress,
                                      const std::atomic<bool>* cancel) {
  detail::AttackState acc(*cfg_.attack, *cfg_.inst);
  util::Sha256 stream;
  std::uint64_t next = spec_.lo;
  Outcome out;

  // Adopt the newest durable checkpoint that decodes, matches this
  // campaign's identity, and restores cleanly. The restore is
  // parse-then-commit (dpa::StateError vetoes the generation without
  // touching `acc`), so a corrupt-but-well-framed record falls through
  // to the previous generation instead of poisoning the attempt.
  const auto recovered = recover_checkpoint(
      opt_.checkpoint_dir, spec_.shard, cfg_.fingerprint, spec_.lo, spec_.hi,
      [&](const ShardCheckpoint& c) {
        acc.restore(c.acc_state);
        stream.restore(c.digest);
      },
      &out.recovery_notes);
  if (recovered) {
    next = recovered->ckpt.next;
    out.resumed_from = recovered->file;
    if (next >= spec_.hi) {  // fully committed by an earlier run
      out.final_state = recovered->ckpt;
      return out;
    }
  }

  const std::unique_ptr<TraceSource> src = cfg_.primary->clone();
  WorkerPool pool(*src, cfg_.threads == 0 ? 1 : cfg_.threads);
  const std::size_t interval =
      opt_.checkpoint_interval == 0 ? 1 : opt_.checkpoint_interval;

  const auto check_cancel = [&] {
    if (cancel != nullptr && cancel->load(std::memory_order_relaxed))
      throw ShardStall("shard " + std::to_string(spec_.shard) +
                       ": stall watchdog cancelled the attempt");
  };

  // Block-fold ingest (opt-in): pooled partial accumulators shared
  // across every window of this attempt, so steady state allocates
  // nothing per block.
  std::optional<detail::BlockMerge> blocks;
  if (opt_.ingest_block_traces > 0) blocks.emplace(*cfg_.attack, *cfg_.inst);

  // One pipeline call per window; the mode picks the block width and
  // the ingest. Block-fold: workers fold their blocks into pooled
  // partials in parallel with acquisition and the commit merges each
  // partial into the shard accumulator. Serial: the commit feeds each
  // block into the accumulator in trace order. Either way the commit
  // chains the stream digest in trace order (bit-identical across
  // modes), and window boundaries are deterministic, so a resumed
  // attempt re-partitions the open window identically and stays
  // bit-identical to an uninterrupted run of its mode.
  const std::size_t block_traces = blocks
                                       ? opt_.ingest_block_traces
                                       : pool.block_traces(opt_.chunk_traces);
  WorkerPool::ShardedIngest si;
  if (blocks)
    si.ingest = [&](unsigned, std::size_t block,
                    const dpa::TraceSet& segment, std::size_t) {
      check_cancel();
      blocks->ingest(block, segment);
    };
  si.commit = [&](std::size_t block, const dpa::TraceSet& segment,
                  std::size_t first) {
    check_cancel();
    feed_stream_digest(stream, segment, first);
    if (blocks)
      blocks->merge_into(block, acc);
    else
      acc.add_rows(segment, 0, segment.size());
    if (progress != nullptr)
      progress->fetch_add(segment.size(), std::memory_order_relaxed);
    if (opt_.on_progress)
      opt_.on_progress(spec_.shard, first + segment.size());
  };

  while (next < spec_.hi) {
    check_cancel();
    // Window boundaries only decide where commits land; accumulation is
    // strictly index-ordered either way (serial feed, or block commits
    // in ascending index order), so the partition is never observable
    // in the sums of its own mode.
    const std::uint64_t window_end =
        std::min<std::uint64_t>(spec_.hi, next + interval);
    pool.acquire_sharded_range(
        static_cast<std::size_t>(next),
        static_cast<std::size_t>(window_end - next), cfg_.seed,
        block_traces, {}, si);
    next = window_end;
    ShardCheckpoint c;
    c.fingerprint = cfg_.fingerprint;
    c.shard = spec_.shard;
    c.lo = spec_.lo;
    c.hi = spec_.hi;
    c.next = next;
    c.digest = stream.save();
    c.acc_state = acc.serialize();
    commit_checkpoint(opt_.checkpoint_dir, c,
                      opt_.fsync_commits ? util::Durability::Fsync
                                         : util::Durability::RenameOnly);
    // The hook fires after the durable commit: a throw here models a
    // crash between commit and the next window — the resumed attempt
    // must pick up at exactly `next`.
    if (opt_.on_commit) opt_.on_commit(spec_.shard, next);
    if (next == spec_.hi) out.final_state = std::move(c);
  }
  return out;
}

// ---- Coordinator ------------------------------------------------------------

namespace {

/// Mutable supervision state of one dispatched shard.
struct Slot {
  ShardSpec spec;
  std::atomic<std::uint64_t> progress{0};
  std::atomic<bool> cancel{false};
  std::atomic<bool> running{false};
  ShardReport report;
  std::optional<ShardRunner::Outcome> outcome;
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

  const std::vector<ShardSpec> specs =
      plan_shards(cfg_.num_traces, opt_.shards);
  std::vector<std::unique_ptr<Slot>> slots;
  slots.reserve(specs.size());
  for (const ShardSpec& s : specs) {
    auto slot = std::make_unique<Slot>();
    slot->spec = s;
    slots.push_back(std::move(slot));
  }

  // ---- dispatch -------------------------------------------------------------
  std::atomic<std::size_t> queue{0};
  std::atomic<std::size_t> finished{0};
  const auto work = [&] {
    for (;;) {
      const std::size_t idx = queue.fetch_add(1, std::memory_order_relaxed);
      if (idx >= slots.size()) return;
      Slot& slot = *slots[idx];
      for (unsigned attempt = 1; attempt <= opt_.max_attempts; ++attempt) {
        slot.report.attempts = attempt;
        if (attempt > 1 && opt_.backoff_ms > 0) {
          const unsigned shift = std::min(attempt - 2, 10u);
          std::this_thread::sleep_for(
              std::chrono::milliseconds(opt_.backoff_ms << shift));
        }
        slot.cancel.store(false, std::memory_order_relaxed);
        // Artificial progress tick: a fresh attempt must restart the
        // watchdog's stall clock even if the previous one died wedged.
        slot.progress.fetch_add(1, std::memory_order_relaxed);
        ShardRunner runner(cfg_, opt_, slot.spec);
        slot.running.store(true, std::memory_order_release);
        try {
          ShardRunner::Outcome out = runner.run(&slot.progress, &slot.cancel);
          slot.running.store(false, std::memory_order_release);
          slot.outcome = std::move(out);
          slot.report.done = true;
          slot.report.error.clear();
          break;
        } catch (const ShardStall& e) {
          slot.running.store(false, std::memory_order_release);
          std::string msg = std::string("stall (phase ") +
                            sim::name(e.phase());
          if (!e.channel().empty()) msg += " on " + e.channel();
          msg += "): ";
          msg += e.what();
          slot.report.error = std::move(msg);
        } catch (const std::exception& e) {
          slot.running.store(false, std::memory_order_release);
          slot.report.error = e.what();
        }
      }
      finished.fetch_add(1, std::memory_order_release);
    }
  };

  // ---- stall watchdog -------------------------------------------------------
  std::thread watchdog;
  if (opt_.stall_timeout_ms > 0) {
    watchdog = std::thread([&] {
      std::vector<std::uint64_t> last(slots.size(), 0);
      std::vector<std::chrono::steady_clock::time_point> since(
          slots.size(), std::chrono::steady_clock::now());
      const auto poll = std::chrono::milliseconds(
          opt_.watchdog_poll_ms == 0 ? 1 : opt_.watchdog_poll_ms);
      while (finished.load(std::memory_order_acquire) < slots.size()) {
        std::this_thread::sleep_for(poll);
        const auto now = std::chrono::steady_clock::now();
        for (std::size_t i = 0; i < slots.size(); ++i) {
          Slot& slot = *slots[i];
          const std::uint64_t p =
              slot.progress.load(std::memory_order_relaxed);
          if (!slot.running.load(std::memory_order_acquire) || p != last[i]) {
            last[i] = p;
            since[i] = now;
            continue;
          }
          if (!slot.cancel.load(std::memory_order_relaxed) &&
              now - since[i] >
                  std::chrono::milliseconds(opt_.stall_timeout_ms)) {
            slot.report.wedged = true;
            slot.cancel.store(true, std::memory_order_relaxed);
          }
        }
      }
    });
  }

  const unsigned workers = static_cast<unsigned>(std::min<std::size_t>(
      opt_.concurrency == 0 ? 1 : opt_.concurrency, slots.size()));
  std::vector<std::thread> crew;
  crew.reserve(workers > 0 ? workers - 1 : 0);
  for (unsigned w = 1; w < workers; ++w) crew.emplace_back(work);
  work();
  for (std::thread& t : crew) t.join();
  if (watchdog.joinable()) watchdog.join();

  // ---- merge ----------------------------------------------------------------
  // Shard states fold together in shard-id order — a deterministic
  // order, so the merged sums (and the boundary-granularity rank/MTD
  // trajectories probed along the way) are reproducible run to run.
  const auto t_merge = std::chrono::steady_clock::now();
  ShardedResult res;
  res.target = cfg_.inst->name;
  res.total_traces = cfg_.num_traces;
  detail::AttackState merged(*cfg_.attack, *cfg_.inst);
  dpa::MtdScan mtd;
  for (const std::unique_ptr<Slot>& sp : slots) {
    Slot& slot = *sp;
    ShardReport rep = slot.report;
    rep.shard = slot.spec.shard;
    rep.lo = slot.spec.lo;
    rep.hi = slot.spec.hi;
    rep.committed = slot.spec.lo;
    if (slot.outcome) {
      const ShardRunner::Outcome& out = *slot.outcome;
      rep.resumed_from = out.resumed_from;
      rep.recovery = out.recovery_notes;
      rep.committed = out.final_state.next;
      rep.digest_hex = digest_hex(out.final_state.digest);
      merged.merge_serialized(out.final_state.acc_state);
    } else {
      // Degraded shard: every attempt failed. Fall back to its last
      // durable checkpoint so the partial sums it DID commit still
      // count — the result reports honest partial coverage instead of
      // discarding paid-for traces.
      std::string notes;
      const auto rec = recover_checkpoint(
          opt_.checkpoint_dir, slot.spec.shard, cfg_.fingerprint,
          slot.spec.lo, slot.spec.hi,
          [&](const ShardCheckpoint& c) {
            // Veto un-restorable states with a twin; `merged` stays
            // untouched until the record is known good.
            detail::AttackState probe(*cfg_.attack, *cfg_.inst);
            probe.restore(c.acc_state);
          },
          &notes);
      rep.recovery = notes;
      if (rec) {
        rep.resumed_from = rec->file;
        rep.committed = rec->ckpt.next;
        rep.digest_hex = digest_hex(rec->ckpt.digest);
        if (rec->ckpt.next > slot.spec.lo)
          merged.merge_serialized(rec->ckpt.acc_state);
      }
    }
    const std::uint64_t contributed = rep.committed - rep.lo;
    if (contributed > 0) {
      res.covered += static_cast<std::size_t>(contributed);
      // Boundary probes read a copy: a read folds the pending class
      // sums (dpa/online.hpp), and the verdict must be the single fold
      // of all merged shard sums, however many shards report on the way.
      const detail::AttackState view = merged;
      res.rank_trajectory.push_back({res.covered, view.rank_now()});
      if (view.mtd_enabled()) mtd.probe(view.mtd_success_now(), res.covered);
    }
    res.shards.push_back(std::move(rep));
  }
  if (res.covered > 0) {
    AttackOutcome out = merged.outcome();
    if (merged.mtd_enabled() && out.true_key_rank == 0) out.mtd = mtd.value();
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
