// TimeWheel — the event queue of both event kernels (CompiledSimulator,
// BatchSimulator): a two-level calendar queue (Brown, "Calendar Queues",
// CACM 1988) whose pop order is exactly the order of `Earlier`.
//
// Events bucket by tick = floor(t_ps / width), with the width derived
// from the compiled netlist (4x the smallest gate delay) and a
// power-of-two bucket count covering the delay range, clamped to
// [64, 4096], so push/pop are O(1) amortized instead of a binary heap's
// O(log n). Four structures hold the queued events:
//
//   * buckets_[tick & mask] — the events of an absolute tick (and, after
//     a backward re-anchor, possibly of later laps of the same bucket);
//   * occupied_ — a bitmap over buckets, so the refill scan skips empty
//     ticks with find-first-set instead of a bucket walk;
//   * ready_ — the sorted batch of the tick being served. An event
//     pushed into that tick (a gate delay below the bucket width) is
//     inserted in order after the unserved position, so it pops exactly
//     where the total order puts it;
//   * far_ — a min-heap of events beyond one rotation; they migrate
//     into the buckets as the wheel turns, and an empty wheel jumps
//     straight to the far-list's earliest tick.
//
// Refill takes the next occupied bucket whole (copied, so every vector
// keeps its own capacity and the steady state allocates nothing) when
// all its residents belong to the expected tick; otherwise a cold
// exact-tick rotation scan runs, and events stranded beyond one rotation
// re-anchor the wheel on the earliest of them. A push behind the served
// tick (a drive behind `now` while the kernel is idle) re-anchors the
// wheel backwards; multi-lap residents stay correct because extraction
// always checks the exact tick.
//
// `Event` needs a `double t_ps` member; `Earlier` is a strict weak order
// on events that sorts by t_ps first. Pop order is fixed by `Earlier`
// alone: when it is a total order (the kernels' canonical (t_ps, net,
// seq) key, or the batch kernel's merged (t_ps, net) key, whose equal
// keys are indistinguishable), any push sequence pops in the order a
// std::priority_queue with the same comparator pops it
// (tests/test_time_wheel.cpp).
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "qdi/sim/compiled_netlist.hpp"

namespace qdi::sim::detail {

template <typename Event, typename Earlier>
class TimeWheel {
 public:
  /// Geometry of `cn`: buckets of 4x the smallest gate delay (the
  /// measured sweet spot: coarser ticks batch more events per refill,
  /// and the ready-batch insertion keeps the served tick exact), enough
  /// of them to cover the largest, so only the environment's phase-gap
  /// and period-alignment jumps reach the far-list. The ready batch starts
  /// sized for one burst: every input-driven net switching at once plus
  /// the widest fanout.
  explicit TimeWheel(const CompiledNetlist& cn)
      : TimeWheel(4.0 * cn.min_delay_ps(), cn.max_delay_ps(), burst(cn)) {}

  /// Explicit geometry: ticks of `bucket_width_ps` (1 ps when not
  /// positive), enough buckets to see `horizon_ps` ahead.
  TimeWheel(double bucket_width_ps, double horizon_ps,
            std::size_t ready_reserve) {
    if (!(bucket_width_ps > 0.0)) bucket_width_ps = 1.0;
    inv_width_ = 1.0 / bucket_width_ps;
    const auto span =
        static_cast<std::uint64_t>(horizon_ps * inv_width_) + 2;
    num_buckets_ = std::clamp<std::uint64_t>(std::bit_ceil(span), 64, 4096);
    mask_ = num_buckets_ - 1;
    buckets_.resize(num_buckets_);
    occupied_.resize(num_buckets_ / 64);
    ready_.reserve(ready_reserve);
  }

  std::size_t size() const noexcept { return size_; }
  bool empty() const noexcept { return size_ == 0; }

  void push(const Event& ev) {
    ++size_;
    const std::uint64_t tick = tick_of(ev);
    if (size_ == 1) {
      // Queue was empty: re-anchor the wheel on this event.
      cur_tick_ = tick;
      ready_.clear();
      ready_pos_ = 0;
    } else if (tick < cur_tick_) {
      // Only reachable from drives behind `now` while the kernel is idle
      // (commits always schedule at t >= now, whose tick is the one
      // being served). Re-anchor; multi-lap bucket residents stay
      // correct because extraction filters by exact tick.
      spill_ready();
      cur_tick_ = tick;
    }
    if (ready_pos_ < ready_.size() && tick == cur_tick_) {
      // Insertion into the tick being served: keep the batch sorted.
      const auto unserved =
          ready_.begin() + static_cast<std::ptrdiff_t>(ready_pos_);
      ready_.insert(std::upper_bound(unserved, ready_.end(), ev, Earlier{}),
                    ev);
      return;
    }
    if (tick - cur_tick_ < num_buckets_) {
      bucket_insert(ev);
    } else {
      far_.push_back(ev);
      std::push_heap(far_.begin(), far_.end(), Later{});
    }
  }

  /// Remove and return the earliest event. The queue must not be empty.
  Event pop() {
    if (ready_pos_ >= ready_.size()) refill();
    --size_;
    return ready_[ready_pos_++];
  }

  /// The next event of the served batch (what pop() returns without a
  /// refill), or nullptr once the batch is exhausted.
  const Event* peek_served() const noexcept {
    return ready_pos_ < ready_.size() ? &ready_[ready_pos_] : nullptr;
  }

  /// Capacity-retaining reset to the empty queue.
  void clear() {
    if (wheel_count_ > 0)
      for (std::vector<Event>& b : buckets_) b.clear();
    std::fill(occupied_.begin(), occupied_.end(), std::uint64_t{0});
    wheel_count_ = 0;
    ready_.clear();
    ready_pos_ = 0;
    far_.clear();
    cur_tick_ = 0;
    size_ = 0;
  }

  /// Drop every queued event matching `pred` in place; returns how many.
  /// The survivors keep their pop order.
  template <typename Pred>
  std::size_t erase_if(Pred pred) {
    std::size_t removed = 0;
    for (std::uint64_t bi = 0; bi < num_buckets_; ++bi) {
      std::vector<Event>& b = buckets_[bi];
      if (b.empty()) continue;
      const std::size_t n = std::erase_if(b, pred);
      removed += n;
      wheel_count_ -= n;
      if (b.empty()) clear_occupied(bi);
    }
    if (const std::size_t n = std::erase_if(far_, pred); n > 0) {
      removed += n;
      std::make_heap(far_.begin(), far_.end(), Later{});
    }
    // The unserved ready remainder is sorted; remove_if keeps its order.
    const auto it = std::remove_if(
        ready_.begin() + static_cast<std::ptrdiff_t>(ready_pos_), ready_.end(),
        pred);
    removed += static_cast<std::size_t>(ready_.end() - it);
    ready_.erase(it, ready_.end());
    size_ -= removed;
    return removed;
  }

 private:
  struct Later {
    bool operator()(const Event& a, const Event& b) const noexcept {
      return Earlier{}(b, a);
    }
  };

  static std::size_t burst(const CompiledNetlist& cn) {
    std::size_t inputs = 0;
    std::uint32_t widest = 0;
    for (std::uint32_t n = 0; n < cn.num_nets(); ++n) {
      inputs += cn.driven_by_input[n] != 0 ? 1 : 0;
      widest = std::max(widest,
                        cn.fanout_offset[n + 1] - cn.fanout_offset[n]);
    }
    return inputs + widest;
  }

  std::uint64_t tick_of(const Event& ev) const noexcept {
    return static_cast<std::uint64_t>(ev.t_ps * inv_width_);
  }
  void set_occupied(std::uint64_t b) noexcept {
    occupied_[b >> 6] |= std::uint64_t{1} << (b & 63);
  }
  void clear_occupied(std::uint64_t b) noexcept {
    occupied_[b >> 6] &= ~(std::uint64_t{1} << (b & 63));
  }

  void bucket_insert(const Event& ev) {
    const std::uint64_t b = tick_of(ev) & mask_;
    if (buckets_[b].empty()) set_occupied(b);
    buckets_[b].push_back(ev);
    ++wheel_count_;
  }

  /// Push the unserved remainder of the ready batch back into the wheel
  /// (cold path: only before re-anchoring the wheel backwards).
  void spill_ready() {
    for (std::size_t i = ready_pos_; i < ready_.size(); ++i)
      bucket_insert(ready_[i]);
    ready_.clear();
    ready_pos_ = 0;
  }

  /// Next occupied bucket index scanning one full wrap from `start`;
  /// num_buckets_ when the wheel is empty.
  std::uint64_t find_next_occupied(std::uint64_t start) const noexcept {
    const std::size_t words = occupied_.size();
    std::size_t w = start >> 6;
    std::uint64_t word = occupied_[w] & (~std::uint64_t{0} << (start & 63));
    for (std::size_t i = 0; i < words; ++i) {
      if (word != 0)
        return (static_cast<std::uint64_t>(w) << 6) +
               static_cast<std::uint64_t>(std::countr_zero(word));
      w = w + 1 == words ? 0 : w + 1;
      word = occupied_[w];
    }
    // Wrapped fully: only the skipped low bits of the start word remain.
    word = occupied_[start >> 6] & ~(~std::uint64_t{0} << (start & 63));
    if (word != 0)
      return ((start >> 6) << 6) +
             static_cast<std::uint64_t>(std::countr_zero(word));
    return num_buckets_;
  }

  void sort_ready() {
    // Batches are typically a handful of events: insertion sort beats the
    // introsort dispatch there, and both are exact on the total order.
    if (ready_.size() <= 16) {
      for (std::size_t i = 1; i < ready_.size(); ++i) {
        const Event ev = ready_[i];
        std::size_t j = i;
        for (; j > 0 && Earlier{}(ev, ready_[j - 1]); --j)
          ready_[j] = ready_[j - 1];
        ready_[j] = ev;
      }
    } else {
      std::sort(ready_.begin(), ready_.end(), Earlier{});
    }
  }

  /// Common-case refill: the next occupied bucket holds exactly one
  /// tick's events (multi-lap residents need a backward re-anchor), so
  /// the whole bucket is copied into the ready batch. Returns false
  /// without extracting anything on the cold cases.
  bool fast_refill() {
    const std::uint64_t s = cur_tick_ & mask_;
    const std::uint64_t b = find_next_occupied(s);
    if (b == num_buckets_) return false;  // wheel empty
    const std::uint64_t tick = cur_tick_ + ((b - s) & mask_);
    std::vector<Event>& bucket = buckets_[b];
    for (const Event& ev : bucket)
      if (tick_of(ev) != tick) return false;  // multi-lap: cold path
    ready_.assign(bucket.begin(), bucket.end());
    bucket.clear();
    clear_occupied(b);
    wheel_count_ -= ready_.size();
    cur_tick_ = tick;
    sort_ready();
    return true;
  }

  /// Exact-tick rotation scan — correct in every state the wheel can
  /// reach, at a bucket walk's cost. Only runs when fast_refill declined.
  bool cold_refill() {
    for (std::uint64_t step = 0; step < num_buckets_; ++step) {
      const std::uint64_t tick = cur_tick_ + step;
      std::vector<Event>& b = buckets_[tick & mask_];
      if (b.empty()) continue;
      for (std::size_t i = 0; i < b.size();) {
        if (tick_of(b[i]) == tick) {
          ready_.push_back(b[i]);
          b[i] = b.back();
          b.pop_back();
        } else {
          ++i;  // a later lap of this bucket
        }
      }
      if (b.empty()) clear_occupied(tick & mask_);
      if (!ready_.empty()) {
        wheel_count_ -= ready_.size();
        cur_tick_ = tick;
        sort_ready();
        return true;
      }
    }
    return false;
  }

  void refill() {
    ready_.clear();
    ready_pos_ = 0;
    for (;;) {
      if (wheel_count_ == 0) {
        // Everything queued sits in the far-list: jump the wheel
        // straight to its earliest tick instead of scanning empty
        // buckets.
        cur_tick_ = tick_of(far_.front());
      }
      // Migrate far-list events that fell inside the horizon as the
      // wheel turned. They all have ticks > cur_tick_ of any previous
      // serve, so nothing is migrated late.
      while (!far_.empty() &&
             tick_of(far_.front()) < cur_tick_ + num_buckets_) {
        std::pop_heap(far_.begin(), far_.end(), Later{});
        bucket_insert(far_.back());
        far_.pop_back();
      }
      if (fast_refill()) return;
      if (cold_refill()) return;
      if (wheel_count_ > 0) {
        // Stranded beyond one rotation (possible only after a backward
        // re-anchor): jump to the earliest event of the buckets and the
        // far-list — a push after the re-anchor can put a far-list event
        // ahead of every stranded resident. Cold path.
        std::uint64_t min_tick =
            far_.empty() ? ~std::uint64_t{0} : tick_of(far_.front());
        for (const std::vector<Event>& b : buckets_)
          for (const Event& ev : b) min_tick = std::min(min_tick, tick_of(ev));
        cur_tick_ = min_tick;
      }
      // else: loop re-anchors on the far-list and migrates.
    }
  }

  std::vector<std::vector<Event>> buckets_;
  std::vector<std::uint64_t> occupied_;
  std::vector<Event> ready_;
  std::size_t ready_pos_ = 0;
  std::vector<Event> far_;  // min-heap (by Earlier) beyond one rotation
  std::uint64_t cur_tick_ = 0;
  std::uint64_t num_buckets_ = 0;
  std::uint64_t mask_ = 0;
  double inv_width_ = 1.0;
  std::size_t wheel_count_ = 0;  // events in buckets_
  std::size_t size_ = 0;         // all queued events
};

}  // namespace qdi::sim::detail
