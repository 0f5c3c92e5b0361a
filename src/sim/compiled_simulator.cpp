#include "qdi/sim/compiled_simulator.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <stdexcept>

namespace qdi::sim {

using netlist::CellKind;
using netlist::kNoNet;
using netlist::NetId;

namespace {

// Queue order: earliest (t_ps, net, seq) pops first — the canonical
// total order shared with the reference engine and the batch engine
// (see Simulator::EventOrder for why net breaks timestamp ties). The
// triple is unique per event, so pop order is a total order — any
// correct scheduler yields the same commit sequence as the reference
// priority_queue.
template <typename Event>
bool later(const Event& a, const Event& b) noexcept {
  if (a.t_ps != b.t_ps) return a.t_ps > b.t_ps;
  if (a.net != b.net) return a.net > b.net;
  return a.seq > b.seq;
}

template <typename Event>
bool earlier(const Event& a, const Event& b) noexcept {
  if (a.t_ps != b.t_ps) return a.t_ps < b.t_ps;
  if (a.net != b.net) return a.net < b.net;
  return a.seq < b.seq;
}

std::uint64_t next_power_of_two(std::uint64_t v) noexcept {
  std::uint64_t p = 1;
  while (p < v) p <<= 1;
  return p;
}

/// Process-unique epoch ids (epochs may move between simulator clones).
std::uint64_t next_epoch_id() noexcept {
  static std::atomic<std::uint64_t> counter{0};
  return counter.fetch_add(1, std::memory_order_relaxed) + 1;
}

}  // namespace

CompiledSimulator::CompiledSimulator(std::shared_ptr<const CompiledNetlist> cn)
    : cn_(std::move(cn)) {
  const std::uint32_t nn = cn_->num_nets();
  values_.resize(nn);
  pins_.resize(cn_->num_cells());
  pending_seq_.resize(nn);
  pending_value_.resize(nn);
  pending_slew_.resize(nn);
  dirty_mark_.resize(nn);

  // Bucket width = 4x the smallest gate delay — measured sweet spot:
  // coarser ticks batch more events per refill (fewer scans and
  // sorts), and events a commit schedules into the tick currently
  // being served (delay < width — common at this width) are handled
  // exactly by the sorted ready-batch insertion in push_event. Size
  // the wheel to cover the delay range (how far ahead of `now` gate
  // activity can reach) so the overflow far-list only sees the
  // environment's phase-gap and period-alignment jumps.
  double width = 4.0 * cn_->min_delay_ps();
  if (!(width > 0.0)) width = 1.0;
  inv_bucket_width_ = 1.0 / width;
  const auto span = static_cast<std::uint64_t>(
      cn_->max_delay_ps() * inv_bucket_width_) + 2;
  num_buckets_ = std::clamp<std::uint64_t>(next_power_of_two(span), 64, 4096);
  bucket_mask_ = num_buckets_ - 1;
  buckets_.resize(num_buckets_);
  occupied_.resize(num_buckets_ / 64);
  // Every vector of the wheel keeps its own capacity (a refill copies a
  // bucket into the ready batch rather than trading storage with it), so
  // each grows only up to its own largest load and the steady-state
  // loop allocates nothing once the warm-up traces have seen it. The
  // ready batch holds a whole tick, so it starts sized for one burst:
  // every input-driven net switching at once plus the widest fanout.
  std::size_t inputs = 0;
  std::uint32_t widest = 0;
  for (NetId n = 0; n < nn; ++n) {
    inputs += cn_->driven_by_input[n] != 0 ? 1 : 0;
    widest = std::max(widest,
                      cn_->fanout_offset[n + 1] - cn_->fanout_offset[n]);
  }
  ready_.reserve(inputs + widest);
  reset_state();
}

void CompiledSimulator::clear_queue() {
  if (wheel_count_ > 0)
    for (std::vector<Event>& b : buckets_) b.clear();
  std::fill(occupied_.begin(), occupied_.end(), std::uint64_t{0});
  wheel_count_ = 0;
  ready_.clear();
  ready_pos_ = 0;
  overflow_.clear();
  cur_tick_ = 0;
  queue_size_ = 0;
  tombstones_ = 0;
}

void CompiledSimulator::clear_dirty() {
  for (NetId n : dirty_) dirty_mark_[n] = 0;
  dirty_.clear();
}

void CompiledSimulator::mark_dirty(NetId net) {
  if (dirty_mark_[net] == 0) {
    dirty_mark_[net] = 1;
    dirty_.push_back(net);
  }
}

void CompiledSimulator::reset_state() {
  // Capacity-retaining memset: the arrays were sized at construction and
  // never reallocate across epochs.
  std::fill(values_.begin(), values_.end(), char{0});
  std::fill(pins_.begin(), pins_.end(), std::uint8_t{0});
  std::fill(pending_seq_.begin(), pending_seq_.end(), std::uint64_t{0});
  std::fill(pending_value_.begin(), pending_value_.end(), char{0});
  std::fill(pending_slew_.begin(), pending_slew_.end(), 0.0);
  clear_queue();
  forces_.clear();
  clear_dirty();
  baseline_epoch_ = 0;
  next_seq_ = 1;
  now_ = 0.0;
  log_.clear();
  glitches_ = 0;
  total_transitions_ = 0;
}

CompiledSimulator::Epoch CompiledSimulator::save_epoch() {
  if (queue_size_ != 0)
    throw std::logic_error(
        "CompiledSimulator::save_epoch: event queue must be drained "
        "(run run_until_stable first)");
  if (!forces_.empty())
    throw std::logic_error(
        "CompiledSimulator::save_epoch: clear_forces() before snapshotting "
        "(an epoch must capture fault-free state)");
  Epoch e;
  e.values = values_;
  e.now = now_;
  e.next_seq = next_seq_;
  e.glitches = glitches_;
  e.total_transitions = total_transitions_;
  e.id = next_epoch_id();
  // The live state now coincides with `e`: future commits accumulate the
  // dirty set against it.
  clear_dirty();
  baseline_epoch_ = e.id;
  return e;
}

void CompiledSimulator::restore_epoch(const Epoch& e) {
  if (queue_size_ != 0)
    throw std::logic_error(
        "CompiledSimulator::restore_epoch: event queue must be drained "
        "(run run_until_stable first)");
  if (e.values.size() != values_.size())
    throw std::invalid_argument(
        "CompiledSimulator::restore_epoch: epoch geometry does not match "
        "this netlist");
  // A drained queue implies no live pending events (pending_seq_ is all
  // zero), so only net values diverge from the snapshot — and only at
  // the nets committed since the state last coincided with it.
  if (e.id != 0 && e.id == baseline_epoch_) {
    for (NetId n : dirty_) {
      // Most dirty nets returned to their snapshot value within the
      // cycle (return-to-zero); their pin bits are already right.
      if (values_[n] == e.values[n]) continue;
      values_[n] = e.values[n];
      sync_pins(n);
    }
    clear_dirty();
  } else {
    std::copy(e.values.begin(), e.values.end(), values_.begin());
    rebuild_pins();
    clear_dirty();
    baseline_epoch_ = e.id;
  }
  forces_.clear();
  next_seq_ = e.next_seq;
  now_ = e.now;
  log_.clear();
  glitches_ = e.glitches;
  total_transitions_ = e.total_transitions;
}

void CompiledSimulator::initialize() {
  const std::uint32_t nc = cn_->num_cells();
  for (std::uint32_t c = 0; c < nc; ++c) evaluate_cell(c, now_);
}

void CompiledSimulator::drive(NetId net, bool value, double at_ps) {
  if (net >= values_.size() || !cn_->driven_by_input[net])
    throw std::invalid_argument(
        "CompiledSimulator::drive: only primary-input nets can be driven");
  schedule(net, value, at_ps, 0.0);
}

void CompiledSimulator::arm_force(NetId net, bool value, double from_ps,
                                  double until_ps) {
  if (net >= values_.size())
    throw std::invalid_argument("CompiledSimulator::arm_force: no such net");
  if (from_ps < now_)
    throw std::invalid_argument(
        "CompiledSimulator::arm_force: force window starts in the past");
  if (!(until_ps > from_ps))
    throw std::invalid_argument(
        "CompiledSimulator::arm_force: empty force window");
  forces_.arm(net, value, from_ps, until_ps);
  // Marker events carry flag bits in seq, bypassing the pending arrays —
  // inertial filtering can neither cancel them nor be confused by them.
  push_event(Event{from_ps, kForceMarkerFlag | next_seq_++, net, value});
  if (std::isfinite(until_ps))
    push_event(Event{until_ps, kForceMarkerFlag | kForceReleaseBit | next_seq_++,
                     net, value});
}

void CompiledSimulator::handle_force_marker(const Event& ev) {
  now_ = ev.t_ps;
  if ((ev.seq & kForceReleaseBit) == 0) {
    NetForce* f = forces_.find(ev.net);
    if (f == nullptr) return;  // force was cleared after arming
    f->active = true;
    // Any in-flight event on the net yields to the force; its value is
    // shadowed first (a drive scheduled before the window opened but
    // landing inside it must still replay at release). The forced edge
    // then schedules (or dedupes) against the committed value.
    if (pending_seq_[ev.net] != 0) {
      f->shadow_valid = true;
      f->shadow_value = pending_value_[ev.net];
      pending_seq_[ev.net] = 0;
      ++tombstones_;  // the orphaned event pops as stale later
    }
    schedule(ev.net, f->value, ev.t_ps, 0.0);
  } else {
    NetForce rec;
    if (!forces_.take(ev.net, rec)) return;
    const netlist::CellId driver = cn_->source().net(ev.net).driver;
    if (driver == netlist::kNoCell) return;
    if (cn_->driven_by_input[ev.net]) {
      // Replay what the environment drove while the force held the net.
      if (rec.shadow_valid) schedule(ev.net, rec.shadow_value, ev.t_ps, 0.0);
    } else {
      // The net recovers its combinational value one gate delay after
      // the release, like a node let go by a probe.
      evaluate_cell(driver, ev.t_ps);
    }
  }
}

void CompiledSimulator::push_event(const Event& ev) {
  ++queue_size_;
  const std::uint64_t tick = tick_of(ev.t_ps);
  if (queue_size_ == 1) {
    // Queue was empty: re-anchor the wheel on this event.
    cur_tick_ = tick;
    ready_.clear();
    ready_pos_ = 0;
  } else if (tick < cur_tick_) {
    // Only reachable from drive() calls behind `now` while the loop is
    // idle (commits always schedule at t >= now, whose tick is the one
    // being served). Re-anchor; multi-lap bucket residents stay correct
    // because extraction filters by exact tick.
    spill_ready();
    cur_tick_ = tick;
  }
  if (ready_pos_ < ready_.size() && tick == cur_tick_) {
    // Insertion into the tick currently being served: keep the batch
    // sorted. The event sorts after everything already popped (t >= now
    // and its seq is the largest yet), so pop order stays exact.
    ready_.insert(std::upper_bound(ready_.begin() +
                                       static_cast<std::ptrdiff_t>(ready_pos_),
                                   ready_.end(), ev, earlier<Event>),
                  ev);
    return;
  }
  if (tick - cur_tick_ < num_buckets_) {
    bucket_insert(ev);
  } else {
    overflow_.push_back(ev);
    std::push_heap(overflow_.begin(), overflow_.end(), later<Event>);
  }
}

void CompiledSimulator::bucket_insert(const Event& ev) {
  const std::uint64_t b = tick_of(ev.t_ps) & bucket_mask_;
  if (buckets_[b].empty()) set_occupied(b);
  buckets_[b].push_back(ev);
  ++wheel_count_;
}

/// Push the unserved remainder of the ready batch back into the wheel
/// (cold path: only before re-anchoring the wheel backwards).
void CompiledSimulator::spill_ready() {
  for (std::size_t i = ready_pos_; i < ready_.size(); ++i)
    bucket_insert(ready_[i]);
  ready_.clear();
  ready_pos_ = 0;
}

/// Next occupied bucket index scanning one full wrap from
/// `start_bucket`; num_buckets_ when the wheel is empty.
std::uint64_t CompiledSimulator::find_next_occupied(
    std::uint64_t start_bucket) const noexcept {
  const std::size_t words = occupied_.size();
  std::size_t w = start_bucket >> 6;
  std::uint64_t word =
      occupied_[w] & (~std::uint64_t{0} << (start_bucket & 63));
  for (std::size_t i = 0; i < words; ++i) {
    if (word != 0)
      return (static_cast<std::uint64_t>(w) << 6) +
             static_cast<std::uint64_t>(std::countr_zero(word));
    w = w + 1 == words ? 0 : w + 1;
    word = occupied_[w];
  }
  // Wrapped fully: only the skipped low bits of the start word remain.
  word = occupied_[start_bucket >> 6] &
         ~(~std::uint64_t{0} << (start_bucket & 63));
  if (word != 0)
    return ((start_bucket >> 6) << 6) +
           static_cast<std::uint64_t>(std::countr_zero(word));
  return num_buckets_;
}

void CompiledSimulator::sort_ready() {
  // Batches are typically a handful of events: insertion sort beats the
  // introsort dispatch there, and both are exact on the (t, seq) order.
  if (ready_.size() <= 16) {
    for (std::size_t i = 1; i < ready_.size(); ++i) {
      const Event ev = ready_[i];
      std::size_t j = i;
      for (; j > 0 && earlier(ev, ready_[j - 1]); --j) ready_[j] = ready_[j - 1];
      ready_[j] = ev;
    }
  } else {
    std::sort(ready_.begin(), ready_.end(), earlier<Event>);
  }
}

/// Common-case refill: the next occupied bucket holds exactly one tick's
/// events (true in all normal operation — multi-lap residents require a
/// backward re-anchor), so the whole bucket is copied into the ready
/// batch. Returns false without extracting anything on the cold cases.
bool CompiledSimulator::fast_refill() {
  const std::uint64_t s = cur_tick_ & bucket_mask_;
  const std::uint64_t b = find_next_occupied(s);
  if (b == num_buckets_) return false;  // wheel empty
  const std::uint64_t tick = cur_tick_ + ((b - s) & bucket_mask_);
  std::vector<Event>& bucket = buckets_[b];
  for (const Event& ev : bucket)
    if (tick_of(ev.t_ps) != tick) return false;  // multi-lap: cold path
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
bool CompiledSimulator::cold_refill() {
  for (std::uint64_t step = 0; step < num_buckets_; ++step) {
    const std::uint64_t tick = cur_tick_ + step;
    std::vector<Event>& b = buckets_[tick & bucket_mask_];
    if (b.empty()) continue;
    for (std::size_t i = 0; i < b.size();) {
      if (tick_of(b[i].t_ps) == tick) {
        ready_.push_back(b[i]);
        b[i] = b.back();
        b.pop_back();
      } else {
        ++i;  // a later lap of this bucket
      }
    }
    if (b.empty()) clear_occupied(tick & bucket_mask_);
    if (!ready_.empty()) {
      wheel_count_ -= ready_.size();
      cur_tick_ = tick;
      sort_ready();
      return true;
    }
  }
  return false;
}

void CompiledSimulator::refill_ready() {
  ready_.clear();
  ready_pos_ = 0;
  for (;;) {
    if (wheel_count_ == 0) {
      // Everything queued sits in the far-list: jump the wheel straight
      // to its earliest tick instead of scanning empty buckets.
      cur_tick_ = tick_of(overflow_.front().t_ps);
    }
    // Migrate far-list events that fell inside the horizon as the wheel
    // turned. They all have ticks > cur_tick_ of any previous serve, so
    // nothing is migrated late.
    while (!overflow_.empty() &&
           tick_of(overflow_.front().t_ps) < cur_tick_ + num_buckets_) {
      std::pop_heap(overflow_.begin(), overflow_.end(), later<Event>);
      const Event ev = overflow_.back();
      overflow_.pop_back();
      bucket_insert(ev);
    }
    if (fast_refill()) return;
    if (cold_refill()) return;
    if (wheel_count_ > 0) {
      // Stranded beyond one rotation (possible only after a backward
      // re-anchor): jump to the earliest bucket resident. Cold path.
      std::uint64_t min_tick = ~std::uint64_t{0};
      for (const std::vector<Event>& b : buckets_)
        for (const Event& ev : b) min_tick = std::min(min_tick, tick_of(ev.t_ps));
      cur_tick_ = min_tick;
    }
    // else: loop re-anchors on the far-list and migrates.
  }
}

CompiledSimulator::Event CompiledSimulator::pop_event() {
  --queue_size_;
  if (ready_pos_ >= ready_.size()) refill_ready();
  return ready_[ready_pos_++];
}

/// Drop every tombstoned (lazily cancelled) event in place. Never
/// changes the commit sequence — tombstones are skipped at pop anyway —
/// it only bounds queue growth under pathological retraction patterns.
void CompiledSimulator::purge_tombstones() {
  const auto stale = [this](const Event& ev) {
    // Force markers are never stale: their flagged seq lives outside the
    // pending arrays entirely.
    return (ev.seq & kForceMarkerFlag) == 0 && pending_seq_[ev.net] != ev.seq;
  };
  std::size_t removed = 0;
  for (std::uint64_t bi = 0; bi < num_buckets_; ++bi) {
    std::vector<Event>& b = buckets_[bi];
    if (b.empty()) continue;
    const auto it = std::remove_if(b.begin(), b.end(), stale);
    const auto n = static_cast<std::size_t>(b.end() - it);
    b.erase(it, b.end());
    removed += n;
    wheel_count_ -= n;
    if (b.empty()) clear_occupied(bi);
  }
  {
    const auto it = std::remove_if(overflow_.begin(), overflow_.end(), stale);
    removed += static_cast<std::size_t>(overflow_.end() - it);
    overflow_.erase(it, overflow_.end());
    std::make_heap(overflow_.begin(), overflow_.end(), later<Event>);
  }
  // The unserved ready remainder is already sorted; remove_if keeps order.
  const auto it = std::remove_if(
      ready_.begin() + static_cast<std::ptrdiff_t>(ready_pos_), ready_.end(),
      stale);
  removed += static_cast<std::size_t>(ready_.end() - it);
  ready_.erase(it, ready_.end());
  queue_size_ -= removed;
  tombstones_ = 0;
}

void CompiledSimulator::schedule(NetId net, bool value, double t_ps,
                                 double slew_ps) {
  // An active force suppresses contradicting commits before sequence
  // allocation, so faulty and fault-free runs share the same event
  // numbering up to the injection point in both engines.
  if (!forces_.empty() && forces_.suppress(net, value)) return;
  // Inertial filtering — identical to Simulator::schedule.
  if (pending_seq_[net] != 0) {
    if (pending_value_[net] == static_cast<char>(value)) return;
    pending_seq_[net] = 0;  // cancel (lazy: the event stays as a tombstone)
    ++glitches_;
    if (++tombstones_ * 2 > queue_size_ && queue_size_ >= 64)
      purge_tombstones();
    if (static_cast<char>(value) == values_[net]) return;
  } else if (static_cast<char>(value) == values_[net]) {
    return;
  }
  const std::uint64_t seq = next_seq_++;
  pending_seq_[net] = seq;
  pending_value_[net] = static_cast<char>(value);
  pending_slew_[net] = slew_ps;
  push_event(Event{t_ps, seq, net, value});
}

void CompiledSimulator::evaluate_cell(std::uint32_t cell, double t_ps) {
  const CompiledNetlist& cn = *cn_;
  const CellKind k = cn.kind[cell];
  const std::uint32_t out_net = cn.output[cell];
  if (k == CellKind::Input || k == CellKind::Output || out_net == kNoNet)
    return;
  const bool out = cn.evaluate(k, pins_[cell], values_[out_net] != 0);
  schedule(out_net, out, t_ps + cn.delay_ps[cell], cn.slew_ps[cell]);
}

void CompiledSimulator::sync_pins(NetId net) noexcept {
  const CompiledNetlist& cn = *cn_;
  const auto v = static_cast<std::uint8_t>(values_[net] != 0);
  for (std::uint32_t i = cn.fanout_offset[net]; i < cn.fanout_offset[net + 1];
       ++i) {
    const std::uint8_t pin = cn.fanout_pin[i];
    std::uint8_t& w = pins_[cn.fanout_cell[i]];
    w = static_cast<std::uint8_t>((w & ~(1u << pin)) | (v << pin));
  }
}

void CompiledSimulator::rebuild_pins() noexcept {
  const CompiledNetlist& cn = *cn_;
  for (std::uint32_t c = 0; c < cn.num_cells(); ++c) {
    unsigned w = 0;
    for (std::uint32_t i = cn.fanin_offset[c]; i < cn.fanin_offset[c + 1]; ++i)
      w |= static_cast<unsigned>(values_[cn.fanin_net[i]] != 0)
           << (i - cn.fanin_offset[c]);
    pins_[c] = static_cast<std::uint8_t>(w);
  }
}

void CompiledSimulator::commit(const Event& ev) {
  const CompiledNetlist& cn = *cn_;
  values_[ev.net] = static_cast<char>(ev.value);
  mark_dirty(ev.net);
  now_ = ev.t_ps;
  ++total_transitions_;
  if (sink_ != nullptr || log_enabled_) {
    const Transition tr{ev.t_ps, ev.net, ev.value, cn.cap_ff[ev.net],
                        pending_slew_[ev.net]};
    if (sink_ != nullptr) sink_->on_transition(tr);
    if (log_enabled_) log_.push_back(tr);
  }
  // Every pin the net drives reads its new value before any fanout cell
  // evaluates: a cell listening on the net through two pins must see
  // both move, as the reference engine's values_ walk does.
  sync_pins(ev.net);
  const std::uint32_t lo = cn.fanout_offset[ev.net];
  const std::uint32_t hi = cn.fanout_offset[ev.net + 1];
  for (std::uint32_t i = lo; i < hi; ++i)
    evaluate_cell(cn.fanout_cell[i], ev.t_ps);
}

std::size_t CompiledSimulator::run_until_stable(std::size_t max_events) {
  std::size_t committed = 0;
  while (queue_size_ != 0) {
    const Event ev = pop_event();
    if (ev.seq & kForceMarkerFlag) {  // fault-injection start/release
      handle_force_marker(ev);
      continue;
    }
    if (pending_seq_[ev.net] != ev.seq) {  // cancelled/stale
      --tombstones_;
      continue;
    }
    pending_seq_[ev.net] = 0;
    commit(ev);
    if (++committed > max_events)
      throw std::runtime_error(
          "CompiledSimulator::run_until_stable: event budget exhausted "
          "(oscillating netlist?)");
  }
  return committed;
}

}  // namespace qdi::sim
