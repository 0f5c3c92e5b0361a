// TimeWheel — the calendar queue both event kernels pop from — checked
// against std::priority_queue with the same comparator.
//
// The kernels' commit order, and so every power trace, is the wheel's
// pop order, so the wheel must pop exactly what a binary heap pops, for
// both key types it serves: the scalar kernels' unique (t, net, seq)
// events and the batch kernel's merged (t, net) keys (duplicates
// allowed). The randomized streams mimic a kernel's life: idle phases
// that drive inputs anywhere around `now` (pushes behind the served tick
// re-anchor the wheel backwards and leave multi-lap residents, which
// force the cold refill), serve phases whose pops schedule fanout into
// the tick being served, within one rotation, and beyond it (far-list
// migration, empty-wheel jumps), and tombstone purges in mid-stream.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <queue>
#include <random>
#include <vector>

#include "qdi/sim/time_wheel.hpp"

namespace qs = qdi::sim;

namespace {

// 10 ps ticks; a 300 ps horizon rounds up to the minimum 64 buckets, so
// one rotation spans 640 ps.
constexpr double kWidth = 10.0;
constexpr double kHorizon = 300.0;
constexpr double kRotation = 64 * kWidth;

/// The scalar kernels' event: (t, net, seq) is unique per event.
struct SeqEvent {
  double t_ps;
  std::uint64_t seq;
  std::uint32_t net;
};
struct SeqEarlier {
  bool operator()(const SeqEvent& a, const SeqEvent& b) const noexcept {
    if (a.t_ps != b.t_ps) return a.t_ps < b.t_ps;
    if (a.net != b.net) return a.net < b.net;
    return a.seq < b.seq;
  }
};

/// The batch kernel's merged key: equal (t, net) keys may repeat.
struct KeyEvent {
  double t_ps;
  std::uint32_t net;
};
struct KeyEarlier {
  bool operator()(const KeyEvent& a, const KeyEvent& b) const noexcept {
    if (a.t_ps != b.t_ps) return a.t_ps < b.t_ps;
    return a.net < b.net;
  }
};

template <typename E>
E make_event(double t_ps, std::uint32_t net, std::uint64_t seq) {
  if constexpr (std::is_same_v<E, SeqEvent>)
    return SeqEvent{t_ps, seq, net};
  else
    return KeyEvent{t_ps, net};
}

/// A TimeWheel and a priority_queue fed the same operations; every pop
/// must agree.
template <typename E, typename Earlier>
class Checked {
 public:
  Checked() : wheel_(kWidth, kHorizon, 0) {}

  std::size_t size() const { return ref_.size(); }

  void push(const E& ev) {
    wheel_.push(ev);
    ref_.push(ev);
    EXPECT_EQ(wheel_.size(), ref_.size());
  }

  E pop() {
    const E* served = wheel_.peek_served();
    const bool peeked = served != nullptr;
    const E peek = peeked ? *served : E{};
    const E got = wheel_.pop();
    const E want = ref_.top();
    ref_.pop();
    EXPECT_TRUE(same(got, want))
        << "popped t=" << got.t_ps << " net=" << got.net
        << ", the heap pops t=" << want.t_ps << " net=" << want.net;
    if (peeked) {
      EXPECT_TRUE(same(got, peek)) << "peek_served() did not show the pop";
    }
    EXPECT_EQ(wheel_.size(), ref_.size());
    return want;
  }

  template <typename Pred>
  void erase_if(Pred pred) {
    std::vector<E> keep;
    std::size_t dropped = 0;
    for (; !ref_.empty(); ref_.pop()) {
      if (pred(ref_.top()))
        ++dropped;
      else
        keep.push_back(ref_.top());
    }
    for (const E& ev : keep) ref_.push(ev);
    EXPECT_EQ(wheel_.erase_if(pred), dropped);
    EXPECT_EQ(wheel_.size(), ref_.size());
  }

 private:
  struct Later {
    bool operator()(const E& a, const E& b) const noexcept {
      return Earlier{}(b, a);
    }
  };
  static bool same(const E& a, const E& b) {
    return !Earlier{}(a, b) && !Earlier{}(b, a);
  }

  qs::detail::TimeWheel<E, Earlier> wheel_;
  std::priority_queue<E, std::vector<E>, Later> ref_;
};

template <typename E, typename Earlier>
void run_stream(std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  const auto uniform = [&](double lo, double hi) {
    return std::uniform_real_distribution<double>(lo, hi)(rng);
  };
  const auto chance = [&](double p) { return uniform(0.0, 1.0) < p; };
  // A third of the times snap up to a 5 ps grid, so equal times meet and
  // the net (then seq) breaks the tie.
  const auto at = [&](double t) {
    t = std::max(t, 0.0);
    return chance(0.3) ? std::ceil(t / 5.0) * 5.0 : t;
  };
  const auto net = [&] { return static_cast<std::uint32_t>(rng() % 16); };

  Checked<E, Earlier> q;
  double now = 0.0;
  std::uint64_t seq = 1;
  for (int episode = 0; episode < 80; ++episode) {
    // Idle phase: drives anywhere within three rotations of `now`.
    const int drives = 1 + static_cast<int>(rng() % 6);
    for (int i = 0; i < drives; ++i)
      q.push(make_event<E>(at(now + uniform(-3.0, 3.0) * kRotation), net(),
                           seq++));
    if (chance(0.15)) {
      const std::uint32_t k = net() % 3;
      q.erase_if([k](const E& ev) { return ev.net % 3 == k; });
    }
    // Serve phase: part of the queue, or all of it.
    const std::size_t budget =
        chance(0.3) ? ~std::size_t{0} : static_cast<std::size_t>(rng() % 64);
    for (std::size_t n = 0; n < budget && q.size() > 0; ++n) {
      const E ev = q.pop();
      now = ev.t_ps;
      // Mean fanout 1.5, so a serve phase stops spawning after 96 pops
      // to let a full drain end.
      const int fanout =
          n < 96 && q.size() < 200 ? static_cast<int>(rng() % 4) : 0;
      for (int i = 0; i < fanout; ++i) {
        const double r = uniform(0.0, 1.0);
        const double delay = r < 0.45   ? uniform(0.0, kWidth)
                             : r < 0.85 ? uniform(kWidth, kRotation)
                                        : uniform(kRotation, 4.0 * kRotation);
        const E child = make_event<E>(at(now + delay), net(), seq++);
        q.push(child);
        if (chance(0.05)) q.push(child);  // a reborn key: a duplicate
      }
      if (chance(0.02)) {
        const std::uint32_t k = net();
        q.erase_if([k](const E& ev) { return ev.net == k; });
      }
      if (::testing::Test::HasFailure()) return;
    }
  }
  while (q.size() > 0 && !::testing::Test::HasFailure()) q.pop();
}

}  // namespace

TEST(TimeWheel, SeqKeyedStreamsPopLikeAPriorityQueue) {
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    SCOPED_TRACE(seed);
    run_stream<SeqEvent, SeqEarlier>(seed);
    if (HasFailure()) return;
  }
}

TEST(TimeWheel, MergedKeyStreamsPopLikeAPriorityQueue) {
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    SCOPED_TRACE(seed);
    run_stream<KeyEvent, KeyEarlier>(seed);
    if (HasFailure()) return;
  }
}

TEST(TimeWheel, EmptyWheelJumpsToTheFarList) {
  Checked<SeqEvent, SeqEarlier> q;
  q.push(SeqEvent{0.0, 1, 0});
  q.push(SeqEvent{10.0 * kRotation + 3.0, 2, 0});  // far beyond a rotation
  q.push(SeqEvent{25.0 * kRotation, 3, 1});
  EXPECT_EQ(q.pop().seq, 1u);
  EXPECT_EQ(q.pop().seq, 2u);
  EXPECT_EQ(q.pop().seq, 3u);
}

TEST(TimeWheel, BackwardReanchorKeepsLaterLapsInOrder) {
  // Anchor at t = 2000 (tick 200), then drive behind the served tick:
  // the wheel re-anchors on tick 104, and a push at tick 136 shares
  // bucket 8 with the tick-200 resident a lap later. Both refills must
  // pick that bucket's residents by exact tick, or t = 2000 pops before
  // the far-list's t = 1700.
  Checked<SeqEvent, SeqEarlier> q;
  q.push(SeqEvent{2000.0, 1, 0});
  q.push(SeqEvent{2320.0, 2, 0});
  q.push(SeqEvent{1040.0, 3, 0});  // behind the served tick: re-anchor
  q.push(SeqEvent{1360.0, 4, 0});  // bucket of t = 2000, one lap earlier
  q.push(SeqEvent{1700.0, 5, 0});  // beyond one rotation: far-list
  for (std::uint64_t want : {3u, 4u, 5u, 1u, 2u}) EXPECT_EQ(q.pop().seq, want);
}

TEST(TimeWheel, StrandedResidentsYieldToEarlierFarEvents) {
  // After a backward re-anchor, a bucket resident (t = 1500) can sit
  // beyond one rotation while a later push (t = 800) went to the
  // far-list: the wheel must serve the far event first.
  Checked<SeqEvent, SeqEarlier> q;
  q.push(SeqEvent{1500.0, 1, 0});
  q.push(SeqEvent{100.0, 2, 0});  // behind the served tick: re-anchor
  q.push(SeqEvent{800.0, 3, 0});  // beyond one rotation: far-list
  for (std::uint64_t want : {2u, 3u, 1u}) EXPECT_EQ(q.pop().seq, want);
}
