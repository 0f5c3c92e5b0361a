// Net-force bookkeeping shared by both simulation engines — the
// mechanism underneath sim::FaultInjector (fault.hpp).
//
// A force pins one net to a value over a time window [from_ps, until_ps).
// Arming pushes two *marker events* into the engine's ordinary event
// queue (flagged in the seq word so they bypass the per-net pending
// arrays and can never be cancelled by inertial filtering):
//
//   * the start marker activates the force: the net is driven to the
//     forced value and, while active, every contradicting schedule() is
//     suppressed before it can allocate a sequence number — the last
//     suppressed external drive is remembered as the *shadow* value;
//   * the release marker (absent for stuck-at forces, whose window is
//     unbounded) deactivates the force and re-derives the net's true
//     value: gate-driven nets re-evaluate their driver (the net recovers
//     after one gate delay, like a real node released from a probe),
//     input-driven nets replay the shadow drive.
//
// Because suppression happens before sequence allocation and marker
// handling is identical in both engines, the (t_ps, net, seq) event
// stream — and hence every transition, power sample, and classification
// — stays bit-identical between the reference interpreter and the
// compiled kernel under the same armed fault. (Markers
// sort after normal events of the *same net* at the same timestamp;
// across nets the net id decides, consistently in every engine.)
#pragma once

#include <cstdint>
#include <limits>
#include <stdexcept>
#include <vector>

#include "qdi/netlist/netlist.hpp"

namespace qdi::sim {

/// Marker-event flags in the seq word. Real sequence numbers are
/// allocated from 1 upward and never reach bit 62, so flagged events
/// sort after every normal event at the same timestamp — a force takes
/// effect (and releases) only once the activity already scheduled at
/// that instant has committed.
inline constexpr std::uint64_t kForceMarkerFlag = std::uint64_t{1} << 63;
inline constexpr std::uint64_t kForceReleaseBit = std::uint64_t{1} << 62;

/// One armed force. `shadow_*` record the last suppressed external
/// drive so releasing a forced primary input restores what the
/// environment meanwhile drove.
struct NetForce {
  netlist::NetId net = netlist::kNoNet;
  bool value = false;
  double from_ps = 0.0;
  double until_ps = std::numeric_limits<double>::infinity();
  bool active = false;
  bool shadow_valid = false;
  bool shadow_value = false;
};

/// The set of armed forces of one engine. Fault campaigns arm one force
/// per injection, so lookups are a linear scan over a tiny vector.
class ForceSet {
 public:
  bool empty() const noexcept { return forces_.empty(); }
  std::size_t size() const noexcept { return forces_.size(); }
  void clear() noexcept { forces_.clear(); }

  NetForce* find(netlist::NetId net) noexcept {
    for (NetForce& f : forces_)
      if (f.net == net) return &f;
    return nullptr;
  }

  /// Register a force. One force per net: overlapping windows on the
  /// same net have no physical reading.
  NetForce& arm(netlist::NetId net, bool value, double from_ps,
                double until_ps) {
    if (find(net) != nullptr)
      throw std::invalid_argument(
          "ForceSet::arm: net already has an armed force");
    forces_.push_back(NetForce{net, value, from_ps, until_ps,
                               /*active=*/false, /*shadow_valid=*/false,
                               /*shadow_value=*/false});
    return forces_.back();
  }

  /// Remove the force on `net` into `out`; false if none is armed (a
  /// release marker may outlive its force after clear()).
  bool take(netlist::NetId net, NetForce& out) noexcept {
    for (std::size_t i = 0; i < forces_.size(); ++i) {
      if (forces_[i].net == net) {
        out = forces_[i];
        forces_[i] = forces_.back();
        forces_.pop_back();
        return true;
      }
    }
    return false;
  }

  /// True if scheduling `value` on `net` must be suppressed (an active
  /// force holds the contradicting value). Records the shadow so a
  /// forced primary input can be restored at release.
  bool suppress(netlist::NetId net, bool value) noexcept {
    NetForce* f = find(net);
    if (f == nullptr || !f->active || value == f->value) return false;
    f->shadow_valid = true;
    f->shadow_value = value;
    return true;
  }

 private:
  std::vector<NetForce> forces_;
};

}  // namespace qdi::sim
