// Cone balancing by *unsharing*.
//
// The residual asymmetry class of this library's generated circuits
// (see tests/test_symmetry.cpp, SboxOutputsAreIsomorphic) is: the two
// rails' fanin cones are structurally isomorphic — same recursive
// signature — but their *distinct* ancestor counts differ, because the
// shared decode logic below the merge trees is shared more aggressively
// on one side than the other. check_rail_symmetry rightly reports that
// as asymmetric: the per-level distinct-gate histograms (and hence the
// per-level switched capacitance available to one computation) differ.
//
// The fix is the dual of sharing: where rail r's cone is short one gate
// of kind k at level l, find a cell of that kind and level inside the
// cone whose output fans out to several in-cone sinks, clone it (same
// kind, same inputs — the clone computes the identical function), and
// rewire exactly one of those sinks to the clone. Function, protocol,
// and hazard-freedom are untouched; the cone gains one distinct cell at
// exactly (l, k). Repeating this until every rail matches the per-level
// maximum makes the channel's histograms — and, because the signatures
// were already isomorphic, the full SymmetryReport — symmetric.
//
// Channels whose asymmetry is NOT of this class (differing primary-
// input support, genuinely different structure like dr_and's 3-vs-1
// minterm merge, or no valid clone site) are left untouched and
// reported as skipped: inventing structure would change transition
// counts, which is the opposite of balancing.
//
// ---- execution ------------------------------------------------------------
//
// One serial sweep per round, in ascending channel id. Each channel visit
// walks its rails' fanin cones over the live netlist and applies every
// clone-and-rewire edit the moment it finds it, so the next deficit (and
// the next channel) sees the edited graph. Rounds after the first only
// revisit channels whose stored *footprint* (every cell the visit read:
// its cone members, evicted ones and clones included) holds a cell
// dirtied by the previous round: a clone-and-rewire can only change
// channel X's visit through a cell X already read (the moved sink and
// the cloned cell are both cone members of any channel they affect;
// foreign clones outside a cone are invisible to its membership tests).
// On aes_core the fixpoint takes four rounds, and the later ones still
// revisit about three quarters of the channels.
//
// The cone walk is the hot loop (millions of member visits per fixpoint),
// so it reads a flat CSR mirror of the netlist, stamps cone membership
// with a per-rail epoch instead of clearing a mask, and counts members in
// a dense (level, kind) histogram; clone-site lookup is bucketed by
// (level, kind) instead of rescanning every member per deficit. All of
// that scratch is reused across visits.
#include <algorithm>
#include <cstdint>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "qdi/netlist/graph.hpp"
#include "qdi/netlist/symmetry.hpp"
#include "qdi/util/parallel.hpp"
#include "qdi/xform/passes.hpp"

namespace qdi::xform {

namespace {

using netlist::Cell;
using netlist::CellId;
using netlist::CellKind;
using netlist::Channel;
using netlist::ChannelId;
using netlist::kNoCell;
using netlist::kNoNet;
using netlist::Netlist;
using netlist::NetId;
using netlist::Pin;

/// Dense histogram slot of a (level, kind) pair. Ascending slot order is
/// ascending (level, kind) order — the order deficits are filled in.
std::size_t slot_of(int level, CellKind kind) {
  return static_cast<std::size_t>(level) * netlist::kNumCellKinds +
         static_cast<std::size_t>(kind);
}

/// Dense mirror of the netlist fields the cone walk touches. Cell and
/// Net carry strings and sink vectors the walk never reads; at aes_core
/// scale (~65M member visits per round) the pointer-chasing through
/// those fat structs dominates the pass, so the walk reads these flat
/// arrays instead. Built once per pass and patched at every clone, so
/// it always equals the live netlist (a clone inherits its original's
/// level, and the rewired sink keeps its own).
struct FlatGraph {
  std::vector<CellKind> kind;            ///< per cell
  std::vector<int> level;                ///< per cell (Graph::level)
  std::vector<std::uint32_t> input_off;  ///< per cell, size num_cells+1
  std::vector<NetId> input_net;          ///< CSR payload of cell inputs
  std::vector<CellId> driver;            ///< per net

  void build(const Netlist& nl, const netlist::Graph& g) {
    const std::size_t nc = nl.num_cells();
    const std::size_t nn = nl.num_nets();
    kind.resize(nc);
    level.resize(nc);
    driver.resize(nn);
    for (NetId n = 0; n < static_cast<NetId>(nn); ++n)
      driver[n] = nl.net(n).driver;
    input_off.clear();
    input_off.reserve(nc + 1);
    input_off.push_back(0);
    input_net.clear();
    for (CellId c = 0; c < static_cast<CellId>(nc); ++c) {
      const Cell& cell = nl.cell(c);
      kind[c] = cell.kind;
      level[c] = g.level(c);
      input_net.insert(input_net.end(), cell.inputs.begin(),
                       cell.inputs.end());
      input_off.push_back(static_cast<std::uint32_t>(input_net.size()));
    }
  }

  /// Mirror of add_net + add_cell + rewire_input for one clone: `inputs`
  /// are the clone's input nets, `nn` its output net id (== driver.size()
  /// by construction), and the rewired (sink, pin) now reads `nn`. Levels
  /// are fanin-derived, so the clone inherits the original's level.
  void append_clone(CellId clone, const std::vector<NetId>& inputs,
                    int clone_level, CellKind clone_kind, NetId nn,
                    CellId sink, int sink_pin) {
    driver.push_back(clone);  // net nn: ids stay dense
    kind.push_back(clone_kind);
    level.push_back(clone_level);
    input_net.insert(input_net.end(), inputs.begin(), inputs.end());
    input_off.push_back(static_cast<std::uint32_t>(input_net.size()));
    input_net[input_off[sink] + static_cast<std::uint32_t>(sink_pin)] = nn;
  }
};

/// Epoch-stamped cone-membership scratch: one stamp array per rail slot,
/// reused across every channel visit. A cell is in rail r's cone iff its
/// stamp equals the visit epoch — clearing is a single epoch bump instead
/// of a num_cells memset per rail.
class Marks {
 public:
  void begin_visit(std::size_t rails, std::size_t capacity) {
    ++epoch_;
    if (stamps_.size() < rails) stamps_.resize(rails);
    for (std::size_t r = 0; r < rails; ++r)
      if (stamps_[r].size() < capacity) stamps_[r].resize(capacity, 0);
  }
  bool in_cone(std::size_t r, CellId c) const {
    return stamps_[r][c] == epoch_;
  }
  void set(std::size_t r, CellId c) { stamps_[r][c] = epoch_; }
  void clear(std::size_t r, CellId c) { stamps_[r][c] = 0; }

 private:
  std::vector<std::vector<std::uint32_t>> stamps_;
  std::uint32_t epoch_ = 0;
};

struct RailCone {
  /// Cone cells in traversal order. May retain evicted cells — consumers
  /// re-check membership — and clones are appended.
  std::vector<CellId> members;
  /// Distinct real gates per (level, kind) slot (see slot_of).
  std::vector<std::uint32_t> hist;
  /// Clone-site candidates per slot (dense, like hist), each list
  /// ascending by id. Built lazily on the first find_site against this
  /// rail: the common visit (already balanced, or skipped before site
  /// search) never pays for it. The lists keep their capacity across
  /// visits.
  std::vector<std::vector<CellId>> buckets;
  bool buckets_built = false;
  std::size_t input_cells = 0;
  bool driven = false;

  void reset(std::size_t slots) {
    members.clear();
    hist.assign(slots, 0);
    buckets_built = false;
    input_cells = 0;
    driven = false;
  }
};

struct CloneSite {
  CellId cell = kNoCell;
  CellId sink_cell = kNoCell;
  int sink_pin = 0;
};

class Balancer {
 public:
  Balancer(Netlist& nl, const ConeBalanceOptions& opt, PassReport& rep)
      : nl_(nl), opt_(opt), rep_(rep) {}

  void run() {
    footprints_.resize(nl_.num_channels());
    clones_of_.assign(nl_.num_channels(), 0);
    // Round 1 visits everything; later rounds only what earlier edits
    // could have re-broken.
    std::vector<ChannelId> worklist(nl_.num_channels());
    for (ChannelId id = 0; id < nl_.num_channels(); ++id) worklist[id] = id;

    flat_.build(nl_, netlist::Graph(nl_));
    bool changed = false;
    for (int round = 0; round < opt_.max_rounds && !worklist.empty();
         ++round) {
      dirty_.assign(nl_.num_cells(), 0);
      changed = false;
      for (ChannelId id : worklist) changed |= visit(id);
      if (!changed) break;
      worklist = next_worklist();
    }

    for (const auto& [id, note] : skip_notes_) {
      (void)id;
      ++rep_.channels_skipped;
      rep_.notes.push_back(note);
    }
    if (changed) {
      // Every round up to the cap added clones, so later rounds would
      // still move cells: the result is not the pass's fixpoint.
      rep_.notes.push_back("fixpoint not reached: round " +
                           std::to_string(opt_.max_rounds) +
                           " (max_rounds) still added clones; " +
                           std::to_string(rep_.cells_added) +
                           " cells added so far");
    }
    // Touched = received at least one clone, whether or not it reached
    // balance; a channel can be both touched and skipped (e.g. clone
    // budget exhausted mid-way, or re-broken by a sibling's clones).
    for (std::size_t clones : clones_of_)
      if (clones > 0) ++rep_.channels_touched;
  }

 private:
  /// Balances one channel against the live netlist; true if it cloned.
  bool visit(ChannelId id) {
    // Clones add cells and nets, never channels: `ch` stays valid.
    const Channel& ch = nl_.channel(id);
    const std::size_t rails = ch.rails.size();
    if (rails < 2) return false;
    const std::size_t budget =
        opt_.max_clones_per_channel - std::min(opt_.max_clones_per_channel,
                                               clones_of_[id]);
    marks_.begin_visit(rails, nl_.num_cells() + budget + 1);

    // A cone never ascends in level, so its roots bound the histogram.
    int top = 0;
    for (NetId rail : ch.rails)
      if (flat_.driver[rail] != kNoCell)
        top = std::max(top, flat_.level[flat_.driver[rail]]);
    const std::size_t slots =
        (static_cast<std::size_t>(top) + 1) * netlist::kNumCellKinds;
    if (cones_.size() < rails) cones_.resize(rails);
    for (std::size_t r = 0; r < rails; ++r) {
      cones_[r].reset(slots);
      compute_cone(r, ch.rails[r]);
    }

    const std::size_t added = balance(id, ch, budget);
    clones_of_[id] += added;

    // The footprint feeds the next round's worklist; it is only ever
    // membership-tested against the dirty mask, so cross-rail
    // duplicates are harmless. Each channel keeps its own buffer, so a
    // footprint's capacity tracks its own cone, not the largest one.
    std::vector<CellId>& fp = footprints_[id];
    fp.clear();
    for (std::size_t r = 0; r < rails; ++r)
      fp.insert(fp.end(), cones_[r].members.begin(), cones_[r].members.end());
    return added > 0;
  }

  /// Fills the channel's deficits one clone at a time; returns the
  /// number of clones added.
  std::size_t balance(ChannelId id, const Channel& ch, std::size_t budget) {
    const std::size_t rails = ch.rails.size();
    for (std::size_t r = 0; r < rails; ++r)
      if (!cones_[r].driven) return skip(id, ch, "undriven rail"), 0;
    // Cloning adds gates, never primary inputs: rails with differing
    // input support cannot be balanced by this pass.
    for (std::size_t r = 1; r < rails; ++r)
      if (cones_[r].input_cells != cones_[0].input_cells)
        return skip(id, ch, "primary-input support differs between rails"),
               0;

    for (std::size_t added = 0;; ++added) {
      std::size_t rail = 0;
      std::size_t slot = 0;
      if (!first_deficit(rails, rail, slot)) {
        // Histograms uniform (and with matching input support, cone
        // sizes follow). Signature equality is the verifier's concern.
        skip_notes_.erase(id);
        return added;
      }
      if (added >= budget)
        return skip(id, ch, "clone budget exhausted"), added;
      const CloneSite site = find_site(ch, rail, slot);
      if (site.cell == kNoCell) {
        std::ostringstream os;
        os << "no clone site for kind "
           << netlist::name(static_cast<CellKind>(
                  slot % netlist::kNumCellKinds))
           << " at level " << slot / netlist::kNumCellKinds << " on rail "
           << rail;
        skip(id, ch, os.str());
        return added;
      }
      clone_and_rewire(ch, site, slot);
    }
  }

  void skip(ChannelId id, const Channel& ch, const std::string& why) {
    skip_notes_[id] = "channel '" + ch.name + "': " + why;
  }

  /// Mirror of Graph::fanin_cone over the flat graph: walk driver edges,
  /// never ascending in level (feedback cut).
  void compute_cone(std::size_t r, NetId rail) {
    RailCone& rc = cones_[r];
    const CellId root = flat_.driver[rail];
    if (root == kNoCell) return;
    rc.driven = true;
    stack_.clear();
    stack_.push_back(root);
    marks_.set(r, root);
    while (!stack_.empty()) {
      const CellId c = stack_.back();
      stack_.pop_back();
      rc.members.push_back(c);
      const CellKind k = flat_.kind[c];
      const int lc = flat_.level[c];
      if (k == CellKind::Input) {
        ++rc.input_cells;
      } else if (!netlist::is_pseudo(k)) {
        ++rc.hist[slot_of(lc, k)];
      }
      for (std::uint32_t i = flat_.input_off[c]; i < flat_.input_off[c + 1];
           ++i) {
        const CellId p = flat_.driver[flat_.input_net[i]];
        if (p != kNoCell && !marks_.in_cone(r, p) && flat_.level[p] <= lc) {
          marks_.set(r, p);
          stack_.push_back(p);
        }
      }
    }
  }

  /// Per-slot target = max over rails; the first deficit in (rail, slot)
  /// order is the next hole to fill. False when every rail is on target.
  bool first_deficit(std::size_t rails, std::size_t& rail,
                     std::size_t& slot) const {
    std::size_t best = rails;
    const std::size_t slots = cones_[0].hist.size();
    for (std::size_t s = 0; s < slots && best > 0; ++s) {
      const std::uint32_t want = target(rails, s);
      for (std::size_t r = 0; r < best; ++r) {
        if (cones_[r].hist[s] < want) {
          // Lowest rail short at this slot; a later slot can only win
          // on a lower rail.
          best = r;
          slot = s;
          break;
        }
      }
    }
    rail = best;
    return best < rails;
  }

  std::uint32_t target(std::size_t rails, std::size_t s) const {
    std::uint32_t want = 0;
    for (std::size_t r = 0; r < rails; ++r)
      want = std::max(want, cones_[r].hist[s]);
    return want;
  }

  void ensure_buckets(RailCone& rc) {
    if (rc.buckets_built) return;
    rc.buckets_built = true;
    if (rc.buckets.size() < rc.hist.size()) rc.buckets.resize(rc.hist.size());
    for (std::size_t s = 0; s < rc.hist.size(); ++s) rc.buckets[s].clear();
    // Ascending id = candidate scan order: fill from the members sorted
    // once. Clones appended after this keep it: their ids only grow.
    sorted_.assign(rc.members.begin(), rc.members.end());
    std::sort(sorted_.begin(), sorted_.end());
    for (CellId c : sorted_) {
      const CellKind k = flat_.kind[c];
      if (netlist::is_pseudo(k)) continue;
      rc.buckets[slot_of(flat_.level[c], k)].push_back(c);
    }
  }

  /// A valid site duplicates a shared cell of the wanted slot inside rail
  /// `r`'s cone and steals one of its forward in-cone sinks. Per rail
  /// cone containing the stolen sink, the clone joins it and the original
  /// either stays (another edge keeps it reachable — the cone gains one
  /// distinct cell, so it must be below target) or is replaced by the
  /// clone (count unchanged — always safe). The target rail `r` must be
  /// in the former class, or there is no progress.
  CloneSite find_site(const Channel& ch, std::size_t r,
                      std::size_t slot) {
    ensure_buckets(cones_[r]);
    for (CellId c : cones_[r].buckets[slot]) {
      if (!marks_.in_cone(r, c)) continue;  // evicted since discovery
      const NetId out = nl_.cell(c).output;
      if (out == kNoNet) continue;
      for (const Pin& pin : nl_.net(out).sinks) {
        if (netlist::is_pseudo(flat_.kind[pin.cell])) continue;
        // The cone traversal descends an edge iff level[driver] <=
        // level[sink] (Graph::fanin_cone's cycle cut). Only such edges
        // let the sink adopt the clone — level[clone] == level[c] —
        // into a cone; the rule here must mirror the traversal exactly
        // or the incremental cone bookkeeping drifts.
        if (flat_.level[pin.cell] < flat_.level[c]) continue;
        if (!marks_.in_cone(r, pin.cell)) continue;
        if (site_ok(ch, c, pin, slot, r)) return {c, pin.cell, pin.pin};
      }
    }
    return {};
  }

  /// Does cell `c` keep a path into the cone after losing the `moved`
  /// edge — i.e. does it drive the rail itself or feed another forward
  /// in-cone sink?
  bool stays_in_cone(std::size_t r, NetId rail, CellId c,
                     const Pin& moved) const {
    const NetId out = nl_.cell(c).output;
    if (out == rail) return true;
    for (const Pin& other : nl_.net(out).sinks) {
      if (other == moved) continue;
      if (netlist::is_pseudo(flat_.kind[other.cell])) continue;
      // Same inclusive rule as the cone traversal (level[c] <=
      // level[sink] edges are descended): see find_site.
      if (flat_.level[other.cell] < flat_.level[c]) continue;
      if (marks_.in_cone(r, other.cell)) return true;
    }
    return false;
  }

  bool site_ok(const Channel& ch, CellId c, const Pin& moved,
               std::size_t slot, std::size_t target_rail) const {
    const std::size_t rails = ch.rails.size();
    for (std::size_t r2 = 0; r2 < rails; ++r2) {
      if (!marks_.in_cone(r2, moved.cell)) {
        if (r2 == target_rail) return false;  // unreachable; defensive
        continue;
      }
      const bool stays = stays_in_cone(r2, ch.rails[r2], c, moved);
      if (r2 == target_rail) {
        // Progress requires the original to remain: the cone must end up
        // with both the original and the clone.
        if (!stays) return false;
        continue;
      }
      if (!stays) continue;  // clone replaces original: count unchanged
      // Cone gains a distinct cell at the slot: only allowed while it is
      // below the shared target, or the overshoot would ratchet the
      // target upward on the next iteration.
      if (cones_[r2].hist[slot] >= target(rails, slot)) return false;
    }
    return true;
  }

  /// Duplicates `site.cell` (same kind, inputs, hierarchy, jitter) onto a
  /// fresh net, moves the site's sink pin onto it, and updates the
  /// visit's cone bookkeeping.
  void clone_and_rewire(const Channel& ch, const CloneSite& site,
                        std::size_t slot) {
    const Pin moved{site.sink_cell, site.sink_pin};
    // Membership deltas are decided against the pre-rewire state: the
    // clone joins every cone containing the stolen sink, and the
    // original leaves those where the stolen edge was its only forward
    // path (its ancestors stay reachable through the clone, which
    // shares its inputs).
    const std::size_t rails = ch.rails.size();
    joins_.assign(rails, 0);
    evicts_.assign(rails, 0);
    for (std::size_t r = 0; r < rails; ++r) {
      if (!marks_.in_cone(r, site.sink_cell)) continue;
      joins_[r] = 1;
      evicts_[r] = !stays_in_cone(r, ch.rails[r], site.cell, moved);
    }

    const Cell& original = nl_.cell(site.cell);
    const CellKind kind = original.kind;
    const double jitter = original.delay_jitter_ps;
    std::vector<NetId> inputs = original.inputs;
    std::string hier = original.hier;
    std::string cname =
        original.name + "$bal" + std::to_string(clone_counter_++);
    const NetId nn = nl_.add_net(cname + "$o");
    const CellId cc =
        nl_.add_cell(kind, std::move(cname), inputs, nn, std::move(hier));
    nl_.cell(cc).delay_jitter_ps = jitter;
    nl_.rewire_input(site.sink_cell, site.sink_pin, nn);
    flat_.append_clone(cc, inputs, flat_.level[site.cell], kind, nn,
                       site.sink_cell, site.sink_pin);
    ++rep_.cells_added;
    ++rep_.nets_added;
    // Only the rewired sink invalidates other channels' state: a
    // channel's cone (and hence hist, sites, notes) can change only if
    // it contains `sink` — the original in a cone without `sink` leaves
    // every read unchanged (the clone and the moved pin are invisible
    // behind the in-cone gates), and `sink` in a cone forces the
    // original into it too (the traversal descends the very edge being
    // moved).
    if (site.sink_cell >= dirty_.size()) dirty_.resize(nl_.num_cells(), 0);
    dirty_[site.sink_cell] = 1;

    for (std::size_t r = 0; r < rails; ++r) {
      if (!joins_[r]) continue;
      RailCone& rc = cones_[r];
      marks_.set(r, cc);
      rc.members.push_back(cc);
      // An unbuilt bucket set picks the clone up from members when (if
      // ever) this rail's first find_site builds it.
      if (rc.buckets_built) rc.buckets[slot].push_back(cc);
      ++rc.hist[slot];
      if (evicts_[r]) {
        marks_.clear(r, site.cell);  // members/bucket entries go stale
        --rc.hist[slot];
      }
    }
  }

  std::vector<ChannelId> next_worklist() const {
    std::vector<ChannelId> out;
    for (ChannelId id = 0; id < nl_.num_channels(); ++id) {
      for (CellId c : footprints_[id]) {
        if (c < dirty_.size() && dirty_[c]) {
          out.push_back(id);
          break;
        }
      }
    }
    return out;
  }

  Netlist& nl_;
  const ConeBalanceOptions& opt_;
  PassReport& rep_;
  FlatGraph flat_;
  Marks marks_;
  std::vector<RailCone> cones_;
  std::vector<CellId> stack_;
  std::vector<CellId> sorted_;  ///< ensure_buckets scratch
  std::vector<char> joins_, evicts_;
  std::vector<char> dirty_;
  std::vector<std::vector<CellId>> footprints_;
  std::map<ChannelId, std::string> skip_notes_;
  std::vector<std::size_t> clones_of_;
  std::size_t clone_counter_ = 0;
};

}  // namespace

PassReport ConeBalancePass::run(netlist::Netlist& nl) const {
  PassReport rep;
  rep.pass = name();
  const unsigned threads =
      opt_.threads == 0 ? util::hardware_threads() : opt_.threads;
  if (opt_.verify)
    rep.metric_before = static_cast<double>(
        netlist::count_asymmetric_channels(netlist::Graph(nl), threads));

  Balancer(nl, opt_, rep).run();
  rep.changed = rep.cells_added > 0;

  if (opt_.verify) {
    rep.metric_after = static_cast<double>(
        netlist::count_asymmetric_channels(netlist::Graph(nl), threads));
    rep.verified = true;
  }
  return rep;
}

}  // namespace qdi::xform
