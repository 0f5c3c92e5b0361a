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
// applies every clone-and-rewire edit the moment it finds it, so the next
// deficit (and the next channel) sees the edited graph.
//
// A channel walks its rails' fanin cones once, on its first visit, and
// keeps them: per rail a membership bitset over cell ids, the dense
// (level, kind) histogram, the input-cell count and whether the rail is
// driven. Every edit patches every stored cone that holds the stolen
// sink, whichever channel made it: the clone joins the cone, and the
// original leaves it only if the moved edge was its last forward path
// into it (stays). The patch is exact: a cone holding the sink holds the
// original too (the walk descends the very edge being moved), the clone
// shares the original's inputs and level, so it keeps every ancestor of
// the original reachable, and a cone without the sink never sees the
// edit. A revisit therefore reads cones equal to a fresh walk of the
// live netlist without walking.
//
// The visiting channel takes its own edits at once. Every other channel
// takes them from an edit log when it is next visited (catch_up): a
// rail's cone changes only through these edits, so replaying them in
// order, rail by rail, gives the cones a patch at edit time would, and
// a channel that is never revisited never pays. Each channel also keeps
// a hull (every cell any of its cones has held), so a logged edit costs
// it one bit test unless the hull holds the sink.
//
// Rounds after the first only revisit channels whose *footprint* holds a
// cell dirtied (a rewired sink) by the previous round. The footprint is a
// bitset too: the union of the channel's rail cones at the start and at
// the end of its last visit, i.e. every cell the visit read, evicted
// originals and clones included. A clone-and-rewire can only change
// channel X's visit through a cell X already read (the moved sink and the
// cloned cell are both cone members of any channel they affect; foreign
// clones outside a cone are invisible to its membership tests).
//
// A channel with an undriven rail, or whose rails differ in primary-input
// support, is skipped on its first visit for good: no edit changes
// either. It drops its cones there and never enters a worklist again.
//
// The first walk reads a flat CSR mirror of the netlist. Bitsets span
// only the id range their cells cover, and a cone keeps the clones that
// joined it apart from the cells its walk found, so neither pays for the
// ids in between. Clone-site lookup is bucketed by (level, kind), each
// bucket filled in ascending id order by one scan of the rail's bitsets
// when the visit first needs a site there.
#include <algorithm>
#include <array>
#include <bit>
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

/// Per-channel safety valve on inserted duplicate cells.
constexpr std::size_t kMaxClonesPerChannel = 512;

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
  /// Kinds of the netlist's real gates, ascending. Clones copy a kind,
  /// so the list never grows.
  std::vector<CellKind> kinds;
  std::array<std::size_t, netlist::kNumCellKinds> kind_rank{};

  /// Dense histogram slot of a real gate: its (level, kind) pair over the
  /// kinds in use. Ascending slot order is ascending (level, kind) order
  /// — the order deficits are filled in.
  std::size_t slot(CellId c) const {
    return static_cast<std::size_t>(level[c]) * kinds.size() +
           kind_rank[static_cast<std::size_t>(kind[c])];
  }
  /// Slots of every level up to `top`.
  std::size_t slots(int top) const {
    return (static_cast<std::size_t>(top) + 1) * kinds.size();
  }
  std::size_t slot_level(std::size_t s) const { return s / kinds.size(); }
  CellKind slot_kind(std::size_t s) const { return kinds[s % kinds.size()]; }

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
    std::array<bool, netlist::kNumCellKinds> used{};
    for (CellKind k : kind)
      if (!netlist::is_pseudo(k)) used[static_cast<std::size_t>(k)] = true;
    kinds.clear();
    for (std::size_t k = 0; k < used.size(); ++k) {
      kind_rank[k] = kinds.size();
      if (used[k]) kinds.push_back(static_cast<CellKind>(k));
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

/// Bitset over the cell-id range a set spans: a rail cone's membership,
/// a footprint, or a round's dirty set. A cone's cells sit in a band of
/// ids, so storing only the words from its lowest to its highest member
/// halves a cone on aes_core. Bits outside the range read as clear.
class CellBits {
 public:
  bool test(CellId c) const {
    // Wraps to a huge index below the range.
    const std::size_t w = (c >> 6) - first_;
    return w < words_.size() && (words_[w] >> (c & 63) & 1) != 0;
  }
  void set(CellId c) {
    const std::size_t w = c >> 6;
    cover(w, w + 1);
    words_[w - first_] |= std::uint64_t{1} << (c & 63);
  }
  void reset(CellId c) {
    const std::size_t w = (c >> 6) - first_;
    if (w < words_.size()) words_[w] &= ~(std::uint64_t{1} << (c & 63));
  }
  void clear() {
    first_ = 0;
    words_.clear();
  }

  /// Replaces the set by the bits of `full` (word w holds ids 64w..64w+63)
  /// and zeroes those words, so `full` is reusable scratch.
  void take(std::vector<std::uint64_t>& full) {
    std::size_t lo = 0;
    std::size_t hi = full.size();
    while (lo < hi && full[lo] == 0) ++lo;
    while (hi > lo && full[hi - 1] == 0) --hi;
    first_ = lo;
    words_.assign(full.begin() + lo, full.begin() + hi);
    std::fill(full.begin() + lo, full.begin() + hi, 0);
  }

  /// this |= other.
  void merge(const CellBits& other) {
    if (other.words_.empty()) return;
    cover(other.first_, other.first_ + other.words_.size());
    const std::size_t off = other.first_ - first_;
    for (std::size_t w = 0; w < other.words_.size(); ++w)
      words_[off + w] |= other.words_[w];
  }
  bool intersects(const CellBits& other) const {
    const std::size_t lo = std::max(first_, other.first_);
    const std::size_t hi = std::min(first_ + words_.size(),
                                    other.first_ + other.words_.size());
    for (std::size_t w = lo; w < hi; ++w)
      if ((words_[w - first_] & other.words_[w - other.first_]) != 0)
        return true;
    return false;
  }
  /// Calls f(id) for every set bit, in ascending id order.
  template <class F>
  void for_each(F&& f) const {
    for (std::size_t w = 0; w < words_.size(); ++w)
      for (std::uint64_t bits = words_[w]; bits != 0; bits &= bits - 1)
        f(static_cast<CellId>((first_ + w) * 64 + std::countr_zero(bits)));
  }

 private:
  /// Grows the range to include words [lo, hi).
  void cover(std::size_t lo, std::size_t hi) {
    if (words_.empty()) {
      first_ = lo;
      words_.assign(hi - lo, 0);
      return;
    }
    if (lo < first_) {
      words_.insert(words_.begin(), first_ - lo, 0);
      first_ = lo;
    }
    if (hi - first_ > words_.size()) words_.resize(hi - first_, 0);
  }

  std::size_t first_ = 0;  ///< word index of words_[0]
  std::vector<std::uint64_t> words_;
};

/// One rail's fanin cone, walked on the channel's first visit and patched
/// with every edit since (see the execution notes above).
struct RailCone {
  /// Cells the walk found, less the originals evicted since.
  CellBits walked;
  /// Clones that joined since the walk. Their ids lie above every walked
  /// id, so keeping them apart spares `walked` the gap in between.
  CellBits joined;
  /// Distinct real gates per (level, kind) slot (see FlatGraph::slot).
  std::vector<std::uint32_t> hist;
  std::size_t input_cells = 0;
  bool driven = false;

  bool contains(CellId c) const { return walked.test(c) || joined.test(c); }
  /// Calls f(id) for every member, in ascending id order.
  template <class F>
  void for_each(F&& f) const {
    walked.for_each(f);
    joined.for_each(f);
  }
  void add_to(CellBits& set) const {
    set.merge(walked);
    set.merge(joined);
  }
  void remove(CellId c) {
    walked.reset(c);
    joined.reset(c);
  }
};

/// A channel's state across rounds. `rails` stays empty until the first
/// visit, for channels with fewer than two rails (never balanced), and
/// for channels retired on their first visit (never_clones).
struct ChannelCones {
  std::vector<RailCone> rails;
  /// Every cell the last visit read: its rail cones at the start and at
  /// the end of that visit. Feeds the next round's worklist.
  CellBits footprint;
  /// Every cell any rail's cone has held since the first walk: a
  /// superset of each rail cone, so catch_up tests one bit per logged
  /// edit before it tests the rails.
  CellBits hull;
  /// Edits (entries of the balancer's log) already applied to `rails`.
  std::size_t synced = 0;
  std::size_t clones = 0;
};

/// One clone-and-rewire edit, as every stored cone takes it: the clone
/// joins each cone that holds `sink`, and the original leaves each of
/// those cones where it drives neither the rail nor one of `keep`, its
/// other forward sinks at the time of the edit.
struct Edit {
  CellId sink = kNoCell;
  CellId original = kNoCell;
  CellId clone = kNoCell;
  NetId out = kNoNet;  ///< the original's output net
  std::size_t slot = 0;
  std::vector<CellId> keep;
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
    chans_.resize(nl_.num_channels());
    // Round 1 visits everything; later rounds only what earlier edits
    // could have re-broken.
    std::vector<ChannelId> worklist(nl_.num_channels());
    for (ChannelId id = 0; id < nl_.num_channels(); ++id) worklist[id] = id;

    flat_.build(nl_, netlist::Graph(nl_));
    bool changed = false;
    for (int round = 0; round < opt_.max_rounds && !worklist.empty();
         ++round) {
      dirty_.clear();
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
    for (const ChannelCones& st : chans_)
      if (st.clones > 0) ++rep_.channels_touched;
  }

 private:
  /// Balances one channel against the live netlist; true if it cloned.
  bool visit(ChannelId id) {
    // Clones add cells and nets, never channels: `ch` stays valid.
    const Channel& ch = nl_.channel(id);
    const std::size_t rails = ch.rails.size();
    if (rails < 2) return false;
    ChannelCones& st = chans_[id];
    visiting_ = id;
    buckets_built_.assign(rails, 0);
    if (st.rails.empty()) {
      walk_cones(id, ch);
      if (const char* why = never_clones(st.rails)) {
        // Edits add neither primary inputs nor drivers, so the verdict
        // holds for good: keep the note, drop the cones, and leave the
        // footprint empty so no later worklist holds the channel (nor
        // does a later catch_up replay the log into it).
        skip(id, ch, why);
        st = ChannelCones{};
        return false;
      }
    }
    catch_up(id);
    const std::size_t budget =
        kMaxClonesPerChannel - std::min(kMaxClonesPerChannel, st.clones);

    st.footprint.clear();
    for (const RailCone& rc : st.rails) rc.add_to(st.footprint);
    const std::size_t added = balance(id, ch, budget);
    if (added == 0) return false;  // no edit: the cones are as they were
    st.clones += added;
    // Evicted originals stay in from the merge above; clones join here.
    for (const RailCone& rc : st.rails) rc.add_to(st.footprint);
    return true;
  }

  /// First visit: walks every rail's cone and stores it.
  void walk_cones(ChannelId id, const Channel& ch) {
    // A cone never ascends in level, so its roots bound the histogram.
    int top = 0;
    for (NetId rail : ch.rails)
      if (flat_.driver[rail] != kNoCell)
        top = std::max(top, flat_.level[flat_.driver[rail]]);
    ChannelCones& st = chans_[id];
    st.rails.resize(ch.rails.size());
    for (std::size_t r = 0; r < st.rails.size(); ++r) {
      st.rails[r].hist.assign(flat_.slots(top), 0);
      compute_cone(st.rails[r], ch.rails[r]);
      st.rails[r].add_to(st.hull);
    }
    st.synced = log_.size();  // the walk read the live netlist
  }

  /// Why a channel's freshly walked cones can never be balanced, or
  /// nullptr. An edit rewires a sink pin, never a rail's driver, and its
  /// clone shares the original's inputs, so no edit changes a rail's
  /// drivenness or input support.
  static const char* never_clones(const std::vector<RailCone>& cones) {
    for (const RailCone& rc : cones)
      if (!rc.driven) return "undriven rail";
    // Cloning adds gates, never primary inputs: rails with differing
    // input support cannot be balanced by this pass.
    for (const RailCone& rc : cones)
      if (rc.input_cells != cones[0].input_cells)
        return "primary-input support differs between rails";
    return nullptr;
  }

  /// Fills the channel's deficits one clone at a time; returns the
  /// number of clones added.
  std::size_t balance(ChannelId id, const Channel& ch, std::size_t budget) {
    const std::vector<RailCone>& cones = chans_[id].rails;
    for (std::size_t added = 0;; ++added) {
      std::size_t rail = 0;
      std::size_t slot = 0;
      if (!first_deficit(cones, rail, slot)) {
        // Histograms uniform (and with matching input support, cone
        // sizes follow). Signature equality is the verifier's concern.
        skip_notes_.erase(id);
        return added;
      }
      if (added >= budget)
        return skip(id, ch, "clone budget exhausted"), added;
      const CloneSite site = find_site(ch, cones, rail, slot);
      if (site.cell == kNoCell) {
        std::ostringstream os;
        os << "no clone site for kind "
           << netlist::name(flat_.slot_kind(slot)) << " at level "
           << flat_.slot_level(slot) << " on rail " << rail;
        skip(id, ch, os.str());
        return added;
      }
      clone_and_rewire(site, slot);
    }
  }

  void skip(ChannelId id, const Channel& ch, const std::string& why) {
    skip_notes_[id] = "channel '" + ch.name + "': " + why;
  }

  /// Mirror of Graph::fanin_cone over the flat graph: walk driver edges,
  /// never ascending in level (feedback cut). Marks into full-width
  /// scratch, then keeps the span the cone covers.
  void compute_cone(RailCone& rc, NetId rail) {
    const CellId root = flat_.driver[rail];
    if (root == kNoCell) return;
    rc.driven = true;
    seen_.resize((flat_.kind.size() + 63) / 64, 0);
    const auto mark = [&](CellId c) {
      std::uint64_t& w = seen_[c >> 6];
      const std::uint64_t bit = std::uint64_t{1} << (c & 63);
      if ((w & bit) != 0) return false;
      w |= bit;
      return true;
    };
    stack_.clear();
    stack_.push_back(root);
    mark(root);
    while (!stack_.empty()) {
      const CellId c = stack_.back();
      stack_.pop_back();
      const CellKind k = flat_.kind[c];
      const int lc = flat_.level[c];
      if (k == CellKind::Input) {
        ++rc.input_cells;
      } else if (!netlist::is_pseudo(k)) {
        ++rc.hist[flat_.slot(c)];
      }
      for (std::uint32_t i = flat_.input_off[c]; i < flat_.input_off[c + 1];
           ++i) {
        const CellId p = flat_.driver[flat_.input_net[i]];
        if (p != kNoCell && flat_.level[p] <= lc && mark(p))
          stack_.push_back(p);
      }
    }
    rc.walked.take(seen_);
  }

  /// Per-slot target = max over rails; the first deficit in (rail, slot)
  /// order is the next hole to fill. False when every rail is on target.
  static bool first_deficit(const std::vector<RailCone>& cones,
                            std::size_t& rail, std::size_t& slot) {
    const std::size_t rails = cones.size();
    std::size_t best = rails;
    const std::size_t slots = cones[0].hist.size();
    for (std::size_t s = 0; s < slots && best > 0; ++s) {
      const std::uint32_t want = target(cones, s);
      for (std::size_t r = 0; r < best; ++r) {
        if (cones[r].hist[s] < want) {
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

  static std::uint32_t target(const std::vector<RailCone>& cones,
                              std::size_t s) {
    std::uint32_t want = 0;
    for (const RailCone& rc : cones) want = std::max(want, rc.hist[s]);
    return want;
  }

  /// Clone-site candidates of the visited channel's rail `r`, per slot
  /// (dense, like hist), each list ascending by id. Built on the first
  /// find_site against the rail in a visit: the common visit (already
  /// balanced, or skipped before site search) never pays for it. Clones
  /// appended after this keep the order: their ids only grow.
  std::vector<std::vector<CellId>>& buckets(const RailCone& rc,
                                            std::size_t r) {
    if (buckets_.size() <= r) buckets_.resize(r + 1);
    std::vector<std::vector<CellId>>& b = buckets_[r];
    if (buckets_built_[r]) return b;
    buckets_built_[r] = 1;
    if (b.size() < rc.hist.size()) b.resize(rc.hist.size());
    for (std::size_t s = 0; s < rc.hist.size(); ++s) b[s].clear();
    rc.for_each([&](CellId c) {
      if (!netlist::is_pseudo(flat_.kind[c])) b[flat_.slot(c)].push_back(c);
    });
    return b;
  }

  /// A valid site duplicates a shared cell of the wanted slot inside rail
  /// `r`'s cone and steals one of its forward in-cone sinks. Per rail
  /// cone containing the stolen sink, the clone joins it and the original
  /// either stays (another edge keeps it reachable — the cone gains one
  /// distinct cell, so it must be below target) or is replaced by the
  /// clone (count unchanged — always safe). The target rail `r` must be
  /// in the former class, or there is no progress.
  CloneSite find_site(const Channel& ch, const std::vector<RailCone>& cones,
                      std::size_t r, std::size_t slot) {
    const RailCone& rc = cones[r];
    for (CellId c : buckets(rc, r)[slot]) {
      if (!rc.contains(c)) continue;  // evicted since the bucket fill
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
        if (!rc.contains(pin.cell)) continue;
        if (site_ok(ch, cones, c, pin, slot, r)) return {c, pin.cell, pin.pin};
      }
    }
    return {};
  }

  /// The sinks through which cell `c` reaches a cone once it loses the
  /// `moved` edge: every other real sink the cone traversal would
  /// descend from (the same inclusive level[c] <= level[sink] rule; see
  /// find_site).
  void forward_sinks(CellId c, const Pin& moved, std::vector<CellId>& out) {
    out.clear();
    for (const Pin& other : nl_.net(nl_.cell(c).output).sinks) {
      if (other == moved) continue;
      if (netlist::is_pseudo(flat_.kind[other.cell])) continue;
      if (flat_.level[other.cell] < flat_.level[c]) continue;
      out.push_back(other.cell);
    }
  }

  /// Does a cell with output net `out` and forward sinks `keep` stay in
  /// the cone of `rail` — does it drive the rail itself or feed a sink
  /// inside the cone?
  static bool stays(const RailCone& rc, NetId rail, NetId out,
                    const std::vector<CellId>& keep) {
    if (out == rail) return true;
    for (CellId k : keep)
      if (rc.contains(k)) return true;
    return false;
  }

  bool site_ok(const Channel& ch, const std::vector<RailCone>& cones,
               CellId c, const Pin& moved, std::size_t slot,
               std::size_t target_rail) {
    const NetId out = nl_.cell(c).output;
    forward_sinks(c, moved, keep_);
    for (std::size_t r2 = 0; r2 < cones.size(); ++r2) {
      if (!cones[r2].contains(moved.cell)) {
        if (r2 == target_rail) return false;  // unreachable; defensive
        continue;
      }
      const bool kept = stays(cones[r2], ch.rails[r2], out, keep_);
      if (r2 == target_rail) {
        // Progress requires the original to remain: the cone must end up
        // with both the original and the clone.
        if (!kept) return false;
        continue;
      }
      if (!kept) continue;  // clone replaces original: count unchanged
      // Cone gains a distinct cell at the slot: only allowed while it is
      // below the shared target, or the overshoot would ratchet the
      // target upward on the next iteration.
      if (cones[r2].hist[slot] >= target(cones, slot)) return false;
    }
    return true;
  }

  /// Duplicates `site.cell` (same kind, inputs, hierarchy, jitter) onto a
  /// fresh net, moves the site's sink pin onto it, and logs the edit for
  /// every stored cone (the visited channel takes it at once).
  void clone_and_rewire(const CloneSite& site, std::size_t slot) {
    const Pin moved{site.sink_cell, site.sink_pin};
    // The cone deltas are decided against the pre-rewire state: the
    // clone joins every cone containing the stolen sink, and the
    // original leaves those where the stolen edge was its only forward
    // path (its ancestors stay reachable through the clone, which
    // shares its inputs). A cone without the sink is untouched: the
    // original in it keeps every read unchanged (the clone and the moved
    // pin are invisible behind the in-cone gates).
    Edit e;
    e.sink = site.sink_cell;
    e.original = site.cell;
    e.out = nl_.cell(site.cell).output;
    e.slot = slot;
    forward_sinks(site.cell, moved, e.keep);

    const Cell& original = nl_.cell(site.cell);
    const CellKind kind = original.kind;
    const double jitter = original.delay_jitter_ps;
    std::vector<NetId> inputs = original.inputs;
    std::string hier = original.hier;
    std::string cname =
        original.name + "$bal" + std::to_string(clone_counter_++);
    const NetId nn = nl_.add_net(cname + "$o");
    e.clone =
        nl_.add_cell(kind, std::move(cname), inputs, nn, std::move(hier));
    nl_.cell(e.clone).delay_jitter_ps = jitter;
    nl_.rewire_input(site.sink_cell, site.sink_pin, nn);
    flat_.append_clone(e.clone, inputs, flat_.level[site.cell], kind, nn,
                       site.sink_cell, site.sink_pin);
    ++rep_.cells_added;
    ++rep_.nets_added;
    // Only the rewired sink invalidates other channels' visits: `sink`
    // in a cone forces the original into it too (the traversal descends
    // the very edge being moved), so the footprint test catches both.
    dirty_.set(site.sink_cell);
    log_.push_back(std::move(e));
    catch_up(visiting_);
  }

  /// Applies the edits channel `id`'s stored cones have not taken yet,
  /// in log order. Each rail's cone changes only through these edits,
  /// so replaying them late gives the cone a patch at edit time would,
  /// and replaying them rail by rail keeps each rail's bitset in cache.
  void catch_up(ChannelId id) {
    ChannelCones& st = chans_[id];
    // The hull takes a clone wherever it holds the sink, so a later edit
    // whose sink is that clone still passes the filter.
    hits_.clear();
    for (; st.synced < log_.size(); ++st.synced) {
      const Edit& e = log_[st.synced];
      if (!st.hull.test(e.sink)) continue;
      st.hull.set(e.clone);
      hits_.push_back(&e);
    }
    if (hits_.empty()) return;
    const std::vector<NetId>& rails = nl_.channel(id).rails;
    for (std::size_t r = 0; r < st.rails.size(); ++r) {
      RailCone& rc = st.rails[r];
      for (const Edit* e : hits_) {
        if (!rc.contains(e->sink)) continue;
        const bool kept = stays(rc, rails[r], e->out, e->keep);
        rc.joined.set(e->clone);
        ++rc.hist[e->slot];
        // An unbuilt bucket set picks the clone up from the bitset when
        // (if ever) this rail's first find_site builds it.
        if (id == visiting_ && buckets_built_[r])
          buckets_[r][e->slot].push_back(e->clone);
        if (!kept) {
          rc.remove(e->original);  // bucket entries go stale
          --rc.hist[e->slot];
        }
      }
    }
  }

  std::vector<ChannelId> next_worklist() const {
    std::vector<ChannelId> out;
    for (ChannelId id = 0; id < nl_.num_channels(); ++id)
      if (chans_[id].footprint.intersects(dirty_)) out.push_back(id);
    return out;
  }

  Netlist& nl_;
  const ConeBalanceOptions& opt_;
  PassReport& rep_;
  FlatGraph flat_;
  std::vector<ChannelCones> chans_;
  ChannelId visiting_ = 0;
  std::vector<std::vector<std::vector<CellId>>> buckets_;  ///< per rail
  std::vector<char> buckets_built_;
  std::vector<CellId> stack_;
  std::vector<std::uint64_t> seen_;  ///< compute_cone scratch, kept zeroed
  std::vector<Edit> log_;  ///< every edit so far, in order
  std::vector<const Edit*> hits_;  ///< catch_up scratch
  std::vector<CellId> keep_;  ///< site_ok scratch
  CellBits dirty_;
  std::map<ChannelId, std::string> skip_notes_;
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
