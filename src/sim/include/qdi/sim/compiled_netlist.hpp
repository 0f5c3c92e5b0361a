// CompiledNetlist — the execution representation of a netlist.
//
// The construction-oriented netlist::Netlist is built for incremental
// assembly and inspection: per-net std::string names, per-net
// std::vector<Pin> sink lists, per-cell std::vector<NetId> inputs. The
// event loop chases all of those pointers on every committed event.
//
// Compilation flattens the graph once into structure-of-arrays form:
//
//   * CSR fanout  (net  -> sink (cell, pin) pairs, Output pseudo-cells
//     dropped),
//   * CSR fanin   (cell -> input nets),
//   * dense per-net capacitance,
//   * per-cell delay/slew precomputed from the DelayModel (both depend
//     only on the cell kind and its static output load),
//   * compact CellKind codes — no strings anywhere,
//   * one 32-bit truth table per CellKind over (pins, prev), tabulated
//     from netlist::evaluate() — the kernel's only gate semantics.
//
// A CompiledNetlist is immutable after construction and is shared
// read-only by all acquisition workers (see sim::compile). It must
// outlive every CompiledSimulator running on it, and the source Netlist
// must not be mutated while compiled simulations run — recompile after
// annotating capacitances.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "qdi/netlist/netlist.hpp"
#include "qdi/sim/delay_model.hpp"

namespace qdi::sim {

class CompiledNetlist {
 public:
  /// Throws std::invalid_argument on a cell whose input count is not
  /// its kind's arity (netlist::Netlist::check() reports those too).
  explicit CompiledNetlist(const netlist::Netlist& nl, DelayModel model = {});

  const netlist::Netlist& source() const noexcept { return *src_; }
  const DelayModel& delay_model() const noexcept { return model_; }

  std::uint32_t num_nets() const noexcept {
    return static_cast<std::uint32_t>(cap_ff.size());
  }
  std::uint32_t num_cells() const noexcept {
    return static_cast<std::uint32_t>(kind.size());
  }

  /// Precomputed range of the per-cell propagation delays (over cells
  /// that drive a net; 0/0 when there are none). The time-wheel
  /// scheduler derives its bucket geometry from this range: a bucket
  /// width of min_delay_ps guarantees every event a commit schedules
  /// lands in a strictly later bucket, and max_delay_ps bounds how far
  /// ahead of `now` gate activity can reach.
  double min_delay_ps() const noexcept { return min_delay_ps_; }
  double max_delay_ps() const noexcept { return max_delay_ps_; }

  /// Truth-table geometry: input pin i of a cell is bit i of its pin
  /// word, and the held output (`prev`, read by the Muller kinds) is bit
  /// kTruthTablePins — so every kind's table fits 2^5 = 32 bits.
  static constexpr unsigned kTruthTablePins = 4;

  /// Output of a `k` gate whose input pins read `pins` and whose output
  /// net currently holds `prev` — netlist::evaluate() by table lookup.
  bool evaluate(netlist::CellKind k, unsigned pins, bool prev) const noexcept {
    return (truth_table[static_cast<unsigned>(k)] >>
            (pins | static_cast<unsigned>(prev) << kTruthTablePins)) & 1u;
  }

  // All arrays below are filled by the constructor and immutable
  // afterwards (exposed directly: this is a kernel data structure, not
  // an abstraction boundary).

  // ---- per-net ----------------------------------------------------------
  std::vector<double> cap_ff;            ///< net load capacitance
  std::vector<char> driven_by_input;     ///< 1 if driver is an Input pseudo-cell
  std::vector<std::uint32_t> fanout_offset;  ///< size num_nets + 1
  /// CSR payload: sink cell per pin, in pin registration order (a cell
  /// listening on one net through two pins appears twice, exactly like
  /// the reference sink walk). Output pseudo-cells are dropped — their
  /// evaluation is a no-op by definition.
  std::vector<std::uint32_t> fanout_cell;
  /// Parallel to fanout_cell: the input pin of that cell the net drives.
  std::vector<std::uint8_t> fanout_pin;

  // ---- per-cell ---------------------------------------------------------
  std::vector<netlist::CellKind> kind;
  std::vector<std::uint32_t> output;     ///< driven net, kNoNet when none
  std::vector<double> delay_ps;  ///< DelayModel::delay_ps(kind, C_out) + cell jitter
  std::vector<double> slew_ps;           ///< DelayModel::slew_ps(C_out)
  std::vector<std::uint32_t> fanin_offset;   ///< size num_cells + 1
  std::vector<std::uint32_t> fanin_net;      ///< CSR payload: input nets in pin order

  // ---- per-kind ---------------------------------------------------------
  /// Bit (pins | prev << kTruthTablePins) of truth_table[kind] is the
  /// gate's output. Tabulated once per process from netlist::evaluate()
  /// (pin bits at or above the kind's arity are ignored; Input/Output
  /// pseudo-cells never evaluate in the kernel).
  std::array<std::uint32_t, netlist::kNumCellKinds> truth_table{};

 private:
  const netlist::Netlist* src_;
  DelayModel model_;
  double min_delay_ps_ = 0.0;
  double max_delay_ps_ = 0.0;
};

/// Compile `nl` for sharing across acquisition workers. The shared_ptr
/// is what SimTraceSource clones hand to their per-worker kernels.
std::shared_ptr<const CompiledNetlist> compile(const netlist::Netlist& nl,
                                               DelayModel model = {});

}  // namespace qdi::sim
