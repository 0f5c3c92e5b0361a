// Cell catalogue of the QDI standard-cell library used throughout the
// reproduction. It mirrors the gate set of the paper's TAL-style library:
// Muller C-elements (the workhorse of QDI logic, fig. 5 of the paper),
// simple CMOS gates, and pseudo-cells for primary I/O.
//
// Evaluation semantics live here (not in the simulator) so that tests,
// the simulator, and the formal model all agree on one definition.
#pragma once

#include <cstdint>
#include <span>
#include <string_view>

namespace qdi::netlist {

enum class CellKind : std::uint8_t {
  // Pseudo-cells for block boundaries.
  Input,    // no inputs; its output net is a primary input of the block
  Output,   // one input; marks a primary output (drives nothing)

  // Combinational gates.
  Buf,
  Inv,
  And2,
  And3,
  Or2,
  Or3,
  Or4,
  Nor2,
  Nor3,
  Nor4,
  Nand2,
  Nand3,
  Xor2,
  Xnor2,

  // State-holding Muller C-elements (Z = XY + Z(X+Y), fig. 5).
  Muller2,
  Muller3,
  Muller4,
  // Resettable C-element ("Cr" in fig. 4): last input is an active-high
  // reset that forces the output low regardless of the data inputs.
  Muller2R,
  Muller3R,
};

inline constexpr int kNumCellKinds = static_cast<int>(CellKind::Muller3R) + 1;

struct CellKindInfo {
  std::string_view name;
  int num_inputs;       // includes the reset pin for Muller*R kinds
  bool state_holding;   // true for Muller gates
  bool has_reset;       // true for Muller*R; reset is the LAST input pin
  int transistor_count; // static CMOS realization, used by the area model
};

/// Static metadata for a cell kind.
const CellKindInfo& info(CellKind kind) noexcept;

/// Human-readable name ("muller2r", "nor2", ...).
std::string_view name(CellKind kind) noexcept;

/// Evaluate the cell function. `inputs` must have info(kind).num_inputs
/// entries; `prev_output` supplies the held state for Muller gates (it is
/// ignored by combinational kinds). Input/Output pseudo-cells pass through
/// (Input has no inputs and returns prev_output, i.e. whatever the
/// environment drove).
bool evaluate(CellKind kind, std::span<const bool> inputs, bool prev_output) noexcept;

/// True for the Muller (C-element) family.
bool is_muller(CellKind kind) noexcept;

/// True for Input/Output pseudo-cells. Inline: graph walks call it once
/// per visited cell.
inline constexpr bool is_pseudo(CellKind kind) noexcept {
  return kind == CellKind::Input || kind == CellKind::Output;
}

}  // namespace qdi::netlist
