#include "qdi/netlist/cell_kind.hpp"

#include <cassert>

namespace qdi::netlist {

namespace {
// Transistor counts are classic static-CMOS figures (2 per input for
// NAND/NOR, inverters where needed, weak-feedback keeper for C-elements).
constexpr CellKindInfo kInfo[kNumCellKinds] = {
    /*Input*/    {"input", 0, false, false, 0},
    /*Output*/   {"output", 1, false, false, 0},
    /*Buf*/      {"buf", 1, false, false, 4},
    /*Inv*/      {"inv", 1, false, false, 2},
    /*And2*/     {"and2", 2, false, false, 6},
    /*And3*/     {"and3", 3, false, false, 8},
    /*Or2*/      {"or2", 2, false, false, 6},
    /*Or3*/      {"or3", 3, false, false, 8},
    /*Or4*/      {"or4", 4, false, false, 10},
    /*Nor2*/     {"nor2", 2, false, false, 4},
    /*Nor3*/     {"nor3", 3, false, false, 6},
    /*Nor4*/     {"nor4", 4, false, false, 8},
    /*Nand2*/    {"nand2", 2, false, false, 4},
    /*Nand3*/    {"nand3", 3, false, false, 6},
    /*Xor2*/     {"xor2", 2, false, false, 10},
    /*Xnor2*/    {"xnor2", 2, false, false, 10},
    /*Muller2*/  {"muller2", 2, true, false, 8},
    /*Muller3*/  {"muller3", 3, true, false, 10},
    /*Muller4*/  {"muller4", 4, true, false, 12},
    /*Muller2R*/ {"muller2r", 3, true, true, 10},
    /*Muller3R*/ {"muller3r", 4, true, true, 12},
};
}  // namespace

const CellKindInfo& info(CellKind kind) noexcept {
  return kInfo[static_cast<int>(kind)];
}

std::string_view name(CellKind kind) noexcept { return info(kind).name; }

bool is_muller(CellKind kind) noexcept { return info(kind).state_holding; }

namespace {
bool all(std::span<const bool> v) noexcept {
  for (bool b : v)
    if (!b) return false;
  return true;
}
bool any(std::span<const bool> v) noexcept {
  for (bool b : v)
    if (b) return true;
  return false;
}
/// Muller semantics over the data inputs: rise when all high, fall when
/// all low, hold otherwise.
bool muller(std::span<const bool> data, bool prev) noexcept {
  if (all(data)) return true;
  if (!any(data)) return false;
  return prev;
}
}  // namespace

bool evaluate(CellKind kind, std::span<const bool> inputs, bool prev_output) noexcept {
  assert(static_cast<int>(inputs.size()) == info(kind).num_inputs);
  switch (kind) {
    case CellKind::Input:
      return prev_output;  // driven by the environment, not by logic
    case CellKind::Output:
    case CellKind::Buf:
      return inputs[0];
    case CellKind::Inv:
      return !inputs[0];
    case CellKind::And2:
    case CellKind::And3:
      return all(inputs);
    case CellKind::Or2:
    case CellKind::Or3:
    case CellKind::Or4:
      return any(inputs);
    case CellKind::Nor2:
    case CellKind::Nor3:
    case CellKind::Nor4:
      return !any(inputs);
    case CellKind::Nand2:
    case CellKind::Nand3:
      return !all(inputs);
    case CellKind::Xor2:
      return inputs[0] != inputs[1];
    case CellKind::Xnor2:
      return inputs[0] == inputs[1];
    case CellKind::Muller2:
    case CellKind::Muller3:
    case CellKind::Muller4:
      return muller(inputs, prev_output);
    case CellKind::Muller2R:
    case CellKind::Muller3R: {
      // Last pin is the active-high reset: it forces the output low.
      const bool reset = inputs[inputs.size() - 1];
      if (reset) return false;
      return muller(inputs.subspan(0, inputs.size() - 1), prev_output);
    }
  }
  return false;
}

}  // namespace qdi::netlist
