#include "qdi/sim/compiled_netlist.hpp"

#include <stdexcept>

namespace qdi::sim {

using netlist::CellId;
using netlist::CellKind;
using netlist::kNoCell;
using netlist::kNoNet;
using netlist::NetId;

namespace {

using TruthTables = std::array<std::uint32_t, netlist::kNumCellKinds>;

TruthTables tabulate_cell_kinds() {
  constexpr unsigned kPins = CompiledNetlist::kTruthTablePins;
  TruthTables tables{};
  for (int k = 0; k < netlist::kNumCellKinds; ++k) {
    const auto kind = static_cast<CellKind>(k);
    const int nin = netlist::info(kind).num_inputs;
    if (nin > static_cast<int>(kPins))
      throw std::logic_error("CompiledNetlist: cell kind wider than a pin word");
    for (unsigned idx = 0; idx < (2u << kPins); ++idx) {
      bool in[kPins] = {};
      for (int i = 0; i < nin; ++i) in[i] = (idx >> i) & 1u;
      const bool prev = (idx >> kPins) & 1u;
      if (netlist::evaluate(kind, std::span<const bool>(in, nin), prev))
        tables[k] |= std::uint32_t{1} << idx;
    }
  }
  return tables;
}

}  // namespace

CompiledNetlist::CompiledNetlist(const netlist::Netlist& nl, DelayModel model)
    : src_(&nl), model_(model) {
  static const TruthTables kTables = tabulate_cell_kinds();
  truth_table = kTables;
  const std::uint32_t nn = static_cast<std::uint32_t>(nl.num_nets());
  const std::uint32_t nc = static_cast<std::uint32_t>(nl.num_cells());

  cap_ff.resize(nn);
  driven_by_input.assign(nn, 0);
  for (NetId n = 0; n < nn; ++n) {
    const netlist::Net& net = nl.net(n);
    cap_ff[n] = net.cap_ff;
    driven_by_input[n] =
        net.driver != kNoCell && nl.cell(net.driver).kind == CellKind::Input;
  }

  kind.resize(nc);
  output.resize(nc);
  delay_ps.resize(nc);
  slew_ps.resize(nc);
  fanin_offset.resize(nc + 1);
  std::uint32_t fanin_total = 0;
  for (CellId c = 0; c < nc; ++c) {
    const netlist::Cell& cell = nl.cell(c);
    // The pin word holds kTruthTablePins bits; a cell whose pin count is
    // not its kind's arity has no defined function anyway.
    if (static_cast<int>(cell.inputs.size()) !=
        netlist::info(cell.kind).num_inputs)
      throw std::invalid_argument("CompiledNetlist: cell '" + cell.name +
                                  "' arity mismatch");
    kind[c] = cell.kind;
    output[c] = cell.output;
    const double out_cap = cell.output != kNoNet ? cap_ff[cell.output] : 0.0;
    // Per-cell jitter (random-delay-insertion countermeasure) folds into
    // the precomputed delay so the hot loop stays untouched; the
    // reference engine adds the same offset at evaluation time, keeping
    // the two engines bit-identical.
    delay_ps[c] = model_.delay_ps(cell.kind, out_cap) + cell.delay_jitter_ps;
    slew_ps[c] = model_.slew_ps(out_cap);
    fanin_offset[c] = fanin_total;
    fanin_total += static_cast<std::uint32_t>(cell.inputs.size());
  }
  fanin_offset[nc] = fanin_total;
  fanin_net.reserve(fanin_total);
  for (CellId c = 0; c < nc; ++c)
    for (NetId in : nl.cell(c).inputs) fanin_net.push_back(in);

  // Delay range over the cells that actually schedule events (those
  // driving a net); Input/Output pseudo-cells never evaluate.
  bool any_delay = false;
  for (CellId c = 0; c < nc; ++c) {
    if (kind[c] == CellKind::Input || kind[c] == CellKind::Output ||
        output[c] == kNoNet)
      continue;
    if (!any_delay) {
      min_delay_ps_ = max_delay_ps_ = delay_ps[c];
      any_delay = true;
    } else {
      if (delay_ps[c] < min_delay_ps_) min_delay_ps_ = delay_ps[c];
      if (delay_ps[c] > max_delay_ps_) max_delay_ps_ = delay_ps[c];
    }
  }

  fanout_offset.resize(nn + 1);
  std::uint32_t fanout_total = 0;
  for (NetId n = 0; n < nn; ++n) {
    fanout_offset[n] = fanout_total;
    for (const netlist::Pin& p : nl.net(n).sinks)
      if (nl.cell(p.cell).kind != CellKind::Output) ++fanout_total;
  }
  fanout_offset[nn] = fanout_total;
  fanout_cell.reserve(fanout_total);
  fanout_pin.reserve(fanout_total);
  for (NetId n = 0; n < nn; ++n)
    for (const netlist::Pin& p : nl.net(n).sinks)
      if (nl.cell(p.cell).kind != CellKind::Output) {
        fanout_cell.push_back(p.cell);
        fanout_pin.push_back(static_cast<std::uint8_t>(p.pin));
      }
}

std::shared_ptr<const CompiledNetlist> compile(const netlist::Netlist& nl,
                                               DelayModel model) {
  return std::make_shared<const CompiledNetlist>(nl, model);
}

}  // namespace qdi::sim
