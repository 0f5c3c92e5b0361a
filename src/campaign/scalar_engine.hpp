// Private campaign-internal header (not installed): the one choice of
// scalar simulation engine behind SimTraceSource (trace_source.cpp) and
// the fault campaign's FaultRunner (fault_campaign.cpp).
#pragma once

#include <memory>

#include "qdi/netlist/netlist.hpp"
#include "qdi/sim/compiled_netlist.hpp"
#include "qdi/sim/compiled_simulator.hpp"
#include "qdi/sim/simulator.hpp"

namespace qdi::campaign::detail {

/// The compiled kernel over `compiled` when it is non-null, else the
/// reference interpreter over `nl` with `delays`.
inline std::unique_ptr<sim::SimEngine> make_scalar_engine(
    const std::shared_ptr<const sim::CompiledNetlist>& compiled,
    const netlist::Netlist& nl, const sim::DelayModel& delays) {
  if (compiled) return std::make_unique<sim::CompiledSimulator>(compiled);
  return std::make_unique<sim::Simulator>(nl, delays);
}

}  // namespace qdi::campaign::detail
