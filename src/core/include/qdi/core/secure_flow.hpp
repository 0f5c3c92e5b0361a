// The complete DPA-aware design flow the paper specifies (abstract: "a
// complete design flow is specified to minimize the information
// leakage"):
//
//   1. place the netlist (flat, or hierarchical with constrained block
//      regions — section VI's methodology),
//   2. extract net capacitances and back-annotate the graph,
//   3. evaluate the dissymmetry criterion dA over every registered
//      dual-rail channel,
//   4. accept the layout if max dA is below the threshold, else iterate
//      with a new seed (the flat flow rarely converges; the hierarchical
//      flow does — that asymmetry *is* the paper's result),
//   5. optionally run the rail-capacitance repair (an extension the
//      paper's conclusion points to: controlling net capacitances
//      directly): xform::CapEqualizePass at repair_target_da, which pads
//      the lighter rails of each offending channel toward its heaviest
//      (modelling post-route capacitive trimming / dummy-metal fill).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "qdi/core/criterion.hpp"
#include "qdi/netlist/netlist.hpp"
#include "qdi/pnr/extraction.hpp"
#include "qdi/pnr/placement.hpp"

namespace qdi::core {

struct FlowOptions {
  pnr::PlacerOptions placer{};
  pnr::ExtractionParams extraction{};
  double max_da_threshold = 0.15;  ///< acceptance bound on the criterion
  int max_iterations = 1;          ///< re-place with seed+1 on rejection
  bool repair = false;             ///< pad rail caps (CapEqualizePass)
  double repair_target_da = 0.05;  ///< repair until every channel <= this
};

struct FlowResult {
  pnr::Placement placement;
  pnr::ExtractionSummary extraction;
  std::vector<ChannelCriterion> criteria;  ///< every channel, registry order
  double max_da = 0.0;
  double mean_da = 0.0;
  bool accepted = false;
  int iterations_used = 0;
  std::size_t repaired_channels = 0;
  double repair_added_cap_ff = 0.0;  ///< silicon cost of the repair pass
};

/// Run the flow on `nl` (net caps are back-annotated in place).
FlowResult run_secure_flow(netlist::Netlist& nl, const FlowOptions& opt);

}  // namespace qdi::core
