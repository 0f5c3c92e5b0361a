#include "qdi/core/secure_flow.hpp"

#include <algorithm>

#include "qdi/util/log.hpp"
#include "qdi/xform/passes.hpp"

namespace qdi::core {

FlowResult run_secure_flow(netlist::Netlist& nl, const FlowOptions& opt) {
  FlowResult result;
  pnr::PlacerOptions placer = opt.placer;

  for (int iter = 0; iter < std::max(1, opt.max_iterations); ++iter) {
    result.iterations_used = iter + 1;
    result.placement = pnr::place(nl, placer);
    result.extraction = pnr::extract(nl, result.placement, opt.extraction);
    result.criteria = evaluate_criterion(nl);
    result.max_da = max_dA(result.criteria);
    result.mean_da = mean_dA(result.criteria);
    result.accepted = result.max_da <= opt.max_da_threshold;
    util::log_info("secure_flow: iteration ", iter + 1, " seed ", placer.seed,
                   " max dA = ", result.max_da);
    if (result.accepted) break;
    placer.seed += 1;  // "multiple random runs" — retry the lottery
  }

  if (opt.repair && !result.accepted) {
    const xform::PassReport rep =
        xform::CapEqualizePass({.tolerance_da = opt.repair_target_da}).run(nl);
    result.repaired_channels = rep.channels_touched;
    result.repair_added_cap_ff = rep.cap_added_ff;
    result.criteria = evaluate_criterion(nl);
    result.max_da = max_dA(result.criteria);
    result.mean_da = mean_dA(result.criteria);
    result.accepted = result.max_da <= opt.max_da_threshold;
  }
  return result;
}

}  // namespace qdi::core
