// qdi/qdi.hpp — the single facade header of the library.
//
// Pulls in every public module: netlist construction and the gate-level
// circuit generators, the event-driven simulator and four-phase
// environment, the power model, the place-and-route flow with the
// paper's dissymmetry criterion, the DPA/CPA/SPA analyses, and the
// campaign layer that ties them together. Examples, benches, and
// downstream users include this one header and the qdi::campaign API.
#pragma once

// util
#include "qdi/util/atomic_file.hpp"
#include "qdi/util/log.hpp"
#include "qdi/util/rng.hpp"
#include "qdi/util/sha256.hpp"
#include "qdi/util/stats.hpp"
#include "qdi/util/table.hpp"

// netlist
#include "qdi/netlist/cell_kind.hpp"
#include "qdi/netlist/graph.hpp"
#include "qdi/netlist/netlist.hpp"
#include "qdi/netlist/symmetry.hpp"
#include "qdi/netlist/verilog.hpp"

// crypto golden models
#include "qdi/crypto/aes.hpp"
#include "qdi/crypto/des.hpp"

// gate-level circuit generators
#include "qdi/gates/aes_datapath.hpp"
#include "qdi/gates/builder.hpp"
#include "qdi/gates/des_datapath.hpp"
#include "qdi/gates/pipeline.hpp"
#include "qdi/gates/sbox.hpp"
#include "qdi/gates/testbench.hpp"

// simulation (reference interpreter, compiled and batch kernels)
#include "qdi/sim/batch_simulator.hpp"
#include "qdi/sim/compiled_netlist.hpp"
#include "qdi/sim/compiled_simulator.hpp"
#include "qdi/sim/delay_model.hpp"
#include "qdi/sim/engine.hpp"
#include "qdi/sim/environment.hpp"
#include "qdi/sim/fault.hpp"
#include "qdi/sim/force.hpp"
#include "qdi/sim/simulator.hpp"
#include "qdi/sim/transition.hpp"

// power model
#include "qdi/power/sample_matrix.hpp"
#include "qdi/power/synth.hpp"
#include "qdi/power/trace.hpp"

// place-and-route
#include "qdi/pnr/extraction.hpp"
#include "qdi/pnr/placement.hpp"

// design flow, criterion, formal model
#include "qdi/core/criterion.hpp"
#include "qdi/core/formal_model.hpp"
#include "qdi/core/leakage.hpp"
#include "qdi/core/power_report.hpp"
#include "qdi/core/secure_flow.hpp"
#include "qdi/core/timing.hpp"

// countermeasure transform pipeline
#include "qdi/xform/pass.hpp"
#include "qdi/xform/passes.hpp"

// attacks
#include "qdi/dpa/cpa.hpp"
#include "qdi/dpa/dfa.hpp"
#include "qdi/dpa/dpa.hpp"
#include "qdi/dpa/online.hpp"
#include "qdi/dpa/selection.hpp"
#include "qdi/dpa/spa.hpp"
#include "qdi/dpa/trace_set.hpp"

// campaign API
#include "qdi/campaign/attack.hpp"
#include "qdi/campaign/batch_trace_source.hpp"
#include "qdi/campaign/campaign.hpp"
#include "qdi/campaign/checkpoint.hpp"
#include "qdi/campaign/fault_campaign.hpp"
#include "qdi/campaign/shard.hpp"
#include "qdi/campaign/target.hpp"
#include "qdi/campaign/trace_source.hpp"
