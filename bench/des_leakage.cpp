// DES companion experiment (the paper builds on ref. [5], "DPA on QDI
// asynchronous circuits: Concrete Results", which studied QDI DES):
// known-key DPA bias on a full gate-level DES round, before and after
// rail-capacitance repair, using the paper's historical selection
// function D(C1, P6, K0) = SBOX1(P6 xor K0)(C1).
//
// Each layout variant is one campaign on the registry's des_round
// target: the plaintext sweep drives the round's R half; the bias splits
// traces on the first output bit of SBOX1's first-round computation.
#include <cstdio>

#include "bench_common.hpp"
#include "qdi/qdi.hpp"

namespace qc = qdi::core;
namespace qm = qdi::campaign;
namespace qu = qdi::util;

namespace {
constexpr std::uint64_t kSubkey = 0x1A2B3C4D5E6FULL & 0xffffffffffffULL;
}  // namespace

int main() {
  bench::header("DES round — known-key DPA bias (companion-study style)");
  std::printf("building the gate-level DES round (8 balanced S-Boxes)...\n");

  qu::Table t({"layout", "max dA", "mean dA", "bias peak (uA)",
               "bias integral"});
  t.set_precision(3);

  for (const bool repaired : {false, true}) {
    qc::FlowOptions flow;
    flow.placer.mode = qdi::pnr::FlowMode::Flat;
    flow.placer.seed = 3;
    flow.placer.moves_per_cell = 16;

    // D(C1, P6, K0): single selection bit; the known-key bias of the
    // attack outcome is the designer-side split at the true key chunk
    // K0 = the top 6 bits of the round key.
    qm::Dpa dpa;
    dpa.bits = {0};

    qm::Campaign campaign;
    campaign.target(qm::des_round())
        .key(kSubkey)
        .seed(777)
        .traces(500)
        .threads(4)
        .flow(flow)
        .attack(dpa);
    if (repaired)
      campaign.prepare([](qdi::netlist::Netlist& nl) {
        qdi::xform::CapEqualizePass().run(nl);
      });

    const qm::CampaignResult r = campaign.run();
    t.add_row({repaired ? "flat + repair" : "flat extracted",
               t.format_double(r.max_da), t.format_double(r.mean_da),
               t.format_double(r.attack->known_key_bias_peak),
               t.format_double(r.attack->known_key_bias_integral)});
  }
  std::printf("%s\n", t.to_string().c_str());
  std::printf("expected: the extracted layout leaks (non-zero bias at the\n"
              "true split); equalizing rail capacitances drives the DPA bias\n"
              "of the same split to zero — the [5]-style concrete result.\n");
  return 0;
}
