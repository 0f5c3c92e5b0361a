// Fault injection and DFA: the paper's sections V-VI claim, measured.
//
// Two victims compute the same DES S-Box lookup:
//
//   * des_sbox_slice — the QDI dual-rail design. A stuck rail starves
//     the completion tree; the four-phase handshake deadlocks and the
//     attacker collects nothing (denial of service, not key leakage).
//   * des_sbox_sync  — a synchronous-style single-rail datapath behind
//     the same channel interface, with a faked completion signal. The
//     same faults sail through as valid-looking wrong ciphertexts, and
//     differential fault analysis votes the 6-bit subkey out of them.
//
// Usage: fault_attack [key6_hex] [max_sites]
#include <cstdio>
#include <cstdlib>

#include "qdi/qdi.hpp"

namespace {

void print_summary(const char* label,
                   const qdi::campaign::FaultCampaignResult& r) {
  std::printf("\n%s: %zu sites, %zu injections, %zu runs\n", label, r.sites,
              r.injections, r.summary.runs);
  std::printf("  deadlock %zu | masked %zu | exploitable %zu (rate %.1f%%)\n",
              r.summary.deadlock, r.summary.masked, r.summary.exploitable,
              100.0 * r.summary.exploitable_rate());
}

}  // namespace

int main(int argc, char** argv) {
  using namespace qdi;

  const std::uint8_t key =
      argc > 1
          ? static_cast<std::uint8_t>(std::strtoul(argv[1], nullptr, 16) & 0x3f)
          : 0x2b;
  const std::size_t max_sites =
      argc > 2 ? std::strtoul(argv[2], nullptr, 10) : 24;

  std::printf("fault sweep vs secret 6-bit subkey 0x%02x "
              "(stuck-at-0/1, %zu sites max per victim)\n",
              key, max_sites);

  // The QDI victim: every gate-driven net is a candidate site. A
  // campaign with faults() and no traces is a fault sweep alone.
  campaign::FaultCampaignOptions qdi_opt;
  qdi_opt.max_sites = max_sites;
  qdi_opt.repeats = 4;
  const campaign::CampaignResult qdi_run =
      campaign::Campaign()
          .target(campaign::des_sbox_slice())
          .key(key)
          .seed(31337)
          .threads(4)
          .faults(qdi_opt)
          .run();
  const campaign::FaultCampaignResult& qdi_r = *qdi_run.faults;
  print_summary("QDI dual-rail slice", qdi_r);

  // The synchronous-style counterexample, faulted in its key-mixing
  // stage (where DFA differentials carry key information).
  campaign::FaultCampaignOptions sync_opt;
  sync_opt.site_filters = {"addkey0"};
  sync_opt.repeats = 16;
  const campaign::CampaignResult sync_run =
      campaign::Campaign()
          .target(campaign::des_sbox_sync())
          .key(key)
          .seed(31337)
          .threads(4)
          .faults(sync_opt)
          .run();
  const campaign::FaultCampaignResult& sync_r = *sync_run.faults;
  print_summary("sync-style counterexample", sync_r);

  if (sync_r.dfa) {
    const dpa::DfaResult& d = *sync_r.dfa;
    std::printf("\nDFA over %zu exploitable pairs: best guess 0x%02x "
                "(%zu votes), rank of true key %zu, %zu surviving guesses\n",
                d.pairs_used, d.best_guess, d.best_votes,
                d.rank_of(sync_r.true_guess), d.survivors);
  } else {
    std::printf("\nDFA: no exploitable pairs collected\n");
  }

  const bool qdi_resists = qdi_r.summary.exploitable == 0;
  const bool dfa_breaks_sync =
      sync_r.dfa && sync_r.dfa->rank_of(sync_r.true_guess) == 0;
  std::printf("\nresult: QDI %s, sync-style victim %s\n",
              qdi_resists ? "yields no DFA material (deadlock/masked only)"
                          : "LEAKED exploitable faults",
              dfa_breaks_sync ? "broken by DFA (subkey recovered)"
                              : "not broken");
  return qdi_resists && dfa_breaks_sync ? 0 : 1;
}
