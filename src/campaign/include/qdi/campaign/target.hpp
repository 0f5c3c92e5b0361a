// CircuitTarget — the victim-circuit registry of the campaign API.
//
// A target bundles everything a campaign needs to attack one circuit
// family: how to build the netlist, how to stimulate it for one
// acquisition under a fixed key, the guess space and selection functions
// of the paper's D-function analysis, and a CPA leakage model. The
// registry replaces the per-circuit acquire_<circuit>() free functions —
// any new victim plugs in as one CircuitTarget and every attack, flow
// variant, and bench works on it unchanged.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "qdi/campaign/trace_source.hpp"
#include "qdi/dpa/cpa.hpp"
#include "qdi/dpa/dfa.hpp"
#include "qdi/dpa/selection.hpp"
#include "qdi/gates/aes_datapath.hpp"

namespace qdi::campaign {

/// A built victim: netlist + environment + key-bound stimulus + the
/// analysis-side metadata of section IV.
struct TargetInstance {
  netlist::Netlist nl;
  sim::EnvSpec env;
  StimulusFn stimulus;  ///< bound to the campaign key
  /// Size of the guess space (0 = the target has no keyed intermediate
  /// and cannot be attacked — e.g. plain pipeline circuits).
  unsigned num_guesses = 0;
  /// The guess index that corresponds to the true key (what rank 0 means).
  unsigned true_guess = 0;
  /// Per-bit selection functions D for (multi-bit) difference-of-means DPA.
  std::vector<dpa::SelectionFn> selection_bits;
  /// Hamming-weight style model for CPA (may be empty).
  dpa::LeakageModel leakage;
  /// Software reference: the decoded output-channel values a fault-free
  /// run must produce for the given plaintext record (key bound at build
  /// time, like `stimulus`). Empty for targets without a closed-form
  /// reference. Drives the golden-path equivalence test and the fault
  /// campaign's exploitability check.
  std::function<std::vector<int>(const std::vector<std::uint8_t>&)> golden;
  /// DFA consistency model over (input, golden, faulty) output words
  /// (empty = target has no DFA interpretation).
  dpa::DfaModel dfa;
  /// False for flow/criterion-only targets (reduced builds without a
  /// drivable environment, e.g. aes_core without its key path).
  bool simulatable = true;
  std::string name;
};

class CircuitTarget {
 public:
  using BuildFn = std::function<TargetInstance(std::uint64_t key)>;

  CircuitTarget() = default;
  CircuitTarget(std::string name, BuildFn build)
      : name_(std::move(name)), build_(std::move(build)) {}

  bool valid() const noexcept { return static_cast<bool>(build_); }
  const std::string& name() const noexcept { return name_; }
  TargetInstance build(std::uint64_t key) const;

 private:
  std::string name_;
  BuildFn build_;
};

// ---- built-in targets ------------------------------------------------------

/// First-round AES byte slice q = SBOX(p ^ k): random plaintext byte,
/// 256 guesses, 8 S-Box selection bits, HW CPA model (section IV).
CircuitTarget aes_byte_slice(double period_ps = 20000.0);

/// DES S-box slice q = SBOX<box>(p6 ^ k6): random 6-bit input, 64 guesses,
/// 4 selection bits (the paper's historical D(C1, P6, K0)).
CircuitTarget des_sbox_slice(int box = 0, double period_ps = 20000.0);

/// Unprotected synchronous-style DES S-box slice (same function and
/// channel interface as des_sbox_slice, single-rail SOP data path with
/// faked input-validity completion): the fault-attack counterexample —
/// injections yield wrong-but-valid ciphertexts instead of deadlocks.
CircuitTarget des_sbox_sync(int box = 0, double period_ps = 20000.0);

/// Fig. 4 dual-rail XOR stage: random bit pair; power-signature studies
/// (not attackable — no keyed intermediate).
CircuitTarget xor_stage(double period_ps = 4000.0);

/// Full gate-level DES Feistel round under a fixed 48-bit subkey `key`:
/// random R half, SBOX1 analysis (64 guesses) as in the companion study.
CircuitTarget des_round(double period_ps = 30000.0);

/// 1-of-N encoding templates (section II): the same two bits carried as
/// two dual-rail channels vs one 1-of-4 channel through buffer stages.
/// Stimulus sweeps the four codewords exhaustively (index mod 4).
CircuitTarget dual_rail_pair(double period_ps = 2000.0);
CircuitTarget one_of_four(double period_ps = 2000.0);

/// The fig. 8 QDI AES crypto-processor, end-to-end: each trace is one
/// four-phase handshake of the full ~25k-cell core (random data word +
/// fixed key word through AES_KEY, BYTESUB, DECALHOR, MIXCOLUMN),
/// golden-checked against the software AES reference. First-round CPA
/// targets sbox(data0 ^ subkey0) with the derived subkey byte as the
/// guess. Reduced builds (no key path or no interface) remain
/// flow/criterion-only.
CircuitTarget aes_core(gates::AesCoreParams params = {});

/// Wrap an already-built instance so repeated campaigns over one victim
/// family pay netlist construction once (each run still gets its own
/// copy to mutate through flow/prepare stages). The key is fixed to
/// whatever the instance was built with.
CircuitTarget prebuilt(TargetInstance inst);

// ---- registry --------------------------------------------------------------

/// Names of every built-in target, for tooling and --target flags.
std::vector<std::string> list_targets();

/// Look a built-in target up by name (default parameters). Throws
/// std::invalid_argument for unknown names.
CircuitTarget find_target(const std::string& name);

}  // namespace qdi::campaign
