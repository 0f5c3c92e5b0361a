// Correlation Power Analysis (Brier/Clavier/Olivier style), the
// natural successor of the paper's difference-of-means DPA: instead of
// splitting traces on one predicted bit, the attacker correlates each
// trace sample with a multi-bit leakage *model* of the predicted
// intermediate (here: Hamming weight, which matches the dual-rail
// charge model — each set bit fires its rail-1 net).
//
// Included because the paper's eq. 12 predicts exactly the per-bit
// charge differences a Hamming-weight model aggregates; comparing DPA
// and CPA on the same layouts is a natural extension experiment.
//
// The batch entry points below are thin wrappers over the streaming
// engine in online.hpp (dpa::OnlineCpa): one pass over the trace matrix
// accumulates the sums for ALL guesses at once, so batch and online
// results agree by construction.
#pragma once

#include <cstdint>
#include <vector>

#include "qdi/dpa/indexed_fn.hpp"
#include "qdi/dpa/trace_set.hpp"

namespace qdi::dpa {

/// Leakage model: maps (plaintext, guess) to a predicted real-valued
/// leakage (e.g. Hamming weight of an intermediate).
///
/// Like SelectionFn, an IndexedFn: the classic models declare
/// themselves byte-indexed — a pure function of ONE plaintext byte and
/// the guess — so the streaming engine tabulates model(v, g) over all
/// 256 byte values once and never calls a std::function per trace.
/// Models built from plain lambdas take the generic scalar path.
using LeakageModel = IndexedFn<double>;

/// Hamming weight of SBOX(plaintext[byte] ^ guess).
LeakageModel aes_sbox_hw_model(int byte);
/// Hamming weight of plaintext[byte] ^ guess (first-round key addition).
LeakageModel aes_xor_hw_model(int byte);
/// Hamming weight of DES SBOX<box>(p6 ^ guess).
LeakageModel des_sbox_hw_model(int box);

struct CpaResult {
  std::vector<double> correlation;  ///< max-|rho| per guess
  unsigned best_guess = 0;
  double best_rho = 0.0;
  double second_rho = 0.0;
  std::size_t best_sample = 0;  ///< sample index of the best guess's peak

  double margin() const noexcept {
    return second_rho > 0.0 ? best_rho / second_rho : 0.0;
  }
  /// Rank of a reference guess: the number of guesses with STRICTLY
  /// greater correlation. Ties rank below the reference — guesses whose
  /// model columns are numerically identical (e.g. ghost keys of a
  /// degenerate model) never push the true key down, independent of
  /// float comparison order. Throws std::invalid_argument when `key` is
  /// not a guess.
  std::size_t rank_of(unsigned key) const;
};

/// Full CPA: for every guess, the maximum absolute Pearson correlation
/// over samples (optionally windowed) between the model prediction and
/// the trace value. `prefix` limits the trace count (0 = all).
CpaResult cpa_attack(const TraceSet& ts, const LeakageModel& model,
                     unsigned num_guesses, std::size_t prefix = 0,
                     std::size_t window_lo = 0, std::size_t window_hi = 0);

/// Correlation trace rho[j] for a single guess (useful for plotting and
/// for validating eq. 12's predicted leak location).
std::vector<double> cpa_correlation_trace(const TraceSet& ts,
                                          const LeakageModel& model,
                                          unsigned guess,
                                          std::size_t prefix = 0);

/// CPA measurements-to-disclosure: the smallest prefix length starting
/// at `start` from which the reference guess holds rank 0 (with a
/// strictly positive peak) at every probed prefix up to the full set,
/// scanned in `step` increments. One streaming pass over the trace
/// matrix — each probe is a finalize of the running sums, not a
/// re-attack. Returns 0 if never stably recovered.
std::size_t cpa_measurements_to_disclosure(const TraceSet& ts,
                                           const LeakageModel& model,
                                           unsigned num_guesses,
                                           unsigned correct_key,
                                           std::size_t start = 8,
                                           std::size_t step = 8,
                                           std::size_t window_lo = 0,
                                           std::size_t window_hi = 0);

}  // namespace qdi::dpa
