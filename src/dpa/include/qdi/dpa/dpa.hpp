// The DPA algorithm, eqs. 7-9 of the paper (after Messerges et al.):
// split the power signals into S0 = {S_ij | D = 0} and S1 = {S_ij | D=1},
// average each set (eq. 8), and form the bias signal T[j] = A0[j] - A1[j]
// (eq. 9). "If the DPA bias signal shows important peaks, it means there
// is a strong correlation between the D function and the power signal."
#pragma once

#include <cstddef>
#include <vector>

#include "qdi/dpa/selection.hpp"
#include "qdi/dpa/trace_set.hpp"

namespace qdi::dpa {

/// Sample window for peak statistics. Real attacks window the analysis
/// to the time span of the targeted operation (here: the evaluation
/// phase where the attacked intermediate switches); the diffuse bias a
/// globally-unbalanced layout produces in the return-to-zero and
/// acknowledge phases would otherwise drown the aligned peak.
struct SampleWindow {
  std::size_t lo = 0;
  std::size_t hi = 0;  ///< exclusive; 0 = to the end

  bool contains(std::size_t j) const noexcept {
    return j >= lo && (hi == 0 || j < hi);
  }
};

struct BiasResult {
  std::vector<double> bias;   ///< T[j] (always full-length)
  std::size_t n0 = 0;         ///< |S0|
  std::size_t n1 = 0;         ///< |S1|
  double peak = 0.0;          ///< max_j |T[j]| within the window
  std::size_t peak_index = 0; ///< argmax within the window
  double integrated = 0.0;    ///< sum_j |T[j]| within the window
};

/// Bias signal for a fixed key guess. Uses the first `prefix` traces
/// (0 = all); peak statistics restricted to `window`.
BiasResult dpa_bias(const TraceSet& ts, const SelectionFn& d, unsigned guess,
                    std::size_t prefix = 0, SampleWindow window = {});

struct KeyRecoveryResult {
  std::vector<double> guess_peak;  ///< per-guess max |T|
  unsigned best_guess = 0;
  double best_peak = 0.0;
  double second_peak = 0.0;
  /// Nearest-rival ratio (>1 means the best guess stands out).
  double margin() const noexcept {
    return second_peak > 0.0 ? best_peak / second_peak : 0.0;
  }
  /// Rank of a reference key (0 = recovered exactly): the number of
  /// guesses with STRICTLY greater peak. Ties rank below the reference,
  /// so numerically identical guess columns never demote the true key,
  /// independent of float comparison order. Throws
  /// std::invalid_argument when `key` is not a guess.
  std::size_t rank_of(unsigned key) const;
};

/// Exhaust `num_guesses` key hypotheses and rank them by bias peak.
KeyRecoveryResult recover_key(const TraceSet& ts, const SelectionFn& d,
                              unsigned num_guesses, std::size_t prefix = 0,
                              SampleWindow window = {});

/// Multi-bit DPA: sum of per-bit bias peaks for each guess (the "d-bit
/// attack" refinement of Messerges/Bevan cited by the paper as "ways to
/// succeed the attack with a minimum of random values").
KeyRecoveryResult recover_key_multibit(
    const TraceSet& ts, const std::vector<SelectionFn>& bits,
    unsigned num_guesses, std::size_t prefix = 0, SampleWindow window = {});

/// Measurements-to-disclosure: the smallest prefix length starting at
/// `start` from which the correct key holds rank 0 for every probed
/// prefix up to the full set (scanned in `step` increments). Returns 0 if
/// the key is never stably recovered. One streaming pass over the trace
/// matrix — each probe finalizes the running sums, not a re-attack.
std::size_t measurements_to_disclosure(const TraceSet& ts, const SelectionFn& d,
                                       unsigned num_guesses, unsigned correct_key,
                                       std::size_t start = 8, std::size_t step = 8,
                                       SampleWindow window = {});

}  // namespace qdi::dpa
