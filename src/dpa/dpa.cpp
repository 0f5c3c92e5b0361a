#include "qdi/dpa/dpa.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "qdi/dpa/online.hpp"

namespace qdi::dpa {

BiasResult dpa_bias(const TraceSet& ts, const SelectionFn& d, unsigned guess,
                    std::size_t prefix, SampleWindow window) {
  OnlineDpa acc({d.pinned(guess)}, 1);
  acc.add_prefix(ts, 0, ts.prefix_rows(prefix));
  return acc.bias(0, 0, window);
}

std::size_t KeyRecoveryResult::rank_of(unsigned key) const {
  if (key >= guess_peak.size())
    throw std::invalid_argument("KeyRecoveryResult::rank_of: key " +
                                std::to_string(key) + " outside [0, " +
                                std::to_string(guess_peak.size()) + ")");
  const double ref = guess_peak[key];
  std::size_t rank = 0;
  for (double p : guess_peak)
    if (p > ref) ++rank;  // strictly greater: ties rank below the reference
  return rank;
}

KeyRecoveryResult recover_key(const TraceSet& ts, const SelectionFn& d,
                              unsigned num_guesses, std::size_t prefix,
                              SampleWindow window) {
  OnlineDpa acc({d}, num_guesses);
  acc.add_prefix(ts, 0, ts.prefix_rows(prefix));
  return acc.recover(window);
}

KeyRecoveryResult recover_key_multibit(const TraceSet& ts,
                                       const std::vector<SelectionFn>& bits,
                                       unsigned num_guesses, std::size_t prefix,
                                       SampleWindow window) {
  OnlineDpa acc(bits, num_guesses);
  acc.add_prefix(ts, 0, ts.prefix_rows(prefix));
  return acc.recover(window);
}

std::size_t measurements_to_disclosure(const TraceSet& ts, const SelectionFn& d,
                                       unsigned num_guesses, unsigned correct_key,
                                       std::size_t start, std::size_t step,
                                       SampleWindow window) {
  if (step == 0) return 0;  // degenerate grid, never stably recovered
  // Scan prefixes; find the earliest n such that the attack succeeds at n
  // and at every subsequent probed prefix (stability requirement). One
  // streaming pass: each probe finalizes the running sums in place.
  OnlineDpa acc({d}, num_guesses);
  MtdScan scan;
  for (std::size_t n = start; n <= ts.size(); n += step) {
    acc.add_prefix(ts, acc.count(), n);
    scan.probe(acc.recover(window), correct_key, n);
  }
  return scan.value();
}

}  // namespace qdi::dpa
