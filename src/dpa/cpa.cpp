#include "qdi/dpa/cpa.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <stdexcept>
#include <string>

#include "qdi/crypto/aes.hpp"
#include "qdi/crypto/des.hpp"
#include "qdi/dpa/online.hpp"

namespace qdi::dpa {

LeakageModel aes_sbox_hw_model(int byte) {
  return LeakageModel::byte_indexed(byte, [](std::uint8_t p, unsigned guess) {
    const std::uint8_t x = static_cast<std::uint8_t>(p ^ guess);
    return static_cast<double>(
        std::popcount(static_cast<unsigned>(crypto::aes_sbox(x))));
  });
}

LeakageModel aes_xor_hw_model(int byte) {
  return LeakageModel::byte_indexed(byte, [](std::uint8_t p, unsigned guess) {
    const std::uint8_t x = static_cast<std::uint8_t>(p ^ guess);
    return static_cast<double>(std::popcount(static_cast<unsigned>(x)));
  });
}

LeakageModel des_sbox_hw_model(int box) {
  return LeakageModel::byte_indexed(0, [box](std::uint8_t p, unsigned guess) {
    const std::uint8_t x = static_cast<std::uint8_t>((p ^ guess) & 0x3f);
    return static_cast<double>(
        std::popcount(static_cast<unsigned>(crypto::des_sbox(box, x))));
  });
}

std::size_t CpaResult::rank_of(unsigned key) const {
  if (key >= correlation.size())
    throw std::invalid_argument("CpaResult::rank_of: key " +
                                std::to_string(key) + " outside [0, " +
                                std::to_string(correlation.size()) + ")");
  const double ref = correlation[key];
  std::size_t rank = 0;
  for (double r : correlation)
    if (r > ref) ++rank;  // strictly greater: ties rank below the reference
  return rank;
}

std::vector<double> cpa_correlation_trace(const TraceSet& ts,
                                          const LeakageModel& model,
                                          unsigned guess, std::size_t prefix) {
  OnlineCpa acc(model.pinned(guess), 1);
  acc.add_prefix(ts, 0, ts.prefix_rows(prefix));
  return acc.correlation_trace(0);
}

CpaResult cpa_attack(const TraceSet& ts, const LeakageModel& model,
                     unsigned num_guesses, std::size_t prefix,
                     std::size_t window_lo, std::size_t window_hi) {
  OnlineCpa acc(model, num_guesses);
  acc.add_prefix(ts, 0, ts.prefix_rows(prefix));
  return acc.finalize(window_lo, window_hi);
}

std::size_t cpa_measurements_to_disclosure(
    const TraceSet& ts, const LeakageModel& model, unsigned num_guesses,
    unsigned correct_key, std::size_t start, std::size_t step,
    std::size_t window_lo, std::size_t window_hi) {
  if (step == 0) return 0;  // degenerate grid, never stably recovered
  // One streaming pass: the running sums advance to each probed prefix
  // and finalize there — never a re-attack from trace zero.
  OnlineCpa acc(model, num_guesses);
  MtdScan scan;
  for (std::size_t n = start; n <= ts.size(); n += step) {
    acc.add_prefix(ts, acc.count(), n);
    scan.probe(acc.finalize(window_lo, window_hi), correct_key, n);
  }
  return scan.value();
}

}  // namespace qdi::dpa
