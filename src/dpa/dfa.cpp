#include "qdi/dpa/dfa.hpp"

#include <stdexcept>
#include <string>

#include "qdi/crypto/aes.hpp"
#include "qdi/crypto/des.hpp"

namespace qdi::dpa {

DfaModel des_sbox_dfa_model(int box) {
  return [box](const DfaPair& pair, unsigned guess) {
    const auto delta =
        static_cast<std::uint8_t>(pair.golden ^ pair.faulty);
    if (delta == 0) return false;
    const auto in = static_cast<std::uint8_t>((pair.input ^ guess) & 0x3f);
    const std::uint8_t ref = crypto::des_sbox(box, in);
    for (int bit = 0; bit < 6; ++bit) {
      const auto flipped = static_cast<std::uint8_t>(in ^ (1u << bit));
      if ((ref ^ crypto::des_sbox(box, flipped)) == delta) return true;
    }
    return false;
  };
}

DfaModel aes_sbox_dfa_model() {
  return [](const DfaPair& pair, unsigned guess) {
    const auto delta =
        static_cast<std::uint8_t>(pair.golden ^ pair.faulty);
    if (delta == 0) return false;
    const auto in = static_cast<std::uint8_t>(pair.input ^ guess);
    const std::uint8_t ref = crypto::aes_sbox(in);
    for (int bit = 0; bit < 8; ++bit) {
      const auto flipped = static_cast<std::uint8_t>(in ^ (1u << bit));
      if ((ref ^ crypto::aes_sbox(flipped)) == delta) return true;
    }
    return false;
  };
}

std::size_t DfaResult::rank_of(unsigned key) const {
  if (key >= votes.size())
    throw std::invalid_argument("DfaResult::rank_of: key " +
                                std::to_string(key) + " outside [0, " +
                                std::to_string(votes.size()) + ")");
  std::size_t rank = 0;
  for (std::size_t g = 0; g < votes.size(); ++g)
    if (votes[g] > votes[key]) ++rank;
  return rank;
}

DfaResult dfa_attack(const DfaModel& model, std::span<const DfaPair> pairs,
                     unsigned num_guesses) {
  DfaResult res;
  res.votes.assign(num_guesses, 0);
  for (const DfaPair& pair : pairs) {
    if (pair.golden == pair.faulty) continue;  // masked: no information
    ++res.pairs_used;
    for (unsigned g = 0; g < num_guesses; ++g)
      if (model(pair, g)) ++res.votes[g];
  }
  for (unsigned g = 0; g < num_guesses; ++g) {
    if (res.votes[g] > res.best_votes) {
      res.best_votes = res.votes[g];
      res.best_guess = g;
    }
  }
  for (unsigned g = 0; g < num_guesses; ++g) {
    if (res.votes[g] == res.best_votes) ++res.survivors;
    if (g != res.best_guess && res.votes[g] > res.second_votes)
      res.second_votes = res.votes[g];
  }
  return res;
}

}  // namespace qdi::dpa
