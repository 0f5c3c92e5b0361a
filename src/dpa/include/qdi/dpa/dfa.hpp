// Differential Fault Analysis — the attack the fault-injection half of
// the paper defends against (Biham/Shamir on DES, Piret/Quisquater
// style on AES, here in single-S-box form matching the registry's slice
// targets).
//
// The attacker's material is (plaintext, golden ciphertext, faulty
// ciphertext) triples where the fault hit the S-box *input* — in the
// simulated targets, a forced x_i = p_i ^ k_i net. A key guess g is
// *consistent* with a pair when some single-bit input flip e explains
// the observed output differential:
//
//     exists e in {single bits}:  S(p ^ g) ^ S(p ^ g ^ e) == golden ^ faulty
//
// Crucially the test uses only the DIFFERENTIAL golden ^ faulty, never
// the absolute golden value: an attacker who could check S(p ^ g) ==
// golden directly would not need faults at all. Each pair votes for
// every consistent guess; enough pairs leave the true key (and, for
// some S-boxes, a small coset of ghosts) with the top vote count.
//
// QDI circuits defeat the collection step, not the mathematics: a
// stuck rail deadlocks the handshake instead of emitting a faulty
// ciphertext, so the (golden, faulty) pairs never exist. The fault
// campaign (campaign/fault_campaign.hpp) measures exactly that.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

namespace qdi::dpa {

/// One collected differential: the S-box-slice input word (plaintext
/// bits), the fault-free output word, and the faulty output word.
struct DfaPair {
  std::uint8_t input = 0;
  std::uint8_t golden = 0;
  std::uint8_t faulty = 0;
};

/// Consistency predicate: does `guess` explain `pair` under the fault
/// model? Wired per target (TargetInstance::dfa).
using DfaModel = std::function<bool(const DfaPair&, unsigned guess)>;

/// Single-bit input-flip model for DES S-box `box` (6-bit guess space).
DfaModel des_sbox_dfa_model(int box);
/// Single-bit input-flip model for the AES S-box (8-bit guess space).
DfaModel aes_sbox_dfa_model();

struct DfaResult {
  std::vector<std::size_t> votes;  ///< consistent-pair count per guess
  unsigned best_guess = 0;
  std::size_t best_votes = 0;
  std::size_t second_votes = 0;  ///< best count among the other guesses
  /// Pairs that actually carried information (golden != faulty); pairs
  /// with a zero differential are skipped — they are masked faults that
  /// leaked nothing.
  std::size_t pairs_used = 0;
  /// Guesses tied at best_votes — the residual key ambiguity (1 = unique
  /// recovery; S-box differential symmetries can leave small cosets).
  std::size_t survivors = 0;

  /// Rank of a reference guess: the number of guesses with STRICTLY
  /// more votes (ties rank below the reference, mirroring
  /// CpaResult::rank_of). Throws std::invalid_argument when `key` is not
  /// a guess.
  std::size_t rank_of(unsigned key) const;
};

/// Vote every guess against every informative pair. Guess space is
/// [0, num_guesses).
DfaResult dfa_attack(const DfaModel& model, std::span<const DfaPair> pairs,
                     unsigned num_guesses);

}  // namespace qdi::dpa
