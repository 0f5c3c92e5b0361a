// Attack configuration and outcome types of the campaign API, split out
// of campaign.hpp so every consumer of "which attack, what result" —
// the fluent Campaign builder, the fused streaming analysis, and the
// sharded Coordinator runtime — shares one definition
// without pulling in the whole builder.
#pragma once

#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include "qdi/dpa/dpa.hpp"

namespace qdi::campaign {

/// Difference-of-means DPA (eqs. 7-9 of the paper).
struct Dpa {
  /// Selection-bit indices into the target's selection_bits (empty = all:
  /// the multi-bit refinement). A single entry is the paper's historical
  /// single-bit D-function.
  std::vector<int> bits;
  dpa::SampleWindow window{};
  /// Also scan measurements-to-disclosure (uses the first selection bit).
  bool compute_mtd = false;
  std::size_t mtd_start = 50;
  std::size_t mtd_step = 50;
};

/// Correlation power analysis over the target's leakage model.
struct Cpa {
  std::size_t window_lo = 0;
  std::size_t window_hi = 0;
  /// Also scan measurements-to-disclosure (same stability rule as Dpa).
  bool compute_mtd = false;
  std::size_t mtd_start = 50;
  std::size_t mtd_step = 50;
};

/// The campaign's attack stage: none, DPA, or CPA.
using AttackConfig = std::variant<std::monostate, Dpa, Cpa>;

struct AttackOutcome {
  std::string kind;  ///< "dpa" or "cpa"
  std::vector<double> guess_scores;
  unsigned best_guess = 0;
  double best_score = 0.0;
  double second_score = 0.0;
  double margin = 0.0;           ///< best / nearest rival
  std::size_t true_key_rank = 0; ///< 0 = key recovered exactly
  std::size_t mtd = 0;           ///< measurements-to-disclosure (0 = n/a)
  /// Designer-side known-key assessment: DPA bias at the true guess.
  double known_key_bias_peak = 0.0;
  double known_key_bias_integral = 0.0;
  double wall_ms = 0.0;
};

/// True-key rank as a function of the trace-count prefix.
struct RankPoint {
  std::size_t traces = 0;
  std::size_t rank = 0;
};

}  // namespace qdi::campaign
