#include "attack_state.hpp"

#include <stdexcept>
#include <utility>

namespace qdi::campaign::detail {

std::vector<dpa::SelectionFn> resolve_bits(const Dpa& cfg,
                                           const TargetInstance& inst) {
  std::vector<dpa::SelectionFn> bits;
  if (cfg.bits.empty()) {
    bits = inst.selection_bits;
  } else {
    for (int b : cfg.bits) {
      if (b < 0 || static_cast<std::size_t>(b) >= inst.selection_bits.size())
        throw std::invalid_argument(
            "Campaign: Dpa bit index out of range for target '" + inst.name +
            "'");
      bits.push_back(inst.selection_bits[static_cast<std::size_t>(b)]);
    }
  }
  return bits;
}

AttackState::AttackState(const AttackConfig& attack, const TargetInstance& inst)
    : inst_(&inst) {
  if (const Dpa* cfg = std::get_if<Dpa>(&attack)) {
    dpa_cfg_ = *cfg;
    dpa_.emplace(resolve_bits(*cfg, inst), inst.num_guesses);
  } else if (const Cpa* cpa = std::get_if<Cpa>(&attack)) {
    cpa_cfg_ = *cpa;
    cpa_.emplace(inst.leakage, inst.num_guesses);
  } else {
    throw std::invalid_argument(
        "AttackState: an attack (Dpa or Cpa) must be configured");
  }
}

bool AttackState::mtd_enabled() const noexcept {
  return dpa_cfg_ ? dpa_cfg_->compute_mtd : cpa_cfg_->compute_mtd;
}

void AttackState::add_rows(const dpa::TraceSet& segment, std::size_t lo,
                           std::size_t hi) {
  if (lo >= hi) return;
  if (dpa_)
    dpa_->add_prefix(segment, lo, hi);
  else
    cpa_->add_prefix(segment, lo, hi);
}

std::size_t AttackState::rank_now() const {
  if (dpa_) {
    const dpa::KeyRecoveryResult r = dpa_->recover(dpa_cfg_->window);
    return r.rank_of(inst_->true_guess);
  }
  const dpa::CpaResult r =
      cpa_->finalize(cpa_cfg_->window_lo, cpa_cfg_->window_hi);
  return r.rank_of(inst_->true_guess);
}

bool AttackState::mtd_success_now() const {
  if (dpa_) {
    // The MTD scan uses the single-bit D-function (the paper's
    // historical attack), exactly like dpa::measurements_to_disclosure.
    const dpa::KeyRecoveryResult r = dpa_->recover_single(0, dpa_cfg_->window);
    return (r.best_guess == inst_->true_guess) && r.best_peak > 0.0;
  }
  const dpa::CpaResult r =
      cpa_->finalize(cpa_cfg_->window_lo, cpa_cfg_->window_hi);
  return (r.best_guess == inst_->true_guess) && r.best_rho > 0.0;
}

AttackOutcome AttackState::outcome() const {
  AttackOutcome out;
  if (dpa_) {
    const dpa::KeyRecoveryResult rec = dpa_->recover(dpa_cfg_->window);
    out.kind = "dpa";
    out.guess_scores = rec.guess_peak;
    out.best_guess = rec.best_guess;
    out.best_score = rec.best_peak;
    out.second_score = rec.second_peak;
    out.margin = rec.margin();
    out.true_key_rank = rec.rank_of(inst_->true_guess);
    const dpa::BiasResult known =
        dpa_->bias(inst_->true_guess, 0, dpa_cfg_->window);
    out.known_key_bias_peak = known.peak;
    out.known_key_bias_integral = known.integrated;
  } else {
    const dpa::CpaResult rec =
        cpa_->finalize(cpa_cfg_->window_lo, cpa_cfg_->window_hi);
    out.kind = "cpa";
    out.guess_scores = rec.correlation;
    out.best_guess = rec.best_guess;
    out.best_score = rec.best_rho;
    out.second_score = rec.second_rho;
    out.margin = rec.margin();
    out.true_key_rank = rec.rank_of(inst_->true_guess);
  }
  return out;
}

std::vector<std::uint8_t> AttackState::serialize() const {
  return dpa_ ? dpa_->serialize_state() : cpa_->serialize_state();
}

void AttackState::restore(std::span<const std::uint8_t> bytes) {
  if (dpa_)
    dpa_->restore_state(bytes);
  else
    cpa_->restore_state(bytes);
}

void AttackState::merge(const AttackState& other) {
  if (dpa_)
    dpa_->merge(*other.dpa_);
  else
    cpa_->merge(*other.cpa_);
}

void AttackState::reset() noexcept {
  if (dpa_)
    dpa_->reset();
  else
    cpa_->reset();
}

void BlockMerge::ingest(std::size_t first, const dpa::TraceSet& segment) {
  std::unique_ptr<AttackState> st;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!free_.empty()) {
      st = std::move(free_.back());
      free_.pop_back();
    }
  }
  if (!st) st = std::make_unique<AttackState>(*attack_, *inst_);
  st->reset();
  st->add_rows(segment, 0, segment.size());
  std::lock_guard<std::mutex> lock(mu_);
  partials_[first] = std::move(st);
}

void BlockMerge::merge_into(std::size_t first, AttackState& into) {
  std::unique_ptr<AttackState> st;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = partials_.find(first);
    st = std::move(it->second);
    partials_.erase(it);
  }
  into.merge(*st);
  std::lock_guard<std::mutex> lock(mu_);
  free_.push_back(std::move(st));
}

std::size_t BlockMerge::parked() const {
  std::lock_guard<std::mutex> lock(mu_);
  return partials_.size();
}

void BlockMerge::drop_parked() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [first, st] : partials_) free_.push_back(std::move(st));
  partials_.clear();
}

}  // namespace qdi::campaign::detail
