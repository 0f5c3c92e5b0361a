#include "attack_state.hpp"

#include <stdexcept>
#include <utility>

namespace qdi::campaign::detail {

namespace {

/// The Dpa bit list resolved against the target's selection functions.
/// Throws std::invalid_argument on an out-of-range index.
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

}  // namespace

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

void AttackState::add(const WorkerPool::Block& blk) {
  if (dpa_)
    dpa_->add_prefix(blk.segment, 0, blk.count);
  else
    cpa_->add_prefix(blk.segment, 0, blk.count);
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

void AttackState::probe_mtd(dpa::MtdScan& scan, std::size_t prefix) const {
  if (dpa_)
    scan.probe(dpa_->recover_single(0, dpa_cfg_->window), inst_->true_guess,
               prefix);
  else
    scan.probe(cpa_->finalize(cpa_cfg_->window_lo, cpa_cfg_->window_hi),
               inst_->true_guess, prefix);
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

Ingest::Ingest(const AttackConfig& attack, const TargetInstance& inst,
               const WorkerPool& pool, std::size_t chunk_budget,
               std::size_t fold_width)
    : attack_(&attack),
      inst_(&inst),
      block_traces_(fold_width > 0 ? fold_width
                                   : pool.block_traces(chunk_budget)) {
  if (fold_width > 0) partials_.resize(pool.slots());
}

void Ingest::fold(const WorkerPool::Block& blk) {
  if (partials_.empty()) return;
  std::optional<AttackState>& st = partials_[blk.slot];
  if (st)
    st->reset();
  else
    st.emplace(*attack_, *inst_);
  st->add(blk);
}

void Ingest::commit(const WorkerPool::Block& blk, AttackState& into) const {
  if (partials_.empty())
    into.add(blk);
  else
    into.merge(*partials_[blk.slot]);
}

}  // namespace qdi::campaign::detail
