#include "qdi/campaign/batch_trace_source.hpp"

#include <cassert>
#include <stdexcept>
#include <utility>

namespace qdi::campaign {

namespace {

std::shared_ptr<const sim::BatchNetlist> make_batch(
    const netlist::Netlist& nl, const SimTraceSourceOptions& opt) {
  // `precompiled` must have been compiled from this netlist with these
  // delays (the sweep/bench reuse contract); batch-compile validates the
  // structure either way.
  if (opt.precompiled) return sim::compile_batch(opt.precompiled);
  return sim::compile_batch(nl, opt.delays);
}

}  // namespace

BatchSimTraceSource::BatchSimTraceSource(const netlist::Netlist& nl,
                                         sim::EnvSpec env, StimulusFn stimulus,
                                         SimTraceSourceOptions opt)
    : nl_(&nl),
      spec_(std::move(env)),
      stimulus_(std::move(stimulus)),
      opt_(opt),
      batch_(make_batch(nl, opt_)),
      sim_(batch_),
      env_(sim_, spec_),
      acc_(opt_.power, batch_->compiled().cap_ff) {
  if (!stimulus_)
    throw std::invalid_argument("BatchSimTraceSource: stimulus is required");
}

BatchSimTraceSource::BatchSimTraceSource(const BatchSimTraceSource& other,
                                         WorkerCloneTag)
    : nl_(other.nl_),
      spec_(other.spec_),
      stimulus_(other.stimulus_),
      opt_(other.opt_),
      batch_(other.batch_),  // the batch-compiled form is shared read-only
      sim_(batch_),
      env_(sim_, spec_),
      acc_(opt_.power, batch_->compiled().cap_ff) {}

std::unique_ptr<TraceSource> BatchSimTraceSource::clone() const {
  return std::unique_ptr<TraceSource>(
      new BatchSimTraceSource(*this, WorkerCloneTag{}));
}

void BatchSimTraceSource::acquire_into(const TraceRequest& req,
                                       AcquiredTrace& out) {
  acquire_block(req.seed, req.index, 1, &out);
}

void BatchSimTraceSource::acquire_block(std::uint64_t seed, std::size_t first,
                                        std::size_t count,
                                        AcquiredTrace* out) {
  assert(count >= 1 && count <= sim::kBatchLanes);
  // Shared post-reset epoch: reset is lane-uniform, so it runs once per
  // worker and every block restores the snapshot — O(nets) per block of
  // up to 64 traces.
  if (epoch_.has_value()) {
    sim_.restore_epoch(*epoch_);
  } else {
    sim_.reset_state();
    env_.apply_reset();
    epoch_ = sim_.save_epoch();
  }

  // Per-lane randomness: the exact SimTraceSource draw order (stimulus,
  // then jitter, then noise at finish) from the per-index stream, so
  // lane l of this block IS trace first+l of the scalar engines.
  double t0[sim::kBatchLanes];
  const std::vector<int>* vals[sim::kBatchLanes];
  for (std::size_t l = 0; l < count; ++l) {
    rng_[l] = util::split_stream(seed, first + l);
    stimulus_(rng_[l], first + l, stim_[l]);
    const double jitter = opt_.start_jitter_ps > 0.0
                              ? rng_[l].uniform(0.0, opt_.start_jitter_ps)
                              : 0.0;
    t0[l] = env_.next_cycle_start(l) - jitter;
    vals[l] = &stim_[l].values;
  }
  const std::uint64_t mask = count == sim::kBatchLanes
                                 ? ~std::uint64_t{0}
                                 : ((std::uint64_t{1} << count) - 1);

  acc_.begin_windows(t0, mask, spec_.period_ps);
  sim_.set_power_sink(&acc_);
  try {
    env_.send_into({vals, count}, cyc_);
  } catch (...) {
    sim_.set_power_sink(nullptr);
    throw;
  }
  sim_.set_power_sink(nullptr);

  for (std::size_t l = 0; l < count; ++l) {
    AcquiredTrace& o = out[l];
    acc_.finish_into_lane(l, o.trace, &rng_[l]);
    // Decoded output channels packed as "ciphertext" bytes, LSB-first,
    // exactly like SimTraceSource.
    o.ciphertext.assign((cyc_.num_outputs + 7) / 8, 0);
    for (std::size_t b = 0; b < cyc_.num_outputs; ++b)
      if (cyc_.outputs[l * cyc_.num_outputs + b] == 1)
        o.ciphertext[b / 8] |= static_cast<std::uint8_t>(1u << (b % 8));
    o.plaintext.assign(stim_[l].plaintext.begin(), stim_[l].plaintext.end());
    o.transitions = cyc_.transitions[l];
    o.glitches = sim_.glitch_count(l);
  }
}

}  // namespace qdi::campaign
