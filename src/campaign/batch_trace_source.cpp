#include "qdi/campaign/batch_trace_source.hpp"

#include <span>
#include <stdexcept>
#include <string>
#include <utility>

#include "per_trace.hpp"

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
    : BatchSimTraceSource(nl, std::move(env), std::move(stimulus), opt,
                          make_batch(nl, opt)) {
  if (!stimulus_)
    throw std::invalid_argument("BatchSimTraceSource: stimulus is required");
}

BatchSimTraceSource::BatchSimTraceSource(
    const netlist::Netlist& nl, sim::EnvSpec env, StimulusFn stimulus,
    SimTraceSourceOptions opt, std::shared_ptr<const sim::BatchNetlist> batch)
    : nl_(&nl),
      spec_(std::move(env)),
      stimulus_(std::move(stimulus)),
      opt_(std::move(opt)),
      batch_(std::move(batch)),
      sim_(batch_),
      env_(sim_, spec_),
      acc_(opt_.power, batch_->compiled().cap_ff) {}

std::unique_ptr<TraceSource> BatchSimTraceSource::clone() const {
  // The batch-compiled form is shared read-only.
  return std::unique_ptr<TraceSource>(
      new BatchSimTraceSource(*nl_, spec_, stimulus_, opt_, batch_));
}

void BatchSimTraceSource::acquire_into(const TraceRequest& req,
                                       AcquiredTrace& out) {
  acquire_block(req.seed, req.index, 1, &out);
}

void BatchSimTraceSource::acquire_block(std::uint64_t seed, std::size_t first,
                                        std::size_t count,
                                        AcquiredTrace* out) {
  if (count < 1 || count > sim::kBatchLanes)
    throw std::invalid_argument(
        "BatchSimTraceSource::acquire_block: count " + std::to_string(count) +
        " outside [1, " + std::to_string(sim::kBatchLanes) + "]");
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

  // Per-lane randomness through the shared prelude (noise follows at
  // finish), so lane l of this block IS trace first+l of the scalar
  // engines.
  double t0[sim::kBatchLanes];
  const std::vector<int>* vals[sim::kBatchLanes];
  for (std::size_t l = 0; l < count; ++l) {
    const double jitter =
        detail::trace_prelude(seed, first + l, stimulus_,
                              opt_.start_jitter_ps, rng_[l], stim_[l]);
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
    detail::pack_outputs(
        std::span<const int>(cyc_.outputs)
            .subspan(l * cyc_.num_outputs, cyc_.num_outputs),
        o.ciphertext);
    o.plaintext.assign(stim_[l].plaintext.begin(), stim_[l].plaintext.end());
    o.transitions = cyc_.transitions[l];
    o.glitches = sim_.glitch_count(l);
  }
}

}  // namespace qdi::campaign
