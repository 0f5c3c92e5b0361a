#include "qdi/campaign/fault_campaign.hpp"

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <utility>

#include "scalar_engine.hpp"

namespace qdi::campaign {

namespace {

/// Wire format of a classified run through AcquiredTrace (the record
/// the WorkerPool commits): fault_class packs the class in the low
/// nibble and the stall phase above it; ciphertext carries the faulty
/// output bytes followed by the golden output bytes. Encoded in
/// FaultTraceSource::acquire_into, decoded in run_fault_campaign —
/// nowhere else.
int encode_class(FaultClass cls, sim::HandshakePhase phase) noexcept {
  return static_cast<int>(cls) | (static_cast<int>(phase) << 4);
}
FaultClass decode_class(int v) noexcept {
  return static_cast<FaultClass>(v & 0xf);
}
sim::HandshakePhase decode_phase(int v) noexcept {
  return static_cast<sim::HandshakePhase>((v >> 4) & 0x7);
}

/// Pack decoded 1-of-2 channel outputs LSB-first, 8 channels per byte
/// (same convention as SimTraceSource ciphertexts). Invalid channels
/// (-1) pack as 0 — callers only read the bytes of valid runs.
void pack_outputs(const std::vector<int>& outputs, std::size_t num_channels,
                  std::vector<std::uint8_t>& out) {
  const std::size_t bytes = (num_channels + 7) / 8;
  const std::size_t base = out.size();
  out.resize(base + bytes, 0);
  for (std::size_t b = 0; b < outputs.size() && b < num_channels; ++b)
    if (outputs[b] == 1)
      out[base + b / 8] |= static_cast<std::uint8_t>(1u << (b % 8));
}

/// Fault runs expect stalls and overruns; strict-mode warnings and the
/// period throw would turn every deadlock into noise.
sim::EnvSpec tolerant(sim::EnvSpec e) {
  e.strict = false;
  return e;
}

/// One (net, kind, time) combination of the sweep grid.
struct Injection {
  netlist::NetId net = netlist::kNoNet;
  sim::FaultKind kind = sim::FaultKind::StuckAt0;
  double t_offset_ps = 0.0;
};

/// Immutable sweep plan shared by every worker clone.
struct FaultPlan {
  std::vector<Injection> injections;
  std::size_t repeats = 1;
  double glitch_ps = 200.0;
  StimulusFn stimulus;
};

/// TraceSource that runs one classified injection per request index:
/// injection index/repeats, plaintext stream index%repeats. Each run
/// simulates the fault-free cycle first (the golden ciphertext an
/// attacker is assumed to know), rewinds to the post-reset epoch, and
/// replays the identical cycle with the fault armed — so golden and
/// faulty runs differ in nothing but the injection, and the comparison
/// is exact, not statistical.
class FaultTraceSource final : public TraceSource {
 public:
  FaultTraceSource(const netlist::Netlist& nl, sim::EnvSpec env,
                   std::shared_ptr<const FaultPlan> plan,
                   const FaultCampaignOptions& opt)
      : nl_(&nl),
        spec_(tolerant(std::move(env))),
        plan_(std::move(plan)),
        compiled_(opt.engine == sim::EngineKind::Compiled
                      ? (opt.precompiled ? opt.precompiled
                                         : sim::compile(nl, opt.delays))
                      : nullptr),
        delays_(opt.delays),
        sim_(detail::make_scalar_engine(compiled_, nl, delays_)),
        csim_(compiled_ ? static_cast<sim::CompiledSimulator*>(sim_.get())
                        : nullptr),
        env_(*sim_, spec_) {
    sim_->set_log_enabled(false);
  }

  FaultTraceSource(const FaultTraceSource&) = delete;
  FaultTraceSource& operator=(const FaultTraceSource&) = delete;

  void acquire_into(const TraceRequest& req, AcquiredTrace& out) override;

  std::unique_ptr<TraceSource> clone() const override {
    return std::unique_ptr<TraceSource>(
        new FaultTraceSource(*this, WorkerCloneTag{}));
  }

  std::string name() const override { return "fault-sim"; }

 private:
  struct WorkerCloneTag {};
  FaultTraceSource(const FaultTraceSource& other, WorkerCloneTag)
      : nl_(other.nl_),
        spec_(other.spec_),
        plan_(other.plan_),
        compiled_(other.compiled_),
        delays_(other.delays_),
        sim_(detail::make_scalar_engine(compiled_, *nl_, delays_)),
        csim_(compiled_ ? static_cast<sim::CompiledSimulator*>(sim_.get())
                        : nullptr),
        env_(*sim_, spec_) {
    sim_->set_log_enabled(false);
  }

  /// Return to the post-reset state. The epoch fast path is invalid
  /// after an oscillation abort left events in the queue (reinit_); a
  /// full reset + reset handshake re-establishes it.
  void rewind() {
    if (csim_ != nullptr && epoch_.has_value() && !reinit_) {
      csim_->restore_epoch(*epoch_);
      return;
    }
    sim_->reset_state();
    env_.apply_reset();
    if (csim_ != nullptr) epoch_ = csim_->save_epoch();
    reinit_ = false;
  }

  const netlist::Netlist* nl_;
  sim::EnvSpec spec_;
  std::shared_ptr<const FaultPlan> plan_;
  std::shared_ptr<const sim::CompiledNetlist> compiled_;
  sim::DelayModel delays_;
  std::unique_ptr<sim::SimEngine> sim_;
  sim::CompiledSimulator* csim_ = nullptr;
  sim::FourPhaseEnv env_;
  Stimulus stim_;
  sim::FourPhaseEnv::CycleResult cyc_;
  std::vector<int> golden_;
  std::optional<sim::CompiledSimulator::Epoch> epoch_;
  bool reinit_ = false;
};

void FaultTraceSource::acquire_into(const TraceRequest& req,
                                    AcquiredTrace& out) {
  const std::size_t inj_idx = req.index / plan_->repeats;
  const std::size_t rep = req.index % plan_->repeats;
  const Injection& inj = plan_->injections.at(inj_idx);

  // Domain-tagged stream: disjoint from power acquisition's
  // split_stream(seed, index) even at the same (seed, index).
  util::Rng rng = util::split_stream(req.seed, req.index, util::kFaultDomain);
  plan_->stimulus(rng, rep, stim_);

  // Golden run: the fault-free cycle under this plaintext.
  rewind();
  env_.send_into(stim_.values, cyc_);
  if (!cyc_.ok)
    throw std::runtime_error(
        "FaultCampaign: the fault-free cycle failed — the target cannot be "
        "classified against itself");
  golden_.assign(cyc_.outputs.begin(), cyc_.outputs.end());

  // Faulty run: identical cycle start, identical stimulus, one fault.
  rewind();
  sim::FaultInjector injector(*sim_);
  injector.arm({inj.net, inj.kind, inj.t_offset_ps, plan_->glitch_ps},
               env_.next_cycle_start());
  bool oscillated = false;
  try {
    env_.send_into(stim_.values, cyc_);
  } catch (const std::runtime_error&) {
    // Event-budget exhaustion: the faulted netlist oscillates instead of
    // settling. No stable output exists — a deadlock in the DoS sense.
    oscillated = true;
    reinit_ = true;
  }
  injector.disarm();

  FaultClass cls = FaultClass::Deadlock;
  sim::HandshakePhase phase = sim::HandshakePhase::None;
  bool valid = false;
  if (!oscillated) {
    valid = !cyc_.outputs.empty();
    for (int v : cyc_.outputs) valid &= v >= 0;
    if (valid && cyc_.outputs != golden_) {
      // Wrong ciphertext emitted with a valid encoding: the attacker
      // reads it at t_valid whether or not the handshake finishes.
      cls = FaultClass::Exploitable;
    } else if (valid && cyc_.handshake.completed) {
      cls = FaultClass::Masked;
    } else {
      phase = cyc_.handshake.stalled_phase;
    }
  }

  const std::size_t num_out = spec_.outputs.size();
  out.ciphertext.clear();
  pack_outputs(oscillated ? std::vector<int>{} : cyc_.outputs, num_out,
               out.ciphertext);
  pack_outputs(golden_, num_out, out.ciphertext);
  out.plaintext.assign(stim_.plaintext.begin(), stim_.plaintext.end());
  out.transitions = oscillated ? 0 : cyc_.transitions;
  out.glitches = sim_->glitch_count();
  out.fault_class = encode_class(cls, phase);
}

}  // namespace

FaultCampaignResult run_fault_campaign(const TargetInstance& inst,
                                       std::uint64_t key,
                                       const FaultCampaignOptions& opt,
                                       std::uint64_t seed, unsigned threads) {
  if (!inst.simulatable)
    throw std::invalid_argument("FaultCampaign: target '" + inst.name +
                                "' is flow-only and cannot be simulated");
  if (opt.engine == sim::EngineKind::Batch)
    throw std::invalid_argument(
        "FaultCampaign: EngineKind::Batch cannot inject forces — fault "
        "sweeps need the compiled or reference engine");
  if (!inst.stimulus)
    throw std::invalid_argument("FaultCampaign: target '" + inst.name +
                                "' provides no stimulus");
  if (inst.env.outputs.empty())
    throw std::invalid_argument("FaultCampaign: target '" + inst.name +
                                "' exposes no output channels to classify");
  if (opt.kinds.empty())
    throw std::invalid_argument("FaultCampaign: empty fault-kind list");
  if (opt.times_ps.empty())
    throw std::invalid_argument("FaultCampaign: empty injection-time list");
  if (opt.repeats == 0)
    throw std::invalid_argument("FaultCampaign: repeats must be > 0");

  std::vector<netlist::NetId> sites = opt.sites;
  if (sites.empty()) {
    sites = sim::fault_sites(inst.nl, opt.site_filters);
  } else {
    for (netlist::NetId n : sites)
      if (n >= inst.nl.num_nets())
        throw std::invalid_argument(
            "FaultCampaign: explicit site is not a net of the target");
  }
  if (sites.empty())
    throw std::invalid_argument(
        "FaultCampaign: no injection sites (filters matched nothing?)");
  if (opt.max_sites > 0 && sites.size() > opt.max_sites) {
    // Deterministic subsample: partial Fisher-Yates from the campaign's
    // domain stream, then re-sorted so run order stays site-ordered.
    util::Rng rng = util::split_stream(seed, sites.size(), util::kFaultDomain);
    for (std::size_t i = 0; i < opt.max_sites; ++i) {
      const std::size_t j =
          i + static_cast<std::size_t>(rng.below(sites.size() - i));
      std::swap(sites[i], sites[j]);
    }
    sites.resize(opt.max_sites);
    std::sort(sites.begin(), sites.end());
  }

  auto plan = std::make_shared<FaultPlan>();
  plan->repeats = opt.repeats;
  plan->glitch_ps = opt.glitch_ps;
  plan->stimulus = inst.stimulus;
  plan->injections.reserve(sites.size() * opt.kinds.size() *
                           opt.times_ps.size());
  for (netlist::NetId net : sites)
    for (sim::FaultKind kind : opt.kinds)
      for (double t : opt.times_ps)
        plan->injections.push_back({net, kind, t});

  FaultCampaignResult res;
  res.target = inst.name;
  res.key = key;
  res.sites = sites.size();
  res.injections = plan->injections.size();
  res.true_guess = inst.true_guess;
  const std::size_t runs = res.injections * opt.repeats;
  res.records.reserve(runs);

  const std::size_t out_bytes = (inst.env.outputs.size() + 7) / 8;
  FaultTraceSource src(inst.nl, inst.env, plan, opt);
  WorkerPool pool(src, threads == 0 ? 1 : threads);
  AcquisitionStats st;
  pool.run_blocks(
      0, runs, seed, pool.block_traces(/*budget=*/256), {},
      /*segments=*/false, nullptr,
      [&](const WorkerPool::Block& blk) {
        for (std::size_t i = 0; i < blk.count; ++i) {
          const AcquiredTrace& rec = blk.records[i];
          const Injection& inj =
              plan->injections[(blk.first + i) / opt.repeats];
          FaultRecord r;
          r.net = inj.net;
          r.kind = inj.kind;
          r.t_offset_ps = inj.t_offset_ps;
          r.plaintext = rec.plaintext.empty() ? 0 : rec.plaintext[0];
          r.faulty = rec.ciphertext[0];
          r.golden = rec.ciphertext[out_bytes];
          r.cls = decode_class(rec.fault_class);
          r.stalled_phase = decode_phase(rec.fault_class);
          switch (r.cls) {
            case FaultClass::Deadlock: ++res.summary.deadlock; break;
            case FaultClass::Masked: ++res.summary.masked; break;
            case FaultClass::Exploitable:
              ++res.summary.exploitable;
              // Multi-byte outputs would need a wider DfaPair; the slice
              // targets (the DFA-bearing ones) are single-byte.
              res.pairs.push_back({r.plaintext, r.golden, r.faulty});
              break;
          }
          ++res.summary.runs;
          res.records.push_back(r);
        }
      },
      st);

  if (opt.run_dfa && inst.dfa && inst.num_guesses > 0 && !res.pairs.empty())
    res.dfa = dpa::dfa_attack(inst.dfa, res.pairs, inst.num_guesses);
  return res;
}

FaultCampaignResult FaultCampaign::run() const {
  if (!target_.valid())
    throw std::invalid_argument("FaultCampaign: no target set");
  TargetInstance inst = target_.build(key_);
  return run_fault_campaign(inst, key_, opt_, seed_, threads_);
}

util::Table FaultCampaignResult::table() const {
  util::Table t({"outcome", "runs", "share"});
  const auto share = [this, &t](std::size_t n) {
    return summary.runs > 0
               ? t.format_double(100.0 * static_cast<double>(n) /
                                 static_cast<double>(summary.runs)) +
                     "%"
               : std::string("-");
  };
  t.add_row({"deadlock", std::to_string(summary.deadlock),
             share(summary.deadlock)});
  t.add_row({"masked", std::to_string(summary.masked), share(summary.masked)});
  t.add_row({"exploitable", std::to_string(summary.exploitable),
             share(summary.exploitable)});
  return t;
}

}  // namespace qdi::campaign
