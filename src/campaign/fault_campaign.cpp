#include "qdi/campaign/fault_campaign.hpp"

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>

#include "qdi/util/parallel.hpp"
#include "per_trace.hpp"
#include "scalar_engine.hpp"

namespace qdi::campaign {

namespace {

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

/// Immutable sweep plan shared by every worker's runner.
struct FaultPlan {
  std::vector<Injection> injections;
  std::size_t repeats = 1;
  double glitch_ps = 200.0;
  StimulusFn stimulus;
};

/// One worker's simulator for the sweep. Run i is injection
/// i / repeats under plaintext stream i % repeats. Each run simulates the
/// fault-free cycle first (the golden ciphertext an attacker is assumed
/// to know), rewinds to the post-reset epoch, and replays the identical
/// cycle with the fault armed — so golden and faulty runs differ in
/// nothing but the injection, and the comparison is exact, not
/// statistical. Every run starts from the post-reset state, so its
/// record does not depend on the runs this runner did before.
class FaultRunner {
 public:
  /// `nl` and `plan` must outlive the runner; `compiled` is null for
  /// the reference engine.
  FaultRunner(const netlist::Netlist& nl, const sim::EnvSpec& env,
              const FaultPlan& plan,
              const std::shared_ptr<const sim::CompiledNetlist>& compiled,
              const sim::DelayModel& delays)
      : plan_(&plan), rig_(compiled, nl, delays, tolerant(env)) {}

  /// Classify run `i` of the sweep rooted at `seed`.
  FaultRecord run(std::uint64_t seed, std::size_t i);

 private:
  const FaultPlan* plan_;
  detail::ScalarRig rig_;
  Stimulus stim_;
  sim::FourPhaseEnv::CycleResult cyc_;
  std::vector<int> golden_;
};

FaultRecord FaultRunner::run(std::uint64_t seed, std::size_t i) {
  const Injection& inj = plan_->injections.at(i / plan_->repeats);

  // Domain-tagged stream: disjoint from power acquisition's
  // split_stream(seed, index) even at the same (seed, index).
  util::Rng rng = util::split_stream(seed, i, util::kFaultDomain);
  plan_->stimulus(rng, i % plan_->repeats, stim_);

  // Golden run: the fault-free cycle under this plaintext.
  rig_.rewind();
  rig_.env().send_into(stim_.values, cyc_);
  if (!cyc_.ok)
    throw std::runtime_error(
        "run_fault_campaign: the fault-free cycle failed — the target cannot "
        "be classified against itself");
  golden_.assign(cyc_.outputs.begin(), cyc_.outputs.end());

  // Faulty run: identical cycle start, identical stimulus, one fault.
  rig_.rewind();
  sim::FaultInjector injector(rig_.engine());
  injector.arm({inj.net, inj.kind, inj.t_offset_ps, plan_->glitch_ps},
               rig_.env().next_cycle_start());
  bool oscillated = false;
  try {
    rig_.env().send_into(stim_.values, cyc_);
  } catch (const std::runtime_error&) {
    // Event-budget exhaustion: the faulted netlist oscillates instead of
    // settling. No stable output exists — a deadlock in the DoS sense.
    oscillated = true;
    rig_.forget_epoch();
  }
  injector.disarm();

  FaultRecord r;
  r.net = inj.net;
  r.kind = inj.kind;
  r.t_offset_ps = inj.t_offset_ps;
  r.plaintext = stim_.plaintext.empty() ? 0 : stim_.plaintext[0];
  r.golden = detail::packed_output_byte(golden_, 0);
  if (!oscillated) {
    r.faulty = detail::packed_output_byte(cyc_.outputs, 0);
    bool valid = !cyc_.outputs.empty();
    for (int v : cyc_.outputs) valid &= v >= 0;
    if (valid && cyc_.outputs != golden_) {
      // Wrong ciphertext emitted with a valid encoding: the attacker
      // reads it at t_valid whether or not the handshake finishes.
      r.cls = FaultClass::Exploitable;
    } else if (valid && cyc_.handshake.completed) {
      r.cls = FaultClass::Masked;
    } else {
      r.stalled_phase = cyc_.handshake.stalled_phase;
    }
  }
  return r;
}

}  // namespace

FaultCampaignResult run_fault_campaign(const TargetInstance& inst,
                                       std::uint64_t key,
                                       const FaultCampaignOptions& opt,
                                       const SimTraceSourceOptions& sim_opt,
                                       std::uint64_t seed, unsigned threads) {
  if (!inst.simulatable)
    throw std::invalid_argument("run_fault_campaign: target '" + inst.name +
                                "' is flow-only and cannot be simulated");
  if (sim_opt.engine == sim::EngineKind::Batch)
    throw std::invalid_argument(
        "run_fault_campaign: EngineKind::Batch cannot inject forces — fault "
        "sweeps need the compiled or reference engine");
  if (!inst.stimulus)
    throw std::invalid_argument("run_fault_campaign: target '" + inst.name +
                                "' provides no stimulus");
  if (inst.env.outputs.empty())
    throw std::invalid_argument("run_fault_campaign: target '" + inst.name +
                                "' exposes no output channels to classify");
  if (opt.kinds.empty())
    throw std::invalid_argument("run_fault_campaign: empty fault-kind list");
  if (opt.times_ps.empty())
    throw std::invalid_argument(
        "run_fault_campaign: empty injection-time list");
  if (opt.repeats == 0)
    throw std::invalid_argument("run_fault_campaign: repeats must be > 0");
  if (inst.dfa && inst.true_guess >= inst.num_guesses)
    throw std::invalid_argument(
        "run_fault_campaign: target '" + inst.name + "' has true_guess " +
        std::to_string(inst.true_guess) + ", outside its " +
        std::to_string(inst.num_guesses) + " guesses");

  std::vector<netlist::NetId> sites = opt.sites;
  if (sites.empty()) {
    sites = sim::fault_sites(inst.nl, opt.site_filters);
  } else {
    for (netlist::NetId n : sites)
      if (n >= inst.nl.num_nets())
        throw std::invalid_argument(
            "run_fault_campaign: explicit site is not a net of the target");
  }
  if (sites.empty())
    throw std::invalid_argument(
        "run_fault_campaign: no injection sites (filters matched nothing?)");
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

  FaultPlan plan;
  plan.repeats = opt.repeats;
  plan.glitch_ps = opt.glitch_ps;
  plan.stimulus = inst.stimulus;
  plan.injections.reserve(sites.size() * opt.kinds.size() *
                          opt.times_ps.size());
  for (netlist::NetId net : sites)
    for (sim::FaultKind kind : opt.kinds)
      for (double t : opt.times_ps) plan.injections.push_back({net, kind, t});

  FaultCampaignResult res;
  res.target = inst.name;
  res.key = key;
  res.sites = sites.size();
  res.injections = plan.injections.size();
  res.true_guess = inst.true_guess;

  // One runner per worker over a contiguous slab of runs, each run
  // writing its own record slot, so the records are independent of the
  // thread count. The compiled form is flattened once and shared.
  const std::shared_ptr<const sim::CompiledNetlist> compiled =
      detail::compiled_form(inst.nl, sim_opt);
  res.records.resize(res.injections * opt.repeats);
  util::parallel_for_slabs(
      threads, res.records.size(),
      [&](unsigned, std::size_t begin, std::size_t end) {
        FaultRunner runner(inst.nl, inst.env, plan, compiled, sim_opt.delays);
        for (std::size_t i = begin; i < end; ++i)
          res.records[i] = runner.run(seed, i);
      });

  for (const FaultRecord& r : res.records) {
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
  }
  res.summary.runs = res.records.size();

  if (opt.run_dfa && inst.dfa && inst.num_guesses > 0 && !res.pairs.empty())
    res.dfa = dpa::dfa_attack(inst.dfa, res.pairs, inst.num_guesses);
  return res;
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
