// Campaign benchmark of the QDI DPA reproduction.
//
// One process runs one named workload: a closed loop of whole campaigns
// (target build -> prepare -> recipe -> criterion -> compile -> acquire
// -> analyse -> verdict) through the public qdi::campaign API, repeated
// until the measuring time has passed, with medians reported.
//
//   --trace 0  Untraced. Only timestamps are taken: around the campaign
//              call, and inside a Campaign::source() factory that builds
//              exactly the default source and marks the end of set-up.
//              Prints the end-to-end metrics.
//   --trace 1  Traced. The same campaign is rebuilt from layer calls with
//              spans around each one (target build, xform passes,
//              criterion, compile, a timing TraceSource decorator on every
//              acquisition worker, the analysis accumulators driven
//              directly, the sharded runtime's progress/commit hooks).
//              Untraced campaigns are interleaved so that the attack
//              outcomes can be compared and the tracing overhead measured.
//              Prints the per-layer metrics. Spans are kept in memory and
//              written at exit to --spans as JSON lines (run, id, parent,
//              name, thread, start_us, end_us) after a provenance line.
//
// Every campaign is checked: the des workloads must recover the key at
// rank 0, aes_slice_balanced must decode to the software AES reference on a
// sample of traces, simulated counts must repeat exactly, and a traced
// campaign must reach the same attack outcome as an untraced one. The last
// line of stdout is one JSON object with the keys correct, attempted,
// failed and metrics; the process exits non-zero when a check failed.
//
// Run through perfbench/run.py, which builds this program first.

#include <cpuid.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <numeric>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "qdi/qdi.hpp"

namespace {

namespace fs = std::filesystem;
namespace qc = qdi::campaign;
namespace qn = qdi::netlist;
namespace qs = qdi::sim;
namespace qx = qdi::xform;

using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile (p in [0, 100]).
double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(v.size())));
  return v[std::min(v.size(), std::max<std::size_t>(rank, 1)) - 1];
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// ---- provenance ---------------------------------------------------------------

std::string cpu_model() {
  unsigned regs[12] = {};
  for (unsigned i = 0; i < 3; ++i)
    if (__get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                    &regs[4 * i + 2], &regs[4 * i + 3]) == 0)
      return "unknown";
  char brand[49] = {};
  std::memcpy(brand, regs, 48);
  std::string s(brand);
  const auto lo = s.find_first_not_of(' ');
  return lo == std::string::npos ? "unknown" : s.substr(lo);
}

#ifndef QDI_BENCH_BUILD_TYPE
#define QDI_BENCH_BUILD_TYPE "unknown"
#endif

constexpr bool kOptimizedBuild =
#if defined(__OPTIMIZE__) && defined(NDEBUG)
    true;
#else
    false;
#endif

// ---- spans ----------------------------------------------------------------------

struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 = root
  std::string name;
  int run = 0;
  unsigned thread = 0;
  Clock::time_point t0, t1;
};

/// In-memory span store; written out once at exit.
class Tracer {
 public:
  explicit Tracer(Clock::time_point origin) : origin_(origin) {}

  std::uint64_t new_id() { return next_id_.fetch_add(1); }

  void add(Span s) {
    const std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(std::move(s));
  }

  /// Re-parent the spans of `run` named `name` (spans recorded before
  /// their parent existed, e.g. the shard windows derived from hooks).
  void reparent(int run, const std::string& name,
                const std::function<std::uint64_t(const Span&)>& parent_of) {
    const std::lock_guard<std::mutex> lock(mu_);
    for (Span& s : spans_)
      if (s.run == run && s.name == name) s.parent = parent_of(s);
  }

  std::vector<Span> run_spans(int run) const {
    const std::lock_guard<std::mutex> lock(mu_);
    std::vector<Span> out;
    for (const Span& s : spans_)
      if (s.run == run) out.push_back(s);
    return out;
  }

  void write(const std::string& path, const std::string& header) const {
    std::ofstream f(path);
    f << header << '\n';
    const std::lock_guard<std::mutex> lock(mu_);
    for (const Span& s : spans_) {
      f << "{\"run\": " << s.run << ", \"id\": " << s.id
        << ", \"parent\": " << s.parent << ", \"name\": \"" << s.name
        << "\", \"thread\": " << s.thread << ", \"start_us\": "
        << std::chrono::duration<double, std::micro>(s.t0 - origin_).count()
        << ", \"end_us\": "
        << std::chrono::duration<double, std::micro>(s.t1 - origin_).count()
        << "}\n";
    }
  }

 private:
  Clock::time_point origin_;
  std::atomic<std::uint64_t> next_id_{1};
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// RAII span on the calling thread.
class Scope {
 public:
  Scope(Tracer& tr, std::string name, std::uint64_t parent, int run,
        unsigned thread = 0)
      : tr_(tr) {
    span_.id = tr.new_id();
    span_.parent = parent;
    span_.name = std::move(name);
    span_.run = run;
    span_.thread = thread;
    span_.t0 = Clock::now();
  }
  ~Scope() {
    span_.t1 = Clock::now();
    tr_.add(std::move(span_));
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  std::uint64_t id() const noexcept { return span_.id; }

 private:
  Tracer& tr_;
  Span span_;
};

/// Total length of the union of [t0, t1) intervals clipped to [lo, hi).
double covered_ms(std::vector<std::pair<Clock::time_point, Clock::time_point>> iv,
                  Clock::time_point lo, Clock::time_point hi) {
  std::sort(iv.begin(), iv.end());
  double total = 0.0;
  Clock::time_point cur_lo = lo, cur_hi = lo;
  bool open = false;
  for (auto [a, b] : iv) {
    a = std::max(a, lo);
    b = std::min(b, hi);
    if (b <= a) continue;
    if (open && a <= cur_hi) {
      cur_hi = std::max(cur_hi, b);
    } else {
      if (open) total += ms_between(cur_lo, cur_hi);
      cur_lo = a;
      cur_hi = b;
      open = true;
    }
  }
  if (open) total += ms_between(cur_lo, cur_hi);
  return total;
}

/// Layer of a span: the part of its name before the first '.'.
std::string layer_of(const std::string& name) {
  return name.substr(0, name.find('.'));
}

/// Self time per layer: each span's duration minus the part of its
/// interval that its child spans (on any thread) cover.
std::map<std::string, double> layer_self_ms(const std::vector<Span>& spans) {
  std::map<std::uint64_t, std::vector<std::pair<Clock::time_point,
                                                Clock::time_point>>> kids;
  for (const Span& s : spans)
    if (s.parent != 0) kids[s.parent].push_back({s.t0, s.t1});
  std::map<std::string, double> self;
  for (const Span& s : spans) {
    const auto it = kids.find(s.id);
    const double child =
        it == kids.end() ? 0.0 : covered_ms(it->second, s.t0, s.t1);
    self[layer_of(s.name)] += ms_between(s.t0, s.t1) - child;
  }
  return self;
}

// ---- workloads --------------------------------------------------------------------

/// Traces per fused segment: Campaign::fused()'s default chunk.
constexpr std::size_t kFusedChunk = 1024;
/// Campaigns per untraced run at least, so set-up time is a median.
constexpr std::size_t kMinReps = 3;
/// Traces per sampled golden-model check on aes_slice_balanced.
constexpr std::size_t kGoldenSamples = 8;

struct Workload {
  std::string name;
  qc::CircuitTarget target;
  std::uint64_t key = 0;
  std::uint64_t seed = 1;
  std::size_t traces = 0;
  unsigned threads = 1;
  qs::EngineKind engine = qs::EngineKind::Compiled;
  std::optional<qx::Recipe> recipe;
  bool skew = false;        ///< leak amplifier on SBOX1's output rails
  bool expect_key = false;  ///< the attack must rank the true key first
  bool golden = false;      ///< sample traces checked against inst.golden
  bool sharded = false;
  qc::ShardedOptions shard_opt;
};

/// Rail 1 of SBOX1's output channels (des_round/sbox0/s/out*) gets 1.8x
/// its load — the uncontrolled place-and-route stand-in the tests use.
/// Without it des_round leaks nothing and the attack has no answer to
/// check.
void skew_sbox0(qn::Netlist& nl) {
  std::size_t skewed = 0;
  for (qn::ChannelId ch = 0; ch < nl.num_channels(); ++ch) {
    const qn::Channel& c = nl.channel(ch);
    if (c.name.find("sbox0/s/out") != std::string::npos) {
      nl.net(c.rails[1]).cap_ff *= 1.8;
      ++skewed;
    }
  }
  if (skewed == 0)
    throw std::runtime_error("skew_sbox0: no sbox0/s/out* channel found");
}

Workload make_workload(const std::string& name, std::uint64_t seed) {
  Workload w;
  w.name = name;
  w.seed = seed;
  // The key comes from its own stream of the seed, so the key and the
  // per-trace stimuli (stream = trace index) never share draws.
  qdi::util::Rng key_rng = qdi::util::split_stream(seed, 0x6b6579ull, 1);
  if (name == "des_exact" || name == "des_fold_sharded") {
    w.target = qc::des_round();
    w.key = key_rng.next() & 0xffffffffffffULL;
    w.skew = true;
    w.expect_key = true;
    if (name == "des_exact") {
      w.traces = 8192;  // the serial des_round campaign of ROADMAP item 2
      w.threads = 2;
    } else {
      // Two checkpoint windows per shard (8 commits per campaign), each
      // 16 blocks deep, so the pipeline runs past its start-up.
      w.traces = 32768;
      w.threads = 4;
      w.engine = qs::EngineKind::Batch;
      w.sharded = true;
      w.shard_opt.shards = 4;
      w.shard_opt.ingest_block_traces = 256;
      w.shard_opt.checkpoint_interval = 4096;
    }
  } else if (name == "aes_slice_balanced") {
    w.target = qc::aes_byte_slice();
    w.key = key_rng.next() & 0xffULL;
    w.traces = 8192;
    w.threads = 2;
    w.recipe = qx::balanced({.verify = false, .threads = 2});
    w.golden = true;
  } else {
    throw std::invalid_argument("unknown workload '" + name +
                                "' (des_exact, des_fold_sharded, "
                                "aes_slice_balanced)");
  }
  return w;
}

/// Exactly the source Campaign builds by default.
std::unique_ptr<qc::TraceSource> default_source(
    const qc::TargetInstance& inst, const qc::SimTraceSourceOptions& opt) {
  if (opt.engine == qs::EngineKind::Batch)
    return std::make_unique<qc::BatchSimTraceSource>(inst.nl, inst.env,
                                                     inst.stimulus, opt);
  return std::make_unique<qc::SimTraceSource>(inst.nl, inst.env, inst.stimulus,
                                              opt);
}

/// The workload's campaign. The traced run hands in a target and a
/// prepare hook wrapped in spans; both do exactly what the plain ones do.
qc::Campaign make_campaign(const Workload& w, qc::CircuitTarget target,
                           qc::Campaign::PrepareFn prepare) {
  qc::Campaign c;
  c.target(std::move(target))
      .key(w.key)
      .seed(w.seed)
      .traces(w.traces)
      .threads(w.threads)
      .engine(w.engine)
      .attack(qc::Cpa{});
  if (prepare) c.prepare(std::move(prepare));
  if (w.recipe) c.recipe(*w.recipe);
  if (!w.sharded) c.fused(kFusedChunk);
  return c;
}

/// A fresh, empty checkpoint directory for one sharded campaign.
std::string fresh_ckpt_dir(const fs::path& workdir, const std::string& tag) {
  const fs::path dir = workdir / ("ckpt-" + tag);
  fs::remove_all(dir);
  return dir.string();
}

// ---- outcome ------------------------------------------------------------------------

struct Outcome {
  unsigned best_guess = 0;
  double best_score = 0.0;
  double second_score = 0.0;
  std::size_t rank = 0;
  std::vector<double> scores;

  static Outcome of(const qc::AttackOutcome& a) {
    return {a.best_guess, a.best_score, a.second_score, a.true_key_rank,
            a.guess_scores};
  }
  static Outcome of(const qdi::dpa::CpaResult& r, unsigned true_guess) {
    return {r.best_guess, r.best_rho, r.second_rho, r.rank_of(true_guess),
            r.correlation};
  }
  bool operator==(const Outcome&) const = default;
};

/// Correctness ledger: every check counts as one attempted operation.
struct Checks {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> notes;

  void expect(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      notes.push_back(what);
    }
  }
};

// ---- untraced campaign ------------------------------------------------------------------

struct Untraced {
  double setup_s = 0.0;
  double campaign_s = 0.0;
  std::size_t merged = 0;  ///< traces merged into the verdict
  Outcome outcome;
  std::optional<std::size_t> transitions;  ///< run() reports them
  std::size_t cells_added = 0;
  std::optional<qn::Netlist> attacked;     ///< kept for the golden check
  bool resumed = false;                    ///< a shard adopted old state
};

Untraced run_untraced(const Workload& w, const fs::path& workdir,
                      const std::string& tag, bool keep_netlist) {
  Clock::time_point ready{};
  qc::Campaign c = make_campaign(
      w, w.target, w.skew ? qc::Campaign::PrepareFn(skew_sbox0) : nullptr);
  c.source([&ready](const qc::TargetInstance& inst,
                    const qc::SimTraceSourceOptions& opt) {
    std::unique_ptr<qc::TraceSource> src = default_source(inst, opt);
    ready = Clock::now();
    return src;
  });
  Untraced u;
  if (w.sharded) {
    qc::ShardedOptions opt = w.shard_opt;
    opt.checkpoint_dir = fresh_ckpt_dir(workdir, tag);
    const auto t0 = Clock::now();
    const qc::ShardedResult r = c.sharded(opt);
    const auto t1 = Clock::now();
    fs::remove_all(opt.checkpoint_dir);
    u.setup_s = seconds_between(t0, ready);
    u.campaign_s = seconds_between(t0, t1);
    u.merged = r.covered;
    if (r.attack) u.outcome = Outcome::of(*r.attack);
    for (const qc::ShardReport& s : r.shards) u.resumed |= !s.resumed_from.empty();
  } else {
    const auto t0 = Clock::now();
    qc::CampaignResult r = c.run();
    const auto t1 = Clock::now();
    u.setup_s = seconds_between(t0, ready);
    u.campaign_s = seconds_between(t0, t1);
    u.merged = r.attack ? w.traces : 0;
    if (r.attack) u.outcome = Outcome::of(*r.attack);
    u.transitions = r.acquisition.transitions;
    u.cells_added = r.xform ? r.xform->cells_added() : 0;
    if (keep_netlist) u.attacked = std::move(r.nl);
  }
  return u;
}

/// Acquire a sample of traces from the attacked netlist (outside any timed
/// region) and compare their decoded outputs with the target's software
/// reference. Returns the number of mismatching traces.
std::size_t golden_mismatches(const Workload& w, const qn::Netlist& attacked) {
  const qc::TargetInstance ref = w.target.build(w.key);
  qc::SimTraceSource src(attacked, ref.env, ref.stimulus);
  std::size_t bad = 0;
  qc::AcquiredTrace a;
  for (std::size_t k = 0; k < kGoldenSamples; ++k) {
    src.acquire_into({w.seed, k * (w.traces / kGoldenSamples)}, a);
    const std::vector<int> want = ref.golden(a.plaintext);
    // Ciphertexts pack the decoded output-channel bits LSB-first.
    std::vector<std::uint8_t> packed((want.size() + 7) / 8, 0);
    for (std::size_t b = 0; b < want.size(); ++b)
      if (want[b] != 0) packed[b / 8] |= static_cast<std::uint8_t>(1u << (b % 8));
    if (packed != a.ciphertext) ++bad;
  }
  return bad;
}

// ---- traced campaign ----------------------------------------------------------------------

/// Shared by every TimingSource of one traced campaign.
struct AcqSink {
  Tracer* tracer = nullptr;
  std::uint64_t parent = 0;
  int run = 0;
  std::atomic<unsigned> next_worker{0};

  std::mutex mu;
  double busy_ms = 0.0;
  std::size_t traces = 0;
  std::size_t transitions = 0;
  double occupancy_x_traces = 0.0;  ///< batch lane occupancy, trace-weighted
  std::size_t occupancy_traces = 0;
};

/// TraceSource decorator that times acquire_block on whichever worker runs
/// it. Stats and spans stay in the instance and are handed to the sink
/// when it is destroyed (when its WorkerPool or shard attempt ends).
class TimingSource final : public qc::TraceSource {
 public:
  TimingSource(std::unique_ptr<qc::TraceSource> inner, AcqSink& sink)
      : inner_(std::move(inner)), sink_(&sink), worker_(sink.next_worker++) {}
  ~TimingSource() override { flush(); }
  TimingSource(const TimingSource&) = delete;
  TimingSource& operator=(const TimingSource&) = delete;

  void acquire_into(const qc::TraceRequest& req,
                    qc::AcquiredTrace& out) override {
    acquire_block(req.seed, req.index, 1, &out);
  }
  std::size_t batch_width() const override { return inner_->batch_width(); }
  void acquire_block(std::uint64_t seed, std::size_t first, std::size_t count,
                     qc::AcquiredTrace* out) override {
    const auto t0 = Clock::now();
    inner_->acquire_block(seed, first, count, out);
    const auto t1 = Clock::now();
    busy_ms_ += ms_between(t0, t1);
    traces_ += count;
    for (std::size_t i = 0; i < count; ++i) transitions_ += out[i].transitions;
    // Back-to-back blocks on one worker coalesce into one span; busy time
    // is summed exactly above.
    if (!spans_.empty() && t0 - spans_.back().t1 < std::chrono::microseconds(2)) {
      spans_.back().t1 = t1;
    } else {
      Span s;
      s.name = "sim.acquire_block";
      s.t0 = t0;
      s.t1 = t1;
      spans_.push_back(std::move(s));
    }
  }
  std::unique_ptr<qc::TraceSource> clone() const override {
    return std::make_unique<TimingSource>(inner_->clone(), *sink_);
  }
  std::string name() const override { return inner_->name(); }

 private:
  void flush() {
    const std::lock_guard<std::mutex> lock(sink_->mu);
    sink_->busy_ms += busy_ms_;
    sink_->traces += traces_;
    sink_->transitions += transitions_;
    if (const auto* b =
            dynamic_cast<const qc::BatchSimTraceSource*>(inner_.get());
        b != nullptr && traces_ > 0) {
      sink_->occupancy_x_traces +=
          b->mean_lane_occupancy() * static_cast<double>(traces_);
      sink_->occupancy_traces += traces_;
    }
    if (sink_->tracer == nullptr) return;
    for (Span& s : spans_) {
      s.id = sink_->tracer->new_id();
      s.parent = sink_->parent;
      s.run = sink_->run;
      s.thread = worker_;
      sink_->tracer->add(std::move(s));
    }
  }

  std::unique_ptr<qc::TraceSource> inner_;
  AcqSink* sink_;
  unsigned worker_;
  double busy_ms_ = 0.0;
  std::size_t traces_ = 0;
  std::size_t transitions_ = 0;
  std::vector<Span> spans_;
};

/// Every per-layer metric with its unit, in report order (the per_layer
/// list of BENCHMARK.json; perfbench/run.py checks that they agree).
struct LayerMetric {
  const char* name;
  const char* unit;
};
constexpr LayerMetric kLayerMetrics[] = {
    {"gates.build_ms", "ms"},
    {"xform.cone_balance_ms", "ms"},
    {"xform.cap_equalize_ms", "ms"},
    {"xform.peak_rss_mb", "MB"},
    {"xform.cells_added", "count"},
    {"core.criterion_ms", "ms"},
    {"sim.compile_ms", "ms"},
    {"sim.acquire_us_per_trace", "us"},
    {"sim.transitions_per_trace", "count"},
    {"sim.ns_per_transition", "ns"},
    {"sim.batch_lane_occupancy", "ratio"},
    {"campaign.worker_busy_frac", "ratio"},
    {"campaign.consumer_wait_ms", "ms"},
    {"campaign.segment_ms_p50", "ms"},
    {"campaign.segment_ms_p99", "ms"},
    {"dpa.ingest_us_per_trace", "us"},
    {"dpa.merge_ms", "ms"},
    {"dpa.finalize_ms", "ms"},
    {"ckpt.commits", "count"},
    {"ckpt.bytes_per_commit", "bytes"},
    {"ckpt.commit_ms", "ms"},
    {"trace.overhead_ms", "ms"},
    {"trace.span_coverage", "ratio"},
};

struct Traced {
  double campaign_s = 0.0;
  Outcome outcome;                       ///< of the traced campaign
  std::optional<Outcome> rebuilt;        ///< sharded: the layer-call rebuild
  std::size_t merged = 0;
  std::size_t transitions = 0;
  std::size_t cells_added = 0;
  bool resumed = false;
  std::map<std::string, double> layer;   ///< per-layer metrics of this rep
  std::map<std::string, double> self_ms; ///< self time per layer
  std::vector<double> segment_ms;        ///< intervals between segments
};

double span_ms(const std::vector<Span>& spans, const std::string& name) {
  double ms = 0.0;
  for (const Span& s : spans)
    if (s.name == name) ms += ms_between(s.t0, s.t1);
  return ms;
}

/// Fill the sink-derived acquisition metrics.
void acquisition_metrics(const AcqSink& sink, unsigned threads,
                         double acquire_wall_ms, Traced& t) {
  const double n = static_cast<double>(std::max<std::size_t>(sink.traces, 1));
  t.transitions = sink.transitions;
  t.layer["sim.acquire_us_per_trace"] = 1e3 * sink.busy_ms / n;
  t.layer["sim.transitions_per_trace"] =
      static_cast<double>(sink.transitions) / n;
  t.layer["sim.ns_per_transition"] =
      sink.transitions > 0
          ? 1e6 * sink.busy_ms / static_cast<double>(sink.transitions)
          : 0.0;
  // Scalar engines simulate one trace per event: one lane of one.
  t.layer["sim.batch_lane_occupancy"] =
      sink.occupancy_traces > 0
          ? sink.occupancy_x_traces / static_cast<double>(sink.occupancy_traces)
          : 1.0;
  t.layer["campaign.worker_busy_frac"] =
      acquire_wall_ms > 0.0 ? sink.busy_ms / (threads * acquire_wall_ms) : 0.0;
}

/// Coverage of the root span by all other spans of its run, and the
/// per-layer self times.
void span_metrics(const Tracer& tr, int run, Traced& t) {
  const std::vector<Span> spans = tr.run_spans(run);
  const Span* root = nullptr;
  std::vector<std::pair<Clock::time_point, Clock::time_point>> iv;
  for (const Span& s : spans) {
    if (s.parent == 0)
      root = &s;
    else
      iv.push_back({s.t0, s.t1});
  }
  if (root == nullptr) return;
  const double root_ms = ms_between(root->t0, root->t1);
  t.layer["trace.span_coverage"] =
      root_ms > 0.0 ? covered_ms(iv, root->t0, root->t1) / root_ms : 0.0;
  t.self_ms = layer_self_ms(spans);
}

/// Traced rebuild of a fused run() campaign from layer calls: the same
/// stages Campaign::run executes, in the same order, each behind a span.
Traced run_traced_fused(const Workload& w, Tracer& tr, int run,
                        bool sample_rss) {
  Traced t;
  AcqSink sink;
  sink.tracer = &tr;
  sink.run = run;
  qdi::dpa::CpaResult result;
  const auto t_start = Clock::now();
  {
    Scope root(tr, "campaign", 0, run);
    qc::TargetInstance inst = [&] {
      Scope s(tr, "gates.build", root.id(), run);
      return w.target.build(w.key);
    }();
    if (w.skew) {
      Scope s(tr, "campaign.prepare", root.id(), run);
      skew_sbox0(inst.nl);
    }
    if (w.recipe) {
      for (const auto& pass : w.recipe->pipeline.passes()) {
        Scope s(tr, "xform." + pass->name(), root.id(), run);
        t.cells_added += pass->run(inst.nl).cells_added;
      }
    }
    if (sample_rss) t.layer["xform.peak_rss_mb"] = peak_rss_mb();
    {
      Scope s(tr, "core.criterion", root.id(), run);
      (void)qdi::core::evaluate_criterion(inst.nl);
    }
    qc::SimTraceSourceOptions opt;
    opt.engine = w.engine;
    {
      Scope s(tr, "sim.compile", root.id(), run);
      opt.precompiled = qs::compile(inst.nl, opt.delays);
    }
    std::optional<TimingSource> src;
    std::optional<qc::WorkerPool> pool;
    {
      Scope s(tr, "campaign.source", root.id(), run);
      src.emplace(default_source(inst, opt), sink);
      pool.emplace(*src, w.threads);
    }
    qdi::dpa::OnlineCpa cpa(inst.leakage, inst.num_guesses);
    double acquire_ms = 0.0;
    double wait_ms = 0.0;
    {
      Scope acq(tr, "campaign.acquire", root.id(), run);
      sink.parent = acq.id();
      const auto t0 = Clock::now();
      Clock::time_point prev_start = t0, prev_end = t0;
      pool->acquire_chunked(
          w.traces, w.seed, kFusedChunk,
          [&](const qdi::dpa::TraceSet& seg, std::size_t) {
            const auto now = Clock::now();
            wait_ms += ms_between(prev_end, now);
            t.segment_ms.push_back(ms_between(prev_start, now));
            prev_start = now;
            {
              Scope s(tr, "dpa.ingest", acq.id(), run);
              cpa.add_prefix(seg, 0, seg.size());
            }
            prev_end = Clock::now();
          });
      acquire_ms = ms_between(t0, Clock::now());
    }
    {
      Scope s(tr, "dpa.finalize", root.id(), run);
      result = cpa.finalize();
    }
    t.merged = cpa.count();
    t.outcome = Outcome::of(result, inst.true_guess);
    pool.reset();
    src.reset();  // hands worker 0's stats and spans to the sink
    t.layer["campaign.consumer_wait_ms"] = wait_ms;
    acquisition_metrics(sink, w.threads, acquire_ms, t);
  }
  t.campaign_s = seconds_between(t_start, Clock::now());
  const std::vector<Span> spans = tr.run_spans(run);
  t.layer["gates.build_ms"] = span_ms(spans, "gates.build");
  t.layer["xform.cone_balance_ms"] = span_ms(spans, "xform.cone-balance");
  t.layer["xform.cap_equalize_ms"] = span_ms(spans, "xform.cap-equalize");
  t.layer["xform.cells_added"] = static_cast<double>(t.cells_added);
  t.layer["core.criterion_ms"] = span_ms(spans, "core.criterion");
  t.layer["sim.compile_ms"] = span_ms(spans, "sim.compile");
  t.layer["dpa.ingest_us_per_trace"] =
      1e3 * span_ms(spans, "dpa.ingest") / static_cast<double>(w.traces);
  t.layer["dpa.finalize_ms"] = span_ms(spans, "dpa.finalize");
  span_metrics(tr, run, t);
  return t;
}

/// Traced Campaign::sharded: the timing decorator on every worker, the
/// target build and compile inside the campaign's own hooks, and the
/// shard runtime's on_progress/on_commit hooks for the checkpoint layer.
Traced run_traced_sharded(const Workload& w, const fs::path& workdir,
                          Tracer& tr, int run, bool sample_rss) {
  Traced t;
  AcqSink sink;
  sink.tracer = &tr;
  sink.run = run;

  struct Event {
    std::size_t shard;
    Clock::time_point at;
    bool commit;
    std::uintmax_t bytes;
  };
  std::mutex ev_mu;
  std::vector<Event> events;

  qc::ShardedOptions opt = w.shard_opt;
  opt.checkpoint_dir = fresh_ckpt_dir(workdir, "t" + std::to_string(run));
  const std::string dir = opt.checkpoint_dir;
  opt.on_progress = [&](std::size_t shard, std::uint64_t) {
    const auto now = Clock::now();
    const std::lock_guard<std::mutex> lock(ev_mu);
    events.push_back({shard, now, false, 0});
  };
  opt.on_commit = [&](std::size_t shard, std::uint64_t) {
    const auto now = Clock::now();
    const std::uintmax_t bytes = fs::file_size(qc::checkpoint_path(dir, shard));
    const std::lock_guard<std::mutex> lock(ev_mu);
    events.push_back({shard, now, true, bytes});
  };

  Clock::time_point ready{};
  Clock::time_point t0{}, t1{};
  std::optional<qc::ShardedResult> r;
  std::uint64_t root_id = 0;
  {
    Scope root(tr, "campaign", 0, run);
    root_id = root.id();
    sink.parent = root_id;
    const qc::CircuitTarget& base = w.target;
    qc::CircuitTarget timed(base.name(), [&](std::uint64_t key) {
      Scope s(tr, "gates.build", root_id, run);
      return base.build(key);
    });
    qc::Campaign::PrepareFn prepare;
    if (w.skew)
      prepare = [&](qn::Netlist& nl) {
        Scope s(tr, "campaign.prepare", root_id, run);
        skew_sbox0(nl);
      };
    qc::Campaign c = make_campaign(w, std::move(timed), std::move(prepare));
    c.source([&](const qc::TargetInstance& inst,
                 const qc::SimTraceSourceOptions& o)
                 -> std::unique_ptr<qc::TraceSource> {
      if (sample_rss) t.layer["xform.peak_rss_mb"] = peak_rss_mb();
      qc::SimTraceSourceOptions opt2 = o;
      {
        Scope s(tr, "sim.compile", root_id, run);
        opt2.precompiled = qs::compile(inst.nl, opt2.delays);
      }
      Scope s(tr, "campaign.source", root_id, run);
      auto src = std::make_unique<TimingSource>(default_source(inst, opt2), sink);
      ready = Clock::now();
      return src;
    });
    t0 = Clock::now();
    r = c.sharded(opt);
    t1 = Clock::now();
  }
  fs::remove_all(dir);
  t.campaign_s = seconds_between(t0, t1);
  t.merged = r->covered;
  if (r->attack) t.outcome = Outcome::of(*r->attack);
  for (const qc::ShardReport& s : r->shards) t.resumed |= !s.resumed_from.empty();

  // Shard runtime and checkpoint layer from the hooks. Shards run one at a
  // time (concurrency 1), so checkpoint windows tile the acquisition: a
  // window span runs from the previous commit (or the end of set-up) to
  // its on_commit, and holds that window's acquire_block spans plus a
  // commit span from the shard's last analysed segment to on_commit.
  // The window's self time is what the runtime does around acquisition:
  // block folds, merges, stream digest, pool start-up. Segment intervals
  // are taken between consecutive analysed segments of one shard, so a
  // commit in between shows up as a long interval — the barrier stall.
  std::sort(events.begin(), events.end(),
            [](const Event& a, const Event& b) { return a.at < b.at; });
  std::map<std::size_t, Clock::time_point> last_progress;
  std::vector<double> commit_ms;
  std::vector<Span> windows;
  double bytes = 0.0;
  Clock::time_point last_commit = ready;
  for (const Event& e : events) {
    const auto it = last_progress.find(e.shard);
    if (!e.commit) {
      if (it != last_progress.end())
        t.segment_ms.push_back(ms_between(it->second, e.at));
      last_progress[e.shard] = e.at;
      continue;
    }
    Span win;
    win.id = tr.new_id();
    win.parent = root_id;
    win.name = "campaign.shard_window";
    win.run = run;
    win.t0 = last_commit;
    win.t1 = e.at;
    Span s;
    s.id = tr.new_id();
    s.parent = win.id;
    s.name = "ckpt.commit";
    s.run = run;
    s.t0 = it != last_progress.end() ? it->second : e.at;
    s.t1 = e.at;
    commit_ms.push_back(ms_between(s.t0, s.t1));
    windows.push_back(win);
    tr.add(std::move(win));
    tr.add(std::move(s));
    bytes += static_cast<double>(e.bytes);
    last_commit = e.at;
  }
  tr.reparent(run, "sim.acquire_block", [&](const Span& s) {
    for (const Span& w : windows)
      if (s.t0 >= w.t0 && s.t0 < w.t1) return w.id;
    return root_id;
  });
  {
    // After the last commit the coordinator merges the shard states and
    // emits the verdict.
    Span s;
    s.id = tr.new_id();
    s.parent = root_id;
    s.name = "dpa.shard_merge";
    s.run = run;
    s.t0 = last_commit;
    s.t1 = t1;
    tr.add(std::move(s));
  }
  const double commits = static_cast<double>(commit_ms.size());
  t.layer["ckpt.commits"] = commits;
  t.layer["ckpt.bytes_per_commit"] = commits > 0 ? bytes / commits : 0.0;
  t.layer["ckpt.commit_ms"] =
      commits > 0 ? std::accumulate(commit_ms.begin(), commit_ms.end(), 0.0) /
                        commits
                  : 0.0;
  acquisition_metrics(sink, w.threads, ms_between(ready, last_commit), t);
  const std::vector<Span> spans = tr.run_spans(run);
  t.layer["gates.build_ms"] = span_ms(spans, "gates.build");
  t.layer["sim.compile_ms"] = span_ms(spans, "sim.compile");
  span_metrics(tr, run, t);
  return t;
}

/// The analysis side of the sharded campaign rebuilt from layer calls:
/// the same shard plan, checkpoint windows and 256-trace blocks, with
/// dpa::OnlineCpa folds on the workers and merges in ascending block
/// order, as the shard runtime does — minus the durable commits. Its
/// verdict must equal the runtime's bit for bit.
void run_rebuilt_sharded(const Workload& w, Tracer& tr, int run, Traced& t) {
  using qdi::dpa::OnlineCpa;
  double wait_ms = 0.0;
  {
    Scope root(tr, "analysis", 0, run);
    qc::TargetInstance inst = w.target.build(w.key);
    if (w.skew) skew_sbox0(inst.nl);
    qc::SimTraceSourceOptions opt;
    opt.engine = w.engine;
    const std::unique_ptr<qc::TraceSource> src = default_source(inst, opt);
    qc::WorkerPool pool(*src, w.threads);
    std::mutex mu;
    std::vector<std::unique_ptr<OnlineCpa>> spare;
    std::map<std::size_t, std::unique_ptr<OnlineCpa>> partial;
    OnlineCpa merged(inst.leakage, inst.num_guesses);
    const std::size_t interval = std::max<std::size_t>(w.shard_opt.checkpoint_interval, 1);
    for (const qc::ShardSpec& spec : qc::plan_shards(w.traces, w.shard_opt.shards)) {
      OnlineCpa acc(inst.leakage, inst.num_guesses);
      for (std::uint64_t next = spec.lo; next < spec.hi;) {
        const std::uint64_t end = std::min<std::uint64_t>(spec.hi, next + interval);
        Scope acq(tr, "campaign.acquire", root.id(), run);
        Clock::time_point prev_end = Clock::now();
        qc::WorkerPool::ShardedIngest si;
        si.ingest = [&](unsigned worker, std::size_t block,
                        const qdi::dpa::TraceSet& seg, std::size_t) {
          Scope s(tr, "dpa.ingest", acq.id(), run, worker);
          std::unique_ptr<OnlineCpa> p;
          {
            const std::lock_guard<std::mutex> lock(mu);
            if (!spare.empty()) {
              p = std::move(spare.back());
              spare.pop_back();
            }
          }
          if (!p) p = std::make_unique<OnlineCpa>(inst.leakage, inst.num_guesses);
          p->reset();
          p->add_prefix(seg, 0, seg.size());
          const std::lock_guard<std::mutex> lock(mu);
          partial[block] = std::move(p);
        };
        si.commit = [&](std::size_t block, const qdi::dpa::TraceSet&,
                        std::size_t) {
          wait_ms += ms_between(prev_end, Clock::now());
          {
            Scope s(tr, "dpa.merge", acq.id(), run);
            std::unique_ptr<OnlineCpa> p;
            {
              const std::lock_guard<std::mutex> lock(mu);
              const auto it = partial.find(block);
              p = std::move(it->second);
              partial.erase(it);
            }
            acc.merge(*p);
            const std::lock_guard<std::mutex> lock(mu);
            spare.push_back(std::move(p));
          }
          prev_end = Clock::now();
        };
        pool.acquire_sharded_range(static_cast<std::size_t>(next),
                                   static_cast<std::size_t>(end - next), w.seed,
                                   w.shard_opt.ingest_block_traces, {}, si);
        next = end;
      }
      Scope s(tr, "dpa.merge", root.id(), run);
      merged.merge(acc);
    }
    qdi::dpa::CpaResult res;
    {
      Scope s(tr, "dpa.finalize", root.id(), run);
      res = merged.finalize();
    }
    t.rebuilt = Outcome::of(res, inst.true_guess);
  }
  const std::vector<Span> spans = tr.run_spans(run);
  t.layer["dpa.ingest_us_per_trace"] =
      1e3 * span_ms(spans, "dpa.ingest") / static_cast<double>(w.traces);
  t.layer["dpa.merge_ms"] = span_ms(spans, "dpa.merge");
  t.layer["dpa.finalize_ms"] = span_ms(spans, "dpa.finalize");
  t.layer["campaign.consumer_wait_ms"] = wait_ms;
}

// ---- report -------------------------------------------------------------------------------

std::string num(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string workdir = ".";
  std::string spans;
  std::string commit = "unknown";
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + k);
    const std::string v = argv[++i];
    if (k == "--workload") a.workload = v;
    else if (k == "--seed") a.seed = std::stoull(v);
    else if (k == "--seconds") a.seconds = std::stod(v);
    else if (k == "--trace") a.trace = std::stoi(v) != 0;
    else if (k == "--workdir") a.workdir = v;
    else if (k == "--spans") a.spans = v;
    else if (k == "--commit") a.commit = v;
    else throw std::invalid_argument("unknown flag " + k);
  }
  if (a.workload.empty()) throw std::invalid_argument("--workload is required");
  return a;
}

/// Checks shared by every untraced campaign; `first` is the run's first.
void check_untraced(const Workload& w, const Untraced& u, const Untraced& first,
                    Checks& checks) {
  checks.expect(u.merged == w.traces, "untraced: not every trace was merged");
  checks.expect(!u.resumed, "untraced: a shard resumed from an old checkpoint");
  if (w.expect_key)
    checks.expect(u.outcome.rank == 0, "untraced: true key not at rank 0 (rank " +
                                           std::to_string(u.outcome.rank) + ")");
  checks.expect(u.outcome == first.outcome,
                "untraced: attack outcome differs between repetitions");
  checks.expect(u.transitions == first.transitions,
                "untraced: transition count did not repeat");
  checks.expect(u.cells_added == first.cells_added,
                "untraced: xform cells_added did not repeat");
}

int run_main(const Args& args) {
  const Workload w = make_workload(args.workload, args.seed);
  const fs::path workdir(args.workdir);
  fs::create_directories(workdir);

  std::ostringstream prov;
  prov << "nproc=" << std::thread::hardware_concurrency() << " cpu=\""
       << cpu_model() << "\" build=" << QDI_BENCH_BUILD_TYPE
       << " optimized=" << (kOptimizedBuild ? "yes" : "no")
       << " kernel=" << qdi::dpa::kernels::active().name
       << " commit=" << args.commit << " seed=" << args.seed
       << " workload=" << w.name << " trace=" << (args.trace ? 1 : 0)
       << " traces=" << w.traces << " threads=" << w.threads;
  std::cout << "# provenance " << prov.str() << '\n';
  if (!kOptimizedBuild) {
    std::cerr << "campaign_bench: refusing to report numbers from a "
                 "non-optimized build\n";
    return 3;
  }

  const Clock::time_point begin = Clock::now();
  const auto elapsed = [&] { return seconds_between(begin, Clock::now()); };
  constexpr std::size_t kMaxReps = 200;
  Checks checks;
  std::size_t traces_attempted = 0;
  std::size_t traces_missing = 0;
  std::vector<Untraced> untraced;
  std::vector<Traced> traced;
  Tracer tracer(begin);

  const auto one_untraced = [&] {
    const bool first = untraced.empty();
    untraced.push_back(run_untraced(w, workdir,
                                    "u" + std::to_string(untraced.size()),
                                    first && w.golden));
    Untraced& u = untraced.back();
    traces_attempted += w.traces;
    traces_missing += w.traces - std::min(u.merged, w.traces);
    check_untraced(w, u, untraced.front(), checks);
    if (u.attacked) {
      const std::size_t bad = golden_mismatches(w, *u.attacked);
      checks.expect(bad == 0, "golden: " + std::to_string(bad) + " of " +
                                  std::to_string(kGoldenSamples) +
                                  " sampled traces disagree with the AES "
                                  "reference");
      u.attacked.reset();
    }
  };

  std::vector<Metric> metrics;
  if (!args.trace) {
    while (untraced.size() < kMaxReps &&
           (untraced.size() < kMinReps ||
            elapsed() < args.seconds))
      one_untraced();
    std::vector<double> setup, camp, tput;
    for (const Untraced& u : untraced) {
      setup.push_back(u.setup_s);
      camp.push_back(u.campaign_s);
      tput.push_back(static_cast<double>(w.traces) /
                     std::max(u.campaign_s - u.setup_s, 1e-9));
    }
    metrics = {{"setup_s", median(setup), "s"},
               {"campaign_s", median(camp), "s"},
               {"traces_per_s", median(tput), "1/s"},
               {"peak_rss_mb", peak_rss_mb(), "MB"}};
    std::cout << "# repetitions " << untraced.size()
              << " (median reported); campaign_s min "
              << num(*std::min_element(camp.begin(), camp.end())) << " max "
              << num(*std::max_element(camp.begin(), camp.end())) << '\n';
  } else {
    // Traced and untraced campaigns alternate, traced first so that the
    // xform-stage RSS sample is not masked by an earlier campaign's peak.
    while (traced.size() + untraced.size() < kMaxReps &&
           (traced.empty() || untraced.empty() || elapsed() < args.seconds)) {
      if (traced.size() <= untraced.size()) {
        const int run = static_cast<int>(2 * traced.size());
        const bool first = traced.empty();
        Traced t = w.sharded ? run_traced_sharded(w, workdir, tracer, run, first)
                             : run_traced_fused(w, tracer, run, first);
        traces_attempted += w.traces;
        traces_missing += w.traces - std::min(t.merged, w.traces);
        if (w.sharded) {
          run_rebuilt_sharded(w, tracer, run + 1, t);
          traces_attempted += w.traces;
        }
        traced.push_back(std::move(t));
      } else {
        one_untraced();
      }
    }
    const Untraced& u0 = untraced.front();
    const Traced& t0 = traced.front();
    for (const Traced& t : traced) {
      checks.expect(t.outcome == u0.outcome,
                    "traced: attack outcome differs from the untraced run");
      if (w.sharded)
        checks.expect(t.rebuilt && *t.rebuilt == u0.outcome,
                      "traced: layer-call rebuild's outcome differs from the "
                      "untraced run");
      if (w.expect_key)
        checks.expect(t.outcome.rank == 0, "traced: true key not at rank 0");
      checks.expect(t.merged == w.traces, "traced: not every trace was merged");
      checks.expect(!t.resumed, "traced: a shard resumed from an old checkpoint");
      checks.expect(t.transitions == t0.transitions,
                    "traced: transition count did not repeat");
      if (u0.transitions)
        checks.expect(t.transitions == *u0.transitions,
                      "traced: transition count differs from the untraced run");
      checks.expect(t.cells_added == u0.cells_added,
                    "traced: cells_added differs from the untraced run");
    }
    std::vector<double> tcamp, ucamp, segments;
    for (const Traced& t : traced) {
      tcamp.push_back(t.campaign_s);
      segments.insert(segments.end(), t.segment_ms.begin(), t.segment_ms.end());
    }
    for (const Untraced& u : untraced) ucamp.push_back(u.campaign_s);
    for (const LayerMetric& lm : kLayerMetrics) {
      const std::string name = lm.name;
      std::vector<double> vals;
      for (const Traced& t : traced)
        if (const auto it = t.layer.find(name); it != t.layer.end())
          vals.push_back(it->second);
      double v = median(vals);
      if (name == "trace.overhead_ms") v = 1e3 * (median(tcamp) - median(ucamp));
      if (name == "campaign.segment_ms_p50") v = percentile(segments, 50.0);
      if (name == "campaign.segment_ms_p99") v = percentile(segments, 99.0);
      metrics.push_back({name, v, lm.unit});
    }
    std::cout << "# repetitions traced=" << traced.size()
              << " untraced=" << untraced.size()
              << " segments=" << segments.size() << " (medians reported)\n";
    std::map<std::string, std::vector<double>> self;
    for (const Traced& t : traced)
      for (const auto& [layer, ms] : t.self_ms) self[layer].push_back(ms);
    std::cout << "# self_ms";
    for (const auto& [layer, v] : self) std::cout << ' ' << layer << '=' << num(median(v));
    std::cout << '\n';
    std::cout << "# traced campaign_s=" << num(median(tcamp))
              << " untraced campaign_s=" << num(median(ucamp)) << '\n';
  }

  const std::size_t attempted = traces_attempted + checks.attempted;
  const std::size_t failed = traces_missing + checks.failed;
  std::cout << "# fail_frac " << num(static_cast<double>(failed) /
                                     static_cast<double>(attempted))
            << " (" << failed << " of " << attempted << ")\n";
  for (const std::string& note : checks.notes) std::cout << "# FAILED " << note << '\n';
  for (const Metric& m : metrics)
    std::cout << "# " << m.name << " = " << num(m.value) << ' ' << m.unit << '\n';
  if (args.trace && !args.spans.empty()) {
    std::string escaped;
    for (const char ch : prov.str()) {
      if (ch == '"' || ch == '\\') escaped += '\\';
      escaped += ch;
    }
    tracer.write(args.spans, "{\"provenance\": \"" + escaped + "\"}");
  }

  std::ostringstream json;
  json << "{\"correct\": " << (failed == 0 ? "true" : "false")
       << ", \"attempted\": " << attempted << ", \"failed\": " << failed
       << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i)
    json << (i ? ", " : "") << '"' << metrics[i].name << "\": {\"value\": "
         << num(metrics[i].value) << ", \"unit\": \"" << metrics[i].unit << "\"}";
  json << "}}";
  std::cout << json.str() << std::endl;
  return failed == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run_main(parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "campaign_bench: " << e.what() << '\n';
    return 2;
  }
}
