// Streaming analysis engine — single-pass, all-guess CPA and DPA.
//
// Mangard-style incremental correlation: a Pearson correlation (and a
// difference-of-means bias) is a function of a handful of running sums,
// so an attack over ANY trace-count prefix can be emitted at ANY point
// of one linear pass over the acquisitions.
//
// Every hypothesis row h[g] (CPA) or decision row d[b][g] (DPA) is a
// function of the trace's plaintext only, and traces that share a row
// share every per-guess contribution. The accumulators therefore group
// traces into plaintext CLASSES — one per distinct row, at most 256 —
// and hold
//
//   shared across all guesses:  n, sum_s[j], sum_s2[j] (CPA)
//   per class:                  count[c], sum_c[j] (samples added
//                               since the last read)
//
// Ingesting a trace updates the shared sums, bumps its class count and
// adds its samples into its class sum: one vector add, no loop over
// guesses or bits. Byte-indexed models are tabulated at construction
// into a 256-entry byte -> class map (LUT rows deduplicated and ordered
// by row content); models and selections built from plain lambdas are
// evaluated per trace and keyed by the evaluated row, in the same
// content order, so both paths produce bit-identical results.
//
// The per-guess state is derived at READ time (finalize(), recover(),
// bias(), correlation_trace()):
//
//   sum_hs[g][j] (CPA) / sum1[b][g][j] (DPA):  folded matrix += the
//       rank update of the classes touched since the previous read, in
//       class content order, through kernels::cpa_rank_update (DPA's
//       {0, 1} decisions go through the same kernel);
//   sum_h[g], sum_h2[g] (CPA) / n1[b][g] (DPA):  sums of count·row over
//       all classes — exact for integer-valued models.
//
// The folded matrix is allocated on the first read, so block-fold
// partials and shard accumulators, which are only merged and
// serialized, hold class sums alone. A campaign without probes pays the
// guesses × classes × samples fold once, at the end; a probe never costs
// more than the per-trace rank update it replaces over the same traces.
//
// A QDI circuit draws no current once its handshake completes, so most
// of an acquisition window is exactly zero in every trace. The fold and
// the correlation scans skip those columns, bit-identically:
//
//   fold:  each block of class sums folds only the hull of its columns
//       that are not ±0.0 (the full width when a hypothesis row of the
//       block holds a non-finite value) — exact because a folded cell
//       is never -0.0 (kernels::cpa_rank_update states the invariant);
//   scan:  finalize() and correlation_trace() scan only the hull of
//       the samples with positive variance; every other sample's rho
//       is +0.0, which never wins finalize()'s strict max.
//
// Determinism: results are a function of the trace order and the read
// points (a campaign's probe grid is fixed by its configuration, just as
// the block-fold partition is). Thread count, chunking, add() versus
// add_prefix(), kernel arm, serialize/restore and kill/resume never
// change a bit; two reads with no ingest in between return identical
// results.
//
// Both accumulators hold their state in one core, detail::Stream, which
// ingests, merges, resets and snapshots it; OnlineCpa and OnlineDpa add
// only their row (leakage model or selection bits) and the read math.
//
// The hot loops live in qdi/dpa/kernels.hpp: a table of portable /
// AVX2 implementations picked once at load. Every arm vectorizes over
// the sample axis only — each accumulator cell receives contributions
// in a fixed order with no reassociation and no FMA contraction — so
// the dispatch choice (and QDI_FORCE_PORTABLE) never changes a result.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "qdi/dpa/cpa.hpp"
#include "qdi/dpa/dpa.hpp"
#include "qdi/dpa/kernels.hpp"
#include "qdi/dpa/selection.hpp"
#include "qdi/dpa/trace_set.hpp"

namespace qdi::dpa {

/// Named failure of OnlineCpa/OnlineDpa::restore_state — the hardened
/// deserialization contract the crash-safe shard runtime depends on.
/// Every malformed buffer (truncated at any byte, trailing garbage, a
/// foreign magic, a snapshot taken under different guess/bit/sample
/// geometry or another model's class table, or class counts that do not
/// add up to the trace count) is rejected with the matching kind, and
/// the accumulator is left exactly as it was (restore parses into
/// temporaries and commits only after every check passed).
class StateError : public std::runtime_error {
 public:
  enum class Kind {
    Truncated,  ///< buffer ends before the declared fields
    Oversized,  ///< trailing bytes after the last field
    BadMagic,   ///< not a snapshot of this accumulator type
    Geometry,   ///< guess / bit / sample / class geometry mismatch
  };

  StateError(Kind kind, const std::string& what)
      : std::runtime_error(what), kind_(kind) {}

  Kind kind() const noexcept { return kind_; }

 private:
  Kind kind_;
};

/// Stability accumulator of a measurements-to-disclosure scan: feed the
/// attack read at each probed prefix, in increasing prefix order. A
/// probe succeeds when the best guess is the correct key with a positive
/// best score; value() is the earliest prefix from which EVERY probe so
/// far succeeded (0 if the tail is not all-success). Shared by the batch
/// MTD functions, the fused campaign and the sharded runtime, so neither
/// the success test nor the stability rule can drift between them.
class MtdScan {
 public:
  void probe(const KeyRecoveryResult& r, unsigned correct_key,
             std::size_t prefix) noexcept {
    probe(r.best_guess == correct_key && r.best_peak > 0.0, prefix);
  }
  void probe(const CpaResult& r, unsigned correct_key,
             std::size_t prefix) noexcept {
    probe(r.best_guess == correct_key && r.best_rho > 0.0, prefix);
  }
  std::size_t value() const noexcept { return candidate_; }

 private:
  void probe(bool success, std::size_t prefix) noexcept {
    if (success && candidate_ == 0) candidate_ = prefix;
    if (!success) candidate_ = 0;
  }

  std::size_t candidate_ = 0;
};

namespace detail {

class SnapshotReader;

/// The per-class core shared by OnlineCpa and OnlineDpa (see the file
/// comment). A class is one distinct hypothesis row of `width` doubles
/// (guesses for CPA, bits × guesses for DPA). The table holds at most
/// kMaxClasses rows: a byte-indexed model never needs more, and a
/// generic model that produces a new row when the table is full folds
/// every class and starts a fresh table, so memory stays bounded by
/// kMaxClasses × samples whatever the model.
class ClassSums {
 public:
  static constexpr std::size_t kMaxClasses = 256;

  explicit ClassSums(std::size_t width)
      : width_(width), base_sum_(width, 0.0), base_sq_(width, 0.0) {}

  /// Fixed table of a byte-indexed model: `rows` holds 256 rows of
  /// `width`, row v for plaintext byte value v. Duplicates collapse
  /// into one class.
  void tabulate(const std::vector<double>& rows);
  bool fixed() const noexcept { return !byte_class_.empty(); }
  /// Class of plaintext byte value `v` (fixed tables only).
  std::uint32_t byte_class(std::uint8_t v) const noexcept {
    return byte_class_[v];
  }
  /// Class of an evaluated row, added if new (generic tables).
  std::uint32_t class_of(const double* row, const kernels::KernelTable& k);

  void set_samples(std::size_t m) noexcept { m_ = m; }
  /// One trace of class `c`: ++count[c], sum_c += samples.
  void add(std::uint32_t c, const double* samples,
           const kernels::KernelTable& k);

  /// Fold the classes touched since the last fold into the folded
  /// matrix (width × m, allocated here on first use) and return it.
  const std::vector<double>& fold(const kernels::KernelTable& k);
  /// sum[r] = Σ count·row[r] (and, if asked, sum_sq[r] = Σ count·row[r]²)
  /// over every class ever added, in content order.
  void column_sums(std::vector<double>& sum,
                   std::vector<double>* sum_sq) const;

  void merge(const ClassSums& other, const kernels::KernelTable& k);
  void reset() noexcept;

  void save(std::vector<std::uint8_t>& out) const;
  /// Parse a save() image into a table of this one's configuration;
  /// throws StateError (Geometry when the rows are not this model's or
  /// the counts do not add up to `n`).
  ClassSums load(SnapshotReader& r, std::size_t m, std::uint64_t n) const;

 private:
  const double* row(std::uint32_t c) const noexcept {
    return rows_.data() + c * width_;
  }
  /// Start or extend class c's pending sum with one row of samples.
  void accumulate(std::uint32_t c, const double* samples,
                  const kernels::KernelTable& k);
  /// Position of `row` in content order, and whether it is present.
  std::pair<std::size_t, bool> find(const double* row) const;
  std::uint32_t insert(const double* row, std::size_t pos);
  void add_columns(std::vector<double>& sum, std::vector<double>* sum_sq) const;
  /// Fold everything and restart with an empty table (generic only).
  void flush(const kernels::KernelTable& k);

  std::size_t width_;
  std::size_t m_ = 0;
  std::vector<std::uint32_t> byte_class_;  ///< 256 entries, fixed tables
  std::vector<double> rows_;               ///< class rows, K × width
  std::vector<std::uint32_t> order_;       ///< class ids in content order
  std::vector<std::uint64_t> counts_;      ///< traces per class
  /// Samples added per class since the last fold, valid while the class
  /// is touched: a class's row is allocated when it is first touched and
  /// overwritten (not zeroed and added to) when next touched after a
  /// fold, so untouched classes cost no memory and no clearing.
  std::vector<std::vector<double>> pending_;
  std::vector<std::uint8_t> touched_;      ///< class has pending samples
  std::size_t num_touched_ = 0;
  std::vector<double> folded_;             ///< width × m once read
  /// Column sums and trace count of classes retired by flush().
  std::vector<double> base_sum_, base_sq_;
  std::uint64_t base_n_ = 0;
};

/// The state OnlineCpa and OnlineDpa share, with the one-trace ingest,
/// merge, snapshot and reset over it (see the public members they back).
/// The owning accumulator reads the state directly.
class Stream {
 public:
  /// Fills the `width` doubles of one trace's row.
  using RowFn =
      std::function<void(std::span<const std::uint8_t> plaintext, double*)>;

  /// `name` prefixes error messages. `shape` is the accumulator's
  /// configuration: its snapshot magic, then the guess (and selection-
  /// bit) count that a merged or restored side must match. A row that
  /// depends on plaintext[`byte`] alone (`byte` >= 0) is tabulated here,
  /// once, over the 256 values of that byte; any other row is evaluated
  /// per trace.
  Stream(const char* name, std::vector<std::uint64_t> shape,
         std::size_t width, bool squares, int byte, RowFn row);

  /// The per-sample moments, then the class add, per trace.
  void add(std::span<const std::uint8_t> plaintext,
           std::span<const double> samples);
  void add_prefix(const TraceSet& ts, std::size_t lo, std::size_t hi);
  void merge(const Stream& other);
  /// Snapshot: the shape, m, n, the per-sample sums, the class table.
  std::vector<std::uint8_t> save() const;
  void load(std::span<const std::uint8_t> bytes);
  void reset() noexcept;

  const kernels::KernelTable* kernels = &kernels::active();
  std::size_t m = 0;  ///< samples per trace, fixed by the first trace
  std::size_t n = 0;  ///< traces
  /// Per sample, shared by all rows: Σs, and Σs² when `squares` (CPA).
  std::vector<double> sum_s, sum_s2;
  /// Reads fold into the class table, so it is mutable.
  mutable ClassSums classes;

 private:
  void ensure_geometry(std::size_t samples);
  void ingest(std::span<const std::uint8_t> plaintext, const double* samples);

  const char* name_;
  std::vector<std::uint64_t> shape_;
  bool squares_;
  std::size_t byte_;
  RowFn row_;
  std::vector<double> scratch_;  ///< one evaluated row, generic tables
};

}  // namespace detail

/// All-guess streaming CPA accumulator.
class OnlineCpa {
 public:
  /// A byte-indexed model is tabulated into its class table here, once.
  OnlineCpa(LeakageModel model, unsigned num_guesses);

  /// Feed one acquisition. Sample geometry is fixed by the first trace.
  void add(std::span<const std::uint8_t> plaintext,
           std::span<const double> samples) {
    stream_.add(plaintext, samples);
    var_valid_ = false;
  }
  /// Feed rows [lo, hi) of a trace set (same result as add() per row).
  void add_prefix(const TraceSet& ts, std::size_t lo, std::size_t hi) {
    stream_.add_prefix(ts, lo, hi);
    var_valid_ = false;
  }

  std::size_t count() const noexcept { return stream_.n; }
  unsigned num_guesses() const noexcept { return guesses_; }

  /// Emit the CPA result for the traces fed so far (optionally windowed
  /// to samples [window_lo, window_hi)). Keep adding traces afterwards
  /// for the next prefix probe; a read folds the pending class sums
  /// (see the file comment), it never discards traces.
  CpaResult finalize(std::size_t window_lo = 0,
                     std::size_t window_hi = 0) const;

  /// Full correlation trace rho[j] of one guess at the current prefix.
  /// All +0.0 when the guess's hypothesis variance is not > 0.0 (a NaN
  /// one included): the same gate under which finalize() scores it 0.
  /// Throws std::invalid_argument when `guess` >= num_guesses().
  std::vector<double> correlation_trace(unsigned guess) const;

  /// Fold another accumulator's traces into this one. Every statistic is
  /// an additive running sum, so merging N disjoint partial passes is
  /// equivalent to one pass over the union — up to floating-point
  /// re-association (sums are added blockwise instead of trace by
  /// trace), which perturbs results at the 1e-12 level, not the
  /// attack-outcome level (tests/test_online_merge.cpp). Both sides must
  /// share num_guesses and sample geometry (an empty side merges
  /// trivially); `other` must have been built over the same leakage
  /// model for the result to mean anything — that cannot be checked
  /// here. Throws std::invalid_argument on mismatched geometry.
  void merge(const OnlineCpa& other) {
    stream_.merge(other.stream_);
    var_valid_ = false;
  }

  /// Compact byte snapshot of the accumulator state (shared sums plus
  /// the class table; the model is NOT serialized — it is code, not
  /// data). restore_state() requires an accumulator constructed with the
  /// same model and num_guesses, and replaces its state wholesale.
  /// Round-trip is exact: serialize/restore reproduces bit-identical
  /// results. A truncated, oversized, foreign, or geometry-mismatched
  /// buffer throws StateError with the matching kind and leaves this
  /// accumulator untouched (tests/test_online_merge.cpp fuzzes every
  /// truncation length).
  std::vector<std::uint8_t> serialize_state() const { return stream_.save(); }
  void restore_state(std::span<const std::uint8_t> bytes) {
    stream_.load(bytes);
    var_valid_ = false;
  }

  /// Drop all accumulated traces but keep the model, class table, and
  /// (once fixed) the sample geometry and capacity — lets the
  /// thread-sharded campaign feed recycle one accumulator per block
  /// with zero steady-state allocation.
  void reset() noexcept {
    stream_.reset();
    var_valid_ = false;
  }

  /// Pin a specific kernel arm (differential-testing seam; production
  /// accumulators keep the load-time kernels::active() pick). The arms
  /// are bit-identical, so this never changes results.
  void set_kernels(const kernels::KernelTable& k) noexcept {
    stream_.kernels = &k;
    var_valid_ = false;
  }
  const char* kernel_name() const noexcept { return stream_.kernels->name; }

 private:
  /// Fold the pending class sums and refresh the derived per-guess and
  /// per-sample statistics; every read starts here. Returns sum_hs.
  const double* read() const;

  unsigned guesses_;
  detail::Stream stream_;
  mutable std::vector<double> sum_h_, sum_h2_;  ///< per guess
  mutable std::vector<double> var_cache_;  ///< per-sample variances
  /// Hull [var_lo_, var_hi_) of the samples with var_cache_ > 0; the
  /// correlation scans skip the rest, whose rho is +0.0.
  mutable std::size_t var_lo_ = 0, var_hi_ = 0;
  mutable std::vector<double> rho_scratch_;  ///< finalize() scan buffer
  mutable bool var_valid_ = false;  ///< var_cache_, sum_h_, sum_h2_ current
};

/// All-guess, multi-bit streaming difference-of-means DPA accumulator.
class OnlineDpa {
 public:
  /// Selection bits that are all byte-indexed on the same plaintext
  /// byte are tabulated into the class table here, once.
  OnlineDpa(std::vector<SelectionFn> bits, unsigned num_guesses);

  void add(std::span<const std::uint8_t> plaintext,
           std::span<const double> samples) {
    stream_.add(plaintext, samples);
  }
  void add_prefix(const TraceSet& ts, std::size_t lo, std::size_t hi) {
    stream_.add_prefix(ts, lo, hi);
  }

  std::size_t count() const noexcept { return stream_.n; }
  unsigned num_guesses() const noexcept { return guesses_; }
  std::size_t num_bits() const noexcept { return bits_; }

  /// Bias signal T[j] = A0[j] - A1[j] of one (guess, bit) at the current
  /// prefix, with peak statistics restricted to `window`. Throws
  /// std::invalid_argument on a guess or bit out of range.
  BiasResult bias(unsigned guess, std::size_t bit = 0,
                  SampleWindow window = {}) const;

  /// Rank all guesses by (summed, if multi-bit) bias peak at the current
  /// prefix — the streaming recover_key/recover_key_multibit.
  KeyRecoveryResult recover(SampleWindow window = {}) const;

  /// Rank all guesses by the bias peak of ONE bit — what the MTD scan
  /// uses (the paper's historical single-bit D-function attack). Throws
  /// std::invalid_argument when `bit` >= num_bits().
  KeyRecoveryResult recover_single(std::size_t bit,
                                   SampleWindow window = {}) const;

  /// Fold another accumulator's traces into this one; see
  /// OnlineCpa::merge for the contract (here both sides must also share
  /// the selection-bit count).
  void merge(const OnlineDpa& other) { stream_.merge(other.stream_); }

  /// State snapshot / restore; see OnlineCpa (same StateError contract:
  /// malformed buffers are rejected wholesale, the accumulator keeps its
  /// prior state). restore_state() requires the same selection bits and
  /// num_guesses at construction.
  std::vector<std::uint8_t> serialize_state() const { return stream_.save(); }
  void restore_state(std::span<const std::uint8_t> bytes) {
    stream_.load(bytes);
  }

  /// Drop accumulated traces, keep selections/class table/geometry; see
  /// OnlineCpa::reset().
  void reset() noexcept { stream_.reset(); }

  /// Pin a kernel arm; see OnlineCpa::set_kernels().
  void set_kernels(const kernels::KernelTable& k) noexcept {
    stream_.kernels = &k;
  }
  const char* kernel_name() const noexcept { return stream_.kernels->name; }

 private:
  /// Fold the pending class sums and refresh n1_; returns sum1 (bits ×
  /// guesses × m).
  const double* read() const;
  double peak_of(const double* sum1, unsigned guess, std::size_t bit,
                 SampleWindow window) const;
  /// Rank all guesses by their bias peaks summed over bits [lo, hi).
  KeyRecoveryResult rank(std::size_t lo, std::size_t hi,
                         SampleWindow window) const;

  std::size_t bits_;
  unsigned guesses_;
  detail::Stream stream_;
  mutable std::vector<double> n1_;  ///< bits × guesses, at the last read
};

}  // namespace qdi::dpa
