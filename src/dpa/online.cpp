#include "qdi/dpa/online.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <cstring>
#include <stdexcept>
#include <string>
#include <tuple>

namespace qdi::dpa {

namespace {

/// Classes per rank-B kernel invocation of a fold. Small enough that a
/// block of class sums stays cache-resident while every guess sweeps it.
constexpr std::size_t kBlock = 16;

/// Range check on a caller's index, kept in Release builds: `what` names
/// the entry point and the index.
void check_index(const char* what, std::size_t i, std::size_t n) {
  if (i >= n)
    throw std::invalid_argument(std::string(what) + " " + std::to_string(i) +
                                " outside [0, " + std::to_string(n) + ")");
}

void window_stats(BiasResult& r, SampleWindow window) {
  r.peak = 0.0;
  r.peak_index = window.lo;
  r.integrated = 0.0;
  for (std::size_t j = 0; j < r.bias.size(); ++j) {
    if (!window.contains(j)) continue;
    const double a = std::fabs(r.bias[j]);
    r.integrated += a;
    if (a > r.peak) {
      r.peak = a;
      r.peak_index = j;
    }
  }
}

/// IEEE-754 totalOrder as an unsigned key: numeric order for every
/// non-NaN value, -0.0 before +0.0, and one key per bit pattern, so two
/// rows compare equal exactly when they are bitwise equal.
std::uint64_t order_key(double x) {
  const auto u = std::bit_cast<std::uint64_t>(x);
  return (u >> 63) != 0 ? ~u : u | (std::uint64_t{1} << 63);
}

/// The class content order: lexicographic over order_key.
bool row_less(const double* a, const double* b, std::size_t width) {
  for (std::size_t r = 0; r < width; ++r) {
    const std::uint64_t ka = order_key(a[r]);
    const std::uint64_t kb = order_key(b[r]);
    if (ka != kb) return ka < kb;
  }
  return false;
}

/// The hull [lo, hi) of the indices j < m where keep(v[j]) holds;
/// lo == hi when it holds nowhere.
template <typename Keep>
std::pair<std::size_t, std::size_t> hull(const double* v, std::size_t m,
                                         Keep keep) {
  std::size_t lo = 0;
  while (lo < m && !keep(v[lo])) ++lo;
  std::size_t hi = m;
  while (hi > lo && !keep(v[hi - 1])) --hi;
  return {lo, hi};
}

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

void add_into(std::vector<double>& dst, const std::vector<double>& src) {
  for (std::size_t i = 0; i < dst.size(); ++i) dst[i] += src[i];
}

// Tiny little-endian byte codec for the accumulator snapshots. The
// format is an implementation detail shared by serialize_state and
// restore_state only — not a stable interchange format.
constexpr std::uint32_t kCpaMagic = 0x71647043;  // "qdpC"
constexpr std::uint32_t kDpaMagic = 0x71647044;  // "qdpD"

void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i)
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

template <typename T>
void put_array(std::vector<std::uint8_t>& out, const std::vector<T>& v) {
  put_u64(out, v.size());
  const auto* p = reinterpret_cast<const std::uint8_t*>(v.data());
  out.insert(out.end(), p, p + v.size() * sizeof(T));
}

[[noreturn]] void geometry_error(const std::string& what) {
  throw StateError(StateError::Kind::Geometry, what);
}

}  // namespace

namespace detail {

class SnapshotReader {
 public:
  explicit SnapshotReader(std::span<const std::uint8_t> bytes)
      : bytes_(bytes) {}

  std::uint64_t u64() {
    if (bytes_.size() - pos_ < 8) truncated();
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
      v |= static_cast<std::uint64_t>(bytes_[pos_ + i]) << (8 * i);
    pos_ += 8;
    return v;
  }

  // The element counts are length-prefixed and attacker-controlled, so
  // the bound check divides instead of multiplying — `n * sizeof(T)` on
  // a hostile n would wrap around std::uint64_t and pass a `pos + n *
  // size > total` comparison that the buffer cannot actually satisfy.
  template <typename T>
  void array(std::vector<T>& out) {
    const std::uint64_t n = u64();
    if (n > (bytes_.size() - pos_) / sizeof(T)) truncated();
    out.resize(n);
    if (n > 0) std::memcpy(out.data(), bytes_.data() + pos_, n * sizeof(T));
    pos_ += n * sizeof(T);
  }

  void expect_end() const {
    if (pos_ != bytes_.size())
      throw StateError(StateError::Kind::Oversized,
                       "Online accumulator: state snapshot has trailing "
                       "bytes past the last field");
  }

 private:
  [[noreturn]] static void truncated() {
    throw StateError(StateError::Kind::Truncated,
                     "Online accumulator: state snapshot ends before the "
                     "declared fields");
  }

  std::span<const std::uint8_t> bytes_;
  std::size_t pos_ = 0;
};

// ---- ClassSums -------------------------------------------------------------

std::pair<std::size_t, bool> ClassSums::find(const double* r) const {
  const auto it = std::lower_bound(
      order_.begin(), order_.end(), r,
      [this](std::uint32_t c, const double* key) {
        return row_less(row(c), key, width_);
      });
  const auto pos = static_cast<std::size_t>(it - order_.begin());
  return {pos, it != order_.end() && !row_less(r, row(*it), width_)};
}

std::uint32_t ClassSums::insert(const double* r, std::size_t pos) {
  const auto c = static_cast<std::uint32_t>(counts_.size());
  rows_.insert(rows_.end(), r, r + width_);
  order_.insert(order_.begin() + static_cast<std::ptrdiff_t>(pos), c);
  counts_.push_back(0);
  touched_.push_back(0);
  // A generic table that restarts after flush() reuses the rows.
  if (pending_.size() == c) pending_.emplace_back();
  return c;
}

void ClassSums::tabulate(const std::vector<double>& rows) {
  assert(rows.size() == 256 * width_ && counts_.empty());
  byte_class_.assign(256, 0);
  for (std::size_t v = 0; v < 256; ++v) {
    const double* r = rows.data() + v * width_;
    const auto [pos, found] = find(r);
    byte_class_[v] = found ? order_[pos] : insert(r, pos);
  }
}

std::uint32_t ClassSums::class_of(const double* r,
                                  const kernels::KernelTable& k) {
  auto [pos, found] = find(r);
  if (found) return order_[pos];
  if (counts_.size() == kMaxClasses) {
    flush(k);
    pos = 0;
  }
  return insert(r, pos);
}

void ClassSums::accumulate(std::uint32_t c, const double* samples,
                           const kernels::KernelTable& k) {
  if (touched_[c] != 0) {
    k.row_add(pending_[c].data(), samples, m_);
    return;
  }
  // The first row after a fold is copied, not added to zeros: the same
  // sum except for the sign of an exact zero, which no fold can see (a
  // folded cell is never -0.0, and adding ±0.0 to it changes nothing).
  pending_[c].assign(samples, samples + m_);
  touched_[c] = 1;
  ++num_touched_;
}

void ClassSums::add(std::uint32_t c, const double* samples,
                    const kernels::KernelTable& k) {
  accumulate(c, samples, k);
  ++counts_[c];
}

const std::vector<double>& ClassSums::fold(const kernels::KernelTable& k) {
  if (folded_.empty()) folded_.assign(width_ * m_, 0.0);
  if (num_touched_ == 0) return folded_;
  // Rank-kBlock updates over the touched class sums in content order:
  // every folded cell receives its class contributions in that order,
  // whatever the arm, the trace order within a class having been fixed
  // when the class sums were added up. Each block folds only the hull
  // of the columns where one of its class sums is not ±0.0 — a folded
  // cell is never -0.0, so adding h·(±0.0) elsewhere would change
  // nothing (kernels.hpp) — unless a hypothesis row holds a non-finite
  // h, for which h·0.0 is NaN and the block keeps the full width.
  const double* sums[kBlock];
  const double* hyp[kBlock];
  std::size_t cnt = 0;
  std::size_t lo = m_;
  std::size_t hi = 0;
  const auto width = static_cast<unsigned>(width_);
  const auto fold_block = [&] {
    if (lo < hi) {
      for (std::size_t i = 0; i < cnt; ++i) sums[i] += lo;
      k.cpa_rank_update(folded_.data() + lo, sums, hyp, cnt, width, hi - lo,
                        m_);
    }
    cnt = 0;
    lo = m_;
    hi = 0;
  };
  for (const std::uint32_t c : order_) {
    if (touched_[c] == 0) continue;
    sums[cnt] = pending_[c].data();
    hyp[cnt] = row(c);
    const bool finite = std::all_of(
        hyp[cnt], hyp[cnt] + width_, [](double h) { return std::isfinite(h); });
    const auto [s_lo, s_hi] =
        finite ? hull(sums[cnt], m_, [](double x) { return x != 0.0; })
               : std::pair{std::size_t{0}, m_};
    if (s_lo < s_hi) {
      lo = std::min(lo, s_lo);
      hi = std::max(hi, s_hi);
    }
    if (++cnt == kBlock) fold_block();
  }
  if (cnt > 0) fold_block();
  std::fill(touched_.begin(), touched_.end(), std::uint8_t{0});
  num_touched_ = 0;
  return folded_;
}

void ClassSums::add_columns(std::vector<double>& sum,
                            std::vector<double>* sum_sq) const {
  for (const std::uint32_t c : order_) {
    if (counts_[c] == 0) continue;
    const double w = static_cast<double>(counts_[c]);
    const double* h = row(c);
    for (std::size_t r = 0; r < width_; ++r) {
      sum[r] += w * h[r];
      if (sum_sq != nullptr) (*sum_sq)[r] += w * (h[r] * h[r]);
    }
  }
}

void ClassSums::column_sums(std::vector<double>& sum,
                            std::vector<double>* sum_sq) const {
  sum = base_sum_;
  if (sum_sq != nullptr) *sum_sq = base_sq_;
  add_columns(sum, sum_sq);
}

void ClassSums::flush(const kernels::KernelTable& k) {
  assert(!fixed());
  fold(k);
  add_columns(base_sum_, &base_sq_);
  for (const std::uint64_t c : counts_) base_n_ += c;
  rows_.clear();
  order_.clear();
  counts_.clear();
  touched_.clear();
}

void ClassSums::merge(const ClassSums& other, const kernels::KernelTable& k) {
  // A fixed table is the model's: the other side must carry the same
  // one, class for class (checked before anything is touched).
  if (fixed() && (!other.fixed() || !same_bits(rows_, other.rows_)))
    throw std::invalid_argument(
        "Online accumulator merge: the class tables of the two sides "
        "differ (different models)");
  if (!other.folded_.empty()) {
    if (folded_.empty()) folded_.assign(width_ * m_, 0.0);
    add_into(folded_, other.folded_);
  }
  add_into(base_sum_, other.base_sum_);
  add_into(base_sq_, other.base_sq_);
  base_n_ += other.base_n_;
  for (const std::uint32_t oc : other.order_) {
    if (other.counts_[oc] == 0 && other.touched_[oc] == 0) continue;
    const std::uint32_t c = fixed() ? oc : class_of(other.row(oc), k);
    counts_[c] += other.counts_[oc];
    if (other.touched_[oc] != 0) accumulate(c, other.pending_[oc].data(), k);
  }
}

void ClassSums::reset() noexcept {
  if (fixed()) {
    std::fill(touched_.begin(), touched_.end(), std::uint8_t{0});
    std::fill(counts_.begin(), counts_.end(), std::uint64_t{0});
  } else {
    rows_.clear();
    order_.clear();
    counts_.clear();
    touched_.clear();
  }
  num_touched_ = 0;
  folded_.clear();  // keeps the capacity; reallocated zeroed on a read
  std::fill(base_sum_.begin(), base_sum_.end(), 0.0);
  std::fill(base_sq_.begin(), base_sq_.end(), 0.0);
  base_n_ = 0;
}

void ClassSums::save(std::vector<std::uint8_t>& out) const {
  put_array(out, rows_);
  put_array(out, counts_);
  put_array(out, touched_);
  // The pending sums of the touched classes, in class order.
  std::vector<double> pending;
  pending.reserve(num_touched_ * m_);
  for (std::uint32_t c = 0; c < touched_.size(); ++c)
    if (touched_[c] != 0)
      pending.insert(pending.end(), pending_[c].begin(), pending_[c].end());
  put_array(out, pending);
  put_array(out, folded_);
  put_array(out, base_sum_);
  put_array(out, base_sq_);
  put_u64(out, base_n_);
}

ClassSums ClassSums::load(SnapshotReader& r, std::size_t m,
                          std::uint64_t n) const {
  ClassSums t(width_);
  t.m_ = m;
  std::vector<double> pending;
  r.array(t.rows_);
  r.array(t.counts_);
  r.array(t.touched_);
  r.array(pending);
  r.array(t.folded_);
  r.array(t.base_sum_);
  r.array(t.base_sq_);
  t.base_n_ = r.u64();
  const std::size_t classes = t.counts_.size();
  for (const std::uint8_t f : t.touched_) t.num_touched_ += f;
  if (classes > kMaxClasses || t.rows_.size() != classes * width_ ||
      t.touched_.size() != classes ||
      std::any_of(t.touched_.begin(), t.touched_.end(),
                  [](std::uint8_t f) { return f > 1; }) ||
      pending.size() != t.num_touched_ * m ||
      (!t.folded_.empty() && t.folded_.size() != width_ * m) ||
      t.base_sum_.size() != width_ || t.base_sq_.size() != width_)
    geometry_error("Online accumulator: inconsistent class-table geometry");
  t.pending_.resize(classes);
  const double* p = pending.data();
  for (std::uint32_t c = 0; c < classes; ++c) {
    if (t.touched_[c] == 0) continue;
    t.pending_[c].assign(p, p + m);
    p += m;
  }
  if (fixed()) {
    if (!same_bits(t.rows_, rows_))
      geometry_error(
          "Online accumulator: snapshot was taken with a different model");
    t.byte_class_ = byte_class_;
    t.order_ = order_;
  } else {
    for (std::uint32_t c = 0; c < classes; ++c) {
      const auto [pos, found] = t.find(t.row(c));
      if (found) geometry_error("Online accumulator: duplicate class rows");
      t.order_.insert(t.order_.begin() + static_cast<std::ptrdiff_t>(pos), c);
    }
  }
  // Subtract instead of adding up, so hostile counts cannot wrap around.
  std::uint64_t rest = n;
  bool fits = true;
  for (const std::uint64_t c : t.counts_) {
    fits = fits && c <= rest;
    if (fits) rest -= c;
  }
  if (!fits || rest != t.base_n_)
    geometry_error(
        "Online accumulator: class counts do not add up to the trace count");
  return t;
}

// ---- Stream ----------------------------------------------------------------

Stream::Stream(const char* name, std::vector<std::uint64_t> shape,
               std::size_t width, bool squares, int byte, RowFn row)
    : classes(width),
      name_(name),
      shape_(std::move(shape)),
      squares_(squares),
      byte_(static_cast<std::size_t>(std::max(byte, 0))),
      row_(std::move(row)),
      scratch_(byte < 0 ? width : 0) {
  if (byte < 0) return;
  // The row reads plaintext[byte] only, so a plaintext holding v there
  // gives row v of the table.
  std::vector<double> rows(256 * width);
  std::vector<std::uint8_t> pt(byte_ + 1, 0);
  for (unsigned v = 0; v < 256; ++v) {
    pt[byte_] = static_cast<std::uint8_t>(v);
    row_(pt, rows.data() + v * width);
  }
  classes.tabulate(rows);
}

void Stream::ensure_geometry(std::size_t samples) {
  if (!sum_s.empty() || n > 0) {
    if (samples != m)
      throw std::invalid_argument(std::string(name_) +
                                  ": sample count differs from the first "
                                  "trace");
    return;
  }
  m = samples;
  sum_s.assign(m, 0.0);
  if (squares_) sum_s2.assign(m, 0.0);
  classes.set_samples(m);
}

void Stream::ingest(std::span<const std::uint8_t> plaintext,
                    const double* samples) {
  // Shared per-sample moments, then the trace's class: a byte lookup
  // for byte-indexed models; generic models are evaluated and keyed by
  // the row they produce.
  if (squares_)
    kernels->cpa_moments(sum_s.data(), sum_s2.data(), &samples, 1, m);
  else
    kernels->row_add(sum_s.data(), samples, m);
  std::uint32_t c;
  if (classes.fixed()) {
    c = classes.byte_class(plaintext[byte_]);
  } else {
    row_(plaintext, scratch_.data());
    c = classes.class_of(scratch_.data(), *kernels);
  }
  classes.add(c, samples, *kernels);
  ++n;
}

void Stream::add(std::span<const std::uint8_t> plaintext,
                 std::span<const double> samples) {
  ensure_geometry(samples.size());
  ingest(plaintext, samples.data());
}

void Stream::add_prefix(const TraceSet& ts, std::size_t lo, std::size_t hi) {
  hi = std::min(hi, ts.size());
  if (lo >= hi) return;
  ensure_geometry(ts.num_samples());
  for (std::size_t i = lo; i < hi; ++i)
    ingest(ts.plaintext(i), ts.matrix().row(i).data());
}

void Stream::merge(const Stream& other) {
  if (other.shape_ != shape_)
    throw std::invalid_argument(
        std::string(name_) + "::merge: guess or selection-bit counts differ");
  if (other.n == 0) return;
  if (n == 0) {
    ensure_geometry(other.m);
  } else if (other.m != m) {
    throw std::invalid_argument(std::string(name_) +
                                "::merge: sample geometry differs");
  }
  classes.merge(other.classes, *kernels);
  add_into(sum_s, other.sum_s);
  add_into(sum_s2, other.sum_s2);
  n += other.n;
}

std::vector<std::uint8_t> Stream::save() const {
  std::vector<std::uint8_t> out;
  for (const std::uint64_t v : shape_) put_u64(out, v);
  put_u64(out, m);
  put_u64(out, n);
  put_array(out, sum_s);
  if (squares_) put_array(out, sum_s2);
  classes.save(out);
  return out;
}

void Stream::load(std::span<const std::uint8_t> bytes) {
  // Parse into temporaries and commit only after every check passed:
  // a rejected snapshot (StateError of any kind) must leave this
  // accumulator exactly as it was, or a shard that falls back to an
  // older checkpoint after a corrupt one would start from garbage.
  SnapshotReader r(bytes);
  const std::string what = std::string(name_) + "::restore_state: ";
  if (r.u64() != shape_[0])
    throw StateError(StateError::Kind::BadMagic,
                     what + "not an " + name_ + " snapshot");
  for (std::size_t i = 1; i < shape_.size(); ++i)
    if (r.u64() != shape_[i])
      geometry_error(what +
                     "snapshot was taken with a different guess or "
                     "selection-bit count");
  const std::uint64_t samples = r.u64();
  const std::uint64_t traces = r.u64();
  std::vector<double> s, s2;
  r.array(s);
  if (squares_) r.array(s2);
  if (s.size() != samples || (squares_ && s2.size() != samples))
    geometry_error(what + "inconsistent snapshot geometry");
  ClassSums table = classes.load(r, s.size(), traces);
  r.expect_end();
  sum_s = std::move(s);
  sum_s2 = std::move(s2);
  classes = std::move(table);
  m = sum_s.size();
  n = traces;
}

void Stream::reset() noexcept {
  n = 0;
  std::fill(sum_s.begin(), sum_s.end(), 0.0);
  std::fill(sum_s2.begin(), sum_s2.end(), 0.0);
  classes.reset();
}

}  // namespace detail

// ---- OnlineCpa -------------------------------------------------------------

OnlineCpa::OnlineCpa(LeakageModel model, unsigned num_guesses)
    : guesses_(num_guesses),
      stream_("OnlineCpa", {kCpaMagic, num_guesses}, num_guesses,
              /*squares=*/true,
              model.is_byte_indexed() ? model.byte() : -1,
              [model, num_guesses](std::span<const std::uint8_t> pt,
                                   double* row) {
                for (unsigned g = 0; g < num_guesses; ++g)
                  row[g] = model(pt, g);
              }) {
  assert(model);
  assert(guesses_ > 0);
}

const double* OnlineCpa::read() const {
  // The per-sample variances and per-guess hypothesis sums only change
  // with the trace count, so repeated reads at one prefix (an MTD probe
  // followed by the final emission) pay them once.
  const double* hs = stream_.classes.fold(*stream_.kernels).data();
  if (!var_valid_) {
    const std::size_t m = stream_.m;
    var_cache_.resize(m);
    stream_.kernels->variance(var_cache_.data(), stream_.sum_s.data(),
                              stream_.sum_s2.data(),
                              static_cast<double>(stream_.n), m);
    std::tie(var_lo_, var_hi_) =
        hull(var_cache_.data(), m, [](double v) { return v > 0.0; });
    stream_.classes.column_sums(sum_h_, &sum_h2_);
    var_valid_ = true;
  }
  return hs;
}

CpaResult OnlineCpa::finalize(std::size_t window_lo,
                              std::size_t window_hi) const {
  CpaResult res;
  res.correlation.assign(guesses_, 0.0);
  const std::size_t m = stream_.m;
  if (stream_.n == 0 || m == 0) return res;
  const std::size_t hi = (window_hi == 0) ? m : std::min(window_hi, m);
  const double nn = static_cast<double>(stream_.n);
  const double* sum_hs = read();
  rho_scratch_.resize(m);
  // Samples outside the positive-variance hull scan as rho == +0.0,
  // which can never win the strict max below: scan only the window's
  // intersection with the hull.
  const std::size_t lo = std::max(window_lo, var_lo_);
  const std::size_t span = std::min(hi, var_hi_) > lo
                               ? std::min(hi, var_hi_) - lo
                               : 0;

  for (unsigned g = 0; g < guesses_; ++g) {
    const double var_h = sum_h2_[g] - sum_h_[g] * sum_h_[g] / nn;
    double best = 0.0;
    std::size_t best_j = window_lo;
    if (var_h > 0.0 && span > 0) {
      const double* hs = sum_hs + static_cast<std::size_t>(g) * m;
      double* rho = rho_scratch_.data();
      // Zero-variance samples scan as rho == 0.0, which can never win
      // the strict max below — the same candidates as the historical
      // "skip non-positive variance" loop, peak values bit-identical.
      stream_.kernels->corr_scan(rho, hs + lo, stream_.sum_s.data() + lo,
                                 var_cache_.data() + lo, sum_h_[g], var_h, nn,
                                 span);
      for (std::size_t j = 0; j < span; ++j) {
        const double a = std::fabs(rho[j]);
        if (a > best) {
          best = a;
          best_j = lo + j;
        }
      }
    }
    res.correlation[g] = best;
    if (best > res.best_rho) {
      res.best_rho = best;
      res.best_guess = g;
      res.best_sample = best_j;
    }
  }
  res.second_rho = 0.0;
  for (unsigned g = 0; g < guesses_; ++g)
    if (g != res.best_guess)
      res.second_rho = std::max(res.second_rho, res.correlation[g]);
  return res;
}

std::vector<double> OnlineCpa::correlation_trace(unsigned guess) const {
  check_index("OnlineCpa::correlation_trace: guess", guess, guesses_);
  const std::size_t m = stream_.m;
  std::vector<double> rho(m, 0.0);
  if (stream_.n == 0) return rho;
  const double* sum_hs = read();
  const double nn = static_cast<double>(stream_.n);
  const double var_h = sum_h2_[guess] - sum_h_[guess] * sum_h_[guess] / nn;
  if (!(var_h > 0.0)) return rho;  // finalize()'s gate: NaN scores 0
  // Outside the positive-variance hull the scan would write +0.0.
  const std::size_t lo = var_lo_;
  const double* hs = sum_hs + static_cast<std::size_t>(guess) * m;
  stream_.kernels->corr_scan(rho.data() + lo, hs + lo,
                             stream_.sum_s.data() + lo, var_cache_.data() + lo,
                             sum_h_[guess], var_h, nn, var_hi_ - lo);
  return rho;
}

// ---- OnlineDpa -------------------------------------------------------------

namespace {

/// The plaintext byte every selection bit reads, or -1 when they are not
/// all byte-indexed on one byte.
int common_byte(const std::vector<SelectionFn>& bits) {
  for (const SelectionFn& d : bits)
    if (!d.is_byte_indexed() || d.byte() != bits.front().byte()) return -1;
  return bits.empty() ? -1 : bits.front().byte();
}

}  // namespace

OnlineDpa::OnlineDpa(std::vector<SelectionFn> bits, unsigned num_guesses)
    : bits_(bits.size()),
      guesses_(num_guesses),
      // Decision rows of {0.0, 1.0} doubles: the fold's rank update adds
      // a class sum exactly (1.0 * s == s) or skips it (0.0).
      stream_("OnlineDpa", {kDpaMagic, num_guesses, bits.size()},
              bits.size() * std::size_t{num_guesses}, /*squares=*/false,
              common_byte(bits),
              [bits, num_guesses](std::span<const std::uint8_t> pt,
                                  double* row) {
                for (std::size_t b = 0; b < bits.size(); ++b)
                  for (unsigned g = 0; g < num_guesses; ++g)
                    row[b * num_guesses + g] = bits[b](pt, g) != 0 ? 1.0 : 0.0;
              }) {
  assert(bits_ > 0);
  assert(guesses_ > 0);
}

const double* OnlineDpa::read() const {
  const double* sum1 = stream_.classes.fold(*stream_.kernels).data();
  stream_.classes.column_sums(n1_, nullptr);
  return sum1;
}

BiasResult OnlineDpa::bias(unsigned guess, std::size_t bit,
                           SampleWindow window) const {
  check_index("OnlineDpa::bias: guess", guess, guesses_);
  check_index("OnlineDpa::bias: bit", bit, bits_);
  const double* sum1 = read();
  const std::size_t m = stream_.m;
  const double* sum_s = stream_.sum_s.data();
  BiasResult r;
  const std::size_t idx = bit * static_cast<std::size_t>(guesses_) + guess;
  r.n1 = static_cast<std::size_t>(n1_[idx]);
  r.n0 = stream_.n - r.n1;
  if (r.n0 == 0 || r.n1 == 0) {
    r.bias.assign(m, 0.0);
    return r;
  }
  const double* s1 = sum1 + idx * m;
  const double inv0 = 1.0 / static_cast<double>(r.n0);
  const double inv1 = 1.0 / static_cast<double>(r.n1);
  r.bias.resize(m);
  for (std::size_t j = 0; j < m; ++j)
    r.bias[j] = (sum_s[j] - s1[j]) * inv0 - s1[j] * inv1;
  window_stats(r, window);
  return r;
}

double OnlineDpa::peak_of(const double* sum1, unsigned guess, std::size_t bit,
                          SampleWindow window) const {
  const std::size_t idx = bit * static_cast<std::size_t>(guesses_) + guess;
  const auto c1 = static_cast<std::size_t>(n1_[idx]);
  const std::size_t c0 = stream_.n - c1;
  if (c0 == 0 || c1 == 0) return 0.0;
  const std::size_t m = stream_.m;
  const double* sum_s = stream_.sum_s.data();
  const double* s1 = sum1 + idx * m;
  const double inv0 = 1.0 / static_cast<double>(c0);
  const double inv1 = 1.0 / static_cast<double>(c1);
  double peak = 0.0;
  for (std::size_t j = 0; j < m; ++j) {
    if (!window.contains(j)) continue;
    const double a = std::fabs((sum_s[j] - s1[j]) * inv0 - s1[j] * inv1);
    if (a > peak) peak = a;
  }
  return peak;
}

KeyRecoveryResult OnlineDpa::recover(SampleWindow window) const {
  return rank(0, bits_, window);
}

KeyRecoveryResult OnlineDpa::recover_single(std::size_t bit,
                                            SampleWindow window) const {
  check_index("OnlineDpa::recover_single: bit", bit, bits_);
  return rank(bit, bit + 1, window);
}

KeyRecoveryResult OnlineDpa::rank(std::size_t lo, std::size_t hi,
                                  SampleWindow window) const {
  const double* sum1 = read();
  KeyRecoveryResult r;
  r.guess_peak.assign(guesses_, 0.0);
  for (unsigned g = 0; g < guesses_; ++g) {
    // A peak is never -0.0, so a one-bit sum is that bit's peak exactly.
    double sum = 0.0;
    for (std::size_t b = lo; b < hi; ++b) sum += peak_of(sum1, g, b, window);
    r.guess_peak[g] = sum;
  }
  r.best_guess = static_cast<unsigned>(
      std::max_element(r.guess_peak.begin(), r.guess_peak.end()) -
      r.guess_peak.begin());
  r.best_peak = r.guess_peak[r.best_guess];
  r.second_peak = 0.0;
  for (unsigned g = 0; g < guesses_; ++g)
    if (g != r.best_guess)
      r.second_peak = std::max(r.second_peak, r.guess_peak[g]);
  return r;
}

}  // namespace qdi::dpa
