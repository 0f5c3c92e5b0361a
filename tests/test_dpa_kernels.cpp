// SIMD analysis-kernel dispatch and thread-sharded accumulation.
//
//  * every SIMD arm the host supports (AVX2) is fuzzed against
//    the portable arm over awkward geometries — odd sample counts,
//    vector-width±1 tails, 1/5/256 guesses, byte-indexed and generic
//    models, a mid-stream read — and must leave BIT-identical
//    accumulator state (class sums before a read, the folded matrix
//    after it) and emit bit-identical finalize()/correlation_trace()
//    results (the determinism contract of qdi/dpa/kernels.hpp);
//  * every arm, on QDI-shaped traces (silent tails, zero columns, ±0.0
//    samples, an all-zero class), matches a full-width fold written
//    here bit for bit, across mid-stream reads, merge and restore —
//    the fold and the correlation scans skip all-zero columns, and
//    must not change a bit for it (a model with non-finite rows keeps
//    the full width);
//  * the cached per-sample variance scan is invalidated by
//    ingest/merge/restore (a stale cache would poison every prefix
//    probe after the first);
//  * Campaign::sharded_ingest block-fold results are bit-identical
//    across thread counts (the block partition, not the scheduling,
//    determines the fold order) and match the serial fused path to
//    1e-12, with rank/MTD probes firing at exactly their trace counts;
//  * ShardedOptions::ingest_block_traces reproduces the serial sharded
//    runtime's per-shard stream digests exactly (the digest is fed
//    trace-ordered either way) while its fingerprint extension keeps
//    the two modes' checkpoints from cross-adopting.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <map>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "qdi/dpa/kernels.hpp"
#include "qdi/qdi.hpp"
#include "qdi/util/cpu.hpp"

namespace qc = qdi::campaign;
namespace qd = qdi::dpa;
namespace qk = qdi::dpa::kernels;
namespace qp = qdi::power;
namespace qu = qdi::util;

namespace {

qd::TraceSet random_traces(std::size_t n, std::size_t m, qu::Rng& rng) {
  qd::TraceSet ts;
  for (std::size_t i = 0; i < n; ++i) {
    qp::PowerTrace t(0.0, 10.0, m);
    for (std::size_t j = 0; j < m; ++j) t[j] = rng.gaussian(1.0, 2.0);
    ts.add(t, {rng.byte(), rng.byte()});
  }
  return ts;
}

/// Feed `ts` through `acc` in deliberately awkward chunkings: single
/// add()s at the front, then add_prefix() chunks of co-prime widths,
/// with one read after the first 17 traces so the read-time fold runs
/// twice (once mid-stream, once at the caller's read).
template <typename Acc>
void feed_awkward(Acc& acc, const qd::TraceSet& ts) {
  std::size_t i = 0;
  for (; i < std::min<std::size_t>(3, ts.size()); ++i)
    acc.add(ts.plaintext(i), ts.trace(i).samples());
  const std::size_t widths[] = {5, 1, 7, 13};
  std::size_t w = 0;
  bool read = false;
  while (i < ts.size()) {
    const std::size_t hi = std::min(ts.size(), i + widths[w % 4]);
    acc.add_prefix(ts, i, hi);
    i = hi;
    ++w;
    if (!read && i >= 17) {
      if constexpr (std::is_same_v<Acc, qd::OnlineCpa>)
        (void)acc.finalize();
      else
        (void)acc.recover();
      read = true;
    }
  }
}

const std::vector<qk::Kind> kSimdKinds = {qk::Kind::Avx2};

/// Generic (non-byte-indexed) twin of aes_sbox_hw_model(0): forces the
/// scratch-row hypothesis path while computing the same values.
qd::LeakageModel generic_sbox_model() {
  return qd::LeakageModel([](std::span<const std::uint8_t> pt, unsigned g) {
    return static_cast<double>(std::popcount(static_cast<unsigned>(
        qdi::crypto::aes_sbox(static_cast<std::uint8_t>(pt[0] ^ g)))));
  });
}

qd::SelectionFn generic_sbox_selection(int bit) {
  return qd::SelectionFn([bit](std::span<const std::uint8_t> pt, unsigned g) {
    return (qdi::crypto::aes_sbox(static_cast<std::uint8_t>(pt[0] ^ g)) >>
            bit) &
           1;
  });
}

}  // namespace

// ---- arm-vs-arm bit identity -----------------------------------------------

TEST(KernelDispatch, ActiveArmHonorsForcePortable) {
  const qk::KernelTable& a = qk::active();
  ASSERT_NE(a.name, nullptr);
  if (qu::force_portable()) {
    EXPECT_STREQ(a.name, "portable");
    EXPECT_FALSE(qu::sha256_hw_accelerated());
  }
  // Every arm the probe reports must actually hand out a table.
  for (const qk::Kind k : kSimdKinds)
    if (qk::supported(k)) EXPECT_NE(qk::table(k), nullptr);
  EXPECT_NE(qk::table(qk::Kind::Portable), nullptr);
  EXPECT_TRUE(qk::supported(qk::Kind::Portable));
}

TEST(KernelArms, CpaStateBitIdenticalAcrossArms) {
  qu::Rng rng(0x51u);
  for (const std::size_t m : {std::size_t{1}, std::size_t{3}, std::size_t{7},
                              std::size_t{8}, std::size_t{9}, std::size_t{17},
                              std::size_t{31}, std::size_t{64},
                              std::size_t{129}}) {
    for (const unsigned guesses : {1u, 5u, 256u}) {
      const std::size_t n = 24 + rng.below(16);
      const qd::TraceSet ts = random_traces(n, m, rng);
      for (const bool byte_indexed : {true, false}) {
        const qd::LeakageModel model =
            byte_indexed ? qd::aes_sbox_hw_model(0) : generic_sbox_model();
        qd::OnlineCpa ref(model, guesses);
        ref.set_kernels(*qk::table(qk::Kind::Portable));
        feed_awkward(ref, ts);
        const std::vector<std::uint8_t> ref_state = ref.serialize_state();
        const qd::CpaResult ref_fin = ref.finalize(1, m > 2 ? m - 1 : m);
        const std::vector<std::uint8_t> ref_folded = ref.serialize_state();
        const std::vector<double> ref_rho = ref.correlation_trace(0);
        for (const qk::Kind kind : kSimdKinds) {
          if (!qk::supported(kind)) continue;
          qd::OnlineCpa acc(model, guesses);
          acc.set_kernels(*qk::table(kind));
          feed_awkward(acc, ts);
          // The whole state, byte for byte: no tolerance — the class
          // sums with the mid-stream fold, then the fold at finalize().
          EXPECT_EQ(acc.serialize_state(), ref_state)
              << qk::table(kind)->name << " m=" << m << " guesses=" << guesses
              << " byte_indexed=" << byte_indexed;
          const qd::CpaResult fin = acc.finalize(1, m > 2 ? m - 1 : m);
          EXPECT_EQ(acc.serialize_state(), ref_folded)
              << qk::table(kind)->name << " m=" << m << " guesses=" << guesses
              << " byte_indexed=" << byte_indexed;
          EXPECT_EQ(fin.best_guess, ref_fin.best_guess);
          EXPECT_EQ(fin.best_sample, ref_fin.best_sample);
          for (unsigned g = 0; g < guesses; ++g)
            EXPECT_EQ(fin.correlation[g], ref_fin.correlation[g])
                << qk::table(kind)->name << " g=" << g;
          const std::vector<double> rho = acc.correlation_trace(0);
          for (std::size_t j = 0; j < m; ++j)
            EXPECT_EQ(rho[j], ref_rho[j]) << qk::table(kind)->name;
        }
      }
    }
  }
}

TEST(KernelArms, DpaStateBitIdenticalAcrossArms) {
  qu::Rng rng(0x52u);
  for (const std::size_t m : {std::size_t{1}, std::size_t{7}, std::size_t{8},
                              std::size_t{9}, std::size_t{33},
                              std::size_t{130}}) {
    for (const unsigned guesses : {1u, 5u, 256u}) {
      const std::size_t n = 24 + rng.below(16);
      const qd::TraceSet ts = random_traces(n, m, rng);
      for (const bool byte_indexed : {true, false}) {
        std::vector<qd::SelectionFn> bits;
        if (byte_indexed) {
          bits.push_back(qd::aes_sbox_selection(0, 0));
          bits.push_back(qd::aes_sbox_selection(0, 3));
        } else {
          bits.push_back(generic_sbox_selection(0));
          bits.push_back(generic_sbox_selection(3));
        }
        qd::OnlineDpa ref(bits, guesses);
        ref.set_kernels(*qk::table(qk::Kind::Portable));
        feed_awkward(ref, ts);
        const std::vector<std::uint8_t> ref_state = ref.serialize_state();
        const qd::KeyRecoveryResult ref_rec = ref.recover();
        const std::vector<std::uint8_t> ref_folded = ref.serialize_state();
        for (const qk::Kind kind : kSimdKinds) {
          if (!qk::supported(kind)) continue;
          qd::OnlineDpa acc(bits, guesses);
          acc.set_kernels(*qk::table(kind));
          feed_awkward(acc, ts);
          EXPECT_EQ(acc.serialize_state(), ref_state)
              << qk::table(kind)->name << " m=" << m << " guesses=" << guesses
              << " byte_indexed=" << byte_indexed;
          const qd::KeyRecoveryResult rec = acc.recover();
          EXPECT_EQ(acc.serialize_state(), ref_folded)
              << qk::table(kind)->name << " m=" << m << " guesses=" << guesses
              << " byte_indexed=" << byte_indexed;
          EXPECT_EQ(rec.best_guess, ref_rec.best_guess);
          for (unsigned g = 0; g < guesses; ++g)
            EXPECT_EQ(rec.guess_peak[g], ref_rec.guess_peak[g]);
        }
      }
    }
  }
}

// ---- support-bounded fold vs a naive full-width fold -----------------------

namespace {

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/// Bit equality, except that any two NaNs match: which NaN an add of
/// two NaNs returns depends on the operand order the compiler picks.
bool same_value(double a, double b) {
  return same_bits(a, b) || (std::isnan(a) && std::isnan(b));
}

template <typename Eq>
::testing::AssertionResult rows_match(const std::vector<double>& got,
                                      const std::vector<double>& want,
                                      Eq eq) {
  if (got.size() != want.size())
    return ::testing::AssertionFailure()
           << "size " << got.size() << " != " << want.size();
  for (std::size_t i = 0; i < got.size(); ++i)
    if (!eq(got[i], want[i]))
      return ::testing::AssertionFailure()
             << "index " << i << ": " << got[i] << " != " << want[i];
  return ::testing::AssertionSuccess();
}

/// The folded matrix inside an accumulator snapshot. Layout (see
/// serialize_state in src/dpa/online.cpp): `words` u64 header fields,
/// `shared` per-sample arrays, then the class table's rows, counts,
/// touched flags, pending sums and folded matrix, each array a u64
/// element count followed by its elements.
std::vector<double> snapshot_folded(const std::vector<std::uint8_t>& bytes,
                                    std::size_t words, std::size_t shared) {
  std::size_t pos = 8 * words;
  const auto u64 = [&] {
    std::uint64_t v = 0;
    std::memcpy(&v, bytes.data() + pos, 8);
    pos += 8;
    return v;
  };
  const auto skip = [&](std::size_t elem) { pos += u64() * elem; };
  for (std::size_t i = 0; i < shared; ++i) skip(8);
  skip(8);  // class rows
  skip(8);  // counts
  skip(1);  // touched flags
  skip(8);  // pending sums
  std::vector<double> folded(u64());
  if (!folded.empty())
    std::memcpy(folded.data(), bytes.data() + pos, folded.size() * 8);
  return folded;
}

/// The read-time fold written from its contract, over the full width.
/// Traces group into classes by hypothesis row, in row content order
/// (lexicographic IEEE totalOrder); the first row a class receives
/// after a fold is copied, later ones are added; a read folds every
/// touched class, in content order, into a width x m matrix, one
/// multiply and one add per cell and class, skipping h == 0.0.
class NaiveFold {
 public:
  NaiveFold(std::size_t width, std::size_t m) : width_(width), m_(m) {}

  void add(const std::vector<double>& row, const double* s) {
    Class& c = classes_[key_of(row)];
    c.row = row;
    ++c.count;
    accumulate(c, s);
  }

  void merge(const NaiveFold& other) {
    if (!other.folded_.empty()) {
      if (folded_.empty()) folded_.assign(width_ * m_, 0.0);
      for (std::size_t i = 0; i < folded_.size(); ++i)
        folded_[i] += other.folded_[i];
    }
    for (const auto& [key, oc] : other.classes_) {
      Class& c = classes_[key];
      c.row = oc.row;
      c.count += oc.count;
      if (oc.touched) accumulate(c, oc.pending.data());
    }
  }

  const std::vector<double>& fold() {
    if (folded_.empty()) folded_.assign(width_ * m_, 0.0);
    for (auto& [key, c] : classes_) {
      if (!c.touched) continue;
      for (std::size_t r = 0; r < width_; ++r) {
        const double h = c.row[r];
        if (h == 0.0) continue;
        for (std::size_t j = 0; j < m_; ++j)
          folded_[r * m_ + j] += h * c.pending[j];
      }
      c.touched = false;
    }
    return folded_;
  }

  const std::vector<double>& folded() const { return folded_; }

  /// sum[r] = Σ count·row[r], sum_sq[r] = Σ count·row[r]², content order.
  void column_sums(std::vector<double>& sum,
                   std::vector<double>& sum_sq) const {
    sum.assign(width_, 0.0);
    sum_sq.assign(width_, 0.0);
    for (const auto& [key, c] : classes_) {
      const double w = static_cast<double>(c.count);
      for (std::size_t r = 0; r < width_; ++r) {
        sum[r] += w * c.row[r];
        sum_sq[r] += w * (c.row[r] * c.row[r]);
      }
    }
  }

 private:
  struct Class {
    std::vector<double> row;
    std::uint64_t count = 0;
    bool touched = false;
    std::vector<double> pending;
  };

  static std::vector<std::uint64_t> key_of(const std::vector<double>& row) {
    std::vector<std::uint64_t> key;
    for (const double x : row) {
      const auto u = std::bit_cast<std::uint64_t>(x);
      key.push_back((u >> 63) != 0 ? ~u : u | (std::uint64_t{1} << 63));
    }
    return key;
  }

  void accumulate(Class& c, const double* s) {
    if (c.touched) {
      for (std::size_t j = 0; j < m_; ++j) c.pending[j] += s[j];
    } else {
      c.pending.assign(s, s + m_);
      c.touched = true;
    }
  }

  std::size_t width_, m_;
  std::map<std::vector<std::uint64_t>, Class> classes_;
  std::vector<double> folded_;
};

/// OnlineCpa's contract with a full-width fold and a full-width scan.
class NaiveCpa {
 public:
  NaiveCpa(qd::LeakageModel model, unsigned guesses, std::size_t m)
      : model_(std::move(model)),
        guesses_(guesses),
        m_(m),
        classes_(guesses, m),
        sum_s_(m, 0.0),
        sum_s2_(m, 0.0) {}

  void add(std::span<const std::uint8_t> pt, const double* s) {
    for (std::size_t j = 0; j < m_; ++j) {
      sum_s_[j] += s[j];
      sum_s2_[j] += s[j] * s[j];
    }
    std::vector<double> row(guesses_);
    for (unsigned g = 0; g < guesses_; ++g) row[g] = model_(pt, g);
    classes_.add(row, s);
    ++n_;
  }

  void merge(const NaiveCpa& other) {
    classes_.merge(other.classes_);
    for (std::size_t j = 0; j < m_; ++j) {
      sum_s_[j] += other.sum_s_[j];
      sum_s2_[j] += other.sum_s2_[j];
    }
    n_ += other.n_;
  }

  qd::CpaResult finalize(std::size_t lo, std::size_t hi) {
    qd::CpaResult res;
    res.correlation.assign(guesses_, 0.0);
    hi = hi == 0 ? m_ : std::min(hi, m_);
    const Moments mo = moments();
    for (unsigned g = 0; g < guesses_; ++g) {
      const std::vector<double> rho = gated_scan(mo, g);
      double best = 0.0;
      std::size_t best_j = lo;
      for (std::size_t j = lo; j < hi; ++j) {
        if (std::fabs(rho[j]) > best) {
          best = std::fabs(rho[j]);
          best_j = j;
        }
      }
      res.correlation[g] = best;
      if (best > res.best_rho) {
        res.best_rho = best;
        res.best_guess = g;
        res.best_sample = best_j;
      }
    }
    for (unsigned g = 0; g < guesses_; ++g)
      if (g != res.best_guess)
        res.second_rho = std::max(res.second_rho, res.correlation[g]);
    return res;
  }

  std::vector<double> correlation_trace(unsigned g) {
    return gated_scan(moments(), g);
  }

  const std::vector<double>& folded() const { return classes_.folded(); }

 private:
  struct Moments {
    const std::vector<double>* hs;
    std::vector<double> sum_h, sum_h2, var_h;
  };

  Moments moments() {
    Moments mo;
    mo.hs = &classes_.fold();
    classes_.column_sums(mo.sum_h, mo.sum_h2);
    const double nn = static_cast<double>(n_);
    for (unsigned g = 0; g < guesses_; ++g)
      mo.var_h.push_back(mo.sum_h2[g] - mo.sum_h[g] * mo.sum_h[g] / nn);
    return mo;
  }

  /// The one gate of finalize() and correlation_trace(): a guess scans
  /// only when var_h > 0.0, so a NaN var_h gives all +0.0.
  std::vector<double> gated_scan(const Moments& mo, unsigned g) const {
    if (!(mo.var_h[g] > 0.0)) return std::vector<double>(m_, 0.0);
    return scan(mo, g);
  }

  /// rho over every sample; +0.0 where the sample variance is not > 0.
  std::vector<double> scan(const Moments& mo, unsigned g) const {
    const double nn = static_cast<double>(n_);
    std::vector<double> rho(m_, 0.0);
    for (std::size_t j = 0; j < m_; ++j) {
      const double var_s = sum_s2_[j] - sum_s_[j] * sum_s_[j] / nn;
      if (var_s > 0.0) {
        const double cov = (*mo.hs)[g * m_ + j] - mo.sum_h[g] * sum_s_[j] / nn;
        rho[j] = cov / std::sqrt(mo.var_h[g] * var_s);
      }
    }
    return rho;
  }

  qd::LeakageModel model_;
  unsigned guesses_;
  std::size_t m_;
  NaiveFold classes_;
  std::vector<double> sum_s_, sum_s2_;
  std::size_t n_ = 0;
};

/// OnlineDpa's contract with a full-width fold and a full-width scan.
class NaiveDpa {
 public:
  NaiveDpa(std::vector<qd::SelectionFn> bits, unsigned guesses, std::size_t m)
      : bits_(std::move(bits)),
        guesses_(guesses),
        m_(m),
        classes_(bits_.size() * guesses, m),
        sum_s_(m, 0.0) {}

  void add(std::span<const std::uint8_t> pt, const double* s) {
    for (std::size_t j = 0; j < m_; ++j) sum_s_[j] += s[j];
    std::vector<double> row;
    for (const qd::SelectionFn& bit : bits_)
      for (unsigned g = 0; g < guesses_; ++g)
        row.push_back(bit(pt, g) != 0 ? 1.0 : 0.0);
    classes_.add(row, s);
    ++n_;
  }

  qd::KeyRecoveryResult recover() {
    const std::vector<double>& sum1 = classes_.fold();
    std::vector<double> n1, unused;
    classes_.column_sums(n1, unused);
    qd::KeyRecoveryResult r;
    r.guess_peak.assign(guesses_, 0.0);
    for (unsigned g = 0; g < guesses_; ++g) {
      double total = 0.0;
      for (std::size_t b = 0; b < bits_.size(); ++b) {
        const std::size_t idx = b * guesses_ + g;
        const auto c1 = static_cast<std::size_t>(n1[idx]);
        const std::size_t c0 = n_ - c1;
        double peak = 0.0;
        if (c0 != 0 && c1 != 0) {
          const double inv0 = 1.0 / static_cast<double>(c0);
          const double inv1 = 1.0 / static_cast<double>(c1);
          for (std::size_t j = 0; j < m_; ++j) {
            const double s1 = sum1[idx * m_ + j];
            peak = std::max(peak,
                            std::fabs((sum_s_[j] - s1) * inv0 - s1 * inv1));
          }
        }
        total += peak;
      }
      r.guess_peak[g] = total;
    }
    r.best_guess = static_cast<unsigned>(
        std::max_element(r.guess_peak.begin(), r.guess_peak.end()) -
        r.guess_peak.begin());
    r.best_peak = r.guess_peak[r.best_guess];
    for (unsigned g = 0; g < guesses_; ++g)
      if (g != r.best_guess)
        r.second_peak = std::max(r.second_peak, r.guess_peak[g]);
    return r;
  }

  const std::vector<double>& folded() const { return classes_.folded(); }

 private:
  std::vector<qd::SelectionFn> bits_;
  unsigned guesses_;
  std::size_t m_;
  NaiveFold classes_;
  std::vector<double> sum_s_;
  std::size_t n_ = 0;
};

/// Silent plaintext bytes: their traces are ±0.0 throughout, so their
/// class sums stay all-zero (0x31's row is non-finite under
/// nonfinite_model()).
bool silent(std::uint8_t v) { return v == 0x5a || v == 0x31; }

/// Traces shaped like a QDI circuit's: current only while the handshake
/// runs — a per-trace burst [lo, hi), exact zeros of either sign around
/// it (a zero-padded tail) — every 7th column zero in every trace, and
/// the silent() plaintexts zero throughout.
qd::TraceSet qdi_like_traces(std::size_t n, std::size_t m, qu::Rng& rng) {
  qd::TraceSet ts;
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint8_t pt0 = rng.below(4) == 0
                                 ? (rng.below(2) == 0 ? 0x5a : 0x31)
                                 : rng.byte();
    const std::size_t lo = rng.below(m / 8 + 1);
    const std::size_t hi = std::min(m, lo + 1 + rng.below(m * 3 / 4 + 1));
    qp::PowerTrace t(0.0, 10.0, m);
    for (std::size_t j = 0; j < m; ++j) {
      const bool zero = silent(pt0) || j < lo || j >= hi || j % 7 == 3;
      t[j] = zero ? (rng.below(2) == 0 ? -0.0 : 0.0) : rng.gaussian(1.0, 2.0);
    }
    ts.add(t, {pt0, rng.byte()});
  }
  return ts;
}

/// A generic model that answers +inf, -inf or NaN for some guesses of
/// some plaintexts: h·0.0 is NaN there, so those blocks fold full-width.
qd::LeakageModel nonfinite_model() {
  return qd::LeakageModel([](std::span<const std::uint8_t> pt, unsigned g) {
    if (pt[0] % 16 == 1 && g % 3 == 1)
      return (pt[0] & 0x20) != 0 ? -std::numeric_limits<double>::infinity()
                                 : std::numeric_limits<double>::infinity();
    if (pt[0] % 16 == 2 && g % 3 == 2)
      return std::numeric_limits<double>::quiet_NaN();
    return static_cast<double>(std::popcount(static_cast<unsigned>(
        qdi::crypto::aes_sbox(static_cast<std::uint8_t>(pt[0] ^ g)))));
  });
}

std::vector<const qk::KernelTable*> every_arm() {
  std::vector<const qk::KernelTable*> arms;
  for (const qk::Kind k : {qk::Kind::Portable, qk::Kind::Avx2})
    if (const qk::KernelTable* t = qk::table(k)) arms.push_back(t);
  return arms;
}

/// One read of `acc` against `naive` at the same point: finalize() over
/// two windows, the folded matrix in the snapshot, and two correlation
/// traces. A model with non-finite rows compares NaNs as NaN.
void expect_cpa_read_matches(const qd::OnlineCpa& acc, NaiveCpa& naive,
                             std::size_t m, unsigned guesses, bool finite,
                             const std::string& what) {
  const auto eq = finite ? &same_bits : &same_value;
  for (const auto& [lo, hi] : {std::pair<std::size_t, std::size_t>{0, 0},
                               {m / 3, m - m / 4}}) {
    const qd::CpaResult got = acc.finalize(lo, hi);
    const qd::CpaResult want = naive.finalize(lo, hi);
    EXPECT_TRUE(rows_match(got.correlation, want.correlation, eq))
        << what << " window " << lo << ".." << hi;
    EXPECT_EQ(got.best_guess, want.best_guess) << what;
    EXPECT_EQ(got.best_sample, want.best_sample) << what;
    EXPECT_TRUE(same_bits(got.best_rho, want.best_rho)) << what;
    EXPECT_TRUE(same_bits(got.second_rho, want.second_rho)) << what;
  }
  EXPECT_TRUE(rows_match(snapshot_folded(acc.serialize_state(), 4, 2),
                         naive.folded(), eq))
      << what << ": folded matrix";
  for (const unsigned g : {0u, guesses - 1})
    EXPECT_TRUE(rows_match(acc.correlation_trace(g),
                           naive.correlation_trace(g), eq))
        << what << " correlation_trace(" << g << ")";
}

}  // namespace

TEST(SupportBoundedFold, CpaMatchesNaiveFullWidthFoldOnEveryArm) {
  qu::Rng rng(0x55u);
  for (const std::size_t m : {std::size_t{1}, std::size_t{7}, std::size_t{9},
                              std::size_t{33}, std::size_t{130},
                              std::size_t{257}}) {
    for (const unsigned guesses : {1u, 5u, 256u}) {
      const qd::TraceSet ts = qdi_like_traces(48, m, rng);
      for (const int kind : {0, 1, 2}) {
        const qd::LeakageModel model = kind == 0   ? qd::aes_sbox_hw_model(0)
                                       : kind == 1 ? generic_sbox_model()
                                                   : nonfinite_model();
        const bool finite = kind != 2;
        for (const qk::KernelTable* arm : every_arm()) {
          const std::string what = std::string(arm->name) + " m=" +
                                   std::to_string(m) + " guesses=" +
                                   std::to_string(guesses) + " model=" +
                                   std::to_string(kind);
          qd::OnlineCpa acc(model, guesses);
          acc.set_kernels(*arm);
          NaiveCpa naive(model, guesses, m);
          // Reads mid-stream (17, 18: one trace apart), then at the end.
          for (std::size_t i = 0; i < ts.size(); ++i) {
            acc.add(ts.plaintext(i), ts.trace(i).samples());
            naive.add(ts.plaintext(i), ts.trace(i).samples().data());
            if (i + 1 == 17 || i + 1 == 18 || i + 1 == ts.size())
              expect_cpa_read_matches(acc, naive, m, guesses, finite,
                                      what + " n=" + std::to_string(i + 1));
          }
        }
      }
    }
  }
}

TEST(SupportBoundedFold, CpaMergeAndRestoreMatchNaiveFullWidthFold) {
  qu::Rng rng(0x56u);
  for (const std::size_t m : {std::size_t{9}, std::size_t{130}}) {
    const qd::TraceSet ts = qdi_like_traces(60, m, rng);
    for (const int kind : {0, 2}) {
      const qd::LeakageModel model =
          kind == 0 ? qd::aes_sbox_hw_model(0) : nonfinite_model();
      const bool finite = kind == 0;
      for (const qk::KernelTable* arm : every_arm()) {
        const std::string what = std::string(arm->name) + " m=" +
                                 std::to_string(m) + " model=" +
                                 std::to_string(kind);
        // Two partial accumulators, each read mid-stream, then merged.
        qd::OnlineCpa left(model, 256), right(model, 256);
        left.set_kernels(*arm);
        right.set_kernels(*arm);
        NaiveCpa nleft(model, 256, m), nright(model, 256, m);
        for (std::size_t i = 0; i < 60; ++i) {
          qd::OnlineCpa& acc = i < 30 ? left : right;
          NaiveCpa& naive = i < 30 ? nleft : nright;
          acc.add(ts.plaintext(i), ts.trace(i).samples());
          naive.add(ts.plaintext(i), ts.trace(i).samples().data());
          if (i == 12 || i == 44) {
            (void)acc.finalize();
            (void)naive.finalize(0, 0);
          }
        }
        left.merge(right);
        nleft.merge(nright);
        expect_cpa_read_matches(left, nleft, m, 256, finite, what + " merged");

        // A snapshot restored mid-stream continues like the original.
        qd::OnlineCpa first(model, 256);
        first.set_kernels(*arm);
        NaiveCpa naive(model, 256, m);
        for (std::size_t i = 0; i < 25; ++i) {
          first.add(ts.plaintext(i), ts.trace(i).samples());
          naive.add(ts.plaintext(i), ts.trace(i).samples().data());
          if (i == 10) {
            (void)first.finalize();
            (void)naive.finalize(0, 0);
          }
        }
        qd::OnlineCpa restored(model, 256);
        restored.set_kernels(*arm);
        restored.restore_state(first.serialize_state());
        for (std::size_t i = 25; i < 60; ++i) {
          restored.add(ts.plaintext(i), ts.trace(i).samples());
          naive.add(ts.plaintext(i), ts.trace(i).samples().data());
        }
        expect_cpa_read_matches(restored, naive, m, 256, finite,
                                what + " restored");
      }
    }
  }
}

TEST(SupportBoundedFold, NanHypothesisVarianceCorrelatesAsZero) {
  // Guess 1's hypothesis is NaN for every plaintext, so its var_h is NaN:
  // finalize() scores it 0, and correlation_trace() must agree with all
  // +0.0 rather than NaN at every positive-variance sample.
  const qd::LeakageModel model([](std::span<const std::uint8_t> pt,
                                  unsigned g) {
    if (g == 1) return std::numeric_limits<double>::quiet_NaN();
    return static_cast<double>(std::popcount(static_cast<unsigned>(
        qdi::crypto::aes_sbox(static_cast<std::uint8_t>(pt[0] ^ g)))));
  });
  qu::Rng rng(0x59u);
  const std::size_t m = 33;
  const qd::TraceSet ts = qdi_like_traces(48, m, rng);
  for (const qk::KernelTable* arm : every_arm()) {
    qd::OnlineCpa acc(model, 4);
    acc.set_kernels(*arm);
    for (std::size_t i = 0; i < ts.size(); ++i)
      acc.add(ts.plaintext(i), ts.trace(i).samples());
    EXPECT_TRUE(same_bits(acc.finalize().correlation[1], 0.0)) << arm->name;
    const std::vector<double> rho = acc.correlation_trace(1);
    ASSERT_EQ(rho.size(), m);
    for (std::size_t j = 0; j < m; ++j)
      EXPECT_TRUE(same_bits(rho[j], 0.0)) << arm->name << " j=" << j;
    // A finite guess still scans: the zeros above are the gate's.
    const std::vector<double> rho0 = acc.correlation_trace(0);
    EXPECT_TRUE(std::any_of(rho0.begin(), rho0.end(),
                            [](double r) { return r != 0.0; }))
        << arm->name;
  }
}

TEST(SupportBoundedFold, DpaMatchesNaiveFullWidthFoldOnEveryArm) {
  qu::Rng rng(0x57u);
  for (const std::size_t m : {std::size_t{1}, std::size_t{9}, std::size_t{33},
                              std::size_t{130}}) {
    for (const unsigned guesses : {1u, 5u, 256u}) {
      const qd::TraceSet ts = qdi_like_traces(48, m, rng);
      for (const bool byte_indexed : {true, false}) {
        std::vector<qd::SelectionFn> bits;
        if (byte_indexed) {
          bits.push_back(qd::aes_sbox_selection(0, 0));
          bits.push_back(qd::aes_sbox_selection(0, 3));
        } else {
          bits.push_back(generic_sbox_selection(0));
          bits.push_back(generic_sbox_selection(3));
        }
        for (const qk::KernelTable* arm : every_arm()) {
          const std::string what = std::string(arm->name) + " m=" +
                                   std::to_string(m) + " guesses=" +
                                   std::to_string(guesses) + " byte_indexed=" +
                                   std::to_string(byte_indexed);
          qd::OnlineDpa acc(bits, guesses);
          acc.set_kernels(*arm);
          NaiveDpa naive(bits, guesses, m);
          for (std::size_t i = 0; i < ts.size(); ++i) {
            acc.add(ts.plaintext(i), ts.trace(i).samples());
            naive.add(ts.plaintext(i), ts.trace(i).samples().data());
            if (i + 1 != 17 && i + 1 != ts.size()) continue;
            const qd::KeyRecoveryResult got = acc.recover();
            const qd::KeyRecoveryResult want = naive.recover();
            EXPECT_TRUE(rows_match(got.guess_peak, want.guess_peak, &same_bits))
                << what;
            EXPECT_EQ(got.best_guess, want.best_guess) << what;
            EXPECT_TRUE(same_bits(got.second_peak, want.second_peak)) << what;
            EXPECT_TRUE(rows_match(snapshot_folded(acc.serialize_state(), 5, 1),
                                   naive.folded(), &same_bits))
                << what << ": folded matrix";
          }
        }
      }
    }
  }
}

// ---- variance-cache correctness --------------------------------------------

TEST(KernelArms, VarianceCacheInvalidatedByIngestMergeRestore) {
  qu::Rng rng(0x53u);
  const qd::TraceSet ts = random_traces(60, 19, rng);
  const qd::LeakageModel model = qd::aes_sbox_hw_model(0);

  // finalize – ingest – finalize must equal the same state read with no
  // cache at all: a twin restored from a snapshot taken after the
  // second ingest (a stale variance cache from the first finalize would
  // poison the second). The read at n=30 folds the class sums there,
  // so against a single-shot feed the result is only 1e-12 close.
  qd::OnlineCpa probed(model, 16);
  probed.add_prefix(ts, 0, 30);
  (void)probed.finalize();           // populates the cache at n=30
  probed.add_prefix(ts, 30, 60);     // must invalidate it
  qd::OnlineCpa uncached(model, 16);
  uncached.restore_state(probed.serialize_state());
  qd::OnlineCpa fresh(model, 16);
  fresh.add_prefix(ts, 0, 60);
  const qd::CpaResult a = probed.finalize();
  const qd::CpaResult b = fresh.finalize();
  const qd::CpaResult a_ref = uncached.finalize();
  for (unsigned g = 0; g < 16; ++g) {
    EXPECT_EQ(a.correlation[g], a_ref.correlation[g]) << "g=" << g;
    EXPECT_NEAR(a.correlation[g], b.correlation[g], 1e-12) << "g=" << g;
  }

  // Same rule through merge() ...
  qd::OnlineCpa left(model, 16), right(model, 16);
  left.add_prefix(ts, 0, 30);
  (void)left.finalize();
  right.add_prefix(ts, 30, 60);
  left.merge(right);
  const qd::CpaResult c = left.finalize();
  // merge() re-associates the sums (block totals instead of trace
  // order), so this leg is 1e-12, not bitwise.
  for (unsigned g = 0; g < 16; ++g)
    EXPECT_NEAR(c.correlation[g], b.correlation[g], 1e-12) << "g=" << g;

  // ... and through restore_state().
  qd::OnlineCpa restored(model, 16);
  restored.add_prefix(ts, 0, 30);
  (void)restored.finalize();
  restored.restore_state(fresh.serialize_state());
  const qd::CpaResult d = restored.finalize();
  for (unsigned g = 0; g < 16; ++g)
    EXPECT_EQ(d.correlation[g], b.correlation[g]) << "g=" << g;
}

TEST(KernelArms, ResetDropsTracesKeepsGeometry) {
  qu::Rng rng(0x54u);
  const qd::TraceSet ts = random_traces(24, 11, rng);
  qd::OnlineCpa acc(qd::aes_sbox_hw_model(0), 8);
  acc.add_prefix(ts, 0, 12);
  acc.reset();
  EXPECT_EQ(acc.count(), 0u);
  acc.add_prefix(ts, 0, 24);
  qd::OnlineCpa fresh(qd::aes_sbox_hw_model(0), 8);
  fresh.add_prefix(ts, 0, 24);
  EXPECT_EQ(acc.serialize_state(), fresh.serialize_state());

  qd::OnlineDpa dacc({qd::aes_sbox_selection(0, 0)}, 8);
  dacc.add_prefix(ts, 0, 12);
  dacc.reset();
  EXPECT_EQ(dacc.count(), 0u);
  dacc.add_prefix(ts, 0, 24);
  qd::OnlineDpa dfresh({qd::aes_sbox_selection(0, 0)}, 8);
  dfresh.add_prefix(ts, 0, 24);
  EXPECT_EQ(dacc.serialize_state(), dfresh.serialize_state());
}

// ---- thread-sharded accumulation (campaign block-fold) ---------------------

namespace {

/// Leakage amplifier shared by the campaign tests below: skew one rail
/// of the sbox output channels so the CPA signal is real (a perfectly
/// balanced victim correlates at noise level ~1e-7, where the
/// serial-vs-block 1e-12 comparison would be dominated by catastrophic
/// cancellation in the covariance, not by the property under test).
void skew_sbox_rails(qdi::netlist::Netlist& nl) {
  for (qdi::netlist::ChannelId ch = 0; ch < nl.num_channels(); ++ch) {
    const qdi::netlist::Channel& c = nl.channel(ch);
    if (c.name.find("sbox/out") != std::string::npos ||
        c.name.find("hb/q_q") != std::string::npos)
      nl.net(c.rails[1]).cap_ff *= 2.0;
  }
}

qc::CampaignResult run_fused_campaign(unsigned threads,
                                      std::size_t sharded_block) {
  qc::Cpa cfg;
  cfg.compute_mtd = true;
  cfg.mtd_start = 30;
  cfg.mtd_step = 30;
  qc::Campaign c;
  c.target(qc::aes_byte_slice())
      .key(0x3c)
      .seed(77)
      .traces(130)  // NOT a multiple of the block width: partial final block
      .threads(threads)
      .prepare(skew_sbox_rails)
      .attack(cfg)
      .rank_trajectory(50)
      .fused(64);
  if (sharded_block > 0) c.sharded_ingest(sharded_block);
  return c.run();
}

void expect_bitwise_equal(const qc::CampaignResult& a,
                          const qc::CampaignResult& b) {
  ASSERT_TRUE(a.attack && b.attack);
  EXPECT_EQ(a.attack->best_guess, b.attack->best_guess);
  EXPECT_EQ(a.attack->best_score, b.attack->best_score);
  EXPECT_EQ(a.attack->second_score, b.attack->second_score);
  EXPECT_EQ(a.attack->true_key_rank, b.attack->true_key_rank);
  EXPECT_EQ(a.attack->mtd, b.attack->mtd);
  ASSERT_EQ(a.attack->guess_scores.size(), b.attack->guess_scores.size());
  for (std::size_t g = 0; g < a.attack->guess_scores.size(); ++g)
    EXPECT_EQ(a.attack->guess_scores[g], b.attack->guess_scores[g])
        << "g=" << g;
  ASSERT_EQ(a.rank_trajectory.size(), b.rank_trajectory.size());
  for (std::size_t i = 0; i < a.rank_trajectory.size(); ++i) {
    EXPECT_EQ(a.rank_trajectory[i].traces, b.rank_trajectory[i].traces);
    EXPECT_EQ(a.rank_trajectory[i].rank, b.rank_trajectory[i].rank);
  }
}

}  // namespace

TEST(ShardedIngest, ResultsBitIdenticalAcrossThreadCounts) {
  const qc::CampaignResult one = run_fused_campaign(1, 32);
  const qc::CampaignResult two = run_fused_campaign(2, 32);
  const qc::CampaignResult three = run_fused_campaign(3, 32);
  expect_bitwise_equal(one, two);
  expect_bitwise_equal(one, three);
}

TEST(ShardedIngest, MatchesSerialFusedWithinFpReassociation) {
  const qc::CampaignResult serial = run_fused_campaign(2, 0);
  const qc::CampaignResult block = run_fused_campaign(2, 32);
  ASSERT_TRUE(serial.attack && block.attack);
  // The block fold re-associates the sums (merge adds block sums where
  // the serial feed adds traces); the correlation's covariance step
  // amplifies that ~1e-15-relative sum perturbation by its cancellation
  // factor, so the end-to-end score tolerance is 1e-10 (the raw
  // accumulator sums agree to 1e-12 — test_online_merge.cpp) — and
  // every discrete outcome agrees exactly.
  EXPECT_EQ(serial.attack->best_guess, block.attack->best_guess);
  EXPECT_EQ(serial.attack->true_key_rank, block.attack->true_key_rank);
  EXPECT_EQ(serial.attack->mtd, block.attack->mtd);
  ASSERT_EQ(serial.attack->guess_scores.size(),
            block.attack->guess_scores.size());
  for (std::size_t g = 0; g < serial.attack->guess_scores.size(); ++g)
    EXPECT_NEAR(serial.attack->guess_scores[g], block.attack->guess_scores[g],
                1e-10)
        << "g=" << g;
  ASSERT_EQ(serial.rank_trajectory.size(), block.rank_trajectory.size());
  for (std::size_t i = 0; i < serial.rank_trajectory.size(); ++i) {
    EXPECT_EQ(serial.rank_trajectory[i].traces, block.rank_trajectory[i].traces);
    EXPECT_EQ(serial.rank_trajectory[i].rank, block.rank_trajectory[i].rank);
  }
}

TEST(ShardedIngest, RequiresFused) {
  qc::Campaign c;
  c.target(qc::aes_byte_slice())
      .traces(32)
      .attack(qc::Cpa{})
      .sharded_ingest(16);  // no fused(): nowhere to fold blocks into
  EXPECT_THROW(c.run(), std::invalid_argument);
}

// ---- thread-sharded accumulation (sharded runtime) -------------------------

namespace {

std::string fresh_dir(const std::string& name) {
  const std::string dir = "kernel_ckpt_tests/" + name;
  for (std::size_t s = 0; s < 8; ++s) {
    std::remove(qc::checkpoint_path(dir, s).c_str());
    std::remove(qc::checkpoint_prev_path(dir, s).c_str());
  }
  return dir;
}

qc::ShardedResult run_sharded(unsigned threads, std::size_t ingest_block,
                              const std::string& dir) {
  qc::ShardedOptions opt;
  opt.shards = 2;
  opt.checkpoint_interval = 48;
  opt.checkpoint_dir = dir;
  opt.chunk_traces = 16;
  opt.ingest_block_traces = ingest_block;
  qc::Cpa cfg;
  cfg.compute_mtd = true;
  cfg.mtd_start = 40;
  cfg.mtd_step = 40;
  return qc::Campaign()
      .target(qc::aes_byte_slice())
      .key(0x3c)
      .seed(9)
      .traces(110)  // 2 shards of 55: partial blocks and windows everywhere
      .threads(threads)
      .prepare(skew_sbox_rails)
      .attack(cfg)
      .sharded(opt);
}

}  // namespace

TEST(ShardedIngest, ShardRuntimeDigestsMatchSerialAndThreadsDontMatter) {
  const qc::ShardedResult serial =
      run_sharded(2, 0, fresh_dir("serial"));
  const qc::ShardedResult block2 =
      run_sharded(2, 32, fresh_dir("block_t2"));
  const qc::ShardedResult block3 =
      run_sharded(3, 32, fresh_dir("block_t3"));
  ASSERT_TRUE(serial.complete());
  ASSERT_TRUE(block2.complete());
  ASSERT_TRUE(block3.complete());

  // The stream digest is fed trace by trace in index order in BOTH
  // modes, so it is bit-identical — the strongest possible witness that
  // the block-fold acquired exactly the serial trace stream.
  ASSERT_EQ(serial.shards.size(), block2.shards.size());
  for (std::size_t s = 0; s < serial.shards.size(); ++s) {
    EXPECT_EQ(serial.shards[s].digest_hex, block2.shards[s].digest_hex);
    EXPECT_EQ(block2.shards[s].digest_hex, block3.shards[s].digest_hex);
  }

  // Accumulator results: bit-identical across thread counts, 1e-12
  // against the serial fold.
  ASSERT_TRUE(serial.attack && block2.attack && block3.attack);
  EXPECT_EQ(block2.attack->best_score, block3.attack->best_score);
  for (std::size_t g = 0; g < block2.attack->guess_scores.size(); ++g) {
    EXPECT_EQ(block2.attack->guess_scores[g], block3.attack->guess_scores[g]);
    EXPECT_NEAR(serial.attack->guess_scores[g],
                block2.attack->guess_scores[g], 1e-12);
  }
  EXPECT_EQ(serial.attack->best_guess, block2.attack->best_guess);
  EXPECT_EQ(serial.attack->true_key_rank, block2.attack->true_key_rank);
}

TEST(ShardedIngest, BlockFoldResumeIsBitIdentical) {
  // Kill the first run after its first durable commit (the on_commit
  // hook throws with max_attempts=1), then resume: the resumed
  // block-fold run must be bit-identical to an uninterrupted one.
  const std::string dir = fresh_dir("resume");
  const std::string dir_ref = fresh_dir("resume_ref");
  const qc::ShardedResult ref = [&] {
    return run_sharded(2, 32, dir_ref);
  }();

  qc::ShardedOptions opt;
  opt.shards = 2;
  opt.checkpoint_interval = 48;
  opt.checkpoint_dir = dir;
  opt.chunk_traces = 16;
  opt.ingest_block_traces = 32;
  opt.max_attempts = 1;
  unsigned commits = 0;
  opt.on_commit = [&](std::size_t, std::uint64_t) {
    if (++commits == 1) throw std::runtime_error("injected crash");
  };
  qc::Cpa cfg;
  cfg.compute_mtd = true;
  cfg.mtd_start = 40;
  cfg.mtd_step = 40;
  const auto campaign = [&] {
    return qc::Campaign()
        .target(qc::aes_byte_slice())
        .key(0x3c)
        .seed(9)
        .traces(110)
        .threads(2)
        .prepare(skew_sbox_rails)
        .attack(cfg);
  };
  const qc::ShardedResult crashed = campaign().sharded(opt);
  EXPECT_LT(crashed.covered, crashed.total_traces);

  qc::ShardedOptions resume = opt;
  resume.on_commit = nullptr;
  resume.max_attempts = 3;
  const qc::ShardedResult resumed = campaign().sharded(resume);
  ASSERT_TRUE(resumed.complete());
  ASSERT_TRUE(resumed.attack && ref.attack);
  EXPECT_EQ(resumed.attack->best_score, ref.attack->best_score);
  for (std::size_t g = 0; g < ref.attack->guess_scores.size(); ++g)
    EXPECT_EQ(resumed.attack->guess_scores[g], ref.attack->guess_scores[g]);
  ASSERT_EQ(resumed.shards.size(), ref.shards.size());
  for (std::size_t s = 0; s < ref.shards.size(); ++s)
    EXPECT_EQ(resumed.shards[s].digest_hex, ref.shards[s].digest_hex);
}
