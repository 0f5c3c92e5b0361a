// Deterministic, seedable random number generation for reproducible
// experiments. All stochastic components of the library (placement
// annealing, noise injection, plaintext generation) take an explicit
// Rng so that every experiment is replayable from a single seed.
#pragma once

#include <cstdint>
#include <limits>

namespace qdi::util {

/// SplitMix64: used to expand a single 64-bit seed into a full generator
/// state. Passes BigCrush when used directly; here it is only the seeder.
class SplitMix64 {
 public:
  explicit constexpr SplitMix64(std::uint64_t seed) noexcept : state_(seed) {}

  constexpr std::uint64_t next() noexcept {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

 private:
  std::uint64_t state_;
};

/// xoshiro256** by Blackman & Vigna: fast, high-quality 64-bit generator.
/// Satisfies the C++ UniformRandomBitGenerator requirements so it can be
/// used with <random> distributions when convenient.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit constexpr Rng(std::uint64_t seed = 0x5eedbead5eedbeadULL) noexcept {
    SplitMix64 sm(seed);
    for (auto& s : s_) s = sm.next();
  }

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept {
    return std::numeric_limits<result_type>::max();
  }

  constexpr result_type operator()() noexcept { return next(); }

  constexpr std::uint64_t next() noexcept {
    const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
  }

  /// Uniform in [0, bound) without modulo bias (Lemire's method would need
  /// 128-bit multiply; a rejection loop is simpler and still branch-cheap).
  constexpr std::uint64_t below(std::uint64_t bound) noexcept {
    if (bound <= 1) return 0;
    const std::uint64_t threshold = (0 - bound) % bound;
    for (;;) {
      const std::uint64_t r = next();
      if (r >= threshold) return r % bound;
    }
  }

  /// Uniform double in [0, 1) with 53 bits of randomness.
  constexpr double uniform() noexcept {
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi).
  constexpr double uniform(double lo, double hi) noexcept {
    return lo + (hi - lo) * uniform();
  }

  /// Standard normal via Box-Muller (polar form avoided to stay constexpr-
  /// friendly is not required; this is the classic trig-free ratio variant).
  double gaussian() noexcept;

  /// Normal with the given mean and standard deviation.
  double gaussian(double mean, double stddev) noexcept {
    return mean + stddev * gaussian();
  }

  /// Random byte.
  constexpr std::uint8_t byte() noexcept {
    return static_cast<std::uint8_t>(next() & 0xff);
  }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }

  std::uint64_t s_[4]{};
};

constexpr std::uint64_t rotl64(std::uint64_t x, int k) noexcept {
  return (x << k) | (x >> (64 - k));
}

/// Deterministic stream split: derives an independent generator from a
/// root seed and a stream index. Used to give every trace of an
/// acquisition campaign its own RNG stream keyed by (campaign seed,
/// trace index), so results are bit-identical however the traces are
/// partitioned across worker threads. The two inputs pass through
/// separate SplitMix64 scramblers before mixing, so neighbouring stream
/// indices produce uncorrelated states.
constexpr Rng split_stream(std::uint64_t seed, std::uint64_t stream) noexcept {
  SplitMix64 a(seed);
  SplitMix64 b(stream ^ 0x63686172676521ULL);
  return Rng(a.next() ^ (b.next() + 0x9e3779b97f4a7c15ULL));
}

/// Domain tag for fault-campaign streams (see the three-argument
/// split_stream below). ASCII "faultdom".
inline constexpr std::uint64_t kFaultDomain = 0x6661756c74646f6dULL;

/// Domain-separated stream split: like the two-argument form, but the
/// `domain` tag guarantees that two subsystems drawing from the same
/// (seed, stream) pair — e.g. power acquisition and fault injection of
/// the same campaign index — see non-overlapping streams. The
/// two-argument form is NOT the same as domain 0: its outputs stay
/// bit-identical to what they were before the domain form existed.
constexpr Rng split_stream(std::uint64_t seed, std::uint64_t stream,
                           std::uint64_t domain) noexcept {
  SplitMix64 a(seed);
  SplitMix64 b(stream ^ 0x63686172676521ULL);
  SplitMix64 c(domain ^ 0x646f6d61696e7321ULL);
  return Rng(a.next() ^ (b.next() + 0x9e3779b97f4a7c15ULL) ^ rotl64(c.next(), 23));
}

}  // namespace qdi::util
