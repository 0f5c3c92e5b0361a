// IndexedFn<R> — the common shape of the attacker's keyed predictors:
// a function of (plaintext, key guess) returning R, which may declare
// that it reads only ONE plaintext byte. SelectionFn (R = int, the
// DPA D-functions) and LeakageModel (R = double, the CPA models) are
// aliases of this template; see selection.hpp / cpa.hpp for their
// semantics.
//
// The byte-indexed declaration is what the streaming engine
// (dpa::OnlineCpa / dpa::OnlineDpa) exploits: a declared predictor is
// tabulated into a 256-entry-per-guess LUT once, so no std::function
// runs on the per-trace hot path. Predictors built from plain lambdas
// still work everywhere — they take the generic scalar-call path.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <type_traits>
#include <utility>

namespace qdi::dpa {

template <typename R>
class IndexedFn {
 public:
  using GenericFn =
      std::function<R(std::span<const std::uint8_t> plaintext, unsigned guess)>;
  using ByteFn = std::function<R(std::uint8_t value, unsigned guess)>;

  IndexedFn() = default;
  /// Generic predictor over the whole plaintext (implicit, so plain
  /// lambda call sites keep working).
  IndexedFn(GenericFn fn) : generic_(std::move(fn)) {}  // NOLINT: implicit
  template <typename F>
    requires(!std::is_same_v<std::remove_cvref_t<F>, IndexedFn> &&
             !std::is_same_v<std::remove_cvref_t<F>, GenericFn> &&
             std::is_invocable_r_v<R, F, std::span<const std::uint8_t>,
                                   unsigned>)
  IndexedFn(F fn) : generic_(std::move(fn)) {}  // NOLINT: implicit

  /// Predictor that depends only on plaintext[byte]: f(pt, g) =
  /// fn(pt[byte], g). Enables the LUT fast path of the online engine.
  static IndexedFn byte_indexed(int byte, ByteFn fn) {
    IndexedFn f;
    f.byte_ = byte;
    f.byte_fn_ = std::move(fn);
    return f;
  }

  R operator()(std::span<const std::uint8_t> pt, unsigned guess) const {
    if (byte_fn_) return byte_fn_(pt[static_cast<std::size_t>(byte_)], guess);
    return generic_(pt, guess);
  }

  explicit operator bool() const noexcept {
    return static_cast<bool>(generic_) || static_cast<bool>(byte_fn_);
  }
  bool is_byte_indexed() const noexcept { return static_cast<bool>(byte_fn_); }
  int byte() const noexcept { return byte_; }

  /// Restrict to one fixed guess: the result answers every guess index
  /// with this predictor's value at `guess` (callers use index 0). The
  /// byte-indexed fast path is preserved.
  IndexedFn pinned(unsigned guess) const {
    if (byte_fn_)
      return byte_indexed(byte_, [fn = byte_fn_, guess](std::uint8_t v,
                                                        unsigned) {
        return fn(v, guess);
      });
    return IndexedFn(GenericFn(
        [fn = generic_, guess](std::span<const std::uint8_t> pt, unsigned) {
          return fn(pt, guess);
        }));
  }

 private:
  GenericFn generic_;
  ByteFn byte_fn_;
  int byte_ = 0;
};

}  // namespace qdi::dpa
