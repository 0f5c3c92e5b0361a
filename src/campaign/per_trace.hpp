// Private campaign-internal header (not installed): the per-trace rules
// SimTraceSource and BatchSimTraceSource (per lane) share.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "qdi/campaign/trace_source.hpp"
#include "qdi/util/rng.hpp"

namespace qdi::campaign::detail {

/// Trace `index`'s randomness in its one draw order: its own stream
/// split_stream(seed, index), the stimulus, then the window jitter in
/// [0, start_jitter_ps) (no draw when 0), which is returned. `rng` is
/// left where the measurement noise draws next.
inline double trace_prelude(std::uint64_t seed, std::size_t index,
                            const StimulusFn& stimulus,
                            double start_jitter_ps, util::Rng& rng,
                            Stimulus& stim) {
  rng = util::split_stream(seed, index);
  stimulus(rng, index, stim);
  return start_jitter_ps > 0.0 ? rng.uniform(0.0, start_jitter_ps) : 0.0;
}

/// Byte `b` of the decoded output channels packed LSB-first: bit k is
/// set iff channel 8b + k decoded to 1 (invalid, -1, or absent: 0).
inline std::uint8_t packed_output_byte(std::span<const int> outputs,
                                       std::size_t b) noexcept {
  std::uint8_t v = 0;
  for (std::size_t k = 0; k < 8 && 8 * b + k < outputs.size(); ++k)
    if (outputs[8 * b + k] == 1) v |= static_cast<std::uint8_t>(1u << k);
  return v;
}

/// Every output byte (a trace's "ciphertext"); `bytes` keeps capacity.
inline void pack_outputs(std::span<const int> outputs,
                         std::vector<std::uint8_t>& bytes) {
  bytes.resize((outputs.size() + 7) / 8);
  for (std::size_t b = 0; b < bytes.size(); ++b)
    bytes[b] = packed_output_byte(outputs, b);
}

}  // namespace qdi::campaign::detail
