// Shared runtime CPU-feature probe for the load-time-dispatched
// kernels (util::Sha256's SHA-NI compressor, dpa::kernels' AVX2
// analysis kernels). One cpuid interrogation per process; every
// dispatcher reads the same answers.
//
// Dispatch override: setting QDI_FORCE_PORTABLE (to anything but "0"
// or the empty string) in the environment makes every dispatched
// kernel pick its portable arm regardless of what the CPU supports, so
// both arms of each dispatch are exercisable on any box (the sanitizer
// CI job runs the analysis tests under both settings). The override is
// latched on first use — flipping the variable after process start has
// no effect.
#pragma once

namespace qdi::util {

struct CpuFeatures {
  bool ssse3 = false;
  bool sse41 = false;
  bool avx2 = false;   ///< true only if the OS enables YMM state (XGETBV)
  bool sha_ni = false;
};

/// The probed features of this CPU (all-false on non-x86 builds).
/// Probed once, on first call; safe to call during static
/// initialization of other translation units.
const CpuFeatures& cpu_features() noexcept;

/// True when QDI_FORCE_PORTABLE requests portable kernels everywhere.
bool force_portable() noexcept;

}  // namespace qdi::util
