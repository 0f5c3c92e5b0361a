#include "qdi/util/cpu.hpp"

#include <cstdint>
#include <cstdlib>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define QDI_CPU_X86 1
#include <cpuid.h>
#endif

namespace qdi::util {

namespace {

#ifdef QDI_CPU_X86
// XGETBV(0) without -mxsave: only called after the OSXSAVE cpuid bit
// confirmed the instruction is available.
std::uint64_t xgetbv0() noexcept {
  std::uint32_t eax = 0;
  std::uint32_t edx = 0;
  __asm__ volatile("xgetbv" : "=a"(eax), "=d"(edx) : "c"(0));
  return (static_cast<std::uint64_t>(edx) << 32) | eax;
}
#endif

CpuFeatures probe() noexcept {
  CpuFeatures f;
#ifdef QDI_CPU_X86
  unsigned a = 0;
  unsigned b = 0;
  unsigned c = 0;
  unsigned d = 0;
  if (__get_cpuid(1, &a, &b, &c, &d)) {
    f.ssse3 = (c & (1u << 9)) != 0;
    f.sse41 = (c & (1u << 19)) != 0;
    // AVX2 usability needs the CPU flag (leaf 7) AND the OS to have
    // enabled XMM+YMM state saving: OSXSAVE, then XCR0 bits 1|2.
    const bool osxsave = (c & (1u << 27)) != 0;
    const bool avx = (c & (1u << 28)) != 0;
    bool ymm_os = false;
    if (osxsave) ymm_os = (xgetbv0() & 0x6) == 0x6;
    unsigned a7 = 0;
    unsigned b7 = 0;
    unsigned c7 = 0;
    unsigned d7 = 0;
    if (__get_cpuid_count(7, 0, &a7, &b7, &c7, &d7)) {
      f.avx2 = avx && ymm_os && (b7 & (1u << 5)) != 0;
      f.sha_ni = (b7 & (1u << 29)) != 0;
    }
  }
#endif
  return f;
}

}  // namespace

const CpuFeatures& cpu_features() noexcept {
  static const CpuFeatures f = probe();
  return f;
}

bool force_portable() noexcept {
  static const bool forced = [] {
    const char* e = std::getenv("QDI_FORCE_PORTABLE");
    return e != nullptr && e[0] != '\0' && !(e[0] == '0' && e[1] == '\0');
  }();
  return forced;
}

}  // namespace qdi::util
