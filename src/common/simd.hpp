// Compile-time SIMD feature detection for the hot-path kernels
// (src/common/kernels.hpp). One macro, CRYPTODROP_SIMD_LEVEL, names the
// widest instruction set the *whole translation unit* was compiled for;
// kernels select their implementation with plain #if so there is exactly
// one code path per build and nothing to mispredict at run time.
//
// Levels (higher includes lower):
//   0  portable SWAR only (plain C++, any target)
//   1  SSE2   (baseline on every x86-64 target)
//   2  AVX2
//   3  NEON   (aarch64 / ARMv7 with NEON)
//
// Run-time dispatch is deliberately NOT done here: every kernel is
// bit-identical to its scalar reference by construction (integer domain
// only — see kernels.hpp), so the build-time pick never changes results,
// only speed. The single exception is the SHA-256 SHA-NI path, which
// carries its own `__builtin_cpu_supports` check in crypto/sha256.cpp
// because SHA-NI is not implied by -mavx2.
#pragma once

#if defined(__AVX2__)
#define CRYPTODROP_SIMD_LEVEL 2
#elif defined(__SSE2__) || defined(_M_X64) || defined(__x86_64__)
#define CRYPTODROP_SIMD_LEVEL 1
#elif defined(__ARM_NEON) || defined(__ARM_NEON__) || defined(__aarch64__)
#define CRYPTODROP_SIMD_LEVEL 3
#else
#define CRYPTODROP_SIMD_LEVEL 0
#endif

namespace cryptodrop {

/// Human-readable name of the compiled kernel path, printed by
/// bench_perf and stored in its --perf-out JSON (`simd_backend`), so a
/// perf baseline records which kernels it measured.
constexpr const char* simd_backend_name() {
#if CRYPTODROP_SIMD_LEVEL == 2
  return "avx2";
#elif CRYPTODROP_SIMD_LEVEL == 1
  return "sse2";
#elif CRYPTODROP_SIMD_LEVEL == 3
  return "neon";
#else
  return "swar";
#endif
}

}  // namespace cryptodrop
