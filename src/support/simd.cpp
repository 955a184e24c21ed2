#include "support/simd.hpp"

#include <atomic>
#include <cstdlib>
#include <cstring>

#if defined(__x86_64__) || defined(_M_X64)
#define POPPROTO_SIMD_X86 1
#include <immintrin.h>
#endif

namespace popproto::simd {

namespace {

// -- Scalar reference tier --------------------------------------------------

std::uint64_t mask_below_bounds_scalar(const double* bounds,
                                       const std::uint64_t* off,
                                       const double* u, std::size_t n) {
  std::uint64_t mask = 0;
  for (std::size_t i = 0; i < n; ++i)
    if (u[i] < bounds[off[i]]) mask |= std::uint64_t{1} << i;
  return mask;
}

#if defined(POPPROTO_SIMD_X86)

// -- AVX2 tier --------------------------------------------------------------
// Per-function target attribute: the TU itself compiles at the build's
// baseline (-march=x86-64 in CI's scalar-fallback job), this body at avx2,
// and active_tier() guarantees it only runs on capable CPUs.

__attribute__((target("avx2"))) std::uint64_t mask_below_bounds_avx2(
    const double* bounds, const std::uint64_t* off, const double* u,
    std::size_t n) {
  std::uint64_t mask = 0;
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i idx =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(off + i));
    const __m256d b = _mm256_i64gather_pd(bounds, idx, 8);
    const __m256d lt = _mm256_cmp_pd(_mm256_loadu_pd(u + i), b, _CMP_LT_OQ);
    mask |= static_cast<std::uint64_t>(_mm256_movemask_pd(lt)) << i;
  }
  if (i < n)
    mask |= mask_below_bounds_scalar(bounds, off + i, u + i, n - i) << i;
  return mask;
}

#endif  // POPPROTO_SIMD_X86

// -- Dispatch ---------------------------------------------------------------

bool force_scalar_from_env() {
  const char* v = std::getenv("POPPROTO_FORCE_SCALAR");
  return v != nullptr && v[0] != '\0' && std::strcmp(v, "0") != 0;
}

Tier resolve_tier() {
  if (force_scalar_from_env()) return Tier::kScalar;
#if defined(POPPROTO_SIMD_X86)
  if (__builtin_cpu_supports("avx2")) return Tier::kAVX2;
#endif
  return Tier::kScalar;
}

// -1 = unresolved; resolved once and cached (relaxed: resolve_tier is
// idempotent, racing first calls agree on the value).
std::atomic<int> g_tier{-1};

}  // namespace

Tier active_tier() {
  int t = g_tier.load(std::memory_order_relaxed);
  if (t < 0) {
    t = static_cast<int>(resolve_tier());
    g_tier.store(t, std::memory_order_relaxed);
  }
  return static_cast<Tier>(t);
}

void refresh_tier_from_env() {
  g_tier.store(static_cast<int>(resolve_tier()), std::memory_order_relaxed);
}

const char* tier_name(Tier t) {
  switch (t) {
    case Tier::kScalar:
      return "scalar";
    case Tier::kAVX2:
      return "avx2";
  }
  return "unknown";
}

std::uint64_t mask_below_bounds(const double* bounds, const std::uint64_t* off,
                                const double* u, std::size_t n) {
#if defined(POPPROTO_SIMD_X86)
  if (active_tier() == Tier::kAVX2)
    return mask_below_bounds_avx2(bounds, off, u, n);
#endif
  return mask_below_bounds_scalar(bounds, off, u, n);
}

}  // namespace popproto::simd
