#include "support/simd.hpp"

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <cstring>

#include "support/stirling.hpp"

#if defined(__x86_64__) || defined(_M_X64)
#define POPPROTO_SIMD_X86 1
#include <immintrin.h>
#endif

namespace popproto::simd {

namespace {

constexpr std::uint64_t kGolden = 0x9e3779b97f4a7c15ull;

inline std::uint64_t mix64(std::uint64_t z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

// -- Scalar reference tier --------------------------------------------------

std::uint64_t splitmix_fill_scalar(std::uint64_t state, std::uint64_t* out,
                                   std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    state += kGolden;
    out[i] = mix64(state);
  }
  return state;
}

void u01_scalar(const std::uint64_t* words, double* out, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i)
    out[i] = static_cast<double>(words[i] >> 11) * 0x1.0p-53;
}

std::uint64_t mask_below_bounds_scalar(const double* bounds,
                                       const std::uint64_t* off,
                                       const double* u, std::size_t n) {
  std::uint64_t mask = 0;
  for (std::size_t i = 0; i < n; ++i)
    if (u[i] < bounds[off[i]]) mask |= std::uint64_t{1} << i;
  return mask;
}

void log_factorial_fill_scalar(const double* table, std::size_t table_n,
                               const std::uint64_t* k, double* out,
                               std::size_t n) {
  for (std::size_t i = 0; i < n; ++i)
    out[i] = k[i] < table_n ? table[k[i]] : log_factorial_stirling(k[i]);
}

#if defined(POPPROTO_SIMD_X86)

// -- SSE2 tier --------------------------------------------------------------
// x86-64 baseline: 2-lane u64 arithmetic. No gathers at this width, so the
// table-lookup kernels stay scalar; the pure-arithmetic fills vectorize.

// Low 64 bits of a 64x64 multiply from 32-bit partial products (SSE2 has no
// 64-bit mullo): albl + ((albh + ahbl) << 32).
inline __m128i mullo64_sse2(__m128i a, __m128i b) {
  const __m128i ah = _mm_srli_epi64(a, 32);
  const __m128i bh = _mm_srli_epi64(b, 32);
  const __m128i albl = _mm_mul_epu32(a, b);
  const __m128i albh = _mm_mul_epu32(a, bh);
  const __m128i ahbl = _mm_mul_epu32(ah, b);
  const __m128i hi = _mm_add_epi64(albh, ahbl);
  return _mm_add_epi64(albl, _mm_slli_epi64(hi, 32));
}

inline __m128i mix64_sse2(__m128i z) {
  z = mullo64_sse2(_mm_xor_si128(z, _mm_srli_epi64(z, 30)),
                   _mm_set1_epi64x(0xbf58476d1ce4e5b9ull));
  z = mullo64_sse2(_mm_xor_si128(z, _mm_srli_epi64(z, 27)),
                   _mm_set1_epi64x(0x94d049bb133111ebull));
  return _mm_xor_si128(z, _mm_srli_epi64(z, 31));
}

std::uint64_t splitmix_fill_sse2(std::uint64_t state, std::uint64_t* out,
                                 std::size_t n) {
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const __m128i ctr = _mm_set_epi64x(
        static_cast<long long>(state + 2 * kGolden),
        static_cast<long long>(state + 1 * kGolden));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + i), mix64_sse2(ctr));
    state += 2 * kGolden;
  }
  return splitmix_fill_scalar(state, out + i, n - i);
}

// u64 -> f64 for values < 2^53 (post >> 11), exact: pack the low/high 32-bit
// halves into doubles via exponent-bit ORs, then recombine. Both the
// subtraction and the final add are exact at this magnitude, so every lane
// equals the scalar cast bit for bit.
inline __m128d u64_to_f64_sse2(__m128i v) {
  const __m128i magic_lo = _mm_set1_epi64x(0x4330000000000000ll);   // 2^52
  const __m128i magic_hi = _mm_set1_epi64x(0x4530000000000000ll);   // 2^84
  const __m128i magic_all = _mm_set1_epi64x(0x4530000000100000ll);  // 2^84+2^52
  const __m128i lo32 = _mm_set1_epi64x(0x00000000ffffffffll);
  const __m128i v_lo = _mm_or_si128(_mm_and_si128(v, lo32), magic_lo);
  __m128i v_hi = _mm_srli_epi64(v, 32);
  v_hi = _mm_xor_si128(v_hi, magic_hi);
  const __m128d hi_dbl =
      _mm_sub_pd(_mm_castsi128_pd(v_hi), _mm_castsi128_pd(magic_all));
  return _mm_add_pd(hi_dbl, _mm_castsi128_pd(v_lo));
}

void u01_sse2(const std::uint64_t* words, double* out, std::size_t n) {
  const __m128d scale = _mm_set1_pd(0x1.0p-53);
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    __m128i w = _mm_loadu_si128(reinterpret_cast<const __m128i*>(words + i));
    w = _mm_srli_epi64(w, 11);
    _mm_storeu_pd(out + i, _mm_mul_pd(u64_to_f64_sse2(w), scale));
  }
  u01_scalar(words + i, out + i, n - i);
}

// -- AVX2 tier --------------------------------------------------------------
// Per-function target attributes: the TU itself compiles at the build's
// baseline (-march=x86-64 in CI's no-AVX2 job), these bodies at avx2, and
// active_tier() guarantees they only run on capable CPUs.

__attribute__((target("avx2"))) inline __m256i mullo64_avx2(__m256i a,
                                                            __m256i b) {
  const __m256i ah = _mm256_srli_epi64(a, 32);
  const __m256i bh = _mm256_srli_epi64(b, 32);
  const __m256i albl = _mm256_mul_epu32(a, b);
  const __m256i albh = _mm256_mul_epu32(a, bh);
  const __m256i ahbl = _mm256_mul_epu32(ah, b);
  const __m256i hi = _mm256_add_epi64(albh, ahbl);
  return _mm256_add_epi64(albl, _mm256_slli_epi64(hi, 32));
}

__attribute__((target("avx2"))) inline __m256i mix64_avx2(__m256i z) {
  z = mullo64_avx2(_mm256_xor_si256(z, _mm256_srli_epi64(z, 30)),
                   _mm256_set1_epi64x(0xbf58476d1ce4e5b9ull));
  z = mullo64_avx2(_mm256_xor_si256(z, _mm256_srli_epi64(z, 27)),
                   _mm256_set1_epi64x(0x94d049bb133111ebull));
  return _mm256_xor_si256(z, _mm256_srli_epi64(z, 31));
}

__attribute__((target("avx2"))) std::uint64_t splitmix_fill_avx2(
    std::uint64_t state, std::uint64_t* out, std::size_t n) {
  const __m256i step = _mm256_set1_epi64x(static_cast<long long>(4 * kGolden));
  __m256i ctr = _mm256_set_epi64x(static_cast<long long>(state + 4 * kGolden),
                                  static_cast<long long>(state + 3 * kGolden),
                                  static_cast<long long>(state + 2 * kGolden),
                                  static_cast<long long>(state + 1 * kGolden));
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i), mix64_avx2(ctr));
    ctr = _mm256_add_epi64(ctr, step);
    state += 4 * kGolden;
  }
  return splitmix_fill_scalar(state, out + i, n - i);
}

__attribute__((target("avx2"))) inline __m256d u64_to_f64_avx2(__m256i v) {
  const __m256i magic_lo = _mm256_set1_epi64x(0x4330000000000000ll);
  const __m256i magic_hi = _mm256_set1_epi64x(0x4530000000000000ll);
  const __m256i magic_all = _mm256_set1_epi64x(0x4530000000100000ll);
  const __m256i v_lo = _mm256_blend_epi32(magic_lo, v, 0x55);
  __m256i v_hi = _mm256_srli_epi64(v, 32);
  v_hi = _mm256_xor_si256(v_hi, magic_hi);
  const __m256d hi_dbl =
      _mm256_sub_pd(_mm256_castsi256_pd(v_hi), _mm256_castsi256_pd(magic_all));
  return _mm256_add_pd(hi_dbl, _mm256_castsi256_pd(v_lo));
}

__attribute__((target("avx2"))) void u01_avx2(const std::uint64_t* words,
                                              double* out, std::size_t n) {
  const __m256d scale = _mm256_set1_pd(0x1.0p-53);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    __m256i w =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(words + i));
    w = _mm256_srli_epi64(w, 11);
    _mm256_storeu_pd(out + i, _mm256_mul_pd(u64_to_f64_avx2(w), scale));
  }
  u01_scalar(words + i, out + i, n - i);
}

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

__attribute__((target("avx2"))) void log_factorial_fill_avx2(
    const double* table, std::size_t table_n, const std::uint64_t* k,
    double* out, std::size_t n) {
  const __m256i limit =
      _mm256_set1_epi64x(static_cast<long long>(table_n));
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i vk =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(k + i));
    // Signed compare is safe: table_n is tiny and sampler arguments stay far
    // below 2^63. in_table lanes gather; the rest take the Stirling tail.
    const __m256i in_table = _mm256_cmpgt_epi64(limit, vk);
    const int m = _mm256_movemask_pd(_mm256_castsi256_pd(in_table));
    if (m == 0) {
      // All lanes in the Stirling tail (large-count samplers live here):
      // skip the gather entirely — the tail is scalar in every tier, since
      // bit-identity with pair_sampler's log_factorial pins it to std::log.
      for (int j = 0; j < 4; ++j)
        out[i + j] = log_factorial_stirling(k[i + j]);
      continue;
    }
    const __m256d gathered = _mm256_mask_i64gather_pd(
        _mm256_setzero_pd(), table, vk, _mm256_castsi256_pd(in_table), 8);
    if (m == 0xf) {
      _mm256_storeu_pd(out + i, gathered);
    } else {
      alignas(32) double lanes[4];
      _mm256_store_pd(lanes, gathered);
      for (int j = 0; j < 4; ++j)
        out[i + j] = (m >> j) & 1 ? lanes[j]
                                  : log_factorial_stirling(k[i + j]);
    }
  }
  log_factorial_fill_scalar(table, table_n, k + i, out + i, n - i);
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
  return Tier::kSSE2;
#else
  return Tier::kScalar;
#endif
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

Tier compiled_tier() {
#if defined(POPPROTO_SIMD_X86)
  return Tier::kAVX2;
#else
  return Tier::kScalar;
#endif
}

const char* tier_name(Tier t) {
  switch (t) {
    case Tier::kScalar:
      return "scalar";
    case Tier::kSSE2:
      return "sse2";
    case Tier::kAVX2:
      return "avx2";
  }
  return "unknown";
}

std::uint64_t splitmix_fill(std::uint64_t state, std::uint64_t* out,
                            std::size_t n) {
#if defined(POPPROTO_SIMD_X86)
  switch (active_tier()) {
    case Tier::kAVX2:
      return splitmix_fill_avx2(state, out, n);
    case Tier::kSSE2:
      return splitmix_fill_sse2(state, out, n);
    case Tier::kScalar:
      break;
  }
#endif
  return splitmix_fill_scalar(state, out, n);
}

void u01_from_words(const std::uint64_t* words, double* out, std::size_t n) {
#if defined(POPPROTO_SIMD_X86)
  switch (active_tier()) {
    case Tier::kAVX2:
      u01_avx2(words, out, n);
      return;
    case Tier::kSSE2:
      u01_sse2(words, out, n);
      return;
    case Tier::kScalar:
      break;
  }
#endif
  u01_scalar(words, out, n);
}

std::uint64_t mask_below_bounds(const double* bounds, const std::uint64_t* off,
                                const double* u, std::size_t n) {
#if defined(POPPROTO_SIMD_X86)
  if (active_tier() == Tier::kAVX2)
    return mask_below_bounds_avx2(bounds, off, u, n);
#endif
  return mask_below_bounds_scalar(bounds, off, u, n);
}

void log_factorial_fill(const double* table, std::size_t table_n,
                        const std::uint64_t* k, double* out, std::size_t n) {
#if defined(POPPROTO_SIMD_X86)
  if (active_tier() == Tier::kAVX2) {
    log_factorial_fill_avx2(table, table_n, k, out, n);
    return;
  }
#endif
  log_factorial_fill_scalar(table, table_n, k, out, n);
}

}  // namespace popproto::simd
