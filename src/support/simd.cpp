#include "support/simd.hpp"

#include <array>
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

// Slicing-by-8 tables: t[0] is the bytewise table; t[k][i] is the CRC
// register after byte i is followed by k zero bytes, so one lookup per
// table folds eight input bytes at once.
using CrcTables = std::array<std::array<std::uint32_t, 256>, 8>;

CrcTables make_crc_tables() {
  CrcTables t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k)
      c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    t[0][i] = c;
  }
  for (std::size_t k = 1; k < 8; ++k)
    for (std::uint32_t i = 0; i < 256; ++i)
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFFu];
  return t;
}

std::uint32_t crc32_update_scalar(std::uint32_t c, const unsigned char* p,
                                  std::size_t len) {
  static const CrcTables t = make_crc_tables();
  for (; len >= 8; p += 8, len -= 8) {
    std::uint32_t lo, hi;  // little-endian words (support/serialize.hpp)
    std::memcpy(&lo, p, 4);
    std::memcpy(&hi, p + 4, 4);
    lo ^= c;
    c = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
        t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^
        t[2][(hi >> 8) & 0xFFu] ^ t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
  }
  for (; len > 0; ++p, --len) c = t[0][(c ^ *p) & 0xFFu] ^ (c >> 8);
  return c;
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

// Buffers shorter than this stay on slicing-by-8: the fold starts from four
// 16-byte lanes. From there on it wins (on a Xeon VM: 10 ns against 23 ns
// at 64 bytes, 0.9 ms against 7.4 ms at 12.6 MB).
constexpr std::size_t kCrcFoldMinBytes = 64;

__attribute__((target("avx2,pclmul"))) inline __m128i load(
    const unsigned char* q) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(q));
}

// One fold step: lane x times (k's low, high) words, into the next lane.
__attribute__((target("avx2,pclmul"))) inline __m128i fold(__m128i x,
                                                           __m128i k,
                                                           __m128i next) {
  const __m128i lo = _mm_clmulepi64_si128(x, k, 0x00);
  const __m128i hi = _mm_clmulepi64_si128(x, k, 0x11);
  return _mm_xor_si128(_mm_xor_si128(hi, lo), next);
}

// CRC-32 by carry-less multiplication (V. Gopal, E. Ozturk et al., "Fast
// CRC Computation for Generic Polynomials Using PCLMULQDQ Instruction",
// Intel, 2009), with the paper's constants for the bit-reflected IEEE
// polynomial: four 128-bit lanes fold 64 bytes per step (k1, k2 =
// x^(4*128+32) and x^(4*128-32) mod P, reflected), collapse into one lane
// (k3, k4 for 128 bits), fold 16 bytes per step, reduce 128 -> 64 bits
// (k5) and finish with a Barrett reduction (P' and mu). Every step is exact
// GF(2) arithmetic, so the register equals slicing-by-8's. `len` must be a
// multiple of 16 and at least 64.
__attribute__((target("avx2,pclmul"))) std::uint32_t crc32_fold_pclmul(
    std::uint32_t reg, const unsigned char* p, std::size_t len) {
  const __m128i k1k2 = _mm_set_epi64x(0x01c6e41596, 0x0154442bd4);
  const __m128i k3k4 = _mm_set_epi64x(0x00ccaa009e, 0x01751997d0);
  const __m128i k5 = _mm_set_epi64x(0, 0x0163cd6124);
  const __m128i poly = _mm_set_epi64x(0x01f7011641, 0x01db710641);
  const __m128i low32 = _mm_setr_epi32(~0, 0, ~0, 0);

  __m128i x1 =
      _mm_xor_si128(load(p), _mm_cvtsi32_si128(static_cast<int>(reg)));
  __m128i x2 = load(p + 16);
  __m128i x3 = load(p + 32);
  __m128i x4 = load(p + 48);
  p += 64;
  len -= 64;
  for (; len >= 64; p += 64, len -= 64) {
    x1 = fold(x1, k1k2, load(p));
    x2 = fold(x2, k1k2, load(p + 16));
    x3 = fold(x3, k1k2, load(p + 32));
    x4 = fold(x4, k1k2, load(p + 48));
  }
  x1 = fold(x1, k3k4, x2);
  x1 = fold(x1, k3k4, x3);
  x1 = fold(x1, k3k4, x4);
  for (; len >= 16; p += 16, len -= 16) x1 = fold(x1, k3k4, load(p));

  // 128 -> 64 bits.
  __m128i x = _mm_xor_si128(_mm_srli_si128(x1, 8),
                            _mm_clmulepi64_si128(x1, k3k4, 0x10));
  x = _mm_xor_si128(_mm_srli_si128(x, 4),
                    _mm_clmulepi64_si128(_mm_and_si128(x, low32), k5, 0x00));
  // Barrett reduction to 32 bits.
  __m128i t = _mm_clmulepi64_si128(_mm_and_si128(x, low32), poly, 0x10);
  t = _mm_clmulepi64_si128(_mm_and_si128(t, low32), poly, 0x00);
  return static_cast<std::uint32_t>(_mm_extract_epi32(_mm_xor_si128(x, t), 1));
}

std::uint32_t crc32_update_avx2(std::uint32_t reg, const unsigned char* p,
                                std::size_t len) {
  if (len >= kCrcFoldMinBytes) {
    const std::size_t body = len & ~std::size_t{15};
    reg = crc32_fold_pclmul(reg, p, body);
    p += body;
    len -= body;
  }
  return crc32_update_scalar(reg, p, len);
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
  if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("pclmul"))
    return Tier::kAVX2;
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

std::uint32_t crc32_update(std::uint32_t reg, const void* data,
                           std::size_t len) {
  const auto* p = static_cast<const unsigned char*>(data);
#if defined(POPPROTO_SIMD_X86)
  if (active_tier() == Tier::kAVX2) return crc32_update_avx2(reg, p, len);
#endif
  return crc32_update_scalar(reg, p, len);
}

}  // namespace popproto::simd
