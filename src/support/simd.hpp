// SIMD dispatch shim for the snapshot CRC (DESIGN.md §13).
//
// The CRC fold has a scalar reference implementation and (on x86-64) a
// vector variant compiled with a per-function target attribute, so the
// library builds with a plain -march=x86-64 baseline and still uses the
// wide units when the running CPU has them. Dispatch is resolved once, at
// first use, from compile-time capability + runtime cpuid probing; the
// POPPROTO_FORCE_SCALAR=1 environment knob (docs/TUNING.md) pins the
// scalar tier for A/B measurement and fallback testing.
//
// Contract: for identical inputs, every tier produces bit-identical outputs
// (the fold is exact GF(2) arithmetic on the same polynomial). Snapshot
// bytes and replay therefore do not depend on the tier a host happens to
// dispatch to; tests/simd_test.cpp pins this.
#pragma once

#include <cstddef>
#include <cstdint>

namespace popproto::simd {

/// Instruction-set tiers, ordered by width. kAVX2 requires runtime AVX2
/// and PCLMULQDQ support; every other host runs the scalar bodies.
/// perfbench stamps the tier's name on its records as `simd_tier`.
enum class Tier { kScalar = 0, kAVX2 = 2 };

/// The tier kernels dispatch to, resolved once per process: the widest
/// tier the build *and* the running CPU support, clamped to kScalar when
/// POPPROTO_FORCE_SCALAR=1 is set in the environment.
Tier active_tier();

/// Human-readable tier name ("scalar" / "avx2") for bench records.
const char* tier_name(Tier t);

/// Re-read POPPROTO_FORCE_SCALAR and re-probe the CPU, replacing the cached
/// dispatch decision. Test hook (simd_test flips the knob in-process);
/// not thread-safe against concurrent kernel calls.
void refresh_tier_from_env();

// -- Kernel -----------------------------------------------------------------
// Plain pointer (callers own layout/alignment; none required); dispatches
// internally on active_tier().

/// CRC-32 register update (IEEE 802.3, reflected polynomial 0xEDB88320)
/// over `len` bytes; `reg` is the running register, which the caller
/// inverts on entry and exit (support/serialize.hpp crc32_extend). The
/// scalar body is slicing-by-8. The AVX2 tier folds 16-byte lanes with
/// carry-less multiplies (PCLMULQDQ, Gopal et al.) and hands the last
/// 0-15 bytes, and every buffer shorter than 64 bytes, to slicing-by-8.
std::uint32_t crc32_update(std::uint32_t reg, const void* data,
                           std::size_t len);

}  // namespace popproto::simd
