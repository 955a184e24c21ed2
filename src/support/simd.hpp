// SIMD dispatch shim for the hot-path kernel (DESIGN.md §13).
//
// The kernel here has a scalar reference implementation and (on x86-64) an
// AVX2 variant compiled with a per-function target attribute, so the
// library builds with a plain -march=x86-64 baseline and still uses the
// wide units when the running CPU has them. Dispatch is resolved once, at
// first use, from compile-time capability + runtime cpuid probing; the
// POPPROTO_FORCE_SCALAR=1 environment knob (docs/TUNING.md) pins the
// scalar tier for A/B measurement and fallback testing.
//
// Contract: for identical inputs, every tier produces bit-identical outputs
// (the vector variant reassociates nothing — it evaluates the same
// expression per lane). Replay and snapshot fidelity therefore do not
// depend on the tier a host happens to dispatch to; tests/simd_test.cpp
// pins this lane-for-lane.
#pragma once

#include <cstddef>
#include <cstdint>

namespace popproto::simd {

/// Instruction-set tiers, ordered by width. kAVX2 requires runtime
/// support; every other host runs the scalar body. The values are stable:
/// bench records stamp them as `simd_tier`.
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

// -- Kernels ----------------------------------------------------------------
// Plain pointers (callers own layout/alignment; none required); dispatches
// internally on active_tier().

/// Pair-table prescan for TransitionCache::sample_indexed (the batch
/// engines' matching loops): bit j of the result is set when
/// u[j] < bounds[off[j]] — the draw may change state (or the pair is
/// unbuilt, bound = +inf) and must take the scalar slow path. Clear bits
/// are proven no-ops: the dominant case, resolved here by one gathered
/// load per lane instead of a call per pair. n <= 64.
std::uint64_t mask_below_bounds(const double* bounds, const std::uint64_t* off,
                                const double* u, std::size_t n);

}  // namespace popproto::simd
