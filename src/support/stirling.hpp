// Stirling's series for log(k!) at large k.
//
// pair_sampler's log_factorial and its collision-run sampler both evaluate
// the series here, so both paths return bit-identical doubles for the same
// argument: the exact samplers compare these values against uniforms, where
// one ULP of drift between two paths would change an accept/reject
// decision.
#pragma once

#include <cmath>
#include <cstdint>

namespace popproto {

/// Tail of Stirling's series for log Gamma(x + 1):
/// 1/(12x) - 1/(360x^3) + 1/(1260x^5). The next term is below 1/(1680x^7).
inline double stirling_series(double x) {
  const double inv = 1.0 / x;
  const double inv2 = inv * inv;
  return inv / 12.0 - inv * inv2 / 360.0 + inv * inv2 * inv2 / 1260.0;
}

/// log(k!) from Stirling's series, k >= 1: error below 1e-11 once k is
/// past a few thousand (callers use a table below that).
inline double log_factorial_stirling(std::uint64_t k) {
  const double x = static_cast<double>(k);
  constexpr double kHalfLog2Pi = 0.9189385332046727;  // log(2 pi) / 2
  return (x + 0.5) * std::log(x) - x + kHalfLog2Pi + stirling_series(x);
}

}  // namespace popproto
