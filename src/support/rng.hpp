// Deterministic, fast pseudo-random number generation.
//
// All stochastic components of the library draw from Rng (xoshiro256**)
// seeded explicitly; experiment harnesses derive per-trial seeds with
// split(). Nothing in the library ever touches global random state, so every
// table in bench/ is reproducible bit-for-bit from its seed.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <utility>

#include "support/check.hpp"

namespace popproto {

/// SplitMix64 step; used for seeding and for deriving independent streams.
std::uint64_t splitmix64(std::uint64_t& state);

/// xoshiro256** generator. Satisfies std::uniform_random_bit_generator.
///
/// The draw primitives (operator(), below, uniform, distinct_pair, ...) are
/// defined inline: they sit on the per-interaction hot path of both engines,
/// where a cross-TU call per draw measurably caps throughput.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ull);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~0ull; }

  result_type operator()() {
    const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
  }

  /// Uniform integer in [0, bound). bound must be > 0. Lemire's unbiased
  /// multiply-shift rejection method.
  std::uint64_t below(std::uint64_t bound) {
    POPPROTO_DCHECK(bound > 0);
    std::uint64_t x = (*this)();
    unsigned __int128 m = static_cast<unsigned __int128>(x) * bound;
    auto low = static_cast<std::uint64_t>(m);
    if (low < bound) [[unlikely]]
      m = below_slow(bound, m);
    return static_cast<std::uint64_t>(m >> 64);
  }

  /// Uniform integer in [lo, hi] inclusive.
  std::uint64_t between(std::uint64_t lo, std::uint64_t hi) {
    POPPROTO_DCHECK(lo <= hi);
    return lo + below(hi - lo + 1);
  }

  /// Uniform double in [0, 1).
  double uniform() {
    return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
  }

  /// Bernoulli trial with success probability p.
  bool chance(double p) {
    if (p <= 0.0) return false;
    if (p >= 1.0) return true;
    return uniform() < p;
  }

  /// Fair coin.
  bool coin() { return ((*this)() >> 63) != 0; }

  /// Geometric: number of failures before the first success, success
  /// probability p in (0, 1]. Returns 0 immediately when p == 1.
  std::uint64_t geometric(double p);

  /// Ordered pair of distinct indices in [0, n); n must be >= 2.
  std::pair<std::uint64_t, std::uint64_t> distinct_pair(std::uint64_t n) {
    POPPROTO_DCHECK(n >= 2);
    const std::uint64_t a = below(n);
    std::uint64_t b = below(n - 1);
    if (b >= a) ++b;
    return {a, b};
  }

  /// Derive an independent generator (stream-split by jumbling state).
  Rng split();

  // -- Stream-state persistence (src/persist/, DESIGN.md §10) ---------------
  /// The full 256-bit generator state. Restoring it with set_state resumes
  /// the stream at the exact draw it was captured at — not a reseed: two
  /// generators with equal state produce identical draw sequences forever.
  std::array<std::uint64_t, 4> state() const { return {s_[0], s_[1], s_[2], s_[3]}; }
  void set_state(const std::array<std::uint64_t, 4>& s) {
    POPPROTO_CHECK_MSG(s[0] || s[1] || s[2] || s[3],
                       "all-zero xoshiro256** state is invalid");
    for (int i = 0; i < 4; ++i) s_[i] = s[i];
  }

  /// Exact stream-state equality: true iff both generators will produce the
  /// same draw sequence from here on. This is the persistence-layer check —
  /// same seed is NOT enough once streams have advanced or been split.
  friend bool operator==(const Rng& a, const Rng& b) {
    return a.s_[0] == b.s_[0] && a.s_[1] == b.s_[1] && a.s_[2] == b.s_[2] &&
           a.s_[3] == b.s_[3];
  }
  friend bool operator!=(const Rng& a, const Rng& b) { return !(a == b); }

 private:
  static std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }
  /// Rejection tail of below(); out of line to keep the common path lean.
  unsigned __int128 below_slow(std::uint64_t bound, unsigned __int128 m);

  std::uint64_t s_[4];
};

/// Hex rendering of a generator's full stream state ("s0:s1:s2:s3"), for
/// test-failure diagnostics alongside operator== checks.
std::string rng_state_hex(const Rng& rng);

}  // namespace popproto
