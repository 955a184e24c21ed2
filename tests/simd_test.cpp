// Pins the support/simd.hpp kernel contract: every dispatch tier returns
// bit-identical outputs for identical inputs, so replay fidelity never
// depends on which CPU a trajectory happens to run on. Each kernel is
// checked against an inline scalar reference on randomized inputs, then the
// whole suite of comparisons is repeated with POPPROTO_FORCE_SCALAR pinned
// (the in-process A/B the CI no-AVX2 job mirrors at build level).
#include "support/simd.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <limits>
#include <vector>

#include "core/pair_sampler.hpp"
#include "support/rng.hpp"

namespace popproto {
namespace {

// Scalar references, written independently of src/support/simd.cpp.
std::uint64_t ref_mix64(std::uint64_t z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}
constexpr std::uint64_t kGolden = 0x9e3779b97f4a7c15ull;

// RAII environment pin for POPPROTO_FORCE_SCALAR; re-resolves the dispatch
// tier on both edges so kernels called inside the scope run the scalar path.
class ForceScalarScope {
 public:
  ForceScalarScope() {
    ::setenv("POPPROTO_FORCE_SCALAR", "1", 1);
    simd::refresh_tier_from_env();
    EXPECT_EQ(simd::active_tier(), simd::Tier::kScalar);
  }
  ~ForceScalarScope() {
    ::unsetenv("POPPROTO_FORCE_SCALAR");
    simd::refresh_tier_from_env();
  }
};

TEST(SimdDispatch, TierIsResolvedAndNamed) {
  const simd::Tier t = simd::active_tier();
  EXPECT_LE(static_cast<int>(t), static_cast<int>(simd::compiled_tier()));
  EXPECT_TRUE(t == simd::Tier::kScalar || t == simd::Tier::kSSE2 ||
              t == simd::Tier::kAVX2);
  EXPECT_STREQ(simd::tier_name(simd::Tier::kScalar), "scalar");
  EXPECT_STREQ(simd::tier_name(simd::Tier::kSSE2), "sse2");
  EXPECT_STREQ(simd::tier_name(simd::Tier::kAVX2), "avx2");
}

TEST(SimdDispatch, ForceScalarKnobPinsAndReleases) {
  // Normalize first: the suite itself may be running under the knob (the CI
  // scalar-fallback job does exactly that), and the scope below unsets it.
  ::unsetenv("POPPROTO_FORCE_SCALAR");
  simd::refresh_tier_from_env();
  const simd::Tier native = simd::active_tier();
  {
    ForceScalarScope scalar;
    EXPECT_EQ(simd::active_tier(), simd::Tier::kScalar);
  }
  EXPECT_EQ(simd::active_tier(), native);
}

// splitmix_fill must reproduce the sequential splitmix64 walk exactly —
// values AND the advanced counter — at every length (vector body + scalar
// tail boundaries included).
TEST(SimdKernels, SplitmixFillMatchesSequentialWalk) {
  for (std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{3},
                        std::size_t{4}, std::size_t{5}, std::size_t{8},
                        std::size_t{17}, std::size_t{1000}}) {
    std::uint64_t seq_state = 0x123456789abcdef0ull + n;
    std::vector<std::uint64_t> want(n);
    for (auto& w : want) w = splitmix64(seq_state);

    std::vector<std::uint64_t> got(n);
    const std::uint64_t end =
        simd::splitmix_fill(0x123456789abcdef0ull + n, got.data(), n);
    EXPECT_EQ(end, seq_state) << "advanced counter diverged at n=" << n;
    EXPECT_EQ(got, want) << "fill diverged at n=" << n;
  }
}

TEST(SimdKernels, U01MatchesRngUniformPerWord) {
  Rng rng(42);
  std::vector<std::uint64_t> words(257);
  for (auto& w : words) w = rng();
  words[0] = 0;
  words[1] = ~0ull;  // endpoint words: 0.0 and the largest double below 1
  std::vector<double> got(words.size());
  simd::u01_from_words(words.data(), got.data(), words.size());
  for (std::size_t i = 0; i < words.size(); ++i) {
    const double want = static_cast<double>(words[i] >> 11) * 0x1.0p-53;
    EXPECT_EQ(got[i], want) << "lane " << i;
    EXPECT_GE(got[i], 0.0);
    EXPECT_LT(got[i], 1.0);
  }
}

TEST(SimdKernels, MaskBelowBoundsMatchesScalarComparison) {
  Rng rng(7);
  // A bounds table with the shapes the transition cache produces: ordinary
  // breakpoints in (0, 1), exact 0 (pure no-op pairs), and +inf (unbuilt).
  std::vector<double> bounds(512);
  for (auto& b : bounds) {
    const double r = rng.uniform();
    b = r < 0.1 ? 0.0
                : (r < 0.2 ? std::numeric_limits<double>::infinity()
                           : rng.uniform());
  }
  for (std::size_t n : {std::size_t{1}, std::size_t{2}, std::size_t{4},
                        std::size_t{5}, std::size_t{16}, std::size_t{33},
                        std::size_t{63}, std::size_t{64}}) {
    std::vector<std::uint64_t> off(n);
    std::vector<double> u(n);
    for (std::size_t j = 0; j < n; ++j) {
      off[j] = rng.below(bounds.size());
      // Mix boundary-equal draws in: u == bound must read as NOT below.
      u[j] = rng.chance(0.25) ? bounds[off[j]] : rng.uniform();
    }
    std::uint64_t want = 0;
    for (std::size_t j = 0; j < n; ++j)
      if (u[j] < bounds[off[j]]) want |= std::uint64_t{1} << j;
    EXPECT_EQ(simd::mask_below_bounds(bounds.data(), off.data(), u.data(), n),
              want)
        << "n=" << n;
  }
}

TEST(SimdKernels, LogFactorialFillMatchesPairSamplerScalar) {
  Rng rng(11);
  std::vector<std::uint64_t> k;
  // Straddle the table/Stirling boundary and span population-scale args.
  for (std::uint64_t v : {0ull, 1ull, 2ull, 2046ull, 2047ull, 2048ull,
                          2049ull, 16382ull, 16383ull, 16384ull, 16385ull,
                          100000ull, (1ull << 30), (1ull << 44)})
    k.push_back(v);
  for (int i = 0; i < 200; ++i) k.push_back(rng.below(1ull << 40));
  std::vector<double> got(k.size());
  log_factorial_batch(k.data(), got.data(), k.size());
  for (std::size_t i = 0; i < k.size(); ++i) {
    const double want = log_factorial(k[i]);
    // Bitwise, not approximate: the batch is a drop-in for the scalar calls
    // inside exact samplers, where any ULP drift changes accept/reject.
    EXPECT_EQ(got[i], want) << "k=" << k[i];
  }
}

// The cross-check the dispatch contract promises: identical outputs from the
// native tier and the forced-scalar tier on the same inputs. On AVX2 hosts
// this is a true vector-vs-scalar comparison; on narrower hosts it is a
// (vacuous but harmless) scalar-vs-scalar run.
TEST(SimdKernels, NativeTierMatchesForcedScalarBitwise) {
  Rng rng(1234);
  constexpr std::size_t kN = 777;
  std::vector<std::uint64_t> words(kN), off(kN % 64 + 1), karg(kN);
  std::vector<double> u(off.size()), bounds(256);
  for (auto& w : words) w = rng();
  for (auto& b : bounds) b = rng.uniform();
  for (std::size_t j = 0; j < off.size(); ++j) {
    off[j] = rng.below(bounds.size());
    u[j] = rng.uniform();
  }
  for (auto& kk : karg) kk = rng.below(1ull << 40);

  std::vector<std::uint64_t> fill_native(kN);
  const std::uint64_t fill_state =
      simd::splitmix_fill(99, fill_native.data(), kN);
  std::vector<double> u01_native(kN), lf_native(kN);
  simd::u01_from_words(words.data(), u01_native.data(), kN);
  const std::uint64_t mask_native =
      simd::mask_below_bounds(bounds.data(), off.data(), u.data(), off.size());
  log_factorial_batch(karg.data(), lf_native.data(), kN);

  ForceScalarScope scalar;
  std::vector<std::uint64_t> fill_scalar(kN);
  EXPECT_EQ(simd::splitmix_fill(99, fill_scalar.data(), kN), fill_state);
  EXPECT_EQ(fill_scalar, fill_native);
  std::vector<double> u01_scalar(kN), lf_scalar(kN);
  simd::u01_from_words(words.data(), u01_scalar.data(), kN);
  EXPECT_EQ(u01_scalar, u01_native);
  EXPECT_EQ(
      simd::mask_below_bounds(bounds.data(), off.data(), u.data(), off.size()),
      mask_native);
  log_factorial_batch(karg.data(), lf_scalar.data(), kN);
  EXPECT_EQ(lf_scalar, lf_native);
}

TEST(CounterStreamTest, MatchesSequentialSplitmixAndRefMix) {
  CounterStream cs(555);
  std::uint64_t seq = 555;
  for (int i = 0; i < 100; ++i) EXPECT_EQ(cs(), splitmix64(seq));
  EXPECT_EQ(cs.state(), seq);

  // fill() continues the same sequence...
  std::vector<std::uint64_t> bulk(1000);
  cs.fill(bulk.data(), bulk.size());
  for (const std::uint64_t w : bulk) EXPECT_EQ(w, splitmix64(seq));
  EXPECT_EQ(cs.state(), seq);
  // ...and each value is the published counter-based function, so the
  // sequence is pinned against the reference mix, not just self-consistent.
  std::uint64_t ctr = 555;
  EXPECT_EQ(bulk[0], ref_mix64(ctr + static_cast<std::uint64_t>(101) * kGolden));
}

TEST(BulkDrawsTest, PrimitivesMatchUnbufferedRng) {
  Rng raw(2024);
  Rng buffered_rng(2024);
  BulkDraws draws;
  // Interleave every primitive; the buffered trajectory must match the
  // unbuffered one draw for draw across refill boundaries.
  for (int i = 0; i < 5000; ++i) {
    switch (i % 4) {
      case 0:
        ASSERT_EQ(draws.next(buffered_rng), raw());
        break;
      case 1:
        ASSERT_EQ(draws.uniform(buffered_rng), raw.uniform());
        break;
      case 2:
        ASSERT_EQ(draws.below(buffered_rng, 3 + i % 97),
                  raw.below(3 + i % 97));
        break;
      default:
        ASSERT_EQ(draws.distinct_pair(buffered_rng, 10 + i % 50),
                  raw.distinct_pair(10 + i % 50));
    }
  }
  // logical() reports the as-if-sequential position mid-buffer...
  ASSERT_GT(draws.pending(), 0u);
  EXPECT_EQ(draws.logical(buffered_rng), raw)
      << rng_state_hex(draws.logical(buffered_rng)) << " vs "
      << rng_state_hex(raw);
  // ...and flush() rewinds the raw generator to it.
  draws.flush(buffered_rng);
  EXPECT_EQ(buffered_rng, raw);
  EXPECT_EQ(draws.pending(), 0u);
  EXPECT_EQ(draws.next(buffered_rng), raw());
}

TEST(BulkDrawsTest, FillBelowMatchesPerDrawLoop) {
  Rng a(99), b(99);
  std::vector<std::uint64_t> got(4096);
  a.fill_below(17, got.data(), got.size());
  for (const std::uint64_t v : got) {
    EXPECT_EQ(v, b.below(17));
    EXPECT_LT(v, 17u);
  }
  EXPECT_EQ(a, b) << "fill_below consumed a different word count";
}

// Chi-square goodness of fit on the batched bounded-uniform path: the
// buffered Lemire draws must stay uniform over [0, bound) (a biased
// threshold or half-word mixup would show up here long before a protocol
// test notices).
TEST(BulkDrawsTest, BatchedBoundedUniformPassesChiSquare) {
  constexpr std::uint64_t kBound = 64;
  constexpr std::uint64_t kDraws = 64 * 2000;
  Rng rng(31337);
  BulkDraws draws;
  std::vector<std::uint64_t> counts(kBound, 0);
  for (std::uint64_t i = 0; i < kDraws; ++i)
    ++counts[draws.below(rng, kBound)];
  const double expected = static_cast<double>(kDraws) / kBound;
  double chi2 = 0.0;
  for (const std::uint64_t c : counts) {
    const double d = static_cast<double>(c) - expected;
    chi2 += d * d / expected;
  }
  // 63 degrees of freedom: mean 63, sd ~11.2. 120 is ~5 sd — a fixed seed
  // either passes forever or flags a real distribution bug.
  EXPECT_LT(chi2, 120.0);
}

}  // namespace
}  // namespace popproto
