// Pins the support/simd.hpp kernel contract: every dispatch tier returns
// bit-identical outputs for identical inputs, so replay fidelity never
// depends on which CPU a trajectory happens to run on. The prescan kernel
// is checked against an inline scalar reference on randomized inputs, then
// the comparison is repeated with POPPROTO_FORCE_SCALAR pinned (the
// in-process A/B the CI no-AVX2 job mirrors at build level); the CRC fold
// is checked against slicing-by-8, the body the knob pins.
#include "support/simd.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <limits>
#include <vector>

#include "support/rng.hpp"
#include "support/serialize.hpp"

namespace popproto {
namespace {

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
  EXPECT_TRUE(t == simd::Tier::kScalar || t == simd::Tier::kAVX2);
  EXPECT_STREQ(simd::tier_name(simd::Tier::kScalar), "scalar");
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

// The cross-check the dispatch contract promises: identical outputs from the
// native tier and the forced-scalar tier on the same inputs. On AVX2 hosts
// this is a true vector-vs-scalar comparison; on narrower hosts it is a
// (vacuous but harmless) scalar-vs-scalar run.
TEST(SimdKernels, NativeTierMatchesForcedScalarBitwise) {
  Rng rng(1234);
  // Two AVX2 blocks of four lanes plus a two-lane scalar tail.
  std::vector<std::uint64_t> off(10);
  std::vector<double> u(off.size()), bounds(256);
  for (auto& b : bounds) b = rng.uniform();
  for (std::size_t j = 0; j < off.size(); ++j) {
    off[j] = rng.below(bounds.size());
    u[j] = rng.uniform();
  }

  const std::uint64_t mask_native =
      simd::mask_below_bounds(bounds.data(), off.data(), u.data(), off.size());

  ForceScalarScope scalar;
  EXPECT_EQ(
      simd::mask_below_bounds(bounds.data(), off.data(), u.data(), off.size()),
      mask_native);
}

std::vector<unsigned char> random_bytes(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<unsigned char> buf(n);
  for (auto& byte : buf) byte = static_cast<unsigned char>(rng());
  return buf;
}

// crc32 (support/serialize.hpp) dispatches to the fold on the AVX2 tier and
// to slicing-by-8 under the knob: every length across the fold threshold
// and its 16-byte tails, at every alignment of a 16-byte load.
TEST(SimdKernels, CrcFoldMatchesSlicingBy8AtEveryLengthAndOffset) {
  const std::vector<unsigned char> buf = random_bytes(1024 + 16, 41);
  std::vector<std::uint32_t> native;
  for (std::size_t off = 0; off < 16; ++off)
    for (std::size_t len = 0; len <= 1024; ++len)
      native.push_back(crc32(buf.data() + off, len));

  ForceScalarScope scalar;
  std::size_t k = 0;
  for (std::size_t off = 0; off < 16; ++off)
    for (std::size_t len = 0; len <= 1024; ++len)
      ASSERT_EQ(crc32(buf.data() + off, len), native[k++])
          << "offset " << off << " len " << len;
}

TEST(SimdKernels, CrcFoldMatchesSlicingBy8OnMultiMegabyteBuffers) {
  // Sizes that leave every remainder class of the 64- and 16-byte folds.
  const std::size_t sizes[] = {(std::size_t{2} << 20) + 13,
                               (std::size_t{3} << 20) + 48,
                               (std::size_t{5} << 20) + 7};
  std::vector<std::uint32_t> native;
  for (std::size_t i = 0; i < 3; ++i) {
    const auto buf = random_bytes(sizes[i], 50 + i);
    native.push_back(crc32(buf.data(), buf.size()));
  }
  ForceScalarScope scalar;
  for (std::size_t i = 0; i < 3; ++i) {
    const auto buf = random_bytes(sizes[i], 50 + i);
    EXPECT_EQ(crc32(buf.data(), buf.size()), native[i]) << sizes[i];
  }
}

// crc32_extend continues a checksum across pieces (the snapshot writer's
// gather path): any split of a buffer gives the whole buffer's CRC, on the
// native tier and on slicing-by-8.
TEST(SimdKernels, Crc32ExtendOverRandomSplitsEqualsWholeBuffer) {
  const std::vector<unsigned char> buf = random_bytes((1u << 20) + 5, 61);
  Rng rng(62);
  for (const bool force_scalar : {false, true}) {
    if (force_scalar) ::setenv("POPPROTO_FORCE_SCALAR", "1", 1);
    simd::refresh_tier_from_env();
    const std::uint32_t whole = crc32(buf.data(), buf.size());
    for (int trial = 0; trial < 40; ++trial) {
      // 1-5 cut points, some of them short pieces below the fold threshold.
      std::vector<std::size_t> cuts{0, buf.size()};
      const std::uint64_t pieces = 1 + rng.below(5);
      for (std::uint64_t c = 0; c < pieces; ++c) {
        const std::size_t prev = cuts.back();
        cuts.push_back(rng.chance(0.5)
                           ? rng.below(buf.size() + 1)
                           : prev - std::min<std::size_t>(prev, rng.below(300)));
      }
      std::sort(cuts.begin(), cuts.end());
      std::uint32_t crc = 0;
      for (std::size_t c = 0; c + 1 < cuts.size(); ++c)
        crc = crc32_extend(crc, buf.data() + cuts[c], cuts[c + 1] - cuts[c]);
      ASSERT_EQ(crc, whole) << "trial " << trial << " scalar " << force_scalar;
    }
  }
  ::unsetenv("POPPROTO_FORCE_SCALAR");
  simd::refresh_tier_from_env();
}

}  // namespace
}  // namespace popproto
