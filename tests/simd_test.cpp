// Pins the support/simd.hpp kernel contract: every dispatch tier returns
// bit-identical outputs for identical inputs, so snapshot bytes never depend
// on which CPU they were written on. The CRC fold is checked against
// slicing-by-8, the body POPPROTO_FORCE_SCALAR pins (the in-process A/B the
// CI no-AVX2 job mirrors at build level).
#include "support/simd.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
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
