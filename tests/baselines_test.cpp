#include <gtest/gtest.h>

#include <cmath>

#include "core/count_engine.hpp"
#include "core/engine.hpp"
#include "protocols/baselines.hpp"

namespace popproto {
namespace {

TEST(ApproxMajority, CorrectWithLargeGap) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    auto vars = make_var_space();
    const Protocol p = make_approximate_majority_protocol(vars);
    const VarId a = *vars->find("BA");
    const VarId b = *vars->find("BB");
    const std::uint64_t n = 4096;
    // Gap n/4 >> sqrt(n log n).
    CountEngine eng(p, {{var_bit(a), n / 2 + n / 8}, {var_bit(b), n / 2 - n / 8}},
                    seed);
    const auto t = eng.run_until(
        [&](const SimBackend& e) {
          return e.count_matching(BoolExpr::var(a)) == n;
        },
        400.0);
    ASSERT_TRUE(t.has_value()) << "seed " << seed;
    EXPECT_LT(*t, 15 * std::log(static_cast<double>(n)));
  }
}

TEST(ApproxMajority, ReachesConsensusEvenFromTie) {
  // From a tie it still converges (to an arbitrary side) in O(log n).
  auto vars = make_var_space();
  const Protocol p = make_approximate_majority_protocol(vars);
  const VarId a = *vars->find("BA");
  const VarId b = *vars->find("BB");
  CountEngine eng(p, {{var_bit(a), 2048}, {var_bit(b), 2048}}, 3);
  const auto t = eng.run_until(
      [&](const SimBackend& e) {
        return e.count_matching(BoolExpr::var(a)) == 4096 ||
               e.count_matching(BoolExpr::var(b)) == 4096;
      },
      600.0);
  ASSERT_TRUE(t.has_value());
}

TEST(ApproxMajority, UnreliableAtGapOne) {
  // The paper's point: 3-state approximate majority needs a polynomial gap.
  // At gap 1 the minority should win a non-trivial fraction of runs.
  int wrong = 0;
  const int trials = 40;
  for (int s = 0; s < trials; ++s) {
    auto vars = make_var_space();
    const Protocol p = make_approximate_majority_protocol(vars);
    const VarId a = *vars->find("BA");
    const VarId b = *vars->find("BB");
    CountEngine eng(p, {{var_bit(a), 129}, {var_bit(b), 128}},
                    static_cast<std::uint64_t>(s) + 100);
    eng.run_until(
        [&](const SimBackend& e) {
          return e.count_matching(BoolExpr::var(a)) == 257 ||
                 e.count_matching(BoolExpr::var(b)) == 257;
        },
        2000.0);
    if (eng.count_matching(BoolExpr::var(b)) == 257) ++wrong;
  }
  EXPECT_GT(wrong, 5);   // frequently wrong...
  EXPECT_LT(wrong, 35);  // ...but not systematically inverted
}

TEST(Dv12, StrongDifferenceIsInvariant) {
  auto vars = make_var_space();
  const Protocol p = make_dv12_majority_protocol(vars);
  const VarId ma = *vars->find("MA");
  const VarId mb = *vars->find("MB");
  const VarId st = *vars->find("STRONG");
  CountEngine eng(p, {{var_bit(ma) | var_bit(st), 150},
                      {var_bit(mb) | var_bit(st), 106}},
                  7);
  const BoolExpr strongA = BoolExpr::var(ma) && BoolExpr::var(st);
  const BoolExpr strongB = BoolExpr::var(mb) && BoolExpr::var(st);
  for (int i = 0; i < 30; ++i) {
    eng.run_rounds(5.0);
    const auto sa = eng.count_matching(strongA);
    const auto sb = eng.count_matching(strongB);
    ASSERT_EQ(sa - sb, 44u);
  }
}

TEST(Dv12, ConvergenceIsSuperlinearInN) {
  // Θ(n log n) baseline: time per 4x size step grows by > 3x (ours would
  // grow by ~1.2x). Gap 2 forces the slow annihilation tail.
  auto time_for = [](std::uint64_t n) {
    auto vars = make_var_space();
    const Protocol p = make_dv12_majority_protocol(vars);
    const VarId ma = *vars->find("MA");
    const VarId mb = *vars->find("MB");
    const VarId st = *vars->find("STRONG");
    CountEngine eng(p, {{var_bit(ma) | var_bit(st), n / 2 + 1},
                        {var_bit(mb) | var_bit(st), n / 2 - 1}},
                    11);
    return *eng.run_until(
        [&](const SimBackend& e) {
          return e.count_matching(BoolExpr::var(ma)) == n;
        },
        1e9);
  };
  const double t1 = time_for(256);
  const double t2 = time_for(4096);
  EXPECT_GT(t2 / t1, 6.0);
}

TEST(Fratricide, ExactlyOneLeaderSurvives) {
  auto vars = make_var_space();
  const Protocol p = make_fratricide_protocol(vars);
  const VarId l = *vars->find("L");
  CountEngine eng(p, {{var_bit(l), 10000}}, 13);
  const auto t = eng.run_until(
      [&](const SimBackend& e) {
        return e.count_matching(BoolExpr::var(l)) == 1;
      },
      1e8);
  ASSERT_TRUE(t.has_value());
  // Θ(n) convergence.
  EXPECT_GT(*t, 2000.0);
  EXPECT_LT(*t, 100000.0);
  eng.run_rounds(1000.0);
  EXPECT_EQ(eng.count_matching(BoolExpr::var(l)), 1u);
}

TEST(Fratricide, LinearScaling) {
  // E[T] is about n - 2 rounds, but T/n is a sum of exponentials with sd
  // about 0.54, so one run per size says little: compare the mean hitting
  // times of 32 seeds per size.
  auto mean_time_for = [](std::uint64_t n) {
    auto vars = make_var_space();
    const Protocol p = make_fratricide_protocol(vars);
    const VarId l = *vars->find("L");
    constexpr int kSeeds = 32;
    double sum = 0.0;
    for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
      CountEngine eng(p, {{var_bit(l), n}}, seed);
      sum += *eng.run_until(
          [&](const SimBackend& e) {
            return e.count_matching(BoolExpr::var(l)) == 1;
          },
          1e9);
    }
    return sum / kSeeds;
  };
  const double t1 = mean_time_for(1 << 10);
  const double t2 = mean_time_for(1 << 14);
  EXPECT_GT(t2 / t1, 8.0);  // Θ(n): 16x
  EXPECT_LT(t2 / t1, 32.0);
}

TEST(SyntheticCoin, BitsApproachHalfAndMix) {
  auto vars = make_var_space();
  const Protocol p = make_synthetic_coin_protocol(vars);
  const VarId c = *vars->find("COIN");
  const std::size_t n = 1024;
  // Biased start: only one agent holds a set bit.
  std::vector<State> init(n, 0);
  init[0] = var_bit(c);
  Engine eng(p, std::move(init), 19);
  eng.run_rounds(20 * std::log(static_cast<double>(n)));
  const double frac =
      static_cast<double>(eng.count_matching(BoolExpr::var(c))) /
      static_cast<double>(n);
  EXPECT_GT(frac, 0.25);
  EXPECT_LT(frac, 0.75);
}

TEST(SyntheticCoin, AllZeroIsAbsorbing) {
  // XOR mixing cannot create entropy from nothing: the all-zero start stays
  // all-zero (which is why [AAE+17] seed from interaction parity — our
  // protocols use the FilteredCoin construction instead).
  auto vars = make_var_space();
  const Protocol p = make_synthetic_coin_protocol(vars);
  const VarId c = *vars->find("COIN");
  Engine eng(p, std::vector<State>(128, 0), 23);
  eng.run_rounds(100.0);
  EXPECT_EQ(eng.count_matching(BoolExpr::var(c)), 0u);
}

}  // namespace
}  // namespace popproto
