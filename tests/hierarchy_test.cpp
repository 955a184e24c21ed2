#include <gtest/gtest.h>

#include <cmath>

#include "clocks/hierarchy.hpp"

namespace popproto {
namespace {

// A hierarchy under a fixed X set: agents [0, x) are the control agents.
ClockHierarchy with_fixed_x(std::size_t n, std::uint64_t x,
                            const HierarchyParams& hp, std::uint64_t seed) {
  static const Protocol fixed = make_fixed_x_protocol(make_var_space());
  return ClockHierarchy(n, hp, fixed, x_counts(n, x, *fixed.vars()), seed);
}

ClockHierarchy make_two_level(std::size_t n, std::uint64_t seed) {
  HierarchyParams hp;
  hp.levels = 2;
  return with_fixed_x(n, 8, hp, seed);
}

TEST(Hierarchy, RejectsBadModule) {
  HierarchyParams hp;
  hp.levels = 1;
  hp.level.module = 6;  // not divisible by 4
  EXPECT_DEATH(with_fixed_x(100, 2, hp, 1),
               "divisible by 4");
}

TEST(Hierarchy, FractionalRunRoundsKeepTime) {
  // run_rounds carries the fraction of an interaction a call cannot run, so
  // short calls add up to the time they asked for, to one interaction.
  const auto interactions = [](const ClockHierarchy& h) {
    return std::round(h.rounds() * static_cast<double>(h.n()));
  };
  ClockHierarchy a = make_two_level(1000, 3);
  for (int k = 0; k < 1000; ++k) a.run_rounds(0.0015);
  EXPECT_NEAR(interactions(a), 1500.0, 1.0);
  ClockHierarchy b = make_two_level(1000, 4);
  for (int k = 0; k < 100; ++k) b.run_rounds(0.3333);
  EXPECT_NEAR(interactions(b), 33330.0, 1.0);
}

TEST(Hierarchy, SingleLevelTicks) {
  HierarchyParams hp;
  hp.levels = 1;
  ClockHierarchy h = with_fixed_x(4000, 6, hp, 3);
  h.run_rounds(600.0);
  EXPECT_GT(h.total_ticks(1), 4000u);  // > 1 tick per agent on average
}

TEST(Hierarchy, LevelTwoEventuallyTicks) {
  // One level-2 tick takes ~30k rounds at this size (the slowed-scheduler
  // separation); 70k rounds give every agent about two.
  ClockHierarchy h = make_two_level(1500, 5);
  h.run_rounds(70000.0);
  EXPECT_GT(h.total_ticks(2), 2000u);
}

TEST(Hierarchy, RatesAreSeparated) {
  // §5.3: r^(2) >= (alpha ln n) r^(1); with our constants the measured
  // separation is far above 10x.
  ClockHierarchy h = make_two_level(1500, 7);
  h.run_rounds(25000.0);  // warmup for the slowed level
  const auto t1a = h.total_ticks(1);
  const auto t2a = h.total_ticks(2);
  h.run_rounds(50000.0);
  const auto ticks1 = h.total_ticks(1) - t1a;
  const auto ticks2 = h.total_ticks(2) - t2a;
  ASSERT_GT(ticks2, 0u);
  EXPECT_GT(static_cast<double>(ticks1) / static_cast<double>(ticks2), 10.0);
}

TEST(Hierarchy, LevelTwoStaysSynchronized) {
  ClockHierarchy h = make_two_level(1500, 9);
  h.run_rounds(40000.0);
  for (int seg = 0; seg < 10; ++seg) {
    h.run_rounds(3000.0);
    const int m = h.params().level.module;
    // All live level-2 digits within one circular step of each other.
    int max_dist = 0;
    const int ref = h.live_digit(0, 2);
    for (std::size_t i = 1; i < h.n(); ++i)
      max_dist = std::max(max_dist,
                          circular_distance(ref, h.live_digit(i, 2), m));
    ASSERT_LE(max_dist, 1) << "segment " << seg;
  }
}

TEST(Hierarchy, StarCopiesTrackLiveDigits) {
  ClockHierarchy h = make_two_level(1500, 11);
  h.run_rounds(40000.0);
  const int m = h.params().level.module;
  int worst = 0;
  for (int seg = 0; seg < 5; ++seg) {
    h.run_rounds(2000.0);
    for (std::size_t i = 0; i < h.n(); ++i)
      worst = std::max(worst, circular_distance(h.star_digit(i, 2),
                                                h.live_digit(i, 2), m));
  }
  // C* lags the live digit by at most one (§5.3).
  EXPECT_LE(worst, 1);
}

TEST(Hierarchy, SlotDecoding) {
  HierarchyParams hp;
  hp.levels = 1;
  hp.level.module = 16;  // slots at digits 4, 8, 12 for width 3
  ClockHierarchy h = with_fixed_x(100, 2, hp, 13);
  // slot() maps digit d to d/4 when valid; digit 0 and odd digits are ⊥.
  // Drive agent state indirectly: inspect through time, just assert the
  // mapping on whatever digits appear.
  for (int step = 0; step < 20000; ++step) {
    h.step();
    const int d = h.live_digit(0, 1);
    const int s = h.slot(0, 1, 3);
    if (d % 4 != 0 || d == 0) {
      ASSERT_EQ(s, -1);
    } else {
      ASSERT_EQ(s, d / 4);
    }
  }
}

TEST(Hierarchy, TimePathRequiresAllLevels) {
  ClockHierarchy h = make_two_level(300, 15);
  const auto tau = h.time_path(0, {1, 1});
  // Right after construction every digit is 0 => ⊥.
  EXPECT_FALSE(tau.has_value());
}

TEST(Hierarchy, XDriverComposes) {
  // The hierarchy must keep working when the X set is produced by the
  // elimination process instead of being fixed.
  HierarchyParams hp;
  hp.levels = 1;
  auto vars = make_var_space();
  const Protocol elimination = make_x_elimination_protocol(vars);
  ClockHierarchy h(3000, hp, elimination, x_counts(3000, 3000, *vars), 17);
  h.run_rounds(800.0);
  // After #X collapses to a small set, the clock must be ticking.
  std::uint64_t x_count = 0;
  for (std::size_t i = 0; i < h.n(); ++i) x_count += h.is_x(i) ? 1 : 0;
  EXPECT_LE(x_count, 60u);
  const auto t0 = h.total_ticks(1);
  h.run_rounds(400.0);
  EXPECT_GT(h.total_ticks(1), t0);
}

TEST(Hierarchy, DeterministicGivenSeed) {
  ClockHierarchy a = make_two_level(500, 99);
  ClockHierarchy b = make_two_level(500, 99);
  a.run_rounds(500.0);
  b.run_rounds(500.0);
  EXPECT_EQ(a.total_ticks(1), b.total_ticks(1));
  for (std::size_t i = 0; i < 500; ++i)
    ASSERT_EQ(a.live_digit(i, 1), b.live_digit(i, 1));
}

}  // namespace
}  // namespace popproto
