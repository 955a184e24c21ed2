#include <gtest/gtest.h>

#include <cmath>

#include "clocks/phase_clock.hpp"
#include "kernel_clock.hpp"

namespace popproto {
namespace {

TEST(Believer, AdvancesOnlyAfterKConsecutive) {
  ClockLevelParams prm;
  prm.believer_k = 3;
  ClockAgent a;  // believed = 0, awaits species 1
  EXPECT_FALSE(believer_observe(a, 1, prm));
  EXPECT_FALSE(believer_observe(a, 1, prm));
  EXPECT_EQ(a.believed, 0);
  EXPECT_FALSE(believer_observe(a, 1, prm));  // third consecutive: advance
  EXPECT_EQ(a.believed, 1);
  EXPECT_EQ(a.streak, 0);
  EXPECT_EQ(a.digit, 0);  // no wrap yet
}

TEST(Believer, StreakResetsOnMiss) {
  ClockLevelParams prm;
  prm.believer_k = 3;
  ClockAgent a;
  believer_observe(a, 1, prm);
  believer_observe(a, 1, prm);
  believer_observe(a, 0, prm);  // own believed species: reset
  EXPECT_EQ(a.streak, 0);
  believer_observe(a, 1, prm);
  believer_observe(a, 1, prm);
  EXPECT_EQ(a.believed, 0);  // still needs the third
}

TEST(Believer, ControlPartnerBreaksStreak) {
  ClockLevelParams prm;
  prm.believer_k = 2;
  ClockAgent a;
  believer_observe(a, 1, prm);
  believer_observe(a, -1, prm);  // X partner
  EXPECT_EQ(a.streak, 0);
}

TEST(Believer, PreviousDominantNeverAdvances) {
  // Species believed+2 (the decaying previous dominant) must not build a
  // streak — that was the failure mode of naive catch-up designs.
  ClockLevelParams prm;
  prm.believer_k = 2;
  ClockAgent a;  // believed 0, awaiting 1; species 2 is "previous"
  for (int i = 0; i < 10; ++i) EXPECT_FALSE(believer_observe(a, 2, prm));
  EXPECT_EQ(a.believed, 0);
}

TEST(Believer, DigitTicksOnWrap) {
  ClockLevelParams prm;
  prm.believer_k = 1;
  prm.module = 4;
  ClockAgent a;
  EXPECT_FALSE(believer_observe(a, 1, prm));
  EXPECT_FALSE(believer_observe(a, 2, prm));
  EXPECT_TRUE(believer_observe(a, 0, prm));  // 2 -> 0 wrap: tick
  EXPECT_EQ(a.digit, 1);
  // Three more phases: digit 2.
  believer_observe(a, 1, prm);
  believer_observe(a, 2, prm);
  EXPECT_TRUE(believer_observe(a, 0, prm));
  EXPECT_EQ(a.digit, 2);
}

TEST(PhaseAdopt, PullsStragglersForward) {
  ClockLevelParams prm;
  ClockAgent behind;  // digit 0, phase 0
  ClockAgent ahead;
  ahead.digit = 1;
  ahead.believed = 1;
  EXPECT_TRUE(phase_adopt(behind, ahead, prm));
  EXPECT_EQ(behind.digit, 1);
  EXPECT_EQ(behind.believed, 1);
}

TEST(PhaseAdopt, NeverPullsBackward) {
  ClockLevelParams prm;
  ClockAgent ahead;
  ahead.digit = 2;
  ClockAgent behind;
  behind.digit = 1;
  EXPECT_FALSE(phase_adopt(ahead, behind, prm));
  EXPECT_EQ(ahead.digit, 2);
}

TEST(PhaseAdopt, IgnoresFarHalfOfCircle) {
  ClockLevelParams prm;
  prm.module = 8;  // composite cycle length 24
  ClockAgent self;
  self.digit = 0;
  ClockAgent other;
  other.digit = 6;  // 18 composite steps ahead = 6 behind on the circle
  EXPECT_FALSE(phase_adopt(self, other, prm));
}

TEST(PhaseAdopt, SamePhaseNoop) {
  ClockLevelParams prm;
  ClockAgent a, b;
  a.digit = b.digit = 3;
  a.believed = b.believed = 2;
  EXPECT_FALSE(phase_adopt(a, b, prm));
}

TEST(CircularHelpers, Distance) {
  EXPECT_EQ(circular_distance(1, 7, 8), 2);
  EXPECT_EQ(circular_distance(7, 1, 8), 2);
  EXPECT_EQ(circular_distance(3, 3, 8), 0);
  EXPECT_EQ(circular_distance(0, 4, 8), 4);
}

TEST(CircularHelpers, LaterPicksSuccessor) {
  EXPECT_EQ(circular_later(7, 0, 8), 0);  // 0 follows 7
  EXPECT_EQ(circular_later(0, 7, 8), 0);
  EXPECT_EQ(circular_later(3, 4, 8), 4);
  EXPECT_EQ(circular_later(5, 5, 8), 5);
}

TEST(KernelClock, TicksAtLogarithmicIntervals) {
  const std::size_t n = 20000;
  KernelClockRun sim(n, 20, 7);
  sim.run_rounds(150.0);
  const std::size_t before = sim.observed_tick_times().size();
  sim.run_rounds(400.0);
  const std::size_t ticks = sim.observed_tick_times().size() - before;
  ASSERT_GE(ticks, 4u);
  const double interval = 400.0 / static_cast<double>(ticks);
  const double ln_n = std::log(static_cast<double>(n));
  EXPECT_GT(interval, ln_n);        // not faster than one oscillation
  EXPECT_LT(interval, 10.0 * ln_n); // not slower than O(log n)
}

TEST(KernelClock, PopulationStaysSynchronized) {
  // Thm 5.2: during correct operation all agents agree on the digit up to
  // the tolerated adjacent split.
  KernelClockRun sim(10000, 21, 11);
  sim.run_rounds(200.0);
  int max_spread = 0;
  while (sim.rounds() < 800.0) {
    sim.run_rounds(2.0);
    max_spread = std::max(max_spread, sim.census().digit_spread());
  }
  EXPECT_LE(max_spread, 1);
}

TEST(KernelClock, MeanTicksMatchesObservedAgent) {
  KernelClockRun sim(5000, 17, 13);
  sim.run_rounds(600.0);
  const double per_agent = sim.mean_ticks();
  const double observed =
      static_cast<double>(sim.observed_tick_times().size());
  EXPECT_NEAR(per_agent, observed, std::max(3.0, 0.4 * per_agent));
}

TEST(KernelClock, TickIntervalsConcentrate) {
  KernelClockRun sim(20000, 20, 17);
  sim.run_rounds(900.0);
  const auto& times = sim.observed_tick_times();
  ASSERT_GE(times.size(), 8u);
  // Drop the startup; the remaining intervals should be within 3x of their
  // median (no stalls, no bursts).
  std::vector<double> intervals;
  for (std::size_t i = times.size() / 2; i + 1 < times.size(); ++i)
    intervals.push_back(times[i + 1] - times[i]);
  ASSERT_GE(intervals.size(), 3u);
  std::sort(intervals.begin(), intervals.end());
  const double med = intervals[intervals.size() / 2];
  EXPECT_LT(intervals.back(), 4.0 * med);
}

TEST(KernelClock, CensusCountsCorruptedFields) {
  // A fault plan may write any bits: with m = 52 the digit field holds up to
  // 63, and the believed field holds 3. The census must still count every
  // agent, inside its tables.
  ClockLevelParams prm;
  prm.module = 52;
  KernelClockRun sim(256, 4, 3, prm);
  const State all_ones = ~State{0};
  Rng rng(8);
  sim.engine().mutate_random_agents(
      40, rng, [&](State s, std::uint64_t) { return s | (all_ones << 4); });
  const ClockCensus c = sim.census();
  std::uint64_t digits = 0, phases = 0;
  for (const std::uint64_t k : c.digits) digits += k;
  for (const std::uint64_t k : c.composite) phases += k;
  EXPECT_EQ(digits, 256u);
  EXPECT_EQ(phases, 256u);
}

TEST(KernelClock, LargeXDestroysOscillation) {
  // With #X = n/2 the source noise dominates the oscillator: no species
  // ever reaches near-total dominance, so the clock's ticks are no longer
  // anchored to oscillation phases. This checks that the #X <= n^{1-eps}
  // hypothesis of Thm 5.1/5.2 is doing real work.
  auto max_dominance = [](std::size_t x_count) {
    KernelClockRun sim(8000, x_count, 19);
    sim.run_rounds(150.0);
    const double species_total = static_cast<double>(8000 - x_count);
    double best = 0.0;
    while (sim.rounds() < 500.0) {
      sim.engine().run_rounds(1.0);
      const auto sp = sim.species();
      const double mx = static_cast<double>(std::max({sp[0], sp[1], sp[2]}));
      best = std::max(best, mx / species_total);
    }
    return best;
  };
  EXPECT_GT(max_dominance(8), 0.9);
  EXPECT_LT(max_dominance(4000), 0.75);
}

}  // namespace
}  // namespace popproto
