#include <gtest/gtest.h>

#include "core/engine.hpp"
#include "lang/runtime.hpp"
#include "protocols/semilinear.hpp"

namespace popproto {
namespace {

TEST(PredicateSpec, ThresholdGroundTruth) {
  const PredicateSpec s = threshold_ge({2, -1}, 0);  // 2#A0 >= #A1
  EXPECT_TRUE(s.eval({5, 10}));
  EXPECT_TRUE(s.eval({5, 9}));
  EXPECT_FALSE(s.eval({5, 11}));
  EXPECT_EQ(s.num_inputs(), 2u);
  EXPECT_TRUE(s.fast_path_available());
  EXPECT_FALSE(threshold_ge({1}, 3).fast_path_available());
}

TEST(PredicateSpec, ModGroundTruth) {
  const PredicateSpec s = mod_eq({1}, 3, 1);  // #A0 ≡ 1 (mod 3)
  EXPECT_TRUE(s.eval({1}));
  EXPECT_TRUE(s.eval({4}));
  EXPECT_FALSE(s.eval({3}));
  EXPECT_FALSE(s.fast_path_available());
}

TEST(PredicateSpec, BooleanCombos) {
  const PredicateSpec s =
      p_and(threshold_ge({1, -1}, 0), p_not(mod_eq({1, 0}, 2, 0)));
  // #A0 >= #A1 and #A0 odd.
  EXPECT_TRUE(s.eval({5, 3}));
  EXPECT_FALSE(s.eval({4, 3}));   // even
  EXPECT_FALSE(s.eval({3, 5}));   // smaller
  const PredicateSpec o = p_or(mod_eq({1}, 2, 0), mod_eq({1}, 3, 0));
  EXPECT_TRUE(o.eval({6}));
  EXPECT_TRUE(o.eval({4}));
  EXPECT_TRUE(o.eval({9}));
  EXPECT_FALSE(o.eval({7}));
}

// ---------------------------------------------------------------------------
// Slow blackbox: stable computation (checked over a grid of inputs).
// ---------------------------------------------------------------------------

struct SlowCase {
  PredicateSpec spec;
  std::vector<std::size_t> counts;
  std::size_t n;
};

class SlowBlackboxGrid : public ::testing::TestWithParam<int> {};

std::vector<SlowCase> slow_cases() {
  std::vector<SlowCase> cases;
  // Majority-like threshold: #A0 >= #A1.
  for (std::vector<std::size_t> counts :
       {std::vector<std::size_t>{30, 29}, {29, 30}, {40, 10}, {0, 5}, {5, 0}})
    cases.push_back({threshold_ge({1, -1}, 0), counts, 64});
  // Weighted threshold with constant: 2#A0 - #A1 >= 3.
  for (std::vector<std::size_t> counts :
       {std::vector<std::size_t>{10, 17}, {10, 18}, {2, 1}, {0, 0}})
    cases.push_back({threshold_ge({2, -1}, 3), counts, 64});
  // Mod: #A0 ≡ r (mod 3).
  for (std::size_t a : {0u, 1u, 2u, 3u, 7u, 30u})
    cases.push_back({mod_eq({1}, 3, 1), {a}, 48});
  // Weighted mod: 2#A0 + #A1 ≡ 0 (mod 4).
  for (std::vector<std::size_t> counts :
       {std::vector<std::size_t>{3, 2}, {1, 2}, {4, 4}, {0, 0}})
    cases.push_back({mod_eq({2, 1}, 4, 0), counts, 48});
  // Boolean combination.
  for (std::vector<std::size_t> counts :
       {std::vector<std::size_t>{9, 4}, {8, 4}, {4, 9}})
    cases.push_back(
        {p_and(threshold_ge({1, -1}, 0), mod_eq({1, 0}, 2, 1)), counts, 48});
  return cases;
}

TEST_P(SlowBlackboxGrid, StabilizesToGroundTruth) {
  // Drive the stable-computation rules directly on the core engine: the
  // merging tail (the last two active tokens meeting under rule dilution)
  // is Θ(n · #rules) rounds, so the horizon is sized accordingly.
  const SlowCase c = slow_cases()[static_cast<std::size_t>(GetParam())];
  auto vars = make_var_space();
  const SemilinearProtocol proto = make_slow_semilinear_protocol(vars, c.spec);
  Protocol raw("slow_bb", vars);
  raw.add_thread("SemLinearSlow",
                 proto.program.background_threads()[0]->background_rules);
  Engine eng(raw, proto.inputs(c.n, c.counts),
             40 + static_cast<std::uint64_t>(GetParam()));
  std::vector<std::uint64_t> counts64(c.counts.begin(), c.counts.end());
  const bool expected = c.spec.eval(counts64);
  const BoolExpr agree =
      expected ? proto.slow_output : !proto.slow_output;
  // Stable computation permits non-monotone transients (an intermediate
  // clamp can momentarily announce the wrong side), so we wait out the full
  // stabilization horizon before checking, then confirm the answer holds.
  const double horizon =
      40.0 * static_cast<double>(c.n) * static_cast<double>(raw.num_rules());
  eng.run_rounds(horizon);
  ASSERT_EQ(eng.count_matching(agree), eng.n());
  eng.run_rounds(horizon / 10.0);
  EXPECT_EQ(eng.count_matching(agree), eng.n());
}

INSTANTIATE_TEST_SUITE_P(Grid, SlowBlackboxGrid,
                         ::testing::Range(0, static_cast<int>(
                                                 slow_cases().size())));

// ---------------------------------------------------------------------------
// Exact combiner (Thm 6.4).
// ---------------------------------------------------------------------------

TEST(SemilinearExact, ThresholdWithFastPathConverges) {
  const PredicateSpec spec = threshold_ge({1, -1}, 0);
  auto vars = make_var_space();
  const SemilinearProtocol proto =
      make_semilinear_exact_protocol(vars, spec);
  RuntimeOptions opts;
  opts.c = 2.5;
  opts.seed = 3;
  FrameworkRuntime rt(proto.program, proto.inputs(512, {200, 180}), opts);
  const auto t = rt.run_until(
      [&](const SimBackend& pop) {
        return semilinear_output_is(pop, *vars, true);
      },
      50);
  ASSERT_TRUE(t.has_value());
}

TEST(SemilinearExact, FastPathBeatsSlowStabilization) {
  // With a healthy gap the combined protocol should answer in a couple of
  // iterations — while the slow blackbox still has many active tokens.
  const PredicateSpec spec = threshold_ge({1, -1}, 0);
  auto vars = make_var_space();
  const SemilinearProtocol proto =
      make_semilinear_exact_protocol(vars, spec);
  RuntimeOptions opts;
  opts.c = 2.5;
  opts.seed = 5;
  FrameworkRuntime rt(proto.program, proto.inputs(1024, {400, 300}), opts);
  rt.run_iteration();
  rt.run_iteration();
  EXPECT_TRUE(semilinear_output_is(rt.backend(), *vars, true));
}

TEST(SemilinearExact, WeightedComparisonWithShedding) {
  // 2#A0 >= 3#A1 exercises the shedding pre-phase (multi-unit tokens).
  const PredicateSpec spec = threshold_ge({2, -3}, 0);
  auto vars = make_var_space();
  const SemilinearProtocol proto =
      make_semilinear_exact_protocol(vars, spec);
  RuntimeOptions opts;
  opts.c = 2.5;
  opts.seed = 7;
  // 2*90 = 180 >= 3*50 = 150: true.
  FrameworkRuntime rt(proto.program, proto.inputs(512, {90, 50}), opts);
  const auto t = rt.run_until(
      [&](const SimBackend& pop) {
        return semilinear_output_is(pop, *vars, true);
      },
      50);
  ASSERT_TRUE(t.has_value());
}

TEST(SemilinearExact, WeightedComparisonNegativeCase) {
  const PredicateSpec spec = threshold_ge({2, -3}, 0);
  auto vars = make_var_space();
  const SemilinearProtocol proto =
      make_semilinear_exact_protocol(vars, spec);
  RuntimeOptions opts;
  opts.c = 2.5;
  opts.seed = 9;
  // 2*60 = 120 < 3*50 = 150: false.
  FrameworkRuntime rt(proto.program, proto.inputs(512, {60, 50}), opts);
  const auto t = rt.run_until(
      [&](const SimBackend& pop) {
        return semilinear_output_is(pop, *vars, false);
      },
      50);
  ASSERT_TRUE(t.has_value());
}

TEST(SemilinearExact, GapOneIsEventuallyCorrectDespiteFailures) {
  // Certainty route, as MajorityExactSweep takes it: run until the slow
  // blackbox reads false at every agent and P reads false. Its actives then
  // all hold -1 (an active agent's output is its value's sign), so it reads
  // false forever, the combiner vetoes every write of true, and the answer
  // must hold for ten more iterations on every seed.
  const PredicateSpec spec = threshold_ge({1, -1}, 0);
  for (std::uint64_t seed = 11; seed < 11 + 32; ++seed) {
    auto vars = make_var_space();
    const SemilinearProtocol proto =
        make_semilinear_exact_protocol(vars, spec);
    RuntimeOptions opts;
    opts.c = 2.5;
    opts.seed = seed;
    opts.bad_iteration_rate = 0.3;
    // #A0 = 88, #A1 = 89: answer false by one token.
    FrameworkRuntime rt(proto.program, proto.inputs(200, {88, 89}), opts);
    const auto t = rt.run_until(
        [&](const SimBackend& pop) {
          return pop.count_matching(proto.slow_output) == 0 &&
                 semilinear_output_is(pop, *vars, false);
        },
        2500);
    ASSERT_TRUE(t.has_value()) << "seed " << seed;
    for (int i = 0; i < 10; ++i) {
      rt.run_iteration();
      ASSERT_TRUE(semilinear_output_is(rt.backend(), *vars, false))
          << "seed " << seed;
    }
  }
}

TEST(SemilinearExact, ModPredicateRidesSlowPath) {
  const PredicateSpec spec = mod_eq({1}, 3, 2);
  auto vars = make_var_space();
  const SemilinearProtocol proto =
      make_semilinear_exact_protocol(vars, spec);
  RuntimeOptions opts;
  opts.seed = 13;
  FrameworkRuntime rt(proto.program, proto.inputs(128, {14}), opts);
  const auto t = rt.run_until(
      [&](const SimBackend& pop) {
        return semilinear_output_is(pop, *vars, true);  // 14 ≡ 2 (mod 3)
      },
      600);
  ASSERT_TRUE(t.has_value());
}

TEST(SemilinearProtocolInputs, SeedsValueRegisters) {
  const PredicateSpec spec = threshold_ge({2, -1}, 0);
  auto vars = make_var_space();
  const SemilinearProtocol proto = make_slow_semilinear_protocol(vars, spec);
  const auto states = proto.inputs(10, {3, 4});
  // First three agents carry +2 tokens (active), next four carry -1.
  const VarId act = *vars->find("SLT0_ACT");
  int active = 0;
  for (const State s : states)
    if (var_is_set(s, act)) ++active;
  EXPECT_EQ(active, 7);
}

}  // namespace
}  // namespace popproto
