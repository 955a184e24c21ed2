#include <gtest/gtest.h>

#include <cmath>
#include <tuple>

#include "lang/runtime.hpp"
#include "protocols/majority.hpp"

namespace popproto {
namespace {

/// (n, |A|, |B|) — covers gap 1, sqrt-gap, constant-fraction gap, both
/// directions, and populations with many blank agents.
using MajorityCase = std::tuple<std::size_t, std::size_t, std::size_t>;

class MajoritySweep : public ::testing::TestWithParam<MajorityCase> {};

TEST_P(MajoritySweep, ComputesCorrectAnswer) {
  const auto [n, count_a, count_b] = GetParam();
  auto vars = make_var_space();
  const Program p = make_majority_program(vars);
  RuntimeOptions opts;
  opts.c = 2.5;
  opts.seed = 1000 + n + count_a;
  FrameworkRuntime rt(p, majority_inputs(*vars, n, count_a, count_b), opts);
  const bool a_wins = count_a > count_b;
  const auto t = rt.run_until(
      [&](const SimBackend& pop) {
        return majority_output_is(pop, *vars, a_wins);
      },
      8);
  ASSERT_TRUE(t.has_value())
      << "n=" << n << " |A|=" << count_a << " |B|=" << count_b;
}

INSTANTIATE_TEST_SUITE_P(
    GapsAndSizes, MajoritySweep,
    ::testing::Values(
        MajorityCase{256, 129, 127},    // gap 1 (the hard case)
        MajorityCase{256, 127, 129},    // gap 1, B wins
        MajorityCase{1024, 513, 511},   // gap 1 at larger n
        MajorityCase{1024, 544, 480},   // sqrt-ish gap
        MajorityCase{1024, 768, 256},   // constant-fraction gap
        MajorityCase{1024, 100, 99},    // mostly blank population
        MajorityCase{4096, 2049, 2047},
        MajorityCase{4096, 40, 24}));

TEST(Majority, OutputStableAcrossFurtherIterations) {
  auto vars = make_var_space();
  const Program p = make_majority_program(vars);
  RuntimeOptions opts;
  opts.c = 2.5;
  opts.seed = 3;
  FrameworkRuntime rt(p, majority_inputs(*vars, 512, 300, 212), opts);
  ASSERT_TRUE(rt.run_until(
      [&](const SimBackend& pop) {
        return majority_output_is(pop, *vars, true);
      },
      8));
  // Safe-use constraint (2) of §3: re-running the program must not disturb
  // a valid output.
  for (int i = 0; i < 3; ++i) {
    rt.run_iteration();
    ASSERT_TRUE(majority_output_is(rt.backend(), *vars, true));
  }
}

TEST(Majority, InputsAreNeverModified) {
  // Safe-use constraint (1) of §3: the w.h.p. program reads but never
  // writes the input variables.
  auto vars = make_var_space();
  const Program p = make_majority_program(vars);
  RuntimeOptions opts;
  opts.c = 2.5;
  opts.seed = 5;
  FrameworkRuntime rt(p, majority_inputs(*vars, 256, 130, 126), opts);
  const VarId A = *vars->find(kMajInputA);
  const VarId B = *vars->find(kMajInputB);
  for (int i = 0; i < 3; ++i) {
    rt.run_iteration();
    ASSERT_EQ(rt.backend().count_matching(BoolExpr::var(A)), 130u);
    ASSERT_EQ(rt.backend().count_matching(BoolExpr::var(B)), 126u);
  }
}

TEST(Majority, ConvergesFromFirstGoodIteration) {
  // One good iteration should already deliver the answer w.h.p. (the inner
  // loop performs the full cancel/duplicate amplification).
  auto vars = make_var_space();
  const Program p = make_majority_program(vars);
  RuntimeOptions opts;
  opts.c = 2.5;
  opts.seed = 7;
  FrameworkRuntime rt(p, majority_inputs(*vars, 1024, 513, 511), opts);
  rt.run_iteration();
  EXPECT_TRUE(majority_output_is(rt.backend(), *vars, true));
}

TEST(Majority, SurvivesStartupChaos) {
  auto vars = make_var_space();
  const Program p = make_majority_program(vars);
  RuntimeOptions opts;
  opts.c = 2.5;
  opts.seed = 9;
  opts.startup_chaos_rounds = 60.0;
  FrameworkRuntime rt(p, majority_inputs(*vars, 512, 200, 255), opts);
  const auto t = rt.run_until(
      [&](const SimBackend& pop) {
        return majority_output_is(pop, *vars, false);
      },
      8);
  ASSERT_TRUE(t.has_value());
}

TEST(Majority, RoundsAreCubicInLogN) {
  // Thm 3.2: O(log^3 n) rounds (inner loop: Θ(log n) phases of Θ(log n)
  // rounds, iterations: O(log n) but typically one).
  auto vars = make_var_space();
  const Program p = make_majority_program(vars);
  RuntimeOptions opts;
  opts.c = 2.5;
  opts.seed = 11;
  const std::size_t n = 2048;
  FrameworkRuntime rt(p, majority_inputs(*vars, n, 1025, 1023), opts);
  const auto t = rt.run_until(
      [&](const SimBackend& pop) {
        return majority_output_is(pop, *vars, true);
      },
      6);
  ASSERT_TRUE(t.has_value());
  const double ln3 = std::pow(std::log(static_cast<double>(n)), 3.0);
  EXPECT_LT(*t, 60.0 * ln3);
}

}  // namespace
}  // namespace popproto
