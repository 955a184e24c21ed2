#include <gtest/gtest.h>

#include <numeric>

#include "lang/runtime.hpp"
#include "protocols/plurality.hpp"

namespace popproto {
namespace {

using PluralityCase = std::pair<std::size_t, std::vector<std::size_t>>;

class PluralitySweep : public ::testing::TestWithParam<PluralityCase> {};

TEST_P(PluralitySweep, IdentifiesLargestColor) {
  const auto& [n, counts] = GetParam();
  const int colors = static_cast<int>(counts.size());
  auto vars = make_var_space();
  const Program p = make_plurality_program(vars, colors);
  RuntimeOptions opts;
  opts.c = plurality_recommended_c(colors);
  opts.seed = 100 + n + counts[0];
  FrameworkRuntime rt(p, plurality_inputs(*vars, n, counts), opts);
  const int expected = static_cast<int>(
      std::max_element(counts.begin(), counts.end()) - counts.begin());
  const auto t = rt.run_until(
      [&](const SimBackend& pop) {
        return plurality_winner(pop, *vars, colors) == expected;
      },
      8);
  ASSERT_TRUE(t.has_value());
}

INSTANTIATE_TEST_SUITE_P(
    Cases, PluralitySweep,
    ::testing::Values(
        PluralityCase{256, {90, 89, 77}},        // close three-way race
        PluralityCase{256, {30, 120, 40}},       // clear winner, blanks
        PluralityCase{512, {128, 130, 126}},     // gap 2 at the top
        PluralityCase{512, {100, 99, 98, 97}},   // four colors, chained gaps
        PluralityCase{512, {60, 61, 59, 62, 58}}  // five colors
        ));

TEST(Plurality, WinnerFlagsAreConsistent) {
  auto vars = make_var_space();
  const Program p = make_plurality_program(vars, 3);
  RuntimeOptions opts;
  opts.c = plurality_recommended_c(3);
  opts.seed = 7;
  FrameworkRuntime rt(p, plurality_inputs(*vars, 300, {120, 80, 70}), opts);
  ASSERT_TRUE(rt.run_until(
      [&](const SimBackend& pop) {
        return plurality_winner(pop, *vars, 3) == 0;
      },
      8));
  // Exactly one unanimous winner; other colors' flags unanimously off.
  for (int c = 1; c < 3; ++c) {
    const auto v = vars->find(plurality_output_var(c));
    EXPECT_EQ(rt.backend().count_matching(BoolExpr::var(*v)), 0u);
  }
}

TEST(Plurality, StateBudgetGrowsQuadratically) {
  // O(l^2) states: the variable count must grow with the number of color
  // pairs (3 working vars per pair) — this pins the claimed state bound.
  auto count_vars = [](int colors) {
    auto vars = make_var_space();
    make_plurality_program(vars, colors);
    return vars->size();
  };
  const std::size_t v3 = count_vars(3);
  const std::size_t v5 = count_vars(5);
  // pairs(3)=3, pairs(5)=10: expect roughly (10-3)*4 = 28 more variables.
  EXPECT_GE(v5 - v3, 25u);
  EXPECT_LE(v5 - v3, 40u);
}

TEST(Plurality, RejectsOutOfRangeColorCounts) {
  auto vars = make_var_space();
  EXPECT_DEATH(make_plurality_program(vars, 1), "2..5");
  auto vars2 = make_var_space();
  EXPECT_DEATH(make_plurality_program(vars2, 6), "2..5");
}

TEST(Plurality, TwoColorsDegeneratesToMajority) {
  auto vars = make_var_space();
  const Program p = make_plurality_program(vars, 2);
  RuntimeOptions opts;
  opts.c = plurality_recommended_c(2);
  opts.seed = 9;
  FrameworkRuntime rt(p, plurality_inputs(*vars, 256, {127, 129}), opts);
  const auto t = rt.run_until(
      [&](const SimBackend& pop) {
        return plurality_winner(pop, *vars, 2) == 1;
      },
      8);
  ASSERT_TRUE(t.has_value());
}

}  // namespace
}  // namespace popproto
