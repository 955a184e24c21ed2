#include <gtest/gtest.h>

#include <cmath>

#include "lang/runtime.hpp"
#include "support/stats.hpp"

namespace popproto {
namespace {

Program single_assign_program(VarSpacePtr vars, Stmt stmt) {
  Program p;
  p.vars = std::move(vars);
  ProgramThread main;
  main.name = "Main";
  main.body.push_back(std::move(stmt));
  p.threads.push_back(std::move(main));
  return p;
}

std::vector<double> binomial_pmf(std::uint64_t n, double p) {
  std::vector<double> out(n + 1);
  const auto dn = static_cast<double>(n);
  for (std::uint64_t k = 0; k <= n; ++k) {
    const auto dk = static_cast<double>(k);
    out[k] = std::exp(std::lgamma(dn + 1.0) - std::lgamma(dk + 1.0) -
                      std::lgamma(dn - dk + 1.0) + dk * std::log(p) +
                      (dn - dk) * std::log1p(-p));
  }
  return out;
}

/// Chi-square goodness of fit of observed category counts at alpha = 0.01.
void expect_fits(const std::vector<double>& observed,
                 const std::vector<double>& expected) {
  std::size_t dof = 0;
  const double chi2 = chi_square_gof(observed, expected, &dof);
  ASSERT_GT(dof, 0u);
  EXPECT_LT(chi2, chi_square_critical_value(dof, 0.01));
}

TEST(Runtime, AssignmentAppliesPerAgent) {
  auto vars = make_var_space();
  const VarId x = vars->intern("X");
  const VarId y = vars->intern("Y");
  const Program p = single_assign_program(vars, assign(x, BoolExpr::var(y)));
  std::vector<State> init(10, 0);
  init[3] = var_bit(y);
  init[7] = var_bit(y) | var_bit(x);
  init[8] = var_bit(x);  // X set, Y unset: must be cleared
  FrameworkRuntime rt(p, init, {});
  rt.run_iteration();
  const BoolExpr X = BoolExpr::var(x);
  const BoolExpr Y = BoolExpr::var(y);
  EXPECT_EQ(rt.backend().count_matching((X && !Y) || (!X && Y)), 0u);
}

TEST(Runtime, CoinAssignmentIsFairPerAgent) {
  auto vars = make_var_space();
  const VarId f = vars->intern("F");
  const Program p = single_assign_program(vars, assign_coin(f));
  RuntimeOptions opts;
  opts.seed = 5;
  FrameworkRuntime rt(p, 10000, opts);
  rt.run_iteration();
  const double frac =
      static_cast<double>(rt.backend().count_matching(BoolExpr::var(f))) /
      10000.0;
  EXPECT_NEAR(frac, 0.5, 0.03);
}

TEST(Runtime, IfExistsTakesCorrectBranch) {
  auto vars = make_var_space();
  const VarId c = vars->intern("C");
  const VarId t = vars->intern("T");
  const VarId e = vars->intern("E");
  const Program p = single_assign_program(
      vars, if_exists(BoolExpr::var(c),
                      {assign(t, BoolExpr::constant(true))},
                      {assign(e, BoolExpr::constant(true))}));
  {
    std::vector<State> init(10, 0);
    init[0] = var_bit(c);
    FrameworkRuntime rt(p, init, {});
    rt.run_iteration();
    EXPECT_EQ(rt.backend().count_matching(BoolExpr::var(t)), 10u);
    EXPECT_EQ(rt.backend().count_matching(BoolExpr::var(e)), 0u);
  }
  {
    FrameworkRuntime rt(p, 10, {});
    rt.run_iteration();
    EXPECT_EQ(rt.backend().count_matching(BoolExpr::var(t)), 0u);
    EXPECT_EQ(rt.backend().count_matching(BoolExpr::var(e)), 10u);
  }
}

TEST(Runtime, EpidemicIfExistsAgreesWithIdeal) {
  auto vars = make_var_space();
  const VarId c = vars->intern("C");
  const VarId t = vars->intern("T");
  const Program p = single_assign_program(
      vars,
      if_exists(BoolExpr::var(c), {assign(t, BoolExpr::constant(true))}));
  RuntimeOptions opts;
  opts.epidemic_if_exists = true;
  opts.seed = 9;
  {
    std::vector<State> init(500, 0);
    init[0] = var_bit(c);
    FrameworkRuntime rt(p, init, opts);
    rt.run_iteration();
    EXPECT_EQ(rt.backend().count_matching(BoolExpr::var(t)), 500u);
  }
  {
    FrameworkRuntime rt(p, 500, opts);
    rt.run_iteration();
    EXPECT_EQ(rt.backend().count_matching(BoolExpr::var(t)), 0u);
  }
}

TEST(Runtime, ExecuteRulesetRunsPrescribedRounds) {
  auto vars = make_var_space();
  const VarId i = vars->intern("I");
  const Program p = single_assign_program(
      vars, execute_ruleset({make_rule(BoolExpr::var(i), BoolExpr::any(),
                                       BoolExpr::any(), BoolExpr::var(i))}));
  std::vector<State> init(2000, 0);
  init[0] = var_bit(i);
  RuntimeOptions opts;
  opts.c = 3.0;
  FrameworkRuntime rt(p, init, opts);
  rt.run_iteration();
  // c ln n ≈ 22.8 rounds: a one-way epidemic saturates w.h.p.
  EXPECT_EQ(rt.backend().count_matching(BoolExpr::var(i)), 2000u);
  EXPECT_NEAR(rt.rounds(), 3.0 * std::log(2000.0), 1.0);
}

TEST(Runtime, RepeatLogRunsCeilCLnNTimes) {
  auto vars = make_var_space();
  const VarId x = vars->intern("X");
  // A loop whose body flips nothing but costs one ruleset execution; count
  // iterations through the rounds charge.
  const Program p =
      single_assign_program(vars, repeat_log({execute_ruleset({})}));
  RuntimeOptions opts;
  opts.c = 2.0;
  FrameworkRuntime rt(p, 100, opts);
  rt.run_iteration();
  const double per_exec = 2.0 * std::log(100.0);
  const auto reps = static_cast<double>(
      static_cast<std::size_t>(std::ceil(per_exec)));
  EXPECT_NEAR(rt.rounds(), reps * per_exec, 1e-6);
  (void)x;
}

TEST(Runtime, BackgroundThreadsRunDuringStatements) {
  auto vars = make_var_space();
  const VarId i = vars->intern("I");
  const VarId x = vars->intern("X");
  Program p;
  p.vars = vars;
  ProgramThread main;
  main.name = "Main";
  // Main only performs an assignment; the background epidemic must still
  // make progress during its charge window.
  main.body = {assign(x, BoolExpr::constant(true)),
               assign(x, BoolExpr::constant(false)),
               assign(x, BoolExpr::constant(true))};
  p.threads.push_back(std::move(main));
  ProgramThread bg;
  bg.name = "Epidemic";
  bg.background_rules = {make_rule(BoolExpr::var(i), BoolExpr::any(),
                                   BoolExpr::any(), BoolExpr::var(i))};
  p.threads.push_back(std::move(bg));
  std::vector<State> init(300, 0);
  init[0] = var_bit(i);
  FrameworkRuntime rt(p, init, {});
  rt.run_iteration();
  EXPECT_GT(rt.backend().count_matching(BoolExpr::var(i)), 250u);
}

TEST(Runtime, StartupChaosRespectsGuaranteedBehavior) {
  // Variables may only change through program operations: a variable no
  // rule or assignment ever writes must survive the chaos phase untouched.
  auto vars = make_var_space();
  const VarId x = vars->intern("X");
  const VarId untouched = vars->intern("U");
  const Program p = single_assign_program(
      vars, assign(x, BoolExpr::constant(true)));
  RuntimeOptions opts;
  opts.startup_chaos_rounds = 50.0;
  opts.seed = 13;
  std::vector<State> init(200, var_bit(untouched));
  FrameworkRuntime rt(p, init, opts);
  rt.run_iteration();
  EXPECT_EQ(rt.backend().count_matching(BoolExpr::var(untouched)), 200u);
}

TEST(Runtime, PermanentlyFalseConditionNeverEntersBranch) {
  // Def. 2.1's second guarantee, under heavy failure injection: with the
  // condition set empty from the start, the then-branch must never execute.
  auto vars = make_var_space();
  const VarId c = vars->intern("C");
  const VarId t = vars->intern("T");
  const Program p = single_assign_program(
      vars,
      if_exists(BoolExpr::var(c), {assign(t, BoolExpr::constant(true))}));
  RuntimeOptions opts;
  opts.bad_iteration_rate = 0.9;
  opts.startup_chaos_rounds = 20.0;
  opts.seed = 17;
  FrameworkRuntime rt(p, 100, opts);
  for (int i = 0; i < 50; ++i) rt.run_iteration();
  EXPECT_EQ(rt.backend().count_matching(BoolExpr::var(t)), 0u);
}

TEST(Runtime, BadIterationsMakePartialAssignments) {
  auto vars = make_var_space();
  const VarId x = vars->intern("X");
  const Program p =
      single_assign_program(vars, assign(x, BoolExpr::constant(true)));
  RuntimeOptions opts;
  opts.bad_iteration_rate = 1.0;
  opts.seed = 19;
  FrameworkRuntime rt(p, 1000, opts);
  rt.run_iteration();
  const auto count = rt.backend().count_matching(BoolExpr::var(x));
  // Adversarial execution may skip agents (or abort before the statement),
  // but may only set X through the assignment.
  EXPECT_LT(count, 1000u);
}

TEST(Runtime, CoinAssignmentOnOneSpeciesIsBinomial) {
  // X := coin splits one species of N agents by Binomial(N, 1/2).
  auto vars = make_var_space();
  const VarId f = vars->intern("F");
  const Program p = single_assign_program(vars, assign_coin(f));
  constexpr std::uint64_t kN = 40;
  constexpr int kSeeds = 2000;
  std::vector<double> observed(kN + 1, 0.0);
  for (int s = 0; s < kSeeds; ++s) {
    RuntimeOptions opts;
    opts.seed = 1000 + static_cast<std::uint64_t>(s);
    FrameworkRuntime rt(p, kN, opts);
    rt.run_iteration();
    ++observed[rt.backend().count_matching(BoolExpr::var(f))];
  }
  std::vector<double> expected = binomial_pmf(kN, 0.5);
  for (double& e : expected) e *= kSeeds;
  expect_fits(observed, expected);
}

TEST(Runtime, BadIterationAssignmentUpdatesBinomialHalf) {
  // A bad iteration aborts before the statement with probability 1/4;
  // otherwise its partial assignment updates Binomial(N, 1/2) agents.
  auto vars = make_var_space();
  const VarId x = vars->intern("X");
  const Program p =
      single_assign_program(vars, assign(x, BoolExpr::constant(true)));
  constexpr std::uint64_t kN = 40;
  constexpr int kSeeds = 2000;
  std::vector<double> observed(kN + 1, 0.0);
  for (int s = 0; s < kSeeds; ++s) {
    RuntimeOptions opts;
    opts.bad_iteration_rate = 1.0;
    opts.seed = 5000 + static_cast<std::uint64_t>(s);
    FrameworkRuntime rt(p, kN, opts);
    rt.run_iteration();
    ++observed[rt.backend().count_matching(BoolExpr::var(x))];
  }
  std::vector<double> expected = binomial_pmf(kN, 0.5);
  for (double& e : expected) e *= 0.75 * kSeeds;
  expected[0] += 0.25 * kSeeds;
  expect_fits(observed, expected);
}

TEST(Runtime, EpidemicIfExistsTakesThenAtFlagRate) {
  // One source among n = 64 and m = ⌊c ln n · n⌋ = 14 epidemic
  // interactions: the Z flags stay empty with probability (63/64)^14 ≈ 0.8,
  // so the then-branch runs at rate 1 - (1 - k/n)^m. Exact two-sided
  // binomial test at alpha = 0.01.
  auto vars = make_var_space();
  const VarId c = vars->intern("C");
  const VarId t = vars->intern("T");
  const Program p = single_assign_program(
      vars,
      if_exists(BoolExpr::var(c), {assign(t, BoolExpr::constant(true))}));
  constexpr std::uint64_t kN = 64;
  constexpr int kSeeds = 2000;
  RuntimeOptions opts;
  opts.epidemic_if_exists = true;
  opts.c = 14.5 / (64.0 * std::log(64.0));
  std::vector<State> init(kN, 0);
  init[0] = var_bit(c);
  std::uint64_t taken = 0;
  for (int s = 0; s < kSeeds; ++s) {
    opts.seed = 9000 + static_cast<std::uint64_t>(s);
    FrameworkRuntime rt(p, init, opts);
    rt.run_iteration();
    const auto set = rt.backend().count_matching(BoolExpr::var(t));
    ASSERT_TRUE(set == 0 || set == kN);
    if (set == kN) ++taken;
  }
  const double rate = 1.0 - std::pow(1.0 - 1.0 / 64.0, 14.0);
  const std::vector<double> pmf = binomial_pmf(kSeeds, rate);
  double below = 0.0, above = 0.0;
  for (std::uint64_t k = 0; k <= kSeeds; ++k) {
    if (k <= taken) below += pmf[k];
    if (k >= taken) above += pmf[k];
  }
  EXPECT_GT(2.0 * std::min(below, above), 0.01)
      << taken << " of " << kSeeds << " at rate " << rate;
}

TEST(Runtime, InitializersApplied) {
  auto vars = make_var_space();
  const VarId x = vars->intern("X");
  Program p = single_assign_program(vars, execute_ruleset({}));
  p.initializers = {{x, true}};
  FrameworkRuntime rt(p, 10, {});
  EXPECT_EQ(rt.backend().count_matching(BoolExpr::var(x)), 10u);
}

TEST(Runtime, RunUntilStopsAtPredicate) {
  auto vars = make_var_space();
  const VarId x = vars->intern("X");
  const Program p =
      single_assign_program(vars, assign(x, BoolExpr::constant(true)));
  FrameworkRuntime rt(p, 50, {});
  const auto t = rt.run_until(
      [&](const SimBackend& pop) { return pop.count_matching(BoolExpr::var(x)) == 50; }, 10);
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(rt.iterations(), 1u);
}

}  // namespace
}  // namespace popproto
