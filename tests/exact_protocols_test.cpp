#include <gtest/gtest.h>

#include <cmath>

#include "lang/runtime.hpp"
#include "protocols/leader_election_exact.hpp"
#include "protocols/majority.hpp"
#include "protocols/majority_exact.hpp"

namespace popproto {
namespace {

// ---------------------------------------------------------------------------
// LeaderElectionExact (Thms 6.1, 6.2).
// ---------------------------------------------------------------------------

std::uint64_t count(const SimBackend& pop, const VarSpace& vars,
                    const char* name) {
  return pop.count_matching(BoolExpr::var(*vars.find(name)));
}

TEST(LeaderElectionExact, ElectsUniqueLeader) {
  auto vars = make_var_space();
  const Program p = make_leader_election_exact_program(vars);
  RuntimeOptions opts;
  opts.seed = 3;
  FrameworkRuntime rt(p, 1024, opts);
  const auto t = rt.run_until(
      [&](const SimBackend& pop) {
        return count(pop, *vars, kExactLeaderVar) == 1;
      },
      300);
  ASSERT_TRUE(t.has_value());
}

TEST(LeaderElectionExact, SurvivorSetNeverEmpty) {
  // |R| >= 1 is the deterministic anchor of Thm 6.1.
  auto vars = make_var_space();
  const Program p = make_leader_election_exact_program(vars);
  RuntimeOptions opts;
  opts.seed = 5;
  FrameworkRuntime rt(p, 512, opts);
  for (int i = 0; i < 80; ++i) {
    rt.run_iteration();
    ASSERT_GE(count(rt.backend(), *vars, "LEX_R"), 1u);
  }
}

TEST(LeaderElectionExact, LeaderSetNeverEmptyForLong) {
  auto vars = make_var_space();
  const Program p = make_leader_election_exact_program(vars);
  RuntimeOptions opts;
  opts.seed = 7;
  FrameworkRuntime rt(p, 512, opts);
  // After any iteration, either L is nonempty or it will be refilled from R
  // in the next one; it can never stay empty two iterations in a row.
  int consecutive_empty = 0;
  for (int i = 0; i < 80; ++i) {
    rt.run_iteration();
    if (count(rt.backend(), *vars, kExactLeaderVar) == 0) {
      ++consecutive_empty;
      ASSERT_LT(consecutive_empty, 2);
    } else {
      consecutive_empty = 0;
    }
  }
}

class LeaderElectionExactAdversarial
    : public ::testing::TestWithParam<double> {};

TEST_P(LeaderElectionExactAdversarial, StillElectsUnderFailures) {
  // The always-correct protocol must elect a unique leader even when a
  // large fraction of iterations is adversarial (that is the point of
  // Thm 6.1's "correct with certainty").
  auto vars = make_var_space();
  const Program p = make_leader_election_exact_program(vars);
  RuntimeOptions opts;
  opts.seed = 11;
  opts.bad_iteration_rate = GetParam();
  opts.startup_chaos_rounds = 50.0;
  FrameworkRuntime rt(p, 512, opts);
  const auto t = rt.run_until(
      [&](const SimBackend& pop) {
        return count(pop, *vars, kExactLeaderVar) == 1 &&
               count(pop, *vars, "LEX_R") == 1;
      },
      3000);
  ASSERT_TRUE(t.has_value());
  // Once |R| = 1 and L = R, the configuration is stable: verify.
  for (int i = 0; i < 20; ++i) {
    rt.run_iteration();
    ASSERT_EQ(count(rt.backend(), *vars, kExactLeaderVar), 1u);
  }
}

INSTANTIATE_TEST_SUITE_P(FailureRates, LeaderElectionExactAdversarial,
                         ::testing::Values(0.0, 0.3, 0.6));

TEST(LeaderElectionExact, FilteredCoinStaysBalanced) {
  // The synthetic coin F should hover strictly between empty and full for a
  // long stretch (the proof places it in [15/64, 15/16]-ish fractions).
  auto vars = make_var_space();
  const Program p = make_leader_election_exact_program(vars);
  RuntimeOptions opts;
  opts.seed = 13;
  FrameworkRuntime rt(p, 2048, opts);
  rt.run_iteration();
  int balanced = 0, total = 0;
  for (int i = 0; i < 20; ++i) {
    rt.run_iteration();
    const double f =
        static_cast<double>(count(rt.backend(), *vars, "LEX_F")) / 2048.0;
    ++total;
    if (f > 0.05 && f < 0.95) ++balanced;
  }
  EXPECT_GE(balanced, total - 2);
}

// ---------------------------------------------------------------------------
// MajorityExact (Thm 6.3).
// ---------------------------------------------------------------------------

using ExactCase = std::tuple<std::size_t, std::size_t, std::size_t, double>;

class MajorityExactSweep : public ::testing::TestWithParam<ExactCase> {};

TEST_P(MajorityExactSweep, ConvergesToCorrectStableOutput) {
  const auto [n, count_a, count_b, bad_rate] = GetParam();
  auto vars = make_var_space();
  const Program p = make_majority_exact_program(vars);
  RuntimeOptions opts;
  opts.c = 2.5;
  opts.seed = 10 + n + count_a;
  opts.bad_iteration_rate = bad_rate;
  FrameworkRuntime rt(p, majority_inputs(*vars, n, count_a, count_b), opts);
  const bool a_wins = count_a > count_b;
  const VarId minority = *vars->find(a_wins ? kMajInputB : kMajInputA);
  // Certainty route: run until the slow cancellation has exhausted the
  // minority *input* marks, then two more iterations settle the output
  // forever.
  const auto t = rt.run_until(
      [&](const SimBackend& pop) {
        return pop.count_matching(BoolExpr::var(minority)) == 0 &&
               majority_output_is(pop, *vars, a_wins);
      },
      4000);
  ASSERT_TRUE(t.has_value());
  for (int i = 0; i < 10; ++i) {
    rt.run_iteration();
    ASSERT_TRUE(majority_output_is(rt.backend(), *vars, a_wins));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Cases, MajorityExactSweep,
    ::testing::Values(ExactCase{256, 129, 127, 0.0},
                      ExactCase{256, 127, 129, 0.0},
                      ExactCase{512, 257, 255, 0.3},
                      ExactCase{512, 140, 180, 0.3},
                      ExactCase{1024, 513, 511, 0.0}));

TEST(MajorityExact, FastPathDeliversEarly) {
  // W.h.p. the answer is correct after the first good iteration, long
  // before the slow thread finishes.
  auto vars = make_var_space();
  const Program p = make_majority_exact_program(vars);
  RuntimeOptions opts;
  opts.c = 2.5;
  opts.seed = 21;
  FrameworkRuntime rt(p, majority_inputs(*vars, 1024, 513, 511), opts);
  rt.run_iteration();
  EXPECT_TRUE(majority_output_is(rt.backend(), *vars, true));
}

TEST(MajorityExact, SlowCancellationConservesDifference) {
  auto vars = make_var_space();
  const Program p = make_majority_exact_program(vars);
  RuntimeOptions opts;
  opts.c = 2.5;
  opts.seed = 23;
  FrameworkRuntime rt(p, majority_inputs(*vars, 512, 280, 232), opts);
  const VarId A = *vars->find(kMajInputA);
  const VarId B = *vars->find(kMajInputB);
  for (int i = 0; i < 6; ++i) {
    rt.run_iteration();
    const auto a = rt.backend().count_matching(BoolExpr::var(A));
    const auto b = rt.backend().count_matching(BoolExpr::var(B));
    ASSERT_EQ(a - b, 48u);  // #A - #B invariant under pairwise cancellation
  }
}

}  // namespace
}  // namespace popproto
