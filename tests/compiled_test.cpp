#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "lang/compile.hpp"
#include "protocols/leader_election.hpp"

namespace popproto {
namespace {

/// The compiled program on `n` blank inputs under a fixed X set: agents
/// [0, x) are the control agents.
CompiledEngine with_fixed_x(const Program& p, std::size_t n, std::uint64_t x,
                            std::uint64_t seed) {
  static const Protocol fixed = make_fixed_x_protocol(make_var_space());
  return CompiledEngine(p, std::vector<State>(n, 0), fixed,
                        x_counts(n, x, *fixed.vars()), ClockLevelParams{},
                        seed);
}

/// A depth-1 program with `leaves` no-op rulesets (for time-path mechanics).
Program flat_program(VarSpacePtr vars, int leaves) {
  Program p;
  p.name = "flat";
  p.vars = std::move(vars);
  ProgramThread main;
  main.name = "Main";
  for (int i = 0; i < leaves; ++i) main.body.push_back(execute_ruleset({}));
  p.threads.push_back(std::move(main));
  return p;
}

/// Depth-2: an inner repeat-log over no-op leaves plus a top-level leaf.
Program nested_program(VarSpacePtr vars) {
  Program p;
  p.name = "nested";
  p.vars = std::move(vars);
  ProgramThread main;
  main.name = "Main";
  main.body.push_back(execute_ruleset({}));
  main.body.push_back(
      repeat_log({execute_ruleset({}), execute_ruleset({})}));
  p.threads.push_back(std::move(main));
  return p;
}

TEST(Compiled, ModuleSizedToWidth) {
  auto vars = make_var_space();
  const Program p = flat_program(vars, 3);
  CompiledEngine eng = with_fixed_x(p, 100, 4, 1);
  EXPECT_EQ(eng.tree().depth, 1);
  EXPECT_EQ(eng.tree().width, 3);
  EXPECT_EQ(eng.hierarchy().params().level.module, 16);  // 4 * (3 + 1)
}

TEST(Compiled, TimePathsSweepSlotsCyclically) {
  // Prop 5.7 / Fig. 1 at depth 1: the sequence of common time paths is
  // τ_1 = 1, 2, ..., w, 1, 2, ... (with ⊥ gaps between slots).
  auto vars = make_var_space();
  const Program p = flat_program(vars, 3);
  const std::size_t n = 600;
  CompiledEngine eng = with_fixed_x(p, n, 5, 7);
  eng.run_rounds(3000.0);  // clock stabilization
  std::vector<int> slots;
  while (eng.rounds() < 60000.0 && slots.size() < 24) {
    eng.run_rounds(20.0);
    const auto tau = eng.common_time_path();
    if (!tau) continue;
    const int s = (*tau)[0];
    if (slots.empty() || slots.back() != s) slots.push_back(s);
  }
  ASSERT_GE(slots.size(), 8u) << "clock never swept the slots";
  for (std::size_t i = 1; i < slots.size(); ++i) {
    const int prev = slots[i - 1];
    const int next = slots[i];
    ASSERT_EQ(next, prev % 3 + 1)
        << "slot sequence violated cyclic order at step " << i;
  }
}

TEST(Compiled, ProgramRulesFireOnlyOnValidPaths) {
  // Until the clock produces a first valid slot, no program rule may fire.
  auto vars = make_var_space();
  const VarId m = vars->intern("MARK");
  Program p;
  p.vars = vars;
  ProgramThread main;
  main.name = "Main";
  main.body.push_back(execute_ruleset({make_rule(
      BoolExpr::any(), BoolExpr::any(), BoolExpr::var(m), BoolExpr::any())}));
  p.threads.push_back(std::move(main));
  const std::size_t n = 300;
  CompiledEngine eng = with_fixed_x(p, n, 4, 9);
  // All digits are 0 at startup => slot ⊥ => no firings; step until the
  // first firing and verify a valid slot existed for some agent then.
  while (eng.program_rule_firings() == 0 && eng.rounds() < 5000.0) {
    const bool any_valid_before = [&] {
      for (std::size_t i = 0; i < n; ++i)
        if (eng.time_path(i)) return true;
      return false;
    }();
    const auto fired_before = eng.program_rule_firings();
    eng.run_rounds(1.0);
    if (eng.program_rule_firings() > fired_before) {
      // A rule fired within this round: some agent must have held a valid
      // path at its start or acquired one during it.
      bool any_valid_now = any_valid_before;
      for (std::size_t i = 0; i < n && !any_valid_now; ++i)
        if (eng.time_path(i)) any_valid_now = true;
      EXPECT_TRUE(any_valid_now);
    }
  }
  EXPECT_GT(eng.program_rule_firings(), 0u);
  // Give the marker ruleset a few more slot windows to reach everyone.
  eng.run_rounds(4000.0);
  EXPECT_EQ(eng.count_matching(Guard(BoolExpr::var(m))), n);
}

TEST(Compiled, NestedProgramAdvancesOuterSlotAfterInnerSweeps) {
  // Depth 2: during one τ_2 slot, τ_1 sweeps its slots repeatedly (this is
  // what implements "repeat >= c ln n times"); τ_2 advances by one slot
  // (cyclically) between sweeps. We log (τ_2, τ_1) transitions and check
  // Fig. 1's nesting.
  auto vars = make_var_space();
  const Program p = nested_program(vars);
  const std::size_t n = 250;
  CompiledEngine eng = with_fixed_x(p, n, 4, 11);
  std::vector<std::pair<int, int>> path_log;  // (tau2, tau1)
  const double horizon = 1.2e6;
  while (eng.rounds() < horizon) {
    eng.run_rounds(40.0);
    const auto tau = eng.common_time_path();
    if (!tau) continue;
    const std::pair<int, int> entry{(*tau)[1], (*tau)[0]};
    if (path_log.empty() || path_log.back() != entry)
      path_log.push_back(entry);
    // Stop once we have seen two distinct outer slots with inner sweeps.
    if (path_log.size() > 6 &&
        path_log.front().first != path_log.back().first)
      break;
  }
  ASSERT_GE(path_log.size(), 4u) << "no synchronized paths observed";
  // Within a fixed tau2, tau1 must advance cyclically.
  int tau1_moves = 0;
  for (std::size_t i = 1; i < path_log.size(); ++i) {
    if (path_log[i].first == path_log[i - 1].first) {
      EXPECT_EQ(path_log[i].second, path_log[i - 1].second % eng.tree().width + 1);
      ++tau1_moves;
    }
  }
  EXPECT_GE(tau1_moves, 2);
  // tau2 changed at least once over the horizon, and only to a neighbour.
  bool tau2_moved = false;
  for (std::size_t i = 1; i < path_log.size(); ++i) {
    if (path_log[i].first != path_log[i - 1].first) {
      tau2_moved = true;
      EXPECT_EQ(path_log[i].first, path_log[i - 1].first % eng.tree().width + 1);
    }
  }
  EXPECT_TRUE(tau2_moved);
}

TEST(Compiled, FractionalRunRoundsKeepTime) {
  // run_rounds carries the fraction of an interaction a call cannot run, so
  // short calls add up to the time they asked for, to one interaction.
  const auto interactions = [](const CompiledEngine& e) {
    return std::round(e.rounds() * static_cast<double>(e.n()));
  };
  const Program p = flat_program(make_var_space(), 3);
  CompiledEngine a = with_fixed_x(p, 1000, 5, 3);
  for (int k = 0; k < 1000; ++k) a.run_rounds(0.0015);
  EXPECT_NEAR(interactions(a), 1500.0, 1.0);
  CompiledEngine b = with_fixed_x(p, 1000, 5, 4);
  for (int k = 0; k < 100; ++k) b.run_rounds(0.3333);
  EXPECT_NEAR(interactions(b), 33330.0, 1.0);
  // A whole round after one step runs n more interactions, although
  // (1/n + 1)·n rounds down to n in floating point.
  CompiledEngine c = with_fixed_x(p, 1000, 5, 5);
  c.step();
  c.run_rounds(1.0);
  EXPECT_EQ(interactions(c), 1001.0);
}

TEST(Compiled, RunUntilClampsLastIntervalToHorizon) {
  // A check_interval past max_rounds still checks once, at max_rounds, and
  // a hit there reports the horizon, not a whole interval past it.
  auto vars = make_var_space();
  const Program p = make_leader_election_program(vars);
  const std::size_t n = 64;
  CompiledEngine eng = with_fixed_x(p, n, 4, 3);
  int calls = 0;
  const auto t = eng.run_until(
      [&](const CompiledEngine&) { return ++calls >= 2; }, 10.0, 16.0);
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(calls, 2);
  EXPECT_DOUBLE_EQ(*t, 10.0);
  EXPECT_DOUBLE_EQ(eng.rounds(), 10.0);
  // A timed-out run stops at the horizon too.
  const auto none = eng.run_until(
      [&](const CompiledEngine&) { return false; }, 25.0, 16.0);
  EXPECT_FALSE(none.has_value());
  EXPECT_DOUBLE_EQ(eng.rounds(), 25.0);
}

TEST(Compiled, LeaderElectionEndToEnd) {
  // The flagship integration test: the full compiled LeaderElection — Fig.1
  // assignment lowering, Fig.2 existence epidemics, Π_τ gating, oscillator,
  // believers and digit clock — elects a unique leader on a real population.
  auto vars = make_var_space();
  const Program p = make_leader_election_program(vars);
  const std::size_t n = 400;
  CompiledEngine eng = with_fixed_x(p, n, 4, 13);
  const Guard leader(BoolExpr::var(*vars->find(kLeaderVar)));
  const auto t = eng.run_until(
      [&](const CompiledEngine& e) { return e.count_matching(leader) == 1; },
      400000.0, 200.0);
  ASSERT_TRUE(t.has_value());
  // The elected leader persists across further iterations (w.h.p.); verify
  // over a few more full cycles.
  eng.run_rounds(30000.0);
  EXPECT_EQ(eng.count_matching(leader), 1u);
}

}  // namespace
}  // namespace popproto
