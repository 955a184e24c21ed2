#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <memory>
#include <sstream>
#include <string>

#include "clocks/phase_clock.hpp"
#include "core/batch_engine.hpp"
#include "core/count_engine.hpp"
#include "core/count_shard_engine.hpp"
#include "core/engine.hpp"
#include "faults/injector.hpp"
#include "protocols/baselines.hpp"

namespace popproto {
namespace {

/// One-way epidemic: ▷ (I) + (.) -> (.) + (I).
Protocol epidemic_protocol(VarSpacePtr vars) {
  const VarId i = vars->intern("I");
  Protocol p("epidemic", std::move(vars));
  p.add_thread("Epidemic",
               {make_rule(BoolExpr::var(i), BoolExpr::any(), BoolExpr::any(),
                          BoolExpr::var(i), "spread")});
  return p;
}

TEST(Engine, EpidemicSaturates) {
  auto vars = make_var_space();
  const Protocol p = epidemic_protocol(vars);
  const VarId i = *vars->find("I");
  std::vector<State> init(1000, 0);
  init[0] = var_bit(i);
  Engine eng(p, std::move(init), 7);
  const auto t = eng.run_until(
      [&](const SimBackend& e) {
        return e.count_matching(BoolExpr::var(i)) == 1000;
      },
      200.0);
  ASSERT_TRUE(t.has_value());
  // Epidemics complete in Θ(log n) rounds; allow generous slack.
  EXPECT_LT(*t, 12 * std::log(1000.0));
  EXPECT_GT(*t, std::log(1000.0) / 2);
}

TEST(Engine, EpidemicCompletesUnderMatchingScheduler) {
  auto vars = make_var_space();
  const Protocol p = epidemic_protocol(vars);
  const VarId i = *vars->find("I");
  std::vector<State> init(1000, 0);
  init[0] = var_bit(i);
  Engine eng(p, std::move(init), 7, SchedulerKind::kRandomMatching);
  const auto t = eng.run_until(
      [&](const SimBackend& e) {
        return e.count_matching(BoolExpr::var(i)) == 1000;
      },
      400.0);
  ASSERT_TRUE(t.has_value());
}

TEST(Engine, RejectsTinyPopulations) {
  auto vars = make_var_space();
  const Protocol p = epidemic_protocol(vars);
  EXPECT_DEATH(Engine(p, std::vector<State>(1, 0), 1), "at least 2");
}

TEST(Engine, RoundsAccounting) {
  auto vars = make_var_space();
  const Protocol p = epidemic_protocol(vars);
  Engine eng(p, std::vector<State>(100, 0), 3);
  eng.run_rounds(5.0);
  EXPECT_GE(eng.rounds(), 5.0);
  EXPECT_LT(eng.rounds(), 5.1);
  EXPECT_GE(eng.interactions(), 500u);
}

TEST(Engine, MatchingRoundCountsAsOneRound) {
  auto vars = make_var_space();
  const Protocol p = epidemic_protocol(vars);
  Engine eng(p, std::vector<State>(101, 0), 3, SchedulerKind::kRandomMatching);
  eng.step();
  EXPECT_DOUBLE_EQ(eng.rounds(), 1.0);
  EXPECT_EQ(eng.interactions(), 50u);  // 101 agents: 50 pairs, 1 unmatched
}

TEST(Engine, RoundHookFiresOncePerRound) {
  auto vars = make_var_space();
  const Protocol p = epidemic_protocol(vars);
  Engine eng(p, std::vector<State>(64, 0), 3);
  int calls = 0;
  InjectionHook hook;
  hook.on_round = [&](double) { ++calls; };
  eng.set_injection_hook(std::move(hook));
  eng.run_rounds(10.0);
  EXPECT_GE(calls, 9);
  EXPECT_LE(calls, 11);
}

TEST(Engine, RoundHookFiresExactlyOncePerWholeRound) {
  // Regression: the on_round cadence must not drift — over a long run the
  // hook fires at every whole round exactly once, in order, under both
  // schedulers (a matching activation can cross a boundary in one step; a
  // sequential run crosses one every n interactions).
  for (const SchedulerKind sched :
       {SchedulerKind::kSequential, SchedulerKind::kRandomMatching}) {
    auto vars = make_var_space();
    const Protocol p = epidemic_protocol(vars);
    Engine eng(p, std::vector<State>(96, 0), 17, sched);
    std::vector<double> fired;
    InjectionHook hook;
    hook.on_round = [&](double r) { fired.push_back(r); };
    eng.set_injection_hook(std::move(hook));
    eng.run_rounds(200.0);
    ASSERT_EQ(fired.size(),
              static_cast<std::size_t>(std::floor(eng.rounds() + 1e-9)))
        << "scheduler " << static_cast<int>(sched);
    for (std::size_t k = 0; k < fired.size(); ++k)
      EXPECT_DOUBLE_EQ(fired[k], static_cast<double>(k + 1));
  }
}

TEST(Engine, RunUntilQuantizesToCheckIntervalGrid) {
  // Pin the documented resolution semantics: run_until returns the first
  // *check* at which the predicate held — the true first-hold time rounded
  // UP to the check grid (plus sub-round scheduler overshoot) — so a finer
  // interval never reports a later time.
  auto vars = make_var_space();
  const Protocol p = epidemic_protocol(vars);
  const VarId i = *vars->find("I");
  auto run = [&](double interval) {
    std::vector<State> init(256, 0);
    init[0] = var_bit(i);
    Engine eng(p, std::move(init), 29);
    const auto t = eng.run_until(
        [&](const SimBackend& e) {
          return e.count_matching(BoolExpr::var(i)) >= 128;
        },
        100.0, interval);
    EXPECT_TRUE(t.has_value());
    return t.value_or(-1.0);
  };
  const double coarse = run(4.0);
  const double fine = run(0.25);
  // Same seed, and the predicate consumes no randomness: both runs follow
  // the identical trajectory and quantize the same instant.
  EXPECT_GT(fine, 0.0);
  EXPECT_LE(fine, coarse + 1e-9);
  EXPECT_LT(coarse - fine, 4.0 + 0.1);
  // Grid alignment, up to the accumulated per-call overshoot (< 1/n each).
  EXPECT_LT(std::fmod(coarse + 1e-9, 4.0), 0.1);
}

TEST(Engine, DeterministicGivenSeed) {
  auto vars = make_var_space();
  const Protocol p = epidemic_protocol(vars);
  const VarId i = *vars->find("I");
  auto run = [&](std::uint64_t seed) {
    std::vector<State> init(200, 0);
    init[0] = var_bit(i);
    Engine eng(p, std::move(init), seed);
    eng.run_rounds(5.0);
    return eng.count_matching(BoolExpr::var(i));
  };
  EXPECT_EQ(run(11), run(11));
  // Different seeds should (almost surely) differ at some point mid-epidemic.
  bool diverged = false;
  for (std::uint64_t s = 1; s < 6 && !diverged; ++s)
    diverged = run(s) != run(s + 100);
  EXPECT_TRUE(diverged);
}

TEST(Engine, SchedulerPairsAreUniform) {
  // With an always-matching marker rule, every ordered pair should be hit
  // roughly uniformly; track via per-agent initiator counts.
  auto vars = make_var_space();
  const VarId m = vars->intern("M");
  Protocol p("marker", vars);
  p.add_thread("T", {make_rule(BoolExpr::any(), BoolExpr::any(),
                               BoolExpr::var(m), BoolExpr::any())});
  const std::size_t n = 16;
  Engine eng(p, std::vector<State>(n, 0), 5);
  // After one interaction each initiator has M set; instead count how often
  // agent 0 keeps getting chosen by clearing the flag.
  std::size_t agent0_initiations = 0;
  const std::size_t steps = 64000;
  for (std::size_t s = 0; s < steps; ++s) {
    eng.set_state(0, 0);
    eng.step();
    if (var_is_set(eng.agent_state(0), m)) ++agent0_initiations;
  }
  const double freq = static_cast<double>(agent0_initiations) /
                      static_cast<double>(steps);
  EXPECT_NEAR(freq, 1.0 / n, 0.01);
}

TEST(Engine, ThreadsShareSchedulingEqually) {
  // Two threads, each setting a different marker on any pair; the markers
  // should accumulate at the same rate.
  auto vars = make_var_space();
  const VarId x = vars->intern("X");
  const VarId y = vars->intern("Y");
  Protocol p("two_threads", vars);
  p.add_thread("TX", {make_rule(!BoolExpr::var(x), BoolExpr::any(),
                                BoolExpr::var(x), BoolExpr::any())});
  p.add_thread("TY", {make_rule(!BoolExpr::var(y), BoolExpr::any(),
                                BoolExpr::var(y), BoolExpr::any())});
  Engine eng(p, std::vector<State>(1000, 0), 9);
  // Run a few interactions only, so first-arrival rates reflect selection.
  std::uint64_t fired_x = 0, fired_y = 0;
  for (int i = 0; i < 20000; ++i) {
    eng.step();
    fired_x = eng.count_matching(BoolExpr::var(x));
    fired_y = eng.count_matching(BoolExpr::var(y));
    for (std::size_t a = 0; a < 1000; ++a) eng.set_state(a, 0);
  }
  // Both threads fire; equality is checked statistically over fresh runs.
  Engine eng2(p, std::vector<State>(1000, 0), 10);
  eng2.run_rounds(1.0);
  const double cx = static_cast<double>(eng2.count_matching(BoolExpr::var(x)));
  const double cy = static_cast<double>(eng2.count_matching(BoolExpr::var(y)));
  EXPECT_NEAR(cx / (cx + cy), 0.5, 0.1);
  (void)fired_x;
  (void)fired_y;
}

TEST(Engine, RunUntilTimesOut) {
  auto vars = make_var_space();
  const Protocol p = epidemic_protocol(vars);
  const VarId i = *vars->find("I");
  Engine eng(p, std::vector<State>(100, 0), 3);  // no infected agent
  const auto t = eng.run_until(
      [&](const SimBackend& e) {
        return e.count_matching(BoolExpr::var(i)) > 0;
      },
      10.0);
  EXPECT_FALSE(t.has_value());
}

// -- run_until edge contract (see SimBackend::run_until doc) -----------------
// Regressions pinning the clamped-horizon semantics: max_rounds is an
// absolute budget, never overshot by a whole check_interval, and the
// predicate is always evaluated at least once.

TEST(Engine, RunUntilIntervalLargerThanHorizonStillChecks) {
  // check_interval > max_rounds used to run a full interval past the
  // horizon; the final interval is now clamped so the (single) check lands
  // exactly on max_rounds.
  auto vars = make_var_space();
  const Protocol p = epidemic_protocol(vars);
  const VarId i = *vars->find("I");
  std::vector<State> init(100, 0);
  init[0] = var_bit(i);
  Engine eng(p, std::move(init), 11);
  const auto t = eng.run_until(
      [&](const SimBackend& e) {
        return e.count_matching(BoolExpr::var(i)) >= 2;
      },
      /*max_rounds=*/10.0, /*check_interval=*/100.0);
  ASSERT_TRUE(t.has_value());  // spread to 2 agents happens in O(1) rounds
  EXPECT_LE(*t, 10.0 + 0.05);  // checked at the horizon, not at 100 rounds
  EXPECT_LE(eng.rounds(), 10.0 + 0.05);
}

TEST(Engine, RunUntilTimeoutStopsAtHorizonNotInterval) {
  auto vars = make_var_space();
  const Protocol p = epidemic_protocol(vars);
  const VarId i = *vars->find("I");
  Engine eng(p, std::vector<State>(100, 0), 3);  // no infected agent: timeout
  const auto t = eng.run_until(
      [&](const SimBackend& e) {
        return e.count_matching(BoolExpr::var(i)) > 0;
      },
      /*max_rounds=*/10.0, /*check_interval=*/100.0);
  EXPECT_FALSE(t.has_value());
  // Left within one activation (1/n rounds) of the horizon, not 100 rounds.
  EXPECT_GE(eng.rounds(), 10.0);
  EXPECT_LE(eng.rounds(), 10.0 + 0.05);
}

TEST(Engine, RunUntilZeroHorizonIsInitialCheckOnly) {
  auto vars = make_var_space();
  const Protocol p = epidemic_protocol(vars);
  const VarId i = *vars->find("I");
  std::vector<State> init(100, 0);
  init[0] = var_bit(i);
  Engine eng(p, std::move(init), 5);
  // Unsatisfied predicate + max_rounds = 0: no time passes, clean timeout.
  const auto miss = eng.run_until(
      [&](const SimBackend& e) {
        return e.count_matching(BoolExpr::var(i)) >= 2;
      },
      0.0);
  EXPECT_FALSE(miss.has_value());
  EXPECT_DOUBLE_EQ(eng.rounds(), 0.0);
  EXPECT_EQ(eng.interactions(), 0u);
  // Already-satisfied predicate succeeds even with a zero budget.
  const auto hit = eng.run_until(
      [&](const SimBackend& e) {
        return e.count_matching(BoolExpr::var(i)) >= 1;
      },
      0.0);
  ASSERT_TRUE(hit.has_value());
  EXPECT_DOUBLE_EQ(*hit, 0.0);
  EXPECT_EQ(eng.interactions(), 0u);
}

TEST(Engine, RunUntilAlreadySatisfiedReturnsCurrentTime) {
  auto vars = make_var_space();
  const Protocol p = epidemic_protocol(vars);
  const VarId i = *vars->find("I");
  std::vector<State> init(100, 0);
  init[0] = var_bit(i);
  Engine eng(p, std::move(init), 5);
  eng.run_rounds(3.0);
  const double before = eng.rounds();
  const std::uint64_t steps_before = eng.interactions();
  const auto t = eng.run_until(
      [&](const SimBackend& e) {
        return e.count_matching(BoolExpr::var(i)) >= 1;
      },
      1000.0);
  ASSERT_TRUE(t.has_value());
  EXPECT_DOUBLE_EQ(*t, before);            // current time, not quantized up
  EXPECT_EQ(eng.interactions(), steps_before);  // no simulation ran
  // An engine already past the horizon still gets its initial check.
  const auto late = eng.run_until(
      [&](const SimBackend& e) {
        return e.count_matching(BoolExpr::var(i)) >= 1;
      },
      1.0);
  ASSERT_TRUE(late.has_value());
  EXPECT_DOUBLE_EQ(*late, before);
}

TEST(SimBackendContract, RunUntilEdgeCasesAcrossBackends) {
  // The same edge contract through SimBackend, on all four substrates.
  auto vars = make_var_space();
  const Protocol p = epidemic_protocol(vars);
  const VarId i = *vars->find("I");
  std::vector<State> init(100, 0);
  init[0] = var_bit(i);
  const std::vector<std::pair<State, std::uint64_t>> counts = {
      {var_bit(i), 1}, {State{0}, 99}};
  CountShardEngine::Params two_shards;
  two_shards.shards = 2;
  two_shards.min_shard = 2;
  Engine agent(p, init, 13);
  CountEngine count(p, counts, 13);
  BatchEngine batch(p, init, 13);
  CountShardEngine count_shard(p, counts, 13, two_shards);
  const BoolExpr infected = BoolExpr::var(i);
  for (SimBackend* b : {static_cast<SimBackend*>(&agent),
                        static_cast<SimBackend*>(&count),
                        static_cast<SimBackend*>(&batch),
                        static_cast<SimBackend*>(&count_shard)}) {
    SCOPED_TRACE(b->backend_name());
    // Already satisfied at a zero horizon: initial check wins.
    const auto hit = b->run_until(
        [&](const SimBackend& s) { return s.count_matching(infected) >= 1; },
        0.0);
    ASSERT_TRUE(hit.has_value());
    EXPECT_DOUBLE_EQ(*hit, 0.0);
    // check_interval > max_rounds: converges within the horizon...
    const auto t = b->run_until(
        [&](const SimBackend& s) { return s.count_matching(infected) >= 2; },
        /*max_rounds=*/20.0, /*check_interval=*/500.0);
    ASSERT_TRUE(t.has_value());
    EXPECT_LE(*t, 20.0 + 0.05);
    // ...and a timeout never overshoots it by a whole interval.
    const auto miss = b->run_until(
        [&](const SimBackend& s) { return s.count_matching(infected) > 200; },
        /*max_rounds=*/b->rounds() + 5.0, /*check_interval=*/500.0);
    EXPECT_FALSE(miss.has_value());
    EXPECT_LE(b->rounds(), t.value_or(0.0) + 5.0 + 1.0);
  }

  // Quiescence: fratricide ends with one leader, after which the count
  // substrates are silent. An unsatisfiable predicate then times out at the
  // silence round instead of at the horizon, unless a fault schedule could
  // still perturb the configuration.
  auto fvars = make_var_space();
  const Protocol frat = make_fratricide_protocol(fvars);
  const Guard is_leader(BoolExpr::var(*fvars->find("L")));
  const State leader = var_bit(*fvars->find("L"));
  const std::vector<std::pair<State, std::uint64_t>> leaders = {{leader, 64}};
  const auto no_leader = [&](const SimBackend& s) {
    return s.count_matching(is_leader) == 0;
  };
  const auto make_count = [&](bool sharded) -> std::unique_ptr<SimBackend> {
    if (sharded)
      return std::make_unique<CountShardEngine>(frat, leaders, 21, two_shards);
    return std::make_unique<CountEngine>(frat, leaders, 21);
  };
  for (const bool sharded : {false, true}) {
    auto silent = make_count(sharded);
    SCOPED_TRACE(silent->backend_name());
    EXPECT_FALSE(silent->run_until(no_leader, /*max_rounds=*/1e6));
    EXPECT_TRUE(silent->quiescent());
    EXPECT_LT(silent->rounds(), 1e4);
    EXPECT_EQ(silent->count_matching(is_leader), 1u);

    auto hooked = make_count(sharded);
    FaultInjector injector(FaultPlan().crash_at(1e6, CrashSpec{0.0, 1}), 5);
    injector.attach(*hooked);
    EXPECT_FALSE(hooked->run_until(no_leader, /*max_rounds=*/2000.0));
    EXPECT_FALSE(hooked->quiescent());
    EXPECT_DOUBLE_EQ(hooked->rounds(), 2000.0);
  }
  Engine frat_agent(frat, std::vector<State>(64, leader), 21);
  BatchEngine frat_batch(frat, std::vector<State>(64, leader), 21);
  // One activation: an interaction (1/n rounds) or a whole batch round.
  for (const auto& [b, activation] :
       {std::pair<SimBackend*, double>{&frat_agent, 1.0 / 64},
        std::pair<SimBackend*, double>{&frat_batch, 1.0}}) {
    SCOPED_TRACE(b->backend_name());
    EXPECT_FALSE(b->run_until(no_leader, /*max_rounds=*/300.0));
    EXPECT_FALSE(b->quiescent());
    EXPECT_GE(b->rounds(), 300.0);
    EXPECT_LE(b->rounds(), 300.0 + activation);
  }
}

TEST(SchedulerTest, MatchingIsDisjointAndNearPerfect) {
  Rng rng(21);
  std::vector<std::pair<std::uint32_t, std::uint32_t>> pairs;
  sample_random_matching(101, rng, pairs);
  EXPECT_EQ(pairs.size(), 50u);
  std::vector<bool> seen(101, false);
  for (const auto& [a, b] : pairs) {
    EXPECT_FALSE(seen[a]);
    EXPECT_FALSE(seen[b]);
    seen[a] = seen[b] = true;
  }
}

TEST(SchedulerTest, MatchingCoversEachAgentAtMostOnceAcrossSizes) {
  Rng rng(37);
  std::vector<std::pair<std::uint32_t, std::uint32_t>> pairs;
  for (const std::size_t n : {2u, 3u, 7u, 8u, 100u, 101u}) {
    for (int rep = 0; rep < 50; ++rep) {
      sample_random_matching(n, rng, pairs);
      EXPECT_EQ(pairs.size(), n / 2);
      std::vector<bool> seen(n, false);
      for (const auto& [a, b] : pairs) {
        ASSERT_LT(a, n);
        ASSERT_LT(b, n);
        EXPECT_FALSE(seen[a]);
        EXPECT_FALSE(seen[b]);
        seen[a] = seen[b] = true;
      }
      // Exactly one agent unmatched when n is odd, none when n is even.
      std::size_t unmatched = 0;
      for (std::size_t a = 0; a < n; ++a) unmatched += !seen[a];
      EXPECT_EQ(unmatched, n % 2);
    }
  }
}

TEST(SchedulerTest, MatchingOrientationIsUniform) {
  // Within a sampled pair, which endpoint acts as initiator must be a fair
  // coin: track how often agent 0 appears in initiator position.
  Rng rng(41);
  std::vector<std::pair<std::uint32_t, std::uint32_t>> pairs;
  int zero_initiates = 0, zero_matched = 0;
  const int rounds = 40000;
  for (int r = 0; r < rounds; ++r) {
    sample_random_matching(9, rng, pairs);
    for (const auto& [a, b] : pairs) {
      if (a == 0 || b == 0) {
        ++zero_matched;
        if (a == 0) ++zero_initiates;
      }
    }
  }
  ASSERT_GT(zero_matched, 10000);
  EXPECT_NEAR(zero_initiates / static_cast<double>(zero_matched), 0.5, 0.02);
}

TEST(SchedulerTest, MatchingIsUniformish) {
  Rng rng(23);
  std::vector<std::pair<std::uint32_t, std::uint32_t>> pairs;
  int together = 0;
  const int rounds = 20000;
  for (int r = 0; r < rounds; ++r) {
    sample_random_matching(8, rng, pairs);
    for (const auto& [a, b] : pairs)
      if ((a == 0 && b == 1) || (a == 1 && b == 0)) ++together;
  }
  // P(0 matched with 1) = 1/7.
  EXPECT_NEAR(together / static_cast<double>(rounds), 1.0 / 7.0, 0.01);
}

// -- Species counts ---------------------------------------------------------
// Engine answers count_matching and species() from per-species counts kept
// beside its interned-index shadow, falling back to a scan of the agent
// states past the transition-cache cap or with the cache off. Whichever path
// answers, it must equal a brute-force scan of agent_state() over the active
// agents after every kind of mutation.

/// Always-true, never-true, one literal, negated, and multi-minterm guards.
std::vector<Guard> probe_guards(VarId a, VarId b, VarId c) {
  const BoolExpr x = BoolExpr::var(a), y = BoolExpr::var(b),
                 z = BoolExpr::var(c);
  std::vector<Guard> g{Guard(), Guard(BoolExpr::constant(false)), Guard(x),
                       Guard(!y), Guard((x && !z) || (y && z))};
  EXPECT_TRUE(g[0].always_true());
  EXPECT_TRUE(g[1].never_true());
  EXPECT_GT(g[4].num_terms(), 1u);
  return g;
}

void expect_counts_match_scan(const Engine& e,
                              const std::vector<Guard>& guards) {
  std::map<State, std::uint64_t> scan;
  for (std::size_t i = 0; i < e.n(); ++i)
    if (e.is_active(i)) ++scan[e.agent_state(i)];
  const std::vector<std::pair<State, std::uint64_t>> want(scan.begin(),
                                                          scan.end());
  EXPECT_EQ(e.species(), want);
  for (std::size_t k = 0; k < guards.size(); ++k) {
    std::uint64_t matching = 0;
    for (const auto& [s, c] : want)
      if (guards[k].matches(s)) matching += c;
    EXPECT_EQ(e.count_matching(guards[k]), matching) << "guard " << k;
  }
}

struct ClockSpecies {
  VarSpacePtr vars = make_var_space();
  Protocol proto = make_phase_clock_protocol(vars);
  std::vector<State> init = phase_clock_initial_states(4096, 256, *vars);
  std::vector<Guard> guards = probe_guards(0, 1, 2);
};

TEST(EngineSpeciesCounts, EqualScanAfterEveryMutationPath) {
  const ClockSpecies f;
  Engine e(f.proto, f.init, /*seed=*/11);
  const auto check = [&](const char* where) {
    SCOPED_TRACE(where);
    expect_counts_match_scan(e, f.guards);
  };
  check("construction");
  e.run_steps(5000);
  check("block loop, run_steps");
  e.run_rounds(1.5);
  check("block loop, run_rounds");

  e.set_scheduler_bias(SchedulerBias{0.3, f.guards[2], 4});
  e.run_rounds(1.0);
  check("step() under a bias");
  e.set_scheduler_bias(std::nullopt);

  InjectionHook drop;
  drop.drop_interaction = [](Rng& rng) { return rng.chance(0.3); };
  e.set_injection_hook(drop);
  e.run_rounds(1.0);
  check("step() under a drop hook");
  e.set_injection_hook(InjectionHook{});

  Rng churn(5);
  e.crash_agent(3);
  e.crash_agent(4000);
  e.crash_random(500, churn);
  check("crash");
  e.run_rounds(1.0);  // churned: the step() loop
  check("step() after churn");
  e.rejoin_agent(3);
  e.rejoin_random(100, churn);
  check("rejoin");
  std::size_t crashed = 0;
  while (e.is_active(crashed)) ++crashed;
  e.rejoin_agent(crashed, f.init[0] ^ var_bit(5));
  e.rejoin_agent(1, f.init[2]);  // already active: only the state changes
  check("rejoin with a fresh state");
  e.rejoin_all();
  check("rejoin_all");
  e.mutate_random_agents(300, churn, [](State old, std::uint64_t j) {
    return j % 3 == 0 ? old : old ^ var_bit(static_cast<VarId>(j % 4));
  });
  check("mutate_random_agents");
  e.run_rounds(1.0);
  check("block loop after corruption");

  e.set_state(7, f.init[9] ^ var_bit(1));
  check("set_state");
  e.run_steps(100);
  check("block loop after set_state");

  e.set_transition_cache(false);
  e.run_rounds(1.0);
  check("set_transition_cache(false)");
  e.crash_agent(10);
  check("crash with the cache off");
  e.set_transition_cache(true);
  e.run_rounds(1.0);
  check("cache back on");
}

TEST(EngineSpeciesCounts, EqualScanUnderTheMatchingScheduler) {
  const ClockSpecies f;
  Engine e(f.proto, f.init, /*seed=*/12, SchedulerKind::kRandomMatching);
  Rng churn(6);
  for (int r = 0; r < 4; ++r) {
    e.step();
    if (r == 1) e.crash_random(300, churn);
    if (r == 2) e.rejoin_random(150, churn);
    SCOPED_TRACE("matching round " + std::to_string(r));
    expect_counts_match_scan(e, f.guards);
  }
}

TEST(EngineSpeciesCounts, EqualScanAfterRestore) {
  const ClockSpecies f;
  Engine src(f.proto, f.init, /*seed=*/13);
  Rng churn(7);
  src.run_rounds(2.0);
  src.crash_random(400, churn);
  src.run_rounds(0.5);
  std::ostringstream out;
  src.snapshot(out);

  Engine dst(f.proto, std::vector<State>(100, f.init[0]), /*seed=*/99);
  dst.run_rounds(1.0);
  std::istringstream in(out.str());
  dst.restore(in);
  expect_counts_match_scan(dst, f.guards);
  EXPECT_EQ(dst.species(), src.species());
  dst.run_rounds(1.0);
  src.run_rounds(1.0);
  expect_counts_match_scan(dst, f.guards);
  EXPECT_EQ(dst.species(), src.species());
}

TEST(EngineSpeciesCounts, EqualScanAcrossTheTransitionCacheCap) {
  // Every interaction flips one bit of the initiator among 12, so the
  // reachable states (4096) pass the cache's 1024-state cap mid-run: the
  // counts answer before it, the scan after.
  auto vars = make_var_space();
  Protocol proto("bit_flip", vars);
  std::vector<Rule> rules;
  for (int k = 0; k < 12; ++k) {
    const VarId v = vars->intern("F" + std::to_string(k));
    rules.push_back(make_rule(!BoolExpr::var(v), BoolExpr::any(),
                              BoolExpr::var(v), BoolExpr::any()));
    rules.push_back(make_rule(BoolExpr::var(v), BoolExpr::any(),
                              !BoolExpr::var(v), BoolExpr::any()));
  }
  proto.add_thread("flip", std::move(rules));
  const std::vector<Guard> guards = probe_guards(0, 1, 2);

  Engine e(proto, std::vector<State>(4096, 0), /*seed=*/14);
  expect_counts_match_scan(e, guards);
  int checks_below_cap = 0;
  for (int step = 0; step < 40 && !e.transition_cache().cap_reached();
       ++step) {
    e.run_rounds(0.25);
    expect_counts_match_scan(e, guards);
    ++checks_below_cap;
  }
  ASSERT_TRUE(e.transition_cache().cap_reached());
  EXPECT_GT(checks_below_cap, 1);
  Rng churn(8);
  e.run_rounds(1.0);
  expect_counts_match_scan(e, guards);
  e.crash_random(700, churn);
  e.mutate_random_agents(200, churn,
                         [](State old, std::uint64_t) { return ~old & 0xFFF; });
  e.rejoin_agent(0, 0xABC);
  e.run_rounds(1.0);
  expect_counts_match_scan(e, guards);
  e.rejoin_all();
  expect_counts_match_scan(e, guards);
}

}  // namespace
}  // namespace popproto
