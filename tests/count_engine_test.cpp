#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <vector>

#include "core/count_engine.hpp"
#include "core/engine.hpp"
#include "protocols/baselines.hpp"
#include "server/protocol_registry.hpp"
#include "support/stats.hpp"

namespace popproto {
namespace {

Protocol elimination_protocol(VarSpacePtr vars) {
  const VarId x = vars->intern("X");
  Protocol p("elim", std::move(vars));
  p.add_thread("T", {make_rule(BoolExpr::var(x), BoolExpr::var(x),
                               !BoolExpr::var(x), BoolExpr::any(), "elim")});
  return p;
}

TEST(CountEngine, ConservesPopulation) {
  auto vars = make_var_space();
  const Protocol p = elimination_protocol(vars);
  const VarId x = *vars->find("X");
  CountEngine eng(p, {{var_bit(x), 1000}}, 3);
  eng.run_rounds(50);
  std::uint64_t total = 0;
  for (const auto& [s, c] : eng.species()) total += c;
  EXPECT_EQ(total, 1000u);
}

TEST(CountEngine, EliminationKeepsAtLeastOneX) {
  auto vars = make_var_space();
  const Protocol p = elimination_protocol(vars);
  const VarId x = *vars->find("X");
  CountEngine eng(p, {{var_bit(x), 512}}, 5);
  eng.run_rounds(4000);
  EXPECT_GE(eng.count_matching(BoolExpr::var(x)), 1u);
}

TEST(CountEngine, EliminationEventuallySilent) {
  auto vars = make_var_space();
  const Protocol p = elimination_protocol(vars);
  const VarId x = *vars->find("X");
  CountEngine eng(p, {{var_bit(x), 64}}, 5, CountEngineMode::kSkip);
  // Keep stepping effective interactions until only one X remains.
  while (eng.count_matching(BoolExpr::var(x)) > 1) {
    ASSERT_TRUE(eng.step());
  }
  EXPECT_FALSE(eng.step());  // one X left: silent
  EXPECT_TRUE(eng.silent());
}

TEST(CountEngine, SkipAndDirectAgreeInDistribution) {
  // Compare the mean #X after a fixed time under both modes.
  auto vars = make_var_space();
  const Protocol p = elimination_protocol(vars);
  const VarId x = *vars->find("X");
  auto mean_x = [&](CountEngineMode mode, std::uint64_t seed0) {
    double sum = 0;
    for (int t = 0; t < 40; ++t) {
      CountEngine eng(p, {{var_bit(x), 256}}, seed0 + t, mode);
      eng.run_rounds(20);
      sum += static_cast<double>(eng.count_matching(BoolExpr::var(x)));
    }
    return sum / 40;
  };
  const double direct = mean_x(CountEngineMode::kDirect, 100);
  const double skip = mean_x(CountEngineMode::kSkip, 900);
  EXPECT_NEAR(direct, skip, std::max(2.0, 0.15 * direct));
}

TEST(CountEngine, MatchesAgentEngineOnEpidemic) {
  auto vars = make_var_space();
  const VarId i = vars->intern("I");
  Protocol p("epi", vars);
  p.add_thread("T", {make_rule(BoolExpr::var(i), BoolExpr::any(),
                               BoolExpr::any(), BoolExpr::var(i))});
  auto count_frac_at = [&](double rounds) {
    double agent_sum = 0, count_sum = 0;
    for (int t = 0; t < 30; ++t) {
      std::vector<State> init(500, 0);
      init[0] = var_bit(i);
      Engine ag(p, std::move(init), 50 + t);
      ag.run_rounds(rounds);
      agent_sum += static_cast<double>(ag.count_matching(BoolExpr::var(i)));
      CountEngine ce(p, {{var_bit(i), 1}, {0, 499}}, 950 + t);
      ce.run_rounds(rounds);
      count_sum += static_cast<double>(ce.count_matching(BoolExpr::var(i)));
    }
    return std::pair{agent_sum / 30, count_sum / 30};
  };
  const auto [agent_mean, count_mean] = count_frac_at(6.0);
  EXPECT_NEAR(agent_mean, count_mean, 0.2 * agent_mean + 10);
}

TEST(CountEngine, RoundsAccounting) {
  auto vars = make_var_space();
  const Protocol p = elimination_protocol(vars);
  const VarId x = *vars->find("X");
  CountEngine eng(p, {{var_bit(x), 100}}, 3);
  eng.run_rounds(7.0);
  EXPECT_GE(eng.rounds(), 7.0);
  EXPECT_LT(eng.rounds(), 7.2);
}

TEST(CountEngine, SilentFastForwardsTime) {
  auto vars = make_var_space();
  const Protocol p = elimination_protocol(vars);
  const VarId x = *vars->find("X");
  CountEngine eng(p, {{var_bit(x), 1}, {0, 99}}, 3, CountEngineMode::kSkip);
  eng.run_rounds(1000.0);  // nothing can ever happen
  EXPECT_TRUE(eng.silent());
  EXPECT_GE(eng.rounds(), 1000.0);
  EXPECT_EQ(eng.count_matching(BoolExpr::var(x)), 1u);
}

TEST(CountEngine, RuleLessProtocolIsSilent) {
  // A protocol without rules (no thread at all, or only empty ones) can
  // never change a configuration, in every mode.
  auto vars = make_var_space();
  const VarId x = vars->intern("X");
  Protocol none("none", vars);
  Protocol empty("empty", vars);
  empty.add_thread("idle", {});
  for (const Protocol* p : {&none, &empty}) {
    for (const CountEngineMode mode :
         {CountEngineMode::kBatch, CountEngineMode::kSkip,
          CountEngineMode::kDirect}) {
      CountEngine eng(*p, {{var_bit(x), 3}, {0, 61}}, 5, mode);
      eng.run_rounds(10.0);
      EXPECT_GE(eng.rounds(), 10.0);
      EXPECT_EQ(eng.count_matching(BoolExpr::var(x)), 3u);
      EXPECT_EQ(eng.effective_interactions(), 0u);
      if (mode != CountEngineMode::kDirect) {
        EXPECT_TRUE(eng.silent());
      }
    }
  }
}

TEST(CountEngine, RunUntilFindsThreshold) {
  auto vars = make_var_space();
  const Protocol p = elimination_protocol(vars);
  const VarId x = *vars->find("X");
  CountEngine eng(p, {{var_bit(x), 4096}}, 17);
  const auto t = eng.run_until(
      [&](const SimBackend& e) {
        return e.count_matching(BoolExpr::var(x)) <= 64;
      },
      1e7);
  ASSERT_TRUE(t.has_value());
  // #X drops from n to n/64 in Θ(64) rounds (dx/dt = -x²/n).
  EXPECT_GT(*t, 20.0);
  EXPECT_LT(*t, 400.0);
}

TEST(CountEngine, Dv12ExactMajorityIsAlwaysCorrect) {
  // The Θ(n log n)-time baseline is only tractable with skip-ahead.
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    auto vars = make_var_space();
    const Protocol p = make_dv12_majority_protocol(vars);
    const VarId ma = *vars->find("MA");
    const VarId mb = *vars->find("MB");
    const VarId st = *vars->find("STRONG");
    const std::uint64_t n = 400;
    // Gap of exactly 2: 201 vs 199.
    CountEngine eng(p,
                    {{var_bit(ma) | var_bit(st), 201},
                     {var_bit(mb) | var_bit(st), 199}},
                    seed);
    const auto t = eng.run_until(
        [&](const SimBackend& e) {
          return e.count_matching(BoolExpr::var(ma)) == n;
        },
        5e6);
    ASSERT_TRUE(t.has_value()) << "seed " << seed;
  }
}

// -- kBatch mode (batched collision sampling, DESIGN.md §9) ------------------

TEST(CountEngine, BatchConservesPopulationAndAccounting) {
  auto vars = make_var_space();
  const Protocol p = elimination_protocol(vars);
  const VarId x = *vars->find("X");
  const std::uint64_t n = 5000;
  CountEngine eng(p, {{var_bit(x), n}}, 7, CountEngineMode::kBatch);
  eng.run_rounds(25.0);
  std::uint64_t total = 0;
  for (const auto& [s, c] : eng.species()) total += c;
  EXPECT_EQ(total, n);
  EXPECT_GE(eng.rounds(), 25.0);
  EXPECT_NEAR(eng.rounds(),
              static_cast<double>(eng.interactions()) / static_cast<double>(n),
              1e-9 * eng.rounds());
  EXPECT_GT(eng.counters().batch_blocks, 0u);
}

TEST(CountEngine, BatchAndDirectAgreeInDistribution) {
  // Stationary comparison: #X after a fixed time under elimination must be
  // chi-square-indistinguishable between direct and batch sampling. Also the
  // CI release-smoke equivalence check (--gtest_filter=*Batch*).
  auto vars = make_var_space();
  const Protocol p = elimination_protocol(vars);
  const VarId x = *vars->find("X");
  auto samples = [&](CountEngineMode mode, std::uint64_t seed0) {
    std::vector<double> out;
    for (int t = 0; t < 60; ++t) {
      CountEngine eng(p, {{var_bit(x), 256}}, seed0 + t, mode);
      eng.run_rounds(20);
      out.push_back(static_cast<double>(eng.count_matching(BoolExpr::var(x))));
    }
    return out;
  };
  const auto direct = samples(CountEngineMode::kDirect, 300);
  const auto batch = samples(CountEngineMode::kBatch, 1300);
  std::size_t dof = 0;
  const double stat = chi_square_two_sample(direct, batch, 8, &dof);
  ASSERT_GE(dof, 1u);
  EXPECT_LT(stat, chi_square_critical_value(dof, 0.001));
}

TEST(CountEngine, BatchVsDirectHittingTimeKS) {
  // Temporal comparison at the ISSUE's acceptance significance: the hitting
  // time of "#X <= 64" from 4096 must have the same law under batch and
  // direct sampling (KS two-sample test, alpha = 0.01).
  auto vars = make_var_space();
  const Protocol p = elimination_protocol(vars);
  const VarId x = *vars->find("X");
  auto hitting_times = [&](CountEngineMode mode, std::uint64_t seed0) {
    std::vector<double> out;
    for (int t = 0; t < 80; ++t) {
      CountEngine eng(p, {{var_bit(x), 4096}}, seed0 + t, mode);
      const auto hit = eng.run_until(
          [&](const SimBackend& e) {
            return e.count_matching(BoolExpr::var(x)) <= 64;
          },
          1e5, /*check_interval=*/0.5);
      EXPECT_TRUE(hit.has_value());
      out.push_back(hit.value_or(1e5));
    }
    return out;
  };
  const auto direct = hitting_times(CountEngineMode::kDirect, 4000);
  const auto batch = hitting_times(CountEngineMode::kBatch, 14000);
  const double d = ks_statistic(direct, batch);
  EXPECT_LT(d, ks_critical_value(direct.size(), batch.size(), 0.01));
}

TEST(CountEngine, BatchModeHandsOffToSkipOnSparseDynamics) {
  // Batch/skip hysteresis: once elimination goes sparse, sqrt(n)-sized
  // batches of no-ops lose to one event draw per effective interaction, so
  // kBatch must park itself in skip-ahead and still finish huge horizons.
  auto vars = make_var_space();
  const Protocol p = elimination_protocol(vars);
  const VarId x = *vars->find("X");
  CountEngine eng(p, {{var_bit(x), 32}, {0, 100000}}, 3,
                  CountEngineMode::kBatch);
  eng.run_rounds(500000);
  EXPECT_TRUE(eng.skip_engaged());
  EXPECT_LE(eng.count_matching(BoolExpr::var(x)), 4u);
}

TEST(CountEngine, BatchModeHysteresisCrossesBothWays) {
  // Blocks hand off to skip-ahead on sparse dynamics and take over again
  // once they densify.
  auto vars = make_var_space();
  const Protocol p = elimination_protocol(vars);
  const VarId x = *vars->find("X");
  const std::uint64_t n = 100032;
  CountEngine eng(p, {{var_bit(x), 32}, {0, n - 32}}, 3,
                  CountEngineMode::kBatch);
  EXPECT_FALSE(eng.skip_engaged());
  // Blocks of ~200 interactions that change almost nothing: one window of
  // them parks the engine in skip mode.
  eng.run_rounds(1.0);
  EXPECT_TRUE(eng.skip_engaged());
  const std::uint64_t blocks = eng.counters().batch_blocks;
  EXPECT_GT(blocks, 0u);
  // Densify: with 60% of the agents X, a block changes ~70 states. The
  // first step's skip jump rebuilds the event weight; the next step must
  // run a block.
  Rng fault_rng(99);
  eng.mutate_random_agents(60000, fault_rng,
                           [&](State, std::uint64_t) { return var_bit(x); });
  ASSERT_TRUE(eng.step());
  ASSERT_TRUE(eng.step());
  EXPECT_FALSE(eng.skip_engaged());
  EXPECT_GT(eng.counters().batch_blocks, blocks);
  EXPECT_NEAR(eng.rounds(),
              static_cast<double>(eng.interactions()) / static_cast<double>(n),
              1e-9 * eng.rounds());
}

TEST(CountEngine, BatchHandOffIgnoresPopulationResets) {
  // CountShardEngine re-deals every shard with reset_population, which
  // empties the hand-off window. An engine given its own counts back every
  // 4 rounds must still park in skip where its dynamics do: within one
  // round of an untouched twin.
  const std::uint64_t n = std::uint64_t{1} << 20;
  const auto inst = make_protocol_instance("approx_majority", n);
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    const auto park_round = [&](bool reset) {
      CountEngine eng(*inst->protocol, inst->initial_counts, seed,
                      CountEngineMode::kBatch);
      for (int r = 1; r <= 300; ++r) {
        eng.run_rounds(1.0);
        if (eng.skip_engaged()) return r;
        if (reset && r % 4 == 0) eng.reset_population(eng.species());
      }
      return 0;
    };
    const int untouched = park_round(false);
    const int reset = park_round(true);
    ASSERT_GT(untouched, 0) << "seed " << seed;
    EXPECT_LE(std::abs(reset - untouched), 1)
        << "seed " << seed << ": untouched parks at round " << untouched
        << ", reset at round " << reset;
  }
}

TEST(CountEngine, BatchDv12ExactMajorityIsAlwaysCorrect) {
  // End-to-end on a protocol that exercises collision interactions, the
  // outcome multinomial and the skip hand-off together.
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    auto vars = make_var_space();
    const Protocol p = make_dv12_majority_protocol(vars);
    const VarId ma = *vars->find("MA");
    const VarId mb = *vars->find("MB");
    const VarId st = *vars->find("STRONG");
    const std::uint64_t n = 400;
    CountEngine eng(p,
                    {{var_bit(ma) | var_bit(st), 201},
                     {var_bit(mb) | var_bit(st), 199}},
                    seed, CountEngineMode::kBatch);
    const auto t = eng.run_until(
        [&](const SimBackend& e) {
          return e.count_matching(BoolExpr::var(ma)) == n;
        },
        5e6);
    ASSERT_TRUE(t.has_value()) << "seed " << seed;
  }
}

TEST(CountEngine, BatchTruncatesAtFaultBoundaries) {
  // With an on_round schedule installed, batches must stop at every whole
  // round so hooks fire exactly once per boundary, in order — the same
  // contract skip-ahead jumps honor.
  auto vars = make_var_space();
  const Protocol p = elimination_protocol(vars);
  const VarId x = *vars->find("X");
  CountEngine eng(p, {{var_bit(x), 2000}}, 11, CountEngineMode::kBatch);
  std::vector<double> fired;
  InjectionHook hook;
  hook.on_round = [&](double r) { fired.push_back(r); };
  eng.set_injection_hook(std::move(hook));
  eng.run_rounds(5.5);
  ASSERT_EQ(fired.size(), 5u);
  for (std::size_t i = 0; i < fired.size(); ++i)
    EXPECT_DOUBLE_EQ(fired[i], static_cast<double>(i + 1));
  EXPECT_GT(eng.counters().batch_blocks, 0u);
}

TEST(CountEngine, BatchFallsBackUnderDropoutHook) {
  // A per-interaction dropout predicate cannot be consulted in aggregate;
  // kBatch must take skip jumps instead of blocks and still honor the hook.
  auto vars = make_var_space();
  const Protocol p = elimination_protocol(vars);
  const VarId x = *vars->find("X");
  CountEngine eng(p, {{var_bit(x), 500}}, 13, CountEngineMode::kBatch);
  InjectionHook hook;
  hook.drop_interaction = [](Rng&) { return true; };  // drop everything
  eng.set_injection_hook(std::move(hook));
  EXPECT_TRUE(eng.skip_engaged());
  eng.run_rounds(5.0);
  EXPECT_EQ(eng.effective_interactions(), 0u);
  EXPECT_EQ(eng.count_matching(BoolExpr::var(x)), 500u);
  EXPECT_EQ(eng.counters().batch_blocks, 0u);
  EXPECT_GT(eng.counters().skip_jumps, 0u);
  EXPECT_GT(eng.counters().dropped_interactions, 0u);
}

TEST(CountEngine, BatchDropoutMatchesDirectLaw) {
  // Under a drop hook the default mode takes skip jumps, which consult the
  // hook once per landed state-changing draw; direct steps consult it on
  // every interaction. The consensus times of approx_majority at n = 2^12
  // must have one law (KS two-sample test, alpha = 0.01).
  const std::uint64_t n = 1 << 12;
  const auto inst = make_protocol_instance("approx_majority", n);
  const BoolExpr ba = BoolExpr::var(*inst->vars->find("BA"));
  const BoolExpr bb = BoolExpr::var(*inst->vars->find("BB"));
  std::uint64_t skip_jumps = 0, batch_blocks = 0;  // default side
  auto hitting_times = [&](bool direct, std::uint64_t seed0) {
    std::vector<double> out;
    for (std::uint64_t t = 0; t < 200; ++t) {
      std::unique_ptr<SimBackend> eng;
      if (direct) {
        eng = std::make_unique<CountEngine>(*inst->protocol,
                                            inst->initial_counts, seed0 + t,
                                            CountEngineMode::kDirect);
      } else {
        eng = make_backend_instance("count", *inst, seed0 + t);
      }
      InjectionHook hook;
      hook.drop_interaction = [](Rng& r) { return r.chance(0.25); };
      eng->set_injection_hook(std::move(hook));
      const auto hit = eng->run_until(
          [&](const SimBackend& e) {
            return e.count_matching(ba) == n || e.count_matching(bb) == n;
          },
          1e4, /*check_interval=*/0.25);
      EXPECT_TRUE(hit.has_value());
      out.push_back(hit.value_or(1e4));
      if (!direct) {
        skip_jumps += eng->counters().skip_jumps;
        batch_blocks += eng->counters().batch_blocks;
      }
    }
    return out;
  };
  const auto direct = hitting_times(true, 21000);
  const auto dflt = hitting_times(false, 31000);
  const double d = ks_statistic(direct, dflt);
  EXPECT_LT(d, ks_critical_value(direct.size(), dflt.size(), 0.01));
  EXPECT_GT(skip_jumps, 0u);
  EXPECT_EQ(batch_blocks, 0u);
}

}  // namespace
}  // namespace popproto
