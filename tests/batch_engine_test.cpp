// BatchEngine: determinism, SimBackend polymorphism, fault-surface parity,
// the exact law of one round's pair table, and statistical equivalence with
// the per-agent random-matching reference.
//
// Reference choice: the batch rounds ARE the §5.2 random-matching scheduler
// (sharded), so every distributional comparison here is against
// Engine(SchedulerKind::kRandomMatching) — NOT the sequential scheduler. The
// two schedulers are deliberately different processes: a sequential round is
// n ordered pairs (each agent participates ~2x per round), a matching round
// is one maximal matching (~1 participation per agent), so per-round rates
// differ by a factor of ~2 between them. Thm 5.1 asymptotics hold under
// both; the tight 10% agreement pinned here is within the matching family,
// where sharding is the only approximation.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <map>
#include <numeric>
#include <vector>

#include "clocks/oscillator.hpp"
#include "clocks/phase_clock.hpp"
#include "core/batch_engine.hpp"
#include "core/count_engine.hpp"
#include "core/engine.hpp"
#include "faults/injector.hpp"
#include "support/stats.hpp"

namespace popproto {
namespace {

Protocol make_epidemic(VarSpacePtr vars) {
  const VarId i = vars->intern("I");
  Protocol p("epidemic", std::move(vars));
  p.add_thread("T", {make_rule(BoolExpr::var(i), BoolExpr::any(),
                               BoolExpr::any(), BoolExpr::var(i))});
  return p;
}

std::vector<State> epidemic_initial(const VarSpace& vars, std::size_t n,
                                    std::size_t infected) {
  std::vector<State> init(n, 0);
  const State one = var_bit(*vars.find("I"));
  for (std::size_t i = 0; i < infected; ++i) init[i] = one;
  return init;
}

BatchEngine::Params small_params(unsigned threads,
                                 std::uint32_t migrate_every = 2) {
  BatchEngine::Params p;
  p.threads = threads;
  p.min_shard = 16;  // let tests shard tiny populations
  p.migrate_every = migrate_every;
  return p;
}

TEST(BatchEngine, DeterministicReplay) {
  // Trajectory is a pure function of (protocol, initial, seed, threads,
  // migrate_every): two runs of the same configuration agree exactly, at
  // every checkpoint, including interaction counts and species multisets.
  auto vars = make_var_space();
  const Protocol p = make_epidemic(vars);
  auto run = [&](std::vector<std::vector<std::pair<State, std::uint64_t>>>*
                     snaps) {
    BatchEngine eng(p, epidemic_initial(*vars, 1000, 3), 42, small_params(4));
    EXPECT_EQ(eng.shards(), 4u);
    for (int c = 0; c < 5; ++c) {
      eng.run_rounds(7.0);
      snaps->push_back(eng.species());
    }
    return eng.interactions();
  };
  std::vector<std::vector<std::pair<State, std::uint64_t>>> s1, s2;
  const std::uint64_t i1 = run(&s1);
  const std::uint64_t i2 = run(&s2);
  EXPECT_EQ(i1, i2);
  EXPECT_EQ(s1, s2);
}

TEST(BatchEngine, SingleThreadIsExactGlobalMatching) {
  // With one shard, a round is one uniform maximal matching over the whole
  // population: n/2 pairs for even n, every round, and parallel time
  // advances by exactly 1 per step.
  auto vars = make_var_space();
  const Protocol p = make_epidemic(vars);
  BatchEngine eng(p, epidemic_initial(*vars, 500, 2), 7, small_params(1));
  EXPECT_EQ(eng.shards(), 1u);
  EXPECT_TRUE(eng.step());
  EXPECT_DOUBLE_EQ(eng.rounds(), 1.0);
  EXPECT_EQ(eng.interactions(), 250u);
  eng.run_rounds(9.0);
  EXPECT_DOUBLE_EQ(eng.rounds(), 10.0);
  EXPECT_EQ(eng.interactions(), 2500u);
}

TEST(BatchEngine, ThreadCountLoweredForSmallPopulations) {
  auto vars = make_var_space();
  const Protocol p = make_epidemic(vars);
  BatchEngine::Params params;  // default min_shard = 4096
  params.threads = 8;
  BatchEngine eng(p, epidemic_initial(*vars, 1000, 2), 1, params);
  EXPECT_EQ(eng.shards(), 1u);
}

TEST(SimBackend, PolymorphicDriverRunsAllBackends) {
  // One generic driver, three substrates: the epidemic saturates under each
  // backend through nothing but the SimBackend interface.
  auto vars = make_var_space();
  const Protocol p = make_epidemic(vars);
  const VarId iv = *vars->find("I");
  const std::size_t n = 600;

  Engine agent(p, epidemic_initial(*vars, n, 3), 11);
  CountEngine count(p, {{var_bit(iv), 3}, {0, n - 3}}, 12);
  BatchEngine batch(p, epidemic_initial(*vars, n, 3), 13, small_params(2));

  SimBackend* backends[] = {&agent, &count, &batch};
  const char* names[] = {"agent", "count", "batch"};
  for (int i = 0; i < 3; ++i) {
    SimBackend& b = *backends[i];
    EXPECT_STREQ(b.backend_name(), names[i]);
    EXPECT_EQ(b.active_n(), n);
    const auto hit = b.run_until(
        [&](const SimBackend& e) {
          return e.count_matching(BoolExpr::var(iv)) == e.active_n();
        },
        500.0);
    ASSERT_TRUE(hit.has_value()) << names[i];
    EXPECT_EQ(b.count_matching(BoolExpr::var(iv)), n) << names[i];
    EXPECT_GT(b.counters().interactions, 0u) << names[i];
    EXPECT_EQ(b.species().size(), 1u) << names[i];
  }
}

TEST(BatchEngine, ChurnPrimitives) {
  auto vars = make_var_space();
  const Protocol p = make_epidemic(vars);
  const VarId iv = *vars->find("I");
  BatchEngine eng(p, epidemic_initial(*vars, 400, 400), 3, small_params(2));
  Rng fault_rng(99);

  EXPECT_EQ(eng.crash_random(100, fault_rng), 100u);
  EXPECT_EQ(eng.active_n(), 300u);
  EXPECT_EQ(eng.crashed_count(), 100u);
  // Crashed agents' frozen states are excluded from backend observables.
  EXPECT_EQ(eng.count_matching(BoolExpr::var(iv)), 300u);
  eng.run_rounds(5.0);

  EXPECT_EQ(eng.rejoin_random(40, fault_rng), 40u);
  EXPECT_EQ(eng.active_n(), 340u);
  EXPECT_EQ(eng.rejoin_all(), 60u);
  EXPECT_EQ(eng.active_n(), 400u);
  EXPECT_EQ(eng.count_matching(BoolExpr::var(iv)), 400u);

  // Corruption rewrites distinct victims and the engine keeps running.
  const std::uint64_t hit =
      eng.mutate_random_agents(50, fault_rng, [](State, std::uint64_t) {
        return State{0};
      });
  EXPECT_EQ(hit, 50u);
  EXPECT_EQ(eng.count_matching(BoolExpr::var(iv)), 350u);
  eng.run_rounds(80.0);
  EXPECT_EQ(eng.count_matching(BoolExpr::var(iv)), 400u);  // re-saturates

  const EngineCounters c = eng.counters();
  EXPECT_EQ(c.crash_events, 100u);
  EXPECT_EQ(c.rejoin_events, 100u);
  EXPECT_EQ(c.corrupted_agents, 50u);
}

TEST(BatchEngine, FaultInjectorAttachesThroughSimBackend) {
  auto vars = make_var_space();
  const Protocol p = make_epidemic(vars);
  const VarId iv = *vars->find("I");

  FaultPlan plan;
  plan.crash_at(5.0, CrashSpec{0.25, 0});
  plan.rejoin_at(15.0, RejoinSpec{0.0, 0, true});
  plan.dropout_window(20.0, 30.0, 0.5);
  FaultInjector injector(plan, 1234);

  BatchEngine eng(p, epidemic_initial(*vars, 600, 600), 5, small_params(2));
  injector.attach(static_cast<SimBackend&>(eng));
  eng.run_rounds(40.0);

  ASSERT_GE(injector.log().size(), 3u);
  const EngineCounters c = eng.counters();
  EXPECT_EQ(c.crash_events, 150u);
  EXPECT_EQ(c.rejoin_events, 150u);
  EXPECT_GT(c.dropped_interactions, 0u);
  EXPECT_EQ(eng.active_n(), 600u);
  EXPECT_EQ(eng.count_matching(BoolExpr::var(iv)), 600u);
}

// -- The law of one round ---------------------------------------------------

// A pair kernel that records the partner: an unrecorded pair (a, b) becomes
// (a, initiator, met b) and (b, responder, met a), so after one round the
// initiators' states are the round's (initiator species, responder species)
// table. A state is the species in bits 0-1, the role in bits 2-3 and the
// partner's species in bits 4-5 (variables S0, S1, R0, R1, P0, P1).
Protocol make_partner_recorder(VarSpacePtr vars) {
  for (const char* name : {"S0", "S1", "R0", "R1", "P0", "P1"})
    vars->intern(name);
  Protocol p("partner_recorder", std::move(vars));
  PairKernel k;
  k.signature = "partner_recorder";
  k.outcomes = [](State a, State b, std::vector<KernelOutcome>& out) {
    if ((a | b) & 0xc) return;  // a partner is recorded already
    out.push_back({1.0, a | 0x4 | (b & 3) << 4, b | 0x8 | (a & 3) << 4});
  };
  p.add_kernel_thread("record", std::move(k));
  return p;
}

using PairTable = std::array<std::uint64_t, 9>;  // [initiator * 3 + responder]

/// The exact law of one round's pair table on agents of the given species:
/// every ordering of the agents equally likely, consecutive agents paired
/// (initiator first) and the last one out when n is odd — a uniform maximal
/// matching with uniform roles. Under a bias each pair whose responder alone
/// has species `preferred` swaps roles with probability `epsilon`.
std::map<PairTable, double> exact_pair_table_law(const std::vector<int>& species,
                                                 int preferred,
                                                 double epsilon) {
  std::vector<int> order(species.size());
  std::iota(order.begin(), order.end(), 0);
  double orderings = 0.0;
  std::map<PairTable, double> law;
  do {
    orderings += 1.0;
    // Each eligible pair either keeps its roles or swaps them.
    std::map<PairTable, double> branches{{PairTable{}, 1.0}};
    for (std::size_t i = 0; i + 1 < order.size(); i += 2) {
      const int a = species[static_cast<std::size_t>(order[i])];
      const int b = species[static_cast<std::size_t>(order[i + 1])];
      const bool eligible = a != preferred && b == preferred && epsilon > 0.0;
      std::map<PairTable, double> next;
      for (const auto& [table, pr] : branches) {
        PairTable kept = table;
        ++kept[static_cast<std::size_t>(a * 3 + b)];
        next[kept] += pr * (eligible ? 1.0 - epsilon : 1.0);
        if (eligible) {
          PairTable swapped = table;
          ++swapped[static_cast<std::size_t>(b * 3 + a)];
          next[swapped] += pr * epsilon;
        }
      }
      branches = std::move(next);
    }
    for (const auto& [table, pr] : branches) law[table] += pr;
  } while (std::next_permutation(order.begin(), order.end()));
  for (auto& [table, pr] : law) pr /= orderings;
  return law;
}

TEST(BatchEngine, OneRoundPairTableMatchesExactMatchingLaw) {
  // One one-shard round, 10^4 seeds, against the exact law enumerated over
  // all n! orderings: at n = 5 (one agent sits out) and at n = 6, with three
  // species, unbiased and under a SchedulerBias with ε = 1/2 towards
  // species 2.
  auto vars = make_var_space();
  const Protocol proto = make_partner_recorder(vars);
  ASSERT_EQ(var_bit(*vars->find("S0")), State{1});  // the kernel's bit 0
  const Guard prefer_two(parse_bool_expr("S1 & !S0", *vars));
  const int rounds = 10000;
  for (const std::vector<int>& species :
       {std::vector<int>{0, 0, 1, 1, 2}, std::vector<int>{0, 0, 0, 1, 1, 2}}) {
    for (const double epsilon : {0.0, 0.5}) {
      SCOPED_TRACE("n=" + std::to_string(species.size()) +
                   " epsilon=" + std::to_string(epsilon));
      std::vector<std::pair<State, std::uint64_t>> init;
      for (int sp = 0; sp < 3; ++sp)
        init.emplace_back(
            State(sp), std::count(species.begin(), species.end(), sp));
      const auto law = exact_pair_table_law(species, 2, epsilon);
      std::map<PairTable, double> seen;
      for (int r = 0; r < rounds; ++r) {
        BatchEngine::Params params;
        params.threads = 1;
        BatchEngine eng(proto, init, 100 + static_cast<std::uint64_t>(r),
                        params);
        if (epsilon > 0.0)
          eng.set_scheduler_bias(SchedulerBias{epsilon, prefer_two, 4});
        eng.step();
        PairTable table{};
        for (const auto& [s, c] : eng.species())
          if (s & 0x4) table[(s & 3) * 3 + (s >> 4 & 3)] += c;
        ASSERT_EQ(std::accumulate(table.begin(), table.end(), std::uint64_t{0}),
                  species.size() / 2);
        ASSERT_TRUE(law.count(table)) << "a table the law excludes";
        seen[table] += 1.0;
      }
      std::vector<double> observed, expected;
      for (const auto& [table, pr] : law) {
        observed.push_back(seen[table]);
        expected.push_back(pr * rounds);
      }
      std::size_t dof = 0;
      const double chi2 = chi_square_gof(observed, expected, &dof);
      ASSERT_GE(dof, 3u);
      EXPECT_LT(chi2, chi_square_critical_value(dof, 0.01));
    }
  }
}

TEST(BatchEngine, EpidemicHittingTimesMatchMatchingReference) {
  // KS two-sample test on the distribution of the epidemic saturation time
  // (first round with everyone infected), sharded batch vs exact global
  // matching. Same 1-round predicate grid on both sides.
  auto vars = make_var_space();
  const Protocol p = make_epidemic(vars);
  const VarId iv = *vars->find("I");
  const std::size_t n = 512;
  const int trials = 60;

  const auto hit_round = [&](SimBackend& b) {
    const auto t = b.run_until(
        [&](const SimBackend& e) {
          return e.count_matching(BoolExpr::var(iv)) == e.active_n();
        },
        400.0);
    EXPECT_TRUE(t.has_value());
    return t.value_or(400.0);
  };
  std::vector<double> ref, batch;
  for (int t = 0; t < trials; ++t) {
    Engine eng(p, epidemic_initial(*vars, n, 4),
               1000 + static_cast<std::uint64_t>(t),
               SchedulerKind::kRandomMatching);
    ref.push_back(hit_round(eng));
  }
  for (int t = 0; t < trials; ++t) {
    BatchEngine eng(p, epidemic_initial(*vars, n, 4),
                    7000 + static_cast<std::uint64_t>(t), small_params(2));
    ASSERT_EQ(eng.shards(), 2u);
    batch.push_back(hit_round(eng));
  }

  const double d = ks_statistic(ref, batch);
  EXPECT_LT(d, ks_critical_value(ref.size(), batch.size(), 0.01));
  const double mean_ref = summarize(ref).mean;
  const double mean_batch = summarize(batch).mean;
  EXPECT_NEAR(mean_batch, mean_ref, 0.10 * mean_ref);
}

// -- Oscillator / phase-clock agreement (T3 / T4 under the batch scheduler) --

std::vector<State> oscillator_initial(const VarSpace& vars, std::size_t n,
                                      std::size_t x_count) {
  const VarId b0 = *vars.find(kOscBit0);
  const VarId b1 = *vars.find(kOscBit1);
  const VarId x = *vars.find(kOscX);
  std::vector<State> init(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (i < x_count) {
      init[i] = var_bit(x);
    } else {
      const int sp = static_cast<int>(i % 3);
      init[i] = (sp & 1 ? var_bit(b0) : 0) | (sp & 2 ? var_bit(b1) : 0);
    }
  }
  return init;
}

/// Mean oscillation period: rounds between successive dominance switches
/// (some species above 70%), averaged over the observation window.
double measure_period(SimBackend& eng, const VarSpace& vars, std::size_t n,
                      double warmup, double window) {
  const VarId b0 = *vars.find(kOscBit0);
  const VarId b1 = *vars.find(kOscBit1);
  const VarId x = *vars.find(kOscX);
  const auto species_count = [&](int sp) {
    BoolExpr e0 = (sp & 1) ? BoolExpr::var(b0) : !BoolExpr::var(b0);
    BoolExpr e1 = (sp & 2) ? BoolExpr::var(b1) : !BoolExpr::var(b1);
    return eng.count_matching(!BoolExpr::var(x) && e0 && e1);
  };
  eng.run_rounds(warmup);
  int dominant = -1;
  int switches = 0;
  double first_switch = 0.0, last_switch = 0.0;
  const double t_end = eng.rounds() + window;
  while (eng.rounds() < t_end) {
    eng.run_rounds(10.0);
    for (int sp = 0; sp < 3; ++sp) {
      if (species_count(sp) > (n * 7) / 10) {
        if (sp != dominant) {
          if (dominant >= 0) {
            if (switches == 0) first_switch = eng.rounds();
            ++switches;
            last_switch = eng.rounds();
          }
          dominant = sp;
        }
        break;
      }
    }
  }
  EXPECT_GE(switches, 8) << "window too short to estimate a period";
  return switches > 1 ? (last_switch - first_switch) / (switches - 1) : 1e9;
}

TEST(BatchEquivalence, OscillatorPeriodWithinTenPercent) {
  // T3's observable (oscillation period) under the sharded batch scheduler
  // vs the exact-matching reference, same bitmask ruleset and n. Period
  // estimates average >= 8 switches; seeds are fixed, so the comparison is
  // reproducible, not flaky.
  auto vars = make_var_space();
  const Protocol proto = make_oscillator_protocol(vars);
  const std::size_t n = 2048;
  const double warmup = 4000.0, window = 30000.0;

  Engine ref(proto, oscillator_initial(*vars, n, 8), 21,
             SchedulerKind::kRandomMatching);
  const double p_ref = measure_period(ref, *vars, n, warmup, window);

  BatchEngine batch(proto, oscillator_initial(*vars, n, 8), 22,
                    small_params(2, /*migrate_every=*/4));
  ASSERT_EQ(batch.shards(), 2u);
  const double p_batch = measure_period(batch, *vars, n, warmup, window);

  EXPECT_NEAR(p_batch, p_ref, 0.10 * p_ref);
}

/// Rounds between successive changes of the digit most agents hold,
/// sampled on a 1-round grid (the first change only starts the clock).
std::vector<double> majority_digit_intervals(SimBackend& eng,
                                             const VarSpace& vars,
                                             double max_rounds,
                                             std::size_t want) {
  const auto majority_digit = [&] {
    std::array<std::uint64_t, 8> holders{};
    for (const auto& [s, c] : eng.species())
      holders[static_cast<std::size_t>(phase_clock_digit_of(s, vars))] += c;
    return std::max_element(holders.begin(), holders.end()) - holders.begin();
  };
  std::vector<double> intervals;
  auto last_digit = majority_digit();
  double last_change = eng.rounds();
  bool seen_first = false;
  while (eng.rounds() < max_rounds && intervals.size() < want) {
    eng.run_rounds(1.0);
    const auto d = majority_digit();
    if (d != last_digit) {
      if (seen_first) intervals.push_back(eng.rounds() - last_change);
      seen_first = true;
      last_digit = d;
      last_change = eng.rounds();
    }
  }
  return intervals;
}

TEST(BatchEquivalence, PhaseClockTickIntervalsMatchMatchingReference) {
  // T4's observable at population level (the rounds between changes of the
  // digit most agents hold) under the batch scheduler vs the exact-matching
  // reference, pooled over several seeds a side: mean within 10%, KS not
  // rejected at alpha = 0.01, chi-square on 8 shared bins below the
  // Wilson–Hilferty 0.01 critical point.
  auto vars = make_var_space();
  const Protocol proto = make_phase_clock_protocol(vars);
  const std::size_t n = 512;
  const int seeds = 6;
  const std::size_t want = 10;  // intervals per seed
  const double max_rounds = 500000.0;

  std::vector<double> ref_ticks, batch_ticks;
  for (int t = 0; t < seeds; ++t) {
    Engine ref(proto, phase_clock_initial_states(n, 8, *vars),
               31 + static_cast<std::uint64_t>(t),
               SchedulerKind::kRandomMatching);
    const auto r = majority_digit_intervals(ref, *vars, max_rounds, want);
    ASSERT_GE(r.size(), want);
    ref_ticks.insert(ref_ticks.end(), r.begin(), r.end());

    BatchEngine batch(proto, phase_clock_initial_states(n, 8, *vars),
                      131 + static_cast<std::uint64_t>(t),
                      small_params(2, /*migrate_every=*/4));
    ASSERT_EQ(batch.shards(), 2u);
    const auto b = majority_digit_intervals(batch, *vars, max_rounds, want);
    ASSERT_GE(b.size(), want);
    batch_ticks.insert(batch_ticks.end(), b.begin(), b.end());
  }

  const double mean_ref = summarize(ref_ticks).mean;
  const double mean_batch = summarize(batch_ticks).mean;
  EXPECT_NEAR(mean_batch, mean_ref, 0.10 * mean_ref);

  const double d = ks_statistic(ref_ticks, batch_ticks);
  EXPECT_LT(d, ks_critical_value(ref_ticks.size(), batch_ticks.size(), 0.01));

  std::size_t dof = 0;
  const double chi2 = chi_square_two_sample(ref_ticks, batch_ticks, 8, &dof);
  ASSERT_GE(dof, 1u);
  // Wilson–Hilferty chi-square quantile approximation at alpha = 0.01.
  const double k = static_cast<double>(dof);
  const double crit =
      k * std::pow(1.0 - 2.0 / (9.0 * k) + 2.326 * std::sqrt(2.0 / (9.0 * k)),
                   3.0);
  EXPECT_LT(chi2, crit);
}

}  // namespace
}  // namespace popproto
