// Kernel equivalence tests: the memoized transition kernel must be a pure
// performance change — cached and uncached paths map every draw to the same
// result, so engines follow bit-identical trajectories from the same seed,
// with every special-cased fast path (sample_indexed, the sidx_ shadow, the
// prefetching block loop behind run_steps and run_rounds, the cap fallback)
// exercised explicitly.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <sstream>
#include <tuple>
#include <vector>

#include "clocks/oscillator.hpp"
#include "clocks/phase_clock.hpp"
#include "core/count_engine.hpp"
#include "core/engine.hpp"
#include "protocols/baselines.hpp"
#include "server/protocol_registry.hpp"
#include "support/rng.hpp"

namespace popproto {
namespace {

// ---------------------------------------------------------------------------
// Protocol fixtures: the three state-space regimes the kernel must cover.
// ---------------------------------------------------------------------------

struct Fixture {
  VarSpacePtr vars;
  Protocol proto;
  std::vector<State> init;
};

Fixture oscillator_fixture(std::size_t n) {
  auto vars = make_var_space();
  Protocol p = make_oscillator_protocol(vars);
  std::vector<State> init(n);
  const auto x = *vars->find(kOscX);
  for (std::size_t i = 0; i < n; ++i)
    init[i] = i < n / 16 ? var_bit(x)
                         : oscillator_state(static_cast<int>(i % 3), 0, *vars);
  return Fixture{vars, std::move(p), std::move(init)};
}

Fixture phase_clock_fixture(std::size_t n) {
  auto vars = make_var_space();
  Protocol p = make_phase_clock_protocol(vars);
  std::vector<State> init = phase_clock_initial_states(n, n / 16, *vars);
  return Fixture{vars, std::move(p), std::move(init)};
}

Fixture dv12_fixture(std::size_t n) {
  auto vars = make_var_space();
  Protocol p = make_dv12_majority_protocol(vars);
  const State ma = var_bit(*vars->find("MA")) | var_bit(*vars->find("STRONG"));
  const State mb = var_bit(*vars->find("MB")) | var_bit(*vars->find("STRONG"));
  std::vector<State> init(n);
  for (std::size_t i = 0; i < n; ++i) init[i] = i < n / 2 + 2 ? ma : mb;
  return Fixture{vars, std::move(p), std::move(init)};
}

// Explicit no-op outcomes beside changing ones, and a deterministic rule
// that is a no-op where its target bit is already set: the change weight
// and the conditional draw must skip both kinds of no-op.
Fixture mixed_outcome_fixture(std::size_t n) {
  auto vars = make_var_space();
  const VarId a = vars->intern("A");
  const VarId b = vars->intern("B");
  const VarId c = vars->intern("C");
  Outcome noop, set_c;
  noop.probability = 0.8;
  set_c.probability = 0.2;
  set_c.responder = update_from_formula(BoolExpr::var(c));
  Outcome clear_b;
  clear_b.probability = 0.3;
  clear_b.initiator = update_from_formula(!BoolExpr::var(b));
  Protocol p("mixed_outcomes", vars);
  p.add_thread("T", {Rule(BoolExpr::any(), BoolExpr::any(), {noop, set_c}),
                     make_rule(BoolExpr::var(a), BoolExpr::any(),
                               BoolExpr::any(), BoolExpr::var(b)),
                     Rule(BoolExpr::var(b), !BoolExpr::var(a), {clear_b})});
  std::vector<State> init(n);
  for (std::size_t i = 0; i < n; ++i)
    init[i] = (i % 2 ? var_bit(a) : 0) | (i % 3 ? 0 : var_bit(b));
  return Fixture{vars, std::move(p), std::move(init)};
}

// The two pair-kernel protocols (the validated P_o and C_o).
Fixture oscillator_kernel_fixture(std::size_t n) {
  auto vars = make_var_space();
  Protocol p = make_oscillator_kernel_protocol(vars);
  std::vector<State> init;
  for (const auto& [s, c] : oscillator_uniform_counts(n, n / 16, *vars))
    init.insert(init.end(), c, s);
  return Fixture{vars, std::move(p), std::move(init)};
}

Fixture clock_kernel_fixture(std::size_t n) {
  auto vars = make_var_space();
  Protocol p = make_clock_kernel_protocol(vars);
  std::vector<State> init =
      clock_kernel_initial_states(n, n / 16, ClockCodec(*vars, {}));
  return Fixture{vars, std::move(p), std::move(init)};
}

std::vector<Fixture> all_fixtures(std::size_t n) {
  std::vector<Fixture> fs;
  fs.push_back(oscillator_fixture(n));
  fs.push_back(phase_clock_fixture(n));
  fs.push_back(dv12_fixture(n));
  fs.push_back(mixed_outcome_fixture(n));
  fs.push_back(oscillator_kernel_fixture(n));
  fs.push_back(clock_kernel_fixture(n));
  return fs;
}

// ---------------------------------------------------------------------------
// Cache-level equivalence: cached == uncached on every API, on state pairs
// actually reachable by the protocol (harvested from a short engine run).
// ---------------------------------------------------------------------------

std::vector<State> reachable_states(const Fixture& f, std::uint64_t seed) {
  Engine eng(f.proto, f.init, seed);
  eng.run_steps(20'000);
  std::vector<State> out;
  for (std::size_t i = 0; i < eng.n(); ++i)
    out.push_back(eng.agent_state(i));
  return out;
}

TEST(TransitionCacheEquivalence, CachedMatchesUncachedOnRandomTriples) {
  for (const Fixture& f : all_fixtures(256)) {
    const std::vector<State> pool = reachable_states(f, 11);
    TransitionCache cache(f.proto);
    const TransitionCache& uncached = cache;
    Rng rng(99);
    for (int t = 0; t < 20'000; ++t) {
      const State sa = pool[rng.below(pool.size())];
      const State sb = pool[rng.below(pool.size())];
      const double u = rng.uniform();
      const PairOutcome c = cache.sample(sa, sb, u);
      const PairOutcome r = uncached.sample_uncached(sa, sb, u);
      ASSERT_EQ(c.a, r.a) << f.proto.name();
      ASSERT_EQ(c.b, r.b) << f.proto.name();
      // Change weights must agree exactly (same running sums, same doubles).
      const double cw = cache.change_weight(sa, sb);
      ASSERT_EQ(cw, uncached.change_weight_uncached(sa, sb)) << f.proto.name();
      if (cw > 0.0) {
        const double u01 = rng.uniform();
        const PairOutcome cc = cache.sample_change(sa, sb, u01);
        const PairOutcome rc = uncached.sample_change_uncached(sa, sb, u01);
        ASSERT_EQ(cc.a, rc.a) << f.proto.name();
        ASSERT_EQ(cc.b, rc.b) << f.proto.name();
      }
    }
    EXPECT_GT(cache.num_states(), 1u);
    EXPECT_GT(cache.num_pairs(), 1u);
    EXPECT_FALSE(cache.cap_reached());
  }
}

TEST(TransitionCacheEquivalence, IndexedPathMatchesStateBasedPath) {
  for (const Fixture& f : all_fixtures(256)) {
    const std::vector<State> pool = reachable_states(f, 12);
    TransitionCache cache(f.proto);
    Rng rng(100);
    for (int t = 0; t < 20'000; ++t) {
      const State sa = pool[rng.below(pool.size())];
      const State sb = pool[rng.below(pool.size())];
      const std::uint32_t ia = cache.state_index(sa);
      const std::uint32_t ib = cache.state_index(sb);
      ASSERT_NE(ia, TransitionCache::kNoState);
      ASSERT_NE(ib, TransitionCache::kNoState);
      const double u = rng.uniform();
      const IndexedPair r = cache.sample_indexed(ia, ib, u);
      const PairOutcome o = cache.sample(sa, sb, u);
      ASSERT_NE(r.a, TransitionCache::kNoState);
      ASSERT_NE(r.b, TransitionCache::kNoState);
      ASSERT_EQ(cache.state_at(r.a), o.a) << f.proto.name();
      ASSERT_EQ(cache.state_at(r.b), o.b) << f.proto.name();
    }
  }
}

TEST(TransitionCacheEquivalence, CapFallbackStillCorrect) {
  // A two-state cap on the phase clock forces constant cap misses; every
  // sample must still agree with the uncached walk, and the cap flag trips.
  const Fixture f = phase_clock_fixture(256);
  const std::vector<State> pool = reachable_states(f, 13);
  TransitionCache tiny(f.proto, /*max_states=*/2);
  Rng rng(101);
  for (int t = 0; t < 10'000; ++t) {
    const State sa = pool[rng.below(pool.size())];
    const State sb = pool[rng.below(pool.size())];
    const double u = rng.uniform();
    const PairOutcome c = tiny.sample(sa, sb, u);
    const PairOutcome r = tiny.sample_uncached(sa, sb, u);
    ASSERT_EQ(c.a, r.a);
    ASSERT_EQ(c.b, r.b);
    ASSERT_EQ(tiny.change_weight(sa, sb), tiny.change_weight_uncached(sa, sb));
  }
  EXPECT_TRUE(tiny.cap_reached());
  EXPECT_LE(tiny.num_states(), 2u);
}

// ---------------------------------------------------------------------------
// Pair kernels, one step exactly: for a kernel protocol (one thread, so slot
// width 1) the memoized and the uncached distributions of a pair must equal
// its outcome list — the same changing results with the same masses in
// order, each unconditional sub-interval mapping to its outcome, and the
// rest of [0, 1) a no-op.
// ---------------------------------------------------------------------------

void expect_pair_matches_kernel(TransitionCache& cache, const Protocol& proto,
                                State sa, State sb) {
  std::vector<KernelOutcome> outs;
  proto.threads()[0].kernel.outcomes(sa, sb, outs);
  // Expected conditional-on-change breakpoints: running change mass, runs
  // of equal results merged.
  std::vector<double> cum;
  std::vector<PairOutcome> res;
  double cw = 0.0;
  for (const KernelOutcome& o : outs) {
    if (o.initiator == sa && o.responder == sb) continue;
    cw += o.probability;
    if (!res.empty() && res.back().a == o.initiator &&
        res.back().b == o.responder) {
      cum.back() = cw;
    } else {
      cum.push_back(cw);
      res.push_back(PairOutcome{o.initiator, o.responder});
    }
  }
  TransitionCache::ChangeDistView view;
  ASSERT_TRUE(cache.change_dist(sa, sb, &view));
  std::vector<double> ucum;
  std::vector<PairOutcome> ures;
  const TransitionCache& uncached = cache;
  EXPECT_EQ(uncached.change_dist_uncached(sa, sb, ucum, ures), cw);
  EXPECT_EQ(view.change_weight, cw);
  ASSERT_EQ(view.count, cum.size());
  ASSERT_EQ(ucum.size(), cum.size());
  for (std::size_t k = 0; k < cum.size(); ++k) {
    EXPECT_EQ(view.cum[k], cum[k]);
    EXPECT_EQ(ucum[k], cum[k]);
    EXPECT_EQ(view.res[k].a, res[k].a);
    EXPECT_EQ(view.res[k].b, res[k].b);
    EXPECT_EQ(ures[k].a, res[k].a);
    EXPECT_EQ(ures[k].b, res[k].b);
  }
  // Unconditional draws: the middle of each outcome's sub-interval, and the
  // residual mass past the list.
  double lo = 0.0;
  for (const KernelOutcome& o : outs) {
    const double hi = lo + o.probability;
    if (hi > lo) {
      const double u = 0.5 * (lo + hi);
      for (const PairOutcome r :
           {cache.sample(sa, sb, u), uncached.sample_uncached(sa, sb, u)}) {
        EXPECT_EQ(r.a, o.initiator);
        EXPECT_EQ(r.b, o.responder);
      }
    }
    lo = hi;
  }
  if (lo < 1.0) {
    const double u = 0.5 * (lo + 1.0);
    EXPECT_EQ(cache.sample(sa, sb, u).b, sb);
    EXPECT_EQ(uncached.sample_uncached(sa, sb, u).b, sb);
  }
}

TEST(PairKernel, OscillatorOneStepOnAll49Pairs) {
  auto vars = make_var_space();
  const Protocol proto = make_oscillator_kernel_protocol(vars);
  std::vector<State> states = oscillator_species_states(*vars);
  states.push_back(var_bit(*vars->find(kOscX)));
  ASSERT_EQ(states.size(), 7u);
  TransitionCache cache(proto);
  const OscCodec codec(*vars);
  std::size_t changing = 0;
  for (const State sa : states)
    for (const State sb : states) {
      expect_pair_matches_kernel(cache, proto, sa, sb);
      changing += cache.change_weight(sa, sb) > 0.0 ? 1 : 0;
      // One outcome per way of the pair's one random choice: an X source
      // seeds one of three species, a weak predator meeting its prey
      // succeeds or fails, any other pair has one outcome.
      std::size_t ways = 1;
      if (codec.is_x(sa) && !codec.is_x(sb)) ways = 3;
      if (!codec.is_x(sa) && !codec.is_x(sb)) {
        const OscAgent pred = codec.decode(sa);
        if (!pred.strong && codec.decode(sb).species == (pred.species + 2) % 3)
          ways = 2;
      }
      std::vector<KernelOutcome> outs;
      proto.threads()[0].kernel.outcomes(sa, sb, outs);
      EXPECT_EQ(outs.size(), ways);
    }
  EXPECT_EQ(cache.num_pairs(), 49u);
  // Weak predation: A1+ on A3 converts with probability 1/2 only.
  const State a1 = oscillator_state(0, 0, *vars);
  const State a3 = oscillator_state(2, 0, *vars);
  EXPECT_EQ(cache.change_weight(a1, a3), 0.5);
  // X re-seeds: two of its three ways change an A2+ responder.
  EXPECT_EQ(cache.change_weight(var_bit(*vars->find(kOscX)),
                                oscillator_state(1, 0, *vars)),
            2.0 / 3.0);
  // Changing pairs: X on any of the 6 species states, the same species on
  // a + (6), predation on either prey level (12), deactivation of a ++ by
  // its predator (6).
  EXPECT_EQ(changing, 30u);
}

TEST(PairKernel, ClockOneStepOnSampledPairs) {
  auto vars = make_var_space();
  const ClockLevelParams prm;
  const Protocol proto = make_clock_kernel_protocol(vars, prm);
  const ClockCodec codec(*vars, prm);
  TransitionCache cache(proto);
  Rng rng(2024);
  const auto random_agent = [&](bool* is_x) {
    ClockAgent a;
    *is_x = rng.below(8) == 0;
    if (!*is_x) {
      a.osc.species = static_cast<std::uint8_t>(rng.below(3));
      a.osc.strong = rng.chance(0.5);
    }
    a.believed = static_cast<std::uint8_t>(rng.below(3));
    a.streak = static_cast<std::uint8_t>(rng.below(prm.believer_k));
    a.digit = static_cast<std::uint8_t>(rng.below(prm.module));
    return a;
  };
  for (int t = 0; t < 2000; ++t) {
    bool ax = false, bx = false;
    const ClockAgent a = random_agent(&ax);
    const ClockAgent b = random_agent(&bx);
    const State sa = codec.encode(a, ax);
    const State sb = codec.encode(b, bx);
    // The codec round-trips every reachable agent.
    const ClockAgent back = codec.decode(sa);
    ASSERT_EQ(back.digit, a.digit);
    ASSERT_EQ(back.streak, a.streak);
    ASSERT_EQ(back.believed, a.believed);
    ASSERT_EQ(codec.is_x(sa), ax);
    expect_pair_matches_kernel(cache, proto, sa, sb);
  }
  EXPECT_FALSE(cache.cap_reached());
}

// ---------------------------------------------------------------------------
// Engine trajectory equivalence: same seed => bit-identical populations,
// cached vs uncached, across schedulers and fault hooks.
// ---------------------------------------------------------------------------

void expect_identical(const Engine& a, const Engine& b, const char* what) {
  ASSERT_EQ(a.n(), b.n());
  for (std::size_t i = 0; i < a.n(); ++i)
    ASSERT_EQ(a.agent_state(i), b.agent_state(i))
        << what << " diverged at agent " << i;
  EXPECT_EQ(a.interactions(), b.interactions());
  EXPECT_DOUBLE_EQ(a.rounds(), b.rounds());
}

void run_and_compare(const Fixture& f, SchedulerKind sched,
                     const char* what) {
  Engine cached(f.proto, f.init, /*seed=*/21, sched);
  Engine uncached(f.proto, f.init, /*seed=*/21, sched);
  uncached.set_transition_cache(false);
  for (int chunk = 0; chunk < 10; ++chunk) {
    for (int s = 0; s < 2'000; ++s) {
      cached.step();
      uncached.step();
    }
    expect_identical(cached, uncached, what);
  }
}

TEST(EngineEquivalence, SequentialTrajectoriesBitIdentical) {
  for (const Fixture& f : all_fixtures(256))
    run_and_compare(f, SchedulerKind::kSequential, f.proto.name().c_str());
}

TEST(EngineEquivalence, MatchingTrajectoriesBitIdentical) {
  for (const Fixture& f : all_fixtures(128))
    run_and_compare(f, SchedulerKind::kRandomMatching, f.proto.name().c_str());
}

TEST(EngineEquivalence, RunStepsMatchesStepLoop) {
  // run_steps and run_rounds share one block loop when cached + sequential;
  // it must consume the RNG in the same order as plain step() calls and
  // stop exactly where the step loop stops.
  const Fixture f = phase_clock_fixture(256);
  Engine batched(f.proto, f.init, /*seed=*/22);
  Engine stepped(f.proto, f.init, /*seed=*/22);
  for (const std::uint64_t k : {1ull, 2ull, 7'919ull, 1ull, 10'000ull}) {
    batched.run_steps(k);
    for (std::uint64_t s = 0; s < k; ++s) stepped.step();
    expect_identical(batched, stepped, "run_steps");
  }

  // run_rounds against `while (rounds() < target) step()` on an odd n, where
  // 1/n is inexact and the last step of a call lands past the target; a
  // 1e-9-round call must still take one step. The crashed-agent and
  // drop-hook engines run the step() fallback under the same stop rule.
  const Fixture odd = phase_clock_fixture(257);
  enum class Config { kPlain, kCrashed, kDropHook };
  for (const Config config :
       {Config::kPlain, Config::kCrashed, Config::kDropHook}) {
    Engine looped(odd.proto, odd.init, /*seed=*/26);
    Engine reference(odd.proto, odd.init, /*seed=*/26);
    for (Engine* e : {&looped, &reference}) {
      if (config == Config::kCrashed) e->crash_agent(5);
      if (config == Config::kDropHook) {
        InjectionHook hook;
        hook.drop_interaction = [](Rng& r) { return r.chance(0.25); };
        e->set_injection_hook(std::move(hook));
      }
    }
    for (const double r : {0.3, 1.0, 2.5, 1e-9}) {
      const std::uint64_t before = looped.interactions();
      looped.run_rounds(r);
      const double target = reference.rounds() + r;
      while (reference.rounds() < target) reference.step();
      expect_identical(looped, reference, "run_rounds");
      EXPECT_EQ(looped.rounds(), reference.rounds()) << "bitwise time";
      EXPECT_GT(looped.interactions(), before);
      looped.run_steps(1'001);
      for (int s = 0; s < 1'001; ++s) reference.step();
      expect_identical(looped, reference, "run_steps between run_rounds");
    }
    EXPECT_TRUE(looped.rng() == reference.rng())
        << rng_state_hex(looped.rng()) << " vs "
        << rng_state_hex(reference.rng());
  }
}

TEST(EngineEquivalence, DropHookPreservesEquivalence) {
  const Fixture f = oscillator_fixture(256);
  const auto make = [&](bool cache) {
    auto eng = std::make_unique<Engine>(f.proto, f.init, /*seed=*/23);
    eng->set_transition_cache(cache);
    InjectionHook hook;
    hook.drop_interaction = [](Rng& r) { return r.chance(0.25); };
    eng->set_injection_hook(std::move(hook));
    return eng;
  };
  auto cached = make(true);
  auto uncached = make(false);
  for (int s = 0; s < 20'000; ++s) {
    cached->step();
    uncached->step();
  }
  expect_identical(*cached, *uncached, "drop hook");
}

TEST(EngineEquivalence, ChurnPreservesEquivalence) {
  // Crash/rejoin flips active_identity_ off and exercises the indirected
  // pair sampling; both paths must keep tracking each other through it.
  const Fixture f = phase_clock_fixture(128);
  Engine cached(f.proto, f.init, /*seed=*/24);
  Engine uncached(f.proto, f.init, /*seed=*/24);
  uncached.set_transition_cache(false);
  const State fresh = f.init[f.init.size() - 1];
  for (int round = 0; round < 6; ++round) {
    for (std::size_t i = 0; i < 20; ++i) {
      cached.crash_agent(3 * i + static_cast<std::size_t>(round));
      uncached.crash_agent(3 * i + static_cast<std::size_t>(round));
    }
    cached.run_steps(3'000);
    for (int s = 0; s < 3'000; ++s) uncached.step();
    for (std::size_t i = 0; i < 20; ++i) {
      const std::size_t a = 3 * i + static_cast<std::size_t>(round);
      cached.rejoin_agent(a, fresh);
      uncached.rejoin_agent(a, fresh);
    }
    expect_identical(cached, uncached, "churn");
  }
}

TEST(EngineEquivalence, ExternalMutationResyncsShadow) {
  // Writing states through set_state between runs must keep the sidx_
  // shadow exact, so the cached path never acts on a stale index.
  const Fixture f = oscillator_fixture(256);
  Engine cached(f.proto, f.init, /*seed=*/25);
  Engine uncached(f.proto, f.init, /*seed=*/25);
  uncached.set_transition_cache(false);
  for (int round = 0; round < 8; ++round) {
    cached.run_steps(2'500);
    for (int s = 0; s < 2'500; ++s) uncached.step();
    for (std::size_t i = 0; i < 32; ++i) {
      const State s = f.init[(i * 7 + static_cast<std::size_t>(round)) %
                             f.init.size()];
      cached.set_state(i, s);
      uncached.set_state(i, s);
    }
    expect_identical(cached, uncached, "external mutation");
  }
}

TEST(EngineEquivalence, TinyCapEngineStillBitIdentical) {
  // An engine whose cache cap overflows constantly (kNoState inputs and
  // results) must fall back per pair and still match the uncached engine.
  auto vars = make_var_space();
  Protocol p = make_phase_clock_protocol(vars);
  std::vector<State> init = phase_clock_initial_states(128, 8, *vars);
  // Exercise the fallback through the public surface: an uncached engine is
  // the reference, and a second reference built over the tiny-cap cache via
  // TransitionCache::sample drives the same draws.
  TransitionCache tiny(p, /*max_states=*/2);
  Engine uncached(p, init, /*seed=*/26);
  uncached.set_transition_cache(false);
  Rng shadow(26);  // replays the engine's draw order: pair, then uniform
  for (int s = 0; s < 30'000; ++s) {
    const auto [a, b] = shadow.distinct_pair(init.size());
    const double u = shadow.uniform();
    const PairOutcome o = tiny.sample(init[a], init[b], u);
    init[a] = o.a;
    init[b] = o.b;
    uncached.step();
  }
  EXPECT_TRUE(tiny.cap_reached());
  for (std::size_t i = 0; i < init.size(); ++i)
    ASSERT_EQ(init[i], uncached.agent_state(i)) << i;
}

// ---------------------------------------------------------------------------
// CountEngine equivalence: identical statistics cached vs uncached, in both
// direct and skip-ahead modes.
// ---------------------------------------------------------------------------

TEST(CountEngineEquivalence, SkipModeDv12ToSilence) {
  auto run = [](bool use_cache) {
    auto vars = make_var_space();
    const Protocol p = make_dv12_majority_protocol(vars);
    const State ma =
        var_bit(*vars->find("MA")) | var_bit(*vars->find("STRONG"));
    const State mb =
        var_bit(*vars->find("MB")) | var_bit(*vars->find("STRONG"));
    CountEngine eng(p, {{ma, 2'060}, {mb, 2'036}}, /*seed=*/31,
                    CountEngineMode::kSkip);
    eng.set_transition_cache(use_cache);
    while (eng.step()) {
    }
    return std::tuple{eng.interactions(), eng.effective_interactions(),
                      eng.rounds(), eng.species()};
  };
  const auto [ic, ec, rc, sc] = run(true);
  const auto [iu, eu, ru, su] = run(false);
  EXPECT_EQ(ic, iu);
  EXPECT_EQ(ec, eu);
  EXPECT_DOUBLE_EQ(rc, ru);
  EXPECT_EQ(sc, su);
  EXPECT_GT(ic, ec);  // skip mode must actually have skipped no-ops
}

TEST(CountEngineEquivalence, DirectModeOscillator) {
  auto run = [](bool use_cache) {
    auto vars = make_var_space();
    const Protocol p = make_oscillator_protocol(vars);
    const auto x = *vars->find(kOscX);
    std::vector<std::pair<State, std::uint64_t>> init;
    init.emplace_back(var_bit(x), 64);
    for (int s = 0; s < 3; ++s)
      init.emplace_back(oscillator_state(s, 0, *vars), 1'000);
    CountEngine eng(p, std::move(init), /*seed=*/32, CountEngineMode::kDirect);
    eng.set_transition_cache(use_cache);
    for (int s = 0; s < 50'000; ++s) eng.step();
    return std::tuple{eng.interactions(), eng.effective_interactions(),
                      eng.rounds(), eng.species()};
  };
  const auto [ic, ec, rc, sc] = run(true);
  const auto [iu, eu, ru, su] = run(false);
  EXPECT_EQ(ic, iu);
  EXPECT_EQ(ec, eu);
  EXPECT_DOUBLE_EQ(rc, ru);
  EXPECT_EQ(sc, su);
}

// Counters and species of a count engine driven a quarter round at a time
// for `quarters` quarters or, with quarters == 0, until its species table
// has gained a species and lost one (at most 400 rounds).
struct CountTrace {
  EngineCounters counters;
  double rounds = 0.0;
  std::vector<std::pair<State, std::uint64_t>> species;
  int quarters = 0;
  bool gained = false;
  bool lost = false;
};

CountTrace drive(CountEngine& eng, int quarters) {
  const auto has = [](const auto& species, State s) {
    return std::any_of(species.begin(), species.end(),
                       [s](const auto& sc) { return sc.first == s; });
  };
  CountTrace t;
  auto before = eng.species();
  while (quarters > 0 ? t.quarters < quarters
                      : !(t.gained && t.lost) && t.quarters < 1600) {
    eng.run_rounds(0.25);
    ++t.quarters;
    const auto now = eng.species();
    for (const auto& [s, c] : now) t.gained |= !has(before, s);
    for (const auto& [s, c] : before) t.lost |= !has(now, s);
    before = now;
  }
  t.counters = eng.counters();
  t.rounds = eng.rounds();
  t.species = std::move(before);
  return t;
}

void expect_same_run(const CountTrace& a, const CountTrace& b) {
  EXPECT_EQ(a.counters.interactions, b.counters.interactions);
  EXPECT_EQ(a.counters.effective_steps, b.counters.effective_steps);
  EXPECT_EQ(a.counters.skip_jumps, b.counters.skip_jumps);
  EXPECT_EQ(a.counters.batch_blocks, b.counters.batch_blocks);
  EXPECT_DOUBLE_EQ(a.rounds, b.rounds);
  EXPECT_EQ(a.species, b.species);
}

TEST(CountEngineEquivalence, SlotTableFollowsSpeciesChurn) {
  // The registry phase clock at n = 2^14 holds 25-26 species whose table
  // grows and compacts mid-run. The memoized path keeps each slot pair's
  // change weight in a table that every such change must invalidate; the
  // uncached path looks every weight up afresh.
  for (const CountEngineMode mode :
       {CountEngineMode::kSkip, CountEngineMode::kBatch}) {
    auto run = [mode](bool use_cache, int quarters) {
      const auto inst = make_protocol_instance("phase_clock", 1 << 14);
      CountEngine eng(*inst->protocol, inst->initial_counts, /*seed=*/51,
                      mode);
      eng.set_transition_cache(use_cache);
      return drive(eng, quarters);
    };
    SCOPED_TRACE(static_cast<int>(mode));
    const CountTrace cached = run(true, 0);
    ASSERT_TRUE(cached.gained && cached.lost)
        << "the species table never both grew and compacted";
    const CountTrace uncached = run(false, cached.quarters);
    expect_same_run(cached, uncached);
    EXPECT_GT(cached.counters.skip_jumps, 0u);
    if (mode == CountEngineMode::kBatch) {
      EXPECT_GT(cached.counters.batch_blocks, 0u);
    }
  }
}

TEST(CountEngineEquivalence, ResetAndRestoreReplaceSlotTable) {
  // reset_population and restore adopt a new species order: weights looked
  // up for the old order must not outlive it, even when both tables have
  // the same size.
  const std::uint64_t n = 1 << 14;
  const auto inst = make_protocol_instance("phase_clock", n);
  CountEngine ref(*inst->protocol, inst->initial_counts, /*seed=*/61,
                  CountEngineMode::kSkip);
  ref.run_rounds(10.0);
  ref.reset_population(ref.species());  // no zero-count slots
  std::stringstream snap;
  ref.snapshot(snap);
  const auto forward = ref.species();
  auto reversed = forward;
  std::reverse(reversed.begin(), reversed.end());
  // Builds an engine's table without changing a count: a jump cut short
  // before its first possible landing.
  const auto build_table = [n](CountEngine& eng) {
    eng.run_rounds(0.5 / static_cast<double>(n));
    EXPECT_EQ(eng.effective_interactions(), 0u);
    EXPECT_EQ(eng.counters().skip_jumps, 1u);
  };

  // An engine that built its table for `forward` and then took `reversed`
  // runs as one that held `reversed` from the start.
  CountEngine reset(*inst->protocol, forward, /*seed=*/62,
                    CountEngineMode::kSkip);
  CountEngine fresh(*inst->protocol, reversed, /*seed=*/62,
                    CountEngineMode::kSkip);
  build_table(reset);
  build_table(fresh);
  reset.reset_population(reversed);
  expect_same_run(drive(fresh, 40), drive(reset, 40));

  // An engine that built its table for `reversed` and then restored the
  // snapshot runs as the engine that took it.
  CountEngine target(*inst->protocol, reversed, /*seed=*/63,
                     CountEngineMode::kSkip);
  build_table(target);
  target.restore(snap);
  ASSERT_EQ(target.species(), forward);
  expect_same_run(drive(ref, 40), drive(target, 40));
}

// ---------------------------------------------------------------------------
// Bitmask phase-clock protocol structure (the benchmark workload itself).
// ---------------------------------------------------------------------------

TEST(PhaseClockProtocol, BuildsAndEnumeratesInitialStates) {
  auto vars = make_var_space();
  const Protocol p = make_phase_clock_protocol(vars);
  EXPECT_GT(p.num_rules(), 20u);
  const auto init = phase_clock_initial_states(64, 4, *vars);
  ASSERT_EQ(init.size(), 64u);
  for (const State s : init) EXPECT_EQ(phase_clock_digit_of(s, *vars), 0);
}

TEST(PhaseClockProtocol, DigitsAdvanceUnderTheEngine) {
  auto vars = make_var_space();
  const Protocol p = make_phase_clock_protocol(vars);
  // The rule-diluted believer chain is slow (digit ticks start around round
  // 4000 at this n); 16000 rounds is comfortably past the first wrap.
  Engine eng(p, phase_clock_initial_states(512, 32, *vars), /*seed=*/41);
  eng.run_steps(512 * 16'000);
  int max_digit = 0;
  for (std::size_t i = 0; i < eng.n(); ++i) {
    const int d = phase_clock_digit_of(eng.agent_state(i), *vars);
    EXPECT_GE(d, 0);
    EXPECT_LT(d, 8);
    if (d > max_digit) max_digit = d;
  }
  EXPECT_GT(max_digit, 0) << "no digit ever ticked";
  // The cache memoized a nontrivial reachable space along the way.
  EXPECT_GT(eng.transition_cache().num_states(), 16u);
  EXPECT_GT(eng.transition_cache().num_pairs(), 100u);
  EXPECT_FALSE(eng.transition_cache().cap_reached());
}

}  // namespace
}  // namespace popproto
