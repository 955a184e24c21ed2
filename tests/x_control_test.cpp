#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "clocks/hierarchy.hpp"
#include "clocks/x_control.hpp"
#include "core/count_engine.hpp"

namespace popproto {
namespace {

// ---------------------------------------------------------------------------
// Prop 5.3: pairwise elimination.
// ---------------------------------------------------------------------------

TEST(XElimination, ProtocolKeepsAtLeastOneX) {
  auto vars = make_var_space();
  const Protocol p = make_x_elimination_protocol(vars);
  const VarId x = *vars->find(kXVar);
  CountEngine eng(p, {{var_bit(x), 2000}}, 3);
  eng.run_rounds(50000);
  EXPECT_GE(eng.count_matching(BoolExpr::var(x)), 1u);
}

TEST(XElimination, CountIsNonIncreasing) {
  auto vars = make_var_space();
  const Protocol p = make_x_elimination_protocol(vars);
  const VarId x = *vars->find(kXVar);
  CountEngine eng(p, {{var_bit(x), 1000}}, 5);
  std::uint64_t last = 1000;
  for (int i = 0; i < 50; ++i) {
    eng.run_rounds(2.0);
    const std::uint64_t now = eng.count_matching(BoolExpr::var(x));
    EXPECT_LE(now, last);
    last = now;
  }
}

TEST(XElimination, ReachesSqrtNInSqrtNRounds) {
  // Prop 5.3 with eps = 1/2: #X < n^{1/2} after O(n^{1/2}) rounds.
  const std::uint64_t n = 1 << 16;
  auto vars = make_var_space();
  const Protocol p = make_x_elimination_protocol(vars);
  const VarId x = *vars->find(kXVar);
  CountEngine eng(p, {{var_bit(x), n}}, 7);
  const double thr = std::sqrt(static_cast<double>(n));
  const auto t = eng.run_until(
      [&](const SimBackend& e) {
        return static_cast<double>(e.count_matching(BoolExpr::var(x))) < thr;
      },
      1e7);
  ASSERT_TRUE(t.has_value());
  EXPECT_LT(*t, 40.0 * thr);
  EXPECT_GT(*t, thr / 40.0);
}

TEST(XElimination, TimeToThresholdScalesAsPowerOfN) {
  auto time_for = [](std::uint64_t n) {
    auto vars = make_var_space();
    const Protocol p = make_x_elimination_protocol(vars);
    const VarId x = *vars->find(kXVar);
    CountEngine eng(p, {{var_bit(x), n}}, 11);
    const double thr = std::sqrt(static_cast<double>(n));
    return *eng.run_until(
        [&](const SimBackend& e) {
          return static_cast<double>(e.count_matching(BoolExpr::var(x))) < thr;
        },
        1e9);
  };
  const double t1 = time_for(1 << 12);
  const double t2 = time_for(1 << 16);
  // Θ(sqrt(n)): quadrupling... n x16 -> time x4.
  EXPECT_GT(t2 / t1, 2.0);
  EXPECT_LT(t2 / t1, 9.0);
}

// ---------------------------------------------------------------------------
// Prop 5.5: k-level decaying signal.
// ---------------------------------------------------------------------------

TEST(KLevelSignal, ReachesThresholdInPolylogTime) {
  const std::uint64_t n = 1 << 15;
  auto vars = make_var_space();
  const Protocol p = make_klevel_signal_protocol(vars, 2);
  const VarId x = *vars->find(kXVar);
  const VarId z = *vars->find(kZVar);
  State init = var_bit(x) | var_bit(z);
  CountEngine eng(p, {{init, n}}, 13);
  const double thr = std::sqrt(static_cast<double>(n));
  const auto t = eng.run_until(
      [&](const SimBackend& e) {
        return static_cast<double>(e.count_matching(BoolExpr::var(x))) < thr;
      },
      2e5);
  ASSERT_TRUE(t.has_value());
  const double ln_n = std::log(static_cast<double>(n));
  EXPECT_LT(*t, 40.0 * ln_n * ln_n);  // polylog, not n^eps
}

TEST(KLevelSignal, ScalesSubPolynomially) {
  // Prop 5.5 vs Prop 5.3 shows up asymptotically: the elimination process
  // needs Θ(n^{1/2}) rounds to push #X below sqrt(n) (tested above to grow
  // ~4x per 16x n), while the k-level signal's time is polylog — its
  // growth over the same 16x size step must be far smaller.
  auto time_for = [&](std::uint64_t n) {
    auto vars = make_var_space();
    const Protocol p = make_klevel_signal_protocol(vars, 2);
    const VarId x = *vars->find(kXVar);
    const State init = var_bit(x) | var_bit(*vars->find(kZVar));
    CountEngine eng(p, {{init, n}}, 17);
    const double thr = std::sqrt(static_cast<double>(n));
    return *eng.run_until(
        [&](const SimBackend& e) {
          return static_cast<double>(e.count_matching(BoolExpr::var(x))) < thr;
        },
        1e9);
  };
  const double t1 = time_for(1 << 12);
  const double t2 = time_for(1 << 16);
  EXPECT_LT(t2 / t1, 3.0);  // elimination's ratio here is ~4 (= 16^{1/2})
}

TEST(KLevelSignal, HigherKDecaysSlowerInitially) {
  // |X| ~ n exp(-t^{1/k}): larger k keeps the signal around longer at the
  // tail. Compare #X at a fixed late time.
  const std::uint64_t n = 1 << 14;
  auto x_at = [&](int k, double t) {
    auto vars = make_var_space();
    const Protocol p = make_klevel_signal_protocol(vars, k);
    const VarId x = *vars->find(kXVar);
    const State init = var_bit(x) | var_bit(*vars->find(kZVar));
    CountEngine eng(p, {{init, n}}, 19);
    eng.run_rounds(t);
    return eng.count_matching(BoolExpr::var(x));
  };
  EXPECT_LT(x_at(1, 400.0), x_at(3, 400.0));
}

TEST(KLevelSignal, BuilderValidatesK) {
  auto vars = make_var_space();
  EXPECT_DEATH(make_klevel_signal_protocol(vars, 0), "k >= 1");
}

// ---------------------------------------------------------------------------
// Each process in its role as the X driver: the fixed X set through the
// clock hierarchy, elimination and the k-level signal as X drivers, and
// Prop 5.4's junta election (the `*XDriver` suites).
// ---------------------------------------------------------------------------

std::uint64_t x_count(const SimBackend& eng, const VarSpace& vars) {
  return eng.count_matching(BoolExpr::var(vars.at(kXVar)));
}

TEST(FixedXDriver, Constant) {
  const Protocol p = make_fixed_x_protocol(make_var_space());
  HierarchyParams hp;
  hp.levels = 1;
  ClockHierarchy h(100, hp, p, x_counts(100, 7, *p.vars()), 1);
  const auto count = [&] {
    std::uint64_t c = 0;
    for (std::size_t i = 0; i < h.n(); ++i) c += h.is_x(i) ? 1 : 0;
    return c;
  };
  EXPECT_EQ(count(), 7u);
  EXPECT_TRUE(h.is_x(0));
  EXPECT_TRUE(h.is_x(6));
  EXPECT_FALSE(h.is_x(7));
  h.interact_thread(0, 50, 0);  // thread 0 is the X process
  EXPECT_EQ(count(), 7u);
  h.run_rounds(20.0);
  EXPECT_EQ(count(), 7u);
}

TEST(EliminationXDriver, MatchesProtocolSemantics) {
  auto vars = make_var_space();
  const Protocol p = make_x_elimination_protocol(vars);
  CountEngine eng(p, x_counts(4096, 4096, *vars), 21);
  EXPECT_EQ(x_count(eng, *vars), 4096u);
  eng.run_rounds(400.0);
  EXPECT_GE(x_count(eng, *vars), 1u);
  EXPECT_LT(x_count(eng, *vars), 100u);
}

TEST(KLevelXDriver, DecaysAndMayDie) {
  auto vars = make_var_space();
  const Protocol p = make_klevel_signal_protocol(vars, 2);
  const State init = var_bit(vars->at(kXVar)) | var_bit(vars->at(kZVar));
  CountEngine eng(p, {{init, 1 << 14}}, 23);
  eng.run_rounds(30.0);
  const auto early = x_count(eng, *vars);
  EXPECT_GT(early, 0u);
  eng.run_rounds(1500.0);
  // Unlike elimination, the k-level signal is allowed to extinguish.
  EXPECT_LT(x_count(eng, *vars), early / 2 + 1);
}

// A junta state: max level `level`, climbing iff `climbing`.
State junta_state(int level, bool climbing, const VarSpace& vars) {
  State s = climbing ? var_bit(vars.at(kXVar)) : 0;
  for (int i = 0; i < 5; ++i)
    if (level & (1 << i)) s |= var_bit(vars.at("JUNTA_L" + std::to_string(i)));
  return s;
}

TEST(JuntaProtocol, OneOutcomePerPair) {
  auto vars = make_var_space();
  const Protocol p = make_junta_protocol(vars);
  ASSERT_EQ(p.threads().size(), 1u);
  ASSERT_TRUE(p.threads()[0].is_kernel());
  EXPECT_EQ(p.threads()[0].kernel.signature, "junta cap=30");
  // The ordered pair of junta states (la, xa), (lb, xb).
  const auto pair = [&](int la, bool xa, int lb, bool xb) {
    return std::make_pair(junta_state(la, xa, *vars),
                          junta_state(lb, xb, *vars));
  };
  // What the kernel's one outcome makes of that pair.
  const auto after = [&](int la, bool xa, int lb, bool xb) {
    const auto [a, b] = pair(la, xa, lb, xb);
    std::vector<KernelOutcome> out;
    p.threads()[0].kernel.outcomes(a, b, out);
    EXPECT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0].probability, 1.0);
    return std::make_pair(out[0].initiator, out[0].responder);
  };
  EXPECT_EQ(junta_level(junta_state(13, true, *vars), *vars), 13);
  // Same-level climbers: the initiator climbs, knocking the responder out.
  EXPECT_EQ(after(2, true, 2, true), pair(3, true, 3, false));
  // A climber meeting a larger max, either side, drops out.
  EXPECT_EQ(after(1, true, 3, false), pair(3, false, 3, false));
  EXPECT_EQ(after(4, true, 2, true), pair(4, true, 4, false));
  // A dropped-out agent climbs no more and only spreads its max.
  EXPECT_EQ(after(2, false, 2, true), pair(2, false, 2, true));
  // Climbing stops at the cap.
  EXPECT_EQ(after(30, true, 30, true), pair(30, true, 30, true));
}

TEST(JuntaProtocol, LiveSpeciesWithinTwoPerLevel) {
  // Prop 5.4's O(log log n) states, read as live species on counts: two
  // per level (climbing or not) and O(1) levels above log2 log2 n. Peak
  // over the first 60 rounds, sampled every quarter round.
  for (const int log_n : {10, 20}) {
    const auto n = std::uint64_t{1} << log_n;
    const auto bound = static_cast<std::size_t>(
        2 * (std::ceil(std::log2(static_cast<double>(log_n))) + 3));
    for (const std::uint64_t seed : {41u, 42u, 43u}) {
      auto vars = make_var_space();
      const Protocol p = make_junta_protocol(vars);
      CountEngine eng(p, x_counts(n, n, *vars), seed);
      std::size_t peak = 0;
      while (eng.rounds() < 60.0) {
        eng.run_rounds(0.25);
        peak = std::max(peak, eng.species().size());
      }
      EXPECT_LE(peak, bound) << "n = 2^" << log_n << ", seed " << seed;
    }
  }
}

TEST(JuntaXDriver, AlwaysKeepsAClimber) {
  auto vars = make_var_space();
  const Protocol p = make_junta_protocol(vars);
  CountEngine eng(p, x_counts(1 << 13, 1 << 13, *vars), 29);
  for (int i = 0; i < 40; ++i) {
    eng.run_rounds(5.0);
    ASSERT_GE(x_count(eng, *vars), 1u);
  }
}

TEST(JuntaXDriver, JuntaIsSmallAfterLogTime) {
  // Prop 5.4: #X <= n^{1-eps} within O(log n) rounds.
  const std::uint64_t n = 1 << 15;
  auto vars = make_var_space();
  const Protocol p = make_junta_protocol(vars);
  CountEngine eng(p, x_counts(n, n, *vars), 31);
  eng.run_rounds(8.0 * std::log(static_cast<double>(n)));
  const double limit = std::pow(static_cast<double>(n), 0.75);
  EXPECT_LE(static_cast<double>(x_count(eng, *vars)), limit);
  EXPECT_GE(x_count(eng, *vars), 1u);
}

TEST(JuntaXDriver, JuntaStabilizes) {
  auto vars = make_var_space();
  const Protocol p = make_junta_protocol(vars);
  CountEngine eng(p, x_counts(4096, 4096, *vars), 37);
  eng.run_rounds(120.0);
  const auto a = x_count(eng, *vars);
  eng.run_rounds(300.0);
  const auto b = x_count(eng, *vars);
  EXPECT_GE(a, b);
  EXPECT_LE(a - b, a / 2 + 1);  // stabilized (no collapse to 0)
  EXPECT_GE(b, 1u);
}

}  // namespace
}  // namespace popproto
