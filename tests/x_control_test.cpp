#include <gtest/gtest.h>

#include <cmath>

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
// Typed drivers.
// ---------------------------------------------------------------------------

TEST(FixedXDriver, Constant) {
  auto d = make_fixed_x_driver(100, 7);
  EXPECT_EQ(d->x_count(), 7u);
  EXPECT_TRUE(d->is_x(0));
  EXPECT_TRUE(d->is_x(6));
  EXPECT_FALSE(d->is_x(7));
  Rng rng(1);
  d->interact(0, 50, rng);
  EXPECT_EQ(d->x_count(), 7u);
}

TEST(EliminationXDriver, MatchesProtocolSemantics) {
  XDriverHarness h(make_elimination_x_driver(4096), 21);
  EXPECT_EQ(h.driver().x_count(), 4096u);
  h.run_rounds(400.0);
  EXPECT_GE(h.driver().x_count(), 1u);
  EXPECT_LT(h.driver().x_count(), 100u);
}

TEST(EliminationXDriver, CountMatchesFlags) {
  auto d = make_elimination_x_driver(256);
  Rng rng(3);
  XDriver* dr = d.get();
  for (int i = 0; i < 20000; ++i) {
    const auto [a, b] = rng.distinct_pair(256);
    dr->interact(a, b, rng);
  }
  std::uint64_t scan = 0;
  for (std::size_t i = 0; i < 256; ++i)
    if (dr->is_x(i)) ++scan;
  EXPECT_EQ(scan, dr->x_count());
}

TEST(KLevelXDriver, DecaysAndMayDie) {
  XDriverHarness h(make_klevel_x_driver(1 << 14, 2), 23);
  h.run_rounds(30.0);
  const auto early = h.driver().x_count();
  EXPECT_GT(early, 0u);
  h.run_rounds(1500.0);
  // Unlike elimination, the k-level signal is allowed to extinguish.
  EXPECT_LT(h.driver().x_count(), early / 2 + 1);
}

TEST(JuntaXDriver, AlwaysKeepsAClimber) {
  XDriverHarness h(make_junta_x_driver(1 << 13), 29);
  for (int i = 0; i < 40; ++i) {
    h.run_rounds(5.0);
    ASSERT_GE(h.driver().x_count(), 1u);
  }
}

TEST(JuntaXDriver, JuntaIsSmallAfterLogTime) {
  // Prop 5.4: #X <= n^{1-eps} within O(log n) rounds.
  const std::size_t n = 1 << 15;
  XDriverHarness h(make_junta_x_driver(n), 31);
  h.run_rounds(8.0 * std::log(static_cast<double>(n)));
  const double limit = std::pow(static_cast<double>(n), 0.75);
  EXPECT_LE(static_cast<double>(h.driver().x_count()), limit);
  EXPECT_GE(h.driver().x_count(), 1u);
}

TEST(JuntaXDriver, JuntaStabilizes) {
  XDriverHarness h(make_junta_x_driver(4096), 37);
  h.run_rounds(120.0);
  const auto a = h.driver().x_count();
  h.run_rounds(300.0);
  const auto b = h.driver().x_count();
  EXPECT_GE(a, b);
  EXPECT_LE(a - b, a / 2 + 1);  // stabilized (no collapse to 0)
  EXPECT_GE(b, 1u);
}

}  // namespace
}  // namespace popproto
