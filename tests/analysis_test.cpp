#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <sstream>

#include "analysis/report.hpp"
#include "core/engine.hpp"
#include "core/metrics.hpp"

namespace popproto {
namespace {

// ---------------------------------------------------------------------------
// core/metrics: VarTrace and crossing counts.
// ---------------------------------------------------------------------------

TEST(VarTrace, RecordsAtRequestedInterval) {
  auto vars = make_var_space();
  const VarId a = vars->intern("A");
  AgentPopulation pop(10, var_bit(a));
  VarTrace trace({a}, /*interval_rounds=*/2.0);
  for (double r = 0.0; r <= 10.0; r += 0.5) trace.record(r, pop);
  // Due points: 0, 2, 4, 6, 8, 10.
  EXPECT_EQ(trace.points().size(), 6u);
  for (const auto& p : trace.points()) EXPECT_EQ(p.counts[0], 10u);
}

TEST(VarTrace, TracksChangingCounts) {
  auto vars = make_var_space();
  const VarId a = vars->intern("A");
  AgentPopulation pop(4, 0);
  VarTrace trace({a}, 1.0);
  trace.record(0.0, pop);
  pop.set_state(0, var_bit(a));
  trace.record(1.0, pop);
  pop.set_state(1, var_bit(a));
  trace.record(2.0, pop);
  ASSERT_EQ(trace.points().size(), 3u);
  EXPECT_EQ(trace.points()[0].counts[0], 0u);
  EXPECT_EQ(trace.points()[1].counts[0], 1u);
  EXPECT_EQ(trace.points()[2].counts[0], 2u);
  const auto [lo, hi] = trace.range(0);
  EXPECT_EQ(lo, 0u);
  EXPECT_EQ(hi, 2u);
}

TEST(VarTrace, RecordCountsVariant) {
  auto vars = make_var_space();
  const VarId a = vars->intern("A");
  VarTrace trace({a}, 1.0);
  trace.record_counts(0.0, {5});
  trace.record_counts(0.5, {7});  // before the next due point: dropped
  trace.record_counts(1.5, {9});
  ASSERT_EQ(trace.points().size(), 2u);
  EXPECT_EQ(trace.points()[1].counts[0], 9u);
}

TEST(VarTrace, GridDoesNotDriftUnderUnevenHooks) {
  // Regression: hooks firing every 0.7 rounds used to re-anchor the next due
  // time at `observation + interval`, stretching the effective spacing to
  // 1.4 rounds (one point per ~1.4 rounds instead of per 1.0). The fixed
  // grid serves every integer point 0..21 exactly once.
  auto vars = make_var_space();
  const VarId a = vars->intern("A");
  VarTrace trace({a}, /*interval_rounds=*/1.0);
  for (int k = 0; k <= 30; ++k) trace.record_counts(0.7 * k, {1});
  EXPECT_EQ(trace.points().size(), 22u);
  // No two recorded points serve the same grid cell: spacing stays near the
  // interval instead of compounding the hook offset.
  for (std::size_t i = 1; i < trace.points().size(); ++i) {
    const double gap =
        trace.points()[i].round - trace.points()[i - 1].round;
    EXPECT_GE(gap, 0.69);
    EXPECT_LE(gap, 1.41);
  }
}

TEST(VarTrace, SparseObservationsCatchUpWithoutBacklog) {
  auto vars = make_var_space();
  const VarId a = vars->intern("A");
  VarTrace trace({a}, 1.0);
  trace.record_counts(0.0, {1});
  // A skip-ahead style jump over many grid points: exactly one point lands,
  // and the grid resumes at the next point after the landing round.
  trace.record_counts(10.3, {2});
  ASSERT_EQ(trace.points().size(), 2u);
  EXPECT_DOUBLE_EQ(trace.points()[1].round, 10.3);
  trace.record_counts(10.6, {3});  // before the next due point (11): dropped
  trace.record_counts(11.0, {4});
  ASSERT_EQ(trace.points().size(), 3u);
  EXPECT_EQ(trace.points()[2].counts[0], 4u);
}

TEST(VarTrace, ResetAllowsReuseAcrossTrials) {
  auto vars = make_var_space();
  const VarId a = vars->intern("A");
  VarTrace trace({a}, 2.0);
  for (double r = 0.0; r <= 8.0; r += 1.0) trace.record_counts(r, {1});
  ASSERT_EQ(trace.points().size(), 5u);
  trace.reset();
  EXPECT_TRUE(trace.points().empty());
  // The grid is re-anchored at 0: a fresh trial records from round 0 again
  // instead of waiting out the previous trial's due time.
  trace.record_counts(0.0, {9});
  ASSERT_EQ(trace.points().size(), 1u);
  EXPECT_EQ(trace.points()[0].counts[0], 9u);
}

TEST(Crossings, CountsUpwardCrossingsOnly) {
  std::vector<TracePoint> pts;
  for (const std::uint64_t v : {1u, 5u, 2u, 6u, 7u, 1u, 8u})
    pts.push_back(TracePoint{0.0, {v}});
  // Threshold 4: upward crossings at 1->5, 2->6, 1->8.
  EXPECT_EQ(count_upward_crossings(pts, 0, 4.0), 3u);
}

TEST(Crossings, EmptyAndConstantTraces) {
  EXPECT_EQ(count_upward_crossings({}, 0, 1.0), 0u);
  std::vector<TracePoint> flat(5, TracePoint{0.0, {10}});
  EXPECT_EQ(count_upward_crossings(flat, 0, 4.0), 0u);
}

TEST(VarTrace, IntegratesWithEngineRoundHook) {
  auto vars = make_var_space();
  const VarId i = vars->intern("I");
  Protocol p("epi", vars);
  p.add_thread("T", {make_rule(BoolExpr::var(i), BoolExpr::any(),
                               BoolExpr::any(), BoolExpr::var(i))});
  std::vector<State> init(500, 0);
  init[0] = var_bit(i);
  Engine eng(p, std::move(init), 3);
  VarTrace trace({i}, 1.0);
  for (int r = 0; r < 20; ++r) {
    eng.run_rounds(1.0);
    trace.record(eng.rounds(), eng.population());
  }
  ASSERT_GE(trace.points().size(), 15u);
  // The epidemic is monotone: recorded counts never decrease.
  for (std::size_t k = 1; k < trace.points().size(); ++k)
    EXPECT_GE(trace.points()[k].counts[0], trace.points()[k - 1].counts[0]);
  EXPECT_EQ(trace.points().back().counts[0], 500u);
}

// ---------------------------------------------------------------------------
// analysis/experiment: sweeps and fits.
// ---------------------------------------------------------------------------

TEST(RunSweep, AggregatesPerN) {
  const auto rows = run_sweep({10, 20}, 5, 42,
                              [](std::uint64_t n, std::uint64_t) {
                                return std::optional<double>(
                                    static_cast<double>(n) * 2.0);
                              });
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].n, 10u);
  EXPECT_EQ(rows[0].successes, 5u);
  EXPECT_DOUBLE_EQ(rows[0].value.median, 20.0);
  EXPECT_DOUBLE_EQ(rows[1].value.median, 40.0);
}

TEST(RunSweep, CountsFailures) {
  const auto rows = run_sweep({8}, 10, 42,
                              [](std::uint64_t, std::uint64_t seed) {
                                return seed % 2 == 0
                                           ? std::optional<double>(1.0)
                                           : std::nullopt;
                              });
  EXPECT_EQ(rows[0].trials, 10u);
  EXPECT_GT(rows[0].successes, 0u);
  EXPECT_LT(rows[0].successes, 10u);
}

TEST(RunSweep, SeedsAreDeterministicAndDistinct) {
  std::vector<std::uint64_t> seeds_a, seeds_b;
  auto collect = [](std::vector<std::uint64_t>& out) {
    return [&out](std::uint64_t, std::uint64_t seed) {
      out.push_back(seed);
      return std::optional<double>(1.0);
    };
  };
  run_sweep({4, 8}, 3, 7, collect(seeds_a));
  run_sweep({4, 8}, 3, 7, collect(seeds_b));
  EXPECT_EQ(seeds_a, seeds_b);
  std::sort(seeds_a.begin(), seeds_a.end());
  EXPECT_EQ(std::adjacent_find(seeds_a.begin(), seeds_a.end()), seeds_a.end());
}

// run_sweep_parallel contract: bit-identical rows at any thread count.

void expect_rows_equal(const std::vector<ScalingRow>& a,
                       const std::vector<ScalingRow>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].n, b[i].n);
    EXPECT_EQ(a[i].trials, b[i].trials);
    EXPECT_EQ(a[i].successes, b[i].successes);
    EXPECT_EQ(a[i].value.count, b[i].value.count);
    // Exact equality: same seeds, same trial values, same aggregation order.
    EXPECT_EQ(a[i].value.mean, b[i].value.mean);
    EXPECT_EQ(a[i].value.stddev, b[i].value.stddev);
    EXPECT_EQ(a[i].value.min, b[i].value.min);
    EXPECT_EQ(a[i].value.max, b[i].value.max);
    EXPECT_EQ(a[i].value.median, b[i].value.median);
    EXPECT_EQ(a[i].value.p10, b[i].value.p10);
    EXPECT_EQ(a[i].value.p90, b[i].value.p90);
  }
}

TEST(RunSweepParallel, RowsIdenticalToSerialAtAnyThreadCount) {
  // Seed-dependent values and a failure mode, so both the per-trial seed
  // chain and the success accounting are checked end to end.
  const auto fn = [](std::uint64_t n, std::uint64_t seed) {
    if (seed % 5 == 0) return std::optional<double>();  // deterministic fail
    return std::optional<double>(static_cast<double>(n) +
                                 static_cast<double>(seed % 97));
  };
  const std::vector<std::uint64_t> ns = {16, 32, 64};
  const auto serial = run_sweep(ns, 40, 1234, fn);
  for (const unsigned threads : {1u, 4u, 8u}) {
    const auto parallel = run_sweep_parallel(ns, 40, 1234, fn, threads);
    expect_rows_equal(serial, parallel);
  }
  // Failure accounting survived the fan-out: some trials failed, not all.
  for (const auto& row : serial) {
    EXPECT_EQ(row.trials, 40u);
    EXPECT_GT(row.successes, 0u);
    EXPECT_LT(row.successes, 40u);
    EXPECT_EQ(row.value.count, row.successes);
  }
}

TEST(RunSweepParallel, AllTrialsFailingYieldsEmptySummaries) {
  const auto fn = [](std::uint64_t, std::uint64_t) {
    return std::optional<double>();
  };
  const auto rows = run_sweep_parallel({8, 16}, 6, 9, fn, 4);
  ASSERT_EQ(rows.size(), 2u);
  for (const auto& row : rows) {
    EXPECT_EQ(row.trials, 6u);
    EXPECT_EQ(row.successes, 0u);
    EXPECT_EQ(row.value.count, 0u);
  }
}

TEST(RowFits, PolylogAndPowerOnSyntheticRows) {
  std::vector<ScalingRow> rows;
  for (const double e : {10.0, 12.0, 14.0, 16.0}) {
    ScalingRow r;
    r.n = static_cast<std::uint64_t>(std::pow(2.0, e));
    r.trials = r.successes = 1;
    r.value.median = 3.0 * std::pow(std::log(static_cast<double>(r.n)), 2.0);
    rows.push_back(r);
  }
  const PolylogChoice c = fit_rows_polylog(rows, 3);
  EXPECT_EQ(c.power, 2);
  EXPECT_NEAR(c.coefficient, 3.0, 0.01);
  for (auto& r : rows)
    r.value.median = 0.5 * std::pow(static_cast<double>(r.n), 0.7);
  const LinearFit f = fit_rows_power(rows);
  EXPECT_NEAR(f.slope, 0.7, 1e-6);
}

TEST(RowFits, SkipsFailedRows) {
  std::vector<ScalingRow> rows(3);
  rows[0].n = 100;
  rows[0].successes = 1;
  rows[0].value.median = 10;
  rows[1].n = 1000;
  rows[1].successes = 0;  // all trials failed: excluded from the fit
  rows[2].n = 10000;
  rows[2].successes = 1;
  rows[2].value.median = 20;
  const LinearFit f = fit_rows_power(rows);
  EXPECT_NEAR(f.slope, std::log(2.0) / std::log(100.0), 1e-9);
}

TEST(Pow2Range, ProducesPowers) {
  const auto r = pow2_range(3, 6);
  ASSERT_EQ(r.size(), 4u);
  EXPECT_EQ(r.front(), 8u);
  EXPECT_EQ(r.back(), 64u);
}

// ---------------------------------------------------------------------------
// analysis/report: bench scaffolding.
// ---------------------------------------------------------------------------

TEST(Report, ParseBenchArgs) {
  const char* argv_csv[] = {"bench", "--csv"};
  const BenchContext csv =
      parse_bench_args(2, const_cast<char**>(argv_csv));
  EXPECT_TRUE(csv.csv);
  const char* argv_plain[] = {"bench"};
  EXPECT_FALSE(parse_bench_args(1, const_cast<char**>(argv_plain)).csv);
}

TEST(Report, ScaledRespectsContext) {
  BenchContext ctx;
  ctx.scale = 2.5;
  EXPECT_EQ(scaled(10, ctx), 25u);
  ctx.scale = 0.01;
  EXPECT_EQ(scaled(10, ctx), 1u);  // never drops below 1
}

TEST(Report, ScalingColumnsMatchHeaders) {
  const auto headers = scaling_headers({"x"});
  Table t(headers);
  ScalingRow r;
  r.n = 64;
  r.trials = 10;
  r.successes = 9;
  r.value = summarize({1.0, 2.0, 3.0});
  t.row().add("v");
  add_scaling_columns(t, r);
  EXPECT_EQ(t.rows()[0].size(), headers.size());
  EXPECT_EQ(t.rows()[0][2], "9/10");
}

TEST(Report, HeaderMentionsClaimAndScale) {
  std::ostringstream os;
  BenchContext ctx;
  print_experiment_header(os, "T0", "some claim", ctx);
  EXPECT_NE(os.str().find("T0"), std::string::npos);
  EXPECT_NE(os.str().find("some claim"), std::string::npos);
  EXPECT_NE(os.str().find("POPPROTO_SCALE"), std::string::npos);
}

}  // namespace
}  // namespace popproto
