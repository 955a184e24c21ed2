#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <sstream>

#include "analysis/report.hpp"

namespace popproto {
namespace {

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
