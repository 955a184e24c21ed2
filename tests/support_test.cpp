#include <gtest/gtest.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <atomic>
#include <cmath>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include "core/batch_engine.hpp"
#include "core/count_shard_engine.hpp"
#include "protocols/baselines.hpp"
#include "support/fitting.hpp"
#include "support/rng.hpp"
#include "support/stats.hpp"
#include "support/table.hpp"
#include "support/thread_pool.hpp"

namespace popproto {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i)
    if (a() == b()) ++equal;
  EXPECT_LT(equal, 3);
}

TEST(Rng, BelowStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const auto v = rng.below(13);
    EXPECT_LT(v, 13u);
  }
}

TEST(Rng, BelowIsRoughlyUniform) {
  Rng rng(9);
  std::array<int, 8> hist{};
  const int samples = 80000;
  for (int i = 0; i < samples; ++i) ++hist[rng.below(8)];
  for (int h : hist) {
    EXPECT_GT(h, samples / 8 - 800);
    EXPECT_LT(h, samples / 8 + 800);
  }
}

TEST(Rng, BetweenInclusive) {
  Rng rng(3);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.between(5, 7));
  EXPECT_EQ(seen.size(), 3u);
  EXPECT_TRUE(seen.count(5) && seen.count(7));
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(5);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(Rng, ChanceEdgeCases) {
  Rng rng(1);
  EXPECT_FALSE(rng.chance(0.0));
  EXPECT_TRUE(rng.chance(1.0));
  EXPECT_FALSE(rng.chance(-1.0));
}

TEST(Rng, ChanceFrequency) {
  Rng rng(11);
  int hits = 0;
  for (int i = 0; i < 50000; ++i)
    if (rng.chance(0.3)) ++hits;
  EXPECT_NEAR(hits / 50000.0, 0.3, 0.015);
}

TEST(Rng, GeometricMeanMatches) {
  Rng rng(13);
  const double p = 0.05;
  double sum = 0;
  const int samples = 40000;
  for (int i = 0; i < samples; ++i)
    sum += static_cast<double>(rng.geometric(p));
  // Mean of failures-before-success is (1-p)/p = 19.
  EXPECT_NEAR(sum / samples, (1 - p) / p, 0.8);
}

TEST(Rng, GeometricWithPOneIsZero) {
  Rng rng(1);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(rng.geometric(1.0), 0u);
}

TEST(Rng, DistinctPairNeverEqual) {
  Rng rng(17);
  for (int i = 0; i < 10000; ++i) {
    const auto [a, b] = rng.distinct_pair(5);
    EXPECT_NE(a, b);
    EXPECT_LT(a, 5u);
    EXPECT_LT(b, 5u);
  }
}

TEST(Rng, DistinctPairCoversAllOrderedPairs) {
  Rng rng(19);
  std::set<std::pair<std::uint64_t, std::uint64_t>> seen;
  for (int i = 0; i < 2000; ++i) seen.insert(rng.distinct_pair(4));
  EXPECT_EQ(seen.size(), 12u);  // 4*3 ordered pairs
}

TEST(Rng, SplitProducesIndependentStream) {
  Rng a(23);
  Rng b = a.split();
  int equal = 0;
  for (int i = 0; i < 100; ++i)
    if (a() == b()) ++equal;
  EXPECT_LT(equal, 3);
}

TEST(Stats, AccumulatorBasics) {
  Accumulator acc;
  for (double v : {1.0, 2.0, 3.0, 4.0}) acc.add(v);
  EXPECT_EQ(acc.count(), 4u);
  EXPECT_DOUBLE_EQ(acc.mean(), 2.5);
  EXPECT_DOUBLE_EQ(acc.min(), 1.0);
  EXPECT_DOUBLE_EQ(acc.max(), 4.0);
  EXPECT_NEAR(acc.variance(), 5.0 / 3.0, 1e-12);
}

TEST(Stats, AccumulatorSingleSampleVarianceZero) {
  Accumulator acc;
  acc.add(7.0);
  EXPECT_EQ(acc.variance(), 0.0);
}

TEST(Stats, AccumulatorEmptyExtremaDie) {
  // min()/max() of an empty accumulator used to silently return 0.0, which
  // poisons aggregates (a fake 0 minimum); now it's a hard check failure.
  Accumulator acc;
  EXPECT_DEATH(acc.min(), "empty accumulator");
  EXPECT_DEATH(acc.max(), "empty accumulator");
  acc.add(-3.0);
  EXPECT_DOUBLE_EQ(acc.min(), -3.0);
  EXPECT_DOUBLE_EQ(acc.max(), -3.0);
}

TEST(Stats, SummaryQuantiles) {
  std::vector<double> xs;
  for (int i = 1; i <= 100; ++i) xs.push_back(i);
  const Summary s = summarize(xs);
  EXPECT_EQ(s.count, 100u);
  EXPECT_NEAR(s.median, 50.5, 1e-9);
  EXPECT_NEAR(s.p10, 10.9, 1e-9);
  EXPECT_NEAR(s.p90, 90.1, 1e-9);
  EXPECT_EQ(s.min, 1.0);
  EXPECT_EQ(s.max, 100.0);
}

TEST(Stats, SummaryEmpty) {
  const Summary s = summarize({});
  EXPECT_EQ(s.count, 0u);
}

TEST(Stats, QuantileSortedInterpolates) {
  const std::vector<double> xs = {0.0, 10.0};
  EXPECT_DOUBLE_EQ(quantile_sorted(xs, 0.5), 5.0);
  EXPECT_DOUBLE_EQ(quantile_sorted(xs, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(quantile_sorted(xs, 1.0), 10.0);
}

TEST(Stats, QuantileSortedEndpointsAndSingleton) {
  const std::vector<double> one = {3.0};
  EXPECT_DOUBLE_EQ(quantile_sorted(one, 0.0), 3.0);
  EXPECT_DOUBLE_EQ(quantile_sorted(one, 0.5), 3.0);
  EXPECT_DOUBLE_EQ(quantile_sorted(one, 1.0), 3.0);
  // q=1 must hit the last element exactly (no off-by-one read past the end,
  // no interpolation residue).
  const std::vector<double> xs = {1.0, 2.0, 4.0, 8.0, 16.0};
  EXPECT_DOUBLE_EQ(quantile_sorted(xs, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(quantile_sorted(xs, 1.0), 16.0);
  EXPECT_DOUBLE_EQ(quantile_sorted(xs, 0.25), 2.0);
}

TEST(Table, MarkdownShape) {
  Table t({"a", "bb"});
  t.row().add(1).add("x");
  t.row().add(22).add("yy");
  const std::string md = t.to_markdown();
  EXPECT_NE(md.find("| a  | bb |"), std::string::npos);
  EXPECT_NE(md.find("| 22 | yy |"), std::string::npos);
}

TEST(Table, CsvEscaping) {
  Table t({"v"});
  t.row().add("a,b\"c");
  const std::string csv = t.to_csv();
  EXPECT_NE(csv.find("\"a,b\"\"c\""), std::string::npos);
}

TEST(Table, FractionCell) {
  Table t({"f"});
  t.row().add_fraction(3, 10);
  EXPECT_EQ(t.rows()[0][0], "3/10");
}

TEST(Table, FormatDouble) {
  EXPECT_EQ(format_double(1.23456, 2), "1.23");
  EXPECT_EQ(format_double(2.0, 0), "2");
}

TEST(Fitting, LinearExact) {
  const std::vector<double> x = {1, 2, 3, 4};
  const std::vector<double> y = {3, 5, 7, 9};  // y = 1 + 2x
  const LinearFit f = fit_linear(x, y);
  EXPECT_NEAR(f.slope, 2.0, 1e-9);
  EXPECT_NEAR(f.intercept, 1.0, 1e-9);
  EXPECT_NEAR(f.r_squared, 1.0, 1e-12);
}

TEST(Fitting, PolylogPowerRecovery) {
  // y = 5 (ln n)^2: the power-2 fit must beat powers 1 and 3.
  std::vector<double> n, y;
  for (double e = 8; e <= 20; e += 2) {
    n.push_back(std::pow(2.0, e));
    y.push_back(5.0 * std::pow(std::log(n.back()), 2.0));
  }
  const PolylogChoice c = best_polylog_power(n, y, 4);
  EXPECT_EQ(c.power, 2);
  EXPECT_NEAR(c.coefficient, 5.0, 0.01);
  EXPECT_GT(c.r_squared, 0.9999);
}

TEST(Fitting, PowerLawRecovery) {
  // y = 3 n^0.5.
  std::vector<double> n, y;
  for (double e = 6; e <= 18; e += 2) {
    n.push_back(std::pow(2.0, e));
    y.push_back(3.0 * std::sqrt(n.back()));
  }
  const LinearFit f = fit_power_law(n, y);
  EXPECT_NEAR(f.slope, 0.5, 1e-6);
  EXPECT_NEAR(std::exp(f.intercept), 3.0, 1e-6);
}

TEST(Fitting, PowerLawIgnoresZeros) {
  const std::vector<double> n = {10, 100, 1000};
  const std::vector<double> y = {0.0, 10.0, 100.0};
  const LinearFit f = fit_power_law(n, y);
  EXPECT_NEAR(f.slope, 1.0, 1e-9);
}

TEST(Fitting, DescribePolylogMentionsPower) {
  PolylogChoice c;
  c.power = 3;
  c.coefficient = 1.5;
  c.r_squared = 0.99;
  EXPECT_NE(describe_polylog(c).find("(ln n)^3"), std::string::npos);
}

TEST(TwoSample, KsZeroOnIdenticalSamples) {
  const std::vector<double> a = {1, 2, 3, 4, 5};
  EXPECT_DOUBLE_EQ(ks_statistic(a, a), 0.0);
}

TEST(TwoSample, KsOneOnDisjointSupports) {
  EXPECT_DOUBLE_EQ(ks_statistic({1, 2, 3}, {10, 11, 12}), 1.0);
}

TEST(TwoSample, KsDetectsShiftButNotNoise) {
  // Same uniform law twice vs a clearly shifted copy, against the 1%
  // critical value at these sample sizes.
  Rng rng(5);
  std::vector<double> a, b, shifted;
  for (int i = 0; i < 400; ++i) {
    a.push_back(rng.uniform());
    b.push_back(rng.uniform());
    shifted.push_back(rng.uniform() + 0.5);
  }
  const double crit = ks_critical_value(a.size(), b.size(), 0.01);
  EXPECT_LT(ks_statistic(a, b), crit);
  EXPECT_GT(ks_statistic(a, shifted), crit);
}

TEST(TwoSample, KsCriticalMatchesTable) {
  // c(0.05) = 1.358..., equal sizes m = n = 100 -> 1.358 * sqrt(2/100).
  EXPECT_NEAR(ks_critical_value(100, 100, 0.05), 1.358 * std::sqrt(0.02),
              1e-3);
}

TEST(TwoSample, ChiSquareZeroOnIdenticalSamples) {
  const std::vector<double> a = {1, 1, 2, 3, 5, 8, 13};
  std::size_t dof = 99;
  EXPECT_DOUBLE_EQ(chi_square_two_sample(a, a, 4, &dof), 0.0);
  EXPECT_GT(dof, 0u);
}

TEST(TwoSample, ChiSquareSeparatesDifferentLaws) {
  Rng rng(6);
  std::vector<double> a, b, shifted;
  for (int i = 0; i < 500; ++i) {
    a.push_back(rng.uniform());
    b.push_back(rng.uniform());
    shifted.push_back(0.5 * rng.uniform());
  }
  std::size_t dof = 0;
  const double same = chi_square_two_sample(a, b, 8, &dof);
  EXPECT_GE(dof, 4u);
  EXPECT_LT(same, 3.0 * static_cast<double>(dof));
  const double diff = chi_square_two_sample(a, shifted, 8, &dof);
  EXPECT_GT(diff, 10.0 * static_cast<double>(dof));
}

// threads = 0 honours the affinity mask (taskset, cpusets), as TaskQueue
// and CountShardEngine do, rather than the machine's core count.
TEST(ThreadPool, ZeroThreadsMeansProbedHardwareThreads) {
  EXPECT_EQ(ThreadPool(0).size(), probe_hardware_threads());
}

TEST(ThreadPool, ParallelForVisitsEveryIndexExactlyOnce) {
  for (const unsigned threads : {1u, 4u}) {
    const ThreadPool pool(threads);
    const std::size_t size = pool.size();
    for (const std::size_t count :
         {std::size_t{0}, std::size_t{1}, size - 1, size, 10 * size,
          std::size_t{1000}}) {
      std::vector<std::atomic<int>> visits(count);
      pool.parallel_for(count, [&](std::size_t i) {
        visits[i].fetch_add(1, std::memory_order_relaxed);
      });
      for (std::size_t i = 0; i < count; ++i)
        EXPECT_EQ(visits[i].load(), 1)
            << "threads=" << threads << " count=" << count << " i=" << i;
    }
  }
}

/// The kernel's id of the calling thread. Linux hands thread ids out in
/// increasing order, so a thread started later carries a larger one.
long kernel_tid() { return syscall(SYS_gettid); }

TEST(ThreadPool, HelpersStartWithThePoolAndParkBetweenCalls) {
  const ThreadPool pool(4);
  long started_after = 0;  // the id of a thread started after the pool's
  std::thread([&] { started_after = kernel_tid(); }).join();
  std::mutex mu;
  std::set<long> seen;
  for (int call = 0; call < 200; ++call)
    pool.parallel_for(pool.size(), [&](std::size_t) {
      const long tid = kernel_tid();
      const std::lock_guard<std::mutex> lock(mu);
      seen.insert(tid);
    });
  EXPECT_LE(seen.size(), pool.size());
  for (const long tid : seen)
    EXPECT_LT(tid, started_after) << "a thread started after construction";
}

TEST(ThreadPool, OneThreadPoolRunsEverythingOnTheCaller) {
  const ThreadPool pool(1);
  ASSERT_EQ(pool.size(), 1u);
  const std::thread::id caller = std::this_thread::get_id();
  std::size_t ran = 0;
  pool.parallel_for(40, [&](std::size_t) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    ++ran;
  });
  EXPECT_EQ(ran, 40u);
}

// The sharded engines own a pool each; destroying one whose helpers are
// parked, after rounds or before any, must join them and return.
TEST(ThreadPool, ShardedEnginesConstructAndDestroyRepeatedly) {
  auto vars = make_var_space();
  const Protocol p = make_approximate_majority_protocol(vars);
  const State a = var_bit(*vars->find("BA"));
  const State b = var_bit(*vars->find("BB"));
  std::vector<State> agents(1024, a);
  for (std::size_t i = 0; i < agents.size(); i += 2) agents[i] = b;
  for (std::uint64_t cycle = 0; cycle < 50; ++cycle) {
    const double rounds = static_cast<double>(cycle % 2) * 2.0;
    BatchEngine::Params bp;
    bp.threads = 4;
    bp.min_shard = 64;
    BatchEngine batch(p, agents, cycle, bp);
    ASSERT_EQ(batch.shards(), 4u);
    batch.run_rounds(rounds);

    CountShardEngine::Params cp;
    cp.shards = 4;
    cp.threads = 4;
    CountShardEngine shard(p, {{a, 2048}, {b, 2048}}, cycle, cp);
    ASSERT_EQ(shard.threads(), 4u);
    shard.run_rounds(rounds);
  }
}

}  // namespace
}  // namespace popproto
