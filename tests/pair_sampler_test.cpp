#include "core/pair_sampler.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <map>
#include <utility>
#include <vector>

#include "support/rng.hpp"
#include "support/stats.hpp"
#include "support/stirling.hpp"

namespace popproto {
namespace {

// Size of pair_sampler.cpp's log-factorial table: log_factorial(k) is a
// table load below it and Stirling's series from it on.
constexpr std::uint64_t kTableEdge = std::uint64_t{1} << 14;

// Exact log pmf helpers for building expected counts.
double log_binomial_pmf(std::uint64_t n, double p, std::uint64_t k) {
  return log_factorial(n) - log_factorial(k) - log_factorial(n - k) +
         static_cast<double>(k) * std::log(p) +
         static_cast<double>(n - k) * std::log1p(-p);
}

double log_hypergeometric_pmf(std::uint64_t good, std::uint64_t bad,
                              std::uint64_t sample, std::uint64_t k) {
  const std::uint64_t pop = good + bad;
  return log_factorial(good) - log_factorial(k) - log_factorial(good - k) +
         log_factorial(bad) - log_factorial(sample - k) -
         log_factorial(bad - (sample - k)) + log_factorial(sample) +
         log_factorial(pop - sample) - log_factorial(pop);
}

TEST(PairSampler, LogFactorialMatchesDirectSum) {
  double acc = 0.0;
  for (std::uint64_t k = 1; k <= 200; ++k) {
    acc += std::log(static_cast<double>(k));
    EXPECT_NEAR(log_factorial(k), acc, 1e-8 * std::max(1.0, acc)) << k;
  }
  // Both sides of the table edge, where log_factorial switches from table
  // loads to Stirling's series.
  long double sum = 0.0L;
  for (std::uint64_t k = 1; k <= kTableEdge + 64; ++k) {
    sum += std::log(static_cast<long double>(k));
    if (k + 64 < kTableEdge) continue;
    const double want = static_cast<double>(sum);
    EXPECT_NEAR(log_factorial(k), want, 1e-10 * want) << k;
  }
}

// Chi-square goodness of fit of `trials` draws from `draw()` against the
// exact pmf given by `log_pmf(k)` over support [0, kmax].
void expect_gof(std::uint64_t kmax,
                const std::function<std::uint64_t()>& draw,
                const std::function<double(std::uint64_t)>& log_pmf,
                std::size_t trials) {
  std::vector<double> observed(kmax + 1, 0.0), expected(kmax + 1, 0.0);
  for (std::size_t t = 0; t < trials; ++t) {
    const std::uint64_t k = draw();
    ASSERT_LE(k, kmax);
    ++observed[k];
  }
  for (std::uint64_t k = 0; k <= kmax; ++k)
    expected[k] = static_cast<double>(trials) * std::exp(log_pmf(k));
  std::size_t dof = 0;
  const double stat = chi_square_gof(observed, expected, &dof);
  ASSERT_GE(dof, 1u);
  // alpha = 0.001: loose enough that the suite's fixed seeds stay stable,
  // tight enough to catch an off-by-one or a wrong branch threshold.
  EXPECT_LT(stat, chi_square_critical_value(dof, 0.001))
      << "dof=" << dof;
}

TEST(PairSampler, BinomialInversionRegimeGof) {
  Rng rng(11);
  const std::uint64_t n = 40;
  const double p = 0.1;  // n p = 4 < 10: inversion path
  expect_gof(
      n, [&] { return sample_binomial(rng, n, p); },
      [&](std::uint64_t k) { return log_binomial_pmf(n, p, k); }, 40000);
}

TEST(PairSampler, BinomialModeInversionRegimeGof) {
  Rng rng(12);
  const std::uint64_t n = 300;
  const double p = 0.3;  // n p = 90, n p q = 63 < 2500: mode-centered path
  expect_gof(
      n, [&] { return sample_binomial(rng, n, p); },
      [&](std::uint64_t k) { return log_binomial_pmf(n, p, k); }, 40000);
}

TEST(PairSampler, BinomialRejectionRegimeGof) {
  Rng rng(22);
  const std::uint64_t n = 40000;
  const double p = 0.25;  // n p q = 7500 >= 2500: BTRS path
  expect_gof(
      n, [&] { return sample_binomial(rng, n, p); },
      [&](std::uint64_t k) { return log_binomial_pmf(n, p, k); }, 40000);
}

TEST(PairSampler, BinomialSymmetryRegimeGof) {
  Rng rng(13);
  const std::uint64_t n = 200;
  const double p = 0.85;  // p > 0.5: reflected draw
  expect_gof(
      n, [&] { return sample_binomial(rng, n, p); },
      [&](std::uint64_t k) { return log_binomial_pmf(n, p, k); }, 40000);
}

TEST(PairSampler, BinomialEdgeCases) {
  Rng rng(14);
  EXPECT_EQ(sample_binomial(rng, 0, 0.5), 0u);
  EXPECT_EQ(sample_binomial(rng, 17, 0.0), 0u);
  EXPECT_EQ(sample_binomial(rng, 17, 1.0), 17u);
}

TEST(PairSampler, HypergeometricInversionRegimeGof) {
  Rng rng(15);
  const std::uint64_t good = 15, bad = 85, sample = 20;  // mean = 3
  expect_gof(
      std::min(good, sample),
      [&] { return sample_hypergeometric(rng, good, bad, sample); },
      [&](std::uint64_t k) {
        if (sample > bad && k < sample - bad) return -1e30;
        return log_hypergeometric_pmf(good, bad, sample, k);
      },
      40000);
}

TEST(PairSampler, HypergeometricModeInversionRegimeGof) {
  Rng rng(16);
  // mean = 40, var ~ 19 < 2500: mode-centered inversion path.
  const std::uint64_t good = 200, bad = 300, sample = 100;
  expect_gof(
      std::min(good, sample),
      [&] { return sample_hypergeometric(rng, good, bad, sample); },
      [&](std::uint64_t k) {
        return log_hypergeometric_pmf(good, bad, sample, k);
      },
      40000);
}

TEST(PairSampler, HypergeometricRejectionRegimeGof) {
  Rng rng(23);
  // mean = 10000, var ~ 4900 >= 2500: HRUA ratio-of-uniforms path.
  const std::uint64_t good = 500000, bad = 500000, sample = 20000;
  expect_gof(
      sample,
      [&] { return sample_hypergeometric(rng, good, bad, sample); },
      [&](std::uint64_t k) {
        return log_hypergeometric_pmf(good, bad, sample, k);
      },
      40000);
}

TEST(PairSampler, HypergeometricSymmetryRegimesGof) {
  // sample > pop/2 and good > bad both reduce through reflections; exercise
  // the composition of the two.
  Rng rng(17);
  const std::uint64_t good = 60, bad = 40, sample = 80;
  expect_gof(
      std::min(good, sample),
      [&] { return sample_hypergeometric(rng, good, bad, sample); },
      [&](std::uint64_t k) {
        if (k < sample - bad) return -1e30;  // support floor: 80 - 40 = 40
        return log_hypergeometric_pmf(good, bad, sample, k);
      },
      40000);
}

TEST(PairSampler, HypergeometricEdgeCases) {
  Rng rng(18);
  EXPECT_EQ(sample_hypergeometric(rng, 0, 10, 5), 0u);
  EXPECT_EQ(sample_hypergeometric(rng, 10, 0, 5), 5u);
  EXPECT_EQ(sample_hypergeometric(rng, 10, 10, 0), 0u);
  EXPECT_EQ(sample_hypergeometric(rng, 10, 10, 20), 10u);
}

TEST(PairSampler, MultivariateHypergeometricMarginalsAndTotal) {
  Rng rng(19);
  const std::vector<std::uint64_t> counts = {50, 0, 30, 120, 7};
  const std::uint64_t total = 207, draws = 60;
  std::vector<std::uint64_t> out;
  std::vector<double> observed0(counts[0] + 1, 0.0);
  const std::size_t trials = 20000;
  for (std::size_t t = 0; t < trials; ++t) {
    sample_multivariate_hypergeometric(rng, counts, total, draws, out);
    std::uint64_t sum = 0;
    for (std::size_t i = 0; i < out.size(); ++i) {
      ASSERT_LE(out[i], counts[i]);
      sum += out[i];
    }
    ASSERT_EQ(sum, draws);
    ++observed0[out[0]];
  }
  // First coordinate is marginally Hypergeometric(counts[0], rest, draws).
  std::vector<double> expected0(counts[0] + 1, 0.0);
  for (std::uint64_t k = 0; k <= counts[0]; ++k) {
    if (draws < k) continue;
    expected0[k] =
        static_cast<double>(trials) *
        std::exp(log_hypergeometric_pmf(counts[0], total - counts[0], draws, k));
  }
  std::size_t dof = 0;
  const double stat = chi_square_gof(observed0, expected0, &dof);
  ASSERT_GE(dof, 1u);
  EXPECT_LT(stat, chi_square_critical_value(dof, 0.001));
}

// A weight per S x S pair table: its probability, or how often it was drawn.
using PairTableWeights = std::map<std::vector<std::uint64_t>, double>;

// The law deal_pair_table must sample: draw 2l agents one at a time without
// replacement and pair them in draw order. Enumerates every species
// sequence of the 2l draws with its probability and adds it to the pmf of
// the S x S pair table it produces.
void add_sequential_pair_tables(std::vector<std::uint64_t>& counts,
                                std::uint64_t remaining, std::uint64_t draws,
                                std::vector<std::uint64_t>& table,
                                std::size_t initiator, double p,
                                PairTableWeights& pmf) {
  if (draws == 0) {
    pmf[table] += p;
    return;
  }
  const std::size_t s = counts.size();
  const bool responder = draws % 2 == 1;
  for (std::size_t i = 0; i < s; ++i) {
    if (counts[i] == 0) continue;
    const double q = static_cast<double>(counts[i]) /
                     static_cast<double>(remaining);
    --counts[i];
    if (responder) ++table[initiator * s + i];
    add_sequential_pair_tables(counts, remaining - 1, draws - 1, table,
                               responder ? 0 : i, p * q, pmf);
    if (responder) --table[initiator * s + i];
    ++counts[i];
  }
}

TEST(PairSampler, DealtPairTableMatchesSequentialDraws) {
  const std::vector<std::uint64_t> counts = {6, 4, 3};
  const std::uint64_t total = 13, pairs = 4;
  PairTableWeights pmf;
  std::vector<std::uint64_t> urn = counts, table(counts.size() * counts.size());
  add_sequential_pair_tables(urn, total, 2 * pairs, table, 0, 1.0, pmf);

  Rng rng(24);
  const std::size_t trials = 100000;
  PairTableWeights seen;
  for (std::size_t t = 0; t < trials; ++t) {
    std::vector<std::uint64_t> left = counts;
    deal_pair_table(rng, left, total, pairs, table);
    // The dealt participants leave `counts`: species i loses its row and
    // column sums.
    for (std::size_t i = 0; i < counts.size(); ++i) {
      std::uint64_t dealt = 0;
      for (std::size_t j = 0; j < counts.size(); ++j)
        dealt += table[i * counts.size() + j] + table[j * counts.size() + i];
      ASSERT_EQ(left[i] + dealt, counts[i]) << "species " << i;
    }
    ASSERT_TRUE(pmf.count(table)) << "a table sequential draws cannot make";
    ++seen[table];
  }
  std::vector<double> observed, expected;
  for (const auto& [tab, p] : pmf) {
    observed.push_back(seen.count(tab) ? seen[tab] : 0.0);
    expected.push_back(static_cast<double>(trials) * p);
  }
  std::size_t dof = 0;
  const double stat = chi_square_gof(observed, expected, &dof);
  ASSERT_GE(dof, 10u);
  EXPECT_LT(stat, chi_square_critical_value(dof, 0.001)) << "dof=" << dof;
}

TEST(PairSampler, MultinomialGofPerCategoryAndTotal) {
  Rng rng(20);
  const std::vector<double> p = {0.05, 0.55, 0.4};
  const double p_total = 1.0;
  const std::uint64_t n = 50;
  const std::size_t trials = 20000;
  std::vector<std::vector<double>> observed(
      p.size(), std::vector<double>(n + 1, 0.0));
  std::vector<std::uint64_t> out;
  for (std::size_t t = 0; t < trials; ++t) {
    sample_multinomial(rng, n, p.data(), p.size(), p_total, out);
    std::uint64_t sum = 0;
    for (std::size_t c = 0; c < p.size(); ++c) {
      sum += out[c];
      ++observed[c][out[c]];
    }
    ASSERT_EQ(sum, n);
  }
  // Each category is marginally Binomial(n, p_c).
  for (std::size_t c = 0; c < p.size(); ++c) {
    std::vector<double> expected(n + 1, 0.0);
    for (std::uint64_t k = 0; k <= n; ++k)
      expected[k] = static_cast<double>(trials) *
                    std::exp(log_binomial_pmf(n, p[c], k));
    std::size_t dof = 0;
    const double stat = chi_square_gof(observed[c], expected, &dof);
    ASSERT_GE(dof, 1u);
    EXPECT_LT(stat, chi_square_critical_value(dof, 0.001)) << "category " << c;
  }
}

TEST(PairSampler, CollisionRunSurvivalGof) {
  // Compare the empirical run-length histogram (uncapped within [0, lmax])
  // against P(L* = l) = S(l) - S(l+1), S(l) = m!/(m-2l)! / (n(n-1))^l: the
  // full-population case m = n, and m = n/2, where the search's starting
  // point has a nonzero log(m/n) term.
  Rng rng(21);
  const std::pair<std::uint64_t, std::uint64_t> cases[] = {{64, 64},
                                                           {128, 64}};
  for (const auto& [n, m] : cases) {
    const std::uint64_t lmax = m / 2;
    const std::size_t trials = 30000;
    std::vector<double> observed(lmax + 1, 0.0);
    for (std::size_t t = 0; t < trials; ++t) {
      bool collided = false;
      const std::uint64_t l = sample_collision_run(rng, n, m, lmax, &collided);
      ASSERT_LE(l, lmax);
      if (!collided) {
        ASSERT_EQ(l, lmax);
      }
      ++observed[l];
    }
    const double log_pairs = std::log(static_cast<double>(n)) +
                             std::log(static_cast<double>(n - 1));
    const auto survival = [&](std::uint64_t l) {
      return std::exp(log_factorial(m) - log_factorial(m - 2 * l) -
                      static_cast<double>(l) * log_pairs);
    };
    std::vector<double> expected(lmax + 1, 0.0);
    for (std::uint64_t l = 0; l < lmax; ++l)
      expected[l] =
          static_cast<double>(trials) * (survival(l) - survival(l + 1));
    expected[lmax] = static_cast<double>(trials) * survival(lmax);
    std::size_t dof = 0;
    const double stat = chi_square_gof(observed, expected, &dof);
    ASSERT_GE(dof, 1u) << "n=" << n << " m=" << m;
    EXPECT_LT(stat, chi_square_critical_value(dof, 0.001))
        << "n=" << n << " m=" << m;
  }
}

// sample_collision_run before its search started at the quadratic root:
// one probe at lmax, then bisection over [1, lmax]. The rooted search must
// return what this returns from the same stream. Its log survival mirrors
// the sampler's term for term (table differences below kTableEdge, the
// expanded Stirling difference above), so both compare the same doubles.

std::uint64_t bisected_collision_run(Rng& rng, std::uint64_t n,
                                     std::uint64_t m, std::uint64_t lmax,
                                     bool* collided) {
  lmax = std::min(lmax, m / 2);
  if (lmax == 0) {
    *collided = true;
    return 0;
  }
  const auto log_falling_factorial = [](std::uint64_t mm, std::uint64_t k) {
    const std::uint64_t r = mm - k;
    if (r < kTableEdge) return log_factorial(mm) - log_factorial(r);
    const double md = static_cast<double>(mm);
    const double kd = static_cast<double>(k);
    const double rd = static_cast<double>(r);
    const double lr = -std::log1p(-kd / md);
    return (rd + 0.5) * lr + kd * std::log(md) - kd + stirling_series(md) -
           stirling_series(rd);
  };
  const double log_pairs = std::log(static_cast<double>(n)) +
                           std::log(static_cast<double>(n - 1));
  const auto log_survival = [&](std::uint64_t l) {
    return log_falling_factorial(m, 2 * l) -
           static_cast<double>(l) * log_pairs;
  };
  const double lu = std::log(1.0 - rng.uniform());
  if (log_survival(lmax) >= lu) {
    *collided = false;
    return lmax;
  }
  std::uint64_t lo = 1, hi = lmax;
  while (lo < hi) {
    const std::uint64_t mid = lo + (hi - lo) / 2;
    if (log_survival(mid) < lu) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  *collided = true;
  std::uint64_t run = lo - 1;
  if (run == 0 && m == n) run = 1;
  return run;
}

TEST(PairSampler, CollisionRunMatchesBisection) {
  for (const std::uint64_t n : {std::uint64_t{2}, std::uint64_t{3},
                                std::uint64_t{64}, std::uint64_t{4099},
                                std::uint64_t{1} << 22,
                                std::uint64_t{1} << 30}) {
    for (const std::uint64_t m : {std::uint64_t{2}, n / 2, n - 1, n}) {
      for (const std::uint64_t lmax :
           {std::uint64_t{1}, std::uint64_t{2}, std::uint64_t{7}, m / 2}) {
        if (lmax == 0) continue;  // m < 2: no interaction fits
        for (std::uint64_t seed = 1; seed <= 200; ++seed) {
          Rng rooted(seed), bisected(seed);
          bool rooted_collided = false, bisected_collided = false;
          const std::uint64_t got =
              sample_collision_run(rooted, n, m, lmax, &rooted_collided);
          const std::uint64_t want =
              bisected_collision_run(bisected, n, m, lmax, &bisected_collided);
          ASSERT_EQ(got, want)
              << "n=" << n << " m=" << m << " lmax=" << lmax
              << " seed=" << seed;
          ASSERT_EQ(rooted_collided, bisected_collided)
              << "n=" << n << " m=" << m << " lmax=" << lmax
              << " seed=" << seed;
          ASSERT_EQ(rooted(), bisected()) << "Rng states diverged";
        }
      }
    }
  }
}

TEST(PairSampler, CollisionRunRespectsTruncation) {
  Rng rng(22);
  for (int t = 0; t < 2000; ++t) {
    bool collided = false;
    const std::uint64_t l = sample_collision_run(rng, 1 << 20, 1 << 20, 7,
                                                 &collided);
    ASSERT_LE(l, 7u);
    // At n = 2^20 a 7-interaction collision is vanishingly rare; the bound
    // should be what ends the run.
    EXPECT_FALSE(collided);
    EXPECT_EQ(l, 7u);
  }
}

TEST(PairSampler, CollisionRunNoRoomMeansImmediateCollision) {
  Rng rng(23);
  bool collided = false;
  EXPECT_EQ(sample_collision_run(rng, 100, 1, 10, &collided), 0u);
  EXPECT_TRUE(collided);
}

}  // namespace
}  // namespace popproto
