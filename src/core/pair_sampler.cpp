#include "core/pair_sampler.hpp"

#include <algorithm>
#include <array>
#include <cmath>

#include "support/check.hpp"
#include "support/stirling.hpp"

namespace popproto {

namespace {

// log k! for k < kLogFactTableSize, built once at first use. A kBatch block
// deals its participants from one population-scale draw; every later draw is
// over that pool of at most 4 sqrt(n) agents (two per interaction, at most
// the auto cap of 2 sqrt(n) interactions), so up to n = 2^24 per engine its
// pmf evaluations are table loads instead of Stirling logs. Population-scale
// arguments take the series path. 2^14 doubles are 128 KiB. Accumulated in
// long double so the summation error stays below the Stirling tail
// truncation (~1e-11).
constexpr std::size_t kLogFactTableSize = std::size_t{1} << 14;

const double* log_fact_table() {
  static const std::array<double, kLogFactTableSize> table = [] {
    std::array<double, kLogFactTableSize> t{};
    long double acc = 0.0L;
    t[0] = 0.0;
    for (std::size_t k = 1; k < kLogFactTableSize; ++k) {
      acc += std::log(static_cast<long double>(k));
      t[k] = static_cast<double>(acc);
    }
    return t;
  }();
  return table.data();
}

// Inversion for Binomial(n, p) with p <= 0.5 and modest mean: walk the pmf
// recurrence P(k+1) = P(k) (n-k) p / ((k+1) q) from 0 until the cumulative
// passes U. Exact; cost O(mean + a few sd).
std::uint64_t binomial_inversion(Rng& rng, std::uint64_t n, double p) {
  const double q = 1.0 - p;
  const double ratio = p / q;
  double pk = std::exp(static_cast<double>(n) * std::log1p(-p));  // q^n
  double cum = pk;
  const double u = rng.uniform();
  std::uint64_t k = 0;
  while (cum <= u && k < n) {
    pk *= static_cast<double>(n - k) * ratio / static_cast<double>(k + 1);
    ++k;
    cum += pk;
  }
  return k;
}

// Mode-centered inversion for Binomial(n, p), p <= 0.5: evaluate the pmf at
// the mode, then sweep outward adding terms alternately above and below
// until the cumulative passes U. Any fixed enumeration order is a valid
// inversion, and starting at the mode makes the expected number of
// pmf-recurrence steps O(sd) instead of O(mean) — the winning regime for
// the moderate-sd draws batch sampling does per block.
std::uint64_t binomial_mode_inversion(Rng& rng, std::uint64_t n, double p) {
  const double q = 1.0 - p;
  const auto m = static_cast<std::uint64_t>((static_cast<double>(n) + 1.0) * p);
  const double lpm = log_factorial(n) - log_factorial(m) -
                     log_factorial(n - m) +
                     static_cast<double>(m) * std::log(p) +
                     static_cast<double>(n - m) * std::log1p(-p);
  const double pm = std::exp(lpm);
  const double u = rng.uniform();
  double cum = pm;
  if (cum > u) return m;
  double pu = pm, pd = pm;
  std::uint64_t ku = m, kd = m;
  for (;;) {
    bool advanced = false;
    if (ku < n) {
      pu *= static_cast<double>(n - ku) * p /
            (static_cast<double>(ku + 1) * q);
      ++ku;
      cum += pu;
      advanced = true;
      if (cum > u) return ku;
    }
    if (kd > 0) {
      pd *= static_cast<double>(kd) * q /
            (static_cast<double>(n - kd + 1) * p);
      --kd;
      cum += pd;
      advanced = true;
      if (cum > u) return kd;
    }
    if (!advanced) return m;  // float slack: full support enumerated
  }
}

// Hörmann's BTRS transformed rejection for Binomial(n, p), p in (0, 0.5],
// n p >= 10, with the exact log-pmf acceptance test (no squeeze steps —
// simpler, still exact).
std::uint64_t binomial_btrs(Rng& rng, std::uint64_t n, double p) {
  const double nd = static_cast<double>(n);
  const double q = 1.0 - p;
  const double np = nd * p;
  const double spq = std::sqrt(np * q);
  const double b = 1.15 + 2.53 * spq;
  const double a = -0.0873 + 0.0248 * b + 0.01 * p;
  const double c = np + 0.5;
  const double vr = 0.92 - 4.2 / b;
  const double urvr = 0.86 * vr;
  const double alpha = (2.83 + 5.1 / b) * spq;
  const double lpq = std::log(p / q);
  const auto m = static_cast<std::uint64_t>((nd + 1.0) * p);  // pmf mode
  const double h = log_factorial(m) + log_factorial(n - m);
  for (;;) {
    double v = rng.uniform();
    double u;
    if (v <= urvr) {
      u = v / vr - 0.43;
      const double us = 0.5 - std::abs(u);
      return static_cast<std::uint64_t>((2.0 * a / us + b) * u + c);
    }
    if (v >= vr) {
      u = rng.uniform() - 0.5;
    } else {
      u = v / vr - 0.93;
      u = std::copysign(0.5, u) - u;
      v = rng.uniform() * vr;
    }
    const double us = 0.5 - std::abs(u);
    const double kd = std::floor((2.0 * a / us + b) * u + c);
    if (kd < 0.0 || kd > nd) continue;
    const auto k = static_cast<std::uint64_t>(kd);
    const double lhs = std::log(v * alpha / (a / (us * us) + b));
    const double rhs = h - log_factorial(k) - log_factorial(n - k) +
                       (static_cast<double>(k) - static_cast<double>(m)) * lpq;
    if (lhs <= rhs) return k;
  }
}

// Inversion for the hypergeometric pmf, walking up from 0:
// P(0) = bad! (pop-sample)! / ((bad-sample)! pop!), then
// P(k+1) = P(k) (good-k)(sample-k) / ((k+1)(bad-sample+k+1)).
std::uint64_t hypergeometric_inversion(Rng& rng, std::uint64_t good,
                                       std::uint64_t bad,
                                       std::uint64_t sample) {
  const std::uint64_t pop = good + bad;
  double lp0 = log_factorial(bad) + log_factorial(pop - sample) -
               log_factorial(pop);
  if (bad >= sample) lp0 -= log_factorial(bad - sample);
  // When bad < sample, P(0) = 0 (some draw must be a success); start the walk
  // at the distribution's lower support point kmin = sample - bad instead.
  std::uint64_t k = bad >= sample ? 0 : sample - bad;
  double pk;
  if (bad >= sample) {
    pk = std::exp(lp0);
  } else {
    const double lpk = log_factorial(good) - log_factorial(k) -
                       log_factorial(good - k) + log_factorial(bad) +
                       log_factorial(sample) + log_factorial(pop - sample) -
                       log_factorial(pop);
    pk = std::exp(lpk);  // bad - (sample - k) = 0 at the support floor
  }
  double cum = pk;
  const std::uint64_t kmax = std::min(good, sample);
  const double u = rng.uniform();
  while (cum <= u && k < kmax) {
    pk *= static_cast<double>(good - k) * static_cast<double>(sample - k) /
          (static_cast<double>(k + 1) *
           static_cast<double>(bad - sample + k + 1));
    ++k;
    cum += pk;
  }
  return k;
}

// Mode-centered inversion for the hypergeometric pmf (same outward-sweep
// scheme as binomial_mode_inversion; O(sd) recurrence steps). Preconditions:
// the caller's symmetry reductions (sample <= pop/2, good <= bad) so the
// mode is well inside [kmin, kmax].
std::uint64_t hypergeometric_mode_inversion(Rng& rng, std::uint64_t good,
                                            std::uint64_t bad,
                                            std::uint64_t sample) {
  const std::uint64_t pop = good + bad;
  const std::uint64_t kmin = sample > bad ? sample - bad : 0;
  const std::uint64_t kmax = std::min(good, sample);
  auto m = static_cast<std::uint64_t>(
      (static_cast<double>(sample) + 1.0) * (static_cast<double>(good) + 1.0) /
      (static_cast<double>(pop) + 2.0));
  m = std::clamp(m, kmin, kmax);
  const double lpm = log_factorial(good) - log_factorial(m) -
                     log_factorial(good - m) + log_factorial(bad) -
                     log_factorial(sample - m) -
                     log_factorial(bad - sample + m) + log_factorial(sample) +
                     log_factorial(pop - sample) - log_factorial(pop);
  const double pm = std::exp(lpm);
  const double u = rng.uniform();
  double cum = pm;
  if (cum > u) return m;
  double pu = pm, pd = pm;
  std::uint64_t ku = m, kd = m;
  for (;;) {
    bool advanced = false;
    if (ku < kmax) {
      pu *= static_cast<double>(good - ku) *
            static_cast<double>(sample - ku) /
            (static_cast<double>(ku + 1) *
             static_cast<double>(bad - sample + ku + 1));
      ++ku;
      cum += pu;
      advanced = true;
      if (cum > u) return ku;
    }
    if (kd > kmin) {
      pd *= static_cast<double>(kd) *
            static_cast<double>(bad - sample + kd) /
            (static_cast<double>(good - kd + 1) *
             static_cast<double>(sample - kd + 1));
      --kd;
      cum += pd;
      advanced = true;
      if (cum > u) return kd;
    }
    if (!advanced) return m;  // float slack: full support enumerated
  }
}

// HRUA ratio-of-uniforms rejection (Stadlober; the numpy generator's large
// regime). Preconditions enforced by the caller: sample <= pop/2,
// good <= bad, and the mean is large enough that rejection beats inversion.
std::uint64_t hypergeometric_hrua(Rng& rng, std::uint64_t good,
                                  std::uint64_t bad, std::uint64_t sample) {
  constexpr double kD1 = 1.7155277699214135;  // 2 sqrt(2 / e)
  constexpr double kD2 = 0.8989161620588988;  // 3 - 2 sqrt(3 / e)
  const double pop = static_cast<double>(good) + static_cast<double>(bad);
  const double mingb = static_cast<double>(good);  // good <= bad here
  const double maxgb = static_cast<double>(bad);
  const double samp = static_cast<double>(sample);
  const double p = mingb / pop;
  const double q = maxgb / pop;
  const double mu = samp * p;
  const double a = mu + 0.5;
  const double var = (pop - samp) * samp * p * q / (pop - 1.0);
  const double c = std::sqrt(var + 0.5);
  const double h = kD1 * c + kD2;
  const auto m = static_cast<std::uint64_t>((samp + 1.0) * (mingb + 1.0) /
                                            (pop + 2.0));  // pmf mode
  const double g = log_factorial(m) + log_factorial(good - m) +
                   log_factorial(sample - m) +
                   log_factorial(bad - sample + m);
  const double b =
      std::min(std::min(samp, mingb) + 1.0, std::floor(a + 16.0 * c));
  for (;;) {
    const double u = rng.uniform();
    const double v = rng.uniform();
    const double x = a + h * (v - 0.5) / u;
    if (x < 0.0 || x >= b) continue;
    const auto k = static_cast<std::uint64_t>(x);
    const double gp = log_factorial(k) + log_factorial(good - k) +
                      log_factorial(sample - k) +
                      log_factorial(bad - sample + k);
    const double t = g - gp;
    if (u * (4.0 - u) - 3.0 <= t) return k;  // fast accept
    if (u * (u - t) >= 1.0) continue;        // fast reject
    if (2.0 * std::log(u) <= t) return k;
  }
}

}  // namespace

double log_factorial(std::uint64_t k) {
  return k < kLogFactTableSize ? log_fact_table()[k]
                               : log_factorial_stirling(k);
}

std::uint64_t sample_binomial(Rng& rng, std::uint64_t n, double p) {
  if (n == 0 || p <= 0.0) return 0;
  if (p >= 1.0) return n;
  if (p > 0.5) return n - sample_binomial(rng, n, 1.0 - p);
  const double np = static_cast<double>(n) * p;
  if (np < 10.0) return binomial_inversion(rng, n, p);
  // Moderate spread: O(sd) mode-centered inversion beats BTRS's per-draw
  // setup; rejection only wins once the outward sweep would be long.
  if (np * (1.0 - p) < 2500.0) return binomial_mode_inversion(rng, n, p);
  return binomial_btrs(rng, n, p);
}

std::uint64_t sample_hypergeometric(Rng& rng, std::uint64_t good,
                                    std::uint64_t bad, std::uint64_t sample) {
  const std::uint64_t pop = good + bad;
  POPPROTO_DCHECK(sample <= pop);
  if (good == 0 || sample == 0) return 0;
  if (bad == 0) return sample;
  if (sample == pop) return good;
  // Symmetry reductions: sample from the smaller side of each margin, then
  // map the result back.
  if (sample > pop - sample)
    return good - sample_hypergeometric(rng, good, bad, pop - sample);
  if (good > bad)
    return sample - sample_hypergeometric(rng, bad, good, sample);
  // Here sample <= pop/2 and good <= bad; mean = sample * good / pop.
  const double dpop = static_cast<double>(pop);
  const double p = static_cast<double>(good) / dpop;
  const double samp = static_cast<double>(sample);
  const double mean = samp * p;
  if (mean < 10.0) return hypergeometric_inversion(rng, good, bad, sample);
  const double var = samp * p * (1.0 - p) * (dpop - samp) / (dpop - 1.0);
  // Moderate spread: O(sd) mode-centered inversion beats HRUA's per-draw
  // setup; ratio-of-uniforms only wins once the sweep would be long.
  if (var < 2500.0) return hypergeometric_mode_inversion(rng, good, bad, sample);
  return hypergeometric_hrua(rng, good, bad, sample);
}

namespace {

// Multivariate hypergeometric over counts[0..k) into out[0..k), which the
// caller has zeroed.
void multivariate_hypergeometric(Rng& rng, const std::uint64_t* counts,
                                 std::size_t k, std::uint64_t total,
                                 std::uint64_t draws, std::uint64_t* out) {
  POPPROTO_DCHECK(draws <= total);
  std::uint64_t remaining = total;
  for (std::size_t i = 0; i < k && draws > 0; ++i) {
    if (counts[i] == 0) continue;
    if (counts[i] == remaining) {  // only this species left: forced draw
      out[i] = draws;
      return;
    }
    const std::uint64_t d =
        sample_hypergeometric(rng, counts[i], remaining - counts[i], draws);
    out[i] = d;
    draws -= d;
    remaining -= counts[i];
  }
  POPPROTO_DCHECK(draws == 0);
}

}  // namespace

void sample_multivariate_hypergeometric(Rng& rng,
                                        const std::vector<std::uint64_t>& counts,
                                        std::uint64_t total,
                                        std::uint64_t draws,
                                        std::vector<std::uint64_t>& out) {
  out.assign(counts.size(), 0);
  multivariate_hypergeometric(rng, counts.data(), counts.size(), total, draws,
                              out.data());
}

void deal_pair_table(Rng& rng, std::vector<std::uint64_t>& counts,
                     std::uint64_t total, std::uint64_t pairs,
                     std::vector<std::uint64_t>& table) {
  POPPROTO_DCHECK(2 * pairs <= total);
  const std::size_t s = counts.size();
  thread_local std::vector<std::uint64_t> pool, initiators;
  pool.assign(s, 0);
  initiators.assign(s, 0);
  table.assign(s * s, 0);
  // The 2 * pairs participants are a sample drawn without replacement, in
  // uniformly random order. Their species are the block's one draw at
  // population scale.
  multivariate_hypergeometric(rng, counts.data(), s, total, 2 * pairs,
                              pool.data());
  for (std::size_t i = 0; i < s; ++i) counts[i] -= pool[i];
  // The initiators are a uniformly random half of the pool; the rest
  // respond.
  multivariate_hypergeometric(rng, pool.data(), s, 2 * pairs, pairs,
                              initiators.data());
  for (std::size_t i = 0; i < s; ++i) pool[i] -= initiators[i];
  // Responders meet initiators in uniformly random order: each initiator
  // row draws its partners from the responders not yet paired.
  std::uint64_t unpaired = pairs;
  for (std::size_t i = 0; i < s; ++i) {
    if (initiators[i] == 0) continue;
    std::uint64_t* row = table.data() + i * s;
    multivariate_hypergeometric(rng, pool.data(), s, unpaired, initiators[i],
                                row);
    for (std::size_t j = 0; j < s; ++j) pool[j] -= row[j];
    unpaired -= initiators[i];
  }
}

void sample_multinomial(Rng& rng, std::uint64_t n, const double* p,
                        std::size_t k, double p_total,
                        std::vector<std::uint64_t>& out) {
  out.assign(k, 0);
  double rest = p_total;
  for (std::size_t i = 0; i + 1 < k && n > 0; ++i) {
    if (p[i] <= 0.0) continue;
    const double cond = p[i] >= rest ? 1.0 : p[i] / rest;
    const std::uint64_t d = sample_binomial(rng, n, cond);
    out[i] = d;
    n -= d;
    rest -= p[i];
    if (rest <= 0.0) return;
  }
  if (k > 0) out[k - 1] = n;
}

std::uint64_t sample_collision_run(Rng& rng, std::uint64_t n, std::uint64_t m,
                                   std::uint64_t lmax, bool* collided) {
  POPPROTO_DCHECK(n >= 2 && m <= n);
  lmax = std::min(lmax, m / 2);
  if (lmax == 0) {
    *collided = true;  // not even one collision-free interaction possible
    return 0;
  }
  // log S(l) = log(m! / (m-2l)!) - l log(n(n-1)); S is the survival
  // function of the first-collision time. The terms that do not depend on
  // l are evaluated once, here.
  //
  // The falling factorial is not a difference of two log_factorial values
  // once m - 2l leaves the table: that loses absolute precision
  // proportional to m log m — at m ~ 2^27 the ~2.4e9-magnitude terms cancel
  // to an error near 1e-6, enough to drive log S(1) below zero at m == n,
  // an impossible "collision before the first interaction" whose
  // zero-touched-agent aftermath corrupts the batch pools. Expanding the
  // Stirling difference keeps every term O(l log m), so the absolute error
  // stays near 1e-10 at any population scale.
  const double md = static_cast<double>(m);
  const double log_m = std::log(md);
  const double log_n = std::log(static_cast<double>(n));
  const double log_pairs = log_n + std::log(static_cast<double>(n - 1));
  const double series_m = stirling_series(md);
  const double log_fact_m =  // read only where m - 2l is a table entry
      m - 2 * lmax < kLogFactTableSize ? log_factorial(m) : 0.0;
  const double* table = log_fact_table();
  const auto log_survival = [&](std::uint64_t l) {
    const std::uint64_t k = 2 * l;
    const std::uint64_t r = m - k;
    double log_falling;
    if (r < kLogFactTableSize) {
      log_falling = log_fact_m - table[r];
    } else {
      const double kd = static_cast<double>(k);
      const double rd = static_cast<double>(r);
      const double lr = -std::log1p(-kd / md);  // log(m / (m-k)), no cancel
      log_falling = (rd + 0.5) * lr + kd * log_m - kd + series_m -
                    stirling_series(rd);
    }
    return log_falling - static_cast<double>(l) * log_pairs;
  };
  const double lu = std::log(1.0 - rng.uniform());  // log U, U in (0, 1]
  const auto collided_by = [&](std::uint64_t l) {
    return log_survival(l) < lu;
  };

  // Invert S(L) >= U > S(L+1): find the smallest l in [1, lmax] with
  // log S(l) < lu (the run length is l - 1), or learn that none exists
  // (the run outlives the truncation bound). [lo, hi] brackets it: no
  // collision by lo - 1, a collision by hi, where hi = lmax + 1 stands for
  // "none within the bound" and is never evaluated. Any search that keeps
  // such a bracket on the monotone log S returns what bisecting [1, lmax]
  // returns; this one starts at the root of the second-order expansion
  //   log S(l) ~ 2l log(m/n) - 2l^2/m,
  // which is the answer or one below it nearly always, so two probes
  // close the bracket. Galloping outward from there, then bisecting, keeps
  // the worst case within about twice bisection's probe count.
  std::uint64_t lo = 1, hi = lmax + 1;
  const double a = log_m - log_n;  // log(m/n) <= 0
  const double c = -2.0 * lu / md;
  // -lu / (sqrt(a^2 + c) - a) is the positive root (m/2)(a + sqrt(a^2 + c))
  // without its cancellation; NaN at lu == 0 == a, which starts at l = 1.
  const double root = -lu / (std::sqrt(a * a + c) - a);
  std::uint64_t start = 1;
  if (root >= static_cast<double>(lmax)) {
    start = lmax;
  } else if (root >= 1.0) {
    start = static_cast<std::uint64_t>(root) + 1;
  }
  std::uint64_t step = 1;
  if (collided_by(start)) {
    hi = start;
    while (hi - lo >= step) {
      const std::uint64_t probe = hi - step;
      if (!collided_by(probe)) {
        lo = probe + 1;
        break;
      }
      hi = probe;
      step *= 2;
    }
  } else {
    lo = start + 1;
    while (hi - lo >= step) {
      const std::uint64_t probe = lo - 1 + step;
      if (collided_by(probe)) {
        hi = probe;
        break;
      }
      lo = probe + 1;
      step *= 2;
    }
  }
  while (lo < hi) {
    const std::uint64_t mid = lo + (hi - lo) / 2;
    if (collided_by(mid)) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  if (lo > lmax) {
    *collided = false;  // the run outlives the truncation bound
    return lmax;
  }
  *collided = true;
  std::uint64_t run = lo - 1;
  // S(1) == 1 exactly when the whole pool is untouched (m == n): the first
  // interaction cannot collide. Residual float slack in the inversion must
  // not emit that impossible outcome — the caller would then sample a
  // collision participant from an empty touched pool.
  if (run == 0 && m == n) run = 1;
  return run;
}

}  // namespace popproto
