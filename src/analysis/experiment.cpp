#include "analysis/experiment.hpp"

#include "observe/profile.hpp"
#include "support/check.hpp"
#include "support/rng.hpp"
#include "support/thread_pool.hpp"

namespace popproto {

std::vector<ScalingRow> run_sweep(const std::vector<std::uint64_t>& ns,
                                  std::size_t trials, std::uint64_t seed,
                                  const TrialFn& fn) {
  POPPROTO_PROFILE_SCOPE("sweep/serial");
  POPPROTO_CHECK(trials >= 1);
  std::vector<ScalingRow> rows;
  std::uint64_t sm = seed;
  for (std::uint64_t n : ns) {
    ScalingRow row;
    row.n = n;
    row.trials = trials;
    std::vector<double> values;
    for (std::size_t t = 0; t < trials; ++t) {
      const std::uint64_t trial_seed = splitmix64(sm);
      if (auto v = fn(n, trial_seed)) {
        values.push_back(*v);
        ++row.successes;
      }
    }
    row.value = summarize(std::move(values));
    rows.push_back(row);
  }
  return rows;
}

std::vector<ScalingRow> run_sweep_parallel(const std::vector<std::uint64_t>& ns,
                                           std::size_t trials,
                                           std::uint64_t seed, const TrialFn& fn,
                                           unsigned num_threads) {
  POPPROTO_PROFILE_SCOPE("sweep/parallel");
  POPPROTO_CHECK(trials >= 1);
  // Precompute the exact seed chain run_sweep would walk: one splitmix64
  // stream across all (n, trial) cells in row-major order. Fanning the cells
  // out over threads then cannot change which seed a trial gets.
  const std::size_t jobs = ns.size() * trials;
  std::vector<std::uint64_t> seeds(jobs);
  std::uint64_t sm = seed;
  for (auto& s : seeds) s = splitmix64(sm);

  std::vector<std::optional<double>> results(jobs);
  ThreadPool(num_threads).parallel_for(jobs, [&](std::size_t i) {
    // Last cell first: sweeps list n ascending, so the longest trials start
    // while every thread is free instead of forming the tail.
    const std::size_t j = jobs - 1 - i;
    results[j] = fn(ns[j / trials], seeds[j]);
  });

  // Aggregate in trial order — the same value order (and thus the same
  // Summary, float for float) as the sequential sweep.
  std::vector<ScalingRow> rows;
  for (std::size_t k = 0; k < ns.size(); ++k) {
    ScalingRow row;
    row.n = ns[k];
    row.trials = trials;
    std::vector<double> values;
    for (std::size_t t = 0; t < trials; ++t) {
      if (const auto& v = results[k * trials + t]) {
        values.push_back(*v);
        ++row.successes;
      }
    }
    row.value = summarize(std::move(values));
    rows.push_back(row);
  }
  return rows;
}

namespace {

void medians(const std::vector<ScalingRow>& rows, std::vector<double>& ns,
             std::vector<double>& ys) {
  for (const auto& r : rows) {
    if (r.successes == 0) continue;
    ns.push_back(static_cast<double>(r.n));
    ys.push_back(r.value.median);
  }
  POPPROTO_CHECK_MSG(ns.size() >= 2, "not enough data points for a fit");
}

}  // namespace

PolylogChoice fit_rows_polylog(const std::vector<ScalingRow>& rows,
                               int max_power) {
  POPPROTO_PROFILE_SCOPE("fit/polylog");
  std::vector<double> ns, ys;
  medians(rows, ns, ys);
  return best_polylog_power(ns, ys, max_power);
}

LinearFit fit_rows_power(const std::vector<ScalingRow>& rows) {
  POPPROTO_PROFILE_SCOPE("fit/power");
  std::vector<double> ns, ys;
  medians(rows, ns, ys);
  return fit_power_law(ns, ys);
}

void add_sweep_counters(Telemetry& telemetry,
                        const std::vector<ScalingRow>& rows,
                        const std::string& prefix) {
  for (const auto& r : rows) {
    const std::string base = prefix + "n" + std::to_string(r.n) + ".";
    telemetry.add_counter(base + "trials", static_cast<double>(r.trials));
    telemetry.add_counter(base + "successes",
                          static_cast<double>(r.successes));
    if (r.successes == 0) continue;
    telemetry.add_counter(base + "median", r.value.median);
    telemetry.add_counter(base + "mean", r.value.mean);
    telemetry.add_counter(base + "p90", r.value.p90);
  }
}

std::vector<std::uint64_t> pow2_range(int lo, int hi) {
  POPPROTO_CHECK(lo >= 1 && hi >= lo && hi < 63);
  std::vector<std::uint64_t> out;
  for (int e = lo; e <= hi; ++e) out.push_back(1ull << e);
  return out;
}

}  // namespace popproto
