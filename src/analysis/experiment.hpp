// Experiment harness: seeded trial sweeps over population sizes, with
// aggregation and scaling-law fits against the paper's claims.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "observe/telemetry.hpp"
#include "support/fitting.hpp"
#include "support/stats.hpp"

namespace popproto {

/// One trial: given (n, seed), return the measured value (e.g. rounds to
/// convergence) or nullopt when the trial failed / timed out.
using TrialFn =
    std::function<std::optional<double>(std::uint64_t n, std::uint64_t seed)>;

struct ScalingRow {
  std::uint64_t n = 0;
  std::size_t trials = 0;
  std::size_t successes = 0;
  Summary value;  // over successful trials
};

/// Run `trials` seeded trials of fn at every n (seeds derived from `seed`
/// via splitmix64, so every table is reproducible).
std::vector<ScalingRow> run_sweep(const std::vector<std::uint64_t>& ns,
                                  std::size_t trials, std::uint64_t seed,
                                  const TrialFn& fn);

/// run_sweep fanned out over a worker pool. The per-trial seed chain and the
/// aggregation order are identical to run_sweep, so the returned rows are
/// bit-for-bit the same for any thread count (0 = probe_hardware_threads());
/// parallelism only changes wall-clock. Requires `fn` to be thread-safe:
/// each call must derive all of its state from its (n, seed) arguments,
/// which every bench TrialFn in this repo already does.
std::vector<ScalingRow> run_sweep_parallel(const std::vector<std::uint64_t>& ns,
                                           std::size_t trials,
                                           std::uint64_t seed, const TrialFn& fn,
                                           unsigned num_threads = 0);

/// Fit the per-n medians to a * (ln n)^p, trying p = 1..max_power.
PolylogChoice fit_rows_polylog(const std::vector<ScalingRow>& rows,
                               int max_power);

/// Fit the per-n medians to c * n^e.
LinearFit fit_rows_power(const std::vector<ScalingRow>& rows);

/// Geometric n-range 2^lo .. 2^hi.
std::vector<std::uint64_t> pow2_range(int lo, int hi);

/// Flatten sweep rows into telemetry counters: per row
/// `<prefix>n<N>.{trials,successes,median,mean,p90}`. Keeps the TELEMETRY
/// files self-contained (one flat counter map) without a second row schema.
void add_sweep_counters(Telemetry& telemetry,
                        const std::vector<ScalingRow>& rows,
                        const std::string& prefix);

}  // namespace popproto
