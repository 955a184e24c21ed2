// The benchmark's four workloads (perfbench/README.md says why each one
// exists and which layers it loads).
#pragma once

#include <cstdint>
#include <string>

#include "result.hpp"

namespace perfbench {

struct RunConfig {
  std::uint64_t seed = 1;
  /// Measured time budget; every workload also runs a minimum number of
  /// repetitions so its medians have samples.
  double seconds = 10.0;
  /// Traced run: time each layer apart and report per-layer figures
  /// instead of end-to-end ones.
  bool trace = false;
  /// Scratch directory inside the checkout (sweep dirs, checkpoints).
  std::string tmp_dir;
  /// This executable, re-run by popsweep process mode as `--run-one`.
  std::string self_exe;
};

/// Each workload fills `out` with samples named by what they measure
/// (run.py maps them to metrics) and counts every checked output into
/// `out.attempted`, every wrong one into `out.failed`.
void run_clock_batch(const RunConfig& cfg, RawResult& out);
void run_majority_count_shard(const RunConfig& cfg, RawResult& out);
void run_serve(const RunConfig& cfg, RawResult& out);
void run_sweep_checkpointed(const RunConfig& cfg, RawResult& out);

}  // namespace perfbench
