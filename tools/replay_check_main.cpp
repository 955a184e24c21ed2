// replay_check: command-line deterministic-replay verifier (DESIGN.md §10).
//
// Runs the snapshot/restore replay experiment from persist/replay_check.hpp
// against one backend configuration and prints PASS/FAIL with the first
// divergence. CI's replay-determinism smoke job drives this binary; it is
// also the quickest way to check a new backend or protocol change against
// the bit-identical-resume contract by hand.
//
// Usage:
//   replay_check --backend agent|count|batch|count_shard [--threads T]
//                [--shards S] [--mode direct|skip|batch] [--n N]
//                [--rounds K] [--seed S] [--faults]
//
//   --backend  which SimBackend to exercise (default agent)
//   --threads  BatchEngine shard/thread count (default 2)
//   --shards   CountShardEngine shard count (default 2)
//   --mode     CountEngine mode: direct|skip|batch (default batch)
//   --n        population size (default 4096)
//   --rounds   k: rounds before the snapshot and again after (default 24)
//   --seed     engine seed (default 7)
//   --faults   attach a crash/rejoin/dropout fault schedule and require the
//              restored run to replay the remaining schedule exactly
//
// A numeric flag that does not parse whole, or is out of range (n < 2,
// shards < 1, rounds not finite and > 0), prints the usage line and
// exits 2.
#include <climits>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "clocks/phase_clock.hpp"
#include "core/batch_engine.hpp"
#include "core/count_engine.hpp"
#include "core/count_shard_engine.hpp"
#include "core/engine.hpp"
#include "faults/fault_plan.hpp"
#include "persist/replay_check.hpp"
#include "protocols/baselines.hpp"
#include "support/parse.hpp"

namespace popproto {
namespace {

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --backend agent|count|batch|count_shard "
               "[--threads T] [--shards S] [--mode direct|skip|batch] "
               "[--n N] [--rounds K] [--seed S] [--faults]\n",
               argv0);
  return 2;
}

CountEngineMode parse_mode(const std::string& mode) {
  if (mode == "direct") return CountEngineMode::kDirect;
  if (mode == "skip") return CountEngineMode::kSkip;
  if (mode == "batch") return CountEngineMode::kBatch;
  std::fprintf(stderr, "unknown --mode %s\n", mode.c_str());
  std::exit(2);
}

int run(const std::string& backend, unsigned threads, std::size_t shards,
        const std::string& mode, std::uint64_t n, double rounds,
        std::uint64_t seed, bool faults) {
  BackendFactory make;
  // Keep the var spaces and protocols alive across both factory calls.
  auto clock_vars = make_var_space();
  const Protocol clock_proto = make_phase_clock_protocol(clock_vars);
  const auto clock_init =
      phase_clock_initial_states(n, n >> 6 ? n >> 6 : 1, *clock_vars);
  auto maj_vars = make_var_space();
  const Protocol maj_proto = make_approximate_majority_protocol(maj_vars);
  const State ma = var_bit(*maj_vars->find("BA"));
  const State mb = var_bit(*maj_vars->find("BB"));

  if (backend == "agent") {
    make = [&] {
      return std::make_unique<Engine>(clock_proto, clock_init, seed);
    };
  } else if (backend == "count") {
    const CountEngineMode m = parse_mode(mode);
    make = [&, m] {
      return std::make_unique<CountEngine>(
          maj_proto,
          std::vector<std::pair<State, std::uint64_t>>{{ma, n / 2},
                                                       {mb, n - n / 2}},
          seed, m);
    };
  } else if (backend == "batch") {
    make = [&, threads] {
      BatchEngine::Params params;
      params.threads = threads;
      return std::make_unique<BatchEngine>(clock_proto, clock_init, seed,
                                           params);
    };
  } else if (backend == "count_shard") {
    make = [&, shards] {
      CountShardEngine::Params params;
      params.shards = shards;
      params.min_shard = 2;  // keep the requested shard count at small n
      return std::make_unique<CountShardEngine>(
          maj_proto,
          std::vector<std::pair<State, std::uint64_t>>{{ma, n / 2},
                                                       {mb, n - n / 2}},
          seed, params);
    };
  } else {
    std::fprintf(stderr, "unknown --backend %s\n", backend.c_str());
    return 2;
  }

  ReplayCheckResult result;
  if (faults) {
    FaultPlan plan;
    plan.crash_at(rounds * 0.5, CrashSpec{.fraction = 0.05, .count = 0})
        .dropout_window(rounds * 0.25, rounds * 1.5, 0.1)
        .rejoin_at(rounds * 1.25,
                   RejoinSpec{.fraction = 0.0, .count = 0, .all = true});
    result = replay_check_with_faults(make, rounds, plan, seed + 99);
  } else {
    result = replay_check(make, rounds);
  }

  std::printf("replay_check backend=%s n=%llu k=%.0f%s: %s "
              "(snapshot %llu bytes at round %.2f)\n",
              backend.c_str(), static_cast<unsigned long long>(n), rounds,
              faults ? " +faults" : "", result.ok ? "PASS" : "FAIL",
              static_cast<unsigned long long>(result.snapshot_bytes),
              result.snapshot_rounds);
  if (!result.ok) std::fprintf(stderr, "%s\n", result.detail.c_str());
  return result.ok ? 0 : 1;
}

}  // namespace
}  // namespace popproto

int main(int argc, char** argv) {
  std::string backend = "agent";
  std::string mode = "batch";
  unsigned threads = 2;
  std::size_t shards = 2;
  std::uint64_t n = 4096;
  double rounds = 24.0;
  std::uint64_t seed = 7;
  bool faults = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      if (i + 1 >= argc) std::exit(popproto::usage(argv[0]));
      return argv[++i];
    };
    const auto number = [&](std::uint64_t min, std::uint64_t max) {
      const auto v = popproto::parse_u64(next());
      if (!v || *v < min || *v > max) std::exit(popproto::usage(argv[0]));
      return *v;
    };
    if (arg == "--backend") backend = next();
    else if (arg == "--mode") mode = next();
    else if (arg == "--threads")
      threads = static_cast<unsigned>(number(0, UINT_MAX));
    else if (arg == "--shards")
      shards = static_cast<std::size_t>(number(1, SIZE_MAX));
    else if (arg == "--n") n = number(2, UINT64_MAX);
    else if (arg == "--rounds") {
      const auto v = popproto::parse_double(next());
      if (!v || !(*v > 0) || !std::isfinite(*v))
        return popproto::usage(argv[0]);
      rounds = *v;
    } else if (arg == "--seed") seed = number(0, UINT64_MAX);
    else if (arg == "--faults") faults = true;
    else return popproto::usage(argv[0]);
  }
  return popproto::run(backend, threads, shards, mode, n, rounds, seed,
                       faults);
}
