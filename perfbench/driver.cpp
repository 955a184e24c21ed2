// perfbench_driver — runs one benchmark workload and prints what it
// measured as one JSON line on stdout (run.py turns it into metrics).
//
//   perfbench_driver --workload <name> --seed <n> --seconds <s> --trace 0|1
//                    --tmp <dir>
//
// popsweep's process mode re-executes this binary as a sweep worker:
//   perfbench_driver --run-one --dir <dir> --job <id>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <limits.h>
#include <string>
#include <thread>

#include "support/simd.hpp"
#include "support/thread_pool.hpp"
#include "sweep/manifest.hpp"
#include "sweep/orchestrator.hpp"
#include "sweep/runner.hpp"
#include "sweep/spec.hpp"
#include "workloads.hpp"

namespace {

using Workload = void (*)(const perfbench::RunConfig&, perfbench::RawResult&);

struct NamedWorkload {
  const char* name;
  Workload run;
};

constexpr NamedWorkload kWorkloads[] = {
    {"clock_batch", perfbench::run_clock_batch},
    {"majority_count_shard", perfbench::run_majority_count_shard},
    {"serve", perfbench::run_serve},
    {"sweep_checkpointed", perfbench::run_sweep_checkpointed},
};

std::string self_exe() {
  char buf[PATH_MAX];
  const ssize_t k = ::readlink("/proc/self/exe", buf, sizeof buf - 1);
  if (k <= 0) return {};
  return std::string(buf, static_cast<std::size_t>(k));
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench_driver --workload <name> --seed <n> "
               "--seconds <s> --trace 0|1 --tmp <dir>\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload, dir, job;
  perfbench::RunConfig cfg;
  bool run_one = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--run-one") {
      run_one = true;
    } else if (a == "--dir" && has_value) {
      dir = argv[++i];
    } else if (a == "--job" && has_value) {
      job = argv[++i];
    } else if (a == "--workload" && has_value) {
      workload = argv[++i];
    } else if (a == "--seed" && has_value) {
      cfg.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--seconds" && has_value) {
      cfg.seconds = std::strtod(argv[++i], nullptr);
    } else if (a == "--trace" && has_value) {
      cfg.trace = std::strcmp(argv[++i], "0") != 0;
    } else if (a == "--tmp" && has_value) {
      cfg.tmp_dir = argv[++i];
    } else {
      return usage();
    }
  }
  if (run_one) return perfbench::run_one_logged(dir, job);
  if (cfg.tmp_dir.empty() || !(cfg.seconds > 0.0)) return usage();

  Workload run = nullptr;
  for (const auto& w : kWorkloads)
    if (workload == w.name) run = w.run;
  if (run == nullptr) {
    std::fprintf(stderr, "perfbench_driver: unknown workload '%s'\n",
                 workload.c_str());
    return 2;
  }
  cfg.self_exe = self_exe();

  perfbench::RawResult out;
  out.stamp["workload"] = workload;
  out.stamp["seed"] = std::to_string(cfg.seed);
  out.stamp["nproc"] = std::to_string(std::thread::hardware_concurrency());
  out.stamp["hardware_threads"] =
      std::to_string(popproto::probe_hardware_threads());
  out.stamp["simd_tier"] =
      popproto::simd::tier_name(popproto::simd::active_tier());
  out.stamp["build_type"] = PERFBENCH_BUILD_TYPE;

  try {
    run(cfg, out);
  } catch (const std::exception& e) {
    out.fail(std::string("exception: ") + e.what());
  } catch (const popproto::SpecError& e) {
    out.fail("sweep spec: " + e.message);
  } catch (const popproto::ManifestError& e) {
    out.fail("sweep manifest: " + e.message);
  } catch (const popproto::RunnerError& e) {
    out.fail("sweep job: " + e.message);
  }
  out.scalars["peak_rss_mb"] = perfbench::peak_rss_mb();
  std::printf("%s\n", out.to_json().c_str());
  return 0;
}
