// popsweep: crash-tolerant parameter-sweep orchestrator (DESIGN.md §12,
// docs/OPERATIONS.md).
//
//   popsweep run    --spec grid.sweep --dir out/ [--jobs N] [--in-process]
//                   [--bench-out BENCH.json] [--suite NAME] [--verbose]
//   popsweep resume --dir out/ [--jobs N] [--in-process] [...]
//   popsweep status --dir out/
//
// `run` expands the spec into a journaled manifest inside --dir and drives
// every job to completion across up to --jobs worker processes (each a
// fork/exec of this binary's hidden `--run-one` mode). Kill it at any
// instant — SIGKILL included — and `resume` continues from the manifest and
// the per-job checkpoints, converging on the bit-identical row set an
// uninterrupted run would have produced. `resume` is also how a sweep with
// failed rows is retried.
//
// Exit codes: 0 all jobs done; 1 sweep finished with failed jobs; 2 usage,
// spec, or manifest errors.
#include <unistd.h>

#include <climits>
#include <cstdio>
#include <string>

#include "support/parse.hpp"
#include "sweep/orchestrator.hpp"
#include "sweep/spec.hpp"

namespace {

int usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s run    --spec FILE --dir DIR [--jobs N] [--in-process]\n"
      "                 [--bench-out FILE] [--suite NAME] [--verbose]\n"
      "       %s resume --dir DIR [--jobs N] [--in-process]\n"
      "                 [--bench-out FILE] [--suite NAME] [--verbose]\n"
      "       %s status --dir DIR\n",
      argv0, argv0, argv0);
  return 2;
}

/// This binary's own path, for fork/exec'ing `--run-one` workers. /proc is
/// authoritative on Linux; argv[0] is the portable fallback (good enough —
/// the orchestrator and CI invoke popsweep by path).
std::string self_exe(const char* argv0) {
  char buf[4096];
  const ssize_t got = readlink("/proc/self/exe", buf, sizeof buf - 1);
  if (got > 0) {
    buf[got] = '\0';
    return buf;
  }
  return argv0;
}

int drive(const popproto::SweepOptions& options) {
  try {
    const popproto::SweepReport report = popproto::run_sweep(options);
    std::printf("popsweep: %zu/%zu done, %zu failed (%zu executed, "
                "%zu collected) in %.2fs\n",
                report.done, report.total, report.failed, report.executed,
                report.collected, report.wall_seconds);
    return report.complete() ? 0 : 1;
  } catch (const popproto::ManifestError& e) {
    std::fprintf(stderr, "popsweep: %s\n", e.message.c_str());
    return 2;
  } catch (const popproto::SpecError& e) {
    std::fprintf(stderr, "popsweep: %s\n", e.message.c_str());
    return 2;
  }
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage(argv[0]);
  const std::string verb = argv[1];

  std::string spec_path, dir, bench_out, job_id;
  std::string suite = "popsweep";
  int jobs = 2;
  bool in_process = false, verbose = false;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--spec" && i + 1 < argc) spec_path = argv[++i];
    else if (arg == "--dir" && i + 1 < argc) dir = argv[++i];
    else if (arg == "--jobs" && i + 1 < argc) {
      const auto v = popproto::parse_u64(argv[++i]);
      if (!v || *v > INT_MAX) return usage(argv[0]);
      jobs = static_cast<int>(*v);
    } else if (arg == "--bench-out" && i + 1 < argc) bench_out = argv[++i];
    else if (arg == "--suite" && i + 1 < argc) suite = argv[++i];
    else if (arg == "--job" && i + 1 < argc) job_id = argv[++i];
    else if (arg == "--in-process") in_process = true;
    else if (arg == "--verbose") verbose = true;
    else return usage(argv[0]);
  }
  if (dir.empty()) return usage(argv[0]);

  if (verb == "--run-one") {
    // Hidden worker mode, spawned by the orchestrator: run one manifest job
    // and publish its result file. Never writes the manifest.
    if (job_id.empty()) return usage(argv[0]);
    return popproto::run_one_worker(dir, job_id);
  }

  if (verb == "status") {
    try {
      std::fputs(popproto::sweep_status(dir).c_str(), stdout);
      return 0;
    } catch (const popproto::ManifestError& e) {
      std::fprintf(stderr, "popsweep: %s\n", e.message.c_str());
      return 2;
    }
  }

  popproto::SweepOptions options;
  options.dir = dir;
  options.jobs = jobs < 1 ? 1 : jobs;
  options.worker_exe = in_process ? "" : self_exe(argv[0]);
  options.bench_out = bench_out;
  options.suite = suite;
  options.verbose = verbose;

  if (verb == "run") {
    if (spec_path.empty()) return usage(argv[0]);
    try {
      popproto::init_sweep(dir, popproto::load_sweep_spec(spec_path));
    } catch (const popproto::SpecError& e) {
      std::fprintf(stderr, "popsweep: %s\n", e.message.c_str());
      return 2;
    } catch (const popproto::ManifestError& e) {
      std::fprintf(stderr, "popsweep: %s\n", e.message.c_str());
      return 2;
    }
    return drive(options);
  }
  if (verb == "resume") return drive(options);
  return usage(argv[0]);
}
