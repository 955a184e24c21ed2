#!/usr/bin/env python3
"""The repository benchmark (perfbench/README.md).

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace 0|1

Run from the root of a source checkout. Builds perfbench_driver from the
checkout's sources (into $CARGO_TARGET_DIR, default .bench_build), runs one
workload, checks its outputs and prints, as the last line of stdout, one
JSON object with the keys correct, attempted, failed and metrics: every
end-to-end metric with --trace 0, every per-layer metric with --trace 1
(each layer from a traced pass of a workload that loads it, so a traced
run may run up to three workloads). The line before it stamps the host
and the build. Exits 1 when an output check failed, 2 when the benchmark
could not run at all (no result line).
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.dont_write_bytecode = True  # leave the checkout's source dirs untouched

import metrics  # noqa: E402

# Wall-clock allowance for all driver passes of one run beyond --seconds
# per pass, the build excluded: the fixed work of a traced pass, and the
# last repetition a pass starts before its --seconds run out. The passes
# are stopped after DRIVER_LIMIT_S at most, so that a run ends within
# three minutes whatever --seconds is.
DRIVER_MARGIN_S = 90
DRIVER_LIMIT_S = 170
BUILD_JOBS = "4"


class BenchError(Exception):
    pass


def run_checked(cmd):
    """Run a build step with its output on stderr (stdout is the result)."""
    done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
    if done.returncode != 0:
        raise BenchError("command failed: " + " ".join(cmd))


def build_driver(build_dir):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise BenchError("no popproto sources under src/ next to perfbench/")
    if not (build_dir / "CMakeCache.txt").is_file():
        run_checked(["cmake", "-S", str(HERE), "-B", str(build_dir),
                     "-DCMAKE_BUILD_TYPE=Release"])
    run_checked(["cmake", "--build", str(build_dir), "-j", BUILD_JOBS,
                 "--target", "perfbench_driver"])
    driver = build_dir / "perfbench_driver"
    if not driver.is_file():
        raise BenchError("build produced no perfbench_driver")
    return driver


def source_stamp():
    """Git sha when the checkout is a repository, and always a digest of
    src/ so two checkouts of the same code stamp alike."""
    sha = "unknown"
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        if done.returncode == 0:
            sha = done.stdout.strip()
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file():
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return {"git_sha": sha, "src_sha256": digest.hexdigest()[:16]}


def run_driver(driver, workload, args, tmp_dir, deadline):
    cmd = [str(driver), "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--tmp", str(tmp_dir)]
    # Own process group, so a timeout also stops popsweep's worker processes.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                            text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(
            timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError("driver passes ran past their deadline")
    if proc.returncode != 0:
        raise BenchError("driver exited with code %d" % proc.returncode)
    lines = out.strip().splitlines()
    if not lines:
        raise BenchError("driver printed no result")
    return json.loads(lines[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=metrics.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build_root = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    tmp_dir = build_root / "tmp" / ("%s-%d" % (args.workload, os.getpid()))
    try:
        driver = build_driver(build_root / "perfbench")
        passes = (metrics.trace_sources(args.workload) if args.trace
                  else [args.workload])
        deadline = time.monotonic() + min(
            len(passes) * args.seconds + DRIVER_MARGIN_S, DRIVER_LIMIT_S)
        shutil.rmtree(tmp_dir, ignore_errors=True)
        tmp_dir.mkdir(parents=True)
        docs = {w: run_driver(driver, w, args, tmp_dir, deadline)
                for w in passes}
        values = (metrics.per_layer(docs, args.workload) if args.trace
                  else metrics.end_to_end(docs[args.workload]))
    except (BenchError, metrics.MetricError, ValueError, OSError) as e:
        print("perfbench: " + str(e), file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(tmp_dir, ignore_errors=True)

    stamp = dict(docs[args.workload].get("stamp", {}))
    stamp.update(source_stamp())
    print(json.dumps({"stamp": stamp}, sort_keys=True))
    attempted = sum(d["attempted"] for d in docs.values())
    failed = sum(d["failed"] for d in docs.values())
    for doc in docs.values():
        for reason in doc.get("failures", []):
            print("perfbench: check failed: " + reason, file=sys.stderr)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": values}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
