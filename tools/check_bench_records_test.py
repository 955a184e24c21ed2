#!/usr/bin/env python3
"""Tests for tools/check_bench_records.py (plain asserts, no pytest).

Run as ``check_bench_records_test.py <path-to-check_bench_records.py>`` (the
ctest registration in tools/CMakeLists.txt passes the source-tree path).
Each check gets one fixture it must pass and one it must fail, starting
from a complete, passing smoke run; the command line is run once on each.
"""

import copy
import importlib.util
import json
import os
import subprocess
import sys
import tempfile


def good_bench(mod):
    """A smoke run every check passes: un-degraded scaling on 4 threads."""
    records = [{"name": name, "interactions_per_sec": 1e6}
               for name in mod.BASELINES]
    for name in mod.SCALING:
        records.append({"name": name, "interactions_per_sec": 2e6,
                        "speedup_vs_agent": 1.5, "degraded_parallelism": 0,
                        "hardware_threads": 4})
    records.append({"name": "simd_ab_prescan", "simd_tier": 2,
                    "simd_speedup": 5.0})
    records.append({"name": "count_batch_majority",
                    "speedup_vs_direct_effective": 12.0})
    load = {"suite": "bench_load", "records": [
        {"name": "popprotod_mixed", "requests_per_sec": 5000.0,
         "hardware_threads": 4, "degraded_parallelism": 0, "errors": 0}]}
    kernel = {"suite": "bench_kernel", "records": records}
    return {"history": [load, kernel], "records": records}


def good_telemetry():
    return {"kind": "telemetry", "counters": {"interactions": 1.0,
                                              "skip_jumps": 2.0}}


def record(bench, name):
    return next(r for r in bench["records"] if r["name"] == name)


def main():
    if len(sys.argv) != 2:
        print("usage: check_bench_records_test.py "
              "<path-to-check_bench_records.py>", file=sys.stderr)
        return 2
    script = os.path.abspath(sys.argv[1])
    spec = importlib.util.spec_from_file_location("check_bench_records",
                                                  script)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    failures = []

    def check(label, cond, detail=""):
        if cond:
            print(f"ok   {label}")
        else:
            print(f"FAIL {label}: {detail}")
            failures.append(label)

    def records_of(bench):
        return {r["name"]: r for r in bench["records"]}

    good = good_bench(mod)
    warnings = []
    got = mod.check_all(good, good_telemetry(), good_telemetry(), warnings)
    check("complete smoke run passes", got == [] and warnings == [],
          f"{got} {warnings}")

    # history
    check("history: present", mod.check_history(good) == [])
    got = mod.check_history({"records": []})
    check("history: missing array fails",
          got == ["BENCH_engine.json: missing history array"], got)

    # bench_load entry
    check("load: popprotod records pass", mod.check_load(good) == [])
    bad = copy.deepcopy(good)
    bad["history"][0]["records"][0]["errors"] = 3
    got = mod.check_load(bad)
    check("load: daemon errors fail",
          got == ["popprotod_mixed: daemon errors under load"], got)

    # scaling records and their 0.75 floor
    check("scaling records: complete set passes",
          mod.check_scaling_records(records_of(good)) == [])
    bad = copy.deepcopy(good)
    record(bad, "phase_clock_batch_t4")["speedup_vs_agent"] = 0.5
    got = mod.check_scaling_records(records_of(bad))
    check("scaling records: un-degraded 0.5x fails",
          got == ["BENCH_engine.json: phase_clock_batch_t4 speedup 0.50 "
                  "< 0.75 without degraded_parallelism excuse"], got)

    # at least one un-degraded t>=2 record beats the agent baseline
    check("parallel scaling: un-degraded 1.5x passes",
          mod.check_parallel_scaling(records_of(good), []) == [])
    bad = copy.deepcopy(good)
    for name in mod.SCALING:
        record(bad, name)["degraded_parallelism"] = 1
    got = mod.check_parallel_scaling(records_of(bad), [])
    check("parallel scaling: all degraded fails",
          len(got) == 1 and "every multi-shard scaling record is flagged"
          in got[0], got)
    for name in mod.SCALING:
        record(bad, name)["hardware_threads"] = 1
    warnings = []
    got = mod.check_parallel_scaling(records_of(bad), warnings)
    check("parallel scaling: one hardware thread only warns",
          got == [] and len(warnings) == 1, f"{got} {warnings}")

    # scalar-vs-SIMD prescan A/B
    check("simd a/b: 5x on a vector tier passes",
          mod.check_simd_ab(records_of(good), []) == [])
    bad = copy.deepcopy(good)
    record(bad, "simd_ab_prescan")["simd_speedup"] = 1.1
    got = mod.check_simd_ab(records_of(bad), [])
    check("simd a/b: prescan below 1.3x fails",
          got == ["BENCH_engine.json: simd_ab_prescan did not reach 1.3x "
                  "over scalar on a vector tier"], got)

    # count_batch_majority speedup floor
    check("count batch: 12x passes",
          mod.check_count_batch(records_of(good)) == [])
    bad = copy.deepcopy(good)
    record(bad, "count_batch_majority")["speedup_vs_direct_effective"] = 1.5
    got = mod.check_count_batch(records_of(bad))
    check("count batch: 1.5x fails",
          got == ["BENCH_engine.json: count_batch_majority effective "
                  "speedup 1.5 < 2.0"], got)

    # telemetry key set against the committed snapshot
    check("telemetry: same keys pass",
          mod.check_telemetry_keys(good_telemetry(), good_telemetry()) == [])
    drifted = good_telemetry()
    drifted["counters"]["new_counter"] = 0.0
    got = mod.check_telemetry_keys(drifted, good_telemetry())
    check("telemetry: a new key fails",
          got == ["telemetry key drift vs bench/results snapshot: "
                  "new_counter"], got)

    # the command line, once passing and once failing
    with tempfile.TemporaryDirectory() as tmp:
        paths = {k: os.path.join(tmp, f"{k}.json")
                 for k in ("bench", "telemetry", "snapshot")}

        def run(bench, telemetry):
            for key, doc in (("bench", bench), ("telemetry", telemetry),
                             ("snapshot", good_telemetry())):
                with open(paths[key], "w") as f:
                    json.dump(doc, f)
            return subprocess.run(
                [sys.executable, "-B", script, "--bench", paths["bench"],
                 "--telemetry", paths["telemetry"],
                 "--snapshot", paths["snapshot"]],
                capture_output=True, text=True)

        proc = run(good, good_telemetry())
        check("cli: passing run exits 0",
              proc.returncode == 0 and "telemetry key set matches snapshot"
              in proc.stdout, proc.stdout + proc.stderr)
        proc = run(good, drifted)
        check("cli: failing run exits 1",
              proc.returncode == 1 and "new_counter" in proc.stdout,
              proc.stdout + proc.stderr)

    if failures:
        print(f"{len(failures)} check(s) failed")
        return 1
    print("all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
