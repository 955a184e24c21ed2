#!/usr/bin/env python3
"""Check a bench smoke run's records and its telemetry key set.

CI's release job runs bench_sweep, bench_load, bench_persist and then
bench_kernel, each appending to one BENCH_engine.json, and calls this script
on the result. Each check_* function below is one check: the history array,
the popprotod load records, the sharded-backend scaling records and their
degraded_parallelism exemptions, the count_batch_majority speedup floor,
and the telemetry key set against the
committed bench/results snapshot (a key appearing or vanishing means the
exporter schema drifted without a snapshot refresh, bench/results/README.md).

Usage (from the repository root, after the bench smoke runs):
    python3 tools/check_bench_records.py [--bench BENCH_engine.json]
        [--telemetry TELEMETRY_kernel.json]
        [--snapshot bench/results/TELEMETRY_kernel.json]

Prints one line per failure and exits 1, or prints a success line and
exits 0. Warnings (skipped assertions) go to stdout and do not fail.
"""

import argparse
import json
import sys

SCALING = ("phase_clock_batch_t1", "phase_clock_batch_t2",
           "phase_clock_batch_t4", "phase_clock_batch_t8",
           "count_shard_majority_t1", "count_shard_majority_t2",
           "count_shard_majority_t4", "count_shard_majority_t8")
BASELINES = ("phase_clock_agent_baseline", "count_shard_agent_baseline")


def check_history(bench):
    if not isinstance(bench.get("history"), list) or not bench["history"]:
        return ["BENCH_engine.json: missing history array"]
    return []


def check_load(bench):
    """popprotod load records live in the bench_load history entry
    (bench_kernel owns the top-level snapshot): require at least one
    popprotod_* requests/sec record with the honesty stamps."""
    failures = []
    load = [h for h in bench.get("history", [])
            if h.get("suite") == "bench_load"]
    if not load:
        return ["BENCH_engine.json: no bench_load history entry"]
    pop = [r for r in load[-1].get("records", [])
           if r.get("name", "").startswith("popprotod_")]
    if not pop:
        failures.append("bench_load entry has no popprotod_* record")
    for r in pop:
        for key in ("requests_per_sec", "hardware_threads",
                    "degraded_parallelism"):
            if key not in r:
                failures.append(f"{r['name']} lacks {key}")
        if r.get("requests_per_sec", 0) <= 0:
            failures.append(f"{r['name']}: no request throughput")
        if r.get("errors", 1) != 0:
            failures.append(f"{r['name']}: daemon errors under load")
    return failures


def check_scaling_records(records):
    """Every scaling record and agent baseline is present with a rate; the
    scaling records carry speedup_vs_agent and degraded_parallelism, and an
    un-degraded one reaches 0.75x the agent baseline."""
    failures = []
    for name in BASELINES + SCALING:
        rec = records.get(name)
        if rec is None:
            failures.append(f"BENCH_engine.json: missing record {name}")
            continue
        if rec.get("interactions_per_sec", 0) <= 0:
            failures.append(f"BENCH_engine.json: {name} has no rate")
        if name not in SCALING:
            continue
        if "speedup_vs_agent" not in rec:
            failures.append(f"BENCH_engine.json: {name} lacks "
                            "speedup_vs_agent")
        elif "degraded_parallelism" not in rec:
            failures.append(f"BENCH_engine.json: {name} lacks "
                            "degraded_parallelism")
        elif rec["degraded_parallelism"] == 0 and \
                rec["speedup_vs_agent"] < 0.75:
            failures.append(f"BENCH_engine.json: {name} speedup "
                            f"{rec['speedup_vs_agent']:.2f} < 0.75 "
                            "without degraded_parallelism excuse")
    return failures


def check_parallel_scaling(records, warnings):
    """At least one un-degraded t>=2 record beats the agent baseline. A
    single-hardware-thread host cannot measure parallel scaling at all
    (every t>=2 record is OS-serialized), so it is skipped loudly rather
    than failed; the record set and schema are still checked."""
    multi = [n for n in SCALING if not n.endswith("_t1")]
    undegraded = [n for n in multi if n in records and
                  records[n].get("degraded_parallelism") == 0]
    hw = max((records[n].get("hardware_threads", 0)
              for n in SCALING if n in records), default=0)
    if hw == 1:
        warnings.append("WARNING: runner has 1 hardware thread; "
                        "multi-thread speedup assertions skipped")
        return []
    if not undegraded:
        return ["BENCH_engine.json: every multi-shard scaling "
                "record is flagged degraded_parallelism — no "
                "speedup assertion ran at all"]
    if not any(records[n].get("speedup_vs_agent", 0) > 1.0
               for n in undegraded):
        return ["BENCH_engine.json: no un-degraded t>=2 record "
                "beats the agent baseline (speedup_vs_agent "
                "> 1.0) — the sharded backends are not "
                "actually scaling"]
    return []


def check_count_batch(records):
    """Full acceptance is >= 10x at n = 2^20 on dedicated hardware; the
    smoke gate only guards against the batch path silently degrading to
    direct-mode throughput."""
    batch = records.get("count_batch_majority")
    if batch is None:
        return ["BENCH_engine.json: missing record count_batch_majority"]
    if batch.get("speedup_vs_direct_effective", 0) < 2.0:
        return ["BENCH_engine.json: count_batch_majority effective speedup "
                f"{batch.get('speedup_vs_direct_effective')} < 2.0"]
    return []


def check_telemetry_keys(smoke, snapshot):
    drift = (set(smoke.get("counters", {})) ^
             set(snapshot.get("counters", {})))
    if drift:
        return ["telemetry key drift vs bench/results snapshot: "
                + ", ".join(sorted(drift))]
    return []


def check_all(bench, smoke_telemetry, snapshot_telemetry, warnings):
    """Every check in order; returns the failure lines."""
    records = {r["name"]: r for r in bench.get("records", [])}
    return (check_history(bench) + check_load(bench) +
            check_scaling_records(records) +
            check_parallel_scaling(records, warnings) +
            check_count_batch(records) +
            check_telemetry_keys(smoke_telemetry, snapshot_telemetry))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--bench", default="BENCH_engine.json")
    parser.add_argument("--telemetry", default="TELEMETRY_kernel.json")
    parser.add_argument("--snapshot",
                        default="bench/results/TELEMETRY_kernel.json")
    args = parser.parse_args(argv)
    with open(args.bench) as f:
        bench = json.load(f)
    with open(args.telemetry) as f:
        smoke = json.load(f)
    with open(args.snapshot) as f:
        snapshot = json.load(f)
    warnings = []
    failures = check_all(bench, smoke, snapshot, warnings)
    for line in warnings:
        print(line)
    if failures:
        print("\n".join(failures))
        return 1
    print("batch records present; telemetry key set matches snapshot")
    return 0


if __name__ == "__main__":
    sys.exit(main())
