#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workload serve --seeds 1 2 3 4 5

Runs run.py once per seed (run_seconds from BENCHMARK.json unless
--seconds is given) and prints, per metric, the median, the quartile
spread as a share of the median, and the metric's bound. A spread above a
third of the bound is flagged: the benchmark is steady only when every
metric but setup_s stays below it.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.dont_write_bytecode = True

import metrics  # noqa: E402


def main():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    args = parser.parse_args()

    status = 0
    for workload in args.workload:
        values = {}
        for seed in args.seeds:
            done = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds),
                 "--trace", "0"],
                cwd=HERE.parent, capture_output=True, text=True)
            if done.returncode != 0:
                print("%s seed %d: exit %d\n%s" % (workload, seed,
                      done.returncode, done.stderr[-2000:]))
                status = 1
                continue
            result = json.loads(done.stdout.strip().splitlines()[-1])
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        print("== %s (%d runs)" % (workload, len(args.seeds)))
        for spec in bench["end_to_end"]:
            vs = values.get(spec["name"], [])
            if len(vs) < 2:
                continue
            spread = metrics.quartile_spread(vs)
            flag = "" if spread <= spec["bound"] / 3 else "  <-- above bound/3"
            print("  %-22s median %-14.6g spread %6.3f  bound %.2f%s" % (
                spec["name"], metrics.median(vs), spread, spec["bound"], flag))
            print("  %-22s %s" % ("", " ".join("%.4g" % v for v in vs)))
    return status


if __name__ == "__main__":
    sys.exit(main())
