#!/usr/bin/env python3
"""Tests for the benchmark's own code: the statistics, and that the metric
and workload names the benchmark emits are the ones BENCHMARK.json names.

    python3 perfbench/test_perfbench.py
"""

import json
import re
import statistics
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.dont_write_bytecode = True

import metrics  # noqa: E402

BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def synthetic_raw(scale=1.0):
    """A driver result carrying every raw figure any layer needs; values
    are arbitrary, non-zero and multiplied by `scale`."""
    samples = {name: [1.0, 2.0, 3.0, 4.0] for name in (
        "setup_s", "wall_s", "rounds", "latency_us", "core.round_ms",
        "core.migration_round_ms", "sweep.init_s", "sweep.job_s",
        "server.roundtrip_us", "server.execute_us.all")}
    for kind in metrics.SERVER_KINDS:
        samples["server.execute_us." + kind] = [5.0, 6.0]
    scalars = {name: 2.0 * scale for name in (
        "interactions", "busy_s", "requests", "peak_rss_mb",
        "core.advance_s", "core.observe_s", "core.t1_advance_s",
        "core.parallel_speedup", "core.interactions", "core.effective_steps",
        "core.batch_blocks", "core.batch_collisions", "core.skip_jumps",
        "core.skipped_interactions", "core.cache_builds",
        "persist.snapshot_s", "persist.restore_s", "persist.snapshot_bytes",
        "persist.checkpoint_s", "sweep.slot_idle_frac",
        "server.bytes_out_per_request", "trace.overhead_ratio")}
    return {"samples": samples, "scalars": scalars}


def synthetic_docs():
    """One traced pass per workload, each scaled apart so a test can tell
    which pass a figure came from."""
    return {w: synthetic_raw(i + 1.0) for i, w in enumerate(metrics.WORKLOADS)}


class Statistics(unittest.TestCase):
    def test_median(self):
        self.assertEqual(metrics.median([3.0, 1.0, 2.0]), 2.0)
        self.assertEqual(metrics.median([4.0, 1.0, 2.0, 3.0]), 2.5)
        with self.assertRaises(metrics.MetricError):
            metrics.median([])

    def test_percentile_interpolates_between_ranks(self):
        v = [10.0, 20.0, 30.0, 40.0, 50.0]
        self.assertEqual(metrics.percentile(v, 0), 10.0)
        self.assertEqual(metrics.percentile(v, 50), 30.0)
        self.assertEqual(metrics.percentile(v, 100), 50.0)
        self.assertAlmostEqual(metrics.percentile(v, 99), 49.6)
        self.assertAlmostEqual(metrics.percentile(v, 10), 14.0)
        self.assertEqual(metrics.percentile([7.0], 99), 7.0)

    def test_percentile_ignores_input_order(self):
        v = list(range(1000, 0, -1))
        self.assertAlmostEqual(metrics.percentile(v, 99), 990.01)
        self.assertAlmostEqual(metrics.percentile(v, 50), 500.5)

    def test_quartile_spread_matches_statistics_quantiles(self):
        v = [1.0, 2.0, 4.0, 8.0, 9.0, 10.0, 12.0, 13.0, 20.0, 21.0]
        q1, _, q3 = statistics.quantiles(v, n=4)
        self.assertAlmostEqual(metrics.quartile_spread(v),
                               (q3 - q1) / statistics.median(v))
        self.assertEqual(metrics.quartile_spread([5.0] * 10), 0.0)


class NamesMatchBenchmarkJson(unittest.TestCase):
    def test_workloads(self):
        # BENCHMARK.json may keep a subset (README.md says which is left
        # out and why); every kept one must be a workload the driver runs.
        kept = [w["name"] for w in BENCH["workloads"]]
        self.assertEqual(kept, [w for w in metrics.WORKLOADS if w in kept])
        self.assertGreaterEqual(len(kept), 2)
        self.assertEqual(sorted(metrics.LAYERS_BY_WORKLOAD),
                         sorted(metrics.WORKLOADS))

    def test_driver_knows_every_workload(self):
        src = (HERE / "driver.cpp").read_text()
        table = src[src.index("kWorkloads[]"):]
        table = table[:table.index("};")]
        self.assertEqual(re.findall(r'\{"([a-z_]+)"', table),
                         metrics.WORKLOADS)

    def test_end_to_end_names_and_units(self):
        self.assertEqual([(m["name"], m["unit"]) for m in BENCH["end_to_end"]],
                         [(n, u) for n, u, _ in metrics.END_TO_END])

    def test_per_layer_names_and_units(self):
        self.assertEqual([(m["name"], m["unit"]) for m in BENCH["per_layer"]],
                         [(n, u) for n, u, _ in metrics.PER_LAYER])

    def test_benchmark_json_fields(self):
        name = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
        names = [w["name"] for w in BENCH["workloads"]]
        names += [m["name"] for m in BENCH["end_to_end"] + BENCH["per_layer"]]
        self.assertEqual(len(names), len(set(names)))
        for n in names:
            self.assertRegex(n, name)
        for w in BENCH["workloads"]:
            self.assertLessEqual(len(w["why"]), 200, w["name"])
            self.assertNotIn("\n", w["why"])
        bounds = {m["name"]: m["bound"] for m in BENCH["end_to_end"]}
        self.assertTrue(all(0 < b <= 0.25 for b in bounds.values()))
        self.assertEqual(bounds["setup_s"], max(bounds.values()))

    def test_per_layer_metrics_name_a_known_layer(self):
        layers = set().union(*metrics.LAYERS_BY_WORKLOAD.values())
        for name, _, _ in metrics.PER_LAYER:
            self.assertIn(name.split(".")[0], layers, name)

    def test_emitted_metrics_are_the_named_ones(self):
        e2e = [m["name"] for m in BENCH["end_to_end"]]
        layer = [m["name"] for m in BENCH["per_layer"]]
        docs = synthetic_docs()
        for workload in metrics.WORKLOADS:
            self.assertEqual(list(metrics.end_to_end(docs[workload])), e2e)
            self.assertEqual(list(metrics.per_layer(docs, workload)), layer)


class LayerSources(unittest.TestCase):
    def test_each_layer_comes_from_a_workload_that_loads_it(self):
        docs = synthetic_docs()

        def scalar(workload, name):
            return docs[workload]["scalars"][name]

        serve = metrics.per_layer(docs, "serve")
        self.assertEqual(serve["core.advance_s"]["value"],
                         scalar("majority_count_shard", "core.advance_s"))
        self.assertEqual(serve["persist.snapshot_s"]["value"],
                         scalar("sweep_checkpointed", "persist.snapshot_s"))
        self.assertEqual(serve["server.bytes_out_per_request"]["value"],
                         scalar("serve", "server.bytes_out_per_request"))
        self.assertEqual(serve["trace.overhead_ratio"]["value"],
                         scalar("serve", "trace.overhead_ratio"))
        clock = metrics.per_layer(docs, "clock_batch")
        self.assertEqual(clock["core.advance_s"]["value"],
                         scalar("clock_batch", "core.advance_s"))

    def test_trace_sources(self):
        self.assertEqual(metrics.trace_sources("serve"),
                         ["serve", "majority_count_shard",
                          "sweep_checkpointed"])
        for workload in metrics.WORKLOADS:
            sources = metrics.trace_sources(workload)
            self.assertEqual(sources[0], workload)
            self.assertEqual(len(sources), len(set(sources)))

    def test_sources_load_their_layer(self):
        for layer, workload in metrics.LAYER_SOURCE.items():
            self.assertIn(layer, metrics.LAYERS_BY_WORKLOAD[workload])

    def test_missing_figure_is_an_error(self):
        docs = synthetic_docs()
        del docs["sweep_checkpointed"]["scalars"]["persist.restore_s"]
        with self.assertRaises(metrics.MetricError):
            metrics.per_layer(docs, "serve")

    def test_end_to_end_values(self):
        raw = synthetic_raw()
        raw["samples"]["latency_us"] = [float(i) for i in range(1, 101)]
        out = metrics.end_to_end(raw)
        self.assertEqual(out["wall_s"], {"value": 2.5, "unit": "s"})
        self.assertEqual(out["interactions_per_s"]["value"], 1.0)
        self.assertAlmostEqual(out["latency_p50_us"]["value"], 50.5)
        self.assertAlmostEqual(out["latency_p99_us"]["value"], 99.01)


if __name__ == "__main__":
    unittest.main()
