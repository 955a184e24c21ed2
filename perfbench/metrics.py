"""Turns what perfbench_driver measured into the benchmark's named metrics.

The driver prints sample lists and scalars named by what they measure;
this module owns the statistics (median, percentiles, quartile spread) and
the tables that map those raw figures to the metric names and units in
BENCHMARK.json. test_perfbench.py checks the tables against that file.
"""

import statistics

# Every workload the driver runs; BENCHMARK.json keeps a subset (README.md).
WORKLOADS = [
    "clock_batch",
    "majority_count_shard",
    "serve",
    "sweep_checkpointed",
]

# Layers each workload runs through.
LAYERS_BY_WORKLOAD = {
    "clock_batch": {"core", "trace"},
    "majority_count_shard": {"core", "trace"},
    "serve": {"server", "trace"},
    "sweep_checkpointed": {"sweep", "persist", "trace"},
}

# Where a traced run takes the figures of a layer the requested workload
# bypasses: a workload that loads it, so no figure is a placeholder.
LAYER_SOURCE = {
    "core": "majority_count_shard",
    "persist": "sweep_checkpointed",
    "server": "serve",
    "sweep": "sweep_checkpointed",
}

SERVER_KINDS = ["step", "observe", "run"]


class MetricError(Exception):
    """A metric's raw inputs are missing from the driver's output."""


def median(values):
    if not values:
        raise MetricError("median of no samples")
    return statistics.median(values)


def percentile(values, q):
    """The q-th percentile (0..100), linear between the closest ranks."""
    if not values:
        raise MetricError("percentile of no samples")
    s = sorted(values)
    pos = (len(s) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def quartile_spread(values):
    """Distance between the first and third quartile as a share of the
    median, with the quartiles of statistics.quantiles(values, n=4)."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


class Raw:
    """Accessors over one driver result that fail loudly when absent."""

    def __init__(self, doc):
        self.samples = doc.get("samples", {})
        self.scalars = doc.get("scalars", {})

    def sample(self, name):
        if not self.samples.get(name):
            raise MetricError("no samples named " + name)
        return self.samples[name]

    def scalar(self, name):
        if name not in self.scalars:
            raise MetricError("no scalar named " + name)
        return self.scalars[name]

    def rate(self, count, seconds):
        return self.scalar(count) / self.scalar(seconds)


# (name, unit, function of Raw). `requests` counts each workload's unit of
# service: a round (clock_batch), a consensus query (majority_count_shard),
# a daemon request (serve) or a sweep job (sweep_checkpointed); latency is
# per such unit.
END_TO_END = [
    ("setup_s", "s", lambda r: median(r.sample("setup_s"))),
    ("wall_s", "s", lambda r: median(r.sample("wall_s"))),
    ("interactions_per_s", "1/s", lambda r: r.rate("interactions", "busy_s")),
    ("rounds_to_consensus", "rounds", lambda r: median(r.sample("rounds"))),
    ("requests_per_s", "1/s", lambda r: r.rate("requests", "busy_s")),
    ("latency_p50_us", "us", lambda r: percentile(r.sample("latency_us"), 50)),
    ("latency_p99_us", "us", lambda r: percentile(r.sample("latency_us"), 99)),
    ("peak_rss_mb", "MB", lambda r: r.scalar("peak_rss_mb")),
]


def _scalar(name):
    return lambda r: r.scalar(name)


def _share(part, whole):
    return lambda r: r.scalar(part) / r.scalar(whole)


def _transport_p50(r):
    return (percentile(r.sample("server.roundtrip_us"), 50)
            - percentile(r.sample("server.execute_us.all"), 50))


PER_LAYER = [
    ("core.advance_s", "s", _scalar("core.advance_s")),
    ("core.observe_s", "s", _scalar("core.observe_s")),
    ("core.round_ms_p50", "ms",
     lambda r: percentile(r.sample("core.round_ms"), 50)),
    ("core.round_ms_max", "ms", lambda r: max(r.sample("core.round_ms"))),
    ("core.migration_round_ms_p50", "ms",
     lambda r: percentile(r.sample("core.migration_round_ms"), 50)),
    ("core.t1_advance_s", "s", _scalar("core.t1_advance_s")),
    ("core.parallel_speedup", "ratio", _scalar("core.parallel_speedup")),
    ("core.interactions", "count", _scalar("core.interactions")),
    ("core.effective_frac", "ratio",
     _share("core.effective_steps", "core.interactions")),
    ("core.batch_blocks", "count", _scalar("core.batch_blocks")),
    ("core.batch_collisions", "count", _scalar("core.batch_collisions")),
    ("core.skip_jumps", "count", _scalar("core.skip_jumps")),
    ("core.skipped_frac", "ratio",
     _share("core.skipped_interactions", "core.interactions")),
    ("core.cache_builds", "count", _scalar("core.cache_builds")),
    ("persist.snapshot_s", "s", _scalar("persist.snapshot_s")),
    ("persist.restore_s", "s", _scalar("persist.restore_s")),
    ("persist.snapshot_bytes", "bytes", _scalar("persist.snapshot_bytes")),
    ("persist.checkpoint_s", "s", _scalar("persist.checkpoint_s")),
    ("sweep.init_s", "s", lambda r: median(r.sample("sweep.init_s"))),
    ("sweep.job_s_p50", "s", lambda r: percentile(r.sample("sweep.job_s"), 50)),
    ("sweep.job_s_max", "s", lambda r: max(r.sample("sweep.job_s"))),
    ("sweep.slot_idle_frac", "ratio", _scalar("sweep.slot_idle_frac")),
]
for _kind in SERVER_KINDS:
    for _q in (50, 99):
        PER_LAYER.append((
            "server.execute_us_p%d.%s" % (_q, _kind), "us",
            (lambda k, q: lambda r: percentile(
                r.sample("server.execute_us." + k), q))(_kind, _q)))
PER_LAYER += [
    ("server.transport_us_p50", "us", _transport_p50),
    ("server.bytes_out_per_request", "bytes",
     _scalar("server.bytes_out_per_request")),
    ("trace.overhead_ratio", "ratio", _scalar("trace.overhead_ratio")),
]


def end_to_end(doc):
    raw = Raw(doc)
    return {name: {"value": fn(raw), "unit": unit}
            for name, unit, fn in END_TO_END}


def layer_source(layer, workload):
    """The workload whose traced pass measures `layer` in a traced run of
    `workload`: the workload itself when it loads the layer."""
    if layer in LAYERS_BY_WORKLOAD[workload]:
        return workload
    return LAYER_SOURCE[layer]


def trace_sources(workload):
    """The traced passes a traced run of `workload` needs, its own first."""
    sources = [workload]
    for name, _, _ in PER_LAYER:
        source = layer_source(name.split(".")[0], workload)
        if source not in sources:
            sources.append(source)
    return sources


def per_layer(docs, workload):
    """Every per-layer metric, each from the traced pass (`docs` maps
    workload to driver result) of the workload that measures its layer."""
    out = {}
    for name, unit, fn in PER_LAYER:
        source = layer_source(name.split(".")[0], workload)
        out[name] = {"value": fn(Raw(docs[source])), "unit": unit}
    return out
