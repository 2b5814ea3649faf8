"""Metric definitions and their computation from loop samples and spans.

The end-to-end metrics (names, units, bounds) are read from BENCHMARK.json.
The per-layer names follow from the tracer's targets and the workloads;
BENCHMARK.json lists the same, and the benchmark's tests keep the two in step.
"""

from __future__ import annotations

import json
import statistics
from collections import Counter

import numpy as np

import common
import tracer
from workloads import CLI_COMMANDS, Pairs


def benchmark_spec() -> dict:
    """BENCHMARK.json: the end-to-end metrics with their units and bounds."""
    return json.loads((common.ROOT / "BENCHMARK.json").read_text())


WORK_COUNTS = (
    "linalg.expm_antisymmetric.matrices",
    "linalg.expm_antisymmetric.work_m3",
    "geodesics.sample.nodes",
    "geodesics.sampled_lengths.nodes",
    "geodesics.alternate_generators.generators",
    "graphs.cayley_curve.grid_points",
    "sampling.perturbed_curve.nodes",
)
FAILURE_COUNTS = ("geodesics.connect", "graphs.recover_operator")
ACCURACY = (
    ("geodesics.connect.endpoint_resid_max", "abs"),
    ("geodesics.sampled_lengths.quad_rel_err_max", "ratio"),
    ("graphs.cayley_curve.form_err_max", "abs"),
)


def layer_spec() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    spec = []
    for name in tracer.span_names():
        spec += [(f"{name}.calls", "count", "lower"), (f"{name}.self_ms", "ms", "lower")]
    spec += [(name, "count", "lower") for name in WORK_COUNTS]
    spec += [("cli.output_bytes", "bytes", "lower")]
    spec += [(f"{name}.failed", "count", "lower") for name in FAILURE_COUNTS]
    spec += [("graphs.is_graph.true_ratio", "ratio", "higher")]
    spec += [(name, unit, "lower") for name, unit in ACCURACY]
    spec += [(f"geodesics.connect.n{n}.ms_p50", "ms", "lower") for n in Pairs.sizes]
    spec += [("cli.import_ms", "ms", "lower")]
    spec += [(f"cli.{command}.ms_p50", "ms", "lower") for command in CLI_COMMANDS]
    spec += [(f"{module}.self_frac", "ratio", "lower") for module in tracer.TARGETS]
    spec += [("trace.overhead_frac", "ratio", "lower")]
    return spec


def end_to_end_values(latencies_s, attempted: int, failed: int, setup_s: list,
                      peak_rss_mb: float) -> dict:
    ms = 1e3 * np.asarray(latencies_s, dtype=float)
    return {
        "setup_s": statistics.median(setup_s),
        "ops_per_s": len(ms) / (float(ms.sum()) / 1e3),
        "op_ms_p50": float(np.percentile(ms, 50)),
        "op_ms_p95": float(np.percentile(ms, 95)),
        "ok_frac": (attempted - failed) / attempted,
        "peak_rss_mb": peak_rss_mb,
    }


def layer_values(spans, counts: Counter, traced_s: float, untraced_s: float,
                 extra: dict) -> dict:
    """Per-layer metrics of one traced run.

    traced_s and untraced_s are the summed op latencies of the same ops run
    with and without the tracer. extra carries what the workload measured
    itself (accuracy maxima, CLI timings, output bytes). Layers a workload
    does not exercise read 0.
    """
    own = tracer.self_times(spans)
    calls, self_ms, failed = Counter(), Counter(), Counter()
    connect_ms: dict[int, list] = {}
    for span, seconds in zip(spans, own):
        calls[span.name] += 1
        self_ms[span.name] += 1e3 * seconds
        failed[span.name] += not span.ok
        if span.name == "geodesics.connect":
            connect_ms.setdefault(span.tag, []).append(1e3 * (span.end - span.start))

    values = {}
    for name in tracer.span_names():
        values[f"{name}.calls"] = calls[name]
        values[f"{name}.self_ms"] = self_ms[name]
    for name in WORK_COUNTS:
        values[name] = counts[name]
    for name in FAILURE_COUNTS:
        values[f"{name}.failed"] = failed[name]
    graph_calls = calls["graphs.is_graph"]
    values["graphs.is_graph.true_ratio"] = (counts["graphs.is_graph.true"] / graph_calls
                                            if graph_calls else 0.0)
    for n in Pairs.sizes:
        values[f"geodesics.connect.n{n}.ms_p50"] = (statistics.median(connect_ms[n])
                                                    if n in connect_ms else 0.0)
    for module in tracer.TARGETS:
        module_ms = sum(v for name, v in self_ms.items() if name.startswith(module + "."))
        values[f"{module}.self_frac"] = module_ms / (1e3 * traced_s)
    values["trace.overhead_frac"] = traced_s / untraced_s - 1.0
    for name, _, _ in layer_spec():
        values.setdefault(name, 0.0)
    values.update(extra)
    return values
