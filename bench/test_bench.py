"""Tests of the benchmark itself: tracer arithmetic, seeded inputs, live gates.

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import common  # noqa: E402
import lagrass  # noqa: E402
import lagrass.cli  # noqa: E402
import metrics  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from tracer import Span  # noqa: E402


def _span(name, start, end, parent):
    return Span(name, start, end, parent, 0, True)


def test_self_time_subtracts_the_union_of_children():
    spans = [
        _span("root", 0.0, 10.0, -1),
        _span("a", 1.0, 4.0, 0),
        _span("b", 3.0, 6.0, 0),      # overlaps a: the union [1, 6] is covered once
        _span("a.child", 2.0, 3.0, 1),
        _span("late", 9.0, 12.0, 0),  # runs past its parent: only [9, 10] counts
    ]
    assert tracer.self_times(spans) == pytest.approx([10.0 - 5.0 - 1.0, 2.0, 3.0, 1.0, 3.0])


def test_traced_run_writes_its_spans(tmp_path):
    ignore = shutil.ignore_patterns("__pycache__")
    shutil.copytree(BENCH, tmp_path / "bench", ignore=ignore)
    shutil.copytree(BENCH.parent / "src", tmp_path / "src", ignore=ignore)
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "curves", "--seed", "7",
                           "--seconds", "0", "--trace", "1"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    path = tmp_path / ".bench_run" / "spans-curves.jsonl"
    spans = [json.loads(line) for line in path.read_text().splitlines()]
    calls = result["metrics"]["geodesics.sampled_lengths.calls"]["value"]
    assert sum(s["name"] == "geodesics.sampled_lengths" for s in spans) == calls > 0
    for index, s in enumerate(spans):
        assert s["start"] <= s["end"]
        if s["parent"] >= 0:
            parent = spans[s["parent"]]
            assert s["parent"] < index and parent["op"] == s["op"]
            assert parent["start"] <= s["start"] and s["end"] <= parent["end"]


def test_tracer_records_nesting_and_restores_every_name():
    originals = (lagrass.connect, lagrass.geodesics.connect, lagrass.cli.connect,
                 lagrass.Symmetry.__post_init__)
    structure = lagrass.ComplexStructure.standard(2)
    rng = np.random.default_rng(0)
    e0 = lagrass.Symmetry(workloads.random_lagrangian(rng, 2))
    e1 = lagrass.Symmetry(workloads.random_lagrangian(rng, 2))
    tr = tracer.Tracer()
    with tr.installed():
        assert lagrass.geodesics.connect is not originals[1]
        lagrass.distance(e0, e1, structure)
    assert (lagrass.connect, lagrass.geodesics.connect, lagrass.cli.connect,
            lagrass.Symmetry.__post_init__) == originals
    names = [s.name for s in tr.spans]
    assert names[0] == "geodesics.distance"     # spans are stored in call order
    connect = names.index("geodesics.connect")
    assert tr.spans[connect].parent == 0
    assert tr.spans[connect].tag == 2
    values = metrics.layer_values(tr.spans, tr.counts, 1.0, 1.0, {})
    assert values["geodesics.connect.calls"] == 1
    assert values["linalg.expm_antisymmetric.work_m3"] >= 4 ** 3
    assert {name for name, _, _ in metrics.layer_spec()} <= set(values)


@pytest.mark.parametrize("make", [
    lambda seed, tmp: workloads.Pairs(seed, rounds=1),
    lambda seed, tmp: workloads.Curves(seed, rounds=1),
    lambda seed, tmp: workloads.Charts(seed, rounds=1),
    lambda seed, tmp: workloads.Cli(seed, tmp / str(seed), mode="inprocess"),
])
def test_input_hash_follows_the_seed(make, tmp_path):
    for seed in (3, 4):
        (tmp_path / str(seed)).mkdir()
    first, again, other = make(3, tmp_path), make(3, tmp_path), make(4, tmp_path)
    assert first.input_hash == again.input_hash
    assert first.input_hash != other.input_hash


def test_pairs_gate_rejects_a_perturbed_endpoint():
    wl = workloads.Pairs(5, rounds=1)
    _, outcome = wl.op(2)
    assert wl.check(2, outcome) == []
    gen, dist, dec, report = outcome
    j = wl.pool[2].structure.matrix
    e0 = wl.pool[2].e0.matrix
    w = workloads.random_j_antisymmetric(np.random.default_rng(1), wl.pool[2].n)
    w = (w - e0 @ w @ e0) / 2.0          # stays J-commuting and base-anticommuting
    assert workloads.max_abs(w @ j - j @ w) < 1e-12
    bad = (SimpleNamespace(z=gen.z + 1e-6 * w), dist, dec, report)
    causes = [f.cause for f in wl.check(2, bad)]
    assert causes == ["endpoint residual > 1e-8"]


def test_curves_gates_reject_wrong_lengths():
    wl = workloads.Curves(5, rounds=1)
    _, geodesic = wl.op(0)
    assert wl.check(0, geodesic) == []
    gen, lengths = geodesic
    _, competitor = wl.op(1)
    assert wl.check(1, competitor) == []
    stretched = (gen, {k: v * (1 + 1e-4) for k, v in lengths.items()})
    assert all(f.kind == "contract" for f in wl.check(0, stretched))
    wl.check(0, geodesic)
    shortcut = {k: v - 1e-3 for k, v in wl._geodesic[0][1].items()}
    assert len(wl.check(1, shortcut)) == len(wl.ks)


def test_latencies_scale_by_the_reference_time_around_them():
    stats = run.LoopStats()
    stats.add(0, 0.010, [])
    stats.add(1, 0.020, [])
    stats.settle(reference.REFERENCE_S)          # machine at the reference speed
    stats.add(2, 0.030, [])
    stats.settle(2.0 * reference.REFERENCE_S)    # machine at half the speed
    assert stats.reference == [reference.REFERENCE_S] * 2 + [2.0 * reference.REFERENCE_S]
    assert stats.scaled_seconds() == pytest.approx([0.010, 0.020, 0.015])
    assert stats.seconds() == [0.010, 0.020, 0.030]


def test_closed_loop_gives_every_timed_op_a_reference_time():
    wl = workloads.Pairs(6, rounds=1)
    plain, traced = run.closed_loop(wl, 0.0)
    assert len(plain.reference) == len(plain.latencies) == wl.round_len
    assert traced.latencies == traced.reference == []
    assert all(r > 0 for r in plain.reference)


def test_charts_round_has_no_failures():
    wl = workloads.Charts(6, rounds=1)
    assert {c.regime for c in wl.pool} == set(wl.regimes)
    failures = [f for i in range(wl.round_len) for f in wl.check(i, wl.op(i)[1])]
    assert failures == []


def test_charts_gate_rejects_a_flipped_sign_plane():
    wl = workloads.Charts(5, rounds=1)
    i = next(k for k, c in enumerate(wl.pool) if c.regime == "antipodal" and c.n == 4)
    _, out = wl.op(i)
    assert wl.check(i, out) == []
    gen, report, alternates = out["a"]
    # flipping every plane, not only the pi-rotation ones, moves the endpoint
    out["a"] = (gen, report, [SimpleNamespace(z=-gen.z)])
    assert [f.cause for f in wl.check(i, out)] == ["(a) alternate endpoint moved > 1e-9"]


def test_cli_gate_rejects_a_changed_byte(tmp_path):
    wl = workloads.Cli(5, tmp_path, mode="inprocess")
    _, first = wl.op(0)
    assert wl.check(0, first) == []
    _, again = wl.op(wl.round_len)
    assert wl.check(wl.round_len, again) == []
    code, stdout = again
    changed = stdout.replace(b"true", b"True", 1)
    assert changed != stdout
    causes = [f.cause for f in wl.check(wl.round_len, (code, changed))]
    assert "output bytes differ from the first cycle" in causes


def test_benchmark_json_matches_the_metric_definitions(tmp_path):
    spec = metrics.benchmark_spec()
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == metrics.layer_spec()
    values = metrics.end_to_end_values([0.001, 0.002], 2, 0, [1.0], 50.0)
    assert list(values) == [m["name"] for m in spec["end_to_end"]]
    assert [w["name"] for w in spec["workloads"]] == [*workloads.LIBRARY_WORKLOADS, "cli"]
    commands = workloads.Cli(1, tmp_path, mode="inprocess").commands
    assert tuple(argv[0] for argv, _ in commands) == workloads.CLI_COMMANDS


def test_pinning_refuses_after_numpy_import():
    assert "numpy" in sys.modules
    with pytest.raises(common.BenchSetupError):
        common.pin_threads()


def test_refuses_without_program_source(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "pairs", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_end_to_end_values_use_median_and_p95():
    values = metrics.end_to_end_values([0.001 * k for k in range(1, 101)], 100, 5,
                                       [1.0, 3.0, 2.0], 50.0)
    assert values["op_ms_p50"] == pytest.approx(50.5)
    assert values["op_ms_p95"] == pytest.approx(95.05)
    assert values["setup_s"] == 2.0
    assert values["ok_frac"] == 0.95
    assert values["ops_per_s"] == pytest.approx(100 / 5.05)
    assert math.isfinite(values["peak_rss_mb"])
