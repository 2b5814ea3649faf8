#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload pairs --seed 1 --seconds 20 --trace 0

--trace 0 prints the end-to-end metrics, each timing scaled to the reference
machine speed (see reference.py); --trace 1 runs every op twice, once
untraced and once under the tracer, prints the per-layer metrics and writes
every span to .bench_run/spans-<workload>.jsonl (the next traced run of that
workload overwrites it).
Human-readable lines come first; the last line of stdout is one JSON
object {"correct", "attempted", "failed", "metrics"}. The load is a closed
loop with one caller: the next op starts when the previous one has finished.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import common  # noqa: E402  (must precede any numpy import)

RUN_DIR = common.ROOT / ".bench_run"
REFERENCE_EVERY_S = 0.25
SETUP_PROBES = 7
IMPORT_PROBES = 3
PRINTED_ONLY = ("failed_frac", "reference_ms")
PROBE_TIMEOUT_S = 120


class LoopStats:
    def __init__(self):
        self.latencies: list[tuple[int, float]] = []     # (op index, seconds)
        self.reference: list[float] = []   # reference kernel seconds around each timed op
        self.attempted = 0
        self.failed = 0
        self.incorrect = 0
        self.failures: Counter = Counter()

    def add(self, index, latency, fails) -> None:
        self.attempted += 1
        if latency is not None:
            self.latencies.append((index, latency))
        if fails:
            self.failed += 1
            self.incorrect += any(f.kind != "refusal" for f in fails)
            self.failures.update(f.key() for f in fails)

    def settle(self, reference_s: float) -> None:
        """Assign the reference time measured around them to the ops timed since the last call."""
        self.reference += [reference_s] * (len(self.latencies) - len(self.reference))

    def seconds(self) -> list[float]:
        return [s for _, s in self.latencies]

    def scaled_seconds(self) -> list[float]:
        """Latencies at the reference machine speed."""
        import reference

        return [s * reference.REFERENCE_S / r
                for (_, s), r in zip(self.latencies, self.reference, strict=True)]

    def merge(self, other: "LoopStats") -> None:
        self.latencies += other.latencies
        self.reference += other.reference
        self.attempted += other.attempted
        self.failed += other.failed
        self.incorrect += other.incorrect
        self.failures.update(other.failures)


def closed_loop(wl, seconds: float, tracer=None) -> tuple[LoopStats, LoopStats]:
    """Run ops 0, 1, ... in whole rounds until `seconds` have passed.

    Every REFERENCE_EVERY_S the reference kernel is timed; the ops in between
    get the mean of the two reference times around them.
    With a tracer, each op runs twice back to back, untraced and then under
    the tracer, so machine-speed drift during the run cancels out of
    trace.overhead_frac. Returns (untraced stats, traced stats).
    """
    import reference

    plain, traced = LoopStats(), LoopStats()
    before = reference.measure()
    next_reference = time.perf_counter() + REFERENCE_EVERY_S
    deadline = time.perf_counter() + seconds
    i = 0
    while True:
        for _ in range(wl.round_len):
            latency, outcome = wl.op(i)
            plain.add(i, latency, wl.check(i, outcome))
            if tracer is not None:
                tracer.op = i
                with tracer.installed():
                    latency, outcome = wl.op(i)
                traced.add(i, latency, wl.check(i, outcome))
            i += 1
            if time.perf_counter() >= next_reference:
                after = reference.measure()
                plain.settle((before + after) / 2.0)
                traced.settle((before + after) / 2.0)
                before = after
                next_reference = time.perf_counter() + REFERENCE_EVERY_S
        if time.perf_counter() >= deadline:
            after = reference.measure()
            plain.settle((before + after) / 2.0)
            traced.settle((before + after) / 2.0)
            return plain, traced


def run_probe(args_list, env) -> dict:
    proc = subprocess.run(args_list, capture_output=True, text=True, env=env,
                          timeout=PROBE_TIMEOUT_S)
    if proc.returncode != 0:
        raise common.BenchSetupError(f"probe failed: {proc.stderr.strip()[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def setup_samples(workload: str, seed: int, workdir: Path) -> tuple[list[float], list[float]]:
    """(wall seconds, seconds at the reference speed) of SETUP_PROBES fresh interpreters."""
    probe = [sys.executable, str(common.BENCH_DIR / "probe.py"), "--workload", workload,
             "--seed", str(seed), "--workdir", str(workdir)]
    runs = [run_probe(probe, common.child_env()) for _ in range(SETUP_PROBES)]
    return [r["seconds"] for r in runs], [r["scaled_s"] for r in runs]


def import_samples() -> list[float]:
    code = ("import json, time; t = time.perf_counter(); import lagrass.cli; "
            "print(json.dumps({'seconds': time.perf_counter() - t}))")
    return [run_probe([sys.executable, "-c", code], common.child_env())["seconds"]
            for _ in range(IMPORT_PROBES)]


def build(workload: str, seed: int, workdir: Path, mode: str):
    import workloads

    if workload == "cli":
        return workloads.Cli(seed, workdir, mode=mode, env=common.child_env())
    return workloads.LIBRARY_WORKLOADS[workload](seed)


def warm_up(wl) -> None:
    for i in wl.warmup_indices():
        wl.check(i, wl.op(i)[1])


def print_report(header: dict, rows, failures: Counter) -> None:
    print("record: " + json.dumps(header, sort_keys=True))
    for name, value, unit, note in rows:
        print(f"  {name:<48} {value:>14.6g} {unit:<6} {note}")
    for key, count in sorted(failures.items()):
        print(f"  failure x{count}: {key}")


def untraced(args, wl, workdir: Path) -> tuple[list, LoopStats]:
    import metrics
    import reference

    setup_wall, setup = setup_samples(args.workload, args.seed, workdir)
    warm_up(wl)
    stats, _ = closed_loop(wl, args.seconds)
    if args.workload == "cli":
        peak_kb = wl.peak_child_kb
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    scaled = stats.scaled_seconds()
    values = metrics.end_to_end_values(scaled, stats.attempted, stats.failed,
                                       setup, peak_kb / 1024.0)
    wall = metrics.end_to_end_values(stats.seconds(), stats.attempted, stats.failed,
                                     setup_wall, peak_kb / 1024.0)
    n = len(stats.latencies)
    beyond = sum(1 for s in scaled if 1e3 * s > values["op_ms_p95"])
    notes = {
        "setup_s": f"median of {len(setup)} fresh interpreters; wall {wall['setup_s']:.4g}",
        "ops_per_s": f"{n} ops / summed op latency; wall {wall['ops_per_s']:.4g}",
        "op_ms_p50": f"n={n}; wall {wall['op_ms_p50']:.4g}",
        "op_ms_p95": f"n={n}, {beyond} beyond; wall {wall['op_ms_p95']:.4g}",
        "ok_frac": f"{stats.attempted - stats.failed}/{stats.attempted} ops",
        "peak_rss_mb": "max of CLI children" if args.workload == "cli" else "this process",
    }
    rows = [(m["name"], values[m["name"]], m["unit"], notes[m["name"]])
            for m in metrics.benchmark_spec()["end_to_end"]]
    rows.append(("failed_frac", stats.failed / stats.attempted, "ratio",
                 "= 1 - ok_frac; printed only"))
    rows.append(("reference_ms", 1e3 * statistics.median(stats.reference), "ms",
                 f"median reference kernel time, nominal {1e3 * reference.REFERENCE_S:g} ms; "
                 "printed only"))
    return rows, stats


def traced(args, wl, workdir: Path) -> tuple[list, LoopStats]:
    import metrics
    from tracer import Tracer

    extra = {"cli.import_ms": 1e3 * statistics.median(import_samples())}
    warm_up(wl)
    tr = Tracer()
    plain, under_trace = closed_loop(wl, args.seconds, tracer=tr)
    spans_file = RUN_DIR / f"spans-{args.workload}.jsonl"
    tr.write_spans(spans_file)
    print(f"spans: {len(tr.spans)} written to {spans_file.relative_to(common.ROOT)}")
    if args.workload == "cli":
        extra["cli.output_bytes"] = wl.cycle_bytes()
        by_command: dict[int, list] = {}
        for i, seconds in plain.latencies:
            by_command.setdefault(i % wl.round_len, []).append(1e3 * seconds)
        for k, (argv, _) in enumerate(wl.commands):
            extra[f"cli.{argv[0]}.ms_p50"] = statistics.median(by_command[k])
    extra.update(wl.accuracy)
    values = metrics.layer_values(tr.spans, tr.counts, sum(under_trace.seconds()),
                                  sum(plain.seconds()), extra)
    plain.merge(under_trace)
    return [(name, values[name], unit, "") for name, unit, _ in metrics.layer_spec()], plain


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("pairs", "curves", "charts", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        common.pin_threads()
        common.use_checkout_source()
        import lagrass
    except (common.BenchSetupError, ImportError) as exc:
        print(f"bench: cannot run: {exc}", file=sys.stderr)
        return 2
    if not Path(lagrass.__file__).resolve().is_relative_to(common.SRC):
        print(f"bench: lagrass imported from {lagrass.__file__}, not {common.SRC}",
              file=sys.stderr)
        return 2

    RUN_DIR.mkdir(exist_ok=True)
    workdir = RUN_DIR / f"{args.workload}-{os.getpid()}"
    workdir.mkdir()
    try:
        mode = "inprocess" if args.trace else "subprocess"
        wl = build(args.workload, args.seed, workdir, mode)
        header = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                  "trace": args.trace, "input_sha256": wl.input_hash,
                  "env": common.environment_record()}
        rows, stats = (traced if args.trace else untraced)(args, wl, workdir)
    except common.BenchSetupError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            RUN_DIR.rmdir()     # kept when a traced run left its spans there
        except OSError:
            pass
    header["attempted"], header["failed"] = stats.attempted, stats.failed
    print_report(header, rows, stats.failures)
    reported = {name: {"value": value, "unit": unit}
                for name, value, unit, _ in rows if name not in PRINTED_ONLY}
    print(json.dumps({"correct": stats.incorrect == 0, "attempted": stats.attempted,
                      "failed": stats.failed, "metrics": reported}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
