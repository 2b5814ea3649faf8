#!/usr/bin/env python3
"""Repeat mode: run workloads over several seeds and report each metric's spread.

    python3 bench/repeat.py --workloads pairs curves --seeds 1-10 [--seconds 20]

For every end-to-end metric it prints the median, the quartiles (as
statistics.quantiles(values, n=4) gives them), the interquartile spread as a
share of the median, and that metric's bound from BENCHMARK.json. A spread
above a third of the bound is flagged: the benchmark is then not steady
enough to judge a change by that bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds_from(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    args = parser.parse_args()

    steady = True
    for workload in args.workloads:
        runs = []
        for seed in seeds_from(args.seeds):
            cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", "0"]
            proc = subprocess.run([sys.executable if c == "python3" else c for c in cmd],
                                  cwd=ROOT, capture_output=True, text=True, timeout=600)
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            runs.append(result)
            values = " ".join(f"{m['name']}={result['metrics'][m['name']]['value']:.4g}"
                              for m in spec["end_to_end"])
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']} {values}", flush=True)
        for metric in spec["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in runs]
            q1, median, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median if median else float("inf")
            flag = ""
            if spread > metric["bound"] / 3.0:
                flag = "  <-- above a third of the bound"
                steady = False
            print(f"  {workload:<7} {metric['name']:<12} median {median:<12.6g} "
                  f"q1 {q1:<12.6g} q3 {q3:<12.6g} spread {spread:7.4f} "
                  f"bound {metric['bound']}{flag}")
    return 0 if steady else 3


if __name__ == "__main__":
    sys.exit(main())
