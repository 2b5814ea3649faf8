#!/usr/bin/env python3
"""Set-up probe: what a fresh interpreter pays before its first result.

Times `import lagrass` (`lagrass.cli` for the cli workload; numpy and scipy
included) plus one warm-up op per size of the workload, and prints
{"seconds": ..., "scaled_s": ...}: wall seconds, and seconds at the reference
speed (see reference.py), the import scaled by the reference kernel's time
right after it and the warm-up ops by the mean of that and the time right
after them. Input generation between the two is not timed.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import common  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    args = parser.parse_args()
    common.pin_threads()
    common.use_checkout_source()

    start = time.perf_counter()
    if args.workload == "cli":
        import lagrass.cli  # noqa: F401
    else:
        import lagrass  # noqa: F401
    imported = time.perf_counter() - start

    import reference
    import workloads

    after_import = reference.measure()
    if args.workload == "cli":
        wl = workloads.Cli(args.seed, Path(args.workdir), mode="inprocess")
        warmup = [0]
    else:
        wl = workloads.LIBRARY_WORKLOADS[args.workload](args.seed, rounds=1)
        warmup = wl.warmup_indices()
    ops = 0.0
    for i in warmup:
        latency, outcome = wl.op(i)
        wl.check(i, outcome)
        ops += latency or 0.0
    after_ops = reference.measure()
    scaled = reference.REFERENCE_S * (imported / after_import
                                      + ops / ((after_import + after_ops) / 2.0))
    print(json.dumps({"seconds": imported + ops, "scaled_s": scaled}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
