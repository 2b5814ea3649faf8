"""Environment pinning, source location and the environment record.

This module imports nothing heavy at load time: `pin_threads` must run before
numpy is first imported, because BLAS reads its thread count only then.
"""

from __future__ import annotations

import os
import platform
import sys
from pathlib import Path

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"


class BenchSetupError(RuntimeError):
    """The benchmark cannot run here (wrong import order, no program source)."""


def pin_threads() -> None:
    """Pin BLAS/OpenMP to one thread; refuse if numpy was imported already.

    With two BLAS threads on a two-core machine, `connect` at n=64 measured a
    48 ms median and a 251 ms maximum; pinned, 24 ms and 25 ms.
    """
    if "numpy" in sys.modules:
        raise BenchSetupError("numpy was imported before the thread variables were pinned")
    for var in THREAD_VARS:
        os.environ[var] = "1"


def use_checkout_source() -> None:
    """Import lagrass from this checkout's src/, never from an installed copy."""
    if not (SRC / "lagrass" / "__init__.py").is_file():
        raise BenchSetupError(f"no program source at {SRC / 'lagrass'}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def child_env() -> dict:
    """Environment for program subprocesses: pinned threads, checkout source."""
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = "1"
    env["PYTHONPATH"] = str(SRC)
    return env


def environment_record() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
    }
