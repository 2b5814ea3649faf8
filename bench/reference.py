"""Machine-speed reference: a fixed kernel timed next to the program's ops.

On a shared host the processor's speed drifts by up to ±25 % over seconds,
and a slow phase can last a whole run. Numpy kernels and plain Python loops
slow down by the same share (their time ratio held within ±5 % while each
alone moved by ±20 %), so a fixed kernel that mixes both tracks the speed
the program ran at. The benchmark times this kernel every
`run.REFERENCE_EVERY_S` seconds and scales every end-to-end timing by
`REFERENCE_S / (kernel time measured around it)`: a reported millisecond is
a millisecond at the speed where the kernel takes `REFERENCE_S`. The kernel
is the benchmark's own code, so a change to the program cannot change it.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# The kernel's median time on a two-core x86-64 host in a typical phase, so
# that scaled figures stay close to wall-clock ones there.
REFERENCE_S = 1.4e-3
REPS = 5

_rng = np.random.default_rng(20080816)
_SYM = _rng.standard_normal((64, 64))
_SYM = _SYM + _SYM.T
_GEN = _rng.standard_normal((48, 48))
_STACK = _rng.standard_normal((200, 4, 4))


def kernel() -> float:
    """Fixed work in the program's mix: a Python loop, small LAPACK calls, array ops."""
    acc = 0.0
    for k in range(6000):
        acc += (k % 7) * 0.5
    w = np.linalg.eigh(_SYM)[0]
    s = np.linalg.svd(_GEN, compute_uv=False)
    m = _STACK @ _STACK.transpose(0, 2, 1)
    return acc + float(w[0] + s[0] + m.sum())


def measure(reps: int = REPS) -> float:
    """Median seconds of `reps` timed kernel calls, after one untimed call."""
    kernel()
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - start)
    return statistics.median(times)
