"""Span tracer installed around lagrass's public functions from outside src/.

`with Tracer().installed():` replaces each target function in every
`lagrass.*` module namespace that holds it (the defining module and every
module that imported the name), and wraps the validating `__post_init__` of
`Symmetry` and `GeodesicGenerator`. Every patched name is restored when the
block exits. Installing is a loop of setattr calls, so the benchmark can
switch tracing on for one op and off again.

Each call records a span: name, start, end, parent span and the op id the
loop set. Spans stay in memory until the run ends. A span's self time is its
duration minus the part of it covered by its child spans, so a private
helper's time (`_pair_frames`, `_pi_planes`) counts toward its public caller.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import sys
import time
from collections import Counter
from typing import NamedTuple

import numpy as np

TARGETS = {
    "linalg": ("expm_antisymmetric", "logm_special_orthogonal", "schatten_norm",
               "spectral_decompose", "apply_function", "require_symmetric"),
    "complex_structure": ("complexify", "anticommutes_with_structure"),
    "subspaces": ("subspace_from_symmetry", "five_way_decompose", "is_lagrangian"),
    "geodesics": ("connect", "distance", "classify_multiplicity", "alternate_generators",
                  "sample", "sampled_lengths"),
    "graphs": ("cayley_curve", "cayley_transform", "recover_operator", "is_graph",
               "graph_window", "graph_safe_radius", "graph_symmetry", "gap_distance"),
    "sampling": ("perturbed_curve",),
    "cli": ("main",),
}
# classes whose validating constructor is traced through __post_init__
CLASS_TARGETS = {"subspaces": ("Symmetry",), "geodesics": ("GeodesicGenerator",)}


def span_names() -> list[str]:
    names = []
    for module in TARGETS:
        names += [f"{module}.{fn}" for fn in TARGETS[module] + CLASS_TARGETS.get(module, ())]
    return names


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int       # index of the enclosing span, -1 at top level
    op: int
    ok: bool          # False when the call raised
    tag: object = None


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def _count_expm(counts, args, kwargs, result):
    shape = np.shape(_arg(args, kwargs, 0, "z"))
    matrices = int(np.prod(shape[:-2], dtype=np.int64)) if len(shape) > 2 else 1
    counts["linalg.expm_antisymmetric.matrices"] += matrices
    counts["linalg.expm_antisymmetric.work_m3"] += matrices * shape[-1] ** 3


def _counter(metric, index, name, of_result=False):
    def hook(counts, args, kwargs, result):
        if of_result:
            if result is not None:
                counts[metric] += len(result)
        else:
            counts[metric] += len(np.atleast_1d(_arg(args, kwargs, index, name)))
    return hook


def _count_graph(counts, args, kwargs, result):
    counts["graphs.is_graph.true"] += bool(result)


def _connect_size(counts, args, kwargs, result):
    return _arg(args, kwargs, 2, "structure").n


HOOKS = {
    "linalg.expm_antisymmetric": _count_expm,
    "geodesics.sample": _counter("geodesics.sample.nodes", 1, "ts"),
    "geodesics.sampled_lengths": _counter("geodesics.sampled_lengths.nodes", 0, "samples"),
    "geodesics.alternate_generators": _counter("geodesics.alternate_generators.generators",
                                               0, "", of_result=True),
    "graphs.cayley_curve": _counter("graphs.cayley_curve.grid_points", 1, "ts"),
    "sampling.perturbed_curve": _counter("sampling.perturbed_curve.nodes", 3, "ts"),
    "graphs.is_graph": _count_graph,
    "geodesics.connect": _connect_size,
}


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self.op = -1
        self._stack: list[int] = []
        self._patches: list | None = None    # (target, attribute, original, wrapped)

    def wrap(self, name: str, fn):
        spans, stack, hook = self.spans, self._stack, HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            result, ok = None, False
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                tag = hook(self.counts, args, kwargs, result) if hook else None
                spans[index] = Span(name, start, end, parent, self.op, ok, tag)

        return traced

    def _plan(self) -> list:
        """Every (namespace, attribute) holding a target, found once."""
        for module_name in TARGETS:
            importlib.import_module(f"lagrass.{module_name}")
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "lagrass" or key.startswith("lagrass."))]
        patches = []
        for module_name, functions in TARGETS.items():
            home = sys.modules[f"lagrass.{module_name}"]
            for fn_name in functions:
                original = getattr(home, fn_name)
                wrapped = self.wrap(f"{module_name}.{fn_name}", original)
                for module in modules:
                    patches += [(module, attr, original, wrapped)
                                for attr, value in vars(module).items() if value is original]
        for module_name, classes in CLASS_TARGETS.items():
            home = sys.modules[f"lagrass.{module_name}"]
            for cls_name in classes:
                cls = getattr(home, cls_name)
                original = cls.__dict__["__post_init__"]
                wrapped = self.wrap(f"{module_name}.{cls_name}", original)
                patches.append((cls, "__post_init__", original, wrapped))
        return patches

    @contextlib.contextmanager
    def installed(self):
        """Patch every target for the duration of the block, then restore."""
        if self._patches is None:
            self._patches = self._plan()
        for target, attr, _, wrapped in self._patches:
            setattr(target, attr, wrapped)
        try:
            yield self
        finally:
            for target, attr, original, _ in self._patches:
                setattr(target, attr, original)

    def write_spans(self, path) -> None:
        """One JSON object per span, in call order."""
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({"name": s.name, "start": s.start, "end": s.end,
                                     "parent": s.parent, "op": s.op, "ok": s.ok}) + "\n")


def covered(lo: float, hi: float, intervals) -> float:
    """Length of [lo, hi] covered by the union of the given intervals."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans) -> list[float]:
    children: dict[int, list] = {}
    for s in spans:
        if s.parent >= 0:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return [s.end - s.start - covered(s.start, s.end, children.get(i, ()))
            for i, s in enumerate(spans)]
