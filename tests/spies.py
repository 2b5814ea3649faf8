"""Call counting for tests: which identities `linalg._check` held each array
to, and which `numpy.linalg` routines ran on which shapes.

    spy = CallSpy(monkeypatch)
    recover_operator(eps)
    assert spy.symmetric_checks(b) == ["recovered graph operator"]
    assert len(spy.calls("svd")) == 1

Every lagrass module that imported `_check` sees the spy, and so does every
caller of `np.linalg.<routine>` through the attribute; numpy's own internal
calls do not.
"""

import sys

import numpy as np

import lagrass.linalg

ROUTINES = ("eig", "eigh", "eigvals", "eigvalsh", "qr", "solve", "svd")


class CallSpy:
    def __init__(self, monkeypatch):
        self.checks = []    # (name, identity kinds, copy of the checked array)
        self.linalg = []    # (routine, shape of its first argument)
        check = lagrass.linalg._check

        def spy_check(arr, name, checks=(), *args, **kwargs):
            kinds = tuple(c[0] if isinstance(c[0], str) else c[0][0] for c in checks)
            self.checks.append((name, kinds, np.array(arr, copy=True)))
            return check(arr, name, checks, *args, **kwargs)

        for module_name, module in list(sys.modules.items()):
            if module_name.startswith("lagrass") and getattr(module, "_check", None) is check:
                monkeypatch.setattr(module, "_check", spy_check)
        for routine in ROUTINES:
            monkeypatch.setattr(np.linalg, routine, self._counting(routine, getattr(np.linalg, routine)))

    def _counting(self, routine, real):
        def call(a, *args, **kwargs):
            self.linalg.append((routine, np.shape(a)))
            return real(a, *args, **kwargs)
        return call

    def symmetric_checks(self, arr) -> list:
        """The names under which an array equal to arr was checked symmetric."""
        arr = np.asarray(arr)
        return [name for name, kinds, a in self.checks
                if "symmetric" in kinds and a.shape == arr.shape and np.array_equal(a, arr)]

    def calls(self, *routines) -> list:
        """(routine, shape) of every call of the named numpy.linalg routines."""
        return [(r, shape) for r, shape in self.linalg if r in routines]
