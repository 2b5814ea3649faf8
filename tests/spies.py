"""Call counting for tests: which identities `linalg._check` held each array
to, which `numpy.linalg` routines ran on which shapes and dtypes, which
generators had their node certificate computed, which symmetric unitaries
`_real_eigenbasis` factored, and which geodesic nodes had their 2n x 2n
matrix formed.

    spy = CallSpy(monkeypatch)
    recover_operator(eps)
    assert spy.symmetric_checks(b) == ["recovered graph operator"]
    assert len(spy.calls("svd")) == 1
    assert spy.dtypes("svd") == [np.dtype(np.float64)]

Every lagrass module that imported `_check` or `_real_eigenbasis` sees the
spy, and so does every caller of `np.linalg.<routine>` through the attribute;
numpy's own internal calls do not. `formed` has the generator of each node
matrix formed, for the nodes `evaluate` built while the spy was on.
"""

import sys

import numpy as np

import lagrass.complex_structure
import lagrass.geodesics
import lagrass.linalg

ROUTINES = ("eig", "eigh", "eigvals", "eigvalsh", "qr", "solve", "svd")


class CallSpy:
    def __init__(self, monkeypatch):
        self.checks = []    # (name, identity kinds, copy of the checked array)
        self.linalg = []    # (routine, shape, dtype of its first argument)
        self.certified = []     # generators whose node certificate was computed
        self.eigenbases = []    # shape of each matrix `_real_eigenbasis` factored
        self.formed = []    # generator of each geodesic node whose matrix was formed
        check = lagrass.linalg._check
        certify = lagrass.geodesics._node_certificate
        form = lagrass.geodesics._node_matrix
        eigenbasis = lagrass.complex_structure._real_eigenbasis

        def spy_check(arr, name, checks=(), *args, **kwargs):
            kinds = tuple(c[0] if isinstance(c[0], str) else c[0][0] for c in checks)
            self.checks.append((name, kinds, np.array(arr, copy=True)))
            return check(arr, name, checks, *args, **kwargs)

        def spy_eigenbasis(c):
            self.eigenbases.append(np.shape(c))
            return eigenbasis(c)

        for module_name, module in list(sys.modules.items()):
            if not module_name.startswith("lagrass"):
                continue
            for name, real, spy in (("_check", check, spy_check),
                                    ("_real_eigenbasis", eigenbasis, spy_eigenbasis)):
                if getattr(module, name, None) is real:
                    monkeypatch.setattr(module, name, spy)
        for routine in ROUTINES:
            monkeypatch.setattr(np.linalg, routine, self._counting(routine, getattr(np.linalg, routine)))

        def spy_certify(gen):
            self.certified.append(gen)
            return certify(gen)

        monkeypatch.setattr(lagrass.geodesics, "_node_certificate", spy_certify)

        def spy_form(gen, d):
            self.formed.append(gen)
            return form(gen, d)

        monkeypatch.setattr(lagrass.geodesics, "_node_matrix", spy_form)

    def _counting(self, routine, real):
        def call(a, *args, **kwargs):
            self.linalg.append((routine, np.shape(a), np.asarray(a).dtype))
            return real(a, *args, **kwargs)
        return call

    def symmetric_checks(self, arr) -> list:
        """The names under which an array equal to arr was checked symmetric."""
        arr = np.asarray(arr)
        return [name for name, kinds, a in self.checks
                if "symmetric" in kinds and a.shape == arr.shape and np.array_equal(a, arr)]

    def node_checks(self) -> list:
        """The kinds of every `Symmetry`-style check ("symmetry") that ran."""
        return [kinds for name, kinds, _ in self.checks if name == "symmetry"]

    def calls(self, *routines) -> list:
        """(routine, shape) of every call of the named numpy.linalg routines."""
        return [(r, shape) for r, shape, _ in self.linalg if r in routines]

    def dtypes(self, *routines) -> list:
        """dtype of the first argument of every call of the named routines."""
        return [dtype for r, _, dtype in self.linalg if r in routines]
