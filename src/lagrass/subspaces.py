"""Subspaces of R^m in three interchangeable encodings, and pair geometry.

A subspace S is carried by an orthonormal basis, by the orthogonal projection
p onto S, or by the symmetry (reflection) eps = 2p - I. Symmetries are the
canonical internal representation: Lagrangian subspaces are exactly the
symmetries anticommuting with J, and the geodesic machinery conjugates them.

The five-way decomposition splits the ambient space, for a pair of
symmetries of any subspaces, into both-fixed, both-negated, swapped (two
ways) and generic parts. Geodesics between Lagrangians do not use it: they
read the principal angles in the complex picture (see `geodesics`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .complex_structure import ComplexStructure, _split_checked
from .errors import ComputationError, InvariantViolation
from .linalg import (
    _EXCEEDS,
    _as_2d,
    _check,
    _eq_by_value,
    _principal_angles,
    _read_only,
    as_matrix,
    max_abs,
    require_orthonormal_columns,
    require_square,
)
from .tolerances import ANGLE_TOL, ANGLE_TOL_FLOOR, SYM_RTOL


# ---------------------------------------------------------------------------
# the three encodings


@dataclass(frozen=True)
class Subspace:
    """A subspace given by an orthonormal basis (ambient_dim x k, k may be 0),
    kept as its own read-only copy, as in `Symmetry`."""

    __eq__ = _eq_by_value
    basis: np.ndarray

    def __post_init__(self):
        b = require_orthonormal_columns(self.basis, "subspace basis")
        object.__setattr__(self, "basis", _read_only(b.copy()))

    @property
    def ambient_dim(self) -> int:
        return self.basis.shape[0]

    @property
    def dim(self) -> int:
        return self.basis.shape[1]


@dataclass(frozen=True)
class Projection:
    """An orthogonal projection: symmetric, idempotent within tolerance, kept
    as its own read-only copy, as in `Symmetry`."""

    __eq__ = _eq_by_value
    matrix: np.ndarray

    def __post_init__(self):
        p = _as_2d(self.matrix, "projection", square=True)
        rtol = SYM_RTOL * max(p.shape[0], 1)
        _check(p, "projection", [("symmetric", rtol, 0.0, "not symmetric" + _EXCEEDS),
                                 ("idempotent", rtol, 1e-300, "not idempotent within tolerance")])
        object.__setattr__(self, "matrix", _read_only(p.copy()))

    @property
    def ambient_dim(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True)
class Symmetry:
    """A symmetry eps = 2p - I: symmetric with eps^2 = I within tolerance.

    matrix is the symmetry's own read-only copy of its input: a later change
    to the caller's array does not reach it, and a write to it raises
    ValueError. A certified geodesic node (`_certified`) forms its matrix on
    first read, and reports its dimensions before that.
    """

    __eq__ = _eq_by_value
    matrix: np.ndarray
    _chart_floor = -math.inf    # a lower bound on the chart margin; not a field
    _form = _dims = None    # a node's form and (ambient_dim, plus_dim); not fields

    def __post_init__(self):
        e = _require_symmetries(_as_2d(self.matrix, "symmetry"))
        object.__setattr__(self, "matrix", _read_only(e.copy()))

    @classmethod
    def _certified(cls, form, dims: tuple | None = None,
                   chart_floor: float = -math.inf) -> "Symmetry":
        """The symmetry whose matrix form() gives: a fresh float matrix known
        to pass the check (a certified geodesic node), unvalidated, formed on
        the first read of `matrix` and not copied. dims, when given, are its
        (ambient_dim, plus_dim), answered without it. chart_floor bounds its
        top-row chart margin from below for `is_graph` and `recover_operator`
        (see `geodesics.evaluate`); every other symmetry has the class
        default -inf, and == and repr read the matrix only."""
        sym = object.__new__(cls)
        for name, value in (("_form", form), ("_dims", dims), ("_chart_floor", chart_floor)):
            object.__setattr__(sym, name, value)
        return sym

    def __getattr__(self, name: str):
        # only a missing attribute lands here: an unformed node's matrix
        if name != "matrix" or self._form is None:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        object.__setattr__(self, "matrix", _read_only(self._form()))
        return self.matrix

    @property
    def ambient_dim(self) -> int:
        return self._dims[0] if self._dims else self.matrix.shape[0]

    @property
    def plus_dim(self) -> int:
        """Dimension of the +1 eigenspace, from the trace or a node's dims."""
        if self._dims:
            return self._dims[1]
        n = self.ambient_dim
        return int(round((n + float(np.trace(self.matrix))) / 2.0))


def _require_symmetries(stack) -> np.ndarray:
    """Validate one symmetry or a stack of them (..., n, n) in one pass.

    Each matrix e is held to its own scale s = max|e|: entries finite,
    max|e - e^T| <= SYM_RTOL n s and max|e e - I| <= SYM_RTOL n max(s, 1).
    `Symmetry` validates through this check, so a stack passes iff every
    node would pass as a `Symmetry`. The first failing matrix of a stack is
    named. Returns the float array.
    """
    arr = np.asarray(stack, dtype=float)
    if arr.ndim < 2 or arr.shape[-1] != arr.shape[-2]:
        raise InvariantViolation(f"symmetry: expected square matrices, got shape {arr.shape}")
    return _check(arr, "symmetry", _symmetry_checks(SYM_RTOL * max(arr.shape[-1], 1)))


def _require_conjugation_symmetries(c: np.ndarray) -> np.ndarray:
    """`_require_symmetries` in n x n form, for a stack of conjugation matrices.

    In the standard split eps = [[Re C, Im C], [Im C, -Re C]]: the entries of
    eps are those of Re C and Im C, eps - eps^T has those of C - C^T, and
    eps^2 - I is the realified C conj(C) - I. Measuring each with the larger
    of its real and imaginary parts, C passes iff its real symmetry would pass
    as a `Symmetry`: a symmetric unitary within the same tolerances.
    """
    return _check(c, "symmetry", _symmetry_checks(SYM_RTOL * max(2 * c.shape[-1], 1)))


def _symmetry_checks(rtol: float) -> tuple:
    return (("symmetric", rtol, 0.0, "not symmetric" + _EXCEEDS),
            ("involutive", rtol, 1.0, "eps^2 != I" + _EXCEEDS))


def projection_from_subspace(s: Subspace) -> Projection:
    return Projection(s.basis @ s.basis.T)


def symmetry_from_projection(p: Projection) -> Symmetry:
    return Symmetry(2.0 * p.matrix - np.eye(p.ambient_dim))


def projection_from_symmetry(eps: Symmetry) -> Projection:
    return Projection((eps.matrix + np.eye(eps.ambient_dim)) / 2.0)


def symmetry_from_subspace(s: Subspace) -> Symmetry:
    return symmetry_from_projection(projection_from_subspace(s))


def subspace_from_symmetry(eps: Symmetry) -> Subspace:
    """Orthonormal basis of the +1 eigenspace; eigenvalues near +-1 (`_eigenbases`)."""
    return Subspace(_eigenbases(eps)[0])


def _eigenbases(eps: Symmetry) -> tuple[np.ndarray, np.ndarray]:
    """The +1 and -1 eigenvector bases (q, m) of a symmetry from one eigh, as
    C-contiguous copies. It refuses an eigenvalue off +-1 by over t (3 + t),
    t = SYM_RTOL d^2 max(max|e|, 1), as no `Symmetry` has: its check held
    e e - I and e - e^T to t / d entrywise, so to t in the 2-norm; for a unit
    eigenvector v of the h = e + E eigh reads off e's lower triangle, lam^2 - 1
    = v^T (e e - I) v + 2 lam v^T E v - |E v|^2 <= t + 2 |lam| t + t^2."""
    e = eps.matrix
    t = SYM_RTOL * e.shape[0] ** 2 * max(max_abs(e), 1.0)
    lam, vec = np.linalg.eigh(e)
    if np.count_nonzero(np.abs(np.abs(lam) - 1.0) > t * (3.0 + t)):
        raise InvariantViolation("symmetry: eigenvalues not at +-1")
    return vec[:, lam > 0.0].copy(), vec[:, lam <= 0.0].copy()


def vertical_symmetry(n: int) -> Symmetry:
    """Symmetry of the vertical subspace {0} x R^n in R^{2n}: diag(-I, I).

    Lagrangian for the standard complex structure; it is the base point of the
    identity graph chart and the reference for random sampling.
    """
    e = np.diag(np.concatenate([-np.ones(n), np.ones(n)]))
    return Symmetry(e)


# ---------------------------------------------------------------------------
# Lagrangian predicate


def _as_symmetry(s) -> Symmetry:
    if isinstance(s, Symmetry):
        return s
    if isinstance(s, Subspace):
        return symmetry_from_subspace(s)
    if isinstance(s, Projection):
        return symmetry_from_projection(s)
    raise InvariantViolation(f"expected Subspace/Projection/Symmetry, got {type(s).__name__}")


def is_lagrangian(s, structure: ComplexStructure) -> bool:
    """True iff J maps the subspace onto its orthogonal complement: the symmetry
    anticommutes with J (in J's standard split), and the dimension, then
    necessarily half the ambient one, is checked as well."""
    return _lagrangian_split(s, structure) is not None


def _lagrangian_split(s, structure: ComplexStructure) -> np.ndarray | None:
    """The symmetry of s in J's split where s is Lagrangian (never rescaled), else None."""
    eps = _as_symmetry(s)
    if eps.ambient_dim != structure.dim:
        raise InvariantViolation("is_lagrangian: ambient dimension mismatch")
    if eps.plus_dim != structure.n:
        return None
    return _split_checked(eps.matrix, structure, "anticommutes",
                          SYM_RTOL * max(structure.dim, 1))[0]


# ---------------------------------------------------------------------------
# the five-way decomposition of a pair


@dataclass(frozen=True)
class FiveWayDecomposition:
    """Joint reduction of a pair of symmetries (eps0, eps1).

    both_plus:   eps0 = eps1 = +1 (intersection of the subspaces)
    both_minus:  eps0 = eps1 = -1 (intersection of the complements)
    plus_minus:  eps0 = +1, eps1 = -1
    minus_plus:  eps0 = -1, eps1 = +1
    generic:     orthogonal sum of 2-planes with angles strictly inside
                 (0, pi/2) after bucketing
    """

    __eq__ = _eq_by_value
    both_plus: Subspace
    both_minus: Subspace
    plus_minus: Subspace
    minus_plus: Subspace
    generic: Subspace
    generic_angles: np.ndarray

    def dims(self) -> dict:
        return {
            "both_plus": self.both_plus.dim,
            "both_minus": self.both_minus.dim,
            "plus_minus": self.plus_minus.dim,
            "minus_plus": self.minus_plus.dim,
            "generic": self.generic.dim,
        }


def five_way_decompose(eps0: Symmetry, eps1: Symmetry,
                       angle_tol: float = ANGLE_TOL) -> FiveWayDecomposition:
    """Split the ambient space into the five jointly invariant blocks.

    The blocks are read off the principal angles of S0 and S1, bucketed with
    the one width angle_tol: an angle at most angle_tol is a common
    direction, one within angle_tol of pi/2 a swapped one, and so is a
    column the pairing leaves over when the dimensions differ. One complete
    QR of y = m0^T C finishes the split, m0 the -1 eigenvectors of eps0 and C
    the swapped S1 columns and the S1 partners of the generic angles: as
    span(S0 u C) = S0 + (I - P0) C, m0 times the partners' columns of Q joins
    the generic basis and m0 times the rest is both_minus, with no rank
    decision. y is (dim - dim S0) x k, n x n for Lagrangians of R^2n.
    angle_tol must lie in [ANGLE_TOL_FLOOR, pi/4) (InvariantViolation). More
    columns than dimensions, which only common directions whose computed
    angles exceed the width can give, is a ComputationError.
    """
    if not ANGLE_TOL_FLOOR <= angle_tol < math.pi / 4.0:
        raise InvariantViolation(f"pair decomposition: angle width must lie in "
                                 f"[{ANGLE_TOL_FLOOR:g}, pi/4), got {angle_tol!r}")
    eps0, eps1 = _as_symmetry(eps0), _as_symmetry(eps1)
    if eps0.ambient_dim != eps1.ambient_dim:
        raise InvariantViolation("pair decomposition: ambient dimensions differ")
    q0, m0 = _eigenbases(eps0)
    pa = _principal_angles(q0, _eigenbases(eps1)[0])
    zero = pa.angles <= angle_tol
    right = pa.angles >= math.pi / 2.0 - angle_tol
    generic = ~(zero | right)

    blocks = [pa.left[:, zero], np.hstack([pa.left[:, right], pa.left_unpaired]),
              np.hstack([pa.right[:, right], pa.right_unpaired]), pa.left[:, generic]]
    y = m0.T @ np.hstack([blocks[2], pa.right[:, generic]])
    k, g = y.shape[1], blocks[3].shape[1]
    if k > y.shape[0]:
        raise ComputationError(f"five-way decomposition incomplete: blocks sum to "
                               f"{q0.shape[1] + k}, ambient {eps0.ambient_dim}")
    # the S1 partners, orthonormal to all of S0 and the swapped S1 columns
    # by construction: their rounding error, about eps / sin(angle), is
    # left only inside the generic and both_minus blocks, so a tiny
    # generic angle keeps every block orthonormal and invariant
    q, r = np.linalg.qr(y, mode="complete")
    q[:, k - g:k] *= np.copysign(1.0, np.diagonal(r)[k - g:])
    q = m0 @ q[:, k - g:]
    blocks[3] = np.hstack([blocks[3], q[:, :g]])
    both_plus, plus_minus, minus_plus, gen, both_minus = (Subspace(b) for b in blocks + [q[:, g:]])
    return FiveWayDecomposition(both_plus=both_plus, both_minus=both_minus,
                                plus_minus=plus_minus, minus_plus=minus_plus, generic=gen,
                                generic_angles=pa.angles[generic])


# ---------------------------------------------------------------------------
# tangent vectors and the induced connection


def check_tangent(eps: Symmetry, v, structure: ComplexStructure | None = None) -> np.ndarray:
    """Validate a tangent vector at eps: symmetric, anticommutes with eps,
    and (when J is supplied) anticommutes with J in its split. Returns v unchanged."""
    eps = _as_symmetry(eps)
    arr = _as_2d(v, "tangent vector", square=True)
    n = arr.shape[0]
    if n != eps.ambient_dim or (structure is not None and n != structure.dim):
        raise InvariantViolation("tangent vector: dimension mismatch")
    tol = SYM_RTOL * max(n, 1)
    _check(arr, "tangent vector", [("symmetric", tol, 0.0, "not symmetric" + _EXCEEDS),
                                   (("anticommutes", eps.matrix), tol, 1e-300,
                                    "does not anticommute with the base symmetry")])
    if structure is not None:
        _split_checked(arr, structure, "anticommutes", tol, name="tangent vector",
                       message="does not anticommute with J")
    return arr


def tangent_project(eps: Symmetry, a) -> np.ndarray:
    """Projection onto the tangent space at eps: a -> (a - eps a eps) / 2.

    Equals (I-p) a p + p a (I-p) for the projection p onto the subspace;
    idempotent on symmetric inputs and the identity on tangent vectors.
    """
    eps = _as_symmetry(eps)
    arr = require_square(a, "operator")
    if arr.shape[0] != eps.ambient_dim:
        raise InvariantViolation("tangent projection: dimension mismatch")
    e = eps.matrix
    return (arr - e @ arr @ e) / 2.0


def _require_tangents(eps_stack: np.ndarray, x_stack: np.ndarray) -> None:
    """`check_tangent` without J at every node of a stack, in one pass: node i
    passes iff check_tangent(Symmetry(eps_stack[i]), x_stack[i]) would. The
    first failing node is named."""
    rtol = SYM_RTOL * max(x_stack.shape[-1], 1)
    _check(x_stack, "tangent vector",
           (("symmetric", rtol, 0.0, "not symmetric" + _EXCEEDS),
            (("anticommutes", eps_stack), rtol, 1e-300,
             "does not anticommute with the base symmetry" + _EXCEEDS)), " at node {}")


def covariant_derivative(ts, curve, field) -> np.ndarray:
    """Covariant derivative of a tangent field along a sampled curve.

    ts is a uniform grid (length >= 3); curve[i] is the symmetry at ts[i]
    (stack of matrices or sequence of Symmetry); field[i] a tangent vector at
    curve[i]. The time derivative uses the second-order central stencil inside
    and one-sided second-order stencils at the ends, then each node is
    projected onto the tangent space there.
    """
    t = np.asarray(ts, dtype=float).reshape(-1)
    if t.size < 3:
        raise InvariantViolation("covariant derivative: need at least 3 samples")
    steps = np.diff(t)
    if not (np.all(steps > 0) and max_abs(steps[None] - steps[0]) <= 1e-9 * steps[0]):
        raise InvariantViolation("covariant derivative: grid must be uniform and increasing")
    eps_stack = np.stack([
        c.matrix if isinstance(c, Symmetry) else as_matrix(c, "curve sample")
        for c in curve
    ])
    x_stack = np.stack([as_matrix(x, "field sample") for x in field])
    if eps_stack.shape != x_stack.shape or eps_stack.shape[0] != t.size:
        raise InvariantViolation("covariant derivative: sample counts or shapes differ")
    _require_symmetries(eps_stack)
    _require_tangents(eps_stack, x_stack)
    xdot = np.gradient(x_stack, steps[0], axis=0, edge_order=2)
    out = (xdot - np.matmul(np.matmul(eps_stack, xdot), eps_stack)) / 2.0
    return out
