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

from .complex_structure import ComplexStructure, anticommutes_with_structure
from .errors import ComputationError, InvariantViolation
from .linalg import (
    as_matrix,
    max_abs,
    require_orthonormal_columns,
    require_square,
    require_symmetric,
    _refined_angles,
)
from .tolerances import ANGLE_RIGHT_TOL, ANGLE_ZERO_TOL, SYM_RTOL


# ---------------------------------------------------------------------------
# the three encodings


@dataclass(frozen=True)
class Subspace:
    """A subspace given by an orthonormal basis (ambient_dim x k, k may be 0)."""

    basis: np.ndarray

    def __post_init__(self):
        b = require_orthonormal_columns(self.basis, "subspace basis")
        object.__setattr__(self, "basis", b)

    @classmethod
    def from_columns(cls, cols) -> "Subspace":
        """Orthonormalize a spanning set (rank decided at 1e-10 of the top
        singular value) and wrap it. Distinct from the validating constructor."""
        arr = as_matrix(cols, "columns")
        if arr.shape[1] == 0:
            return cls(arr)
        u, s, _ = np.linalg.svd(arr, full_matrices=False)
        rank = int(np.sum(s > 1e-10 * s[0])) if s.size and s[0] > 0 else 0
        return cls(u[:, :rank])

    @classmethod
    def trivial(cls, ambient_dim: int) -> "Subspace":
        return cls(np.zeros((ambient_dim, 0)))

    @property
    def ambient_dim(self) -> int:
        return self.basis.shape[0]

    @property
    def dim(self) -> int:
        return self.basis.shape[1]


@dataclass(frozen=True)
class Projection:
    """An orthogonal projection: symmetric, idempotent within tolerance."""

    matrix: np.ndarray

    def __post_init__(self):
        p = require_symmetric(self.matrix, "projection")
        tol = SYM_RTOL * max(p.shape[0], 1) * max(max_abs(p), 1e-300)
        if max_abs(p @ p - p) > tol:
            raise InvariantViolation("projection: not idempotent within tolerance")
        object.__setattr__(self, "matrix", p)

    @property
    def ambient_dim(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True)
class Symmetry:
    """A symmetry eps = 2p - I: symmetric with eps^2 = I within tolerance."""

    matrix: np.ndarray

    def __post_init__(self):
        e = _require_symmetries(as_matrix(self.matrix, "symmetry"))
        object.__setattr__(self, "matrix", e)

    @property
    def ambient_dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def plus_dim(self) -> int:
        """Dimension of the +1 eigenspace, from the trace."""
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
    if not np.all(np.isfinite(arr)):
        raise InvariantViolation("symmetry: entries must be finite")
    n = arr.shape[-1]
    rtol = SYM_RTOL * max(n, 1)
    scale = np.max(np.abs(arr), axis=(-2, -1), initial=0.0)
    asym = np.max(np.abs(arr - np.swapaxes(arr, -1, -2)), axis=(-2, -1), initial=0.0)
    square = np.max(np.abs(np.matmul(arr, arr) - np.eye(n)), axis=(-2, -1), initial=0.0)
    _first_failure("symmetry", " at matrix {} of the stack" if arr.ndim > 2 else "",
                   ((asym, rtol * scale, "not symmetric"),
                    (square, rtol * np.maximum(scale, 1.0), "eps^2 != I")))
    return arr


def _require_conjugation_symmetries(c: np.ndarray) -> np.ndarray:
    """`_require_symmetries` in n x n form, for a stack of conjugation matrices.

    In the standard split eps = [[Re C, Im C], [Im C, -Re C]]: the entries of
    eps are those of Re C and Im C, eps - eps^T has those of C - C^T, and
    eps^2 - I is the realified C conj(C) - I. Measuring each with the larger
    of its real and imaginary parts, C passes iff its real symmetry would pass
    as a `Symmetry`: a symmetric unitary within the same tolerances.
    """
    if not np.all(np.isfinite(c)):
        raise InvariantViolation("symmetry: entries must be finite")
    n = c.shape[-1]
    rtol = SYM_RTOL * max(2 * n, 1)

    def parts_max(a):
        return np.maximum(np.max(np.abs(a.real), axis=(-2, -1), initial=0.0),
                          np.max(np.abs(a.imag), axis=(-2, -1), initial=0.0))

    scale = parts_max(c)
    asym = parts_max(c - np.swapaxes(c, -1, -2))
    square = parts_max(np.matmul(c, c.conj()) - np.eye(n))
    _first_failure("symmetry", " at matrix {} of the stack" if c.ndim > 2 else "",
                   ((asym, rtol * scale, "not symmetric"),
                    (square, rtol * np.maximum(scale, 1.0), "eps^2 != I")))
    return c


def _first_failure(name: str, where: str, checks) -> None:
    """Raise for the first matrix of a stack whose deviation exceeds its
    tolerance, check by check; `where` formats the matrix's index."""
    for dev, tol, what in checks:
        bad = np.flatnonzero(dev > tol)
        if bad.size:
            i = bad[0]
            raise InvariantViolation(f"{name}: {what}{where.format(i)} (deviation "
                                     f"{dev.flat[i]:.3e} > tolerance {tol.flat[i]:.3e})")


def projection_from_subspace(s: Subspace) -> Projection:
    return Projection(s.basis @ s.basis.T)


def symmetry_from_projection(p: Projection) -> Symmetry:
    return Symmetry(2.0 * p.matrix - np.eye(p.ambient_dim))


def projection_from_symmetry(eps: Symmetry) -> Projection:
    return Projection((eps.matrix + np.eye(eps.ambient_dim)) / 2.0)


def symmetry_from_subspace(s: Subspace) -> Symmetry:
    return symmetry_from_projection(projection_from_subspace(s))


def subspace_from_symmetry(eps: Symmetry) -> Subspace:
    """Orthonormal basis of the +1 eigenspace; eigenvalues must sit near +-1."""
    lam, vec = np.linalg.eigh(eps.matrix)
    if lam.size and np.any(np.abs(np.abs(lam) - 1.0) > 1e-8):
        raise InvariantViolation("symmetry: eigenvalues not at +-1")
    return Subspace(vec[:, lam > 0.0])


def subspace_from_projection(p: Projection) -> Subspace:
    return subspace_from_symmetry(symmetry_from_projection(p))


def orthogonal_complement(p: Projection) -> Projection:
    return Projection(np.eye(p.ambient_dim) - p.matrix)


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
    """True iff J maps the subspace onto its orthogonal complement.

    Equivalently the symmetry anticommutes with J; the dimension is then
    necessarily half the ambient one, which is checked as well.
    """
    eps = _as_symmetry(s)
    if eps.ambient_dim != structure.dim:
        raise InvariantViolation("is_lagrangian: ambient dimension mismatch")
    if eps.plus_dim != structure.n:
        return False
    return anticommutes_with_structure(eps.matrix, structure)


# ---------------------------------------------------------------------------
# pair analysis: aligned frames and the five-way decomposition


@dataclass(frozen=True)
class PairFrames:
    """Aligned orthonormal data for a pair of symmetries.

    Basis columns for the four intersection blocks, plus paired frames for the
    generic part: generic_angles[i] is the angle between generic_left[:, i]
    (in S0) and its partner in S1, whose component orthogonal to S0 is
    generic_ortho[:, i]. The generic 2-planes span{left_i, ortho_i} reduce
    both symmetries jointly.
    """

    both_plus: np.ndarray      # basis of S0 ^ S1
    both_minus: np.ndarray     # basis of S0-perp ^ S1-perp
    plus_minus: np.ndarray     # basis of S0 ^ S1-perp
    minus_plus: np.ndarray     # basis of S0-perp ^ S1
    generic_angles: np.ndarray
    generic_left: np.ndarray
    generic_ortho: np.ndarray


def _pair_frames(eps0: Symmetry, eps1: Symmetry,
                 zero_tol: float = ANGLE_ZERO_TOL,
                 right_tol: float = ANGLE_RIGHT_TOL) -> PairFrames:
    if eps0.ambient_dim != eps1.ambient_dim:
        raise InvariantViolation("pair decomposition: ambient dimensions differ")
    dim = eps0.ambient_dim
    q0 = subspace_from_symmetry(eps0).basis
    q1 = subspace_from_symmetry(eps1).basis
    k0, k1 = q0.shape[1], q1.shape[1]
    m = min(k0, k1)

    if m > 0:
        u, s, vt = np.linalg.svd(q0.T @ q1, full_matrices=True)
        a = q0 @ u                      # aligned basis of S0, k0 columns
        b = q1 @ vt.T                   # aligned basis of S1, k1 columns
        angles = _refined_angles(s, q0, b[:, :m])
    else:
        a = q0.copy()
        b = q1.copy()
        angles = np.zeros(0)

    zero_mask = angles <= zero_tol
    right_mask = angles >= math.pi / 2.0 - right_tol
    generic_mask = ~(zero_mask | right_mask)

    both_plus = a[:, :m][:, zero_mask]
    pm_cols = [a[:, :m][:, right_mask]]
    mp_cols = [b[:, :m][:, right_mask]]
    if k0 > m:
        pm_cols.append(a[:, m:])        # unpaired S0 directions, orthogonal to S1
    if k1 > m:
        mp_cols.append(b[:, m:])
    plus_minus = np.hstack(pm_cols) if pm_cols else np.zeros((dim, 0))
    minus_plus = np.hstack(mp_cols) if mp_cols else np.zeros((dim, 0))

    gen_left = a[:, :m][:, generic_mask]
    gen_right = b[:, :m][:, generic_mask]
    gen_angles = angles[generic_mask]
    if gen_left.shape[1]:
        overlap = np.sum(gen_left * gen_right, axis=0)
        ortho = gen_right - gen_left * overlap
        norms = np.linalg.norm(ortho, axis=0)
        if np.any(norms <= 0.0):
            raise ComputationError("pair decomposition: degenerate generic plane")
        gen_ortho = ortho / norms
    else:
        gen_ortho = np.zeros((dim, 0))

    collected = np.hstack([both_plus, plus_minus, minus_plus, gen_left, gen_ortho])
    if collected.shape[1] == 0:
        both_minus = np.eye(dim)
    elif collected.shape[1] >= dim:
        both_minus = np.zeros((dim, 0))
    else:
        # null space of collected^T: the rows of V^T past the numerical rank,
        # counted above sigma_max * eps * max(shape)
        _, s, vt = np.linalg.svd(collected.T, full_matrices=True)
        rank = int(np.sum(s > s[0] * (np.finfo(float).eps * max(collected.shape))))
        both_minus = vt[rank:].T

    return PairFrames(
        both_plus=both_plus,
        both_minus=both_minus,
        plus_minus=plus_minus,
        minus_plus=minus_plus,
        generic_angles=gen_angles,
        generic_left=gen_left,
        generic_ortho=gen_ortho,
    )


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
                       zero_tol: float = ANGLE_ZERO_TOL,
                       right_tol: float = ANGLE_RIGHT_TOL) -> FiveWayDecomposition:
    """Split the ambient space into the five jointly invariant blocks.

    Intersections are found through principal angles and the two bucketing
    thresholds, never through rank decisions on sums of projections. For equal
    subspace dimensions the two swapped blocks match in dimension.
    """
    frames = _pair_frames(eps0, eps1, zero_tol, right_tol)
    dim = eps0.ambient_dim
    gen = np.hstack([frames.generic_left, frames.generic_ortho])
    dec = FiveWayDecomposition(
        both_plus=Subspace(frames.both_plus),
        both_minus=Subspace(frames.both_minus),
        plus_minus=Subspace(frames.plus_minus),
        minus_plus=Subspace(frames.minus_plus),
        generic=Subspace(gen) if gen.size else Subspace.trivial(dim),
        generic_angles=frames.generic_angles,
    )
    total = sum(dec.dims().values())
    if total != dim:
        raise ComputationError(
            f"five-way decomposition incomplete: blocks sum to {total}, ambient {dim}"
        )
    return dec


# ---------------------------------------------------------------------------
# tangent vectors and the induced connection


def check_tangent(eps: Symmetry, v, structure: ComplexStructure | None = None,
                  rtol: float = SYM_RTOL) -> np.ndarray:
    """Validate a tangent vector at eps: symmetric, anticommutes with eps,
    and (when J is supplied) anticommutes with J. Returns v unchanged."""
    arr = require_symmetric(v, "tangent vector", rtol=rtol)
    if arr.shape[0] != eps.ambient_dim:
        raise InvariantViolation("tangent vector: dimension mismatch")
    tol = rtol * max(arr.shape[0], 1) * max(max_abs(arr), 1e-300)
    if max_abs(arr @ eps.matrix + eps.matrix @ arr) > tol:
        raise InvariantViolation("tangent vector: does not anticommute with the base symmetry")
    if structure is not None:
        if max_abs(arr @ structure.matrix + structure.matrix @ arr) > tol:
            raise InvariantViolation("tangent vector: does not anticommute with J")
    return arr


def tangent_project(eps: Symmetry, a) -> np.ndarray:
    """Projection onto the tangent space at eps: a -> (a - eps a eps) / 2.

    Equals (I-p) a p + p a (I-p) for the projection p onto the subspace;
    idempotent on symmetric inputs and the identity on tangent vectors.
    """
    arr = require_square(a, "operator")
    if arr.shape[0] != eps.ambient_dim:
        raise InvariantViolation("tangent projection: dimension mismatch")
    e = eps.matrix
    return (arr - e @ arr @ e) / 2.0


def tangent_project_offdiagonal(p: Projection, a) -> np.ndarray:
    """The tangent projection written in projection coordinates:
    a -> p a (I - p) + (I - p) a p.

    Algebraically identical to the symmetry form at eps = 2p - I; both are
    kept so their agreement can be verified numerically.
    """
    arr = require_square(a, "operator")
    if arr.shape[0] != p.ambient_dim:
        raise InvariantViolation("tangent projection: dimension mismatch")
    q = p.matrix
    comp = np.eye(q.shape[0]) - q
    return q @ arr @ comp + comp @ arr @ q


def _require_tangents(eps_stack: np.ndarray, x_stack: np.ndarray) -> None:
    """`check_tangent` without J at every node of a stack, in one pass: node i
    passes iff check_tangent(Symmetry(eps_stack[i]), x_stack[i]) would. The
    first failing node is named."""
    rtol = SYM_RTOL * max(x_stack.shape[-1], 1)
    scale = np.max(np.abs(x_stack), axis=(-2, -1), initial=0.0)
    asym = np.max(np.abs(x_stack - np.swapaxes(x_stack, -1, -2)), axis=(-2, -1), initial=0.0)
    anti = np.max(np.abs(np.matmul(x_stack, eps_stack) + np.matmul(eps_stack, x_stack)),
                  axis=(-2, -1), initial=0.0)
    _first_failure("tangent vector", " at node {}",
                   ((asym, rtol * scale, "not symmetric"),
                    (anti, rtol * np.maximum(scale, 1e-300),
                     "does not anticommute with the base symmetry")))


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
    if np.any(steps <= 0) or max_abs(steps[None] - steps[0]) > 1e-9 * abs(steps[0]):
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
