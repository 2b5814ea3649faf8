"""Orthogonal complex structures on R^{2n} and the complexified view.

A complex structure is an orthogonal antisymmetric J with J^2 = -I. It turns
R^{2n} into C^n: multiplication by i is application of J, the symplectic form
is w(xi, eta) = <J xi, eta>, and the complex inner product is
<xi, eta> - i w(xi, eta). Operators commuting with J are complex-linear and
have an n x n complex matrix (`complexify`, `realify`). Operators
anticommuting with J, among them the symmetry of every Lagrangian, are
conjugate-linear: v -> C conj(v) with an n x n complex matrix C
(`conjugation_matrix`, `realify_conjugation`). All of these are plain numpy
complex arrays. A symmetric unitary C, the matrix of a Lagrangian symmetry,
is O diag(e^{i phi}) O^T with O real orthogonal (`_real_eigenbasis`).
These four functions read and write standard coordinates: for a non-standard
J they apply the change of basis `to_standard`, and no other module does.
Every (anti)commutation check with J takes its residual from `_residual`: the
n x n blocks for J exactly standard, a product with J only otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ComputationError, InvariantViolation
from .linalg import _as_2d, _check, _deviation, _eq_by_value, _read_only, max_abs, require_square
from .tolerances import RECON_RTOL, SYM_RTOL


def standard_form(n: int) -> np.ndarray:
    """The block matrix [[0, -I_n], [I_n, 0]], acting as (x, y) -> (-y, x)."""
    if n < 0:
        raise InvariantViolation("half-dimension must be nonnegative")
    j = np.zeros((2 * n, 2 * n))
    j[:n, n:] = -np.eye(n)
    j[n:, :n] = np.eye(n)
    return j


@dataclass(frozen=True)
class ComplexStructure:
    """A validated complex structure J on R^{2n}.

    Non-standard J's are accepted and conjugated to the standard form once at
    construction: `to_standard` is orthogonal with
    to_standard^T @ J @ to_standard = standard_form(n), read off the +1
    eigenvectors of iJ (`_standardizing_basis`). It and matrix, a copy of
    the input, are read-only. Everything downstream works in standard
    coordinates through that change of basis.
    """

    __eq__ = _eq_by_value
    matrix: np.ndarray
    n: int = field(init=False)
    to_standard: np.ndarray = field(init=False)
    _standard: bool = field(init=False, repr=False, compare=False)
    _exact: bool = field(init=False, repr=False, compare=False)   # J == standard_form(n)

    def __post_init__(self):
        j = require_square(self.matrix, "J")
        dim = j.shape[0]
        if dim % 2 != 0:
            raise InvariantViolation("J: ambient dimension must be even")
        n = dim // 2
        tol = SYM_RTOL * max(dim, 1)
        if max_abs(j + j.T) > tol:
            raise InvariantViolation("J: must be antisymmetric")
        if max_abs(j @ j + np.eye(dim)) > tol:
            raise InvariantViolation("J: must square to -I")
        if max_abs(j.T @ j - np.eye(dim)) > tol:
            raise InvariantViolation("J: must be orthogonal")
        object.__setattr__(self, "matrix", _read_only(j.copy()))
        object.__setattr__(self, "n", n)
        off = max_abs(j - standard_form(n))
        r = np.eye(dim) if off <= 1e-12 else _standardizing_basis(j)
        object.__setattr__(self, "to_standard", _read_only(r))
        object.__setattr__(self, "_standard", off <= 1e-12)
        object.__setattr__(self, "_exact", off == 0.0)

    @classmethod
    def standard(cls, n: int) -> "ComplexStructure":
        """standard_form(n), unvalidated: it satisfies every identity of the
        constructor exactly, and its change of basis is the identity."""
        j = _read_only(standard_form(n))
        structure = object.__new__(cls)
        object.__setattr__(structure, "matrix", j)
        object.__setattr__(structure, "n", j.shape[0] // 2)
        object.__setattr__(structure, "to_standard", _read_only(np.eye(j.shape[0])))
        object.__setattr__(structure, "_standard", True)
        object.__setattr__(structure, "_exact", True)
        return structure

    @property
    def dim(self) -> int:
        return 2 * self.n

    def is_standard(self) -> bool:
        return self._standard

    def _residual(self, a: np.ndarray, kind: str) -> np.ndarray:
        """a J - J a ("commutes") or a J + J a ("anticommutes"), for one matrix
        or a stack. For J == standard_form(n) it is read off the blocks
        [[A, B], [C, D]] of a: [[P, Q], [Q, -P]] with P = B + C, Q = D - A, or
        [[P, -Q], [Q, P]] with P = B - C, Q = D + A. Each entry of a J and of
        J a is a single +-a entry, so this is the dense form, bitwise up to the
        sign of a zero. Any other J forms the products through `_unit_scaled`,
        so they overflow only where the residual does."""
        if not self._exact:
            return _unit_scaled(lambda x: _deviation((kind, self.matrix), x), a)
        n = self.n
        plus, minus = (np.add, np.subtract) if kind == "commutes" else (np.subtract, np.add)
        p, q = plus(a[..., :n, n:], a[..., n:, :n]), minus(a[..., n:, n:], a[..., :n, :n])
        out = np.empty_like(a)
        out[..., :n, :n], out[..., n:, :n] = p, q
        out[..., :n, n:], out[..., n:, n:] = (q, -p) if kind == "commutes" else (-q, p)
        return out


def _unit_scaled(f, a: np.ndarray) -> np.ndarray:
    """f(a) for f a product of a with J or an orthogonal matrix, which cannot overflow
    below max|a| = 2^500; from there s f(a / s), s the power of two with max|a| / s
    in [1, 2) per matrix, and an entry beyond the float range reads inf."""
    if max_abs(a) < 2.0**500:
        return f(a)
    s = np.ldexp(1.0, np.frexp(np.abs(a).max(axis=(-2, -1), keepdims=True))[1] - 1)
    with np.errstate(over="ignore"):
        return s * f(a / s)


def _standardizing_basis(j: np.ndarray) -> np.ndarray:
    """Orthogonal R = sqrt(2) [A, B], R^T J R = standard_form(n), from one eigh:
    the +1 eigenvectors A + iB of the Hermitian iJ, a complex orthonormal basis
    of R^{2n} made complex by i = J, have J A = B, J B = -A, and orthogonality
    to their conjugates (eigenvalue -1) gives A^T A = B^T B = I / 2, A^T B = 0."""
    dim = j.shape[0]
    n = dim // 2
    v = np.linalg.eigh(1j * j)[1][:, n:]
    r = math.sqrt(2.0) * np.hstack([v.real, v.imag])
    if max_abs(r.T @ j @ r - standard_form(n)) > 1e-10 * dim:
        raise InvariantViolation("J: conjugation to standard form failed")
    return r


def commutes_with_structure(a, structure: ComplexStructure) -> bool:
    """True iff a J = J a within SYM_RTOL * dim * max|a| (complex-linear operators)."""
    return _structure_verdict(a, structure, "commutes_with_structure", "commutes")


def anticommutes_with_structure(a, structure: ComplexStructure) -> bool:
    """True iff a J = -J a within tolerance (conjugate-linear operators)."""
    return _structure_verdict(a, structure, "anticommutes_with_structure", "anticommutes")


def is_complex_unitary(u, structure: ComplexStructure) -> bool:
    """True iff u is orthogonal and commutes with J (unitary on (C^n, <.,.>_J))."""
    return _structure_verdict(u, structure, "is_complex_unitary", "orthonormal", "commutes")


def _structure_verdict(a, structure: ComplexStructure, name: str, *kinds) -> bool:
    """Whether a satisfies each identity ("commutes" and "anticommutes" taken
    with J, by `ComplexStructure._residual`) within SYM_RTOL * dim * max(max|a|, 1e-300)."""
    arr = _as_2d(a, "operator", square=True)
    if arr.shape[0] != structure.dim:
        raise InvariantViolation(f"{name}: dimension mismatch")
    tol = SYM_RTOL * max(arr.shape[0], 1)
    checks = [(k if k == "orthonormal" else (k, structure), tol, 1e-300, "") for k in kinds]
    return _check(arr, "operator", checks, verdict=True)


def complexify(a, structure: ComplexStructure) -> np.ndarray:
    """The n x n complex matrix of a J-commuting real operator.

    In standard coordinates a = [[x, -y], [y, x]] and the matrix is x + i y.
    Refuses operators that do not commute with J.
    """
    arr = _as_2d(a, "operator", square=True)
    if not _structure_verdict(arr, structure, "complexify", "commutes"):
        raise InvariantViolation("complexify: operator does not commute with J")
    return _complex_block(arr, structure)


def _complex_block(a: np.ndarray, structure: ComplexStructure) -> np.ndarray:
    """a[:n, :n] + i a[n:, :n] in standard coordinates, for one matrix or a stack,
    unchecked: x + i y for a = [[x, -y], [y, x]], C for a = [[Re C, Im C],
    [Im C, -Re C]], refused (ComputationError) where it leaves the float range.
    It reads the left block column only: r^T (a r[:, :n]) for r = to_standard."""
    n = structure.n
    if not structure.is_standard():
        r = structure.to_standard
        a = _unit_scaled(lambda x: r.T @ (x @ r[:, :n]), a)
        if not np.isfinite(a).all():
            raise ComputationError("complex matrix: an entry overflows the float range")
    return a[..., :n, :n] + 1j * a[..., n:, :n]


def realify(m, structure: ComplexStructure) -> np.ndarray:
    """Inverse of complexify: rebuild the real 2n x 2n operator."""
    m = np.asarray(m, dtype=complex)
    if m.shape != (structure.n, structure.n):
        raise InvariantViolation("realify: dimension mismatch")
    n = structure.n
    std = np.empty((2 * n, 2 * n))
    std[:n, :n] = std[n:, n:] = m.real
    std[:n, n:], std[n:, :n] = -m.imag, m.imag
    if structure.is_standard():
        return std
    r = structure.to_standard
    return r @ std @ r.T


def conjugation_matrix(a, structure: ComplexStructure) -> np.ndarray:
    """C with a v = C conj(v) on C^n, for a real operator anticommuting with J.

    a is one 2n x 2n operator or a stack of them; in standard coordinates
    a = [[Re C, Im C], [Im C, -Re C]]. For a Lagrangian symmetry C is a
    symmetric unitary, and for the graph of f it is minus the Cayley image
    (f - i)(f + i)^(-1). Refuses (InvariantViolation) an operator that does not
    anticommute with J, with the tolerance of `anticommutes_with_structure`.
    """
    arr = np.asarray(a, dtype=float)
    dim = structure.dim
    if arr.ndim < 2 or arr.shape[-2:] != (dim, dim):
        raise InvariantViolation("conjugation matrix: dimension mismatch")
    _check(arr, "conjugation matrix", [(("anticommutes", structure),
                                        SYM_RTOL * max(dim, 1), 1e-300,
                                        "operator does not anticommute with J")])
    return _complex_block(arr, structure)


def realify_conjugation(c: np.ndarray, structure: ComplexStructure) -> np.ndarray:
    """Inverse of conjugation_matrix: the real operator(s) v -> C conj(v).

    c is one n x n complex matrix or a stack of them.
    """
    n = structure.n
    out = np.empty(c.shape[:-2] + (2 * n, 2 * n))
    out[..., :n, :n] = c.real
    out[..., :n, n:] = c.imag
    out[..., n:, :n] = c.imag
    out[..., n:, n:] = -c.real
    if not structure.is_standard():
        r = structure.to_standard
        out = r @ out @ r.T
    return out


def _wrap_phase(phi: np.ndarray) -> np.ndarray:
    """phi moved by one turn into (-pi, pi]; -pi + 2 pi is pi exactly in floats."""
    phi = np.where(phi > math.pi, phi - 2.0 * math.pi, phi)
    return np.where(phi <= -math.pi, phi + 2.0 * math.pi, phi)


# Re C + _GAMMA Im C separates the phases of a symmetric unitary C (an
# irrational weight: no structured input ties two phases in it), except
# within clusters of its eigenvalues narrower than _CLUSTER_GAP
_GAMMA = (math.sqrt(5.0) - 1.0) / 2.0
_CLUSTER_GAP = 1e-3


def _real_eigenbasis(c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(O, phi), O real orthogonal, phi in (-pi, pi]: C = O diag(e^{i phi}) O^T.

    C is a symmetric unitary up to the slack its symmetry was validated with;
    one Newton-Schulz step C (3I - C^H C) / 2 takes it to the nearest one to
    second order, since eigenvectors of the combination below would amplify
    a unitarity defect by the inverse of its eigenvalue gaps. Then Re C and
    Im C are commuting real symmetric matrices and one eigh of
    Re C + gamma Im C diagonalises both, but for mixing where
    cos(phi) + gamma sin(phi) clusters within _CLUSTER_GAP. A cluster's phases
    lie near at most two points of the circle; its Cayley transform
    i (I - D)(I + D)^(-1), D = e^{-i alpha} C restricted, with the pole
    -e^{i alpha} away from both, is real symmetric with eigenvalues
    tan((phi - alpha) / 2), which no two distinct phases share. Phases are
    Rayleigh quotients; reassembly is held to RECON_RTOL * n (ComputationError).
    """
    n = c.shape[0]
    c = (c + c.T) / 2.0
    c = c @ (3.0 * np.eye(n) - c.conj().T @ c) / 2.0
    c = (c + c.T) / 2.0
    a, b = c.real, c.imag
    lam, o = np.linalg.eigh(a + _GAMMA * b)
    toward = complex(1.0, -_GAMMA) / math.hypot(1.0, _GAMMA)
    # a run of gaps below _CLUSTER_GAP is a cluster, lam[first:last + 1]
    close = np.concatenate(([False], np.diff(lam) < _CLUSTER_GAP, [False]))
    for first, last in np.flatnonzero(close[1:] != close[:-1]).reshape(-1, 2):
        q = o[:, first:last + 1]
        d = math.copysign(1.0, lam[first:last + 1].mean()) * toward * (q.T @ c @ q)
        eye = np.eye(q.shape[1])
        t = (1j * np.linalg.solve(eye + d, eye - d)).real
        o[:, first:last + 1] = q @ np.linalg.eigh((t + t.T) / 2.0)[1]
    phi = np.arctan2(np.einsum("ij,ij->j", o, b @ o), np.einsum("ij,ij->j", o, a @ o))
    phi = _wrap_phase(phi)
    resid = max(max_abs((o * np.cos(phi)) @ o.T - a), max_abs((o * np.sin(phi)) @ o.T - b))
    if resid > RECON_RTOL * max(n, 1):
        raise ComputationError(f"symmetric unitary eigenbasis: reassembly residual "
                               f"{resid:.3e} beyond {RECON_RTOL * max(n, 1):.3e}")
    return o, phi
