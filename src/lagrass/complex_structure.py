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
Every J is standard_form(n) in other coordinates, J's standard split: an
entry point takes each operand there once (`ComplexStructure._split`), runs
the standard-J code and brings its output back once (`_unsplit`). Only the
identities with J are measured in the split.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ComputationError, InvariantViolation
from .linalg import _as_2d, _check, _eq_by_value, _read_only, max_abs, require_square
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

    `to_standard` is an orthogonal R with R^T J R = standard_form(n), read
    off the +1 eigenvectors of iJ once at construction
    (`_standardizing_basis`), or I for a J within 1e-12 of standard_form(n),
    which is then standard. It and matrix, a copy of the input, are
    read-only, and only this class reads R.
    """

    __eq__ = _eq_by_value
    matrix: np.ndarray
    n: int = field(init=False)
    to_standard: np.ndarray = field(init=False)
    _standard: bool = field(init=False, repr=False, compare=False)

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
        standard = max_abs(j - standard_form(n)) <= 1e-12
        r = np.eye(dim) if standard else _standardizing_basis(j)
        for name, value in (("matrix", _read_only(j.copy())), ("n", n),
                            ("to_standard", _read_only(r)), ("_standard", standard)):
            object.__setattr__(self, name, value)

    @classmethod
    def standard(cls, n: int) -> "ComplexStructure":
        """standard_form(n), unvalidated: it satisfies every identity of the
        constructor exactly, and its change of basis is the identity."""
        j = _read_only(standard_form(n))
        structure = object.__new__(cls)
        for name, value in (("matrix", j), ("n", j.shape[0] // 2),
                            ("to_standard", _read_only(np.eye(j.shape[0]))), ("_standard", True)):
            object.__setattr__(structure, name, value)
        return structure

    @property
    def dim(self) -> int:
        return 2 * self.n

    def is_standard(self) -> bool:
        return self._standard

    def _split(self, a: np.ndarray) -> np.ndarray:
        """R^T a R, R = to_standard (a for the standard J): a in J's standard split."""
        return a if self._standard else self.to_standard.T @ a @ self.to_standard

    def _unsplit(self, a: np.ndarray) -> np.ndarray:
        """R a R^T: a matrix or stack of the standard split in the caller's coordinates."""
        return a if self._standard else self.to_standard @ a @ self.to_standard.T

    def _residual(self, a: np.ndarray, kind: str) -> np.ndarray:
        """a J - J a ("commutes") or a J + J a ("anticommutes") for a matrix or stack a in
        J's standard split, J = standard_form(n), read off the blocks [[A, B], [C, D]] of a:
        [[P, Q], [Q, -P]], P = B + C, Q = D - A, or [[P, -Q], [Q, P]], P = B - C, Q = D + A.
        Each entry of a J and J a is one +-a entry: the dense form, bitwise up to a zero's sign."""
        n = self.n
        plus, minus = (np.add, np.subtract) if kind == "commutes" else (np.subtract, np.add)
        p, q = plus(a[..., :n, n:], a[..., n:, :n]), minus(a[..., n:, n:], a[..., :n, :n])
        out = np.empty_like(a)
        out[..., :n, :n], out[..., n:, :n] = p, q
        out[..., :n, n:], out[..., n:, n:] = (q, -p) if kind == "commutes" else (-q, p)
        return out


def _split_checked(a: np.ndarray, structure: ComplexStructure, kind: str, rtol: float,
                   floor: float = 1e-300, name: str = "operator", message: str | None = None):
    """(u, s): s u is J's standard split of a (a matrix or stack), u held to `kind` with J
    within rtol * max(max|u|, floor) by `_check`: None where it fails, or "name: message" raised.
    s is None but where R^T a R could overflow (a rotated J, max|a| >= 2^500): there it is
    the power of two with max|a| / s in [1, 2) per matrix, as the verdict scales with a."""
    s = None
    if not structure._standard and max_abs(a) >= 2.0**500:
        s = np.ldexp(1.0, np.frexp(np.abs(a).max(axis=(-2, -1), keepdims=True))[1] - 1)
    u = structure._split(a if s is None else a / s)
    checks = [((kind, structure), rtol, floor, message or "")]
    return (None if _check(u, name, checks, verdict=message is None) is False else u), s


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
    """True iff a J = J a within SYM_RTOL * dim * max|a| in J's split (complex-linear)."""
    return _structure_verdict(a, structure, "commutes_with_structure", "commutes")[0] is not None


def anticommutes_with_structure(a, structure: ComplexStructure) -> bool:
    """True iff a J = -J a within tolerance (conjugate-linear operators)."""
    return _structure_verdict(a, structure, "anticommutes_with_structure",
                              "anticommutes")[0] is not None


def is_complex_unitary(u, structure: ComplexStructure) -> bool:
    """True iff u commutes with J and is orthogonal (unitary on (C^n, <.,.>_J))."""
    arr = np.asarray(u, dtype=float)
    if _structure_verdict(arr, structure, "is_complex_unitary", "commutes")[0] is None:
        return False
    return _check(arr, "operator", [("orthonormal", SYM_RTOL * len(arr), 1e-300, "")], verdict=True)


def _structure_verdict(a, structure: ComplexStructure, name: str, kind: str):
    """`_split_checked` of an operator a, within SYM_RTOL * dim * max(max|u|, 1e-300)."""
    arr = _as_2d(a, "operator", square=True)
    if arr.shape[0] != structure.dim:
        raise InvariantViolation(f"{name}: dimension mismatch")
    return _split_checked(arr, structure, kind, SYM_RTOL * max(arr.shape[0], 1))


def complexify(a, structure: ComplexStructure) -> np.ndarray:
    """The n x n complex matrix of a J-commuting real operator.

    In standard coordinates a = [[x, -y], [y, x]] and the matrix is x + i y.
    Refuses operators that do not commute with J.
    """
    u, s = _structure_verdict(a, structure, "complexify", "commutes")
    if u is None:
        raise InvariantViolation("complexify: operator does not commute with J")
    return _complex_block(u, s)


def _complex_block(a: np.ndarray, scale=None) -> np.ndarray:
    """a[:n, :n] + i a[n:, :n], times a scale of `_split_checked`, for a matrix or stack in the
    standard split: x + i y for a = [[x, -y], [y, x]], C for a = [[Re C, Im C], [Im C, -Re C]],
    unchecked but refused (ComputationError) where it leaves the float range."""
    n = a.shape[-1] // 2
    if scale is not None:
        with np.errstate(over="ignore"):
            a = scale * a[..., :n]
        if not np.isfinite(a).all():
            raise ComputationError("complex matrix: an entry overflows the float range")
    return a[..., :n, :n] + 1j * a[..., n:, :n]


def realify(m, structure: ComplexStructure) -> np.ndarray:
    """Inverse of complexify: rebuild the real 2n x 2n operator."""
    m = np.asarray(m, dtype=complex)
    if m.shape != (structure.n, structure.n):
        raise InvariantViolation("realify: dimension mismatch")
    return structure._unsplit(_realified(m, structure.n))


def _realified(m: np.ndarray, n: int, conjugate: bool = False) -> np.ndarray:
    """[[Re m, -Im m], [Im m, Re m]], or [[Re m, Im m], [Im m, -Re m]] for v -> m conj(v)
    (conjugate): the real operator(s) of one n x n complex m or a stack, standard split."""
    out = np.empty(m.shape[:-2] + (2 * n, 2 * n))
    out[..., :n, :n], out[..., n:, :n] = m.real, m.imag
    out[..., :n, n:] = m.imag if conjugate else -m.imag
    out[..., n:, n:] = -m.real if conjugate else m.real
    return out


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
    u, s = _split_checked(arr, structure, "anticommutes", SYM_RTOL * max(dim, 1),
                          name="conjugation matrix", message="operator does not anticommute with J")
    return _complex_block(u, s)


def realify_conjugation(c: np.ndarray, structure: ComplexStructure) -> np.ndarray:
    """Inverse of conjugation_matrix: the real operator(s) v -> C conj(v).

    c is one n x n complex matrix or a stack of them.
    """
    return structure._unsplit(_realified(c, structure.n, conjugate=True))


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
