"""Orthogonal complex structures on R^{2n} and the complexified view.

A complex structure is an orthogonal antisymmetric J with J^2 = -I. It turns
R^{2n} into C^n: multiplication by i is application of J, the symplectic form
is w(xi, eta) = <J xi, eta>, and the complex inner product is
<xi, eta> - i w(xi, eta). Operators commuting with J are complex-linear and
have an n x n complex matrix (`complexify`, `realify`). Operators
anticommuting with J, among them the symmetry of every Lagrangian, are
conjugate-linear: v -> C conj(v) with an n x n complex matrix C
(`conjugation_matrix`, `realify_conjugation`). All of these are plain numpy
complex arrays.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvariantViolation
from .linalg import max_abs, require_square
from .tolerances import SYM_RTOL


def standard_form(n: int) -> np.ndarray:
    """The block matrix [[0, -I_n], [I_n, 0]], acting as (x, y) -> (-y, x)."""
    if n < 0:
        raise InvariantViolation("half-dimension must be nonnegative")
    j = np.zeros((2 * n, 2 * n))
    j[:n, n:] = -np.eye(n)
    j[n:, :n] = np.eye(n)
    return j


def _commutation_defect(a: np.ndarray, j: np.ndarray) -> float:
    return max_abs(a @ j - j @ a)


def _anticommutation_defect(a: np.ndarray, j: np.ndarray) -> float:
    return max_abs(a @ j + j @ a)


@dataclass(frozen=True)
class ComplexStructure:
    """A validated complex structure J on R^{2n}.

    Non-standard J's are accepted and conjugated to the standard form once at
    construction: `to_standard` is orthogonal with
    to_standard^T @ J @ to_standard = standard_form(n). Everything downstream
    works in standard coordinates through that change of basis.
    """

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
        object.__setattr__(self, "matrix", j)
        object.__setattr__(self, "n", n)
        standard = bool(max_abs(j - standard_form(n)) <= 1e-12)
        r = np.eye(dim) if standard else _standardizing_basis(j)
        object.__setattr__(self, "to_standard", r)
        object.__setattr__(self, "_standard", standard)

    @classmethod
    def standard(cls, n: int) -> "ComplexStructure":
        return cls(standard_form(n))

    @property
    def dim(self) -> int:
        return 2 * self.n

    def is_standard(self) -> bool:
        return self._standard


def _standardizing_basis(j: np.ndarray) -> np.ndarray:
    """Orthogonal R with R^T J R = standard_form(n), built by greedy J-pairing.

    Picks unit vectors u_i orthogonal to everything collected so far and pairs
    each with J u_i; the pair spans a J-invariant plane. Deterministic: each
    step takes the coordinate vector with the largest residual.
    """
    dim = j.shape[0]
    n = dim // 2
    us: list[np.ndarray] = []
    vs: list[np.ndarray] = []
    for _ in range(n):
        collected = np.column_stack(us + vs) if us else np.zeros((dim, 0))
        cand = np.eye(dim) - collected @ collected.T
        norms = np.linalg.norm(cand, axis=0)
        pick = int(np.argmax(norms))
        if norms[pick] < 1e-8:
            raise InvariantViolation("J: pairing basis construction failed")
        u = cand[:, pick] / norms[pick]
        us.append(u)
        vs.append(j @ u)
    r = np.column_stack(us + vs)
    std = standard_form(n)
    if max_abs(r.T @ j @ r - std) > 1e-10 * dim:
        raise InvariantViolation("J: conjugation to standard form failed")
    return r


def symplectic_form(structure: ComplexStructure, xi, eta) -> float:
    """w(xi, eta) = <J xi, eta>. Antisymmetric and J-invariant."""
    x = np.asarray(xi, dtype=float).reshape(-1)
    y = np.asarray(eta, dtype=float).reshape(-1)
    if x.shape[0] != structure.dim or y.shape[0] != structure.dim:
        raise InvariantViolation("symplectic form: vector dimension mismatch")
    return float((structure.matrix @ x) @ y)


def complex_inner_product(structure: ComplexStructure, xi, eta) -> complex:
    """<xi, eta>_J = <xi, eta> - i w(xi, eta), complex-linear in xi under J."""
    x = np.asarray(xi, dtype=float).reshape(-1)
    y = np.asarray(eta, dtype=float).reshape(-1)
    return complex(float(x @ y), -symplectic_form(structure, x, y))


def commutes_with_structure(a, structure: ComplexStructure, rtol: float = SYM_RTOL) -> bool:
    """True iff a J = J a within rtol * dim * max|a| (complex-linear operators)."""
    arr = require_square(a, "operator")
    tol = rtol * max(arr.shape[0], 1) * max(max_abs(arr), 1e-300)
    return bool(_commutation_defect(arr, structure.matrix) <= tol)


def anticommutes_with_structure(a, structure: ComplexStructure, rtol: float = SYM_RTOL) -> bool:
    """True iff a J = -J a within tolerance (conjugate-linear operators)."""
    arr = require_square(a, "operator")
    tol = rtol * max(arr.shape[0], 1) * max(max_abs(arr), 1e-300)
    return bool(_anticommutation_defect(arr, structure.matrix) <= tol)


def is_complex_unitary(u, structure: ComplexStructure, rtol: float = SYM_RTOL) -> bool:
    """True iff u is orthogonal and commutes with J (unitary on (C^n, <.,.>_J))."""
    arr = require_square(u, "operator")
    n = arr.shape[0]
    tol = rtol * max(n, 1) * max(max_abs(arr), 1e-300)
    if max_abs(arr.T @ arr - np.eye(n)) > tol:
        return False
    return commutes_with_structure(arr, structure, rtol)


def complexify(a, structure: ComplexStructure, rtol: float = SYM_RTOL) -> np.ndarray:
    """The n x n complex matrix of a J-commuting real operator.

    In standard coordinates a = [[x, -y], [y, x]] and the matrix is x + i y.
    Refuses operators that do not commute with J.
    """
    arr = require_square(a, "operator")
    if arr.shape[0] != structure.dim:
        raise InvariantViolation("complexify: dimension mismatch")
    tol = rtol * max(arr.shape[0], 1) * max(max_abs(arr), 1e-300)
    if _commutation_defect(arr, structure.matrix) > tol:
        raise InvariantViolation("complexify: operator does not commute with J")
    r = structure.to_standard
    std = r.T @ arr @ r
    n = structure.n
    return std[:n, :n] + 1j * std[n:, :n]


def realify(m, structure: ComplexStructure) -> np.ndarray:
    """Inverse of complexify: rebuild the real 2n x 2n operator."""
    m = np.asarray(m, dtype=complex)
    if m.shape != (structure.n, structure.n):
        raise InvariantViolation("realify: dimension mismatch")
    std = np.block([[m.real, -m.imag], [m.imag, m.real]])
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
    j = structure.matrix
    defect = np.max(np.abs(arr @ j + j @ arr), axis=(-2, -1), initial=0.0)
    scale = np.maximum(np.max(np.abs(arr), axis=(-2, -1), initial=0.0), 1e-300)
    if np.any(defect > SYM_RTOL * max(dim, 1) * scale):
        raise InvariantViolation("conjugation matrix: operator does not anticommute with J")
    if not structure.is_standard():
        r = structure.to_standard
        arr = r.T @ arr @ r
    n = structure.n
    return arr[..., :n, :n] + 1j * arr[..., n:, :n]


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
