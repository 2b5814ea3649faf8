"""Minimal geodesics between Lagrangian subspaces.

A geodesic through eps0 is delta(t) = e^{2tz} eps0 with a generator z that is
antisymmetric, commutes with J, anticommutes with eps0 and has operator norm
at most pi/2. Any two Lagrangians are joined by such a curve; it is unique iff
the endpoints have no common pi/2 principal angle, and it is length-minimizing
for every Schatten k-norm.

`connect` builds the generator blockwise from the principal angles of the
endpoint pair: the swapped blocks carry (pi/2) J, each generic 2-plane carries
its angle as a plane rotation, and the coincident blocks carry 0.
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .complex_structure import (
    ComplexStructure,
    anticommutes_with_structure,
    complexify,
    conjugation_matrix,
    realify,
    realify_conjugation,
)
from .errors import ComputationError, InvariantViolation
from .linalg import (
    expm_antisymmetric,
    max_abs,
    require_antisymmetric,
    schatten_norm,
)
from .subspaces import (
    Symmetry,
    _as_symmetry,
    _pair_frames,
    check_tangent,
    is_lagrangian,
)
from .tolerances import (
    ANGLE_RIGHT_TOL,
    ANGLE_ZERO_TOL,
    ENDPOINT_RTOL,
    GENERATOR_ATOL,
    PI_PLANE_TOL,
)


# ---------------------------------------------------------------------------
# generators and evaluation


@dataclass(frozen=True)
class GeodesicGenerator:
    """A validated geodesic velocity seed z at a base Lagrangian.

    Invariants: eps0 J = -J eps0 (the base is Lagrangian), z antisymmetric,
    z J = J z, z eps0 = -eps0 z, ||z|| <= pi/2. norm is the operator norm
    ||z||, computed once by the validation.
    """

    z: np.ndarray
    base: Symmetry
    structure: ComplexStructure
    norm: float = field(init=False)

    def __post_init__(self):
        z = require_antisymmetric(self.z, "generator")
        if z.shape[0] != self.structure.dim or z.shape[0] != self.base.ambient_dim:
            raise InvariantViolation("generator: dimension mismatch")
        if not anticommutes_with_structure(self.base.matrix, self.structure):
            raise InvariantViolation("generator: base symmetry does not anticommute with J")
        scale = max(1.0, max_abs(z))
        j = self.structure.matrix
        if max_abs(z @ j - j @ z) > GENERATOR_ATOL * scale:
            raise InvariantViolation("generator: does not commute with J")
        e = self.base.matrix
        if max_abs(z @ e + e @ z) > GENERATOR_ATOL * scale:
            raise InvariantViolation("generator: does not anticommute with the base")
        norm = schatten_norm(z, math.inf)
        if norm > math.pi / 2.0 + GENERATOR_ATOL:
            raise InvariantViolation("generator: operator norm exceeds pi/2")
        object.__setattr__(self, "z", z)
        object.__setattr__(self, "norm", norm)


@dataclass(frozen=True)
class Geodesic:
    """The curve t -> e^{2tz} eps0 determined by a generator."""

    generator: GeodesicGenerator

    @property
    def base(self) -> Symmetry:
        return self.generator.base

    @cached_property
    def _spectrum(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(mu, U, U^H C) with z = i U diag(mu) U^H: one eigh per curve,
        shared by every `sample` and `evaluate` call on it."""
        g = self.generator
        mu, u = np.linalg.eigh(-1j * complexify(g.z, g.structure))
        return mu, u, u.conj().T @ conjugation_matrix(g.base.matrix, g.structure)


def exponential_map(eps: Symmetry, v, structure: ComplexStructure) -> Geodesic:
    """Geodesic through eps with initial velocity v (a tangent vector there).

    The generator is z = v eps / 2, so that d/dt|_0 e^{2tz} eps = v.
    """
    arr = check_tangent(eps, v, structure)
    z = arr @ eps.matrix / 2.0
    z = (z - z.T) / 2.0
    return Geodesic(GeodesicGenerator(z, eps, structure))


def evaluate(geo: Geodesic, t: float) -> Symmetry:
    """The symmetry at parameter t: e^{2tz} eps0, the one-node case of `sample`."""
    return Symmetry(sample(geo, [float(t)])[0])


def sample(geo: Geodesic, ts) -> np.ndarray:
    """Stack of symmetries e^{2tz} eps0 over a grid, shape (len(ts), 2n, 2n).

    z is fixed, so one n x n Hermitian eigh z = iH, H = U diag(mu) U^H,
    serves the whole grid and every later call on geo: each node is then a
    phase multiply and one n x n complex matrix product (see `_curve_points`).
    """
    t = np.asarray(ts, dtype=float).reshape(-1)
    mu, u, right = geo._spectrum
    return _curve_points(geo.generator, 2.0 * t[:, None] * mu, u, right)


# ---------------------------------------------------------------------------
# the complexified curve kernel
#
# In standard coordinates a J-commuting antisymmetric generator is the
# complex-linear map iH of C^n with H Hermitian, and a Lagrangian symmetry
# anticommutes with J, so it is the conjugate-linear map v -> C conj(v) with C
# complex symmetric. A curve point e^{iH} eps0 is therefore
# v -> U e^{i mu} U^H C conj(v): half-size complex data in place of a real
# 2n x 2n exponential.


def _stack_times(stack: np.ndarray, b: np.ndarray) -> np.ndarray:
    """stack @ b for one matrix b, computed as a single matrix product.

    numpy multiplies a stack by a matrix one small product at a time; for
    small n the call overhead of those products outweighs their arithmetic.
    """
    rows = stack.reshape(-1, stack.shape[-1]) @ b
    return rows.reshape(stack.shape[:-1] + b.shape[-1:])


def _curve_points(gen: GeodesicGenerator, angles: np.ndarray, u: np.ndarray,
                  right: np.ndarray) -> np.ndarray:
    """Real symmetries e^{iH} eps0 for H = U diag(angles) U^H, one per node.

    angles has one row per node; u is one unitary shared by every node or a
    stack with one per node, and right is the matching U^H C. Each point is
    eps0 plus the realified conjugate-linear step m = U (e^{i angles} - 1) U^H C.
    A node with zero angles returns eps0 itself.
    """
    scaled = u * (np.exp(1j * angles) - 1.0)[..., None, :]
    m = _stack_times(scaled, right) if right.ndim == 2 else np.matmul(scaled, right)
    return gen.base.matrix + realify_conjugation(m, gen.structure)


# ---------------------------------------------------------------------------
# connecting two Lagrangians


def _transversal_block(frames, structure: ComplexStructure) -> np.ndarray:
    """(pi/2) J restricted to the two swapped blocks; zero if they are absent."""
    p_cols = np.hstack([frames.plus_minus, frames.minus_plus])
    if p_cols.shape[1] == 0:
        return np.zeros((structure.dim, structure.dim))
    p = p_cols @ p_cols.T
    return (math.pi / 2.0) * (p @ structure.matrix @ p)


def _generic_block(frames) -> np.ndarray:
    """The angle operator x as a rotation of each generic 2-plane.

    Each plane is spanned by a left frame vector and its orthogonal partner,
    and the generator turns the first toward the second by the plane's angle.
    """
    x = frames.generic_angles
    left, ortho = frames.generic_left, frames.generic_ortho
    return (ortho * x) @ left.T - (left * x) @ ortho.T


def connect(eps0, eps1, structure: ComplexStructure,
            zero_tol: float = ANGLE_ZERO_TOL,
            right_tol: float = ANGLE_RIGHT_TOL) -> GeodesicGenerator:
    """Generator of a minimal geodesic from eps0 to eps1: e^{2z} eps0 = eps1.

    The generator is assembled from the principal angles of the pair: (pi/2) J
    on the swapped blocks and the angle operator on the generic 2-planes.
    Identical endpoints short-circuit to z = 0. The endpoint residual is
    verified before returning.
    """
    return _connect(eps0, eps1, structure, zero_tol, right_tol)[0]


def _connect(eps0, eps1, structure: ComplexStructure, zero_tol: float,
             right_tol: float) -> tuple[GeodesicGenerator, float]:
    """`connect` together with the endpoint residual max|e^{2z} eps0 - eps1| it
    verified."""
    e0 = _as_symmetry(eps0)
    e1 = _as_symmetry(eps1)
    for name, e in (("first", e0), ("second", e1)):
        if not is_lagrangian(e, structure):
            raise InvariantViolation(f"connect: {name} endpoint is not Lagrangian")
    dim = structure.dim
    gap = max_abs(e0.matrix - e1.matrix)
    if gap <= 1e-13:
        return GeodesicGenerator(np.zeros((dim, dim)), e0, structure), gap

    frames = _pair_frames(e0, e1, zero_tol, right_tol)
    if frames.plus_minus.shape[1] != frames.minus_plus.shape[1]:
        raise ComputationError("connect: swapped blocks differ in dimension")

    z = _transversal_block(frames, structure) + _generic_block(frames)
    z = (z - z.T) / 2.0
    # exact projections onto the J-commuting and base-anticommuting parts;
    # they commute and strip conditioning noise from near-critical angles
    j = structure.matrix
    z = (z + j @ z @ j.T) / 2.0
    z = (z - e0.matrix @ z @ e0.matrix) / 2.0

    gen = GeodesicGenerator(z, e0, structure)
    endpoint = expm_antisymmetric(2.0 * z, validate=False) @ e0.matrix
    resid = max_abs(endpoint - e1.matrix)
    if resid > ENDPOINT_RTOL * dim:
        raise ComputationError(
            f"connect: endpoint residual {resid:.3e} beyond {ENDPOINT_RTOL * dim:.3e}"
        )
    return gen, resid


def distance(eps0, eps1, structure: ComplexStructure) -> float:
    """Geodesic distance 2 ||z|| = twice the largest principal angle."""
    gen = connect(eps0, eps1, structure)
    return 2.0 * gen.norm


# ---------------------------------------------------------------------------
# Finsler lengths


def length(geo: Geodesic, k=math.inf, t0: float = 0.0, t1: float = 1.0) -> float:
    """Length of the geodesic over [t0, t1] in the Schatten k-norm.

    The speed ||2z||_k is constant along the curve, so the closed form is
    |t1 - t0| * ||2z||_k.
    """
    return abs(float(t1) - float(t0)) * schatten_norm(2.0 * geo.generator.z, k)


def _speed_norms(values: np.ndarray, k) -> np.ndarray:
    """Schatten norms per node from |eigenvalue| arrays of symmetric matrices."""
    if k == math.inf:
        return values.max(axis=1)
    if isinstance(k, float) and k.is_integer():
        k = int(k)
    if not isinstance(k, (int, np.integer)) or k < 1:
        raise InvariantViolation(f"Schatten order must be an integer >= 1 or inf, got {k!r}")
    top = values.max(axis=1)
    safe = np.where(top > 0.0, top, 1.0)
    sums = np.sum((values / safe[:, None]) ** k, axis=1) ** (1.0 / k)
    return np.where(top > 0.0, safe * sums, 0.0)


def sampled_lengths(samples, dt: float, ks) -> dict:
    """Quadrature lengths of a uniformly sampled curve for several k at once.

    Speeds come from the second-order finite-difference derivative of the
    sample stack (one-sided at the ends), integrated by the trapezoid rule.
    Samples are symmetric matrices, so singular values are |eigenvalues|.
    An ndarray stack is used as it is; a sequence of Symmetry objects or
    matrices is stacked first.
    """
    if isinstance(samples, np.ndarray):
        stack = np.asarray(samples, dtype=float)
    else:
        stack = np.stack([
            s.matrix if isinstance(s, Symmetry) else np.asarray(s, dtype=float)
            for s in samples
        ])
    if stack.ndim != 3 or stack.shape[0] < 3:
        raise InvariantViolation("sampled length: need a stack of at least 3 matrices")
    if dt <= 0.0:
        raise InvariantViolation("sampled length: dt must be positive")
    deriv = np.gradient(stack, dt, axis=0, edge_order=2)
    values = np.abs(np.linalg.eigvalsh(deriv))
    out = {}
    for k in ks:
        speeds = _speed_norms(values, k)
        out[k] = float(np.trapezoid(speeds, dx=dt))
    return out


def sampled_length(samples, dt: float, k=math.inf) -> float:
    """Quadrature length of a uniformly sampled curve in one Schatten norm."""
    return sampled_lengths(samples, dt, [k])[k]


# ---------------------------------------------------------------------------
# multiplicity of minimal geodesics and the sign-flip family


class Multiplicity(enum.Enum):
    UNIQUE = "Unique"
    EXACTLY_TWO = "ExactlyTwo"
    INFINITE = "Infinite"


@dataclass(frozen=True)
class MultiplicityReport:
    classification: Multiplicity
    minus_one_dim_complex: int
    norm_gap: float


@dataclass(frozen=True)
class _PiPlanes:
    """Complexified data of the pi-rotation planes of e^{2z}.

    hermitian is Y with complexify(z) = iY; mus/vectors list the eigenvalues
    within tolerance of +-pi/2 together with orthonormal eigenvectors fixed by
    the (conjugate-linear) action of the base symmetry. Each such vector spans
    a J-complex plane on which the sign of z may be flipped without moving the
    endpoint e^{2z} eps0.
    """

    hermitian: np.ndarray
    mus: np.ndarray
    vectors: np.ndarray
    max_abs_mu: float


def _real_form_basis(cols: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Orthonormal basis of {w : c conj(w) = w} inside span(cols).

    w -> c conj(w) is an antiunitary involution preserving the span; the fixed
    set is a real form of complex dimension equal to the span's. Candidates
    w + c conj(w) and i(w - c conj(w)) are fixed; a Gram-Schmidt sweep keeps an
    orthonormal subset of the right size.
    """
    m = cols.shape[1]
    kept: list[np.ndarray] = []
    for i in range(m):
        v = cols[:, i]
        cv = c @ v.conj()
        for cand in (v + cv, 1j * (v - cv)):
            if len(kept) == m:
                break
            w = cand.astype(complex)
            for u in kept:
                w = w - u * np.vdot(u, w)
            norm = float(np.linalg.norm(w))
            if norm > 1e-6:
                kept.append(w / norm)
    if len(kept) != m:
        raise ComputationError("pi-plane real form extraction failed")
    return np.column_stack(kept) if kept else np.zeros((cols.shape[0], 0), dtype=complex)


def _pi_planes(gen: GeodesicGenerator) -> _PiPlanes:
    structure = gen.structure
    n = structure.n
    y = -1j * complexify(gen.z, structure)
    if max_abs(np.abs(y - y.conj().T)) > 1e-9 * max(1.0, max_abs(np.abs(y))):
        raise ComputationError("complexified generator is not anti-hermitian")
    y = (y + y.conj().T) / 2.0
    mu, vec = np.linalg.eigh(y)
    c = conjugation_matrix(gen.base.matrix, structure)
    mus: list[float] = []
    vecs: list[np.ndarray] = []
    for sign in (1.0, -1.0):
        mask = np.abs(mu - sign * math.pi / 2.0) <= PI_PLANE_TOL / 2.0
        if np.any(mask):
            basis = _real_form_basis(vec[:, mask], c)
            for i in range(basis.shape[1]):
                mus.append(sign * math.pi / 2.0)
                vecs.append(basis[:, i])
    vectors = np.column_stack(vecs) if vecs else np.zeros((n, 0), dtype=complex)
    top = float(np.max(np.abs(mu))) if mu.size else 0.0
    return _PiPlanes(y, np.asarray(mus), vectors, top)


def classify_multiplicity(gen: GeodesicGenerator) -> MultiplicityReport:
    """Count the -1 eigenspace of the complexified e^{2z} and classify.

    d = 0 -> the minimal geodesic is unique; d = 1 -> exactly two; d >= 2 ->
    infinitely many. norm_gap = pi/2 - ||z|| measures distance to the
    non-unique regime.
    """
    planes = _pi_planes(gen)
    d = planes.mus.shape[0]
    if d == 0:
        cls = Multiplicity.UNIQUE
    elif d == 1:
        cls = Multiplicity.EXACTLY_TWO
    else:
        cls = Multiplicity.INFINITE
    return MultiplicityReport(cls, d, math.pi / 2.0 - planes.max_abs_mu)


def alternate_generator(gen: GeodesicGenerator, signs) -> GeodesicGenerator:
    """Flip the sign of z on the selected pi-rotation planes.

    signs has one entry of +-1 per plane (ordered as in the multiplicity
    report); -1 flips. The endpoint e^{2z} eps0 and every Schatten norm of z
    are unchanged. Requires ||z|| = pi/2 within tolerance (otherwise there is
    no plane to flip).
    """
    planes = _pi_planes(gen)
    d = planes.mus.shape[0]
    if d == 0:
        raise InvariantViolation(
            "alternate generator: operator norm below pi/2, no pi-rotation plane"
        )
    sign_arr = np.asarray(signs, dtype=float).reshape(-1)
    if sign_arr.shape[0] != d or not np.all(np.isin(sign_arr, (-1.0, 1.0))):
        raise InvariantViolation(
            f"alternate generator: need {d} signs of +-1, got {signs!r}"
        )
    return _flipped(gen, planes, sign_arr)


def _flipped(gen: GeodesicGenerator, planes: _PiPlanes, signs) -> GeodesicGenerator:
    """The generator with z negated on the planes whose sign is -1."""
    y = planes.hermitian.copy()
    for i, sign in enumerate(signs):
        if sign < 0:
            w = planes.vectors[:, i]
            y = y - 2.0 * planes.mus[i] * np.outer(w, w.conj())
    z_new = realify(1j * y, gen.structure)
    z_new = (z_new - z_new.T) / 2.0
    return GeodesicGenerator(z_new, gen.base, gen.structure)


def alternate_generators(gen: GeodesicGenerator, limit: int = 64) -> list[GeodesicGenerator]:
    """All sign-pattern alternates, at most `limit` (>= 1) of the 2^d patterns.

    With d = 0 the geodesic is unique and the list is just [gen]. The
    pi-rotation planes are found once and shared by every pattern.
    """
    if limit < 1:
        raise InvariantViolation(f"alternate generators: limit must be >= 1, got {limit!r}")
    planes = _pi_planes(gen)
    d = planes.mus.shape[0]
    if d == 0:
        return [gen]
    patterns = itertools.islice(itertools.product((1, -1), repeat=d), limit)
    return [_flipped(gen, planes, pattern) for pattern in patterns]
