"""Minimal geodesics between Lagrangian subspaces.

A geodesic through eps0 is delta(t) = e^{2tz} eps0 with a generator z that is
antisymmetric, commutes with J, anticommutes with eps0 and has operator norm
at most pi/2. Any two Lagrangians are joined by such a curve; it is unique iff
the endpoints have no common pi/2 principal angle, and it is length-minimizing
for every Schatten k-norm.

In the complex picture a Lagrangian symmetry is v -> C conj(v) with C
symmetric unitary, and a generator at eps0 is z = i U diag(theta) U^H with
C0 = U U^T (the Souriau coordinate). Every generator carries this record, and
its norm, lengths, samples and pi-rotation planes are read off it.
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .complex_structure import (
    ComplexStructure,
    _complex_block,
    _real_eigenbasis,
    anticommutes_with_structure,
    realify,
    realify_conjugation,
)
from .errors import ComputationError, InvariantViolation
from .linalg import (
    expm_antisymmetric,
    max_abs,
    require_antisymmetric,
)
from .subspaces import (
    Symmetry,
    _as_symmetry,
    check_tangent,
    is_lagrangian,
)
from .tolerances import ENDPOINT_RTOL, GENERATOR_ATOL


# ---------------------------------------------------------------------------
# generators and evaluation


@dataclass(frozen=True)
class GeodesicGenerator:
    """A validated geodesic velocity seed z at a base Lagrangian.

    Invariants: eps0 J = -J eps0 (the base is Lagrangian), z antisymmetric,
    z J = J z, z eps0 = -eps0 z, ||z|| <= pi/2.

    The spectral record (u, theta) has z = realify(i U diag(theta) U^H) and
    C0 = U U^T for the conjugation matrix C0 of the base: theta are the signed
    principal angles and norm = max|theta| = ||z||. Validation reads it off
    the part of z that anticommutes with the base (z within the slack).
    """

    z: np.ndarray
    base: Symmetry
    structure: ComplexStructure
    norm: float = field(init=False)
    u: np.ndarray = field(init=False, repr=False, compare=False)
    theta: np.ndarray = field(init=False, repr=False, compare=False)

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
        # z = iH; in a real form W of the base, W^H H W is real symmetric
        w = _real_form(_complex_block(e, self.structure))
        k = (w.conj().T @ (-1j * _complex_block(z, self.structure)) @ w).real
        theta, o = np.linalg.eigh((k + k.T) / 2.0)
        self._record(z, w @ o, theta)
        if self.norm > math.pi / 2.0 + GENERATOR_ATOL:
            raise InvariantViolation("generator: operator norm exceeds pi/2")

    def _record(self, z: np.ndarray, u: np.ndarray, theta: np.ndarray) -> None:
        object.__setattr__(self, "z", z)
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "norm", float(np.max(np.abs(theta), initial=0.0)))

    @classmethod
    def _from_record(cls, base: Symmetry, structure: ComplexStructure, u: np.ndarray,
                     theta: np.ndarray) -> "GeodesicGenerator":
        """The generator of a record, unvalidated: it satisfies the invariants."""
        h = (u * theta) @ u.conj().T
        z = realify(1j * (h + h.conj().T) / 2.0, structure)
        gen = object.__new__(cls)
        object.__setattr__(gen, "base", base)
        object.__setattr__(gen, "structure", structure)
        gen._record((z - z.T) / 2.0, u, theta)
        return gen


def _real_form(c: np.ndarray) -> np.ndarray:
    """Unitary W with C = W W^T for a symmetric unitary C: W = O e^{i phi / 2}."""
    o, phi = _real_eigenbasis(c)
    return o * np.exp(0.5j * phi)


@dataclass(frozen=True)
class Geodesic:
    """The curve t -> e^{2tz} eps0 determined by a generator."""

    generator: GeodesicGenerator

    @property
    def base(self) -> Symmetry:
        return self.generator.base


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

    The generator's record z = iU diag(theta) U^H with C0 = U U^T serves the
    whole grid: U^H C0 = U^T, so each node is a phase multiply and one n x n
    complex matrix product (see `_curve_points`).
    """
    t = np.asarray(ts, dtype=float).reshape(-1)
    gen = geo.generator
    return _curve_points(gen, 2.0 * t[:, None] * gen.theta, gen.u, gen.u.T)


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


def connect(eps0, eps1, structure: ComplexStructure) -> GeodesicGenerator:
    """Generator of a minimal geodesic from eps0 to eps1: e^{2z} eps0 = eps1.

    With the conjugation matrices C0 = W W^T and C1 of the endpoints,
    S = W^H C1 conj(W) is a symmetric unitary O diag(e^{2i theta}) O^T with O
    real orthogonal and theta in (-pi/2, pi/2] the signed principal angles;
    the generator's record is U = W O and theta, as measured (no angle is
    snapped to 0 or pi/2). Identical endpoints short-circuit to z = 0. The
    endpoint residual is verified before returning.
    """
    return _connect(eps0, eps1, structure)[0]


def _connect(eps0, eps1, structure: ComplexStructure) -> tuple[GeodesicGenerator, float]:
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

    w = _real_form(_complex_block(e0.matrix, structure))
    c1 = _complex_block(e1.matrix, structure)
    o, phi = _real_eigenbasis(w.conj().T @ c1 @ w.conj())
    gen = GeodesicGenerator._from_record(e0, structure, w @ o, phi / 2.0)
    endpoint = expm_antisymmetric(2.0 * gen.z, validate=False) @ e0.matrix
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
    |t1 - t0| * ||2z||_k; the singular values of 2z are |2 theta_j|, each twice.
    """
    values = np.repeat(2.0 * np.abs(geo.generator.theta), 2)[None, :]
    return abs(float(t1) - float(t0)) * float(_speed_norms(values, k)[0])


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


def _pi_planes(gen: GeodesicGenerator) -> np.ndarray:
    """Record columns on which e^{2z} rotates by pi: |theta| >= pi/2 within the
    norm slack, so that the sign flip theta -> theta - pi sign(theta), which
    keeps the endpoint e^{2z} eps0, also keeps the norm bound."""
    return np.flatnonzero(math.pi - np.abs(gen.theta) <= math.pi / 2.0 + GENERATOR_ATOL)


def classify_multiplicity(gen: GeodesicGenerator) -> MultiplicityReport:
    """Count the -1 eigenspace of the complexified e^{2z} and classify.

    d = 0 -> the minimal geodesic is unique; d = 1 -> exactly two; d >= 2 ->
    infinitely many. norm_gap = pi/2 - ||z|| measures distance to the
    non-unique regime.
    """
    d = _pi_planes(gen).size
    if d == 0:
        cls = Multiplicity.UNIQUE
    elif d == 1:
        cls = Multiplicity.EXACTLY_TWO
    else:
        cls = Multiplicity.INFINITE
    return MultiplicityReport(cls, d, math.pi / 2.0 - gen.norm)


def alternate_generator(gen: GeodesicGenerator, signs) -> GeodesicGenerator:
    """Flip the sign of z on the selected pi-rotation planes.

    signs has one entry of +-1 per plane (ordered as in the multiplicity
    report); -1 flips. The endpoint e^{2z} eps0 and every Schatten norm of z
    are unchanged. Requires ||z|| = pi/2 within tolerance (otherwise there is
    no plane to flip).
    """
    planes = _pi_planes(gen)
    d = planes.size
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


def _flipped(gen: GeodesicGenerator, planes: np.ndarray, signs) -> GeodesicGenerator:
    """The generator with z negated on the planes whose sign is -1."""
    flip = planes[np.asarray(signs) < 0]
    if flip.size == 0:
        return gen
    theta = gen.theta.copy()
    theta[flip] -= math.pi * np.sign(theta[flip])
    return GeodesicGenerator._from_record(gen.base, gen.structure, gen.u, theta)


def alternate_generators(gen: GeodesicGenerator, limit: int = 64) -> list[GeodesicGenerator]:
    """All sign-pattern alternates, at most `limit` (>= 1) of the 2^d patterns.

    With d = 0 the geodesic is unique and the list is just [gen]. The
    pi-rotation planes are found once and shared by every pattern.
    """
    if limit < 1:
        raise InvariantViolation(f"alternate generators: limit must be >= 1, got {limit!r}")
    planes = _pi_planes(gen)
    d = planes.size
    if d == 0:
        return [gen]
    patterns = itertools.islice(itertools.product((1, -1), repeat=d), limit)
    return [_flipped(gen, planes, pattern) for pattern in patterns]
