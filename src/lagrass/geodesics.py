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
from .linalg import _EXCEEDS, _as_2d, _check, _speed_norms, expm_antisymmetric, max_abs
from .subspaces import (
    Symmetry,
    _as_symmetry,
    check_tangent,
    is_lagrangian,
)
from .tolerances import ENDPOINT_RTOL, GENERATOR_ATOL, SYM_RTOL


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
        z = _as_2d(self.z, "generator", square=True)
        if z.shape[0] != self.structure.dim or z.shape[0] != self.base.ambient_dim:
            raise InvariantViolation("generator: dimension mismatch")
        if not anticommutes_with_structure(self.base.matrix, self.structure):
            raise InvariantViolation("generator: base symmetry does not anticommute with J")
        e = self.base.matrix
        _check(z, "generator", [
            ("antisymmetric", SYM_RTOL * max(z.shape[0], 1), 0.0, "not antisymmetric" + _EXCEEDS),
            (("commutes", self.structure.matrix), GENERATOR_ATOL, 1.0, "does not commute with J"),
            (("anticommutes", e), GENERATOR_ATOL, 1.0, "does not anticommute with the base")])
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
                     theta: np.ndarray, z: np.ndarray | None = None) -> "GeodesicGenerator":
        """The generator of a record, unvalidated: it satisfies the invariants.
        z, when the caller already has the record's generator, is kept as is."""
        if z is None:
            h = (u * theta) @ u.conj().T
            z = realify(1j * (h + h.conj().T) / 2.0, structure)
            z = (z - z.T) / 2.0
        gen = object.__new__(cls)
        object.__setattr__(gen, "base", base)
        object.__setattr__(gen, "structure", structure)
        gen._record(z, u, theta)
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
    """The symmetry at parameter t: e^{2tz} eps0, the real form of one node of
    `sample`. It is eps0 plus the realified step C_t - C0, so t = 0 returns
    eps0 itself."""
    gen = geo.generator
    step = _geodesic_steps(gen, [float(t)])[0]
    return Symmetry(gen.base.matrix + realify_conjugation(step, gen.structure))


def sample(geo: Geodesic, ts) -> np.ndarray:
    """Conjugation matrices C_t of e^{2tz} eps0 over a grid, a complex stack of
    shape (len(ts), n, n) in the standard split.

    The node at t acts as v -> C_t conj(v); `realify_conjugation` gives its
    real symmetry. The generator's record z = iU diag(theta) U^H with
    C0 = U U^T serves the whole grid: U^H C0 = U^T, so each node is a phase
    multiply and one n x n complex matrix product (see `_curve_steps`). C0 is
    read off the base's blocks, and t = 0 returns it bit for bit.
    """
    gen = geo.generator
    return _complex_block(gen.base.matrix, gen.structure) + _geodesic_steps(gen, ts)


def _geodesic_steps(gen: GeodesicGenerator, ts) -> np.ndarray:
    """C_t - C0 along the geodesic of gen, one n x n step per node."""
    t = np.asarray(ts, dtype=float).reshape(-1)
    if not np.isfinite(t).all():
        raise InvariantViolation("sample: grid times must be finite")
    return _curve_steps(2.0 * t[:, None] * gen.theta, gen.u, gen.u.T)


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
    The row count is explicit: reshape cannot infer it when n = 0.
    """
    rows = stack.reshape(math.prod(stack.shape[:-1]), stack.shape[-1]) @ b
    return rows.reshape(stack.shape[:-1] + b.shape[-1:])


def _curve_steps(angles: np.ndarray, u: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Steps C_t - C0 = U (e^{i angles} - 1) U^H C0 of e^{iH} eps0 for
    H = U diag(angles) U^H, one per node.

    angles has one row per node; u is one unitary shared by every node or a
    stack with one per node, and right is the matching U^H C0. A node with
    zero angles has a zero step.
    """
    scaled = u * (np.exp(1j * angles) - 1.0)[..., None, :]
    return _stack_times(scaled, right) if right.ndim == 2 else np.matmul(scaled, right)


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
    if not (math.isfinite(t0) and math.isfinite(t1)):
        raise InvariantViolation("length: t0 and t1 must be finite")
    values = np.repeat(2.0 * np.abs(geo.generator.theta), 2)[None, :]
    return abs(float(t1) - float(t0)) * float(_speed_norms(values, k)[0])


# five-point one-sided first-derivative stencils (times 12 h) at the first two
# nodes; the last two use them mirrored
_EDGE_STENCILS = np.array([[-25.0, 48.0, -36.0, 16.0, -3.0],
                           [-3.0, -10.0, 18.0, -6.0, 1.0]])


def _node_speeds(samples, dt: float, ks) -> dict:
    """Per-node Schatten k-speeds ||eps'_t||_k of a sampled curve, one array
    per k; the kernel of `sampled_lengths`, which states the contract."""
    stack = np.asarray(samples)
    if stack.dtype.kind != "c":
        raise InvariantViolation(
            "sampled length: need the complex stack of conjugation matrices C_t "
            "(conjugation_matrix of each real symmetry), got a real stack")
    if stack.ndim != 3 or stack.shape[0] < 5 or stack.shape[1] != stack.shape[2]:
        raise InvariantViolation("sampled length: need a stack of at least 5 square matrices")
    if not 0.0 < dt < math.inf:
        raise InvariantViolation("sampled length: dt must be positive and finite")
    deriv = np.empty_like(stack)
    deriv[2:-2] = stack[:-4] - stack[4:] + 8.0 * (stack[3:-1] - stack[1:-3])
    deriv[:2] = np.tensordot(_EDGE_STENCILS, stack[:5], axes=1)
    deriv[-2:] = -np.tensordot(_EDGE_STENCILS[::-1, ::-1], stack[-5:], axes=1)
    deriv /= 12.0 * dt
    gram = np.matmul(np.swapaxes(deriv.conj(), -1, -2), deriv)
    sigma = np.sqrt(np.maximum(np.linalg.eigvalsh(gram), 0.0))
    # eps'_t is C'_t realified: each singular value of C'_t appears twice
    doubled = np.repeat(sigma, 2, axis=1)
    return {k: _speed_norms(doubled, k) for k in ks}


def _simpson_weights(m: int) -> np.ndarray:
    """Composite Simpson weights for m >= 5 nodes at unit spacing; for even m
    the last three intervals take the 3/8 rule."""
    w = np.zeros(m)
    simpson = m if m % 2 else m - 3         # nodes covered by Simpson panels
    w[0:simpson - 1:2] += 1.0 / 3.0
    w[1:simpson:2] += 4.0 / 3.0
    w[2:simpson:2] += 1.0 / 3.0
    if simpson < m:
        w[-4:] += np.array([3.0, 9.0, 9.0, 3.0]) / 8.0
    return w


def sampled_lengths(samples, dt: float, ks) -> dict:
    """Quadrature lengths of a uniformly sampled Lagrangian curve for several
    k at once.

    samples is the complex stack of conjugation matrices C_t that `sample`
    and `perturbed_curve` return (or a sequence of such n x n matrices), at
    least 5 nodes spaced dt apart. A real stack of symmetries is refused
    (InvariantViolation): convert it with `conjugation_matrix`. The symmetry
    eps_t is `realify_conjugation(C_t)` up to an orthogonal change of basis,
    so each singular value of C'_t is one of eps'_t counted twice and
    ||eps'_t||_k = 2^{1/k} ||C'_t||_k. C'_t is the fourth-order central
    difference (five-point one-sided stencils at the two nodes of each end),
    every speed comes from one batched n x n Hermitian eigvalsh of
    C'^H C', and the speeds are integrated by composite Simpson (the 3/8
    rule on the last panel for an even node count). A geodesic is measured
    to about (h ||2z||)^4 relative error. The singular values are square
    roots of the Gram eigenvalues, so one near zero carries about sqrt(eps)
    times the top speed: speeds for k >= 2 are good to about 1e-12 of the top
    speed, k = 1 speeds only to about 1e-7 of it.
    """
    speeds = _node_speeds(samples, dt, ks)
    weights = dt * _simpson_weights(len(samples))
    return {k: float(s @ weights) for k, s in speeds.items()}


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
    if not isinstance(limit, (int, np.integer)) or limit < 1:
        raise InvariantViolation(
            f"alternate generators: limit must be an integer >= 1, got {limit!r}")
    planes = _pi_planes(gen)
    d = planes.size
    if d == 0:
        return [gen]
    patterns = itertools.islice(itertools.product((1, -1), repeat=d), limit)
    return [_flipped(gen, planes, pattern) for pattern in patterns]
