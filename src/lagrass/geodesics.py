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
import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .complex_structure import (
    ComplexStructure,
    _complex_block,
    _real_eigenbasis,
    _realified,
    _split_checked,
    realify_conjugation,
)
from .errors import ComputationError, InvariantViolation
from .linalg import (
    _EXCEEDS,
    _amax,
    _as_2d,
    _check,
    _eq_by_value,
    _read_only,
    _speed_norms,
    expm_antisymmetric,
    max_abs,
)
from .subspaces import (
    Symmetry,
    _as_symmetry,
    _lagrangian_split,
    check_tangent,
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
    C0 = U U^T for the conjugation matrix C0 of the base, in J's standard
    split: theta are the signed principal angles and norm = max|theta| = ||z||.
    Validation reads it off the part of z that anticommutes with the base (z
    within the slack). z, u and theta are read-only, and so is the base's matrix.

    Every node e^{2tz} eps0 is Lagrangian in exact arithmetic, and the only
    defects it can inherit from the record, ||U^H U - I|| and the base
    residual of U U^T, do not depend on t. For the standard J the node
    certificate (`_node_certificate`) bounds them once, on first use, and is
    kept on the generator: while it holds, `evaluate` and the chart grid skip
    the per-node `Symmetry` check, and where it fails, or J is not standard,
    they run it.
    """

    __eq__ = _eq_by_value
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
        e, tol = self.base.matrix, SYM_RTOL * max(z.shape[0], 1)
        e_split = _split_checked(e, self.structure, "anticommutes", tol, 1e-300, "generator",
                                 "base symmetry does not anticommute with J")[0]
        _check(z, "generator", [
            ("antisymmetric", tol, 0.0, "not antisymmetric" + _EXCEEDS),
            (("anticommutes", e), GENERATOR_ATOL, 1.0, "does not anticommute with the base")])
        z_split, scale = _split_checked(z, self.structure, "commutes", GENERATOR_ATOL, 1.0,
                                        "generator", "does not commute with J")
        # z = iH; in a real form W of the base, W^H H W is real symmetric
        w = _real_form(_complex_block(e_split))
        k = (w.conj().T @ (-1j * _complex_block(z_split, scale)) @ w).real
        theta, o = np.linalg.eigh(0.5 * k + 0.5 * k.T)
        self._record(z.copy(), w @ o, theta)

    def _record(self, z: np.ndarray, u: np.ndarray, theta: np.ndarray) -> None:
        """Keep the record; z, u and theta are the generator's own arrays.
        Every construction passes here, so here the norm bound is enforced."""
        object.__setattr__(self, "z", _read_only(z))
        object.__setattr__(self, "u", _read_only(u))
        object.__setattr__(self, "theta", _read_only(theta))
        object.__setattr__(self, "norm", float(np.max(np.abs(theta), initial=0.0)))
        if not self.norm <= math.pi / 2.0 + GENERATOR_ATOL:
            raise InvariantViolation("generator: operator norm exceeds pi/2")

    @functools.cached_property
    def _nodes(self) -> "_NodeCertificate":
        """The node certificate, computed on first use and kept."""
        return _node_certificate(self)

    @classmethod
    def _from_record(cls, base: Symmetry, structure: ComplexStructure, u: np.ndarray,
                     theta: np.ndarray, split: np.ndarray | None = None) -> "GeodesicGenerator":
        """The generator of a record, unvalidated: it satisfies the invariants.
        split, when the caller already has it (`_record_generator`), is kept."""
        split = _record_generator(u, theta) if split is None else split
        z = structure._unsplit(split)
        if z is not split:      # antisymmetric to the last bit again
            z = (z - z.T) / 2.0
        gen = object.__new__(cls)
        object.__setattr__(gen, "base", base)
        object.__setattr__(gen, "structure", structure)
        gen._record(z, u, theta)
        return gen


def _record_generator(u: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """realify(i U diag(theta) U^H) in the standard split, antisymmetric to
    the last bit, with blocks exactly [[A, -B], [B, A]]."""
    h = (u * theta) @ u.conj().T
    z = _realified(1j * (h + h.conj().T) / 2.0, len(u))
    return (z - z.T) / 2.0


def _real_form(c: np.ndarray) -> np.ndarray:
    """Unitary W with C = W W^T for a symmetric unitary C: W = O e^{i phi / 2}."""
    o, phi = _real_eigenbasis(c)
    return o * np.exp(0.5j * phi)


class _NodeCertificate(NamedTuple):
    holds: bool     # every node with finite entries passes the Symmetry check
    eta: float      # ||U^H U - I||_F, the split record's unitarity defect (NaN off the standard J)
    slack: float    # s = 16 (n + 2)^2 eps, the rounding slack of its bounds
    rho: float = math.nan   # ||R(U U^T) - eps0||_F, the base residual
    g: np.ndarray | None = None     # diag(G) for G = U^H conj(U)
    r: float = math.nan     # ||offdiag G||_F
    plus_dim: int = 0       # the base's, which every node shares

    def chart_floor(self, d: np.ndarray) -> np.ndarray:
        """floor_t, the lower bound on the top-row chart margin of the node
        with phases d = e^{2it theta}, one per row of d (`_node_certificate`)."""
        eta = self.eta
        edge = np.abs(self.g + d).min(axis=-1, initial=math.inf) - self.r - eta * (2.0 + eta)
        return (edge / (1.0 + eta) - self.rho - self.slack) / 2.0


def _node_certificate(gen: GeodesicGenerator) -> _NodeCertificate:
    """Whether every node of a standard-J geodesic passes the `Symmetry`
    check, in both forms: the real eps_t of `evaluate` and the C_t of
    `sample` that the chart grid reads. A generator on any other J is not
    certified, and nothing is measured: `evaluate` then checks each node,
    and the chart grid refuses such a generator.

    With R the realified conjugation, the node at t is
    eps0 + R(U (e^{i mu} - 1) U^T), mu = 2 t theta, which is exactly
    R(P) - Phi for the symmetric P = U e^{i mu} U^T and the base residual
    Phi = R(U U^T) - eps0, rho = ||Phi||_F. So for every t:
      - the asymmetry is the base's, at most a = the larger of
        max|eps0 - eps0^T| and max|C0 - C0^T| (each entry measured by its
        larger part, as the check does), C0 read off the base's blocks;
      - with eta = ||U^H U - I||_F, ||P conj(P) - I|| <= eta (2 + eta) and
        ||P|| <= 1 + eta bound ||eps_t^2 - I||_2 by
        eta (2 + eta) + 2 (1 + eta) rho + rho^2.
    C_t = C0 + the same step is R(P) - R(U U^T - C0), and
    ||U U^T - C0||_F <= rho, so the bounds, and the chart floor below, cover
    it too. Each bound adds the slack s for the rounding of the node and of
    the measured defects. The check holds the asymmetry to
    SYM_RTOL m max|eps_t| and eps_t^2 - I to SYM_RTOL m max(max|eps_t|, 1),
    m = 2n. A column of eps_t has squared norm at least 1 - D,
    D = inv + sigma (sigma + sqrt(1 + inv)) with sigma = m sym bounding
    ||eps_t - eps_t^T||_2, so max|eps_t| >= (1 - D) / sqrt(m) (eps more in D
    covers the rounding of the check's tolerance). The certificate holds iff
    both bounds sit below the tolerances they get from that.

    It also bounds every node's chart margin. The node's top rows plus
    [I 0] are T - Phi_top, T = [Re M, Im M], M = I + P. With G = U^H conj(U),
    g = diag(G), r = ||offdiag G||_F and d = e^{i mu}, U^H M conj(U) is
    G + diag(d) up to eta (2 + eta) and ||U||^2 <= 1 + eta, so by Weyl
    sigma_min(M) >= (min_j |g_j + d_j| - r - eta (2 + eta)) / (1 + eta);
    T T^T = Re(M M^H) gives sigma_min(T) >= sigma_min(M), and ||Phi|| = rho,
    so the margin sigma_min(T - Phi_top) / 2 is at least floor_t =
    (that - rho - s) / 2, s covering the rounding of the node, G and the SVD.
    """
    structure, u, e = gen.structure, gen.u, gen.base.matrix
    if not structure.is_standard():
        return _NodeCertificate(False, math.nan, math.nan)
    n = structure.n
    m = max(2 * n, 1)
    eps = np.finfo(float).eps
    eta = float(np.linalg.norm(u.conj().T @ u - np.eye(n)))
    rho = float(np.linalg.norm(realify_conjugation(u @ u.T, structure) - e))
    c0 = _complex_block(e)
    slack = 16.0 * (n + 2) ** 2 * eps
    sym = max(max_abs(e - e.T), float(_amax(c0 - c0.T))) + slack
    inv = eta * (2.0 + eta) + 2.0 * (1.0 + eta) * rho + rho**2 + slack
    sigma = m * sym
    defect = inv + sigma * (sigma + math.sqrt(1.0 + inv)) + eps
    holds = (defect < 1.0 and sym <= SYM_RTOL * math.sqrt(m) * (1.0 - defect)
             and inv <= SYM_RTOL * m)
    gram = u.conj().T @ u.conj()
    g = gram.diagonal().copy()
    r = float(np.linalg.norm(gram - np.diag(g)))
    return _NodeCertificate(bool(holds), eta, slack, rho, g, r, gen.base.plus_dim)


@dataclass(frozen=True)
class Geodesic:
    """The curve t -> e^{2tz} eps0 determined by a generator."""

    generator: GeodesicGenerator


def exponential_map(eps: Symmetry, v, structure: ComplexStructure) -> Geodesic:
    """Geodesic through eps with initial velocity v (a tangent vector there).

    The generator is z = v eps / 2, so that d/dt|_0 e^{2tz} eps = v.
    """
    eps = _as_symmetry(eps)
    arr = check_tangent(eps, v, structure)
    z = arr @ eps.matrix / 2.0
    z = (z - z.T) / 2.0
    return Geodesic(GeodesicGenerator(z, eps, structure))


def evaluate(geo: Geodesic, t: float) -> Symmetry:
    """The symmetry at parameter t: e^{2tz} eps0, the real form of one node of
    `sample`. It is eps0 plus the realified step
    C_t - C0 = U (e^{2it theta} - 1) U^T, formed directly as one n x n product
    behind the guard `sample` uses, so t = 0 returns eps0 itself.

    While the generator's node certificate holds (`_node_certificate`, for
    the standard J only: the record's defects keep every node's asymmetry and
    involution defect below the `Symmetry` tolerances, for every t) the node
    is returned unchecked and unformed. It keeps the generator and the
    phases d = e^{2it theta}, forms its matrix on the first read, bitwise as
    below, reports 2n and the base's plus_dim (the step has trace 0) without
    it, and carries the chart floor the certificate reads off d in O(n),
    which `is_graph` and `recover_operator` read before their SVD. Finite d
    makes a finite node: a NaN or inf in U makes eta non-finite and the
    certificate fail, the base is a validated symmetry, and
    ||U||^2 <= 1 + eta < 2 keeps the step from overflowing. Otherwise the
    node is formed at once and the `Symmetry` constructor checks it, raising
    as it would on any matrix.
    """
    gen = geo.generator
    t = float(t)
    _require_finite_phases(abs(t), gen.norm)
    d = np.exp(1j * (2.0 * t * gen.theta))
    form = functools.partial(_node_matrix, gen, d)
    certificate = gen._nodes
    if certificate.holds and np.isfinite(d).all():
        return Symmetry._certified(form, (gen.base.ambient_dim, certificate.plus_dim),
                                   float(certificate.chart_floor(d)))
    return Symmetry(form())


def _node_matrix(gen: GeodesicGenerator, d: np.ndarray) -> np.ndarray:
    """eps0 + R(U (d - 1) U^T), the node of gen with phases d (`evaluate`)."""
    return gen.base.matrix + realify_conjugation((gen.u * (d - 1.0)) @ gen.u.T, gen.structure)


def sample(geo: Geodesic, ts) -> np.ndarray:
    """Conjugation matrices C_t of e^{2tz} eps0 over a grid, a complex stack of
    shape (len(ts), n, n) in the standard split.

    The node at t acts as v -> C_t conj(v); `realify_conjugation` gives its
    real symmetry. The generator's record z = iU diag(theta) U^H with
    C0 = U U^T serves the whole grid: U^H C0 = U^T, so each node is a phase
    multiply and one n x n complex matrix product (see `_geodesic_steps`). C0 is
    read off the base's blocks, and t = 0 returns it bit for bit. A grid time
    that is not finite, or whose phases overflow, is refused
    (InvariantViolation, see `_geodesic_steps`); otherwise the stack is not
    checked: every node is a symmetric unitary within the `Symmetry`
    tolerances of its real form wherever the generator's node certificate
    holds (see `evaluate`), which the chart grid relies on.
    """
    gen = geo.generator
    return _complex_block(gen.structure._split(gen.base.matrix)) + _geodesic_steps(gen, ts)


def _geodesic_steps(gen: GeodesicGenerator, ts) -> np.ndarray:
    """C_t - C0 = U (e^{2it theta} - 1) U^T along the geodesic of gen, one
    n x n step per node; a node at t = 0 has a zero step."""
    t = np.asarray(ts, dtype=float).reshape(-1)
    _require_finite_phases(float(np.abs(t).max(initial=0.0)), gen.norm)
    phases = np.exp(1j * (2.0 * t[:, None] * gen.theta)) - 1.0
    return _stack_times(gen.u * phases[:, None, :], gen.u.T)


def _require_finite_phases(reach: float, norm: float) -> None:
    """Refuse, before any node is formed and with the message the `Symmetry`
    check gives a non-finite node, grid times up to reach = max|t| whose
    phases, at most (2 reach) norm, overflow. With norm = ||z|| that bound is
    the largest phase of a geodesic, rounded as the phases are."""
    if not reach < math.inf:
        raise InvariantViolation("sample: grid times must be finite")
    if not 2.0 * reach * norm < math.inf:
        raise InvariantViolation("symmetry: entries must be finite")


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


# ---------------------------------------------------------------------------
# connecting two Lagrangians


def connect(eps0, eps1, structure: ComplexStructure) -> GeodesicGenerator:
    """Generator of a minimal geodesic from eps0 to eps1: e^{2z} eps0 = eps1.

    With the conjugation matrices C0 = W W^T and C1 of the endpoints,
    S = W^H C1 conj(W) is a symmetric unitary O diag(e^{2i theta}) O^T with O
    real orthogonal and theta in (-pi/2, pi/2] the signed principal angles;
    the generator's record is U = W O and theta, as measured (no angle is
    snapped to 0 or pi/2). Identical endpoints short-circuit to z = 0. The
    endpoint residual is verified before returning, in n x n (`_connect`).
    """
    return _connect(eps0, eps1, structure)[0]


def _connect(eps0, eps1, structure: ComplexStructure) -> tuple[GeodesicGenerator, float]:
    """`connect` together with the endpoint residual max|e^{2z} eps0 - eps1| it verified, in
    J's standard split, which each endpoint enters once. 2z has exact blocks there, so it
    takes `expm_antisymmetric`'s n x n route; the endpoint is E C0, E = e^{2iH}, realified."""
    e0, e1 = _as_symmetry(eps0), _as_symmetry(eps1)
    splits = []
    for name, e in (("first", e0), ("second", e1)):
        splits.append(_lagrangian_split(e, structure))
        if splits[-1] is None:
            raise InvariantViolation(f"connect: {name} endpoint is not Lagrangian")
    dim = structure.dim
    gap = max_abs(e0.matrix - e1.matrix)
    if gap <= 1e-13:
        return GeodesicGenerator(np.zeros((dim, dim)), e0, structure), gap

    c0 = _complex_block(splits[0])
    w = _real_form(c0)
    o, phi = _real_eigenbasis(w.conj().T @ _complex_block(splits[1]) @ w.conj())
    u, theta, n = w @ o, phi / 2.0, structure.n
    z = _record_generator(u, theta)
    gen = GeodesicGenerator._from_record(e0, structure, u, theta, z)
    x = expm_antisymmetric(2.0 * z, validate=False)
    resid = max_abs(_realified((x[:n, :n] + 1j * x[n:, :n]) @ c0, n, conjugate=True) - splits[1])
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
    A width beyond the float range is read off the halved times (halving is
    exact), so the length is inf only where it overflows itself.
    """
    if not (math.isfinite(t0) and math.isfinite(t1)):
        raise InvariantViolation("length: t0 and t1 must be finite")
    values = np.repeat(2.0 * np.abs(geo.generator.theta), 2)[None, :]
    t0, t1 = float(t0), float(t1)
    scale = 1.0 if abs(t1 - t0) < math.inf else 0.5
    return abs(scale * t1 - scale * t0) * float(_speed_norms(values, k)[0]) / scale


# five-point one-sided first-derivative stencils (times 12 h) at the first two
# nodes; the last two use them mirrored
_EDGE_STENCILS = np.array([[-25.0, 48.0, -36.0, 16.0, -3.0],
                           [-3.0, -10.0, 18.0, -6.0, 1.0]])


def _node_speeds(stack: np.ndarray, dt: float, ks) -> dict:
    """Per-node Schatten k-speeds ||eps'_t||_k of a finite complex stack, one
    array per k, as `sampled_lengths` (which states the contract) forms them."""
    return _speeds(_differences(stack) / (12.0 * dt), ks)


def _differences(stack: np.ndarray) -> np.ndarray:
    """12 dt C'_t for a stack spaced dt apart, C-contiguous."""
    deriv = np.empty(stack.shape, stack.dtype)
    deriv[2:-2] = stack[:-4] - stack[4:] + 8.0 * (stack[3:-1] - stack[1:-3])
    deriv[:2] = np.tensordot(_EDGE_STENCILS, stack[:5], axes=1)
    deriv[-2:] = -np.tensordot(_EDGE_STENCILS[::-1, ::-1], stack[-5:], axes=1)
    return deriv


def _speeds(deriv: np.ndarray, ks) -> dict:
    """Schatten k-norms of the realified C'_t, per node, from the stack C'_t."""
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
    (InvariantViolation): convert it with `conjugation_matrix`; so is a stack
    with an entry that is not finite. A length that fits in a float is finite,
    for any dt, any scale of C and any scale of C'. The symmetry
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
    stack = np.asarray(samples)
    if stack.dtype.kind != "c":
        raise InvariantViolation(
            "sampled length: need the complex stack of conjugation matrices C_t "
            "(conjugation_matrix of each real symmetry), got a real stack")
    if stack.ndim != 3 or stack.shape[0] < 5 or stack.shape[1] != stack.shape[2]:
        raise InvariantViolation("sampled length: need a stack of at least 5 square matrices")
    if not 0.0 < dt < math.inf:
        raise InvariantViolation("sampled length: dt must be positive and finite")
    # max|entry| over the real and imaginary parts: NaN or inf exactly when an entry is
    top = float(np.abs(np.ascontiguousarray(stack).view(stack.real.dtype)).max(initial=0.0))
    if not top < math.inf:
        raise InvariantViolation("sampled length: samples must be finite")
    dt, scale, unit = float(dt), 1.0, 1.0
    if top > 2.0**1000:     # the differences, up to 128 top, could overflow
        stack, unit = stack * 2.0**-100, 2.0**100
    deriv = _differences(stack)
    parts = deriv.view(deriv.real.dtype)
    peak = max(float(parts.max(initial=0.0)), -float(parts.min(initial=0.0)))
    weights = _simpson_weights(len(stack))
    # off these bounds on dt and max|C'|, C'^H C' may under- or overflow or a length
    # overflow, so 12 dt C' is measured over a power of two near its largest entry
    if all(2.0**-400 < v < 2.0**400 for v in (dt, peak / (12.0 * dt))):
        deriv /= 12.0 * dt
        weights *= dt
    else:
        scale = 2.0 ** max(math.frexp(peak)[1], -1000)
        deriv /= 12.0 * scale
    return {k: float(s @ weights) * scale * unit for k, s in _speeds(deriv, ks).items()}


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


def alternate_generators(gen: GeodesicGenerator, limit: int = 64) -> list[GeodesicGenerator]:
    """All sign-pattern alternates, at most `limit` (>= 1) of the 2^d patterns.

    A pattern's -1 flips z on its pi-rotation plane, theta -> theta - pi
    sign(theta), keeping the endpoint e^{2z} eps0; |theta| becomes pi - |theta|,
    so each Schatten norm of z moves by at most 2 GENERATOR_ATOL. The all-plus
    pattern is gen itself, so with d = 0 the list is [gen].
    The planes are found once and shared by every pattern.
    """
    if not isinstance(limit, (int, np.integer)) or limit < 1:
        raise InvariantViolation(
            f"alternate generators: limit must be an integer >= 1, got {limit!r}")
    planes = _pi_planes(gen)
    alternates = []
    for pattern in itertools.islice(itertools.product((1, -1), repeat=planes.size), limit):
        flip = planes[np.less(pattern, 0)]
        theta = gen.theta.copy()
        theta[flip] -= math.pi * np.sign(theta[flip])
        alternates.append(GeodesicGenerator._from_record(gen.base, gen.structure, gen.u, theta)
                          if flip.size else gen)
    return alternates
