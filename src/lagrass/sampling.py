"""Seeded random generators for subspaces, operators and perturbed curves.

Everything takes an explicit rng (or seed) so tests and the command line stay
reproducible. Random Lagrangians are produced by rotating the vertical
subspace with exponentials of J-commuting antisymmetric matrices, which act as
complex-linear orthogonal maps and therefore preserve the Lagrangian class.
"""

from __future__ import annotations

import math

import numpy as np

from .complex_structure import (
    ComplexStructure,
    _complex_block,
    complexify,
    realify,
    realify_conjugation,
)
from .errors import InvariantViolation
from .geodesics import GeodesicGenerator, _require_finite_phases, _stack_times
from .linalg import _check, expm_antisymmetric, max_abs, require_antisymmetric, schatten_norm
from .subspaces import Symmetry
from .tolerances import GENERATOR_ATOL


def _as_rng(rng) -> np.random.Generator:
    if isinstance(rng, np.random.Generator):
        return rng
    return np.random.default_rng(rng)


def random_symmetric(dim: int, rng=None, scale: float = 1.0) -> np.ndarray:
    """Symmetric matrix with entries of typical size `scale`."""
    g = _as_rng(rng)
    a = g.standard_normal((dim, dim))
    return scale * (a + a.T) / 2.0


def random_antisymmetric(dim: int, rng=None, scale: float = 1.0) -> np.ndarray:
    g = _as_rng(rng)
    a = g.standard_normal((dim, dim))
    return scale * (a - a.T) / 2.0


def random_complex_antisymmetric(structure: ComplexStructure, rng=None,
                                 norm: float = 1.0) -> np.ndarray:
    """J-commuting antisymmetric matrix scaled to the given operator norm.

    These are the realified p + iq with p antisymmetric and q symmetric,
    [[p, -q], [q, p]] in standard coordinates, which commutes with J.
    """
    g = _as_rng(rng)
    n = structure.n
    p = random_antisymmetric(n, g)
    q = random_symmetric(n, g)
    a = realify(p + 1j * q, structure)
    top = schatten_norm(a, math.inf)
    if top == 0.0:
        return a
    return a * (norm / top)


def random_complex_rotation(structure: ComplexStructure, rng=None,
                            spread: float = 1.0) -> np.ndarray:
    """Orthogonal matrix commuting with J (a complex-unitary rotation).

    spread bounds the rotation angle. The magnitude is drawn uniformly;
    pinning it would leave only finitely many rotations when n = 1. It is
    exponentiated in the standard split (`expm_antisymmetric`'s n x n route).
    """
    g = _as_rng(rng)
    std = structure if structure.is_standard() else ComplexStructure.standard(structure.n)
    a = random_complex_antisymmetric(std, g, norm=spread * g.random())
    return realify(_complex_block(expm_antisymmetric(a), std), structure)


def random_lagrangian(structure: ComplexStructure, rng=None,
                      spread: float = 1.0) -> Symmetry:
    """Random Lagrangian as a rotated image of a reference Lagrangian.

    The reference is the Lagrangian whose conjugation matrix is -I: the
    vertical subspace diag(-I, I) in standard coordinates, realified through
    the structure for any J.
    """
    g = random_complex_rotation(structure, rng, spread)
    e = realify_conjugation(-np.eye(structure.n), structure)
    return Symmetry(g @ e @ g.T)


def random_lagrangian_pair(n: int, rng=None,
                           spread: float = 1.0) -> tuple[ComplexStructure, Symmetry, Symmetry]:
    """Standard structure on R^{2n} plus two independent random Lagrangians."""
    g = _as_rng(rng)
    structure = ComplexStructure.standard(n)
    e0 = random_lagrangian(structure, g, spread)
    e1 = random_lagrangian(structure, g, spread)
    return structure, e0, e1


def random_horizontal(structure: ComplexStructure, eps: Symmetry, rng=None,
                      norm: float = 1.0) -> np.ndarray:
    """Random generator direction at eps: antisymmetric, J-commuting,
    eps-anticommuting, scaled to the given operator norm."""
    a = random_complex_antisymmetric(structure, rng)
    e = eps.matrix
    w = (a - e @ a @ e) / 2.0
    w = (w - w.T) / 2.0
    top = schatten_norm(w, math.inf)
    if top == 0.0:
        raise InvariantViolation("random horizontal direction degenerated to zero")
    return w * (norm / top)


def perturbed_curve(gen: GeodesicGenerator, w: np.ndarray, amplitude: float,
                    ts) -> np.ndarray:
    """Competitor curve e^{2t(z + rho(t) w)} eps0 with rho(t) = amplitude sin(pi t).

    Shares both endpoints with the geodesic of gen since rho vanishes at
    t = 0, 1. Returns the complex stack of conjugation matrices C_t, shape
    (len(ts), n, n) in the standard split, as `sample` does; C0 is read off
    the base's blocks and returned bit for bit wherever the exponent vanishes.

    w must be horizontal at the base: antisymmetric, commuting with J and
    anticommuting with eps0 within the slack z gets, GENERATOR_ATOL
    max(max|w|, 1). amplitude and ts must be finite (InvariantViolation
    otherwise), and a grid is refused as in `sample` where a bound on the
    exponents, 2 max|t| (pi + |amplitude| 2n max|w|), overflows. With
    w = iH_w and C0 = U U^T for the record U, w eps0 = -eps0 w reads
    H_w C0 = C0 conj(H_w), so U^H H_w U is its own conjugate: real symmetric.
    Its real part K drops exactly the part of w that commutes with eps0,
    which the slack bounds. One stacked real eigh of 2t(diag(theta) + rho K)
    = O diag(mu) O^T gives every node, C_t = C0 + U O (e^{i mu} - 1) O^T U^T.
    """
    structure = gen.structure
    w = require_antisymmetric(w, "perturbation")
    h_w = -1j * complexify(w, structure)
    t = np.asarray(ts, dtype=float).reshape(-1)
    if not (math.isfinite(amplitude) and np.isfinite(t).all()):
        raise InvariantViolation("perturbed curve: amplitude and grid times must be finite")
    # ||H_z|| <= pi/2 and ||H_w|| = ||w|| <= 2n max|w|; the pi also keeps pi t finite
    _require_finite_phases(float(np.abs(t).max(initial=0.0)),
                           math.pi + abs(amplitude) * max_abs(w) * w.shape[0])
    # w / max|w| from here on, max|w| folded into rho: nothing below overflows;
    # h_w is divided as real pairs, as a complex division forms 1 / max|w|
    scale = max_abs(w) or 1.0
    _check(w / scale, "perturbation", [(("anticommutes", gen.base.matrix), GENERATOR_ATOL,
                                        1.0 / scale, "does not anticommute with the base")])
    k = (gen.u.conj().T @ (h_w.view(float) / scale).view(complex) @ gen.u).real
    rho = amplitude * scale * np.sin(math.pi * t)[:, None, None]
    a = 2.0 * t[:, None, None] * (np.diag(gen.theta) + rho * ((k + k.T) / 2.0))
    mu, o = np.linalg.eigh(a)
    # D = O (e^{i mu} - 1) O^T filled in place; (D U^T)^T = U D as D = D^T
    e, ot = np.exp(1j * mu) - 1.0, np.swapaxes(o, -1, -2)
    d = np.empty(o.shape, dtype=complex)
    np.matmul(o * e.real[..., None, :], ot, out=d.real)
    np.matmul(o * e.imag[..., None, :], ot, out=d.imag)
    d[...] = np.swapaxes(_stack_times(d, gen.u.T), -1, -2)
    steps = _stack_times(d, gen.u.T)
    steps += _complex_block(gen.base.matrix, structure)
    return steps
