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
from .geodesics import GeodesicGenerator, _curve_steps, _stack_times
from .linalg import expm_antisymmetric, require_antisymmetric, schatten_norm
from .subspaces import Symmetry


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
    pinning it would leave only finitely many rotations when n = 1.
    """
    g = _as_rng(rng)
    a = random_complex_antisymmetric(structure, g, norm=spread * g.random())
    return expm_antisymmetric(a)


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

    w must be an antisymmetric 2n x 2n matrix commuting with J, so every
    node stays Lagrangian, and amplitude and ts finite (InvariantViolation
    otherwise). With
    w = iH_w and z = iH_z, H_z = U diag(theta) U^H read off the generator's
    record, one stacked n x n Hermitian eigh of 2t(H_z + rho(t) H_w) gives
    all nodes through the complexified kernel that `sample` uses.
    """
    structure = gen.structure
    h_w = -1j * complexify(require_antisymmetric(w, "perturbation"), structure)
    h_z = (gen.u * gen.theta) @ gen.u.conj().T
    t = np.asarray(ts, dtype=float).reshape(-1)
    if not (math.isfinite(amplitude) and np.isfinite(t).all()):
        raise InvariantViolation("perturbed curve: amplitude and grid times must be finite")
    rho = amplitude * np.sin(math.pi * t)
    mu, u = np.linalg.eigh(2.0 * t[:, None, None] * (h_z + rho[:, None, None] * h_w))
    c0 = _complex_block(gen.base.matrix, structure)
    right = _stack_times(np.swapaxes(u.conj(), -1, -2), c0)
    return c0 + _curve_steps(mu, u, right)
