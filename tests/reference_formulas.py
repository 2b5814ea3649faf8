"""Independent reference formulas the tests check the library against."""

import math

import numpy as np

from lagrass.complex_structure import ComplexStructure
from lagrass.errors import InvariantViolation
from lagrass.geodesics import connect
from lagrass.graphs import _identity_graph
from lagrass.linalg import apply_function, max_abs, require_square, spectral_decompose
from lagrass.subspaces import (
    Projection,
    Symmetry,
    _as_symmetry,
    subspace_from_symmetry,
    vertical_symmetry,
)


def tangent_project_offdiagonal(p: Projection, a) -> np.ndarray:
    """The tangent projection written in projection coordinates:
    a -> p a (I - p) + (I - p) a p.

    Algebraically identical to `tangent_project`, the symmetry form
    a -> (a - eps a eps) / 2 at eps = 2p - I; the tests compare the two.
    """
    arr = require_square(a, "operator")
    if arr.shape[0] != p.ambient_dim:
        raise InvariantViolation("tangent projection: dimension mismatch")
    q = p.matrix
    comp = np.eye(q.shape[0]) - q
    return q @ arr @ comp + comp @ arr @ q


def graph_chart_residuals(b, eps: Symmetry) -> tuple[float, float]:
    """The two chart residuals of CLI graph-recover, by the geodesic route.

    x and y are the off-diagonal blocks of the minimal-geodesic generators
    from the vertical and from the identity graph to eps, and the residuals
    are max|b sin x - cos x| and max|b (cos y + sin y) - (cos y - sin y)|,
    with sin and cos applied eigenvalue by eigenvalue.
    """
    n = eps.ambient_dim // 2
    structure = ComplexStructure.standard(n)
    blocks = []
    for base in (vertical_symmetry(n), Symmetry(_identity_graph(n))):
        z = connect(base, eps, structure).z[:n, n:]
        dec = spectral_decompose((z + z.T) / 2.0)
        blocks.append((apply_function(dec, math.cos), apply_function(dec, math.sin)))
    (cos_x, sin_x), (cos_y, sin_y) = blocks
    return (max_abs(b @ sin_x - cos_x),
            max_abs(b @ (cos_y + sin_y) - (cos_y - sin_y)))


def graph_margin_by_basis(s) -> float:
    """The graph test's margin on an orthonormal basis: the smallest singular
    value of the top n rows of a basis of the +1 eigenspace of eps, or 0 when
    that eigenspace is not n-dimensional. `is_graph` compares the same
    quantity, read off the projection's top rows, with its cutoff.
    """
    eps = _as_symmetry(s)
    n = eps.ambient_dim // 2
    if eps.plus_dim != n:
        return 0.0
    basis = subspace_from_symmetry(eps).basis
    return float(np.linalg.svd(basis[:n], compute_uv=False)[-1])


def cayley_phases_by_eigvals(c) -> tuple[np.ndarray, float, float]:
    """Spectral-curve numbers by a general eigensolver: the eigenphases in
    (-pi, pi] of each Cayley image u_t = -C_t, sorted per node, the smallest
    circular distance of a phase to pi, and the determinant phase accumulated
    along the stack. `cayley_curve` reads the same three off Rayleigh
    quotients in the closed form's real eigenbasis.
    """
    values = np.linalg.eigvals(-np.asarray(c))
    phases = np.angle(values)
    phases = np.sort(np.where(phases > -math.pi, phases, phases + 2.0 * math.pi), axis=-1)
    min_gap = float(np.min(math.pi - np.abs(phases)))
    dets = np.prod(values, axis=-1)
    return phases, min_gap, float(np.sum(np.angle(dets[1:] / dets[:-1])))
