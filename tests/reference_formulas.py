"""Independent reference formulas the tests check the library against."""

import math

import numpy as np

from lagrass.complex_structure import (
    _CLUSTER_GAP,
    _GAMMA,
    ComplexStructure,
    _real_eigenbasis,
    standard_form,
)
from lagrass.errors import ComputationError, InvariantViolation
from lagrass.geodesics import connect
from lagrass.graphs import _graph_conjugation, _identity_graph
from lagrass.linalg import (
    _principal_angles,
    apply_function,
    expm_antisymmetric,
    max_abs,
    require_square,
    schatten_norm,
    spectral_decompose,
)
from lagrass.sampling import random_antisymmetric, random_symmetric
from lagrass.subspaces import (
    Projection,
    Symmetry,
    _as_symmetry,
    _eigenbases,
    projection_from_symmetry,
    subspace_from_symmetry,
    vertical_symmetry,
)
from lagrass.tolerances import ANGLE_TOL, RECON_RTOL


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


def five_way_by_svd_null_space(eps0: Symmetry, eps1: Symmetry,
                               angle_tol: float = ANGLE_TOL) -> dict:
    """The five blocks from two factorizations in the coordinates of S0's
    complement, the -1 eigenvectors m0 of eps0: with y = m0^T [swapped S1
    columns | S1 partners], the generic partners from a reduced QR of y, and
    both_minus from m0 times the SVD null space of y^T, at the rank cutoff
    sigma_max eps max(shape).

    `five_way_decompose` takes both from one complete QR of y; with no angle
    at 0 and no swapped direction of unequal subspaces the two agree bitwise.
    """
    q0, m0 = _eigenbases(eps0)
    pa = _principal_angles(q0, _eigenbases(eps1)[0])
    zero = pa.angles <= angle_tol
    right = pa.angles >= math.pi / 2.0 - angle_tol
    generic = ~(zero | right)
    blocks = [pa.left[:, zero], np.hstack([pa.left[:, right], pa.left_unpaired]),
              np.hstack([pa.right[:, right], pa.right_unpaired]), pa.left[:, generic]]
    y = m0.T @ np.hstack([blocks[2], pa.right[:, generic]])
    g = blocks[3].shape[1]
    if g:
        q, r = np.linalg.qr(y)
        blocks[3] = np.hstack([blocks[3], m0 @ (q[:, -g:] * np.copysign(1.0, np.diagonal(r)[-g:]))])
    if y.shape[1] == 0:
        null = np.eye(y.shape[0])
    elif y.shape[1] >= y.shape[0]:
        null = np.zeros((y.shape[0], 0))
    else:
        _, s, vt = np.linalg.svd(y.T, full_matrices=True)
        rank = int(np.sum(s > s[0] * (np.finfo(float).eps * max(y.shape))))
        null = vt[rank:].T
    return dict(zip(("both_plus", "plus_minus", "minus_plus", "generic", "both_minus"),
                    blocks + [m0 @ null]))


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


def graph_chart_residuals_by_two_eigenbases(b, c) -> tuple[float, float]:
    """The two chart residuals of CLI graph-recover from one real eigenbasis
    of each of -C and -iC: e^{2iH} = s = O diag(e^{i phi}) O^T gives the
    chart block x = -H with H = O diag(phi / 2) O^T. CLI graph-recover reads
    both blocks off one eigenbasis of C, shifting its phases instead.
    """
    def trig(s):
        o, phi = _real_eigenbasis(s)
        return (o * np.cos(phi / 2.0)) @ o.T, -(o * np.sin(phi / 2.0)) @ o.T

    (cos_x, sin_x), (cos_y, sin_y) = trig(-c), trig(-1j * c)
    return (max_abs(b @ sin_x - cos_x),
            max_abs(b @ (cos_y + sin_y) - (cos_y - sin_y)))


def projection_gap_by_projections(eps0, eps1) -> float:
    """sin(d / 2) by its definition: the operator norm of the difference of
    the two validated 2n x 2n projections, by a 2n x 2n SVD. CLI distance
    reads it as |C0 - C1| / 2 off the n x n conjugation matrices.
    """
    p0 = projection_from_symmetry(_as_symmetry(eps0)).matrix
    p1 = projection_from_symmetry(_as_symmetry(eps1)).matrix
    return schatten_norm(p0 - p1, math.inf)


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


def chart_margin_by_svd(c) -> np.ndarray:
    """The chart margin of each conjugation matrix C_t by a stacked SVD: the
    smallest singular value of the top n rows ([Re C_t, Im C_t] + [I 0]) / 2
    of its projection (I + eps_t) / 2, the number `is_graph` compares with
    its cutoff on the node's real form.
    """
    c = np.asarray(c)
    n = c.shape[-1]
    top = (np.concatenate([c.real, c.imag], axis=-1) + np.eye(n, 2 * n)) / 2.0
    return np.linalg.svd(top, compute_uv=False).min(axis=-1, initial=math.inf)


def chart_mask_by_svd(c, rank_rtol: float) -> np.ndarray:
    """The chart mask by a stacked SVD of every node: `chart_margin_by_svd`
    exceeds rank_rtol. `_chart_grid` certifies most nodes inside by the node
    certificate's chart floor and runs this SVD only on the rest.
    """
    return chart_margin_by_svd(c) > rank_rtol


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


def standardizing_basis_by_pairing(j) -> np.ndarray:
    """Orthogonal R with R^T J R = standard_form(n), built by greedy J-pairing.

    Picks unit vectors u_i orthogonal to everything collected so far and pairs
    each with J u_i; the pair spans a J-invariant plane. Each step takes the
    coordinate vector with the largest residual (n >= 1). `ComplexStructure`
    reads its basis off one eigh of iJ instead; results that do not depend on
    the basis must agree between the two.
    """
    j = np.asarray(j, dtype=float)
    dim = j.shape[0]
    n = dim // 2
    us: list[np.ndarray] = []
    vs: list[np.ndarray] = []
    for _ in range(n):
        collected = np.column_stack(us + vs) if us else np.zeros((dim, 0))
        cand = np.eye(dim) - collected @ collected.T
        norms = np.linalg.norm(cand, axis=0)
        pick = int(np.argmax(norms))
        u = cand[:, pick] / norms[pick]
        us.append(u)
        vs.append(j @ u)
    r = np.column_stack(us + vs)
    assert max_abs(r.T @ j @ r - standard_form(n)) <= 1e-10 * dim
    return r


def random_complex_antisymmetric_by_blocks(structure: ComplexStructure, rng,
                                           norm: float = 1.0) -> np.ndarray:
    """[[p, -q], [q, p]] (p antisymmetric, q symmetric, drawn in that order)
    conjugated through `to_standard` and scaled to the operator norm `norm`."""
    n = structure.n
    p = random_antisymmetric(n, rng)
    q = random_symmetric(n, rng)
    r = structure.to_standard
    a = r @ np.block([[p, -q], [q, p]]) @ r.T
    top = schatten_norm(a, math.inf)
    return a if top == 0.0 else a * (norm / top)


def random_complex_rotation_by_blocks(structure: ComplexStructure, rng,
                                      spread: float = 1.0) -> np.ndarray:
    """expm of `random_complex_antisymmetric_by_blocks` at the norm
    spread * rng.random(), the uniform draw taken first."""
    return expm_antisymmetric(
        random_complex_antisymmetric_by_blocks(structure, rng, norm=spread * rng.random()))


def random_lagrangian_by_blocks(structure: ComplexStructure, rng,
                                spread: float = 1.0) -> Symmetry:
    """A random rotation g applied to the vertical symmetry diag(-I, I)
    conjugated through `to_standard`: g r diag(-I, I) r^T g^T."""
    g = random_complex_rotation_by_blocks(structure, rng, spread)
    r = structure.to_standard
    e = r @ vertical_symmetry(structure.n).matrix @ r.T
    return Symmetry(g @ e @ g.T)


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


def realify_by_blocks(m, structure: ComplexStructure) -> np.ndarray:
    """The real 2n x 2n operator of the complex n x n matrix m assembled by
    np.block, [[Re m, -Im m], [Im m, Re m]] conjugated through `to_standard`.
    `realify` fills the same blocks by slice assignment."""
    m = np.asarray(m, dtype=complex)
    std = np.block([[m.real, -m.imag], [m.imag, m.real]])
    if structure.is_standard():
        return std
    r = structure.to_standard
    return r @ std @ r.T


def graph_eps_by_blocks(a) -> np.ndarray:
    """The graph symmetry [[Re C, Im C], [Im C, 0 - Re C]] of a assembled by
    np.block; `graphs._graph_eps` fills the same blocks by slice assignment."""
    c = _graph_conjugation(a)[0]
    return np.block([[c.real, c.imag], [c.imag, 0.0 - c.real]])


def real_eigenbasis_by_split(c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """`_real_eigenbasis` with its cluster loop over np.split of every
    eigenvalue index, singletons included; the library visits only the
    clusters. The two return the same (O, phi) bitwise."""
    n = c.shape[0]
    c = (c + c.T) / 2.0
    c = c @ (3.0 * np.eye(n) - c.conj().T @ c) / 2.0
    c = (c + c.T) / 2.0
    a, b = c.real, c.imag
    lam, o = np.linalg.eigh(a + _GAMMA * b)
    toward = complex(1.0, -_GAMMA) / math.hypot(1.0, _GAMMA)
    for block in np.split(np.arange(n), np.flatnonzero(np.diff(lam) >= _CLUSTER_GAP) + 1):
        if block.size > 1:
            q = o[:, block]
            d = math.copysign(1.0, lam[block].mean()) * toward * (q.T @ c @ q)
            eye = np.eye(block.size)
            t = (1j * np.linalg.solve(eye + d, eye - d)).real
            o[:, block] = q @ np.linalg.eigh((t + t.T) / 2.0)[1]
    phi = np.arctan2(np.einsum("ij,ij->j", o, b @ o), np.einsum("ij,ij->j", o, a @ o))
    phi[phi == -math.pi] = math.pi
    resid = max(max_abs((o * np.cos(phi)) @ o.T - a), max_abs((o * np.sin(phi)) @ o.T - b))
    if resid > RECON_RTOL * max(n, 1):
        raise ComputationError(f"reassembly residual {resid:.3e}")
    return o, phi
