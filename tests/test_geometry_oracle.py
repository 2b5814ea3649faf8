"""The paper's geometry as a test oracle: facts that need no reference
implementation.

Orthogonal equivariance: any complex structure is the standard one in other
orthogonal coordinates, and nothing the paper defines depends on them. For an
orthogonal q the triple (q J q^T, q eps0 q^T, q eps1 q^T) has the distance,
the principal angles, the five-way dimensions and the multiplicity class of
(J, eps0, eps1), and its minimal geodesic's generator is q z q^T. Pairs are
random or planted, with clusters of principal angles at 0, at pi/2 and at
pi/2 - delta, under the standard J and under rotated ones.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from lagrass.complex_structure import ComplexStructure, standard_form
from lagrass.geodesics import classify_multiplicity, connect, distance
from lagrass.sampling import random_lagrangian
from lagrass.subspaces import Symmetry, five_way_decompose
from lagrass.tolerances import ANGLE_TOL, GENERATOR_ATOL

from test_subspaces import planted_angle_pair

# Over 3,000 seeded draws of `oracle_case` (n <= 24, both kinds of pair, both
# kinds of J) the largest disagreements were 1.5e-13 for the distance, 2.4e-13
# for the sorted |theta| and 1.0e-13 for max|z' - q z q^T| (on the pairs with
# no angle at pi/2), before and after the split read a rotated J once. The
# bounds keep a margin of at least 10x over those.
DISTANCE_AGREE = 2e-12
ANGLES_AGREE = 3e-12
GENERATOR_AGREE = 1e-12
# a bucket or pi-plane count is compared only where every angle keeps this
# margin to the bucket's edge
EDGE_MARGIN = 1e-12


def random_orthogonal(dim, rng):
    q, r = np.linalg.qr(rng.standard_normal((dim, dim)))
    return q * np.sign(np.diag(r))


def planted_angles(n, rng):
    """n principal angles, each at 0, at pi/2, at pi/2 - delta, at delta
    (delta log-uniform in [1e-12, 1e-1]) or uniform in (0, pi/2)."""
    delta = 10.0 ** rng.uniform(-12, -1, n)
    choices = np.stack([np.zeros(n), np.full(n, math.pi / 2), math.pi / 2 - delta, delta,
                        rng.uniform(0.0, math.pi / 2, n)])
    return choices[rng.integers(0, 5, n), np.arange(n)]


def oracle_case(n, seed, planted, rotated):
    """(structure, eps0, eps1, angles): a pair on the standard J or on a
    rotated one, with its planted principal angles (None for a random pair)."""
    rng = np.random.default_rng(seed)
    std = ComplexStructure.standard(n)
    angles = planted_angles(n, rng) if planted else None
    if planted:
        e0, e1 = (e.matrix for e in planted_angle_pair(angles, rng))
    else:
        e0, e1 = (random_lagrangian(std, rng).matrix for _ in range(2))
    if not rotated:
        return std, Symmetry(e0), Symmetry(e1), angles
    g = random_orthogonal(2 * n, rng)
    return (ComplexStructure(g @ standard_form(n) @ g.T),
            Symmetry(g @ e0 @ g.T), Symmetry(g @ e1 @ g.T), angles)


def moved(structure, e0, e1, q):
    """The triple conjugated by the orthogonal q."""
    return (ComplexStructure(q @ structure.matrix @ q.T),
            Symmetry(q @ e0.matrix @ q.T), Symmetry(q @ e1.matrix @ q.T))


def clear_of(angles, edges):
    return all(abs(a - edge) > EDGE_MARGIN for a in angles for edge in edges)


def disagreements(structure, e0, e1, angles, q):
    """The oracle's comparisons of (J, eps0, eps1) with its image under q:
    distances, sorted |theta|, generators (None where an angle at pi/2 leaves
    the minimal geodesic to rounding), and the equal-or-not of the five-way
    dimensions and of the multiplicity class (None off the edge margins)."""
    image = moved(structure, e0, e1, q)
    gens = [connect(*image[1:], image[0]), connect(e0, e1, structure)]
    dists = [distance(*image[1:], image[0]), distance(e0, e1, structure)]
    thetas = [np.sort(np.abs(g.theta)) for g in gens]
    measured = thetas[1] if angles is None else np.asarray(angles)
    out = {
        "distance": abs(dists[0] - dists[1]),
        "angles": float(np.max(np.abs(thetas[0] - thetas[1]), initial=0.0)),
        "generator": None,
        "dims": None,
        "class": None,
    }
    if np.all(measured < math.pi / 2 - 1e-9):
        out["generator"] = float(np.max(np.abs(gens[0].z - q @ gens[1].z @ q.T), initial=0.0))
    if clear_of(measured, (ANGLE_TOL, math.pi / 2 - ANGLE_TOL)):
        out["dims"] = (five_way_decompose(*image[1:]).dims()
                       == five_way_decompose(e0, e1).dims())
    if clear_of(measured, (math.pi / 2 - GENERATOR_ATOL,)):
        reports = [classify_multiplicity(g) for g in gens]
        out["class"] = (reports[0].classification, reports[0].minus_one_dim_complex) == (
            reports[1].classification, reports[1].minus_one_dim_complex)
    return out


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 24), seed=st.integers(0, 2**32 - 1), planted=st.booleans(),
       rotated=st.booleans())
def test_results_are_equivariant_under_orthogonal_changes_of_coordinates(n, seed, planted,
                                                                          rotated):
    structure, e0, e1, angles = oracle_case(n, seed, planted, rotated)
    q = random_orthogonal(2 * n, np.random.default_rng([seed, n]))
    got = disagreements(structure, e0, e1, angles, q)
    assert got["distance"] <= DISTANCE_AGREE
    assert got["angles"] <= ANGLES_AGREE
    assert got["generator"] is None or got["generator"] <= GENERATOR_AGREE
    assert got["dims"] in (None, True)
    assert got["class"] in (None, True)
