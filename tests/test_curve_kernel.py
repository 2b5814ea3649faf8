"""The complexified curve kernel against the real-arithmetic reference.

`sample`, `evaluate` and `perturbed_curve` compute e^{2t(...)} eps0 from an
n x n Hermitian eigendecomposition. The reference here is the real 2n x 2n
stack `expm_antisymmetric(...) @ eps0`, which the samplers no longer use.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lagrass.complex_structure import ComplexStructure, standard_form
from lagrass.errors import InvariantViolation
from lagrass.geodesics import (
    Geodesic,
    GeodesicGenerator,
    connect,
    evaluate,
    exponential_map,
    sample,
)
from lagrass.graphs import graph_symmetry
from lagrass.linalg import expm_antisymmetric, max_abs
from lagrass.sampling import (
    perturbed_curve,
    random_complex_antisymmetric,
    random_horizontal,
    random_lagrangian,
)
from lagrass.subspaces import Symmetry

SEED = 31337
TOL = 1e-12
TS = np.linspace(0.0, 1.0, 41)


def rotated_structure(n, rng):
    q, _ = np.linalg.qr(rng.standard_normal((2 * n, 2 * n)))
    return ComplexStructure(q @ standard_form(n) @ q.T), q


def reference_curve(z, base, ts):
    t = np.asarray(ts, dtype=float)
    return expm_antisymmetric(2.0 * t[:, None, None] * z, validate=False) @ base


def reference_competitor(z, w, amplitude, base, ts):
    t = np.asarray(ts, dtype=float)
    rho = amplitude * np.sin(math.pi * t)
    gens = 2.0 * t[:, None, None] * (z + rho[:, None, None] * w)
    return expm_antisymmetric(gens, validate=False) @ base


def assert_matches_reference(gen, w, rng):
    geo = Geodesic(gen)
    base = gen.base.matrix
    want = reference_curve(gen.z, base, TS)
    got = sample(geo, TS)
    assert max_abs(got - want) <= TOL
    for i in (0, 7, len(TS) - 1):
        assert max_abs(evaluate(geo, TS[i]).matrix - want[i]) <= TOL
    amplitude = 0.2 + 0.4 * rng.random()
    competitor = perturbed_curve(gen, w, amplitude, TS)
    assert max_abs(competitor - reference_competitor(gen.z, w, amplitude, base, TS)) <= TOL


@pytest.mark.parametrize("rotated", [False, True], ids=["standard-J", "rotated-J"])
@pytest.mark.parametrize("n", [1, 2, 5, 16])
def test_random_pairs_match_reference(n, rotated):
    rng = np.random.default_rng([SEED, n, rotated])
    if rotated:
        structure, _ = rotated_structure(n, rng)
    else:
        structure = ComplexStructure.standard(n)
    e0 = random_lagrangian(structure, rng)
    e1 = random_lagrangian(structure, rng)
    gen = connect(e0, e1, structure)
    assert_matches_reference(gen, random_horizontal(structure, e0, rng), rng)


@pytest.mark.parametrize("rotated", [False, True], ids=["standard-J", "rotated-J"])
@pytest.mark.parametrize("n", [1, 2, 5, 16])
def test_zero_generator_is_the_constant_curve(n, rotated):
    rng = np.random.default_rng([SEED + 1, n, rotated])
    if rotated:
        structure, _ = rotated_structure(n, rng)
    else:
        structure = ComplexStructure.standard(n)
    e0 = random_lagrangian(structure, rng)
    gen = connect(e0, e0, structure)
    assert max_abs(gen.z) == 0.0
    constant = np.broadcast_to(e0.matrix, (TS.size,) + e0.matrix.shape)
    assert np.array_equal(sample(Geodesic(gen), TS), constant)
    assert_matches_reference(gen, random_horizontal(structure, e0, rng), rng)


@pytest.mark.parametrize("rotated", [False, True], ids=["standard-J", "rotated-J"])
@pytest.mark.parametrize("n", [1, 2, 5, 16])
def test_cut_locus_generator_matches_reference(n, rotated):
    # graph(I) and graph(-I) are antipodal: every principal angle is pi/2
    rng = np.random.default_rng([SEED + 2, n, rotated])
    e0 = graph_symmetry(np.eye(n)).matrix
    e1 = graph_symmetry(-np.eye(n)).matrix
    structure = ComplexStructure.standard(n)
    if rotated:
        structure, q = rotated_structure(n, rng)
        e0, e1 = q @ e0 @ q.T, q @ e1 @ q.T
    gen = connect(Symmetry(e0), Symmetry(e1), structure)
    assert abs(gen.norm - math.pi / 2.0) <= 1e-12
    assert max_abs(sample(Geodesic(gen), [1.0])[0] - e1) <= TOL
    assert_matches_reference(gen, random_horizontal(structure, gen.base, rng), rng)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 6),
       norm=st.floats(0.0, math.pi / 2.0), w_norm=st.floats(0.0, 2.0))
def test_random_generators_on_rotated_structures_match_reference(seed, n, norm, w_norm):
    rng = np.random.default_rng(seed)
    structure, _ = rotated_structure(n, rng)
    e0 = random_lagrangian(structure, rng)
    z = np.zeros((2 * n, 2 * n))
    if norm > 0.0:
        z = random_horizontal(structure, e0, rng, norm=norm)
    # w only has to commute with J; it need not anticommute with the base
    w = random_complex_antisymmetric(structure, rng, norm=w_norm)
    assert_matches_reference(GeodesicGenerator(z, e0, structure), w, rng)


def test_perturbed_curve_refuses_directions_that_do_not_commute_with_j():
    rng = np.random.default_rng(SEED + 3)
    structure = ComplexStructure.standard(2)
    e0 = random_lagrangian(structure, rng)
    e1 = random_lagrangian(structure, rng)
    gen = connect(e0, e1, structure)
    j = structure.matrix
    a = rng.standard_normal((4, 4))
    a = (a - a.T) / 2.0
    off = (a - j @ a @ j.T) / 2.0          # antisymmetric, anticommutes with J
    assert max_abs(off + off.T) == 0.0 and max_abs(off @ j - j @ off) > 0.1
    horizontal = random_horizontal(structure, e0, rng)
    for bad in (off, horizontal + 0.1 * off, np.eye(4), np.zeros((3, 3))):
        with pytest.raises(InvariantViolation):
            perturbed_curve(gen, bad, 0.4, TS)


def test_curves_refuse_a_base_that_is_not_lagrangian():
    structure = ComplexStructure.standard(1)
    not_lagrangian = Symmetry(np.diag([1.0, 1.0]))
    with pytest.raises(InvariantViolation, match="base"):
        GeodesicGenerator(np.zeros((2, 2)), not_lagrangian, structure)
    with pytest.raises(InvariantViolation, match="base"):
        exponential_map(not_lagrangian, np.zeros((2, 2)), structure)
