"""Tests for geodesic construction, lengths, multiplicity, and alternates."""

import math

import numpy as np
import pytest

from lagrass.complex_structure import ComplexStructure
from lagrass.errors import InvariantViolation
from lagrass.geodesics import (
    Geodesic,
    GeodesicGenerator,
    Multiplicity,
    alternate_generator,
    alternate_generators,
    classify_multiplicity,
    connect,
    distance,
    evaluate,
    exponential_map,
    length,
    sample,
    sampled_length,
    sampled_lengths,
)
from lagrass.graphs import graph_symmetry
from lagrass.linalg import (
    expm_antisymmetric,
    logm_special_orthogonal,
    max_abs,
    schatten_norm,
)
from lagrass.sampling import (
    perturbed_curve,
    random_horizontal,
    random_lagrangian_pair,
)
from lagrass.subspaces import (
    Subspace,
    Symmetry,
    projection_from_symmetry,
    subspace_from_symmetry,
    vertical_symmetry,
)

SEED = 77001
N_RANDOM_PAIRS = 25


def line(theta):
    c2, s2 = math.cos(2 * theta), math.sin(2 * theta)
    return Symmetry(np.array([[c2, s2], [s2, -c2]]))


def j2():
    return np.array([[0.0, -1.0], [1.0, 0.0]])


# ---------------------------------------------------------------------------
# closed-form anchor in R^2


@pytest.mark.parametrize("theta", [0.1, 0.7, 1.2])
def test_r2_lines_generator_is_theta_j(theta):
    s = ComplexStructure.standard(1)
    gen = connect(line(0.0), line(theta), s)
    assert max_abs(gen.z - theta * j2()) < 1e-12
    assert abs(distance(line(0.0), line(theta), s) - 2 * theta) < 1e-12


def test_r2_lines_evaluate_interpolates():
    s = ComplexStructure.standard(1)
    theta = 0.9
    geo = Geodesic(connect(line(0.0), line(theta), s))
    for t in (0.0, 0.25, 0.5, 1.0):
        want = line(t * theta).matrix
        assert max_abs(evaluate(geo, t).matrix - want) < 1e-12


def test_r2_perpendicular_lines():
    s = ComplexStructure.standard(1)
    gen = connect(line(0.0), line(math.pi / 2), s)
    assert abs(gen.norm - math.pi / 2) < 1e-12
    assert max_abs(np.abs(gen.z) - (math.pi / 2) * np.abs(j2())) < 1e-12
    rep = classify_multiplicity(gen)
    assert rep.classification is Multiplicity.EXACTLY_TWO


# ---------------------------------------------------------------------------
# random pairs


def test_connect_random_pairs_full_contract():
    rng = np.random.default_rng(SEED)
    for _ in range(N_RANDOM_PAIRS):
        n = int(rng.integers(1, 5))
        structure, e0, e1 = random_lagrangian_pair(n, rng)
        gen = connect(e0, e1, structure)
        z = gen.z
        dim = 2 * n
        endpoint = expm_antisymmetric(2 * z, validate=False) @ e0.matrix
        assert max_abs(endpoint - e1.matrix) < 1e-9 * dim
        assert gen.norm <= math.pi / 2 + 1e-10
        j = structure.matrix
        assert max_abs(z @ j - j @ z) < 1e-10
        assert max_abs(z @ e0.matrix + e0.matrix @ z) < 1e-10
        assert max_abs(z + z.T) < 1e-12


def test_connect_routes_agree_in_uniqueness_regime():
    rng = np.random.default_rng(SEED + 1)
    done = 0
    while done < 15:
        n = int(rng.integers(1, 5))
        structure, e0, e1 = random_lagrangian_pair(n, rng)
        p0 = projection_from_symmetry(e0).matrix
        p1 = projection_from_symmetry(e1).matrix
        if schatten_norm(p0 - p1, math.inf) >= 1.0 - 1e-6:
            continue
        # below the cut locus e1 e0 has no eigenvalue -1, so half its
        # principal log is the unique minimal generator
        z_ref = logm_special_orthogonal(e1.matrix @ e0.matrix)
        assert max_abs(connect(e0, e1, structure).z - z_ref) < 1e-8
        done += 1


def test_connect_identical_endpoints():
    s = ComplexStructure.standard(2)
    e0 = vertical_symmetry(2)
    gen = connect(e0, e0, s)
    assert max_abs(gen.z) == 0.0


def test_connect_accepts_all_encodings():
    s = ComplexStructure.standard(1)
    e1 = line(0.4)
    gen = connect(subspace_from_symmetry(line(0.0)),
                  projection_from_symmetry(e1), s)
    assert abs(gen.norm - 0.4) < 1e-12


def test_connect_rejects_non_lagrangian():
    s = ComplexStructure.standard(2)
    not_lagrangian = Symmetry(np.diag([1.0, 1.0, 1.0, -1.0]))
    with pytest.raises(InvariantViolation):
        connect(not_lagrangian, vertical_symmetry(2), s)
    with pytest.raises(InvariantViolation):
        connect(vertical_symmetry(2), not_lagrangian, s)


def test_sin_norm_equals_projection_gap():
    rng = np.random.default_rng(SEED + 2)
    for _ in range(15):
        n = int(rng.integers(1, 5))
        structure, e0, e1 = random_lagrangian_pair(n, rng)
        gen = connect(e0, e1, structure)
        p0 = projection_from_symmetry(e0).matrix
        p1 = projection_from_symmetry(e1).matrix
        gap = schatten_norm(p0 - p1, math.inf)
        assert abs(math.sin(gen.norm) - gap) < 1e-8


# ---------------------------------------------------------------------------
# exponential map and evaluation


def test_exponential_map_initial_conditions():
    rng = np.random.default_rng(SEED + 3)
    structure, e0, _ = random_lagrangian_pair(2, rng)
    w = random_horizontal(structure, e0, rng)
    v = 2.0 * w @ e0.matrix       # tangent vector with generator w
    geo = exponential_map(e0, v, structure)
    assert max_abs(geo.generator.z - w) < 1e-12
    assert max_abs(evaluate(geo, 0.0).matrix - e0.matrix) == 0.0
    h = 1e-6
    fd = (evaluate(geo, h).matrix - evaluate(geo, -h).matrix) / (2 * h)
    assert max_abs(fd - v) < 1e-7


def test_exponential_map_rejects_non_tangent():
    s = ComplexStructure.standard(1)
    e0 = vertical_symmetry(1)
    with pytest.raises(InvariantViolation):
        exponential_map(e0, np.diag([1.0, 1.0]), s)


def test_sample_matches_pointwise_evaluation():
    rng = np.random.default_rng(SEED + 4)
    structure, e0, e1 = random_lagrangian_pair(2, rng)
    geo = Geodesic(connect(e0, e1, structure))
    ts = np.linspace(0.0, 1.0, 7)
    stack = sample(geo, ts)
    for i, t in enumerate(ts):
        assert max_abs(stack[i] - evaluate(geo, float(t)).matrix) < 1e-13


def test_endpoints_stay_lagrangian_along_the_curve():
    rng = np.random.default_rng(SEED + 5)
    structure, e0, e1 = random_lagrangian_pair(3, rng)
    geo = Geodesic(connect(e0, e1, structure))
    j = structure.matrix
    for t in np.linspace(0.0, 1.0, 9):
        e_t = evaluate(geo, float(t)).matrix
        assert max_abs(e_t @ j + j @ e_t) < 1e-12


# ---------------------------------------------------------------------------
# lengths


def test_length_closed_form():
    s = ComplexStructure.standard(1)
    geo = Geodesic(connect(line(0.0), line(0.7), s))
    assert abs(length(geo) - 1.4) < 1e-12
    assert abs(length(geo, k=2) - 1.4 * math.sqrt(2)) < 1e-12
    assert abs(length(geo, t0=0.25, t1=0.75) - 0.7) < 1e-12


def test_sampled_length_converges_to_closed_form():
    rng = np.random.default_rng(SEED + 6)
    structure, e0, e1 = random_lagrangian_pair(2, rng)
    geo = Geodesic(connect(e0, e1, structure))
    ts = np.linspace(0.0, 1.0, 1001)
    stack = sample(geo, ts)
    dt = float(ts[1] - ts[0])
    for k in (math.inf, 2, 4):
        got = sampled_length(stack, dt, k)
        want = length(geo, k)
        assert abs(got - want) < 5e-6 * want


def test_sampled_lengths_shares_one_derivative():
    rng = np.random.default_rng(SEED + 7)
    structure, e0, e1 = random_lagrangian_pair(2, rng)
    geo = Geodesic(connect(e0, e1, structure))
    ts = np.linspace(0.0, 1.0, 201)
    stack = sample(geo, ts)
    dt = float(ts[1] - ts[0])
    multi = sampled_lengths(stack, dt, [math.inf, 2])
    assert multi[math.inf] == sampled_length(stack, dt, math.inf)
    assert multi[2] == sampled_length(stack, dt, 2)
    assert sampled_lengths([Symmetry(s) for s in stack], dt, [math.inf, 2]) == multi
    assert sampled_lengths(list(stack), dt, [math.inf, 2]) == multi


def test_sampled_length_input_validation():
    with pytest.raises(InvariantViolation):
        sampled_length(np.zeros((2, 3, 3)), 0.1)
    with pytest.raises(InvariantViolation):
        sampled_length(np.zeros((5, 3, 3)), -0.1)
    with pytest.raises(InvariantViolation):
        sampled_length(np.zeros((5, 3, 3)), 0.1, k=1.5)


def test_geodesic_beats_perturbed_competitors():
    rng = np.random.default_rng(SEED + 8)
    structure, e0, e1 = random_lagrangian_pair(2, rng)
    gen = connect(e0, e1, structure)
    geo = Geodesic(gen)
    ts = np.linspace(0.0, 1.0, 801)
    dt = float(ts[1] - ts[0])
    for _ in range(5):
        w = random_horizontal(structure, e0, rng)
        curve = perturbed_curve(gen, w, amplitude=0.5, ts=ts)
        assert max_abs(curve[0] - e0.matrix) < 1e-12
        assert max_abs(curve[-1] - e1.matrix) < 1e-8
        for k in (math.inf, 2):
            assert length(geo, k) <= sampled_length(curve, dt, k) + 1e-9


# ---------------------------------------------------------------------------
# multiplicity and alternates


def test_multiplicity_unique_for_short_geodesics():
    rng = np.random.default_rng(SEED + 9)
    structure, e0, _ = random_lagrangian_pair(3, rng)
    w = random_horizontal(structure, e0, rng, norm=0.8)
    gen = GeodesicGenerator(w, e0, structure)
    rep = classify_multiplicity(gen)
    assert rep.classification is Multiplicity.UNIQUE
    assert rep.minus_one_dim_complex == 0
    assert abs(rep.norm_gap - (math.pi / 2 - 0.8)) < 1e-12
    assert alternate_generators(gen) == [gen]
    with pytest.raises(InvariantViolation):
        alternate_generator(gen, [])


def test_multiplicity_exactly_two_half_space_reflection():
    # graphs of I and of e = diag(1, -1) sit at distance pi with one flip plane
    structure = ComplexStructure.standard(2)
    e_i = graph_symmetry(np.eye(2))
    e_e = graph_symmetry(np.diag([1.0, -1.0]))
    gen = connect(e_i, e_e, structure)
    assert abs(gen.norm - math.pi / 2) < 1e-10
    rep = classify_multiplicity(gen)
    assert rep.classification is Multiplicity.EXACTLY_TWO
    assert rep.minus_one_dim_complex == 1
    alts = alternate_generators(gen)
    assert len(alts) == 2
    assert max_abs(alts[0].z - gen.z) < 1e-12
    assert max_abs(alts[1].z - gen.z) > 0.1


def test_multiplicity_infinite_two_flip_planes():
    structure = ComplexStructure.standard(4)
    e_i = graph_symmetry(np.eye(4))
    e_e = graph_symmetry(np.diag([1.0, 1.0, -1.0, -1.0]))
    gen = connect(e_i, e_e, structure)
    rep = classify_multiplicity(gen)
    assert rep.classification is Multiplicity.INFINITE
    assert rep.minus_one_dim_complex == 2
    alts = alternate_generators(gen)
    assert len(alts) == 4
    # the list shares one pi-plane search; each entry is its sign pattern's flip
    for alt, pattern in zip(alts, [(1, 1), (1, -1), (-1, 1), (-1, -1)]):
        assert np.array_equal(alt.z, alternate_generator(gen, pattern).z)
    target = e_e.matrix
    for alt in alts:
        endpoint = expm_antisymmetric(2 * alt.z, validate=False) @ e_i.matrix
        assert max_abs(endpoint - target) < 1e-9
        for k in (1, 2, math.inf):
            assert abs(schatten_norm(alt.z, k) - schatten_norm(gen.z, k)) < 1e-9


def test_alternate_generator_sign_validation():
    structure = ComplexStructure.standard(2)
    gen = connect(graph_symmetry(np.eye(2)),
                  graph_symmetry(np.diag([1.0, -1.0])), structure)
    with pytest.raises(InvariantViolation):
        alternate_generator(gen, [1, 1])      # wrong length
    with pytest.raises(InvariantViolation):
        alternate_generator(gen, [0])         # not a sign


def test_alternate_generators_cap():
    structure = ComplexStructure.standard(4)
    gen = connect(graph_symmetry(np.eye(4)),
                  graph_symmetry(np.diag([1.0, 1.0, -1.0, -1.0])), structure)
    assert len(alternate_generators(gen, limit=3)) == 3
    for limit in (0, -1):
        with pytest.raises(InvariantViolation):
            alternate_generators(gen, limit=limit)


def test_generator_constructor_rejects_bad_inputs():
    structure = ComplexStructure.standard(1)
    e0 = vertical_symmetry(1)
    with pytest.raises(InvariantViolation):
        GeodesicGenerator(np.diag([1.0, 1.0]), e0, structure)   # not antisym
    with pytest.raises(InvariantViolation):
        GeodesicGenerator(2.0 * j2(), e0, structure)            # norm > pi/2


if __name__ == "__main__":
    import sys

    sys.exit(pytest.main([__file__, "-v"]))
