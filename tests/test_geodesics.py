"""Tests for geodesic construction, lengths, multiplicity, and alternates."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lagrass.complex_structure import (
    _CLUSTER_GAP,
    _GAMMA,
    ComplexStructure,
    conjugation_matrix,
    realify,
    realify_conjugation,
    standard_form,
)
from lagrass.errors import InvariantViolation
from lagrass.geodesics import (
    Geodesic,
    GeodesicGenerator,
    Multiplicity,
    _connect,
    alternate_generator,
    alternate_generators,
    classify_multiplicity,
    connect,
    distance,
    evaluate,
    exponential_map,
    length,
    sample,
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
    random_lagrangian,
    random_lagrangian_pair,
)
from lagrass.subspaces import (
    Subspace,
    Symmetry,
    projection_from_symmetry,
    subspace_from_symmetry,
    vertical_symmetry,
)
from lagrass.tolerances import ANGLE_TOL, GENERATOR_ATOL

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
    stack = realify_conjugation(sample(geo, ts), structure)
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
        got = sampled_lengths(stack, dt, [k])[k]
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
    assert multi[math.inf] == sampled_lengths(stack, dt, [math.inf])[math.inf]
    assert multi[2] == sampled_lengths(stack, dt, [2])[2]
    symmetries = [Symmetry(e) for e in realify_conjugation(stack, structure)]
    matrices = [conjugation_matrix(s.matrix, structure) for s in symmetries]
    assert sampled_lengths(matrices, dt, [math.inf, 2]) == multi
    assert sampled_lengths(list(stack), dt, [math.inf, 2]) == multi


def test_sampled_lengths_refuses_real_stacks():
    # a real stack of symmetries would be measured 2^(1/k) too short
    rng = np.random.default_rng(SEED + 7)
    structure, e0, e1 = random_lagrangian_pair(2, rng)
    ts = np.linspace(0.0, 1.0, 21)
    real = realify_conjugation(sample(Geodesic(connect(e0, e1, structure)), ts), structure)
    for samples in (real, list(real), [Symmetry(e) for e in real]):
        with pytest.raises(InvariantViolation, match="conjugation_matrix"):
            sampled_lengths(samples, 0.05, [math.inf, 2])


def test_sampled_length_input_validation():
    for samples, dt, k in ((np.zeros((4, 3, 3), dtype=complex), 0.1, math.inf),
                           (np.zeros((5, 3, 2), dtype=complex), 0.1, math.inf),
                           (np.zeros((5, 3, 3), dtype=complex), -0.1, math.inf),
                           (np.zeros((5, 3, 3), dtype=complex), 0.1, 1.5)):
        with pytest.raises(InvariantViolation):
            sampled_lengths(samples, dt, [k])
    assert sampled_lengths(np.zeros((5, 3, 3), dtype=complex), 0.1, [math.inf]) == {
        math.inf: 0.0}


@pytest.mark.parametrize("nodes", [5, 6, 7, 8, 2000, 2001])
def test_sampled_lengths_are_exact_on_cubic_curves(nodes):
    # C_t = p(t) C with ||C||_k = 1 has speed |p'(t)| 2^(1/k); a cubic p is
    # differentiated exactly by the five-point stencils, and p' >= 0 quadratic
    # is integrated exactly by Simpson's rule and by the 3/8 rule
    c = np.diag([1.0, 0.5j])
    ts = np.linspace(0.0, 1.0, nodes)
    p = ts + ts ** 2 + ts ** 3
    got = sampled_lengths(p[:, None, None] * c, float(ts[1] - ts[0]), [math.inf, 2])
    assert abs(got[math.inf] - 3.0) <= 1e-12
    assert abs(got[2] - 3.0 * math.sqrt(2.0 * 1.25)) <= 1e-12


@pytest.mark.parametrize("n", [1, 2, 3, 4, 8])
def test_sampled_lengths_geodesic_quadrature_at_2000_nodes(n):
    rng = np.random.default_rng([SEED + 17, n])
    structure, e0, e1 = random_lagrangian_pair(n, rng)
    geo = Geodesic(connect(e0, e1, structure))
    ts = np.linspace(0.0, 1.0, 2000)
    ks = (1, 2, 4, math.inf)
    got = sampled_lengths(sample(geo, ts), float(ts[1] - ts[0]), ks)
    for k in ks:
        assert abs(got[k] - length(geo, k)) <= 1e-10 * length(geo, k)


# the competitor of the `curves` benchmark at seed 33 (pool slot 5, third
# draw): in the operator norm it is longer than its geodesic by about 3e-8,
# closer than the error of a second-order quadrature at 2000 nodes
TIED_E0 = np.array([
    [-0.2437046896374961, -0.16245780290843587, 0.9266459583608373, -0.23567510342923675],
    [-0.16245780290843587, -0.9527214836221319, -0.23567510342923675, -0.10191409393517026],
    [0.9266459583608373, -0.23567510342923675, 0.24370468963749617, 0.1624578029084359],
    [-0.23567510342923675, -0.10191409393517026, 0.1624578029084359, 0.9527214836221318]])
TIED_E1 = np.array([
    [-0.6307950353878782, -0.5938573612244127, 0.24279851838441727, 0.43644007299962095],
    [-0.5938573612244127, 0.42008019629115756, 0.436440072999621, -0.5295149911793292],
    [0.24279851838441727, 0.436440072999621, 0.6307950353878782, 0.5938573612244127],
    [0.43644007299962095, -0.5295149911793292, 0.5938573612244127, -0.4200801962911576]])
TIED_W = np.array([
    [0.0, 0.3792734495949376, -0.657895503252626, -0.3439702247625993],
    [-0.3792734495949376, 0.0, -0.3439702247625994, -0.23367313910383603],
    [0.657895503252626, 0.3439702247625994, 0.0, 0.37927344959493764],
    [0.3439702247625993, 0.23367313910383603, -0.37927344959493764, 0.0]])
TIED_AMPLITUDE = 0.2245241361872964


def test_near_tied_competitor_is_not_shorter_than_its_geodesic():
    structure = ComplexStructure.standard(2)
    gen = connect(Symmetry(TIED_E0), Symmetry(TIED_E1), structure)
    geo = Geodesic(gen)
    ts = np.linspace(0.0, 1.0, 2000)
    dt = float(ts[1] - ts[0])
    ks = (math.inf, 2, 4)
    quad = sampled_lengths(sample(geo, ts), dt, ks)
    comp = sampled_lengths(perturbed_curve(gen, TIED_W, TIED_AMPLITUDE, ts), dt, ks)
    for k in ks:
        assert abs(quad[k] - length(geo, k)) <= 1e-10 * length(geo, k)
        assert comp[k] - length(geo, k) >= -1e-9
    assert comp[math.inf] - length(geo) <= 1e-6


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
        ends = realify_conjugation(curve[[0, -1]], structure)
        assert max_abs(ends[0] - e0.matrix) < 1e-12
        assert max_abs(ends[1] - e1.matrix) < 1e-8
        for k in (math.inf, 2):
            assert length(geo, k) <= sampled_lengths(curve, dt, [k])[k] + 1e-9


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


@pytest.mark.parametrize("limit", [2.5, 3.0, "3", None])
def test_alternate_generators_refuse_a_non_integer_limit(limit):
    structure = ComplexStructure.standard(2)
    gen = connect(graph_symmetry(np.eye(2)),
                  graph_symmetry(np.diag([1.0, -1.0])), structure)
    with pytest.raises(InvariantViolation, match="limit must be an integer >= 1"):
        alternate_generators(gen, limit=limit)


# ---------------------------------------------------------------------------
# angles at the bucketing thresholds and the pi-plane band


def rotated_structure(n, rng):
    q, _ = np.linalg.qr(rng.standard_normal((2 * n, 2 * n)))
    return ComplexStructure(q @ standard_form(n) @ q.T)


def planted_graph_pair(angles, rng):
    """graph(I) and a graph whose principal angles to it are `angles`: the
    graph of tan(beta) is the line at angle beta, graph(I) the line at pi/4."""
    n = len(angles)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    b = (q * np.tan(np.asarray(angles) + math.pi / 4)) @ q.T
    return graph_symmetry(np.eye(n)), graph_symmetry((b + b.T) / 2.0)


def real_sample(gen, ts):
    """The real symmetries of `sample`'s nodes."""
    return realify_conjugation(sample(Geodesic(gen), ts), gen.structure)


def assert_reaches(gen, e1, tol):
    endpoint = expm_antisymmetric(2 * gen.z, validate=False) @ gen.base.matrix
    assert max_abs(endpoint - e1.matrix) <= tol
    assert max_abs(real_sample(gen, [1.0])[0] - e1.matrix) <= tol


@pytest.mark.parametrize("theta", [math.pi / 2 - 5e-9, math.pi / 2 - ANGLE_TOL / 2,
                                   ANGLE_TOL / 2])
def test_connect_carries_angles_inside_the_default_buckets(theta):
    # the generator is built from the measured angle, never a snapped one,
    # so an angle the buckets would round to 0 or pi/2 still reaches e1
    s = ComplexStructure.standard(1)
    gen, resid = _connect(line(0.0), line(theta), s)
    assert resid <= 1e-15
    assert abs(gen.norm - theta) <= 1e-15
    assert_reaches(gen, line(theta), 1e-15)


@pytest.mark.parametrize("n", [2, 4])
@pytest.mark.parametrize("target", [math.pi / 2 - ANGLE_TOL / 2, ANGLE_TOL / 2],
                         ids=["right", "zero"])
def test_connect_planted_threshold_angles(n, target):
    rng = np.random.default_rng([SEED + 10, n])
    structure = ComplexStructure.standard(n)
    for _ in range(30):
        angles = rng.uniform(0.1, 1.4, n)
        angles[0] = target
        e0, e1 = planted_graph_pair(angles, rng)
        gen = connect(e0, e1, structure)
        assert np.allclose(np.sort(np.abs(gen.theta)), np.sort(angles), rtol=0.0, atol=1e-12)
        assert_reaches(gen, e1, 1e-12)


def near_right_cases():
    for delta in (5e-9, 3e-8):
        yield delta, 1, line(0.0), line(math.pi / 2 - delta)
        rng = np.random.default_rng([SEED + 11, int(delta * 1e10)])
        angles = np.array([math.pi / 2 - delta, 0.3, 0.8, 1.2])
        yield (delta, 4) + planted_graph_pair(angles, rng)


@pytest.mark.parametrize("delta, n, e0, e1", list(near_right_cases()),
                         ids=["5e-9-n1", "5e-9-n4", "3e-8-n1", "3e-8-n4"])
def test_multiplicity_and_alternates_agree_near_the_cut_locus(delta, n, e0, e1):
    # an angle within GENERATOR_ATOL of pi/2 is a flip plane, and its flip
    # keeps the norm bound; one further away is not a flip plane at all
    gen = connect(e0, e1, ComplexStructure.standard(n))
    rep = classify_multiplicity(gen)
    d = 1 if delta <= GENERATOR_ATOL else 0
    assert rep.minus_one_dim_complex == d
    assert rep.classification is (Multiplicity.EXACTLY_TWO if d else Multiplicity.UNIQUE)
    alts = alternate_generators(gen)
    assert len(alts) == 2 ** d
    for alt in alts:
        assert alt.norm <= math.pi / 2 + GENERATOR_ATOL
        assert_reaches(alt, e1, 1e-9)


@pytest.mark.parametrize("rotated", [False, True], ids=["standard-J", "rotated-J"])
@pytest.mark.parametrize("n", [1, 4, 16, 64, 128])
def test_connect_endpoint_accuracy_up_to_n128(n, rotated):
    rng = np.random.default_rng([SEED + 12, n, rotated])
    structure = rotated_structure(n, rng) if rotated else ComplexStructure.standard(n)
    for _ in range(3 if n >= 64 else 8):
        e0 = random_lagrangian(structure, rng)
        e1 = random_lagrangian(structure, rng)
        gen, resid = _connect(e0, e1, structure)
        assert resid <= 1e-12
        assert max_abs(real_sample(gen, [1.0])[0] - e1.matrix) <= 1e-12


@pytest.mark.parametrize("n", [1, 2, 16, 64])
def test_connect_accepts_endpoints_inside_the_validation_slack(n):
    # a symmetry off by 1e-11 passes validation, so its conjugation matrix is
    # unitary only to that level; the generator must still reach the endpoint
    # and revalidate at the inexact base
    rng = np.random.default_rng([SEED + 14, n])
    structure = ComplexStructure.standard(n)

    def inexact():
        e = random_lagrangian(structure, rng).matrix
        a = rng.standard_normal(e.shape)
        return Symmetry(e + 1e-11 * (a + a.T))

    e0, e1 = inexact(), inexact()
    gen, resid = _connect(e0, e1, structure)
    assert resid <= 1e-9
    again = GeodesicGenerator(gen.z, e0, structure)
    assert abs(again.norm - gen.norm) <= 1e-9
    assert max_abs(real_sample(again, [1.0])[0] - e1.matrix) <= 1e-9


def test_generator_record_describes_z():
    # the public constructor's record: C0 = U U^T, z = realify(i U diag(theta) U^H),
    # and norm = max|theta| is the operator norm
    rng = np.random.default_rng(SEED + 13)
    for n in (1, 3, 6):
        structure = rotated_structure(n, rng)
        e0 = random_lagrangian(structure, rng)
        z = random_horizontal(structure, e0, rng, norm=1.3)
        gen = GeodesicGenerator(z, e0, structure)
        u = gen.u
        assert max_abs(np.abs(u @ u.T - conjugation_matrix(e0.matrix, structure))) <= 1e-13
        assert max_abs(realify(1j * (u * gen.theta) @ u.conj().T, structure) - z) <= 1e-13
        assert abs(gen.norm - schatten_norm(z, math.inf)) <= 1e-13


# ---------------------------------------------------------------------------
# planted Souriau records: repeated angles, collisions of Re S + gamma Im S


def souriau_pair(structure, theta, rng):
    """Lagrangians with C0 = W W^T and C1 = U diag(e^{2i theta}) U^T, U = W O,
    for a random unitary W and a random orthogonal O."""
    n = theta.size
    w, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    o, _ = np.linalg.qr(rng.standard_normal((n, n)))
    u = w @ o
    e0 = realify_conjugation(w @ w.T, structure)
    e1 = realify_conjugation((u * np.exp(2j * theta)) @ u.T, structure)
    return Symmetry((e0 + e0.T) / 2.0), Symmetry((e1 + e1.T) / 2.0)


def _wrap(theta):
    """The angle with the same e^{2i theta} in (-pi/2, pi/2]."""
    return math.pi / 2 - (math.pi / 2 - theta) % math.pi


def _partner(theta, shift=0.0):
    """An angle whose value cos 2t + gamma sin 2t equals that of theta (shift 0),
    or differs from it by about shift."""
    mirror = math.atan(_GAMMA) - theta
    slope = 2.0 * math.hypot(1.0, _GAMMA) * abs(math.sin(2.0 * theta - 2.0 * math.atan(_GAMMA)))
    return _wrap(mirror + shift / slope)


PLANTS = {
    "repeated-zero": lambda t: [0.0, 0.0, 0.0],
    "repeated-right": lambda t: [math.pi / 2, math.pi / 2],
    "repeated-generic": lambda t: [t, t, t],
    "near-right": lambda t: [math.pi / 2 - ANGLE_TOL / 2, -math.pi / 2 + 5e-9],
    "near-zero": lambda t: [ANGLE_TOL / 2, -ANGLE_TOL / 2],
    "flip-band": lambda t: [math.pi / 2 - GENERATOR_ATOL / 2, math.pi / 2 - 2 * GENERATOR_ATOL],
    "mirrored-pi/4": lambda t: [math.pi / 4 - t * 1e-4, math.pi / 4 + t * 1e-4],
    "collision": lambda t: [t, _partner(t)],
    "near-collision-inside": lambda t: [t, _partner(t, 0.5 * _CLUSTER_GAP)],
    "near-collision-outside": lambda t: [t, _partner(t, 1.01 * _CLUSTER_GAP)],
    "near-collision-far": lambda t: [t, _partner(t, 3.0 * _CLUSTER_GAP)],
}


@st.composite
def planted_records(draw):
    n = draw(st.integers(1, 64))
    seed = draw(st.integers(0, 2**32 - 1))
    theta = np.random.default_rng(seed).uniform(-math.pi / 2, math.pi / 2, n)
    slot = 0
    for name in draw(st.lists(st.sampled_from(sorted(PLANTS)), max_size=4)):
        # t stays clear of the self-colliding angles atan(gamma) mod pi/2
        t = draw(st.floats(0.05, 0.5)) + math.atan(_GAMMA)
        for value in PLANTS[name](t):
            if slot < n:
                theta[slot] = _wrap(value)
                slot += 1
    return seed, draw(st.booleans()), theta


@settings(max_examples=60, deadline=None)
@given(case=planted_records())
def test_connect_contract_on_planted_records(case):
    # every planted pair is a valid Lagrangian pair, so a typed refusal
    # would be a defect too: the contract must hold on each one
    seed, rotated, theta = case
    rng = np.random.default_rng([seed, 1])
    n = theta.size
    structure = rotated_structure(n, rng) if rotated else ComplexStructure.standard(n)
    e0, e1 = souriau_pair(structure, theta, rng)
    gen = connect(e0, e1, structure)
    z, j = gen.z, structure.matrix
    assert gen.norm <= math.pi / 2
    assert max_abs(z + z.T) <= 1e-12
    assert max_abs(z @ j - j @ z) <= 1e-10
    assert max_abs(z @ e0.matrix + e0.matrix @ z) <= 1e-10
    assert_reaches(gen, e1, 1e-10)
    assert np.allclose(np.sort(np.abs(gen.theta)), np.sort(np.abs(theta)), rtol=0.0, atol=1e-10)
    if np.max(np.abs(theta)) < math.pi / 2 - 1e-6:
        # below the cut locus the minimal generator is unique
        z_ref = logm_special_orthogonal(e1.matrix @ e0.matrix)
        assert max_abs(z - z_ref) <= 1e-8
    again = GeodesicGenerator(z, e0, structure)
    assert abs(again.norm - gen.norm) <= 1e-12


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
