"""Tests for graph charts, operator recovery, the gap metric, Cayley curves."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lagrass.graphs
from lagrass.cli import main
from lagrass.complex_structure import ComplexStructure, conjugation_matrix, standard_form
from lagrass.errors import ComputationError, InvariantViolation, NotAGraphError
from lagrass.geodesics import Geodesic, GeodesicGenerator, alternate_generators, connect, evaluate
from lagrass.graphs import (
    _chart_grid,
    _chart_margin,
    cayley_curve,
    cayley_transform,
    codiagonal_generator,
    gap_distance,
    graph_basis,
    graph_projection,
    graph_safe_radius,
    graph_subspace,
    graph_symmetry,
    graph_window,
    is_graph,
    recover_operator,
    transformed_graph_operator,
)
from lagrass.linalg import expm_antisymmetric, max_abs
from lagrass.sampling import random_complex_rotation, random_lagrangian, random_symmetric
from lagrass.subspaces import (
    Subspace,
    Symmetry,
    projection_from_subspace,
    subspace_from_symmetry,
    vertical_symmetry,
)
from lagrass.tolerances import GRAPH_WINDOW_TOL, RANK_RTOL

from spies import CallSpy
from test_chart_certificate import rotated_block

SEED = 550


@pytest.mark.parametrize("n", [1, 2, 5, 16, 33])
def test_identity_graph_closed_form_is_bitwise_graph_symmetry(n):
    closed = lagrass.graphs._identity_graph(n)
    spectral = graph_symmetry(np.eye(n)).matrix
    assert np.array_equal(closed, spectral)
    assert np.array_equal(np.signbit(closed), np.signbit(spectral))


def rotated_diag(values, seed=SEED):
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((len(values), len(values))))
    return q @ np.diag(np.asarray(values, dtype=float)) @ q.T


def near_edge_block(n, seed=0):
    """y = Q diag(mu0, mu0, mu_rest...) Q^T with mu0 = -pi/4 + 3e-7."""
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    mu0 = -math.pi / 4.0 + 3e-7
    mu = np.concatenate([[mu0, mu0], rng.uniform(-0.5, 0.5, n - 2)])
    y = (q * mu) @ q.T
    return (y + y.T) / 2.0


# ---------------------------------------------------------------------------
# projections and bases


def test_graph_projection_frozen_blocks():
    n = 2
    assert max_abs(graph_projection(np.zeros((n, n))).matrix
                   - np.diag([1.0, 1.0, 0.0, 0.0])) < 1e-15
    half = np.full((n, n), 0.0)
    p_identity = np.block([[np.eye(n), np.eye(n)], [np.eye(n), np.eye(n)]]) / 2.0
    assert max_abs(graph_projection(np.eye(n)).matrix - p_identity) < 1e-15
    e = np.diag([1.0, -1.0])
    p_e = np.block([[np.eye(n), e], [e, np.eye(n)]]) / 2.0
    assert max_abs(graph_projection(e).matrix - p_e) < 1e-15


def test_graph_projection_matches_basis_built():
    rng = np.random.default_rng(SEED)
    for _ in range(25):
        n = int(rng.integers(1, 5))
        a = random_symmetric(n, rng)
        p_closed = graph_projection(a).matrix
        p_basis = projection_from_subspace(graph_subspace(a)).matrix
        assert max_abs(p_closed - p_basis) < 1e-10


def test_graphs_are_lagrangian():
    from lagrass.subspaces import is_lagrangian

    rng = np.random.default_rng(SEED + 1)
    for n in (1, 2, 4):
        a = random_symmetric(n, rng)
        assert is_lagrangian(graph_symmetry(a), ComplexStructure.standard(n))


def test_is_graph_basic_cases():
    assert is_graph(graph_subspace(np.zeros((2, 2))))
    assert is_graph(graph_subspace(rotated_diag([5.0, -3.0])))
    assert not is_graph(vertical_symmetry(2))
    with pytest.raises(InvariantViolation):
        is_graph(Subspace(np.eye(3)[:, :1]))
    # wrong dimension: not a graph of an operator on the half-space
    assert not is_graph(Subspace(np.eye(4)[:, :1]))


def test_is_graph_critical_rotation():
    # flow of the identity graph with half-space block -pi/4 leaves the chart
    # exactly at t = 1, where cos + sin degenerates
    gen = codiagonal_generator(np.array([[-math.pi / 4]]),
                               graph_symmetry(np.eye(1)))
    geo = Geodesic(gen)
    assert is_graph(evaluate(geo, 0.5))
    assert not is_graph(evaluate(geo, 1.0))


def test_recover_operator_round_trip():
    rng = np.random.default_rng(SEED + 2)
    for _ in range(20):
        n = int(rng.integers(1, 5))
        a = random_symmetric(n, rng)
        b = recover_operator(graph_subspace(a))
        assert max_abs(b - a) < 1e-10


def test_recover_operator_rejects_vertical_and_nonsymmetric():
    with pytest.raises(NotAGraphError):
        recover_operator(vertical_symmetry(2))
    with pytest.raises(NotAGraphError):
        recover_operator(Subspace(np.eye(4)[:, :1]))
    # graph of a nonsymmetric operator: a graph, but not Lagrangian
    b = np.array([[0.0, 1.0], [0.0, 0.0]])
    sub = Subspace.from_columns(np.vstack([np.eye(2), b]))
    assert is_graph(sub)
    with pytest.raises(InvariantViolation):
        recover_operator(sub)


@pytest.mark.parametrize("n", [1, 2, 4, 8, 16, 32])
def test_recover_operator_round_trip_across_scales(n):
    # large graph operators put spec C within 2 / |a| of -1; recovery from C
    # keeps full relative accuracy there
    rng = np.random.default_rng(SEED + n)
    for scale in (0.1, 1.0, 10.0, 1e3, 1e5):
        for _ in range(2):
            a = random_symmetric(n, rng, scale=scale)
            b = recover_operator(graph_symmetry(a))
            assert max_abs(b - a) <= 1e-12 * max_abs(a)


def test_recover_operator_refuses_a_half_dimensional_non_lagrangian():
    # span{x1, y1} in R^4: half-dimensional, neither Lagrangian nor a graph
    plane = Subspace(np.eye(4)[:, [0, 2]])
    with pytest.raises(InvariantViolation, match="recover_operator: subspace is not Lagrangian"):
        recover_operator(plane)


@pytest.mark.parametrize("cutoff", [-1.0, 0.0, 1.0, math.nan, math.inf])
def test_rank_cutoff_outside_unit_interval_refused(cutoff):
    # the plane of x2 and y1: Lagrangian, not a graph; at -1 is_graph said
    # True and recover_operator hit a singular solve
    half = Symmetry(np.diag([-1.0, 1.0, 1.0, -1.0]))
    with pytest.raises(InvariantViolation, match="rank cutoff"):
        is_graph(half, rank_rtol=cutoff)
    with pytest.raises(InvariantViolation, match="rank cutoff"):
        recover_operator(half, rank_rtol=cutoff)


def test_recover_from_vertical_chart_flow():
    # flow from the vertical subspace with block x lands on the graph of
    # cos(x) sin(x)^(-1)
    x = rotated_diag([0.3, 0.7])
    gen = codiagonal_generator(x, vertical_symmetry(2))
    b = recover_operator(evaluate(Geodesic(gen), 1.0))
    lam, q = np.linalg.eigh(x)
    want = q @ np.diag(np.cos(lam) / np.sin(lam)) @ q.T
    assert max_abs(b - want) < 1e-9


def test_recover_from_identity_chart_flow():
    # flow from the identity graph with block y lands on the graph of
    # (cos y - sin y)(cos y + sin y)^(-1)
    y = rotated_diag([0.4, -0.2, 0.1])
    gen = codiagonal_generator(y, graph_symmetry(np.eye(3)))
    b = recover_operator(evaluate(Geodesic(gen), 1.0))
    lam, q = np.linalg.eigh(y)
    vals = (np.cos(lam) - np.sin(lam)) / (np.cos(lam) + np.sin(lam))
    want = q @ np.diag(vals) @ q.T
    assert max_abs(b - want) < 1e-9


# ---------------------------------------------------------------------------
# transformed graphs


def test_transformed_graph_identity_rotation():
    a = rotated_diag([1.0, -0.5])
    out = transformed_graph_operator(np.eye(4), a)
    assert max_abs(out.operator - a) < 1e-12
    assert out.residual_first_order < 1e-12
    assert out.residual_second_order < 1e-12


def test_transformed_graph_first_order_form_is_exact():
    rng = np.random.default_rng(SEED + 3)
    structure = ComplexStructure.standard(3)
    hit_discrepancy = False
    for _ in range(10):
        a = random_symmetric(3, rng)
        u = random_complex_rotation(structure, rng, spread=0.5)
        out = transformed_graph_operator(u, a)
        assert out.residual_first_order < 1e-9
        if out.residual_second_order > 1e-6:
            hit_discrepancy = True
    # the order-swapped closed form disagrees except in commuting cases
    assert hit_discrepancy


def test_transformed_graph_not_a_graph():
    n = 2
    structure = ComplexStructure.standard(n)
    u = expm_antisymmetric((math.pi / 2) * structure.matrix)
    with pytest.raises(NotAGraphError):
        transformed_graph_operator(u, np.zeros((n, n)))


def test_transformed_graph_recovers_the_image_once(monkeypatch):
    calls = []
    original = lagrass.graphs.conjugation_matrix

    def counting(eps, structure):
        calls.append(eps)
        return original(eps, structure)

    monkeypatch.setattr(lagrass.graphs, "conjugation_matrix", counting)
    rng = np.random.default_rng(SEED + 4)
    structure = ComplexStructure.standard(3)
    u = random_complex_rotation(structure, rng, spread=0.5)
    transformed_graph_operator(u, random_symmetric(3, rng))
    assert len(calls) == 1


def test_transformed_graph_rejects_non_unitary():
    with pytest.raises(InvariantViolation):
        transformed_graph_operator(np.diag([1.0, 2.0, 1.0, 0.5]), np.zeros((2, 2)))


# ---------------------------------------------------------------------------
# window, safe radius, gap


def test_graph_window_frozen_cases():
    assert bool(graph_window(np.zeros((2, 2))))
    assert not bool(graph_window(np.diag([-math.pi / 4, 0.0])))
    verdict = graph_window(np.diag([math.pi / 2, 0.1]))
    assert verdict.ok and verdict.curve_verified
    assert verdict.note != ""
    with pytest.raises(InvariantViolation):
        graph_window(np.diag([math.pi / 2 + 0.2, 0.0]))


@pytest.mark.parametrize("y", [np.diag([-0.5, 0.25]), np.diag([-math.pi / 4, 0.0]),
                               random_symmetric(4, np.random.default_rng(SEED + 12), 0.3)])
def test_graph_window_decomposes_the_block_once(monkeypatch, y):
    # the eigenvalues are read off the flow's generator, one eigh of y
    spy = CallSpy(monkeypatch)
    verdict = graph_window(y)
    assert [routine for routine, _ in spy.calls("eig", "eigh", "eigvals", "eigvalsh")] == ["eigh"]
    assert max_abs(verdict.eigenvalues - np.linalg.eigvalsh(y)) <= 1e-15


def test_graph_window_margins():
    verdict = graph_window(np.diag([-0.5, 0.25]))
    assert abs(verdict.lower_margin - (math.pi / 4 - 0.5)) < 1e-12
    assert abs(verdict.upper_margin - (math.pi / 2 - 0.25)) < 1e-12


def test_chart_grid_refuses_a_non_standard_structure():
    # the grid reads C_t in the standard split, the chart's split only for
    # the standard J
    rng = np.random.default_rng(SEED + 9)
    q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
    structure = ComplexStructure(q @ standard_form(2) @ q.T)
    e0 = random_lagrangian(structure, rng)
    gen = connect(e0, random_lagrangian(structure, rng), structure)
    with pytest.raises(InvariantViolation, match="standard complex structure"):
        _chart_grid(gen, np.linspace(0.0, 1.0, 5), RANK_RTOL)


def test_graph_safe_radius_values():
    base = graph_symmetry(np.eye(2))
    gen_half = codiagonal_generator(np.diag([math.pi / 2, 0.1]), base)
    assert abs(graph_safe_radius(gen_half) - 0.5) < 1e-12
    gen_quarter = codiagonal_generator(np.diag([math.pi / 4, 0.0]), base)
    assert abs(graph_safe_radius(gen_quarter) - 1.0) < 1e-12
    gen_zero = codiagonal_generator(np.zeros((2, 2)), base)
    assert graph_safe_radius(gen_zero) == math.inf


def test_graph_safe_radius_random_grid_check():
    rng = np.random.default_rng(SEED + 4)
    for _ in range(5):
        y = random_symmetric(2, rng, scale=0.8)
        gen = codiagonal_generator(y, graph_symmetry(np.eye(2)))
        radius = graph_safe_radius(gen)
        assert radius > 0.0
        ts = np.linspace(0.0, radius * (1.0 - 1e-3), 50)
        assert _chart_grid(gen, ts, RANK_RTOL)[1].all()


# graph_window and graph_safe_radius are closed-form verdicts; these grids
# carry their proof. A node's chart margin dist(-1, spec C_t) / 2 is
# min_j |cos(pi/4 + t theta_j)| on a flow from the identity graph.

THEOREM_CASES = settings(max_examples=40, deadline=None)


def test_window_margin_clears_the_rank_cutoff():
    # an accepted window keeps every node's margin at sin(GRAPH_WINDOW_TOL)
    # or more, so graph_window agrees with is_graph at the default cutoff
    assert math.sin(GRAPH_WINDOW_TOL) > RANK_RTOL


@THEOREM_CASES
@given(n=st.integers(2, 16), seed=st.integers(0, 2**32 - 1), exponent=st.floats(-6.0, 0.0))
def test_graph_window_flow_stays_off_the_cutoff(n, seed, exponent):
    # one eigenvalue just inside the window's left end, one at its right end
    rng = np.random.default_rng(seed)
    values = rng.uniform(-math.pi / 4.0 + 2.0 * GRAPH_WINDOW_TOL, math.pi / 2.0, n)
    values[0] = -math.pi / 4.0 + GRAPH_WINDOW_TOL * (1.0 + 10.0 ** exponent)
    values[1] = math.pi / 2.0
    y = rotated_block(values, rng)
    assert graph_window(y).ok
    gen = codiagonal_generator(y, graph_symmetry(np.eye(n)))
    c, mask = _chart_grid(gen, np.linspace(0.0, 1.0, 201), RANK_RTOL)
    assert mask.all()
    assert np.min(_chart_margin(c)) >= 0.99 * math.sin(GRAPH_WINDOW_TOL)


def identity_base_generator(way, n, rng):
    """A generator at the identity graph, built one of four ways."""
    base = graph_symmetry(np.eye(n))
    structure = ComplexStructure.standard(n)
    y = rotated_block(rng.uniform(-math.pi / 2.0, math.pi / 2.0, n), rng)
    if way == "codiagonal_generator":
        return codiagonal_generator(y, base)
    if way == "GeodesicGenerator":
        return GeodesicGenerator(np.block([[np.zeros((n, n)), y], [-y, np.zeros((n, n))]]),
                                 base, structure)
    if way == "connect":
        return connect(base, graph_symmetry(rotated_block(rng.uniform(-5.0, 5.0, n), rng)),
                       structure)
    # graph(-1) is antipodal to graph(1) along that direction: a pi-plane
    values = rng.uniform(-5.0, 5.0, n)
    values[0] = -1.0
    gen = connect(base, graph_symmetry(rotated_block(values, rng)), structure)
    alternates = alternate_generators(gen, limit=4)
    return alternates[int(rng.integers(len(alternates)))]


@THEOREM_CASES
@given(n=st.integers(1, 16), seed=st.integers(0, 2**32 - 1),
       way=st.sampled_from(["codiagonal_generator", "GeodesicGenerator", "connect",
                            "alternate_generators"]))
def test_graph_safe_radius_flow_stays_off_the_cutoff(n, seed, way):
    gen = identity_base_generator(way, n, np.random.default_rng(seed))
    radius = graph_safe_radius(gen)
    c, mask = _chart_grid(gen, np.linspace(0.0, radius * (1.0 - 1e-3), 201), RANK_RTOL)
    assert mask.all()
    assert np.min(_chart_margin(c)) >= 0.99 * math.sin(math.pi / 4.0 * 1e-3)


def test_gap_distance_frozen_and_monotone():
    n = 3
    zero = np.zeros((n, n))
    assert gap_distance(zero, zero) == 0.0
    assert abs(gap_distance(zero, np.eye(n)) - math.sqrt(2) / 2) < 1e-12
    # gap(0, lam I) = lam / sqrt(1 + lam^2), increasing toward 1
    gaps = [gap_distance(zero, lam * np.eye(n)) for lam in (1.0, 10.0, 100.0)]
    for lam, g in zip((1.0, 10.0, 100.0), gaps):
        assert abs(g - lam / math.sqrt(1 + lam * lam)) < 1e-12
    assert gaps[0] < gaps[1] < gaps[2] < 1.0


def test_gap_distance_refuses_operators_of_different_sizes():
    with pytest.raises(InvariantViolation, match="gap_distance: operator sizes differ"):
        gap_distance(np.eye(2), np.eye(3))


def test_gap_distance_triangle_inequality():
    rng = np.random.default_rng(SEED + 5)
    for _ in range(10):
        a = random_symmetric(2, rng)
        b = random_symmetric(2, rng)
        c = random_symmetric(2, rng)
        assert gap_distance(a, c) <= gap_distance(a, b) + gap_distance(b, c) + 1e-12


# ---------------------------------------------------------------------------
# Cayley transform and spectral curve


def test_cayley_transform_frozen_values():
    ct0 = cayley_transform(np.zeros((2, 2)))
    assert np.allclose(ct0.eigenphases, math.pi)
    assert max_abs(np.abs(ct0.matrix + np.eye(2))) < 1e-14
    ct1 = cayley_transform(np.eye(2))
    assert np.allclose(ct1.eigenphases, -math.pi / 2)
    assert max_abs(np.abs(ct1.matrix + 1j * np.eye(2))) < 1e-14


def test_cayley_transform_scalar_identity():
    rng = np.random.default_rng(SEED + 6)
    lams = rng.standard_normal(6) * 2.0
    ct = cayley_transform(np.diag(np.sort(lams)))
    for lam, phase in zip(np.sort(lams), ct.eigenphases):
        want = -math.pi + 2.0 * math.atan(lam)
        if want <= -math.pi:
            want += 2.0 * math.pi
        assert abs(phase - want) < 1e-12
        direct = (lam - 1j) / (lam + 1j)
        assert abs(complex(math.cos(phase), math.sin(phase)) - direct) < 1e-12


@pytest.mark.parametrize("n", [1, 2, 8, 64, 128])
def test_cayley_transform_is_unitary_by_construction(n):
    # the image V diag((lam - i) / (lam + i)) V^T needs no unitarity check:
    # V is orthonormal to 1e-12 n and every factor has modulus 1
    rng = np.random.default_rng([SEED + 7, n])
    for scale in (1e-12, 1e-3, 1.0, 1e3, 1e12, 1e100):
        u = cayley_transform(random_symmetric(n, rng, scale)).matrix
        assert max_abs(np.abs(u @ u.conj().T - np.eye(n))) <= 1e-12 * n


@pytest.mark.parametrize("build", [graph_symmetry, graph_basis, cayley_transform])
def test_each_graph_operator_is_checked_for_symmetry_once(monkeypatch, build):
    a = random_symmetric(3, np.random.default_rng(SEED + 8))
    spy = CallSpy(monkeypatch)
    build(a)
    assert spy.symmetric_checks(a) == ["graph operator"]


def test_recover_operator_checks_the_recovered_operator_once(monkeypatch):
    eps = graph_symmetry(random_symmetric(3, np.random.default_rng(SEED + 9)))
    b = recover_operator(eps)
    spy = CallSpy(monkeypatch)
    assert np.array_equal(recover_operator(eps), b)
    assert spy.symmetric_checks(b) == ["recovered graph operator"]


def test_transformed_graph_checks_each_operator_once(monkeypatch):
    rng = np.random.default_rng(SEED + 10)
    u = random_complex_rotation(ComplexStructure.standard(3), rng, spread=0.5)
    a = random_symmetric(3, rng)
    b = transformed_graph_operator(u, a).operator
    spy = CallSpy(monkeypatch)
    transformed_graph_operator(u, a)
    assert spy.symmetric_checks(a) == ["graph operator"]
    assert spy.symmetric_checks(b) == ["recovered graph operator"]


def test_cli_graph_recover_checks_each_operator_once(tmp_path, capsys, monkeypatch):
    a = random_symmetric(3, np.random.default_rng(SEED + 11))
    path = tmp_path / "graph.json"
    path.write_text(json.dumps({"dim": 6, "subspace": {"graph_of": a.tolist()}}))
    spy = CallSpy(monkeypatch)
    assert main(["graph-recover", str(path)]) == 0
    b = np.array(json.loads(capsys.readouterr().out)["operator"])
    assert spy.symmetric_checks(a) == ["graph operator"]
    assert spy.symmetric_checks(b) == ["recovered graph operator"]


NON_SYMMETRIC = [[1.0, 2.0], [2.5, 3.0]]
NON_SYMMETRIC_MESSAGE = "graph operator: not symmetric (deviation 5.000e-01 > tolerance 6.000e-10)"


@pytest.mark.parametrize("build", [graph_symmetry, graph_basis, cayley_transform, gap_distance])
def test_non_symmetric_graph_operator_keeps_its_message(build):
    args = (NON_SYMMETRIC, np.eye(2)) if build is gap_distance else (NON_SYMMETRIC,)
    with pytest.raises(InvariantViolation) as info:
        build(*args)
    assert str(info.value) == NON_SYMMETRIC_MESSAGE


def test_cli_validate_refuses_a_non_symmetric_graph_operator(tmp_path, capsys):
    path = tmp_path / "graph.json"
    path.write_text(json.dumps({"dim": 4, "subspace": {"graph_of": NON_SYMMETRIC}}))
    assert main(["validate", str(path)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"invariant violation: {NON_SYMMETRIC_MESSAGE}\n"


def test_cayley_curve_constant_for_zero_block():
    gen = codiagonal_generator(np.zeros((2, 2)), graph_symmetry(np.eye(2)))
    res = cayley_curve(gen, np.linspace(-1.0, 1.0, 9))
    assert res.trivial_flow
    for s in res.samples:
        assert np.allclose(s.phases, -math.pi / 2, atol=1e-12)
    assert abs(res.det_phase_change) < 1e-12


def test_cayley_curve_scalar_drift():
    gen = codiagonal_generator(np.array([[0.3]]), graph_symmetry(np.eye(1)))
    ts = np.linspace(-1.0, 1.0, 11)
    res = cayley_curve(gen, ts)
    for s in res.samples:
        assert abs(s.phases[0] - (-math.pi / 2 - 0.6 * s.t)) < 1e-12
    assert res.trivial_flow
    assert abs(res.det_phase_change - (-1.2)) < 1e-12
    assert res.closed_form_max_error < 1e-10


def test_cayley_curve_near_boundary_margin():
    lam = math.pi / 4 - 1e-3
    gen = codiagonal_generator(np.array([[lam]]), graph_symmetry(np.eye(1)))
    res = cayley_curve(gen, np.linspace(-1.0, 1.0, 41))
    # closest approach to -1 happens at t = 1: gap = pi/2 - 2 lam = 2e-3
    assert res.trivial_flow
    assert res.min_gap > 2e-3 - 1e-12
    assert res.min_gap < 3e-3


def test_cayley_curve_names_first_failing_time():
    gen = codiagonal_generator(np.array([[-math.pi / 4]]),
                               graph_symmetry(np.eye(1)))
    with pytest.raises(NotAGraphError, match="t = 1"):
        cayley_curve(gen, [0.0, 0.5, 1.0])


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 16), scale=st.floats(0.1, 10.0), rotated=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
def test_cayley_image_and_chart_edge_read_off_the_conjugation_matrix(n, scale, rotated, seed):
    # for L = graph(f): (f - i)(f + i)^(-1) = -C, and the top block of an
    # orthonormal basis of L has singular values |1 + spec C| / 2
    rng = np.random.default_rng(seed)
    lam = scale * rng.uniform(-1.0, 1.0, n)
    q = np.linalg.qr(rng.standard_normal((n, n)))[0] if rotated else np.eye(n)
    f = (q * lam) @ q.T
    f = (f + f.T) / 2.0
    eps = graph_symmetry(f)
    c = conjugation_matrix(eps.matrix, ComplexStructure.standard(n))
    assert max_abs(np.abs(cayley_transform(f).matrix + c)) <= 1e-12
    top = subspace_from_symmetry(eps).basis[:n]
    sigma_min = np.linalg.svd(top, compute_uv=False)[-1]
    assert abs(sigma_min - np.min(np.abs(1.0 + np.linalg.eigvals(c))) / 2.0) <= 1e-12


@pytest.mark.parametrize("n", [2, 4, 12])
def test_cayley_curve_near_the_chart_edge(n):
    # a double eigenvalue 3e-7 inside -pi/4 in a rotated eigenbasis: the node
    # at t = 1 is inside the chart by 3e-7 and its graph operator is ~1e6
    y = near_edge_block(n)
    gen = codiagonal_generator(y, graph_symmetry(np.eye(n)))
    res = cayley_curve(gen, [0.0, 0.5, 1.0])
    assert res.closed_form_max_error <= 1e-12
    assert len(res.samples) == 3


def test_cayley_curve_requires_identity_graph_base():
    gen = codiagonal_generator(np.array([[0.3]]), vertical_symmetry(1))
    with pytest.raises(InvariantViolation):
        cayley_curve(gen, [0.0, 0.5])


if __name__ == "__main__":
    import sys

    sys.exit(pytest.main([__file__, "-v"]))
