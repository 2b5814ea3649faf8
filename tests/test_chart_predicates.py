"""The graph-chart predicate and the identity-graph generator at half size.

`is_graph` reads the smallest singular value of the top n rows of the
projection; the reference reads it off an orthonormal basis of the subspace.
`codiagonal_generator` at the identity graph builds its record from one n x n
eigh; the reference is the validated `GeodesicGenerator` constructor. Neither
`is_graph` nor the spectral curve runs a general eigensolver.
"""

import json
import math

import numpy as np
import pytest

import lagrass.graphs
from lagrass.cli import main
from lagrass.complex_structure import ComplexStructure, conjugation_matrix, standard_form
from lagrass.errors import InvariantViolation
from lagrass.geodesics import Geodesic, GeodesicGenerator, evaluate, sample
from lagrass.graphs import (
    _chart_margin,
    _identity_graph,
    cayley_curve,
    codiagonal_generator,
    graph_symmetry,
    is_graph,
)
from lagrass.linalg import max_abs
from lagrass.sampling import random_lagrangian
from lagrass.subspaces import Subspace, Symmetry, symmetry_from_subspace, vertical_symmetry
from lagrass.tolerances import GENERATOR_ATOL, RANK_RTOL

from reference_formulas import graph_margin_by_basis

SEED = 1212


def rotated_block(values, rng):
    q = np.linalg.qr(rng.standard_normal((len(values), len(values))))[0]
    y = (q * np.asarray(values, dtype=float)) @ q.T
    return (y + y.T) / 2.0


def assert_matches_reference(s, standard_lagrangian=False):
    """is_graph agrees with the basis reference, at the default cutoff and
    at cutoffs 1e-12 on either side of the reference margin; for a symmetry
    s of a standard-J Lagrangian the margin is also `_chart_margin(C)`."""
    m = graph_margin_by_basis(s)
    assert is_graph(s) == (m > RANK_RTOL)
    if 1e-12 < m < 1.0 - 1e-12:
        assert is_graph(s, m - 1e-12)
        assert not is_graph(s, m + 1e-12)
    if standard_lagrangian:
        n = s.ambient_dim // 2
        c = conjugation_matrix(s.matrix, ComplexStructure.standard(n))
        margin = float(_chart_margin(c))
        assert abs(margin - m) <= 1e-12
        assert is_graph(s) == (margin > RANK_RTOL)
    return m


# ---------------------------------------------------------------------------
# is_graph against the basis reference


@pytest.mark.parametrize("rotated", [False, True], ids=["standard-J", "rotated-J"])
@pytest.mark.parametrize("n", [1, 2, 5, 16])
def test_is_graph_matches_reference_on_random_lagrangians(n, rotated):
    rng = np.random.default_rng([SEED, n, rotated])
    if rotated:
        q = np.linalg.qr(rng.standard_normal((2 * n, 2 * n)))[0]
        structure = ComplexStructure(q @ standard_form(n) @ q.T)
    else:
        structure = ComplexStructure.standard(n)
    for spread in (0.01, 0.3, 1.0, 3.0):
        for _ in range(3):
            eps = random_lagrangian(structure, rng, spread)
            assert_matches_reference(eps, standard_lagrangian=not rotated)


@pytest.mark.parametrize("scale", [0.1, 1.0, 1e3, 1e7])
@pytest.mark.parametrize("n", [1, 3, 8])
def test_is_graph_matches_reference_on_graphs_of_nonsymmetric_operators(n, scale):
    # such a graph is half-dimensional and a graph, but not Lagrangian
    rng = np.random.default_rng([SEED + 1, n])
    b = scale * rng.standard_normal((n, n))
    sub = Subspace.from_columns(np.vstack([np.eye(n), b]))
    m = assert_matches_reference(sub)
    assert m > 0.0


@pytest.mark.parametrize("n", [1, 2, 7])
def test_is_graph_refuses_the_vertical(n):
    assert graph_margin_by_basis(vertical_symmetry(n)) == 0.0
    assert_matches_reference(vertical_symmetry(n), standard_lagrangian=True)
    assert not is_graph(vertical_symmetry(n))


@pytest.mark.parametrize("n", [1, 2, 6])
def test_is_graph_matches_reference_along_a_flow_through_the_chart_edge(n):
    # a block with -pi/4 in its spectrum leaves the chart at t = 1
    rng = np.random.default_rng([SEED + 2, n])
    values = np.concatenate([[-math.pi / 4], rng.uniform(-0.7, 1.5, n - 1)])
    gen = codiagonal_generator(rotated_block(values, rng), graph_symmetry(np.eye(n)))
    geo = Geodesic(gen)
    ts = np.concatenate([np.linspace(0.0, 2.0, 41), [1.0 - 1e-6, 1.0 + 1e-6]])
    verdicts = []
    for t in ts:
        eps = evaluate(geo, float(t))
        assert_matches_reference(eps, standard_lagrangian=True)
        verdicts.append(is_graph(eps))
    assert verdicts[0] and verdicts[10]
    assert not verdicts[20]         # t = 1


@pytest.mark.parametrize("side", [-1, 1], ids=["below", "above"])
@pytest.mark.parametrize("n", [1, 2, 4])
def test_is_graph_at_a_planted_margin_beside_the_cutoff(n, side):
    # columns cos(a) e_1 + sin(a) e_{n+1}, e_2, ..., e_n: the graph of
    # diag(tan a, 0, ...) with top-block singular values cos a, 1, ..., 1,
    # carried by a rotation commuting with J so it stays Lagrangian
    rng = np.random.default_rng([SEED + 3, n, side + 1])
    sigma = RANK_RTOL * (1.0 + side * 1e-3)
    basis = np.zeros((2 * n, n))
    basis[:n] = np.eye(n)
    basis[0, 0] = sigma
    basis[n, 0] = math.sqrt(1.0 - sigma * sigma)
    r = np.linalg.qr(rng.standard_normal((n, n)))[0]
    rot = np.kron(np.eye(2), r)
    eps = symmetry_from_subspace(Subspace(rot @ basis))
    assert abs(graph_margin_by_basis(eps) - sigma) <= 1e-14
    assert is_graph(eps) == (side > 0)
    assert_matches_reference(eps, standard_lagrangian=True)


def test_is_graph_makes_no_eigh_and_builds_no_basis(monkeypatch):
    rng = np.random.default_rng(SEED + 4)
    structure = ComplexStructure.standard(3)
    subjects = [random_lagrangian(structure, rng), vertical_symmetry(3),
                graph_symmetry(np.diag([1.0, -2.0, 0.5]))]

    def refuse(*args, **kwargs):
        raise AssertionError("is_graph factored a matrix or built a basis")

    assert not hasattr(lagrass.graphs, "subspace_from_symmetry")
    for name in ("eigh", "eigvalsh", "eig", "eigvals"):
        monkeypatch.setattr(np.linalg, name, refuse)
    monkeypatch.setattr(Subspace, "__post_init__", refuse)
    assert [is_graph(s) for s in subjects] == [True, False, True]


def test_spectral_curve_runs_no_general_eigensolver(monkeypatch, tmp_path, capsys):
    # the phases are Rayleigh quotients in the closed form's real eigenbasis
    def refuse(*args, **kwargs):
        raise AssertionError("the spectral curve ran a general eigensolver")

    y = rotated_block([0.3, -0.2, 0.5], np.random.default_rng(SEED + 7))
    path = tmp_path / "y.json"
    path.write_text(json.dumps({"matrix": y.tolist()}))
    for name in ("eig", "eigvals"):
        monkeypatch.setattr(np.linalg, name, refuse)
    res = cayley_curve(codiagonal_generator(y, graph_symmetry(np.eye(3))),
                       np.linspace(-1.0, 1.0, 21))
    assert len(res.samples) == 21
    assert main(["spectral-curve", str(path), "--grid", "21"]) == 0
    header = capsys.readouterr().out.split("\n", 1)[0]
    assert header == "t,phase_0,phase_1,phase_2,min_gap_to_minus_one"


# ---------------------------------------------------------------------------
# the generator at the identity graph


@pytest.mark.parametrize("n", [1, 2, 8, 16])
def test_identity_base_generator_matches_the_constructor(n):
    rng = np.random.default_rng([SEED + 5, n])
    values = rng.uniform(-math.pi / 2, math.pi / 2, n)
    values[0] = math.pi / 2
    y = rotated_block(values, rng)
    base = graph_symmetry(np.eye(n))
    gen = codiagonal_generator(y, base)
    assert max_abs(gen.u @ gen.u.T - 1j * np.eye(n)) <= 1e-14

    z = np.zeros((2 * n, 2 * n))
    z[:n, n:] = y
    z[n:, :n] = -y
    assert np.array_equal(gen.z, z)
    ref = GeodesicGenerator(z, base, ComplexStructure.standard(n))
    assert max_abs(np.sort(gen.theta) - np.sort(ref.theta)) <= 1e-13
    assert abs(gen.norm - ref.norm) <= 1e-13
    ts = np.linspace(-1.0, 1.0, 9)
    assert max_abs(sample(Geodesic(gen), ts) - sample(Geodesic(ref), ts)) <= 1e-13


@pytest.mark.parametrize("base", ["identity", "vertical"])
@pytest.mark.parametrize("side", [-1, 1], ids=["inside", "outside"])
def test_generator_norm_slack_is_the_constructors(base, side):
    # the same bound pi/2 + GENERATOR_ATOL on the direct and the validated path
    rng = np.random.default_rng([SEED + 6, side + 1])
    y = rotated_block([math.pi / 2 + GENERATOR_ATOL * (1.0 + side * 1e-3), 0.2, -1.0], rng)
    eps = graph_symmetry(np.eye(3)) if base == "identity" else vertical_symmetry(3)
    if side < 0:
        assert codiagonal_generator(y, eps).norm > math.pi / 2
    else:
        with pytest.raises(InvariantViolation, match="generator: operator norm exceeds pi/2"):
            codiagonal_generator(y, eps)


def test_only_the_identity_graph_skips_the_constructor(monkeypatch):
    bases = []
    validate = GeodesicGenerator.__post_init__

    def spy(self):
        bases.append(self.base)
        validate(self)

    monkeypatch.setattr(GeodesicGenerator, "__post_init__", spy)
    y = np.diag([0.3, -0.2])
    codiagonal_generator(y, graph_symmetry(np.eye(2)))
    codiagonal_generator(y, Symmetry(_identity_graph(2)))
    assert bases == []
    # the vertical, a diagonal graph commuting with y, and a graph one ulp
    # off the identity all go through the validated constructor
    others = [vertical_symmetry(2), graph_symmetry(np.diag([2.0, 0.5])),
              graph_symmetry(np.diag([1.0, 1.0 + 2.0 ** -52]))]
    for eps in others:
        codiagonal_generator(y, eps)
    assert bases == others
