"""Spectral-curve phases read as Rayleigh quotients in the closed form's basis.

`cayley_curve` reads each node's eigenphases off diag(V^T u_t V), with V the
real eigenbasis of the half-space block y. The reference is a general
eigensolver on the same nodes (`reference_formulas.cayley_phases_by_eigvals`);
both lie within n CAYLEY_FORM_TOL of the closed form, and in practice agree
to rounding.
"""

import json
import math

import numpy as np
import pytest

import lagrass.graphs
from lagrass.cli import main
from lagrass.errors import ComputationError
from lagrass.geodesics import Geodesic, sample
from lagrass.graphs import cayley_curve, codiagonal_generator, graph_symmetry
from lagrass.tolerances import CAYLEY_FORM_TOL, PHASE_GAP_TOL, RANK_RTOL

from reference_formulas import cayley_phases_by_eigvals

SEED = 1313
AGREE = 1e-13

# criterion 10's spectral-curve input
CRITERION_10_BLOCK = [[0.3, 0.0], [0.0, -0.2]]


def rotated_block(values, rng):
    q = np.linalg.qr(rng.standard_normal((len(values), len(values))))[0]
    y = (q * np.asarray(values, dtype=float)) @ q.T
    return (y + y.T) / 2.0


def identity_flow(y):
    return codiagonal_generator(y, graph_symmetry(np.eye(len(y))))


def max_abs_diff(a, b):
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b))))


def assert_matches_reference(gen, ts):
    res = cayley_curve(gen, ts)
    phases, min_gap, det_change = cayley_phases_by_eigvals(sample(Geodesic(gen), ts))
    assert max_abs_diff([s.phases for s in res.samples], phases) <= AGREE
    assert abs(res.min_gap - min_gap) <= AGREE
    assert abs(res.det_phase_change - det_change) <= AGREE
    return res


def write_block(tmp_path, y):
    path = tmp_path / "y.json"
    path.write_text(json.dumps({"matrix": np.asarray(y).tolist()}))
    return str(path)


def spectral_curve_cli(capsys, path, grid):
    """Exit code, CSV rows as floats and verdict of CLI spectral-curve."""
    code = main(["spectral-curve", path, "--grid", str(grid)])
    out = capsys.readouterr().out
    if code:
        return code, None, None
    lines = out.splitlines()
    rows = [[float(x) for x in line.split(",")] for line in lines[1:grid + 1]]
    return code, np.array(rows), json.loads("\n".join(lines[grid + 1:]))


GRIDS = {
    "uniform through 0": np.linspace(-1.0, 1.0, 41),
    "uneven": np.array([-0.9, -0.31, 0.0, 0.0, 0.2, 0.77, 1.0]),
    "negative": np.linspace(-1.0, -0.05, 20),
}


@pytest.mark.parametrize("grid", sorted(GRIDS))
@pytest.mark.parametrize("n", [1, 2, 8, 16])
def test_phases_match_the_eigensolver(n, grid):
    rng = np.random.default_rng([SEED, n])
    y = rotated_block(rng.uniform(-0.75, 0.75, n), rng)
    assert_matches_reference(identity_flow(y), GRIDS[grid])


@pytest.mark.parametrize("n", [2, 8, 16])
def test_phases_match_the_eigensolver_on_repeated_eigenvalues(n):
    # one eigenvalue of multiplicity n // 2, zero twice, the rest spread
    rng = np.random.default_rng([SEED + 1, n])
    values = rng.uniform(-0.75, 0.75, n)
    values[: n // 2] = 0.4
    values[-2:] = 0.0
    assert_matches_reference(identity_flow(rotated_block(values, rng)),
                             GRIDS["uniform through 0"])


@pytest.mark.parametrize("n", [1, 2, 8])
def test_phases_match_the_eigensolver_beside_minus_one(n):
    # t mu = pi/4 - 5e-8 at t = 1 puts a phase 1e-7 from pi, below the gap
    # tolerance; t = -1 puts the node 5e-8 inside the chart edge
    rng = np.random.default_rng([SEED + 2, n])
    values = rng.uniform(-0.5, 0.5, n)
    values[0] = math.pi / 4.0 - 5e-8
    res = assert_matches_reference(identity_flow(rotated_block(values, rng)),
                                   np.linspace(-1.0, 1.0, 21))
    assert res.min_gap < PHASE_GAP_TOL
    assert not res.trivial_flow


def test_cli_rows_match_the_eigensolver(tmp_path, capsys):
    grid = 21
    code, rows, verdict = spectral_curve_cli(capsys, write_block(tmp_path, CRITERION_10_BLOCK),
                                             grid)
    assert code == 0
    ts = np.linspace(-1.0, 1.0, grid)
    phases, min_gap, det_change = cayley_phases_by_eigvals(
        sample(Geodesic(identity_flow(np.array(CRITERION_10_BLOCK))), ts))
    assert np.array_equal(rows[:, 0], ts)
    assert max_abs_diff(rows[:, 1:-1], phases) <= AGREE
    assert max_abs_diff(rows[:, -1], np.min(math.pi - np.abs(phases), axis=-1)) <= AGREE
    assert abs(verdict["min_gap"] - min_gap) <= AGREE
    assert abs(verdict["det_phase_change"] - det_change) <= AGREE


# ---------------------------------------------------------------------------
# a wrong node is still refused


def rotate_nodes(monkeypatch, delta):
    """Every node C_t becomes e^{i delta} C_t: still a symmetric unitary."""
    def rotated(geo, ts):
        return np.exp(1j * delta) * sample(geo, ts)

    monkeypatch.setattr(lagrass.graphs, "sample", rotated)


def test_rotated_nodes_fail_the_closed_form(monkeypatch, tmp_path, capsys):
    path = write_block(tmp_path, CRITERION_10_BLOCK)
    gen = identity_flow(np.array(CRITERION_10_BLOCK))
    rotate_nodes(monkeypatch, 1e-6)
    with pytest.raises(ComputationError, match="cayley_curve: closed-form residual"):
        cayley_curve(gen, np.linspace(-1.0, 1.0, 21))
    assert spectral_curve_cli(capsys, path, 21)[0] == 4


@pytest.mark.parametrize("n", [2, 8])
def test_slightly_rotated_nodes_keep_the_bound(monkeypatch, n):
    delta = 1e-10
    rng = np.random.default_rng([SEED + 3, n])
    gen = identity_flow(rotated_block(rng.uniform(-0.75, 0.75, n), rng))
    ts = np.linspace(-1.0, 1.0, 21)
    exact = np.array([s.phases for s in cayley_curve(gen, ts).samples])
    rotate_nodes(monkeypatch, delta)
    res = cayley_curve(gen, ts)
    phases = np.array([s.phases for s in res.samples])
    # the patched sampler: the reference reads the rotated nodes too
    reference = cayley_phases_by_eigvals(lagrass.graphs.sample(Geodesic(gen), ts))[0]
    assert max_abs_diff(phases, reference) <= n * CAYLEY_FORM_TOL
    # the phases are read off the nodes, not the closed form: each moved by delta
    assert max_abs_diff(phases - exact, delta) <= AGREE


def scale_nodes(monkeypatch, factor):
    """Every node C_t becomes factor C_t: symmetric, no longer unitary."""
    def scaled(geo, ts):
        return factor * sample(geo, ts)

    monkeypatch.setattr(lagrass.graphs, "sample", scaled)


@pytest.mark.parametrize("n", [2, 4, 16])
def test_unitarity_check_refuses_nodes_the_chart_grid_accepts(monkeypatch, tmp_path, capsys, n):
    # C_t (1 + delta), delta = 0.75 n 1e-10: C conj(C) - I = 2 delta stays
    # inside the involutive check's 2e-10 n, |u u^H - I| = 2 delta is beyond
    # the unitarity check's 1e-10 n
    rng = np.random.default_rng([SEED + 4, n])
    y = rotated_block(rng.uniform(-0.5, 0.5, n), rng)
    ts = np.linspace(-1.0, 1.0, 21)
    scale_nodes(monkeypatch, 1.0 + 0.75 * n * 1e-10)
    assert lagrass.graphs._chart_grid(identity_flow(y), ts, RANK_RTOL)[1].all()
    with pytest.raises(ComputationError, match="unitarity"):
        cayley_curve(identity_flow(y), ts)
    assert spectral_curve_cli(capsys, write_block(tmp_path, y), 21)[0] == 4
