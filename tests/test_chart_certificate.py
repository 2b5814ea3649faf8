"""The chart grid's certified margin and its SVD fallback.

`_chart_grid` bounds each node's chart margin from below in the generator's
eigenbasis and runs the SVD of the top rows [Re C_t, Im C_t] (the
`is_graph` test) only on the nodes that bound does not certify inside. Its
mask must equal the stacked-SVD mask of every node
(`reference_formulas.chart_mask_by_svd`), and a flow away from the cutoff
must run no SVD at all.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import lagrass.graphs
from lagrass.cli import main
from lagrass.complex_structure import ComplexStructure
from lagrass.errors import InvariantViolation
from lagrass.geodesics import Geodesic, GeodesicGenerator, connect, evaluate
from lagrass.graphs import (
    _chart_grid,
    _chart_margin,
    cayley_curve,
    codiagonal_generator,
    graph_safe_radius,
    graph_symmetry,
    graph_window,
    is_graph,
)
from lagrass.sampling import random_lagrangian
from lagrass.subspaces import vertical_symmetry
from lagrass.tolerances import RANK_RTOL

from reference_formulas import chart_margin_by_svd, chart_mask_by_svd
from spies import CallSpy

SEED = 1616
EXAMPLES = settings(max_examples=40, deadline=None)
SEEDS = st.integers(0, 2**32 - 1)
# the factors that put rank_rtol at a node's SVD margin: 1e-9 below lies far
# outside the lower bound's band, 1e-15 off and exact lie inside it
PLANTS = st.sampled_from([1.0 - 1e-9, 1.0 - 1e-15, 1.0, 1.0 + 1e-15, 1.0 + 1e-9])


def rotated_block(values, rng):
    q = np.linalg.qr(rng.standard_normal((len(values), len(values))))[0]
    y = (q * np.asarray(values, dtype=float)) @ q.T
    return (y + y.T) / 2.0


def identity_flow(y):
    return codiagonal_generator(y, graph_symmetry(np.eye(len(y))))


def planted_block(rng, n, edges):
    """A rotated block with spectrum in [-pi/2, pi/2], the first entries set
    to the chart's edge values (-pi/4 meets -1 at t = 1, pi/2 at t = -1/2)."""
    values = rng.uniform(-math.pi / 2.0, math.pi / 2.0, n)
    values[:len(edges)] = edges[:n]
    return rotated_block(values, rng)


def assert_parity(gen, ts, rank_rtol):
    c, mask = _chart_grid(gen, ts, rank_rtol)
    assert np.array_equal(mask, chart_mask_by_svd(c, rank_rtol))
    return c


def planted_cutoff(gen, ts, node, factor):
    """rank_rtol at factor times the SVD margin of one grid node."""
    c = _chart_grid(gen, ts, RANK_RTOL)[0]
    rank_rtol = factor * float(chart_margin_by_svd(c[node % len(ts)]))
    assume(0.0 < rank_rtol < 1.0)
    return rank_rtol


GRID = st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0), st.integers(1, 60))
EDGES = st.sampled_from([(), (-math.pi / 4.0,), (math.pi / 2.0,),
                         (-math.pi / 4.0, math.pi / 2.0), (-math.pi / 4.0, -math.pi / 4.0)])


# ---------------------------------------------------------------------------
# parity with the stacked SVD


@EXAMPLES
@given(seed=SEEDS, n=st.integers(1, 16), edges=EDGES, grid=GRID)
def test_identity_flow_mask_equals_the_svd_mask(seed, n, edges, grid):
    rng = np.random.default_rng(seed)
    gen = identity_flow(planted_block(rng, n, edges))
    assert_parity(gen, np.linspace(*grid), RANK_RTOL)


@pytest.mark.parametrize("n", [1, 3, 8, 16])
def test_edge_nodes_are_outside_on_both_paths(n):
    # t mu = -pi/4 puts -1 in spec C_t: the node at t = 1 has margin ~ eps
    rng = np.random.default_rng([SEED, n])
    gen = identity_flow(planted_block(rng, n, (-math.pi / 4.0, math.pi / 2.0)))
    ts = np.linspace(-2.0, 2.0, 41)
    c = assert_parity(gen, ts, RANK_RTOL)
    edge = ts == 1.0
    assert edge.sum() == 1 and not chart_mask_by_svd(c, RANK_RTOL)[edge].any()


@EXAMPLES
@given(seed=SEEDS, n=st.integers(1, 16), edges=EDGES, node=st.integers(0, 59),
       factor=PLANTS)
def test_mask_equals_the_svd_mask_at_a_planted_cutoff(seed, n, edges, node, factor):
    rng = np.random.default_rng(seed)
    gen = identity_flow(planted_block(rng, n, edges))
    ts = np.linspace(-2.0, 2.0, 50)
    assert_parity(gen, ts, planted_cutoff(gen, ts, node, factor))


@EXAMPLES
@given(seed=SEEDS, n=st.integers(1, 16), node=st.integers(0, 59), factor=PLANTS)
def test_mask_equals_the_svd_mask_at_a_non_identity_base(seed, n, node, factor):
    # the record comes from the general constructor's real form, not the
    # identity base's closed form; at a cutoff planted at a node's margin the
    # fallback decides that node
    rng = np.random.default_rng(seed)
    structure = ComplexStructure.standard(n)
    gen = connect(random_lagrangian(structure, rng), random_lagrangian(structure, rng), structure)
    ts = np.linspace(-2.0, 2.0, 50)
    assert_parity(gen, ts, RANK_RTOL)
    assert_parity(gen, ts, planted_cutoff(gen, ts, node, factor))


@EXAMPLES
@given(seed=SEEDS, n=st.integers(1, 16), edges=EDGES, node=st.integers(0, 49),
       factor=st.sampled_from([1.0 - 1e-12, 1.0 + 1e-12]))
def test_mask_equals_is_graph_at_a_cutoff_planted_at_a_node(seed, n, edges, node, factor):
    # the cutoff sits at the node's own top-row margin, as is_graph reads it
    # off the node's real form, so that node is decided by the SVD
    rng = np.random.default_rng(seed)
    gen = identity_flow(planted_block(rng, n, edges))
    geo = Geodesic(gen)
    ts = np.linspace(-2.0, 2.0, 50)
    rank_rtol = factor * float(_chart_margin(evaluate(geo, ts[node]).matrix[:n]))
    assume(0.0 < rank_rtol < 1.0)
    mask = _chart_grid(gen, ts, rank_rtol)[1]
    assert mask.tolist() == [is_graph(evaluate(geo, t), rank_rtol) for t in ts]


@pytest.mark.parametrize("n", [1, 4, 16])
def test_mask_equals_the_svd_mask_for_a_record_off_unitary(n):
    # U (1 + 1e-11) scales each margin read in its basis by 1 + 2e-11, far
    # beyond the rounding slack: only the eta term keeps the bracket sound
    rng = np.random.default_rng([SEED + 4, n])
    gen = identity_flow(rotated_block(rng.uniform(-0.7, 0.7, n), rng))
    drift = GeodesicGenerator._from_record(gen.base, gen.structure, (1.0 + 1e-11) * gen.u,
                                           gen.theta)
    ts = np.linspace(-1.0, 1.0, 21)
    c = assert_parity(drift, ts, RANK_RTOL)
    for node in (0, 7, 20):
        for factor in (1.0 - 1e-12, 1.0, 1.0 + 1e-12):
            assert_parity(drift, ts, factor * float(chart_margin_by_svd(c[node])))


@pytest.mark.parametrize("n", [2, 4, 16])
def test_mask_equals_the_svd_mask_on_scaled_non_unitary_nodes(monkeypatch, n):
    # the nodes of test_unitarity_check_refuses_nodes_the_chart_grid_accepts:
    # C_t (1 + 0.75 n 1e-10), symmetric and no longer unitary
    rng = np.random.default_rng([SEED + 1, n])
    gen = identity_flow(rotated_block(rng.uniform(-0.5, 0.5, n), rng))
    ts = np.linspace(-1.0, 1.0, 21)
    sample = lagrass.graphs.sample
    monkeypatch.setattr(lagrass.graphs, "sample",
                        lambda geo, grid: (1.0 + 0.75 * n * 1e-10) * sample(geo, grid))
    c = assert_parity(gen, ts, RANK_RTOL)
    for node in (0, 7, 20):
        for factor in (1.0 - 1e-9, 1.0, 1.0 + 1e-9):
            assert_parity(gen, ts, factor * float(chart_margin_by_svd(c[node])))


# ---------------------------------------------------------------------------
# the SVD runs only on undecided nodes


def write_block(tmp_path, y):
    path = tmp_path / "y.json"
    path.write_text(json.dumps({"matrix": np.asarray(y).tolist()}))
    return str(path)


@pytest.mark.parametrize("n", [1, 4, 16])
def test_flows_away_from_the_cutoff_run_no_svd(monkeypatch, tmp_path, capsys, n):
    rng = np.random.default_rng([SEED + 2, n])
    y = rotated_block(rng.uniform(-0.7, 1.5, n), rng)
    gen = identity_flow(y)
    inside = identity_flow(0.5 * y / np.max(np.abs(np.linalg.eigvalsh(y))))
    path = write_block(tmp_path, y)
    spy = CallSpy(monkeypatch)
    assert graph_window(rotated_block(rng.uniform(-0.7, 0.7, n), rng)).curve_verified
    graph_safe_radius(gen)
    cayley_curve(inside, np.linspace(-1.0, 1.0, 50))
    # the CLI samples the flow of y itself on [-1, 1]
    assert main(["spectral-curve", path, "--grid", "50"]) == 0
    assert spy.calls("svd") == []


@pytest.mark.parametrize("n", [1, 4, 16])
def test_a_node_inside_the_band_runs_one_svd_on_that_node(monkeypatch, tmp_path, capsys, n):
    # with the cutoff planted at node 17's margin, the lower bound certifies
    # every node whose margin clears it by more than its band (about 1e-13
    # relative) and leaves the k nodes at or below it to one (k, n, 2n) SVD
    rng = np.random.default_rng([SEED + 3, n])
    y = rotated_block(rng.uniform(-0.7, 0.7, n), rng)
    gen = identity_flow(y)
    ts = np.linspace(-1.0, 1.0, 50)
    c = _chart_grid(gen, ts, RANK_RTOL)[0]
    margins = chart_margin_by_svd(c)
    margin = float(margins[17])
    below = margins <= margin
    assert not np.any(~below & (margins <= margin * (1.0 + 1e-9)))
    k = int(below.sum())
    spy = CallSpy(monkeypatch)
    mask = _chart_grid(gen, ts, margin)[1]
    assert spy.calls("svd") == [("svd", (k, n, 2 * n))]
    assert np.array_equal(mask, ~below)
    assert not mask[17]
    # CLI spectral-curve with the cutoff planted at the same node
    spy.linalg.clear()
    code = main(["--tol-rank", repr(margin), "spectral-curve", write_block(tmp_path, y),
                 "--grid", "50"])
    assert spy.calls("svd") == [("svd", (k, n, 2 * n))]
    assert code == (0 if mask.any() else 4)
    if code == 0:
        out = capsys.readouterr().out
        assert json.loads(out[out.index("{"):])["skipped_times"] == np.sum(~mask)


# ---------------------------------------------------------------------------
# a finite block beyond pi/2 whose symmetrisation used to overflow


HUGE = 1e308 * np.eye(2)


def huge_at_the_vertical():
    z = np.zeros((4, 4))
    z[:2, 2:] = HUGE
    z[2:, :2] = -HUGE
    return GeodesicGenerator(z, vertical_symmetry(2), ComplexStructure.standard(2))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("build", [
    lambda: codiagonal_generator(HUGE, graph_symmetry(np.eye(2))),
    lambda: graph_window(HUGE),
    huge_at_the_vertical,
], ids=["codiagonal_generator", "graph_window", "GeodesicGenerator"])
def test_a_huge_finite_block_is_refused_by_its_norm(build):
    with pytest.raises(InvariantViolation, match="generator: operator norm exceeds pi/2"):
        build()


@pytest.mark.filterwarnings("error")
def test_cli_refuses_a_huge_finite_block_by_its_norm(tmp_path, capsys):
    assert main(["spectral-curve", write_block(tmp_path, HUGE)]) == 3
    captured = capsys.readouterr()
    assert captured.err == "invariant violation: generator: operator norm exceeds pi/2\n"
    assert captured.out == ""
