"""The chart floor a certified geodesic node carries.

`evaluate` attaches to each certified node a lower bound on its top-row
chart margin, read off the generator's record in O(n)
(`geodesics._node_certificate`). `is_graph` and `recover_operator` answer
"inside" from it when it clears their cutoff, and run the SVD of
`_chart_margin` otherwise. The floor must never exceed that SVD margin, so
every verdict and every refusal stays the SVD's; the SVD must run only on
the nodes the floor leaves undecided.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from lagrass.complex_structure import ComplexStructure
from lagrass.errors import NotAGraphError
from lagrass.geodesics import Geodesic, connect, evaluate
from lagrass.graphs import _chart_margin, graph_symmetry, is_graph, recover_operator
from lagrass.sampling import random_lagrangian
from lagrass.subspaces import (
    Symmetry,
    projection_from_symmetry,
    subspace_from_symmetry,
    symmetry_from_projection,
    symmetry_from_subspace,
    vertical_symmetry,
)
from lagrass.tolerances import RANK_RTOL

from spies import CallSpy
from test_chart_certificate import PLANTS, identity_flow, rotated_block
from test_node_certificate import drifted, rotated_structure

SEED = 2424
FLOWS = st.sampled_from(["identity", "connect", "off-unitary", "rotated"])
TS = np.linspace(-2.0, 2.0, 21)


def flow(kind, n, rng):
    """An identity-graph flow, a minimal geodesic between random Lagrangians
    (on a rotated J for "rotated"), or an identity flow whose record is off
    unitarity by U (1 + 1e-11), still certified."""
    if kind in ("connect", "rotated"):
        structure = (rotated_structure(n, rng) if kind == "rotated"
                     else ComplexStructure.standard(n))
        return connect(random_lagrangian(structure, rng), random_lagrangian(structure, rng),
                       structure)
    gen = identity_flow(rotated_block(rng.uniform(-math.pi / 2.0, math.pi / 2.0, n), rng))
    return drifted(gen, 1e-11) if kind == "off-unitary" else gen


def margin(node):
    return float(_chart_margin(node.matrix[:node.ambient_dim // 2]))


def recover_refuses(node, rank_rtol):
    try:
        recover_operator(node, rank_rtol)
    except NotAGraphError:
        return True
    return False


# ---------------------------------------------------------------------------
# soundness: every verdict and refusal is the SVD's


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 16), kind=FLOWS,
       node=st.integers(0, len(TS) - 1), factor=PLANTS)
def test_the_floor_is_sound_and_every_verdict_is_the_svds(seed, n, kind, node, factor):
    rng = np.random.default_rng(seed)
    gen = flow(kind, n, rng)
    nodes = [evaluate(Geodesic(gen), t) for t in TS]
    margins = [margin(e) for e in nodes]
    for e, m in zip(nodes, margins):
        # a rotated J has no certificate, so its nodes carry no floor
        assert (e._chart_floor == -math.inf) == (kind == "rotated")
        assert e._chart_floor <= m
    rank_rtol = factor * margins[node]
    assume(0.0 < rank_rtol < 1.0)
    for e, m in zip(nodes, margins):
        inside = is_graph(e, rank_rtol)
        assert inside == (m > rank_rtol)
        if kind != "rotated":   # recover_operator reads the standard split only
            assert recover_refuses(e, rank_rtol) == (not inside)


# ---------------------------------------------------------------------------
# the SVD runs only where the floor leaves a node undecided


@pytest.mark.parametrize("n", [1, 4, 16])
def test_a_grid_filter_away_from_the_cutoff_runs_no_svd(monkeypatch, n):
    # spectrum inside (-pi/4, pi/4) by 0.05: every node on [-1, 1] has
    # margin at least sin(0.05), far above the cutoff
    rng = np.random.default_rng([SEED, n])
    geo = Geodesic(identity_flow(rotated_block(rng.uniform(-0.73, 0.73, n), rng)))
    spy = CallSpy(monkeypatch)
    kept = [t for t in np.linspace(-1.0, 1.0, 50) if is_graph(evaluate(geo, t))]
    for t in kept[::7]:
        recover_operator(evaluate(geo, t))
    assert len(kept) == 50
    assert spy.calls("svd") == []


@pytest.mark.parametrize("n", [1, 4, 16])
def test_a_node_planted_inside_the_band_runs_one_svd(monkeypatch, n):
    rng = np.random.default_rng([SEED + 1, n])
    geo = Geodesic(identity_flow(rotated_block(rng.uniform(-0.7, 0.7, n), rng)))
    node = evaluate(geo, 0.35)
    planted = margin(node)
    assert node._chart_floor < planted
    spy = CallSpy(monkeypatch)
    assert not is_graph(node, planted)
    assert spy.calls("svd") == [("svd", (n, 2 * n))]
    with pytest.raises(NotAGraphError):
        recover_operator(node, planted)
    assert spy.calls("svd") == [("svd", (n, 2 * n))] * 2


@pytest.mark.parametrize("kind", ["rotated", "uncertified"])
@pytest.mark.parametrize("n", [4, 16])
def test_an_uncertified_node_runs_one_svd_per_node(monkeypatch, n, kind):
    rng = np.random.default_rng([SEED + 2, n])
    if kind == "rotated":
        gen = flow("rotated", n, rng)
    else:
        # U (1 + 1e-10): beyond the certificate, inside the Symmetry check
        gen = drifted(flow("identity", n, rng), 1e-10)
        assert not gen._nodes.holds
    geo = Geodesic(gen)
    ts = np.linspace(-1.0, 1.0, 9)
    spy = CallSpy(monkeypatch)
    for t in ts:
        is_graph(evaluate(geo, t))
    assert spy.calls("svd") == [("svd", (n, 2 * n))] * len(ts)


def test_only_a_certified_node_carries_a_floor():
    rng = np.random.default_rng(SEED + 3)
    n = 3
    node = evaluate(Geodesic(flow("identity", n, rng)), 0.4)
    assert node._chart_floor > RANK_RTOL
    others = [Symmetry(node.matrix), symmetry_from_projection(projection_from_symmetry(node)),
              symmetry_from_subspace(subspace_from_symmetry(node)), graph_symmetry(np.eye(n)),
              vertical_symmetry(n), random_lagrangian(ComplexStructure.standard(n), rng),
              Symmetry._certified(node.matrix)]
    assert [e._chart_floor for e in others] == [-math.inf] * len(others)
    # the floor is not part of the value: == and repr read the matrix only
    assert node == others[-1] and Symmetry._certified(node.matrix, 0.5) == node
    assert repr(node) == repr(others[-1]) == repr(Symmetry(node.matrix))
