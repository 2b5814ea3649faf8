"""A certified geodesic node is formed on first read.

While the generator's node certificate holds, `evaluate` returns the node
unformed: it keeps the generator and the phases e^{2it theta}, reports its
dimensions and its chart floor, and forms the 2n x 2n matrix the first time
`matrix` is read. `is_graph` on a node whose floor clears the cutoff forms
nothing. Every read of the matrix must give the checked node bitwise, and
every verdict and refusal stays the SVD's. The node-level finiteness scan
is replaced by the certificate and a scan of the phases, so a NaN or an inf
in the record must still be refused.
"""

import copy
import math
import pickle
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lagrass.errors import ComputationError, InvariantViolation, NotAGraphError
from lagrass.geodesics import Geodesic, GeodesicGenerator, evaluate
from lagrass.graphs import is_graph, recover_operator
from lagrass.subspaces import Symmetry
from lagrass.tolerances import RANK_RTOL

from spies import CallSpy
from test_chart_certificate import PLANTS
from test_chart_floor import TS, flow, margin
from test_node_certificate import checked_node, generators, outcome

CERTIFIED = st.sampled_from(["identity", "connect", "off-unitary"])


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 16), kind=CERTIFIED,
       t=st.sampled_from(TS), factor=PLANTS)
def test_is_graph_forms_no_node_and_every_read_is_the_checked_node(seed, n, kind, t, factor):
    rng = np.random.default_rng(seed)
    gen = flow(kind, n, rng)
    assert gen._nodes.holds
    geo = Geodesic(gen)
    want = checked_node(gen, t)
    formed = Symmetry(want)
    m = margin(formed)
    for rank_rtol in (RANK_RTOL, factor * m):
        if not 0.0 < rank_rtol < 1.0:
            continue
        node = evaluate(geo, t)
        assert type(node) is Symmetry
        dims = node.ambient_dim, node.plus_dim
        inside = is_graph(node, rank_rtol)
        # a floor that clears the cutoff decides with no matrix; below it the
        # verdict is the SVD's
        assert ("matrix" not in vars(node)) == (node._chart_floor > rank_rtol)
        assert inside == (m > rank_rtol)
        assert node.matrix.tobytes() == want.tobytes()
        assert dims == (2 * n, formed.plus_dim)

    with pytest.MonkeyPatch.context() as patch:
        spy = CallSpy(patch)
        node = evaluate(geo, t)
        try:
            recover_operator(node)
        except (NotAGraphError, ComputationError):
            pass
        node.matrix
        assert spy.formed == [gen]
    assert node.matrix.tobytes() == want.tobytes()
    assert not node.matrix.flags.writeable

    # each of these on an unformed node gives the formed symmetry
    for op in (lambda e: e, copy.copy, copy.deepcopy, lambda e: pickle.loads(pickle.dumps(e))):
        node = evaluate(geo, t)
        got = op(node)
        assert type(got) is Symmetry
        assert got == formed and node == formed and formed == got
        assert got.matrix.tobytes() == want.tobytes()
    assert repr(evaluate(geo, t)) == repr(formed)


def test_an_uncertified_node_is_formed_and_checked_at_once(monkeypatch):
    rng = np.random.default_rng(2929)
    gens = [flow("rotated", 4, rng), flow("off-unitary", 4, rng)]
    gens[1] = GeodesicGenerator._from_record(gens[1].base, gens[1].structure,
                                             (1.0 + 1e-10) * gens[1].u, gens[1].theta)
    spy = CallSpy(monkeypatch)
    for gen in gens:
        assert not gen._nodes.holds
        node = evaluate(Geodesic(gen), 0.3)
        assert "matrix" in vars(node) and node._chart_floor == -math.inf
    assert spy.formed == gens
    assert spy.node_checks() == [("symmetric", "involutive")] * 2


# ---------------------------------------------------------------------------
# what replaces the node-level finiteness scan


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("kind", ["validated", "connect", "codiagonal"])
def test_a_record_with_a_non_finite_entry_is_not_certified(kind, bad):
    rng = np.random.default_rng(3030)
    gen = generators(kind, 3, False, rng)[0]
    u = gen.u.copy()
    u[1, 2] = bad
    with np.errstate(all="ignore"):
        broken = GeodesicGenerator._from_record(gen.base, gen.structure, u, gen.theta, gen.z)
        assert not broken._nodes.holds
        for t in (0.0, 0.4):
            assert outcome(lambda: evaluate(Geodesic(broken), t).matrix) == (
                InvariantViolation, "symmetry: entries must be finite")


@pytest.mark.parametrize("t", [1e300, -1e300, sys.float_info.max / 4.0,
                               -sys.float_info.max / 4.0])
@pytest.mark.parametrize("kind", ["validated", "connect", "codiagonal", "alternates"])
def test_the_largest_times_the_phase_guard_admits_form_finite_nodes(kind, t):
    # max / 4: 2 |t| ||z|| <= 2 (max / 4) (pi / 2) stays below the float range
    rng = np.random.default_rng(3131)
    gen = generators(kind, 4, False, rng)[-1]
    assert gen._nodes.holds
    node = evaluate(Geodesic(gen), t)
    assert "matrix" not in vars(node)
    assert np.isfinite(node.matrix).all()
    assert node.matrix.tobytes() == checked_node(gen, t).tobytes()
