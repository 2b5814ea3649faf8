"""The geodesic node certificate and the arrays it relies on.

Every node e^{2tz} eps0 of a geodesic inherits its only defects from the
generator's record, so `_node_certificate` bounds them once per generator
on the standard J. Where it holds, `evaluate` and the chart grid return their
nodes without the `Symmetry` check; where it fails, or J is not standard,
they run the check. The reference here is
that check run on every node: `Symmetry(eps0 + realify_conjugation(step))`
for `evaluate` and the stacked `_require_conjugation_symmetries` of `sample`
for the chart grid. A certified node must pass it, and every node, certified
or not, must come out (matrix or exception) exactly as the check gives it.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lagrass.complex_structure import (
    ComplexStructure,
    _complex_block,
    realify_conjugation,
    standard_form,
)
from lagrass.errors import InvariantViolation
from lagrass.geodesics import (
    Geodesic,
    GeodesicGenerator,
    _geodesic_steps,
    _node_certificate,
    alternate_generators,
    connect,
    distance,
    evaluate,
    sample,
)
from lagrass.graphs import (
    _chart_grid,
    cayley_curve,
    cayley_transform,
    codiagonal_generator,
    graph_symmetry,
    graph_window,
    transformed_graph_operator,
)
from lagrass.linalg import max_abs, principal_angles, spectral_decompose
from lagrass.sampling import random_horizontal, random_lagrangian
from lagrass.subspaces import (
    Projection,
    Subspace,
    Symmetry,
    _require_conjugation_symmetries,
    _require_symmetries,
    five_way_decompose,
)
from lagrass.tolerances import RANK_RTOL, SYM_RTOL

from reference_formulas import chart_mask_by_svd
from spies import CallSpy

SEED = 1818
EXAMPLES = settings(max_examples=30, deadline=None)
SEEDS = st.integers(0, 2**32 - 1)
KINDS = st.sampled_from(["validated", "connect", "codiagonal", "alternates"])
TIMES = st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=5).map(lambda ts: [0.0] + ts)


def rotated_structure(n, rng):
    q = np.linalg.qr(rng.standard_normal((2 * n, 2 * n)))[0]
    return ComplexStructure(q @ standard_form(n) @ q.T)


def generators(kind, n, rotated, rng):
    """Generators built one of four ways; the identity-graph flow of
    `codiagonal_generator` exists for the standard J only."""
    if kind == "codiagonal":
        q = np.linalg.qr(rng.standard_normal((n, n)))[0]
        y = (q * rng.uniform(-math.pi / 2.0, math.pi / 2.0, n)) @ q.T
        return [codiagonal_generator((y + y.T) / 2.0, graph_symmetry(np.eye(n)))]
    structure = rotated_structure(n, rng) if rotated else ComplexStructure.standard(n)
    e0 = random_lagrangian(structure, rng)
    if kind == "validated":
        z = random_horizontal(structure, e0, rng, norm=rng.uniform(0.0, math.pi / 2.0))
        return [GeodesicGenerator(z, e0, structure)]
    if kind == "connect":
        return [connect(e0, random_lagrangian(structure, rng), structure)]
    # the complement -eps0 lies at pi/2 in every direction: 2^n alternates
    return alternate_generators(connect(e0, Symmetry(-e0.matrix), structure), limit=4)


def outcome(fn):
    """("ok", bytes of the result) or (exception type, message)."""
    try:
        return "ok", np.asarray(fn()).tobytes()
    except Exception as exc:
        return type(exc), str(exc)


def checked_node(gen, t):
    """The node as the validating constructor builds it."""
    step = _geodesic_steps(gen, [float(t)])[0]
    return Symmetry(gen.base.matrix + realify_conjugation(step, gen.structure)).matrix


def assert_matches_the_check(gen, ts):
    """evaluate and the chart grid give what the check gives, and a
    certified generator's nodes all pass it."""
    certified = _node_certificate(gen).holds
    geo = Geodesic(gen)
    for t in ts:
        want = outcome(lambda: checked_node(gen, t))
        assert outcome(lambda: evaluate(geo, t).matrix) == want
        assert want[0] == "ok" or not certified
    if not gen.structure.is_standard():
        return
    want = outcome(lambda: _require_conjugation_symmetries(sample(geo, ts)))
    assert want[0] == "ok" or not certified
    if want[0] != "ok":
        assert outcome(lambda: _chart_grid(gen, ts, RANK_RTOL)) == want
    else:
        c, mask = _chart_grid(gen, ts, RANK_RTOL)
        assert np.array_equal(mask, chart_mask_by_svd(c, RANK_RTOL))


# ---------------------------------------------------------------------------
# certified generators


@EXAMPLES
@given(seed=SEEDS, n=st.integers(1, 16), kind=KINDS, rotated=st.booleans(), ts=TIMES)
def test_generators_are_certified_and_their_nodes_pass_the_check(seed, n, kind, rotated, ts):
    # only a standard-J generator is certified; on a rotated J every node
    # goes through the check, and comes out bit for bit the same
    rng = np.random.default_rng(seed)
    for gen in generators(kind, n, rotated, rng):
        assert _node_certificate(gen).holds == gen.structure.is_standard()
        geo = Geodesic(gen)
        for t in ts:
            node = evaluate(geo, t).matrix
            _require_symmetries(node)
            assert node.tobytes() == checked_node(gen, t).tobytes()
        assert np.array_equal(evaluate(geo, 0.0).matrix, gen.base.matrix)
        assert_matches_the_check(gen, ts)


@pytest.mark.parametrize("rotated", [False, True], ids=["standard-J", "rotated-J"])
@pytest.mark.parametrize("n", [1, 4, 64, 128])
def test_connect_is_certified_up_to_the_largest_size(n, rotated):
    rng = np.random.default_rng([SEED, n, rotated])
    structure = rotated_structure(n, rng) if rotated else ComplexStructure.standard(n)
    gen = connect(random_lagrangian(structure, rng), random_lagrangian(structure, rng), structure)
    assert _node_certificate(gen).holds == (not rotated)
    node = evaluate(Geodesic(gen), 0.4).matrix
    assert node.tobytes() == checked_node(gen, 0.4).tobytes()


# ---------------------------------------------------------------------------
# planted defects: certified, or checked exactly as before


@EXAMPLES
@given(seed=SEEDS, n=st.integers(1, 16), kind=KINDS, rotated=st.booleans(), ts=TIMES,
       delta=st.sampled_from([1e-14, 1e-12, 1e-11, 1e-10, 3e-10, 1e-9, 1e-8, 1e-6]),
       sign=st.sampled_from([-1.0, 1.0]))
def test_a_record_off_unitary_is_certified_or_checked(seed, n, kind, rotated, ts, delta, sign):
    rng = np.random.default_rng(seed)
    gen = generators(kind, n, rotated, rng)[-1]
    drift = GeodesicGenerator._from_record(gen.base, gen.structure, (1.0 + sign * delta) * gen.u,
                                           gen.theta)
    assert_matches_the_check(drift, ts)


def planted_base(gen, which, factor, rng):
    """The base matrix with an asymmetry at factor times a tolerance:
    "base" the base's own Symmetry tolerance, "certificate" the asymmetry the
    certificate accepts, SYM_RTOL sqrt(2n), and "commuting" the same in C0
    alone, by a symmetric change to the base's J-commuting part."""
    e = gen.base.matrix.copy()
    n = gen.structure.n
    m = 2 * n
    if which == "commuting" and n > 1:
        i, k = rng.choice(n, 2, replace=False)
        c0 = _complex_block(e, gen.structure)
        plant = np.zeros((m, m))
        plant[i, n + k] = plant[n + k, i] = (factor * SYM_RTOL * math.sqrt(m)
                                             - (c0[k, i] - c0[i, k]).imag)
        r = gen.structure.to_standard
        return e + r @ plant @ r.T
    tol = SYM_RTOL * m * max_abs(e) if which == "base" else SYM_RTOL * math.sqrt(m)
    i, j = rng.choice(m, 2, replace=False)
    shift = (factor * tol - (e[i, j] - e[j, i])) / 2.0
    e[i, j] += shift
    e[j, i] -= shift
    return e


@EXAMPLES
@given(seed=SEEDS, n=st.integers(1, 16), kind=KINDS, rotated=st.booleans(), ts=TIMES,
       which=st.sampled_from(["base", "certificate", "commuting"]),
       factor=st.sampled_from([1.0 - 1e-3, 1.0 + 1e-3]))
def test_a_base_asymmetry_at_the_tolerance_is_certified_or_checked(seed, n, kind, rotated, ts,
                                                                    which, factor):
    rng = np.random.default_rng(seed)
    gen = generators(kind, n, rotated, rng)[-1]
    base = Symmetry._certified(planted_base(gen, which, factor, rng))
    planted = GeodesicGenerator._from_record(base, gen.structure, gen.u, gen.theta)
    if which != "base" and factor > 1.0:
        assert not _node_certificate(planted).holds
    assert_matches_the_check(planted, ts)


@pytest.mark.parametrize("rotated", [False, True], ids=["standard-J", "rotated-J"])
@pytest.mark.parametrize("which", ["certificate", "commuting"])
@pytest.mark.parametrize("n", [2, 8, 16])
def test_an_asymmetry_past_the_bound_is_refused(n, which, rotated):
    rng = np.random.default_rng([SEED + 7, n, rotated])
    gen = generators("connect", n, rotated, rng)[0]
    base = Symmetry._certified(planted_base(gen, which, 1.0 + 1e-3, rng))
    planted = GeodesicGenerator._from_record(base, gen.structure, gen.u, gen.theta)
    assert not _node_certificate(planted).holds
    assert_matches_the_check(planted, [0.0, 0.4, -2.5])


@pytest.mark.parametrize("t", [1e308, -1e308])
def test_a_non_finite_node_is_refused_as_by_the_check(t):
    # 2 t overflows to inf, so the node would be NaN even on a certified
    # generator; every route refuses it with the check's message
    rng = np.random.default_rng(SEED + 1)
    gen = generators("connect", 3, False, rng)[0]
    assert _node_certificate(gen).holds
    with np.errstate(all="ignore"):
        want = outcome(lambda: checked_node(gen, t))
        assert want == (InvariantViolation, "symmetry: entries must be finite")
        assert outcome(lambda: evaluate(Geodesic(gen), t).matrix) == want
        assert outcome(lambda: _chart_grid(gen, [0.0, t], RANK_RTOL)) == want


# ---------------------------------------------------------------------------
# which checks run


def drifted(gen, delta):
    return GeodesicGenerator._from_record(gen.base, gen.structure, (1.0 + delta) * gen.u,
                                          gen.theta)


def test_evaluate_checks_no_certified_node(monkeypatch):
    rng = np.random.default_rng(SEED + 2)
    gen = generators("connect", 4, False, rng)[0]
    # U (1 + 2e-10): beyond the certificate's bound, inside the check's tolerance
    drift = drifted(gen, 2e-10)
    spy = CallSpy(monkeypatch)
    for t in (0.3, -1.7, 0.0):
        evaluate(Geodesic(gen), t)
    assert spy.checks == []
    assert spy.certified == [gen]
    evaluate(Geodesic(drift), 0.3)
    assert not drift._nodes.holds
    assert spy.node_checks() == [("symmetric", "involutive")]


def test_the_chart_grid_checks_no_certified_node(monkeypatch):
    rng = np.random.default_rng(SEED + 3)
    gen = generators("codiagonal", 4, False, rng)[0]
    ts = np.linspace(-1.0, 1.0, 50)
    spy = CallSpy(monkeypatch)
    _chart_grid(gen, ts, RANK_RTOL)
    assert spy.node_checks() == []
    assert spy.certified == [gen]
    _chart_grid(drifted(gen, 2e-10), ts, RANK_RTOL)
    assert spy.node_checks() == [("symmetric", "involutive")]


@pytest.mark.parametrize("rotated", [False, True], ids=["standard-J", "rotated-J"])
@pytest.mark.parametrize("n", [1, 4, 16])
def test_pairs_never_compute_the_certificate(monkeypatch, n, rotated):
    rng = np.random.default_rng([SEED + 4, n, rotated])
    structure = rotated_structure(n, rng) if rotated else ComplexStructure.standard(n)
    e0, e1 = random_lagrangian(structure, rng), random_lagrangian(structure, rng)
    spy = CallSpy(monkeypatch)
    connect(e0, e1, structure)
    distance(e0, e1, structure)
    five_way_decompose(e0, e1)
    assert spy.certified == []


# ---------------------------------------------------------------------------
# the arrays the certificate relies on, and every other validated array,
# are owned and read-only


def test_a_symmetry_keeps_its_own_copy():
    rng = np.random.default_rng(SEED + 5)
    structure = ComplexStructure.standard(2)
    m = random_lagrangian(structure, rng).matrix.copy()
    original = m.copy()
    e0 = Symmetry(m)
    geo = Geodesic(connect(e0, random_lagrangian(structure, rng), structure))
    before = sample(geo, [0.0, 0.5])
    m[0, 0] += 0.5
    assert np.array_equal(e0.matrix, original)
    assert np.array_equal(sample(geo, [0.0, 0.5]), before)
    _require_conjugation_symmetries(sample(geo, [0.0, 0.5]))


def test_a_later_write_to_the_input_does_not_reach_the_object():
    j = standard_form(2).copy()
    structure = ComplexStructure(j)
    j[0, 2] = 7.0
    assert structure.matrix[0, 2] == -1.0
    assert np.array_equal(structure.matrix, standard_form(2))
    b = np.eye(4)[:, :2].copy()
    subspace = Subspace(b)
    b[0, 0] = 5.0
    assert subspace.basis[0, 0] == 1.0
    p = np.diag([1.0, 0.0])
    projection = Projection(p)
    p[1, 1] = 3.0
    assert projection.matrix[1, 1] == 0.0


def test_in_place_writes_are_refused():
    rng = np.random.default_rng(SEED + 6)
    structure = rotated_structure(2, rng)
    e0 = random_lagrangian(structure, rng)
    gen = connect(e0, random_lagrangian(structure, rng), structure)
    arrays = {"symmetry": e0.matrix, "z": gen.z, "u": gen.u, "theta": gen.theta,
              "to_standard": structure.to_standard,
              "standard to_standard": ComplexStructure.standard(2).to_standard,
              "J": structure.matrix, "standard J": ComplexStructure.standard(2).matrix,
              "subspace basis": Subspace(np.eye(4)[:, :2]).basis,
              "projection": Projection(np.diag([1.0, 0.0])).matrix,
              "node": evaluate(Geodesic(gen), 0.5).matrix,
              "validated z": GeodesicGenerator(gen.z, e0, structure).z}
    for name, arr in arrays.items():
        with pytest.raises(ValueError, match="read-only"):
            arr[(0,) * arr.ndim] = 0.0


def test_value_objects_compare_by_value_and_stay_unhashable():
    rng = np.random.default_rng(SEED + 7)
    structure = rotated_structure(2, rng)
    e0, e1 = random_lagrangian(structure, rng), random_lagrangian(structure, rng)
    copy = ComplexStructure(structure.matrix.copy())
    gen = connect(e0, e1, structure)
    # (object, an equal one built from copies, a different one)
    triples = [
        (e0, Symmetry(e0.matrix.copy()), e1),
        (Subspace(np.eye(4)[:, :2]), Subspace(np.eye(4)[:, :2]), Subspace(np.eye(4)[:, 2:])),
        (Projection(np.diag([1.0, 0.0])), Projection(np.diag([1.0, 0.0])),
         Projection(np.diag([0.0, 1.0]))),
        (structure, copy, ComplexStructure.standard(2)),
        (gen, connect(Symmetry(e0.matrix.copy()), Symmetry(e1.matrix.copy()), copy),
         connect(e1, e0, structure)),
    ]
    for obj, same, other in triples:
        assert obj == same and not obj != same
        assert obj != other and not obj == other
        with pytest.raises(TypeError, match="unhashable"):
            hash(obj)


def _curve(k):
    return cayley_curve(codiagonal_generator((k + 1.0) * 0.1 * np.eye(2),
                                             graph_symmetry(np.eye(2))), [0.0, 0.5, 1.0])


def _random_pair(k):
    rng = np.random.default_rng(SEED + 8)
    pair = [random_lagrangian(ComplexStructure.standard(2), rng) for _ in range(2)]
    return pair if k == 0 else pair[::-1]


# each builds its result from fresh arrays: k = 0 twice gives two equal
# values, k = 1 a different one
RESULTS = {
    "CayleyTransform": lambda k: cayley_transform((k + 1.0) * np.eye(2)),
    "GraphWindowVerdict": lambda k: graph_window((k + 1.0) * 0.1 * np.eye(2)),
    "CayleyCurveSample": lambda k: _curve(k).samples[-1],
    "CayleyCurveResult": _curve,
    "FiveWayDecomposition": lambda k: five_way_decompose(*_random_pair(k)),
    "PrincipalAngles": lambda k: principal_angles(
        np.eye(3)[:, :1], np.array([[math.cos(k + 0.5)], [math.sin(k + 0.5)], [0.0]])),
    "SpectralDecomposition": lambda k: spectral_decompose(np.diag([1.0, 2.0 + k])),
    "TransformedGraph": lambda k: transformed_graph_operator(np.eye(4),
                                                             (k + 1.0) * 0.2 * np.eye(2)),
}


@pytest.mark.parametrize("name", RESULTS)
def test_results_compare_by_value_and_stay_unhashable(name):
    # == on two equal results used to raise ValueError ("truth value of an
    # array with more than one element is ambiguous")
    value, same, other = (RESULTS[name](k) for k in (0, 0, 1))
    assert type(value).__name__ == name and value is not same
    assert value == same and not value != same
    assert value != other and not value == other
    with pytest.raises(TypeError, match="unhashable"):
        hash(value)
