"""The single-node kernels against the stacked and np.block forms they replace.

`evaluate` forms its one step U (e^{2it theta} - 1) U^T directly instead of
through the grid kernel `_geodesic_steps`; `realify` and `_graph_eps` fill
their 2n x 2n blocks by slice assignment; `_real_eigenbasis` visits only its
eigenvalue clusters. Each is checked against the form it replaces, and the
single-node entry points against inputs at the edge of the float range.
"""

import contextlib
import io
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lagrass.cli import main
from lagrass.complex_structure import (
    ComplexStructure,
    _real_eigenbasis,
    realify,
    realify_conjugation,
    standard_form,
)
from lagrass.errors import ComputationError, InvariantViolation
from lagrass.geodesics import Geodesic, _geodesic_steps, connect, evaluate, sample
from lagrass.graphs import _graph_eps, graph_symmetry, is_graph, recover_operator
from lagrass.sampling import (
    perturbed_curve,
    random_complex_antisymmetric,
    random_horizontal,
    random_lagrangian,
)
from lagrass.subspaces import Symmetry, _require_conjugation_symmetries
from reference_formulas import (
    graph_eps_by_blocks,
    real_eigenbasis_by_split,
    realify_by_blocks,
)

SEED = 2108
EPS = np.finfo(float).eps
LAGRASS_ERRORS = (InvariantViolation, ComputationError)


def structure_of(n, rotated, rng):
    if not rotated:
        return ComplexStructure.standard(n)
    q, _ = np.linalg.qr(rng.standard_normal((2 * n, 2 * n)))
    return ComplexStructure(q @ standard_form(n) @ q.T)


def random_generator(n, rotated, seed=SEED):
    rng = np.random.default_rng([seed, n, rotated])
    structure = structure_of(n, rotated, rng)
    e0 = random_lagrangian(structure, rng)
    return connect(e0, random_lagrangian(structure, rng), structure), rng


# ---------------------------------------------------------------------------
# evaluate: one node without the grid kernel


@pytest.mark.parametrize("rotated", [False, True], ids=["standard-J", "rotated-J"])
@pytest.mark.parametrize("n", [1, 2, 5, 16])
def test_evaluate_matches_the_stacked_node(n, rotated):
    gen, _ = random_generator(n, rotated)
    geo = Geodesic(gen)
    base = gen.base.matrix
    for t in (0.0, 0.3, -0.3, 1.0, 2.5):
        stacked = base + realify_conjugation(_geodesic_steps(gen, [t])[0], gen.structure)
        got = evaluate(geo, t).matrix
        assert np.abs(got - stacked).max() <= 4.0 * EPS
    assert np.array_equal(evaluate(geo, 0.0).matrix, base)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf, 1e308, -1e308])
def test_evaluate_refuses_what_sample_refuses(t):
    gen, _ = random_generator(2, False)
    with pytest.raises(InvariantViolation) as from_sample:
        sample(Geodesic(gen), [t])
    with pytest.raises(InvariantViolation, match=f"^{from_sample.value}$"):
        evaluate(Geodesic(gen), t)


# ---------------------------------------------------------------------------
# block assembly by slices


def same_bits(a, b):
    return np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


@pytest.mark.parametrize("rotated", [False, True], ids=["standard-J", "rotated-J"])
@pytest.mark.parametrize("n", [0, 1, 2, 5, 16])
def test_realify_matches_the_block_form(n, rotated):
    rng = np.random.default_rng([SEED, n, rotated, 1])
    structure = structure_of(n, rotated, rng)
    m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    m.real[rng.random((n, n)) < 0.3] = 0.0
    m.imag[rng.random((n, n)) < 0.3] = -0.0
    assert same_bits(realify(m, structure), realify_by_blocks(m, structure))
    assert same_bits(realify(m.real, structure), realify_by_blocks(m.real, structure))


@pytest.mark.parametrize("n", [0, 1, 2, 5, 16])
def test_graph_eps_matches_the_block_form(n):
    rng = np.random.default_rng([SEED, n, 2])
    b = rng.standard_normal((n, n))
    for a in (b + b.T, np.zeros((n, n)), np.eye(n), np.diag(rng.standard_normal(n))):
        got = _graph_eps(a)
        assert same_bits(got, graph_eps_by_blocks(a))
        assert not np.signbit(got[n:, n:][got[n:, n:] == 0.0]).any()


# ---------------------------------------------------------------------------
# the real eigenbasis, clusters only


def planted_unitary(phases, rng):
    q, _ = np.linalg.qr(rng.standard_normal((len(phases), len(phases))))
    c = (q * np.exp(1j * np.asarray(phases))) @ q.T
    return (c + c.T) / 2.0


PLANTED_PHASES = {
    "pair": [0.4, 0.4 + 1e-4, -1.2, 2.0],
    "triple": [-0.9, 0.5, 0.5 + 2e-4, 0.5 + 4e-4, 2.6],
    "straddles-pi": [math.pi - 1e-4, -math.pi + 1e-4, 0.3, -2.0],
    "two-clusters": [1.0, 1.0 + 3e-4, -0.5, -0.5 - 3e-4, -0.5 + 3e-4, 2.9],
    "no-cluster": [-2.5, -1.0, 0.2, 1.3, 2.8],
    "one": [0.7],
    "empty": [],
}


@pytest.mark.parametrize("name", sorted(PLANTED_PHASES))
def test_real_eigenbasis_matches_the_split_loop(name):
    rng = np.random.default_rng([SEED, len(PLANTED_PHASES[name]), 3])
    c = planted_unitary(PLANTED_PHASES[name], rng)
    o, phi = _real_eigenbasis(c)
    o_ref, phi_ref = real_eigenbasis_by_split(c)
    assert np.array_equal(o, o_ref) and np.array_equal(phi, phi_ref)
    planted = np.angle(np.exp(1j * np.asarray(PLANTED_PHASES[name])))
    assert np.abs(np.sort(phi) - np.sort(planted)).max(initial=0.0) <= 1e-9


# ---------------------------------------------------------------------------
# refusals at the edge of the float range


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("t", [1e308, -1e308])
def test_perturbed_curve_refuses_a_grid_whose_exponents_overflow(t):
    # the nodes used to come back non-finite after three numpy warnings
    gen, rng = random_generator(2, False)
    w = random_complex_antisymmetric(gen.structure, rng)
    with pytest.raises(InvariantViolation, match="^symmetry: entries must be finite$"):
        perturbed_curve(gen, w, 0.1, [0.0, t])


@pytest.mark.filterwarnings("error")
def test_perturbed_curve_guard_passes_a_grid_short_of_overflow():
    # the guard's bound 2 max|t| (pi + |amplitude| 2n max|w|) stays finite here
    gen, rng = random_generator(3, True)
    w = random_horizontal(gen.structure, gen.base, rng)
    c = perturbed_curve(gen, w, 0.1, [0.0, 0.25, 1e306, -3.0])
    assert np.isfinite(c).all() and c.shape == (4, 3, 3)


@pytest.mark.parametrize("seed", range(6))
def test_perturbed_curve_takes_a_horizontal_direction_at_the_float_edge(seed):
    # amplitude 0 gives the geodesic; the base check reads w / max|w|, so no
    # residual of w e + e w overflows to inf and refuses a horizontal w
    gen, rng = random_generator(4, False, seed)
    w = random_horizontal(gen.structure, gen.base, rng)
    ts = np.linspace(0.0, 1.0, 9)
    c = perturbed_curve(gen, w / np.abs(w).max() * 1.7e308, 0.0, ts)
    assert np.abs(c - sample(Geodesic(gen), ts)).max() <= 1e-12


@pytest.mark.filterwarnings("error")
def test_validate_refuses_an_overflowing_asymmetry_quietly(tmp_path, capsys):
    # the refusal used to follow "RuntimeWarning: overflow encountered in subtract"
    path = tmp_path / "doc.json"
    path.write_text(json.dumps({"dim": 4, "subspace": {
        "graph_of": [[0, 1.7e308], [-1.7e308, 0]]}}))
    assert main(["validate", str(path)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("invariant violation: graph operator: not symmetric "
                            "(deviation inf > tolerance 3.400e+298)\n")


@pytest.mark.filterwarnings("error")
def test_a_residual_that_overflows_to_nan_is_refused():
    # C conj(C) - I sums inf and -inf here: the NaN residual used to pass the check
    c = np.full((1, 2, 2), 1.7e308 + 1.7e308j)
    with pytest.raises(InvariantViolation, match=r"^symmetry: eps\^2 != I at matrix 0 of the "
                                                 r"stack \(deviation inf > tolerance"):
        _require_conjugation_symmetries(c)


# ---------------------------------------------------------------------------
# property: the single-node entry points at the edge of the float range

HUGE = st.sampled_from([1.0, 1e150, 1e200, 1e300, 1e307, 1.7e308])
SPECIAL = st.sampled_from([math.nan, math.inf, -math.inf])
TIMES = st.one_of(st.floats(-1e308, 1e308), st.sampled_from([1e308, -1e308, 0.0, 1.0]))
PROPERTY = settings(max_examples=25, deadline=None)


def spoiled(a, rng, scale, special, spoil):
    """a scaled toward the float maximum, with one special entry if asked."""
    a = np.asarray(a, dtype=float)
    top = np.abs(a).max()
    a = a / top * scale if top else a.copy()
    if spoil:
        a.flat[rng.integers(a.size)] = special
    return a


def finite_or_typed(call):
    """The call's result (or None if it raised a typed lagrass error)."""
    try:
        out = call()
    except LAGRASS_ERRORS:
        return None
    arr = out.matrix if isinstance(out, Symmetry) else np.asarray(out)
    assert np.isfinite(arr).all()
    return out


@PROPERTY
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 4), scale=HUGE, special=SPECIAL,
       spoil=st.booleans(), t=TIMES, amplitude=st.sampled_from([0.0, 0.1, 1e300]))
# w at 1.7e308: U^H H_w U formed from the unscaled w overflows in an add
@example(seed=0, n=1, scale=1.7e308, special=math.nan, spoil=False, t=0.5, amplitude=0.1)
def test_single_node_entries_return_finite_output_or_refuse(seed, n, scale, special, spoil,
                                                            t, amplitude):
    rng = np.random.default_rng(seed)
    gen, _ = random_generator(n, False, seed)
    geo = Geodesic(gen)
    finite_or_typed(lambda: evaluate(geo, t))
    finite_or_typed(lambda: sample(geo, [0.0, t]))
    # horizontal, so that the kernel runs at every n and is not only refused
    w = spoiled(random_horizontal(gen.structure, gen.base, rng), rng, scale, special, spoil)
    finite_or_typed(lambda: perturbed_curve(gen, w, amplitude, [0.0, 0.5, t]))
    b = rng.standard_normal((n, n))
    a = spoiled(b + b.T, rng, scale, special, spoil)
    eps = finite_or_typed(lambda: graph_symmetry(a))
    node = spoiled(evaluate(geo, 0.4).matrix, rng, scale, special, spoil)
    for s in (node, eps.matrix if eps is not None else node):
        finite_or_typed(lambda: np.asarray(is_graph(Symmetry(s)), dtype=float))
        finite_or_typed(lambda: recover_operator(Symmetry(s)))


@PROPERTY
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 3), scale=HUGE, special=SPECIAL,
       spoil=st.booleans(), kind=st.sampled_from(["graph_of", "symmetry", "projection"]),
       skew=st.booleans())
def test_cli_validate_exits_cleanly_at_the_float_edge(tmp_path_factory, seed, n, scale,
                                                      special, spoil, kind, skew):
    # a numpy RuntimeWarning is an error in this suite: it cannot pass as a clean exit
    rng = np.random.default_rng(seed)
    b = rng.standard_normal((n, n) if kind == "graph_of" else (2 * n, 2 * n))
    a = spoiled(b - b.T if skew else b + b.T, rng, scale, special, spoil)
    path = tmp_path_factory.mktemp("doc") / "doc.json"
    # json writes NaN and Infinity as tokens the CLI's reader takes
    path.write_text(json.dumps({"dim": 2 * n, "subspace": {kind: a.tolist()}}))
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(["validate", str(path)])
    assert code in (0, 2, 3, 4)
    if code == 0:
        assert json.loads(out.getvalue())["dim"] == 2 * n
