"""Public entries and CLI commands at the edge of the float range.

Operators are scaled up to the float maximum and down to the least
subnormal, spoiled with one NaN or infinite entry, and measured over times
and spacings at both ends of the range. Every call must return finite output
or refuse with a typed error (exit code 2-4 on the command line); a numpy
RuntimeWarning is an error in this suite, so a call that only warns fails.
`tests/test_single_node_kernels.py` covers the single-node entries and CLI
`validate` the same way.
"""

import contextlib
import dataclasses
import enum
import io
import json
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from lagrass.cli import main
from lagrass.complex_structure import ComplexStructure
from lagrass.errors import ComputationError, InvariantViolation
from lagrass.geodesics import (
    Geodesic,
    _node_speeds,
    _simpson_weights,
    connect,
    distance,
    length,
    sample,
    sampled_lengths,
)
from lagrass.graphs import cayley_transform, gap_distance, graph_symmetry, graph_window
from lagrass.linalg import expm_antisymmetric, schatten_norm, spectral_decompose
from lagrass.sampling import random_complex_antisymmetric, random_lagrangian_pair
from lagrass.subspaces import five_way_decompose
from test_geodesics import exact_standard_blocks
from test_single_node_kernels import LAGRASS_ERRORS, PROPERTY, SPECIAL

SEED = 2309
FLOAT_MAX = Fraction(np.finfo(float).max)
KS = [1, 2, math.inf]

SCALES = st.sampled_from([5e-324, 1e-310, 1e-300, 1e-160, 1e-8, 1.0, 1e8, 1e150, 1e160,
                          1e300, 1e307, 1.7e308])
TIMES = st.one_of(st.floats(-1.7e308, 1.7e308),
                  st.sampled_from([1.7e308, -1.7e308, 1e308, -1e308, 5e-324, 0.0, 1.0]))
SPACINGS = st.sampled_from([5e-324, 1e-308, 1e-150, 1e-3, 0.125, 1.0, 1e150, 1e300, 1.7e308])


def operator(rng, n, scale, special=None):
    """A random symmetric n x n operator with max|entry| = scale, and one
    entry (mirrored) set to special if given."""
    b = rng.standard_normal((n, n))
    a = b + b.T
    a = a / np.abs(a).max() * scale
    if special is not None:
        i, j = rng.integers(n, size=2)
        a[i, j] = a[j, i] = special
    return a


def assert_finite(out):
    """Every number in a result is finite: arrays, floats, and the fields of
    result records, recursively."""
    if dataclasses.is_dataclass(out):
        for f in dataclasses.fields(out):
            assert_finite(getattr(out, f.name))
    elif isinstance(out, dict):
        for value in out.values():
            assert_finite(value)
    elif isinstance(out, (list, tuple)):
        for value in out:
            assert_finite(value)
    elif not isinstance(out, (str, bool, enum.Enum)):
        assert np.isfinite(np.asarray(out)).all(), out


def finite_or_typed(call):
    """The call's result, checked finite, or None if it raised a typed lagrass error."""
    try:
        out = call()
    except LAGRASS_ERRORS:
        return None
    assert_finite(out)
    return out


def agrees_or_overflows(got, want, rtol, atol=0.0):
    """got is the Fraction want to rtol (plus atol, for subnormal results), or
    inf where want is beyond the float range; within 1 % of the float maximum
    either is taken."""
    if want > 1.01 * FLOAT_MAX:
        assert got == math.inf
    elif want < 0.99 * FLOAT_MAX:
        assert abs(Fraction(got) - want) <= rtol * want + Fraction(atol)
    else:
        assert got > 0.98 * FLOAT_MAX


# ---------------------------------------------------------------------------
# the defects this suite found, pinned


def unit_pair(n=2, seed=SEED):
    rng = np.random.default_rng([seed, n])
    structure, e0, e1 = random_lagrangian_pair(n, rng)
    return Geodesic(connect(e0, e1, structure))


def test_length_over_an_interval_whose_width_overflows():
    structure = ComplexStructure.standard(2)
    geo = Geodesic(connect(graph_symmetry(np.zeros((2, 2))),
                           graph_symmetry(np.diag([0.2, -0.1])), structure))
    speed = length(geo, math.inf)
    assert speed < 0.5
    # the width 2e308 overflows, the length 2e308 ||2z|| < 1e308 does not
    assert length(geo, math.inf, -1e308, 1e308) == 2.0 * (1e308 * speed)
    # a length beyond the float range is inf: ||2z|| = pi/2 here
    far = Geodesic(connect(graph_symmetry(np.zeros((2, 2))),
                           graph_symmetry(np.diag([1.0, -0.1])), structure))
    assert length(far, math.inf, -1e308, 1e308) == math.inf
    # a width that fits takes the product as before
    for k in (1, 2, math.inf):
        assert length(geo, k, 0.25, 1.0) == 0.75 * length(geo, k)
        assert length(geo, k, 0.0, 1e308) == 1e308 * length(geo, k)


def test_length_of_a_constant_curve_over_an_overflowing_width_is_zero():
    structure = ComplexStructure.standard(2)
    e0 = graph_symmetry(np.eye(2))
    assert length(Geodesic(connect(e0, e0, structure)), 1, -1.7e308, 1.7e308) == 0.0


@pytest.mark.parametrize("dt", [5e-324, 1e-308, 1e300, 1.7e308])
def test_sampled_lengths_do_not_depend_on_an_extreme_spacing(dt):
    # a length does not depend on the spacing the caller names
    c = sample(unit_pair(), np.linspace(0.0, 1.0, 9))
    want = sampled_lengths(c, 0.125, KS)
    got = sampled_lengths(c, dt, KS)
    for k in KS:
        assert abs(got[k] - want[k]) <= 4e-16 * want[k]


@pytest.mark.parametrize("scale", [1e-300, 1e-200, 1e160, 1e300, 1e307, 1.7e308])
def test_sampled_lengths_scale_with_the_stack(scale):
    # C'^H C' under- or overflows at these scales unless the stack is rescaled
    c = sample(unit_pair(), np.linspace(0.0, 1.0, 9))
    c = c / np.abs(c.view(float)).max()     # max|entry| exactly 1
    want = sampled_lengths(c, 0.125, KS)
    got = sampled_lengths(c * scale, 0.125, KS)
    for k in KS:
        agrees_or_overflows(got[k], Fraction(scale) * Fraction(want[k]), 1e-15)


def test_sampled_lengths_beyond_the_float_range_are_inf():
    # entries alternating between the float extremes: every length is above the maximum
    big = np.where(np.arange(9)[:, None, None] % 2, 1.7e308, -1.7e308) * np.ones((9, 2, 2))
    assert sampled_lengths(big.astype(complex), 1.0, KS) == {k: math.inf for k in KS}


def test_sampled_lengths_at_normal_scales_are_unchanged_by_the_edge_path():
    # the power-of-two rescaling is exact: below the bound nothing is rescaled,
    # and a curve scaled by a power of two measures that power times its length
    c = sample(unit_pair(3), np.linspace(0.0, 1.0, 33))
    base = sampled_lengths(c, 1.0 / 32, KS)
    for e in (-40, 0, 40, 480):
        got = sampled_lengths(c * 2.0**e, 1.0 / 32, KS)
        assert got == {k: base[k] * 2.0**e for k in KS}


@pytest.mark.parametrize("scale", [1e-150, 1e-170, 1e-200, 1e-250, 1e-300])
def test_a_slow_curve_at_entries_of_order_one_keeps_its_length(scale):
    # one constant entry of 1 beside a geodesic moving at scale: max|C| is 1,
    # but C'^H C' underflows unless C' itself is rescaled
    c = sample(unit_pair(), np.linspace(0.0, 1.0, 9))
    slow = c * scale
    slow[:, 0, 0] = c[:, 0, 0] = 1.0
    want = sampled_lengths(c, 0.125, KS)
    got = sampled_lengths(slow, 0.125, KS)
    for k in KS:
        assert want[k] > 0.0
        assert abs(got[k] / scale - want[k]) <= 1e-14 * want[k]


@pytest.mark.parametrize("dt", [1.0 / 32, 0.1, 3.0])
def test_sampled_lengths_that_need_no_rescaling_are_the_speeds_integrated(dt):
    # bit for bit the per-node speeds of `_node_speeds` times Simpson's weights
    c = sample(unit_pair(3), np.linspace(0.0, 1.0, 33))
    got = sampled_lengths(c, dt, KS)
    speeds = _node_speeds(c, dt, KS)
    assert got == {k: float(speeds[k] @ (dt * _simpson_weights(33))) for k in KS}


def test_schatten_norm_overflow_is_inf_without_a_warning():
    a = [[0.0, 1.7e308], [1.7e308, 0.0]]
    assert schatten_norm(a, 1) == math.inf
    assert schatten_norm(a, 2) == math.inf
    assert schatten_norm(a, math.inf) == 1.7e308
    assert schatten_norm([[0.0, 0.8e308], [0.8e308, 0.0]], 1) == 1.6e308


@pytest.mark.parametrize("interleaved", [False, True])
@pytest.mark.parametrize("n", [2, 3, 8])
def test_expm_refuses_an_eigenvalue_beyond_the_float_range(n, interleaved):
    # max|z| = 1.7e308 puts |z|_2 beyond the float range. The validated call
    # once warned and returned NaN, which passes both of its comparisons; now
    # each reading of H refuses: the half-size H = B - iA of the block form,
    # and H = -iz of the same z with its coordinates interleaved
    z = random_complex_antisymmetric(ComplexStructure.standard(n), np.random.default_rng(2))
    z = z / np.abs(z).max() * 1.7e308
    if interleaved:
        order = np.arange(2 * n).reshape(2, n).T.ravel()
        z = z[np.ix_(order, order)]
        assert not exact_standard_blocks(z)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ComputationError,
                           match=r"^expm: an eigenvalue overflows the float range$"):
            expm_antisymmetric(z)


# ---------------------------------------------------------------------------
# property: the library entries


@PROPERTY
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 4), scale=SCALES,
       special=st.one_of(st.none(), SPECIAL), t0=TIMES, t1=TIMES, dt=SPACINGS,
       k=st.sampled_from([1, 2, 3, math.inf]))
def test_library_entries_return_finite_output_or_refuse(seed, n, scale, special, t0, t1,
                                                        dt, k):
    rng = np.random.default_rng(seed)
    a = operator(rng, n, scale, special)
    b = operator(rng, n, 1.0)
    for x in (a, b):
        finite_or_typed(lambda: spectral_decompose(x))
        finite_or_typed(lambda: cayley_transform(x))
        finite_or_typed(lambda: graph_window(x))
        if np.isfinite(x).all():
            # the norm of x, measured at a power-of-two scale where it cannot overflow
            e = math.frexp(np.abs(x).max())[1]
            want = Fraction(schatten_norm(np.ldexp(x, -e), k)) * Fraction(2)**e
            agrees_or_overflows(schatten_norm(x, k), want, 1e-14, atol=n * 2.0**-1070)
        else:
            finite_or_typed(lambda: schatten_norm(x, k))
    finite_or_typed(lambda: gap_distance(a, b))
    e0 = finite_or_typed(lambda: graph_symmetry(a))
    if e0 is None:
        return
    e1 = graph_symmetry(b)
    structure = ComplexStructure.standard(n)
    finite_or_typed(lambda: distance(e0, e1, structure))
    finite_or_typed(lambda: five_way_decompose(e0, e1))
    gen = finite_or_typed(lambda: connect(e0, e1, structure))
    if gen is None:
        return
    geo = Geodesic(gen)
    want = abs(Fraction(t1) - Fraction(t0)) * Fraction(length(geo, k))
    agrees_or_overflows(length(geo, k, t0, t1), want, 1e-15, atol=2.0**-1070)
    c = sample(geo, np.linspace(0.0, 1.0, 6))
    c = c / np.abs(c.view(float)).max()     # max|entry| exactly 1
    unit = sampled_lengths(c, 0.2, [k])[k]
    got = sampled_lengths(c * scale, dt, [k])[k]
    if scale >= 1e-290:     # below, scaling rounds the entries themselves
        agrees_or_overflows(got, Fraction(scale) * Fraction(unit), 1e-12)
    else:
        assert math.isfinite(got)
    if special is not None:
        spoiled = c.copy()
        spoiled[2, 0, 0] = special
        with pytest.raises(InvariantViolation, match="samples must be finite"):
            sampled_lengths(spoiled, dt, [k])


# ---------------------------------------------------------------------------
# property: the CLI commands

def assert_finite_json(text):
    json.loads(text, parse_constant=lambda token: pytest.fail(f"{token} in {text}"))


def assert_finite_csv(text):
    """Every value row (after the comment and column lines) is finite."""
    rows = [line for line in text.splitlines() if not line.startswith("#")][1:]
    assert np.isfinite([[float(x) for x in row.split(",")] for row in rows]).all(), text


def cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue()


@PROPERTY
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 3), scale=SCALES,
       special=st.one_of(st.none(), SPECIAL))
def test_cli_commands_exit_cleanly_at_the_float_edge(tmp_path_factory, seed, n, scale,
                                                     special):
    rng = np.random.default_rng(seed)
    tmp = tmp_path_factory.mktemp("edge")
    a = operator(rng, n, scale, special)
    # json writes NaN and Infinity as tokens the CLI's reader takes
    first, second, block = tmp / "first.json", tmp / "second.json", tmp / "block.json"
    first.write_text(json.dumps({"dim": 2 * n, "subspace": {"graph_of": a.tolist()}}))
    second.write_text(json.dumps({"dim": 2 * n,
                                  "subspace": {"graph_of": operator(rng, n, 1.0).tolist()}}))
    block.write_text(json.dumps({"matrix": a.tolist()}))
    pair = [str(first), str(second)]
    prefix = str(tmp / "run")
    for argv in (["connect", *pair], ["distance", *pair], ["decompose", *pair],
                 ["multiplicity", *pair, "--alternates"],
                 ["sample", *pair, "--k", "1", "--grid", "7", "--out-prefix", prefix],
                 ["graph-recover", str(first)], ["spectral-curve", str(block), "--grid", "5"]):
        code, out = cli(argv)
        assert code in (0, 2, 3, 4), argv
        if code == 0 and argv[0] == "spectral-curve":
            rows, brace, verdict = out.partition("{")
            assert_finite_csv(rows)
            assert_finite_json(brace + verdict)
        elif code == 0:
            assert_finite_json(out)
            for part in ("curve", "speed") if argv[0] == "sample" else ():
                assert_finite_csv((tmp / f"run_{part}.csv").read_text())
