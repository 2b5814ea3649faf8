"""The complexified curve kernel against the real-arithmetic reference.

`sample`, `evaluate` and `perturbed_curve` compute e^{2t(...)} eps0 from an
n x n Hermitian eigendecomposition, and `sampled_lengths` measures the
conjugation matrices C_t they return. The references here are the real
2n x 2n stack `expm_antisymmetric(...) @ eps0` and the eigenvalues of the
real 2n x 2n derivative, which the library no longer uses.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lagrass import complex_structure, geodesics, graphs, sampling
from lagrass.complex_structure import (
    ComplexStructure,
    conjugation_matrix,
    realify_conjugation,
    standard_form,
)
from lagrass.errors import InvariantViolation
from lagrass.geodesics import (
    Geodesic,
    GeodesicGenerator,
    _node_speeds,
    connect,
    evaluate,
    exponential_map,
    length,
    sample,
    sampled_lengths,
)
from lagrass.graphs import graph_symmetry
from lagrass.linalg import _speed_norms, expm_antisymmetric, max_abs
from lagrass.sampling import (
    perturbed_curve,
    random_complex_antisymmetric,
    random_horizontal,
    random_lagrangian,
)
from lagrass.subspaces import Symmetry

SEED = 31337
TOL = 1e-12
TS = np.linspace(0.0, 1.0, 41)


def rotated_structure(n, rng):
    q, _ = np.linalg.qr(rng.standard_normal((2 * n, 2 * n)))
    return ComplexStructure(q @ standard_form(n) @ q.T), q


def reference_curve(z, base, ts):
    t = np.asarray(ts, dtype=float)
    return expm_antisymmetric(2.0 * t[:, None, None] * z, validate=False) @ base


def reference_competitor(z, w, amplitude, base, ts):
    t = np.asarray(ts, dtype=float)
    rho = amplitude * np.sin(math.pi * t)
    gens = 2.0 * t[:, None, None] * (z + rho[:, None, None] * w)
    return expm_antisymmetric(gens, validate=False) @ base


def assert_matches_reference(gen, w, rng):
    geo = Geodesic(gen)
    base = gen.base.matrix
    c0 = conjugation_matrix(base, gen.structure)
    want = reference_curve(gen.z, base, TS)
    got = sample(geo, TS)
    assert np.array_equal(got[0], c0)
    assert max_abs(realify_conjugation(got, gen.structure) - want) <= TOL
    assert np.array_equal(evaluate(geo, 0.0).matrix, base)
    for i in (0, 7, len(TS) - 1):
        assert max_abs(evaluate(geo, TS[i]).matrix - want[i]) <= TOL
    amplitude = 0.2 + 0.4 * rng.random()
    competitor = perturbed_curve(gen, w, amplitude, TS)
    assert np.array_equal(competitor[0], c0)
    real = realify_conjugation(competitor, gen.structure)
    assert max_abs(real - reference_competitor(gen.z, w, amplitude, base, TS)) <= TOL


@pytest.mark.parametrize("rotated", [False, True], ids=["standard-J", "rotated-J"])
@pytest.mark.parametrize("n", [1, 2, 5, 16])
def test_random_pairs_match_reference(n, rotated):
    rng = np.random.default_rng([SEED, n, rotated])
    if rotated:
        structure, _ = rotated_structure(n, rng)
    else:
        structure = ComplexStructure.standard(n)
    e0 = random_lagrangian(structure, rng)
    e1 = random_lagrangian(structure, rng)
    gen = connect(e0, e1, structure)
    assert_matches_reference(gen, random_horizontal(structure, e0, rng), rng)


@pytest.mark.parametrize("rotated", [False, True], ids=["standard-J", "rotated-J"])
@pytest.mark.parametrize("n", [1, 2, 5, 16])
def test_zero_generator_is_the_constant_curve(n, rotated):
    rng = np.random.default_rng([SEED + 1, n, rotated])
    if rotated:
        structure, _ = rotated_structure(n, rng)
    else:
        structure = ComplexStructure.standard(n)
    e0 = random_lagrangian(structure, rng)
    gen = connect(e0, e0, structure)
    assert max_abs(gen.z) == 0.0
    c0 = conjugation_matrix(e0.matrix, structure)
    constant = np.broadcast_to(c0, (TS.size,) + c0.shape)
    assert np.array_equal(sample(Geodesic(gen), TS), constant)
    assert_matches_reference(gen, random_horizontal(structure, e0, rng), rng)


@pytest.mark.parametrize("rotated", [False, True], ids=["standard-J", "rotated-J"])
@pytest.mark.parametrize("n", [1, 2, 5, 16])
def test_cut_locus_generator_matches_reference(n, rotated):
    # graph(I) and graph(-I) are antipodal: every principal angle is pi/2
    rng = np.random.default_rng([SEED + 2, n, rotated])
    e0 = graph_symmetry(np.eye(n)).matrix
    e1 = graph_symmetry(-np.eye(n)).matrix
    structure = ComplexStructure.standard(n)
    if rotated:
        structure, q = rotated_structure(n, rng)
        e0, e1 = q @ e0 @ q.T, q @ e1 @ q.T
    gen = connect(Symmetry(e0), Symmetry(e1), structure)
    assert abs(gen.norm - math.pi / 2.0) <= 1e-12
    assert max_abs(realify_conjugation(sample(Geodesic(gen), [1.0]), structure)[0] - e1) <= TOL
    assert_matches_reference(gen, random_horizontal(structure, gen.base, rng), rng)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 6),
       norm=st.floats(0.0, math.pi / 2.0), w_norm=st.floats(0.0, 2.0))
def test_random_generators_on_rotated_structures_match_reference(seed, n, norm, w_norm):
    rng = np.random.default_rng(seed)
    structure, _ = rotated_structure(n, rng)
    e0 = random_lagrangian(structure, rng)
    z = np.zeros((2 * n, 2 * n))
    if norm > 0.0:
        z = random_horizontal(structure, e0, rng, norm=norm)
    # w only has to commute with J; it need not anticommute with the base
    w = random_complex_antisymmetric(structure, rng, norm=w_norm)
    assert_matches_reference(GeodesicGenerator(z, e0, structure), w, rng)


def test_perturbed_curve_refuses_directions_that_do_not_commute_with_j():
    rng = np.random.default_rng(SEED + 3)
    structure = ComplexStructure.standard(2)
    e0 = random_lagrangian(structure, rng)
    e1 = random_lagrangian(structure, rng)
    gen = connect(e0, e1, structure)
    j = structure.matrix
    a = rng.standard_normal((4, 4))
    a = (a - a.T) / 2.0
    off = (a - j @ a @ j.T) / 2.0          # antisymmetric, anticommutes with J
    assert max_abs(off + off.T) == 0.0 and max_abs(off @ j - j @ off) > 0.1
    horizontal = random_horizontal(structure, e0, rng)
    for bad in (off, horizontal + 0.1 * off, np.eye(4), np.zeros((3, 3))):
        with pytest.raises(InvariantViolation):
            perturbed_curve(gen, bad, 0.4, TS)


def test_curves_refuse_a_base_that_is_not_lagrangian():
    structure = ComplexStructure.standard(1)
    not_lagrangian = Symmetry(np.diag([1.0, 1.0]))
    with pytest.raises(InvariantViolation, match="base"):
        GeodesicGenerator(np.zeros((2, 2)), not_lagrangian, structure)
    with pytest.raises(InvariantViolation, match="base"):
        exponential_map(not_lagrangian, np.zeros((2, 2)), structure)


# ---------------------------------------------------------------------------
# speeds of the conjugation-matrix stacks


def reference_speeds(real_stack, dt, ks):
    """Schatten speeds of the real 2n x 2n curve: its fourth-order derivative
    (central inside, five-point one-sided at the ends) is symmetric, so the
    singular values are |eigenvalues|."""
    f = real_stack
    d = np.empty_like(f)
    d[2:-2] = f[:-4] - 8.0 * f[1:-3] + 8.0 * f[3:-1] - f[4:]
    d[0] = -25.0 * f[0] + 48.0 * f[1] - 36.0 * f[2] + 16.0 * f[3] - 3.0 * f[4]
    d[1] = -3.0 * f[0] - 10.0 * f[1] + 18.0 * f[2] - 6.0 * f[3] + f[4]
    d[-2] = 3.0 * f[-1] + 10.0 * f[-2] - 18.0 * f[-3] + 6.0 * f[-4] - f[-5]
    d[-1] = 25.0 * f[-1] - 48.0 * f[-2] + 36.0 * f[-3] - 16.0 * f[-4] + 3.0 * f[-5]
    values = np.abs(np.linalg.eigvalsh(d / (12.0 * dt)))
    return {k: _speed_norms(values, k) for k in ks}


def planted_generator(n, rotated, rng):
    """A geodesic from graph(I) whose principal angles include pi/2 and, for
    n > 1, 0 (at n = 1 a zero angle is the constant curve)."""
    angles = rng.uniform(0.1, 1.4, n)
    angles[-1] = math.pi / 2.0
    if n > 1:
        angles[0] = 0.0
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    b = (q * np.tan(angles + math.pi / 4.0)) @ q.T
    e0 = graph_symmetry(np.eye(n)).matrix
    e1 = graph_symmetry((b + b.T) / 2.0).matrix
    structure = ComplexStructure.standard(n)
    if rotated:
        structure, r = rotated_structure(n, rng)
        e0, e1 = r @ e0 @ r.T, r @ e1 @ r.T
    return connect(Symmetry(e0), Symmetry(e1), structure)


@pytest.mark.parametrize("rotated", [False, True], ids=["standard-J", "rotated-J"])
@pytest.mark.parametrize("n", [1, 2, 5, 16])
def test_node_speeds_match_the_real_derivative(n, rotated):
    # k >= 2 to 1e-12 of the top speed; k = 1 sums square roots of Gram
    # eigenvalues, and one near zero (the planted angle 0) carries sqrt(eps)
    rng = np.random.default_rng([SEED + 4, n, rotated])
    gen = planted_generator(n, rotated, rng)
    assert abs(gen.norm - math.pi / 2.0) <= 1e-12
    assert n == 1 or np.min(np.abs(gen.theta)) <= 1e-12
    dt = float(TS[1] - TS[0])
    ks = (1, 2, 3, 4, math.inf)
    w = random_horizontal(gen.structure, gen.base, rng)
    for stack in (sample(Geodesic(gen), TS), perturbed_curve(gen, w, 0.4, TS)):
        got = _node_speeds(stack, dt, ks)
        want = reference_speeds(realify_conjugation(stack, gen.structure), dt, ks)
        top = np.max(want[math.inf])
        for k in ks:
            bound = (1e-6 if k == 1 else 1e-12) * top
            assert np.max(np.abs(got[k] - want[k])) <= bound


@pytest.mark.parametrize("rotated", [False, True], ids=["standard-J", "rotated-J"])
def test_length_race_stays_half_size(monkeypatch, rotated):
    # sample and perturbed_curve hand sampled_lengths n x n conjugation
    # matrices; nothing in the race realifies them or solves a 2n x 2n
    # eigenproblem
    n = 3
    rng = np.random.default_rng([SEED + 5, rotated])
    structure = rotated_structure(n, rng)[0] if rotated else ComplexStructure.standard(n)
    e0 = random_lagrangian(structure, rng)
    gen = connect(e0, random_lagrangian(structure, rng), structure)
    w = random_horizontal(structure, e0, rng)
    sizes = []
    realified = []

    def spy(fn, log, size_of):
        def wrapped(*args, **kwargs):
            log.append(size_of(args))
            return fn(*args, **kwargs)
        return wrapped

    for name in ("eigh", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, spy(getattr(np.linalg, name), sizes,
                                                 lambda args: np.shape(args[0])[-1]))
    for module in (complex_structure, geodesics, graphs, sampling):
        for name in ("realify", "realify_conjugation"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name,
                                    spy(getattr(module, name), realified, lambda args: name))
    ts = np.linspace(0.0, 1.0, 200)
    dt = float(ts[1] - ts[0])
    ks = (math.inf, 2, 4)
    sampled_lengths(sample(Geodesic(gen), ts), dt, ks)
    sampled_lengths(perturbed_curve(gen, w, 0.4, ts), dt, ks)
    assert realified == []
    assert sizes and set(sizes) == {n}


# ---------------------------------------------------------------------------
# curve parameters must be finite: a NaN or infinite one would come out as NaN


NONFINITE = pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])


def _curve_case():
    rng = np.random.default_rng(SEED + 40)
    structure = ComplexStructure.standard(2)
    e0 = random_lagrangian(structure, rng)
    gen = connect(e0, random_lagrangian(structure, rng), structure)
    return gen, random_complex_antisymmetric(structure, rng)


@NONFINITE
def test_sampled_lengths_refuses_a_non_finite_step(bad):
    gen, _ = _curve_case()
    stack = sample(Geodesic(gen), np.linspace(0.0, 1.0, 9))
    with pytest.raises(InvariantViolation, match="dt must be positive and finite"):
        sampled_lengths(stack, bad, [math.inf, 2])


@NONFINITE
def test_sample_and_evaluate_refuse_a_non_finite_time(bad):
    gen, _ = _curve_case()
    with pytest.raises(InvariantViolation, match="grid times must be finite"):
        sample(Geodesic(gen), [0.0, bad])
    with pytest.raises(InvariantViolation, match="grid times must be finite"):
        evaluate(Geodesic(gen), bad)


@NONFINITE
def test_perturbed_curve_refuses_a_non_finite_amplitude_or_time(bad):
    gen, w = _curve_case()
    with pytest.raises(InvariantViolation, match="amplitude and grid times must be finite"):
        perturbed_curve(gen, w, bad, TS)
    with pytest.raises(InvariantViolation, match="amplitude and grid times must be finite"):
        perturbed_curve(gen, w, 0.1, [0.0, bad, 1.0])


@NONFINITE
def test_length_refuses_non_finite_ends(bad):
    gen, _ = _curve_case()
    for t0, t1 in ((0.0, bad), (bad, 1.0)):
        with pytest.raises(InvariantViolation, match="t0 and t1 must be finite"):
            length(Geodesic(gen), 2, t0, t1)
