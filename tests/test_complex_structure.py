"""Tests for complex structures, the symplectic form, and (de)complexification."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lagrass.complex_structure
import lagrass.linalg
from lagrass.complex_structure import (
    _CLUSTER_GAP,
    _GAMMA,
    ComplexStructure,
    _real_eigenbasis,
    _wrap_phase,
    anticommutes_with_structure,
    commutes_with_structure,
    complexify,
    conjugation_matrix,
    is_complex_unitary,
    realify,
    realify_conjugation,
    standard_form,
)
from lagrass.errors import ComputationError, InvariantViolation
from lagrass.linalg import expm_antisymmetric, max_abs
from lagrass.sampling import random_complex_antisymmetric
from lagrass.tolerances import RECON_RTOL, SYM_RTOL
from reference_formulas import complex_inner_product, symplectic_form

SEED = 424242


def nonstandard_structure(n, seed=SEED):
    """Conjugate the standard structure by a random rotation."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((2 * n, 2 * n))
    q = expm_antisymmetric((a - a.T) / 2.0)
    return ComplexStructure(q @ standard_form(n) @ q.T)


def test_standard_form_action():
    j = standard_form(2)
    x = np.array([1.0, 2.0, 3.0, 4.0])
    # (x, y) -> (-y, x)
    assert np.allclose(j @ x, [-3.0, -4.0, 1.0, 2.0])


def test_structure_invariants_enforced():
    ComplexStructure(standard_form(3))
    with pytest.raises(InvariantViolation):
        ComplexStructure(np.eye(4))
    with pytest.raises(InvariantViolation):
        ComplexStructure(2.0 * standard_form(2))


def test_standard_recognition_and_conversion():
    s = ComplexStructure.standard(2)
    assert s.is_standard()
    assert max_abs(s.to_standard - np.eye(4)) == 0.0
    t = nonstandard_structure(3)
    assert not t.is_standard()
    r = t.to_standard
    assert max_abs(r.T @ t.matrix @ r - standard_form(3)) < 1e-10
    assert max_abs(r @ r.T - np.eye(6)) < 1e-12


@pytest.mark.parametrize("n", [0, 1, 2, 16])
def test_standard_is_the_validated_structure_without_checks(monkeypatch, n):
    want = ComplexStructure(standard_form(n))
    checks = []

    def spy(*args, **kwargs):
        checks.append(args[1])
        return check(*args, **kwargs)

    check = lagrass.linalg._check
    monkeypatch.setattr(lagrass.linalg, "_check", spy)
    monkeypatch.setattr(lagrass.complex_structure, "_check", spy)
    got = ComplexStructure.standard(n)
    assert checks == []
    for f in dataclasses.fields(ComplexStructure):
        a, b = getattr(got, f.name), getattr(want, f.name)
        assert type(a) is type(b)
        if isinstance(a, np.ndarray):
            assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())
        else:
            assert a == b
    ComplexStructure(standard_form(n))
    assert checks == ["J"]
    with pytest.raises(InvariantViolation, match="half-dimension must be nonnegative"):
        ComplexStructure.standard(-1)


def test_symplectic_form_antisymmetric_and_nondegenerate():
    s = ComplexStructure.standard(2)
    rng = np.random.default_rng(SEED)
    for _ in range(20):
        xi = rng.standard_normal(4)
        eta = rng.standard_normal(4)
        w1 = symplectic_form(s, xi, eta)
        w2 = symplectic_form(s, eta, xi)
        assert abs(w1 + w2) < 1e-12 * max(1.0, abs(w1))
        # w(xi, J xi) = |xi|^2 > 0 certifies nondegeneracy
        assert symplectic_form(s, xi, s.matrix @ xi) > 0.0


def test_complex_inner_product_hermitian():
    s = ComplexStructure.standard(3)
    rng = np.random.default_rng(SEED)
    xi = rng.standard_normal(6)
    eta = rng.standard_normal(6)
    h1 = complex_inner_product(s, xi, eta)
    h2 = complex_inner_product(s, eta, xi)
    assert abs(h1 - h2.conjugate()) < 1e-12
    self_product = complex_inner_product(s, xi, xi)
    assert abs(self_product.imag) < 1e-12
    assert self_product.real > 0.0


def test_commutation_predicates():
    s = ComplexStructure.standard(2)
    p = np.array([[0.0, 1.0], [-1.0, 0.0]])
    q = np.array([[2.0, 0.5], [0.5, -1.0]])
    commuting = np.block([[p, -q], [q, p]])    # antisymmetric by block shape
    assert commutes_with_structure(commuting, s)
    assert not anticommutes_with_structure(commuting, s)
    vertical = np.diag([-1.0, -1.0, 1.0, 1.0])
    assert anticommutes_with_structure(vertical, s)
    rot = expm_antisymmetric(0.3 * commuting)
    assert is_complex_unitary(rot, s)
    assert not is_complex_unitary(np.diag([1.0, 1.0, 1.0, -1.0]), s)


@pytest.mark.parametrize("predicate", [commutes_with_structure, anticommutes_with_structure,
                                       is_complex_unitary])
def test_structure_predicates_refuse_a_size_mismatch(predicate):
    with pytest.raises(InvariantViolation, match=f"{predicate.__name__}: dimension mismatch"):
        predicate(np.eye(4), ComplexStructure.standard(1))


def test_complexify_realify_round_trip_standard():
    s = ComplexStructure.standard(2)
    p = np.array([[0.0, 0.7], [-0.7, 0.0]])
    q = np.array([[1.0, 0.2], [0.2, -0.5]])
    a = np.block([[p, -q], [q, p]])
    m = complexify(a, s)
    assert max_abs(m.real - p) < 1e-14
    assert max_abs(m.imag - q) < 1e-14
    back = realify(m, s)
    assert max_abs(back - a) < 1e-14


def test_complexify_rejects_non_commuting():
    s = ComplexStructure.standard(2)
    with pytest.raises(InvariantViolation):
        complexify(np.diag([1.0, 2.0, 3.0, 4.0]), s)


def test_complexify_multiplicative_nonstandard():
    t = nonstandard_structure(2)
    rng = np.random.default_rng(SEED + 1)
    r = t.to_standard

    def random_commuting():
        g = rng.standard_normal((2, 2))
        h = rng.standard_normal((2, 2))
        p = (g - g.T) / 2.0
        q = (h + h.T) / 2.0
        return r @ np.block([[p, -q], [q, p]]) @ r.T

    a = random_commuting()
    b = random_commuting()
    ma = complexify(a, t)
    mb = complexify(b, t)
    prod = ma @ mb
    direct = complexify(a @ b, t)
    assert max_abs(np.abs(prod - direct)) < 1e-12
    # realify inverts complexify
    assert max_abs(realify(ma, t) - a) < 1e-12


def test_complex_matrix_adjoint_matches_transpose():
    # the complex matrix of a^T is the adjoint of the complex matrix of a
    rng = np.random.default_rng(SEED)
    m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    s = ComplexStructure.standard(3)
    a = realify(m, s)
    assert max_abs(np.abs(complexify(a.T, s) - m.conj().T)) == 0.0
    t = nonstandard_structure(3)
    b = realify(m, t)
    assert max_abs(np.abs(complexify(b.T, t) - m.conj().T)) < 1e-12


def test_conjugation_matrix_round_trip_and_refusal():
    # a Lagrangian symmetry is v -> C conj(v); one matrix or a stack
    rng = np.random.default_rng(SEED + 2)
    for structure in (ComplexStructure.standard(3), nonstandard_structure(3)):
        g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        u, _ = np.linalg.qr(g)
        c = u @ u.T  # symmetric unitary
        eps = realify_conjugation(c, structure)
        assert max_abs(eps - eps.T) < 1e-14
        assert max_abs(eps @ eps - np.eye(6)) < 1e-13
        assert anticommutes_with_structure(eps, structure)
        assert max_abs(np.abs(conjugation_matrix(eps, structure) - c)) < 1e-13
        stack = np.stack([eps, -eps])
        back = conjugation_matrix(stack, structure)
        assert back.shape == (2, 3, 3)
        assert max_abs(np.abs(back - np.stack([c, -c]))) < 1e-13
        assert max_abs(realify_conjugation(back, structure) - stack) < 1e-13
        with pytest.raises(InvariantViolation):
            conjugation_matrix(np.stack([eps, np.eye(6)]), structure)


def test_multiplication_by_j_is_multiplication_by_i():
    # complexify intertwines left-multiplication by J with multiplication by i
    s = ComplexStructure.standard(2)
    p = np.array([[0.0, 0.4], [-0.4, 0.0]])
    q = np.array([[0.9, 0.1], [0.1, 0.3]])
    a = np.block([[p, -q], [q, p]])
    lhs = complexify(s.matrix @ a, s)
    rhs = 1j * complexify(a, s)
    assert max_abs(np.abs(lhs - rhs)) < 1e-14


# ---------------------------------------------------------------------------
# real eigenbasis of a symmetric unitary


def _mirror(phi, shift=0.0):
    """A phase whose cos + gamma sin equals that of phi (shift 0) or differs
    from it by about shift, wrapped into (-pi, pi]."""
    centre = math.atan(_GAMMA)
    slope = math.hypot(1.0, _GAMMA) * abs(math.sin(phi - centre))
    value = 2.0 * centre - phi + shift / slope
    return math.pi - (math.pi - value) % (2.0 * math.pi)


PLANTED_PHASES = {
    "collision": lambda p: (p, _mirror(p)),
    "inside-cluster": lambda p: (p, _mirror(p, 0.5 * _CLUSTER_GAP)),
    "outside-cluster": lambda p: (p, _mirror(p, 1.01 * _CLUSTER_GAP)),
    "repeated": lambda p: (p, p, p),
    # equal Im C, Re C closer than the cluster gap
    "mirrored-about-i": lambda p: (math.pi / 2 - 1e-5 * p, math.pi / 2 + 1e-5 * p),
    "repeated-poles": lambda p: (0.0, 0.0, math.pi, math.pi),
}


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(4, 64), offset=st.floats(0.1, 1.4),
       kind=st.sampled_from(sorted(PLANTED_PHASES)))
def test_real_eigenbasis_separates_planted_phases(seed, n, offset, kind):
    # phases that tie or nearly tie in Re C + gamma Im C, and repeated ones,
    # must come out on a real orthogonal O with C = O e^{i phi} O^T
    rng = np.random.default_rng(seed)
    phi = rng.uniform(-math.pi, math.pi, n)
    planted = PLANTED_PHASES[kind](offset + math.atan(_GAMMA))
    phi[:len(planted)] = planted
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    c = (q * np.exp(1j * phi)) @ q.T
    o, got = _real_eigenbasis(c)
    # a near tie just outside a cluster mixes by up to 2 eps / _CLUSTER_GAP,
    # inside the routine's own reassembly bound RECON_RTOL * n
    assert max_abs(o.T @ o - np.eye(n)) <= 1e-13 * n
    assert max_abs(np.abs((o * np.exp(1j * got)) @ o.T - c)) <= RECON_RTOL * n
    assert np.all((got > -math.pi) & (got <= math.pi))
    # the same eigenvalues, matched one by one on the unit circle
    want = list(np.exp(1j * phi))
    for value in np.exp(1j * got):
        k = int(np.argmin(np.abs(np.array(want) - value)))
        assert abs(want.pop(k) - value) <= RECON_RTOL * n


def test_wrap_phase_is_each_former_wrap_bit_for_bit():
    # the three hand-written wraps it replaced, each on the phases it saw
    pi = math.pi
    ulp = math.ulp(pi)
    arctan2_range = np.array([-pi, -pi + ulp, -1.0, 0.0, -0.0, 1.0, pi - ulp, pi])
    former = arctan2_range.copy()
    former[former == -pi] = pi      # _real_eigenbasis
    assert _wrap_phase(arctan2_range).tobytes() == former.tobytes()
    assert _wrap_phase(np.array([-pi]))[0] == pi
    cayley_range = -pi + 2.0 * np.arctan(np.array([-1e300, -3.0, -1.0, 0.0, 1e-9, 1.0, 1e300]))
    former = np.where(cayley_range > -pi, cayley_range, cayley_range + 2.0 * pi)  # graphs
    assert _wrap_phase(cayley_range).tobytes() == former.tobytes()
    shifted = arctan2_range + np.array([[pi], [-pi / 2.0]])
    former = np.where(shifted > pi, shifted - 2.0 * pi, shifted)     # CLI graph-recover
    former = np.where(former <= -pi, former + 2.0 * pi, former)
    assert _wrap_phase(shifted).tobytes() == former.tobytes()
    assert np.all((-pi < _wrap_phase(shifted)) & (_wrap_phase(shifted) <= pi))


# ---------------------------------------------------------------------------
# the one J-residual: blocks in J's standard split


def dense_residual(a, j, kind):
    return a @ j - j @ a if kind == "commutes" else a @ j + j @ a


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(0, 64),
       stack=st.sampled_from([(), (1,), (3,)]), low=st.integers(-200, 200),
       span=st.integers(0, 40), kind=st.sampled_from(["commutes", "anticommutes"]))
def test_the_block_residual_is_the_dense_one_bitwise(seed, n, stack, low, span, kind):
    # entries at scales 10^low ... 10^(low + span) within [1e-200, 1e200], a
    # fifth of them signed zeros: |a J -+ J a| read off the blocks equals the
    # dense products' bit for bit
    rng = np.random.default_rng(seed)
    shape = stack + (2 * n, 2 * n)
    exponents = rng.uniform(low, min(low + span, 200), shape)
    a = rng.standard_normal(shape) * 10.0 ** exponents
    zeros = rng.random(shape) < 0.2
    a[zeros] = np.where(rng.random(shape) < 0.5, 0.0, -0.0)[zeros]
    for structure in (ComplexStructure.standard(n), ComplexStructure(standard_form(n))):
        got = structure._residual(a, kind)
        assert got.shape == a.shape
        assert np.abs(got).tobytes() == np.abs(dense_residual(a, standard_form(n), kind)).tobytes()


def planted_in_the_split(which, n, factor, rng):
    """An operator b of the standard split whose identity with J sits at
    factor times its tolerance SYM_RTOL * 2n * max|b|: a symmetry a plane
    rotation away from the vertical one ("lagrangian"), or one planted entry
    of I ("commutes") or of diag(-I, I) ("conjugation")."""
    m = 2 * n
    tol = SYM_RTOL * m
    if which == "lagrangian":
        # the rotation in the plane (e_i, e_{n+k}), i != k, does not commute
        # with J: to first order in t the residual is t times that of
        # [x, b0], and t ~ 1e-9 leaves t^2 far below the 1e-3 margin
        i, k = rng.choice(n, 2, replace=False)
        x = np.zeros((m, m))
        x[n + k, i], x[i, n + k] = 1.0, -1.0
        b0 = np.diag(np.concatenate([-np.ones(n), np.ones(n)]))
        slope = max_abs(ComplexStructure.standard(n)._residual(x @ b0 - b0 @ x, "anticommutes"))
        g = expm_antisymmetric(factor * tol / slope * x)
        return g @ b0 @ g.T
    b = np.eye(m) if which == "commutes" else np.diag(np.concatenate([-np.ones(n), np.ones(n)]))
    i = rng.integers(n)
    b[i, i] += factor * tol if which == "conjugation" else -factor * tol
    return b


def verdict_of(which, a, structure):
    """is_lagrangian or commutes_with_structure of a, or conjugation_matrix
    of the stack [a, a], False where it refuses."""
    from lagrass.subspaces import Symmetry, is_lagrangian

    if which == "lagrangian":
        return is_lagrangian(Symmetry(a), structure)
    if which == "commutes":
        return commutes_with_structure(a, structure)
    try:
        return conjugation_matrix(np.stack([a, a]), structure)
    except InvariantViolation as exc:
        assert str(exc) == "conjugation matrix: operator does not anticommute with J"
        return False


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 8),
       which=st.sampled_from(["lagrangian", "commutes", "conjugation"]),
       factor=st.sampled_from([1.0 - 1e-3, 1.0 + 1e-3]))
def test_a_rotated_j_takes_its_verdicts_in_the_standard_split(seed, n, which, factor):
    # the identities with J are measured on R^T a R, R = to_standard: a
    # rotated J accepts or refuses an operator planted at 0.999 or 1.001 of
    # the tolerance in its split exactly as the standard J does on R^T a R.
    # Max-abs is not rotation-invariant, so in the caller's coordinates the
    # same operator can sit anywhere from about half to three times as far
    # from its tolerance
    if which == "lagrangian" and n == 1:
        n = 2
    rng = np.random.default_rng(seed)
    rotated = nonstandard_structure(n, seed)
    r = rotated.to_standard
    a = r @ planted_in_the_split(which, n, factor, rng) @ r.T
    got = verdict_of(which, a, rotated)
    want = verdict_of(which, r.T @ a @ r, ComplexStructure.standard(n))
    if which != "conjugation":
        assert got == want == (factor < 1.0)
        return
    assert (got is False) == (want is False) == (factor > 1.0)
    if want is not False:
        assert max_abs(got - want) <= 1e-14


def test_a_snapped_j_moves_the_residual_by_at_most_its_offset():
    # within 1e-12 of the standard form J is standard: its change of basis is
    # I and its residual the block one of standard_form(n). That moves the
    # dense residual of the J itself by at most 2 dim off max|a|, off =
    # max|J - standard_form(n)| <= 1e-12: 2 % of the tolerance
    # SYM_RTOL dim max|a| (plus the rounding of the dense products)
    assert 2e-12 == pytest.approx(0.02 * SYM_RTOL)
    rng = np.random.default_rng(SEED)
    for n in (1, 3, 8):
        dim = 2 * n
        nudge = rng.standard_normal((dim, dim))
        x = (nudge - nudge.T) / max_abs(nudge - nudge.T) * 1e-13     # linear from here
        x *= 0.9e-12 / max_abs(expm_antisymmetric(x) @ standard_form(n) - standard_form(n))
        j = expm_antisymmetric(x) @ standard_form(n)
        off = max_abs(j - standard_form(n))
        assert 0.5e-12 < off <= 1e-12
        structure = ComplexStructure(j)
        assert structure.is_standard() and max_abs(structure.to_standard - np.eye(dim)) == 0.0
        a = rng.standard_normal((3, dim, dim)) * 10.0 ** rng.uniform(-5, 5, (3, 1, 1))
        scale = np.abs(a).max(axis=(-2, -1))
        for kind in ("commutes", "anticommutes"):
            moved = np.abs(structure._residual(a, kind) - dense_residual(a, j, kind))
            bound = 2 * dim * (off + 2 * np.finfo(float).eps) * scale
            assert (moved.max(axis=(-2, -1)) <= bound).all()


def test_rotated_j_reads_operators_near_the_float_max():
    # entries up to 1.7e308 on 20 rotated n = 3 structures: the products with
    # J are taken at unit scale, so a J-commuting (anticommuting) operator
    # passes its check, and its complex matrix is the unit-scale one times
    # 1.7e308, or refused as overflowing where that leaves the float range
    big, n = 1.7e308, 3
    rng = np.random.default_rng(SEED + 70)
    fits_seen = set()
    for _ in range(20):
        structure = nonstandard_structure(n, rng.integers(2**32))
        unit_z = random_complex_antisymmetric(structure, rng)
        unit_z /= max_abs(unit_z)
        c = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        unit_a = realify_conjugation(c + c.T, structure)
        unit_a /= max_abs(unit_a)
        assert commutes_with_structure(big * unit_z, structure)
        assert anticommutes_with_structure(big * unit_a, structure)
        for read, unit in ((complexify, unit_z),
                           (conjugation_matrix, np.stack([unit_a, -unit_a]))):
            want = read(unit, structure)
            fits = max(max_abs(want.real), max_abs(want.imag)) < np.finfo(float).max / big
            fits_seen.add(fits)
            if fits:
                assert max_abs(read(big * unit, structure) / big - want) <= 1e-14
            else:
                with pytest.raises(ComputationError, match="overflows the float range"):
                    read(big * unit, structure)
    assert fits_seen == {True, False}


def test_the_spy_reports_j_checks_under_their_kinds(monkeypatch):
    from lagrass.geodesics import GeodesicGenerator
    from lagrass.subspaces import check_tangent, is_lagrangian, vertical_symmetry
    from spies import CallSpy

    spy = CallSpy(monkeypatch)
    structure = ComplexStructure.standard(2)
    base = vertical_symmetry(2)
    is_lagrangian(base, structure)
    is_complex_unitary(np.eye(4), structure)
    conjugation_matrix(np.stack([base.matrix] * 2), structure)
    check_tangent(base, np.zeros((4, 4)), structure)
    GeodesicGenerator(np.zeros((4, 4)), base, structure)
    # an identity with J is a check of its own, on the operator in J's
    # standard split; the other identities share one in the caller's
    assert [(name, kinds) for name, kinds, _ in spy.checks if name != "symmetry"] == [
        ("operator", ("anticommutes",)),
        ("operator", ("commutes",)), ("operator", ("orthonormal",)),
        ("conjugation matrix", ("anticommutes",)),
        ("tangent vector", ("symmetric", "anticommutes")), ("tangent vector", ("anticommutes",)),
        ("generator", ("anticommutes",)),
        ("generator", ("antisymmetric", "anticommutes")), ("generator", ("commutes",)),
    ]


if __name__ == "__main__":
    import sys

    sys.exit(pytest.main([__file__, "-v"]))

