"""Tests for the real-matrix substrate: spectral calculus, rotations, angles."""

import math
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from lagrass.errors import ComputationError, InvariantViolation
from lagrass.geodesics import connect
from lagrass.linalg import (
    apply_function,
    expm_antisymmetric,
    logm_special_orthogonal,
    max_abs,
    principal_angles,
    require_antisymmetric,
    require_orthonormal_columns,
    require_symmetric,
    schatten_norm,
    spectral_decompose,
)
from test_geodesics import exact_standard_blocks, planted_records, rotated_structure, souriau_pair
from test_subspaces import rotated_half_right_angle_pair

SEED = 20240811
TOL = 1e-12


def rotation2(theta):
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]])


def test_validators_accept_and_reject():
    require_symmetric(np.array([[1.0, 2.0], [2.0, 3.0]]), "a")
    require_antisymmetric(np.array([[0.0, 1.0], [-1.0, 0.0]]), "a")
    with pytest.raises(InvariantViolation):
        require_symmetric(np.array([[1.0, 2.0], [2.5, 3.0]]), "a")
    with pytest.raises(InvariantViolation):
        require_antisymmetric(np.array([[0.1, 1.0], [-1.0, 0.0]]), "a")
    with pytest.raises(InvariantViolation):
        require_orthonormal_columns(np.array([[1.0], [1.0]]), "q")


def test_spectral_decompose_known_reflection():
    # eigenpairs of [[0,1],[1,0]] are (-1, (1,-1)/sqrt2) and (1, (1,1)/sqrt2)
    dec = spectral_decompose(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert np.allclose(dec.eigenvalues, [-1.0, 1.0], atol=TOL)
    v0 = dec.eigenvectors[:, 0]
    v1 = dec.eigenvectors[:, 1]
    assert abs(abs(v0 @ np.array([1.0, -1.0]) / math.sqrt(2)) - 1.0) < TOL
    assert abs(abs(v1 @ np.array([1.0, 1.0]) / math.sqrt(2)) - 1.0) < TOL


def test_spectral_decompose_reads_the_symmetric_part():
    # asymmetry 5e-11 passes require_symmetric (tolerance 4e-10) but exceeds
    # the reassembly tolerance 4e-12 against the unsymmetrised input; eigh
    # reads one triangle, so the symmetric part is what gets decomposed
    a = np.array([[1.0, 5e-11], [0.0, 2.0]])
    dec = spectral_decompose(a)
    sym = (a + a.T) / 2.0
    vec, lam = dec.eigenvectors, dec.eigenvalues
    assert max_abs(vec @ np.diag(lam) @ vec.T - sym) <= 1e-15


@pytest.mark.filterwarnings("error")
def test_spectral_decompose_of_a_huge_finite_operator():
    # (a + a^T) / 2 used to overflow to inf and give NaN eigenvalues, and a
    # NaN reassembly residual passed the check
    dec = spectral_decompose(1e308 * np.eye(2))
    assert np.array_equal(dec.eigenvalues, [1e308, 1e308])
    assert np.array_equal(dec.eigenvectors, np.eye(2))
    with pytest.raises(ComputationError, match="an eigenvalue overflows the float range"):
        spectral_decompose(1e308 * np.ones((2, 2)))
    # finite eigenvalues within rounding of the float range whose reassembly
    # overflows: the residual is inf
    rng = np.random.default_rng(15)
    q = np.linalg.qr(rng.standard_normal((4, 4)))[0]
    lam = np.finfo(float).max * (1.0 - rng.uniform(0.0, 4e-16, 4))
    with np.errstate(over="ignore"):
        a = (q * lam) @ q.T
    assert np.isfinite(a).all()
    with pytest.raises(ComputationError, match="eigen-reassembly residual inf"):
        spectral_decompose(a)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("k", [1, 2, 7, math.inf])
def test_schatten_norm_of_an_overflowing_operator_is_inf(k):
    # the top singular value overflows: rescaling by it used to give inf / inf
    assert schatten_norm(1e308 * np.ones((3, 3)), k) == math.inf


def test_apply_function_matches_direct_evaluation():
    rng = np.random.default_rng(SEED)
    q, _ = np.linalg.qr(rng.standard_normal((2, 2)))
    a = q @ np.diag([0.3, 1.2]) @ q.T
    dec = spectral_decompose(a)

    def f(t):
        return math.cos(t) * math.sin(t) + math.sin(t) ** 2

    got = apply_function(dec, f)
    want = q @ np.diag([f(0.3), f(1.2)]) @ q.T
    assert max_abs(got - want) < 1e-14


def test_apply_function_rejects_undefined_values():
    dec = spectral_decompose(np.diag([0.0, 4.0]))
    with pytest.raises(InvariantViolation):
        apply_function(dec, lambda t: 1.0 / t)


def test_schatten_norm_frozen_values():
    a = np.diag([3.0, -4.0])
    assert abs(schatten_norm(a, 1) - 7.0) < TOL
    assert abs(schatten_norm(a, 2) - 5.0) < TOL
    assert abs(schatten_norm(a, math.inf) - 4.0) < TOL
    assert schatten_norm(np.zeros((3, 3)), 2) == 0.0
    with pytest.raises(InvariantViolation):
        schatten_norm(a, 1.5)
    with pytest.raises(InvariantViolation):
        schatten_norm(a, 0)


def test_expm_antisymmetric_rotation2():
    k = np.array([[0.0, -1.0], [1.0, 0.0]])
    for theta in (0.0, 0.3, 1.2, math.pi / 2):
        got = expm_antisymmetric(theta * k)
        assert max_abs(got - rotation2(theta)) < 1e-14


def test_expm_antisymmetric_matches_scipy():
    import scipy.linalg

    rng = np.random.default_rng(SEED)
    for dim in (2, 3, 5, 8):
        a = rng.standard_normal((dim, dim))
        z = a - a.T
        got = expm_antisymmetric(z)
        want = scipy.linalg.expm(z)
        assert max_abs(got - want) < 1e-12 * max(1.0, max_abs(want))


def test_expm_antisymmetric_stacked():
    rng = np.random.default_rng(SEED)
    a = rng.standard_normal((4, 4))
    z = a - a.T
    ts = np.linspace(0.0, 1.0, 7)
    stack = expm_antisymmetric(ts[:, None, None] * z, validate=False)
    for i, t in enumerate(ts):
        assert max_abs(stack[i] - expm_antisymmetric(t * z)) < 1e-13


def antisymmetric_at_norm(rng, dim, norm):
    """A random antisymmetric dim x dim matrix of operator norm `norm`."""
    a = rng.standard_normal((dim, dim))
    z = a - a.T
    top = np.linalg.norm(z, 2) if dim > 1 else 0.0
    return z * (norm / top) if top else z


@pytest.mark.parametrize("dim", [1, 2, 3, 8, 32, 128, 256])
def test_expm_antisymmetric_of_a_generic_z_matches_scipy(dim):
    # H = -iz, e^z = Re(V e^{i lam} V^H): against scipy's Pade expm at
    # norms 1, pi - 1e-6 and pi (eigenvalues of e^z at -1), one matrix and a
    # stack of them with the zero matrix first; the zero matrix maps to I exactly
    import scipy.linalg

    rng = np.random.default_rng([SEED, dim])
    zs = np.stack([np.zeros((dim, dim))] + [antisymmetric_at_norm(rng, dim, norm)
                                            for norm in (1.0, math.pi - 1e-6, math.pi)])
    stacked = expm_antisymmetric(zs)
    assert np.array_equal(stacked[0], np.eye(dim))
    for z, got_in_stack in zip(zs, stacked):
        got = expm_antisymmetric(z)
        assert max_abs(got - scipy.linalg.expm(z)) <= 1e-12
        assert max_abs(got_in_stack - scipy.linalg.expm(z)) <= 1e-12
        for g in (got, got_in_stack):
            assert max_abs(g.T @ g - np.eye(dim)) <= 1e-12 * dim
            assert np.linalg.det(g) > 0.0


@pytest.mark.parametrize("dim", [3, 8, 32])
def test_expm_of_a_generic_z_at_a_large_norm_stays_orthogonal(dim):
    # each eigenvalue of -iz carries an error of about eps |z|, so at large
    # norms e^{i lam} of a pair +-lam drifts off conjugate; the exact pairing
    # of the spectrum keeps the real part orthogonal, so the validated call
    # answers at every finite norm (where e^z itself is ill-conditioned)
    rng = np.random.default_rng([SEED, dim])
    for norm in (1e12, 1e100, 1e300):
        g = expm_antisymmetric(antisymmetric_at_norm(rng, dim, norm))
        assert max_abs(g.T @ g - np.eye(dim)) <= 1e-13 * dim
        assert np.linalg.det(g) > 0.0


def standard_j_generator(rng, thetas):
    """z = realify(i V diag(thetas) V^H) for a random unitary V of C^n: the
    block form [[A, -B], [B, A]] of the standard J, its blocks exactly equal,
    antisymmetric, with operator norm max|thetas|."""
    n = len(thetas)
    v = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))[0]
    h = (v * thetas) @ v.conj().T
    m = 0.5j * (h + h.conj().T)
    return np.block([[m.real, -m.imag], [m.imag, m.real]])


def expm_eigh_calls(z):
    """expm_antisymmetric(z), unvalidated, and the (shape, dtype) of each eigh it ran."""
    eigh = np.linalg.eigh
    with mock.patch.object(np.linalg, "eigh", wraps=eigh) as spy:
        out = expm_antisymmetric(z, validate=False)
    return out, [(a.shape, a.dtype) for (a, *_), _ in spy.call_args_list]


# angles clustered at 0 and at +-pi/2 (a cut-locus generator, doubled: +-pi)
THETA_CENTERS = (0.0, math.pi / 2, -math.pi / 2)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 48), count=st.integers(0, 3),
       scale=st.sampled_from([0.0, 1.0, 2.0]), delta=st.sampled_from([0.0, 1e-12, 1e-8, 1e-3]))
def test_expm_reads_a_standard_j_generator_as_one_half_size_eigh(seed, n, count, scale, delta):
    # one matrix (count 0) or a stack of count; every z in the block form
    # takes one Hermitian n x n eigh, agrees with scipy's Pade expm and is in
    # SO(2n), which the validating path checks itself
    import scipy.linalg

    rng = np.random.default_rng(seed)

    def draw():
        centers = rng.choice(THETA_CENTERS, n)
        return standard_j_generator(rng, np.clip(scale * centers + delta * rng.uniform(
            -1.0, 1.0, n), -math.pi, math.pi))

    zs = np.stack([draw() for _ in range(max(count, 1))])
    z = zs if count else zs[0]
    got, calls = expm_eigh_calls(z)
    assert calls == [(z.shape[:-2] + (n, n), np.dtype(complex))]
    for zi, gi in zip(zs, got.reshape(zs.shape)):
        assert max_abs(gi - scipy.linalg.expm(zi)) <= 1e-13 * max(1.0, np.linalg.norm(zi, 2))
        assert max_abs(expm_antisymmetric(zi) - gi) <= 1e-14
        assert max_abs(gi.T @ gi - np.eye(2 * n)) <= 1e-12 * 2 * n
        assert np.linalg.det(gi) > 0.0


@pytest.mark.parametrize("n", [2, 7])
def test_expm_of_a_generator_one_ulp_off_the_block_form_takes_the_general_route(n):
    # B + one ulp in one entry of the lower-left block, its antisymmetric
    # partner moved with it: z stays antisymmetric, the blocks compare unequal,
    # so H = -iz is read at full size: one complex 2n x 2n eigh
    import scipy.linalg

    rng = np.random.default_rng([SEED, n])
    z = standard_j_generator(rng, rng.uniform(-math.pi, math.pi, n))
    z[n + 1, 0] = np.nextafter(z[n + 1, 0], math.inf)
    z[0, n + 1] = -z[n + 1, 0]
    got, calls = expm_eigh_calls(z)
    assert calls == [((2 * n, 2 * n), np.dtype(complex))]
    assert max_abs(got - scipy.linalg.expm(z)) <= 1e-13 * max(1.0, np.linalg.norm(z, 2))
    assert np.array_equal(expm_antisymmetric(z), got)


def assert_exponential(z, got):
    """got is e^z: within 1e-13 max(1, |z|_2) of scipy's Pade expm, orthogonal
    to 1e-13 m and of determinant +1."""
    import scipy.linalg

    m = z.shape[-1]
    assert max_abs(got - scipy.linalg.expm(z)) <= 1e-13 * max(1.0, np.linalg.norm(z, 2))
    assert max_abs(got.T @ got - np.eye(m)) <= 1e-13 * m
    assert np.linalg.det(got) > 0.0


@pytest.mark.parametrize("seed", [0, 5, 12, 35])
def test_expm_of_a_rotated_half_right_angle_generator_is_verified(seed):
    # 2z of the planted n = 22 pair under a rotated J. The eigenvectors of the
    # Gram matrix z^T z from dsyevd were orthogonal only to about 1e-6 here,
    # so the validated call refused seeds 5, 12 and 35 as "not orthogonal";
    # the Hermitian eigh of -2iz keeps e^{2z} orthogonal to rounding
    structure, e0, e1 = rotated_half_right_angle_pair(seed)
    z = 2.0 * connect(e0, e1, structure).z
    got = expm_antisymmetric(z)
    assert_exponential(z, got)
    unvalidated, calls = expm_eigh_calls(z)
    assert np.array_equal(unvalidated, got)
    assert calls == [(z.shape, np.dtype(complex))]


def clustered_antisymmetric(rng, m, spread, delta):
    """A plain antisymmetric m x m z = Q D Q^T: D has 2 x 2 blocks of angles
    within delta of 0, 1 or pi times spread (the first at spread, so z is
    not zero), a zero angle for odd m, and Q is a random rotation of R^m."""
    k = m // 2
    centers = np.concatenate([[1.0], rng.choice([0.0, 1.0, math.pi], k - 1)])
    thetas = spread * centers + delta * rng.uniform(-1.0, 1.0, k)
    d = np.zeros((m, m))
    d[2 * np.arange(k) + 1, 2 * np.arange(k)] = thetas
    q = np.linalg.qr(rng.standard_normal((m, m)))[0]
    z = q @ (d - d.T) @ q.T
    return (z - z.T) / 2.0


@st.composite
def generic_generators(draw):
    """A stack of antisymmetric m x m matrices, m <= 64, none in the
    standard-J block form: 2z of rotated-J generators of planted Souriau pairs
    (the `PLANTS` clusters, or half the angles at pi/2 and half in
    [1e-12, 1e-1]), or plain z with clustered spectra (odd m included)."""
    family = draw(st.sampled_from(["planted", "half-right", "clustered"]))
    count = draw(st.integers(1, 3))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng([seed, 2])
    if family == "clustered":
        m = draw(st.integers(3, 64))
        spread = draw(st.sampled_from([0.5, 1.0]))
        delta = draw(st.sampled_from([0.0, 1e-12, 1e-8, 1e-3]))
        return np.stack([clustered_antisymmetric(rng, m, spread, delta) for _ in range(count)])
    if family == "planted":
        theta = draw(planted_records().map(lambda case: case[2][:32]).filter(
            lambda theta: theta.size >= 2))
    else:
        n = draw(st.integers(2, 32))
        theta = np.concatenate([np.full(n - n // 2, math.pi / 2),
                                10.0 ** rng.uniform(-12, -1, n // 2)])
    structure = rotated_structure(theta.size, rng)
    zs = np.stack([2.0 * connect(*souriau_pair(structure, theta, rng), structure).z
                   for _ in range(count)])
    assume(all(max_abs(z) > 0.0 for z in zs))     # z = 0 is in the block form
    return zs


@settings(max_examples=30, deadline=None)
@given(zs=generic_generators(), stacked=st.booleans(),
       scale=st.sampled_from([1e8, 1e155, 1e300, 1.7e308]))
def test_expm_of_a_generic_z_is_one_hermitian_eigh_of_minus_iz(zs, stacked, scale):
    # one matrix, or a stack with the zero matrix first (it maps to I
    # exactly): one complex m x m eigh per call, no float64 eigh, each result
    # e^z to rounding; scaled up to max|z| = 1.7e308, each validated call is
    # verified (to its own 1e-12 m: at such norms e^z is known to no digit)
    # or refuses with ComputationError, never numpy's LinAlgError
    m = zs.shape[-1]
    assert not any(m % 2 == 0 and exact_standard_blocks(z) for z in zs)
    z = np.concatenate([np.zeros((1, m, m)), zs]) if stacked else zs[0]
    got, calls = expm_eigh_calls(z)
    assert calls == [(z.shape, np.dtype(complex))]
    if stacked:
        assert np.array_equal(got[0], np.eye(m))
        assert np.array_equal(expm_antisymmetric(z), got)
    for zi, gi in zip(z.reshape(-1, m, m), got.reshape(-1, m, m)):
        assert_exponential(zi, gi)
    for zi in zs:
        try:
            big = expm_antisymmetric(zi / max_abs(zi) * scale)
        except ComputationError:
            continue
        assert np.isfinite(big).all() and max_abs(big.T @ big - np.eye(m)) <= 1e-12 * m
        assert np.linalg.det(big) > 0.0


def test_expm_refuses_a_nan_output(monkeypatch):
    # NaN passes a comparison "dev > tol": the checks are written so it fails
    # them (eigenvectors patched to NaN, the eigenvalues left finite)
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda a: (eigh(a)[0], np.full(a.shape, np.nan)))
    with pytest.raises(ComputationError, match=r"^expm: output not orthogonal \(deviation nan\)$"):
        expm_antisymmetric(rotation2(0.3) - rotation2(0.3).T)


def test_logm_rotation_is_half_angle():
    # returns half the principal log: e^{2 z} reproduces the input
    g = rotation2(0.8)
    z = logm_special_orthogonal(g)
    k = np.array([[0.0, -1.0], [1.0, 0.0]])
    assert max_abs(z - 0.4 * k) < 1e-14


def test_logm_round_trip_random():
    rng = np.random.default_rng(SEED)
    for dim in (2, 3, 4, 7):
        a = rng.standard_normal((dim, dim))
        z = 0.3 * (a - a.T)
        g = expm_antisymmetric(z)
        half = logm_special_orthogonal(g)
        assert max_abs(expm_antisymmetric(2.0 * half) - g) < 1e-12


def test_logm_rejects_pi_rotation_and_reflections():
    with pytest.raises(ComputationError):
        logm_special_orthogonal(rotation2(math.pi))
    with pytest.raises(InvariantViolation):
        logm_special_orthogonal(np.diag([1.0, -1.0]))


def test_principal_angles_two_lines():
    for theta in (0.1, 0.7, 1.2):
        q0 = np.array([[1.0], [0.0]])
        q1 = np.array([[math.cos(theta)], [math.sin(theta)]])
        pa = principal_angles(q0, q1)
        assert abs(pa.angles[0] - theta) < 1e-14


def test_principal_angles_small_angle_refinement():
    # the cosine route alone loses half the digits near zero; the sine
    # refinement keeps tiny angles exact
    theta = 1e-9
    q0 = np.array([[1.0], [0.0]])
    q1 = np.array([[math.cos(theta)], [math.sin(theta)]])
    pa = principal_angles(q0, q1)
    assert abs(pa.angles[0] - theta) < 1e-15


def test_principal_angles_orthogonal_planes():
    q0 = np.eye(4)[:, :2]
    q1 = np.eye(4)[:, 2:]
    pa = principal_angles(q0, q1)
    assert np.allclose(pa.angles, math.pi / 2, atol=1e-12)


def test_principal_angles_unpaired_columns():
    # a line tilted by arccos 0.6 against a plane: the plane's second
    # principal vector has no partner and is orthogonal to the line
    plane = np.eye(4)[:, :2]
    line = np.array([[0.6], [0.0], [0.8], [0.0]])
    for q0, q1, flip in ((plane, line, False), (line, plane, True)):
        pa = principal_angles(q0, q1)
        assert abs(pa.angles[0] - math.acos(0.6)) < 1e-15
        assert pa.left.shape == pa.right.shape == (4, 1)
        rest, empty = (pa.right_unpaired, pa.left_unpaired) if flip else (
            pa.left_unpaired, pa.right_unpaired)
        assert rest.shape == (4, 1) and empty.shape == (4, 0)
        assert abs(abs(rest[1, 0]) - 1.0) < 1e-15
    pa = principal_angles(plane, np.zeros((4, 0)))
    assert pa.angles.shape == (0,) and pa.left_unpaired.shape == (4, 2)


def test_expm_antisymmetric_checks_each_matrix_at_its_own_scale():
    # held to the stack's largest entry, the small non-antisymmetric matrix
    # would pass and its exponential would not be orthogonal
    big = 1e8 * np.array([[0.0, 1.0], [-1.0, 0.0]])
    bad = np.array([[0.0, 1e-3], [0.0, 0.0]])
    with pytest.raises(InvariantViolation,
                       match=r"^expm: input not antisymmetric at matrix 1 of the stack "
                             r"\(deviation 1\.000e-03\)$"):
        expm_antisymmetric(np.stack([big, bad]))
    with pytest.raises(InvariantViolation,
                       match=r"^expm: input not antisymmetric \(deviation 1\.000e-03\)$"):
        expm_antisymmetric(bad)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(-3.0, 3.0), min_size=9, max_size=9),
       st.lists(st.floats(-3.0, 3.0), min_size=9, max_size=9))
def test_schatten_triangle_inequality(xs, ys):
    a = np.asarray(xs).reshape(3, 3)
    b = np.asarray(ys).reshape(3, 3)
    for k in (1, 2, math.inf):
        lhs = schatten_norm(a + b, k)
        rhs = schatten_norm(a, k) + schatten_norm(b, k)
        assert lhs <= rhs + 1e-9


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(-1.0, 1.0), min_size=9, max_size=9))
def test_expm_log_round_trip_property(xs):
    a = np.asarray(xs).reshape(3, 3)
    z = (a - a.T) / 2.0
    # keep the rotation well away from the pi branch cut
    norm = schatten_norm(z, math.inf)
    if norm > 1.4:
        z = z * (1.4 / norm)
    g = expm_antisymmetric(z)
    half = logm_special_orthogonal(g)
    assert max_abs(expm_antisymmetric(2.0 * half) - g) < 1e-11


if __name__ == "__main__":
    import sys

    sys.exit(pytest.main([__file__, "-v"]))


def test_logm_without_scipy_names_the_test_extra(monkeypatch):
    # the Schur form is the only scipy call; on a numpy-only install the
    # reference says what it is and which extra supplies scipy
    monkeypatch.setitem(sys.modules, "scipy", None)
    monkeypatch.setitem(sys.modules, "scipy.linalg", None)
    with pytest.raises(ImportError, match=r"^logm_special_orthogonal is a test reference "
                                          r"and needs scipy; install the 'test' extra"):
        logm_special_orthogonal(rotation2(0.3))
