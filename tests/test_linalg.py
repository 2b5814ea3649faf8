"""Tests for the real-matrix substrate: spectral calculus, rotations, angles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lagrass.errors import ComputationError, InvariantViolation
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
