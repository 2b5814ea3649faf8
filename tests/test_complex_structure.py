"""Tests for complex structures, the symplectic form, and (de)complexification."""

import math

import numpy as np
import pytest

from lagrass.complex_structure import (
    ComplexStructure,
    anticommutes_with_structure,
    commutes_with_structure,
    complex_inner_product,
    complexify,
    conjugation_matrix,
    is_complex_unitary,
    realify,
    realify_conjugation,
    standard_form,
    symplectic_form,
)
from lagrass.errors import InvariantViolation
from lagrass.linalg import expm_antisymmetric, max_abs

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


if __name__ == "__main__":
    import sys

    sys.exit(pytest.main([__file__, "-v"]))
