"""Standard coordinates of a non-standard J, and the seeded samplers.

`ComplexStructure` reads its change of basis off one eigh of iJ. Any other
orthogonal R with R^T J R = standard_form(n) is as good: results that the
paper defines without coordinates must not depend on the choice. The
reference basis is the greedy J-pairing of
`reference_formulas.standardizing_basis_by_pairing`.
"""

import copy
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lagrass.complex_structure import (
    ComplexStructure,
    _standardizing_basis,
    realify_conjugation,
    standard_form,
)
from lagrass.errors import InvariantViolation
from lagrass.geodesics import Geodesic, classify_multiplicity, connect, distance, sample
from lagrass.linalg import max_abs
from lagrass.sampling import (
    random_complex_antisymmetric,
    random_complex_rotation,
    random_lagrangian,
)
from lagrass.subspaces import Symmetry, five_way_decompose

from reference_formulas import (
    random_complex_antisymmetric_by_blocks,
    random_complex_rotation_by_blocks,
    random_lagrangian_by_blocks,
    standardizing_basis_by_pairing,
)

SEED = 1414
AGREE = 1e-12


def rotated_j(n, rng):
    """Q S Q^T for a random orthogonal Q; at n = 1 this is S or -S."""
    q, r = np.linalg.qr(rng.standard_normal((2 * n, 2 * n)))
    q = q * np.sign(np.diag(r))
    return q @ standard_form(n) @ q.T


def permuted_j(n, rng):
    perm = rng.permutation(2 * n)
    while n and np.array_equal(perm, np.arange(2 * n)):
        perm = rng.permutation(2 * n)
    return standard_form(n)[np.ix_(perm, perm)]


J_CASES = {
    "rotated": rotated_j,
    "negated": lambda n, rng: -standard_form(n),
    "permuted": permuted_j,
}


def with_basis(structure, r):
    """A copy of structure whose change of basis is r."""
    other = copy.copy(structure)
    object.__setattr__(other, "to_standard", r)
    return other


def assert_basis(structure):
    r, dim = structure.to_standard, structure.dim
    assert max_abs(r.T @ r - np.eye(dim)) <= 1e-13 * dim
    assert max_abs(r.T @ structure.matrix @ r - standard_form(structure.n)) <= 1e-12


def assert_basis_free(structure, rng):
    """connect, distance, the five-way split, the multiplicity and the
    realified nodes agree with a run in the pairing basis."""
    reference = with_basis(structure, standardizing_basis_by_pairing(structure.matrix))
    e0 = random_lagrangian(structure, rng)
    e1 = random_lagrangian(structure, rng)
    ts = np.linspace(0.0, 1.0, 5)
    gens = [connect(e0, e1, s) for s in (structure, reference)]
    got, want = gens
    assert max_abs(got.z - want.z) <= AGREE
    assert max_abs(np.sort(got.theta) - np.sort(want.theta)) <= AGREE
    assert abs(distance(e0, e1, structure) - distance(e0, e1, reference)) <= AGREE
    nodes = [realify_conjugation(sample(Geodesic(g), ts), g.structure) for g in gens]
    assert max_abs(nodes[0] - nodes[1]) <= AGREE
    assert max_abs(nodes[0][-1] - e1.matrix) <= 1e-10
    mult = [classify_multiplicity(g) for g in gens]
    assert mult[0].classification == mult[1].classification
    assert mult[0].minus_one_dim_complex == mult[1].minus_one_dim_complex
    assert abs(mult[0].norm_gap - mult[1].norm_gap) <= AGREE
    # the antipodal pair: every angle pi / 2, infinitely many geodesics for n >= 2
    far = Symmetry(-e0.matrix)
    antipodal = [connect(e0, far, s) for s in (structure, reference)]
    assert abs(distance(e0, far, structure) - distance(e0, far, reference)) <= AGREE
    assert ([classify_multiplicity(g).minus_one_dim_complex for g in antipodal]
            == [structure.n] * 2)
    split = five_way_decompose(e0, e1)
    assert split.generic.dim == 2 * structure.n
    assert five_way_decompose(e0, far).plus_minus.dim == structure.n


@pytest.mark.parametrize("case", sorted(J_CASES))
@pytest.mark.parametrize("n", [1, 2, 5, 16, 64])
def test_results_do_not_depend_on_the_basis(case, n):
    rng = np.random.default_rng([SEED, n])
    structure = ComplexStructure(J_CASES[case](n, rng))
    assert_basis(structure)
    assert_basis_free(structure, rng)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 8), seed=st.integers(0, 2**32 - 1))
def test_results_do_not_depend_on_the_basis_property(n, seed):
    rng = np.random.default_rng(seed)
    structure = ComplexStructure(rotated_j(n, rng))
    assert_basis(structure)
    assert_basis_free(structure, rng)


def test_basis_postcondition_keeps_its_message(monkeypatch):
    j = rotated_j(3, np.random.default_rng(SEED))
    monkeypatch.setattr(np.linalg, "eigh", lambda a: (np.zeros(6), np.eye(6, dtype=complex)))
    with pytest.raises(InvariantViolation, match="J: conjugation to standard form failed"):
        _standardizing_basis(j)


# ---------------------------------------------------------------------------
# the seeded samplers on the standard J, bitwise


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())


@pytest.mark.parametrize("seed", [0, 1, 7, 31, 99])
@pytest.mark.parametrize("n", [1, 2, 5, 16])
def test_seeded_samplers_match_the_block_formulas(n, seed):
    for structure in (ComplexStructure.standard(n), ComplexStructure(standard_form(n))):
        assert same_bits(random_complex_antisymmetric(structure, seed, norm=0.7),
                         random_complex_antisymmetric_by_blocks(
                             structure, np.random.default_rng(seed), norm=0.7))
        assert same_bits(random_complex_rotation(structure, seed, spread=1.3),
                         random_complex_rotation_by_blocks(
                             structure, np.random.default_rng(seed), spread=1.3))
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(2):
            assert same_bits(random_lagrangian(structure, rng).matrix,
                             random_lagrangian_by_blocks(structure, ref_rng).matrix)


def test_samplers_on_a_rotated_j_match_the_block_formulas():
    rng = np.random.default_rng(SEED)
    structure = ComplexStructure(rotated_j(4, rng))
    got = random_lagrangian(structure, 5).matrix
    want = random_lagrangian_by_blocks(structure, np.random.default_rng(5)).matrix
    assert max_abs(got - want) <= 1e-14 * math.sqrt(structure.dim)
