"""Tests for subspace encodings, the five-way pair decomposition, tangency."""

import dataclasses
import math
import re

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import lagrass.subspaces
from lagrass.complex_structure import ComplexStructure, realify_conjugation, standard_form
from lagrass.errors import ComputationError, InvariantViolation
from lagrass.geodesics import Geodesic, connect, sample
from lagrass.graphs import graph_symmetry
from lagrass.linalg import max_abs
from lagrass.sampling import random_lagrangian, random_lagrangian_pair, random_symmetric
from lagrass.subspaces import (
    Projection,
    Subspace,
    Symmetry,
    _require_conjugation_symmetries,
    _require_symmetries,
    check_tangent,
    covariant_derivative,
    five_way_decompose,
    is_lagrangian,
    projection_from_subspace,
    projection_from_symmetry,
    subspace_from_symmetry,
    symmetry_from_projection,
    symmetry_from_subspace,
    tangent_project,
    vertical_symmetry,
)
from lagrass.tolerances import ANGLE_TOL, ANGLE_TOL_FLOOR, ORTH_RTOL, SYM_RTOL

from reference_formulas import five_way_by_svd_null_space, tangent_project_offdiagonal
from spies import CallSpy

SEED = 91125


def line(theta):
    """Symmetry of the line in R^2 at angle theta."""
    c2, s2 = math.cos(2 * theta), math.sin(2 * theta)
    return Symmetry(np.array([[c2, s2], [s2, -c2]]))


def test_encodings_round_trip():
    rng = np.random.default_rng(SEED)
    q, _ = np.linalg.qr(rng.standard_normal((5, 5)))
    sub = Subspace(q[:, :2])
    p = projection_from_subspace(sub)
    eps = symmetry_from_projection(p)
    assert eps.plus_dim == 2
    assert max_abs(symmetry_from_subspace(sub).matrix - eps.matrix) < 1e-12
    assert max_abs(projection_from_symmetry(eps).matrix - p.matrix) < 1e-12
    back = subspace_from_symmetry(eps)
    # same span: projections agree even though bases may differ
    assert max_abs(back.basis @ back.basis.T - p.matrix) < 1e-12
    back2 = subspace_from_symmetry(symmetry_from_projection(p))
    assert max_abs(back2.basis @ back2.basis.T - p.matrix) < 1e-12


def test_from_columns_orthonormalizes_and_drops_rank():
    cols = np.array([[1.0, 2.0], [0.0, 0.0], [1.0, 2.0]])
    sub = Subspace.from_columns(cols)
    assert sub.dim == 1
    assert abs(np.linalg.norm(sub.basis[:, 0]) - 1.0) < 1e-14


def test_validating_constructors_reject():
    with pytest.raises(InvariantViolation):
        Subspace(np.array([[1.0], [1.0]]))
    with pytest.raises(InvariantViolation):
        Projection(np.array([[0.5, 0.0], [0.0, 2.0]]))
    with pytest.raises(InvariantViolation):
        Symmetry(np.array([[1.0, 0.1], [0.1, -1.0]]))


def test_vertical_symmetry_is_lagrangian():
    s = ComplexStructure.standard(3)
    eps = vertical_symmetry(3)
    assert max_abs(eps.matrix - np.diag([-1.0] * 3 + [1.0] * 3)) == 0.0
    assert is_lagrangian(eps, s)


def test_every_line_in_r2_is_lagrangian():
    s = ComplexStructure.standard(1)
    for theta in (0.0, 0.4, 1.1, math.pi / 2):
        assert is_lagrangian(line(theta), s)


def test_horizontal_not_lagrangian_dimension():
    # a 1-dimensional subspace of R^4 can never be Lagrangian
    s = ComplexStructure.standard(2)
    sub = Subspace(np.eye(4)[:, :1])
    assert not is_lagrangian(sub, s)


def test_five_way_frozen_generic_case():
    # S0 = span{e1, e2}, S1 = span{e1, cos(t) e2 + sin(t) e4}: one common
    # direction, one plane at angle t, complements mirror via J
    theta = 0.5
    e0 = symmetry_from_subspace(Subspace(np.eye(4)[:, :2]))
    b1 = np.zeros((4, 2))
    b1[0, 0] = 1.0
    b1[1, 1] = math.cos(theta)
    b1[3, 1] = math.sin(theta)
    e1 = symmetry_from_subspace(Subspace(b1))
    dec = five_way_decompose(e0, e1)
    assert dec.dims() == {"both_plus": 1, "both_minus": 1, "plus_minus": 0,
                          "minus_plus": 0, "generic": 2}
    assert np.allclose(dec.generic_angles, [theta], atol=1e-12)
    assert abs(abs(dec.both_plus.basis[0, 0]) - 1.0) < 1e-12
    assert abs(abs(dec.both_minus.basis[2, 0]) - 1.0) < 1e-12


def test_five_way_frozen_swapped_case():
    # S0 = span{e1, e2}, S1 = span{e1, e4}: the e2/e4 pair is fully swapped
    e0 = symmetry_from_subspace(Subspace(np.eye(4)[:, :2]))
    e1 = symmetry_from_subspace(Subspace(np.eye(4)[:, [0, 3]]))
    dec = five_way_decompose(e0, e1)
    assert dec.dims() == {"both_plus": 1, "both_minus": 1, "plus_minus": 1,
                          "minus_plus": 1, "generic": 0}
    assert abs(abs(dec.plus_minus.basis[1, 0]) - 1.0) < 1e-12
    assert abs(abs(dec.minus_plus.basis[3, 0]) - 1.0) < 1e-12


def test_five_way_identical_pair():
    e0 = vertical_symmetry(2)
    dec = five_way_decompose(e0, e0)
    assert dec.dims() == {"both_plus": 2, "both_minus": 2, "plus_minus": 0,
                          "minus_plus": 0, "generic": 0}


@pytest.mark.parametrize("width", [-1.0, 0.0, math.nan, math.pi / 4, 1.0, math.inf,
                                   1e-300, ANGLE_TOL_FLOOR * (1.0 - 1e-3)])
def test_five_way_refuses_an_angle_width_outside_the_open_quarter(width):
    # at -1, 0 or nan every angle of an identical pair used to fall in the
    # generic bucket: one 6-dimensional block with angles about 1e-16
    _, e0, _ = random_lagrangian_pair(3, np.random.default_rng(1))
    assert five_way_decompose(e0, e0).dims()["both_plus"] == 3
    with pytest.raises(InvariantViolation, match="angle width must lie in"):
        five_way_decompose(e0, e0, angle_tol=width)


@pytest.mark.parametrize("n", [2, 4, 16, 64])
def test_five_way_identical_pair_at_the_floor(n):
    # the computed angles of an identical pair stay below the floor: at
    # 1e-300 they all used to land in the generic bucket
    _, e0, _ = random_lagrangian_pair(n, np.random.default_rng([SEED, n]))
    dec = five_way_decompose(e0, e0, ANGLE_TOL_FLOOR)
    assert dec.dims() == block_dims(n, n, 0, 0, 0)


def test_five_way_three_spaces_of_r4_at_the_floor():
    # two 3-dimensional subspaces of R^4 meet in a plane; at 1e-300 this
    # used to end in "subspace basis: columns not orthonormal"
    rng = np.random.default_rng(SEED + 3)
    for _ in range(10):
        e0, e1 = (symmetry_from_subspace(Subspace(np.linalg.qr(rng.standard_normal((4, 3)))[0]))
                  for _ in range(2))
        dec = five_way_decompose(e0, e1, ANGLE_TOL_FLOOR)
        assert dec.dims() == block_dims(2, 0, 0, 0, 2)
        assert_blocks_invariant(dec, e0, e1, ANGLE_TOL_FLOOR)


def perturbed_three_spaces(seed):
    """Symmetries of two bases of R^4 within ORTH_RTOL of one orthonormal
    4 x 3 basis. The subspaces are about 1e-11 apart and share a plane."""
    rng = np.random.default_rng(seed)
    b0 = np.linalg.qr(rng.standard_normal((4, 3)))[0]
    b1 = b0 + 0.1 * ORTH_RTOL * rng.standard_normal((4, 3))
    return symmetry_from_subspace(Subspace(b0)), symmetry_from_subspace(Subspace(b1))


def test_five_way_splits_perturbed_three_spaces_at_the_floor():
    # the shared plane's angles are rounding, below the floor, and the third
    # angle about 1e-11 is generic: the plane of each seed splits 2 + 2. eps1
    # is an involution only to about 1e-10, and its blocks are invariant to that
    for seed in range(10):
        e0, e1 = perturbed_three_spaces(seed)
        dec = five_way_decompose(e0, e1, ANGLE_TOL_FLOOR * (1.0 + 1e-3))
        assert dec.dims() == block_dims(2, 0, 0, 0, 2)
        assert_blocks_invariant(dec, e0, e1, ANGLE_TOL_FLOOR, involution_defect(e0, e1))


def common_directions_read_above(width, monkeypatch):
    """Make the principal angles read every angle `width` too large, so a
    common direction lands in the generic bucket: a defect the k > dim guard
    exists to catch."""
    exact = lagrass.subspaces._principal_angles

    def wrong(q0, q1):
        pa = exact(q0, q1)
        return dataclasses.replace(pa, angles=pa.angles + width)

    monkeypatch.setattr(lagrass.subspaces, "_principal_angles", wrong)


def test_five_way_refuses_more_columns_than_dimensions(monkeypatch):
    # two equal 3-dimensional subspaces of R^4 read as three generic planes:
    # 6 columns do not fit in R^4, a solver error, not a basis that fails
    # validation
    e0 = symmetry_from_subspace(Subspace(np.eye(4)[:, :3]))
    common_directions_read_above(1e-6, monkeypatch)
    with pytest.raises(ComputationError) as exc:
        five_way_decompose(e0, e0)
    assert re.fullmatch(r"five-way decomposition incomplete: blocks sum to 6, ambient 4",
                        str(exc.value))


def _factorization_pairs():
    _, e0, e1 = random_lagrangian_pair(3, np.random.default_rng(SEED + 17))
    yield pytest.param(e0, e1, 0, ["svd", "svd", "qr"], id="random")
    yield pytest.param(vertical_symmetry(2), vertical_symmetry(2), 2, ["svd", "svd", "qr"],
                       id="coincident")
    a = random_symmetric(4, np.random.default_rng(SEED + 19))
    v = np.array([[1.0], [2.0], [0.0], [-1.0]])
    yield pytest.param(graph_symmetry(a), graph_symmetry(a + v @ v.T), 3, ["svd", "svd", "qr"],
                       id="kernel")
    # angles pi/2, arctan 2 and arctan(1 / 0.3) to the vertical, none below
    # pi/4: no sine SVD
    yield pytest.param(graph_symmetry(np.diag([0.0, 0.5, -0.3])), vertical_symmetry(3), 0,
                       ["svd", "qr"], id="wide")


@pytest.mark.parametrize("e0, e1, both_minus, routines", list(_factorization_pairs()))
def test_five_way_makes_one_angle_svd_and_one_qr(monkeypatch, e0, e1, both_minus, routines):
    # the cosine SVD and the QR, plus one sine SVD when an angle is below pi/4
    spy = CallSpy(monkeypatch)
    dec = five_way_decompose(e0, e1)
    assert [routine for routine, _ in spy.calls("svd", "qr")] == routines
    assert dec.both_minus.dim == both_minus


@pytest.mark.parametrize("n", [1, 2, 3, 8, 16, 64])
def test_five_way_is_bitwise_the_two_factorization_split(n):
    # with no angle at 0 the complete QR is square, and every block is the
    # one the QR of the generic partners and the SVD null space gave
    rng = np.random.default_rng([SEED + 23, n])
    for _ in range(3):
        _, e0, e1 = random_lagrangian_pair(n, rng)
        got, want = five_way_decompose(e0, e1), five_way_by_svd_null_space(e0, e1)
        for name, block in want.items():
            assert getattr(got, name).basis.tobytes() == block.tobytes(), name

def test_five_way_blocks_are_orthogonal_and_complete():
    rng = np.random.default_rng(SEED)
    for n in (1, 2, 3):
        _, e0, e1 = random_lagrangian_pair(n, rng)
        dec = five_way_decompose(e0, e1)
        blocks = [dec.both_plus.basis, dec.both_minus.basis,
                  dec.plus_minus.basis, dec.minus_plus.basis,
                  dec.generic.basis]
        total = np.hstack(blocks)
        assert total.shape[1] == 2 * n
        gram = total.T @ total
        assert max_abs(gram - np.eye(2 * n)) < 1e-7


def test_five_way_j_swaps_buckets_for_lagrangian_pairs():
    rng = np.random.default_rng(SEED + 5)
    structure, e0, e1 = random_lagrangian_pair(3, rng)
    j = structure.matrix
    dec = five_way_decompose(e0, e1)
    bp = dec.both_plus.basis
    bm = dec.both_minus.basis
    assert bp.shape[1] == bm.shape[1]
    if bp.shape[1]:
        # J(both_plus) = both_minus as subspaces
        proj = bm @ bm.T
        assert max_abs(proj @ (j @ bp) - j @ bp) < 1e-9
    pm = dec.plus_minus.basis
    mp = dec.minus_plus.basis
    assert pm.shape[1] == mp.shape[1]
    if pm.shape[1]:
        proj = mp @ mp.T
        assert max_abs(proj @ (j @ pm) - j @ pm) < 1e-9


def _reference_pairs():
    """Symmetry pairs for the null-space reference comparison."""
    rng = np.random.default_rng(SEED + 7)
    for n in (1, 3, 8):
        # graphs of a and b meet in ker(a - b), planted with dimension k, so
        # the both-minus block J(ker) is not empty; Q carries the standard J
        # to a rotated one
        k = max(1, n // 2)
        a = random_symmetric(n, rng)
        v = rng.standard_normal((n, n - k))
        pair = (graph_symmetry(a), graph_symmetry(a + (v * rng.uniform(0.5, 2.0, n - k)) @ v.T))
        q, _ = np.linalg.qr(rng.standard_normal((2 * n, 2 * n)))
        for label, g in (("standard", np.eye(2 * n)), ("rotated", q)):
            e0, e1 = (Symmetry(g @ e.matrix @ g.T) for e in pair)
            yield pytest.param(e0, e1, id=f"planted {label} J n={n}")
            rotated = ComplexStructure(g @ ComplexStructure.standard(n).matrix @ g.T)
            yield pytest.param(random_lagrangian(rotated, rng), random_lagrangian(rotated, rng),
                               id=f"random {label} J n={n}")
    # the coincident, swapped and half-space pairs of the frozen cases above
    yield pytest.param(vertical_symmetry(2), vertical_symmetry(2), id="coincident")
    e12 = symmetry_from_subspace(Subspace(np.eye(4)[:, :2]))
    yield pytest.param(e12, symmetry_from_subspace(Subspace(np.eye(4)[:, [0, 3]])),
                       id="swapped")
    b1 = np.zeros((4, 2))
    b1[0, 0] = 1.0
    b1[1, 1], b1[3, 1] = math.cos(0.5), math.sin(0.5)
    yield pytest.param(e12, symmetry_from_subspace(Subspace(b1)), id="half-space")
    # edge branches: no collected column (both subspaces {0}), and collected
    # columns filling the space (both the whole space; two swapped lines)
    yield pytest.param(Symmetry(-np.eye(4)), Symmetry(-np.eye(4)), id="both zero")
    yield pytest.param(Symmetry(np.eye(4)), Symmetry(np.eye(4)), id="both whole")
    yield pytest.param(line(0.0), line(math.pi / 2), id="swapped lines")


@pytest.mark.parametrize("e0, e1", list(_reference_pairs()))
def test_five_way_both_minus_matches_null_space_reference(e0, e1):
    # the both-minus block is the orthogonal complement of the other four;
    # scipy's null_space of their columns is the reference
    dec = five_way_decompose(e0, e1)
    others = np.hstack([dec.both_plus.basis, dec.plus_minus.basis,
                        dec.minus_plus.basis, dec.generic.basis])
    ref = scipy.linalg.null_space(others.T)
    got = dec.both_minus.basis
    assert got.shape[1] == ref.shape[1]
    assert max_abs(got @ got.T - ref @ ref.T) <= 1e-12


def _random_symmetry(n, rng):
    """Q diag(signs) Q^T with both signs present, and a unit vector of each
    eigenspace."""
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    signs = np.where(np.arange(n) % 2, 1.0, -1.0)
    e = (q * signs) @ q.T
    return (e + e.T) / 2.0, q[:, 1], q[:, 0]


def _symmetry_verdict(node):
    try:
        Symmetry(node)
    except InvariantViolation:
        return False
    return True


@pytest.mark.parametrize("n", [2, 4, 16])
@pytest.mark.parametrize("kind", ["asymmetry", "square"])
@pytest.mark.parametrize("factor, accepted", [(0.9, True), (1.1, False)])
def test_stacked_symmetry_check_matches_per_node(n, kind, factor, accepted):
    # one node of a stack is moved to `factor` times one of its tolerances,
    # max|e - e^T| <= SYM_RTOL n max|e| or max|e e - I| <= SYM_RTOL n max(max|e|, 1),
    # while the other stays met
    rng = np.random.default_rng(SEED + n)
    nodes = [_random_symmetry(n, rng) for _ in range(6)]
    k = int(rng.integers(6))
    node, plus, minus = nodes[k]
    rtol = SYM_RTOL * n
    if kind == "asymmetry":
        # plus minus^T anticommutes with e and squares to 0: e e stays I
        step = np.outer(plus, minus)
        node = node + factor * rtol * max_abs(node) / max_abs(step - step.T) * step
    else:
        # (1 + d) e stays symmetric and moves e e - I by about 2 d
        node = node * (1.0 + factor * rtol * max(max_abs(node), 1.0) / 2.0)
    stack = np.stack([e for e, _, _ in nodes])
    stack[k] = node
    per_node = all(_symmetry_verdict(m) for m in stack)
    try:
        _require_symmetries(stack)
        stacked = True
    except InvariantViolation as exc:
        stacked = False
        assert f"matrix {k} of the stack" in str(exc)
    assert stacked == per_node == accepted


def _symmetric_unitary(n, rng):
    """C = W W^T for a random unitary W, and W."""
    w, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    return w @ w.T, w


@pytest.mark.parametrize("n", [2, 4, 16])
@pytest.mark.parametrize("kind", ["asymmetry", "square"])
@pytest.mark.parametrize("factor, accepted", [(0.9, True), (1.1, False)])
def test_conjugation_matrix_check_matches_the_symmetry_check(n, kind, factor, accepted):
    # the n x n check of a stack of conjugation matrices C passes iff every
    # realified node passes as a Symmetry; one node is moved to `factor` times
    # one of the real tolerances while the other stays met
    rng = np.random.default_rng(SEED + 20 + n)
    nodes = [_symmetric_unitary(n, rng) for _ in range(6)]
    k = int(rng.integers(6))
    node, w = nodes[k]
    rtol = SYM_RTOL * 2 * n

    def parts_max(a):
        return max(max_abs(a.real), max_abs(a.imag))

    if kind == "asymmetry":
        # C + d W (iR) W^T, R real antisymmetric: C conj(C) moves by O(d^2)
        r = rng.standard_normal((n, n))
        step = w @ (1j * (r - r.T)) @ w.T
        node = node + factor * rtol * parts_max(node) / parts_max(step - step.T) * step
    else:
        node = node * (1.0 + factor * rtol * max(parts_max(node), 1.0) / 2.0)
    stack = np.stack([c for c, _ in nodes])
    stack[k] = node
    structure = ComplexStructure.standard(n)
    per_node = all(_symmetry_verdict(e) for e in realify_conjugation(stack, structure))
    try:
        _require_conjugation_symmetries(stack)
        stacked = True
    except InvariantViolation as exc:
        stacked = False
        assert f"matrix {k} of the stack" in str(exc)
    assert stacked == per_node == accepted


def test_stacked_symmetry_check_refuses_non_finite_and_non_square():
    stack = np.stack([vertical_symmetry(2).matrix] * 3)
    stack[1, 0, 0] = np.nan
    with pytest.raises(InvariantViolation):
        _require_symmetries(stack)
    with pytest.raises(InvariantViolation):
        _require_symmetries(np.zeros((3, 2, 4)))
    assert _require_symmetries(np.zeros((0, 2, 2))).shape == (0, 2, 2)


def test_tangent_projection_formulas_agree():
    rng = np.random.default_rng(SEED)
    for _ in range(20):
        structure, e0, _ = random_lagrangian_pair(2, rng)
        v = random_symmetric(4, rng)
        t1 = tangent_project(e0, v)
        t2 = tangent_project_offdiagonal(projection_from_symmetry(e0), v)
        assert max_abs(t1 - t2) < 1e-12
        # idempotent, lands in the tangent space
        assert max_abs(tangent_project(e0, t1) - t1) < 1e-12
        check_tangent(e0, t1)


def test_check_tangent_rejects():
    e0 = vertical_symmetry(1)
    with pytest.raises(InvariantViolation):
        check_tangent(e0, np.array([[0.0, 1.0], [-1.0, 0.0]]))  # not symmetric
    with pytest.raises(InvariantViolation):
        check_tangent(e0, np.diag([1.0, 1.0]))     # commutes instead


def test_check_tangent_refuses_a_structure_of_another_size():
    v = np.zeros((4, 4))
    v[:2, 2:] = v[2:, :2] = np.eye(2)          # tangent at the vertical symmetry
    check_tangent(vertical_symmetry(2), v, ComplexStructure.standard(2))
    with pytest.raises(InvariantViolation, match="tangent vector: dimension mismatch"):
        check_tangent(vertical_symmetry(2), v, ComplexStructure.standard(1))


def test_covariant_derivative_zero_for_constant_tangent_field():
    # along a constant curve, the covariant derivative is the plain derivative
    e0 = vertical_symmetry(2)
    v = np.zeros((4, 4))
    v[0, 2] = v[2, 0] = 1.0
    ts = np.linspace(0.0, 1.0, 9)
    curve = np.repeat(e0.matrix[None, :, :], len(ts), axis=0)
    field = np.repeat(v[None, :, :], len(ts), axis=0)
    dv = covariant_derivative(ts, curve, field)
    assert max_abs(dv) < 1e-12


def _tangent_verdict(eps, x):
    try:
        check_tangent(Symmetry(eps), x)
    except InvariantViolation:
        return False
    return True


@pytest.mark.parametrize("n", [2, 4, 16])
@pytest.mark.parametrize("kind", ["asymmetry", "anticommutation"])
@pytest.mark.parametrize("factor, accepted", [(0.9, True), (1.1, False)])
def test_covariant_derivative_stacked_check_matches_per_node(n, kind, factor, accepted):
    # one field node is moved to `factor` times one of check_tangent's
    # tolerances, max|x - x^T| <= SYM_RTOL n max|x| or
    # max|x e + e x| <= SYM_RTOL n max|x|, while the other stays met
    rng = np.random.default_rng(SEED + 7 * n)
    nodes = [_random_symmetry(n, rng) for _ in range(6)]
    curve = np.stack([e for e, _, _ in nodes])
    field = np.stack([tangent_project(Symmetry(e), random_symmetric(n, rng))
                      for e in curve])
    k = int(rng.integers(6))
    x, (_, plus, minus) = field[k], nodes[k]
    rtol = SYM_RTOL * n
    if kind == "asymmetry":
        # plus minus^T anticommutes with e, so only the symmetry test moves
        step = np.outer(plus, minus)
        field[k] = x + factor * rtol * max_abs(x) / max_abs(step - step.T) * step
    else:
        # plus plus^T is symmetric and commutes with e: x e + e x gains 2 d plus plus^T
        step = np.outer(plus, plus)
        field[k] = x + factor * rtol * max_abs(x) / (2.0 * max_abs(step)) * step
    per_node = all(_tangent_verdict(e, v) for e, v in zip(curve, field))
    ts = np.linspace(0.0, 1.0, 6)
    try:
        covariant_derivative(ts, curve, field)
        stacked = True
    except InvariantViolation as exc:
        stacked = False
        assert f"at node {k} " in str(exc)
    assert stacked == per_node == accepted


def test_covariant_derivative_names_a_bad_curve_node():
    rng = np.random.default_rng(SEED + 8)
    curve = np.stack([_random_symmetry(4, rng)[0] for _ in range(5)])
    curve[3] *= 1.01
    with pytest.raises(InvariantViolation, match="matrix 3 of the stack"):
        covariant_derivative(np.linspace(0.0, 1.0, 5), curve, np.zeros((5, 4, 4)))


def test_covariant_derivative_output_is_the_projected_stencil():
    # criterion 7's setting: the velocity field of a geodesic; the stacked
    # validation leaves the value of the derivative bit for bit as it was
    structure, e0, e1 = random_lagrangian_pair(3, np.random.default_rng(SEED + 9))
    gen = connect(e0, e1, structure)
    ts = np.linspace(0.0, 1.0, 101)
    curve = realify_conjugation(sample(Geodesic(gen), ts), structure)
    velocity = 2.0 * np.matmul(gen.z[None, :, :], curve)
    xdot = np.gradient(velocity, ts[1] - ts[0], axis=0, edge_order=2)
    want = (xdot - np.matmul(np.matmul(curve, xdot), curve)) / 2.0
    assert np.array_equal(covariant_derivative(ts, curve, velocity), want)


def test_covariant_derivative_needs_uniform_grid():
    e0 = vertical_symmetry(1)
    curve = np.repeat(e0.matrix[None, :, :], 4, axis=0)
    field = np.zeros((4, 2, 2))
    with pytest.raises(InvariantViolation):
        covariant_derivative(np.array([0.0, 0.1, 0.3, 0.6]), curve, field)


@pytest.mark.parametrize("ts", [[0.0, math.nan, 2.0], [math.nan] * 3])
def test_covariant_derivative_refuses_a_non_finite_grid(ts):
    # a NaN step fails every comparison: it used to pass the grid check and
    # return a NaN-filled derivative
    curve = np.repeat(vertical_symmetry(2).matrix[None, :, :], 3, axis=0)
    with pytest.raises(InvariantViolation, match="grid must be uniform and increasing"):
        covariant_derivative(np.array(ts), curve, np.zeros((3, 4, 4)))


# ---------------------------------------------------------------------------
# the angle buckets at their thresholds, for several bucket widths

BUCKET_TOLS = [1e-10, 1e-8, 1e-4, 0.5]


def planted_angle_pair(angles, rng):
    """Lagrangians at principal angles `angles`: R^n x 0 and the span of
    cos(a_j) e_j + sin(a_j) e_{n+j}, both moved by one random unitary of C^n."""
    n = len(angles)
    u, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    r = np.block([[u.real, -u.imag], [u.imag, u.real]])
    q1 = r @ np.vstack([np.diag(np.cos(angles)), np.diag(np.sin(angles))])
    return (Symmetry(2.0 * r[:, :n] @ r[:, :n].T - np.eye(2 * n)),
            Symmetry(2.0 * q1 @ q1.T - np.eye(2 * n)))


def threshold_case(seed, tol, zero_side, right_side, generic):
    """A planted pair with one angle at tol * zero_side, one at
    pi/2 - tol * right_side and `generic` angles in [0.6, 0.95], with the
    bucket dimensions the widths tol must give."""
    rng = np.random.default_rng(seed)
    angles = np.concatenate([[tol * zero_side, math.pi / 2 - tol * right_side],
                             rng.uniform(0.6, 0.95, generic)])
    zero, right = int(zero_side < 1.0), int(right_side < 1.0)
    dims = {"both_plus": zero, "both_minus": zero, "plus_minus": right, "minus_plus": right,
            "generic": 2 * (generic + 2 - zero - right)}
    return planted_angle_pair(angles, rng), dims


THRESHOLD_CASES = dict(seed=st.integers(0, 2**32 - 1), tol=st.sampled_from(BUCKET_TOLS),
                       zero_side=st.sampled_from([1.0 - 1e-3, 1.0 + 1e-3]),
                       right_side=st.sampled_from([1.0 - 1e-3, 1.0 + 1e-3]),
                       generic=st.integers(0, 3))


@settings(max_examples=60, deadline=None)
@given(**THRESHOLD_CASES)
def test_five_way_buckets_land_on_the_planted_side(seed, tol, zero_side, right_side, generic):
    (e0, e1), dims = threshold_case(seed, tol, zero_side, right_side, generic)
    dec = five_way_decompose(e0, e1, tol)
    assert dec.dims() == dims
    assert_blocks_invariant(dec, e0, e1, tol)


@pytest.mark.parametrize("angle, tol", [(1.001e-8, ANGLE_TOL), (1.001e-10, 1e-10)])
def test_five_way_keeps_a_generic_angle_just_above_the_width(angle, tol):
    # the partner of a generic angle has a part orthogonal to S0 of length
    # sin(angle), so its rounding error is about eps / sin(angle) relative:
    # the generic basis must stay orthonormal and invariant all the same
    rng = np.random.default_rng(SEED + 11)
    for _ in range(20):
        e0, e1 = planted_angle_pair(np.concatenate([[angle], rng.uniform(0.6, 0.95, 2)]), rng)
        dec = five_way_decompose(e0, e1, tol)
        assert dec.dims() == block_dims(0, 0, 0, 0, 6)
        assert abs(dec.generic_angles[0] - angle) <= 1e-15
        assert_blocks_invariant(dec, e0, e1, tol)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), log_delta=st.floats(-9.0, -3.0),
       below=st.floats(1.0, 3.0), counts=st.tuples(*[st.integers(1, 2)] * 4),
       generic=st.integers(0, 4))
def test_five_way_splits_clusters_at_0_and_pi_over_2(seed, log_delta, below, counts, generic):
    # common directions beside angles delta, and swapped ones beside
    # pi/2 - delta, with the width 10 to 1000 times below delta: the cosine
    # SVD mixes each cluster's vectors, the sine SVD must separate them. Both
    # symmetries are turned by one rotation, so their J is q J0 q^T
    rng = np.random.default_rng(seed)
    delta = 10.0 ** log_delta
    width = delta * 10.0 ** -below
    zeros, small, rights, near_right = counts
    angles = np.concatenate([np.zeros(zeros), np.full(small, delta),
                             np.full(rights, math.pi / 2), np.full(near_right, math.pi / 2 - delta),
                             rng.uniform(0.1, 1.4, generic)])
    rng.shuffle(angles)
    e0, e1 = planted_angle_pair(angles, rng)
    n = len(angles)
    q = np.linalg.qr(rng.standard_normal((2 * n, 2 * n)))[0]
    structure = ComplexStructure(q @ standard_form(n) @ q.T)
    e0, e1 = (Symmetry(q @ e.matrix @ q.T) for e in (e0, e1))
    assert is_lagrangian(e0, structure) and is_lagrangian(e1, structure)
    dec = five_way_decompose(e0, e1, width)
    assert dec.dims() == block_dims(zeros, zeros, rights, rights,
                                    2 * (small + near_right + generic))
    assert_blocks_invariant(dec, e0, e1, width)


# ---------------------------------------------------------------------------
# every block reduces both symmetries

BLOCK_SIGNS = {"both_plus": (1, 1), "both_minus": (-1, -1), "plus_minus": (1, -1),
               "minus_plus": (-1, 1)}


def block_dims(both_plus, both_minus, plus_minus, minus_plus, generic):
    return {"both_plus": both_plus, "both_minus": both_minus, "plus_minus": plus_minus,
            "minus_plus": minus_plus, "generic": generic}


def assert_blocks_invariant(dec, e0, e1, tol, defect=0.0):
    """eps0 and eps1 act on the intersection blocks by their planted signs,
    within 2 sin(tol), the distance |eps v - v| of a direction v bucketed at
    an angle up to tol, and map the generic block into itself. defect adds
    the inputs' own departure from an involution, for inputs accepted
    within tolerance of one."""
    slack = 2.0 * math.sin(tol) + 1e-12 + defect
    for name, signs in BLOCK_SIGNS.items():
        b = getattr(dec, name).basis
        for e, sign in zip((e0, e1), signs):
            assert np.linalg.norm(e.matrix @ b - sign * b, 2) <= slack, name
    g = dec.generic.basis
    for e in (e0, e1):
        image = e.matrix @ g
        assert np.linalg.norm(image - g @ (g.T @ image), 2) <= 1e-12 + defect


def involution_defect(*eps):
    """max ||eps^2 - I||_2 over the symmetries."""
    return max(np.linalg.norm(e.matrix @ e.matrix - np.eye(e.ambient_dim), 2) for e in eps)


def _unequal_pairs():
    e = np.eye(4)
    plane, line_ = Subspace(e[:, :2]), Subspace(e[:, 1:2])
    tilted = Subspace(0.6 * e[:, :1] + 0.8 * e[:, 2:3])     # arccos 0.6 from the plane
    zero = Subspace.trivial(4)
    yield pytest.param(plane, line_, block_dims(1, 2, 1, 0, 0), [], id="plane/line")
    yield pytest.param(line_, plane, block_dims(1, 2, 0, 1, 0), [], id="line/plane")
    yield pytest.param(plane, zero, block_dims(0, 2, 2, 0, 0), [], id="plane/zero")
    yield pytest.param(tilted, plane, block_dims(0, 1, 0, 1, 2), [math.acos(0.6)],
                       id="tilted/plane")


@pytest.mark.parametrize("s0, s1, dims, angles", list(_unequal_pairs()))
def test_five_way_unequal_dimensions(s0, s1, dims, angles):
    # the columns the pairing leaves over are swapped directions
    e0, e1 = symmetry_from_subspace(s0), symmetry_from_subspace(s1)
    dec = five_way_decompose(e0, e1)
    assert dec.dims() == dims
    assert np.allclose(dec.generic_angles, angles, rtol=0.0, atol=1e-15)
    assert_blocks_invariant(dec, e0, e1, ANGLE_TOL)


def test_five_way_blocks_invariant_on_random_pairs():
    rng = np.random.default_rng(SEED + 13)
    for n in (1, 2, 3, 5, 8):
        for _ in range(4):
            _, e0, e1 = random_lagrangian_pair(n, rng)
            dec = five_way_decompose(e0, e1)
            assert dec.dims()["generic"] == 2 * n
            assert_blocks_invariant(dec, e0, e1, ANGLE_TOL)


if __name__ == "__main__":
    import sys

    sys.exit(pytest.main([__file__, "-v"]))
