"""Every invariant check at its tolerance boundary.

Each test plants one deviation at tolerance * (1 - 1e-3), where the check
must pass, or at tolerance * (1 + 1e-3), where it must refuse with the
message spelled out here from the documented tolerance rules: the deviation
and tolerance are recomputed from the planted matrix with plain numpy. The
planted matrices are exact (signed permutations, diagonal involutions) up to
the planted entry, so the measured deviation is the planted one to about
1e-6 relative, far inside the 1e-3 margin. Single matrices, stacks with the
bad matrix at index k, 0 x 0 and 1 x 1 sizes and non-finite entries are
covered.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lagrass.complex_structure import (
    ComplexStructure,
    anticommutes_with_structure,
    commutes_with_structure,
    conjugation_matrix,
    is_complex_unitary,
)
from lagrass.errors import InvariantViolation
from lagrass.geodesics import (
    Geodesic,
    GeodesicGenerator,
    connect,
    evaluate,
    length,
    sample,
    sampled_lengths,
)
from lagrass.graphs import (
    _identity_graph,
    cayley_curve,
    codiagonal_generator,
    is_graph,
    recover_operator,
)
from lagrass.linalg import (
    SpectralDecomposition,
    as_matrix,
    require_antisymmetric,
    require_orthogonal,
    require_orthonormal_columns,
    require_symmetric,
)
from lagrass.subspaces import (
    Projection,
    Subspace,
    Symmetry,
    _require_conjugation_symmetries,
    _require_symmetries,
    _require_tangents,
    check_tangent,
    vertical_symmetry,
)
from lagrass.sampling import perturbed_curve
from lagrass.tolerances import GENERATOR_ATOL, ORTH_RTOL, SYM_RTOL

SIDE = st.sampled_from([1.0 - 1e-3, 1.0 + 1e-3])
SEED = st.integers(0, 2**32 - 1)
EXAMPLES = settings(max_examples=60, deadline=None)


def amax(x):
    return float(np.max(np.abs(x))) if np.size(x) else 0.0


def exceeds(dev, tol):
    return f" (deviation {dev:.3e} > tolerance {tol:.3e})"


def at_stack(k, stacked):
    return f" at matrix {k} of the stack" if stacked else ""


def verdict(call, factor, message):
    """Below the boundary the call passes; above it raises exactly `message`."""
    if factor < 1.0:
        call()
        return
    with pytest.raises(InvariantViolation) as info:
        call()
    assert str(info.value) == message


def signs(rng, n):
    """+-1 entries with both signs present when n >= 2."""
    s = rng.choice([-1.0, 1.0], n)
    if n >= 2:
        s[:2] = [1.0, -1.0]
        rng.shuffle(s)
    return s


def opposite_pair(rng, s):
    i = int(rng.choice(np.flatnonzero(s > 0)))
    j = int(rng.choice(np.flatnonzero(s < 0)))
    return (i, j) if rng.random() < 0.5 else (j, i)


def signed_permutation(rng, rows, cols):
    q = np.eye(rows)[:, rng.permutation(rows)[:cols]]
    return q * rng.choice([-1.0, 1.0], cols)


def stack_of(rng, make, count, k, bad):
    """count matrices from make(), matrix k replaced by bad."""
    out = np.stack([make() for _ in range(count)])
    out[k] = bad
    return out


# ---------------------------------------------------------------------------
# symmetry and antisymmetry of a single operator


@EXAMPLES
@given(seed=SEED, n=st.integers(2, 6), factor=SIDE)
def test_require_symmetric_boundary(seed, n, factor):
    rng = np.random.default_rng(seed)
    a = rng.uniform(-0.5, 0.5, (n, n))
    a = (a + a.T) / 2.0
    a[0, 0] = 1.0
    i, j = rng.choice(n, 2, replace=False)
    a[i, j] += factor * SYM_RTOL * n
    tol = SYM_RTOL * n * amax(a)
    verdict(lambda: require_symmetric(a, "a"), factor,
            "a: not symmetric" + exceeds(amax(a - a.T), tol))


@EXAMPLES
@given(seed=SEED, n=st.integers(2, 6), factor=SIDE)
def test_require_antisymmetric_boundary(seed, n, factor):
    rng = np.random.default_rng(seed)
    a = rng.uniform(-0.5, 0.5, (n, n))
    a = (a - a.T) / 2.0
    a[0, 1], a[1, 0] = 1.0, -1.0
    i = rng.integers(n)
    a[i, i] = factor * SYM_RTOL * n / 2.0
    tol = SYM_RTOL * n * amax(a)
    verdict(lambda: require_antisymmetric(a, "a"), factor,
            "a: not antisymmetric" + exceeds(amax(a + a.T), tol))


# ---------------------------------------------------------------------------
# orthonormal columns


@EXAMPLES
@given(seed=SEED, rows=st.integers(1, 6), data=st.data(), factor=SIDE,
       which=st.sampled_from(["columns", "orthogonal", "subspace", "eigenvectors"]))
def test_orthonormality_boundary(seed, rows, data, factor, which):
    rng = np.random.default_rng(seed)
    cols = rows if which == "orthogonal" else data.draw(st.integers(1, rows))
    rtol = 1e-12 if which == "eigenvectors" else ORTH_RTOL
    q = signed_permutation(rng, rows, cols)
    # (1 + d)^2 - 1 = 2 d (1 + d / 2)
    q[:, rng.integers(cols)] *= 1.0 + factor * rtol * rows / 2.0
    dev = amax(q.T @ q - np.eye(cols))
    if which == "columns":
        verdict(lambda: require_orthonormal_columns(q, "q"), factor,
                f"q: columns not orthonormal (deviation {dev:.3e})")
    elif which == "orthogonal":
        verdict(lambda: require_orthogonal(q, "g"), factor,
                f"g: not orthogonal (deviation {dev:.3e})")
    elif which == "subspace":
        verdict(lambda: Subspace(q), factor,
                f"subspace basis: columns not orthonormal (deviation {dev:.3e})")
    else:
        verdict(lambda: SpectralDecomposition(np.arange(float(cols)), q), factor,
                f"eigenvectors: columns not orthonormal (deviation {dev:.3e})")


# ---------------------------------------------------------------------------
# symmetries: one matrix or a stack


def planted_symmetry(rng, n, factor, kind, rtol):
    """A diagonal involution with one planted defect of the given kind.

    "asymmetry" adds d at (i, j) with opposite signs at i and j, which keeps
    e^2 = I exactly; "square" scales one diagonal entry by 1 + d.
    """
    s = signs(rng, n)
    e = np.diag(s)
    if kind == "asymmetry":
        i, j = opposite_pair(rng, s)
        e[i, j] += factor * rtol
    else:
        i = rng.integers(n)
        e[i, i] *= 1.0 + factor * rtol / 2.0
    return e


def symmetry_message(e, rtol, where):
    scale = amax(e)
    asym = amax(e - e.T)
    if asym > rtol * scale:
        return "symmetry: not symmetric" + where + exceeds(asym, rtol * scale)
    square = amax(e @ e.conj() - np.eye(e.shape[0]))
    return "symmetry: eps^2 != I" + where + exceeds(square, rtol * max(scale, 1.0))


@EXAMPLES
@given(seed=SEED, n=st.integers(1, 6), count=st.integers(1, 4), data=st.data(), factor=SIDE,
       kind=st.sampled_from(["asymmetry", "square"]), stacked=st.booleans())
def test_symmetry_boundary(seed, n, count, data, factor, kind, stacked):
    if kind == "asymmetry" and n == 1:
        kind = "square"
    rng = np.random.default_rng(seed)
    rtol = SYM_RTOL * n
    e = planted_symmetry(rng, n, factor, kind, rtol)
    if not stacked:
        verdict(lambda: Symmetry(e), factor, symmetry_message(e, rtol, ""))
        return
    k = data.draw(st.integers(0, count - 1))
    stack = stack_of(rng, lambda: np.diag(signs(rng, n)), count, k, e)
    verdict(lambda: _require_symmetries(stack), factor,
            symmetry_message(e, rtol, at_stack(k, True)))


@EXAMPLES
@given(seed=SEED, n=st.integers(1, 5), count=st.integers(1, 4), data=st.data(), factor=SIDE,
       kind=st.sampled_from(["asymmetry", "square"]))
def test_conjugation_symmetry_boundary(seed, n, count, data, factor, kind):
    """Symmetric unitaries C in n x n form carry the tolerances of their
    2n x 2n real symmetries, each entry measured by its larger part."""
    if kind == "asymmetry" and n == 1:
        kind = "square"
    rng = np.random.default_rng(seed)
    rtol = SYM_RTOL * 2 * n
    c = planted_symmetry(rng, n, factor, kind, rtol).astype(complex)
    k = data.draw(st.integers(0, count - 1))
    stack = stack_of(rng, lambda: np.diag(signs(rng, n)).astype(complex), count, k, c)
    verdict(lambda: _require_conjugation_symmetries(stack), factor,
            symmetry_message(c, rtol, at_stack(k, True)))


# ---------------------------------------------------------------------------
# projections


@EXAMPLES
@given(seed=SEED, n=st.integers(1, 6), factor=SIDE, kind=st.sampled_from(["asymmetry", "idempotence"]))
def test_projection_boundary(seed, n, factor, kind):
    rng = np.random.default_rng(seed)
    bits = (signs(rng, n) + 1.0) / 2.0
    p = np.diag(bits)
    rtol = SYM_RTOL * n
    if kind == "asymmetry" and n >= 2:
        # bits 1 and 0 at i and j keep p^2 = p exactly
        i, j = opposite_pair(rng, 2.0 * bits - 1.0)
        p[i, j] += factor * rtol
        tol = rtol * amax(p)
        message = "projection: not symmetric" + exceeds(amax(p - p.T), tol)
    else:
        i = rng.integers(n)
        # (1 + d)^2 - (1 + d) = d (1 + d) against rtol * (1 + d)
        p[i, i] = 1.0 + factor * rtol
        message = "projection: not idempotent within tolerance"
    verdict(lambda: Projection(p), factor, message)


# ---------------------------------------------------------------------------
# commutation with J


@EXAMPLES
@given(seed=SEED, n=st.integers(1, 5), factor=SIDE,
       which=st.sampled_from(["anticommutes", "commutes", "unitary"]))
def test_structure_predicates_boundary(seed, n, factor, which):
    rng = np.random.default_rng(seed)
    structure = ComplexStructure.standard(n)
    tol = SYM_RTOL * 2 * n
    i = rng.integers(n)
    if which == "anticommutes":
        a = vertical_symmetry(n).matrix.copy()
        a[i, i] += factor * tol           # a J + J a has +-d at (i, n+i), (n+i, i)
        assert anticommutes_with_structure(a, structure) == (factor < 1.0)
    elif which == "commutes":
        a = np.eye(2 * n)
        a[i, i] -= factor * tol
        assert commutes_with_structure(a, structure) == (factor < 1.0)
    else:
        # u^T u - I = (1 - d)^2 - 1 at (i, i); the commutator stays at d / 2
        u = np.eye(2 * n)
        u[i, i] -= factor * tol / 2.0
        assert is_complex_unitary(u, structure) == (factor < 1.0)


@EXAMPLES
@given(seed=SEED, n=st.integers(1, 4), count=st.integers(1, 4), data=st.data(), factor=SIDE)
def test_conjugation_matrix_stack_boundary(seed, n, count, data, factor):
    rng = np.random.default_rng(seed)
    structure = ComplexStructure.standard(n)
    bad = vertical_symmetry(n).matrix.copy()
    i = rng.integers(n)
    bad[i, i] += factor * SYM_RTOL * 2 * n
    k = data.draw(st.integers(0, count - 1))
    stack = stack_of(rng, lambda: vertical_symmetry(n).matrix, count, k, bad)
    verdict(lambda: conjugation_matrix(stack, structure), factor,
            "conjugation matrix: operator does not anticommute with J")


@EXAMPLES
@given(seed=SEED, n=st.integers(2, 5), factor=SIDE, which=st.sampled_from(["J", "base"]))
def test_generator_commutator_boundary(seed, n, factor, which):
    """z = [[0, y], [-y, 0]] at the vertical base plus an antisymmetric
    defect that breaks one commutation and keeps the other."""
    rng = np.random.default_rng(seed)
    y = rng.uniform(-0.1, 0.1, (n, n))
    z = np.zeros((2 * n, 2 * n))
    z[:n, n:] = y + y.T
    z[n:, :n] = -(y + y.T)
    i, j = rng.choice(n, 2, replace=False)
    p = np.zeros((n, n))
    p[i, j], p[j, i] = 1.0, -1.0
    d = factor * GENERATOR_ATOL / 2.0     # either commutator has entries 2 d
    if which == "J":
        z[:n, n:] += d * p                # [[0, p], [p, 0]]: anticommutes with the base
        z[n:, :n] += d * p
        message = "generator: does not commute with J"
    else:
        z[:n, :n] += d * p                # [[p, 0], [0, p]]: commutes with J
        z[n:, n:] += d * p
        message = "generator: does not anticommute with the base"
    verdict(lambda: GeodesicGenerator(z, vertical_symmetry(n), ComplexStructure.standard(n)),
            factor, message)


# ---------------------------------------------------------------------------
# tangent vectors


def vertical_tangent(rng, n):
    """[[0, c], [c, 0]], c symmetric with max entry 1: tangent at the
    vertical symmetry and anticommuting with J."""
    c = rng.uniform(-0.5, 0.5, (n, n))
    c = (c + c.T) / 2.0
    c[0, 0] = 1.0
    v = np.zeros((2 * n, 2 * n))
    v[:n, n:] = c
    v[n:, :n] = c
    return v


def planted_tangent(rng, n, factor, kind, tol):
    v = vertical_tangent(rng, n)
    i = rng.integers(n)
    if kind == "asymmetry":
        v[i, n + i] += factor * tol           # leaves v e + e v = 0
    elif kind == "base":
        v[i, i] += factor * tol / 2.0         # v e + e v = -2 d, J part d
    else:
        j = (i + 1) % n                       # [[0, q], [-q, 0]], q antisymmetric
        v[i, n + j] += factor * tol / 2.0
        v[j, n + i] -= factor * tol / 2.0
        v[n + j, i] += factor * tol / 2.0
        v[n + i, j] -= factor * tol / 2.0
    return v


@EXAMPLES
@given(seed=SEED, n=st.integers(1, 5), factor=SIDE,
       kind=st.sampled_from(["asymmetry", "base", "J"]))
def test_check_tangent_boundary(seed, n, factor, kind):
    if kind == "J" and n == 1:
        kind = "base"
    rng = np.random.default_rng(seed)
    rtol = SYM_RTOL * 2 * n
    v = planted_tangent(rng, n, factor, kind, rtol)
    if kind == "asymmetry":
        message = "tangent vector: not symmetric" + exceeds(amax(v - v.T), rtol * amax(v))
    elif kind == "base":
        message = "tangent vector: does not anticommute with the base symmetry"
    else:
        message = "tangent vector: does not anticommute with J"
    verdict(lambda: check_tangent(vertical_symmetry(n), v, ComplexStructure.standard(n)),
            factor, message)


@EXAMPLES
@given(seed=SEED, n=st.integers(1, 4), count=st.integers(1, 4), data=st.data(), factor=SIDE,
       kind=st.sampled_from(["asymmetry", "base"]))
def test_tangent_stack_boundary(seed, n, count, data, factor, kind):
    rng = np.random.default_rng(seed)
    rtol = SYM_RTOL * 2 * n
    v = planted_tangent(rng, n, factor, kind, rtol)
    k = data.draw(st.integers(0, count - 1))
    xs = stack_of(rng, lambda: vertical_tangent(rng, n), count, k, v)
    eps = np.broadcast_to(vertical_symmetry(n).matrix, xs.shape)
    e = vertical_symmetry(n).matrix
    scale = amax(v)
    if kind == "asymmetry":
        message = (f"tangent vector: not symmetric at node {k}"
                   + exceeds(amax(v - v.T), rtol * scale))
    else:
        message = (f"tangent vector: does not anticommute with the base symmetry at node {k}"
                   + exceeds(amax(v @ e + e @ v), rtol * scale))
    verdict(lambda: _require_tangents(eps, xs), factor, message)


# ---------------------------------------------------------------------------
# sizes 0 x 0 and 1 x 1, non-finite entries


def test_empty_matrices_pass_every_check():
    structure = ComplexStructure.standard(0)
    for a in (np.zeros((0, 0)), np.zeros((3, 0))):
        as_matrix(a)
        require_orthonormal_columns(a)
    for call in (require_symmetric, require_antisymmetric, require_orthogonal, Symmetry,
                 Projection, _require_symmetries):
        call(np.zeros((0, 0)))
    _require_symmetries(np.zeros((0, 3, 3)))
    _require_symmetries(np.zeros((2, 0, 0)))
    _require_conjugation_symmetries(np.zeros((2, 0, 0), dtype=complex))
    conjugation_matrix(np.zeros((0, 0, 0)), structure)
    assert anticommutes_with_structure(np.zeros((0, 0)), structure)
    assert is_complex_unitary(np.zeros((0, 0)), structure)


def test_one_by_one_matrices():
    require_symmetric([[2.0]])
    Symmetry([[-1.0]])
    Projection([[1.0]])
    require_orthonormal_columns([[1.0]])
    with pytest.raises(InvariantViolation, match=r"symmetry: eps\^2 != I"):
        Symmetry([[0.5]])
    with pytest.raises(InvariantViolation, match="not idempotent"):
        Projection([[0.5]])
    with pytest.raises(InvariantViolation, match="not antisymmetric"):
        require_antisymmetric([[1.0]])


def zero_geodesic():
    empty = Symmetry(np.zeros((0, 0)))
    return Geodesic(connect(empty, empty, ComplexStructure.standard(0)))


# each call on the zero space, and its expected result
ZERO_DIMENSIONAL_CALLS = {
    "sample": (lambda: sample(zero_geodesic(), [0.0, 0.5, 1.0]).shape, (3, 0, 0)),
    "evaluate": (lambda: evaluate(zero_geodesic(), 0.5).matrix.shape, (0, 0)),
    "perturbed_curve": (lambda: perturbed_curve(zero_geodesic().generator, np.zeros((0, 0)),
                                                0.1, [0.0, 0.5]).shape, (2, 0, 0)),
    "length": (lambda: [length(zero_geodesic(), k) for k in (1, 2, math.inf)], [0.0] * 3),
    "sampled_lengths": (lambda: sampled_lengths(np.zeros((5, 0, 0), dtype=complex), 0.25,
                                                [1, 2, math.inf]),
                        {1: 0.0, 2: 0.0, math.inf: 0.0}),
    # the zero space is the graph of the 0 x 0 operator
    "is_graph": (lambda: is_graph(Symmetry(np.zeros((0, 0)))), True),
    "recover_operator": (lambda: recover_operator(Symmetry(np.zeros((0, 0)))).shape, (0, 0)),
    # as graph_window, the spectral curve refuses the empty operator
    "cayley_curve": (lambda: cayley_curve(codiagonal_generator(np.zeros((0, 0)),
                                                               Symmetry(_identity_graph(0))),
                                          [0.0, 0.5]),
                     InvariantViolation("cayley_curve: empty operator")),
}


@pytest.mark.parametrize("name", sorted(ZERO_DIMENSIONAL_CALLS))
def test_zero_dimensional_inputs(name):
    call, want = ZERO_DIMENSIONAL_CALLS[name]
    if isinstance(want, Exception):
        with pytest.raises(type(want), match=f"^{want}$"):
            call()
    else:
        assert call() == want


NONFINITE_CALLS = {
    "matrix": lambda a: as_matrix(a),
    "operator": lambda a: require_symmetric(a),
    "basis": lambda a: require_orthonormal_columns(a),
    "symmetry": lambda a: Symmetry(a),
    "projection": lambda a: Projection(a),
    "subspace basis": lambda a: Subspace(a),
    "tangent vector": lambda a: check_tangent(vertical_symmetry(a.shape[0] // 2), a),
    "generator": lambda a: GeodesicGenerator(a, vertical_symmetry(a.shape[0] // 2),
                                             ComplexStructure.standard(a.shape[0] // 2)),
}


@EXAMPLES
@given(seed=SEED, n=st.integers(1, 4), bad=st.sampled_from([math.nan, math.inf, -math.inf]),
       name=st.sampled_from(sorted(NONFINITE_CALLS)))
def test_nonfinite_entry_is_refused(seed, n, bad, name):
    rng = np.random.default_rng(seed)
    a = vertical_symmetry(n).matrix.copy()
    a.flat[rng.integers(a.size)] = bad
    with pytest.raises(InvariantViolation, match=f"^{name}: entries must be finite$"):
        NONFINITE_CALLS[name](a)


@EXAMPLES
@given(seed=SEED, n=st.integers(1, 4), count=st.integers(1, 4),
       bad=st.sampled_from([math.nan, math.inf, -math.inf]), complex_form=st.booleans())
def test_nonfinite_entry_in_a_stack_is_refused(seed, n, count, bad, complex_form):
    rng = np.random.default_rng(seed)
    stack = np.stack([np.diag(signs(rng, n)) for _ in range(count)])
    if complex_form:
        stack = stack.astype(complex)
        stack.flat[rng.integers(stack.size)] = complex(0.0, bad)
        call = _require_conjugation_symmetries
    else:
        stack.flat[rng.integers(stack.size)] = bad
        call = _require_symmetries
    with pytest.raises(InvariantViolation, match="^symmetry: entries must be finite$"):
        call(stack)
