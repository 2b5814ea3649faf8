"""Graphs of symmetric operators as Lagrangian subspaces, and spectral curves.

The ambient space is K x K with the standard complex structure. In the
standard split the graph {(xi, a xi)} of a symmetric operator a has the
symmetry v -> C conj(v) with C = (i - a)(i + a)^(-1), a symmetric unitary
equal to minus the Cayley image (a - i)(a + i)^(-1). Every graph computation
reads that one matrix: symmetry and projection are realified C, a basis is
[Re W; Im W] with W W^T = C, the gap metric is |C_a - C_b| / 2 and recovery
is b = Re(i (I - C)(I + C)^(-1)). The one chart test, `_chart_margin`, is the
smallest singular value of the top n rows of the projection (I + eps) / 2,
([Re C, Im C] + [I 0]) / 2 for a Lagrangian (dist(-1, spec C) / 2 in exact
arithmetic), against the rank cutoff. A geodesic node carries a chart floor,
a lower bound on that margin read off the generator's record in O(n)
(`geodesics._node_certificate`): `is_graph` and `recover_operator` on a node
of `evaluate`, and the chart grid on the C_t stacks of a grid the caller
chooses (the Cayley curve, CLI `spectral-curve`), answer "inside" from it
when it clears the cutoff and run the SVD only on the rest; that `is_graph`
forms no 2n x 2n matrix of the node (see `geodesics.evaluate`). The graph window
and the safe radius are closed-form verdicts on the generator's spectrum.
The identity graph's C is iI, so a generator there has its spectral record
from one real n x n eigh, and the Cayley curve's phases are Rayleigh
quotients of each node in the real eigenbasis of the half-space block,
which diagonalises the closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .complex_structure import (
    ComplexStructure,
    _wrap_phase,
    conjugation_matrix,
    is_complex_unitary,
)
from .errors import ComputationError, InvariantViolation, NotAGraphError
from .geodesics import Geodesic, GeodesicGenerator, _stack_times, sample
from .linalg import (
    _as_2d,
    _eq_by_value,
    max_abs,
    require_square,
    require_symmetric,
    spectral_decompose,
)
from .subspaces import (
    Projection,
    Subspace,
    Symmetry,
    _as_symmetry,
    _require_conjugation_symmetries,
)
from .tolerances import (
    CAYLEY_FORM_TOL,
    GRAPH_RECOVERY_TOL,
    GRAPH_WINDOW_TOL,
    PHASE_GAP_TOL,
    RANK_RTOL,
)

# In finite dimension the essential spectrum is empty, so window conditions
# stated partly on it reduce to their eigenvalue clause. Verdicts carry this
# note so the simplification stays visible.
ESSENTIAL_SPECTRUM_NOTE = (
    "essential spectrum is empty in finite dimension; "
    "the verdict rests on the eigenvalue clause alone"
)


# ---------------------------------------------------------------------------
# building graphs


def _graph_conjugation(a, name: str = "graph operator") -> tuple[np.ndarray, np.ndarray]:
    """(C, lam) for graph(a): C = V diag((i - lam) / (i + lam)) V^T, symmetrised,
    from one validated spectral decomposition V diag(lam) V^T of a (its
    messages labelled with name)."""
    dec = spectral_decompose(a, name)
    lam, vec = dec.eigenvalues, dec.eigenvectors
    c = (vec * ((1j - lam) / (1j + lam))) @ vec.T
    return (c + c.T) / 2.0, lam


def _graph_eps(a, name: str = "graph operator") -> np.ndarray:
    """The symmetry matrix [[Re C, Im C], [Im C, -Re C]] of graph(a), the lower
    block taken as 0 - Re C so that a zero keeps its + sign."""
    c = _graph_conjugation(a, name)[0]
    n = c.shape[0]
    eps = np.empty((2 * n, 2 * n))
    eps[:n, :n], eps[n:, n:] = c.real, 0.0 - c.real
    eps[:n, n:] = eps[n:, :n] = c.imag
    return eps


def graph_basis(a) -> np.ndarray:
    """Orthonormal basis [Re W; Im W] of the graph {(xi, a xi)}, with the unitary
    W = V diag((1 + i lam) / sqrt(1 + lam^2)) V^T, so W W^T = C. Its columns
    are those of [c; a c] with c = (I + a^2)^(-1/2)."""
    dec = spectral_decompose(a, "graph operator")
    lam, vec = dec.eigenvalues, dec.eigenvectors
    w = (vec * ((1.0 + 1j * lam) / np.hypot(1.0, lam))) @ vec.T
    return np.vstack([w.real, w.imag])


def graph_subspace(a) -> Subspace:
    return Subspace(graph_basis(a))


def graph_projection(a) -> Projection:
    """Projection (eps + I) / 2 onto the graph, eps the realified C."""
    eps = _graph_eps(a)
    return Projection((eps + np.eye(eps.shape[0])) / 2.0)


def graph_symmetry(a) -> Symmetry:
    """Symmetry of the graph: realified C = (i - a)(i + a)^(-1)."""
    return Symmetry(_graph_eps(a))


def _identity_graph(n: int) -> np.ndarray:
    """[[0, I], [I, 0]], the identity graph's symmetry: graph_symmetry(np.eye(n)) bitwise."""
    return np.eye(2 * n, k=n) + np.eye(2 * n, k=-n)


def codiagonal_generator(y, base: Symmetry) -> GeodesicGenerator:
    """Generator [[0, y], [-y, 0]] (y symmetric) at a compatible base point.

    Both the vertical symmetry and any graph symmetry of an operator commuting
    with y are compatible; the constructor enforces the anticommutation. At
    the identity graph (its symmetry bitwise `_identity_graph(n)`, which is
    `graph_symmetry(np.eye(n))`) the spectral record comes from one real
    n x n eigh: C0 = iI and z = iH with H = -y, so H = O diag(theta) O^T
    and U = e^{i pi/4} O give C0 = U U^T. The norm bound ||y|| <= pi/2 is
    enforced on both paths.
    """
    arr = require_symmetric(y, "half-space block")
    n = arr.shape[0]
    z = np.zeros((2 * n, 2 * n))
    z[:n, n:] = arr
    z[n:, :n] = -arr
    structure = ComplexStructure.standard(n)
    if not np.array_equal(base.matrix, _identity_graph(n)):
        return GeodesicGenerator(z, base, structure)
    # The constructor's identities need no check at this base: z commutes with
    # J and anticommutes with [[0, I], [I, 0]] exactly, for any block, and
    # |z + z^T| = |y - y^T| is within half its antisymmetry slack, as
    # require_symmetric held y to SYM_RTOL n max|y|.
    theta, o = np.linalg.eigh(-(0.5 * arr + 0.5 * arr.T))
    return GeodesicGenerator._from_record(base, structure, np.exp(0.25j * math.pi) * o,
                                          theta, z)


# ---------------------------------------------------------------------------
# recognizing graphs and recovering operators


def _require_rank_cutoff(rank_rtol: float, name: str) -> None:
    """Singular values of the top rows of a projection lie in [0, 1], so a
    rank cutoff outside (0, 1) accepts a non-graph or refuses every graph."""
    if not 0.0 < rank_rtol < 1.0:
        raise InvariantViolation(f"{name}: rank cutoff must lie in (0, 1), got {rank_rtol!r}")


def is_graph(s, rank_rtol: float = RANK_RTOL) -> bool:
    """True iff the subspace is the graph of some operator on the half-space.

    The subspace must have dimension exactly half the ambient one to qualify.
    It is a graph iff the top n rows of its projection P = (I + eps) / 2 have
    full rank: P = Q Q^T for an orthonormal basis Q = [X; Y], so those rows
    are X Q^T and have the singular values of X, which lie in [0, 1]; the
    smallest (`_chart_margin`, which `recover_operator` and the chart grid
    test too) is compared with the absolute cutoff rank_rtol, in (0, 1), for
    any half-dimensional subspace, Lagrangian or not; a node of `evaluate`
    whose chart floor (a lower bound on it) clears the cutoff is inside with
    no SVD and no 2n x 2n matrix formed, as its dimensions need none. The
    zero space is the graph of the 0 x 0 operator.
    """
    _require_rank_cutoff(rank_rtol, "is_graph")
    eps = _as_symmetry(s)
    if eps.ambient_dim % 2:
        raise InvariantViolation("is_graph: ambient dimension must be even")
    n = eps.ambient_dim // 2
    if eps.plus_dim != n:
        return False
    return _in_chart(eps, rank_rtol)


def _in_chart(eps: Symmetry, rank_rtol: float) -> bool:
    """Whether a half-dimensional symmetry's top-row margin exceeds
    rank_rtol: at once when its chart floor (a certified geodesic node's,
    see `geodesics.evaluate`) does, otherwise by `_chart_margin`."""
    return bool(eps._chart_floor > rank_rtol
                or _chart_margin(eps.matrix[:eps.ambient_dim // 2]) > rank_rtol)


def _chart_margin(rows: np.ndarray) -> np.ndarray:
    """The smallest singular value of (rows + [I 0]) / 2, the top rows of the
    projection (I + eps) / 2, for the top n rows of eps (one (n, 2n) block or
    a stack; [Re C, Im C] for a Lagrangian). inf for n = 0."""
    n = rows.shape[-2]
    sigma = np.linalg.svd((rows + np.eye(n, 2 * n)) / 2.0, compute_uv=False)
    return sigma.min(axis=-1, initial=math.inf)


def recover_operator(s, rank_rtol: float = RANK_RTOL) -> np.ndarray:
    """The unique symmetric b with S = graph(b).

    Reads the conjugation matrix C of S in the standard split, refusing a
    subspace that is not Lagrangian (InvariantViolation) and one that
    `is_graph` refuses, by the same test `_in_chart` (NotAGraphError), and
    returns b = Re(i (I - C)(I + C)^(-1)). b must be symmetric, and the graph
    symmetry of b must reproduce S. rank_rtol must lie in (0, 1).
    """
    _require_rank_cutoff(rank_rtol, "recover_operator")
    eps = _as_symmetry(s)
    if eps.ambient_dim % 2:
        raise InvariantViolation("recover_operator: ambient dimension must be even")
    n = eps.ambient_dim // 2
    if eps.plus_dim != n:
        raise NotAGraphError(
            f"recover_operator: subspace dimension {eps.plus_dim}, expected {n}"
        )
    try:
        c = conjugation_matrix(eps.matrix, ComplexStructure.standard(n))
    except InvariantViolation as exc:
        raise InvariantViolation(f"recover_operator: subspace is not Lagrangian ({exc})") from exc
    if not _in_chart(eps, rank_rtol):
        raise NotAGraphError("recover_operator: vertical overlap, not a graph")
    eye = np.eye(n)
    b = (1j * np.linalg.solve(eye + c, eye - c)).real
    resid = max_abs(_graph_eps(b, "recovered graph operator") - eps.matrix) / 2.0
    # absolute at moderate operator size, scaled for badly conditioned graphs
    tol = GRAPH_RECOVERY_TOL * max(1.0, max_abs(b))
    if resid > tol:
        raise ComputationError(
            f"recover_operator: projection residual {resid:.3e} beyond {tol:.3e}"
        )
    return b


@dataclass(frozen=True)
class TransformedGraph:
    """Recovery of u(G_a) as a graph, with both closed-form candidates.

    operator is the ground truth, recovered from the rotated symmetry. The
    two candidate formulas differ in operator order (they agree only when
    the blocks commute); their residuals against the ground truth are reported so the
    caller can see which, if either, is exact.
    """

    __eq__ = _eq_by_value
    operator: np.ndarray
    residual_first_order: float   # (-y + x a)(x + y a)^(-1)
    residual_second_order: float  # (-y + a x)(x + a y)^(-1)


def _right_quotient(num: np.ndarray, den: np.ndarray) -> np.ndarray | None:
    """num @ inv(den), or None when den is singular."""
    try:
        return np.linalg.solve(den.T, num.T).T
    except np.linalg.LinAlgError:
        return None


def transformed_graph_operator(u, a) -> TransformedGraph:
    """Graph operator of u(G_a) for a rotation u commuting with J.

    u has the block form [[x, y], [-y, x]]; the image is a graph exactly when
    x + y a is invertible, and the ground-truth operator is recovered from
    the rotated symmetry u eps_a u^T, which raises NotAGraphError otherwise.
    """
    arr_u = require_square(u, "rotation")
    n = arr_u.shape[0] // 2
    structure = ComplexStructure.standard(n)
    if not is_complex_unitary(arr_u, structure):
        raise InvariantViolation(
            "transformed_graph_operator: rotation must be orthogonal and commute with J"
        )
    eps_a = _graph_eps(a)
    if eps_a.shape[0] != 2 * n:
        raise InvariantViolation("transformed_graph_operator: half-space size mismatch")
    arr_a = np.asarray(a, dtype=float)
    x = arr_u[:n, :n]
    y = arr_u[:n, n:]

    b = recover_operator(Symmetry(arr_u @ eps_a @ arr_u.T))
    den = x + y @ arr_a

    first = _right_quotient(-y + x @ arr_a, den)
    second = _right_quotient(-y + arr_a @ x, x + arr_a @ y)
    res_first = max_abs(first - b) if first is not None else math.inf
    res_second = max_abs(second - b) if second is not None else math.inf
    return TransformedGraph(b, res_first, res_second)


# ---------------------------------------------------------------------------
# staying inside the chart


def _chart_grid(gen: GeodesicGenerator, ts, rank_rtol: float) -> tuple[np.ndarray, np.ndarray]:
    """Conjugation matrices C_t and the chart mask of the flow e^{2tz} eps0,
    on the grid ts that the caller of `cayley_curve` or CLI `spectral-curve`
    chose.

    The flow is sampled once; evaluate(geo, t) is the symmetry of e^{tz}(S),
    the same parameter t. `sample` reads C_t in the standard split, which is
    the chart's own split only for the standard J, so a generator on any other
    J is refused (InvariantViolation), as in `cayley_curve`. The nodes are
    symmetric unitaries within the Symmetry tolerances of their real forms:
    the generator's node certificate (`geodesics._node_certificate`) bounds
    this for every t at once, and where it fails, or a node is not finite,
    one stacked check validates them, naming the first bad node. A node lies
    in the graph chart iff `_chart_margin` of its top rows [Re C_t, Im C_t]
    exceeds rank_rtol, the test `is_graph` runs on evaluate(geo, t). The
    certificate's chart floor, read off the node's phases e^{2it theta} in
    O(n) and derived in `geodesics._node_certificate`, bounds that margin
    from below, so a node whose floor clears rank_rtol is inside with no
    SVD; only the rest get `_chart_margin`.
    """
    if not gen.structure.is_standard():
        raise InvariantViolation("graph chart: requires the standard complex structure")
    t = np.asarray(ts, dtype=float).reshape(-1)
    c = sample(Geodesic(gen), t)
    certificate = gen._nodes
    if not (certificate.holds and np.isfinite(c).all()):
        _require_conjugation_symmetries(c)
    inside = certificate.chart_floor(np.exp(1j * (2.0 * t[:, None] * gen.theta))) > rank_rtol
    if not inside.all():
        rest = c[~inside]
        inside[~inside] = _chart_margin(np.concatenate([rest.real, rest.imag], -1)) > rank_rtol
    return c, inside


@dataclass(frozen=True)
class GraphWindowVerdict:
    """Eigenvalue-window check for the half-space block of a geodesic flow.

    ok is true iff every eigenvalue lies in (-pi/4 + GRAPH_WINDOW_TOL, pi/2];
    the margins measure clearance to the window ends.
    """

    __eq__ = _eq_by_value
    ok: bool
    eigenvalues: np.ndarray
    lower_margin: float
    upper_margin: float
    note: str = field(default=ESSENTIAL_SPECTRUM_NOTE)

    @property
    def curve_verified(self) -> bool:
        """ok: an accepted flow's chart margin dist(-1, spec C_t) / 2 is
        min_j |cos(pi/4 - t lam_j)| >= sin(GRAPH_WINDOW_TOL) > RANK_RTOL at
        every t in [0, 1], so every node is a graph by `is_graph`."""
        return self.ok

    def __bool__(self) -> bool:
        return self.ok


def graph_window(y) -> GraphWindowVerdict:
    """Check that the flow e^{t [[0,y],[-y,0]]} of the identity graph stays a
    graph for t in [0, 1].

    The sufficient condition is spectral: eigenvalues of y in (-pi/4, pi/2].
    The node at t has chart margin min_j |cos(pi/4 - t lam_j)|, so the left
    endpoint is excluded with margin GRAPH_WINDOW_TOL, which keeps that
    margin at least sin(GRAPH_WINDOW_TOL), above the rank cutoff. The
    eigenvalues are -theta of the flow's generator, whose constructor
    refuses ||y|| > pi/2 (InvariantViolation).
    """
    n = _as_2d(y, "half-space block", square=True).shape[0]
    if n == 0:
        raise InvariantViolation("graph_window: empty operator")
    lam = -codiagonal_generator(y, Symmetry(_identity_graph(n))).theta[::-1]
    lower = float(lam[0] + math.pi / 4.0)
    upper = float(math.pi / 2.0 - lam[-1])
    ok = bool(lam[0] > -math.pi / 4.0 + GRAPH_WINDOW_TOL and lam[-1] <= math.pi / 2.0 + 1e-12)
    return GraphWindowVerdict(ok, lam, lower, upper)


def graph_safe_radius(gen: GeodesicGenerator) -> float:
    """Largest guaranteed graph window pi / (4 ||z||) for the flow e^{tz}(S).

    Returns +inf for z = 0. From the identity graph, the node at t has chart
    margin min_j |cos(pi/4 + t theta_j)|, at least sin(pi/4 (1 - t / radius)).
    """
    norm = gen.norm
    if norm == 0.0:
        return math.inf
    return math.pi / (4.0 * norm)


# ---------------------------------------------------------------------------
# gap metric


def gap_distance(a, b) -> float:
    """Operator-norm distance between the graph projections of a and b,
    |C_a - C_b| / 2 (`_conjugation_gap`). Bounded by 1; tends to 1 as one
    operator blows up toward the vertical. Operators of different sizes are
    refused (InvariantViolation).
    """
    c_a = _graph_conjugation(a)[0]
    c_b = _graph_conjugation(b)[0]
    if c_a.shape != c_b.shape:
        raise InvariantViolation(f"gap_distance: operator sizes differ, "
                                 f"{c_a.shape[0]} and {c_b.shape[0]}")
    return _conjugation_gap(c_a, c_b)


def _conjugation_gap(c0: np.ndarray, c1: np.ndarray) -> float:
    """|C0 - C1| / 2 for the conjugation matrices of two Lagrangians, the
    operator-norm distance of their projections: p0 - p1 is the realified
    (C0 - C1) / 2 up to an orthogonal change of basis, and realifying repeats
    each singular value."""
    return float(np.linalg.svd(c0 - c1, compute_uv=False).max(initial=0.0)) / 2.0


# ---------------------------------------------------------------------------
# Cayley transform and the spectral curve


@dataclass(frozen=True)
class CayleyTransform:
    """Unitary image (f - iI)(f + iI)^(-1) of a symmetric operator.

    matrix is the n x n complex unitary. eigenphases[i] in (-pi, pi] is the
    phase of the eigenvalue image -pi + 2 arctan(lambda_i), aligned with
    ascending eigenvalues of f. The value 1 is never an eigenphase image of a
    finite eigenvalue.
    """

    __eq__ = _eq_by_value
    matrix: np.ndarray
    eigenphases: np.ndarray


def cayley_transform(a) -> CayleyTransform:
    """The Cayley image -C of a, with its eigenphases -pi + 2 arctan(lam).

    -C = V diag((lam - i) / (lam + i)) V^T is unitary by construction: V is
    orthonormal to the tolerance `spectral_decompose` holds it to, and each
    factor has modulus 1.
    """
    c, lam = _graph_conjugation(a)
    return CayleyTransform(-c, _wrap_phase(-math.pi + 2.0 * np.arctan(lam)))


@dataclass(frozen=True)
class CayleyCurveSample:
    """Eigenphase snapshot of the Cayley transform of the graph operator at t.

    phases are sorted ascending in (-pi, pi]; min_gap_to_minus_one is the
    circular distance of the closest phase to pi (the excluded point -1).
    """

    __eq__ = _eq_by_value
    t: float
    phases: np.ndarray
    min_gap_to_minus_one: float


@dataclass(frozen=True)
class CayleyCurveResult:
    """Spectral curve of a geodesic flow through the identity graph.

    trivial_flow is true iff no eigenphase comes within the phase tolerance
    of -1 anywhere on the grid, so the curve stays in the contractible set of
    unitaries avoiding -1. det_phase_change accumulates the determinant phase
    along the grid as a winding diagnostic; it is not an index.
    """

    __eq__ = _eq_by_value
    samples: tuple
    trivial_flow: bool
    min_gap: float
    closed_form_max_error: float
    det_phase_change: float
    note: str = field(default=ESSENTIAL_SPECTRUM_NOTE)

    def __bool__(self) -> bool:
        return self.trivial_flow


def cayley_curve(gen: GeodesicGenerator, ts) -> CayleyCurveResult:
    """Track Cayley eigenphases of the graph operators along a flow.

    The generator must be based at the identity graph (codiagonal block form
    [[0, y], [-y, 0]] is then automatic). The flow is sampled once; every
    grid time must lie in the graph chart (NotAGraphError naming the first
    time that does not). The Cayley image of the graph operator at t is -C_t,
    read off the node's conjugation matrix; it is checked unitary and against
    the closed form V diag(e^{-i(pi/2 + 2 t mu)}) V^T, y = V diag(mu) V^T,
    entrywise within CAYLEY_FORM_TOL (ComputationError). The phases are the
    Rayleigh quotients diag(V^T u_t V) of each node: the closed form is
    normal, so they and the eigenvalues of u_t both lie within
    n CAYLEY_FORM_TOL of its diagonal. The empty operator (n = 0) is refused
    (InvariantViolation), as in `graph_window`.
    """
    structure = gen.structure
    if not structure.is_standard():
        raise InvariantViolation("cayley_curve: requires the standard complex structure")
    n = structure.n
    if n == 0:
        raise InvariantViolation("cayley_curve: empty operator")
    if max_abs(gen.base.matrix - _identity_graph(n)) > 1e-10:
        raise InvariantViolation("cayley_curve: base point must be the identity graph")
    t_arr = np.asarray(ts, dtype=float).reshape(-1)
    if t_arr.size == 0:
        raise InvariantViolation("cayley_curve: empty grid")
    c, in_chart = _chart_grid(gen, t_arr, RANK_RTOL)
    exits = t_arr[~in_chart]
    if exits.size:
        raise NotAGraphError(f"cayley_curve: curve leaves the graph chart at t = {exits[0]:g}")
    return _cayley_result(gen, t_arr, c)


def _cayley_result(gen: GeodesicGenerator, t_arr: np.ndarray, c: np.ndarray) -> CayleyCurveResult:
    """The spectral curve from the conjugation matrices C_t of in-chart nodes.

    The closed form V D_t V^T, with y = V diag(mu) V^T read off z and
    D_t = diag(e^{-i(pi/2 + 2 t mu)}), is normal, and each node u_t = -C_t is
    held to it entrywise within CAYLEY_FORM_TOL, so ||u_t - V D_t V^T||_2 <=
    n CAYLEY_FORM_TOL. Both the eigenvalues of u_t and its Rayleigh quotients
    diag(V^T u_t V) then lie within that bound of D_t; the phases are read
    off the quotients, one stacked product for the whole grid.
    """
    n = gen.structure.n
    dec_y = spectral_decompose(gen.z[:n, n:])
    mus = dec_y.eigenvalues
    vec = dec_y.eigenvectors
    u = -c
    # moduli to 1e-10 n: tighter than the chart grid's involutive check (2e-10 n on parts)
    unitarity = max_abs(np.abs(u @ np.swapaxes(u.conj(), -1, -2) - np.eye(n)))
    if unitarity > 1e-10 * max(1, n):
        raise ComputationError("cayley_curve: image failed the unitarity check")
    diag = np.exp(-1j * (math.pi / 2.0 + 2.0 * t_arr[:, None] * mus))
    closed = _stack_times(vec * diag[:, None, :], vec.T)
    worst_form = max_abs(np.abs(u - closed))
    if worst_form > CAYLEY_FORM_TOL:
        raise ComputationError(
            f"cayley_curve: closed-form residual {worst_form:.3e} beyond {CAYLEY_FORM_TOL:.0e}"
        )
    values = np.sum(vec * _stack_times(u, vec), axis=-2)
    phases = np.sort(_wrap_phase(np.angle(values)), axis=-1)
    gaps = np.min(math.pi - np.abs(phases), axis=-1)
    samples = tuple(CayleyCurveSample(float(t), p, float(g))
                    for t, p, g in zip(t_arr, phases, gaps))
    dets = np.prod(values, axis=-1)
    det_change = float(np.sum(np.angle(dets[1:] / dets[:-1])))
    min_gap = float(np.min(gaps))
    return CayleyCurveResult(samples, bool(min_gap > PHASE_GAP_TOL), min_gap, worst_form,
                             det_change)
