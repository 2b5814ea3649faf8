"""Graphs of symmetric operators as Lagrangian subspaces, and spectral curves.

The ambient space is K x K with the standard complex structure. The graph of
a symmetric operator a on K is the Lagrangian subspace {(xi, a xi)}; this
module builds its basis, projection and symmetry in closed form, inverts the
construction (operator recovery), measures the gap metric between graphs, and
tracks the Cayley-transform eigenphases of the graph operators along a
geodesic, including the window and safe-radius guarantees for staying inside
the chart.

Along a flow, each node is read through the conjugation matrix C of its
symmetry (v -> C conj(v) in the standard split, a plain numpy complex array).
For the graph of f, the Cayley image (f - i)(f + i)^(-1) is exactly -C, and
the top block of an orthonormal basis has singular values |1 + spec C| / 2,
so the chart test and the Cayley curve need no operator recovery.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .complex_structure import ComplexStructure, is_complex_unitary
from .errors import ComputationError, InvariantViolation, NotAGraphError
from .geodesics import Geodesic, GeodesicGenerator, sample
from .linalg import (
    apply_function,
    max_abs,
    require_square,
    require_symmetric,
    schatten_norm,
    spectral_decompose,
)
from .subspaces import (
    Projection,
    Subspace,
    Symmetry,
    _as_symmetry,
    _require_conjugation_symmetries,
    subspace_from_symmetry,
)
from .tolerances import (
    CAYLEY_FORM_TOL,
    GENERATOR_ATOL,
    GRAPH_RECOVERY_TOL,
    GRAPH_WINDOW_TOL,
    PHASE_GAP_TOL,
    RANK_RTOL,
)

# grid size of the pointwise chart checks in graph_window and graph_safe_radius
_CHECK_GRID = 50

# In finite dimension the essential spectrum is empty, so window conditions
# stated partly on it reduce to their eigenvalue clause. Verdicts carry this
# note so the simplification stays visible.
ESSENTIAL_SPECTRUM_NOTE = (
    "essential spectrum is empty in finite dimension; "
    "the verdict rests on the eigenvalue clause alone"
)


# ---------------------------------------------------------------------------
# building graphs


def graph_basis(a) -> np.ndarray:
    """Orthonormal basis of the graph {(xi, a xi)}: columns of [c; a c] with
    c = (I + a^2)^(-1/2)."""
    arr = require_symmetric(a, "graph operator")
    dec = spectral_decompose(arr)
    c = apply_function(dec, lambda t: 1.0 / math.sqrt(1.0 + t * t))
    ac = apply_function(dec, lambda t: t / math.sqrt(1.0 + t * t))
    return np.vstack([c, ac])


def graph_subspace(a) -> Subspace:
    return Subspace(graph_basis(a))


def graph_projection(a) -> Projection:
    """Projection onto the graph in closed block form.

    Blocks are r, r a, a r a with r = (I + a^2)^(-1), assembled by functional
    calculus of a; I + a^2 is always invertible.
    """
    arr = require_symmetric(a, "graph operator")
    dec = spectral_decompose(arr)
    r = apply_function(dec, lambda t: 1.0 / (1.0 + t * t))
    ra = apply_function(dec, lambda t: t / (1.0 + t * t))
    ara = apply_function(dec, lambda t: t * t / (1.0 + t * t))
    return Projection(np.block([[r, ra], [ra, ara]]))


def graph_symmetry(a) -> Symmetry:
    return Symmetry(2.0 * graph_projection(a).matrix - np.eye(2 * np.asarray(a).shape[0]))


def _identity_graph(n: int) -> np.ndarray:
    """[[0, I], [I, 0]], the identity graph's symmetry: graph_symmetry(np.eye(n)) bitwise."""
    return np.eye(2 * n, k=n) + np.eye(2 * n, k=-n)


def codiagonal_generator(y, base: Symmetry) -> GeodesicGenerator:
    """Generator [[0, y], [-y, 0]] (y symmetric) at a compatible base point.

    Both the vertical symmetry and any graph symmetry of an operator commuting
    with y are compatible; the constructor enforces the anticommutation.
    """
    arr = require_symmetric(y, "half-space block")
    n = arr.shape[0]
    z = np.zeros((2 * n, 2 * n))
    z[:n, n:] = arr
    z[n:, :n] = -arr
    return GeodesicGenerator(z, base, ComplexStructure.standard(n))


# ---------------------------------------------------------------------------
# recognizing graphs and recovering operators


def _require_rank_cutoff(rank_rtol: float, name: str) -> None:
    """Top-block singular values of an orthonormal basis lie in [0, 1], so a
    rank cutoff outside (0, 1) accepts a non-graph or refuses every graph."""
    if not 0.0 < rank_rtol < 1.0:
        raise InvariantViolation(f"{name}: rank cutoff must lie in (0, 1), got {rank_rtol!r}")


def is_graph(s, rank_rtol: float = RANK_RTOL) -> bool:
    """True iff the subspace is the graph of some operator on the half-space.

    Equivalent to the top-half block of an orthonormal basis having full
    column rank; the subspace must have dimension exactly half the ambient
    one to qualify. rank_rtol must lie in (0, 1).
    """
    _require_rank_cutoff(rank_rtol, "is_graph")
    eps = _as_symmetry(s)
    if eps.ambient_dim % 2:
        raise InvariantViolation("is_graph: ambient dimension must be even")
    n = eps.ambient_dim // 2
    if eps.plus_dim != n:
        return False
    basis = subspace_from_symmetry(eps).basis
    sv = np.linalg.svd(basis[:n], compute_uv=False)
    # the basis is orthonormal, so top-half singular values live in [0, 1]
    # and the rank cutoff is absolute
    return bool(sv[-1] > rank_rtol)


def recover_operator(s, rank_rtol: float = RANK_RTOL) -> np.ndarray:
    """The unique symmetric b with S = graph(b).

    Solves b (top block) = (bottom block) on an orthonormal basis. Rejects
    non-graphs, rejects a nonsymmetric solution (the subspace was not
    Lagrangian), and verifies that the closed-form projection of b reproduces
    the subspace projection. rank_rtol must lie in (0, 1).
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
    basis = subspace_from_symmetry(eps).basis
    top = basis[:n]
    bottom = basis[n:]
    sv = np.linalg.svd(top, compute_uv=False)
    # absolute cutoff: hold the orthonormal basis to the same gate as is_graph
    if sv[-1] <= rank_rtol:
        raise NotAGraphError("recover_operator: vertical overlap, not a graph")
    b = np.linalg.solve(top.T, bottom.T).T
    b = require_symmetric(b, "recovered graph operator")
    # absolute at moderate operator size, scaled for badly conditioned graphs
    tol = GRAPH_RECOVERY_TOL * max(1.0, max_abs(b))
    resid = max_abs(graph_projection(b).matrix - ((eps.matrix + np.eye(2 * n)) / 2.0))
    if resid > tol:
        raise ComputationError(
            f"recover_operator: projection residual {resid:.3e} beyond {tol:.3e}"
        )
    return b


@dataclass(frozen=True)
class TransformedGraph:
    """Recovery of u(G_a) as a graph, with both closed-form candidates.

    operator is the ground truth from basis recovery. The two candidate
    formulas differ in operator order (they agree only when the blocks
    commute); their residuals against the ground truth are reported so the
    caller can see which, if either, is exact.
    """

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
    x + y a is invertible, and the ground-truth operator comes from basis
    recovery of the rotated graph, which raises NotAGraphError otherwise.
    """
    arr_u = require_square(u, "rotation")
    n = arr_u.shape[0] // 2
    structure = ComplexStructure.standard(n)
    if not is_complex_unitary(arr_u, structure):
        raise InvariantViolation(
            "transformed_graph_operator: rotation must be orthogonal and commute with J"
        )
    arr_a = require_symmetric(a, "graph operator")
    if arr_a.shape[0] != n:
        raise InvariantViolation("transformed_graph_operator: half-space size mismatch")
    x = arr_u[:n, :n]
    y = arr_u[:n, n:]

    b = recover_operator(Subspace(arr_u @ graph_basis(arr_a)))
    den = x + y @ arr_a

    first = _right_quotient(-y + x @ arr_a, den)
    second = _right_quotient(-y + arr_a @ x, x + arr_a @ y)
    res_first = max_abs(first - b) if first is not None else math.inf
    res_second = max_abs(second - b) if second is not None else math.inf
    return TransformedGraph(b, res_first, res_second)


# ---------------------------------------------------------------------------
# staying inside the chart


def _chart_grid(gen: GeodesicGenerator, ts, rank_rtol: float) -> tuple[np.ndarray, np.ndarray]:
    """Conjugation matrices C_t and the chart mask of the flow e^{2tz} eps0.

    The flow is sampled once; evaluate(geo, t) is the symmetry of e^{tz}(S),
    the same parameter t. `sample` reads C_t in the standard split, which is
    the chart's own split only for the standard J, so a generator on any other
    J is refused (InvariantViolation), as in `cayley_curve`. The nodes are
    validated in one stacked check as symmetric unitaries, with the Symmetry
    tolerances of their real forms. A node lies in the graph chart iff
    dist(-1, spec C_t) / 2, the smallest singular value of the top block of
    an orthonormal basis that `is_graph` tests, exceeds rank_rtol; C_t is
    normal, so that distance is the smallest singular value of I + C_t.
    """
    if not gen.structure.is_standard():
        raise InvariantViolation("graph chart: requires the standard complex structure")
    c = _require_conjugation_symmetries(sample(Geodesic(gen), ts))
    n = gen.structure.n
    sigma = np.linalg.svd(np.eye(n) + c, compute_uv=False)
    return c, sigma[:, -1] / 2.0 > rank_rtol


@dataclass(frozen=True)
class GraphWindowVerdict:
    """Eigenvalue-window check for the half-space block of a geodesic flow.

    ok is true iff every eigenvalue lies in (-pi/4 + GRAPH_WINDOW_TOL, pi/2];
    the margins measure clearance to the window ends. curve_verified reports
    the grid check of the flow through the identity graph (run only when ok).
    """

    ok: bool
    eigenvalues: np.ndarray
    lower_margin: float
    upper_margin: float
    curve_verified: bool = False
    note: str = field(default=ESSENTIAL_SPECTRUM_NOTE)

    def __bool__(self) -> bool:
        return self.ok


def graph_window(y) -> GraphWindowVerdict:
    """Check that the flow e^{t [[0,y],[-y,0]]} of the identity graph stays a
    graph for t in [0, 1].

    The sufficient condition is spectral: eigenvalues of y in (-pi/4, pi/2].
    The left endpoint is excluded with margin GRAPH_WINDOW_TOL so the
    pointwise grid verification stays clear of the rank cutoff. Requires
    ||y|| <= pi/2.
    """
    arr = require_symmetric(y, "half-space block")
    lam = np.linalg.eigvalsh(arr)
    if lam.size == 0:
        raise InvariantViolation("graph_window: empty operator")
    if max(abs(lam[0]), abs(lam[-1])) > math.pi / 2.0 + GENERATOR_ATOL:
        raise InvariantViolation("graph_window: operator norm exceeds pi/2")
    lower = float(lam[0] + math.pi / 4.0)
    upper = float(math.pi / 2.0 - lam[-1])
    ok = bool(lam[0] > -math.pi / 4.0 + GRAPH_WINDOW_TOL and lam[-1] <= math.pi / 2.0 + 1e-12)
    verified = False
    if ok:
        n = arr.shape[0]
        gen = codiagonal_generator(arr, Symmetry(_identity_graph(n)))
        ts = np.linspace(0.0, 1.0, _CHECK_GRID)
        exits = ts[~_chart_grid(gen, ts, RANK_RTOL)[1]]
        if exits.size:
            raise ComputationError(
                f"graph_window: curve leaves the chart at t = {exits[0]:g} "
                "despite the window condition"
            )
        verified = True
    return GraphWindowVerdict(ok, lam, lower, upper, verified)


def graph_safe_radius(gen: GeodesicGenerator) -> float:
    """Largest guaranteed graph window pi / (4 ||z||) for the flow e^{tz}(S).

    Returns +inf for z = 0. When the base is the identity graph, the claim is
    verified pointwise on a grid of [0, radius (1 - 1e-3)].
    """
    norm = gen.norm
    if norm == 0.0:
        return math.inf
    radius = math.pi / (4.0 * norm)
    if max_abs(gen.base.matrix - _identity_graph(gen.structure.n)) <= 1e-10:
        ts = np.linspace(0.0, radius * (1.0 - 1e-3), _CHECK_GRID)
        exits = ts[~_chart_grid(gen, ts, RANK_RTOL)[1]]
        if exits.size:
            raise ComputationError(
                f"graph_safe_radius: not a graph at t = {exits[0]:g}, "
                f"inside the guaranteed radius {radius:g}"
            )
    return radius


# ---------------------------------------------------------------------------
# gap metric


def gap_distance(a, b) -> float:
    """Operator-norm distance between the graph projections of a and b.

    Bounded by 1; tends to 1 as one operator blows up toward the vertical.
    """
    pa = graph_projection(a).matrix
    pb = graph_projection(b).matrix
    return schatten_norm(pa - pb, math.inf)


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

    matrix: np.ndarray
    eigenphases: np.ndarray


def _wrap_phase(phi: np.ndarray) -> np.ndarray:
    return np.where(phi > -math.pi, phi, phi + 2.0 * math.pi)


def cayley_transform(a) -> CayleyTransform:
    arr = require_symmetric(a, "operator")
    dec = spectral_decompose(arr)
    lam = dec.eigenvalues
    phases = _wrap_phase(-math.pi + 2.0 * np.arctan(lam))
    values = np.exp(1j * phases)
    vec = dec.eigenvectors
    u = (vec * values) @ vec.T
    n = arr.shape[0]
    if max_abs(np.abs(u @ u.conj().T - np.eye(n))) > 1e-10 * max(1, n):
        raise ComputationError("cayley_transform: image failed the unitarity check")
    return CayleyTransform(u, phases)


@dataclass(frozen=True)
class CayleyCurveSample:
    """Eigenphase snapshot of the Cayley transform of the graph operator at t.

    phases are sorted ascending in (-pi, pi]; min_gap_to_minus_one is the
    circular distance of the closest phase to pi (the excluded point -1).
    """

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
    the closed form with eigenvalue images e^{-i(pi/2 + 2 t mu)}.
    """
    structure = gen.structure
    if not structure.is_standard():
        raise InvariantViolation("cayley_curve: requires the standard complex structure")
    n = structure.n
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
    """The spectral curve from the conjugation matrices C_t of in-chart nodes."""
    n = gen.structure.n
    dec_y = spectral_decompose(gen.z[:n, n:])
    mus = dec_y.eigenvalues
    vec = dec_y.eigenvectors
    u = -c
    unitarity = max_abs(np.abs(u @ np.swapaxes(u.conj(), -1, -2) - np.eye(n)))
    if unitarity > 1e-10 * max(1, n):
        raise ComputationError("cayley_curve: image failed the unitarity check")
    closed = (vec * np.exp(-1j * (math.pi / 2.0 + 2.0 * t_arr[:, None] * mus))[:, None, :]) @ vec.T
    worst_form = max_abs(np.abs(u - closed))
    if worst_form > CAYLEY_FORM_TOL:
        raise ComputationError(
            f"cayley_curve: closed-form residual {worst_form:.3e} beyond {CAYLEY_FORM_TOL:.0e}"
        )
    values = np.linalg.eigvals(u)
    phases = np.sort(_wrap_phase(np.angle(values)), axis=-1)
    gaps = np.min(math.pi - np.abs(phases), axis=-1)
    samples = tuple(CayleyCurveSample(float(t), p, float(g))
                    for t, p, g in zip(t_arr, phases, gaps))
    dets = np.prod(values, axis=-1)
    det_change = float(np.sum(np.angle(dets[1:] / dets[:-1])))
    min_gap = float(np.min(gaps))
    return CayleyCurveResult(samples, bool(min_gap > PHASE_GAP_TOL), min_gap, worst_form,
                             det_change)
