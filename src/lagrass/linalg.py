"""Real-matrix substrate: validation, spectral calculus, rotations, angles, norms.

Everything downstream (subspace geometry, geodesics, graph charts) reduces to
the operations in this module. All matrices are dense float64 numpy arrays.
Validation rejects bad input loudly; nothing is repaired in place.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ComputationError, InvariantViolation
from .tolerances import (
    EIGENVALUE_GAP_TOL,
    ORTH_RTOL,
    RECON_RTOL,
    SYM_RTOL,
)


# ---------------------------------------------------------------------------
# validation helpers

# message tail of a failed comparison in `_check`
_EXCEEDS = "{where} (deviation {dev:.3e} > tolerance {tol:.3e})"


def _check(arr: np.ndarray, name: str, checks=(), where: str = " at matrix {} of the stack",
           verdict: bool = False):
    """Validate one matrix or a stack (..., r, c) in one pass; returns arr.

    Each matrix has its own scale s = max|a|, NaN or inf exactly when an
    entry is not finite ("name: entries must be finite"). A check (identity,
    rtol, floor, message) holds the residual d of an identity of `_deviation`
    to rtol * max(s, floor), or to rtol for floor None. The first failure
    raises InvariantViolation "name: message" with {dev}, {tol} and {where}
    (`where` names the matrix of a stack) filled in, or with verdict=True
    returns False (True on success)."""
    if not arr.size:                    # no entries: every identity holds
        return True if verdict else arr
    scale = _amax(arr)
    if not np.isfinite(scale).all():
        raise InvariantViolation(f"{name}: entries must be finite")
    for identity, rtol, floor, message in checks:
        dev = _amax(_deviation(identity, arr))
        tol = rtol if floor is None else rtol * (np.maximum(scale, floor) if floor else scale)
        bad = dev > tol
        if np.count_nonzero(bad):
            if verdict:
                return False
            i = int(np.flatnonzero(bad)[0])
            raise InvariantViolation(f"{name}: " + message.format(
                where=where.format(i) if arr.ndim > 2 else "",
                dev=dev.flat[i], tol=np.broadcast_to(tol, dev.shape).flat[i]))
    return True if verdict else arr


def _amax(x: np.ndarray) -> np.ndarray:
    """max|x| per matrix, a complex entry counting with its larger part."""
    m = np.maximum(np.abs(x.real), np.abs(x.imag)) if x.dtype.kind == "c" else np.abs(x)
    return m.max(axis=(-2, -1), initial=0.0)


def _deviation(identity, a: np.ndarray) -> np.ndarray:
    """Residual at a of "symmetric" a = a^T, "antisymmetric" a = -a^T,
    "orthonormal" a^T a = I, "involutive" a conj(a) = I, "idempotent"
    a a = a, ("commutes", b) a b = b a or ("anticommutes", b) a b = -b a."""
    kind, b = identity if isinstance(identity, tuple) else (identity, None)
    if b is not None:
        return a @ b - b @ a if kind == "commutes" else a @ b + b @ a
    at = a.swapaxes(-1, -2)
    if kind in ("symmetric", "antisymmetric"):
        return a - at if kind == "symmetric" else a + at
    if kind == "idempotent":
        return a @ a - a
    p = at @ a if kind == "orthonormal" else a @ a.conj()
    k = p.shape[-1]     # p is a fresh product: the reshape is a view, p - I lands in p
    p.reshape(p.shape[:-2] + (k * k,))[..., :: k + 1] -= 1.0
    return p


def _as_2d(a, name: str, square: bool = False) -> np.ndarray:
    """Coerce to a float64 2-d array (square if asked), unchecked entries."""
    arr = np.asarray(a, dtype=float)
    if arr.ndim != 2:
        raise InvariantViolation(f"{name}: expected a 2-d array, got ndim={arr.ndim}")
    if square and arr.shape[0] != arr.shape[1]:
        raise InvariantViolation(f"{name}: expected square, got shape {arr.shape}")
    return arr


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Coerce to a finite float64 2-d array, rejecting anything else."""
    return _check(_as_2d(a, name), name)


def require_square(a, name: str = "matrix") -> np.ndarray:
    return _check(_as_2d(a, name, square=True), name)


def max_abs(a: np.ndarray) -> float:
    return float(np.abs(a).max(initial=0.0))


def require_symmetric(a, name: str = "operator") -> np.ndarray:
    """Validate symmetry within SYM_RTOL * n * max|a|. The input is returned as-is."""
    arr = _as_2d(a, name, square=True)
    return _check(arr, name, [("symmetric", SYM_RTOL * max(arr.shape[0], 1), 0.0,
                               "not symmetric" + _EXCEEDS)])


def require_antisymmetric(a, name: str = "operator") -> np.ndarray:
    arr = _as_2d(a, name, square=True)
    return _check(arr, name, [("antisymmetric", SYM_RTOL * max(arr.shape[0], 1), 0.0,
                               "not antisymmetric" + _EXCEEDS)])


def require_orthonormal_columns(q, name: str = "basis", rtol: float = ORTH_RTOL) -> np.ndarray:
    arr = _as_2d(q, name)
    return _check(arr, name, [("orthonormal", rtol * max(arr.shape[0], 1), None,
                               "columns not orthonormal (deviation {dev:.3e})")])


def require_orthogonal(g, name: str = "matrix") -> np.ndarray:
    arr = _as_2d(g, name, square=True)
    return _check(arr, name, [("orthonormal", ORTH_RTOL * max(arr.shape[0], 1), None,
                               "not orthogonal (deviation {dev:.3e})")])


# ---------------------------------------------------------------------------
# spectral calculus


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigenvalues (ascending) and orthonormal eigenvectors of a symmetric matrix."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def __post_init__(self):
        lam = np.asarray(self.eigenvalues, dtype=float)
        vec = require_orthonormal_columns(self.eigenvectors, "eigenvectors", rtol=1e-12)
        if lam.ndim != 1 or vec.shape != (vec.shape[0], lam.shape[0]):
            raise InvariantViolation("spectral decomposition: inconsistent shapes")
        if np.count_nonzero(np.diff(lam) < -1e-12 * max(1.0, max_abs(lam))):
            raise InvariantViolation("spectral decomposition: eigenvalues not ascending")
        object.__setattr__(self, "eigenvalues", lam)
        object.__setattr__(self, "eigenvectors", vec)

    @property
    def dim(self) -> int:
        return self.eigenvectors.shape[0]


def spectral_decompose(a, name: str = "operator") -> SpectralDecomposition:
    """Eigendecomposition of the symmetric part (a + a^T) / 2 of a matrix that
    passes `require_symmetric` (its messages labelled with name), with a
    reassembly check.

    The residual of V diag(lam) V^T against that part must stay below
    RECON_RTOL * n * max|lam|; otherwise the decomposition is refused.
    """
    arr = require_symmetric(a, name)
    arr = (arr + arr.T) / 2.0
    lam, vec = np.linalg.eigh(arr)
    resid = max_abs(vec @ (lam[:, None] * vec.T) - arr)
    tol = RECON_RTOL * max(arr.shape[0], 1) * max_abs(lam)
    if resid > max(tol, 1e-300):
        raise ComputationError(
            f"eigen-reassembly residual {resid:.3e} beyond tolerance {tol:.3e}"
        )
    return SpectralDecomposition(lam, vec)


def apply_function(dec: SpectralDecomposition, f) -> np.ndarray:
    """Apply a scalar function eigenvalue-wise: V diag(f(lam)) V^T.

    :param dec: spectral decomposition of a symmetric operator
    :param f: real scalar function, defined and finite at every eigenvalue
    """
    values = []
    for lam in dec.eigenvalues:
        try:
            val = float(f(float(lam)))
        except Exception as exc:
            raise InvariantViolation(f"function undefined at eigenvalue {lam!r}") from exc
        if not math.isfinite(val):
            raise InvariantViolation(f"function not finite at eigenvalue {lam!r}")
        values.append(val)
    vals = np.asarray(values)
    out = dec.eigenvectors @ (vals[:, None] * dec.eigenvectors.T)
    return (out + out.T) / 2.0


# ---------------------------------------------------------------------------
# exponential and principal logarithm of rotations


def expm_antisymmetric(z, validate: bool = True) -> np.ndarray:
    """Exponential of a real antisymmetric matrix (or a stack of them).

    Uses spectral pairing: with M = -z@z symmetric PSD and theta = sqrt(eig M),
    e^z = cos(sqrt(M)) + z sinc(sqrt(M)). The result lies in SO(n); the public
    2-d path verifies orthogonality and det +1. Each matrix of a stack is
    held to its own scale, and the first non-antisymmetric one is named.
    """
    arr = np.asarray(z, dtype=float)
    if arr.ndim < 2 or arr.shape[-1] != arr.shape[-2]:
        raise InvariantViolation("expm: expected square matrix or stack of them")
    if validate:
        _check(arr, "expm", [("antisymmetric", SYM_RTOL * arr.shape[-1], 0.0,
                              "input not antisymmetric{where} (deviation {dev:.3e})")])
    m = -np.matmul(arr, arr)
    lam, q = np.linalg.eigh(m)
    theta = np.sqrt(np.clip(lam, 0.0, None))
    qt = np.swapaxes(q, -1, -2)
    cos_part = np.matmul(q * np.cos(theta)[..., None, :], qt)
    sinc_part = np.matmul(q * np.sinc(theta / np.pi)[..., None, :], qt)
    out = cos_part + np.matmul(arr, sinc_part)
    if validate and arr.ndim == 2:
        n = arr.shape[0]
        dev = max_abs(out.T @ out - np.eye(n))
        if dev > 1e-12 * max(n, 1):
            raise ComputationError(f"expm: output not orthogonal (deviation {dev:.3e})")
        if np.linalg.det(out) < 0.0:
            raise ComputationError("expm: output determinant negative")
    return out


def logm_special_orthogonal(g) -> np.ndarray:
    """Half the principal logarithm of a special orthogonal matrix.

    Reduces g to its 2x2 rotation blocks via the real Schur form and reads one
    angle in (-pi, pi) per block, so the result z is antisymmetric by
    construction and satisfies expm_antisymmetric(2 z) = g. Any rotation angle
    within EIGENVALUE_GAP_TOL of pi (eigenvalue at -1) is refused: the principal log is
    not defined there.

    No production path calls it: it is the tests' log reference for `connect`.
    Its real Schur form is the package's only non-numpy dependency, so that
    import is deferred to the first call and `import lagrass` loads numpy
    alone.
    """
    import scipy.linalg

    arr = require_orthogonal(g, "logm input")
    n = arr.shape[0]
    if np.linalg.det(arr) < 0.0:
        raise InvariantViolation("logm: determinant must be +1")
    if n == 0:
        return np.zeros((0, 0))
    t, w = scipy.linalg.schur(arr, output="real")
    log2 = np.zeros_like(arr)
    sub_tol = 1e-12 * max(1.0, max_abs(t))
    i = 0
    while i < n:
        if i == n - 1 or abs(t[i + 1, i]) <= sub_tol:
            # 1x1 block: real eigenvalue of an orthogonal matrix, so +-1
            if t[i, i] < 0.0:
                raise ComputationError(
                    "principal log undefined: eigenvalue -1 (rotation angle pi)"
                )
            i += 1
            continue
        b = t[i : i + 2, i : i + 2]
        angle = math.atan2(b[1, 0] - b[0, 1], b[0, 0] + b[1, 1])
        if math.pi - abs(angle) <= EIGENVALUE_GAP_TOL:
            raise ComputationError(
                f"principal log undefined: rotation angle {angle:.12f} within "
                f"{EIGENVALUE_GAP_TOL:.1e} of pi"
            )
        log2[i, i + 1] = -angle
        log2[i + 1, i] = angle
        i += 2
    half = w @ log2 @ w.T / 2.0
    half = (half - half.T) / 2.0
    resid = max_abs(expm_antisymmetric(2.0 * half, validate=False) - arr)
    if resid > 1e-10 * max(n, 1):
        raise ComputationError(f"logm: round-trip residual {resid:.3e} too large")
    return half


# ---------------------------------------------------------------------------
# principal angles


@dataclass(frozen=True)
class PrincipalAngles:
    """Principal angles between two subspaces, ascending, with paired vectors.

    angles[i] is the angle between left[:, i] (in the first subspace) and
    right[:, i] (in the second). When the dimensions differ, the columns of
    the larger subspace left over by the pairing are orthogonal to the
    other subspace: left_unpaired (first) or right_unpaired (second); the
    other of the two has no columns. The five-way decomposition buckets the
    angles with one width: at most the width counts as a coincident
    direction, within it of pi/2 as an orthogonal one, anything else as
    generic.
    """

    angles: np.ndarray
    left: np.ndarray
    right: np.ndarray
    left_unpaired: np.ndarray
    right_unpaired: np.ndarray


def principal_angles(q0, q1) -> PrincipalAngles:
    """Principal angles between the column spans of two orthonormal bases.

    Cosines come from the SVD of q0^T q1; angles below pi/4 are read off one
    SVD of the sine matrix (I - P0) q1 V instead, for full accuracy near zero,
    clusters of small angles included. Returns min(k0, k1) angles in
    ascending order with paired principal vectors, and the unpaired columns.
    """
    b0 = require_orthonormal_columns(q0, "first basis")
    b1 = require_orthonormal_columns(q1, "second basis")
    if b0.shape[0] != b1.shape[0]:
        raise InvariantViolation("principal angles: ambient dimensions differ")
    return _principal_angles(b0, b1)


def _principal_angles(q0: np.ndarray, q1: np.ndarray) -> PrincipalAngles:
    """`principal_angles` for bases already known to be orthonormal.

    arccos of a singular value loses half the digits near angle 0, and inside
    a cluster of cosines near 1 the cosine SVD fixes its singular vectors
    only to about eps / (1 - cos gap). So for the s columns of right with
    cosine above cos(pi/4), one SVD of the sine matrix W = (I - P0) right[:, :s]
    (Knyazev & Argentati, SIAM J. Sci. Comput. 23(6), 2002) decides them: its
    right singular vectors, ascending, rotate those columns, the arcsines of
    its singular values are their angles, and the left vectors are their
    normalized P0 projections, of length cos(angle) >= cos(pi/4).
    """
    m = min(q0.shape[1], q1.shape[1])
    u, s, vt = np.linalg.svd(q0.T @ q1, full_matrices=True)
    left = q0 @ u
    right = q1 @ vt.T
    sigma = np.clip(s, 0.0, 1.0)
    angles = np.arccos(sigma)
    small = np.count_nonzero(sigma > math.cos(math.pi / 4.0))
    if small:
        near = right[:, :small]
        _, sines, rot = np.linalg.svd(near - q0 @ (q0.T @ near), full_matrices=False)
        right[:, :small] = near @ rot[::-1].T
        angles[:small] = np.arcsin(np.clip(sines[::-1], 0.0, 1.0))
        proj = q0 @ (q0.T @ right[:, :small])
        left[:, :small] = proj / np.linalg.norm(proj, axis=0)
    return PrincipalAngles(angles, left[:, :m], right[:, :m], left[:, m:], right[:, m:])


# ---------------------------------------------------------------------------
# Schatten norms


def schatten_norm(a, k=math.inf) -> float:
    """Schatten k-norm: (sum sigma_i^k)^(1/k); k = inf gives the operator norm.

    k must be an integer >= 1 or infinity. The whole family is unitarily
    invariant and dominates the operator norm.
    """
    arr = as_matrix(a, "operator")
    if arr.size == 0:
        return 0.0
    return float(_speed_norms(np.linalg.svd(arr, compute_uv=False)[None, :], k)[0])


def _speed_norms(values: np.ndarray, k) -> np.ndarray:
    """Schatten k-norms per row of an array of singular values."""
    if k == math.inf:
        return values.max(axis=1, initial=0.0)
    if isinstance(k, float) and k.is_integer():
        k = int(k)
    if not isinstance(k, (int, np.integer)) or k < 1:
        raise InvariantViolation(f"Schatten order must be an integer >= 1 or inf, got {k!r}")
    # rescale by the largest singular value to avoid overflow for large k
    top = values.max(axis=1, initial=0.0)
    safe = np.where(top > 0.0, top, 1.0)
    sums = np.sum((values / safe[:, None]) ** k, axis=1) ** (1.0 / k)
    return np.where(top > 0.0, safe * sums, 0.0)
