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


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Coerce to a finite float64 2-d array, rejecting anything else."""
    arr = np.asarray(a, dtype=float)
    if arr.ndim != 2:
        raise InvariantViolation(f"{name}: expected a 2-d array, got ndim={arr.ndim}")
    if arr.size and not np.all(np.isfinite(arr)):
        raise InvariantViolation(f"{name}: entries must be finite")
    return arr


def require_square(a, name: str = "matrix") -> np.ndarray:
    arr = as_matrix(a, name)
    if arr.shape[0] != arr.shape[1]:
        raise InvariantViolation(f"{name}: expected square, got shape {arr.shape}")
    return arr


def max_abs(a: np.ndarray) -> float:
    return float(np.max(np.abs(a))) if a.size else 0.0


def require_symmetric(a, name: str = "operator", rtol: float = SYM_RTOL) -> np.ndarray:
    """Validate symmetry within rtol * n * max|a|. The input is returned as-is."""
    arr = require_square(a, name)
    tol = rtol * max(arr.shape[0], 1) * max_abs(arr)
    dev = max_abs(arr - arr.T)
    if dev > tol:
        raise InvariantViolation(
            f"{name}: not symmetric (deviation {dev:.3e} > tolerance {tol:.3e})"
        )
    return arr


def require_antisymmetric(a, name: str = "operator", rtol: float = SYM_RTOL) -> np.ndarray:
    arr = require_square(a, name)
    tol = rtol * max(arr.shape[0], 1) * max_abs(arr)
    dev = max_abs(arr + arr.T)
    if dev > tol:
        raise InvariantViolation(
            f"{name}: not antisymmetric (deviation {dev:.3e} > tolerance {tol:.3e})"
        )
    return arr


def require_orthonormal_columns(q, name: str = "basis", rtol: float = ORTH_RTOL) -> np.ndarray:
    arr = as_matrix(q, name)
    k = arr.shape[1]
    if k == 0:
        return arr
    gram = arr.T @ arr
    dev = max_abs(gram - np.eye(k))
    if dev > rtol * max(arr.shape[0], 1):
        raise InvariantViolation(
            f"{name}: columns not orthonormal (deviation {dev:.3e})"
        )
    return arr


def require_orthogonal(g, name: str = "matrix", rtol: float = ORTH_RTOL) -> np.ndarray:
    arr = require_square(g, name)
    dev = max_abs(arr.T @ arr - np.eye(arr.shape[0]))
    if dev > rtol * max(arr.shape[0], 1):
        raise InvariantViolation(f"{name}: not orthogonal (deviation {dev:.3e})")
    return arr


# ---------------------------------------------------------------------------
# spectral calculus


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigenvalues (ascending) and orthonormal eigenvectors of a symmetric matrix."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def __post_init__(self):
        lam = np.asarray(self.eigenvalues, dtype=float)
        vec = as_matrix(self.eigenvectors, "eigenvectors")
        if lam.ndim != 1 or vec.shape != (vec.shape[0], lam.shape[0]):
            raise InvariantViolation("spectral decomposition: inconsistent shapes")
        scale = float(np.max(np.abs(lam))) if lam.size else 0.0
        if lam.size > 1 and np.any(np.diff(lam) < -1e-12 * max(1.0, scale)):
            raise InvariantViolation("spectral decomposition: eigenvalues not ascending")
        require_orthonormal_columns(vec, "eigenvectors", rtol=1e-12)
        object.__setattr__(self, "eigenvalues", lam)
        object.__setattr__(self, "eigenvectors", vec)

    @property
    def dim(self) -> int:
        return self.eigenvectors.shape[0]


def spectral_decompose(a) -> SpectralDecomposition:
    """Eigendecomposition of a symmetric matrix, with a reassembly check.

    The residual of V diag(lam) V^T against the input must stay below
    RECON_RTOL * n * max|lam|; otherwise the decomposition is refused.
    """
    arr = require_symmetric(a)
    lam, vec = np.linalg.eigh(arr)
    resid = max_abs(vec @ (lam[:, None] * vec.T) - arr)
    scale = float(np.max(np.abs(lam))) if lam.size else 0.0
    tol = RECON_RTOL * max(arr.shape[0], 1) * scale
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
    2-d path verifies orthogonality and det +1.
    """
    arr = np.asarray(z, dtype=float)
    if arr.ndim < 2 or arr.shape[-1] != arr.shape[-2]:
        raise InvariantViolation("expm: expected square matrix or stack of them")
    if validate:
        dev = max_abs(arr + np.swapaxes(arr, -1, -2))
        if dev > SYM_RTOL * arr.shape[-1] * max(max_abs(arr), 0.0) and arr.size:
            raise InvariantViolation(f"expm: input not antisymmetric (deviation {dev:.3e})")
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
    right[:, i] (in the second). The five-way decomposition buckets them: an
    angle at most zero_tol counts as a coincident direction, an angle within
    right_tol of pi/2 as an orthogonal one, anything else as generic.
    """

    angles: np.ndarray
    left: np.ndarray
    right: np.ndarray


def _refined_angles(sigma: np.ndarray, q0: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Angles from cosines, with a sine-based refinement for small angles.

    arccos of a singular value loses half the digits near angle 0; for angles
    below pi/4 the length of (I - P0) right is the sine and is computed stably.
    """
    sigma = np.clip(sigma, 0.0, 1.0)
    angles = np.arccos(sigma)
    small = sigma > math.cos(math.pi / 4.0)
    if np.any(small):
        resid = right[:, small] - q0 @ (q0.T @ right[:, small])
        sines = np.clip(np.linalg.norm(resid, axis=0), 0.0, 1.0)
        angles = angles.copy()
        angles[small] = np.arcsin(sines)
    return angles


def principal_angles(q0, q1) -> PrincipalAngles:
    """Principal angles between the column spans of two orthonormal bases.

    Cosines come from the SVD of q0^T q1; angles below pi/4 are refined through
    the sine route for full accuracy near zero. Returns min(k0, k1) angles in
    ascending order with paired principal vectors.
    """
    b0 = require_orthonormal_columns(q0, "first basis")
    b1 = require_orthonormal_columns(q1, "second basis")
    if b0.shape[0] != b1.shape[0]:
        raise InvariantViolation("principal angles: ambient dimensions differ")
    m = min(b0.shape[1], b1.shape[1])
    if m == 0:
        rows = b0.shape[0]
        return PrincipalAngles(np.zeros(0), np.zeros((rows, 0)), np.zeros((rows, 0)))
    u, s, vt = np.linalg.svd(b0.T @ b1, full_matrices=False)
    left = b0 @ u
    right = b1 @ vt.T
    angles = _refined_angles(s, b0, right)
    return PrincipalAngles(angles, left, right)


# ---------------------------------------------------------------------------
# Schatten norms


def singular_values(a) -> np.ndarray:
    return np.linalg.svd(as_matrix(a, "operator"), compute_uv=False)


def schatten_norm(a, k=math.inf) -> float:
    """Schatten k-norm: (sum sigma_i^k)^(1/k); k = inf gives the operator norm.

    k must be an integer >= 1 or infinity. The whole family is unitarily
    invariant and dominates the operator norm.
    """
    arr = as_matrix(a, "operator")
    if arr.size == 0:
        return 0.0
    sigma = np.linalg.svd(arr, compute_uv=False)
    if k == math.inf:
        return float(sigma[0]) if sigma.size else 0.0
    if isinstance(k, float) and k.is_integer():
        k = int(k)
    if not isinstance(k, (int, np.integer)) or k < 1:
        raise InvariantViolation(f"Schatten order must be an integer >= 1 or inf, got {k!r}")
    # rescale by the largest singular value to avoid overflow for large k
    top = float(sigma[0])
    if top == 0.0:
        return 0.0
    return top * float(np.sum((sigma / top) ** k) ** (1.0 / k))
