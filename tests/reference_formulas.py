"""Independent reference formulas the tests check the library against."""

import numpy as np

from lagrass.errors import InvariantViolation
from lagrass.linalg import require_square
from lagrass.subspaces import Projection


def tangent_project_offdiagonal(p: Projection, a) -> np.ndarray:
    """The tangent projection written in projection coordinates:
    a -> p a (I - p) + (I - p) a p.

    Algebraically identical to `tangent_project`, the symmetry form
    a -> (a - eps a eps) / 2 at eps = 2p - I; the tests compare the two.
    """
    arr = require_square(a, "operator")
    if arr.shape[0] != p.ambient_dim:
        raise InvariantViolation("tangent projection: dimension mismatch")
    q = p.matrix
    comp = np.eye(q.shape[0]) - q
    return q @ arr @ comp + comp @ arr @ q
