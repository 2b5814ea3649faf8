"""Exception types shared across the package."""


class InvariantViolation(ValueError):
    """An input breaks a documented precondition or representation invariant.

    Raised on entry validation (asymmetric input to a symmetric slot,
    non-orthonormal basis, tangent vector failing anticommutation, ...).
    Inputs beyond tolerance are rejected, never repaired.
    """


class ComputationError(RuntimeError):
    """A solver step failed on valid-looking input.

    Examples: principal logarithm requested at an eigenvalue -1, a geodesic
    endpoint residual beyond tolerance, a five-way decomposition whose blocks
    do not fill the ambient space.
    """


class NotAGraphError(ComputationError):
    """A subspace expected to be the graph of an operator is not one."""
