"""Lagrangian subspaces of a real symplectic vector space.

Construction and classification of minimal geodesics between Lagrangian
subspaces, Schatten-norm length functionals, graph charts of symmetric
operators, the gap metric, and Cayley-transform spectral curves. The substrate
is real throughout. Where the complexified picture is the natural one,
complex matrices are plain numpy complex arrays: `complexify` gives the n x n
matrix of a J-commuting operator, and `conjugation_matrix` gives the matrix C
of a Lagrangian symmetry, which acts as v -> C conj(v).
"""

from .complex_structure import (
    ComplexStructure,
    anticommutes_with_structure,
    commutes_with_structure,
    complexify,
    conjugation_matrix,
    is_complex_unitary,
    realify,
    realify_conjugation,
    standard_form,
)
from .errors import ComputationError, InvariantViolation, NotAGraphError
from .geodesics import (
    Geodesic,
    GeodesicGenerator,
    Multiplicity,
    MultiplicityReport,
    alternate_generators,
    classify_multiplicity,
    connect,
    distance,
    evaluate,
    exponential_map,
    length,
    sample,
    sampled_lengths,
)
from .graphs import (
    ESSENTIAL_SPECTRUM_NOTE,
    CayleyCurveResult,
    CayleyCurveSample,
    CayleyTransform,
    GraphWindowVerdict,
    TransformedGraph,
    cayley_curve,
    cayley_transform,
    codiagonal_generator,
    gap_distance,
    graph_basis,
    graph_projection,
    graph_safe_radius,
    graph_subspace,
    graph_symmetry,
    graph_window,
    is_graph,
    recover_operator,
    transformed_graph_operator,
)
from .linalg import (
    PrincipalAngles,
    SpectralDecomposition,
    expm_antisymmetric,
    max_abs,
    principal_angles,
    schatten_norm,
    spectral_decompose,
)
from .sampling import (
    perturbed_curve,
    random_antisymmetric,
    random_complex_antisymmetric,
    random_complex_rotation,
    random_horizontal,
    random_lagrangian,
    random_lagrangian_pair,
    random_symmetric,
)
from .subspaces import (
    FiveWayDecomposition,
    Projection,
    Subspace,
    Symmetry,
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

__version__ = "0.1.0"
