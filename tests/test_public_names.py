"""The public surface of `lagrass`: an export is added or removed only with a
visible change to this list."""

import types

import lagrass

PUBLIC_NAMES = [
    "CayleyCurveResult", "CayleyCurveSample", "CayleyTransform", "ComplexStructure",
    "ComputationError", "ESSENTIAL_SPECTRUM_NOTE", "FiveWayDecomposition", "Geodesic",
    "GeodesicGenerator", "GraphWindowVerdict", "InvariantViolation", "Multiplicity",
    "MultiplicityReport", "NotAGraphError", "PrincipalAngles", "Projection",
    "SpectralDecomposition", "Subspace", "Symmetry", "TransformedGraph",
    "alternate_generators", "anticommutes_with_structure", "cayley_curve",
    "cayley_transform", "check_tangent", "classify_multiplicity", "codiagonal_generator",
    "commutes_with_structure", "complexify", "conjugation_matrix", "connect",
    "covariant_derivative", "distance", "evaluate", "expm_antisymmetric",
    "exponential_map", "five_way_decompose", "gap_distance", "graph_basis",
    "graph_projection", "graph_safe_radius", "graph_subspace", "graph_symmetry",
    "graph_window", "is_complex_unitary", "is_graph", "is_lagrangian", "length",
    "max_abs", "perturbed_curve", "principal_angles", "projection_from_subspace",
    "projection_from_symmetry", "random_antisymmetric", "random_complex_antisymmetric",
    "random_complex_rotation", "random_horizontal", "random_lagrangian",
    "random_lagrangian_pair", "random_symmetric", "realify", "realify_conjugation",
    "recover_operator", "sample", "sampled_lengths", "schatten_norm",
    "spectral_decompose", "standard_form", "subspace_from_symmetry",
    "symmetry_from_projection", "symmetry_from_subspace", "tangent_project",
    "transformed_graph_operator", "vertical_symmetry",
]


def test_public_names_are_pinned():
    # submodules are attributes of the package too, and which of them are
    # loaded depends on what else was imported: they are not exports
    names = sorted(name for name, value in vars(lagrass).items()
                   if not name.startswith("_") and not isinstance(value, types.ModuleType))
    assert names == PUBLIC_NAMES
