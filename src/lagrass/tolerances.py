"""Default numerical thresholds.

Shared across modules so every operation that buckets angles, tests ranks or
validates algebraic identities does it with one set of knobs. The CLI exposes
the angle bucket width (`--tol-angle`, read by `decompose`, the same width
at 0 and at pi/2) and the rank cutoff (`--tol-rank`) as flags.
"""

# symmetry / antisymmetry / commutation checks: max|a - a^T| <= SYM_RTOL * n * max|a|
SYM_RTOL = 1e-10

# orthonormality of basis columns: max|Q^T Q - I| <= ORTH_RTOL * rows
ORTH_RTOL = 1e-10

# eigen-reassembly residual of a spectral decomposition, relative to max|eigenvalue|
RECON_RTOL = 1e-12

# principal angle <= ANGLE_TOL -> coincident direction;
# principal angle >= pi/2 - ANGLE_TOL -> orthogonal direction
ANGLE_TOL = 1e-8

# narrowest accepted bucket width: the computed principal angles of an
# identical pair are rounding, up to about 3e-15 for n <= 512, and a width
# below that reads them as generic
ANGLE_TOL_FLOOR = 1e-12

# graph-chart cutoff, absolute: a half-dimensional subspace is a graph iff the
# smallest singular value of its projection's top rows (in [0, 1]) exceeds it
RANK_RTOL = 1e-8

# principal log guard: rotation angle within this of pi is refused
EIGENVALUE_GAP_TOL = 1e-8

# spectral-curve verdict: min eigenphase gap to -1 above this -> trivial flow
PHASE_GAP_TOL = 1e-6

# geodesic endpoint residual allowance, scaled by ambient dimension
ENDPOINT_RTOL = 1e-9

# slack for generator invariant checks (norm bound, commutations); a principal
# angle within it of pi/2 is a pi-rotation plane of e^{2z}
GENERATOR_ATOL = 1e-8

# graph recovery: projection-reconstruction residual, scaled by operator size
GRAPH_RECOVERY_TOL = 1e-9

# left-endpoint margin of the graph window: an accepted flow's chart margin stays
# at least sin(GRAPH_WINDOW_TOL) > RANK_RTOL, so graph_window agrees with is_graph
GRAPH_WINDOW_TOL = 1e-7

# agreement between recovered Cayley values and their closed form
CAYLEY_FORM_TOL = 1e-8
