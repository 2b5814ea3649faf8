"""Default numerical thresholds.

Shared across modules so every operation that buckets angles, tests ranks or
validates algebraic identities does it with one set of knobs. The CLI exposes
the angle buckets (one flag, `--tol-angle`, read by `decompose`) and the rank
cutoff (`--tol-rank`) as flags.
"""

# symmetry / antisymmetry / commutation checks: max|a - a^T| <= SYM_RTOL * n * max|a|
SYM_RTOL = 1e-10

# orthonormality of basis columns: max|Q^T Q - I| <= ORTH_RTOL * rows
ORTH_RTOL = 1e-10

# eigen-reassembly residual of a spectral decomposition, relative to max|eigenvalue|
RECON_RTOL = 1e-12

# principal angle <= ANGLE_ZERO_TOL  -> coincident direction
# principal angle >= pi/2 - ANGLE_RIGHT_TOL -> orthogonal direction
ANGLE_ZERO_TOL = 1e-8
ANGLE_RIGHT_TOL = 1e-8

# smallest singular value <= RANK_RTOL * largest  -> block treated as singular
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

# left-endpoint margin of the graph window, keeps grid checks off the rank cutoff
GRAPH_WINDOW_TOL = 1e-7

# agreement between recovered Cayley values and their closed form
CAYLEY_FORM_TOL = 1e-8
