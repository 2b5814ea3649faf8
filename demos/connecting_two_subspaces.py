#!/usr/bin/env python3
"""Walk through connecting two random Lagrangian subspaces with a geodesic.

Draws a pair on R^8, solves for the minimal generator z, then checks the
properties the construction promises: z commutes with the complex structure,
anticommutes with the starting symmetry, has operator norm at most pi/2, and
the flow e^{2tz} carries the first subspace onto the second at t = 1.
"""

import numpy as np

from lagrass import (
    Geodesic,
    Symmetry,
    connect,
    distance,
    evaluate,
    is_lagrangian,
    max_abs,
    random_lagrangian_pair,
    realify_conjugation,
    sample,
)

SEED = 7

rng = np.random.default_rng(SEED)
structure, first, second = random_lagrangian_pair(4, rng)
j = structure.matrix

print("ambient dimension:", structure.dim)
print("both inputs Lagrangian:",
      is_lagrangian(first, structure) and is_lagrangian(second, structure))

gen = connect(first, second, structure)
z = gen.z
print()
print("generator operator norm:", f"{gen.norm:.6f}  (bound pi/2 = {np.pi/2:.6f})")
print("commutator with J:      ", f"{max_abs(z @ j - j @ z):.2e}")
print("anticommutator with eps:", f"{max_abs(z @ first.matrix + first.matrix @ z):.2e}")

geo = Geodesic(gen)
endpoint = evaluate(geo, 1.0)
print("endpoint residual:      ", f"{max_abs(endpoint.matrix - second.matrix):.2e}")

print()
print("walking the curve, every symmetry along the way stays Lagrangian:")
ts = np.linspace(0.0, 1.0, 5)
# sample returns the n x n conjugation matrices C_t; realify them to symmetries
for t, frame in zip(ts, realify_conjugation(sample(geo, ts), structure)):
    print(f"  t = {t:.2f}  lagrangian = {is_lagrangian(Symmetry(frame), structure)}")

d = distance(first, second, structure)
print()
print("geodesic distance 2*||z||:", f"{d:.6f}")
print("half-distance under sin:  ", f"{np.sin(d / 2.0):.6f}")
p_gap = np.linalg.norm(
    (np.eye(structure.dim) + first.matrix) / 2
    - (np.eye(structure.dim) + second.matrix) / 2, ord=2)
print("projection gap:           ", f"{p_gap:.6f}  (the two agree)")
