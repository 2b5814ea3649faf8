#!/usr/bin/env python3
"""Tour of the graph charts: encode subspaces as symmetric operators.

Any Lagrangian subspace transverse to the vertical is the graph of a unique
symmetric operator on the horizontal half. The tour builds graphs, recovers
their operators, measures distances in the gap metric, and pushes a graph
through a rotation to see when the image stays a graph.
"""

import math

import numpy as np

from lagrass import (
    ComplexStructure,
    NotAGraphError,
    gap_distance,
    graph_projection,
    graph_subspace,
    is_graph,
    max_abs,
    random_complex_rotation,
    random_symmetric,
    recover_operator,
    transformed_graph_operator,
    vertical_symmetry,
)

SEED = 11

rng = np.random.default_rng(SEED)
n = 3
a = random_symmetric(n, rng)

print("start from a random symmetric operator a on R^3")
sub = graph_subspace(a)
print("graph lives in R^6, dimension:", sub.dim)
print("is a graph:", is_graph(sub))
print("recovery residual:", f"{max_abs(recover_operator(sub) - a):.2e}")

print()
print("the projection onto a graph has a closed form in terms of a;")
r = np.linalg.inv(np.eye(n) + a @ a)
closed = np.block([[r, r @ a], [a @ r, a @ r @ a]])
print("closed form residual:", f"{max_abs(graph_projection(a).matrix - closed):.2e}")

print()
print("gap metric between graphs, growing with the operator distance:")
zero = np.zeros((n, n))
for lam in (0.5, 1.0, 10.0, 100.0):
    g = gap_distance(zero, lam * np.eye(n))
    print(f"  gap(graph 0, graph {lam:>6}I) = {g:.6f}"
          f"   lam/sqrt(1+lam^2) = {lam / math.sqrt(1 + lam * lam):.6f}")
print("the gap saturates below 1; the vertical sits at the boundary")

print()
print("rotations that commute with J move graphs to graphs, mostly:")
structure = ComplexStructure.standard(n)
u = random_complex_rotation(structure, rng, spread=0.4)
moved = transformed_graph_operator(u, a)
print("small rotation, image recovered, first-order closed form residual:",
      f"{moved.residual_first_order:.2e}")

# e^{(pi/2) J} = J itself: the quarter turn of C^n
try:
    transformed_graph_operator(structure.matrix, zero)
except NotAGraphError as exc:
    print("quarter turn sends the horizontal graph to the vertical:")
    print("  ", exc)
print()
print("the vertical is Lagrangian but never a graph:",
      not is_graph(vertical_symmetry(n)))
