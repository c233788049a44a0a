"""Newest-vertex bisection in action: marking, closure, conformity.

Starts from the two-triangle unit square whose shared diagonal is the
reference edge of both elements, bisects selectively, and shows how closure
keeps the triangulation conforming.  Finishes with the element table of
the refined mesh, each row listing its reference edge first.
"""

import numpy as np

from afem_lab import Mesh, check_conforming, refine, uniform_refine

verts = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
square = Mesh(verts, np.array([[2, 0, 1], [0, 2, 3]]),
              np.array([[0, 1], [1, 2], [2, 3], [3, 0]]))

print("initial mesh:", square.n_elements, "elements,",
      square.n_vertices, "vertices")

# marking a single element forces its neighbour across the shared reference
# edge to split as well -- the closure step at work
fine = refine(square, {0})
print("after marking element 0 only:", fine.n_elements,
      "elements (closure split the neighbour too), conforming:",
      check_conforming(fine))

# one uniform step bisects every element twice
uni = uniform_refine(square)
print("one uniform step:", uni.n_elements, "elements")

# repeated random marking keeps the family shape-regular
rng = np.random.default_rng(0)
mesh = square
for _ in range(10):
    marked = rng.choice(mesh.n_elements, max(1, mesh.n_elements // 3),
                        replace=False)
    mesh = refine(mesh, marked)
print(f"after 10 random refinement rounds: {mesh.n_elements} elements, "
      f"min angle {np.degrees(mesh.min_angle()):.1f} deg, "
      f"conforming: {check_conforming(mesh)}")

print("\nvertices of the 4-element mesh:\n", fine.vertices)
print("elements (v0, v1, v2), reference edge (v0, v1):\n", fine.elements)
