#!/usr/bin/env python3
"""Structured matrix sets and their Minkowski algebra.

Builds row-independent families and ordered chains, combines them with set
sums, products, and scalings, expands expression trees, and measures
distances between sets.
"""

import numpy as np

from hourglass import (
    ExplicitSet,
    IruSet,
    OrderedChain,
    Product,
    Scale,
    Sum,
    epsilon_lift,
    expr_expand,
    hausdorff_distance,
    iru_enumerate,
    minkowski_product,
    minkowski_sum,
    set_equal,
    transpose_set,
)

print("=" * 70)
print("Row-independent families")
print("=" * 70)

# Each row of the matrix is chosen independently from its own finite set of
# admissible rows; 2 x 3 x 2 choices give 12 matrices.
rng = np.random.default_rng(1)
family = IruSet([rng.uniform(0.1, 2.0, size=(k, 3)) for k in (2, 3, 2)])
print("\n", family, sep="")
members = iru_enumerate(family)
print("enumerated:", members)

print()
print("=" * 70)
print("Minkowski sums and products")
print("=" * 70)

a = ExplicitSet(rng.uniform(0.1, 1.0, size=(2, 2, 2)))
b = ExplicitSet(rng.uniform(0.1, 1.0, size=(3, 2, 2)))
print("\n|a| =", a.size, " |b| =", b.size)
print("|a + b| =", minkowski_sum(a, b).size, " (pairwise sums, deduplicated)")
print("|a b|   =", minkowski_product(a, b).size)

# A Sum tree over two row-independent families stands for their Minkowski
# sum without forming it; expanding the tree gives the pairwise sums of the
# enumerations.
f1 = IruSet([rng.uniform(0.1, 1.0, size=(2, 2)) for _ in range(2)])
f2 = IruSet([rng.uniform(0.1, 1.0, size=(2, 2)) for _ in range(2)])
tree = Sum((f1, f2))
explicit = minkowski_sum(iru_enumerate(f1), iru_enumerate(f2))
print("\nSum tree expands to the explicit sum:",
      set_equal(expr_expand(tree), explicit))

print()
print("=" * 70)
print("Expression trees")
print("=" * 70)

# (F1 F2 + 0.5 F1) expanded under a cardinality guard.
expr = Sum((Product((f1, f2)), Scale(0.5, f1)))
print("\nprojected size bound:", expr.cardinality_bound())
expanded = expr_expand(expr, size_guard=10_000)
print("expanded:", expanded)

print()
print("=" * 70)
print("Chains, lifting, and distances")
print("=" * 70)

# An ordered chain with a zero entry sits on the boundary; lifting the k-th
# member by k*eps restores strict ordering and strict positivity.
chain = OrderedChain([
    [[0.0, 1.0], [1.0, 0.5]],
    [[0.5, 1.0], [1.0, 0.5]],
    [[0.5, 1.5], [2.0, 1.0]],
])
lifted = epsilon_lift(chain, 1e-3)
print("\nchain positive before lift:", chain.is_positive)
print("chain positive after lift: ", lifted.is_positive)
print("strictly increasing after: ", lifted.is_strictly_increasing)

report = hausdorff_distance(
    ExplicitSet(lifted.matrices, dedup=False),
    ExplicitSet(chain.matrices, dedup=False),
)
print("Hausdorff distance to original:", report.distance,
      "(= chain length x eps)")

print()
print("column-uncertainty families are transposed row families:")
columns = transpose_set(family)
print("  transposed:", columns, " transposing back gives the family:",
      set_equal(transpose_set(columns), members))
