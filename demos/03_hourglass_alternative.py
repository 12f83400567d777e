#!/usr/bin/env python3
"""The order dichotomy that makes structured families tractable.

For a family S, a member A~ and a positive u with v = A~ u, ask where the
images A u land relative to v.  For arbitrary sets of positive matrices the
images can be incomparable with v; for row-independent families they never
are: either every image lies above v, or one member (differing from A~ in a
single row) lies weakly below it.  That dichotomy is decided exactly here,
answered by the theorem on a structured family, and refuted by sampling
where it fails.
"""

import numpy as np

from hourglass import (
    ExplicitSet,
    IruSet,
    Product,
    hourglass_h1_iru,
    hourglass_h2_iru,
    hourglass_probe,
    hourglass_probe_explicit,
    iru_enumerate,
)

print("=" * 70)
print("Exact decisions on a row-independent family")
print("=" * 70)

rng = np.random.default_rng(2)
family = IruSet([rng.uniform(0.1, 2.0, size=(3, 3)) for _ in range(3)])
u = rng.uniform(0.3, 3.0, size=3)
choice = (1, 0, 2)
v = family.assemble(choice) @ u
print("\ncenter row choice:", choice)
print("u =", u)
print("v = A~ u =", v)

for name, fn in (("below-side (H1)", hourglass_h1_iru),
                 ("above-side (H2)", hourglass_h2_iru)):
    out = fn(family, choice, u)
    print(f"\n{name}: {out.verdict}")
    if out.verdict == "witness":
        i, j = out.witness_position
        print(f"  witness swaps row {i} for admissible row {j}")
        print("  image of witness:", out.witness_matrix @ u)
        print("  slack:", out.slack, "(zero except the swapped row)")
    else:
        print("  worst margins per row:", out.slack)

print()
print("=" * 70)
print("Sampled probe: evidence for closure, refutation for failures")
print("=" * 70)

members = iru_enumerate(family)
report = hourglass_probe_explicit(members, trials=500, seed=0)
print(f"\nenumerated family, 500 trials: "
      f"{'no violation found' if report.passed else 'VIOLATION'}")
print("  note:", report.note)
print("product tree S S, unexpanded:",
      hourglass_probe(Product((family, family)), 500, 0).note)

# Two positive matrices whose images are incomparable for many u: the
# dichotomy fails, so this pair lies outside the closed class.
pair = ExplicitSet([
    [[1.0, 1.0], [1.0, 1.0]],
    [[2.0, 1.0], [0.2, 0.2]],
])
report = hourglass_probe_explicit(pair, trials=500, seed=0)
print(f"\nincomparable pair, 500 trials: "
      f"{'no violation found' if report.passed else 'VIOLATION'}")
first = report.violations[0]
print(f"  first violation at trial {first.trial}, side {first.direction}")
print("  center index:", first.center_index, " u =", first.u)
imgs = pair.matrices @ first.u
print("  images:\n", imgs, "\n  (neither dominates the other)")
