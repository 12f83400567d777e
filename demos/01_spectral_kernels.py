#!/usr/bin/env python3
"""Walkthrough of the dense spectral kernels.

Computes spectral radii by the one rule the commands use (``eigvals`` on
each irreducible block) and by two independent algorithms that cross-check
it, extracts checkable Perron eigenpair certificates, and brackets the
radius with the image ratios of test vectors.
"""

import numpy as np

from hourglass import (
    l1_operator_norm,
    perron_vector,
    spectral_radii,
    spectral_radius_gelfand,
    spectral_radius_power,
)

print("=" * 70)
print("The radius rule and two independent cross-checks")
print("=" * 70)

# Both blockwise routes handle reducible matrices exactly: this one is
# nilpotent, so every eigenvalue is 0 even though the norm is not.
nilpotent = np.array([[0.0, 2.0], [0.0, 0.0]])
print("\nnilpotent shift matrix:\n", nilpotent)
print("  block eigvals route:  ", spectral_radii(nilpotent[None])[0])
print("  power-iteration route:", spectral_radius_power(nilpotent))
print("  norm-root route:      ", spectral_radius_gelfand(nilpotent))
print("  l1 operator norm:     ", l1_operator_norm(nilpotent), "(norm != radius)")

rng = np.random.default_rng(0)
print("\nrandom nonnegative matrices, both routes, max deviation:")
worst = 0.0
for _ in range(200):
    n = int(rng.integers(1, 9))
    a = rng.uniform(0, 2, size=(n, n)) * (rng.uniform(size=(n, n)) < 0.7)
    worst = max(worst, abs(spectral_radius_power(a) - spectral_radius_gelfand(a)))
print(f"  {worst:.3e}  (each route certifies 1e-10 on its own)")

# The norm-root route works for arbitrary real matrices.
print("\nsign-flip pair, norm-root route:")
print("  rho(+I) =", spectral_radius_gelfand(np.eye(2)))
print("  rho(-I) =", spectral_radius_gelfand(-np.eye(2)))

print()
print("=" * 70)
print("Perron certificates: an eigenpair anyone can re-check")
print("=" * 70)

a = rng.uniform(0.1, 2.0, size=(3, 3))
cert = perron_vector(a)
print("\nmatrix:\n", a)
print("rho:        ", cert.rho)
print("eigenvector:", cert.eigenvector, "(positive, sums to 1)")
print("residual:   ", cert.residual)
print("bracket:    ", cert.bracket)
print("re-verified: ", np.abs(a @ cert.eigenvector - cert.rho * cert.eigenvector).max())

print()
print("=" * 70)
print("Eigenvalue bounds from a single test vector")
print("=" * 70)

# For nonnegative A and positive u, the extremes of the ratios (A u) / u
# bracket the radius (Collatz-Wielandt); at the Perron vector they meet.
for name, u in (("random u", rng.uniform(0.5, 1.5, size=3)),
                ("Perron vector", cert.eigenvector)):
    ratios = (a @ u) / u
    print(f"\n{name}: {u}")
    print(f"  {ratios.min():.12f} <= rho <= {ratios.max():.12f}")
print("actual rho:   ", cert.rho)
