"""Acceptance suite.

Each criterion is one test that prints a single PASS/FAIL line (run with
``pytest tests/test_acceptance.py -s`` to see them) and enforces its stated
tolerance and, where applicable, its runtime budget.
"""

import time

import numpy as np
import pytest

from hourglass.alternative import (
    hourglass_h1_iru,
    hourglass_h2_iru,
    hourglass_probe_explicit,
)
from hourglass.linalg import (
    spectral_radius_gelfand,
    spectral_radius_power,
    strict_tolerance,
)
from hourglass.sets import (
    ExplicitSet,
    IruSet,
    Leaf,
    OrderedChain,
    Product,
    Scale,
    Sum,
    epsilon_lift,
    expr_expand,
    iru_enumerate,
)
from hourglass.spectral import (
    conv_lsr_check,
    finiteness_verify,
    rho_extremal_exhaustive,
    rho_n_bruteforce,
    spectral_simplex,
)

NILP_A = np.array([[0.0, 2.0], [0.0, 0.0]])
NILP_B = np.array([[0.0, 0.0], [2.0, 0.0]])
DIAG_A = np.array([[2.0, 0.0], [0.0, 0.0]])
DIAG_B = np.array([[0.0, 0.0], [0.0, 2.0]])


def _finish(number, label, started, failures, budget=None):
    elapsed = time.perf_counter() - started
    status = "PASS" if not failures else "FAIL"
    budget_note = f", budget {budget:g}s" if budget else ""
    print(f"\nACCEPTANCE {number} ({label}): {status} "
          f"({elapsed:.2f}s{budget_note})")
    assert not failures, f"criterion {number}: {failures[:5]}"
    if budget is not None:
        assert elapsed < budget, (
            f"criterion {number} took {elapsed:.2f}s, budget {budget}s"
        )


def _instances_50():
    """The shared seeded corpus: 50 positive row-independent families."""
    out = []
    for i in range(50):
        rng = np.random.default_rng(1000 + i)
        n = 2 + (i % 2)
        sizes = [int(rng.integers(1, 4)) for _ in range(n)]
        out.append(IruSet([
            rng.uniform(0.1, 2.0, size=(k, n)) for k in sizes
        ]))
    return out


def test_criterion_1_fixture_regression():
    started = time.perf_counter()
    failures = []
    cases = [
        (NILP_A, 0.0), (NILP_B, 0.0), (0.5 * (NILP_A + NILP_B), 1.0),
        (DIAG_A, 2.0), (DIAG_B, 2.0), (0.5 * (DIAG_A + DIAG_B), 1.0),
    ]
    for mat, want in cases:
        got = spectral_radius_power(mat)
        if abs(got - want) > 1e-9:
            failures.append((mat.tolist(), want, got))
    _finish(1, "fixture radii", started, failures, budget=1.0)


def test_criterion_2_product_radii_collapse():
    started = time.perf_counter()
    failures = []
    for i, family in enumerate(_instances_50()):
        report = finiteness_verify(
            family, n_max=4, sandwich_samples=5, tol=1e-7, seed=i,
            size_guard=500_000,
        )
        if not report.passed:
            failures.append((i, [(c.n, c.sandwich) for c in report.failures]))
    _finish(2, "length-n collapse on 50 families", started, failures,
            budget=60.0)


def test_criterion_3_simplex_vs_oracle():
    started = time.perf_counter()
    failures = []
    for i, family in enumerate(_instances_50()):
        enumerated = iru_enumerate(family)
        for direction, sign in (("min", -1.0), ("max", 1.0)):
            want, _ = rho_extremal_exhaustive(enumerated, direction)
            trace = spectral_simplex(family, direction)
            if abs(trace.rho - want) > 1e-8:
                failures.append((i, direction, trace.rho, want))
            rhos = [s.rho for s in trace.iterations]
            if not all(sign * (b - a) > 0 for a, b in zip(rhos, rhos[1:])):
                failures.append((i, direction, "trace not strictly monotone"))
    _finish(3, "greedy search equals oracle", started, failures, budget=10.0)


def _random_expression(rng):
    """Depth <= 3 expression over positive IRU and lifted chain leaves."""
    dim = int(rng.integers(2, 4))

    def leaf():
        if rng.integers(2) == 0:
            sizes = int(rng.integers(1, 4))
            return Leaf(IruSet([
                rng.uniform(0.1, 2.0, size=(sizes, dim)) for _ in range(dim)
            ]))
        length = int(rng.integers(2, 4))
        base = np.cumsum(rng.uniform(0.0, 1.0, size=(length, dim, dim)), axis=0)
        boundary = OrderedChain(np.floor(base * 4) / 4)  # some exact zeros
        return Leaf(epsilon_lift(boundary, 1e-3))

    def node(depth):
        if depth == 0:
            return leaf()
        kind = rng.integers(4)
        if kind == 0:
            return leaf()
        if kind == 1:
            return Sum((node(depth - 1), node(depth - 1)))
        if kind == 2:
            return Product((node(depth - 1), node(depth - 1)))
        return Scale(float(rng.uniform(0.5, 2.0)), node(depth - 1))

    while True:
        expr = node(int(rng.integers(1, 4)))
        if expr.cardinality_bound() <= 200:
            return expr


def test_criterion_4_semiring_closure():
    started = time.perf_counter()
    failures = []
    rng = np.random.default_rng(42)
    for i in range(20):
        expr = _random_expression(rng)
        expanded = expr_expand(expr, size_guard=200)
        probe = hourglass_probe_explicit(expanded, trials=500, seed=i)
        if not probe.passed:
            failures.append((i, "probe", len(probe.violations)))
        report = finiteness_verify(
            expr, n_max=3, sandwich_samples=0, tol=1e-7, seed=i,
            size_guard=4_000_000,
        )
        if not report.passed:
            failures.append((i, "finiteness", report.failures))
    _finish(4, "20 polynomial set expressions", started, failures,
            budget=120.0)


def test_criterion_5_hourglass_exactness():
    started = time.perf_counter()
    failures = []
    checked = 0
    for i in range(50):
        rng = np.random.default_rng(7000 + i)
        n = 2 + (i % 2)
        sizes = [int(rng.integers(1, 4)) for _ in range(n)]
        family = IruSet([rng.uniform(0.1, 2.0, size=(k, n)) for k in sizes])
        mats = iru_enumerate(family).matrices
        for _ in range(20):
            choice = tuple(
                int(rng.integers(len(rs))) for rs in family.row_sets
            )
            u = np.exp(rng.uniform(np.log(0.1), np.log(10.0), size=n))
            v = family.assemble(choice) @ u
            stol = strict_tolerance(v)
            checked += 1
            for fn, sign in ((hourglass_h1_iru, 1), (hourglass_h2_iru, -1)):
                out = fn(family, choice, u)
                gaps = sign * (v[None, :] - mats @ u)
                all_side = bool((gaps <= stol).all())
                witness_exists = bool((
                    (gaps >= -stol).all(axis=1) & (gaps.max(axis=1) > stol)
                ).any())
                if all_side != out.all_on_side:
                    failures.append((i, sign, "branch mismatch"))
                if out.verdict == "witness":
                    if not witness_exists:
                        failures.append((i, sign, "phantom witness"))
                    slack = out.slack
                    if slack.min() < -stol or slack.max() <= stol:
                        failures.append((i, sign, "slack contract"))
                elif not all_side:
                    failures.append((i, sign, "missed witness"))
    assert checked == 1000
    _finish(5, "1000 structured vs exhaustive decisions", started, failures)


def test_criterion_6_convex_hull_norm_bounds():
    started = time.perf_counter()
    failures = []
    for i in range(10):
        rng = np.random.default_rng(500 + i)
        n = int(rng.integers(2, 4))
        count = int(rng.integers(2, 5))
        density = float(rng.uniform(0.4, 1.0))
        mats = rng.uniform(0.0, 2.0, size=(count, n, n))
        mats *= rng.uniform(size=mats.shape) < density
        family = ExplicitSet(mats, dedup=False)
        for word_len in (1, 2, 3):
            report = conv_lsr_check(
                family, word_len, samples=200, seed=100 * i + word_len,
                tol=1e-9,
            )
            if report.norm_failures or report.srbound_failures:
                failures.append((i, word_len, report.norm_failures,
                                 report.srbound_failures))
    _finish(6, "hull norm bounds, 10 sets x 3 lengths x 200", started,
            failures)


def test_criterion_7_negative_controls():
    started = time.perf_counter()
    failures = []

    report = finiteness_verify(
        ExplicitSet([NILP_A, NILP_B]), n_max=2, sandwich_samples=0
    )
    if report.passed:
        failures.append("nilpotent pair not rejected")
    else:
        fail = report.failures[0]
        if fail.n != 2 or abs(fail.rho_hat_n - 2.0) > 1e-9:
            failures.append(("wrong failure data", fail.n, fail.rho_hat_n))

    # Search random positive pairs until the probe refutes one; a pair with
    # incomparable images exists in abundance, so this terminates quickly.
    found = None
    for seed in range(200):
        rng = np.random.default_rng(9000 + seed)
        pair = ExplicitSet(rng.uniform(0.1, 2.0, size=(2, 2, 2)), dedup=False)
        probe = hourglass_probe_explicit(pair, trials=100, seed=seed)
        if not probe.passed:
            found = (pair, probe)
            break
    if found is None:
        failures.append("no violating positive pair discovered")
    else:
        pair, probe = found
        if not pair.is_positive or not probe.violations:
            failures.append("degenerate violation report")
    _finish(7, "negative controls are rejected", started, failures)


def test_criterion_8_kernel_cross_validation():
    started = time.perf_counter()
    failures = []
    rng = np.random.default_rng(4242)
    for i in range(500):
        n = int(rng.integers(1, 9))
        a = rng.uniform(0.0, 2.0, size=(n, n))
        density = float(rng.uniform(0.2, 1.0))
        a *= rng.uniform(size=a.shape) < density
        via_power = spectral_radius_power(a)
        via_norms = spectral_radius_gelfand(a)
        if abs(via_power - via_norms) > 2e-10:
            failures.append((i, "methods disagree", via_power, via_norms))
        for eps in (1e-3, 1e-1, 1.0):
            shifted = spectral_radius_power(a + eps * np.eye(n))
            if abs(shifted - (via_power + eps)) > 2e-10:
                failures.append((i, "shift identity", eps))
    _finish(8, "power vs norm-root kernels, 500 matrices", started, failures)
