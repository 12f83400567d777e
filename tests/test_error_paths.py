"""Error contracts: best-estimate convergence reports and guard payloads."""

import numpy as np
import pytest

from hourglass.linalg import (
    ConvergenceError,
    DomainError,
    perron_vector,
    spectral_radius_power,
)
from hourglass.sets import (
    ExplicitSet,
    GuardExceededError,
    IruSet,
    Scale,
    iru_enumerate,
    scale_set,
    transpose_set,
)
from hourglass.spectral import (
    jsr_lsr_bounds,
    rho_n_bruteforce,
    spectral_simplex,
)


def test_power_iteration_cap_reports_best_estimate():
    # Two nearly tied dominant directions force slow bracket contraction.
    a = np.array([[1.0, 1e-9], [1e-9, 1.0 - 1e-12]])
    with pytest.raises(ConvergenceError) as err:
        spectral_radius_power(a, tol=1e-14, max_iter=5)
    assert err.value.estimate == pytest.approx(1.0, abs=1e-6)


def test_perron_cap_raises():
    # Asymmetric coupling: the uniform start is not the eigenvector and the
    # near-degenerate spectrum contracts the bracket far too slowly.
    a = np.array([[1.0, 1e-9], [2e-9, 1.0]])
    with pytest.raises(ConvergenceError):
        perron_vector(a, tol=1e-15, max_iter=3)


def test_simplex_cap_carries_trace():
    rng = np.random.default_rng(0)
    s = IruSet([rng.uniform(0.1, 2.0, size=(3, 3)) for _ in range(3)])
    with pytest.raises(ConvergenceError) as err:
        spectral_simplex(s, "max", max_iter=1)
    assert hasattr(err.value, "trace")
    assert len(err.value.trace) == 1


def test_guard_errors_report_requirement():
    rng = np.random.default_rng(1)
    s = ExplicitSet(rng.uniform(0.1, 1.0, size=(4, 2, 2)))
    with pytest.raises(GuardExceededError) as err:
        jsr_lsr_bounds(s, 6, size_guard=1000)
    assert err.value.required == sum(4 ** n for n in range(1, 7))
    assert err.value.guard == 1000


def test_direction_validation():
    s = ExplicitSet(np.eye(2)[None])
    with pytest.raises(DomainError):
        rho_n_bruteforce(s, 2, "sideways")
    with pytest.raises(DomainError):
        rho_n_bruteforce(s, 0, "max")


def test_scale_rejects_nonfinite():
    with pytest.raises(DomainError):
        Scale(float("inf"), ExplicitSet(np.eye(2)[None]))
    with pytest.raises(DomainError):
        scale_set(float("nan"), ExplicitSet(np.eye(2)[None]))


def test_transpose_rejects_unknown():
    with pytest.raises(TypeError):
        transpose_set([[1.0]])


def test_enumerate_guard_matches_cardinality():
    rng = np.random.default_rng(2)
    s = IruSet([rng.uniform(0.1, 1.0, size=(3, 2)) for _ in range(2)])
    assert iru_enumerate(s, size_guard=9).size == 9
    with pytest.raises(GuardExceededError):
        iru_enumerate(s, size_guard=8)
