import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hourglass.linalg import (
    ConvergenceError,
    DimensionMismatchError,
    DomainError,
    l1_operator_norm,
    perron_vector,
    spectral_radii,
    spectral_radius_gelfand,
    spectral_radius_power,
    strict_tolerance,
)

# Regression fixtures with hand-checked spectral data: a nilpotent pair
# whose products are diagonal, and a diagonal pair whose members both have
# radius 2 while their midpoint has radius 1.
NILP_A = np.array([[0.0, 2.0], [0.0, 0.0]])
NILP_B = np.array([[0.0, 0.0], [2.0, 0.0]])
DIAG_A = np.array([[2.0, 0.0], [0.0, 0.0]])
DIAG_B = np.array([[0.0, 0.0], [0.0, 2.0]])

TOL = 1e-10


def _random_nonneg(rng, n, density=1.0):
    a = rng.uniform(0.0, 2.0, size=(n, n))
    if density < 1.0:
        a *= rng.uniform(size=(n, n)) < density
    return a


def _assert_perron_brackets(stack, tol=TOL):
    # perron_vector's bracket is d ulp wide and encloses the eigvals radius
    # to d ulp, and its rho is the power kernel's within tol.
    d = stack.shape[-1]
    for a, want in zip(stack, spectral_radii(stack)):
        cert = perron_vector(a)
        lo, hi = cert.bracket
        slack = 4 * d * np.finfo(float).eps * want
        assert hi - lo <= 1e-15 * d * hi
        assert lo - slack <= want <= hi + slack
        assert abs(cert.rho - spectral_radius_power(a, tol)) <= tol


class TestMatMul:
    """The plain ``@`` products the kernels and word sweeps build on."""

    def test_identity(self):
        np.testing.assert_array_equal(np.eye(2) @ NILP_A, NILP_A)

    def test_hand_product(self):
        # [[0,2],[0,0]] @ [[0,0],[2,0]] worked out by hand
        np.testing.assert_array_equal(NILP_A @ NILP_B, [[4.0, 0.0], [0.0, 0.0]])
        np.testing.assert_array_equal(NILP_B @ NILP_A, [[0.0, 0.0], [0.0, 4.0]])

    def test_zero_annihilates(self):
        z = np.zeros((2, 2))
        np.testing.assert_array_equal(z @ NILP_A, z)

    def test_nonnegative_closure(self):
        rng = np.random.default_rng(0)
        a, b = _random_nonneg(rng, 4), _random_nonneg(rng, 4)
        assert np.all(a @ b >= 0)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            np.ones((2, 3)) @ np.ones((2, 3))


class TestL1OperatorNorm:
    def test_identity(self):
        assert l1_operator_norm(np.eye(3)) == 1.0

    def test_single_column(self):
        assert l1_operator_norm(NILP_A) == 2.0

    def test_row_space_mass(self):
        # For nonneg A, ||A e||_1 equals the total entry sum and is at most
        # N times the operator norm.
        rng = np.random.default_rng(1)
        for _ in range(20):
            a = _random_nonneg(rng, 5)
            e = np.ones(5)
            mass = np.abs(a @ e).sum()
            assert mass == pytest.approx(a.sum(), rel=1e-13)
            assert mass <= 5 * l1_operator_norm(a) + 1e-12


class TestSpectralRadiusPower:
    def test_diagonal_member(self):
        assert spectral_radius_power(DIAG_A) == pytest.approx(2.0, abs=1e-12)

    def test_midpoint_of_nilpotents(self):
        mid = 0.5 * (NILP_A + NILP_B)
        assert spectral_radius_power(mid) == pytest.approx(1.0, abs=1e-10)

    def test_nilpotent(self):
        assert spectral_radius_power(NILP_A) == pytest.approx(0.0, abs=1e-12)

    def test_rejects_negative(self):
        with pytest.raises(DomainError):
            spectral_radius_power(-np.eye(2))

    def test_rejects_nonsquare(self):
        with pytest.raises(DimensionMismatchError):
            spectral_radius_power(np.ones((2, 3)))

    def test_matches_eigvals_on_random(self):
        rng = np.random.default_rng(2)
        for _ in range(25):
            n = int(rng.integers(1, 9))
            a = _random_nonneg(rng, n, density=float(rng.uniform(0.3, 1.0)))
            want = np.abs(np.linalg.eigvals(a)).max()
            assert spectral_radius_power(a, TOL) == pytest.approx(want, abs=5e-10)

    def test_failing_member_estimate_lies_in_its_bracket(self):
        # A member with a zero entry that misses tol within max_iter steps
        # raises with an estimate within the bracket it reports of the
        # radius spectral_radii answers.
        sparse = np.array([[0.0, 1.0, 0.3], [0.2, 0.0, 1.0], [1.0, 0.4, 0.0]])
        for member in (sparse, sparse.T):
            with pytest.raises(ConvergenceError) as err:
                spectral_radius_power(member, tol=1e-14, max_iter=5)
            width = float(re.search(r"still (\S+) wide", str(err.value))[1])
            rho = spectral_radii(member[None])[0]
            assert abs(err.value.estimate - rho) <= width / 2

    def test_widest_failing_block_is_reported(self):
        # Two slow irreducible blocks with one largest entry, so one shift:
        # in either block order the message names the wider bracket.
        a = np.array([[1.0, 0.2], [0.7, 0.1]])
        b = np.array([[0.3, 1.0, 0.1], [0.2, 0.1, 0.9], [0.8, 0.4, 0.2]])
        kw = {"max_iter": 3}
        alone = []
        for block in (a, b):
            with pytest.raises(ConvergenceError) as err:
                spectral_radius_power(block, **kw)
            width = float(re.search(r"still (\S+) wide", str(err.value))[1])
            alone.append((width, err.value.estimate))
        assert alone[0][0] != alone[1][0]
        za, zb = np.zeros((2, 3)), np.zeros((3, 2))
        for member in (np.block([[a, za], [zb, b]]), np.block([[b, zb], [za, a]])):
            with pytest.raises(ConvergenceError) as err:
                spectral_radius_power(member, **kw)
            assert f"still {max(alone)[0]:.3e} wide" in str(err.value)
            assert err.value.estimate == max(e for _, e in alone)


def _two_by_two_radii(m):
    """Closed-form Perron roots (tr + sqrt(tr^2 - 4 det)) / 2 of nonnegative
    2x2 matrices, the discriminant written as (a - d)^2 + 4bc, which has no
    cancellation."""
    a, b, c, d = m[..., 0, 0], m[..., 0, 1], m[..., 1, 0], m[..., 1, 1]
    return 0.5 * ((a + d) + np.sqrt((a - d) ** 2 + 4.0 * b * c))


class TestSpectralRadii:
    """Every member takes ``eigvals`` on its irreducible blocks (positive
    members in one batched call); the blockwise power kernel cross-checks
    it."""

    @staticmethod
    def _assert_per_member(stack, tol=TOL):
        # Every member agrees with the power kernel within its tolerance.
        want = np.array([spectral_radius_power(a, tol) for a in stack])
        got = spectral_radii(stack)
        assert got.shape == want.shape
        np.testing.assert_allclose(got, want, rtol=0, atol=tol)

    def test_random_positive_stacks(self):
        rng = np.random.default_rng(11)
        for d in range(1, 9):
            for scale in (0.01, 1.0, 30.0):
                k = int(rng.integers(1, 40))
                stack = rng.uniform(0.01, 2.0, size=(k, d, d)) * scale
                self._assert_per_member(stack)
                self._assert_per_member(stack, tol=1e-8)
                _assert_perron_brackets(stack)
                _assert_perron_brackets(stack, tol=1e-8)
                if d == 2:
                    np.testing.assert_allclose(spectral_radii(stack),
                                               _two_by_two_radii(stack),
                                               rtol=1e-15, atol=0)

    def test_small_magnitude_converges(self):
        # At 1e-12 the power kernel's absolute bracket is vacuous; the
        # eigvals radii and perron_vector's bracket keep their relative
        # precision, and the power kernel meets a tolerance scaled with
        # the input.
        pair = 1e-12 * np.array([[[0.3, 0.7], [0.2, 0.9]], [[1.0, 2.0], [3.0, 4.0]]])
        np.testing.assert_allclose(spectral_radii(pair), _two_by_two_radii(pair),
                                   rtol=1e-15, atol=0)
        rng = np.random.default_rng(16)
        for d in range(2, 9):
            stack = rng.uniform(0.01, 2.0, size=(10, d, d))
            small = spectral_radii(1e-6 * stack)
            np.testing.assert_allclose(small, 1e-6 * spectral_radii(stack),
                                       rtol=1e-14, atol=0)
            _assert_perron_brackets(1e-6 * stack, tol=1e-6 * TOL)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), d=st.integers(2, 6),
           log_t=st.floats(-12.0, 12.0))
    def test_scale_equivariant(self, seed, d, log_t):
        stack = np.random.default_rng(seed).uniform(0.01, 2.0, size=(5, d, d))
        t = 10.0 ** log_t
        np.testing.assert_allclose(spectral_radii(t * stack) / t,
                                   spectral_radii(stack), rtol=1e-14, atol=0)
        if d == 2:
            np.testing.assert_allclose(spectral_radii(t * stack),
                                       _two_by_two_radii(t * stack),
                                       rtol=1e-15, atol=0)

    def test_fixtures(self):
        self._assert_per_member(np.stack([NILP_A, NILP_B, 0.5 * (NILP_A + NILP_B)]))
        self._assert_per_member(np.stack([DIAG_A, DIAG_B, 0.5 * (DIAG_A + DIAG_B)]))
        # Closed forms at any magnitude: an anti-diagonal [[0, b], [c, 0]]
        # has radius sqrt(bc) (to a few ulp; the first two sit where the
        # power kernel's absolute bracket cannot close), a triangular
        # [[a, b], [0, d]] exactly max(a, d).
        a, b, c, d = 10.0 ** np.random.default_rng(17).uniform(-6, 6, (4, 50))
        b[:2], c[:2] = [6322.32432654, 1e6], [10724.02404232, 2e6]
        zero = np.zeros_like(a)
        anti = np.stack([[zero, b], [c, zero]]).transpose(2, 0, 1)
        np.testing.assert_allclose(spectral_radii(anti), np.sqrt(b * c),
                                   rtol=1e-15, atol=0)
        triangular = np.stack([[a, b], [zero, d]]).transpose(2, 0, 1)
        np.testing.assert_array_equal(spectral_radii(triangular),
                                      np.maximum(a, d))

    def test_mixed_zero_and_positive_stacks(self):
        rng = np.random.default_rng(12)
        for d in range(1, 9):
            stack = rng.uniform(0.0, 2.0, size=(30, d, d))
            stack *= (rng.uniform(size=stack.shape) < 0.8) | (
                np.arange(30)[:, None, None] % 2 == 0)
            stack[3] = 0.0
            self._assert_per_member(np.round(stack, 1))
            self._assert_per_member(stack)

    def test_blocks_of_the_stack(self):
        # A member's radius does not depend on the members batched with it.
        rng = np.random.default_rng(13)
        stack = rng.uniform(0.0, 1.0, size=(50, 3, 3))
        stack[::4, 0, 1] = 0.0
        want = spectral_radii(stack)
        for step in (1, 2, 7):
            got = [spectral_radii(stack[i:i + step])
                   for i in range(0, len(stack), step)]
            np.testing.assert_array_equal(np.concatenate(got), want)

    def test_defective_reducible_member_takes_the_power_kernel(self):
        # P [[B, C], [0, B]] P^T repeats B's Perron root in one Jordan
        # block, where whole-matrix eigvals loses half the digits (3.2e-8
        # relative off with OpenBLAS's LAPACK).  Each irreducible block
        # holds the root once, so the block split is exact; the power
        # kernel agrees within its bracket.
        b = np.array([[0.2, 0.9], [1.0, 0.2]])
        c = np.array([[0.7, 0.8], [1.0, 0.9]])
        p = np.eye(4)[[2, 0, 3, 1]]
        a = p @ np.block([[b, c], [np.zeros((2, 2)), b]]) @ p.T
        want = _two_by_two_radii(b)
        got = spectral_radii(a[None])[0]
        assert got == pytest.approx(want, rel=1e-15, abs=0)
        assert spectral_radius_power(a) == pytest.approx(want, rel=0, abs=TOL)

    def test_nearly_reducible_positive_member_is_answered(self):
        # Eigenvalues 1 +- sqrt(1e-23), 6e-12 apart: the power kernel's
        # bracket barely contracts and misses tol after max_iter steps.
        a = np.array([[1.0, 1e-3], [1e-20, 1.0]])
        with pytest.raises(ConvergenceError):
            spectral_radius_power(a)
        assert spectral_radii(a[None])[0] == pytest.approx(
            _two_by_two_radii(a), rel=1e-15, abs=0)

    def test_eigvals_failure_is_a_convergence_error(self, monkeypatch):
        def fail(_):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigvals", fail)
        # Positive members in one call, then a block of a zero-entry member.
        for stack in (np.ones((2, 2, 2)), (NILP_A + NILP_B)[None],
                      np.eye(3)[None, [1, 0, 2]]):
            with pytest.raises(ConvergenceError, match="did not converge"):
                spectral_radii(stack)

    @pytest.mark.parametrize("stack, error", [
        (np.zeros((0, 2, 2)), DimensionMismatchError),
        (np.ones((2, 2, 3)), DimensionMismatchError),
        (np.ones((2, 2)), DimensionMismatchError),
        (-np.ones((2, 2, 2)), DomainError),
        (np.full((2, 2, 2), np.nan), DomainError),
        (np.full((2, 2, 2), np.inf), DomainError),
    ])
    def test_rejects_bad_stacks(self, stack, error):
        with pytest.raises(error):
            spectral_radii(stack)


@pytest.mark.parametrize("kernel", [
    spectral_radius_power,
    spectral_radius_gelfand,
], ids=["power", "gelfand"])
@pytest.mark.parametrize("tol, message", [
    (np.inf, "^tol must be finite, got inf$"),
    (np.nan, "^tol must be positive$"),
], ids=["inf", "nan"])
def test_kernels_refuse_a_tolerance_that_certifies_nothing(kernel, tol,
                                                          message):
    # At tol inf every bracket counts as converged: the power kernels
    # would return a value 9 % low here.
    a = np.random.default_rng(0).uniform(0.1, 1, (3, 3))
    with pytest.raises(DomainError, match=message):
        kernel(a, tol)


class TestFloatLimit:
    """Radii near the largest float: found when representable, else a
    typed error before any iteration, and no warning either way."""

    # Row sums of about 2.5e308: beyond the float range, as is the radius.
    OVER = np.array([[[1.5e308, 1e308], [1e308, 1.2e308]],
                     [[1.4e308, 1e308], [1e308, 1.2e308]]])

    def test_radius_just_below_the_limit(self):
        a = np.full((2, 2), 8e307)  # radius 1.6e308
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert spectral_radii(a[None])[0] == pytest.approx(1.6e308, rel=1e-12)
            # the same block beside a zero one
            assert spectral_radii(np.pad(a, (0, 1))[None])[0] == pytest.approx(
                1.6e308, rel=1e-12)
            assert perron_vector(a).rho == pytest.approx(1.6e308, rel=1e-12)

    def test_row_sums_beyond_the_limit_raise(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="float range"):
                spectral_radii(self.OVER)
            with pytest.raises(DomainError, match="float range"):
                spectral_radii(np.pad(self.OVER[:1], ((0, 0), (0, 1), (0, 1))))
            with pytest.raises(DomainError, match="float range"):
                perron_vector(self.OVER[0])


class TestSpectralRadiusGelfand:
    def test_negated_identity(self):
        assert spectral_radius_gelfand(-np.eye(2)) == pytest.approx(1.0, abs=1e-12)

    def test_scalar_multiples_of_identity(self):
        for c in (3.0, -2.5, 0.0):
            assert spectral_radius_gelfand(c * np.eye(3)) == pytest.approx(
                abs(c), abs=1e-12
            )

    def test_cross_method_agreement(self):
        rng = np.random.default_rng(3)
        for _ in range(40):
            n = int(rng.integers(1, 9))
            a = _random_nonneg(rng, n, density=float(rng.uniform(0.3, 1.0)))
            assert spectral_radius_gelfand(a, TOL) == pytest.approx(
                spectral_radius_power(a, TOL), abs=2 * TOL
            )


class TestPerronVector:
    def test_all_ones(self):
        cert = perron_vector(np.ones((2, 2)))
        assert cert.rho == pytest.approx(2.0, abs=1e-10)
        np.testing.assert_allclose(cert.eigenvector, [0.5, 0.5], atol=1e-10)

    def test_symmetric_equal_row_sums(self):
        cert = perron_vector([[2.0, 1.0], [1.0, 2.0]])
        assert cert.rho == pytest.approx(3.0, abs=1e-10)
        np.testing.assert_allclose(cert.eigenvector, [0.5, 0.5], atol=1e-10)

    def test_residual_contract(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            a = rng.uniform(0.1, 2.0, size=(3, 3))
            cert = perron_vector(a)
            lo, hi = cert.bracket
            assert cert.residual <= 1e-14 * cert.rho
            assert lo <= cert.rho <= hi
            assert cert.verify(a) == cert.residual
            assert np.all(cert.eigenvector > 0)
            assert abs(cert.eigenvector.sum() - 1.0) <= 1e-12

    def test_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            perron_vector(DIAG_A)

    def test_one_loop_for_perron_vector_and_the_power_kernel(self):
        # perron_vector polishes the power kernel's Perron loop: at every
        # magnitude its bracket is d ulp wide around the eigvals radius,
        # and the kernel, at a tolerance relative to the row sums, agrees
        # within that tolerance.
        rng = np.random.default_rng(31)
        for _ in range(500):
            n = int(rng.integers(2, 33))
            a = rng.uniform(0.1, 2.0, size=(n, n)) * 10.0 ** rng.uniform(-6, 6)
            _assert_perron_brackets(a[None], tol=1e-12 * a.sum(axis=1).max())

    def test_power_of_two_scaling_is_exact(self):
        # Every step commutes with scaling by 2**j: the same eigenvector,
        # and rho, bracket and residual scaled exactly.
        rng = np.random.default_rng(32)
        for n in (2, 3, 8, 32):
            a = rng.uniform(0.1, 2.0, size=(n, n))
            cert = perron_vector(a)
            for j in range(-60, 61, 3):
                got = perron_vector(np.ldexp(a, j))
                assert got.eigenvector.tobytes() == cert.eigenvector.tobytes()
                assert (got.rho, got.residual) == (
                    math.ldexp(cert.rho, j), math.ldexp(cert.residual, j))
                assert got.bracket == tuple(math.ldexp(b, j)
                                            for b in cert.bracket)

    @pytest.mark.parametrize("x", [2.0, 3.0, 0.1, 1e-300, 1.7e308])
    def test_order_one_is_read_off(self, x):
        cert = perron_vector([[x]])
        assert (cert.rho, cert.residual) == (x, 0.0)
        assert cert.eigenvector.tolist() == [1.0]
        assert cert.rho == spectral_radius_power([[x]])


class TestClassifyBound:
    """A candidate bound lam on rho(A) classified by the Collatz-Wielandt
    comparison, checked against ``spectral_radius_power``: for nonnegative A
    and positive u, A u <= lam u gives rho <= lam and A u >= lam u gives
    rho >= lam, both strict when A > 0 and A u != lam u."""

    def test_perron_pair_equality(self):
        a = np.array([[2.0, 1.0], [1.0, 2.0]])
        u = np.array([0.5, 0.5])
        np.testing.assert_array_equal(a @ u, 3.0 * u)
        assert spectral_radius_power(a, TOL) == pytest.approx(3.0, abs=TOL)

    def test_strict_upper_with_one_slack_coordinate(self):
        a = np.ones((2, 2))
        u = np.array([1.0, 2.0])
        # A u = (3, 3) <= 3 u = (3, 6): equality in the first coordinate,
        # slack in the second, so the strict conclusion applies.
        assert np.all(a @ u <= 3.0 * u) and np.any(a @ u < 3.0 * u)
        assert spectral_radius_power(a) < 3.0

    def test_row_sum_lower_bound(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            a = _random_nonneg(rng, 4)
            lam = float(a.sum(axis=1).min())
            assert spectral_radius_power(a) >= lam - 2 * TOL

    def test_randomized_conclusions_consistent(self):
        # Hypotheses manufactured from ratio extremes never contradict the
        # computed radius.
        rng = np.random.default_rng(6)
        for _ in range(30):
            n = int(rng.integers(2, 6))
            a = rng.uniform(0.05, 2.0, size=(n, n))
            u = rng.uniform(0.2, 3.0, size=n)
            au = a @ u
            ratios = au / u
            rho = spectral_radius_power(a, TOL)
            hi, lo = float(ratios.max()), float(ratios.min())
            assert rho <= hi + 2 * TOL
            if np.abs(au - hi * u).max() > strict_tolerance(hi * u):
                assert rho < hi
            assert rho >= lo - 2 * TOL
            if np.abs(au - lo * u).max() > strict_tolerance(lo * u):
                assert rho > lo


class TestSpectralIdentities:
    def test_shift_identity(self):
        rng = np.random.default_rng(7)
        for _ in range(15):
            n = int(rng.integers(1, 7))
            a = _random_nonneg(rng, n, density=float(rng.uniform(0.3, 1.0)))
            for eps in (1e-3, 1e-1, 1.0):
                shifted = spectral_radius_power(a + eps * np.eye(n), TOL)
                assert shifted == pytest.approx(
                    spectral_radius_power(a, TOL) + eps, abs=2 * TOL
                )

    def test_product_commutation(self):
        rng = np.random.default_rng(8)
        for _ in range(15):
            n = int(rng.integers(1, 6))
            a, b = _random_nonneg(rng, n), _random_nonneg(rng, n)
            assert spectral_radius_power(a @ b, TOL) == pytest.approx(
                spectral_radius_power(b @ a, TOL), abs=2 * TOL
            )

    def test_power_homogeneity(self):
        rng = np.random.default_rng(9)
        for _ in range(8):
            a = _random_nonneg(rng, 4)
            rho = spectral_radius_power(a, TOL)
            for n in range(1, 7):
                rho_n = spectral_radius_power(np.linalg.matrix_power(a, n), TOL)
                assert abs(rho_n - rho ** n) <= n * TOL * max(1.0, rho ** n)

    def test_entry_mass_dominates_radius(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            n = int(rng.integers(1, 7))
            a = _random_nonneg(rng, n, density=float(rng.uniform(0.2, 1.0)))
            assert a.sum() >= spectral_radius_power(a, TOL) - TOL


@settings(max_examples=30, deadline=None)
@given(
    c=st.floats(min_value=0.01, max_value=100.0),
    n=st.integers(min_value=1, max_value=6),
)
def test_gelfand_scaling_homogeneity(c, n):
    rng = np.random.default_rng(11)
    a = rng.uniform(0.0, 1.0, size=(n, n))
    base = spectral_radius_gelfand(a, TOL)
    scaled = spectral_radius_gelfand(c * a, TOL)
    assert scaled == pytest.approx(c * base, rel=1e-8, abs=1e-9)


@settings(max_examples=30, deadline=None)
@given(n=st.integers(min_value=1, max_value=6), seed=st.integers(0, 10_000))
def test_l1_norm_submultiplicative(n, seed):
    rng = np.random.default_rng(seed)
    a = rng.uniform(-1.0, 1.0, size=(n, n))
    b = rng.uniform(-1.0, 1.0, size=(n, n))
    assert l1_operator_norm(a @ b) <= l1_operator_norm(a) * l1_operator_norm(b) + 1e-12


@settings(max_examples=60, deadline=None)
@given(d=st.integers(min_value=1, max_value=12), seed=st.integers(0, 10_000),
       log_t=st.floats(-12.0, 12.0))
def test_reducible_members_invariant(d, seed, log_t):
    # A block upper-triangular member with zeros inside and above its
    # diagonal blocks (and on its diagonal), conjugated by a random
    # permutation, transposed and scaled by t: the block split must find
    # the same radius, times t, in every form, to rounding.
    rng = np.random.default_rng(seed)
    cuts = np.sort(rng.choice(np.arange(1, d), size=rng.integers(0, d),
                              replace=False))
    block_of = np.searchsorted(cuts, np.arange(d), side="right")
    a = rng.uniform(0.1, 2.0, size=(d, d))
    a *= (block_of[:, None] <= block_of[None, :]) & (rng.uniform(size=(d, d)) < 0.6)
    a[np.diag_indices(d)] = rng.uniform(0.1, 2.0, size=d) * (rng.uniform(size=d) < 0.7)
    p, t = rng.permutation(d), 10.0 ** log_t
    forms = np.stack([a, a[p][:, p], a.T])
    radii = np.concatenate([spectral_radii(forms), spectral_radii(t * forms) / t])
    np.testing.assert_allclose(radii, radii[0], rtol=1e-14, atol=0)
    want = np.abs(np.linalg.eigvals(a)).max()
    assert radii[0] == pytest.approx(want, abs=5e-10)
