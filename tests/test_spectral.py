import itertools
from pathlib import Path

import numpy as np
import pytest

from hourglass import spectral
from hourglass.descriptors import parse_descriptor
from hourglass.linalg import DomainError, spectral_radius_power
from hourglass.sets import (
    ExplicitSet,
    GuardExceededError,
    IruSet,
    Leaf,
    Product,
    Scale,
    Sum,
    epsilon_lift,
    expr_expand,
    iru_enumerate,
    scale_set,
    transpose_set,
)
from hourglass.spectral import (
    conv_lsr_check,
    finiteness_verify,
    jsr_lsr_bounds,
    necklace_count,
    rho_extremal_exhaustive,
    rho_n_bruteforce,
    spectral_simplex,
    thread_count,
)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

NILP_A = np.array([[0.0, 2.0], [0.0, 0.0]])
NILP_B = np.array([[0.0, 0.0], [2.0, 0.0]])
DIAG_A = np.array([[2.0, 0.0], [0.0, 0.0]])
DIAG_B = np.array([[0.0, 0.0], [0.0, 2.0]])


def _random_iru(rng, n, sizes, lo=0.1, hi=2.0):
    return IruSet([rng.uniform(lo, hi, size=(k, n)) for k in sizes])


class TestExhaustive:
    def test_nilpotent_pair_max(self):
        value, _ = rho_extremal_exhaustive(ExplicitSet([NILP_A, NILP_B]), "max")
        assert value == pytest.approx(0.0, abs=1e-12)

    def test_diagonal_pair_min(self):
        value, _ = rho_extremal_exhaustive(ExplicitSet([DIAG_A, DIAG_B]), "min")
        assert value == pytest.approx(2.0, abs=1e-12)

    def test_singleton(self):
        m = np.array([[0.3, 0.7], [0.2, 0.9]])
        value, idx = rho_extremal_exhaustive(ExplicitSet([m]), "min")
        assert idx == 0
        assert value == pytest.approx(spectral_radius_power(m), abs=1e-12)


class TestSpectralSimplex:
    def test_singleton_immediate(self):
        rng = np.random.default_rng(0)
        s = _random_iru(rng, 2, (1, 1))
        trace = spectral_simplex(s, "max")
        assert len(trace.iterations) == 1
        assert trace.certificate.worst_margin >= -trace.certificate.cert_tol

    def test_two_by_two_matches_oracle(self):
        rng = np.random.default_rng(1)
        s = _random_iru(rng, 2, (2, 2))
        want, _ = rho_extremal_exhaustive(iru_enumerate(s), "max")
        trace = spectral_simplex(s, "max")
        assert trace.rho == pytest.approx(want, abs=1e-8)

    def test_matches_oracle_both_directions(self):
        rng = np.random.default_rng(2)
        for trial in range(12):
            n = int(rng.integers(2, 4))
            sizes = tuple(int(rng.integers(1, 4)) for _ in range(n))
            s = _random_iru(rng, n, sizes)
            enumerated = iru_enumerate(s)
            for direction in ("min", "max"):
                want, _ = rho_extremal_exhaustive(enumerated, direction)
                trace = spectral_simplex(s, direction)
                assert trace.rho == pytest.approx(want, abs=1e-8)

    def test_trace_strictly_monotone(self):
        rng = np.random.default_rng(3)
        s = _random_iru(rng, 3, (3, 3, 3))
        for direction, sign in (("max", 1.0), ("min", -1.0)):
            trace = spectral_simplex(s, direction)
            rhos = [st.rho for st in trace.iterations]
            assert all(sign * (b - a) > 0 for a, b in zip(rhos, rhos[1:]))
            selections = [st.selection for st in trace.iterations]
            assert len(set(selections)) == len(selections)
            assert len(selections) <= s.cardinality

    def test_lifted_boundary_selection_stabilizes(self):
        # Lift sizes an order of magnitude apart leave the selected rows
        # unchanged and move the terminal radius by O(eps).
        rng = np.random.default_rng(4)
        base = IruSet([
            (rng.uniform(0, 1, size=(2, 2)) > 0.4).astype(float)
            for _ in range(2)
        ])
        results = {}
        for eps in (1e-2, 1e-3, 1e-4):
            trace = spectral_simplex(epsilon_lift(base, eps), "max")
            results[eps] = (trace.selection, trace.rho)
        selections = {sel for sel, _ in results.values()}
        assert len(selections) == 1
        rhos = [results[e][1] for e in (1e-2, 1e-3, 1e-4)]
        assert abs(rhos[0] - rhos[2]) <= 10 * 1e-2
        assert abs(rhos[1] - rhos[2]) <= 10 * 1e-3

    def test_refuses_boundary_family(self):
        s = IruSet([[[0.0, 1.0]], [[1.0, 1.0]]])
        with pytest.raises(DomainError):
            spectral_simplex(s, "max")


class TestRhoNBruteforce:
    def test_length_one_is_extremal_radius(self):
        rng = np.random.default_rng(5)
        s = iru_enumerate(_random_iru(rng, 2, (2, 2)))
        for direction in ("min", "max"):
            want, _ = rho_extremal_exhaustive(s, direction)
            got, word = rho_n_bruteforce(s, 1, direction)
            assert got == pytest.approx(want, abs=1e-9)
            assert len(word) == 1

    def test_nilpotent_pair_length_two(self):
        # The mixed product is diag(4, 0), so the square root of its radius
        # is exactly 2; the word is one representative of the rotation class.
        s = ExplicitSet([NILP_A, NILP_B])
        value, word = rho_n_bruteforce(s, 2, "max")
        assert value == pytest.approx(2.0, abs=1e-12)
        assert sorted(word) == [0, 1]

    def test_positive_iru_collapses_for_all_n(self):
        rng = np.random.default_rng(6)
        s = iru_enumerate(_random_iru(rng, 2, (2, 2)))
        rho_min, _ = rho_extremal_exhaustive(s, "min")
        rho_max, _ = rho_extremal_exhaustive(s, "max")
        for n in range(1, 5):
            tol_n = n * 1e-7 * max(1.0, rho_max)
            lo, _ = rho_n_bruteforce(s, n, "min")
            hi, _ = rho_n_bruteforce(s, n, "max")
            assert abs(lo - rho_min) <= tol_n
            assert abs(hi - rho_max) <= tol_n

    def test_guard(self):
        rng = np.random.default_rng(7)
        s = iru_enumerate(_random_iru(rng, 2, (3, 3)))
        with pytest.raises(GuardExceededError):
            rho_n_bruteforce(s, 4, "max", size_guard=100)

    def test_cyclic_reduction_sound(self):
        # Reduced and full enumerations agree wherever the full set fits.
        rng = np.random.default_rng(8)
        for count, n in ((2, 3), (3, 3), (4, 4), (2, 6)):
            s = ExplicitSet(rng.uniform(0.0, 1.5, size=(count, 3, 3)))
            assert count ** n <= 4096
            for direction in ("min", "max"):
                red, _ = rho_n_bruteforce(s, n, direction, use_cyclic=True)
                full, _ = rho_n_bruteforce(s, n, direction, use_cyclic=False)
                assert red == pytest.approx(full, abs=1e-12)

    def test_long_words_rescaling_stable(self):
        # Length-12 products span ~1e12 in magnitude either way; the
        # per-step rescaling keeps the roots finite and exactly homogeneous.
        rng = np.random.default_rng(20)
        tiny = ExplicitSet(rng.uniform(5e-4, 2e-3, size=(2, 3, 3)))
        low, _ = rho_n_bruteforce(tiny, 12, "min", size_guard=200_000)
        assert low > 0
        scaled, _ = rho_n_bruteforce(
            ExplicitSet(1000.0 * tiny.matrices, dedup=False), 12, "min",
            size_guard=200_000,
        )
        assert scaled == pytest.approx(1000.0 * low, rel=1e-12)

        big = ExplicitSet(rng.uniform(0.5, 2.0, size=(2, 8, 8)))
        hi, _ = rho_n_bruteforce(big, 12, "max", size_guard=200_000)
        member_max, _ = rho_extremal_exhaustive(big, "max")
        assert np.isfinite(hi)
        assert hi >= member_max - 1e-6  # the pure word of the best member

    def test_one_dimensional_family(self):
        family = IruSet([[[0.7], [1.3]]])
        trace = spectral_simplex(family, "max")
        assert trace.rho == pytest.approx(1.3, abs=1e-12)
        value, _ = rho_n_bruteforce(iru_enumerate(family), 3, "min")
        assert value == pytest.approx(0.7, abs=1e-12)

    def test_necklace_count_matches_enumeration(self):
        for m, n in ((2, 4), (3, 3), (4, 2), (5, 1)):
            words = set()
            for word in itertools.product(range(m), repeat=n):
                word = min(
                    tuple(word[r:] + word[:r]) for r in range(n)
                )
                words.add(word)
            assert necklace_count(m, n) == len(words)


class TestJsrLsrBounds:
    def test_identity_all_ones(self):
        summary = jsr_lsr_bounds(ExplicitSet(np.eye(2)[None]), 4)
        for n in range(4):
            assert summary.rho_hat[n] == pytest.approx(1.0, abs=1e-12)
            assert summary.rho_check[n] == pytest.approx(1.0, abs=1e-12)
            assert summary.norm_upper[n] == pytest.approx(1.0, abs=1e-12)
            assert summary.norm_lower[n] == pytest.approx(1.0, abs=1e-12)

    def test_scaling_homogeneity(self):
        rng = np.random.default_rng(9)
        s = ExplicitSet(rng.uniform(0.1, 1.0, size=(2, 2, 2)))
        c = 2.5
        base = jsr_lsr_bounds(s, 3)
        scaled = jsr_lsr_bounds(scale_set(c, s), 3)
        for n in range(3):
            assert scaled.rho_hat[n] == pytest.approx(c * base.rho_hat[n], rel=1e-9)
            assert scaled.norm_lower[n] == pytest.approx(
                c * base.norm_lower[n], rel=1e-9
            )

    def test_bracket_ordering(self):
        rng = np.random.default_rng(10)
        for _ in range(5):
            s = ExplicitSet(rng.uniform(0.0, 1.5, size=(3, 2, 2)))
            summary = jsr_lsr_bounds(s, 4)
            lo, hi = summary.jsr_bracket
            assert lo <= hi + 1e-9
            for n in range(4):
                assert summary.rho_check[n] <= summary.rho_hat[n] + 1e-12
                assert summary.rho_hat[n] <= summary.norm_upper[n] + 1e-9

    def test_iru_bracket_collapses_onto_rho_max(self):
        rng = np.random.default_rng(11)
        s = iru_enumerate(_random_iru(rng, 2, (2, 2)))
        rho_max, _ = rho_extremal_exhaustive(s, "max")
        summary = jsr_lsr_bounds(s, 4)
        lo, hi = summary.jsr_bracket
        assert lo == pytest.approx(rho_max, abs=1e-7)
        assert hi >= rho_max - 1e-9
        # The norm upper bounds decrease toward the radius as n grows.
        assert summary.norm_upper[-1] <= summary.norm_upper[0] + 1e-12


class TestFinitenessVerify:
    def test_positive_iru_passes(self):
        rng = np.random.default_rng(12)
        report = finiteness_verify(
            _random_iru(rng, 3, (2, 2, 2)), n_max=4, sandwich_samples=5, seed=1
        )
        assert report.passed
        assert not report.failures

    def test_polynomial_expression_passes(self):
        rng = np.random.default_rng(13)
        s = Leaf(_random_iru(rng, 2, (2, 2)))
        expr = Sum((Product((s, s)), Scale(0.6, s)))
        report = finiteness_verify(
            expr, n_max=3, sandwich_samples=3, seed=2, size_guard=200_000
        )
        assert report.passed

    def test_nilpotent_pair_fails_at_two(self):
        report = finiteness_verify(
            ExplicitSet([NILP_A, NILP_B]), n_max=2, sandwich_samples=0
        )
        assert not report.passed
        fail = report.failures[0]
        assert fail.n == 2
        assert fail.rho_hat_n == pytest.approx(2.0, abs=1e-9)
        assert sorted(fail.word_max) == [0, 1]

    def test_transpose_invariant_verdict(self):
        rng = np.random.default_rng(14)
        family = _random_iru(rng, 2, (2, 2))
        s = iru_enumerate(family)
        a = finiteness_verify(s, n_max=3, sandwich_samples=2, seed=3)
        b = finiteness_verify(
            transpose_set(s), n_max=3, sandwich_samples=2, seed=3
        )
        c = finiteness_verify(  # column-structured tag expands directly
            transpose_set(family), n_max=3, sandwich_samples=2, seed=3
        )
        assert a.passed == b.passed == c.passed
        assert a.rho_max == pytest.approx(b.rho_max, abs=1e-9)
        assert a.rho_max == pytest.approx(c.rho_max, abs=1e-9)

        bad = ExplicitSet([NILP_A, NILP_B])
        assert (
            finiteness_verify(bad, n_max=2, sandwich_samples=0).passed
            == finiteness_verify(
                transpose_set(bad), n_max=2, sandwich_samples=0
            ).passed
        )

    def test_rejects_negative_entries(self):
        with pytest.raises(DomainError):
            finiteness_verify(ExplicitSet([-np.eye(2)]), n_max=1)


class TestConvLsrCheck:
    def test_identity_trivial(self):
        report = conv_lsr_check(ExplicitSet(np.eye(2)[None]), 2, 20, seed=0)
        assert report.passed
        assert report.min_norm_seen == pytest.approx(1.0, abs=1e-12)
        assert report.threshold_power == pytest.approx(0.5)

    def test_positive_iru_holds(self):
        rng = np.random.default_rng(15)
        s = iru_enumerate(_random_iru(rng, 3, (2, 2, 2)))
        report = conv_lsr_check(s, 3, 200, seed=1)
        assert report.passed
        assert report.norm_failures == 0
        assert report.srbound_failures == 0

    def test_diagonal_pair_midpoint_drop(self):
        # The equal mixture of the diagonal pair has radius 1 while the set
        # minimum is 2: the hull can lose the radius but not the norm bound.
        s = ExplicitSet([DIAG_A, DIAG_B])
        mid = 0.5 * (DIAG_A + DIAG_B)
        assert spectral_radius_power(mid) == pytest.approx(1.0, abs=1e-12)
        report = conv_lsr_check(s, 1, 100, seed=2)
        assert report.rho_check_n == pytest.approx(2.0, abs=1e-9)
        assert report.threshold_power == pytest.approx(1.0, abs=1e-9)
        assert report.threshold_literal == pytest.approx(1.0, abs=1e-9)
        assert report.passed

    def test_records_both_threshold_readings(self):
        rng = np.random.default_rng(16)
        s = iru_enumerate(_random_iru(rng, 2, (2, 2)))
        report = conv_lsr_check(s, 3, 20, seed=3)
        assert report.threshold_power == pytest.approx(
            report.rho_check_n ** 3 / 2
        )
        assert report.threshold_literal == pytest.approx(report.rho_check_n / 2)


class TestThreading:
    def test_invalid_env(self, monkeypatch):
        monkeypatch.setenv("HOURGLASS_THREADS", "zero")
        with pytest.raises(DomainError):
            thread_count()
        monkeypatch.setenv("HOURGLASS_THREADS", "0")
        with pytest.raises(DomainError):
            thread_count()

    def test_parallel_results_identical(self, monkeypatch):
        rng = np.random.default_rng(17)
        s = ExplicitSet(rng.uniform(0.0, 1.5, size=(3, 3, 3)))
        monkeypatch.delenv("HOURGLASS_THREADS", raising=False)
        sequential = rho_n_bruteforce(s, 5, "max")
        monkeypatch.setenv("HOURGLASS_THREADS", "4")
        parallel = rho_n_bruteforce(s, 5, "max")
        assert sequential == parallel


def _fixture_set(name):
    return expr_expand(parse_descriptor(FIXTURES / f"{name}.json"))


def _first_within(values, words, sign):
    """First word whose value is the extremum (up to rounding)."""
    best = max(sign * v for v in values)
    for v, w in zip(values, words):
        if sign * v >= best - 1e-12 * max(1.0, abs(best)):
            return w
    raise AssertionError("no extremal word")


def _oracle(mats, n, cyclic=True):
    """Every length-n product multiplied out plainly, in lexicographic order:
    radius extrema over the cyclic representatives, norm extrema over all
    words, each with the first word attaining it."""
    words = list(itertools.product(range(len(mats)), repeat=n))
    reps, radii, norms = [], [], []
    for w in words:
        prod = np.eye(mats.shape[1])
        for i in w:
            prod = mats[i] @ prod
        norms.append(np.abs(prod).sum(axis=0).max())
        if not cyclic or all(w <= w[r:] + w[:r] for r in range(1, n)):
            reps.append(w)
            radii.append(np.abs(np.linalg.eigvals(prod)).max())
    return {
        "rho_max": (max(radii), _first_within(radii, reps, 1.0)),
        "rho_min": (min(radii), _first_within(radii, reps, -1.0)),
        "norm_max": max(norms),
        "norm_min": min(norms),
    }


def _assert_matches_oracle(s, n_max):
    summary = jsr_lsr_bounds(s, n_max)
    for n in range(1, n_max + 1):
        want = _oracle(s.matrices, n)
        got = {
            "rho_max": (summary.rho_hat[n - 1], summary.argmax_words[n - 1]),
            "rho_min": (summary.rho_check[n - 1], summary.argmin_words[n - 1]),
            "norm_max": summary.norm_upper[n - 1],
            "norm_min": summary.norm_lower[n - 1],
        }
        for key in ("rho_max", "rho_min"):
            assert got[key][0] == pytest.approx(
                want[key][0] ** (1 / n), rel=1e-9, abs=1e-12), (n, key)
            assert got[key][1] == want[key][1], (n, key)
        for key in ("norm_max", "norm_min"):
            assert got[key] == pytest.approx(
                want[key] ** (1 / n), rel=1e-9, abs=1e-12), (n, key)


class TestWordSweep:
    """The one-pass word sweep against plainly multiplied-out products."""

    @pytest.mark.parametrize("seed", range(6))
    def test_random_nonnegative_matches_oracle(self, seed):
        rng = np.random.default_rng(100 + seed)
        count = int(rng.integers(2, 5))
        dim = int(rng.integers(1, 5))
        mats = rng.uniform(0.0, 2.0, size=(count, dim, dim))
        if seed % 2:  # sparse members: reducible products, zero rows
            mats *= rng.uniform(size=mats.shape) > 0.5
        n_max = 5 if count <= 3 else 4
        _assert_matches_oracle(ExplicitSet(mats, dedup=False), n_max)

    def test_diagonal_pair_ties_pick_first_word(self):
        s = _fixture_set("diagonal_pair")
        _assert_matches_oracle(s, 5)
        summary = jsr_lsr_bounds(s, 5)
        # Every pure word ties at radius 2; mixed words vanish.
        assert summary.argmax_words == tuple((0,) * n for n in range(1, 6))
        assert summary.rho_check[1:] == (0.0,) * 4

    def test_nilpotent_pair_vanishing_products(self):
        s = _fixture_set("nilpotent_pair")
        _assert_matches_oracle(s, 5)
        summary = jsr_lsr_bounds(s, 5)
        assert summary.rho_check == (0.0,) * 5
        assert summary.norm_lower[1:] == (0.0,) * 4

    def test_sign_pair_without_pruning(self):
        s = _fixture_set("sign_pair")
        _assert_matches_oracle(s, 5)
        summary = jsr_lsr_bounds(s, 5)
        assert summary.rho_hat == pytest.approx((1.0,) * 5, abs=1e-12)
        assert summary.argmin_words == tuple((0,) * n for n in range(1, 6))

    def test_random_signed_matches_oracle(self):
        rng = np.random.default_rng(110)
        _assert_matches_oracle(ExplicitSet(rng.normal(size=(3, 3, 3))), 4)

    def test_all_words_without_cyclic_reduction(self):
        # Rotations of one word tie up to rounding, so without the cyclic
        # reduction the extremal word is some rotation of the oracle's.
        rng = np.random.default_rng(111)
        s = ExplicitSet(rng.uniform(0.0, 1.5, size=(3, 3, 3)))
        for n in (1, 2, 4):
            want = _oracle(s.matrices, n, cyclic=False)
            for direction in ("max", "min"):
                value, word = rho_n_bruteforce(s, n, direction,
                                               use_cyclic=False)
                want_value, want_word = want[f"rho_{direction}"]
                assert value == pytest.approx(want_value ** (1 / n), rel=1e-9)
                assert word in {want_word[r:] + want_word[:r]
                                for r in range(n)}

    @pytest.mark.parametrize("t", [1e-12, 1e-6, 1e6, 1e12])
    def test_scale_equivariance(self, t):
        rng = np.random.default_rng(112)
        mats = rng.uniform(0.1, 2.0, size=(3, 3, 3))
        base = jsr_lsr_bounds(ExplicitSet(mats, dedup=False), 5)
        scaled = jsr_lsr_bounds(ExplicitSet(t * mats, dedup=False), 5)
        for key in ("rho_hat", "rho_check", "norm_upper", "norm_lower"):
            assert getattr(scaled, key) == pytest.approx(
                tuple(t * v for v in getattr(base, key)), rel=1e-12)
        assert scaled.argmax_words == base.argmax_words
        assert scaled.argmin_words == base.argmin_words

    def test_block_size_does_not_change_results(self, monkeypatch):
        # Tiny blocks force every level through the prefix-block recursion.
        rng = np.random.default_rng(113)
        s = ExplicitSet(rng.uniform(0.0, 1.5, size=(3, 2, 2)))
        whole = jsr_lsr_bounds(s, 6)
        monkeypatch.setattr(spectral, "_CHUNK", 4)
        assert jsr_lsr_bounds(s, 6) == whole
        monkeypatch.setenv("HOURGLASS_THREADS", "2")
        assert jsr_lsr_bounds(s, 6) == whole

    def test_threads_identical_across_blocks(self, monkeypatch):
        rng = np.random.default_rng(114)
        s = ExplicitSet(rng.uniform(0.0, 1.5, size=(2, 2, 2)))
        n_max = 18
        assert s.size ** n_max > 2 * spectral._CHUNK
        monkeypatch.setenv("HOURGLASS_THREADS", "1")
        sequential = jsr_lsr_bounds(s, n_max, size_guard=s.size ** n_max)
        monkeypatch.setenv("HOURGLASS_THREADS", "2")
        parallel = jsr_lsr_bounds(s, n_max, size_guard=s.size ** n_max)
        assert sequential == parallel
