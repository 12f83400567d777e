import itertools
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hourglass import spectral
from hourglass.alternative import certify_extremal
from hourglass.descriptors import parse_descriptor
from hourglass.generate import random_expr
from hourglass.linalg import (DomainError, perron_vector, spectral_radii,
                              spectral_radius_power)
from hourglass.sets import (
    DEFAULT_SIZE_GUARD,
    ExplicitSet,
    GuardExceededError,
    IruSet,
    Leaf,
    OrderedChain,
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
        want = 0.5 * (1.2 + np.sqrt(0.6 ** 2 + 4 * 0.7 * 0.2))  # (tr + sqrt(disc)) / 2
        assert value == pytest.approx(want, rel=1e-15, abs=0)


class TestSpectralSimplex:
    def test_singleton_immediate(self):
        rng = np.random.default_rng(0)
        s = _random_iru(rng, 2, (1, 1))
        trace = spectral_simplex(s, "max")
        assert len(trace.iterations) == 1
        assert trace.certificate.worst_margin >= -trace.certificate.cert_tol

    @pytest.mark.parametrize("direction", ["min", "max"])
    def test_order_one_members_match_the_exhaustive_scan(self, direction):
        s = ExplicitSet([[[2.0]], [[3.0]]])
        want, idx = rho_extremal_exhaustive(s, direction)
        trace = spectral_simplex(s, direction)
        assert trace.rho == want
        assert trace.selection == (idx,)

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

    def test_certificate_is_the_terminal_perron_pair(self, monkeypatch):
        from hourglass import alternative

        calls = []

        def counted(a, *args, **kw):
            calls.append(a)
            return perron_vector(a, *args, **kw)

        monkeypatch.setattr(spectral, "perron_vector", counted)
        monkeypatch.setattr(alternative, "perron_vector", counted)
        rng = np.random.default_rng(5)
        s = _random_iru(rng, 4, (3, 2, 4, 3))
        for direction in ("min", "max"):
            calls.clear()
            trace = spectral_simplex(s, direction)
            assert len(calls) == len(trace.iterations) > 1
            assert trace.certificate.rho == trace.iterations[-1].rho
            np.testing.assert_array_equal(trace.certificate.extremal_matrix,
                                          s.assemble(trace.selection))

    @pytest.mark.parametrize("t", [1e-12, 1e2, 1e4, 1e6])
    def test_certifies_at_large_magnitude(self, t):
        rng = np.random.default_rng(6)
        s = _random_iru(rng, 8, (3,) * 8)
        scaled = scale_set(t, s)
        if t < 1e-6:  # rho ~ 1e-11 lies below the certificate tolerance
            for direction in ("min", "max"):
                with pytest.raises(DomainError, match="rescale the input$"):
                    spectral_simplex(scaled, direction)
            return
        for direction in ("min", "max"):
            base = spectral_simplex(s, direction)
            trace = spectral_simplex(scaled, direction)
            cert = trace.certificate
            assert cert.worst_margin >= -cert.cert_tol
            assert trace.selection == base.selection
            assert trace.rho == pytest.approx(t * base.rho, rel=1e-10)
            again = certify_extremal(scaled, cert.extremal_matrix, direction,
                                     cert.cert_tol)
            assert again.worst_margin >= -again.cert_tol
            assert again.rho == pytest.approx(t * base.rho, rel=1e-10)

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

    def test_refuses_boundary_tree_in_its_own_words(self):
        # Every member of this sum has a zero entry: the refusal names the
        # family, as for a bare leaf, not the Perron kernel.
        tree = Sum((IruSet([[[0.0, 1.0], [1.0, 0.0]], [[1.0, 0.0], [0.0, 2.0]]]),
                    OrderedChain([[[0.0, 1.0], [1.0, 0.0]],
                                  [[0.0, 2.0], [1.0, 0.0]]])))
        for direction in ("min", "max"):
            with pytest.raises(DomainError, match=(
                    r"^spectral_simplex requires a strictly positive family; "
                    r"the member at selection \[.*\] has a zero entry: lift "
                    r"the family's leaves first$")):
                spectral_simplex(tree, direction)

    @staticmethod
    def _assert_solves(e, direction):
        # rho is the eigvals extremum over the expansion, and the terminal
        # certificate holds on every expanded member.
        mats = expr_expand(e).matrices
        radii = np.abs(np.linalg.eigvals(mats)).max(axis=1)
        want = radii.min() if direction == "min" else radii.max()
        trace = spectral_simplex(e, direction)
        assert trace.rho == pytest.approx(want, rel=1e-12)
        cert = trace.certificate
        v = cert.perron.eigenvector
        sign = 1.0 if direction == "min" else -1.0
        assert (sign * (mats @ v - cert.rho * v)).min() >= -cert.cert_tol
        assert cert.worst_margin >= -cert.cert_tol
        return trace

    def test_expression_trees_match_eigvals(self):
        rng = np.random.default_rng(21)
        for _ in range(120):
            e = random_expr(rng, 3, int(rng.integers(2, 5)), 0.1, 2.0)
            for direction in ("min", "max"):
                self._assert_solves(e, direction)

    def test_units_and_dominated_explicit_leaf(self):
        # An explicit leaf holding an enumerated IRU family has a member of
        # extremal image at every positive vector.
        rng = np.random.default_rng(22)
        iru = _random_iru(rng, 3, (2, 3, 2))
        chain = OrderedChain(np.cumsum(rng.uniform(0.1, 1.0, size=(3, 3, 3)),
                                       axis=0))
        e = Product((Sum((Leaf(iru), ExplicitSet(np.eye(3)[None]))),
                     Sum((Leaf(chain), ExplicitSet(np.zeros((1, 3, 3))))),
                     Scale(0.5, Leaf(iru_enumerate(_random_iru(rng, 3, (2, 2, 1)))))))
        for direction in ("min", "max"):
            trace = self._assert_solves(e, direction)
            # product factors right to left: explicit, chain, {0}, then
            # 3 IRU rows and {I}
            assert len(trace.selection) == 7
            assert trace.selection[2] == trace.selection[6] == 0

    @pytest.mark.parametrize("seed", range(4))
    def test_units_act_as_units(self, seed):
        # {I} and {0} are one-member leaves: each adds one 0 to the
        # selection at its place in the visiting order (products right to
        # left, sums left to right) and changes no value, bit for bit.
        rng = np.random.default_rng(40 + seed)
        n = int(rng.integers(2, 6))
        s = _random_iru(rng, n, rng.integers(1, 4, size=n))
        unit = ExplicitSet(np.eye(n)[None])
        zero = ExplicitSet(np.zeros((1, n, n)))
        for direction in ("min", "max"):
            base = spectral_simplex(s, direction)
            for e, selection in ((Product((s, unit)), (0,) + base.selection),
                                 (Sum((s, zero)), base.selection + (0,))):
                trace = spectral_simplex(e, direction)
                assert trace.rho == base.rho
                assert trace.selection == selection
                assert (trace.certificate.extremal_matrix.tobytes()
                        == base.certificate.extremal_matrix.tobytes())
                assert trace.certificate.rho == base.certificate.rho
                assert (expr_expand(e).matrices.tobytes()
                        == expr_expand(s).matrices.tobytes())

    def test_bare_chain(self):
        rng = np.random.default_rng(23)
        chain = OrderedChain(np.cumsum(rng.uniform(0.1, 1.0, size=(4, 3, 3)),
                                       axis=0))
        for direction, member in (("min", 0), ("max", 3)):
            assert self._assert_solves(chain, direction).selection == (member,)

    def test_explicit_leaf_without_extremal_member(self):
        # The two images are incomparable at every positive vector.
        pair = ExplicitSet([[[3.0, 0.1], [0.1, 0.1]], [[0.1, 0.1], [0.1, 3.0]]])
        for e in (pair, Sum((Leaf(pair), Leaf(pair)))):
            with pytest.raises(DomainError):
                spectral_simplex(e, "max")

    def test_refuses_signed_families(self):
        signed = ExplicitSet([[[2.0, 1.0], [1.0, 2.0]], [[5.0, -5.0], [0.0, 0.0]]])
        tree = Sum((Leaf(signed), Leaf(ExplicitSet([np.full((2, 2), 10.0)]))))
        signed_iru = IruSet([[[2.0, 1.0]], [[1.0, 2.0], [-1.0, 3.0]]])
        for e in (signed, tree, signed_iru):
            for direction in ("min", "max"):
                with pytest.raises(DomainError):
                    spectral_simplex(e, direction)


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
        # The sweep over least rotations agrees with every word multiplied
        # out plainly.
        rng = np.random.default_rng(8)
        for count, n in ((2, 3), (3, 3), (4, 4), (2, 6)):
            s = ExplicitSet(rng.uniform(0.0, 1.5, size=(count, 3, 3)))
            full = _oracle(s.matrices, n, cyclic=False)
            for direction in ("min", "max"):
                red, _ = rho_n_bruteforce(s, n, direction)
                assert red == pytest.approx(
                    full[f"rho_{direction}"][0] ** (1 / n), abs=1e-12)

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

    @pytest.mark.parametrize("family", [
        ExplicitSet([[[0.5, 1.2], [0.3, 0.9]]]),
        IruSet([[[0.5, 1.2]], [[0.3, 0.9]]]),  # one row per position
    ])
    def test_long_words_on_one_member_families(self, family):
        # Words longer than numpy's 64 dimensions decode; lengths in the
        # hundreds descend without recursion.
        member = expr_expand(family).matrices[0]
        rho = float(np.abs(np.linalg.eigvals(member)).max())
        value, word = rho_n_bruteforce(family, 80, "max")
        assert (value, word) == (pytest.approx(rho, rel=1e-12), (0,) * 80)
        summary = jsr_lsr_bounds(family, 400)
        assert summary.argmin_words == tuple((0,) * n for n in range(1, 401))
        assert summary.rho_hat == pytest.approx((rho,) * 400, rel=1e-12)
        assert finiteness_verify(family, n_max=350).passed

    def test_word_decoding(self):
        for m, n in ((1, 3), (2, 5), (3, 4), (7, 2)):
            words = list(itertools.product(range(m), repeat=n))
            assert [spectral._word(r, m, n) for r in range(m ** n)] == words

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
        c = finiteness_verify(  # an IRU family transposes directly
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

    def test_zero_tolerance_is_exact_and_negative_is_refused(self):
        # Every power of the identity has radius 1 exactly.
        s = ExplicitSet(np.eye(2)[None])
        assert finiteness_verify(s, n_max=3, tol=0.0).passed
        assert conv_lsr_check(s, 2, 5, seed=0, tol=0.0).passed
        for run in (lambda tol: finiteness_verify(s, n_max=3, tol=tol),
                    lambda tol: conv_lsr_check(s, 2, 5, seed=0, tol=tol)):
            with pytest.raises(DomainError, match="tol must be >= 0"):
                run(-1e-300)

    def test_member_extremes_come_from_the_sweep(self):
        # rho_min/rho_max are the sweep's length-1 extremes, and they agree
        # with the members' power-iteration radii (bracketed tighter than the
        # default 1e-10, which alone leaves about 1e-12 relative).
        rng = np.random.default_rng(15)
        for family in (_random_iru(rng, 3, (2, 3, 2)),
                       ExplicitSet(rng.uniform(0.0, 2.0, size=(7, 4, 4))),
                       ExplicitSet([NILP_A, NILP_B, np.eye(2)])):
            report = finiteness_verify(family, n_max=2, sandwich_samples=2)
            first = report.checks[0]
            assert (first.n, first.sandwich) == (1, False)
            assert report.rho_max == first.rho_hat_n
            assert report.rho_min == first.rho_check_n
            assert first.dev_min == first.dev_max == 0.0
            radii = spectral_radii(expr_expand(family).matrices, tol=1e-14)
            assert report.rho_max == pytest.approx(radii.max(), rel=1e-12)
            assert report.rho_min == pytest.approx(radii.min(), rel=1e-12,
                                                   abs=1e-300)

    def test_bare_set_under_benchmark_tracer(self, monkeypatch):
        # The benchmark tracer sizes each expansion by the cardinality bound
        # of its argument, which a bare set answers like any other node.
        monkeypatch.syspath_prepend(str(FIXTURES.parent / "perfbench"))
        import tracing

        import hourglass.cli  # noqa: F401  (install looks up every target module)

        rng = np.random.default_rng(15)
        s = iru_enumerate(_random_iru(rng, 2, (2, 2)))
        tracer = tracing.Tracer()
        tracer.install()
        try:
            report = spectral.finiteness_verify(s, n_max=2, sandwich_samples=0)
        finally:
            tracer.uninstall()
        assert report.passed
        expands = [span[tracing.INFO] for span in tracer.spans
                   if span[tracing.NAME] == "sets.expr_expand"]
        assert expands and expands[0] == {"bound": 4, "size": 4}


def _built(m, n_max, last):
    """Products a sweep over m members builds: every word shorter than
    n_max (each is a prefix), then ``last`` words of length n_max."""
    return sum(m ** n for n in range(1, n_max)) + last


class TestWordBudget:
    """One rule for every word sweep: with m members the guard must cover
    every product built, each word shorter than n_max and then all m **
    n_max words when norms are swept, else one word per cyclic class of
    length n_max; beyond it the error names that count."""

    @staticmethod
    def _at_budget(run, required):
        run(required)
        with pytest.raises(GuardExceededError) as info:
            run(required - 1)
        assert (info.value.required, info.value.guard) == (required,
                                                           required - 1)

    @pytest.mark.parametrize("m, n", [(3, 4), (4, 3), (1, 5)])
    def test_rho_n_bruteforce_counts_necklaces(self, m, n):
        s = ExplicitSet(np.random.default_rng(60).uniform(0.1, 2.0, (m, 2, 2)))
        self._at_budget(lambda guard: rho_n_bruteforce(s, n, "max", guard),
                        _built(m, n, necklace_count(m, n)))

    def test_rho_n_bruteforce_on_a_tree(self):
        s = _random_iru(np.random.default_rng(61), 2, (2, 2))  # 4 members
        self._at_budget(lambda guard: rho_n_bruteforce(s, 3, "min", guard),
                        _built(4, 3, necklace_count(4, 3)))

    @pytest.mark.parametrize("m, n_max", [(3, 3), (2, 5)])
    def test_jsr_counts_every_word(self, m, n_max):
        s = ExplicitSet(np.random.default_rng(62).uniform(0.1, 2.0, (m, 2, 2)))
        self._at_budget(lambda guard: jsr_lsr_bounds(s, n_max, guard),
                        _built(m, n_max, m ** n_max))

    def test_finiteness_main_run_counts_its_longest_length(self):
        # 10 members at n_max = 4: the count up to length 4, not up to the
        # first length whose count exceeds the guard.
        s = ExplicitSet(np.random.default_rng(63).uniform(0.1, 2.0, (10, 2, 2)))
        with pytest.raises(GuardExceededError) as info:
            finiteness_verify(s, n_max=4, sandwich_samples=0, size_guard=100)
        assert info.value.required == 10 + 100 + 1000 + 2530 == _built(
            10, 4, necklace_count(10, 4))
        self._at_budget(lambda guard: finiteness_verify(
            s, n_max=3, sandwich_samples=0, size_guard=guard),
            _built(10, 3, necklace_count(10, 3)))

    @pytest.mark.parametrize("m, n_max", [(1, 4), (2, 5), (3, 4), (4, 3),
                                          (27, 3)])
    def test_radius_only_sweeps_build_what_the_guard_counts(self, monkeypatch,
                                                           m, n_max):
        # Shorter lengths are built whole (they are prefixes); the last one
        # holds exactly one product per cyclic class.  The guard counts
        # exactly those.
        built = []
        normalise = spectral._normalise

        def spy(prods, logs):
            built.append(len(prods))
            return normalise(prods, logs)

        monkeypatch.setattr(spectral, "_normalise", spy)
        s = ExplicitSet(np.random.default_rng(65).uniform(0.1, 2.0, (m, 2, 2)))
        want = sum(m ** n for n in range(1, n_max)) + necklace_count(m, n_max)
        for run in (lambda guard: rho_n_bruteforce(s, n_max, "max", guard),
                    lambda guard: finiteness_verify(
                        s, n_max, sandwich_samples=0, size_guard=guard)):
            built.clear()
            run(DEFAULT_SIZE_GUARD)
            assert sum(built) == want
            self._at_budget(run, want)

    def test_finiteness_sandwich_run_counts_the_enlarged_set(self):
        # Three members need 3 + 6 words up to length 2; with two convex
        # combinations added the sandwich run needs 5 + necklace_count(5, 2).
        s = ExplicitSet(np.random.default_rng(64).uniform(0.1, 2.0, (3, 2, 2)))
        self._at_budget(lambda guard: finiteness_verify(
            s, n_max=2, sandwich_samples=2, seed=1, size_guard=guard),
            _built(5, 2, necklace_count(5, 2)))

    @pytest.mark.parametrize("m", [1, 4])
    def test_finiteness_sandwich_guard_comes_before_drawing(self, monkeypatch,
                                                            m):
        # A million samples would take seconds and k d^2 floats to draw.
        # One member counts too, though each draw equals it.
        draws = []
        monkeypatch.setattr(spectral, "convex_combination",
                            lambda *args: draws.append(args))
        s = ExplicitSet(np.random.default_rng(66).uniform(0.1, 2.0, (m, 2, 2)))
        with pytest.raises(GuardExceededError) as info:
            finiteness_verify(s, n_max=4, sandwich_samples=10 ** 6)
        assert info.value.required == _built(m + 10 ** 6, 3,
                                             necklace_count(m + 10 ** 6, 3))
        assert draws == []

    @pytest.mark.parametrize("m, k, n_max", [(1, 2, 3), (3, 2, 1), (3, 2, 2),
                                             (4, 3, 3), (27, 3, 3), (3, 2, 4),
                                             (2, 1, 5)])
    def test_finiteness_sandwich_builds_member_words_once(self, monkeypatch,
                                                          m, k, n_max):
        # One sweep of the enlarged set serves both runs up to length 3, so
        # up to n_max = 3 every member word is built once.  Beyond, the
        # family's own sweep scans from length 4 on, rebuilding the shorter
        # lengths only as the prefixes of its longer words.
        built = []
        normalise = spectral._normalise

        def spy(prods, logs):
            built.append(len(prods))
            return normalise(prods, logs)

        monkeypatch.setattr(spectral, "_normalise", spy)
        s = ExplicitSet(np.random.default_rng(67).uniform(0.1, 2.0, (m, 2, 2)))
        short, e = min(3, n_max), m + (k if m > 1 else 0)  # draws dedup at m=1
        want = sum(e ** n for n in range(1, short)) + necklace_count(e, short)
        if n_max > 3:
            want += (sum(m ** n for n in range(1, n_max))
                     + necklace_count(m, n_max))
        report = finiteness_verify(s, n_max, sandwich_samples=k)
        assert sum(built) == want
        assert [(c.n, c.sandwich) for c in report.checks] == (
            [(n, False) for n in range(1, n_max + 1)]
            + [(n, True) for n in range(1, short + 1)])


def _finiteness_by_two_sweeps(s, n_max, k, tol, seed, guard):
    """``finiteness_verify`` composed as two separate sweeps: the family's
    over every length, then the enlarged set's up to length 3, after the
    family's and the sandwich's product counts are checked against the
    guard."""
    family = expr_expand(s, guard)
    m, short = family.size, min(3, n_max)
    for words in (_built(m, n_max, necklace_count(m, n_max)),
                  k and _built(m + k, short, necklace_count(m + k, short))):
        if words > guard:
            raise GuardExceededError(words, guard)
    runs = [(spectral._sweep(family, n_max, guard, norms=False), False)]
    if k:
        rng = np.random.default_rng(seed)
        enlarged = ExplicitSet([*family.matrices, *(
            spectral.convex_combination(rng, family, m) for _ in range(k))])
        runs.append((spectral._sweep(enlarged, short, guard, norms=False),
                     True))
    rho_max, rho_min = (float(np.exp(v)) for v, _ in runs[0][0][0][:2])
    checks = []
    for levels, sandwich in runs:
        for n, ((hv, hw), (cv, cw), *_) in enumerate(levels, 1):
            lo, hi = float(np.exp(cv / n)), float(np.exp(hv / n))
            checks.append(spectral.FinitenessCheck(
                n, sandwich, lo, hi, abs(lo - rho_min), abs(hi - rho_max),
                n * tol * max(1.0, rho_max), cw, hw))
    failures = tuple(c for c in checks if not c.ok)
    return spectral.FinitenessReport(not failures, rho_min, rho_max,
                                     tuple(checks), failures)


def _finiteness_family(kind, rng):
    d = int(rng.integers(1, 4))
    if kind == "iru":
        return _random_iru(rng, d, [int(rng.integers(1, 3)) for _ in range(d)])
    if kind == "tree":
        return random_expr(rng, 2, d, 0.1, 2.0, max_matrices=8)
    mats = rng.uniform(0.0, 2.0, size=(int(rng.integers(1, 6)), d, d))
    if kind == "one":  # every draw equals the member and dedups into it
        return ExplicitSet(mats[:1])
    if kind == "transposed":  # members out of sorted order
        return transpose_set(ExplicitSet(mats.round()))
    mats *= rng.uniform(size=mats.shape) > 0.4  # zero entries, zero members
    mats[rng.uniform(size=mats.shape) < 0.2] = -0.0
    return ExplicitSet(mats)


@settings(max_examples=300, deadline=None)
@given(kind=st.sampled_from(["explicit", "one", "iru", "tree", "transposed"]),
       seed=st.integers(0, 2**32 - 1), n_max=st.integers(1, 5),
       k=st.integers(0, 4), guard=st.sampled_from([12, 60, DEFAULT_SIZE_GUARD,
                                                   DEFAULT_SIZE_GUARD]))
# A draw ends a word more extreme than any member word: the sandwich's
# extremes are not the family's.
@example(kind="explicit", seed=1, n_max=3, k=2, guard=DEFAULT_SIZE_GUARD)
@example(kind="one", seed=0, n_max=3, k=4, guard=DEFAULT_SIZE_GUARD)
@example(kind="one", seed=0, n_max=3, k=4, guard=12)  # 5 members: 45 words
@example(kind="transposed", seed=1, n_max=4, k=2, guard=DEFAULT_SIZE_GUARD)
def test_finiteness_equals_two_sweeps(kind, seed, n_max, k, guard):
    # One sweep of the enlarged set serves both runs, yet every check,
    # word, failure, verdict and guard error is the two sweeps' own.
    def outcome(verify):
        try:
            return verify(_finiteness_family(kind, np.random.default_rng(seed)),
                          n_max, k, 1e-7, seed, guard)
        except GuardExceededError as exc:
            return exc.required, exc.guard

    assert outcome(finiteness_verify) == outcome(_finiteness_by_two_sweeps)


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
        assert report.passed

    def test_records_power_threshold(self):
        rng = np.random.default_rng(16)
        s = iru_enumerate(_random_iru(rng, 2, (2, 2)))
        report = conv_lsr_check(s, 3, 20, seed=3)
        assert report.threshold_power == pytest.approx(
            report.rho_check_n ** 3 / 2
        )


any_family = pytest.mark.parametrize("make", [
    lambda rng: _random_iru(rng, 2, (2, 3)),
    lambda rng: OrderedChain(np.cumsum(rng.uniform(0.1, 1.0, size=(3, 2, 2)), axis=0)),
    lambda rng: Sum((_random_iru(rng, 2, (2, 2)), Scale(0.5, ExplicitSet(np.eye(2)[None])))),
    lambda rng: random_expr(rng, 3, 2, 0.1, 2.0, max_matrices=24),
], ids=["iru", "chain", "sum", "expr"])


@any_family
def test_word_engines_take_any_family(make):
    s = make(np.random.default_rng(17))
    flat = expr_expand(s)
    assert rho_n_bruteforce(s, 3, "min") == rho_n_bruteforce(flat, 3, "min")
    assert jsr_lsr_bounds(s, 2) == jsr_lsr_bounds(flat, 2)
    assert conv_lsr_check(s, 2, 20, seed=4) == conv_lsr_check(flat, 2, 20, seed=4)


@any_family
@pytest.mark.parametrize("direction", ["min", "max"])
def test_exhaustive_oracle_takes_any_family(make, direction):
    s = make(np.random.default_rng(17))
    flat = expr_expand(s)
    assert (rho_extremal_exhaustive(s, direction)
            == rho_extremal_exhaustive(flat, direction))


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

    def test_wide_levels_match_one_block(self, monkeypatch):
        # At the default block size the deepest levels of 2^18 words run in
        # several prefix blocks; with a block wider than every level, in one.
        rng = np.random.default_rng(114)
        s = ExplicitSet(rng.uniform(0.0, 1.5, size=(2, 2, 2)))
        n_max = 18
        assert s.size ** n_max > 2 * spectral._CHUNK
        guard = _built(s.size, n_max, s.size ** n_max)
        blocks = jsr_lsr_bounds(s, n_max, size_guard=guard)
        monkeypatch.setattr(spectral, "_CHUNK", 1 << 20)
        assert s.size ** n_max <= spectral._CHUNK // 2
        assert jsr_lsr_bounds(s, n_max, size_guard=guard) == blocks

    @staticmethod
    def _families():
        rng = np.random.default_rng(115)
        for _ in range(4):
            shape = (int(rng.integers(1, 5)), *(2 * [int(rng.integers(1, 4))]))
            mats = rng.uniform(0.0, 2.0, size=shape)
            sparse = mats * (rng.uniform(size=shape) > 0.5)  # zero rows too
            for members in (mats, sparse, rng.normal(size=shape)):
                yield ExplicitSet(members, dedup=False)
        for name in ("diagonal_pair", "nilpotent_pair", "sign_pair"):
            yield _fixture_set(name)

    @pytest.mark.parametrize("chunk", [spectral._CHUNK, 4])
    def test_radius_only_sweep_matches_full_sweep(self, monkeypatch, chunk):
        # A radius-only sweep multiplies one word per cyclic class at its
        # last length (several prefix blocks of it at a block size of 4);
        # its radius pairs are the full sweep's, bit for bit.
        monkeypatch.setattr(spectral, "_CHUNK", chunk)
        for s in self._families():
            summary = jsr_lsr_bounds(s, 5)
            for n in range(1, 6):
                full = spectral._sweep(s, n, DEFAULT_SIZE_GUARD)
                radii = spectral._sweep(s, n, DEFAULT_SIZE_GUARD, norms=False)
                assert [lv[:2] for lv in radii] == [lv[:2] for lv in full]
                assert [lv[2:] for lv in radii] == [(None, None)] * n
                assert rho_n_bruteforce(s, n, "max") == (
                    summary.rho_hat[n - 1], summary.argmax_words[n - 1])
                assert rho_n_bruteforce(s, n, "min") == (
                    summary.rho_check[n - 1], summary.argmin_words[n - 1])


def _full_scan(mats, n_max):
    """The word sweep's four extremes per length, from the plainest scan.

    Every word of every length is multiplied out with one matmul per
    (word, member) pair and normalised as the sweep does; every product's
    l1 norm is taken, every least rotation gets its own eigvals call, and
    ties go to the first word in lexicographic order."""
    m = len(mats)
    prods = mats.astype(float, copy=True)
    logs = spectral._normalise(prods, np.zeros(m))
    words = [(a,) for a in range(m)]
    levels = []
    for n in range(1, n_max + 1):
        if n > 1:
            prods = np.array([np.matmul(mats[a], p) for p in prods
                              for a in range(m)])
            logs = spectral._normalise(prods, np.repeat(logs, m))
            words = [w + (a,) for w in words for a in range(m)]
        norms = spectral._log(spectral._l1_norms(prods)) + logs
        reps = [i for i, w in enumerate(words)
                if all(w <= w[r:] + w[:r] for r in range(1, n))]
        radii = [spectral._log(np.abs(np.linalg.eigvals(prods[i])).max())
                 + logs[i] for i in reps]
        level = []
        for vals, index in ((radii, reps), (list(norms), range(len(words)))):
            for pick in (max, min):
                first = vals.index(pick(vals))  # ties: the first word
                level.append((float(vals[first]), words[index[first]]))
        levels.append(tuple(level))
    return levels


class TestSweepOracle:
    """``_sweep`` equals the plain full scan bit for bit: every extreme and
    every word, at the default block size and at 4 (many prefix blocks)."""

    @staticmethod
    def _families():
        rng = np.random.default_rng(120)
        # Order 1; order 17, past the stacked GEMM's orders; orders 5 and 8,
        # past the orders whose l1 norms are summed by entry.
        for m, d in ((2, 3), (3, 2), (4, 4), (3, 1), (2, 17), (2, 5), (3, 8)):
            mats = rng.uniform(0.1, 2.0, size=(m, d, d))
            sparse = mats * (rng.uniform(size=mats.shape) > 0.4)
            sparse[:, 0] = 0.0  # a zero row in every member
            yield from (mats, sparse, rng.normal(size=(m, d, d)))
        yield _fixture_set("nilpotent_pair").matrices  # -inf logs
        # Every product is a permutation matrix: every norm ties at 1.
        yield np.array([np.eye(3)[[1, 2, 0]], np.eye(3)[[1, 0, 2]]])

    @pytest.mark.parametrize("chunk", [spectral._CHUNK, 4])
    def test_sweep_equals_full_scan(self, monkeypatch, chunk):
        monkeypatch.setattr(spectral, "_CHUNK", chunk)
        for mats in self._families():
            s = ExplicitSet(mats, dedup=False)
            n_max = 5 if s.size <= 3 else 4
            want = _full_scan(s.matrices, n_max)
            assert spectral._sweep(s, n_max, DEFAULT_SIZE_GUARD) == want
            for n in range(1, n_max + 1):
                radii = spectral._sweep(s, n, DEFAULT_SIZE_GUARD, first=n,
                                        norms=False)
                assert radii == [want[n - 1][:2] + (None, None)]


@settings(max_examples=200, deadline=None)
@given(d=st.integers(1, 16), m=st.integers(1, 8), k=st.integers(1, 24),
       signed=st.booleans(), exponent=st.integers(0, 200),
       seed=st.integers(0, 2**32 - 1))
def test_stacked_gemm_equals_products_one_by_one(d, m, k, signed, exponent,
                                                 seed):
    # The sweep multiplies a block of products by every member in one call,
    # the members stacked as one (m d, d) matrix, at orders up to 16.
    rng = np.random.default_rng(seed)
    mats = rng.uniform(-1.0 if signed else 0.0, 1.0, size=(m, d, d))
    mats *= 10.0 ** rng.integers(-exponent, exponent + 1, size=(m, 1, 1))
    block = rng.uniform(-1.0 if signed else 0.0, 1.0, size=(k, d, d))
    stacked = np.matmul(mats.reshape(m * d, d), block).reshape(-1, d, d)
    one_by_one = np.matmul(mats[None], block[:, None]).reshape(-1, d, d)
    assert np.array_equal(stacked, one_by_one)


@settings(max_examples=200, deadline=None)
@given(d=st.integers(1, 6), k=st.integers(1, 40), exponent=st.integers(0, 300),
       seed=st.integers(0, 2**32 - 1))
def test_l1_norms_by_entry_equal_row_passes(d, k, exponent, seed):
    # Up to order 4 each column is summed as one pass along the words; its
    # rows are added in the order the row passes add them, so bit for bit.
    rng = np.random.default_rng(seed)
    prods = rng.normal(size=(k, d, d)) * 10.0 ** rng.integers(
        -exponent, exponent + 1, size=(k, d, d))
    prods[rng.uniform(size=prods.shape) < 0.3] = 0.0
    sums = np.abs(prods[:, 0])
    for i in range(1, d):
        sums += np.abs(prods[:, i])
    assert np.array_equal(spectral._l1_norms(prods), sums.max(axis=1))
