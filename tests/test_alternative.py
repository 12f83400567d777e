import itertools
import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hourglass.alternative as alternative
from hourglass.alternative import (
    THEOREM_NOTE,
    CertificationError,
    _certify_margins,
    extremal_pick,
    _probe_draws,
    certify_extremal,
    hourglass_h1_iru,
    hourglass_h2_iru,
    hourglass_probe,
    hourglass_probe_explicit,
)
from hourglass.generate import random_chain, random_expr, random_iru
from hourglass.linalg import (
    ROW_SUMS_OVERFLOW,
    DomainError,
    PerronCertificate,
    spectral_radius_power,
    strict_tolerance,
)
from hourglass.sets import (
    dedup_tolerance,
    ExplicitSet,
    IruSet,
    convex_combination,
    epsilon_lift,
    expr_expand,
    in_class,
    iru_enumerate,
    minkowski_product,
    minkowski_sum,
    OrderedChain,
    Product,
    Scale,
    Sum,
    scale_set,
)
from hourglass.spectral import rho_extremal_exhaustive, spectral_simplex
from test_spectral import any_family


J2 = np.ones((2, 2))


def _random_iru(rng, n, sizes, lo=0.1, hi=2.0):
    return IruSet([rng.uniform(lo, hi, size=(k, n)) for k in sizes])


def _scan_side(images, v, stol, sign):
    """Exhaustive dichotomy scan over a family's images (test oracle)."""
    gaps = sign * (v[None, :] - images)
    if (gaps <= stol).all():
        return "all_on_side"
    witness = (gaps >= -stol).all(axis=1) & (gaps.max(axis=1) > stol)
    return "witness" if witness.any() else "violation"


def _columnwise(mats, u):
    """Images ``mats @ u`` summed column by column, left to right."""
    images = mats[..., 0] * u[0]
    for j in range(1, mats.shape[-1]):
        images = images + mats[..., j] * u[j]
    return images


def _probe_per_trial(s, trials, seed, strict_tol=None, image=np.matmul):
    """One trial at a time, each scanning the whole set (test oracle).
    ``image=_columnwise`` sums as the probe does, so that the oracle's
    floats, and so its decisions, equal the probe's by construction."""
    rng = np.random.default_rng(seed)
    out = []
    for t in range(trials):
        center = int(rng.integers(0, s.size))
        u = np.exp(rng.uniform(np.log(0.1), np.log(10.0), size=s.shape[1]))
        images = image(s.matrices, u)
        v = images[center]
        stol = strict_tolerance(v) if strict_tol is None else strict_tol
        for sign, direction in ((+1, "H1"), (-1, "H2")):
            if _scan_side(images, v, stol, sign) == "violation":
                out.append((t, direction, center, u))
    return out


class TestHourglassH1:
    def test_non_iru_families_raise_type_error(self):
        chain = OrderedChain([np.full((2, 2), 1.0), np.full((2, 2), 2.0)])
        for s in (ExplicitSet(chain.matrices), chain, Sum((chain, chain))):
            for decide in (hourglass_h1_iru, hourglass_h2_iru):
                with pytest.raises(TypeError, match="need an IruSet"):
                    decide(s, (0, 0), [1.0, 1.0])

    def test_singleton_all_on_side(self):
        s = IruSet([[[1.0, 2.0]], [[3.0, 1.0]]])
        out = hourglass_h1_iru(s, (0, 0), [1.0, 1.0])
        assert out.all_on_side
        np.testing.assert_allclose(out.slack, 0.0, atol=1e-15)

    def test_constructed_witness(self):
        # Rows are kept in canonical (lexicographic) order, so row set 1 is
        # [[0.5, 0.5], [2, 2]].  Choosing its larger row leaves the smaller
        # one scoring strictly below, and H1 must swap exactly that row in.
        s = IruSet([[[1.0, 1.0]], [[2.0, 2.0], [0.5, 0.5]]])
        u = np.array([1.0, 1.0])
        out = hourglass_h1_iru(s, (0, 1), u)
        assert out.verdict == "witness"
        assert out.witness_position == (1, 0)
        tilde = s.assemble((0, 1))
        assert np.all(out.witness_matrix @ u <= tilde @ u)
        stol = strict_tolerance(tilde @ u)
        assert np.all(out.slack >= -stol)
        assert out.slack.max() > stol

    def test_mirror_witness(self):
        s = IruSet([[[1.0, 1.0]], [[2.0, 2.0], [0.5, 0.5]]])
        u = np.array([1.0, 1.0])
        out = hourglass_h2_iru(s, (0, 0), u)
        assert out.verdict == "witness"
        assert out.witness_position == (1, 1)
        assert out.slack.max() > 0

    def test_both_witnesses_carry_nonnegative_slack(self):
        # A row set holding rows strictly below and strictly above the
        # chosen one yields witnesses on both sides; each witness satisfies
        # its slack contract, so neither side ever reports a witness whose
        # total slack is negative.
        s = IruSet([[[1.0, 1.0]], [[0.5, 0.5], [1.5, 1.5], [3.0, 3.0]]])
        u = np.array([1.0, 1.0])
        choice = (0, 1)  # the middle row of the second row set
        below = hourglass_h1_iru(s, choice, u)
        above = hourglass_h2_iru(s, choice, u)
        assert below.verdict == "witness" and above.verdict == "witness"
        stol = strict_tolerance(s.assemble(choice) @ u)
        for out in (below, above):
            assert out.slack.sum() > 0
            assert out.slack.min() >= -stol

        rng = np.random.default_rng(30)
        for _ in range(40):
            fam = _random_iru(rng, 2, (2, 3))
            ch = tuple(int(rng.integers(len(rs))) for rs in fam.row_sets)
            w = np.exp(rng.uniform(np.log(0.1), np.log(10.0), size=2))
            for fn in (hourglass_h1_iru, hourglass_h2_iru):
                out = fn(fam, ch, w)
                if out.verdict == "witness":
                    assert out.slack.sum() > 0

    def test_rejects_boundary_set(self):
        s = IruSet([[[0.0, 1.0]], [[1.0, 1.0]]])
        with pytest.raises(DomainError):
            hourglass_h1_iru(s, (0, 0), [1.0, 1.0])

    def test_rejects_nonpositive_u(self):
        s = IruSet([[[1.0, 1.0]], [[1.0, 1.0]]])
        with pytest.raises(DomainError):
            hourglass_h1_iru(s, (0, 0), [1.0, -1.0])

    @pytest.mark.parametrize("choice, position", [
        ((-1, 0), 0), ((0.5, 0), 0), ((5, 0), 0), ((0, 2), 1),
    ], ids=["negative", "fraction", "past-the-end", "second-position"])
    def test_rejects_choices_that_are_not_row_indices(self, choice, position):
        # A negative index would pick from the end, a fraction would be
        # truncated: neither names a row.
        s = IruSet([[[1.0, 2.0], [2.0, 1.0]], [[1.0, 1.0], [2.0, 2.0]]])
        for decide in (s.assemble, lambda c: hourglass_h1_iru(s, c, [1.0, 1.0]),
                       lambda c: hourglass_h2_iru(s, c, [1.0, 1.0])):
            with pytest.raises(DomainError, match=(
                    rf"^choice\[{position}\] = {choice[position]!r} names no "
                    rf"row of row set {position}$")):
                decide(choice)

    def test_agrees_with_exhaustive_scan(self):
        # Structured decisions match a brute-force scan of the enumeration
        # for families with at most 64 members.
        rng = np.random.default_rng(0)
        for trial in range(60):
            n = int(rng.integers(2, 4))
            sizes = tuple(int(rng.integers(1, 4)) for _ in range(n))
            s = _random_iru(rng, n, sizes)
            mats = iru_enumerate(s).matrices
            choice = tuple(int(rng.integers(len(rs))) for rs in s.row_sets)
            u = np.exp(rng.uniform(np.log(0.1), np.log(10.0), size=n))
            tilde = s.assemble(choice)
            v = tilde @ u
            stol = strict_tolerance(v)
            for fn, sign in ((hourglass_h1_iru, +1), (hourglass_h2_iru, -1)):
                out = fn(s, choice, u)
                want = _scan_side(mats @ u, v, stol, sign)
                assert want != "violation"
                assert out.verdict == want
                # The witness swaps in the lexicographically first offender.
                offenders = []
                for i, rs in enumerate(s.row_sets):
                    for j, row in enumerate(rs):
                        bar = tilde.copy()
                        bar[i] = row
                        if (sign * (v - bar @ u)).max() > stol:
                            offenders.append((i, j))
                assert out.witness_position == (offenders[0] if offenders else None)


class TestProbe:
    def test_positive_iru_passes(self):
        rng = np.random.default_rng(1)
        s = iru_enumerate(_random_iru(rng, 3, (2, 2, 2)))
        report = hourglass_probe_explicit(s, trials=200, seed=2)
        assert report.passed
        assert report.trials == 200
        assert "PASS does not prove" in report.note

    def test_ordered_chain_passes(self):
        rng = np.random.default_rng(3)
        base = np.cumsum(rng.uniform(0.1, 1.0, size=(4, 3, 3)), axis=0)
        chain = OrderedChain(base)
        report = hourglass_probe_explicit(
            ExplicitSet(chain.matrices, dedup=False), trials=200, seed=4
        )
        assert report.passed

    def test_engineered_pair_violates(self):
        # For u = (1, 1) the two images are incomparable, so neither H1 nor
        # H2 can hold with the first matrix as center.
        a = np.array([[1.0, 1.0], [1.0, 1.0]])
        b = np.array([[2.0, 1.0], [0.2, 0.2]])
        s = ExplicitSet([a, b])
        report = hourglass_probe_explicit(s, trials=300, seed=5)
        assert not report.passed
        first = report.violations[0]
        assert first.direction in ("H1", "H2")
        assert np.all(first.u > 0)

    def test_violations_sorted_by_trial(self):
        a = np.array([[1.0, 1.0], [1.0, 1.0]])
        b = np.array([[2.0, 1.0], [0.2, 0.2]])
        report = hourglass_probe_explicit(ExplicitSet([a, b]), trials=50, seed=6)
        trials = [v.trial for v in report.violations]
        assert trials == sorted(trials)

    def test_minkowski_closure_passes(self):
        # Sums and products of row-independent positive families stay inside
        # the dichotomy class; the probe must find nothing.
        rng = np.random.default_rng(7)
        a = iru_enumerate(_random_iru(rng, 2, (2, 2)))
        b = iru_enumerate(_random_iru(rng, 2, (2, 1)))
        for combo in (minkowski_sum(a, b), minkowski_product(a, b)):
            assert hourglass_probe_explicit(combo, trials=150, seed=8).passed

    @staticmethod
    def _assert_matches_oracle(s, trials, seed, strict_tol=None,
                               image=np.matmul):
        with pytest.MonkeyPatch.context() as mp:
            if strict_tol is not None:  # one band for every trial
                mp.setattr(alternative, "strict_tolerance",
                           lambda v: np.full(np.shape(v)[:-1], strict_tol))
            report = hourglass_probe_explicit(s, trials, seed)
        want = _probe_per_trial(s, trials, seed, strict_tol, image)
        got = [(v.trial, v.direction, v.center_index, v.u)
               for v in report.violations]
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert g[:3] == w[:3]
            assert g[3].tobytes() == w[3].tobytes()
        assert report.passed == (not want)
        return len(want)

    @staticmethod
    def _partial_last_batch(s, trials):
        step = alternative.BATCH_ENTRIES // (s.size * s.shape[0])
        return 1 < step < trials and trials % step

    def test_matches_columnwise_oracle_on_the_closure_product(self):
        # Shaped like the closure workload's largest probe: 16 x (5 + 16).
        rng = np.random.default_rng(41)
        s = expr_expand(Product((
            random_iru(rng, 2, 2, 4, 0.1, 2.0),
            Sum((random_chain(rng, 5, 2, 2, 0.1, 2.0),
                 random_iru(rng, 2, 2, 4, 0.1, 2.0))))))
        assert s.size == 1280
        assert self._partial_last_batch(s, 100)
        # The product lies in the class: neither side finds a violation.
        for strict_tol in (None, 0.0, 1e-3):
            assert not self._assert_matches_oracle(s, 100, seed=9,
                                                   strict_tol=strict_tol,
                                                   image=_columnwise)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_matches_columnwise_oracle_on_hundreds_of_members(self, n):
        rng = np.random.default_rng(50 + n)
        k, trials = 240, 121
        integer = rng.integers(1, 4, size=(k, n, n)).astype(float)
        for mats in (rng.uniform(0.05, 2.0, size=(k, n, n)),
                     integer + 1e-3 * rng.integers(0, 2, size=(k, n, n)),
                     rng.uniform(0.5, 2.0, size=(k, n, n))
                     * 10.0 ** rng.integers(-6, 7, size=(k, 1, 1))):
            s = ExplicitSet(mats, dedup=False)
            assert self._partial_last_batch(s, trials)
            found = self._assert_matches_oracle(s, trials, seed=n,
                                                image=_columnwise)
            gap = float(np.median(np.abs(mats - mats[:1]).sum(axis=2)))
            found += self._assert_matches_oracle(s, trials, seed=10 + n,
                                                 strict_tol=gap,
                                                 image=_columnwise)
            assert found > 0  # the set does violate

    def test_matches_per_trial_oracle(self, monkeypatch):
        rng = np.random.default_rng(31)
        found = 0
        for i in range(30):
            k, n, m = (int(x) for x in rng.integers(1, 6, size=3))
            s = ExplicitSet(rng.uniform(0.05, 2.0, size=(k, n, m)))
            found += self._assert_matches_oracle(s, 60, seed=i)
            found += self._assert_matches_oracle(s, 20, seed=i, strict_tol=0.05)
        k, n, m = 5, 3, 4
        for i in range(10):
            integer = rng.integers(1, 4, size=(k, n, m)).astype(float)
            integer[:, -1] = integer[:, 0]  # repeated rows: exact zero gaps
            pool = rng.uniform(0.1, 3.0, size=(3, m))
            shared = pool[rng.integers(0, 3, size=(k, n))]  # members share rows
            scaled = (rng.uniform(0.5, 2.0, size=(k, n, m))
                      * 10.0 ** rng.integers(-8, 9, size=(k, 1, 1)))
            for mats in (integer, shared, scaled,
                         rng.uniform(0.05, 2.0, size=(k, 2, 6)),  # wide
                         rng.uniform(0.05, 2.0, size=(k, 6, 2))):  # tall
                s = ExplicitSet(mats, dedup=False)
                found += self._assert_matches_oracle(s, 40, seed=100 + i)
                # A tolerance of the order of the gaps themselves.
                gap = float(np.median(np.abs(mats - mats[:1]).sum(axis=2)))
                found += self._assert_matches_oracle(s, 40, seed=200 + i,
                                                     strict_tol=gap)
        s = ExplicitSet(rng.uniform(0.05, 2.0, size=(3, 2, 2)))
        monkeypatch.setattr(alternative, "BATCH_ENTRIES", 7)  # one trial a block
        found += self._assert_matches_oracle(s, 100, seed=99)
        monkeypatch.setattr(alternative, "BATCH_ENTRIES", 20)  # three a block
        found += self._assert_matches_oracle(s, 100, seed=99)  # last block: one
        assert found > 100  # the sets do violate

    def test_rejects_boundary(self):
        with pytest.raises(DomainError):
            hourglass_probe_explicit(
                ExplicitSet(np.zeros((1, 2, 2))), trials=1, seed=0
            )


def _draws_loop(seed, k, n, trials):
    """The probe's draws as separate generator calls per trial (oracle)."""
    rng = np.random.default_rng(seed)
    centers, us = [], []
    for _ in range(trials):
        centers.append(rng.integers(0, k))
        us.append(np.exp(rng.uniform(np.log(0.1), np.log(10.0), size=n)))
    return np.array(centers), np.array(us)


class TestProbeDraws:
    @staticmethod
    def _assert_same(seed, k, n, trials):
        for got, want in zip(_probe_draws(seed, k, n, trials),
                             _draws_loop(seed, k, n, trials)):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("k", [1, 2, 7, 1280])
    def test_block_equals_per_trial_loop(self, k):
        for seed in range(40):
            for n in range(1, 6):
                for trials in (1, 2, 3, 8, 25):
                    self._assert_same(seed, k, n, trials)

    def test_rejections_fall_back_to_the_loop(self, monkeypatch):
        import hourglass.alternative as alternative

        # k = 3 * 2**30 + 7 rejects about a quarter of the 32-bit halves.
        k, loops, batched = 3 * 2**30 + 7, [], 0
        loop = alternative._draws_per_trial
        monkeypatch.setattr(alternative, "_draws_per_trial",
                            lambda *args: loops.append(args) or loop(*args))
        for seed in range(60):
            for n, trials in ((1, 1), (2, 2), (3, 5)):
                before = len(loops)
                self._assert_same(seed, k, n, trials)
                batched += len(loops) == before
        assert 0 < batched < 180 and len(loops) == 180 - batched


@any_family
def test_probe_takes_any_family(make):
    s = make(np.random.default_rng(17))
    report = hourglass_probe_explicit(s, trials=100, seed=3)
    assert report.passed  # every family here lies in the dichotomy class
    assert report == hourglass_probe_explicit(expr_expand(s), trials=100, seed=3)


def _violations(report):
    return [(v.trial, v.direction, v.center_index, v.u.tolist())
            for v in report.violations]


def _masked(rng, shape, lo=0.1, hi=2.0):
    """Entries from [lo, hi], about one in six of them zero."""
    return rng.uniform(lo, hi, size=shape) * (rng.random(shape) > 1 / 6)


def _sparse_tree(rng, depth, n):
    """A nonnegative tree in the class whose leaves have zero entries."""
    kind = int(rng.integers(6 if depth else 3))
    if kind == 0:
        return IruSet([_masked(rng, (int(rng.integers(1, 3)), n))
                       for _ in range(n)])
    if kind == 1:  # zero increments keep some zeros up the chain
        return OrderedChain(np.cumsum(_masked(rng, (int(rng.integers(1, 4)),
                                                    n, n)), axis=0))
    if kind == 2:
        return ExplicitSet(_masked(rng, (1, n, n)))
    if kind == 5:
        return Scale(float(rng.uniform(0.5, 2.0)),
                     _sparse_tree(rng, depth - 1, n))
    return (Sum, Product)[kind - 3]((_sparse_tree(rng, depth - 1, n),
                                     _sparse_tree(rng, depth - 1, n)))


class TestTheoremProbe:
    """``hourglass_probe`` answers input in the class from the theorem and
    samples the rest exactly as ``hourglass_probe_explicit`` does."""

    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), depth=st.integers(0, 3),
           dim=st.integers(2, 4), scale=st.sampled_from([1e-6, 1.0, 1e6]),
           probe_seed=st.integers(0, 2**32 - 1), trials=st.integers(1, 100))
    def test_sampling_agrees_with_the_theorem(self, seed, depth, dim, scale,
                                              probe_seed, trials):
        e = Scale(scale, random_expr(np.random.default_rng(seed), depth, dim,
                                     0.1, 2.0))
        sampled = hourglass_probe_explicit(expr_expand(e), trials, probe_seed)
        report = hourglass_probe(e, trials, probe_seed)
        assert sampled.passed and report.note == THEOREM_NOTE
        assert ((report.passed, report.trials, report.violations)
                == (sampled.passed, sampled.trials, sampled.violations))

    def test_positivity_is_exact(self):
        verdicts = set()
        for seed in range(200):
            rng = np.random.default_rng(seed)
            e = _sparse_tree(rng, int(rng.integers(4)), int(rng.integers(1, 4)))
            if e.cardinality_bound() > 2000:
                continue
            assert in_class(e)
            flat = expr_expand(e)
            verdicts.add(flat.is_positive)
            if flat.is_positive:
                assert hourglass_probe(e, 10, seed).note == THEOREM_NOTE
                continue
            with pytest.raises(DomainError) as sampled:
                hourglass_probe_explicit(flat, 10, seed)
            with pytest.raises(DomainError) as structural:
                hourglass_probe(e, 10, seed)
            assert str(structural.value) == str(sampled.value) == (
                "the dichotomy probe requires a positive set")
        assert verdicts == {True, False}

    def test_refusals_keep_their_order_and_text(self):
        e = Sum((_random_iru(np.random.default_rng(1), 2, (2, 2)),
                 OrderedChain([[[1.0, 2.0], [3.0, 4.0]]])))
        with pytest.raises(DomainError, match="^trials must be at least 1$"):
            hourglass_probe(e, 0, 0)
        # Finite leaves whose row means, ten times over, leave the float range.
        big = Scale(1e307, OrderedChain([[[1.0, 2.0], [3.0, 4.0]]]))
        with pytest.raises(DomainError, match=f"^{ROW_SUMS_OVERFLOW}$"):
            hourglass_probe(Sum((big, big)), 10, 0)
        with pytest.raises(DomainError, match=f"^{ROW_SUMS_OVERFLOW}$"):
            hourglass_probe_explicit(expr_expand(Sum((big, big))), 10, 0)

    def test_beyond_the_guard_without_expanding(self, monkeypatch):
        rng = np.random.default_rng(5)
        e = Product(tuple(_random_iru(rng, 4, (4, 4, 4, 4)) for _ in range(5)))
        assert e.cardinality_bound() >= 10**12
        monkeypatch.setattr(alternative, "expr_expand", None)  # never called
        started = time.perf_counter()
        report = hourglass_probe(e, 300, 7)
        assert time.perf_counter() - started < 0.5
        assert (report.passed, report.trials, report.violations, report.note) \
            == (True, 300, (), THEOREM_NOTE)

    @pytest.mark.parametrize("make", [
        lambda rng: ExplicitSet([[[1.0, 1.0], [1.0, 1.0]],
                                 [[2.0, 1.0], [0.2, 0.2]]]),
        lambda rng: Sum((_random_iru(rng, 2, (2, 2)),
                         ExplicitSet([[[1.0, 1.0], [1.0, 1.0]],
                                      [[2.0, 1.0], [0.2, 0.2]]]))),
        # A negative leaf leaves the class, though the sum is positive.
        lambda rng: Sum((IruSet([[[-0.1, 1.0]], [[1.0, 1.0], [2.0, 0.5]]]),
                         OrderedChain([J2, 2 * J2]))),
    ], ids=["pair", "sum-with-pair", "negative-leaf"])
    def test_outside_the_class_samples(self, make):
        e = make(np.random.default_rng(3))
        assert not in_class(e)
        report = hourglass_probe(e, 200, 0)
        sampled = hourglass_probe_explicit(expr_expand(e), 200, 0)
        assert (report.passed, report.trials, report.note) \
            == (sampled.passed, sampled.trials, sampled.note)
        assert _violations(report) == _violations(sampled)


class TestCertifyExtremal:
    def test_singleton_always_certified(self):
        rng = np.random.default_rng(9)
        m = rng.uniform(0.1, 2.0, size=(3, 3))
        s = ExplicitSet(m[None])
        cert = certify_extremal(s, m, "min")
        assert cert.rho == pytest.approx(
            spectral_radius_power(m), abs=1e-9
        )
        assert cert.worst_margin >= -1e-9

    def test_accepts_only_true_argmin(self):
        rng = np.random.default_rng(10)
        s = _random_iru(rng, 2, (2, 2))
        mats = iru_enumerate(s)
        radii = [spectral_radius_power(m) for m in mats]
        best = int(np.argmin(radii))
        for k, m in enumerate(mats):
            if k == best:
                cert = certify_extremal(s, m, "min")
                assert cert.rho == pytest.approx(radii[best], abs=1e-8)
            elif radii[k] > radii[best] + 1e-6:
                with pytest.raises(CertificationError):
                    certify_extremal(s, m, "min")

    def test_rejects_non_member(self):
        rng = np.random.default_rng(11)
        s = _random_iru(rng, 2, (2, 2))
        with pytest.raises(CertificationError):
            certify_extremal(s, np.full((2, 2), 7.0), "max")

    def test_max_certificate_bounds_convex_hull(self):
        rng = np.random.default_rng(12)
        s = iru_enumerate(_random_iru(rng, 3, (2, 2, 2)))
        value, idx = rho_extremal_exhaustive(s, "max")
        cert = certify_extremal(s, s.matrices[idx], "max")
        for seed in range(30):
            combo = convex_combination(np.random.default_rng(seed), s, s.size)
            assert spectral_radius_power(combo) <= cert.rho + 1e-8

    def test_certificates_bound_products_of_hull_mixtures(self):
        # The inequalities extend from members to convex combinations, so
        # length-n products of mixtures obey rho*^n floors and ceilings.
        rng = np.random.default_rng(16)
        s = iru_enumerate(_random_iru(rng, 2, (2, 2)))
        lo = certify_extremal(
            s, s.matrices[rho_extremal_exhaustive(s, "min")[1]], "min")
        hi = certify_extremal(
            s, s.matrices[rho_extremal_exhaustive(s, "max")[1]], "max")
        for n in (1, 2, 3):
            for seed in range(20):
                local = np.random.default_rng(seed)
                prod = np.eye(2)
                for _ in range(n):
                    prod = convex_combination(local, s, s.size) @ prod
                rho_p = spectral_radius_power(prod)
                assert rho_p >= lo.rho ** n - 1e-7
                assert rho_p <= hi.rho ** n + 1e-7

    def test_min_certificate_bounds_products(self):
        # A min certificate at rho* forces every length-n product to have
        # radius at least rho*^n, up to the compounded tolerance; the max
        # certificate gives the mirror ceiling.
        rng = np.random.default_rng(13)
        s = iru_enumerate(_random_iru(rng, 2, (2, 2)))
        lo = certify_extremal(
            s, s.matrices[rho_extremal_exhaustive(s, "min")[1]], "min")
        hi = certify_extremal(
            s, s.matrices[rho_extremal_exhaustive(s, "max")[1]], "max")
        mats = list(s.matrices)
        products = mats
        for n in range(2, 5):
            products = [p @ m for p in products for m in mats]
            floor = lo.rho ** n - n * lo.cert_tol * lo.rho ** (n - 1)
            ceiling = hi.rho ** n + n * hi.cert_tol * hi.rho ** (n - 1)
            for p in products:
                rho_p = spectral_radius_power(p)
                assert rho_p >= floor - 1e-9
                assert rho_p <= ceiling + 1e-9

    def test_sandwich_sets_inherit_min_certificate(self):
        # The certificate's inequalities extend to any sampled set between
        # the family and its convex hull.
        rng = np.random.default_rng(14)
        s = iru_enumerate(_random_iru(rng, 2, (2, 2)))
        value, idx = rho_extremal_exhaustive(s, "min")
        cert = certify_extremal(s, s.matrices[idx], "min")
        v = cert.perron.eigenvector
        extra = np.stack([convex_combination(np.random.default_rng(k), s, s.size)
                          for k in range(5)])
        sandwich = np.concatenate([s.matrices, extra])
        margins = (sandwich @ v - cert.rho * v[None, :]).min(axis=1)
        assert margins.min() >= -1e-9

    def test_refuses_signed_families(self):
        # A v <= rho v bounds no signed member's radius: the second member
        # has radius 5 while the candidate's Perron pair gives 3.
        signed = ExplicitSet([[[2.0, 1.0], [1.0, 2.0]], [[5.0, -5.0], [0.0, 0.0]]])
        signed_iru = IruSet([[[2.0, 1.0]], [[1.0, 2.0], [-1.0, 3.0]]])
        for s in (signed, signed_iru):
            for direction in ("min", "max"):
                with pytest.raises(DomainError):
                    certify_extremal(s, [[2.0, 1.0], [1.0, 2.0]], direction)

    def test_explicit_set_route(self):
        # An enumerated row-independent family certifies through the
        # explicit-set path too (one margin per member instead of per row).
        rng = np.random.default_rng(15)
        s = iru_enumerate(_random_iru(rng, 2, (2, 2)))
        value, idx = rho_extremal_exhaustive(s, "max")
        cert = certify_extremal(s, s.matrices[idx], "max")
        assert cert.direction == "max"
        assert cert.margins.shape == (s.size,)
        assert cert.rho == pytest.approx(value, abs=1e-8)

    # J is the all-ones 2x2 matrix: rho(cJ) = 2c, Perron vector (1/2, 1/2).
    @pytest.mark.parametrize("s, c, direction, message, violator", [
        (ExplicitSet([J2, 3 * J2]), 1, "max",
         "member 1 violates the max inequality by 2.000e+00", 1),
        (ExplicitSet([J2, 3 * J2]), 3, "min",
         "member 0 violates the min inequality by 2.000e+00", 0),
        (Sum((ExplicitSet([J2, 2 * J2]), ExplicitSet([J2]))), 2, "max",
         "component 0 of the extremal image violates the max inequality "
         "by 1.000e+00", 0),
    ], ids=["explicit-max", "explicit-min", "sum-max"])
    def test_names_the_violator(self, s, c, direction, message, violator):
        with pytest.raises(CertificationError) as err:
            certify_extremal(s, c * J2, direction)
        assert str(err.value) == message
        assert err.value.violator == violator

    def test_certifies_far_below_magnitude_one(self):
        # At rho ~ 1e-11 the tolerance, 1e-10 rho, is as tight as at rho ~ 1:
        # the simplex's member certifies, with the selection of the unscaled
        # family, and the member of first choices does not.
        base = random_iru(np.random.default_rng(5), 8, 8, 4, 0.1, 2)
        s = scale_set(1e-12, base)
        first = s.assemble([0] * 8)
        for direction in ("min", "max"):
            want = spectral_simplex(base, direction)
            trace = spectral_simplex(s, direction)
            assert trace.selection == want.selection
            assert trace.rho == pytest.approx(1e-12 * want.rho, rel=1e-14, abs=0)
            cert = certify_extremal(s, trace.certificate.extremal_matrix,
                                    direction)
            assert cert.rho == trace.rho
            assert cert.cert_tol == 1e-10 * cert.rho
            assert cert.worst_margin >= -cert.cert_tol
            with pytest.raises(CertificationError, match="violates the"):
                certify_extremal(s, first, direction)


@any_family
@pytest.mark.parametrize("direction", ["min", "max"])
def test_certify_takes_any_family(make, direction):
    # Chains and trees certify through membership in their expansion and
    # the oracle's image, as the simplex's own terminal certificate does.
    s = make(np.random.default_rng(17))
    trace = spectral_simplex(s, direction)
    cert = certify_extremal(s, trace.certificate.extremal_matrix, direction)
    assert cert.rho == pytest.approx(trace.rho, rel=1e-12, abs=0)
    assert cert.cert_tol == trace.certificate.cert_tol
    assert cert.worst_margin >= -cert.cert_tol
    with pytest.raises(CertificationError):
        certify_extremal(s, np.full(s.shape, 7.0), direction)


def _choose_loop(images, incumbent, tol):
    """One row position's (or one leaf's) pick, as a loop over row sets
    makes it (test oracle)."""
    best = images.max(axis=0)
    gaps = best - images
    if gaps.ndim == 2:
        gaps = gaps.max(axis=1)
    near = gaps <= tol
    if incumbent is None or not near[incumbent]:
        incumbent = int(gaps.argmin())
        if not near[incumbent]:
            raise DomainError(ROW_SUMS_OVERFLOW if not np.isfinite(best).all()
                              else "no explicit-leaf member has an extremal image")
    return incumbent, best, bool(np.count_nonzero(near) > 1)


def _pick_loop(e, w, sign, keep, tol):
    """``extremal_pick`` on a leaf, one row set at a time (test oracle)."""
    if isinstance(e, IruSet):
        js, bests, ties = zip(*(_choose_loop(sign * (rs @ w), next(keep), tol)
                                for rs in e.row_sets))
        matrix = np.stack([rs[j] for rs, j in zip(e.row_sets, js)])
        return matrix, sign * np.array(bests), js, ties
    j, best, tied = _choose_loop(sign * (e.matrices @ w), next(keep), tol)
    return e.matrices[j], sign * best, (j,), (tied,)


def _margins_loop(s, rho, v, sign, cert_tol):
    """IRU margins and violator, one row set at a time (test oracle)."""
    margins = np.concatenate([sign * (rs @ v - rho * v[i])
                              for i, rs in enumerate(s.row_sets)])
    k = int(margins.argmin())
    if margins[k] >= -cert_tol:
        return margins, None
    ends = list(itertools.accumulate(len(rs) for rs in s.row_sets))
    i = next(i for i, end in enumerate(ends) if k < end)
    return margins, (i, k - ends[i] + len(s.row_sets[i]))


def _outcome(call):
    with np.errstate(all="ignore"):
        try:
            return call()
        except (DomainError, CertificationError) as exc:
            return type(exc), str(exc), getattr(exc, "violator", None)


def _ragged_iru(rng, n, d, overflow):
    """Row sets of sizes 1-5 in interleaved positions, entries from a small
    grid so that images tie; ``overflow`` puts a row near the float limit
    into one position."""
    row_sets = [rng.integers(1, 4, size=(int(rng.integers(1, 6)), d)).astype(float)
                for _ in range(n)]
    if overflow:
        rs = row_sets[int(rng.integers(n))]
        rs[int(rng.integers(len(rs)))] = 1.5e308
    return IruSet(row_sets)


_TOLS = st.sampled_from([0.0, 1e-12, 0.5, 1.0, 2.0, math.inf])


class TestGroupedScansMatchTheRowSetLoop:
    """The IRU scans score each group of equal-size row sets with one
    matmul; picks, images, ties, margins and violators must be those of a
    loop over the row sets, bit for bit."""

    @settings(max_examples=300, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 7),
           d=st.integers(1, 4), tol=_TOLS, sign=st.sampled_from([1.0, -1.0]),
           overflow=st.booleans(), incumbents=st.sampled_from(["none", "held"]))
    def test_extremal_pick(self, seed, n, d, tol, sign, overflow, incumbents):
        rng = np.random.default_rng(seed)
        leaves = [_ragged_iru(rng, n, d, overflow),
                  ExplicitSet(rng.integers(1, 4, size=(int(rng.integers(1, 6)), d, d))
                              .astype(float))]
        w = rng.integers(0, 3, size=d).astype(float)
        for leaf in leaves:
            sizes = ([len(rs) for rs in leaf.row_sets]
                     if isinstance(leaf, IruSet) else [leaf.size])
            held = [None if incumbents == "none" or rng.random() < 0.3
                    else int(rng.integers(k)) for k in sizes]
            got = _outcome(lambda: extremal_pick(leaf, w, sign, iter(held), tol))
            want = _outcome(lambda: _pick_loop(leaf, w, sign, iter(held), tol))
            if isinstance(want[0], type):  # an error: the same type and text
                assert got == want
                continue
            assert got[0].tobytes() == want[0].tobytes()
            assert got[1].tobytes() == want[1].tobytes()
            assert got[2] == tuple(want[2])
            assert [type(j) for j in got[2]] == [int] * len(got[2])
            assert got[3] == tuple(want[3])
            assert [type(t) for t in got[3]] == [bool] * len(got[3])

    def test_first_overflowing_position_raises(self):
        # Positions 1 and 3 overflow at w = (2, 2); position 1 is named
        # first, whatever the group order.
        s = IruSet([[[1.0, 1.0], [2.0, 1.0]], [[1e308, 1e308]], [[1.0, 2.0]],
                    [[1.0, 1.0], [1e308, 1e308], [3.0, 1.0]]])
        w = np.array([2.0, 2.0])
        for sign in (1.0, -1.0):
            held = [None] * 4
            got = _outcome(lambda: extremal_pick(s, w, sign, iter(held), 0.0))
            want = _outcome(lambda: _pick_loop(s, w, sign, iter(held), 0.0))
            assert got == want
            assert got[:2] == (DomainError, ROW_SUMS_OVERFLOW)

    @settings(max_examples=300, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 7),
           direction=st.sampled_from(["min", "max"]))
    def test_certify_margins(self, seed, n, direction):
        rng = np.random.default_rng(seed)
        s = _ragged_iru(rng, n, n, overflow=False)
        v = rng.uniform(0.1, 1.0, size=n)
        v /= v.sum()
        rho = float(rng.uniform(1.0, 4.0 * n))
        perron = PerronCertificate(rho=rho, eigenvector=v, residual=0.0,
                                   bracket=(rho, rho))
        sign = 1.0 if direction == "min" else -1.0
        candidate = s.assemble([0] * n)
        want, violator = _margins_loop(s, rho, v, sign, 1e-10 * rho)
        got = _outcome(lambda: _certify_margins(s, candidate, perron, direction))
        if violator is None:
            assert got.margins.tobytes() == want.tobytes()
            assert got.worst_margin == float(want.min())
            assert got.cert_tol == 1e-10 * rho
        else:
            k = int(want.argmin())
            where = f"row {violator[1]} of row set {violator[0]}"
            assert got == (CertificationError, f"{where} violates the "
                           f"{direction} inequality by {-want[k]:.3e}", violator)
            assert [type(i) for i in got[2]] == [int, int]

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 7))
    def test_certify_names_the_first_stray_row(self, seed, n):
        rng = np.random.default_rng(seed)
        s = _ragged_iru(rng, n, n, overflow=False)
        candidate = s.assemble([int(rng.integers(len(rs))) for rs in s.row_sets])
        candidate[rng.random(n) < 0.4] += 0.5  # off the integer grid
        want = next((i for i, rs in enumerate(s.row_sets)
                     if np.abs(rs - candidate[i]).max(axis=1).min()
                     > dedup_tolerance(rs)), None)
        got = _outcome(lambda: certify_extremal(s, candidate, "max"))
        if want is None:
            assert not isinstance(got, tuple) or "admissible" not in got[1]
        else:
            assert got == (CertificationError,
                           f"candidate row {want} is not an admissible row", want)
