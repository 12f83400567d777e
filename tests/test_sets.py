import tracemalloc
import warnings

import numpy as np
import pytest

from hourglass.linalg import DimensionMismatchError, DomainError
from hourglass.sets import (
    dedup_tolerance,
    ExplicitSet,
    GuardExceededError,
    IruSet,
    Leaf,
    OrderedChain,
    Product,
    Scale,
    SetExpr,
    Sum,
    contains_matrix,
    convex_sample,
    epsilon_lift,
    expr_expand,
    hausdorff_distance,
    iru_enumerate,
    minkowski_product,
    minkowski_sum,
    scale_set,
    set_equal,
    transpose_set,
)
from hourglass.sets import _dedup_stack
from hourglass.spectral import rho_extremal_exhaustive
from test_spectral import any_family

NILP_A = np.array([[0.0, 2.0], [0.0, 0.0]])
NILP_B = np.array([[0.0, 0.0], [2.0, 0.0]])


def _random_iru(rng, n, sizes):
    return IruSet([rng.uniform(0.1, 2.0, size=(k, n)) for k in sizes])


def _random_explicit(rng, n, count):
    return ExplicitSet(rng.uniform(0.0, 2.0, size=(count, n, n)))


def _row_set(rows):
    """The row set ``IruSet([rows])`` keeps: ``rows`` deduplicated, sorted."""
    return IruSet([rows]).row_sets[0]


class TestRowSet:
    def test_dedup(self):
        rs = _row_set([[1.0, 2.0], [1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_array_equal(rs, [[1.0, 2.0], [3.0, 4.0]])
        assert len(rs) == 2 and not rs.flags.writeable

    def test_flags(self):
        assert IruSet([[[1.0, 2.0]]]).is_positive
        assert not IruSet([[[0.0, 2.0]]]).is_positive
        assert IruSet([[[0.0, 2.0]]]).is_nonnegative
        assert not IruSet([[[1.0, 2.0]], [[-1.0, 2.0]]]).is_nonnegative

    def test_rejects_ragged(self):
        with pytest.raises((DimensionMismatchError, ValueError)):
            _row_set([[1.0], [1.0, 2.0]])
        with pytest.raises(DimensionMismatchError,
                           match="^a row set needs nonempty equal-length rows"):
            _row_set(np.zeros((0, 2)))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_entries_raise(bad):
    with pytest.raises(DomainError, match="^row set entries must be finite$"):
        _row_set([[1.0, 2.0], [bad, 0.0]])
    for dedup in (True, False):
        with pytest.raises(DomainError,
                           match="^ExplicitSet entries must be finite$"):
            ExplicitSet([[[1.0, bad]], [[0.0, 1.0]]], dedup=dedup)
    with pytest.raises(DomainError, match="^OrderedChain entries must be finite$"):
        OrderedChain([[[0.0, 1.0]], [[1.0, bad]]])


def _dedup_oracle(flat):
    """The first occurrence, in index order, of each row under ``==``, sorted
    lexicographically (test oracle, plain Python)."""
    kept = []
    for row in flat.tolist():
        if row not in kept:
            kept.append(row)
    return np.array(sorted(kept)).reshape(-1, flat.shape[1])


def _assert_same_rows(got, want):
    """Equal values and equal signs of zero."""
    np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(np.signbit(got), np.signbit(want))


def _dedup_members(stack):
    """The rows ``_dedup_stack`` keeps for each member of ``stack``, with its
    group contract checked: every member sits in one group, the members that
    lost no row share one, and every other member is alone."""
    kept = [None] * stack.shape[0]
    full = []
    for members, rows in _dedup_stack(stack):
        assert rows.shape[0] == members.size
        if rows.shape[1] == stack.shape[1]:
            full.append(members)
        else:
            assert members.size == 1
        for i, member_rows in zip(members.tolist(), rows):
            assert kept[i] is None
            kept[i] = member_rows
    assert len(full) <= 1 and all(rows is not None for rows in kept)
    return kept


class TestDedupRows:
    def _check(self, flat):
        got, = _dedup_members(flat[None])
        _assert_same_rows(got, _dedup_oracle(flat))
        return got

    def _check_stack(self, stack):
        for got, flat in zip(_dedup_members(stack), stack):
            _assert_same_rows(got, _dedup_oracle(flat))

    def test_matches_pairwise_oracle(self):
        rng = np.random.default_rng(21)
        for _ in range(40):
            g, k = int(rng.integers(1, 6)), int(rng.integers(1, 60))
            width = int(rng.integers(1, 10))
            base = rng.uniform(-1.0, 1.0, size=(g, k, width))
            # Exact repeats, rows with permuted coordinates and rows a few
            # ulps away, shuffled within each member.
            pick = rng.integers(0, k, size=(g, k))
            copies = np.take_along_axis(base, pick[..., None], axis=1)
            copies[:, ::3] = copies[:, ::3, rng.permutation(width)]
            copies[:, 1::3] = np.nextafter(copies[:, 1::3], 2.0)
            stack = np.concatenate([base, copies], axis=1)
            stack = np.take_along_axis(
                stack, rng.permuted(np.tile(np.arange(2 * k), (g, 1)), axis=1)
                [..., None], axis=1)
            self._check_stack(stack)

    def test_matches_pairwise_oracle_on_structured_rows(self):
        # Permuted and integer rows share coordinate sums and repeat.
        rng = np.random.default_rng(22)
        rows = np.array([rng.permutation([0.0, 1.0, 2.0, 3.0]) for _ in range(60)])
        assert self._check(rows).shape[0] < 24
        self._check(rows + 0.4 * rng.uniform(size=rows.shape))
        self._check(np.round(rng.uniform(0, 3, size=(200, 3))))

    def test_separated_rows_are_all_kept(self):
        rng = np.random.default_rng(24)
        flat = rng.uniform(0.0, 1.0, size=(500, 4))
        (members, rows), = _dedup_stack(flat[None])
        np.testing.assert_array_equal(members, [0])
        np.testing.assert_array_equal(rows[0], flat[np.lexsort(flat.T[::-1])])

    def test_one_near_pair_among_separated_rows(self):
        # A row within the membership tolerance of another is a distinct
        # row; only its exact copy is dropped.
        rng = np.random.default_rng(25)
        flat = rng.uniform(0.0, 1.0, size=(502, 4))
        tol = dedup_tolerance(flat)
        flat[321] = flat[42] + rng.uniform(0.1, 0.9, size=4) * tol
        flat[400] = flat[42]
        assert self._check(flat).shape[0] == 501

    def test_pairs_exactly_tol_apart(self):
        rng = np.random.default_rng(29)
        tol = 2.0 ** -20
        for _ in range(50):
            flat = rng.integers(0, 2 ** 10, size=(20, 3)) * 2.0 ** -10
            flat[7] = flat[3] + tol
            assert any(np.array_equal(flat[7], r) for r in self._check(flat))

    def test_single_column_rows(self):
        rng = np.random.default_rng(27)
        col = rng.uniform(0.0, 1.0, size=(400, 1))
        self._check(col)
        tied = np.concatenate([col, col[:10], np.nextafter(col[10:20], 2.0)])
        assert self._check(tied[rng.permutation(420)]).shape[0] == 410

    def test_rows_near_float_max(self):
        rng = np.random.default_rng(28)
        flat = rng.uniform(0.5, 1.7, size=(40, 3)) * 1e308
        flat[30] = flat[4]
        flat[31] = np.nextafter(flat[5], 0.0)
        assert self._check(flat).shape[0] == 39
        assert len(_row_set(flat)) == 39
        assert ExplicitSet(flat.reshape(40, 3, 1)).size == 39

    @pytest.mark.parametrize("first", [0.0, -0.0])
    def test_signed_zero_ties_keep_the_first_occurrence(self, first):
        second = -first
        flat = np.array([[1.0, first], [0.5, 2.0], [1.0, second], [first, 3.0],
                         [second, 3.0]])
        want = np.array([[first, 3.0], [0.5, 2.0], [1.0, first]])
        _assert_same_rows(self._check(flat), want)
        _assert_same_rows(_row_set(flat), want)
        _assert_same_rows(ExplicitSet(flat[:, None]).matrices[:, 0], want)

    def test_some_members_lose_rows(self):
        rng = np.random.default_rng(30)
        stack = rng.uniform(0.1, 2.0, size=(6, 4, 3))
        stack[1, 3] = stack[1, 0]
        stack[4, 2] = stack[4, 1] = stack[4, 0]
        self._check_stack(stack)
        groups = [(m.tolist(), rows.shape) for m, rows in _dedup_stack(stack)]
        assert groups == [([0, 2, 3, 5], (4, 4, 3)), ([1], (1, 3, 3)),
                          ([4], (1, 2, 3))]
        s = IruSet(list(stack))
        assert [len(rs) for rs in s.row_sets] == [4, 3, 4, 4, 2, 4]
        assert [(p.tolist(), rows.shape) for p, rows in s.groups] == groups
        w = rng.uniform(size=3)
        table = s.row_images(w, fill=-1.0)
        choice = [3, 2, 0, 1, 1, 3]
        for i, rs in enumerate(s.row_sets):
            want = _dedup_oracle(stack[i])
            np.testing.assert_array_equal(rs, want)
            assert not rs.flags.writeable
            assert any(np.shares_memory(rs, rows) for _, rows in s.groups)
            np.testing.assert_array_equal(table[i, :len(rs)], want @ w)
            assert (table[i, len(rs):] == -1.0).all()
        np.testing.assert_array_equal(
            s.assemble(choice),
            [_dedup_oracle(stack[i])[c] for i, c in enumerate(choice)])


@pytest.mark.parametrize("t", [1e-12, 2.0 ** -40, 1e-6, 1.0, 1e6, 2.0 ** 40, 1e12])
def test_dedup_is_scale_invariant(t):
    # Exact dedup keeps every distinct row at any magnitude, and the scaled
    # rows' order (positive t keeps it).
    rows = np.random.default_rng(0).uniform(0.1, 2, (5, 3))
    rows = np.concatenate([rows, rows[[1, 3]]])
    mats = np.random.default_rng(1).uniform(0.1, 2, (6, 2, 2))
    mats = np.concatenate([mats, mats[:2]])
    scaled = t * rows
    assert len(_row_set(scaled)) == len(_row_set(rows)) == 5
    np.testing.assert_array_equal(_row_set(scaled), _dedup_oracle(scaled))
    np.testing.assert_array_equal(_row_set(scaled), t * _row_set(rows))
    assert IruSet([scaled, t * rows[:4]]).cardinality == 20
    assert ExplicitSet(t * mats).size == ExplicitSet(mats).size == 6


def test_rounding_twins_are_distinct_members_yet_match():
    # 0.1 + 0.2 != 0.3 in floats: deduplication is exact and keeps both,
    # while membership matches within dedup_tolerance.
    s = ExplicitSet([[[0.1 + 0.2]], [[0.3]]])
    assert s.size == 2
    assert contains_matrix(s, [[0.3]]) is not None
    assert contains_matrix(ExplicitSet([[[0.1 + 0.2]]]), [[0.3]]) == 0
    assert set_equal(s, ExplicitSet([[[0.3]]]))
    assert not set_equal(s, ExplicitSet([[[0.3 + 1e-9]]]))


class TestIruEnumerate:
    def test_singletons(self):
        s = IruSet([[[1.0, 2.0]], [[3.0, 4.0]]])
        out = iru_enumerate(s)
        assert out.size == 1
        np.testing.assert_array_equal(out.matrices[0], [[1.0, 2.0], [3.0, 4.0]])

    def test_two_by_two(self):
        s = IruSet([[[1.0, 0.0], [0.0, 1.0]], [[2.0, 0.0], [0.0, 2.0]]])
        assert iru_enumerate(s).size == 4

    def test_count_and_membership(self):
        rng = np.random.default_rng(0)
        s = _random_iru(rng, 3, (2, 3, 2))
        out = iru_enumerate(s)
        assert out.size == 12
        for mat in out:
            for i, rs in enumerate(s.row_sets):
                assert np.abs(rs - mat[i]).max(axis=1).min() == 0.0

    def test_guard(self):
        rng = np.random.default_rng(1)
        s = _random_iru(rng, 3, (3, 3, 3))
        with pytest.raises(GuardExceededError) as err:
            iru_enumerate(s, size_guard=10)
        assert err.value.required == 27


class TestMinkowskiSum:
    def test_zero_identity_element(self):
        rng = np.random.default_rng(2)
        a = _random_explicit(rng, 2, 3)
        zero = ExplicitSet(np.zeros((1, 2, 2)))
        assert set_equal(minkowski_sum(a, zero), a)

    def test_hand_sum(self):
        out = minkowski_sum(ExplicitSet([NILP_A]), ExplicitSet([NILP_B]))
        assert out.size == 1
        np.testing.assert_array_equal(out.matrices[0], [[0.0, 2.0], [2.0, 0.0]])

    def test_commutative(self):
        rng = np.random.default_rng(3)
        a, b = _random_explicit(rng, 2, 3), _random_explicit(rng, 2, 2)
        assert set_equal(minkowski_sum(a, b), minkowski_sum(b, a))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            minkowski_sum(ExplicitSet([NILP_A]), ExplicitSet(np.ones((1, 3, 3))))


@pytest.mark.parametrize("op, a, b", [
    (minkowski_sum, [[1e308, 1e307], [1e307, 1e308]], None),
    (minkowski_product, np.full((2, 2), 1e200), None),
    # Terms of opposite sign that both overflow leave a NaN entry.
    (minkowski_product, [[1e200, -1e200], [1.0, 1.0]], [[1e200, 1.0], [1e200, 1.0]]),
], ids=["sum", "product", "product-nan"])
def test_minkowski_beyond_float_range(op, a, b):
    # Finite operands whose combinations overflow: one error naming the
    # float range, not the finiteness check of the input, and no warning.
    a = ExplicitSet([a])
    b = a if b is None else ExplicitSet([b])
    name = "sum" if op is minkowski_sum else "product"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError,
                           match=f"^the Minkowski {name} exceeds the float range$"):
            op(a, b)


class TestMinkowskiProduct:
    def test_identity_element(self):
        rng = np.random.default_rng(4)
        a = _random_explicit(rng, 2, 3)
        ident = ExplicitSet(np.eye(2)[None])
        assert set_equal(minkowski_product(a, ident), a)
        assert set_equal(minkowski_product(ident, a), a)

    def test_hand_product(self):
        out = minkowski_product(ExplicitSet([NILP_A]), ExplicitSet([NILP_B]))
        np.testing.assert_array_equal(out.matrices[0], [[4.0, 0.0], [0.0, 0.0]])

    def test_associative(self):
        rng = np.random.default_rng(5)
        a = _random_explicit(rng, 2, 2)
        b = _random_explicit(rng, 2, 3)
        c = _random_explicit(rng, 2, 2)
        left = minkowski_product(minkowski_product(a, b), c)
        right = minkowski_product(a, minkowski_product(b, c))
        assert set_equal(left, right, tol=1e-10)


class TestSemiringLaws:
    def test_addition_associative_commutative(self):
        rng = np.random.default_rng(6)
        a, b, c = (_random_explicit(rng, 2, k) for k in (2, 3, 2))
        assert set_equal(
            minkowski_sum(minkowski_sum(a, b), c),
            minkowski_sum(a, minkowski_sum(b, c)),
        )

    def test_subdistributivity_membership(self):
        # Every element of a(b + c) equals AB + AC for a single A, hence
        # lies in ab + ac; the reverse containment can fail.
        rng = np.random.default_rng(7)
        a, b, c = (_random_explicit(rng, 2, 2) for _ in range(3))
        left = minkowski_product(a, minkowski_sum(b, c))
        right = minkowski_sum(
            minkowski_product(a, b), minkowski_product(a, c)
        )
        for mat in left:
            assert np.abs(right.matrices - mat).max(axis=(1, 2)).min() <= 1e-10


class TestScaleSet:
    def test_unit_scale(self):
        rng = np.random.default_rng(8)
        a = _random_explicit(rng, 2, 3)
        assert set_equal(scale_set(1.0, a), a)

    def test_iru_structure_preserved(self):
        rng = np.random.default_rng(9)
        s = _random_iru(rng, 2, (2, 2))
        doubled = scale_set(2.0, s)
        assert isinstance(doubled, IruSet)
        for rs, rs2 in zip(s.row_sets, doubled.row_sets):
            np.testing.assert_allclose(rs2, 2.0 * rs)

    def test_radius_homogeneity(self):
        rng = np.random.default_rng(10)
        s = iru_enumerate(_random_iru(rng, 2, (2, 2)))
        base, _ = rho_extremal_exhaustive(s, "max")
        scaled, _ = rho_extremal_exhaustive(scale_set(3.0, s), "max")
        assert scaled == pytest.approx(3.0 * base, rel=1e-9)

    def test_rejects_nonpositive_factor(self):
        with pytest.raises(DomainError):
            scale_set(0.0, ExplicitSet([NILP_A]))


class TestExprExpand:
    def test_every_set_is_an_expression_leaf(self):
        rng = np.random.default_rng(18)
        leaves = (
            _random_iru(rng, 2, (2, 3)),
            OrderedChain([np.eye(2), 2 * np.eye(2), 3 * np.eye(2)]),
            ExplicitSet([NILP_A, NILP_B]),
        )
        assert [s.cardinality_bound() for s in leaves] == [6, 3, 2]
        for s in leaves:
            assert isinstance(s, SetExpr)
            assert s.cardinality_bound() == expr_expand(s).size
            assert Leaf(s) is s
        with pytest.raises(TypeError):
            Leaf(np.eye(2))

    def test_chain_with_repeated_members_matches_its_explicit_twin(self):
        mats = [np.eye(2), np.eye(2), 2 * np.eye(2), 2 * np.eye(2),
                2 * np.eye(2), 3 * np.eye(2)]
        chain = expr_expand(OrderedChain(mats))
        twin = expr_expand(ExplicitSet(mats))
        assert chain.size == twin.size == 3
        np.testing.assert_array_equal(chain.matrices, twin.matrices)
        one = expr_expand(OrderedChain([[[1.0]], [[1.0]], [[2.0]]]))
        np.testing.assert_array_equal(one.matrices, [[[1.0]], [[2.0]]])

    def test_leaf(self):
        rng = np.random.default_rng(14)
        s = _random_iru(rng, 2, (2, 2))
        assert set_equal(expr_expand(Leaf(s)), iru_enumerate(s))

    def test_scaled_identity(self):
        out = expr_expand(Scale(2.0, ExplicitSet(np.eye(3)[None])))
        assert out.size == 1
        np.testing.assert_array_equal(out.matrices[0], 2.0 * np.eye(3))

    def test_quadratic_expression_against_nested_loops(self):
        rng = np.random.default_rng(15)
        s = iru_enumerate(_random_iru(rng, 2, (2, 1)))
        p = 0.7
        expr = Sum((Product((Leaf(s), Leaf(s))), Scale(p, Leaf(s))))
        out = expr_expand(expr)
        want = [
            a1 @ a2 + p * a3
            for a1 in s.matrices for a2 in s.matrices for a3 in s.matrices
        ]
        assert out.size <= 8
        assert set_equal(out, ExplicitSet(np.array(want)), tol=1e-10)

    def test_bare_sets_are_one_leaf_expressions(self):
        rng = np.random.default_rng(17)
        s = _random_iru(rng, 2, (2, 3))
        chain = OrderedChain([np.eye(2), 2 * np.eye(2)])
        explicit = ExplicitSet([NILP_A, NILP_B])
        for base in (s, chain, explicit):
            np.testing.assert_array_equal(
                expr_expand(base).matrices, expr_expand(Leaf(base)).matrices
            )
        assert expr_expand(explicit) is explicit
        with pytest.raises(GuardExceededError):
            expr_expand(s, size_guard=5)
        with pytest.raises(TypeError):
            expr_expand([[1.0]])

    def test_zero_and_identity_absorb(self):
        rng = np.random.default_rng(16)
        s = iru_enumerate(_random_iru(rng, 2, (2, 2)))
        zero, unit = ExplicitSet(np.zeros((1, 2, 2))), ExplicitSet(np.eye(2)[None])
        assert set_equal(expr_expand(Sum((Leaf(s), zero))), s)
        assert set_equal(expr_expand(Product((Leaf(s), unit))), s)

    def test_guard_reports_requirement(self):
        rng = np.random.default_rng(17)
        s = Leaf(_random_iru(rng, 2, (3, 3)))
        expr = Product((s, s, s))
        with pytest.raises(GuardExceededError) as err:
            expr_expand(expr, size_guard=100)
        assert err.value.required == 9 ** 3

    def test_dimension_validation(self):
        square = ExplicitSet(np.zeros((1, 2, 2)))
        wide = ExplicitSet(np.zeros((1, 2, 3)))
        with pytest.raises(DimensionMismatchError):
            Sum((square, ExplicitSet(np.zeros((1, 3, 3)))))
        with pytest.raises(DimensionMismatchError):
            Product((wide, wide))
        for node in (Sum, Product):
            with pytest.raises(DimensionMismatchError,
                               match=f"^{node.__name__} needs at least two children$"):
                node([square])
        with pytest.raises(DomainError):
            Scale(-1.0, ExplicitSet(np.eye(2)[None]))

    @pytest.mark.parametrize("leaf, shape", [
        (ExplicitSet, (2, 0, 0)),
        (ExplicitSet, (2, 2, 0)),
        (ExplicitSet, (2, 0, 3)),
        (OrderedChain, (2, 0, 3)),
        (OrderedChain, (2, 3, 0)),
        (ExplicitSet, (0, 2, 2)),
    ])
    def test_stacks_of_empty_matrices_are_refused(self, leaf, shape):
        # As a row set refuses empty rows: a member needs a row and a column.
        with pytest.raises(DimensionMismatchError,
                           match=f"^{leaf.__name__} needs a nonempty list"):
            leaf(np.zeros(shape))


class TestEpsilonLift:
    def test_iru_becomes_positive(self):
        s = IruSet([[[0.0, 1.0], [1.0, 0.0]], [[0.0, 0.0]]])
        lifted = epsilon_lift(s, 1e-3)
        assert lifted.is_positive
        # Every member moves by exactly eps in the entrywise max metric.
        h = hausdorff_distance(iru_enumerate(lifted), iru_enumerate(s))
        assert h.distance == pytest.approx(1e-3, abs=1e-15)

    def test_chain_strictness_restored(self):
        a = np.ones((2, 2))
        chain = OrderedChain([a, a, a])  # equal consecutive members
        lifted = epsilon_lift(chain, 1e-4)
        assert lifted.is_strictly_increasing
        assert lifted.is_positive

    def test_hausdorff_bound_and_monotone_vanishing(self):
        rng = np.random.default_rng(18)
        base = OrderedChain(np.cumsum(rng.uniform(0, 1, (3, 2, 2)), axis=0))
        previous = np.inf
        eps = 0.1
        for _ in range(6):
            lifted = epsilon_lift(base, eps)
            h = hausdorff_distance(
                ExplicitSet(lifted.matrices, dedup=False),
                ExplicitSet(base.matrices, dedup=False),
            ).distance
            assert h <= eps * base.size + 1e-12
            assert h < previous
            previous = h
            eps /= 2

    def test_rejects_nonpositive_eps(self):
        with pytest.raises(DomainError):
            epsilon_lift(IruSet([[[1.0]]]), 0.0)


class TestHausdorff:
    def test_identity_of_indiscernibles(self):
        rng = np.random.default_rng(19)
        a = _random_explicit(rng, 2, 4)
        assert hausdorff_distance(a, a).distance == 0.0

    def test_symmetry(self):
        rng = np.random.default_rng(20)
        a, b = _random_explicit(rng, 2, 3), _random_explicit(rng, 2, 4)
        assert hausdorff_distance(a, b).distance == pytest.approx(
            hausdorff_distance(b, a).distance
        )

    def test_triangle_inequality(self):
        rng = np.random.default_rng(21)
        for _ in range(10):
            a, b, c = (_random_explicit(rng, 2, 3) for _ in range(3))
            hab = hausdorff_distance(a, b).distance
            hbc = hausdorff_distance(b, c).distance
            hac = hausdorff_distance(a, c).distance
            assert hac <= hab + hbc + 1e-12

    def test_witness_realizes_distance(self):
        rng = np.random.default_rng(22)
        a, b = _random_explicit(rng, 2, 3), _random_explicit(rng, 2, 4)
        rep = hausdorff_distance(a, b)
        i, d = rep.witness_a_to_b
        nearest = np.abs(b.matrices - a.matrices[i]).max(axis=(1, 2)).min()
        assert nearest == pytest.approx(d)
        assert rep.distance == max(rep.witness_a_to_b[1], rep.witness_b_to_a[1])

    @pytest.mark.parametrize("batch", [None, 7])
    def test_matches_unchunked_formula(self, monkeypatch, batch):
        # Small integer entries tie many nearest distances: the blocked scan
        # gives the same distance and the same first witnesses.
        import hourglass.sets as sets

        if batch is not None:
            monkeypatch.setattr(sets, "BATCH_ENTRIES", batch)  # one row a block
        rng = np.random.default_rng(25)
        for trial in range(30):
            n, m = (int(x) for x in rng.integers(1, 4, size=2))
            ka, kb = (int(x) for x in rng.integers(1, 300, size=2))
            draw = ((lambda k: rng.integers(0, 3, size=(k, n, m))) if trial % 2
                    else (lambda k: rng.uniform(0.0, 2.0, size=(k, n, m))))
            a, b = ExplicitSet(draw(ka)), ExplicitSet(draw(kb))
            dists = np.abs(a.matrices[:, None] - b.matrices[None, :]).max(
                axis=(2, 3))
            near_a, near_b = dists.min(axis=1), dists.min(axis=0)
            ia, ib = int(near_a.argmax()), int(near_b.argmax())
            rep = hausdorff_distance(a, b)
            assert rep.witness_a_to_b == (ia, near_a[ia])
            assert rep.witness_b_to_a == (ib, near_b[ib])
            assert rep.distance == max(near_a[ia], near_b[ib])

    def test_memory_bounded(self):
        rng = np.random.default_rng(26)
        a, b = (ExplicitSet(rng.uniform(0.0, 1.0, size=(1500, 3, 3)))
                for _ in range(2))
        tracemalloc.start()
        try:
            hausdorff_distance(a, b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32e6  # the full difference array is 1500*1500*9 floats


@any_family
def test_set_comparisons_take_any_family(make):
    s, other = make(np.random.default_rng(17)), make(np.random.default_rng(18))
    flat = expr_expand(s)
    assert hausdorff_distance(s, other) == hausdorff_distance(
        flat, expr_expand(other))
    assert hausdorff_distance(s, flat).distance == 0.0
    assert set_equal(s, flat) and set_equal(flat, s)
    assert contains_matrix(s, flat.matrices[-1]) == flat.size - 1


class TestConvexSample:
    def test_single_element_is_member(self):
        rng = np.random.default_rng(23)
        s = _random_explicit(rng, 2, 4)
        m = convex_sample(s, 1, seed=5)
        assert np.abs(s.matrices - m).max(axis=(1, 2)).min() <= 1e-14

    def test_deterministic_for_seed(self):
        rng = np.random.default_rng(24)
        s = _random_explicit(rng, 2, 4)
        np.testing.assert_array_equal(
            convex_sample(s, 3, seed=7), convex_sample(s, 3, seed=7)
        )

    def test_stays_in_entrywise_envelope(self):
        rng = np.random.default_rng(25)
        s = _random_explicit(rng, 3, 5)
        lo = s.matrices.min(axis=0)
        hi = s.matrices.max(axis=0)
        for seed in range(10):
            m = convex_sample(s, 4, seed=seed)
            assert np.all(m >= lo - 1e-12) and np.all(m <= hi + 1e-12)

    def test_midpoint_fixture(self):
        # The equal-weight mixture of the nilpotent pair is the exchange
        # matrix, whose radius is 1 while both members have radius 0.
        np.testing.assert_array_equal(
            0.5 * (NILP_A + NILP_B), [[0.0, 1.0], [1.0, 0.0]]
        )


class TestTransposeSet:
    def test_involution_explicit(self):
        rng = np.random.default_rng(26)
        a = _random_explicit(rng, 2, 3)
        back = transpose_set(transpose_set(a))
        assert set_equal(a, back)

    def test_involution_iru(self):
        rng = np.random.default_rng(27)
        s = _random_iru(rng, 2, (2, 2))
        np.testing.assert_array_equal(
            transpose_set(transpose_set(s)).matrices, iru_enumerate(s).matrices
        )

    def test_column_enumeration_matches(self):
        rng = np.random.default_rng(28)
        s = _random_iru(rng, 2, (2, 3))
        cols = transpose_set(s)
        rows = iru_enumerate(s)
        np.testing.assert_array_equal(
            cols.matrices, rows.matrices.transpose(0, 2, 1)
        )

    def test_radius_invariance(self):
        rng = np.random.default_rng(29)
        s = iru_enumerate(_random_iru(rng, 3, (2, 2, 2)))
        base, _ = rho_extremal_exhaustive(s, "max")
        flipped, _ = rho_extremal_exhaustive(transpose_set(s), "max")
        assert flipped == pytest.approx(base, abs=1e-9)

    def test_expression_under_guard(self):
        rng = np.random.default_rng(30)
        expr = Sum((Leaf(_random_iru(rng, 2, (2, 2))),
                    Leaf(OrderedChain([np.eye(2), 2 * np.eye(2)]))))
        np.testing.assert_array_equal(
            transpose_set(expr).matrices,
            expr_expand(expr).matrices.transpose(0, 2, 1),
        )
        with pytest.raises(GuardExceededError):
            transpose_set(_random_iru(rng, 17, (2,) * 17))

    def test_singleton(self):
        out = transpose_set(ExplicitSet([NILP_A]))
        np.testing.assert_array_equal(out.matrices[0], NILP_A.T)
