"""Structured matrix sets and their Minkowski algebra.

Three concrete set representations are provided:

* ``IruSet``: a product-structured family where row i of the matrix is
  chosen independently from a finite set of admissible rows, its row sets
  held as stacks of equal-size row sets, built and scanned one per pass;
* ``OrderedChain``: a finite list of nonnegative matrices ordered
  entrywise;
* ``ExplicitSet``: a plain list of matrices, exactly deduplicated.

All three are ``SetExpr`` nodes: the leaves of expression trees (``Sum``,
``Product``, ``Scale``) with Minkowski semantics: the sum of two sets is
the set of all pairwise sums, the product the set of all pairwise
products.  The semiring's zero and one, {0} and {I}, are one-member
explicit sets.  ``expr_expand`` materializes an expression into an
``ExplicitSet`` under a cardinality guard.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property, reduce

import numpy as np

from .linalg import (
    BATCH_ENTRIES,
    DimensionMismatchError,
    DomainError,
    as_matrix,
)

DEFAULT_SIZE_GUARD = 100_000


class GuardExceededError(RuntimeError):
    """Materialization would exceed the size guard."""

    def __init__(self, required: int, guard: int):
        super().__init__(
            f"materialization needs {required} matrices, guard is {guard}"
        )
        self.required = required
        self.guard = guard


def _magnitude(arr: np.ndarray, axis=None):
    """Largest entry magnitude of ``arr`` (per member: reduced over ``axis``).
    A NaN entry makes it NaN and an infinite one inf; it needs no temporary
    the size of ``arr``, as ``np.abs`` would."""
    return np.maximum(arr.max(axis, initial=0.0), -arr.min(axis, initial=0.0))


def dedup_tolerance(data, axis=None):
    """Membership tolerance of ``contains_matrix``, ``set_equal`` and the IRU
    row check of ``certify_extremal``: 1e-12 times the largest entry
    magnitude (per member: reduced over ``axis``).  Dedup itself is exact."""
    return 1e-12 * _magnitude(np.asarray(data, dtype=float), axis)


def _dedup_stack(stack: np.ndarray) -> list:
    """Each member of a (g, r, d) stack without repeated rows and sorted
    lexicographically, as ``(members, rows)`` groups.

    One stable ``lexsort`` keyed by (member, columns) puts every later
    occurrence of a row (under ``==``, so 0.0 matches -0.0) right after its
    first one, and it is dropped.  Members that lost no row share one group;
    every other member is its own group.
    """
    g, r, d = stack.shape
    flat = stack.reshape(-1, d)
    order = np.lexsort([*flat.T[::-1], np.arange(g * r) // r])
    rows = flat[order].reshape(g, r, d)
    fresh = np.ones((g, r), dtype=bool)
    fresh[:, 1:] = (rows[:, 1:] != rows[:, :-1]).any(axis=2)
    if (clear := fresh.all(axis=1)).all():
        return [(np.arange(g), rows)]
    groups = [(np.flatnonzero(clear), rows[clear])] + [
        (np.array([i]), rows[i, fresh[i]][None]) for i in np.flatnonzero(~clear)]
    return [group for group in groups if group[0].size]


class SetExpr:
    """Expression tree node with Minkowski semantics; the three set classes
    are its leaves."""

    @property
    def shape(self) -> tuple[int, int]:
        raise NotImplementedError

    def cardinality_bound(self) -> int:
        """Upper bound on the materialized set size, before deduplication."""
        raise NotImplementedError


class IruSet(SetExpr):
    """Independent-row-uncertainty family: row i drawn from ``row_sets[i]``.

    The represented set contains every matrix assembled by one choice per
    row position, hence exactly prod(|row_sets[i]|) matrices.  The rows
    live in ``groups``, ``(positions, rows)`` stacks of equal-size row sets
    (``rows[k]`` is row set ``positions[k]``); ``row_sets`` is the tuple of
    their read-only 2-D views, deduplicated and sorted.
    """

    def __init__(self, row_sets):
        # One pass per shape; errors: malformed, non-finite, unequal lengths.
        by_shape, self.groups = {}, []
        for i, rs in enumerate(row_sets):
            arr = np.asarray(rs, dtype=float)
            if arr.ndim != 2 or 0 in arr.shape:
                raise DimensionMismatchError(
                    f"a row set needs nonempty equal-length rows, got {arr.shape}"
                )
            by_shape.setdefault(arr.shape, []).append((i, arr))
        if not by_shape:
            raise DimensionMismatchError("IruSet needs at least one row set")
        for members in by_shape.values():
            positions, stack = map(np.array, zip(*members))
            if not math.isfinite(_magnitude(stack)):
                raise DomainError("row set entries must be finite")
            self.groups += [(positions[at], rows)
                            for at, rows in _dedup_stack(stack)]
        if len(dims := {rows.shape[2] for _, rows in self.groups}) != 1:
            raise DimensionMismatchError(
                f"all row sets must share one row length, got {sorted(dims)}"
            )
        views = {}
        for positions, rows in self.groups:
            rows.setflags(write=False)  # before its views are taken
            views.update(zip(positions.tolist(), rows))
        self.row_sets = tuple(views[i] for i in range(len(views)))

    @property
    def n_rows(self) -> int:
        return len(self.row_sets)

    @property
    def n_cols(self) -> int:
        return self.row_sets[0].shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return (self.n_rows, self.n_cols)

    @property
    def cardinality(self) -> int:
        return math.prod(map(len, self.row_sets))

    def cardinality_bound(self) -> int:
        return self.cardinality

    @cached_property  # rows are read-only
    def is_nonnegative(self) -> bool:
        return all(bool(np.all(rows >= 0)) for _, rows in self.groups)

    @cached_property
    def is_positive(self) -> bool:
        return all(bool(np.all(rows > 0)) for _, rows in self.groups)

    @cached_property
    def slots(self) -> np.ndarray:
        """The ``row_images`` entries that hold a row: row set i fills row i."""
        sizes = np.array([len(rs) for rs in self.row_sets])
        return np.arange(sizes.max()) < sizes[:, None]

    def row_images(self, w: np.ndarray, fill: float = 0.0) -> np.ndarray:
        """Images ``a . w`` of the admissible rows in their ``slots``, else
        ``fill``: one ``rows @ w`` per group, each row set's product bit for
        bit."""
        table = np.full(self.slots.shape, fill)
        for positions, rows in self.groups:
            table[positions, :rows.shape[1]] = rows @ w
        return table

    def assemble(self, choice) -> np.ndarray:
        """Matrix picked by one row index per position, each checked."""
        if len(choice) != self.n_rows:
            raise DimensionMismatchError(
                f"choice length {len(choice)} != {self.n_rows} row positions"
            )
        for i, (j, rs) in enumerate(zip(choice, self.row_sets)):
            if not isinstance(j, (int, np.integer)) or not 0 <= j < len(rs):
                raise DomainError(f"choice[{i}] = {j!r} names no row of row set {i}")
        choice, out = np.asarray(choice), np.empty(self.shape)
        for positions, rows in self.groups:
            out[positions] = rows[np.arange(positions.size), choice[positions]]
        return out

    def __repr__(self):
        sizes = "x".join(str(len(rs)) for rs in self.row_sets)
        return f"IruSet({self.n_rows}x{self.n_cols}, row set sizes {sizes})"


class _MemberStack(SetExpr):
    """A leaf holding a nonempty read-only stack of equal-size matrices."""

    def __init__(self, matrices: np.ndarray):
        self.matrices = matrices
        self.matrices.setflags(write=False)

    def _checked(self, matrices) -> np.ndarray:
        """``matrices`` as a checked float stack."""
        arr = np.asarray(matrices, dtype=float)
        if arr.ndim != 3 or 0 in arr.shape:
            raise DimensionMismatchError(
                f"{type(self).__name__} needs a nonempty list of nonempty "
                f"matrices, got shape {arr.shape}"
            )
        if not math.isfinite(_magnitude(arr)):
            raise DomainError(f"{type(self).__name__} entries must be finite")
        return arr

    @property
    def size(self) -> int:
        return self.matrices.shape[0]

    def cardinality_bound(self) -> int:
        return self.size

    @property
    def shape(self) -> tuple[int, int]:
        return self.matrices.shape[1:]

    @cached_property  # members are read-only
    def is_nonnegative(self) -> bool:
        return bool(np.all(self.matrices >= 0))

    @cached_property
    def is_positive(self) -> bool:
        return bool(np.all(self.matrices > 0))

    def __repr__(self):
        n, m = self.shape
        return f"{type(self).__name__}({self.size} matrices, {n}x{m})"


class OrderedChain(_MemberStack):
    """Entrywise-ordered finite list of nonnegative matrices."""

    def __init__(self, matrices):
        arr = self._checked(matrices)
        if np.any(arr < 0):
            raise DomainError("OrderedChain matrices must be nonnegative")
        if np.any(arr[1:] < arr[:-1]):
            raise DomainError(
                "OrderedChain matrices must be entrywise nondecreasing"
            )
        super().__init__(arr)

    @property
    def is_strictly_increasing(self) -> bool:
        return bool(np.all(self.matrices[1:] > self.matrices[:-1]))


class ExplicitSet(_MemberStack):
    """A finite set of equal-size matrices, exactly deduplicated and sorted
    (``dedup=False`` keeps the given ones in order)."""

    def __init__(self, matrices, dedup: bool = True):
        arr = self._checked(matrices)
        if dedup:
            k, n, m = arr.shape
            arr = _dedup_stack(arr.reshape(1, k, n * m))[0][1].reshape(-1, n, m)
        super().__init__(arr)

    def __iter__(self):
        return iter(self.matrices)


# The leaves of every expression tree: the generators of the class.
LEAVES = (IruSet, OrderedChain, ExplicitSet)


def as_explicit(s) -> ExplicitSet:
    """``s`` itself if it is an explicit set (whatever its size), else ``s``
    expanded under the default size guard."""
    return s if isinstance(s, ExplicitSet) else expr_expand(s)


def set_equal(a, b) -> bool:
    """Set equality within the larger ``dedup_tolerance`` of the two under
    the entrywise max metric; any family is taken, through ``as_explicit``."""
    if a.shape != b.shape:
        return False
    a, b = as_explicit(a), as_explicit(b)
    return hausdorff_distance(a, b).distance <= max(
        dedup_tolerance(a.matrices), dedup_tolerance(b.matrices))


def contains_matrix(s, m) -> int | None:
    """Index of the member of ``as_explicit(s)`` matching ``m`` within the
    membership tolerance ``dedup_tolerance``, if any."""
    s, m = as_explicit(s), as_matrix(m)
    if tuple(s.shape) != m.shape:
        return None
    dists = np.abs(s.matrices - m[None]).max(axis=(1, 2))
    i = int(dists.argmin())
    return i if dists[i] <= dedup_tolerance(s.matrices) else None


def iru_enumerate(s: IruSet, size_guard: int = DEFAULT_SIZE_GUARD) -> ExplicitSet:
    """Materialize an IRU family as the full Cartesian-product set.

    The result has exactly prod(|row_sets[i]|) members (no row set holds
    two equal rows, so distinct choices give distinct matrices); no further
    dedup pass runs.
    """
    total = s.cardinality
    if total > size_guard:
        raise GuardExceededError(total, size_guard)
    idx = np.unravel_index(np.arange(total), tuple(map(len, s.row_sets)))
    out = np.empty((total, s.n_rows, s.n_cols))
    for i, rs in enumerate(s.row_sets):
        out[:, i, :] = rs[idx[i]]
    return ExplicitSet(out, dedup=False)


def chain_enumerate(c: OrderedChain) -> ExplicitSet:
    """The members in order, each once: equal members of a nondecreasing
    chain are adjacent, so each one equal to its predecessor goes."""
    mats = c.matrices
    fresh = np.concatenate([[True], (mats[1:] != mats[:-1]).any(axis=(1, 2))])
    return ExplicitSet(mats[fresh], dedup=False)


def _minkowski_set(stack: np.ndarray, op: str) -> ExplicitSet:
    """``stack`` deduplicated; from finite sets it is finite unless it overflowed."""
    try:
        return ExplicitSet(stack)
    except DomainError:
        raise DomainError(f"the Minkowski {op} exceeds the float range") from None


def minkowski_sum(a: ExplicitSet, b: ExplicitSet) -> ExplicitSet:
    """All pairwise sums {A + B}, deduplicated."""
    if a.shape != b.shape:
        raise DimensionMismatchError(
            f"cannot add sets of shapes {a.shape} and {b.shape}"
        )
    n, m = a.shape
    with np.errstate(over="ignore"):  # reported by the finiteness check
        sums = (a.matrices[:, None] + b.matrices[None, :]).reshape(-1, n, m)
    return _minkowski_set(sums, "sum")


def minkowski_product(a: ExplicitSet, b: ExplicitSet) -> ExplicitSet:
    """All pairwise products {A B}, deduplicated."""
    if a.shape[1] != b.shape[0]:
        raise DimensionMismatchError(
            f"cannot multiply sets of shapes {a.shape} and {b.shape}"
        )
    prods = np.einsum("aij,bjk->abik", a.matrices, b.matrices)
    prods = prods.reshape(-1, a.shape[0], b.shape[1])
    return _minkowski_set(prods, "product")


def scale_set(t: float, s):
    """Multiply every member (or admissible row) by a positive scalar."""
    if not (np.isfinite(t) and t > 0):
        raise DomainError(f"scale factor must be positive and finite, got {t}")
    if isinstance(s, IruSet):
        return IruSet([t * rs for rs in s.row_sets])
    if isinstance(s, OrderedChain):
        return OrderedChain(t * s.matrices)
    if isinstance(s, ExplicitSet):
        return ExplicitSet(t * s.matrices, dedup=False)
    raise TypeError(f"cannot scale {type(s).__name__}")


def epsilon_lift(s, eps: float):
    """Push a nonnegative structured set into the strictly positive interior.

    IRU families gain ``eps`` on every admissible row entry (the structure
    is preserved).  Chains gain ``k * eps`` on the k-th matrix (1-based),
    which also restores strict ordering when consecutive members tie.  The
    lifted set converges to the original in Hausdorff distance as eps -> 0.
    """
    if not eps > 0:
        raise DomainError(f"eps must be positive, got {eps}")
    if isinstance(s, IruSet):
        if not s.is_nonnegative:
            raise DomainError("epsilon_lift expects a nonnegative IRU set")
        return IruSet([rs + eps for rs in s.row_sets])
    if isinstance(s, OrderedChain):
        shifts = eps * np.arange(1, s.size + 1)[:, None, None]
        return OrderedChain(s.matrices + shifts)
    raise TypeError(f"cannot lift {type(s).__name__}")


@dataclass(frozen=True)
class HausdorffReport:
    """Hausdorff distance between two finite matrix sets, with witnesses.

    Each witness is ``(index, nearest_distance)`` for the member realizing
    the directed supremum; the distance is the larger directed value.
    """

    distance: float
    witness_a_to_b: tuple[int, float]
    witness_b_to_a: tuple[int, float]


def hausdorff_distance(a, b) -> HausdorffReport:
    """Exact Hausdorff distance between two finite sets of matrices in the
    entrywise max norm; any family is taken, through ``as_explicit``, and
    witness indices refer to the explicit members."""
    if a.shape != b.shape:
        raise DimensionMismatchError(
            f"cannot compare sets of shapes {a.shape} and {b.shape}"
        )
    a, b = as_explicit(a), as_explicit(b)
    # Rows of A in blocks of about BATCH_ENTRIES difference entries, so
    # memory stays bounded; the B -> A side keeps a running minimum.
    step = max(1, BATCH_ENTRIES // b.matrices.size)
    nearest_ab = np.empty(a.size)
    nearest_ba = np.full(b.size, np.inf)
    for start in range(0, a.size, step):
        diff = np.abs(a.matrices[start:start + step, None] - b.matrices[None, :])
        dists = diff.max(axis=(2, 3))
        nearest_ab[start:start + step] = dists.min(axis=1)
        np.minimum(nearest_ba, dists.min(axis=0), out=nearest_ba)
    ia = int(nearest_ab.argmax())
    ib = int(nearest_ba.argmax())
    d_ab = float(nearest_ab[ia])
    d_ba = float(nearest_ba[ib])
    return HausdorffReport(
        distance=max(d_ab, d_ba),
        witness_a_to_b=(ia, d_ab),
        witness_b_to_a=(ib, d_ba),
    )


def _simplex_weights(rng: np.random.Generator, k: int) -> np.ndarray:
    # Sorted-uniform spacings: exactly uniform on the probability simplex.
    if k == 1:
        return np.ones(1)
    cuts = np.sort(rng.uniform(size=k - 1))
    return np.diff(np.concatenate(([0.0], cuts, [1.0])))


def convex_combination(rng: np.random.Generator, s: ExplicitSet,
                       k: int) -> np.ndarray:
    """One random convex combination of ``k`` members drawn from ``s``."""
    if k < 1:
        raise DomainError("k must be at least 1")
    idx = rng.integers(0, s.size, size=k)
    w = _simplex_weights(rng, k)
    return np.einsum("j,jnm->nm", w, s.matrices[idx])


def transpose_set(s) -> ExplicitSet:
    """Every member of a set or expression transposed, as an explicit set.

    ``s`` is expanded under the default size guard.  Column-uncertainty
    families are the transposes of row-independent ones; the radius is
    transposition invariant, so their extremal problems are solved on the
    row family.
    """
    members = expr_expand(s).matrices
    return ExplicitSet(members.transpose(0, 2, 1), dedup=False)


def Leaf(s):
    """``s`` itself, checked to be a set: a set is its own one-leaf tree."""
    if not isinstance(s, LEAVES):
        raise TypeError(f"unsupported leaf payload {type(s).__name__}")
    return s


@dataclass(frozen=True, eq=False)
class _Nary(SetExpr):
    """Minkowski sum or product of two or more children."""

    children: tuple[SetExpr, ...]

    def __post_init__(self):
        object.__setattr__(self, "children", tuple(self.children))
        if len(self.children) < 2:
            raise DimensionMismatchError(
                f"{type(self).__name__} needs at least two children"
            )
        self.shape  # each operation's shape rule, checked and cached once

    def cardinality_bound(self):
        return math.prod(c.cardinality_bound() for c in self.children)


class Sum(_Nary):
    @cached_property
    def shape(self):
        shapes = {c.shape for c in self.children}
        if len(shapes) != 1:
            raise DimensionMismatchError(
                f"Sum children must share one shape, got {sorted(shapes)}"
            )
        return self.children[0].shape


class Product(_Nary):
    @cached_property
    def shape(self):
        for left, right in itertools.pairwise(self.children):
            if left.shape[1] != right.shape[0]:
                raise DimensionMismatchError(
                    f"Product children {left.shape} and {right.shape} do not chain"
                )
        return (self.children[0].shape[0], self.children[-1].shape[1])


@dataclass(frozen=True, eq=False)
class Scale(SetExpr):
    factor: float
    child: SetExpr

    def __post_init__(self):
        if not (np.isfinite(self.factor) and self.factor > 0):
            raise DomainError(
                f"scale factor must be positive and finite, got {self.factor}"
            )

    @property
    def shape(self):
        return self.child.shape

    def cardinality_bound(self):
        return self.child.cardinality_bound()


def in_class(e) -> bool:
    """Whether ``e`` is in the paper's class: nonnegative IRU families, chains
    and one-member explicit sets under sums, products and scalings.  At each
    w >= 0 it has members with the smallest and largest image."""
    if isinstance(e, LEAVES):
        return e.is_nonnegative and not (isinstance(e, ExplicitSet)
                                         and e.size > 1)
    if isinstance(e, Scale):
        return in_class(e.child)
    return isinstance(e, _Nary) and all(map(in_class, e.children))


def expr_expand(e, size_guard: int = DEFAULT_SIZE_GUARD) -> ExplicitSet:
    """Materialize an expression tree into an explicit matrix set.

    The projected cardinality is estimated bottom-up first; if it exceeds
    ``size_guard`` nothing is materialized and the error reports the
    required size so the caller can restructure the expression.
    """
    if not isinstance(e, SetExpr):
        raise TypeError(f"unknown expression node {type(e).__name__}")
    bound = e.cardinality_bound()
    if bound > size_guard:
        raise GuardExceededError(bound, size_guard)
    return _materialize(e, size_guard)


def _materialize(e: SetExpr, guard: int) -> ExplicitSet:
    if isinstance(e, IruSet):
        return iru_enumerate(e, guard)
    if isinstance(e, OrderedChain):
        return chain_enumerate(e)
    if isinstance(e, ExplicitSet):
        return e
    if isinstance(e, Sum):
        parts = [_materialize(c, guard) for c in e.children]
        return reduce(minkowski_sum, parts)
    if isinstance(e, Product):
        parts = [_materialize(c, guard) for c in e.children]
        return reduce(minkowski_product, parts)
    if isinstance(e, Scale):
        return scale_set(e.factor, _materialize(e.child, guard))
    raise TypeError(f"unknown expression node {type(e).__name__}")
