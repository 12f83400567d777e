"""Structured matrix sets and their Minkowski algebra.

Three concrete set representations are provided:

* ``IruSet``: a product-structured family where row i of the matrix is
  chosen independently from a finite set of admissible rows;
* ``OrderedChain``: a finite list of nonnegative matrices ordered
  entrywise;
* ``ExplicitSet``: a plain deduplicated list of matrices.

On top of these sit expression trees (``Sum``, ``Product``, ``Scale``,
``ZeroElem``, ``IdentityElem`` over ``Leaf`` nodes) with Minkowski
semantics: the sum of two sets is the set of all pairwise sums, the
product the set of all pairwise products.  ``expr_expand`` materializes an
expression into an ``ExplicitSet`` under a cardinality guard.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .linalg import (
    DimensionMismatchError,
    DomainError,
    as_matrix,
)

DEFAULT_SIZE_GUARD = 100_000

_REFINE_LIMIT = 1024  # above this, dedup relies on grid quantization alone


class GuardExceededError(RuntimeError):
    """Materialization would exceed the size guard."""

    def __init__(self, required: int, guard: int):
        super().__init__(
            f"materialization needs {required} matrices, guard is {guard}"
        )
        self.required = required
        self.guard = guard


def dedup_tolerance(data) -> float:
    """Default merge tolerance, scaled to the largest entry magnitude."""
    arr = np.abs(np.asarray(data, dtype=float))
    scale = float(arr.max()) if arr.size else 0.0
    return 1e-12 * (1.0 + scale)


def _dedup_rows(flat: np.ndarray, tol: float) -> np.ndarray:
    """Drop near-duplicate rows of a 2-D array and sort lexicographically.

    Quantizing to a grid of pitch ``tol`` merges exact and near-exact
    duplicates in O(k log k); for small inputs a pairwise refinement pass
    also merges duplicates that straddle a grid line.
    """
    if flat.shape[0] > 1:
        keys = np.round(flat / tol)
        _, first = np.unique(keys, axis=0, return_index=True)
        flat = flat[np.sort(first)]
        if flat.shape[0] <= _REFINE_LIMIT:
            kept: list[int] = []
            for i in range(flat.shape[0]):
                row = flat[i]
                if all(np.abs(row - flat[j]).max() > tol for j in kept):
                    kept.append(i)
            flat = flat[kept]
    order = np.lexsort(flat.T[::-1])
    return flat[order]


class RowSet:
    """A finite nonempty set of admissible rows of a common length."""

    def __init__(self, rows, dedup_tol: float | None = None):
        arr = np.asarray(rows, dtype=float)
        if arr.ndim != 2 or arr.shape[0] == 0 or arr.shape[1] == 0:
            raise DimensionMismatchError(
                f"RowSet needs a nonempty list of equal-length rows, got {arr.shape}"
            )
        if not np.all(np.isfinite(arr)):
            raise DomainError("RowSet entries must be finite")
        tol = dedup_tolerance(arr) if dedup_tol is None else dedup_tol
        self.rows = _dedup_rows(arr, tol)
        self.rows.setflags(write=False)

    @property
    def dim(self) -> int:
        return self.rows.shape[1]

    @property
    def size(self) -> int:
        return self.rows.shape[0]

    @property
    def is_nonnegative(self) -> bool:
        return bool(np.all(self.rows >= 0))

    @property
    def is_positive(self) -> bool:
        return bool(np.all(self.rows > 0))

    def __repr__(self):
        return f"RowSet({self.size} rows of length {self.dim})"


class IruSet:
    """Independent-row-uncertainty family: row i drawn from ``row_sets[i]``.

    The represented set contains every matrix assembled by one choice per
    row position, hence exactly prod(|row_sets[i]|) matrices.
    """

    def __init__(self, row_sets):
        row_sets = [
            rs if isinstance(rs, RowSet) else RowSet(rs) for rs in row_sets
        ]
        if not row_sets:
            raise DimensionMismatchError("IruSet needs at least one row set")
        dims = {rs.dim for rs in row_sets}
        if len(dims) != 1:
            raise DimensionMismatchError(
                f"all row sets must share one row length, got {sorted(dims)}"
            )
        self.row_sets = row_sets

    @property
    def n_rows(self) -> int:
        return len(self.row_sets)

    @property
    def n_cols(self) -> int:
        return self.row_sets[0].dim

    @property
    def shape(self) -> tuple[int, int]:
        return (self.n_rows, self.n_cols)

    @property
    def cardinality(self) -> int:
        return math.prod(rs.size for rs in self.row_sets)

    @property
    def is_nonnegative(self) -> bool:
        return all(rs.is_nonnegative for rs in self.row_sets)

    @property
    def is_positive(self) -> bool:
        return all(rs.is_positive for rs in self.row_sets)

    def assemble(self, choice) -> np.ndarray:
        """Matrix picked by one row index per position."""
        if len(choice) != self.n_rows:
            raise DimensionMismatchError(
                f"choice length {len(choice)} != {self.n_rows} row positions"
            )
        return np.stack([self.row_sets[i].rows[j] for i, j in enumerate(choice)])

    def __repr__(self):
        sizes = "x".join(str(rs.size) for rs in self.row_sets)
        return f"IruSet({self.n_rows}x{self.n_cols}, row set sizes {sizes})"


class OrderedChain:
    """Entrywise-ordered finite list of nonnegative matrices."""

    def __init__(self, matrices):
        arr = np.asarray(matrices, dtype=float)
        if arr.ndim != 3 or arr.shape[0] == 0:
            raise DimensionMismatchError(
                f"OrderedChain needs a nonempty list of matrices, got shape {arr.shape}"
            )
        if not np.all(np.isfinite(arr)):
            raise DomainError("OrderedChain entries must be finite")
        if np.any(arr < 0):
            raise DomainError("OrderedChain matrices must be nonnegative")
        if np.any(arr[1:] < arr[:-1]):
            raise DomainError(
                "OrderedChain matrices must be entrywise nondecreasing"
            )
        self.matrices = arr
        self.matrices.setflags(write=False)

    @property
    def size(self) -> int:
        return self.matrices.shape[0]

    @property
    def shape(self) -> tuple[int, int]:
        return self.matrices.shape[1:]

    @property
    def is_positive(self) -> bool:
        return bool(np.all(self.matrices[0] > 0))

    @property
    def is_strictly_increasing(self) -> bool:
        return bool(np.all(self.matrices[1:] > self.matrices[:-1]))

    def __repr__(self):
        n, m = self.shape
        return f"OrderedChain({self.size} matrices, {n}x{m})"


class ExplicitSet:
    """A finite set of equal-size matrices, deduplicated within a tolerance."""

    def __init__(self, matrices, dedup_tol: float | None = None,
                 dedup: bool = True):
        arr = np.asarray(matrices, dtype=float)
        if arr.ndim != 3 or arr.shape[0] == 0:
            raise DimensionMismatchError(
                f"ExplicitSet needs a nonempty list of matrices, got shape {arr.shape}"
            )
        if not np.all(np.isfinite(arr)):
            raise DomainError("ExplicitSet entries must be finite")
        if dedup:
            tol = dedup_tolerance(arr) if dedup_tol is None else dedup_tol
            k, n, m = arr.shape
            arr = _dedup_rows(arr.reshape(k, n * m), tol).reshape(-1, n, m)
        self.matrices = arr
        self.matrices.setflags(write=False)

    @property
    def size(self) -> int:
        return self.matrices.shape[0]

    @property
    def shape(self) -> tuple[int, int]:
        return self.matrices.shape[1:]

    @property
    def is_nonnegative(self) -> bool:
        return bool(np.all(self.matrices >= 0))

    @property
    def is_positive(self) -> bool:
        return bool(np.all(self.matrices > 0))

    def __iter__(self):
        return iter(self.matrices)

    def __repr__(self):
        n, m = self.shape
        return f"ExplicitSet({self.size} matrices, {n}x{m})"


@dataclass(frozen=True, eq=False)
class ColumnSet:
    """Transpose of an IRU family: column j drawn independently per column.

    Tagged wrapper so the structure is not lost; transposing again returns
    the underlying row-structured family.
    """

    row_structured: IruSet

    @property
    def shape(self) -> tuple[int, int]:
        n, m = self.row_structured.shape
        return (m, n)

    @property
    def cardinality(self) -> int:
        return self.row_structured.cardinality

    def enumerate(self, size_guard: int = DEFAULT_SIZE_GUARD) -> ExplicitSet:
        base = iru_enumerate(self.row_structured, size_guard)
        return ExplicitSet(base.matrices.transpose(0, 2, 1), dedup=False)


def set_equal(a: ExplicitSet, b: ExplicitSet, tol: float | None = None) -> bool:
    """Set equality up to ``tol`` under the entrywise max metric."""
    if a.shape != b.shape:
        return False
    if tol is None:
        tol = max(dedup_tolerance(a.matrices), dedup_tolerance(b.matrices))
    diff = np.abs(a.matrices[:, None] - b.matrices[None, :]).max(axis=(2, 3))
    return bool(diff.min(axis=1).max() <= tol and diff.min(axis=0).max() <= tol)


def contains_matrix(s: ExplicitSet, m, tol: float | None = None) -> int | None:
    """Index of the member of ``s`` matching ``m`` within ``tol``, if any."""
    m = as_matrix(m)
    if tuple(s.shape) != m.shape:
        return None
    if tol is None:
        tol = dedup_tolerance(s.matrices)
    dists = np.abs(s.matrices - m[None]).max(axis=(1, 2))
    i = int(dists.argmin())
    return i if dists[i] <= tol else None


def iru_enumerate(s: IruSet, size_guard: int = DEFAULT_SIZE_GUARD) -> ExplicitSet:
    """Materialize an IRU family as the full Cartesian-product set.

    The result has exactly prod(|row_sets[i]|) members (row sets are
    deduplicated at construction, so distinct choices give distinct
    matrices); no further dedup pass runs.
    """
    total = s.cardinality
    if total > size_guard:
        raise GuardExceededError(total, size_guard)
    sizes = tuple(rs.size for rs in s.row_sets)
    idx = np.unravel_index(np.arange(total), sizes)
    out = np.empty((total, s.n_rows, s.n_cols))
    for i, rs in enumerate(s.row_sets):
        out[:, i, :] = rs.rows[idx[i]]
    return ExplicitSet(out, dedup=False)


def chain_enumerate(c: OrderedChain) -> ExplicitSet:
    return ExplicitSet(c.matrices, dedup=False)


def minkowski_sum(a: ExplicitSet, b: ExplicitSet,
                  dedup_tol: float | None = None) -> ExplicitSet:
    """All pairwise sums {A + B}, deduplicated."""
    if a.shape != b.shape:
        raise DimensionMismatchError(
            f"cannot add sets of shapes {a.shape} and {b.shape}"
        )
    n, m = a.shape
    sums = (a.matrices[:, None] + b.matrices[None, :]).reshape(-1, n, m)
    return ExplicitSet(sums, dedup_tol=dedup_tol)


def minkowski_product(a: ExplicitSet, b: ExplicitSet,
                      dedup_tol: float | None = None) -> ExplicitSet:
    """All pairwise products {A B}, deduplicated."""
    if a.shape[1] != b.shape[0]:
        raise DimensionMismatchError(
            f"cannot multiply sets of shapes {a.shape} and {b.shape}"
        )
    prods = np.einsum("aij,bjk->abik", a.matrices, b.matrices)
    prods = prods.reshape(-1, a.shape[0], b.shape[1])
    return ExplicitSet(prods, dedup_tol=dedup_tol)


def scale_set(t: float, s):
    """Multiply every member (or admissible row) by a positive scalar."""
    if not (np.isfinite(t) and t > 0):
        raise DomainError(f"scale factor must be positive and finite, got {t}")
    if isinstance(s, IruSet):
        return IruSet([RowSet(t * rs.rows) for rs in s.row_sets])
    if isinstance(s, OrderedChain):
        return OrderedChain(t * s.matrices)
    if isinstance(s, ExplicitSet):
        return ExplicitSet(t * s.matrices, dedup=False)
    raise TypeError(f"cannot scale {type(s).__name__}")


def iru_minkowski_sum(a: IruSet, b: IruSet) -> IruSet:
    """Structure-preserving Minkowski sum of two IRU families.

    Row independence commutes with addition: the i-th row set of the sum is
    the pairwise sum of the operands' i-th row sets, and enumerating the
    result equals the explicit Minkowski sum of the enumerations.
    """
    if a.shape != b.shape:
        raise DimensionMismatchError(
            f"cannot add IRU sets of shapes {a.shape} and {b.shape}"
        )
    out = []
    for ra, rb in zip(a.row_sets, b.row_sets):
        rows = (ra.rows[:, None, :] + rb.rows[None, :, :]).reshape(-1, ra.dim)
        out.append(RowSet(rows))
    return IruSet(out)


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
        return IruSet([RowSet(rs.rows + eps) for rs in s.row_sets])
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


_NORMS = ("max", "l1op")


def hausdorff_distance(a: ExplicitSet, b: ExplicitSet,
                       norm: str = "max") -> HausdorffReport:
    """Exact Hausdorff distance between two finite sets of matrices.

    ``norm`` selects the underlying matrix metric: "max" for the entrywise
    max norm, "l1op" for the l1-induced operator norm of the difference.
    """
    if a.shape != b.shape:
        raise DimensionMismatchError(
            f"cannot compare sets of shapes {a.shape} and {b.shape}"
        )
    if norm not in _NORMS:
        raise DomainError(f"unknown norm {norm!r}; choose from {_NORMS}")
    diff = np.abs(a.matrices[:, None] - b.matrices[None, :])
    if norm == "max":
        dists = diff.max(axis=(2, 3))
    else:
        dists = diff.sum(axis=2).max(axis=2)
    nearest_ab = dists.min(axis=1)
    nearest_ba = dists.min(axis=0)
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


def convex_sample(s: ExplicitSet, k: int, seed: int) -> np.ndarray:
    """Seeded random convex combination of ``k`` sampled members of ``s``."""
    return convex_combination(np.random.default_rng(seed), s, k)


def transpose_set(s):
    """Elementwise transposition; keeps row/column structure tagged."""
    if isinstance(s, IruSet):
        return ColumnSet(s)
    if isinstance(s, ColumnSet):
        return s.row_structured
    if isinstance(s, ExplicitSet):
        return ExplicitSet(s.matrices.transpose(0, 2, 1), dedup=False)
    raise TypeError(f"cannot transpose {type(s).__name__}")


class SetExpr:
    """Expression tree node over matrix-set leaves with Minkowski semantics."""

    @property
    def shape(self) -> tuple[int, int]:
        raise NotImplementedError

    def cardinality_bound(self) -> int:
        """Upper bound on the materialized set size, before deduplication."""
        raise NotImplementedError


@dataclass(frozen=True, eq=False)
class Leaf(SetExpr):
    base: IruSet | OrderedChain | ExplicitSet

    def __post_init__(self):
        if not isinstance(self.base, (IruSet, OrderedChain, ExplicitSet)):
            raise TypeError(f"unsupported leaf payload {type(self.base).__name__}")

    @property
    def shape(self):
        return tuple(self.base.shape)

    def cardinality_bound(self):
        if isinstance(self.base, IruSet):
            return self.base.cardinality
        return self.base.size


@dataclass(frozen=True, eq=False)
class Sum(SetExpr):
    children: tuple[SetExpr, ...]

    def __post_init__(self):
        object.__setattr__(self, "children", tuple(self.children))
        if len(self.children) < 2:
            raise DimensionMismatchError("Sum needs at least two children")
        shapes = {c.shape for c in self.children}
        if len(shapes) != 1:
            raise DimensionMismatchError(
                f"Sum children must share one shape, got {sorted(shapes)}"
            )

    @property
    def shape(self):
        return self.children[0].shape

    def cardinality_bound(self):
        return math.prod(c.cardinality_bound() for c in self.children)


@dataclass(frozen=True, eq=False)
class Product(SetExpr):
    children: tuple[SetExpr, ...]

    def __post_init__(self):
        object.__setattr__(self, "children", tuple(self.children))
        if len(self.children) < 2:
            raise DimensionMismatchError("Product needs at least two children")
        for left, right in itertools.pairwise(self.children):
            if left.shape[1] != right.shape[0]:
                raise DimensionMismatchError(
                    f"Product children {left.shape} and {right.shape} do not chain"
                )

    @property
    def shape(self):
        return (self.children[0].shape[0], self.children[-1].shape[1])

    def cardinality_bound(self):
        return math.prod(c.cardinality_bound() for c in self.children)


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


@dataclass(frozen=True, eq=False)
class ZeroElem(SetExpr):
    n_rows: int
    n_cols: int

    def __post_init__(self):
        if self.n_rows < 1 or self.n_cols < 1:
            raise DimensionMismatchError("ZeroElem needs positive dimensions")

    @property
    def shape(self):
        return (self.n_rows, self.n_cols)

    def cardinality_bound(self):
        return 1


@dataclass(frozen=True, eq=False)
class IdentityElem(SetExpr):
    n: int

    def __post_init__(self):
        if self.n < 1:
            raise DimensionMismatchError("IdentityElem needs a positive order")

    @property
    def shape(self):
        return (self.n, self.n)

    def cardinality_bound(self):
        return 1


def materialize_leaf(base, size_guard: int = DEFAULT_SIZE_GUARD) -> ExplicitSet:
    if isinstance(base, IruSet):
        return iru_enumerate(base, size_guard)
    if isinstance(base, OrderedChain):
        return chain_enumerate(base)
    if isinstance(base, ExplicitSet):
        return base
    if isinstance(base, ColumnSet):
        return base.enumerate(size_guard)
    raise TypeError(f"cannot materialize {type(base).__name__}")


def expr_expand(e: SetExpr, size_guard: int = DEFAULT_SIZE_GUARD,
                dedup_tol: float | None = None) -> ExplicitSet:
    """Materialize an expression tree into an explicit matrix set.

    The projected cardinality is estimated bottom-up first; if it exceeds
    ``size_guard`` nothing is materialized and the error reports the
    required size so the caller can restructure the expression.
    """
    bound = e.cardinality_bound()
    if bound > size_guard:
        raise GuardExceededError(bound, size_guard)
    return _materialize(e, size_guard, dedup_tol)


def _materialize(e: SetExpr, guard: int, tol: float | None) -> ExplicitSet:
    if isinstance(e, Leaf):
        return materialize_leaf(e.base, guard)
    if isinstance(e, Sum):
        parts = [_materialize(c, guard, tol) for c in e.children]
        return reduce(lambda x, y: minkowski_sum(x, y, tol), parts)
    if isinstance(e, Product):
        parts = [_materialize(c, guard, tol) for c in e.children]
        return reduce(lambda x, y: minkowski_product(x, y, tol), parts)
    if isinstance(e, Scale):
        return scale_set(e.factor, _materialize(e.child, guard, tol))
    if isinstance(e, ZeroElem):
        return ExplicitSet(np.zeros((1, e.n_rows, e.n_cols)), dedup=False)
    if isinstance(e, IdentityElem):
        return ExplicitSet(np.eye(e.n)[None], dedup=False)
    raise TypeError(f"unknown expression node {type(e).__name__}")
