"""Reproducible random instances: IRU families, ordered chains, expressions.

Generators return descriptor dicts (see ``descriptors``); fixed seeds give
byte-identical files.  Entry ranges must be positive unless the caller
explicitly allows boundary (nonnegative) instances.
"""

from __future__ import annotations

import numpy as np

from .descriptors import MAX_NESTING, serialize_expr
from .linalg import DomainError
from .sets import (
    IruSet,
    OrderedChain,
    Product,
    Scale,
    SetExpr,
    Sum,
)


def _check_range(lo: float, hi: float, allow_boundary: bool):
    if not np.isfinite(lo) or not np.isfinite(hi) or lo > hi:
        raise DomainError(f"invalid entry range [{lo}, {hi}]")
    if lo < 0:
        raise DomainError("entry range must be nonnegative")
    if lo == 0 and not allow_boundary:
        raise DomainError(
            "lo = 0 generates boundary (not strictly positive) instances; "
            "pass allow_boundary to confirm"
        )


def random_iru(rng: np.random.Generator, n_rows: int, n_cols: int,
               row_set_size: int, lo: float, hi: float) -> IruSet:
    return IruSet([
        rng.uniform(lo, hi, size=(row_set_size, n_cols)) for _ in range(n_rows)
    ])


def random_chain(rng: np.random.Generator, length: int, n_rows: int,
                 n_cols: int, lo: float, hi: float) -> OrderedChain:
    if length < 1:
        raise DomainError(f"chain length must be >= 1, got {length}")
    # Cumulative nonnegative increments guarantee the entrywise ordering.
    base = rng.uniform(lo, hi, size=(n_rows, n_cols))
    step = max(hi - lo, hi, 1.0)
    increments = rng.uniform(0.0, step, size=(length - 1, n_rows, n_cols))
    mats = np.concatenate([base[None], base[None] + np.cumsum(increments, axis=0)])
    return OrderedChain(mats)


class _TooLarge(Exception):
    """A draw's bound passed ``max_matrices`` before the draw was done."""


def random_expr(rng: np.random.Generator, depth: int, dim: int,
                lo: float, hi: float, max_matrices: int = 200) -> SetExpr:
    """Random square expression over IRU and chain leaves.

    Samples trees up to ``depth`` over sum/product/scale nodes, rejecting
    draws whose projected expansion exceeds ``max_matrices``, for at most
    1000 draws; a draw's bound is the product of its leaves' bounds, so it
    stops at the first leaf that takes the product past the limit.
    """
    if lo <= 0:
        raise DomainError("random_expr needs a strictly positive entry range")
    if depth < 0:
        raise DomainError(f"expression depth must be >= 0, got {depth}")
    if depth >= MAX_NESTING:  # its trees would not read back
        raise DomainError(
            f"expression depth must be < {MAX_NESTING}, got {depth}")

    def leaf() -> SetExpr:
        nonlocal bound
        if rng.integers(2) == 0:
            out = random_iru(rng, dim, dim, int(rng.integers(1, 3)), lo, hi)
        else:
            out = random_chain(rng, int(rng.integers(2, 4)), dim, dim, lo, hi)
        bound *= out.cardinality_bound()
        if bound > max_matrices:
            raise _TooLarge
        return out

    def node(d: int) -> SetExpr:
        if d == 0:
            return leaf()
        kind = rng.integers(4)
        if kind == 0:
            return leaf()
        if kind == 1:
            return Sum((node(d - 1), node(d - 1)))
        if kind == 2:
            return Product((node(d - 1), node(d - 1)))
        return Scale(float(rng.uniform(0.5, 2.0)), node(d - 1))

    for _ in range(1000):
        bound = 1
        try:
            return node(depth)
        except _TooLarge:
            pass
    raise DomainError(
        f"no expression within {max_matrices} matrices after 1000 draws"
    )


def gen_instance(kind: str, seed: int, lo: float, hi: float,
                 n_rows: int = 2, n_cols: int | None = None,
                 row_set_size: int = 2, length: int = 3, depth: int = 2,
                 max_matrices: int = 200,
                 allow_boundary: bool = False) -> dict:
    """Build a reproducible random instance descriptor of the given kind."""
    if n_cols is None:
        n_cols = n_rows
    rng = np.random.default_rng(seed)
    if kind == "iru":
        _check_range(lo, hi, allow_boundary)
        expr = random_iru(rng, n_rows, n_cols, row_set_size, lo, hi)
    elif kind == "chain":
        _check_range(lo, hi, allow_boundary)
        expr = random_chain(rng, length, n_rows, n_cols, lo, hi)
    elif kind == "expr":
        _check_range(lo, hi, allow_boundary=False)
        if n_rows != n_cols:
            raise DomainError("expression instances are square; rows must equal cols")
        expr = random_expr(rng, depth, n_rows, lo, hi, max_matrices)
    else:
        raise DomainError(f"unknown instance kind {kind!r}")
    return serialize_expr(expr)
