"""Extremal spectral radii over matrix sets and growth-rate bound sequences.

Two complementary routes are provided for the extremal (min/max) spectral
radius of a structured family: exhaustive scan over an explicit set, and a
greedy row-exchange iteration on row-independent families that follows the
current Perron eigenvector and terminates at a certified extremal member.
On top of these sit brute-force enumerations of the length-n product
characteristics (the spectral-radius roots and operator-norm roots of all
words), a verifier for the collapse of those sequences onto the length-1
extremum, and a convex-hull inequality check for the lower growth rate.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .alternative import ExtremalCertificate, certify_extremal
from .linalg import (
    ConvergenceError,
    DEFAULT_TOL,
    DomainError,
    l1_operator_norm,
    perron_vector,
    spectral_radius_power,
)
from .sets import (
    DEFAULT_SIZE_GUARD,
    ExplicitSet,
    GuardExceededError,
    IruSet,
    SetExpr,
    convex_combination,
    expr_expand,
    materialize_leaf,
)

_CHUNK = 1 << 16
_PERRON_TOL = 1e-13


def thread_count() -> int:
    """Worker cap for word enumeration, from HOURGLASS_THREADS (default 1)."""
    raw = os.environ.get("HOURGLASS_THREADS")
    if raw is None:
        return 1
    try:
        val = int(raw)
    except ValueError as exc:
        raise DomainError(f"HOURGLASS_THREADS must be an integer, got {raw!r}") from exc
    if val < 1:
        raise DomainError(f"HOURGLASS_THREADS must be >= 1, got {val}")
    return val


def _map_chunks(fn, chunks, workers: int) -> list:
    """Apply ``fn`` over chunks, in order; chunk boundaries do not depend on
    the worker count, so results are identical at any parallelism level."""
    if workers == 1:
        return [fn(c) for c in chunks]
    with ThreadPoolExecutor(max_workers=workers) as ex:
        return list(ex.map(fn, chunks))


def _totient(d: int) -> int:
    out, x, p = d, d, 2
    while p * p <= x:
        if x % p == 0:
            out -= out // p
            while x % p == 0:
                x //= p
        p += 1
    if x > 1:
        out -= out // x
    return out


def necklace_count(m: int, n: int) -> int:
    """Number of cyclic equivalence classes of length-n words over m symbols."""
    return sum(
        _totient(d) * m ** (n // d) for d in range(1, n + 1) if n % d == 0
    ) // n


def _log(x: np.ndarray) -> np.ndarray:
    with np.errstate(divide="ignore"):
        return np.where(x > 0, np.log(np.where(x > 0, x, 1.0)), -np.inf)


def _reduce(op, a: np.ndarray, axis: int) -> np.ndarray:
    """``op.reduce`` along a short axis, left to right, in elementwise calls
    (numpy's reduction costs far more with a few elements per output)."""
    parts = np.moveaxis(a, axis, 0)
    acc = parts[0].copy()
    for part in parts[1:]:
        op(acc, part, out=acc)
    return acc


def _l1_norms(prods: np.ndarray) -> np.ndarray:
    """l1 operator norm (largest absolute column sum) of each matrix."""
    rows = np.moveaxis(prods, 1, 0)  # by rows: no temporary of prods' size
    sums = np.abs(rows[0])
    for row in rows[1:]:
        sums += np.abs(row)
    return _reduce(np.maximum, sums, 1)


def _normalise(prods: np.ndarray, logs: np.ndarray) -> np.ndarray:
    """Rescale products in place by their l1 operator norms; return the logs
    with the log scales added (exactly vanishing products get -inf)."""
    norms = _l1_norms(prods)
    prods /= np.where(norms > 0, norms, 1.0)[:, None, None]
    return logs + _log(norms)


def _radius_bracket(q: np.ndarray):
    """Collatz-Wielandt bounds ``lo <= rho <= hi`` for nonnegative matrices
    from x = P 1: lo = min (Px)_i / x_i over x_i > 0; hi = max (Px)_i / x_i
    if x > 0, else the largest row sum."""
    x = _reduce(np.add, q, 2)
    pos = x > 0
    ratio = _reduce(np.add, q * x[:, None, :], 2) / np.where(pos, x, 1.0)
    lo = _reduce(np.minimum, np.where(pos, ratio, np.inf), 1)
    hi = np.where(pos.all(axis=1), _reduce(np.maximum, ratio, 1),
                  _reduce(np.maximum, x, 1))
    return np.where(pos.any(axis=1), lo, 0.0), hi


# Log-space slack on the radius brackets for rounding in them and in eigvals
# (near-defective products lose up to about the root of machine epsilon).
_PRUNE_MARGIN = 1e-6
# Extrema are kept as (sign * log value, -rank): the larger pair has the
# better value, then the earlier word.  Radius max, min; norm max, min.
_SIGNS = (1.0, -1.0, 1.0, -1.0)
_MISSING = (-math.inf, -math.inf)


def _best(vals: np.ndarray, ranks: np.ndarray, sign: float):
    i = int(np.argmax(sign * vals))
    return sign * float(vals[i]), -int(ranks[i])


def _scan(prods, logs, start, n, m, cyclic, norms, prune):
    """Extremes over one block of normalised length-n products.

    Radii run over the least rotation of each word (the radius is rotation
    invariant).  For nonnegative sets eigvals skips every word whose radius
    bracket lies strictly beyond a radius already attained in the block.
    """
    ranks = np.arange(start, start + len(prods), dtype=np.int64)
    out = [_MISSING] * 4
    if norms:
        nrm = _log(_l1_norms(prods)) + logs
        out[2:] = _best(nrm, ranks, 1.0), _best(nrm, ranks, -1.0)
    keep = np.ones(len(ranks), dtype=bool)
    for r in range(1, n if cyclic else 1):
        tail = m ** (n - r)
        keep &= ranks <= (ranks % tail) * m ** r + ranks // tail
    idx = np.flatnonzero(keep)
    if len(idx) == 0:
        return out
    q, ql = prods[idx], logs[idx]
    if prune:
        lo, hi = (_log(b) + ql for b in _radius_bracket(q))
        cand = np.flatnonzero((hi >= lo.max() - _PRUNE_MARGIN)
                              | (lo <= hi.min() + _PRUNE_MARGIN))
        q, ql, idx = q[cand], ql[cand], idx[cand]
    rho = _log(_reduce(np.maximum, np.abs(np.linalg.eigvals(q)), 1)) + ql
    out[:2] = _best(rho, ranks[idx], 1.0), _best(rho, ranks[idx], -1.0)
    return out


def _sweep(mats: np.ndarray, n_max: int, first: int = 1,
           cyclic: bool = True, norms: bool = True):
    """Extremal log radii and log norms of the words of lengths first..n_max.

    Word (i1, ..., in) is the product A_{in} ... A_{i1} and has rank
    i1 m^(n-1) + ... + in.  Level n comes from level n-1 in one batched
    matmul, word (w, a) getting A_a P_w; products are rescaled by their l1
    operator norms with the log scales accumulated, so long words cannot
    overflow.  Levels wider than ``_CHUNK / 2`` run in prefix blocks (about
    ``_CHUNK`` products alive), the first split mapped over the worker
    threads.  Returns per length the ``(log value, first word)`` pairs of
    radius max, radius min, norm max and norm min (norms None if off).
    """
    m = len(mats)
    prune = bool(np.all(mats >= 0))

    def descend(prods, logs, start, n, workers):
        found = [_scan(prods, logs, start, n, m, cyclic, norms, prune)
                 if n >= first else None]
        if n >= n_max:
            return found
        step = max(1, _CHUNK // 2 // m ** (n_max - n))

        def extend(i):
            child = np.matmul(mats[None], prods[i:i + step, None])
            child = child.reshape(-1, *mats.shape[1:])
            child_logs = _normalise(child, np.repeat(logs[i:i + step], m))
            return descend(child, child_logs, (start + i) * m, n + 1, 1)

        slices = range(0, len(prods), step)
        parts = _map_chunks(extend, slices, workers if len(slices) > 1 else 1)
        return found + [None if lv[0] is None else [max(e) for e in zip(*lv)]
                        for lv in zip(*parts)]

    prods = mats.astype(float, copy=True)
    levels = descend(prods, _normalise(prods, np.zeros(m)), 0, 1,
                     thread_count())
    return [
        tuple(None if e == _MISSING else (s * e[0], tuple(
            int(i) for i in np.unravel_index(-e[1], (m,) * n)))
              for e, s in zip(found, _SIGNS))
        for n, found in enumerate(levels[first - 1:n_max], first)
    ]


def _require_square_set(s: ExplicitSet):
    n, m = s.shape
    if n != m:
        raise DomainError(f"need square matrices, got {n}x{m}")


def rho_extremal_exhaustive(s: ExplicitSet, direction: str,
                            tol: float = DEFAULT_TOL) -> tuple[float, int]:
    """Exact extremal spectral radius over all members of an explicit set.

    Returns ``(value, index)`` where index is the first member attaining
    the extremum.  This is the oracle the structured fast paths are tested
    against.
    """
    if direction not in ("min", "max"):
        raise DomainError(f"direction must be 'min' or 'max', got {direction!r}")
    _require_square_set(s)
    if not s.is_nonnegative:
        raise DomainError("exhaustive extremal radius requires nonnegative members")
    radii = np.array([spectral_radius_power(m, tol) for m in s.matrices])
    idx = int(radii.argmin() if direction == "min" else radii.argmax())
    return float(radii[idx]), idx


@dataclass(frozen=True)
class SimplexStep:
    selection: tuple[int, ...]
    rho: float
    improvement: float
    ties: bool


@dataclass(frozen=True)
class SimplexTrace:
    """Trace of the greedy row-exchange iteration.

    ``iterations`` records the visited row selections with their spectral
    radii; the radii are strictly monotone (increasing for direction "max",
    decreasing for "min") and each non-terminal step's ``improvement`` is
    the row-score gain that justified continuing.  ``certificate`` is the
    terminal extremality certificate.
    """

    direction: str
    iterations: tuple[SimplexStep, ...]
    certificate: ExtremalCertificate

    @property
    def rho(self) -> float:
        return self.iterations[-1].rho

    @property
    def selection(self) -> tuple[int, ...]:
        return self.iterations[-1].selection


def spectral_simplex(s: IruSet, direction: str, tol: float = DEFAULT_TOL,
                     max_iter: int = 10_000,
                     cert_tol: float | None = None) -> SimplexTrace:
    """Greedy extremal-radius search on a positive row-independent family.

    From the current member's Perron vector v, each row position switches to
    the admissible row extremizing its score (row . v), ties broken toward
    the smallest row index; any strict score improvement strictly improves
    the spectral radius, and since selections are finite the iteration
    terminates.  When no row improves beyond the step threshold, the local
    optimality condition is global: the terminal member is certified
    extremal over the whole family.

    Boundary (merely nonnegative) families are refused; lift them first and
    compare runs at a couple of lift sizes to audit the limit.
    """
    if direction not in ("min", "max"):
        raise DomainError(f"direction must be 'min' or 'max', got {direction!r}")
    if s.n_rows != s.n_cols:
        raise DomainError(f"need a square family, got {s.n_rows}x{s.n_cols}")
    if not s.is_positive:
        raise DomainError(
            "spectral_simplex requires a strictly positive family; "
            "apply an epsilon lift to boundary sets first"
        )
    sign = 1.0 if direction == "max" else -1.0
    selection = tuple(0 for _ in range(s.n_rows))
    seen = {selection}
    steps: list[SimplexStep] = []
    for _ in range(max_iter):
        a = s.assemble(selection)
        perron = perron_vector(a, tol=_PERRON_TOL)
        v = perron.eigenvector
        rho = perron.rho
        step_tol = 1e-11 * max(1.0, rho)

        best_gain = 0.0
        ties = False
        nxt = list(selection)
        for i, rs in enumerate(s.row_sets):
            scores = sign * (rs.rows @ v)
            j = int(scores.argmax())
            gain = float(scores[j] - scores[selection[i]])
            ties = ties or bool(
                (np.abs(scores - scores[j]) <= step_tol).sum() > 1
            )
            if gain > step_tol:
                nxt[i] = j
                best_gain = max(best_gain, gain)
        steps.append(SimplexStep(selection, rho, best_gain, ties))
        if best_gain <= step_tol:
            effective_cert_tol = (
                max(tol, 1e-10 * (1.0 + rho)) if cert_tol is None else cert_tol
            )
            cert = certify_extremal(s, a, direction, effective_cert_tol)
            return SimplexTrace(direction, tuple(steps), cert)
        selection = tuple(nxt)
        if selection in seen:
            raise ConvergenceError("row-exchange iteration revisited a "
                                   "selection", rho, trace=tuple(steps))
        seen.add(selection)
    raise ConvergenceError(
        f"row-exchange iteration did not settle in {max_iter} steps",
        steps[-1].rho if steps else float("nan"), trace=tuple(steps))


def rho_n_bruteforce(s: ExplicitSet, n: int, direction: str,
                     size_guard: int = DEFAULT_SIZE_GUARD,
                     use_cyclic: bool = True) -> tuple[float, tuple[int, ...]]:
    """Extremal n-th root spectral radius over all length-n products.

    Enumerates one representative per cyclic word class (the product radius
    is rotation invariant), guards on the reduced count, and returns
    ``(value, word)`` with value = rho(A_{w_n} ... A_{w_1}) ** (1/n) and
    the first extremal word in lexicographic order.
    """
    if direction not in ("min", "max"):
        raise DomainError(f"direction must be 'min' or 'max', got {direction!r}")
    if n < 1:
        raise DomainError(f"word length must be >= 1, got {n}")
    _require_square_set(s)
    count = necklace_count(s.size, n) if use_cyclic else s.size ** n
    if count > size_guard:
        raise GuardExceededError(count, size_guard)
    val, word = _sweep(s.matrices, n, first=n, cyclic=use_cyclic,
                       norms=False)[0][0 if direction == "max" else 1]
    return float(np.exp(val / n)), word


@dataclass(frozen=True)
class SpectralSummary:
    """Growth-rate bound sequences for products of increasing length.

    For each n up to ``n_max``: ``rho_hat``/``rho_check`` are the max/min of
    rho(product)**(1/n) over all length-n words (with the extremal words
    recorded), and ``norm_upper``/``norm_lower`` the corresponding l1
    operator-norm roots.  ``jsr_bracket`` encloses the joint spectral
    radius between the best radius-based lower bound and the best
    norm-based upper bound; for the lower spectral radius finite data only
    bounds from above (``lsr_upper``), the trivial 0 standing in below.
    """

    n_max: int
    rho_hat: tuple[float, ...]
    rho_check: tuple[float, ...]
    argmax_words: tuple[tuple[int, ...], ...]
    argmin_words: tuple[tuple[int, ...], ...]
    norm_upper: tuple[float, ...]
    norm_lower: tuple[float, ...]

    @property
    def jsr_bracket(self) -> tuple[float, float]:
        return (max(self.rho_hat), min(self.norm_upper))

    @property
    def lsr_bracket(self) -> tuple[float, float]:
        return (0.0, min(self.rho_check))


def jsr_lsr_bounds(s: ExplicitSet, n_max: int,
                   size_guard: int = DEFAULT_SIZE_GUARD) -> SpectralSummary:
    """Fill the four bound sequences for word lengths 1..n_max.

    Radius sequences run over cyclic representatives; norm sequences need
    the full word set (norms are not rotation invariant), so the guard is
    checked against ``|s| ** n``.
    """
    if n_max < 1:
        raise DomainError(f"n_max must be >= 1, got {n_max}")
    _require_square_set(s)
    if s.size ** n_max > size_guard:
        raise GuardExceededError(s.size ** n_max, size_guard)
    return SpectralSummary(n_max, *zip(*(  # one tuple per length, in field order
        (float(np.exp(hv / n)), float(np.exp(cv / n)), hw, cw,
         float(np.exp(nu / n)), float(np.exp(nl / n)))
        for n, ((hv, hw), (cv, cw), (nu, _), (nl, _))
        in enumerate(_sweep(s.matrices, n_max), 1)
    )))


def n_adjusted_tol(n: int, rho_max: float, tol: float) -> float:
    """Comparison tolerance for length-n product radii: grows linearly in n."""
    return n * tol * max(1.0, rho_max)


@dataclass(frozen=True)
class FinitenessCheck:
    n: int
    sandwich: bool
    rho_check_n: float
    rho_hat_n: float
    dev_min: float
    dev_max: float
    tol_n: float
    word_min: tuple[int, ...]
    word_max: tuple[int, ...]

    @property
    def ok(self) -> bool:
        return self.dev_min <= self.tol_n and self.dev_max <= self.tol_n


@dataclass(frozen=True)
class FinitenessReport:
    """Verdict on the collapse of the product-radius sequences.

    PASS means every checked word length n gave min/max length-n product
    radii equal (within the n-adjusted tolerance) to the family's
    single-matrix extremal radii, including on sandwich variants enlarged
    by random convex combinations.  FAIL carries the offending checks with
    their extremal words.
    """

    passed: bool
    rho_min: float
    rho_max: float
    argmin_index: int
    argmax_index: int
    checks: tuple[FinitenessCheck, ...]
    failures: tuple[FinitenessCheck, ...]
    sandwich_samples: int


def _expand_any(s, size_guard: int) -> ExplicitSet:
    if isinstance(s, SetExpr):
        return expr_expand(s, size_guard)
    return materialize_leaf(s, size_guard)


def finiteness_verify(s, n_max: int = 4, sandwich_samples: int = 5,
                      tol: float = 1e-7, seed: int = 0,
                      size_guard: int = DEFAULT_SIZE_GUARD) -> FinitenessReport:
    """Check that extremal product radii collapse onto the length-1 extrema.

    Expands ``s``, computes the exhaustive min/max member radii, then for
    every n <= n_max compares the brute-force extremal length-n product
    radii against them within ``n * tol * max(1, rho_max)``.  When
    ``sandwich_samples`` > 0, the same comparison (against the original
    extrema) reruns for n <= min(3, n_max) on the set enlarged by that many
    random convex combinations of members, exercising stability over
    intermediate sets between the family and its convex hull.
    """
    expanded = _expand_any(s, size_guard)
    _require_square_set(expanded)
    if not expanded.is_nonnegative:
        raise DomainError("finiteness check requires nonnegative matrices")
    rho_min, argmin = rho_extremal_exhaustive(expanded, "min")
    rho_max, argmax = rho_extremal_exhaustive(expanded, "max")

    def run(target: ExplicitSet, n_top: int, sandwich: bool):
        for n in range(1, n_top + 1):
            if (count := necklace_count(target.size, n)) > size_guard:
                raise GuardExceededError(count, size_guard)
        checks = []
        for n, ((hv, hw), (cv, cw), _, _) in enumerate(
                _sweep(target.matrices, n_top, norms=False), 1):
            lo, hi = float(np.exp(cv / n)), float(np.exp(hv / n))
            checks.append(FinitenessCheck(
                n=n, sandwich=sandwich, rho_check_n=lo, rho_hat_n=hi,
                dev_min=abs(lo - rho_min), dev_max=abs(hi - rho_max),
                tol_n=n_adjusted_tol(n, rho_max, tol), word_min=cw, word_max=hw,
            ))
        return checks

    checks = run(expanded, n_max, False)
    if sandwich_samples > 0:
        rng = np.random.default_rng(seed)
        extra = np.stack([
            convex_combination(rng, expanded, expanded.size)
            for _ in range(sandwich_samples)
        ])
        enlarged = ExplicitSet(
            np.concatenate([expanded.matrices, extra], axis=0)
        )
        checks += run(enlarged, min(3, n_max), True)
    failures = tuple(c for c in checks if not c.ok)
    return FinitenessReport(
        passed=not failures,
        rho_min=rho_min,
        rho_max=rho_max,
        argmin_index=argmin,
        argmax_index=argmax,
        checks=tuple(checks),
        failures=failures,
        sandwich_samples=sandwich_samples,
    )


@dataclass(frozen=True)
class ConvexHullReport:
    """Norm lower bounds for products of convex combinations.

    Checks, for sampled words of convex combinations C_i of the family,
    that ||C_n ... C_1|| >= (rho_check_n ** n) / N - tol in the l1 operator
    norm, and that every sampled product A satisfies ||A e||_1 >= rho(A).
    ``threshold_literal`` records the weaker per-root reading
    rho_check_n / N alongside the power form actually enforced.
    """

    n: int
    samples: int
    rho_check_n: float
    threshold_power: float
    threshold_literal: float
    min_norm_seen: float
    norm_failures: int
    srbound_failures: int

    @property
    def passed(self) -> bool:
        return self.norm_failures == 0 and self.srbound_failures == 0


def conv_lsr_check(s: ExplicitSet, n: int, samples: int, seed: int,
                   tol: float = 1e-9,
                   size_guard: int = DEFAULT_SIZE_GUARD) -> ConvexHullReport:
    """Sampled verification of the convex-hull norm bound at word length n."""
    _require_square_set(s)
    if not s.is_nonnegative:
        raise DomainError("convex-hull check requires nonnegative matrices")
    if samples < 1:
        raise DomainError("samples must be at least 1")
    dim = s.shape[0]
    rho_check_n, _ = rho_n_bruteforce(s, n, "min", size_guard)
    threshold_power = rho_check_n ** n / dim
    threshold_literal = rho_check_n / dim
    rng = np.random.default_rng(seed)
    ones = np.ones(dim)
    min_norm = math.inf
    norm_failures = 0
    srbound_failures = 0
    for _ in range(samples):
        prod = convex_combination(rng, s, s.size)
        for _ in range(n - 1):
            prod = convex_combination(rng, s, s.size) @ prod
        nrm = l1_operator_norm(prod)
        min_norm = min(min_norm, nrm)
        if nrm < threshold_power - tol:
            norm_failures += 1
        image_mass = float(np.abs(prod @ ones).sum())
        if image_mass < spectral_radius_power(prod) - tol:
            srbound_failures += 1
    return ConvexHullReport(
        n=n,
        samples=samples,
        rho_check_n=rho_check_n,
        threshold_power=threshold_power,
        threshold_literal=threshold_literal,
        min_norm_seen=float(min_norm),
        norm_failures=norm_failures,
        srbound_failures=srbound_failures,
    )
