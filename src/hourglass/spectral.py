"""Extremal spectral radii over matrix sets and growth-rate bound sequences.

Two complementary routes are provided for the extremal (min/max) spectral
radius of a structured family: exhaustive scan over an explicit set, and a
greedy exchange iteration on any set or expression tree that follows the
current Perron eigenvector and terminates at a certified extremal member.
On top of these sit brute-force enumerations of the length-n product
characteristics (the spectral-radius roots and operator-norm roots of all
words), a verifier for the collapse of those sequences onto the length-1
extremum, and a convex-hull inequality check for the lower growth rate.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .alternative import ExtremalCertificate, _certify_margins, extremal_pick
from .linalg import (
    ConvergenceError,
    DomainError,
    ROW_SUMS_OVERFLOW,
    _reduce,
    l1_operator_norm,
    perron_vector,
    spectral_radii,
)
from .sets import (
    DEFAULT_SIZE_GUARD,
    LEAVES,
    ExplicitSet,
    GuardExceededError,
    as_explicit,
    convex_combination,
    expr_expand,
)

_CHUNK = 1 << 16
SIMPLEX_MAX_ITER = 10_000  # steps before spectral_simplex gives up


def necklace_count(m: int, n: int) -> int:
    """Number of cyclic equivalence classes of length-n words over m symbols
    (Burnside: rotation by k fixes m ** gcd(k, n) words)."""
    return sum(m ** math.gcd(k, n) for k in range(n)) // n


def _words_built(m: int, n_max: int, norms: bool) -> int:
    """Products a sweep over m members to length n_max builds: every shorter
    word (each a prefix), then all words of length n_max or their necklaces."""
    return sum(m ** k for k in range(1, n_max)) + (
        m ** n_max if norms else necklace_count(m, n_max))


def _log(x: np.ndarray) -> np.ndarray:
    with np.errstate(divide="ignore"):
        return np.log(x)


def _l1_norms(prods: np.ndarray) -> np.ndarray:
    """l1 operator norm (largest absolute column sum) of each matrix."""
    rows, cols = prods.shape[1:]
    if rows <= 4:  # by entry: 1-D passes along the words, in the order below
        for j in range(cols):
            col = np.abs(prods[:, 0, j])
            for i in range(1, rows):
                col += np.abs(prods[:, i, j])
            norms = col if j == 0 else np.maximum(norms, col, out=norms)
        return norms
    sums = np.abs(prods[:, 0])  # by rows: no temporary of prods' size
    for i in range(1, rows):
        sums += np.abs(prods[:, i])
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
    y = np.einsum("kij,kj->ki", q, x)
    pos = x > 0
    if pos.all():  # every product of a positive family
        ratio = y / x
        return _reduce(np.minimum, ratio, 1), _reduce(np.maximum, ratio, 1)
    ratio = y / np.where(pos, x, 1.0)
    lo = _reduce(np.minimum, np.where(pos, ratio, np.inf), 1)
    hi = np.where(pos.all(axis=1), _reduce(np.maximum, ratio, 1),
                  _reduce(np.maximum, x, 1))
    return np.where(pos.any(axis=1), lo, 0.0), hi


# Log-space slack on the radius brackets for rounding in them and in eigvals
# (near-defective products lose up to about the root of machine epsilon).
_PRUNE_MARGIN = 1e-6
# Extrema are kept as (sign * log value, -rank): the larger pair has the better
# value, then the earlier word.  Radius, norm, inner radius: max, min each.
_SIGNS = (1.0, -1.0, 1.0, -1.0, 1.0, -1.0)
_MISSING = (-math.inf, -math.inf)


def _extremes(vals: np.ndarray, ranks: np.ndarray):
    """The max and the min pair of ``vals``, each at its first word."""
    i, j = int(np.argmax(vals)), int(np.argmin(vals))
    return (float(vals[i]), -int(ranks[i])), (-float(vals[j]), -int(ranks[j]))


def _word(rank: int, m: int, n: int) -> tuple[int, ...]:
    """The length-n word over m symbols that has the given rank."""
    word = [0] * n
    for k in reversed(range(n if m > 1 else 0)):  # one letter: all zeros
        rank, word[k] = divmod(rank, m)
    return tuple(word)


def _least_rotations(ranks, n, m):
    """Indices of the length-n word ranks least among their rotations."""
    keep = np.ones(len(ranks), dtype=bool)
    for r in range(1, n if m > 1 else 1):  # one letter: no other word
        tail = m ** (n - r)
        head = ranks // tail  # ranks % tail costs more than this and a product
        keep &= ranks <= (ranks - head * tail) * m ** r + head
    return np.flatnonzero(keep)


def _take(at, *arrays):
    """Rows ``at`` (None: all) of each array, gathered by integer take."""
    return [a if at is None or a is None else a.take(at, 0) for a in arrays]


def _scan(prods, logs, ranks, inside, reps, norms, prune):
    """Norm extremes and radius candidates of one block of normalised products.

    A normalised product's log l1 norm is its log scale up to O(d ulp), so
    norms are taken only where the scale is within a slack of the block's
    extremes.  Radii run over ``reps``, indices of least rotations (the
    radius is rotation invariant); for nonnegative sets, words whose radius
    bracket lies strictly beyond a radius attained in the block are dropped;
    ``inside`` words (if given) are kept by the same rule among themselves.
    Returns the norm max and min pairs and the candidates left for eigvals.
    """
    pairs = [_MISSING] * 2
    if norms:  # -inf logs must leave the slack finite
        hi, lo = float(logs.max()), float(logs.min())
        slack = 1e-9 * max([1.0, *(abs(e) for e in (hi, lo) if e > -math.inf)])
        near = np.flatnonzero((logs >= hi - slack) | (logs <= lo + slack))
        p, nl, nr = _take(near, prods, logs, ranks)
        pairs = _extremes(np.log(_l1_norms(p)) + nl, nr)
    q, ql, qr, qi = _take(reps, prods, logs, ranks, inside)
    if prune and len(qr):
        lo, hi = (np.log(b) + ql for b in _radius_bracket(q))
        keep = ((hi >= lo.max() - _PRUNE_MARGIN)
                | (lo <= hi.min() + _PRUNE_MARGIN))
        if qi is not None and qi.any():
            keep |= qi & ((hi >= lo[qi].max() - _PRUNE_MARGIN)
                          | (lo <= hi[qi].min() + _PRUNE_MARGIN))
        q, ql, qr, qi = _take(np.flatnonzero(keep), q, ql, qr, qi)
    return pairs, (q, ql, qr, qi)


def _require_square_set(s: ExplicitSet):
    n, m = s.shape
    if n != m:
        raise DomainError(f"need square matrices, got {n}x{m}")


def _require_tol(tol: float):
    if not math.isfinite(tol):  # inf passes every check, NaN decides all alike
        raise DomainError(f"tol must be finite, got {tol}")
    if tol < 0:  # fails even exact agreement; 0 compares exactly
        raise DomainError(f"tol must be >= 0, got {tol}")


@np.errstate(divide="ignore")
def _sweep(s, n_max: int, size_guard: int, first: int = 1,
           norms: bool = True, inner=None):
    """Extremal log radii and log norms of the words of lengths first..n_max.

    ``s`` is expanded under ``size_guard`` unless it is an explicit set.
    The guard then counts every product built over its m members: each
    word shorter than n_max (a prefix), then all ``m ** n_max`` words when
    norms are swept (norms are not rotation invariant), else one per cyclic
    class, ``necklace_count(m, n_max)``.  Word (i1, ..., in) is the product
    A_{in} ... A_{i1} and has rank i1 m^(n-1) + ... + in.  Level n comes
    from level n-1 one prefix block at a time, in one GEMM with the members
    stacked as an ``(m d, d)`` matrix, word (w, a) getting A_a P_w; without
    norms, level n_max holds only the least rotation of each word.  Products
    are rescaled by their l1 operator norms (by entry along the words at
    orders up to 4) with the log scales accumulated, so long words cannot
    overflow.  Word subsets are gathered by integer ``take``, far cheaper
    than masks or fancy indexing, and one errstate per sweep lets a
    vanishing value's log be -inf.  Blocks run depth first from an explicit
    stack, about ``_CHUNK`` products alive at once at any length.  Radius
    candidates wait across blocks and lengths for one eigvals call, made at
    ``_CHUNK / 2`` of them and at the end.
    Returns per length the ``(log value, first word)`` pairs of radius max,
    radius min, norm max and norm min (norms None if off), then with an
    ``inner`` mask of members, radius max and min over words of inner
    letters.  Members whose l1 norm exceeds the float range raise DomainError.
    """
    s = s if isinstance(s, ExplicitSet) else expr_expand(s, size_guard)
    _require_square_set(s)
    m, mats, d = s.size, s.matrices, s.shape[0]
    words = _words_built(m, n_max, norms)
    if words > size_guard:
        raise GuardExceededError(words, size_guard)
    stacked = mats.reshape(m * d, d)  # row block a of stacked @ P is A_a P
    found = [[_MISSING] * 6 for _ in range(n_max + 1)]

    def children(prods, logs, ranks, inside, n):  # level n + 1, block by block
        step = max(1, _CHUNK // 2 // m ** (n_max - n))
        for i in range(0, len(prods), step):
            block, block_logs = prods[i:i + step], logs[i:i + step]
            child_ranks = np.arange(ranks[i] * m, (ranks[i] + len(block)) * m)
            reps = _least_rotations(child_ranks, n + 1, m)
            if n + 1 == n_max and not norms:  # one word per cyclic class
                # child k of the block: prefix k // m, last letter k % m
                child_ranks, at = child_ranks.take(reps), reps // m
                last, reps = reps - at * m, None
                child = np.matmul(mats.take(last, 0), block.take(at, 0))
                child_logs = block_logs.take(at)
                child_in = None if inner is None else (
                    inside[i:i + step].take(at) & inner.take(last))
            else:  # OpenBLAS rounds the one GEMM as the separate products
                # up to order 16 (x86-64, AVX-512); beyond, it saves no time
                child = (np.matmul(stacked, block) if d <= 16 else np.matmul(
                    mats[None], block[:, None])).reshape(-1, d, d)
                child_logs = np.repeat(block_logs, m)
                child_in = None if inner is None else (
                    inside[i:i + step, None] & inner).ravel()
            yield (child, _normalise(child, child_logs), child_ranks, child_in,
                   reps, n + 1)

    prods = mats.astype(float, copy=True)
    # An overflowing l1 norm shows as an infinite log.  Later levels hold
    # normalised products, whose norms are at most the first level's.
    with np.errstate(over="ignore"):
        logs = _normalise(prods, np.zeros(m))
    if float(logs.max()) == math.inf:
        raise DomainError("column sums exceed the float range; rescale the input")
    stack = [iter([(prods, logs, np.arange(m), inner, None, 1)])]
    pending, waiting = [], 0  # (length, products, logs, ranks, inside)
    while stack:
        level = next(stack[-1], None)
        if level is None:
            stack.pop()
        else:
            prods, logs, ranks, inside, reps, n = level
            if n < n_max:
                stack.append(children(prods, logs, ranks, inside, n))
            if n >= first:
                pairs, cand = _scan(prods, logs, ranks, inside, reps, norms,
                                    s.is_nonnegative)
                found[n][2:4] = map(max, found[n][2:4], pairs)
                if len(cand[0]):
                    pending.append((n, *cand))
                    waiting += len(cand[0])
        if pending and (waiting >= _CHUNK // 2 or not stack):
            rho = np.log(_reduce(np.maximum, np.abs(np.linalg.eigvals(
                np.concatenate([p[1] for p in pending]))), 1))
            for n, q, ql, qr, qi in pending:
                r, rho = rho[:len(q)] + ql, rho[len(q):]
                found[n][:2] = map(max, found[n][:2], _extremes(r, qr))
                if qi is not None and qi.any():
                    found[n][4:] = map(max, found[n][4:],
                                       _extremes(r[qi], qr[qi]))
            pending, waiting = [], 0
    return [tuple(None if e == _MISSING else (sign * e[0], _word(-e[1], m, n))
                  for e, sign in zip(found[n][:4 if inner is None else 6],
                                     _SIGNS))
            for n in range(first, n_max + 1)]


def rho_extremal_exhaustive(s, direction: str) -> tuple[float, int]:
    """Exact extremal spectral radius over all members of a family.

    A family other than an explicit set is expanded under the default
    guard first.  Returns ``(value, index)`` where index is the first
    member attaining the extremum.  This is the oracle the structured fast
    paths are tested against.
    """
    if direction not in ("min", "max"):
        raise DomainError(f"direction must be 'min' or 'max', got {direction!r}")
    s = as_explicit(s)
    _require_square_set(s)
    if not s.is_nonnegative:
        raise DomainError("exhaustive extremal radius requires nonnegative members")
    radii = spectral_radii(s.matrices)
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
    """Trace of the greedy exchange iteration.

    ``iterations`` records the visited selections with their spectral
    radii; the radii are strictly monotone (increasing for direction "max",
    decreasing for "min") and each non-terminal step's ``improvement`` is
    the image gain that justified continuing.  ``certificate`` is the
    terminal extremality certificate, built on the terminal step's Perron
    pair.
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


def spectral_simplex(s, direction: str) -> SimplexTrace:
    """Greedy extremal-radius search on a positive set or expression tree.

    From the member of first choices, each step moves to the member with
    the extremal image at the current Perron vector v (``extremal_pick``,
    whose visiting order the selections follow); a choice moves only when
    its gain exceeds the step threshold, which strictly improves the
    spectral radius, so the iteration terminates.  When nothing moves, the
    local optimality condition is global: the terminal member is certified
    extremal over the whole family.

    The step threshold is 1e-11 rho and the certificate tolerance 1e-10 rho,
    so on ``scale_set(2.0**j, s)`` every step is the same and rho scales
    exactly.  Boundary (merely nonnegative) families are refused: lift them
    first.  Row sums beyond the float range raise DomainError before the
    first step.
    """
    if direction not in ("min", "max"):
        raise DomainError(f"direction must be 'min' or 'max', got {direction!r}")
    n, m = s.shape
    if n != m:
        raise DomainError(f"need a square family, got {n}x{m}")
    if isinstance(s, LEAVES) and not s.is_positive:
        raise DomainError(
            "spectral_simplex requires a strictly positive family; "
            "apply an epsilon lift to boundary sets first"
        )
    sign = 1.0 if direction == "max" else -1.0
    # At tol inf either sign keeps the first choices.  The largest image at
    # 1/n bounds every member's row means, so one check spares every Perron
    # call below an overflow (a Python product is inf without a warning).
    with np.errstate(over="ignore", invalid="ignore"):
        a, image, selection, _ = extremal_pick(s, np.full(n, 1.0 / n), 1.0,
                                               itertools.repeat(0), math.inf)
    if float(image.max()) * n == math.inf:
        raise DomainError(ROW_SUMS_OVERFLOW)
    seen = {selection}
    steps: list[SimplexStep] = []
    for _ in range(SIMPLEX_MAX_ITER):
        if not (a > 0).all():  # a tree of boundary leaves can reach one
            raise DomainError(
                f"spectral_simplex requires a strictly positive family; the "
                f"member at selection {list(selection)} has a zero entry: "
                f"lift the family's leaves first")
        perron = perron_vector(a)
        v = perron.eigenvector
        rho = perron.rho
        step_tol = 1e-11 * rho

        nxt, image, choices, ties = extremal_pick(s, v, sign, iter(selection),
                                                  step_tol)
        gain = float((sign * (image - a @ v)).max()) if choices != selection else 0.0
        steps.append(SimplexStep(selection, rho, gain, any(ties)))
        if choices == selection:
            cert = _certify_margins(s, a, perron, direction)
            return SimplexTrace(direction, tuple(steps), cert)
        if choices in seen:
            raise ConvergenceError("row-exchange iteration revisited a "
                                   "selection", rho, trace=tuple(steps))
        seen.add(choices)
        a, selection = nxt, choices
    raise ConvergenceError(
        f"row-exchange iteration did not settle in {SIMPLEX_MAX_ITER} steps",
        steps[-1].rho if steps else float("nan"), trace=tuple(steps))


def rho_n_bruteforce(s, n: int, direction: str,
                     size_guard: int = DEFAULT_SIZE_GUARD
                     ) -> tuple[float, tuple[int, ...]]:
    """Extremal n-th root spectral radius over all length-n products.

    Enumerates one representative per cyclic word class (the product radius
    is rotation invariant), guards on every product built, and returns
    ``(value, word)`` with value = rho(A_{w_n} ... A_{w_1}) ** (1/n) and
    the first extremal word in lexicographic order.
    """
    if direction not in ("min", "max"):
        raise DomainError(f"direction must be 'min' or 'max', got {direction!r}")
    if n < 1:
        raise DomainError(f"word length must be >= 1, got {n}")
    val, word = _sweep(s, n, size_guard, first=n,
                       norms=False)[0][0 if direction == "max" else 1]
    return float(np.exp(val / n)), word


@dataclass(frozen=True)
class SpectralSummary:
    """Growth-rate bound sequences for products of increasing length.

    For each n up to ``n_max``, in the field order ``jsr`` prints:
    ``rho_hat``/``rho_check`` are the max/min of rho(product)**(1/n) over
    all length-n words, ``norm_upper``/``norm_lower`` the l1 operator-norm
    roots (so all ``m ** n`` words of m members, for every n up to n_max,
    count against the guard), then the words attaining the radius extrema.  ``jsr_bracket``
    encloses the joint spectral radius between the best bounds from radii
    below and norms above; ``lsr_bracket`` bounds the lower spectral radius
    from above only, the trivial 0 standing in below.
    """

    n_max: int
    rho_hat: tuple[float, ...]
    rho_check: tuple[float, ...]
    norm_upper: tuple[float, ...]
    norm_lower: tuple[float, ...]
    argmax_words: tuple[tuple[int, ...], ...]
    argmin_words: tuple[tuple[int, ...], ...]
    jsr_bracket: tuple[float, float]
    lsr_bracket: tuple[float, float]


def jsr_lsr_bounds(s, n_max: int,
                   size_guard: int = DEFAULT_SIZE_GUARD) -> SpectralSummary:
    """Fill the four bound sequences for word lengths 1..n_max.

    Radius sequences run over cyclic representatives, norm sequences over
    every word (norms are not rotation invariant).
    """
    if n_max < 1:
        raise DomainError(f"n_max must be >= 1, got {n_max}")
    hat, check, upper, lower, hw, cw = zip(*(  # one tuple per length
        (float(np.exp(hv / n)), float(np.exp(cv / n)),
         float(np.exp(nu / n)), float(np.exp(nl / n)), hw, cw)
        for n, ((hv, hw), (cv, cw), (nu, _), (nl, _))
        in enumerate(_sweep(s, n_max, size_guard), 1)
    ))
    return SpectralSummary(n_max, hat, check, upper, lower, hw, cw,
                           (max(hat), min(upper)), (0.0, min(check)))


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
    checks: tuple[FinitenessCheck, ...]
    failures: tuple[FinitenessCheck, ...]


def finiteness_verify(s, n_max: int = 4, sandwich_samples: int = 5,
                      tol: float = 1e-7, seed: int = 0,
                      size_guard: int = DEFAULT_SIZE_GUARD) -> FinitenessReport:
    """Check that extremal product radii collapse onto the length-1 extrema.

    Expands ``s`` and sweeps its words: the length-1 extremes are the
    family's min/max member radii, and for every n <= n_max the extremal
    length-n product radii are compared against them within
    ``n * tol * max(1, rho_max)``.  When
    ``sandwich_samples`` > 0, the same comparison (against the original
    extrema) reruns for n <= min(3, n_max) on the set enlarged by that many
    random convex combinations of members, exercising stability over
    intermediate sets between the family and its convex hull.  Each run
    counts the products it builds over its m members to its longest length
    against the guard, both before any draw.  One sweep of
    the enlarged set yields its checks and, from its member-only words, the
    family's up to length 3, unless the members are out of sorted order.
    """
    if n_max < 1:
        raise DomainError(f"n_max must be >= 1, got {n_max}")
    if sandwich_samples < 0:
        raise DomainError(f"sandwich_samples must be >= 0, got {sandwich_samples}")
    _require_tol(tol)
    expanded = expr_expand(s, size_guard)
    _require_square_set(expanded)
    if not expanded.is_nonnegative:
        raise DomainError("finiteness check requires nonnegative matrices")

    def run(levels, sandwich: bool):
        for n, ((hv, hw), (cv, cw), *_) in enumerate(levels, 1):
            lo, hi = float(np.exp(cv / n)), float(np.exp(hv / n))
            yield FinitenessCheck(
                n=n, sandwich=sandwich, rho_check_n=lo, rho_hat_n=hi,
                dev_min=abs(lo - rho_min), dev_max=abs(hi - rho_max),
                tol_n=n * tol * max(1.0, rho_max), word_min=cw, word_max=hw,
            )

    m, k, short = expanded.size, sandwich_samples, min(3, n_max)
    for words in (_words_built(m, n_max, False),
                  k and _words_built(m + k, short, False)):
        if words > size_guard:
            raise GuardExceededError(words, size_guard)
    levels, sandwich = [], []
    if k > 0:
        rng = np.random.default_rng(seed)
        stack = np.array([*expanded.matrices, *(convex_combination(
            rng, expanded, m) for _ in range(k))])
        flat = stack.reshape(len(stack), -1)  # deduplicated as ExplicitSet is
        order = np.lexsort(flat.T[::-1])  # stable: repeats follow the first
        keep = order[np.r_[True, (flat[order[1:]] != flat[order[:-1]]).any(1)]]
        inner = keep < m  # members in order share the family's word order
        inner = inner if np.array_equal(keep[inner], np.arange(m)) else None
        sandwich = _sweep(ExplicitSet(stack[keep], dedup=False), short,
                          size_guard, norms=False, inner=inner)
        if inner is not None:
            letter = (np.cumsum(inner) - 1).tolist()
            levels = [tuple((v, tuple(letter[a] for a in w)) for v, w in lv[4:])
                      for lv in sandwich]
    if len(levels) < n_max:
        levels += _sweep(expanded, n_max, size_guard, first=len(levels) + 1,
                         norms=False)
    rho_max, rho_min = (float(np.exp(v)) for v, _ in levels[0][:2])  # length 1
    checks = [*run(levels, False), *run(sandwich, True)]
    failures = tuple(c for c in checks if not c.ok)
    return FinitenessReport(
        passed=not failures,
        rho_min=rho_min,
        rho_max=rho_max,
        checks=tuple(checks),
        failures=failures,
    )


@dataclass(frozen=True)
class ConvexHullReport:
    """Norm lower bounds for products of convex combinations.

    Checks, for sampled words of convex combinations C_i of the family,
    that ||C_n ... C_1|| >= (rho_check_n ** n) / N - tol in the l1 operator
    norm, and that every sampled product A satisfies ||A e||_1 >= rho(A).
    """

    n: int
    samples: int
    rho_check_n: float
    threshold_power: float
    min_norm_seen: float
    norm_failures: int
    srbound_failures: int

    @property
    def passed(self) -> bool:
        return self.norm_failures == 0 and self.srbound_failures == 0


def conv_lsr_check(s, n: int, samples: int, seed: int,
                   tol: float = 1e-9,
                   size_guard: int = DEFAULT_SIZE_GUARD) -> ConvexHullReport:
    """Sampled verification of the convex-hull norm bound at word length n."""
    s = expr_expand(s, size_guard)
    _require_square_set(s)
    if not s.is_nonnegative:
        raise DomainError("convex-hull check requires nonnegative matrices")
    if samples < 1:
        raise DomainError("samples must be at least 1")
    _require_tol(tol)
    dim = s.shape[0]
    rho_check_n, _ = rho_n_bruteforce(s, n, "min", size_guard)
    threshold_power = rho_check_n ** n / dim
    rng = np.random.default_rng(seed)
    prods = []
    for _ in range(samples):
        prod = convex_combination(rng, s, s.size)
        for _ in range(n - 1):
            prod = convex_combination(rng, s, s.size) @ prod
        prods.append(prod)
    norms = np.array([l1_operator_norm(p) for p in prods])
    image_mass = np.array([np.abs(p @ np.ones(dim)).sum() for p in prods])
    norm_failures = int(np.sum(norms < threshold_power - tol))
    srbound_failures = int(np.sum(image_mass < spectral_radii(prods) - tol))
    return ConvexHullReport(
        n=n,
        samples=samples,
        rho_check_n=rho_check_n,
        threshold_power=threshold_power,
        min_norm_seen=float(norms.min()),
        norm_failures=norm_failures,
        srbound_failures=srbound_failures,
    )
