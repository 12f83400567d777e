"""Extremal images, order dichotomy decisions, and extremal certificates.

For every positive vector ``w``, each family in the class (IRU families,
ordered chains, their Minkowski sums, products and scalings, {0} and {I})
has a member with the componentwise largest image ``A w`` and one with the
smallest; ``extremal_pick`` builds it from the structure, without expanding
the family.

For a family ``S`` of positive matrices, a matrix ``A~`` in ``S`` and a
positive vector ``u`` with ``v = A~ u``, the family passes the dichotomy
when the images ``A u`` either all lie componentwise above ``v``, or some
member lies weakly below ``v`` with a genuine gap somewhere (and the mirror
statement with the directions swapped).  The member with the extremal image
at ``u`` decides this exactly, so every family in the class passes (the
paper's theorem); for other sets only a sampled refutation is possible.

The same images yield checkable certificates of spectral extremality: if
the Perron vector of a candidate member dominates (or is dominated by)
the whole family in the appropriate direction, the candidate's spectral
radius is the family minimum (maximum), and the inequality margins are the
certificate.  Families with a negative entry are refused.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .linalg import (
    BATCH_ENTRIES,
    DimensionMismatchError,
    DomainError,
    ROW_SUMS_OVERFLOW,
    PerronCertificate,
    as_matrix,
    as_vector,
    perron_vector,
    strict_tolerance,
)
from .sets import (
    DEFAULT_SIZE_GUARD,
    LEAVES,
    ExplicitSet,
    IruSet,
    Product,
    Scale,
    Sum,
    as_explicit,
    contains_matrix,
    dedup_tolerance,
    expr_expand,
    in_class,
)


class CertificationError(RuntimeError):
    """Candidate failed extremality certification; details say where."""

    def __init__(self, message: str, violator=None):
        super().__init__(message)
        self.violator = violator


def _choose(images: np.ndarray, incumbents, tol: float, slots=True):
    """(indices, extrema, ties) per batch member among sign-adjusted
    candidates: an IRU leaf's ``row_images`` (-inf outside ``slots``) or a
    chain's or explicit leaf's member images, as a batch of one."""
    best = images.max(axis=1)
    gaps = best[:, None] - images
    if gaps.ndim == 3:
        gaps = gaps.max(axis=2)  # a member's worst component
    near = (gaps <= tol) & slots
    held = np.array([-1 if j is None else j for j in incumbents])
    at = np.arange(held.size)
    picks = np.where((held >= 0) & near[at, held], held, gaps.argmin(axis=1))
    if not (picked := near[at, picks]).all():  # finite members and w: overflow
        b = int(picked.argmin())
        raise DomainError(ROW_SUMS_OVERFLOW if not np.isfinite(best[b]).all()
                          else "no explicit-leaf member has an extremal image")
    return picks.tolist(), best, np.count_nonzero(near, axis=1) > 1


def extremal_pick(e, w: np.ndarray, sign: float, keep, tol: float) -> tuple:
    """``(matrix, image, choices, ties)``: the member of a set or tree with
    the componentwise largest (``sign`` +1) or smallest (-1) image at
    ``w >= 0``, built without expansion.  IRU leaves pick row by row, chains
    and explicit leaves the member within ``tol`` of the extremum everywhere
    (else DomainError), sums add picks, products pick right to left at the
    image of the factors to their right, scalings scale.  ``image`` is the
    componentwise extremum over all members.  ``choices`` (one row index per
    IRU row position, one member index per other leaf) follow the visiting
    order: sums left to right, products right to left.  ``keep`` iterates
    the incumbent choices in that order (None for no incumbent); one moves
    only when its gain exceeds ``tol``, ties to the smallest index.
    ``ties`` flags, per choice, two candidates within ``tol`` of the
    extremum.  Negative leaves raise DomainError.
    """
    if isinstance(e, LEAVES):
        if not e.is_nonnegative:
            raise DomainError("extremal images require nonnegative leaves")
        if isinstance(e, IruSet):
            js, best, ties = _choose(sign * e.row_images(w, -sign * math.inf),
                                     [next(keep) for _ in e.row_sets], tol,
                                     e.slots)
            return e.assemble(js), sign * best, tuple(js), tuple(ties.tolist())
        [j], [best], [tied] = _choose((sign * (e.matrices @ w))[None],
                                      [next(keep)], tol)
        return e.matrices[j], sign * best, (j,), (bool(tied),)
    if isinstance(e, Sum):
        matrices, images, choices, ties = zip(*(
            extremal_pick(c, w, sign, keep, tol) for c in e.children))
        return sum(matrices), sum(images), sum(choices, ()), sum(ties, ())
    if isinstance(e, Product):
        matrix, choices, ties = np.eye(w.size), (), ()
        for child in reversed(e.children):
            factor, w, picked, tied = extremal_pick(child, w, sign, keep, tol)
            matrix, choices, ties = factor @ matrix, choices + picked, ties + tied
        return matrix, w, choices, ties
    if isinstance(e, Scale):
        matrix, image, choices, ties = extremal_pick(e.child, e.factor * w,
                                                     sign, keep, tol)
        return e.factor * matrix, image, choices, ties
    raise TypeError(f"unknown expression node {type(e).__name__}")


@dataclass(frozen=True)
class HourglassOutcome:
    """Result of one exact dichotomy decision.

    ``direction`` is "H1" (all images above, or witness below) or "H2" (the
    mirror).  For verdict "witness", ``slack`` is v - Abar u (H1) or
    Abar u - v (H2): nonnegative up to the strict tolerance and strictly
    positive in the replaced component.  For verdict "all_on_side",
    ``slack`` holds the worst-case margins over the whole family.  ``ties``
    flags comparisons that fell inside the tolerance band, in which case
    the conservative all-on-side branch was taken.
    """

    direction: str
    verdict: str
    slack: np.ndarray
    witness_matrix: np.ndarray | None = None
    witness_position: tuple[int, int] | None = None
    ties: bool = False

    @property
    def all_on_side(self) -> bool:
        return self.verdict == "all_on_side"


def _hourglass_iru(s: IruSet, a_tilde, u, sign: int) -> HourglassOutcome:
    """Shared H1/H2 decision; sign=+1 looks for a row below, -1 for one above."""
    if not isinstance(s, IruSet):
        raise TypeError(f"hourglass decisions need an IruSet, got {type(s).__name__}")
    if not s.is_positive:
        raise DomainError("hourglass decisions require a positive IRU set")
    u = as_vector(u)
    if u.size != s.n_cols:
        raise DimensionMismatchError(
            f"u has length {u.size}, row sets have dimension {s.n_cols}"
        )
    if not np.all(u > 0):
        raise DomainError("u must be strictly positive")
    choice = tuple(a_tilde)
    tilde = s.assemble(choice)  # checks the choice
    v = tilde @ u
    stol = strict_tolerance(v)

    direction = "H1" if sign > 0 else "H2"
    # Every image lies on the required side iff the extremal one does.
    _, image, _, ties = extremal_pick(s, u, -sign, itertools.repeat(None), stol)
    margins = sign * (image - v)
    offenders = margins < -stol
    if not offenders.any():
        return HourglassOutcome(direction=direction, verdict="all_on_side",
                                slack=margins, ties=any(ties))
    i = int(np.argmax(offenders))  # first offending row position
    rows = s.row_sets[i]
    gaps = sign * (v[i] - rows @ u)  # positive where a row falls beyond v
    j = int(np.argmax(gaps > stol))  # its first offending row
    near = np.abs(gaps) <= stol
    near[choice[i]] = False  # the chosen row matches v by construction
    bar = tilde.copy()
    bar[i] = rows[j]
    return HourglassOutcome(
        direction=direction,
        verdict="witness",
        slack=sign * (v - bar @ u),
        witness_matrix=bar,
        witness_position=(i, j),
        ties=any(ties[:i]) or bool(near.any()),  # rows scanned up to the witness
    )


def hourglass_h1_iru(s: IruSet, a_tilde, u) -> HourglassOutcome:
    """Exact H1 decision on an IRU family.

    With ``v = A~ u``: either every member satisfies ``A u >= v`` (up to the
    strict tolerance), or a witness ``Abar`` obtained by swapping exactly
    one row of ``A~`` satisfies ``Abar u <= v`` with ``Abar u != v``.  The
    first offending (row position, row index) in lexicographic order is
    swapped in.
    """
    return _hourglass_iru(s, a_tilde, u, sign=+1)


def hourglass_h2_iru(s: IruSet, a_tilde, u) -> HourglassOutcome:
    """Exact H2 decision on an IRU family (mirror image of H1)."""
    return _hourglass_iru(s, a_tilde, u, sign=-1)


@dataclass(frozen=True)
class ProbeViolation:
    trial: int
    direction: str
    center_index: int
    u: np.ndarray


@dataclass(frozen=True)
class ProbeReport:
    """Outcome of a dichotomy probe on a positive family; ``note`` says
    whether sampling or the theorem (``hourglass_probe``) answered.

    A sampled pass means no sampled (center, u) pair violated either
    statement: evidence only, never a proof.  Violations are conclusive
    refutations and are listed in trial order.
    """

    passed: bool
    trials: int
    violations: tuple[ProbeViolation, ...]
    note: str = (
        "sampled check only: PASS does not prove the dichotomy for all pairs"
    )


def _draws_per_trial(rng, k: int, n: int, trials: int):
    """The probe's draws, one generator call after another: the contract."""
    centers, us = zip(*[(rng.integers(0, k), np.exp(rng.uniform(
        np.log(0.1), np.log(10.0), size=n))) for _ in range(trials)])
    return np.array(centers), np.array(us)


def _probe_draws(seed: int, k: int, n: int, trials: int):
    """``_draws_per_trial(default_rng(seed), ...)`` bit for bit from one raw
    PCG64 block: centers are Lemire's ``(half * k) >> 32`` (even trials: low
    half of a fresh output; odd: the high half kept; k = 1: none), uniforms
    ``uniform``'s on the others.  Rejections or k >= 2**32 run the loop."""
    fresh = int(k > 1)  # outputs per pair of trials for their centers
    raw = np.random.PCG64(seed).random_raw((-(-trials // 2), fresh + 2 * n))
    rng = np.random.default_rng(seed)
    halves = raw[:, :1] >> np.uint64([0, 32]) & 0xFFFFFFFF  # low, high
    scaled = halves.ravel()[:trials] * np.uint64(k)
    if k > 0xFFFFFFFF or ((scaled & 0xFFFFFFFF) < (2**32 - k) % k).any():
        return _draws_per_trial(rng, k, n, trials)
    logs = rng.uniform(np.log(0.1), np.log(10.0), size=raw.shape)
    return ((scaled >> 32).astype(np.int64),
            np.exp(logs[:, fresh:].reshape(-1, n)[:trials]))


def hourglass_probe_explicit(s, trials: int, seed: int) -> ProbeReport:
    """Sampled H1/H2 refutation probe over a positive family.

    A family other than an explicit set is expanded under the default guard
    first.  Each trial draws a center matrix uniformly and a positive vector
    ``u`` with log-uniform coordinates in [0.1, 10], sets ``v`` to the
    center's image, and scans the whole set for each statement: all images
    on the required side, or some member weakly beyond ``v`` with a strict
    gap.  A trial violates a statement when neither branch holds.  Both are
    decided from each member's largest and smallest row gap ``v - A u``: H1
    fails when some member's largest gap exceeds the strict tolerance of
    ``v`` and no such member keeps its smallest gap within it; H2 mirrors
    this.  The per-trial draws of ``_draws_per_trial`` are the contract.
    """
    s = as_explicit(s)
    if not s.is_positive:
        raise DomainError("the dichotomy probe requires a positive set")
    if trials < 1:
        raise DomainError("trials must be at least 1")
    mats, n = s.matrices, s.shape[1]
    # Every image at u <= 10 is at most ten row sums.  Row means cannot
    # overflow, and a Python product overflows to inf without a warning.
    if float(np.matmul(mats, np.full(n, 1.0 / n)).max()) * 10 * n == math.inf:
        raise DomainError(ROW_SUMS_OVERFLOW)
    centers, us = _probe_draws(seed, s.size, n, trials)
    # Members on the contiguous last axis, so that every elementwise op and
    # every row max/min spans the whole set rather than a member's rows.
    cols = np.ascontiguousarray(mats.transpose(2, 1, 0))  # column, row, member
    # Every image is summed column by column in one order, the centers'
    # (row, trial) included, so a center's image equals its member's.
    v = cols[0][:, centers] * us[:, 0]
    for j in range(1, n):
        v += cols[j][:, centers] * us[:, j]
    stol = strict_tolerance(v.T)[:, None]
    step = max(1, BATCH_ENTRIES // mats[..., 0].size)  # trials per batch
    flags = np.empty((trials, 2), dtype=bool)  # H1, H2 violated
    for start in range(0, trials, step):
        at = slice(start, start + step)
        u = us[at].T[:, :, None]  # column, trial, -
        images = cols[0][:, None] * u[0]  # row, trial, member
        for j in range(1, n):
            images += cols[j][:, None] * u[j]
        diff = np.subtract(v[:, at, None], images, out=images)
        above = diff.max(axis=0) > stol[at]  # trial, member
        below = diff.min(axis=0) < -stol[at]
        flags[at, 0] = above.any(axis=1) & ~(above & ~below).any(axis=1)
        flags[at, 1] = below.any(axis=1) & ~(below & ~above).any(axis=1)
    violations = tuple(
        ProbeViolation(int(t), ("H1", "H2")[d], int(centers[t]), us[t])
        for t, d in np.argwhere(flags))
    return ProbeReport(passed=not violations, trials=trials,
                       violations=violations)


THEOREM_NOTE = ("answered by the theorem: the family is in the class, so no "
                "(center, u) pair violates the dichotomy")


def hourglass_probe(e, trials: int, seed: int,
                    size_guard: int = DEFAULT_SIZE_GUARD) -> ProbeReport:
    """The dichotomy probe; input outside the class (``in_class``) is
    expanded under ``size_guard`` and sampled (``hourglass_probe_explicit``).

    In the class the theorem answers, unexpanded: the member with the
    smallest image at u lies weakly below every center's image, so it is a
    witness unless all images are on the H1 side (H2 mirrors this).  The
    sampled probe's refusals stay: row-sum overflow from the largest image
    at u = 1/n, positivity from the smallest at each e_j (the columns of
    the family's entrywise minimum).
    """
    if not in_class(e):
        return hourglass_probe_explicit(expr_expand(e, size_guard), trials,
                                        seed)

    def image(w, sign):  # the images are exact extrema whatever is picked
        return extremal_pick(e, w, sign, itertools.repeat(None), math.inf)[1]

    n = e.shape[1]
    with np.errstate(over="ignore", invalid="ignore"):  # refused below
        means = image(np.full(n, 1.0 / n), 1.0)
        columns = [image(w, -1.0) for w in np.eye(n)]
    if not float(means.max()) * 10 * n < math.inf:  # inf or NaN
        raise DomainError(ROW_SUMS_OVERFLOW)
    if not all((c > 0).all() for c in columns):
        raise DomainError("the dichotomy probe requires a positive set")
    if trials < 1:
        raise DomainError("trials must be at least 1")
    return ProbeReport(passed=True, trials=trials, violations=(),
                       note=THEOREM_NOTE)


@dataclass(frozen=True)
class ExtremalCertificate:
    """Checkable witness that a member extremizes the spectral radius.

    ``margins`` holds, for every admissible row (IRU input), member matrix
    (explicit input) or component of the extremal image (chains and
    expression trees), the worst-case slack in the defining inequality
    A v >= rho v (direction "min") or A v <= rho v ("max") evaluated at the
    candidate's Perron vector v.  All margins >= -cert_tol, with
    ``cert_tol = 1e-10 rho``, certifies that every length-n product over the
    family's convex hull has spectral radius >= rho**n (min) or <= rho**n
    (max), up to that relative tolerance.
    """

    direction: str
    extremal_matrix: np.ndarray
    perron: PerronCertificate
    margins: np.ndarray
    worst_margin: float
    cert_tol: float

    @property
    def rho(self) -> float:
        return self.perron.rho


def certify_extremal(s, candidate, direction: str) -> ExtremalCertificate:
    """Certify that ``candidate`` attains the extremal spectral radius of ``s``.

    Any family is taken.  The candidate must be a strictly positive member
    of ``s`` within ``dedup_tolerance`` (IRU rows are matched row by row;
    other families go through ``contains_matrix``, which expands them
    under the default guard).  Its Perron vector ``v`` is computed and the
    family is scanned: for direction "min" every admissible row ``a`` of
    row position i must satisfy ``a . v >= rho * v_i - cert_tol`` (for IRU
    input the scan is per row set, which is exact and costs the sum of the
    row-set sizes instead of their product); for explicit input every
    member A, and for chains and trees the extremal image, must satisfy
    ``A v >= rho v - cert_tol`` componentwise.  Direction "max" mirrors
    the inequalities.  ``cert_tol`` is 1e-10 rho, so scaling the family
    scales every margin and its tolerance alike.

    Raises CertificationError naming the violating row or matrix if the
    margins fail, or if the candidate is not a member of the family, and
    DomainError if the family has a negative entry.
    """
    if direction not in ("min", "max"):
        raise DomainError(f"direction must be 'min' or 'max', got {direction!r}")
    candidate = as_matrix(candidate)
    if isinstance(s, IruSet):
        if candidate.shape != s.shape:
            raise CertificationError(
                f"candidate shape {candidate.shape} does not match set {s.shape}"
            )
        strays = []  # row positions whose candidate row no admissible row matches
        for positions, rows in s.groups:
            dists = np.abs(rows - candidate[positions, None]).max(axis=2)
            strays += positions[dists.min(axis=1) > dedup_tolerance(rows, (1, 2))
                                ].tolist()
        if strays:
            raise CertificationError(f"candidate row {min(strays)} is not an "
                                     "admissible row", violator=min(strays))
    elif contains_matrix(s, candidate) is None:
        raise CertificationError("candidate is not a member of the set")
    perron = perron_vector(candidate)
    return _certify_margins(s, candidate, perron, direction)


def _certify_margins(s, candidate: np.ndarray, perron: PerronCertificate,
                     direction: str) -> ExtremalCertificate:
    """Scan ``s`` against a member's Perron pair at ``cert_tol = 1e-10 rho``
    (see ``certify_extremal``); chains and trees get one margin per
    component of their extremal image."""
    sign = 1.0 if direction == "min" else -1.0
    v, cert_tol = perron.eigenvector, 1e-10 * perron.rho
    if isinstance(s, LEAVES) and not s.is_nonnegative:
        # A v <= rho v bounds the radius of no member with a negative entry.
        raise DomainError("certificates require a nonnegative family")
    if isinstance(s, IruSet):
        margins = (sign * (s.row_images(v) - perron.rho * v[:, None]))[s.slots]
    elif isinstance(s, ExplicitSet):
        margins = (sign * (s.matrices @ v - perron.rho * v[None, :])).min(axis=1)
    else:
        image = extremal_pick(s, v, -sign, itertools.repeat(None), cert_tol)[1]
        margins = sign * (image - perron.rho * v)
    k = int(margins.argmin())
    if margins[k] < -cert_tol:
        if isinstance(s, IruSet):
            violator = tuple(int(at[k]) for at in np.nonzero(s.slots))
            where = f"row {violator[1]} of row set {violator[0]}"
        elif isinstance(s, ExplicitSet):
            violator, where = k, f"member {k}"
        else:
            violator, where = k, f"component {k} of the extremal image"
        raise CertificationError(
            f"{where} violates the {direction} inequality by {-margins[k]:.3e}",
            violator=violator,
        )
    return ExtremalCertificate(
        direction=direction,
        extremal_matrix=candidate,
        perron=perron,
        margins=margins,
        worst_margin=float(margins.min()),
        cert_tol=float(cert_tol),
    )
