"""Order dichotomy decisions for structured matrix sets, plus extremal
certificates.

For a family ``S`` of positive matrices, a matrix ``A~`` in ``S`` and a
positive vector ``u`` with ``v = A~ u``, the family passes the dichotomy
when the images ``A u`` either all lie componentwise above ``v``, or some
member lies weakly below ``v`` with a genuine gap somewhere (and the mirror
statement with the directions swapped).  Row-independent families satisfy
both statements exactly, and the decision reduces to one scan per row set;
for arbitrary explicit sets only a sampled refutation is possible.

The same machinery yields checkable certificates of spectral extremality:
if the Perron vector of a candidate member dominates (or is dominated by)
the whole family in the appropriate direction, the candidate's spectral
radius is the family minimum (maximum), and the inequality margins are the
certificate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import (
    DimensionMismatchError,
    DomainError,
    PerronCertificate,
    as_matrix,
    as_vector,
    perron_vector,
    strict_tolerance,
)
from .sets import (
    ExplicitSet,
    IruSet,
    contains_matrix,
    dedup_tolerance,
)


class CertificationError(RuntimeError):
    """Candidate failed extremality certification; details say where."""

    def __init__(self, message: str, violator=None):
        super().__init__(message)
        self.violator = violator


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


def _hourglass_iru(s: IruSet, a_tilde, u, strict_tol, sign: int) -> HourglassOutcome:
    """Shared H1/H2 scan; sign=+1 looks for a row below, -1 for one above."""
    if not s.is_positive:
        raise DomainError("hourglass decisions require a positive IRU set")
    u = as_vector(u)
    if u.size != s.n_cols:
        raise DimensionMismatchError(
            f"u has length {u.size}, row sets have dimension {s.n_cols}"
        )
    if not np.all(u > 0):
        raise DomainError("u must be strictly positive")
    choice = tuple(int(j) for j in a_tilde)
    tilde = s.assemble(choice)  # validates indices
    v = tilde @ u
    stol = strict_tolerance(v) if strict_tol is None else strict_tol

    direction = "H1" if sign > 0 else "H2"
    ties = False
    margins = np.empty(s.n_rows)
    for i, rs in enumerate(s.row_sets):
        scores = rs.rows @ u
        gaps = sign * (v[i] - scores)  # positive where the row falls beyond v
        near = np.abs(gaps) <= stol
        near[choice[i]] = False  # the chosen row matches v by construction
        ties = ties or bool(near.any())
        offenders = gaps > stol
        if offenders.any():
            j = int(np.argmax(offenders))  # first offending row index
            bar = tilde.copy()
            bar[i] = rs.rows[j]
            slack = sign * (v - bar @ u)
            return HourglassOutcome(
                direction=direction,
                verdict="witness",
                slack=slack,
                witness_matrix=bar,
                witness_position=(i, j),
                ties=ties,
            )
        margins[i] = -float(gaps.max())
    return HourglassOutcome(
        direction=direction, verdict="all_on_side", slack=margins, ties=ties
    )


def hourglass_h1_iru(s: IruSet, a_tilde, u,
                     strict_tol: float | None = None) -> HourglassOutcome:
    """Exact H1 decision on an IRU family.

    With ``v = A~ u``: either every member satisfies ``A u >= v`` (up to the
    strict tolerance), or a witness ``Abar`` obtained by swapping exactly
    one row of ``A~`` satisfies ``Abar u <= v`` with ``Abar u != v``.  The
    first offending (row position, row index) in lexicographic order is
    swapped in.
    """
    return _hourglass_iru(s, a_tilde, u, strict_tol, sign=+1)


def hourglass_h2_iru(s: IruSet, a_tilde, u,
                     strict_tol: float | None = None) -> HourglassOutcome:
    """Exact H2 decision on an IRU family (mirror image of H1)."""
    return _hourglass_iru(s, a_tilde, u, strict_tol, sign=-1)


@dataclass(frozen=True)
class ProbeViolation:
    trial: int
    direction: str
    center_index: int
    u: np.ndarray


@dataclass(frozen=True)
class ProbeReport:
    """Outcome of a sampled dichotomy probe on an explicit set.

    A pass means no sampled (center, u) pair violated either statement; it
    is evidence only, never a proof, since the probe samples finitely many
    of the uncountably many admissible pairs.  Violations are conclusive
    refutations and are listed in trial order.
    """

    passed: bool
    trials: int
    violations: tuple[ProbeViolation, ...]
    note: str = (
        "sampled check only: PASS does not prove the dichotomy for all pairs"
    )


def hourglass_probe_explicit(s: ExplicitSet, trials: int, seed: int,
                             strict_tol: float | None = None) -> ProbeReport:
    """Sampled H1/H2 refutation probe over an explicit positive set.

    Each trial draws a center matrix uniformly and a positive vector with
    log-uniform coordinates in [0.1, 10], sets ``v`` to the center's image,
    and scans the whole set for each statement: all images on the required
    side, or some member weakly beyond ``v`` with a strict gap.  A trial
    violates a statement when neither branch holds.
    """
    if not s.is_positive:
        raise DomainError("the dichotomy probe requires a positive set")
    if trials < 1:
        raise DomainError("trials must be at least 1")
    rng = np.random.default_rng(seed)
    mats = s.matrices
    violations = []
    for t in range(trials):
        center = int(rng.integers(0, s.size))
        u = np.exp(rng.uniform(np.log(0.1), np.log(10.0), size=s.shape[1]))
        v = mats[center] @ u
        stol = strict_tolerance(v) if strict_tol is None else strict_tol
        images = mats @ u  # (size, n_rows)
        for sign, direction in ((+1, "H1"), (-1, "H2")):
            gaps = sign * (v[None, :] - images)
            if bool((gaps <= stol).all()):
                continue  # every image on the required side
            beyond = (gaps >= -stol).all(axis=1) & (gaps.max(axis=1) > stol)
            if bool(beyond.any()):
                continue  # witness exists
            violations.append(
                ProbeViolation(trial=t, direction=direction,
                               center_index=center, u=u)
            )
    return ProbeReport(
        passed=not violations, trials=trials, violations=tuple(violations)
    )


@dataclass(frozen=True)
class ExtremalCertificate:
    """Checkable witness that a member extremizes the spectral radius.

    ``margins`` holds, for every admissible row (IRU input) or member
    matrix (explicit input), the worst-case slack in the defining
    inequality A v >= rho v (direction "min") or A v <= rho v ("max")
    evaluated at the candidate's Perron vector v.  All margins >= -cert_tol
    certifies that every length-n product over the family's convex hull has
    spectral radius >= rho**n (min) or <= rho**n (max).
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


_PERRON_TOL = 1e-12


def certify_extremal(s, candidate, direction: str,
                     cert_tol: float) -> ExtremalCertificate:
    """Certify that ``candidate`` attains the extremal spectral radius of ``s``.

    The candidate must be a member of ``s`` (within the dedup tolerance)
    and strictly positive.  Its Perron vector ``v`` is computed and the
    family is scanned: for direction "min" every admissible row ``a`` of
    row position i must satisfy ``a . v >= rho * v_i - cert_tol`` (for IRU
    input the scan is per row set, which is exact and costs the sum of the
    row-set sizes instead of their product); for explicit input every
    member A must satisfy ``A v >= rho v - cert_tol`` componentwise.
    Direction "max" mirrors the inequalities.

    Raises CertificationError naming the violating row or matrix if the
    margins fail, or if the candidate is not a member of the family.
    """
    if direction not in ("min", "max"):
        raise DomainError(f"direction must be 'min' or 'max', got {direction!r}")
    candidate = as_matrix(candidate)
    sign = 1.0 if direction == "min" else -1.0

    if isinstance(s, IruSet):
        if candidate.shape != s.shape:
            raise CertificationError(
                f"candidate shape {candidate.shape} does not match set {s.shape}"
            )
        for i, rs in enumerate(s.row_sets):
            tol_i = dedup_tolerance(rs.rows)
            dists = np.abs(rs.rows - candidate[i][None, :]).max(axis=1)
            j = int(dists.argmin())
            if dists[j] > tol_i:
                raise CertificationError(
                    f"candidate row {i} is not an admissible row", violator=i
                )
        perron = perron_vector(candidate, tol=min(_PERRON_TOL, cert_tol))
        v = perron.eigenvector
        margins = np.concatenate([
            sign * (rs.rows @ v - perron.rho * v[i])
            for i, rs in enumerate(s.row_sets)
        ])
        if margins.min() < -cert_tol:
            flat = int(margins.argmin())
            # Recover (row position, row index) from the flat offset.
            for i, rs in enumerate(s.row_sets):
                if flat < rs.size:
                    raise CertificationError(
                        f"row {flat} of row set {i} violates the "
                        f"{direction} inequality by {-margins.min():.3e}",
                        violator=(i, flat),
                    )
                flat -= rs.size
    elif isinstance(s, ExplicitSet):
        member = contains_matrix(s, candidate)
        if member is None:
            raise CertificationError("candidate is not a member of the set")
        perron = perron_vector(candidate, tol=min(_PERRON_TOL, cert_tol))
        v = perron.eigenvector
        diffs = sign * (s.matrices @ v - perron.rho * v[None, :])
        margins = diffs.min(axis=1)
        if margins.min() < -cert_tol:
            k = int(margins.argmin())
            raise CertificationError(
                f"member {k} violates the {direction} inequality "
                f"by {-margins.min():.3e}",
                violator=k,
            )
    else:
        raise TypeError(f"cannot certify over {type(s).__name__}")

    return ExtremalCertificate(
        direction=direction,
        extremal_matrix=candidate,
        perron=perron,
        margins=margins,
        worst_margin=float(margins.min()),
        cert_tol=float(cert_tol),
    )
