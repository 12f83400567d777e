"""Dense kernels for nonnegative-matrix spectral analysis.

Matrices are plain 2-D float numpy arrays and vectors are 1-D arrays; there
is no wrapper type.  The module provides two independent spectral-radius
algorithms (an irreducible-blockwise power iteration and a norm-of-squared-
powers scheme) so that each can serve as a cross-check for the other, plus
Perron eigenvector certificates and eigenvalue bound classification for
nonnegative matrices.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse import csgraph
from scipy.sparse import csr_matrix

DEFAULT_TOL = 1e-10
DEFAULT_MAX_ITER = 100_000
GELFAND_MAX_SQUARINGS = 60


class DimensionMismatchError(ValueError):
    """Operand shapes do not compose."""


class DomainError(ValueError):
    """Input lies outside an operation's domain (sign, finiteness, range)."""


class ConvergenceError(RuntimeError):
    """Iteration cap reached; ``estimate`` carries the best value so far and
    ``trace`` the steps an iterative search visited before giving up."""

    def __init__(self, message: str, estimate: float, trace: tuple = ()):
        super().__init__(f"{message} (best estimate {estimate!r})")
        self.estimate = estimate
        self.trace = trace


def as_matrix(a) -> np.ndarray:
    """Coerce to a finite 2-D float array."""
    arr = np.asarray(a, dtype=float)
    if arr.ndim != 2 or arr.size == 0:
        raise DimensionMismatchError(
            f"expected a nonempty 2-D array, got shape {arr.shape}"
        )
    if not np.all(np.isfinite(arr)):
        raise DomainError("matrix entries must be finite")
    return arr


def as_square(a) -> np.ndarray:
    arr = as_matrix(a)
    if arr.shape[0] != arr.shape[1]:
        raise DimensionMismatchError(f"expected a square matrix, got {arr.shape}")
    return arr


def as_vector(u) -> np.ndarray:
    """Coerce to a finite 1-D float array."""
    arr = np.asarray(u, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise DimensionMismatchError(
            f"expected a nonempty 1-D array, got shape {arr.shape}"
        )
    if not np.all(np.isfinite(arr)):
        raise DomainError("vector entries must be finite")
    return arr


def is_nonnegative(a) -> bool:
    return bool(np.all(np.asarray(a) >= 0))


def is_positive(a) -> bool:
    return bool(np.all(np.asarray(a) > 0))


def strict_tolerance(reference) -> float:
    """Margin below which a componentwise comparison counts as a tie.

    Scaled to the reference data so that "x differs from y" always means a
    quantified gap rather than float noise.
    """
    ref = np.abs(np.asarray(reference, dtype=float))
    scale = float(ref.max()) if ref.size else 0.0
    return 1e-9 * max(1.0, scale)


def mat_mul(a, b) -> np.ndarray:
    """Matrix product with an explicit shape check."""
    a = as_matrix(a)
    b = as_matrix(b)
    if a.shape[1] != b.shape[0]:
        raise DimensionMismatchError(
            f"cannot multiply {a.shape} by {b.shape}: inner dimensions differ"
        )
    return a @ b


def l1_operator_norm(a) -> float:
    """Operator norm induced by the l1 vector norm: max column abs-sum."""
    a = as_matrix(a)
    return float(np.abs(a).sum(axis=0).max())


def _power_shift(a: np.ndarray) -> float:
    # Positive diagonal shift; adds exactly its value to the radius of a
    # nonnegative matrix and makes every irreducible block primitive.
    return max(1e-3, 1e-3 * float(a.max()))


def _bracketed_power(b: np.ndarray, tol: float, max_iter: int) -> float:
    """Power iteration on a nonnegative matrix with positive diagonal.

    For any positive vector x the ratios (Bx)_i / x_i bracket rho(B) from
    both sides, so the bracket width is a computable error bound.  The
    bracket contracts geometrically when B is primitive, which the caller
    guarantees by shifting an irreducible block.
    """
    n = b.shape[0]
    x = np.full(n, 1.0 / n)
    lo, hi = 0.0, np.inf
    for _ in range(max_iter):
        y = b @ x
        ratios = y / x
        lo = float(ratios.min())
        hi = float(ratios.max())
        if hi - lo <= tol:
            return 0.5 * (lo + hi)
        x = y / y.sum()
    raise ConvergenceError(
        f"power iteration bracket still {hi - lo:.3e} wide after {max_iter} steps",
        0.5 * (lo + hi),
    )


def spectral_radius_power(a, tol: float = DEFAULT_TOL,
                          max_iter: int = DEFAULT_MAX_ITER) -> float:
    """Spectral radius of a nonnegative square matrix, certified to ``tol``.

    The matrix is split into its strongly connected (irreducible) diagonal
    blocks; the spectrum is the union of the block spectra, so the radius is
    the maximum block radius.  Blocks of size one are read off directly.
    Larger blocks are shifted by eps*I, which increases their radius by
    exactly eps and makes them primitive, and then iterated until the
    Collatz-Wielandt ratio bracket is narrower than ``tol``.

    Raises ConvergenceError (carrying the best estimate) if some block fails
    to reach the requested bracket width within ``max_iter`` iterations.
    """
    a = as_square(a)
    if np.any(a < 0):
        raise DomainError("spectral_radius_power requires nonnegative entries")
    if tol <= 0:
        raise DomainError("tol must be positive")
    eps = _power_shift(a)
    n_comp, labels = csgraph.connected_components(
        csr_matrix(a > 0), directed=True, connection="strong"
    )
    best = 0.0
    failure = None
    for comp in range(n_comp):
        idx = np.flatnonzero(labels == comp)
        if idx.size == 1:
            rho_c = float(a[idx[0], idx[0]])
        else:
            block = a[np.ix_(idx, idx)] + eps * np.eye(idx.size)
            try:
                rho_c = _bracketed_power(block, tol, max_iter) - eps
            except ConvergenceError as err:
                rho_c = err.estimate - eps
                failure = err
        best = max(best, rho_c)
    if failure is not None:
        raise ConvergenceError(str(failure), best) from failure
    return best


def spectral_radius_gelfand(a, tol: float = DEFAULT_TOL,
                            max_squarings: int = GELFAND_MAX_SQUARINGS) -> float:
    """Spectral radius of any real square matrix via repeated squaring.

    Evaluates the norm root sequence ||A^(2^k)||^(1/2^k) with the l1
    operator norm.  The iterate is rescaled by its norm at every squaring
    and the accumulated scale is tracked as a log in extended precision, so
    implicit powers up to 2^60 cannot overflow or underflow.  Along the
    squaring subsequence the estimates are nonincreasing upper bounds on the
    radius; iteration stops once successive estimates agree to well within
    ``tol`` (or after ``max_squarings``).
    """
    a = as_square(a)
    if tol <= 0:
        raise DomainError("tol must be positive")
    norm = l1_operator_norm(a)
    if norm == 0.0:
        return 0.0
    m = a / norm
    log_scale = np.longdouble(np.log(norm))
    prev = float(np.exp(log_scale))
    power = 1
    for k in range(1, max_squarings + 1):
        m = m @ m
        power *= 2
        norm = l1_operator_norm(m)
        if norm == 0.0:
            # The exact power vanished, so the matrix is nilpotent.
            return 0.0
        m = m / norm
        log_scale = 2.0 * log_scale + np.longdouble(np.log(norm))
        est = float(np.exp(log_scale / power))
        if k >= 4 and abs(est - prev) < 0.25 * tol:
            return est
        prev = est
    return prev


@dataclass(frozen=True)
class PerronCertificate:
    """Eigenpair witness for a positive matrix.

    ``eigenvector`` is strictly positive and normalized to coordinate sum 1;
    ``residual`` is the max-norm of A v - rho v, re-checkable by anyone
    holding the matrix.  ``tol`` records the tolerance the certificate was
    produced under.
    """

    rho: float
    eigenvector: np.ndarray
    residual: float
    tol: float

    def __post_init__(self):
        v = np.asarray(self.eigenvector, dtype=float)
        if self.rho < 0:
            raise DomainError("certificate rho must be nonnegative")
        if not np.all(v > 0):
            raise DomainError("certificate eigenvector must be strictly positive")
        if abs(v.sum() - 1.0) > 1e-12:
            raise DomainError("certificate eigenvector must sum to 1")
        if self.residual > self.tol * max(self.rho, 1.0):
            raise DomainError(
                f"certificate residual {self.residual:.3e} exceeds declared tolerance"
            )

    def verify(self, a) -> float:
        """Recompute the residual against ``a`` and return it."""
        a = as_square(a)
        return float(np.abs(a @ self.eigenvector - self.rho * self.eigenvector).max())


def perron_vector(a, tol: float = DEFAULT_TOL,
                  max_iter: int = DEFAULT_MAX_ITER) -> PerronCertificate:
    """Perron eigenpair of a strictly positive square matrix.

    Iterates x -> A x / sum(A x), keeping the eigenvector candidate on the
    coordinate-sum-1 simplex, until the Collatz-Wielandt bracket around the
    eigenvalue and the eigen-residual both meet ``tol``.  Positivity makes
    the dominant eigenvalue simple, so convergence is geometric.

    Raises DomainError for non-square or non-positive input (nonnegative
    sets must be lifted into the interior first).
    """
    a = as_square(a)
    if not np.all(a > 0):
        raise DomainError(
            "perron_vector requires strictly positive entries; lift the input first"
        )
    if tol <= 0:
        raise DomainError("tol must be positive")
    n = a.shape[0]
    x = np.full(n, 1.0 / n)
    lo, hi = 0.0, np.inf
    for _ in range(max_iter):
        y = a @ x
        ratios = y / x
        lo = float(ratios.min())
        hi = float(ratios.max())
        x = y / y.sum()
        if hi - lo <= tol:
            rho = 0.5 * (lo + hi)
            residual = float(np.abs(a @ x - rho * x).max())
            if residual <= tol * max(rho, 1.0):
                return PerronCertificate(
                    rho=rho, eigenvector=x, residual=residual, tol=tol
                )
    raise ConvergenceError(
        f"Perron iteration did not converge in {max_iter} steps", 0.5 * (lo + hi)
    )


@dataclass(frozen=True)
class BoundVerdict:
    """Which eigenvalue-bound hypotheses hold for a triple (A, u, lam).

    For nonnegative square A these are the standard comparison facts:

    * ``upper``:        A u <= lam u with u > 0          implies rho(A) <= lam
    * ``upper_strict``: plus A > 0 and A u != lam u      implies rho(A) <  lam
    * ``lower``:        A u >= lam u, u >= 0 nonzero,
                        lam >= 0                         implies rho(A) >= lam
    * ``lower_strict``: plus A > 0 and A u != lam u      implies rho(A) >  lam
    """

    upper: bool
    upper_strict: bool
    lower: bool
    lower_strict: bool

    def conclusions(self) -> tuple[str, ...]:
        out = []
        if self.upper:
            out.append("rho <= lambda")
        if self.upper_strict:
            out.append("rho < lambda")
        if self.lower:
            out.append("rho >= lambda")
        if self.lower_strict:
            out.append("rho > lambda")
        return tuple(out)


def classify_bound(a, u, lam: float, tol: float = DEFAULT_TOL) -> BoundVerdict:
    """Classify which spectral bounds (A, u, lam) certifies.

    Comparisons A u <= lam u and A u >= lam u are taken with an absolute
    slack of ``tol`` scaled by max(1, ||lam u||_inf); the inequation
    A u != lam u requires a gap above the strict tolerance so that the
    strict conclusions always rest on a quantified margin.
    """
    a = as_square(a)
    u = as_vector(u)
    if np.any(a < 0):
        raise DomainError("classify_bound requires a nonnegative matrix")
    if u.size != a.shape[0]:
        raise DimensionMismatchError(
            f"vector of length {u.size} does not match matrix of order {a.shape[0]}"
        )
    au = a @ u
    lam_u = lam * u
    slack = tol * max(1.0, float(np.abs(lam_u).max()))
    gap = float(np.abs(au - lam_u).max())
    not_equal = gap > strict_tolerance(lam_u)
    a_pos = is_positive(a)
    u_pos = is_positive(u)
    u_nonneg_nonzero = is_nonnegative(u) and bool(np.any(u > 0))

    le = bool(np.all(au <= lam_u + slack))
    ge = bool(np.all(au >= lam_u - slack))

    upper = u_pos and le
    lower = u_nonneg_nonzero and lam >= 0 and ge
    return BoundVerdict(
        upper=upper,
        upper_strict=upper and a_pos and not_equal,
        lower=lower,
        lower_strict=lower and a_pos and not_equal,
    )
