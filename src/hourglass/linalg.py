"""Dense kernels for nonnegative-matrix spectral analysis, on numpy alone.

Matrices are plain 2-D float numpy arrays and vectors are 1-D arrays; there
is no wrapper type.  ``spectral_radii`` is the one radius rule: ``eigvals``
on each irreducible block, the blocks found by a boolean reachability
closure.  Two independent algorithms cross-check it: a power iteration over
the same blocks and a norm-of-squared-powers scheme.  One Perron loop,
``_perron_loop``, serves that power iteration and starts ``perron_vector``,
whose inverse-iteration polish gives the certified pair to a few ulp
relative at any magnitude.  The Collatz-Wielandt comparison over a family
lives in ``alternative`` (``_certify_margins``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

DEFAULT_TOL = 1e-10
DEFAULT_MAX_ITER = 100_000
GELFAND_MAX_SQUARINGS = 60
BATCH_ENTRIES = 1 << 14  # array entries per batch of the stacked set-layer passes
ROW_SUMS_OVERFLOW = "row sums exceed the float range; rescale the input"


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


def strict_tolerance(reference):
    """Margin below which a componentwise comparison counts as a tie, one
    per vector along the last axis of ``reference`` (a scalar for a vector):
    1e-9 times its largest magnitude, so that it scales with the data."""
    ref = np.abs(np.atleast_1d(np.asarray(reference, dtype=float)))
    return 1e-9 * ref.max(axis=-1, initial=0.0)


def _check_tol(tol: float) -> None:
    if not tol > 0:
        raise DomainError("tol must be positive")
    if tol == math.inf:  # every bracket would pass at the first step
        raise DomainError(f"tol must be finite, got {tol}")


def _reduce(op, a: np.ndarray, axis: int) -> np.ndarray:
    """``op.reduce`` along a short axis, left to right, in elementwise calls
    (numpy's reduction costs far more with a few elements per output)."""
    at = (slice(None),) * axis
    acc = a[at + (0,)].copy()
    for j in range(1, a.shape[axis]):
        op(acc, a[at + (j,)], out=acc)
    return acc


def l1_operator_norm(a) -> float:
    """Operator norm induced by the l1 vector norm: max column abs-sum."""
    a = as_matrix(a)
    return float(np.abs(a).sum(axis=0).max())


def _check_row_sums(y: np.ndarray, n: int) -> None:
    """Raise DomainError if a row sum, ``n * y``, is beyond the float range."""
    # Python floats: an overflowing quotient is inf without a warning.
    if float(np.maximum.reduce(y, None)) / (1.0 / n) == math.inf:
        raise DomainError(ROW_SUMS_OVERFLOW)


def _perron_loop(a: np.ndarray, eps, tol: float, max_iter: int) -> tuple:
    """Radius and Perron vector of an irreducible nonnegative matrix.

    ``a`` is shifted by eps * I (eps: 1e-3 times the largest entry of the
    matrix it comes from), adding exactly eps to its radius and making it
    primitive; the Collatz-Wielandt ratios (Bx)_j / x_j then bracket rho(B)
    and contract until the bracket is at most ``tol`` wide.  A first upper
    bound beyond the float range raises DomainError; brackets only narrow,
    so no later step overflows.  Returns the radius, the width left above
    ``tol`` (else 0), and the coordinate-sum-1 iterate at the stopping
    step, where |A x - rho x| <= width / 2 componentwise.
    """
    n = len(a)
    b, lo, hi = a + eps * np.eye(n), 0.0, math.inf
    x = np.full(n, 1.0 / n)
    for step in range(max_iter):
        y = b @ x
        if step == 0:
            _check_row_sums(y, n)
        ratios = y / x  # ufunc reductions: the array methods cost more per call
        lo, hi = np.minimum.reduce(ratios), np.maximum.reduce(ratios)
        if hi - lo <= tol:
            break
        x = y / np.add.reduce(y)
    # Halve before adding: lo + hi overflows for radii above half the limit.
    rho = np.maximum(0.0, 0.5 * lo + 0.5 * hi - eps)
    return rho, (0.0 if hi - lo <= tol else hi - lo), x


def _irreducible_blocks(a: np.ndarray) -> list:
    """Index arrays of the irreducible diagonal blocks of ``a``: the distinct
    rows of the mutual reachability closure of ``a > 0``."""
    reach = (a > 0) | np.eye(len(a), dtype=bool)
    for _ in range((len(a) - 1).bit_length()):
        reach = reach @ reach
    return [np.flatnonzero(block) for block in np.unique(reach & reach.T, axis=0)]


def _eigvals_radii(stack: np.ndarray) -> np.ndarray:
    """Largest ``|eigvals|`` of each member of a (k, m, m) stack, m >= 2,
    from one LAPACK call, once no row sum is beyond the float range."""
    m = stack.shape[-1]
    _check_row_sums(stack @ np.full(m, 1.0 / m), m)
    try:
        return np.abs(np.linalg.eigvals(stack)).max(-1)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"eigvals failed: {exc}", math.nan) from exc


def _nonnegative_stack(stack) -> np.ndarray:
    stack = np.asarray(stack, dtype=float)
    if stack.ndim != 3 or stack.size == 0 or stack.shape[1] != stack.shape[2]:
        raise DimensionMismatchError(f"expected a nonempty (k, n, n) stack, "
                                     f"got shape {stack.shape}")
    if not np.all(np.isfinite(stack) & (stack >= 0)):
        raise DomainError("spectral radii require finite nonnegative entries")
    return stack


def spectral_radius_power(a, tol: float = DEFAULT_TOL,
                          max_iter: int = DEFAULT_MAX_ITER) -> float:
    """Spectral radius of a nonnegative square matrix, certified to ``tol``:
    the power-iteration cross-check on ``spectral_radii``, which no command
    uses.  Irreducible blocks of one entry are read off; larger ones run
    ``_perron_loop`` (eps = 1e-3 * max entry) to a bracket within ``tol``.

    Raises DomainError if a row sum exceeds the float range, and
    ConvergenceError (carrying the best estimate and the widest failing
    bracket) if some block misses ``tol`` within ``max_iter`` iterations.
    """
    a = _nonnegative_stack(as_square(a)[None])[0]
    _check_tol(tol)
    eps, best, width = 1e-3 * a.max(), 0.0, 0.0
    for idx in _irreducible_blocks(a):
        if idx.size == 1:
            best = max(best, float(a[idx[0], idx[0]]))
        else:
            rho_c, w, _ = _perron_loop(a[np.ix_(idx, idx)], eps, tol, max_iter)
            best, width = max(best, float(rho_c)), max(width, w)
    if width:
        raise ConvergenceError(f"power iteration bracket still {width:.3e} "
                               f"wide after {max_iter} steps", best)
    return best


def spectral_radii(stack) -> np.ndarray:
    """Spectral radius of every member of a nonnegative (k, n, n) stack.

    A member's spectrum is the union of its irreducible blocks' spectra, and
    each block's Perron root is simple, so the largest block ``|eigvals|``
    is the radius to a few ulp relative at any magnitude, a defective
    (Jordan) reducible root included.  Strictly positive members are one
    block each and share one batched LAPACK call; the others are split, and
    their blocks of one entry read off.  Raises DomainError if a block's row
    sum exceeds the float range, and ConvergenceError if LAPACK fails.
    """
    stack = _nonnegative_stack(stack)
    k, n, _ = stack.shape
    radii = np.empty(k)
    pos = (stack > 0).all(axis=(1, 2)) & (n > 1)  # order 1: read off
    if pos.any():
        radii[pos] = _eigvals_radii(stack[pos])
    for i in np.flatnonzero(~pos):
        a = stack[i]
        radii[i] = max(a[idx[0], idx[0]] if idx.size == 1
                       else _eigvals_radii(a[np.ix_(idx, idx)][None])[0]
                       for idx in _irreducible_blocks(a))
    return radii


def spectral_radius_gelfand(a, tol: float = DEFAULT_TOL) -> float:
    """Spectral radius of any real square matrix via repeated squaring.

    Evaluates the norm root sequence ||A^(2^k)||^(1/2^k) with the l1
    operator norm.  The iterate is rescaled by its norm at every squaring
    and the accumulated scale is tracked as a log in extended precision, so
    implicit powers up to 2^60 cannot overflow or underflow.  Along the
    squaring subsequence the estimates are nonincreasing upper bounds on the
    radius; iteration stops once successive estimates agree to well within
    ``tol`` (or after ``GELFAND_MAX_SQUARINGS``).
    """
    a = as_square(a)
    _check_tol(tol)
    norm = l1_operator_norm(a)
    if norm == 0.0:
        return 0.0
    m = a / norm
    log_scale = np.longdouble(np.log(norm))
    prev = float(np.exp(log_scale))
    power = 1
    for k in range(1, GELFAND_MAX_SQUARINGS + 1):
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
    ``bracket`` holds its Collatz-Wielandt bounds ``(lo, hi)``, which
    enclose both the radius and ``rho``.  ``residual`` is the max-norm of
    A v - rho v, re-checkable by anyone holding the matrix: at most the
    bracket's width, up to rounding relative to rho.
    """

    rho: float
    eigenvector: np.ndarray
    residual: float
    bracket: tuple

    def __post_init__(self):
        v = np.asarray(self.eigenvector, dtype=float)
        lo, hi = self.bracket
        if not 0 <= lo <= self.rho <= hi:
            raise DomainError("certificate rho must be nonnegative and in its bracket")
        if not np.all(v > 0):
            raise DomainError("certificate eigenvector must be strictly positive")
        if abs(v.sum() - 1.0) > 1e-12:
            raise DomainError("certificate eigenvector must sum to 1")
        if self.residual > hi - lo + 1e-12 * self.rho:
            raise DomainError(
                f"certificate residual {self.residual:.3e} exceeds its bracket")

    def verify(self, a) -> float:
        """Recompute the residual against ``a`` and return it."""
        a = as_square(a)
        return float(np.abs(a @ self.eigenvector - self.rho * self.eigenvector).max())


def perron_vector(a) -> PerronCertificate:
    """Perron eigenpair of a strictly positive square matrix.

    ``_perron_loop`` brackets the radius to 1e-4 times the largest row sum;
    inverse iteration shifted just above the bracket (Golub & Van Loan,
    "Matrix Computations", 7.6.1) then narrows it quadratically to n ulp
    relative, two steps as a rule, and ``rho`` is its midpoint.  Every step
    commutes with scaling by a power of two, so the pair of ``2**j * a`` is
    that of ``a`` with rho scaled exactly.

    Raises DomainError for non-positive input (nonnegative sets must be
    lifted into the interior first) or a row sum beyond the float range, and
    ConvergenceError with the estimate if the loop misses its bracket within
    ``DEFAULT_MAX_ITER`` steps or a shifted solve fails.
    """
    a = as_square(a)
    if not np.all(a > 0):
        raise DomainError(
            "perron_vector requires strictly positive entries; lift the input first"
        )
    n = len(a)
    if n == 1:  # as in spectral_radius_power: no shift to add and take off
        x = float(a[0, 0])
        return PerronCertificate(x, np.ones(1), 0.0, (x, x))
    # A Python product: row sums beyond the float range give inf with no
    # warning, and the loop's first step refuses them.
    coarse = 1e-4 * n * float(np.maximum.reduce(a @ np.full(n, 1.0 / n)))
    rho, width, x = _perron_loop(a, 1e-3 * a.max(), coarse, DEFAULT_MAX_ITER)
    if width:
        raise ConvergenceError(f"Perron bracket still {width:.3e} wide after "
                               f"{DEFAULT_MAX_ITER} steps", float(rho))
    for step in range(9):  # at most 8 inverse steps; far from rho they are slow
        ratios = a @ x / x  # Collatz-Wielandt: min and max enclose rho(a)
        lo, hi = float(np.minimum.reduce(ratios)), float(np.maximum.reduce(ratios))
        if hi - lo <= 1e-15 * n * hi or step == 8:
            break
        try:  # divided by hi, the solve is the same at every magnitude
            x = np.linalg.solve(a / hi - (1.0 + 1e-12) * np.eye(n), x)
        except np.linalg.LinAlgError as exc:
            raise ConvergenceError(f"shifted solve failed: {exc}", hi) from exc
        x /= np.add.reduce(x)
    rho = 0.5 * lo + 0.5 * hi  # halved first: lo + hi may overflow
    residual = float(np.abs(a @ x - rho * x).max())
    return PerronCertificate(rho, x, residual, (lo, hi))
