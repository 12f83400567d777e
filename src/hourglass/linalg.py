"""Dense kernels for nonnegative-matrix spectral analysis, on numpy alone.

Matrices are plain 2-D float numpy arrays and vectors are 1-D arrays; there
is no wrapper type.  The module provides two independent spectral-radius
algorithms (a power iteration over the irreducible blocks found by a boolean
reachability closure, and a norm-of-squared-powers scheme) so that each can
serve as a cross-check for the other, plus Perron eigenvector certificates
for positive matrices.  One Collatz-Wielandt power step, ``_cw_step``,
drives the stacked loop behind the radii and ``perron_vector``'s own loop
on 1-D arrays, its one-member case bit for bit.  The Collatz-Wielandt
comparison over a family lives in ``alternative`` (``_certify_margins``).
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
    per vector along the last axis of ``reference`` (a scalar for a vector).

    Scaled to the reference data so that "x differs from y" always means a
    quantified gap rather than float noise.
    """
    ref = np.abs(np.atleast_1d(np.asarray(reference, dtype=float)))
    return 1e-9 * np.fmax(1.0, ref.max(axis=-1, initial=0.0))


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


def _power_shift(a: np.ndarray):
    # Diagonal shift per matrix, relative to its largest entry; adds exactly
    # its value to a nonnegative radius.
    return 1e-3 * a.max(axis=(-2, -1))


def _cw_step(b: np.ndarray, x: np.ndarray, step: int) -> tuple:
    """``y = B x`` and its Collatz-Wielandt bracket, the extremes of ``y / x``
    along the last axis.  A first upper bound beyond the float range raises
    DomainError; the brackets only narrow, so no later step can overflow."""
    y = np.matmul(b, x[..., None])[..., 0]
    # Python floats: an overflowing quotient is inf without a warning.
    if step == 0 and (float(np.maximum.reduce(y, None)) / (1.0 / x.shape[-1])
                      == math.inf):
        raise DomainError(ROW_SUMS_OVERFLOW)
    ratios = y / x  # ufunc reductions: the array methods cost more per call
    return y, np.minimum.reduce(ratios, -1), np.maximum.reduce(ratios, -1)


def _bracketed_power(a: np.ndarray, eps, tol: float, max_iter: int) -> tuple:
    """Radii and Perron vectors of a stack of irreducible nonnegative matrices.

    Member i is shifted by eps_i * I, which adds exactly eps_i to its radius
    and makes it primitive; the Collatz-Wielandt ratios (Bx)_j / x_j then
    bracket rho(B) and contract (``_cw_step``), and a member stops once its
    bracket is at most ``tol`` wide.  Returns the radii, the widths left
    above ``tol`` (else 0), and each member's coordinate-sum-1 iterate at
    its stopping step, where |A x - rho x| <= width / 2 componentwise.
    """
    k, n, _ = a.shape
    b = a + np.reshape(eps, (-1, 1, 1)) * np.eye(n)
    lo, hi, live = np.zeros(k), np.full(k, np.inf), np.arange(k)
    x, vecs = np.full((k, n), 1.0 / n), np.empty((k, n))
    for step in range(max_iter):
        if live.size == 0:
            break
        y, step_lo, step_hi = _cw_step(b, x, step)
        lo[live], hi[live] = step_lo, step_hi
        done = step_hi - step_lo <= tol
        if np.count_nonzero(done):
            vecs[live[done]] = x[done]
            live, b, y = live[~done], b[~done], y[~done]
        x = y / np.add.reduce(y, 1, keepdims=True)
    # Halve before adding: lo + hi overflows for radii above half the limit.
    return (np.maximum(0.0, 0.5 * lo + 0.5 * hi - eps),
            np.where(hi - lo <= tol, 0.0, hi - lo), vecs)


def _blockwise_radius(a: np.ndarray, tol: float, max_iter: int) -> tuple:
    """Radius over the irreducible blocks (distinct rows of the mutual
    reachability closure of ``a > 0``), and the widest unconverged bracket."""
    eps = _power_shift(a)
    reach = (a > 0) | np.eye(len(a), dtype=bool)
    for _ in range((len(a) - 1).bit_length()):
        reach = reach @ reach
    best, width = 0.0, 0.0
    for block in np.unique(reach & reach.T, axis=0):
        idx = np.flatnonzero(block)
        if idx.size == 1:
            best = max(best, float(a[idx[0], idx[0]]))
        else:
            (rho_c,), (w,), _ = _bracketed_power(a[np.ix_(idx, idx)][None], eps,
                                                 tol, max_iter)
            best, width = max(best, float(rho_c)), max(width, w)
    return best, width


def spectral_radius_power(a, tol: float = DEFAULT_TOL,
                          max_iter: int = DEFAULT_MAX_ITER) -> float:
    """Spectral radius of a nonnegative square matrix, certified to ``tol``.

    The matrix is split into its strongly connected (irreducible) diagonal
    blocks by a reachability closure; the spectrum is the union of the block
    spectra, so the radius is the maximum block radius.  Blocks of size one
    are read off; larger ones are shifted by eps*I (eps = 1e-3 * max entry),
    which adds exactly eps to their radius and makes them primitive, then
    iterated until the Collatz-Wielandt ratio bracket is narrower than ``tol``.

    Raises DomainError if a row sum exceeds the float range, and
    ConvergenceError (carrying the best estimate and the widest failing
    bracket) if some block misses ``tol`` within ``max_iter`` iterations.
    """
    return float(spectral_radii(as_square(a)[None], tol, max_iter)[0])


def spectral_radii(stack, tol: float = DEFAULT_TOL,
                   max_iter: int = DEFAULT_MAX_ITER) -> np.ndarray:
    """``spectral_radius_power`` of every member of a (k, n, n) stack.

    Strictly positive members (one irreducible block each) iterate together,
    ``BATCH_ENTRIES`` entries at a time; members with a zero entry are split
    one by one.  ConvergenceError names the lowest-index member that fails.
    """
    stack = np.asarray(stack, dtype=float)
    if stack.ndim != 3 or stack.size == 0 or stack.shape[1] != stack.shape[2]:
        raise DimensionMismatchError(f"expected a nonempty (k, n, n) stack, "
                                     f"got shape {stack.shape}")
    if not np.all(np.isfinite(stack) & (stack >= 0)):
        raise DomainError("spectral radii require finite nonnegative entries")
    _check_tol(tol)
    k, n, _ = stack.shape
    radii, widths = np.empty(k), np.empty(k)
    step = max(1, BATCH_ENTRIES // (n * n))
    for start in range(0, k, step):
        block, at = stack[start:start + step], slice(start, start + step)
        pos = (block > 0).all(axis=(1, 2)) & (n > 1)  # order 1: read off
        radii[at][pos], widths[at][pos], _ = _bracketed_power(
            block[pos], _power_shift(block[pos]), tol, max_iter)
        for i in np.flatnonzero(~pos) + start:
            radii[i], widths[i] = _blockwise_radius(stack[i], tol, max_iter)
        if (failed := np.flatnonzero(widths[at]) + start).size:
            i = failed[0]
            raise ConvergenceError(f"power iteration bracket still {widths[i]:.3e} "
                                   f"wide after {max_iter} steps", float(radii[i]))
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


def _perron_tol(a: np.ndarray) -> float:
    """Bracket width for the Perron pair behind an extremal certificate.

    1e-13, relative to the largest row sum (a bound on the radius of a
    nonnegative matrix) once that exceeds 1: an absolute width falls below
    float resolution at large magnitudes and never converges.
    """
    return 1e-13 * max(1.0, float(a.sum(axis=1).max()))


def perron_vector(a, tol: float = DEFAULT_TOL,
                  max_iter: int = DEFAULT_MAX_ITER) -> PerronCertificate:
    """Perron eigenpair of a strictly positive square matrix.

    The one-member case of the stacked power loop behind ``spectral_radii``:
    the shifted iteration runs until the Collatz-Wielandt bracket is at most
    ``tol`` wide (order 1 is read off), so ``rho`` equals
    ``spectral_radius_power(a, tol)`` bit for bit and the returned iterate's
    eigen-residual is at most ``tol / 2``.  Positivity makes the dominant
    eigenvalue simple, so convergence is geometric.

    Raises DomainError for non-positive input (nonnegative sets must be
    lifted into the interior first) or a row sum beyond the float range, and
    ConvergenceError with the estimate if the bracket is still wider than
    ``tol`` after ``max_iter`` steps.
    """
    a = as_square(a)
    if not np.all(a > 0):
        raise DomainError(
            "perron_vector requires strictly positive entries; lift the input first"
        )
    _check_tol(tol)
    if len(a) == 1:  # as in spectral_radii: no shift to add and take off
        return PerronCertificate(rho=float(a[0, 0]), eigenvector=np.ones(1),
                                 residual=0.0, tol=tol)
    # The one-member case of _bracketed_power's loop, on 1-D arrays.
    eps = _power_shift(a)
    b, lo, hi = a + eps * np.eye(len(a)), 0.0, math.inf
    x = np.full(len(a), 1.0 / len(a))
    for step in range(max_iter):
        y, lo, hi = _cw_step(b, x, step)
        if hi - lo <= tol:
            break
        x = y / np.add.reduce(y)
    rho = np.maximum(0.0, 0.5 * lo + 0.5 * hi - eps)
    if not hi - lo <= tol:
        raise ConvergenceError(f"Perron bracket still {hi - lo:.3e} wide after "
                               f"{max_iter} steps", float(rho))
    residual = float(np.abs(a @ x - rho * x).max())
    return PerronCertificate(rho=float(rho), eigenvector=x, residual=residual,
                             tol=tol)
