"""Spectral characteristics of structured sets of nonnegative matrices.

The package computes and certifies extremal spectral radii over matrix
families with independent row uncertainty, ordered chains, and their
Minkowski-algebra combinations, and verifies that the joint / lower
spectral radius of such families is attained already at word length one.
"""

from .linalg import (
    ConvergenceError,
    DEFAULT_MAX_ITER,
    DEFAULT_TOL,
    DimensionMismatchError,
    DomainError,
    PerronCertificate,
    l1_operator_norm,
    perron_vector,
    spectral_radius_gelfand,
    spectral_radii,
    spectral_radius_power,
    strict_tolerance,
)
from .sets import (
    DEFAULT_SIZE_GUARD,
    ExplicitSet,
    GuardExceededError,
    HausdorffReport,
    IruSet,
    OrderedChain,
    Product,
    Scale,
    SetExpr,
    Sum,
    convex_sample,
    dedup_tolerance,
    epsilon_lift,
    expr_expand,
    hausdorff_distance,
    iru_enumerate,
    minkowski_product,
    minkowski_sum,
    scale_set,
    set_equal,
    transpose_set,
)
from .alternative import (
    CertificationError,
    ExtremalCertificate,
    HourglassOutcome,
    ProbeReport,
    certify_extremal,
    hourglass_h1_iru,
    hourglass_h2_iru,
    hourglass_probe_explicit,
)
from .spectral import (
    ConvexHullReport,
    FinitenessReport,
    SimplexTrace,
    SpectralSummary,
    conv_lsr_check,
    finiteness_verify,
    jsr_lsr_bounds,
    rho_extremal_exhaustive,
    rho_n_bruteforce,
    spectral_simplex,
)
from .descriptors import (
    parse_descriptor,
    serialize_expr,
    write_descriptor,
)

__version__ = "0.1.0"
