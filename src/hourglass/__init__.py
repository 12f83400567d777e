"""Spectral characteristics of structured sets of nonnegative matrices:
certified extremal radii of row-independent families, ordered chains and
their Minkowski combinations, whose joint and lower spectral radii are
attained at word length one.  Each exported name is imported from its
module on first use (PEP 562), so ``import hourglass`` loads no engine.
"""

import importlib

_MODULE_OF = {name: module for module, names in {
    "linalg": "ConvergenceError DEFAULT_MAX_ITER DEFAULT_TOL DomainError "
    "DimensionMismatchError PerronCertificate l1_operator_norm perron_vector "
    "spectral_radius_gelfand spectral_radii spectral_radius_power "
    "strict_tolerance",
    "sets": "DEFAULT_SIZE_GUARD ExplicitSet GuardExceededError HausdorffReport "
    "IruSet OrderedChain Product Scale SetExpr Sum in_class "
    "dedup_tolerance epsilon_lift expr_expand hausdorff_distance set_equal "
    "iru_enumerate minkowski_product minkowski_sum scale_set transpose_set",
    "alternative": "CertificationError ExtremalCertificate HourglassOutcome "
    "ProbeReport certify_extremal hourglass_h1_iru hourglass_h2_iru "
    "hourglass_probe hourglass_probe_explicit",
    "spectral": "ConvexHullReport FinitenessReport SimplexTrace SpectralSummary "
    "conv_lsr_check finiteness_verify jsr_lsr_bounds rho_extremal_exhaustive "
    "rho_n_bruteforce spectral_simplex",
    "descriptors": "parse_descriptor serialize_expr write_descriptor",
}.items() for name in names.split()}
__all__ = sorted(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f".{_MODULE_OF[name]}", __name__)
    globals()[name] = value = getattr(module, name)  # skips this hook next
    return value


def __dir__():
    return sorted({*globals(), *_MODULE_OF})
