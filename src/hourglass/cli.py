"""Command-line surface tying the library into reproducible experiments.

Every command reads a JSON set descriptor, runs one library operation, and
emits a run report carrying the input digest, every flag the command reads,
the results, and the wall time; ``_plain`` encodes it for ``json.dumps`` and
the text and csv writers alike.  Exit codes: 0 success / check passed, 2 check
failed (finiteness, probe, convex-hull), 1 usage or runtime errors, and
3 / 4 / 5 for malformed JSON / schema violations (nodes nested deeper than
``descriptors.MAX_NESTING`` among them) / dimension mismatches in
descriptor files.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import json
import sys
import time

import numpy as np

from .alternative import CertificationError, hourglass_probe_explicit
from .descriptors import (
    DescriptorSchemaError,
    DescriptorSyntaxError,
    descriptor_digest,
    load_descriptor,
    write_descriptor,
)
from .generate import gen_instance
from .linalg import (
    ConvergenceError,
    DEFAULT_TOL,
    DimensionMismatchError,
    DomainError,
    spectral_radii,
)
from .sets import (
    DEFAULT_SIZE_GUARD,
    GuardExceededError,
    IruSet,
    OrderedChain,
    epsilon_lift,
    expr_expand,
    hausdorff_distance,
)
from .spectral import (
    conv_lsr_check,
    finiteness_verify,
    jsr_lsr_bounds,
    rho_extremal_exhaustive,
    spectral_simplex,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CHECK_FAILED = 2
EXIT_BAD_JSON = 3
EXIT_SCHEMA = 4
EXIT_DIMENSION = 5


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors by default, which collides with the
    # check-failed code; route usage problems to exit 1 instead.
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _plain(obj):
    """One level of a report in JSON types, as ``json.dumps``' ``default``:
    a dataclass as its fields in field order, an array as a list, a numpy
    scalar (np.float64 too, a float subclass) as its Python value."""
    if type(obj) in (dict, list, tuple, str, int, float, bool, type(None)):
        return obj
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def _render_text(obj, indent=0) -> str:
    pad = "  " * indent
    pairs = (((f"{key}:", _plain(val)) for key, val in obj.items())
             if isinstance(obj, dict) else (("-", _plain(val)) for val in obj))
    return "\n".join(
        f"{pad}{label}\n{_render_text(val, indent + 1)}"
        if isinstance(val, (dict, list, tuple)) else f"{pad}{label} {val}"
        for label, val in pairs)


def _emit(report: dict, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(report, sort_keys=True, default=_plain))
    elif fmt == "csv":  # offered by jsr/lsr only: one row per word length
        res = _plain(report["results"])
        writer = csv.writer(sys.stdout)
        writer.writerow(("n", "rho_hat_n", "rho_check_n",
                         "norm_upper_n", "norm_lower_n"))
        writer.writerows(zip(range(1, res["n_max"] + 1), res["rho_hat"],
                             res["rho_check"], res["norm_upper"],
                             res["norm_lower"]))
    else:
        print(_render_text(report))


def cmd_radius(args, expr) -> dict:
    expanded = expr_expand(expr, args.guard)
    radii = spectral_radii(expanded.matrices, args.tol).tolist()
    return {
        "count": expanded.size,
        "radii": radii,
        "rho_min": min(radii),
        "rho_max": max(radii),
    }


def cmd_extremal(args, expr) -> dict:
    expanded = expr_expand(expr, args.guard)
    value, index = rho_extremal_exhaustive(expanded, args.direction, args.tol)
    return {
        "direction": args.direction,
        "rho": value,
        "member_index": index,
        "matrix": expanded.matrices[index],
    }


def cmd_simplex(args, expr) -> dict:
    family = expr
    if args.epsilon is not None:
        if not isinstance(expr, (IruSet, OrderedChain)):
            raise DomainError("--epsilon lifts only a bare iru or chain")
        family = epsilon_lift(expr, args.epsilon)
    trace = spectral_simplex(family, args.direction)
    return {
        "direction": args.direction,
        "rho": trace.rho,
        "selection": list(trace.selection),
        "iterations": len(trace.iterations),
        "trace": [
            {"selection": list(st.selection), "rho": st.rho,
             "improvement": st.improvement, "ties": st.ties}
            for st in trace.iterations
        ],
        "certificate": {
            "direction": trace.certificate.direction,
            "matrix": trace.certificate.extremal_matrix,
            "rho": trace.certificate.rho,
            "eigenvector": trace.certificate.perron.eigenvector,
            "residual": trace.certificate.perron.residual,
            "margins": trace.certificate.margins,
            "worst_margin": trace.certificate.worst_margin,
            "cert_tol": trace.certificate.cert_tol,
        },
    }


def cmd_bounds(args, expr):
    # Expanded here: the benchmark tracer reads the member count off the
    # set passed in.
    return jsr_lsr_bounds(expr_expand(expr, args.guard), args.n_max,
                          args.guard)


def cmd_finiteness(args, expr):
    return finiteness_verify(
        expr, n_max=args.n_max, sandwich_samples=args.sandwich_samples,
        tol=args.tol, seed=args.seed, size_guard=args.guard,
    )


def cmd_hset_probe(args, expr):
    return hourglass_probe_explicit(
        expr_expand(expr, args.guard), trials=args.trials, seed=args.seed)


def cmd_hausdorff(args, expr) -> dict:
    other, other_digest = load_descriptor(args.other)
    report = hausdorff_distance(expr_expand(expr, args.guard),
                                expr_expand(other, args.guard))
    return {**_plain(report), "other_digest": other_digest}


def cmd_conv_check(args, expr) -> dict:
    if args.n_max < 1:
        raise DomainError(f"n_max must be >= 1, got {args.n_max}")
    expanded = expr_expand(expr, args.guard)
    reports = [
        conv_lsr_check(expanded, n, samples=args.samples, seed=args.seed + n,
                       tol=args.tol, size_guard=args.guard)
        for n in range(1, args.n_max + 1)
    ]
    return {"passed": all(r.passed for r in reports), "checks": reports}


def cmd_gen(args, expr) -> dict:
    descriptor = gen_instance(
        kind=args.kind, seed=args.seed, lo=args.lo, hi=args.hi,
        n_rows=args.rows, n_cols=args.cols, row_set_size=args.row_set_size,
        length=args.length, depth=args.depth,
        max_matrices=args.max_matrices, allow_boundary=args.allow_boundary,
    )
    write_descriptor(descriptor, args.out)
    return {"path": str(args.out)}


def _flag(name: str, **kwargs) -> tuple[str, dict]:
    return name, kwargs


def _seed(text: str) -> int:
    if int(text) < 0:  # numpy's generators refuse negative seeds
        raise argparse.ArgumentTypeError(f"not a non-negative integer: {text!r}")
    return int(text)


_INPUT = _flag("--input", required=True, help="descriptor file")
_TOL = _flag("--tol", type=float, default=DEFAULT_TOL)
_SEED = _flag("--seed", type=_seed, default=0)
_GUARD = _flag("--guard", type=int, default=DEFAULT_SIZE_GUARD,
               help="materialization / word-count guard")
_DIRECTION = _flag("--direction", choices=("min", "max"), required=True)
_FORMAT = _flag("--format", choices=("json", "text"), default="text")

# (name, aliases, help, command, the flags it reads).  Every flag but
# --input and --format is echoed in the report's parameters.
_COMMANDS = (
    ("radius", (), "spectral radius of each member", cmd_radius,
     (_INPUT, _TOL, _GUARD, _FORMAT)),
    ("extremal", (), "exhaustive extremal radius", cmd_extremal,
     (_INPUT, _DIRECTION, _TOL, _GUARD, _FORMAT)),
    ("simplex", (), "greedy certified extremal radius", cmd_simplex,
     (_INPUT, _DIRECTION, _FORMAT,
      _flag("--epsilon", type=float, default=None,
            help="lift a boundary family into positivity first"))),
    ("jsr", ("lsr",), "joint / lower spectral radius bound sequences",
     cmd_bounds,
     (_INPUT, _GUARD, _flag("--n-max", type=int, default=4),
      _flag("--format", choices=("json", "csv", "text"), default="text"))),
    ("finiteness", (), "verify product radii collapse to length 1",
     cmd_finiteness,
     (_INPUT, _flag("--tol", type=float, default=1e-7), _SEED, _GUARD,
      _FORMAT, _flag("--n-max", type=int, default=4),
      _flag("--sandwich-samples", type=int, default=5))),
    ("hset-probe", (), "sampled order-dichotomy refutation probe",
     cmd_hset_probe,
     (_INPUT, _SEED, _GUARD, _FORMAT,
      _flag("--trials", type=int, default=500))),
    ("hausdorff", (), "distance between two sets", cmd_hausdorff,
     (_INPUT, _GUARD, _FORMAT,
      _flag("--other", required=True, help="second descriptor file"))),
    ("conv-check", (), "convex-hull norm lower bound suite", cmd_conv_check,
     (_INPUT, _flag("--tol", type=float, default=1e-9), _SEED, _GUARD,
      _FORMAT, _flag("--n-max", type=int, default=3),
      _flag("--samples", type=int, default=200))),
    ("gen", (), "write a random instance descriptor", cmd_gen,
     (_SEED, _FORMAT,
      _flag("--kind", choices=("iru", "chain", "expr"), required=True),
      _flag("--out", required=True),
      _flag("--lo", type=float, default=0.1),
      _flag("--hi", type=float, default=2.0),
      _flag("--rows", type=int, default=2),
      _flag("--cols", type=int, default=None),
      _flag("--row-set-size", type=int, default=2),
      _flag("--length", type=int, default=3),
      _flag("--depth", type=int, default=2),
      _flag("--max-matrices", type=int, default=200),
      _flag("--allow-boundary", action="store_true"))),
)
_NOT_PARAMETERS = ("command", "func", "input", "format")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="hourglass",
                     description="spectral characteristics of matrix sets")
    commands = parser.add_subparsers(dest="command", required=True,
                                     parser_class=_Parser)
    for name, aliases, help_text, func, flags in _COMMANDS:
        p = commands.add_parser(name, aliases=list(aliases), help=help_text)
        for flag, kwargs in flags:
            p.add_argument(flag, **kwargs)
        p.set_defaults(func=func)
    return parser


def _run(args) -> int:
    """Time one command: parse and digest its input from one read (gen:
    digest its output), report the results with the flags it read, emit
    the report."""
    started = time.perf_counter()
    source = vars(args).get("input")
    expr, digest = (None, None) if source is None else load_descriptor(source)
    results = args.func(args, expr)  # gen writes the file digested below
    report = {
        "command": args.command,
        "input_digest": digest or descriptor_digest(args.out),
        "parameters": {key: value for key, value in vars(args).items()
                       if key not in _NOT_PARAMETERS},
        "results": results,
        "wall_time_s": time.perf_counter() - started,
    }
    _emit(report, args.format)
    return (EXIT_CHECK_FAILED if _plain(results).get("passed") is False
            else EXIT_OK)


# One parser per process: building one costs milliseconds, parsing does not.
_shared_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    try:
        args = _shared_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return _run(args)
    except DescriptorSyntaxError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_JSON
    except DescriptorSchemaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    except DimensionMismatchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DIMENSION
    except (DomainError, GuardExceededError, ConvergenceError,
            CertificationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
