"""Command-line surface tying the library into reproducible experiments.

Every command reads a JSON set descriptor, runs one library operation, and
emits a run report carrying the input digest, every flag the command reads,
the results, and the wall time.  Exit codes: 0 success / check passed, 2 check
failed (finiteness, probe, convex-hull), 1 usage or runtime errors, and
3 / 4 / 5 for malformed JSON / schema violations (nodes nested deeper than
``descriptors.MAX_NESTING`` among them) / dimension mismatches in
descriptor files.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import sys
import time
from dataclasses import dataclass

from .alternative import CertificationError, hourglass_probe_explicit
from .descriptors import (
    DescriptorSchemaError,
    DescriptorSyntaxError,
    descriptor_digest,
    jsonable,
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


@dataclass
class RunReport:
    command: str
    input_digest: str
    parameters: dict
    results: object  # a dict or a library report
    wall_time_s: float


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors by default, which collides with the
    # check-failed code; route usage problems to exit 1 instead.
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _render_text(obj, indent=0) -> str:
    pad = "  " * indent
    if not isinstance(obj, (dict, list)):
        return f"{pad}{obj}"
    labelled = (((f"{key}:", val) for key, val in obj.items())
                if isinstance(obj, dict) else (("-", val) for val in obj))
    lines = []
    for label, val in labelled:
        if isinstance(val, (dict, list)):
            lines += [f"{pad}{label}", _render_text(val, indent + 1)]
        else:
            lines.append(f"{pad}{label} {val}")
    return "\n".join(lines)


def _emit(data: dict, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(data, sort_keys=True))
    elif fmt == "csv":  # offered by jsr/lsr only: one row per word length
        res = data["results"]
        writer = csv.writer(sys.stdout)
        writer.writerow(("n", "rho_hat_n", "rho_check_n",
                         "norm_upper_n", "norm_lower_n"))
        writer.writerows(zip(range(1, res["n_max"] + 1), res["rho_hat"],
                             res["rho_check"], res["norm_upper"],
                             res["norm_lower"]))
    else:
        print(_render_text(data))


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
    trace = spectral_simplex(family, args.direction, tol=args.tol)
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
                                expr_expand(other, args.guard),
                                norm=args.norm)
    return {**jsonable(report), "other_digest": other_digest}


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
     (_INPUT, _DIRECTION, _TOL, _FORMAT,
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
      _flag("--other", required=True, help="second descriptor file"),
      _flag("--norm", choices=("max", "l1op"), default="max"))),
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
    data = jsonable(RunReport(
        command=args.command,
        input_digest=digest or descriptor_digest(args.out),
        parameters={key: value for key, value in vars(args).items()
                    if key not in _NOT_PARAMETERS},
        results=results,
        wall_time_s=time.perf_counter() - started,
    ))
    _emit(data, args.format)
    return EXIT_CHECK_FAILED if data["results"].get("passed") is False else EXIT_OK


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
