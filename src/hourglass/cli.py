"""Command-line surface tying the library into reproducible experiments.

Every command reads a JSON set descriptor, runs one library operation, and
emits a run report carrying the input digest, all tolerances and seeds, the
results, and the wall time.  Exit codes: 0 success / check passed, 2 check
failed (finiteness, probe, convex-hull), 1 usage or runtime errors, and
3 / 4 / 5 for malformed JSON / schema violations / dimension mismatches in
descriptor files.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
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
    parse_descriptor,
    write_descriptor,
)
from .generate import gen_instance
from .linalg import (
    ConvergenceError,
    DEFAULT_TOL,
    DimensionMismatchError,
    DomainError,
    spectral_radius_power,
)
from .sets import (
    DEFAULT_SIZE_GUARD,
    GuardExceededError,
    IruSet,
    Leaf,
    epsilon_lift,
    hausdorff_distance,
)
from .spectral import (
    conv_lsr_check,
    finiteness_verify,
    jsr_lsr_bounds,
    rho_extremal_exhaustive,
    spectral_simplex,
    _expand_any,
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
    input_digest: str | None
    parameters: dict
    results: dict
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
    if isinstance(obj, dict):
        lines = []
        for key, val in obj.items():
            if isinstance(val, (dict, list)):
                lines.append(f"{pad}{key}:")
                lines.append(_render_text(val, indent + 1))
            else:
                lines.append(f"{pad}{key}: {val}")
        return "\n".join(lines)
    if isinstance(obj, list):
        lines = []
        for v in obj:
            if isinstance(v, (dict, list)):
                lines.append(f"{pad}-")
                lines.append(_render_text(v, indent + 1))
            else:
                lines.append(f"{pad}- {v}")
        return "\n".join(lines)
    return f"{pad}{obj}"


def _emit(report: RunReport, fmt: str, csv_rows=None, csv_header=None) -> None:
    if fmt == "json":
        print(json.dumps(jsonable(report), indent=2, sort_keys=True))
    elif fmt == "csv":
        if csv_rows is None:
            raise DomainError("csv output is only available for sequence commands")
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(csv_header)
        writer.writerows(csv_rows)
        sys.stdout.write(buf.getvalue())
    else:
        print(_render_text(jsonable(report)))


def _report(command: str, digest, params: dict, results: dict,
            started: float) -> RunReport:
    return RunReport(
        command=command,
        input_digest=digest,
        parameters=params,
        results=results,
        wall_time_s=time.perf_counter() - started,
    )


def _load(args):
    return parse_descriptor(args.input), descriptor_digest(args.input)


def cmd_radius(args) -> int:
    started = time.perf_counter()
    expr, digest = _load(args)
    expanded = _expand_any(expr, args.guard)
    radii = [spectral_radius_power(m, args.tol) for m in expanded.matrices]
    results = {
        "count": expanded.size,
        "radii": radii,
        "rho_min": min(radii),
        "rho_max": max(radii),
    }
    rep = _report("radius", digest, {"tol": args.tol, "guard": args.guard},
                  results, started)
    _emit(rep, args.format)
    return EXIT_OK


def cmd_extremal(args) -> int:
    started = time.perf_counter()
    expr, digest = _load(args)
    expanded = _expand_any(expr, args.guard)
    value, index = rho_extremal_exhaustive(expanded, args.direction, args.tol)
    results = {
        "direction": args.direction,
        "rho": value,
        "member_index": index,
        "matrix": expanded.matrices[index],
    }
    rep = _report(
        "extremal", digest,
        {"direction": args.direction, "tol": args.tol, "guard": args.guard},
        results, started,
    )
    _emit(rep, args.format)
    return EXIT_OK


def cmd_simplex(args) -> int:
    started = time.perf_counter()
    expr, digest = _load(args)
    if not (isinstance(expr, Leaf) and isinstance(expr.base, IruSet)):
        print("simplex requires a top-level 'iru' descriptor", file=sys.stderr)
        return EXIT_USAGE
    family = expr.base
    if args.epsilon is not None:
        family = epsilon_lift(family, args.epsilon)
    trace = spectral_simplex(family, args.direction, tol=args.tol)
    results = {
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
    rep = _report(
        "simplex", digest,
        {"direction": args.direction, "tol": args.tol, "epsilon": args.epsilon},
        results, started,
    )
    _emit(rep, args.format)
    return EXIT_OK


def _summary_results(summary) -> dict:
    return {
        "n_max": summary.n_max,
        "rho_hat": list(summary.rho_hat),
        "rho_check": list(summary.rho_check),
        "norm_upper": list(summary.norm_upper),
        "norm_lower": list(summary.norm_lower),
        "argmax_words": [list(w) for w in summary.argmax_words],
        "argmin_words": [list(w) for w in summary.argmin_words],
        "jsr_bracket": list(summary.jsr_bracket),
        "lsr_bracket": list(summary.lsr_bracket),
    }


def cmd_bounds(args) -> int:
    started = time.perf_counter()
    expr, digest = _load(args)
    expanded = _expand_any(expr, args.guard)
    summary = jsr_lsr_bounds(expanded, args.n_max, args.guard)
    rep = _report(args.command, digest,
                  {"n_max": args.n_max, "guard": args.guard},
                  _summary_results(summary), started)
    rows = [
        (n + 1, summary.rho_hat[n], summary.rho_check[n],
         summary.norm_upper[n], summary.norm_lower[n])
        for n in range(summary.n_max)
    ]
    _emit(rep, args.format, csv_rows=rows,
          csv_header=("n", "rho_hat_n", "rho_check_n",
                      "norm_upper_n", "norm_lower_n"))
    return EXIT_OK


def cmd_finiteness(args) -> int:
    started = time.perf_counter()
    expr, digest = _load(args)
    report = finiteness_verify(
        expr, n_max=args.n_max, sandwich_samples=args.sandwich_samples,
        tol=args.tol, seed=args.seed, size_guard=args.guard,
    )
    results = {
        "passed": report.passed,
        "rho_min": report.rho_min,
        "rho_max": report.rho_max,
        "checks": [jsonable(c) for c in report.checks],
        "failures": [jsonable(c) for c in report.failures],
    }
    rep = _report(
        "finiteness", digest,
        {"n_max": args.n_max, "tol": args.tol, "seed": args.seed,
         "guard": args.guard, "sandwich_samples": args.sandwich_samples},
        results, started,
    )
    _emit(rep, args.format)
    return EXIT_OK if report.passed else EXIT_CHECK_FAILED


def cmd_hset_probe(args) -> int:
    started = time.perf_counter()
    expr, digest = _load(args)
    expanded = _expand_any(expr, args.guard)
    report = hourglass_probe_explicit(expanded, trials=args.trials,
                                      seed=args.seed)
    results = {
        "passed": report.passed,
        "trials": report.trials,
        "violations": [jsonable(v) for v in report.violations],
        "note": report.note,
    }
    rep = _report(
        "hset-probe", digest,
        {"trials": args.trials, "seed": args.seed, "guard": args.guard},
        results, started,
    )
    _emit(rep, args.format)
    return EXIT_OK if report.passed else EXIT_CHECK_FAILED


def cmd_hausdorff(args) -> int:
    started = time.perf_counter()
    expr, digest = _load(args)
    other = parse_descriptor(args.other)
    other_digest = descriptor_digest(args.other)
    a = _expand_any(expr, args.guard)
    b = _expand_any(other, args.guard)
    report = hausdorff_distance(a, b, norm=args.norm)
    results = {
        "distance": report.distance,
        "witness_a_to_b": list(report.witness_a_to_b),
        "witness_b_to_a": list(report.witness_b_to_a),
        "other_digest": other_digest,
    }
    rep = _report(
        "hausdorff", digest,
        {"norm": args.norm, "guard": args.guard, "other": args.other},
        results, started,
    )
    _emit(rep, args.format)
    return EXIT_OK


def cmd_conv_check(args) -> int:
    started = time.perf_counter()
    expr, digest = _load(args)
    expanded = _expand_any(expr, args.guard)
    reports = [
        conv_lsr_check(expanded, n, samples=args.samples, seed=args.seed + n,
                       tol=args.tol, size_guard=args.guard)
        for n in range(1, args.n_max + 1)
    ]
    passed = all(r.passed for r in reports)
    results = {"passed": passed, "checks": [jsonable(r) for r in reports]}
    rep = _report(
        "conv-check", digest,
        {"n_max": args.n_max, "samples": args.samples, "seed": args.seed,
         "tol": args.tol, "guard": args.guard},
        results, started,
    )
    _emit(rep, args.format)
    return EXIT_OK if passed else EXIT_CHECK_FAILED


def cmd_gen(args) -> int:
    started = time.perf_counter()
    descriptor = gen_instance(
        kind=args.kind, seed=args.seed, lo=args.lo, hi=args.hi,
        n_rows=args.rows, n_cols=args.cols, row_set_size=args.row_set_size,
        length=args.length, depth=args.depth,
        max_matrices=args.max_matrices, allow_boundary=args.allow_boundary,
    )
    write_descriptor(descriptor, args.out)
    rep = _report(
        "gen", descriptor_digest(args.out),
        {"kind": args.kind, "seed": args.seed, "lo": args.lo, "hi": args.hi,
         "rows": args.rows, "cols": args.cols,
         "row_set_size": args.row_set_size, "length": args.length,
         "depth": args.depth, "allow_boundary": args.allow_boundary},
        {"path": str(args.out)},
        started,
    )
    _emit(rep, args.format)
    return EXIT_OK


def _add_common(sub, input_required=True):
    if input_required:
        sub.add_argument("--input", required=True, help="descriptor file")
    sub.add_argument("--tol", type=float, default=DEFAULT_TOL)
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--guard", type=int, default=DEFAULT_SIZE_GUARD,
                     help="materialization / word-count guard")
    sub.add_argument("--format", choices=("json", "csv", "text"),
                     default="text")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="hourglass",
                     description="spectral characteristics of matrix sets")
    commands = parser.add_subparsers(dest="command", required=True,
                                     parser_class=_Parser)

    p = commands.add_parser("radius", help="spectral radius of each member")
    _add_common(p)
    p.set_defaults(func=cmd_radius)

    p = commands.add_parser("extremal", help="exhaustive extremal radius")
    _add_common(p)
    p.add_argument("--direction", choices=("min", "max"), required=True)
    p.set_defaults(func=cmd_extremal)

    p = commands.add_parser("simplex", help="greedy certified extremal radius")
    _add_common(p)
    p.add_argument("--direction", choices=("min", "max"), required=True)
    p.add_argument("--epsilon", type=float, default=None,
                   help="lift a boundary family into positivity first")
    p.set_defaults(func=cmd_simplex)

    p = commands.add_parser("jsr", aliases=["lsr"],
                            help="joint / lower spectral radius bound sequences")
    _add_common(p)
    p.add_argument("--n-max", type=int, default=4)
    p.set_defaults(func=cmd_bounds)

    p = commands.add_parser("finiteness",
                            help="verify product radii collapse to length 1")
    _add_common(p)
    p.add_argument("--n-max", type=int, default=4)
    p.add_argument("--sandwich-samples", type=int, default=5)
    p.set_defaults(func=cmd_finiteness, tol=1e-7)

    p = commands.add_parser("hset-probe",
                            help="sampled order-dichotomy refutation probe")
    _add_common(p)
    p.add_argument("--trials", type=int, default=500)
    p.set_defaults(func=cmd_hset_probe)

    p = commands.add_parser("hausdorff", help="distance between two sets")
    _add_common(p)
    p.add_argument("--other", required=True, help="second descriptor file")
    p.add_argument("--norm", choices=("max", "l1op"), default="max")
    p.set_defaults(func=cmd_hausdorff)

    p = commands.add_parser("conv-check",
                            help="convex-hull norm lower bound suite")
    _add_common(p)
    p.add_argument("--n-max", type=int, default=3)
    p.add_argument("--samples", type=int, default=200)
    p.set_defaults(func=cmd_conv_check, tol=1e-9)

    p = commands.add_parser("gen", help="write a random instance descriptor")
    _add_common(p, input_required=False)
    p.add_argument("--kind", choices=("iru", "chain", "expr"), required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--lo", type=float, default=0.1)
    p.add_argument("--hi", type=float, default=2.0)
    p.add_argument("--rows", type=int, default=2)
    p.add_argument("--cols", type=int, default=None)
    p.add_argument("--row-set-size", type=int, default=2)
    p.add_argument("--length", type=int, default=3)
    p.add_argument("--depth", type=int, default=2)
    p.add_argument("--max-matrices", type=int, default=200)
    p.add_argument("--allow-boundary", action="store_true")
    p.set_defaults(func=cmd_gen)

    return parser


# One parser per process: building one costs milliseconds, parsing does not.
_shared_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    try:
        args = _shared_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return args.func(args)
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
