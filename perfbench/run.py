#!/usr/bin/env python3
"""The hourglass benchmark: one closed-loop caller running CLI operations.

    python3 perfbench/run.py --workload {words,simplex,closure} \
        --seed N --seconds S --trace {0,1}

Set-up imports ``hourglass`` from ``src/`` next to this directory and
generates and writes the workload's seeded descriptors (several times; the
median is ``setup_s``).  References are then computed from the descriptors
with plain numpy.  The measured loop runs ``hourglass.cli.main([...,
"--format", "json"])`` in process, one operation at a time, over the
workload's fixed operation list, pass after pass, for ``--seconds`` seconds;
one untimed operation of each command warms caches first.  Every output is
checked.

On a shared cloud host the CPU speed can swing by up to 2x, within seconds
and between minutes (seen on a 2-vCPU VM), and every timing in seconds moves
with it, the best of many repeats too.  The operation timings are therefore
expressed in ``refk``: multiples of a fixed reference kernel (Python loops
and small numpy calls, like the program's own work) that is timed right
before and right after every operation.  A sample's cost is its latency
divided by the geometric mean of those two kernel times.  ``wall_refk``
sums each operation's median cost over the run's passes, one pass over the
operation list; ``op_p50_refk`` is the median of those medians;
``op_tail_refk`` is the highest percentile of all samples with ten samples
beyond it (the percentile and the sample count are printed beside it).
The same statistics of the latencies in seconds are written beside them as
``raw``, with the kernel's own times.  ``setup_s`` and ``peak_rss_mb`` are
plain measurements.  Each workload has a few dozen operations at most, so
that each is repeated dozens of times in a run.

With ``--trace 0`` the last line reports the end-to-end metrics; with
``--trace 1`` untraced and traced passes alternate, the scale probe runs once
after them, and the last line reports the per-layer metrics.  Thread counts
are pinned to 1.  Results, the environment and (traced) the spans are also
written under ``perfbench/out/``.
"""

import os

# Pin before numpy loads: one process, one thread.
THREAD_VARS = ("HOURGLASS_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
               "MKL_NUM_THREADS", "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import functools  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORK = HERE / "work"

SETUP_REPEATS = 15
TAIL_BEYOND = 10  # the tail percentile leaves this many samples beyond it
EXIT_USAGE = 1

END_TO_END_UNITS = {
    "wall_refk": "refk",
    "op_p50_refk": "refk",
    "op_tail_refk": "refk",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


class BenchmarkError(RuntimeError):
    """The benchmark cannot run here (missing program, bad reference)."""


def _purge_hourglass():
    for name in [n for n in sys.modules
                 if n == "hourglass" or n.startswith("hourglass.")]:
        del sys.modules[name]


def setup(workload: str, seed: int):
    """Import hourglass and write the descriptors, ``SETUP_REPEATS`` times."""
    import workloads

    if not (SRC / "hourglass" / "__init__.py").is_file():
        raise BenchmarkError(f"no hourglass package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    workdir = WORK / f"{workload}-{seed}"
    total, gen, write = [], [], []
    plan = None
    for _ in range(SETUP_REPEATS):
        _purge_hourglass()
        started = time.perf_counter()
        hourglass = importlib.import_module("hourglass")
        plan = workloads.build(workload, seed, workdir)
        total.append(time.perf_counter() - started)
        gen.append(plan.gen_s)
        write.append(plan.write_s)
    if Path(hourglass.__file__).resolve().parent != SRC / "hourglass":
        raise BenchmarkError(f"imported hourglass from {hourglass.__file__}")
    return plan, {
        "setup_s": statistics.median(total),
        "generate.gen_s": statistics.median(gen),
        "descriptors.write_s": statistics.median(write),
    }


def build_references(ops):
    import reference

    refs, bad = {}, {}
    for op in ops:
        refs[op.op_id] = reference.build_reference(op)
        if op.command == "simplex" and _cross_checked(op, refs[op.op_id]):
            try:
                reference.cross_check_exhaustive(op, refs[op.op_id])
            except reference.Mismatch as exc:
                bad[op.op_id] = f"exhaustive cross-check: {exc}"
    return refs, bad


def _cross_checked(op, ref) -> bool:
    # Small families at moderate magnitude: the program's exhaustive oracle
    # is both cheap and accurate there.
    cardinality = 1
    for rows in ref["rows"]:
        cardinality *= rows.shape[0]
    return cardinality <= 256 and 1e-3 <= op.params["magnitude"] <= 1.0


def run_op(cli, op):
    out, err = io.StringIO(), io.StringIO()
    crash = None
    started = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(op.argv)
    except Exception as exc:  # a crash is a failed operation, not a stop
        code, crash = None, f"{type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - started
    return elapsed, code, out.getvalue(), err.getvalue(), crash


def classify(op, ref, bad, code, stdout, stderr, crash):
    """Return (outcome, detail): outcome is ok, error, mismatch or crash."""
    import reference

    if crash is not None:
        return "crash", crash
    if code == EXIT_USAGE and stderr.startswith("error:"):
        return "error", stderr.strip().splitlines()[0]
    if op.op_id in bad:
        return "mismatch", bad[op.op_id]
    try:
        report = json.loads(stdout) if stdout.strip() else None
    except json.JSONDecodeError:
        report = None
    try:
        reference.check(op, ref, code, report)
    except reference.Mismatch as exc:
        return "mismatch", str(exc)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        return "mismatch", f"malformed report: {type(exc).__name__}: {exc}"
    return "ok", report


class Counts:
    def __init__(self):
        self.attempted = 0
        self.outcomes = {"ok": 0, "error": 0, "mismatch": 0, "crash": 0}
        self.examples: dict[tuple, str] = {}
        self.wrong = 0  # wrong answers and crashes outside the timed ops

    def add(self, op, outcome, detail):
        self.attempted += 1
        self.outcomes[outcome] += 1
        if outcome != "ok":
            self.examples.setdefault((op.command, outcome, op.op_id),
                                     str(detail)[:300])

    def merge_correctness(self, other):
        """Count ``other``'s wrong answers and crashes as this run's own."""
        for outcome in ("mismatch", "crash"):
            self.wrong += other.outcomes[outcome]

    @property
    def failed(self):
        return self.attempted - self.outcomes["ok"]

    @property
    def correct(self):
        # A typed error (exit 1) is a failure but not a wrong answer.
        return (self.outcomes["mismatch"] == 0 and self.outcomes["crash"] == 0
                and self.wrong == 0)


@functools.lru_cache(maxsize=1)
def _kernel_data():
    import numpy as np

    rng = np.random.default_rng(0)
    return {
        "small": rng.uniform(0.1, 2.0, (4, 3, 3)),
        "rows": rng.uniform(0.1, 2.0, (256, 9)),
        "report": {"values": rng.uniform(size=48).tolist(), "word": [0, 1, 2]},
    }


def reference_kernel() -> float:
    """Time one run of a fixed mix of work like the program's own.

    Python loops, small-matrix numpy calls, a row-set sort and a JSON round
    trip; under a millisecond on a 2 GHz Xeon core.
    """
    import numpy as np

    data = _kernel_data()
    small, rows = data["small"], data["rows"]
    started = time.perf_counter()
    acc = 0.0
    for _ in range(3):
        acc += float(np.abs(np.linalg.eigvals(small)).max())
        acc += float((small[0] @ small[1] @ small[2]).sum())
        acc += float(rows[np.lexsort(rows.T[::-1])][0, 0])
        acc += float(np.abs(rows - rows[0]).max(axis=1).sum())
        acc += len(json.loads(json.dumps(data["report"]))["values"])
        for i in range(100):
            acc += i * 0.5
    return time.perf_counter() - started


def run_pass(cli, ops, refs, bad, counts, tracer=None):
    """Run ``ops`` once; time each, and the reference kernel around each."""
    latencies, outputs, kernels = [], [], [reference_kernel()]
    started = time.perf_counter()
    for op in ops:
        if tracer is not None:
            tracer.op = op.op_id
        elapsed, *result = run_op(cli, op)
        kernels.append(reference_kernel())
        latencies.append(elapsed)
        outputs.append(result)
    wall = time.perf_counter() - started
    simplex_steps, simplex_ok = 0, set()
    for op, (code, stdout, stderr, crash) in zip(ops, outputs):
        outcome, detail = classify(op, refs[op.op_id], bad, code, stdout,
                                   stderr, crash)
        counts.add(op, outcome, detail)
        if outcome == "ok" and op.command == "simplex":
            simplex_steps += detail["results"]["iterations"]
            simplex_ok.add(op.op_id)
    return wall, latencies, simplex_steps, simplex_ok, kernels


def kernel_costs(passes):
    """Per pass, each operation's cost in reference-kernel runs (``refk``):
    its latency over the geometric mean of the kernel's times just before
    and just after it."""
    return [[t / math.sqrt(p[4][i] * p[4][i + 1])
             for i, t in enumerate(p[1])] for p in passes]


def summary(samples):
    """(pass, median op, tail) of per-pass, per-operation samples.

    A pass sums each operation's median; the median op is the median of
    those; the tail is taken over every sample.
    """
    medians = [statistics.median(op) for op in zip(*samples)]
    value, percentile = tail([x for row in samples for x in row])
    return sum(medians), statistics.median(medians), value, percentile


def scale_probe(cli, args, tracer):
    """Run the ``SCALE_PROBE`` simplex operations once, traced and untimed.

    Returns the probe's own counts; operations that raise ConvergenceError
    count as failed there, not in the workload's ``attempted``/``failed``.
    """
    import workloads

    ops = workloads.build_scale_probe(
        args.seed, WORK / f"scale-probe-{args.seed}")
    refs, bad = build_references(ops)
    counts = Counts()
    tracer.install()
    try:
        run_pass(cli, ops, refs, bad, counts, tracer)
    finally:
        tracer.uninstall()
    return counts


def tail(samples):
    """(value, percentile): the highest percentile with ``TAIL_BEYOND``
    samples beyond it."""
    ordered = sorted(samples)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def _blas_version():
    import numpy as np
    try:
        config = np.show_config(mode="dicts")
        blas = config["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        return None


def _git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    text = head.read_text().strip()
    if not text.startswith("ref: "):
        return text
    ref = text[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def environment(args):
    import numpy as np
    import scipy

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": _blas_version(),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "git_commit": _git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def measure(args):
    import tracing

    plan, setup_metrics = setup(args.workload, args.seed)
    refs, bad = build_references(plan.ops)
    cli = importlib.import_module("hourglass.cli")

    counts = Counts()
    # Warm-up: one checked, untimed operation of each command.
    warm = list({op.command: op for op in reversed(plan.ops)}.values())
    run_pass(cli, warm, refs, bad, counts)
    untraced, traced = [], []
    tracer = tracing.Tracer() if args.trace else None
    started = time.perf_counter()
    while True:
        untraced.append(run_pass(cli, plan.ops, refs, bad, counts))
        if tracer is not None:
            offset = len(tracer.spans)
            tracer.install()
            try:
                result = run_pass(cli, plan.ops, refs, bad, counts, tracer)
            finally:
                tracer.uninstall()
            traced.append((offset, len(tracer.spans), result))
        if time.perf_counter() - started >= args.seconds:
            break

    n_ops = len(plan.ops)
    wall, p50, op_tail, tail_pct = summary(kernel_costs(untraced))
    raw_wall, raw_p50, raw_tail, _ = summary([p[1] for p in untraced])
    kernels = [k for p in untraced for k in p[4]]
    extra = {
        "ops_per_pass": n_ops,
        "timed_passes": len(untraced),
        "traced_passes": len(traced),
        "op_tail_percentile": tail_pct,
        "op_tail_samples": n_ops * len(untraced),
        "raw": {
            "wall_s": raw_wall,
            "op_p50_ms": 1e3 * raw_p50,
            "op_tail_ms": 1e3 * raw_tail,
            "kernel_best_ms": 1e3 * min(kernels),
            "kernel_median_ms": 1e3 * statistics.median(kernels),
        },
        "outcomes": counts.outcomes,
        "failures": [f"{c} op {i} {o}: {d}"
                     for (c, o, i), d in sorted(counts.examples.items())],
        "failed_frac": counts.failed / counts.attempted,
    }
    if tracer is None:
        metrics = {
            "wall_refk": wall,
            "op_p50_refk": p50,
            "op_tail_refk": op_tail,
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "setup_s": setup_metrics["setup_s"],
        }
        units = END_TO_END_UNITS
    else:
        per_pass = [
            tracing.layer_metrics(tracer.spans[lo:hi], lo, n_ops,
                                  result[2], result[3])
            for lo, hi, result in traced
        ]
        metrics = {k: statistics.median(p[k] for p in per_pass)
                   for k in per_pass[0]}
        metrics["generate.gen_s"] = setup_metrics["generate.gen_s"]
        metrics["descriptors.write_s"] = setup_metrics["descriptors.write_s"]
        metrics["trace.overhead_frac"] = summary(
            kernel_costs([r for _, _, r in traced]))[0] / wall - 1.0
        tracer.op = None
        probe = scale_probe(cli, args, tracer)
        counts.merge_correctness(probe)
        metrics["linalg.scale_probe_failed_frac"] = (probe.failed
                                                     / probe.attempted)
        extra["scale_probe_failures"] = [
            f"{c} op {i} {o}: {d}"
            for (c, o, i), d in sorted(probe.examples.items())]
        units = tracing.PER_LAYER_UNITS
        OUT.mkdir(parents=True, exist_ok=True)
        spans_path = OUT / f"{args.workload}-seed{args.seed}-spans.json"
        spans_path.write_text(json.dumps({
            "fields": ["name", "start", "end", "parent", "op", "info",
                       "error"],
            "spans": tracer.spans,
        }))
    return counts, metrics, units, extra


def parse_args(argv):
    import workloads

    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        counts, metrics, units, extra = measure(args)
    except BenchmarkError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    env = environment(args)
    record = {"env": env, "metrics": metrics, "units": units, **extra,
              "attempted": counts.attempted, "failed": counts.failed,
              "correct": counts.correct}
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")

    print(json.dumps({"env": env}, sort_keys=True))
    for line in extra["failures"][:20]:
        print(f"failure: {line}")
    print(f"{args.workload}: {extra['ops_per_pass']} ops/pass, "
          f"{extra['timed_passes']} timed passes, "
          f"op_tail at p{extra['op_tail_percentile']:.2f} of "
          f"{extra['op_tail_samples']} samples, "
          f"failed_frac {extra['failed_frac']:.4f} "
          f"({counts.failed}/{counts.attempted})")
    for name, value in metrics.items():
        print(f"  {name} = {value:.6g} {units[name]}")
    for name, value in extra["raw"].items():
        print(f"  raw {name} = {value:.6g}")
    print(json.dumps({
        "correct": counts.correct,
        "attempted": counts.attempted,
        "failed": counts.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
