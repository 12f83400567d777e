"""Benchmark-side tracing of the ``hourglass`` layers.

``Tracer.install`` wraps the public functions of each package module in every
``hourglass.*`` namespace that binds them (``spectral`` imports
``spectral_radius_power`` by name, ``cli`` imports ``parse_descriptor``, and
so on), plus ``numpy.linalg.eigvals`` as ``hourglass.spectral`` calls it.
Each call records a span (name, start, end, parent span, operation id) and a
few sizes read from its arguments; spans stay in memory until the run ends.
``layer_metrics`` turns the spans of one pass into the per-layer metrics.
"""

from __future__ import annotations

import functools
import sys
import time

import numpy as np

# Order bins for the per-order kernel costs, covering the orders the
# workloads use; an order maps to the smallest bin that holds it.
RADIUS_BINS = (2, 3, 4, 8)
PERRON_BINS = (3, 4, 8, 16, 32)


def order_bin(d: int, bins) -> int:
    return next((b for b in bins if d <= b), bins[-1])


def _totient(d: int) -> int:
    out, x, p = d, d, 2
    while p * p <= x:
        if x % p == 0:
            out -= out // p
            while x % p == 0:
                x //= p
        p += 1
    if x > 1:
        out -= out // x
    return out


def necklace_count(m: int, n: int) -> int:
    """Cyclic classes of length-n words over m letters."""
    return sum(_totient(d) * m ** (n // d)
               for d in range(1, n + 1) if n % d == 0) // n


def _arg(args, kwargs, i, name, default=None):
    if len(args) > i:
        return args[i]
    return kwargs.get(name, default)


# Sizes recorded per span, read from the call's arguments (and result).
def _order(args, kwargs, out):
    return {"d": int(np.shape(_arg(args, kwargs, 0, "a"))[0])}


def _words_n(args, kwargs, out):
    s = _arg(args, kwargs, 0, "s")
    n = _arg(args, kwargs, 1, "n")
    cyclic = _arg(args, kwargs, 4, "use_cyclic", True)
    return {"words": necklace_count(s.size, n) if cyclic else s.size ** n}


def _words_bounds(args, kwargs, out):
    m = _arg(args, kwargs, 0, "s").size
    n_max = _arg(args, kwargs, 1, "n_max")
    return {"words": sum(2 * necklace_count(m, n) + 2 * m ** n
                         for n in range(1, n_max + 1))}


def _expand(args, kwargs, out):
    e = _arg(args, kwargs, 0, "e")
    return {"bound": e.cardinality_bound(),
            "size": out.size if out is not None else 0}


def _members(args, kwargs, out):
    return {"members": _arg(args, kwargs, 0, "s").size}


def _hausdorff(args, kwargs, out):
    a = _arg(args, kwargs, 0, "a")
    b = _arg(args, kwargs, 1, "b")
    n, m = a.shape
    return {"bytes": a.size * b.size * n * m * 8}


def _certify_rows(args, kwargs, out):
    s = _arg(args, kwargs, 0, "s")
    rows = getattr(s, "row_sets", None)
    return {"rows": sum(rs.size for rs in rows) if rows is not None
            else s.size}


def _trials(args, kwargs, out):
    return {"trials": _arg(args, kwargs, 1, "trials")}


# (module, function, size recorder): the public functions the CLI
# commands of the workloads reach.
TARGETS = (
    ("cli", "main", None),
    ("descriptors", "parse_descriptor", None),
    ("descriptors", "descriptor_digest", None),
    ("sets", "expr_expand", _expand),
    ("sets", "iru_enumerate", None),
    ("sets", "chain_enumerate", None),
    ("sets", "minkowski_sum", None),
    ("sets", "minkowski_product", None),
    ("sets", "scale_set", None),
    ("sets", "hausdorff_distance", _hausdorff),
    ("sets", "convex_combination", None),
    ("linalg", "spectral_radius_power", _order),
    ("linalg", "perron_vector", _order),
    ("spectral", "rho_n_bruteforce", _words_n),
    ("spectral", "jsr_lsr_bounds", _words_bounds),
    ("spectral", "rho_extremal_exhaustive", _members),
    ("spectral", "spectral_simplex", None),
    ("spectral", "finiteness_verify", None),
    ("alternative", "certify_extremal", _certify_rows),
    ("alternative", "hourglass_probe_explicit", _trials),
)

# Span fields.
NAME, START, END, PARENT, OP, INFO, ERROR = range(7)


class Tracer:
    """Records spans while installed; ``spans`` is a list of lists."""

    def __init__(self):
        self.spans: list[list] = []
        self.op = None
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def _open(self, name):
        parent = self._stack[-1] if self._stack else -1
        span = [name, time.perf_counter(), 0.0, parent, self.op, None, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span):
        span[END] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name, fn, sizes=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = tracer._open(name)
            out = None
            try:
                out = fn(*args, **kwargs)
                return out
            except BaseException as exc:
                span[ERROR] = type(exc).__name__
                raise
            finally:
                tracer._close(span)
                if sizes is not None:
                    span[INFO] = sizes(args, kwargs, out)

        return traced

    def _wrap_eigvals(self, fn):
        tracer = self

        @functools.wraps(fn)
        def eigvals(a, *args, **kwargs):
            caller = sys._getframe(1).f_globals.get("__name__")
            if caller != "hourglass.spectral":
                return fn(a, *args, **kwargs)
            span = tracer._open("numpy.linalg.eigvals")
            try:
                return fn(a, *args, **kwargs)
            finally:
                tracer._close(span)
                shape = np.shape(a)
                span[INFO] = {"matrices": int(np.prod(shape[:-2]))
                              if len(shape) > 2 else 1}

        return eigvals

    def install(self):
        """Wrap every target in every ``hourglass`` namespace binding it."""
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "hourglass"
                                         or name.startswith("hourglass."))]
        for mod_name, func_name, sizes in TARGETS:
            original = getattr(sys.modules[f"hourglass.{mod_name}"], func_name)
            wrapper = self.wrap(f"{mod_name}.{func_name}", original, sizes)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._patched.append((mod, attr, original))
        original = np.linalg.eigvals
        np.linalg.eigvals = self._wrap_eigvals(original)
        self._patched.append((np.linalg, "eigvals", original))

    def uninstall(self):
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()


# --------------------------------------------------------------------------
def _durations(spans):
    return [s[END] - s[START] for s in spans]


def _self_times(spans, offset):
    """Duration minus the time its direct children cover, per span."""
    child = [0.0] * len(spans)
    for s in spans:
        p = s[PARENT] - offset
        if 0 <= p < len(spans):
            child[p] += s[END] - s[START]
    return [s[END] - s[START] - c for s, c in zip(spans, child)]


def _outermost(spans, offset, names):
    """Spans named in ``names`` with no ancestor also named in ``names``."""
    out = []
    for s in spans:
        if s[NAME] not in names:
            continue
        p = s[PARENT] - offset
        nested = False
        while 0 <= p < len(spans):
            if spans[p][NAME] in names:
                nested = True
                break
            p = spans[p][PARENT] - offset
        if not nested:
            out.append(s)
    return out


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(spans, offset, n_ops, simplex_steps, simplex_ok_ops):
    """Per-layer metrics of one traced pass.

    ``spans`` are the pass's spans and ``offset`` the index of the first of
    them in the tracer's list (parents are absolute indices).
    ``simplex_steps`` is the sum of the ``iterations`` the simplex reports
    gave, and ``simplex_ok_ops`` the ids of the operations that gave them.
    """
    by_name: dict[str, list] = {}
    self_t = _self_times(spans, offset)
    self_by_name: dict[str, float] = {}
    for s, st in zip(spans, self_t):
        by_name.setdefault(s[NAME], []).append(s)
        self_by_name[s[NAME]] = self_by_name.get(s[NAME], 0.0) + st

    def calls(*names):
        return sum(len(by_name.get(n, ())) for n in names)

    def total(*names):
        return sum(_durations(_outermost(spans, offset, set(names))))

    def info_sum(name, key):
        return sum(s[INFO][key] for s in by_name.get(name, ()) if s[INFO])

    m: dict[str, float] = {}
    m["cli.self_ms_per_op"] = 1e3 * self_by_name.get("cli.main", 0.0) / n_ops
    m["descriptors.parse_ms_per_op"] = 1e3 * total(
        "descriptors.parse_descriptor", "descriptors.descriptor_digest") / n_ops

    expand = ("sets.expr_expand", "sets.iru_enumerate", "sets.chain_enumerate")
    m["sets.expand_s"] = total(*expand)
    m["sets.expand_calls"] = calls(*expand)
    m["sets.minkowski_self_s"] = (self_by_name.get("sets.minkowski_sum", 0.0)
                                  + self_by_name.get("sets.minkowski_product",
                                                     0.0))
    m["sets.dedup_kept_ratio"] = _ratio(info_sum("sets.expr_expand", "size"),
                                        info_sum("sets.expr_expand", "bound"))
    m["sets.hausdorff_s"] = total("sets.hausdorff_distance")
    m["sets.hausdorff_bytes_computed"] = info_sum("sets.hausdorff_distance",
                                                  "bytes")

    for kernel, short, bins in (
            ("linalg.spectral_radius_power", "radius", RADIUS_BINS),
            ("linalg.perron_vector", "perron", PERRON_BINS)):
        kspans = by_name.get(kernel, [])
        m[f"linalg.{short}_calls"] = len(kspans)
        for b in bins:
            sel = [s for s in kspans if order_bin(s[INFO]["d"], bins) == b]
            m[f"linalg.{short}_us.d{b}"] = 1e6 * _ratio(
                sum(_durations(sel)), len(sel))
    m["linalg.convergence_errors"] = sum(
        1 for n in ("linalg.spectral_radius_power", "linalg.perron_vector")
        for s in by_name.get(n, ()) if s[ERROR] == "ConvergenceError")

    word_time = total("spectral.rho_n_bruteforce", "spectral.jsr_lsr_bounds")
    words = (info_sum("spectral.rho_n_bruteforce", "words")
             + info_sum("spectral.jsr_lsr_bounds", "words"))
    eig = by_name.get("numpy.linalg.eigvals", [])
    eig_s = sum(_durations(eig))
    eig_mats = sum(s[INFO]["matrices"] for s in eig)
    m["spectral.words"] = words
    m["spectral.words_per_s"] = _ratio(words, word_time)
    m["spectral.eigvals_matrices"] = eig_mats
    m["spectral.eigvals_s"] = eig_s
    m["spectral.eigvals_per_word"] = _ratio(eig_mats, words)
    m["spectral.eigvals_share"] = _ratio(eig_s, word_time)
    m["spectral.exhaustive_s"] = total("spectral.rho_extremal_exhaustive")
    m["spectral.exhaustive_members"] = info_sum(
        "spectral.rho_extremal_exhaustive", "members")
    simplex_s = sum(_durations(s for s in by_name.get("spectral.spectral_simplex",
                                                      ())
                               if s[OP] in simplex_ok_ops))
    m["spectral.simplex_steps"] = simplex_steps
    m["spectral.simplex_ms_per_step"] = 1e3 * _ratio(simplex_s, simplex_steps)

    certify = by_name.get("alternative.certify_extremal", [])
    rows = sum(s[INFO]["rows"] for s in certify)
    m["alternative.certify_rows"] = rows
    m["alternative.certify_us_per_row"] = 1e6 * _ratio(
        sum(_durations(certify)), rows)
    m["alternative.probe_trials_per_s"] = _ratio(
        info_sum("alternative.hourglass_probe_explicit", "trials"),
        total("alternative.hourglass_probe_explicit"))
    return m


PER_LAYER_UNITS = {
    "cli.self_ms_per_op": "ms",
    "descriptors.parse_ms_per_op": "ms",
    "descriptors.write_s": "s",
    "generate.gen_s": "s",
    "sets.expand_s": "s",
    "sets.expand_calls": "count",
    "sets.minkowski_self_s": "s",
    "sets.dedup_kept_ratio": "ratio",
    "sets.hausdorff_s": "s",
    "sets.hausdorff_bytes_computed": "B",
    "linalg.radius_calls": "count",
    **{f"linalg.radius_us.d{b}": "us" for b in RADIUS_BINS},
    "linalg.perron_calls": "count",
    **{f"linalg.perron_us.d{b}": "us" for b in PERRON_BINS},
    "linalg.convergence_errors": "count",
    "spectral.words": "count",
    "spectral.words_per_s": "1/s",
    "spectral.eigvals_matrices": "count",
    "spectral.eigvals_s": "s",
    "spectral.eigvals_per_word": "ratio",
    "spectral.eigvals_share": "ratio",
    "spectral.exhaustive_s": "s",
    "spectral.exhaustive_members": "count",
    "spectral.simplex_steps": "count",
    "spectral.simplex_ms_per_step": "ms",
    "alternative.certify_rows": "count",
    "alternative.certify_us_per_row": "us",
    "alternative.probe_trials_per_s": "1/s",
    "trace.overhead_frac": "ratio",
    "linalg.scale_probe_failed_frac": "ratio",
}
