"""Seeded workloads: descriptor files plus a fixed list of CLI operations.

Every workload is a fixed list of operation *slots*.  A slot fixes the shape
of its input (matrix order, member count, expression tree, magnitude) and the
command line; the workload seed only draws the matrix entries.  Two seeds
therefore give different descriptors with the same operation mix and nearly
the same amount of work, which keeps run-to-run timings comparable.

Descriptors are generated with ``hourglass.generate`` and written with
``hourglass.descriptors``; the program under test receives only these files.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

WORKLOADS = ("words", "simplex", "closure")

# Positive entry range shared by every generated family, as in the
# acceptance suite.
LO, HI = 0.1, 2.0


@dataclass
class Op:
    """One CLI invocation and what the checker needs to know about it."""

    op_id: int
    command: str
    argv: list[str]
    inputs: dict[str, str]  # role ("input", "other") -> descriptor path
    params: dict = field(default_factory=dict)


@dataclass
class Plan:
    workload: str
    seed: int
    ops: list[Op]
    gen_s: float
    write_s: float


def _rng(seed: int, slot: int) -> np.random.Generator:
    return np.random.default_rng([seed, slot])


class _Writer:
    """Times descriptor generation and writing separately."""

    def __init__(self, workdir: Path):
        import hourglass.descriptors as descriptors
        self.descriptors = descriptors
        self.workdir = workdir
        self.gen_s = 0.0
        self.write_s = 0.0

    def generate(self, make):
        started = time.perf_counter()
        obj = make()
        self.gen_s += time.perf_counter() - started
        return obj

    def write(self, name: str, obj) -> str:
        path = self.workdir / f"{name}.json"
        started = time.perf_counter()
        self.descriptors.write_descriptor(obj, path)
        self.write_s += time.perf_counter() - started
        return str(path)


def _json(argv: list[str]) -> list[str]:
    return argv + ["--format", "json"]


# --------------------------------------------------------------------------
# words: growth-rate sequences over word products.
# (kind, order, row-set size or member count, jsr n-max, finiteness n-max)
WORDS_SLOTS = (
    ("iru", 2, 2, 5, 5),       # 4 members
    ("iru", 2, 3, 4, 4),       # 9 members
    ("iru", 2, 4, 3, 3),       # 16 members
    ("iru", 3, 2, 4, 4),       # 8 members
    ("iru", 3, 3, 3, 3),       # 27 members
    ("explicit", 2, 6, 5, 4),
    ("explicit", 3, 5, 5, 4),
    ("explicit", 4, 6, 4, 4),
    ("explicit", 8, 4, 5, 4),
    ("explicit", 8, 6, 4, 3),
)
WORDS_SANDWICH = 3


def _sandwich_seed(slot: int, members: int) -> int:
    """The first of slot, slot + 100, ... whose sandwich samples all mix
    at least two members.

    A sample drawn from one member only repeats that member exactly, and
    the reference cannot tell in which order the program keeps two equal
    members.
    """
    from reference import sandwich_draws

    fseed = slot
    while members > 1 and any(len(set(idx.tolist())) == 1 for idx, _ in
              sandwich_draws(fseed, members, WORDS_SANDWICH)):
        fseed += 100
    return fseed


def _build_words(w: _Writer, seed: int) -> list[Op]:
    from hourglass.generate import gen_instance
    from hourglass.descriptors import serialize_expr
    from hourglass.sets import ExplicitSet, Leaf

    ops: list[Op] = []
    for slot, (kind, order, size, jsr_n, fin_n) in enumerate(WORDS_SLOTS,
                                                            start=1):
        if kind == "iru":
            obj = w.generate(lambda: gen_instance(
                "iru", seed=int(_rng(seed, slot).integers(2**31)),
                lo=LO, hi=HI, n_rows=order, row_set_size=size))
        else:
            obj = w.generate(lambda: serialize_expr(Leaf(ExplicitSet(
                _rng(seed, slot).uniform(LO, HI, size=(size, order, order))
            ))))
        path = w.write(f"words-{slot:03d}", obj)
        ops.append(Op(len(ops), "jsr", _json(
            ["jsr", "--input", path, "--n-max", str(jsr_n)]),
            {"input": path}, {"n_max": jsr_n}))
        members = size ** order if kind == "iru" else size
        fseed = _sandwich_seed(slot, members)
        ops.append(Op(len(ops), "finiteness", _json(
            ["finiteness", "--input", path, "--n-max", str(fin_n),
             "--sandwich-samples", str(WORDS_SANDWICH),
             "--seed", str(fseed)]),
            {"input": path},
            {"n_max": fin_n, "sandwich_samples": WORDS_SANDWICH,
             "seed": fseed, "tol": 1e-7}))
    return ops


# --------------------------------------------------------------------------
# simplex: certified extremal members of positive IRU families.
# (order, row-set size, magnitude); each family is run in both directions.
# Few families, so that every operation is repeated often in a run.
SIMPLEX_FAMILIES = ((3, 3, 1.0), (3, 4, 1e-3), (4, 5, 1e-6), (5, 4, 1.0),
                    (8, 30, 1e-3), (12, 6, 1e-6), (16, 8, 1.0),
                    (24, 4, 1e-3), (32, 3, 1e-6))
# Families above magnitude 1 raise ConvergenceError on most seeds at the
# commit that defined this benchmark (the Perron bracket tolerance is
# absolute), and whether one of them fails depends on its data.  They are
# kept out of the timed list and run once, untimed, as the scale probe of
# the traced run: (order, row-set size, magnitude).
SCALE_PROBE = tuple((order, size, mag)
                    for mag in (1e2, 1e4, 1e6)
                    for order, size in ((4, 5), (8, 10), (16, 8)))


def _simplex_ops(w: _Writer, seed: int, families, prefix: str) -> list[Op]:
    from hourglass.generate import gen_instance

    ops: list[Op] = []
    for slot, (order, size, mag) in enumerate(families, start=1):
        obj = w.generate(lambda: gen_instance(
            "iru", seed=int(_rng(seed, slot).integers(2**31)),
            lo=LO * mag, hi=HI * mag, n_rows=order, row_set_size=size))
        path = w.write(f"{prefix}-{slot:03d}", obj)
        directions = ("max",) if mag > 1.0 else ("min", "max")
        for direction in directions:
            ops.append(Op(len(ops), "simplex", _json(
                ["simplex", "--input", path, "--direction", direction]),
                {"input": path}, {"direction": direction, "magnitude": mag}))
    return ops


def _build_simplex(w: _Writer, seed: int) -> list[Op]:
    return _simplex_ops(w, seed, SIMPLEX_FAMILIES, "simplex")


def build_scale_probe(seed: int, workdir: Path) -> list[Op]:
    """The ``simplex`` operations on the ``SCALE_PROBE`` families."""
    workdir.mkdir(parents=True, exist_ok=True)
    return _simplex_ops(_Writer(workdir), seed, SCALE_PROBE, "scale-probe")


# --------------------------------------------------------------------------
# closure: Minkowski expressions over IRU and chain leaves.
def _closure_templates():
    """Expression builders keyed by name, with the operations each one gets.

    Sizes in the comments are members after expansion.  The dedup pass in
    ``hourglass.sets`` refines pairwise up to 1024 rows, so the list spans
    both sides of that limit.
    """
    from hourglass.generate import random_chain, random_iru
    from hourglass.sets import Leaf, Product, Scale, Sum

    def iru(rng, d, k):
        return Leaf(random_iru(rng, d, d, k, LO, HI))

    def chain(rng, d, length):
        return Leaf(random_chain(rng, length, d, d, LO, HI))

    every = ("extremal-min", "extremal-max", "radius", "hset-probe",
             "hausdorff", "finiteness")
    return (
        ("sum-2", lambda r: Sum((iru(r, 2, 2), chain(r, 2, 3))), every),  # 12
        ("prod-2", lambda r: Product((iru(r, 2, 3), chain(r, 2, 4))),
         every),  # 36
        ("scale-sum-3", lambda r: Scale(0.5, Sum((iru(r, 3, 2),
                                                  chain(r, 3, 3)))),
         every),  # 24
        ("sum-prod-2", lambda r: Sum((Product((iru(r, 2, 2), chain(r, 2, 3))),
                                      iru(r, 2, 3))),
         ("extremal-min", "radius", "hausdorff")),  # 108
        ("prod-scale-3", lambda r: Product((Scale(0.5, iru(r, 3, 3)),
                                            chain(r, 3, 4))),
         ("extremal-max", "hset-probe")),  # 108
        ("sum-4", lambda r: Sum((iru(r, 4, 2), chain(r, 4, 5))),
         ("extremal-max", "radius")),  # 80
        ("sum-2-64", lambda r: Sum((iru(r, 2, 4), chain(r, 2, 4))),
         ("extremal-min", "extremal-max", "radius")),  # 64
        # Large enough for the pairwise refinement to dominate, small enough
        # to be repeated a few dozen times in a run.
        ("sum-3-216", lambda r: Sum((iru(r, 3, 3), chain(r, 3, 8))),
         ("extremal-max",)),  # 216
        # Above the refinement limit: expansion and the cheap dedup only.
        ("prod-2-1280", lambda r: Product((iru(r, 2, 4), Sum((
            chain(r, 2, 5), iru(r, 2, 4))))),
         ("hset-probe",)),  # 1280
    )


CLOSURE_HAUSDORFF_SCALE = 1.5
CLOSURE_PROBE_TRIALS = 300


def _build_closure(w: _Writer, seed: int) -> list[Op]:
    from hourglass.descriptors import serialize_expr
    from hourglass.sets import Scale

    ops: list[Op] = []
    for slot, (name, make, commands) in enumerate(_closure_templates(),
                                                  start=1):
        expr = w.generate(lambda: make(_rng(seed, slot)))
        obj = w.generate(lambda: serialize_expr(expr))
        path = w.write(f"closure-{slot:03d}-{name}", obj)
        for command in commands:
            if command.startswith("extremal-"):
                direction = command.split("-")[1]
                ops.append(Op(len(ops), "extremal", _json(
                    ["extremal", "--input", path, "--direction", direction]),
                    {"input": path}, {"direction": direction}))
            elif command == "radius":
                ops.append(Op(len(ops), "radius", _json(
                    ["radius", "--input", path]), {"input": path}))
            elif command == "hset-probe":
                ops.append(Op(len(ops), "hset-probe", _json(
                    ["hset-probe", "--input", path,
                     "--trials", str(CLOSURE_PROBE_TRIALS),
                     "--seed", str(slot)]),
                    {"input": path},
                    {"trials": CLOSURE_PROBE_TRIALS, "seed": slot}))
            elif command == "hausdorff":
                other = w.generate(lambda: serialize_expr(
                    Scale(CLOSURE_HAUSDORFF_SCALE, expr)))
                other_path = w.write(f"closure-{slot:03d}-{name}-scaled",
                                     other)
                ops.append(Op(len(ops), "hausdorff", _json(
                    ["hausdorff", "--input", path, "--other", other_path]),
                    {"input": path, "other": other_path}))
            else:
                ops.append(Op(len(ops), "finiteness", _json(
                    ["finiteness", "--input", path, "--n-max", "2",
                     "--sandwich-samples", "0"]),
                    {"input": path},
                    {"n_max": 2, "sandwich_samples": 0, "seed": 0,
                     "tol": 1e-7}))
    return ops


_BUILDERS = {
    "words": _build_words,
    "simplex": _build_simplex,
    "closure": _build_closure,
}


def build(workload: str, seed: int, workdir: Path) -> Plan:
    """Generate and write the workload's descriptors; return its op list."""
    if workload not in _BUILDERS:
        raise ValueError(f"unknown workload {workload!r}; one of {WORKLOADS}")
    workdir.mkdir(parents=True, exist_ok=True)
    writer = _Writer(workdir)
    ops = _BUILDERS[workload](writer, seed)
    return Plan(workload, seed, ops, writer.gen_s, writer.write_s)
