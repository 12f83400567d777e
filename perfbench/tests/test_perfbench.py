"""Tests of the benchmark itself: seeded inputs and the output checker.

Run with ``python3 -m pytest perfbench/tests -q`` from the repository root.
"""

import contextlib
import copy
import io
import json
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import reference  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from hourglass import cli  # noqa: E402
from hourglass.descriptors import descriptor_digest  # noqa: E402


def _digests(plan):
    paths = sorted({p for op in plan.ops for p in op.inputs.values()})
    return [(Path(p).name, descriptor_digest(p)) for p in paths]


def _mix(plan):
    """The operation list with descriptor paths replaced by file names."""
    return [(op.command, [Path(a).name if a.startswith("/") else a
                          for a in op.argv]) for op in plan.ops]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_identical_descriptors(tmp_path, workload):
    a = workloads.build(workload, 7, tmp_path / "a")
    b = workloads.build(workload, 7, tmp_path / "b")
    assert _digests(a) == _digests(b)
    assert _mix(a) == _mix(b)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_other_seed_changes_data_not_mix(tmp_path, workload):
    a = workloads.build(workload, 7, tmp_path / "a")
    b = workloads.build(workload, 8, tmp_path / "b")
    assert _mix(a) == _mix(b)
    da, db = dict(_digests(a)), dict(_digests(b))
    assert da.keys() == db.keys()
    assert all(da[k] != db[k] for k in da)


def _run(op):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(op.argv)
    return code, json.loads(out.getvalue())


@pytest.fixture(scope="module")
def words_plan(tmp_path_factory):
    return workloads.build("words", 3, tmp_path_factory.mktemp("words"))


@pytest.fixture(scope="module")
def closure_plan(tmp_path_factory):
    return workloads.build("closure", 3, tmp_path_factory.mktemp("closure"))


@pytest.fixture(scope="module")
def simplex_plan(tmp_path_factory):
    return workloads.build("simplex", 3, tmp_path_factory.mktemp("simplex"))


def _first(plan, command, **params):
    return next(op for op in plan.ops if op.command == command
                and all(op.params.get(k) == v for k, v in params.items()))


def _rejects(op, ref, code, report):
    with pytest.raises(reference.Mismatch):
        reference.check(op, ref, code, report)


def test_checker_accepts_and_rejects_jsr(words_plan):
    op = _first(words_plan, "jsr")
    ref = reference.build_reference(op)
    code, report = _run(op)
    reference.check(op, ref, code, report)

    bad = copy.deepcopy(report)
    bad["results"]["rho_hat"][1] *= 1 + 1e-6
    _rejects(op, ref, code, bad)

    bad = copy.deepcopy(report)
    word = bad["results"]["argmax_words"][1]
    bad["results"]["argmax_words"][1] = [(word[0] + 1) % 4] + word[1:]
    _rejects(op, ref, code, bad)

    _rejects(op, ref, 2, report)


def test_checker_rejects_wrong_finiteness_exit_code(words_plan):
    op = _first(words_plan, "finiteness")
    ref = reference.build_reference(op)
    code, report = _run(op)
    reference.check(op, ref, code, report)
    _rejects(op, ref, 2 - code, report)


def test_checker_rejects_wrong_extremal_member(closure_plan):
    op = _first(closure_plan, "extremal", direction="max")
    ref = reference.build_reference(op)
    code, report = _run(op)
    reference.check(op, ref, code, report)

    bad = copy.deepcopy(report)
    bad["results"]["rho"] *= 1 + 1e-6
    _rejects(op, ref, code, bad)

    bad = copy.deepcopy(report)
    bad["results"]["member_index"] = int(np.argmin(ref["radii"]))
    _rejects(op, ref, code, bad)


def test_checker_reverifies_simplex_certificate(simplex_plan):
    op = _first(simplex_plan, "simplex", magnitude=1.0, direction="max")
    ref = reference.build_reference(op)
    reference.cross_check_exhaustive(op, ref)
    code, report = _run(op)
    reference.check(op, ref, code, report)

    bad = copy.deepcopy(report)
    bad["results"]["rho"] *= 1 + 1e-6
    _rejects(op, ref, code, bad)

    bad = copy.deepcopy(report)
    bad["results"]["certificate"]["margins"][0] += 1e-6
    _rejects(op, ref, code, bad)

    bad = copy.deepcopy(report)
    v = bad["results"]["certificate"]["eigenvector"]
    v[0], v[1] = v[1], v[0]
    _rejects(op, ref, code, bad)


def test_reference_words_match_brute_force():
    rng = np.random.default_rng(0)
    mats = rng.uniform(0.1, 2.0, size=(3, 2, 2))
    ext = reference.word_extrema(mats, 3)
    best = max(
        (np.abs(np.linalg.eigvals(mats[k] @ mats[j] @ mats[i])).max()
         ** (1 / 3), (i, j, k))
        for i in range(3) for j in range(3) for k in range(3)
    )
    assert ext["max"][0] == pytest.approx(best[0], rel=1e-12)
    # the reported word is the least rotation of the maximizing class
    w = best[1]
    least = min(w[r:] + w[:r] for r in range(3))
    assert least in ext["max"][1]


def test_sandwich_seeds_mix_at_least_two_members():
    for slot, (kind, order, size, _, _) in enumerate(workloads.WORDS_SLOTS,
                                                     start=1):
        members = size ** order if kind == "iru" else size
        fseed = workloads._sandwich_seed(slot, members)
        for idx, _ in reference.sandwich_draws(fseed, members,
                                               workloads.WORDS_SANDWICH):
            assert len(set(idx.tolist())) > 1


def test_kernel_costs_divide_by_the_kernels_around_each_sample():
    # (wall, latencies, steps, ok ops, kernel times around the operations)
    passes = [(0.0, [4.0, 9.0], 0, set(), [1.0, 4.0, 1.0]),
              (0.0, [6.0, 3.0], 0, set(), [2.0, 2.0, 2.0]),
              (0.0, [2.0, 1.0], 0, set(), [1.0, 1.0, 1.0])]
    costs = run.kernel_costs(passes)
    assert np.allclose(costs, [[2.0, 4.5], [3.0, 1.5], [2.0, 1.0]])
    wall, p50, _, _ = run.summary(costs)
    assert (wall, p50) == pytest.approx((3.5, 1.75))


def test_scale_probe_keeps_its_mix_across_seeds(tmp_path):
    a = workloads.build_scale_probe(7, tmp_path / "a")
    b = workloads.build_scale_probe(8, tmp_path / "b")
    assert _mix(workloads.Plan("p", 7, a, 0, 0)) == _mix(
        workloads.Plan("p", 8, b, 0, 0))
    assert all(op.params["magnitude"] > 1.0 for op in a)
