import contextlib
import dataclasses
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import hourglass.cli as cli
from hourglass.cli import (
    EXIT_BAD_JSON,
    EXIT_CHECK_FAILED,
    EXIT_DIMENSION,
    EXIT_OK,
    EXIT_SCHEMA,
    EXIT_USAGE,
    build_parser,
    main,
)
from hourglass.descriptors import (
    parse_descriptor,
    serialize_expr,
    write_descriptor,
)
from hourglass.generate import gen_instance, random_iru
from hourglass.linalg import DomainError
from hourglass.sets import DEFAULT_SIZE_GUARD, OrderedChain, Product, expr_expand
from hourglass.alternative import THEOREM_NOTE, hourglass_probe_explicit
from hourglass.spectral import finiteness_verify, jsr_lsr_bounds

SRC = Path(__file__).resolve().parents[1] / "src"

@pytest.fixture(autouse=True)
def emitted_json_matches_the_json_module(monkeypatch):
    # Every report a command here emits, whatever its --format, must encode
    # with the json module; as JSON it prints json.dumps(sort_keys=True)
    # with the report encoder as its default.
    reports = []
    emit = cli._emit

    def emit_and_record(data, fmt):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            emit(data, fmt)
        sys.stdout.write(out.getvalue())
        reports.append((data, fmt, out.getvalue()))

    monkeypatch.setattr(cli, "_emit", emit_and_record)
    yield
    for data, fmt, text in reports:
        want = json.dumps(data, sort_keys=True, default=cli._plain) + "\n"
        assert fmt != "json" or text == want


@pytest.mark.parametrize("payload", [
    {"floats": [float("nan"), float("inf"), -float("inf"), -0.0, 5e-324,
                1e308, 0.1, 1e16, 1.5e-7]},
    {"scalars": [float("nan"), -float("inf"), -0.0, 5e-324, 1e308, 2**63,
                 2**64 + 1, -(2**70), True, False, None, 0, "x"]},
    {"nested": [[], {}, [[]], [{}], {"a": []}, {"b": {}}, [[1.0, 2], [3]]]},
    {"mixed": [1, 2.5, True, None, "s", [1.0], {"k": False}]},
    {"bools_and_numbers": [True, 1, False, 0.5], "ints": [3, -2**63, 0]},
    {"text": ["", "caf\u00e9", "\u2603 snow", "tab\tnew\nline", 'quote " and \\',
              "\x00\x1f\x7f", "\ud83d\ude00"], "\u00fcber": "\"key\""},
    {"z": 1, "a": {"y": [1, 2], "b": {"c": [float("nan")]}}, "m": "%s {}"},
    {}, [], [1.0], 1.0, float("nan"), -0.0, 2**100, "plain", None, True,
    {"tuple": (1, 2.0), "int_keys": {2: "a", 10: ["b"]}, "float_keys": {2.5: 1}},
])
def test_emitter_matches_json_dumps(payload, capsys):
    cli._emit(payload, "json")
    assert capsys.readouterr().out == json.dumps(payload, sort_keys=True) + "\n"


@dataclasses.dataclass(frozen=True)
class _Step:
    rho: object
    word: tuple


@dataclasses.dataclass(frozen=True)
class _Trace:
    step: _Step
    flags: tuple


def test_numpy_reports_print_as_python_ones(capsys):
    # numpy scalars, arrays, tuples and dataclasses, at any depth, print in
    # JSON and as text just as the same report built from Python types.
    nan, inf = float("nan"), float("inf")
    numpy_report = {"results": {
        "rho": np.float64(1.5), "count": np.int64(2), "passed": np.bool_(True),
        "odd": (np.float64(nan), np.float64(inf), np.float64(-inf)),
        "matrix": np.array([[0.25, inf], [-inf, 1e16]]),
        "trace": _Trace(_Step(np.float64(0.5), (np.int64(3), np.int32(1))),
                        (np.bool_(False), np.float32(0.5))),
    }}
    python_report = {"results": {
        "rho": 1.5, "count": 2, "passed": True, "odd": [nan, inf, -inf],
        "matrix": [[0.25, inf], [-inf, 1e16]],
        "trace": {"step": {"rho": 0.5, "word": [3, 1]},
                  "flags": [False, 0.5]},
    }}
    for fmt in ("json", "text"):
        cli._emit(numpy_report, fmt)
        got = capsys.readouterr().out
        cli._emit(python_report, fmt)
        assert got == capsys.readouterr().out


@pytest.fixture
def diag_pair(tmp_path):
    path = tmp_path / "diag_pair.json"
    write_descriptor({
        "schema_version": 1,
        "type": "explicit",
        "matrices": [[[2, 0], [0, 0]], [[0, 0], [0, 2]]],
    }, path)
    return str(path)


@pytest.fixture
def nilp_pair(tmp_path):
    path = tmp_path / "nilp_pair.json"
    write_descriptor({
        "schema_version": 1,
        "type": "explicit",
        "matrices": [[[0, 2], [0, 0]], [[0, 0], [2, 0]]],
    }, path)
    return str(path)


@pytest.fixture
def iru_file(tmp_path):
    path = tmp_path / "iru.json"
    write_descriptor(
        gen_instance("iru", seed=11, lo=0.1, hi=2.0, n_rows=2,
                     row_set_size=2),
        path,
    )
    return str(path)


def _run_json(capsys, argv):
    code = main(argv)
    data = json.loads(capsys.readouterr().out)
    return code, data


class TestCommands:
    def test_extremal_min_fixture(self, capsys, diag_pair):
        code, data = _run_json(
            capsys,
            ["extremal", "--input", diag_pair, "--direction", "min",
             "--format", "json"],
        )
        assert code == EXIT_OK
        assert data["results"]["rho"] == pytest.approx(2.0, abs=1e-9)
        assert data["parameters"] == {"direction": "min",
                                      "guard": DEFAULT_SIZE_GUARD}
        assert data["input_digest"]

    def test_radius_lists_members(self, capsys, nilp_pair):
        code, data = _run_json(
            capsys, ["radius", "--input", nilp_pair, "--format", "json"]
        )
        assert code == EXIT_OK
        assert data["results"]["radii"] == [0.0, 0.0]

    @pytest.mark.parametrize("b, c", [(6322.32432654, 10724.02404232),
                                      (1e6, 2e6)])
    def test_anti_diagonal_radius_is_sqrt_bc(self, capsys, tmp_path, b, c):
        # Zero-entry members at magnitudes where an absolute power-iteration
        # bracket cannot close: both commands answer sqrt(bc).
        path = tmp_path / "anti.json"
        write_descriptor({"type": "matrix", "entries": [[0, b], [c, 0]]}, path)
        for argv, key in ((["radius"], "rho_max"),
                          (["extremal", "--direction", "max"], "rho")):
            code, data = _run_json(
                capsys, [*argv, "--input", str(path), "--format", "json"])
            assert code == EXIT_OK
            assert data["results"][key] == pytest.approx(np.sqrt(b * c),
                                                         rel=1e-15, abs=0)

    def test_radius_keeps_distinct_tiny_members(self, capsys, tmp_path):
        # Deduplication is exact at any magnitude: only the repeat goes.
        path = tmp_path / "tiny.json"
        write_descriptor({"type": "explicit",
                          "matrices": [[[1e-13]], [[2e-13]], [[2e-13]]]}, path)
        code, data = _run_json(
            capsys, ["radius", "--input", str(path), "--format", "json"]
        )
        assert code == EXIT_OK
        assert data["results"]["count"] == 2
        assert data["results"]["rho_max"] == 2e-13

    def test_finiteness_pass_and_fail(self, capsys, iru_file, nilp_pair):
        code, data = _run_json(
            capsys,
            ["finiteness", "--input", iru_file, "--n-max", "3",
             "--format", "json"],
        )
        assert code == EXIT_OK
        assert data["results"]["passed"] is True
        assert data["parameters"]["seed"] == 0
        assert data["parameters"]["tol"] == 1e-7

        code, data = _run_json(
            capsys,
            ["finiteness", "--input", nilp_pair, "--n-max", "2",
             "--sandwich-samples", "0", "--format", "json"],
        )
        assert code == EXIT_CHECK_FAILED
        words = [f["word_max"] for f in data["results"]["failures"]]
        assert sorted(words[0]) == [0, 1]

    def test_simplex_on_iru(self, capsys, iru_file):
        code, data = _run_json(
            capsys,
            ["simplex", "--input", iru_file, "--direction", "max",
             "--format", "json"],
        )
        assert code == EXIT_OK
        cert = data["results"]["certificate"]
        assert cert["worst_margin"] >= -cert["cert_tol"]

    def test_simplex_through_the_unit(self, capsys, iru_file, tmp_path):
        # {I} is a one-member leaf: the rho is the bare family's, bit for
        # bit, and the selection gains the unit's 0 first.
        path = tmp_path / "unit.json"
        iru = json.loads(Path(iru_file).read_text())
        del iru["schema_version"]
        path.write_text(json.dumps({"type": "product", "children": [
            iru, {"type": "identity", "n": 2}]}))
        argv = ["--direction", "max", "--format", "json"]
        _, bare = _run_json(capsys, ["simplex", "--input", iru_file, *argv])
        _, tree = _run_json(capsys, ["simplex", "--input", str(path), *argv])
        assert tree["results"]["rho"] == bare["results"]["rho"]
        assert tree["results"]["selection"] == [0, *bare["results"]["selection"]]

    def test_simplex_on_expression_tree(self, capsys, tmp_path):
        path = tmp_path / "expr.json"
        write_descriptor(gen_instance("expr", seed=3, lo=0.1, hi=2.0,
                                      n_rows=3, depth=3), path)
        for direction in ("min", "max"):
            code, data = _run_json(
                capsys, ["simplex", "--input", str(path), "--direction",
                         direction, "--format", "json"])
            assert code == EXIT_OK
            _, want = _run_json(
                capsys, ["extremal", "--input", str(path), "--direction",
                         direction, "--format", "json"])
            assert data["results"]["rho"] == pytest.approx(
                want["results"]["rho"], abs=1e-9)

        code = main(["simplex", "--input", str(path), "--direction", "max",
                     "--epsilon", "1e-3"])
        err = capsys.readouterr().err
        assert code == EXIT_USAGE
        assert "error:" in err and "Traceback" not in err

    def test_simplex_rejects_explicit_input(self, capsys, diag_pair):
        code = main(["simplex", "--input", diag_pair, "--direction", "max"])
        assert code == EXIT_USAGE

    def test_lsr_reports_bracket(self, capsys, iru_file, diag_pair):
        code, data = _run_json(
            capsys,
            ["lsr", "--input", iru_file, "--n-max", "3", "--format", "json"],
        )
        assert code == EXIT_OK
        # Finite words bound the lower radius from above only; for a
        # row-independent family the bound sits at the member minimum.
        lo, hi = data["results"]["lsr_bracket"]
        assert lo == 0.0
        assert hi == pytest.approx(min(data["results"]["rho_check"]))

        code, data = _run_json(
            capsys,
            ["extremal", "--input", iru_file, "--direction", "min",
             "--format", "json"],
        )
        assert hi == pytest.approx(data["results"]["rho"], abs=1e-7)

        # Mixed words of the diagonal pair vanish, so its upper bound
        # collapses to zero even though both members have radius 2.
        code, data = _run_json(
            capsys,
            ["lsr", "--input", diag_pair, "--n-max", "3", "--format", "json"],
        )
        assert data["results"]["lsr_bracket"] == [0.0, 0.0]
        assert data["results"]["rho_check"][0] == pytest.approx(2.0)

    def test_simplex_epsilon_lifts_boundary_family(self, capsys, tmp_path):
        path = tmp_path / "boundary.json"
        for family, direction in (
                ({"type": "iru",
                  "row_sets": [[[0.0, 1.0], [1.0, 0.0]], [[1.0, 0.0]]]}, "max"),
                ({"type": "chain",
                  "matrices": [[[0, 1], [1, 0]], [[0, 2], [1, 0]]]}, "min")):
            write_descriptor({"schema_version": 1, **family}, path)
            assert main(["simplex", "--input", str(path),
                         "--direction", direction]) == EXIT_USAGE
            code, data = _run_json(
                capsys,
                ["simplex", "--input", str(path), "--direction", direction,
                 "--epsilon", "1e-4", "--format", "json"],
            )
            assert code == EXIT_OK
            assert data["parameters"]["epsilon"] == 1e-4

    def test_csv_only_for_sequence_commands(self, diag_pair):
        code = main(["extremal", "--input", diag_pair, "--direction", "min",
                     "--format", "csv"])
        assert code == EXIT_USAGE

    def test_jsr_csv(self, capsys, nilp_pair):
        code = main(
            ["jsr", "--input", nilp_pair, "--n-max", "4", "--format", "csv"]
        )
        out = capsys.readouterr().out.strip().splitlines()
        assert code == EXIT_OK
        assert out[0] == "n,rho_hat_n,rho_check_n,norm_upper_n,norm_lower_n"
        assert len(out) == 5
        row2 = out[2].split(",")
        assert float(row2[1]) == pytest.approx(2.0)  # rho_hat at n = 2

    def test_long_words_on_one_member(self, capsys, tmp_path):
        path = tmp_path / "one.json"
        write_descriptor({"schema_version": 1, "type": "explicit",
                          "matrices": [[[0.5, 1.2], [0.3, 0.9]]]}, path)
        code = main(["jsr", "--input", str(path), "--n-max", "1000",
                     "--format", "csv"])
        out, err = capsys.readouterr()
        assert (code, len(out.splitlines()), err) == (EXIT_OK, 1001, "")
        assert main(["finiteness", "--input", str(path), "--n-max", "200"]) \
            == EXIT_OK

    def test_hset_probe_pass_and_violation(self, capsys, iru_file, tmp_path):
        code, data = _run_json(
            capsys,
            ["hset-probe", "--input", iru_file, "--trials", "100",
             "--format", "json"],
        )
        assert code == EXIT_OK
        assert data["results"]["passed"] is True
        assert data["results"]["note"] == THEOREM_NOTE

        bad = tmp_path / "incomparable.json"
        write_descriptor({
            "schema_version": 1,
            "type": "explicit",
            "matrices": [[[1, 1], [1, 1]], [[2, 1], [0.2, 0.2]]],
        }, bad)
        code, data = _run_json(
            capsys,
            ["hset-probe", "--input", str(bad), "--trials", "200",
             "--format", "json"],
        )
        assert code == EXIT_CHECK_FAILED
        assert data["results"]["violations"]
        # Outside the class the report is the sampled probe's, as before.
        sampled = hourglass_probe_explicit(parse_descriptor(bad), 200, 0)
        assert data["results"] == json.loads(json.dumps(sampled,
                                                        default=cli._plain))

    def test_hset_probe_beyond_the_guard(self, capsys, tmp_path):
        # 256**5 members: the theorem answers, and the guard never trips.
        rng = np.random.default_rng(2)
        tree = Product(tuple(random_iru(rng, 4, 4, 4, 0.1, 2.0)
                             for _ in range(5)))
        assert tree.cardinality_bound() >= 10**12
        path = tmp_path / "huge.json"
        write_descriptor(serialize_expr(tree), path)
        code, data = _run_json(capsys, ["hset-probe", "--input", str(path),
                                        "--format", "json"])
        assert code == EXIT_OK
        assert data["parameters"]["guard"] < 10**12
        assert data["results"] == {"passed": True, "trials": 500,
                                   "violations": [], "note": THEOREM_NOTE}
        assert data["wall_time_s"] < 0.5

    def test_hausdorff(self, capsys, diag_pair, nilp_pair):
        code, data = _run_json(
            capsys,
            ["hausdorff", "--input", diag_pair, "--other", nilp_pair,
             "--format", "json"],
        )
        assert code == EXIT_OK
        assert data["results"]["distance"] == pytest.approx(2.0)

    def test_conv_check(self, capsys, iru_file):
        code, data = _run_json(
            capsys,
            ["conv-check", "--input", iru_file, "--n-max", "2",
             "--samples", "50", "--format", "json"],
        )
        assert code == EXIT_OK
        assert data["results"]["passed"] is True
        assert data["parameters"]["tol"] == 1e-9


# The flags each command reads besides --input and --format, and the argv
# that satisfies its required ones ({s}: descriptor, {out}: output path).
DECLARED = {
    "radius": ({"guard"}, []),
    "extremal": ({"direction", "guard"}, ["--direction", "min"]),
    "simplex": ({"direction", "epsilon"}, ["--direction", "max"]),
    "jsr": ({"n_max", "guard"}, []),
    "lsr": ({"n_max", "guard"}, []),
    "finiteness": ({"n_max", "sandwich_samples", "tol", "seed", "guard"}, []),
    "hset-probe": ({"trials", "seed", "guard"}, []),
    "hausdorff": ({"other", "guard"}, ["--other", "{s}"]),
    "conv-check": ({"n_max", "samples", "tol", "seed", "guard"}, []),
    "gen": ({"kind", "out", "seed", "lo", "hi", "rows", "cols",
             "row_set_size", "length", "depth", "max_matrices",
             "allow_boundary"}, ["--kind", "expr", "--out", "{out}"]),
}

# Flags a command does not read are refused.
UNREAD = [
    ("radius", "--seed", "1"), ("extremal", "--seed", "1"),
    ("simplex", "--seed", "1"), ("jsr", "--seed", "1"),
    ("hausdorff", "--seed", "1"), ("jsr", "--tol", "1e-9"),
    ("hset-probe", "--tol", "1e-9"), ("hausdorff", "--tol", "1e-9"),
    ("gen", "--tol", "1"), ("simplex", "--guard", "5"),
    ("gen", "--guard", "5"), ("simplex", "--tol", "1e-9"),
    ("hausdorff", "--norm", "max"), ("radius", "--tol", "1e-9"),
    ("extremal", "--tol", "1e-9"),
]


class TestPrintedReports:
    """``jsr`` and ``finiteness`` print the library's reports as they are,
    in the reports' field order."""

    @pytest.mark.parametrize("command", ["jsr", "lsr"])
    def test_jsr_prints_the_summary(self, capsys, iru_file, command):
        code, data = _run_json(capsys, [command, "--input", iru_file,
                                        "--n-max", "3", "--format", "json"])
        assert code == EXIT_OK
        want = jsr_lsr_bounds(expr_expand(parse_descriptor(iru_file)), 3)
        assert data["results"] == json.loads(json.dumps(want,
                                                        default=cli._plain))

    @pytest.mark.parametrize("fixture, exit_code", [
        ("iru_file", EXIT_OK), ("nilp_pair", EXIT_CHECK_FAILED)])
    def test_finiteness_prints_the_report(self, capsys, request, fixture,
                                          exit_code):
        path = request.getfixturevalue(fixture)
        code, data = _run_json(capsys, ["finiteness", "--input", path,
                                        "--n-max", "3", "--seed", "2",
                                        "--format", "json"])
        assert code == exit_code
        want = finiteness_verify(parse_descriptor(path), n_max=3, seed=2)
        assert data["results"] == json.loads(json.dumps(want,
                                                        default=cli._plain))

    @pytest.mark.parametrize("command, labels", [
        ("jsr", ["n_max", "rho_hat", "rho_check", "norm_upper", "norm_lower",
                 "argmax_words", "argmin_words", "jsr_bracket",
                 "lsr_bracket"]),
        ("finiteness", ["passed", "rho_min", "rho_max", "checks",
                        "failures"]),
    ])
    def test_text_keeps_the_label_order(self, capsys, iru_file, command,
                                        labels):
        assert main([command, "--input", iru_file, "--n-max", "3"]) == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        body = lines[lines.index("results:") + 1:]
        body = body[:next(i for i, line in enumerate(body)
                          if not line.startswith("  "))]
        assert [line[2:].split(":")[0] for line in body
                if line[2] not in " -"] == labels

    def test_jsr_under_benchmark_tracer(self, capsys, monkeypatch, iru_file):
        # The benchmark tracer sizes a jsr_lsr_bounds span by the member
        # count of its argument, so the command hands the library the
        # expanded set.
        monkeypatch.syspath_prepend(str(SRC.parent / "perfbench"))
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
        try:
            code = main(["jsr", "--input", iru_file, "--n-max", "2"])
        finally:
            tracer.uninstall()
        assert code == EXIT_OK
        spans = [span for span in tracer.spans
                 if span[tracing.NAME] == "spectral.jsr_lsr_bounds"]
        assert [span[tracing.INFO] for span in spans] == [{"words": sum(
            2 * tracing.necklace_count(4, n) + 2 * 4 ** n for n in (1, 2))}]


def _argv(command, iru_file, tmp_path):
    extra = [a.format(s=iru_file, out=tmp_path / "g.json")
             for a in DECLARED[command][1]]
    inputs = [] if command == "gen" else ["--input", iru_file]
    return [command, *inputs, *extra]


class TestDeclaredFlags:
    @pytest.mark.parametrize("command", sorted(DECLARED))
    def test_parameters_are_the_declared_flags(self, capsys, iru_file,
                                               tmp_path, command):
        argv = _argv(command, iru_file, tmp_path)
        declared = set(vars(build_parser().parse_args(argv)))
        declared -= {"command", "func", "input", "format"}
        assert declared == DECLARED[command][0]
        code, data = _run_json(capsys, argv + ["--format", "json"])
        assert code == EXIT_OK
        assert set(data["parameters"]) == DECLARED[command][0]

    @pytest.mark.parametrize("command,flag,value", UNREAD)
    def test_unread_flag_is_a_usage_error(self, capsys, iru_file, tmp_path,
                                          command, flag, value):
        argv = _argv(command, iru_file, tmp_path)
        assert main(argv + [flag, value]) == EXIT_USAGE
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("command",
                             ["hset-probe", "finiteness", "conv-check", "gen"])
    def test_negative_seed_is_a_usage_error(self, capsys, iru_file, tmp_path,
                                            command):
        # numpy's generators refuse negative seeds; the parser does first.
        argv = _argv(command, iru_file, tmp_path)
        assert main(argv + ["--seed", "-1"]) == EXIT_USAGE
        out, err = capsys.readouterr()
        assert out == "" and "Traceback" not in err
        assert [line for line in err.splitlines() if "error:" in line] == [
            f"hourglass {command}: error: argument --seed: "
            "not a non-negative integer: '-1'"]


class TestReproducibility:
    def test_identical_results_for_identical_inputs(self, capsys, iru_file):
        # Same digest + parameters reproduce the results exactly; only the
        # wall time may differ between runs.
        argv = ["finiteness", "--input", iru_file, "--n-max", "3",
                "--seed", "9", "--format", "json"]
        runs = []
        for _ in range(2):
            assert main(argv) == EXIT_OK
            data = json.loads(capsys.readouterr().out)
            data.pop("wall_time_s")
            runs.append(data)
        assert runs[0] == runs[1]

    def test_seeded_probe_reproduces(self, capsys, iru_file):
        argv = ["hset-probe", "--input", iru_file, "--trials", "40",
                "--seed", "4", "--format", "json"]
        outs = []
        for _ in range(2):
            main(argv)
            data = json.loads(capsys.readouterr().out)
            data.pop("wall_time_s")
            outs.append(data)
        assert outs[0] == outs[1]


class TestExitCodes:
    def test_malformed_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{oops")
        assert main(["radius", "--input", str(path)]) == EXIT_BAD_JSON

    @pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", int)(),
                        reason="this interpreter reads integers of any length")
    def test_integer_past_the_digit_limit(self, tmp_path, capsys):
        digits = "0" * sys.get_int_max_str_digits()
        path = tmp_path / "huge.json"
        path.write_text('{"type": "matrix", "entries": [[1%s]]}' % digits)
        assert main(["radius", "--input", str(path)]) == EXIT_BAD_JSON
        assert "digits" in capsys.readouterr().err

    def test_undecodable_bytes(self, tmp_path, capsys):
        bad = tmp_path / "latin1.json"
        bad.write_bytes(b'{"type": "matrix", "entries": [[1\xff]]}')
        good = tmp_path / "good.json"
        good.write_text('{"type": "matrix", "entries": [[1.0]]}')
        for argv in (["radius", "--input", str(bad)],
                     ["hausdorff", "--input", str(good), "--other", str(bad)]):
            assert main(argv) == EXIT_BAD_JSON
            assert "can't decode byte 0xff" in capsys.readouterr().err

    def test_schema_violation(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"type": "wat"}))
        assert main(["radius", "--input", str(path)]) == EXIT_SCHEMA

    def test_dimension_mismatch(self, tmp_path):
        path = tmp_path / "dims.json"
        path.write_text(json.dumps({
            "type": "sum",
            "children": [
                {"type": "zero", "n": 2, "m": 2},
                {"type": "zero", "n": 3, "m": 3},
            ],
        }))
        assert main(["radius", "--input", str(path)]) == EXIT_DIMENSION

    def test_unit_order_below_one(self, tmp_path, capsys):
        path = tmp_path / "zero.json"
        path.write_text(json.dumps({"type": "zero", "n": -1, "m": 2}))
        assert main(["radius", "--input", str(path)]) == EXIT_DIMENSION
        assert capsys.readouterr().err == "error: $: n must be positive, got -1\n"

    @pytest.mark.parametrize("obj, message", [
        ({"type": "sum", "children": [{"type": "identity", "n": 2},
                                      {"type": "identity", "n": -1}]},
         "$.children[1]: n must be positive, got -1"),
        ({"type": "identity", "n": 10**30},
         f"$: n must be at most 4096, got {10**30}"),
        ({"type": "zero", "n": 2, "m": 10**5}, "$: m must be at most 4096, got 100000"),
    ])
    def test_unit_faults_are_one_tagged_line(self, tmp_path, capsys, obj,
                                             message):
        path = tmp_path / "unit.json"
        path.write_text(json.dumps(obj))
        self._refused_by_every_reader(tmp_path, capsys, path, EXIT_DIMENSION,
                                      message)

    @pytest.mark.parametrize("text, message", [
        ('{"type": "matrix", "entries": [[1.0, true], [0.5, 2.0]]}',
         "$.entries[0][1]: expected a number, got a boolean"),
        ('{"type": "matrix", "entries": [[1.0, 0.5], ["nan", 2.0]]}',
         "$.entries[1][0]: number must be finite, got nan"),
        ('{"type": "iru", "row_sets": [[[1.0, NaN]], [[0.5, 2.0]]]}',
         "$.row_sets[0][0][1]: number must be finite, got nan"),
        ('{"type": "iru", "row_sets": [[[1.0, 0.5]], [[0.5, 2.0], [1.0]]]}',
         "$.row_sets[1]: ragged array: inner lists must have equal lengths"),
        ('{"type": "iru", "row_sets": [[[1.0, 0.5]], []]}',
         "$.row_sets[1]: expected a nonempty array"),
        ('{"type": "matrix", "entries": [[1%s]]}' % ("0" * 400),
         "$.entries[0][0]: number must be finite, got inf"),
    ], ids=["boolean", "nan-string", "nan-literal", "ragged", "empty",
            "huge-int"])
    def test_unreadable_numbers_name_their_path(self, tmp_path, capsys,
                                                text, message):
        path = tmp_path / "bad.json"
        path.write_text(text)
        self._refused_by_every_reader(tmp_path, capsys, path, EXIT_SCHEMA,
                                      message)

    @staticmethod
    def _refused_by_every_reader(tmp_path, capsys, path, exit_code, message):
        # Each command that reads --input refuses the file as it parses it,
        # before allocating anything: one tagged line, no traceback.
        for command in sorted(set(DECLARED) - {"gen"}):
            assert main(_argv(command, str(path), tmp_path)) == exit_code
            assert capsys.readouterr() == ("", f"error: {message}\n")

    def test_deep_nesting_is_one_schema_line(self, tmp_path, capsys):
        depth = 3000  # deeper than the JSON decoder follows
        path = tmp_path / "deep.json"
        path.write_text('{"type": "scale", "factor": 1, "child": ' * depth
                        + '{"type": "identity", "n": 2}' + "}" * depth)
        for argv in (["radius", "--input", str(path)],
                     ["simplex", "--input", str(path), "--direction", "max"]):
            assert main(argv) == EXIT_SCHEMA
            err = capsys.readouterr().err
            assert err.startswith("error: $") and err.count("\n") == 1

    def test_simplex_refuses_a_boundary_tree_in_its_own_words(self, tmp_path,
                                                              capsys):
        path = tmp_path / "boundary.json"
        path.write_text(json.dumps({"type": "sum", "children": [
            {"type": "iru", "row_sets": [[[0, 1], [1, 0]], [[1, 0], [0, 2]]]},
            {"type": "chain", "matrices": [[[0, 1], [1, 0]],
                                           [[0, 2], [1, 0]]]}]}))
        assert main(["simplex", "--input", str(path), "--direction",
                     "max"]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: spectral_simplex requires")
        assert err.count("\n") == 1 and "perron_vector" not in err

    def test_each_descriptor_is_read_once(self, tmp_path, capsys,
                                          monkeypatch, diag_pair, nilp_pair):
        reads, read_bytes = [], Path.read_bytes
        monkeypatch.setattr(Path, "read_bytes",
                            lambda self: reads.append(str(self))
                            or read_bytes(self))
        monkeypatch.setattr(Path, "read_text", None)  # no second reader
        _, radius = _run_json(capsys, ["radius", "--input", diag_pair,
                                       "--format", "json"])
        _, other = _run_json(capsys, ["hausdorff", "--input", diag_pair,
                                      "--other", nilp_pair, "--format",
                                      "json"])
        assert reads == [diag_pair, diag_pair, nilp_pair]
        assert radius["input_digest"] == other["input_digest"] == (
            hashlib.sha256(read_bytes(Path(diag_pair))).hexdigest())
        assert other["results"]["other_digest"] == (
            hashlib.sha256(read_bytes(Path(nilp_pair))).hexdigest())

    def test_usage_error(self):
        assert main(["radius", "--no-such-flag"]) == EXIT_USAGE
        assert main(["extremal", "--direction", "sideways"]) == EXIT_USAGE

    @pytest.mark.parametrize("argv, message", [
        (["finiteness", "--n-max", "0"], "n_max must be >= 1, got 0"),
        (["conv-check", "--n-max", "0"], "n_max must be >= 1, got 0"),
        (["finiteness", "--sandwich-samples", "-1"],
         "sandwich_samples must be >= 0, got -1"),
        (["conv-check", "--tol", "nan"], "tol must be finite, got nan"),
        (["finiteness", "--tol", "inf"], "tol must be finite, got inf"),
        # A negative tolerance fails even exact agreement.
        (["finiteness", "--tol", "-1"], "tol must be >= 0, got -1.0"),
        (["conv-check", "--tol=-1e-9"], "tol must be >= 0, got -1e-09"),
        # The spaced form too: argparse reads "-1e-9" as a value.
        (["conv-check", "--tol", "-1e-9"], "tol must be >= 0, got -1e-09"),
        (["finiteness", "--tol", "-1e-9"], "tol must be >= 0, got -1e-09"),
        (["simplex", "--direction", "max", "--epsilon", "-1e-3"],
         "eps must be positive, got -0.001"),
        (["finiteness", "--guard", "3"],
         "materialization needs 4 matrices, guard is 3"),
        # Refused before any sample is drawn: the enlarged set's 4 + 10**5
        # members, their squares and necklace_count(4 + 10**5, 3).
        (["finiteness", "--sandwich-samples", "100000"],
         "materialization needs 333383335900044 matrices, guard is 100000"),
        (["gen", "--kind", "chain", "--length", "0"],
         "chain length must be >= 1, got 0"),
        (["gen", "--kind", "expr", "--depth", "-1"],
         "expression depth must be >= 0, got -1"),
        # A tree this deep would not read back.
        (["gen", "--kind", "expr", "--depth", "300"],
         "expression depth must be < 256, got 300"),
    ], ids=["finiteness-n-max", "conv-check-n-max", "sandwich-samples",
            "conv-check-tol-nan", "finiteness-tol-inf",
            "finiteness-tol-negative", "conv-check-tol-negative",
            "conv-check-tol-spaced", "finiteness-tol-spaced",
            "simplex-epsilon-spaced",
            "finiteness-guard", "finiteness-sandwich-guard", "gen-chain-length", "gen-expr-depth", "gen-expr-too-deep"])
    def test_refuses_values_that_make_a_check_vacuous(self, tmp_path, capsys,
                                                      iru_file, argv, message):
        where = (["--out", str(tmp_path / "g.json")] if argv[0] == "gen"
                 else ["--input", iru_file])
        assert main([*argv, *where]) == EXIT_USAGE
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_missing_file(self):
        assert main(["radius", "--input", "/nonexistent.json"]) == EXIT_USAGE

    @staticmethod
    def _fails_at_once(tmp_path, argv, first_row=(1.5e308, 1e308), tree=None):
        # Row and column sums overflow: one error line at once, no warning.
        path = tmp_path / "over.json"
        path.write_text(json.dumps(tree or {"type": "explicit", "matrices": [
            [first_row, [1e308, 1.2e308]],
            [[1.4e308, 1e308], [1e308, 1.2e308]]]}))
        done = subprocess.run(
            [sys.executable, "-m", "hourglass.cli", *argv, "--input",
             str(path)], capture_output=True, text=True, timeout=60,
            env=dict(os.environ, PYTHONPATH=str(SRC)))
        assert done.returncode == EXIT_USAGE
        assert done.stderr.startswith("error: ")
        assert done.stderr.count("\n") == 1
        assert "Warning" not in done.stderr
        assert "the float range" in done.stderr

    def test_radius_beyond_float_range(self, tmp_path):
        self._fails_at_once(tmp_path, ["radius"])

    # Finite leaves whose Minkowski sum or product overflows.
    _SUM = {"type": "sum", "children": 2 * [
        {"type": "iru", "row_sets": [[[1e308, 1e307]], [[1e307, 1e308]]]}]}
    _PRODUCT = {"type": "product", "children": 2 * [
        {"type": "iru", "row_sets": [[[1e200, 1e200]], [[1e200, 1e200]]]}]}

    @pytest.mark.parametrize("argv, first_row, tree", [
        (["jsr", "--n-max", "2"], (1.5e308, 1e308), None),
        (["lsr", "--n-max", "2"], (1.5e308, 1e308), None),
        (["conv-check"], (1.5e308, 1e308), None),
        (["simplex", "--direction", "max"], (1.5e308, 1e308), None),
        (["simplex", "--direction", "min"], (1.5e308, 1e308), None),
        (["hset-probe"], (1.5e308, 1e308), None),
        # The sweep takes signed members; their absolute column sums overflow.
        (["jsr", "--n-max", "2"], (1.5e308, -1e308), None),
        *((argv, None, tree) for tree in (_SUM, _PRODUCT) for argv in (
            ["radius"], ["extremal", "--direction", "max"], ["jsr", "--n-max", "2"],
            ["finiteness"], ["hset-probe"], ["conv-check"],
            ["simplex", "--direction", "max"], ["simplex", "--direction", "min"])),
    ], ids=["jsr", "lsr", "conv-check", "simplex-max", "simplex-min",
            "hset-probe", "jsr-signed",
            *(f"{tree}-{cmd}" for tree in ("sum", "product") for cmd in (
                "radius", "extremal", "jsr", "finiteness", "hset-probe",
                "conv-check", "simplex-max", "simplex-min"))])
    def test_beyond_float_range(self, tmp_path, argv, first_row, tree):
        self._fails_at_once(tmp_path, argv, first_row, tree)


class TestGen:
    def test_seed_reproducibility(self, tmp_path):
        # Depth 60: a draw stops growing once its bound passes the limit.
        for depth in ("2", "60"):
            a, b = tmp_path / "a.json", tmp_path / "b.json"
            for out in (a, b):
                code = main([
                    "gen", "--kind", "expr", "--seed", "3", "--out", str(out),
                    "--rows", "2", "--depth", depth,
                ])
                assert code == EXIT_OK
            assert a.read_bytes() == b.read_bytes()

    def test_generated_chain_is_ordered(self, tmp_path):
        out = tmp_path / "chain.json"
        main(["gen", "--kind", "chain", "--seed", "5", "--out", str(out),
              "--rows", "3", "--length", "4"])
        chain = parse_descriptor(out)
        assert isinstance(chain, OrderedChain)
        assert np.all(chain.matrices[1:] >= chain.matrices[:-1])

    def test_generated_iru_passes_probe(self, tmp_path):
        out = tmp_path / "iru.json"
        main(["gen", "--kind", "iru", "--seed", "6", "--out", str(out),
              "--rows", "3", "--cols", "3", "--row-set-size", "2"])
        expanded = expr_expand(parse_descriptor(out))
        assert hourglass_probe_explicit(expanded, trials=100, seed=0).passed

    def test_boundary_requires_flag(self, tmp_path):
        out = tmp_path / "b.json"
        code = main(["gen", "--kind", "iru", "--seed", "1", "--out",
                     str(out), "--lo", "0"])
        assert code == EXIT_USAGE
        code = main(["gen", "--kind", "iru", "--seed", "1", "--out",
                     str(out), "--lo", "0", "--allow-boundary"])
        assert code == EXIT_OK

    def test_gen_instance_rejects_bad_range(self):
        with pytest.raises(DomainError):
            gen_instance("iru", seed=0, lo=2.0, hi=1.0)
        with pytest.raises(DomainError):
            gen_instance("mystery", seed=0, lo=0.1, hi=1.0)


def test_import_loads_numpy_only():
    # scipy is no dependency and the word sweep runs without a thread pool:
    # importing the CLI must load neither.
    probe = ("import sys, hourglass.cli; "
             "print([m for m in sys.modules if m.split('.')[0] == 'scipy'"
             " or m == 'concurrent.futures'])")
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, timeout=60,
                          env=dict(os.environ, PYTHONPATH=str(SRC)))
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


# Every name the package exported when it imported its modules eagerly.
EXPORTED = """
    ConvergenceError DEFAULT_MAX_ITER DEFAULT_TOL DimensionMismatchError
    DomainError PerronCertificate l1_operator_norm perron_vector
    spectral_radius_gelfand spectral_radii spectral_radius_power
    strict_tolerance DEFAULT_SIZE_GUARD ExplicitSet GuardExceededError
    HausdorffReport IruSet OrderedChain Product Scale SetExpr Sum
    dedup_tolerance epsilon_lift expr_expand hausdorff_distance
    iru_enumerate minkowski_product minkowski_sum scale_set set_equal
    transpose_set CertificationError ExtremalCertificate HourglassOutcome
    ProbeReport certify_extremal hourglass_h1_iru hourglass_h2_iru
    hourglass_probe_explicit ConvexHullReport FinitenessReport SimplexTrace
    SpectralSummary conv_lsr_check finiteness_verify jsr_lsr_bounds
    rho_extremal_exhaustive rho_n_bruteforce spectral_simplex
    parse_descriptor serialize_expr write_descriptor __version__
""".split()


def test_every_exported_name_still_imports():
    import hourglass
    import hourglass.alternative
    import hourglass.sets

    for name in EXPORTED:  # what `from hourglass import name` looks up
        assert getattr(hourglass, name) is not None
        assert name in dir(hourglass)
    assert hourglass.hourglass_probe is hourglass.alternative.hourglass_probe
    assert hourglass.in_class is hourglass.sets.in_class
    with pytest.raises(AttributeError, match="has no attribute 'nothing'"):
        hourglass.nothing


def test_generate_loads_no_engine():
    # Generating and writing descriptors (the benchmark's setup path) loads
    # these five modules and no other: not the word engines, the oracle or
    # the CLI, and each module it does load is compiled on every setup.
    probe = ("import sys, hourglass.generate, hourglass.descriptors; "
             "print(' '.join(sorted(m for m in sys.modules "
             "if m.split('.')[0] == 'hourglass')))")
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, timeout=60,
                          env=dict(os.environ, PYTHONPATH=str(SRC)))
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["hourglass", "hourglass.descriptors",
                                   "hourglass.generate", "hourglass.linalg",
                                   "hourglass.sets"]
