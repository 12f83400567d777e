import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hourglass.alternative import certify_extremal, hourglass_h1_iru
import hourglass.descriptors as descriptors
from hourglass.descriptors import (
    MAX_NESTING,
    MAX_UNIT_ORDER,
    DescriptorSchemaError,
    DescriptorSyntaxError,
    _numeric_array,
    _walked_array,
    descriptor_digest,
    load_descriptor,
    parse_descriptor,
    parse_descriptor_obj,
    serialize_expr,
    write_descriptor,
)
from hourglass.generate import gen_instance
from hourglass.linalg import DimensionMismatchError
from hourglass.sets import (
    ExplicitSet,
    IruSet,
    Product,
    Scale,
    Sum,
    epsilon_lift,
    expr_expand,
    iru_enumerate,
    scale_set,
)
from hourglass.spectral import (
    jsr_lsr_bounds,
    rho_extremal_exhaustive,
    spectral_simplex,
)


def test_identity_descriptor():
    expr = parse_descriptor_obj({"type": "identity", "n": 2})
    assert isinstance(expr, ExplicitSet)
    assert expr.matrices.tobytes() == np.eye(2)[None].tobytes()


def test_units_are_one_member_explicit_sets():
    # {0} and {I} parse as a matrix descriptor does, and serialize as the
    # explicit sets they are.
    zero = parse_descriptor_obj({"type": "zero", "n": 2, "m": 3})
    assert isinstance(zero, ExplicitSet)
    assert zero.matrices.tobytes() == np.zeros((1, 2, 3)).tobytes()
    assert serialize_expr(zero) == {"type": "explicit", "schema_version": 1,
                                    "matrices": [[[0.0] * 3] * 2]}
    unit = parse_descriptor_obj({"type": "identity", "n": 2})
    assert serialize_expr(unit) == {"type": "explicit", "schema_version": 1,
                                    "matrices": [[[1.0, 0.0], [0.0, 1.0]]]}


@pytest.mark.parametrize("obj, key", [
    ({"type": "zero", "n": 0, "m": 2}, "n"),
    ({"type": "zero", "n": -1, "m": 2}, "n"),
    ({"type": "zero", "n": 2, "m": 0}, "m"),
    ({"type": "zero", "n": 2, "m": -1}, "m"),
    ({"type": "identity", "n": 0}, "n"),
    ({"type": "identity", "n": -1}, "n"),
])
def test_unit_dimensions_below_one_are_dimension_errors(obj, key):
    # Checked before any array is made: numpy would take 0 and raise a
    # ValueError on -1.
    with pytest.raises(DimensionMismatchError) as err:
        parse_descriptor_obj(obj)
    assert str(err.value) == f"$: {key} must be positive, got {obj[key]}"


@pytest.mark.parametrize("obj, key", [
    ({"type": "zero", "n": 10**5, "m": 2}, "n"),
    ({"type": "zero", "n": 2, "m": 10**30}, "m"),
    ({"type": "identity", "n": 10**5}, "n"),
    ({"type": "identity", "n": 10**30}, "n"),
])
def test_unit_dimensions_above_the_bound_are_dimension_errors(obj, key):
    # Refused before any array is made: numpy would try to allocate it.
    with pytest.raises(DimensionMismatchError) as err:
        parse_descriptor_obj(obj)
    assert str(err.value) == (f"$: {key} must be at most {MAX_UNIT_ORDER}, "
                              f"got {obj[key]}")


@pytest.mark.parametrize("obj, message", [
    ({"type": "sum", "children": [{"type": "identity", "n": 2},
                                  {"type": "identity", "n": -1}]},
     "$.children[1]: n must be positive, got -1"),
    ({"type": "scale", "factor": 2, "child": {
        "type": "product", "children": [{"type": "identity", "n": 2},
                                        {"type": "zero", "n": 2, "m": 0}]}},
     "$.child.children[1]: m must be positive, got 0"),
    ({"type": "sum", "children": [
        {"type": "identity", "n": 2},
        {"type": "product", "children": [{"type": "identity", "n": 2},
                                         {"type": "identity", "n": 3}]}]},
     "$.children[1]: "),
])
def test_a_fault_is_tagged_with_its_own_path_only(obj, message):
    with pytest.raises(DimensionMismatchError) as err:
        parse_descriptor_obj(obj)
    assert str(err.value).startswith(message)
    assert str(err.value).count("$") == 1


def test_iru_row_sets_of_one_shape_are_read_at_once(monkeypatch):
    # Row sets of one shape take one depth-3 read, the per-row-set reader
    # only the others; the rows are the same either way.
    from hourglass import descriptors

    calls = []
    real = descriptors._numeric_array
    monkeypatch.setattr(descriptors, "_numeric_array", lambda *args, **kw: (
        calls.append(args[1]), real(*args, **kw))[1])
    same = [[[1.0, 0.5], [0.5, 1]], [[0.25, 2], [1.0, 3.0]]]
    mixed = [[[1.0, 0.5], [0.5, 1]], [[0.25, 2]]]
    for row_sets, paths in (
            (same, ["$.row_sets"]),
            (mixed, ["$.row_sets", "$.row_sets[0]", "$.row_sets[1]"])):
        calls.clear()
        got = parse_descriptor_obj({"type": "iru", "row_sets": row_sets})
        assert calls == paths
        want = IruSet([np.array(rs, dtype=float) for rs in row_sets])
        assert [rs.tobytes() for rs in got.row_sets] == [
            rs.tobytes() for rs in want.row_sets]


def test_explicit_pair_file(tmp_path):
    path = tmp_path / "pair.json"
    path.write_text(json.dumps({
        "schema_version": 1,
        "type": "explicit",
        "matrices": [[[0, 2], [0, 0]], [[0, 0], [2, 0]]],
    }))
    expr = parse_descriptor(path)
    assert isinstance(expr, ExplicitSet)
    assert expr.size == 2


def test_parsed_sets_feed_the_set_api(tmp_path):
    # A parsed leaf descriptor is the set itself, not a wrapper around it.
    iru_path, explicit_path = tmp_path / "iru.json", tmp_path / "explicit.json"
    write_descriptor({"type": "iru",
                      "row_sets": [[[1.0, 0.5], [0.5, 1.0]], [[0.25, 2.0]]]},
                     iru_path)
    write_descriptor({"type": "explicit",
                      "matrices": [[[1.0, 0.5], [0.5, 1.0]],
                                   [[2.0, 0.1], [0.1, 2.0]]]},
                     explicit_path)
    iru, explicit = parse_descriptor(iru_path), parse_descriptor(explicit_path)
    trace = spectral_simplex(iru, "max")
    cert = certify_extremal(iru, trace.certificate.extremal_matrix, "max", 1e-9)
    assert cert.perron.rho == pytest.approx(trace.rho, rel=1e-12)
    assert isinstance(scale_set(2.0, explicit), ExplicitSet)
    assert isinstance(epsilon_lift(iru, 1e-3), IruSet)
    assert hourglass_h1_iru(iru, (0, 0), [1.0, 1.0]).direction == "H1"
    members = iru_enumerate(iru)
    assert members.size == iru.cardinality_bound() == 2
    value, _ = rho_extremal_exhaustive(members, "max")
    assert value == pytest.approx(trace.rho, rel=1e-9)
    assert rho_extremal_exhaustive(explicit, "min")[0] == pytest.approx(1.5)
    assert jsr_lsr_bounds(explicit, 2).n_max == 2


def test_nested_sum_of_products_roundtrip(tmp_path):
    expr = Sum((
        Product((
            IruSet([[[1.0, 0.5]], [[0.25, 2.0], [1.0, 1.0]]]),
            ExplicitSet(np.eye(2)[None]),
        )),
        Scale(0.75, ExplicitSet(np.zeros((1, 2, 2)))),
    ))
    path = tmp_path / "expr.json"
    write_descriptor(expr, path)
    back = parse_descriptor(path)
    assert serialize_expr(expr) == serialize_expr(back)


def test_matrix_convenience_form():
    expr = parse_descriptor_obj({"type": "matrix", "entries": [[1, 2], [3, 4]]})
    out = expr_expand(expr)
    assert out.size == 1
    np.testing.assert_array_equal(out.matrices[0], [[1.0, 2.0], [3.0, 4.0]])


def test_numbers_as_decimal_strings():
    expr = parse_descriptor_obj({
        "type": "matrix",
        "entries": [["1.5", "0.25"], ["2", "0.125"]],
    })
    np.testing.assert_array_equal(
        expr_expand(expr).matrices[0], [[1.5, 0.25], [2.0, 0.125]]
    )


def test_float_roundtrip_is_exact(tmp_path):
    rng = np.random.default_rng(0)
    entries = rng.uniform(0.1, 2.0, size=(3, 3))
    expr = ExplicitSet(entries[None])
    path = tmp_path / "m.json"
    write_descriptor(expr, path)
    back = parse_descriptor(path)
    np.testing.assert_array_equal(back.matrices, expr.matrices)


def test_generated_descriptors_roundtrip(tmp_path):
    for seed, kind in enumerate(("iru", "chain", "expr", "iru", "expr")):
        descriptor = gen_instance(
            kind, seed=seed, lo=0.1, hi=2.0, n_rows=2, depth=2
        )
        path = tmp_path / f"{kind}{seed}.json"
        write_descriptor(descriptor, path)
        expr = parse_descriptor(path)
        again = serialize_expr(expr)
        assert again == descriptor


def test_malformed_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(DescriptorSyntaxError):
        parse_descriptor(path)


def test_schema_violations():
    with pytest.raises(DescriptorSchemaError):
        parse_descriptor_obj({"type": "nonsense"})
    with pytest.raises(DescriptorSchemaError):
        parse_descriptor_obj({"type": "matrix"})  # missing entries
    with pytest.raises(DescriptorSchemaError):
        parse_descriptor_obj({"type": "matrix", "entries": [[True]]})
    with pytest.raises(DescriptorSchemaError):
        parse_descriptor_obj({"type": "sum", "children": []})
    with pytest.raises(DescriptorSchemaError):
        parse_descriptor_obj(
            {"schema_version": 99, "type": "identity", "n": 2}
        )


def test_dimension_error_carries_json_path():
    bad = {
        "type": "sum",
        "children": [
            {"type": "zero", "n": 2, "m": 2},
            {"type": "zero", "n": 3, "m": 3},
        ],
    }
    with pytest.raises(DimensionMismatchError) as err:
        parse_descriptor_obj(bad)
    assert "$" in str(err.value)


def test_chain_order_violation_rejected():
    with pytest.raises(Exception):
        parse_descriptor_obj({
            "type": "chain",
            "matrices": [[[2.0]], [[1.0]]],
        })


def test_digest_tracks_content(tmp_path):
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    write_descriptor({"type": "identity", "n": 2, "schema_version": 1}, p1)
    write_descriptor({"type": "identity", "n": 2, "schema_version": 1}, p2)
    assert descriptor_digest(p1) == descriptor_digest(p2)
    write_descriptor({"type": "identity", "n": 3, "schema_version": 1}, p2)
    assert descriptor_digest(p1) != descriptor_digest(p2)


def test_load_reads_once_for_the_tree_and_the_digest(tmp_path, monkeypatch):
    path = tmp_path / "crlf.json"
    path.write_bytes(b'{"type": "explicit",\r\n "matrices": [[[1, 2],\r [3, 4]]]}')
    want = serialize_expr(parse_descriptor(path)), descriptor_digest(path)
    reads, read_bytes = [], Path.read_bytes
    monkeypatch.setattr(Path, "read_bytes",
                        lambda self: reads.append(self) or read_bytes(self))
    expr, digest = load_descriptor(path)
    assert (serialize_expr(expr), digest) == want
    assert reads == [path]


@pytest.mark.parametrize("data", [
    b'{"type": "matrix",\r\n "entries": [[1, 2]],\r "x": tru}',
    b'{\r\n"type": "mat\rrix"}',
    b'{"type": "matrix", "entries": [[1\xff]]}',
    b'{\r\n"type": "matrix", "entries": [[1]]\r\n}\xc3',
    b'\xef\xbb\xbf{"type": "identity", "n": 1}',
], ids=["crlf", "cr-in-string", "bad-byte", "truncated", "bom"])
def test_syntax_errors_read_as_in_text_mode(tmp_path, data):
    # The bytes decode as UTF-8 with universal newlines, as a file read in
    # text mode does, so every message and position is the same.
    path = tmp_path / "bad.json"
    path.write_bytes(data)
    with pytest.raises(ValueError) as text_mode:
        json.loads(path.read_text(encoding="utf-8"))
    for read in (parse_descriptor, load_descriptor):
        with pytest.raises(DescriptorSyntaxError) as err:
            read(path)
        assert str(err.value) == f"{path}: {text_mode.value}"


def _scale_chain(depth: int) -> str:
    """A descriptor of ``depth`` nested nodes, as text: scalings by 2
    around a 1x1 matrix."""
    return ('{"type": "scale", "factor": 2, "child": ' * (depth - 1)
            + '{"type": "matrix", "entries": [[1]]}' + "}" * (depth - 1))


def test_nesting_up_to_the_bound_parses(tmp_path):
    path = tmp_path / "deep.json"
    path.write_text(_scale_chain(MAX_NESTING))
    member = expr_expand(parse_descriptor(path)).matrices
    assert member.tolist() == [[[2.0 ** (MAX_NESTING - 1)]]]


def test_nesting_past_the_bound_is_a_schema_error(tmp_path):
    path = tmp_path / "deep.json"
    path.write_text(_scale_chain(MAX_NESTING + 1))
    with pytest.raises(DescriptorSchemaError, match=(
            rf"^\$\.\.\.child(\.child)+: nodes nest deeper than "
            rf"{MAX_NESTING}$")):
        parse_descriptor(path)
    obj = {"type": "matrix", "entries": [[1]]}
    for _ in range(MAX_NESTING):
        obj = {"type": "sum", "children": [{"type": "identity", "n": 1}, obj]}
    with pytest.raises(DescriptorSchemaError, match=(
            rf"^\$\.\.\.children\[1\](\.children\[1\])+\.children\[0\]: "
            rf"nodes nest deeper than "
            rf"{MAX_NESTING}$")):
        parse_descriptor_obj(obj)
    # Deeper than the decoder can follow: refused before any node is read.
    path.write_text(_scale_chain(3000))
    with pytest.raises(DescriptorSchemaError, match="nest"):
        parse_descriptor(path)


def test_decoder_recursion_is_a_schema_error(tmp_path, monkeypatch):
    def recurse(text):
        raise RecursionError("maximum recursion depth exceeded")

    path = tmp_path / "deep.json"
    path.write_text(_scale_chain(3))
    monkeypatch.setattr(descriptors.json, "loads", recurse)
    with pytest.raises(DescriptorSchemaError) as err:
        parse_descriptor(path)
    assert str(err.value) == (f"$: nested too deeply to decode; nodes nest "
                              f"at most {MAX_NESTING} deep")


# Plain JSON numbers, which the one-pass conversion reads, and leaves that
# only the walker reads or rejects correctly: booleans (numpy would take
# them as 1.0), None, non-finite values, decimal strings, 400-digit ints.
_NUMBERS = st.one_of(st.integers(-10**6, 10**6), st.integers(),
                     st.floats(-1e300, 1e300))
_ODD = st.one_of(
    st.booleans(), st.none(), st.floats(allow_nan=True),
    st.sampled_from([float("nan"), float("inf"), -float("inf"),
                     10**400, -10**400]),
    st.floats(allow_nan=True).map(str),
    st.sampled_from(["1.5", "2", "-0.0", "1e400", "nan", "abc", ""]),
)


def _block(shape, leaves):
    if not shape:
        return leaves
    return st.lists(_block(shape[1:], leaves),
                    min_size=shape[0], max_size=shape[0])


def _rectangular(depth, leaves):
    shape = st.lists(st.integers(1, 4), min_size=depth, max_size=depth)
    return shape.flatmap(lambda sh: _block(sh, leaves))


def _wild(depth):
    # Ragged, empty, too shallow, too deep and tuple containers.
    if depth == 0:
        return st.one_of(_NUMBERS, _ODD, st.lists(_NUMBERS, max_size=2))
    inner = _wild(depth - 1)
    return st.one_of(st.lists(inner, max_size=3),
                     st.lists(inner, min_size=1, max_size=3).map(tuple),
                     _NUMBERS)


def _ragged(depth):
    if depth == 0:
        return _NUMBERS
    return st.lists(_ragged(depth - 1), min_size=1, max_size=3)


@st.composite
def _numeric_blocks(draw):
    depth = draw(st.sampled_from([2, 3]))
    value = draw(st.one_of(_rectangular(depth, _NUMBERS),
                           _rectangular(depth, st.one_of(_NUMBERS, _ODD)),
                           _ragged(depth), _wild(depth)))
    return depth, value


def _outcome(read, value, depth):
    try:
        return read(value, "$.m", depth)
    except Exception as exc:  # compared by type and text
        return exc


@settings(max_examples=400, deadline=None)
@given(_numeric_blocks())
@example((2, [[]]))
@example((3, [[[]]]))
@example((2, [[[1.0]]]))
@example((2, [1.0, 2.0]))
@example((2, [(1, 2)]))
@example((2, [[True, 1]]))
@example((3, [[[1.0, 10**400]]]))
@example((2, [["1.5", 2]]))
@example((2, [[1.0], [2.0, 3.0]]))
def test_fast_path_matches_walker(block):
    depth, value = block
    want = _outcome(_walked_array, value, depth)
    got = _outcome(_numeric_array, value, depth)
    if isinstance(want, Exception):
        assert type(got) is type(want) and str(got) == str(want)
    else:
        assert isinstance(got, np.ndarray)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("obj, message", [
    ({"type": "matrix", "entries": [[1.0, -10**400]]},
     "$.entries[0][1]: number must be finite, got -inf"),
    ({"type": "scale", "factor": 10**400, "child": {"type": "identity", "n": 2}},
     "$.factor: number must be finite, got inf"),
])
def test_overflowing_integers_are_schema_errors(obj, message):
    with pytest.raises(DescriptorSchemaError) as err:
        parse_descriptor_obj(obj)
    assert str(err.value) == message
