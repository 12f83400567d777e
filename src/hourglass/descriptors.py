"""JSON descriptors for matrix-set expressions.

A descriptor is a JSON object with a ``type`` tag and a payload:

    {"type": "matrix",   "entries":  [[...], ...]}
    {"type": "explicit", "matrices": [[[...], ...], ...]}
    {"type": "iru",      "row_sets": [[[...], ...], ...]}
    {"type": "chain",    "matrices": [[[...], ...], ...]}
    {"type": "sum",      "children": [...]}
    {"type": "product",  "children": [...]}
    {"type": "scale",    "factor": t, "child": {...}}
    {"type": "zero",     "n": N, "m": M}
    {"type": "identity", "n": N}

``zero`` and ``identity`` read as the one-member explicit sets {0} and {I},
as ``matrix`` reads as one.  The root object additionally carries
``schema_version``.  Numbers may be JSON numbers or decimal strings;
serialization uses Python's shortest round-trip float text, so
parse(serialize(e)) reproduces e exactly.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path

import numpy as np

from .linalg import DimensionMismatchError
from .sets import (
    ExplicitSet,
    IruSet,
    OrderedChain,
    Product,
    Scale,
    SetExpr,
    Sum,
)

SCHEMA_VERSION = 1
MAX_UNIT_ORDER = 4096  # largest n or m of a {0} or {I}, checked before allocating
# Deepest node nesting of a descriptor.  A chain of sums or products this
# deep decodes, parses and runs under Python's default recursion limit; the
# workloads and fixtures nest at most about 4.
MAX_NESTING = 256


class DescriptorSyntaxError(ValueError):
    """The file is not valid JSON."""


class DescriptorSchemaError(ValueError):
    """The JSON does not match the descriptor schema."""


def _fail(path: str, message: str):
    raise DescriptorSchemaError(f"{path}: {message}")


def _number(value, path: str) -> float:
    if isinstance(value, bool):
        _fail(path, "expected a number, got a boolean")
    if not isinstance(value, (int, float, str)):
        _fail(path, f"expected a number, got {type(value).__name__}")
    try:
        out = float(value)
    except OverflowError:  # an integer beyond the float range
        out = np.inf if value > 0 else -np.inf
    except ValueError:
        _fail(path, f"expected a decimal number, got {value!r}")
    if not np.isfinite(out):
        _fail(path, f"number must be finite, got {out}")
    return out


def _dimension(obj: dict, key: str, path: str) -> int:
    """The integer ``obj[key]`` in [1, MAX_UNIT_ORDER]: an order of {0} or {I}."""
    value = _get(obj, key, path)
    if isinstance(value, bool) or not isinstance(value, int):
        _fail(f"{path}.{key}", f"expected an integer, got {value!r}")
    if value < 1:
        raise DimensionMismatchError(f"{key} must be positive, got {value}")
    if value > MAX_UNIT_ORDER:
        raise DimensionMismatchError(
            f"{key} must be at most {MAX_UNIT_ORDER}, got {value}")
    return value


def _nested_lists(node, depth: int) -> bool:
    return isinstance(node, list) and (
        depth == 1 or all(_nested_lists(c, depth - 1) for c in node))


def _numeric_array(value, path: str, depth: int, walk: bool = True):
    """Read a ``depth``-deep nested list of numbers as a float array.

    Nonempty nested lists whose leaves are all exact ``int`` or ``float``
    with finite values convert in one numpy pass, bit-identical to the
    walker.  Any other block (decimal strings, booleans, ``None``, non-finite
    or overflowing numbers, ragged, empty or tuple containers) is None if
    not ``walk``, else goes to the per-number walker, the one reader of
    decimal strings and the one path whose errors name the offending entry.
    """
    try:
        arr = np.array(value, dtype=object)
        if (arr.ndim == depth and arr.size and _nested_lists(value, depth)
                and set(map(type, arr.ravel().tolist())) <= {float, int}):
            out = arr.astype(float)
            if np.isfinite(out).all():
                return out
    except (ValueError, OverflowError):
        pass  # the walker reports the fault with its path
    return _walked_array(value, path, depth) if walk else None


def _walked_array(value, path: str, depth: int) -> np.ndarray:
    def walk(node, p, d):
        if d == 0:
            return _number(node, p)
        if not isinstance(node, list) or not node:
            _fail(p, "expected a nonempty array")
        return [walk(item, f"{p}[{i}]", d - 1) for i, item in enumerate(node)]

    data = walk(value, path, depth)
    try:
        return np.asarray(data, dtype=float)
    except ValueError:
        _fail(path, "ragged array: inner lists must have equal lengths")


def _get(obj: dict, key: str, path: str):
    if key not in obj:
        _fail(path, f"missing required key {key!r}")
    return obj[key]


_NODE_TYPES = (
    "matrix", "explicit", "iru", "chain", "sum", "product",
    "scale", "zero", "identity",
)


def _short(path: str) -> str:
    """A long JSON path cut to its last whole components."""
    if len(path) <= 80:
        return path
    tail = path[-60:]
    return "$..." + tail[tail.index(".") + 1:]


def _parse_node(obj, path: str, depth: int = 1) -> SetExpr:
    if depth > MAX_NESTING:
        _fail(_short(path), f"nodes nest deeper than {MAX_NESTING}")
    if not isinstance(obj, dict):
        _fail(path, f"expected an object, got {type(obj).__name__}")
    kind = _get(obj, "type", path)
    if kind not in _NODE_TYPES:
        _fail(f"{path}.type", f"unknown type {kind!r}; one of {_NODE_TYPES}")
    try:
        if kind == "matrix":
            entries = _numeric_array(_get(obj, "entries", path), f"{path}.entries", 2)
            return ExplicitSet(entries[None], dedup=False)
        if kind == "explicit":
            mats = _numeric_array(_get(obj, "matrices", path), f"{path}.matrices", 3)
            return ExplicitSet(mats)
        if kind == "iru":
            raw = _get(obj, "row_sets", path)
            if not isinstance(raw, list) or not raw:
                _fail(f"{path}.row_sets", "expected a nonempty array of row sets")
            rows = _numeric_array(raw, f"{path}.row_sets", 3, walk=False)
            if rows is None:  # not one block of plain numbers: one read each
                rows = [_numeric_array(rs, f"{path}.row_sets[{i}]", 2)
                        for i, rs in enumerate(raw)]
            return IruSet(rows)
        if kind == "chain":
            mats = _numeric_array(_get(obj, "matrices", path), f"{path}.matrices", 3)
            return OrderedChain(mats)
        if kind in ("sum", "product"):
            raw = _get(obj, "children", path)
            if not isinstance(raw, list) or len(raw) < 2:
                _fail(f"{path}.children", "expected an array of >= 2 children")
            children = tuple(
                _parse_node(c, f"{path}.children[{i}]", depth + 1)
                for i, c in enumerate(raw)
            )
            return Sum(children) if kind == "sum" else Product(children)
        if kind == "scale":
            factor = _number(_get(obj, "factor", path), f"{path}.factor")
            child = _parse_node(_get(obj, "child", path), f"{path}.child",
                                depth + 1)
            return Scale(factor, child)
        if kind == "zero":
            n, m = _dimension(obj, "n", path), _dimension(obj, "m", path)
            return ExplicitSet(np.zeros((1, n, m)), dedup=False)
        return ExplicitSet(np.eye(_dimension(obj, "n", path))[None], dedup=False)
    except DimensionMismatchError as exc:
        if str(exc).startswith(path):  # a child's, tagged with its own path
            raise
        raise DimensionMismatchError(f"{path}: {exc}") from exc


def parse_descriptor_obj(obj, path: str = "$") -> SetExpr:
    """Parse an already-decoded descriptor object into an expression tree."""
    if isinstance(obj, dict) and "schema_version" in obj:
        version = obj["schema_version"]
        if version != SCHEMA_VERSION:
            _fail(f"{path}.schema_version",
                  f"unsupported version {version!r}, expected {SCHEMA_VERSION}")
    return _parse_node(obj, path)


def parse_descriptor(path) -> SetExpr:
    """Load and parse a descriptor file.

    Raises DescriptorSyntaxError for bytes that are not UTF-8 and for
    malformed JSON (and for an integer literal beyond Python's 4300-digit
    limit), DescriptorSchemaError for schema violations (nodes nested
    deeper than ``MAX_NESTING`` among them), and DimensionMismatchError
    (tagged with the JSON path) for admissibility failures.
    """
    return load_descriptor(path)[0]


def load_descriptor(path) -> tuple[SetExpr, str]:
    """``(parse_descriptor(path), descriptor_digest(path))`` from one read:
    the bytes are hashed, then decoded as UTF-8 with universal newlines, as
    a file read in text mode is, and parsed."""
    data = Path(path).read_bytes()
    try:
        text = data.decode("utf-8")
        if "\r" in text:
            text = text.replace("\r\n", "\n").replace("\r", "\n")
        obj = json.loads(text)
    except ValueError as exc:  # UnicodeDecodeError is one
        raise DescriptorSyntaxError(f"{path}: {exc}") from exc
    except RecursionError:
        _fail("$", f"nested too deeply to decode; nodes nest at most "
                   f"{MAX_NESTING} deep")
    return parse_descriptor_obj(obj), hashlib.sha256(data).hexdigest()


def _serialize_node(e: SetExpr) -> dict:
    if isinstance(e, IruSet):
        return {"type": "iru", "row_sets": [rs.tolist() for rs in e.row_sets]}
    if isinstance(e, OrderedChain):
        return {"type": "chain", "matrices": e.matrices.tolist()}
    if isinstance(e, ExplicitSet):
        return {"type": "explicit", "matrices": e.matrices.tolist()}
    if isinstance(e, (Sum, Product)):
        return {"type": "sum" if isinstance(e, Sum) else "product",
                "children": [_serialize_node(c) for c in e.children]}
    if isinstance(e, Scale):
        return {"type": "scale", "factor": e.factor,
                "child": _serialize_node(e.child)}
    raise TypeError(f"cannot serialize {type(e).__name__}")


def serialize_expr(e: SetExpr) -> dict:
    out = _serialize_node(e)
    out["schema_version"] = SCHEMA_VERSION
    return out


def write_descriptor(e, path) -> str:
    """Write an expression (or a raw descriptor dict) to ``path`` as canonical
    text: sorted keys, fixed layout, one descriptor per file.

    The file appears atomically: the text lands in a sibling temp file that
    is renamed over the target.
    """
    obj = e if isinstance(e, dict) else serialize_expr(e)
    text = json.dumps(obj, sort_keys=True, indent=2) + "\n"
    target = Path(path)
    tmp = target.with_name(target.name + ".tmp")
    tmp.write_text(text)
    os.replace(tmp, target)
    return text


def descriptor_digest(path) -> str:
    """Content hash of a descriptor file (sha256 hex)."""
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()

