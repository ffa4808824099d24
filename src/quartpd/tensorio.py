"""Tensor text format and shorthand parsing for the CLI.

The file format is a JSON document:

    {"dim": 3,
     "entries": [{"index": [1, 1, 2, 3], "value": "-7/12"}, ...]}

Unlisted canonical indices are zero; indices may appear in any order and
are canonicalized.  Values are rational strings ("p/q"), integers, or
decimal strings expanded exactly in base 10.

A shorthand JSON form is also accepted:

    {"family": "cyclic", "coeffs": ["1", "-1", "1", "1", "-7/12"]}
    {"family": "binary", "coeffs": [...5 coefficients...]}
    {"family": "relaxed", "coeffs": [...7: a b c d e123 e223 e233...]}
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Sequence, Union

from .binary import BinaryQuartic
from .cyclic import CyclicTernary, RelaxedCyclicTernary, embed
from .tensor import SymmetricTensor4
from .verdict import _is_int, as_fraction

ParsedInput = Union[BinaryQuartic, CyclicTernary, RelaxedCyclicTernary, SymmetricTensor4]


# shorthand family name -> its class, a tuple of the coefficients in order
_FAMILIES = {"binary": BinaryQuartic, "cyclic": CyclicTernary, "relaxed": RelaxedCyclicTernary}


# the largest accepted dim: a refuting witness holds one entry per dimension
MAX_DIM = 10_000


class InputError(ValueError):
    """Malformed input file or shorthand; message names the offending field."""


def parse_shorthand(family: str, coeffs: Sequence[str]) -> ParsedInput:
    try:
        vals = [as_fraction(c) for c in coeffs]
    except (ValueError, ZeroDivisionError, TypeError) as exc:
        raise InputError(f"coefficient: {exc}") from exc
    cls = _FAMILIES.get(family) if isinstance(family, str) else None
    if cls is None:
        raise InputError(f"family: unknown family {family!r}")
    arity = len(cls._fields)
    if len(vals) != arity:
        raise InputError(f"family {family!r} needs {arity} coefficients, got {len(vals)}")
    return cls(*vals)


def parse_document(doc: dict) -> ParsedInput:
    if not isinstance(doc, dict):
        raise InputError("document: JSON object expected")
    if "family" in doc:
        coeffs = doc.get("coeffs")
        if not isinstance(coeffs, list):
            raise InputError("coeffs: list expected")
        return parse_shorthand(doc["family"], coeffs)
    if "dim" not in doc:
        raise InputError("dim: missing")
    dim = doc["dim"]
    if not _is_int(dim) or dim < 1:
        raise InputError(f"dim: positive integer expected, got {dim!r}")
    if dim > MAX_DIM:
        raise InputError(f"dim: at most {MAX_DIM} supported, got {dim}")
    listed = doc.get("entries", [])
    if not isinstance(listed, list):
        raise InputError("entries: list expected")
    entries = {}
    for i, ent in enumerate(listed):
        if not isinstance(ent, dict) or "index" not in ent or "value" not in ent:
            raise InputError(f"entries[{i}]: object with 'index' and 'value' expected")
        idx = ent["index"]
        if (
            not isinstance(idx, list)
            or len(idx) != 4
            or not all(_is_int(j) and 1 <= j <= dim for j in idx)
        ):
            raise InputError(f"entries[{i}].index: 4 indices in 1..{dim} expected")
        try:
            val = as_fraction(ent["value"])
        except (ValueError, ZeroDivisionError, TypeError) as exc:
            raise InputError(f"entries[{i}].value: {exc}") from exc
        key = tuple(sorted(idx))
        if key in entries and entries[key] != val:
            raise InputError(f"entries[{i}].index: conflicting values for slot {key}")
        entries[key] = val
    try:
        return SymmetricTensor4(dim, entries)
    except ValueError as exc:
        raise InputError(str(exc)) from exc


def load(path: str) -> ParsedInput:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise InputError(f"path: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"document: invalid JSON ({exc})") from exc
    except ValueError as exc:  # not UTF-8, or an integer beyond the int-string digit limit
        raise InputError(f"document: {exc}") from exc
    except RecursionError as exc:  # arrays or objects nested beyond the interpreter's stack
        raise InputError("document: nested too deeply") from exc
    return parse_document(doc)


def to_tensor(parsed: ParsedInput) -> SymmetricTensor4:
    if isinstance(parsed, SymmetricTensor4):
        return parsed
    if isinstance(parsed, BinaryQuartic):
        return parsed.to_tensor()
    return embed(parsed)


def describe(parsed: ParsedInput) -> dict:
    for family, cls in _FAMILIES.items():
        if isinstance(parsed, cls):
            return {"family": family, "coeffs": [str(v) for v in parsed]}
    return {
        "dim": parsed.dim,
        "entries": [
            {"index": list(idx), "value": str(v)}
            for idx, v in sorted(parsed.entries().items())
        ],
    }
