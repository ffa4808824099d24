"""Tensor text format and shorthand parsing for the CLI.

The file format is a JSON document:

    {"dim": 3,
     "entries": [{"index": [1, 1, 2, 3], "value": "-7/12"}, ...]}

Unlisted canonical indices are zero; indices may appear in any order and
are canonicalized.  Values are rational strings ("p/q"), integers, or
decimal strings expanded exactly in base 10.  Each entry is checked and
converted once.  An index is 4 ints (not bools) in 1..dim.  A value string
of the form ``-?[0-9]+(/[0-9]+)?`` ("-7", "007", "2/4") with a nonzero
denominator, shorter than the interpreter's int-string digit limit,
converts directly through ``int``; every other value, and every value
error, goes through ``verdict.as_fraction``, so both ways give the same
Fraction and the same error text.

A shorthand JSON form is also accepted:

    {"family": "cyclic", "coeffs": ["1", "-1", "1", "1", "-7/12"]}
    {"family": "binary", "coeffs": [...5 coefficients...]}
    {"family": "relaxed", "coeffs": [...7: a b c d e123 e223 e233...]}

It parses to a ``Shorthand``, the family's name and its exact
coefficients, and ``to_tensor`` builds its tensor: a binary quartic's
a0..a4 (``quartpd.binary``), or a cyclic or relaxed form's orbit values
(``cyclic.embed``).  ``describe`` writes either input as a document
that parses back to it.
"""

from __future__ import annotations

import json
import re
import sys
from fractions import Fraction
from typing import NamedTuple, Sequence, Tuple, Union

from .binary import BinaryQuartic
from .cyclic import embed
from .tensor import SymmetricTensor4
from .verdict import _digit_limit, _is_int, as_fraction


class Shorthand(NamedTuple):
    """A '<family> <coefficients>' input: the family's name and its
    coefficients, exact and in order."""

    family: str
    coeffs: Tuple[Fraction, ...]


ParsedInput = Union[Shorthand, SymmetricTensor4]


def _binary(*coeffs: Fraction) -> SymmetricTensor4:
    return BinaryQuartic(*coeffs).to_tensor()


# shorthand family name -> (its number of coefficients, their tensor's builder)
_FAMILIES = {"binary": (5, _binary), "cyclic": (5, embed), "relaxed": (7, embed)}


# the largest accepted dim: a refuting witness holds one entry per dimension
MAX_DIM = 10_000

# an integer or "p/q" in ASCII digits: the value strings converted directly
_RATIONAL = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")


class InputError(ValueError):
    """Malformed input file or shorthand; message names the offending field."""


def parse_shorthand(family: str, coeffs: Sequence[str]) -> Shorthand:
    try:
        vals = tuple([as_fraction(c) for c in coeffs])
    except (ValueError, ZeroDivisionError, TypeError) as exc:
        raise InputError(f"coefficient: {exc}") from exc
    spec = _FAMILIES.get(family) if isinstance(family, str) else None
    if spec is None:
        raise InputError(f"family: unknown family {family!r}")
    arity = spec[0]
    if len(vals) != arity:
        raise InputError(f"family {family!r} needs {arity} coefficients, got {len(vals)}")
    return Shorthand(family, vals)


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
    limit = _digit_limit() or sys.maxsize  # 0: no limit
    entries = {}
    for i, ent in enumerate(listed):
        if not isinstance(ent, dict) or "index" not in ent or "value" not in ent:
            raise InputError(f"entries[{i}]: object with 'index' and 'value' expected")
        idx = ent["index"]
        a, b, c, d = idx if isinstance(idx, list) and len(idx) == 4 else (None,) * 4
        if not (
            type(a) is type(b) is type(c) is type(d) is int  # exact: JSON true is a bool
            and 1 <= a <= dim and 1 <= b <= dim and 1 <= c <= dim and 1 <= d <= dim
        ):
            raise InputError(f"entries[{i}].index: 4 indices in 1..{dim} expected")
        val = ent["value"]
        # a short "p" or "p/q" string converts directly (module docstring)
        m = _RATIONAL.fullmatch(val) if type(val) is str and len(val) < limit else None
        q = int(m[2] or 1) if m else 0  # 0: no such string, or a zero denominator
        if q:
            val = Fraction(int(m[1]), q)
        else:
            try:
                val = as_fraction(val)
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
    return _FAMILIES[parsed.family][1](*parsed.coeffs)


def describe(parsed: ParsedInput) -> dict:
    if isinstance(parsed, Shorthand):
        return {"family": parsed.family, "coeffs": [str(v) for v in parsed.coeffs]}
    return {
        "dim": parsed.dim,
        "entries": [
            {"index": list(idx), "value": str(v)}
            for idx, v in sorted(parsed.entries().items())
        ],
    }
