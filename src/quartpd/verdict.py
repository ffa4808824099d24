"""The one verdict type, reported by every stage of the pipeline, and the
exact conversion of input scalars."""

from __future__ import annotations

import re
import sys
from enum import Enum
from fractions import Fraction
from typing import NamedTuple, Optional


class Kind(Enum):
    POSITIVE_DEFINITE = "positive-definite"
    PSD_NOT_PD = "positive-semidefinite-not-definite"
    INDEFINITE = "indefinite"
    UNDETERMINED = "undetermined"

    def __str__(self) -> str:
        return self.value


class Verdict(NamedTuple):
    """A classification together with the rule that produced it; every
    stage of the library reports one of these.

    ``witness`` is a vector certifying the verdict: a point with strictly
    negative form value for INDEFINITE, or a nonzero root of the form for
    PSD_NOT_PD.
    """

    kind: Kind
    rule: str
    witness: Optional[tuple] = None

    def to_dict(self) -> dict:
        return {
            "kind": str(self.kind),
            "rule": self.rule,
            "witness": [str(w) for w in self.witness] if self.witness else None,
            # no verdict carries a margin; the key stays, always null, so
            # that every schema-1 report keeps one set of keys
            "margin": None,
        }


# the digits and exponent of a decimal string ("-1.25e3"), as Fraction reads it
_DECIMAL = re.compile(r"\s*[-+]?([\d_]*)(?:\.([\d_]*))?(?:[eE]([-+]?[\d_]+))?\s*")


def _digit_limit() -> int:
    """The interpreter's int-string digit limit, 0 where there is none."""
    return getattr(sys, "get_int_max_str_digits", lambda: 0)()


def _check_digits(text: str) -> None:
    """Reject a decimal string whose numerator or denominator could have more
    digits than the interpreter converts to a string: such a value could not
    be printed, and a large exponent takes seconds to expand.  Digits in a
    "p/q" string are bounded by ``int`` itself."""
    limit = _digit_limit()
    m = _DECIMAL.fullmatch(text)
    if not (limit and m):
        return
    digits = len(m.group(1).replace("_", ""))
    places = len((m.group(2) or "").replace("_", ""))
    exp = int(m.group(3) or 0)
    if digits + places + max(exp, 0) > limit or places + max(-exp, 0) + 1 > limit:
        raise ValueError(f"decimal value exceeds the {limit}-digit limit")


def _is_int(v) -> bool:
    """An int that is not a bool: JSON true and false load as bools, which
    Python counts as ints."""
    return isinstance(v, int) and not isinstance(v, bool)


def as_fraction(value) -> Fraction:
    """Exact conversion of ints, Fractions and decimal/rational strings.

    Decimal strings are expanded in base 10 ("-1.2" -> -6/5); binary floats
    are rejected so no rounding artifact can enter the exact path, and so are
    booleans, which Python counts as ints.  A decimal string whose numerator
    or denominator could exceed the int-string digit limit raises
    ``ValueError`` before any expansion.
    """
    if isinstance(value, Fraction):
        return value
    if _is_int(value):
        return Fraction(value)
    if isinstance(value, str):
        _check_digits(value)
        return Fraction(value)
    raise TypeError(f"exact scalar expected, got {type(value).__name__}: {value!r}")
