"""Exact sign decisions for expressions of the form p + q*sqrt(s).

All analytic criteria in this package compare quantities living in the
quadratic extension Q[sqrt(s)] for a single nonnegative rational s.  Signs
are decided by sign splitting and squaring only; no floating square root
is ever taken.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction


def _sign(v: Fraction) -> int:
    return (v > 0) - (v < 0)


@dataclass(frozen=True)
class QuadExt:
    """The real number p + q*sqrt(s), with rational p, q and s >= 0."""

    p: Fraction
    q: Fraction
    s: Fraction

    def __post_init__(self):
        if self.s < 0:
            raise ValueError(f"negative radicand: {self.s}")

    def sign(self) -> int:
        if self.s == 0 or self.q == 0:
            return _sign(self.p)
        if self.p == 0:
            return _sign(self.q)
        sp, sq = _sign(self.p), _sign(self.q)
        if sp == sq:
            return sp
        d = self.p * self.p - self.q * self.q * self.s
        if d == 0:
            return 0
        return sp if d > 0 else sq

    def __sub__(self, other: "QuadExt") -> "QuadExt":
        assert self.s == other.s
        return QuadExt(self.p - other.p, self.q - other.q, self.s)

    def square(self) -> "QuadExt":
        return QuadExt(
            self.p * self.p + self.q * self.q * self.s, 2 * self.p * self.q, self.s
        )

    def abs_le_sqrt_of(self, radicand: "QuadExt") -> bool:
        """|self| <= sqrt(radicand); false when the radicand is negative."""
        assert self.s == radicand.s
        if radicand.sign() < 0:
            return False
        return (radicand - self.square()).sign() >= 0

