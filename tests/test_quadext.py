import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quartpd.quadext import QuadExt

fr = st.fractions(min_value=-10, max_value=10, max_denominator=12)
nonneg = st.fractions(min_value=0, max_value=10, max_denominator=12)


def _sign(p, q, s):
    return QuadExt(Fraction(p), Fraction(q), Fraction(s)).sign()


def test_examples():
    assert _sign(-5, -1, 0) < 0
    assert _sign(3, -2, 2) > 0  # 3 > 2*sqrt(2) since 9 > 8
    assert _sign(2, -1, 4) == 0
    assert _sign(2, -2, 2) < 0


def test_negative_radicand_rejected():
    with pytest.raises(ValueError):
        QuadExt(Fraction(0), Fraction(1), Fraction(-1))


@given(p=fr, q=fr, s=nonneg)
@settings(max_examples=300, deadline=None)
def test_quadext_sign_matches_float(p, q, s):
    val = float(p) + float(q) * math.sqrt(float(s))
    exact = QuadExt(p, q, s).sign()
    if abs(val) > 1e-9:
        assert exact == (1 if val > 0 else -1)
    # algebraic consistency: x and its square have consistent zero sets
    assert (exact == 0) == (QuadExt(p, q, s).square().sign() == 0)


@given(p1=fr, q1=fr, p2=fr, q2=fr, s=nonneg)
@settings(max_examples=200, deadline=None)
def test_arithmetic(p1, q1, p2, q2, s):
    a, b = QuadExt(p1, q1, s), QuadExt(p2, q2, s)
    diff = a - b
    assert diff.p == p1 - p2 and diff.q == q1 - q2
    assert (a - a).sign() == 0
    zero = QuadExt(Fraction(0), Fraction(0), s)
    assert (zero - a).sign() == -a.sign()


@given(q=fr, s=nonneg)
@settings(max_examples=200, deadline=None)
def test_abs_le_sqrt(q, s):
    # |q*sqrt(s)| <= sqrt(q^2 s) always holds with equality
    x = QuadExt(Fraction(0), q, s)
    assert x.abs_le_sqrt_of(QuadExt(q * q * s, Fraction(0), s))
