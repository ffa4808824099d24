"""Exact positivity of ternary quartic forms by Bernstein subdivision.

Tx^4 is even and homogeneous, so T is positive definite exactly when the
form is positive on each face x_k = 1 of the cube [-1, 1]^3: every x != 0
is a positive multiple of a point on some face, up to sign.  On a face the
other two coordinates (u, v) run over [-1, 1]^2, mapped to (s, t) in
[0, 1]^2 by u = 2s - 1, and the form is written in the tensor Bernstein
basis of degree 4 in s and in t: 25 coefficients (Garloff, LNCS 212, 1986;
Munoz and Narkawicz, J. Automated Reasoning 51, 2013).  The form on a box
lies between its least and greatest coefficient, and the four corner
coefficients are its values at the box's corners.  So:

- a box whose coefficients are all positive holds no zero of the form;
- a negative corner coefficient is an exact, dyadic witness of INDEFINITE
  (rule ``bernstein-corner``), which ``evaluate_form`` checks again before
  it is returned;
- any other box is split at its midpoint by de Casteljau's algorithm, up
  to ``MAX_DEPTH`` splits.  A box that would need one more is tried at its
  simplest rational point instead: in each coordinate, the rational of
  least denominator in the box's closed interval
  (``binary._simplest_between``).  Where the form is negative there, in
  exact arithmetic, that point is the witness (rule
  ``bernstein-simplest``); otherwise the box is set aside.  A negative
  needle around a point of small height, thinner than any box the budget
  reaches, is refuted this way.

Everything runs in integers, on the integer form E·Tx^4 of
``SymmetricTensor4.integer_form``.  C(4, i) divides 12, so 12 times the
Bernstein coefficients of u^a is an integer vector, and 144 times a face's
coefficients is a sum of one fixed integer vector per monomial
(``_BASIS``), held per face as one integer matrix of 25 rows by 15
monomials (``_ROWS``).  The three faces' 75 coefficients are one product
of big integers (Kronecker substitution): each monomial's column of the
three matrices is packed into one integer as signed 64-bit lanes
(``_PACKS``), the form's coefficients multiply and add the 15, and the
lanes are read back as machine integers.  That holds every coefficient
exactly when 144 times the sum of the form's |coefficients| is below 2^63;
a wider form sums the rows of ``_ROWS``, to the same result.  A split
returns both halves times 16, so no division is made; a box is held as
its coefficients and (face, i, j, depth), where the axis split at a depth
alternates, s at even depths and t at odd ones.
``Fraction`` appears only in a witness.  Signs, and so every verdict, are
the same for every positive multiple of T.

The search is depth-first, and of a box's two halves the one with the
smaller least coefficient is searched first, so a negative region is
reached in a few dozen boxes.  It ends:

- PD (``bernstein-positive``) when every box of every face is positive;
- INDEFINITE at the first negative corner or simplest point;
- undetermined (``bernstein-budget``) after ``BUDGET`` boxes;
- undetermined (``bernstein-depth``) when every other box is positive and
  a box was set aside at ``MAX_DEPTH``;
- undetermined (``bernstein-zero``) when the only boxes left unresolved
  have an exact zero of the form at a corner.  Such a box is split on to
  ``ZERO_DEPTH``, where a negative region next to the zero shows up as a
  negative corner, and is then set aside: a zero proves the form is not
  PD, but not whether it is semidefinite.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from math import comb
from operator import mul
from typing import Dict, List, Tuple

from .binary import _simplest_between
from .tensor import SymmetricTensor4, canonical_indices
from .verdict import Kind, Verdict

BUDGET = 3000  # boxes examined, over all three faces
MAX_DEPTH = 200  # splits of one box
ZERO_DEPTH = 24  # splits of a box with an exact-zero corner before it is set aside

_CORNERS = (0, 4, 20, 24)  # coefficient k*5 + l at (s, t) = (k/4, l/4)
# the five lines of coefficients a split runs along: columns for s, rows for t
_LINES = (
    tuple(slice(l, 25, 5) for l in range(5)),
    tuple(slice(5 * k, 5 * k + 5) for k in range(5)),
)


def _monomial_times_12(a: int) -> List[int]:
    """12 times the degree-4 Bernstein coefficients of u^a, u = 2s - 1:
    with u^a = sum_i p_i s^i, b_k = sum_i C(k, i) / C(4, i) p_i."""
    p = [comb(a, i) * 2**i * (-1) ** (a - i) for i in range(a + 1)]
    return [sum(comb(k, i) * (12 // comb(4, i)) * p[i] for i in range(min(k, a) + 1)) for k in range(5)]


# (degree in u, degree in v) -> 144 times the tensor Bernstein coefficients of u^a v^b
_BASIS: Dict[Tuple[int, int], List[int]] = {
    (a, b): [x * y for x in _monomial_times_12(a) for y in _monomial_times_12(b)]
    for a in range(5)
    for b in range(5 - a)
}


_MONOMIALS = tuple(canonical_indices(3))

# face k (x_{k+1} = 1) -> its 25 rows: row n holds coefficient n of each
# monomial's ``_BASIS`` vector, in ``_MONOMIALS`` order; a monomial's
# degrees in (u, v) are its exponents of the other two coordinates, in
# index order
_ROWS = tuple(
    tuple(zip(*(
        _BASIS[tuple(idx.count(v) for v in (1, 2, 3) if v != k + 1)]
        for idx in _MONOMIALS
    )))
    for k in range(3)
)


# the 75 face coefficients (face k's coefficient n at lane 25k + n) as
# signed 64-bit lanes of one integer per monomial: the monomial's column of
# ``_ROWS``, lane p at bits 64p.  Lanes run backwards on a big-endian host,
# so that ``to_bytes(600, sys.byteorder)`` lists them in order either way.
_LANES = 75
_COLUMNS = tuple(zip(*(row for rows in _ROWS for row in rows)))
_PACKS = tuple(
    sum(x << 64 * p for p, x in enumerate(col if sys.byteorder == "little" else col[::-1]))
    for col in _COLUMNS
)
_BIAS = sum(1 << 64 * p + 63 for p in range(_LANES))  # 2^63 in every lane
_WIDTH = max(abs(x) for col in _COLUMNS for x in col)  # 144, reached in every column


def _faces(form: Dict[Tuple[int, ...], int]) -> List[List[int]]:
    """144 times the Bernstein coefficients of the integer form (keyed by
    canonical index) on the faces x1 = 1, x2 = 1 and x3 = 1: each a row of
    ``_ROWS`` times the form's coefficients.

    Where ``_WIDTH`` times the sum of the form's |coefficients| is below
    2^63, which bounds every face coefficient, the 75 are the lanes of one
    sum of ``_PACKS``: adding 2^63 to each lane leaves it in [0, 2^64), so
    no lane carries into the next, and flipping each lane's top bit then
    leaves its two's complement, which ``memoryview.cast("q")`` reads."""
    c = [form.get(idx, 0) for idx in _MONOMIALS]
    if _WIDTH * sum(map(abs, c)) < 1 << 63:
        packed = (sum(map(mul, c, _PACKS)) + _BIAS) ^ _BIAS
        lanes = memoryview(packed.to_bytes(8 * _LANES, sys.byteorder)).cast("q").tolist()
        return [lanes[0:25], lanes[25:50], lanes[50:75]]
    return [[sum(map(mul, row, c)) for row in rows] for rows in _ROWS]


def _halves(coeffs: List[int], axis: int) -> Tuple[List[int], List[int]]:
    """The coefficients of the lower and the upper half of a box split at
    the midpoint of ``axis`` (0 for s, 1 for t), both times 16: de
    Casteljau's sums of neighbours, with no halving."""
    lo, hi = [0] * 25, [0] * 25
    for line in _LINES[axis]:
        b0, b1, b2, b3, b4 = coeffs[line]
        c0, c1, c2, c3 = b0 + b1, b1 + b2, b2 + b3, b3 + b4
        d0, d1, d2 = c0 + c1, c1 + c2, c2 + c3
        e0, e1 = d0 + d1, d1 + d2
        f = e0 + e1
        lo[line] = b0 << 4, c0 << 3, d0 << 2, e0 << 1, f
        hi[line] = f, e1 << 1, d2 << 2, c3 << 3, b4 << 4
    return lo, hi


def _corner(k: int, i: int, j: int, depth: int, n: int) -> Tuple[Fraction, ...]:
    """The point of face k (x_{k+1} = 1) at corner coefficient n of box
    (i, j, depth)."""
    ds, dt = (depth + 1) // 2, depth // 2  # splits along s and along t
    s = Fraction(i + (n >= 20), 1 << ds)
    t = Fraction(j + (n % 5 == 4), 1 << dt)
    x = [2 * s - 1, 2 * t - 1]
    x.insert(k, Fraction(1))
    return tuple(x)


def search(T: SymmetricTensor4) -> Tuple[Verdict, int]:
    """The stage's verdict on the dim-3 tensor T (module docstring) and the
    number of boxes it examined."""
    if T.dim != 3:
        raise ValueError(f"Bernstein subdivision covers dim 3, got {T.dim}")
    stack = [(min(coeffs), coeffs, k, 0, 0, 0) for k, coeffs in enumerate(_faces(T.integer_form()[1]))]
    stack.sort(reverse=True)  # the face with the least coefficient on top
    boxes, zero, capped = 0, False, False
    while stack:
        if boxes == BUDGET:
            return Verdict(Kind.UNDETERMINED, "bernstein-budget"), boxes
        least, coeffs, k, i, j, depth = stack.pop()
        boxes += 1
        if least > 0:
            continue
        corners = [coeffs[n] for n in _CORNERS]
        if min(corners) < 0:
            w = _corner(k, i, j, depth, _CORNERS[corners.index(min(corners))])
            if not T.evaluate_form(w) < 0:
                raise ArithmeticError(f"Bernstein corner {w} is not a witness")
            return Verdict(Kind.INDEFINITE, "bernstein-corner", witness=w), boxes
        if 0 in corners and depth >= ZERO_DEPTH:
            zero = True
            continue
        if depth >= MAX_DEPTH:
            w = tuple(map(_simplest_between, _corner(k, i, j, depth, 0), _corner(k, i, j, depth, 24)))
            if T.evaluate_form(w) < 0:
                return Verdict(Kind.INDEFINITE, "bernstein-simplest", witness=w), boxes
            capped = True
            continue
        axis = depth & 1
        lo, hi = _halves(coeffs, axis)
        i, j = (2 * i, j) if axis == 0 else (i, 2 * j)
        low = (min(lo), lo, k, i, j, depth + 1)
        high = (min(hi), hi, k, i + 1 - axis, j + axis, depth + 1)
        # the half with the smaller least coefficient is popped first
        stack.extend((low, high) if high[0] <= low[0] else (high, low))
    if capped:
        return Verdict(Kind.UNDETERMINED, "bernstein-depth"), boxes
    if zero:
        return Verdict(Kind.UNDETERMINED, "bernstein-zero"), boxes
    return Verdict(Kind.POSITIVE_DEFINITE, "bernstein-positive"), boxes


def classify(T: SymmetricTensor4) -> Verdict:
    """The exact-positivity stage's verdict on the dim-3 tensor T."""
    return search(T)[0]
