"""Exact positivity of quartic forms of dim n >= 2 by Bernstein subdivision.

This is not the source paper's method.  The paper's abstract claims a
necessary and sufficient PD condition for n-dim tensors, but the abstract
is all of the paper at hand, so this stage uses the classical tensor
Bernstein form instead (Garloff, LNCS 212, 1986; Munoz and Narkawicz,
J. Automated Reasoning 51, 2013).

Tx^4 is even and homogeneous, so T is positive definite exactly when the
form is positive on each of the n faces x_k = 1 of the cube [-1, 1]^n:
every x != 0 is a positive multiple of a point on some face, up to sign.
On a face the other m = n - 1 coordinates run over [-1, 1]^m, each u
mapped to s in [0, 1] by u = 2s - 1, and the form is written in the
tensor Bernstein basis of degree 4 in each of them: 5^m coefficients, the
one at (k_1, ..., k_m) in position sum_a k_a 5^(m-a).  The form on a box
lies between its least and greatest coefficient, and the 2^m corner
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
Bernstein coefficients of u^a is an integer vector, and 12^m times a
face's coefficients is a sum of one fixed integer vector per monomial:
the Kronecker product of those vectors over the m coordinates, by the
monomial's degree in each (``_Tables.basis``).  The n faces' n·5^m
coefficients are one product of big integers (Kronecker substitution):
each monomial's vectors on the n faces are packed into one integer as
signed 64-bit lanes (``_Tables.packs``), the form's coefficients multiply
and add the packs, and the lanes are read back as machine integers.  That
holds every coefficient exactly when 12^m times the sum of the form's
|coefficients| is below 2^63; a wider form sums the vectors row by row,
to the same result.  The tables of a dim are built on its first search;
a dim above ``LARGEST_DIM`` ends undetermined (``bernstein-dim``) without
building any.  A split returns both halves times 16, so no division is
made; a box is held as its coefficients and (face, path, depth), where the
axis split at depth d is d mod m and bit d of the path, from its top, is
1 where the upper half was taken.
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
from array import array
from fractions import Fraction
from functools import cache
from math import comb
from operator import mul
from typing import Dict, List, NamedTuple, Tuple

from .binary import _simplest_between
from .tensor import Index4, SymmetricTensor4, canonical_indices
from .verdict import Kind, Verdict

BUDGET = 3000  # boxes examined, over all n faces
MAX_DEPTH = 200  # splits of one box
ZERO_DEPTH = 24  # splits of a box with an exact-zero corner before it is set aside
# the largest dim searched, by measurement on a 2-vCPU VM: dim 5's tables
# build in 0.04 s and hold 2.6 MB, and a search that spends the budget takes
# 0.2 s; dim 6's build in 0.35 s and hold 30 MB, and such a search takes 1.3 s
LARGEST_DIM = 5


def _monomial_times_12(a: int) -> List[int]:
    """12 times the degree-4 Bernstein coefficients of u^a, u = 2s - 1:
    with u^a = sum_i p_i s^i, b_k = sum_i C(k, i) / C(4, i) p_i."""
    p = [comb(a, i) * 2**i * (-1) ** (a - i) for i in range(a + 1)]
    return [sum(comb(k, i) * (12 // comb(4, i)) * p[i] for i in range(min(k, a) + 1)) for k in range(5)]


class _Tables(NamedTuple):
    """What the search needs for one dim n, with m = n - 1 free coordinates
    per face."""

    monomials: Tuple[Index4, ...]  # the form's monomials, in canonical index order
    # face k (x_{k+1} = 1) -> each monomial's degrees in the face's m free
    # coordinates: its exponents of the other coordinates, in index order
    degrees: Tuple[Tuple[Tuple[int, ...], ...], ...]
    # degrees -> 12^m times the tensor Bernstein coefficients of their monomial
    basis: Dict[Tuple[int, ...], List[int]]
    # per monomial, its ``basis`` vectors on the n faces as the signed 64-bit
    # lanes of one integer (``_pack``), face k's coefficient p at lane k 5^m + p
    packs: Tuple[int, ...]
    bias: int  # 2^63 in every lane
    corners: Tuple[int, ...]  # the positions of the 2^m corner coefficients, ascending
    # per axis, the 5^(m-1) lines of 5 coefficients that a split along it runs along
    lines: Tuple[Tuple[slice, ...], ...]


def _pack(lanes: List[int]) -> int:
    """sum(x << 64 * p for p, x in enumerate(lanes)), in time linear in the
    number of lanes: their two's complement bytes read as one unsigned
    integer, less 2^64 at the lane above each negative one.  The lanes run
    backwards on a big-endian host, so that ``to_bytes(8 * len(lanes),
    sys.byteorder)`` lists them in order either way."""
    unsigned = int.from_bytes(array("q", lanes).tobytes(), sys.byteorder)
    borrows = int.from_bytes(array("q", [x < 0 for x in lanes]).tobytes(), sys.byteorder)
    return unsigned - (borrows << 64)


@cache
def _tables(dim: int) -> _Tables:
    """The tables of ``dim``, built on the first call for it."""
    m = dim - 1
    monomials = tuple(canonical_indices(dim))
    degrees = tuple(
        tuple(tuple(idx.count(v) for v in range(1, dim + 1) if v != k) for idx in monomials)
        for k in range(1, dim + 1)
    )
    univariate = [_monomial_times_12(a) for a in range(5)]
    basis = {}
    for d in degrees[0]:  # every face has the same degree tuples: those of sum <= 4
        vec = [1]
        for a in d:
            vec = [x * y for x in vec for y in univariate[a]]
        basis[d] = vec
    packs = tuple(_pack([x for face in degrees for x in basis[face[i]]]) for i in range(len(monomials)))
    bias = int.from_bytes(array("Q", [1 << 63]).tobytes() * (dim * 5**m), sys.byteorder)
    corners = [0]
    for _ in range(m):
        corners = [5 * c + k for c in corners for k in (0, 4)]
    steps = [5 ** (m - 1 - a) for a in range(m)]
    lines = tuple(tuple(slice(p, p + 5 * s, s) for p in range(5**m) if p // s % 5 == 0) for s in steps)
    return _Tables(monomials, degrees, basis, packs, bias, tuple(corners), lines)


def _faces(form: Dict[Index4, int], dim: int) -> List[List[int]]:
    """12^m times the Bernstein coefficients of the integer form of a dim-n
    tensor (keyed by canonical index) on its faces x1 = 1, ..., xn = 1:
    on face k, the sum over monomials of the coefficient times ``basis``
    at the monomial's degrees.

    Where 12^m times the sum of the form's |coefficients| is below 2^63,
    which bounds every face coefficient, the n·5^m are the lanes of one sum
    of ``packs``: adding 2^63 to each lane leaves it in [0, 2^64), so no
    lane carries into the next, and flipping each lane's top bit then
    leaves its two's complement, which ``memoryview.cast("q")`` reads."""
    t = _tables(dim)
    size = 5 ** (dim - 1)
    c = [form.get(idx, 0) for idx in t.monomials]
    if 12 ** (dim - 1) * sum(map(abs, c)) < 1 << 63:
        packed = (sum(map(mul, c, t.packs)) + t.bias) ^ t.bias
        lanes = memoryview(packed.to_bytes(8 * dim * size, sys.byteorder)).cast("q").tolist()
        return [lanes[k * size : (k + 1) * size] for k in range(dim)]
    return [[sum(map(mul, row, c)) for row in zip(*(t.basis[d] for d in face))] for face in t.degrees]


def _halves(coeffs: List[int], lines: Tuple[slice, ...]) -> Tuple[List[int], List[int]]:
    """The coefficients of the lower and the upper half of a box split at
    the midpoint of the axis that ``lines`` run along, both times 16: de
    Casteljau's sums of neighbours, with no halving."""
    lo, hi = [0] * len(coeffs), [0] * len(coeffs)
    for line in lines:
        b0, b1, b2, b3, b4 = coeffs[line]
        c0, c1, c2, c3 = b0 + b1, b1 + b2, b2 + b3, b3 + b4
        d0, d1, d2 = c0 + c1, c1 + c2, c2 + c3
        e0, e1 = d0 + d1, d1 + d2
        f = e0 + e1
        lo[line] = b0 << 4, c0 << 3, d0 << 2, e0 << 1, f
        hi[line] = f, e1 << 1, d2 << 2, c3 << 3, b4 << 4
    return lo, hi


def _corner(dim: int, k: int, path: int, depth: int, position: int) -> Tuple[Fraction, ...]:
    """The point of face k (x_{k+1} = 1) at the corner coefficient in
    ``position`` of box (path, depth)."""
    m = dim - 1
    x = []
    for a in range(m):
        splits = range(a, depth, m)  # the depths at which axis a was split
        offset = 0
        for d in splits:
            offset = offset << 1 | path >> (depth - 1 - d) & 1
        upper = position // 5 ** (m - 1 - a) % 5 == 4
        x.append(Fraction(2 * (offset + upper) - (1 << len(splits)), 1 << len(splits)))  # 2s - 1
    x.insert(k, Fraction(1))
    return tuple(x)


def search(T: SymmetricTensor4) -> Tuple[Verdict, int]:
    """The stage's verdict on the tensor T of dim >= 2 (module docstring)
    and the number of boxes it examined."""
    dim = T.dim
    if dim < 2:
        raise ValueError(f"Bernstein subdivision needs dim >= 2, got {dim}")
    if dim > LARGEST_DIM:
        return Verdict(Kind.UNDETERMINED, "bernstein-dim"), 0
    t = _tables(dim)
    corners, lines, m = t.corners, t.lines, dim - 1
    stack = [(min(coeffs), coeffs, k, 0, 0) for k, coeffs in enumerate(_faces(T.integer_form()[1], dim))]
    stack.sort(reverse=True)  # the face with the least coefficient on top
    boxes, zero, capped = 0, False, False
    while stack:
        if boxes == BUDGET:
            return Verdict(Kind.UNDETERMINED, "bernstein-budget"), boxes
        least, coeffs, k, path, depth = stack.pop()
        boxes += 1
        if least > 0:
            continue
        values = [coeffs[p] for p in corners]
        if min(values) < 0:
            w = _corner(dim, k, path, depth, corners[values.index(min(values))])
            if not T.evaluate_form(w) < 0:
                raise ArithmeticError(f"Bernstein corner {w} is not a witness")
            return Verdict(Kind.INDEFINITE, "bernstein-corner", witness=w), boxes
        if 0 in values and depth >= ZERO_DEPTH:
            zero = True
            continue
        if depth >= MAX_DEPTH:
            low, high = _corner(dim, k, path, depth, corners[0]), _corner(dim, k, path, depth, corners[-1])
            w = tuple(map(_simplest_between, low, high))
            if T.evaluate_form(w) < 0:
                return Verdict(Kind.INDEFINITE, "bernstein-simplest", witness=w), boxes
            capped = True
            continue
        lo, hi = _halves(coeffs, lines[depth % m])
        low = (min(lo), lo, k, 2 * path, depth + 1)
        high = (min(hi), hi, k, 2 * path + 1, depth + 1)
        # the half with the smaller least coefficient is popped first
        stack.extend((low, high) if high[0] <= low[0] else (high, low))
    if capped:
        return Verdict(Kind.UNDETERMINED, "bernstein-depth"), boxes
    if zero:
        return Verdict(Kind.UNDETERMINED, "bernstein-zero"), boxes
    return Verdict(Kind.POSITIVE_DEFINITE, "bernstein-positive"), boxes


def classify(T: SymmetricTensor4) -> Verdict:
    """The exact-positivity stage's verdict on the tensor T of dim >= 2."""
    return search(T)[0]
