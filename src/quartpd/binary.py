"""Exact PD/PSD decision for binary quartic forms.

The form is  a0*x1^4 + 4*a1*x1^3*x2 + 6*a2*x1^2*x2^2 + 4*a3*x1*x2^3 + a4*x2^4
with (a0,..,a4) = (t1111, t1112, t1122, t1222, t2222).  The criterion is a
case split on the sign of eta^3 - 27*chi^2 together with radical bounds;
every radical comparison is rewritten as an exact rational predicate in
Q[sqrt(a0*a4)], so all branch decisions are exact.

The radical criterion assumes strictly positive diagonal entries.  A negative
diagonal entry is its own witness; a zero one is decided by the exact root
search below, which finds a t with q(t, 1) < 0 or proves there is none.  Every
indefinite verdict carries an exact rational witness, found by isolating the
real roots of q(t, 1) with a Sturm sequence.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import List, NamedTuple, Optional, Sequence

from .tensor import SymmetricTensor4
from .verdict import Kind, Verdict, as_fraction


class BinaryQuartic(NamedTuple):
    a0: Fraction
    a1: Fraction
    a2: Fraction
    a3: Fraction
    a4: Fraction

    @classmethod
    def of(cls, a0, a1, a2, a3, a4) -> "BinaryQuartic":
        return cls(*(as_fraction(v) for v in (a0, a1, a2, a3, a4)))

    def value(self, x) -> Fraction:
        x1, x2 = (as_fraction(v) for v in x)
        return (
            self.a0 * x1**4
            + 4 * self.a1 * x1**3 * x2
            + 6 * self.a2 * x1**2 * x2**2
            + 4 * self.a3 * x1 * x2**3
            + self.a4 * x2**4
        )

    def swapped(self) -> "BinaryQuartic":
        """Exchange the roles of x1 and x2."""
        return BinaryQuartic(self.a4, self.a3, self.a2, self.a1, self.a0)

    def scaled(self, c) -> "BinaryQuartic":
        c = as_fraction(c)
        return BinaryQuartic(*(c * a for a in self))

    def to_tensor(self) -> SymmetricTensor4:
        return SymmetricTensor4(
            2,
            {
                (1, 1, 1, 1): self.a0,
                (1, 1, 1, 2): self.a1,
                (1, 1, 2, 2): self.a2,
                (1, 2, 2, 2): self.a3,
                (2, 2, 2, 2): self.a4,
            },
        )


def _eta_chi(q: Sequence) -> tuple:
    """The invariants eta and chi of a binary quartic's coefficients; the
    discriminant is eta^3 - 27*chi^2."""
    a0, a1, a2, a3, a4 = q
    eta = a0 * a4 - 4 * a1 * a3 + 3 * a2 * a2
    chi = a0 * a2 * a4 + 2 * a1 * a2 * a3 - a2**3 - a0 * a3 * a3 - a1 * a1 * a4
    return eta, chi


# -- the radical criterion (positive diagonals only) ---------------------


def _sign(v) -> int:
    return (v > 0) - (v < 0)


def _sign_sqrt(p: int, q: int, s: int) -> int:
    """The sign of p + q*sqrt(s) for s >= 0, by sign splitting and one
    squaring: where p and q*sqrt(s) have opposite signs, the sign of
    p^2 - q^2*s says which of the two is larger in modulus."""
    sp, sq = _sign(p), _sign(q) if s else 0
    if sp * sq >= 0:
        return sp or sq
    return sp * _sign(p * p - q * q * s)


def _radical_bound(q: Sequence[int], s: int, sign: int) -> bool:
    """|a1*sqrt(a4) - sign*a3*sqrt(a0)| <= sqrt(6*a0*a2*a4 + sign*2*sqrt(s^3)),
    both sides multiplied by sqrt(a0) > 0 so that they lie in Q[sqrt(s)]:
    with L = lp + lq*sqrt(s) and R = rp + rq*sqrt(s), R >= 0 and R - L^2 >= 0."""
    a0, a1, a2, a3, a4 = q
    lp, lq = -sign * a0 * a3, a1
    rp, rq = 6 * a0 * a2 * s, sign * 2 * a0 * s
    if _sign_sqrt(rp, rq, s) < 0:
        return False
    return _sign_sqrt(rp - lp * lp - lq * lq * s, rq - 2 * lp * lq, s) >= 0


def _criterion(q: Sequence[int]) -> Optional[Verdict]:
    """The PD or PSD verdict of the radical criterion for integer
    coefficients q with a0, a4 > 0, or None when it fails.  Every test is
    invariant under positive scaling, so q is the form's coefficients with
    the denominators cleared, which spares the gcds of ``Fraction``.

    With s = a0*a4, past the boundary branch both kinds need delta >= 0, the
    difference-radical bound and one of two cases: (i) -sqrt(s) <= 3*a2 <=
    3*sqrt(s), or (ii) a2 > sqrt(s) with the sum-radical bound.  PD needs
    delta > 0 and, in case (i), -sqrt(s) < 3*a2.  The cases exclude each
    other, so each is tested once.
    """
    a0, a1, a2, a3, a4 = q
    s = a0 * a4
    eta, chi = _eta_chi(q)
    delta_sign = _sign(eta**3 - 27 * chi * chi)
    if delta_sign < 0:
        return None
    upper = _sign_sqrt(a2, -1, s)
    if delta_sign == 0:
        # boundary branch: double root of the resolvent, still definite
        slope_match = _sign(a1) == _sign(a3) and a1 * a1 * a4 == a3 * a3 * a0
        middle = _sign_sqrt(3 * a0 * a2 - 2 * a1 * a1, -a0, s) == 0
        if slope_match and middle and upper < 0:
            return Verdict(Kind.POSITIVE_DEFINITE, "boundary-discriminant")
    if not _radical_bound(q, s, 1):
        return None
    if upper <= 0:
        # the difference-radical bound's radicand is 2*a0*s*(3*a2 + sqrt(s))
        # with a0*s > 0, so once it holds -sqrt(s) <= 3*a2: case (i) is met
        if delta_sign > 0 and _sign_sqrt(3 * a2, 1, s) > 0:
            return Verdict(Kind.POSITIVE_DEFINITE, "positive-discriminant(i)")
        return Verdict(Kind.PSD_NOT_PD, "nonnegative-discriminant(i)")
    if not _radical_bound(q, s, -1):
        return None
    if delta_sign > 0:
        return Verdict(Kind.POSITIVE_DEFINITE, "positive-discriminant(ii)")
    return Verdict(Kind.PSD_NOT_PD, "nonnegative-discriminant(ii)")


# -- exact witness search ------------------------------------------------
#
# Polynomials in t are lists of ints, leading coefficient first and nonzero.
# Only signs matter on this path, so every polynomial is kept as a primitive
# integer multiple (by a positive factor) of the rational one it stands for.


def _primitive(p: List[int]) -> List[int]:
    """p without leading zeros, divided by the gcd of its coefficients."""
    while p and p[0] == 0:
        p = p[1:]
    g = math.gcd(*p) if p else 1
    return [c // g for c in p] if g > 1 else p


def _cleared(coeffs: Sequence[Fraction]) -> List[int]:
    """The primitive integer multiple of coeffs by a positive factor, as in
    ``_primitive`` without leading zeros."""
    den = math.lcm(*(c.denominator for c in coeffs))
    return _primitive([c.numerator * (den // c.denominator) for c in coeffs])


def _scaled_value(p: List[int], x: Fraction) -> int:
    """den(x)^deg(p) * p(x), which has the sign of p(x)."""
    n, d = x.numerator, x.denominator
    v, dk = p[0], 1
    for c in p[1:]:
        dk *= d
        v = v * n + c * dk
    return v


def _sturm_chain(p: List[int]) -> List[List[int]]:
    """p, p' and the negated remainders of Euclid's algorithm on them,
    each scaled by a positive factor (pseudo-division keeps it in integers)."""
    deg = len(p) - 1
    chain = [p, _primitive([c * (deg - i) for i, c in enumerate(p[:-1])])]
    while len(chain[-1]) > 1:
        f, g = chain[-2], chain[-1]
        steps = len(f) - len(g) + 1
        r = f
        for _ in range(steps):
            c = r[0]
            r = [g[0] * a - c * (g[i] if i < len(g) else 0) for i, a in enumerate(r)][1:]
        r = _primitive(r)  # r = g[0]^steps * (f mod g), up to a positive factor
        if not r:
            break
        chain.append([-c for c in r] if g[0] > 0 or steps % 2 == 0 else r)
    return chain


def _variations(chain: List[List[int]], x: Fraction) -> int:
    """Sign changes along the chain at x, zeros skipped."""
    count, prev = 0, 0
    for f in chain:
        v = _scaled_value(f, x)
        if v:
            if prev and (v < 0) != (prev < 0):
                count += 1
            prev = v
    return count


def _split(p: List[int], a: Fraction, b: Fraction) -> Fraction:
    """A point of (a, b) where p is not zero.  p has at most four roots, so
    one of five candidates will do; the midpoint alone can be a root."""
    for k in (Fraction(1, 2), Fraction(1, 4), Fraction(3, 4), Fraction(3, 8), Fraction(5, 8)):
        m = a + (b - a) * k
        if _scaled_value(p, m):
            return m
    raise AssertionError("a polynomial of degree <= 4 vanished at five points")  # pragma: no cover


def _simplest_between(lo: Optional[Fraction], hi: Optional[Fraction]) -> Fraction:
    """The rational of least denominator, then least modulus, in [lo, hi];
    None stands for an infinite end."""
    if (lo is None or lo <= 0) and (hi is None or hi >= 0):
        return Fraction(0)
    if lo is None or lo < 0:
        return -_simplest_between(-hi, None if lo is None else -lo)
    if hi is None or lo.denominator == 1:
        return Fraction(math.ceil(lo))
    n = math.floor(lo)
    if n + 1 <= hi:
        return Fraction(n + 1)
    # continued fraction step: both ends lie in (n, n + 1)
    return n + 1 / _simplest_between(1 / (hi - n), 1 / (lo - n))


def _negative_point(coeffs: Sequence[Fraction]) -> Optional[Fraction]:
    """An exact rational t with p(t) < 0, where p(t) = sum_i coeffs[i] *
    t^(k - i) has degree k <= 4, or None when p >= 0 on the whole line.

    The distinct real roots of p are isolated by bisection on Sturm sign
    variation counts, never splitting at a root.  p keeps one sign between
    adjacent roots, and the isolating interval endpoints sample every such
    stretch.  The stretch found negative is bracketed between the isolating
    intervals of the roots that end it, which are refined until they are no
    wider than the bracket (than 1 if the stretch is unbounded), and the
    simplest rational in the bracket is returned, so witnesses stay short.
    """
    p = _cleared(coeffs)
    if len(p) <= 1:
        return Fraction(0) if p and p[0] < 0 else None
    chain = _sturm_chain(p)
    # Cauchy: every real root lies strictly inside (-2^k, 2^k)
    lead = abs(p[0])
    bound = Fraction(2 ** ((lead + max(abs(c) for c in p[1:])) // lead).bit_length())
    # (a, b, V(a), V(b)) with V(a) - V(b) distinct roots in (a, b), a and b not roots
    todo = [(-bound, bound, _variations(chain, -bound), _variations(chain, bound))]
    roots = []  # isolating intervals, one root in each
    while todo:
        a, b, va, vb = todo.pop()
        if va - vb == 1:
            roots.append([a, b])
        elif va - vb > 1:
            m = _split(p, a, b)
            vm = _variations(chain, m)
            todo += [(a, m, va, vm), (m, b, vm, vb)]
    if not roots:
        return Fraction(0) if p[-1] < 0 else None
    roots.sort()
    # the stretch left of root j starts at roots[j - 1][1] and ends at roots[j][0]
    samples = [roots[0][0]] + [b for _, b in roots]
    j = next((j for j, x in enumerate(samples) if _scaled_value(p, x) < 0), None)
    if j is None:
        return None
    left = roots[j - 1] if j > 0 else None
    right = roots[j] if j < len(roots) else None

    def gap():
        return right[0] - left[1] if left and right else Fraction(1)

    for iv in (left, right):
        while iv is not None and iv[1] - iv[0] > gap():
            m = _split(p, iv[0], iv[1])
            if _variations(chain, iv[0]) - _variations(chain, m) == 1:
                iv[1] = m
            else:
                iv[0] = m
    return _simplest_between(left[1] if left else None, right[0] if right else None)


def _negative_t(q: BinaryQuartic) -> Optional[Fraction]:
    """A rational t with q(t, 1) < 0, or None when q(t, 1) >= 0 for every t."""
    a0, a1, a2, a3, a4 = q
    return _negative_point((a0, 4 * a1, 6 * a2, 4 * a3, a4))


# -- public entry points -------------------------------------------------


def classify(q: BinaryQuartic) -> Verdict:
    a0, a1, a2, a3, a4 = q
    if a0 < 0:
        return Verdict(Kind.INDEFINITE, "negative-diagonal", witness=(Fraction(1), Fraction(0)))
    if a4 < 0:
        return Verdict(Kind.INDEFINITE, "negative-diagonal", witness=(Fraction(0), Fraction(1)))
    if a0 == 0 or a4 == 0:
        # q(x1, 0) = a0*x1^4 >= 0 and q = x2^4 * q(x1/x2, 1) otherwise, so q
        # is PSD iff q(t, 1) >= 0 for all t; it vanishes on an axis, so never PD
        t = _negative_t(q)
        if t is not None:
            return Verdict(Kind.INDEFINITE, "zero-diagonal", witness=(t, Fraction(1)))
        zero = (Fraction(1), Fraction(0)) if a0 == 0 else (Fraction(0), Fraction(1))
        return Verdict(Kind.PSD_NOT_PD, "zero-diagonal", witness=zero)
    verdict = _criterion(_cleared(q))
    if verdict is not None:
        return verdict
    # an indefinite form with a0 > 0 takes a negative value with x2 != 0
    t = _negative_t(q)
    if t is None:
        raise ArithmeticError(f"q(t, 1) >= 0 for every t, yet {q} was found indefinite")
    return Verdict(Kind.INDEFINITE, "criterion-failed", witness=(t, Fraction(1)))
