"""The family stage: rules for 4th-order 3-dimensional cyclic symmetric
tensors.

The cyclic family has five orbit parameters (a, b, c, d, e):

    a = t1111 = t2222 = t3333
    b = t1112 = t2223 = t1333
    c = t1113 = t1222 = t2333
    d = t1122 = t1133 = t2233
    e = t1123 = t1223 = t1233

A relaxed form lets the three e-slots differ: e123 = t1123,
e223 = t1223 and e233 = t1233.  ``embed(a, b, c, d, e)`` writes a cyclic
form's orbit values into its tensor, and ``embed(a, b, c, d, e123, e223,
e233)`` a relaxed form's; the values may be anything ``SymmetricTensor4``
takes as an entry (ints, Fractions, rational or decimal strings).

``classify(T)`` is the stage's one entry point.  It reads the orbit
pattern from T, allowing the three e-slots to differ, and answers
``no-cyclic-pattern`` when T has none.  When the three e-slots are equal
it runs the cyclic ladder, and when they differ the relaxed bands.

For the normalized family (a = 1, |b| = |c| = 1) the ladder covers the
analytically settled cases: the -7/12 boundary, the PD interval
(-7/12, -5/36], closed at -7/12 once it is lifted to d > 1, and the
necessity bound below -7/12.  Everything outside the settled cases ends
``outside-settled-family`` and defers to the pipeline's later stage,
exact Bernstein subdivision (``quartpd.bernstein``).

-5/36 is the settled endpoint of the interval, not the sharp one: with
b = -1, c = 1 and d = 1 the form stays PD a little beyond it.  The PD
endpoint lies in (-0.1385, -0.138): ``quartpd.bernstein`` certifies
e = -277/2000 PD, and at e = -69/500 the form is -16815/268435456 at
(1, 7/32, -31/128).  Forms with e between -5/36 and that endpoint end
``outside-settled-family``, and the pipeline passes them on to the
Bernstein stage.

The relaxed bands (the e-slots differ, d = a and c = -b): the form is PD
whenever all three e's lie in (-7/12, -5/18] or all three lie in
[-5/18, -1/6].

The rules hold up to positive scaling, since a form and its positive
multiples share their kind and their witnesses: ``classify`` reads the
orbit values divided by a, for a > 0.  Outside the hypotheses (a <= 0,
|b| != a or |c| != a, and for the bands d != a or c != -b) it returns the
undetermined verdict ``outside-family-hypotheses``.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List

from .tensor import SymmetricTensor4
from .verdict import Kind, Verdict, as_fraction

_LO = Fraction(-7, 12)
_PD_HI = Fraction(-5, 36)
_PD_HI_CORE = Fraction(-1, 6)
_SPLIT = Fraction(-5, 18)
_SPLIT_CORE = Fraction(-1, 4)

# orbit name -> its canonical slots; the e-slots are e123, e223, e233 in order
_ORBITS = {
    "a": ((1, 1, 1, 1), (2, 2, 2, 2), (3, 3, 3, 3)),
    "b": ((1, 1, 1, 2), (2, 2, 2, 3), (1, 3, 3, 3)),
    "c": ((1, 1, 1, 3), (1, 2, 2, 2), (2, 3, 3, 3)),
    "d": ((1, 1, 2, 2), (1, 1, 3, 3), (2, 2, 3, 3)),
    "e": ((1, 1, 2, 3), (1, 2, 2, 3), (1, 2, 3, 3)),
}


def embed(a, b, c, d, *e) -> SymmetricTensor4:
    """The n=3 tensor whose orbits hold a, b, c, d and either one e or the
    three e123, e223, e233 (module docstring)."""
    if len(e) not in (1, 3):
        raise ValueError(f"embed takes one e or three (e123, e223, e233), got {len(e)}")
    a, b, c, d, *e = map(as_fraction, (a, b, c, d, *e))  # once each, not once per slot
    if len(e) == 1:
        e *= 3
    entries = {idx: v for v, name in zip((a, b, c, d), "abcd") for idx in _ORBITS[name]}
    entries.update(zip(_ORBITS["e"], e))
    return SymmetricTensor4(3, entries)


_NO_PATTERN = Verdict(Kind.UNDETERMINED, "no-cyclic-pattern")
_OUTSIDE = Verdict(Kind.UNDETERMINED, "outside-family-hypotheses")


def classify(T: SymmetricTensor4) -> Verdict:
    """The family stage's verdict on T: ``no-cyclic-pattern`` unless T is a
    dim-3 tensor with the cyclic orbit pattern (the three e-slots may
    differ), else the cyclic ladder when its e-slots are equal and the
    relaxed bands when they are not."""
    if T.dim != 3:
        return _NO_PATTERN
    a, b, c, d = values = [T[_ORBITS[name][0]] for name in "abcd"]
    if any(T[idx] != v for v, name in zip(values, "abcd") for idx in _ORBITS[name][1:]):
        return _NO_PATTERN
    if a <= 0 or abs(b) != a or abs(c) != a:
        return _OUTSIDE
    b, c, d = b / a, c / a, d / a
    es = [T[idx] / a for idx in _ORBITS["e"]]
    if es[0] == es[1] == es[2]:
        return _ladder(b, c, d, es[0])
    if d != 1 or c != -b:
        return _OUTSIDE
    return _bands(es)


def _ladder(b: Fraction, c: Fraction, d: Fraction, e: Fraction) -> Verdict:
    """The cyclic rules on the orbit values divided by a, for |b| = |c| = 1."""
    ones = (Fraction(1), Fraction(1), Fraction(1))
    if b * c == 1 and d == 1 and e == _LO:
        w = tuple(Fraction(v) for v in (1, 1, -5)) if b == 1 else ones
        return Verdict(Kind.INDEFINITE, "boundary-matched-signs", witness=w)
    if b * c == -1 and d == 1 and e == _LO:
        # (1, 1, 1) is the direction of the form's zero
        return Verdict(Kind.PSD_NOT_PD, "boundary-alternating-signs", witness=ones)
    if b * c == -1 and d >= 1 and _LO <= e <= _PD_HI:
        # e = -7/12 has d > 1 here: d = 1 was caught by the boundary rung
        if d > 1:
            # f_d = f_1 + 6(d - 1)*(x1^2 x2^2 + x1^2 x3^2 + x2^2 x3^2), where
            # f_1 is PSD on the closed interval (PD inside, PSD at -7/12 by
            # the rung above); the sum vanishes only on the axes, where
            # f_d = x_i^4 > 0, so f_d is PD for every e in [-7/12, -5/36]
            rule = "pd-interval-lifted-offdiag"
        elif e <= _PD_HI_CORE:
            rule = "pd-interval"
        else:
            rule = "pd-interval-extended"
        return Verdict(Kind.POSITIVE_DEFINITE, rule)
    if e < _LO and d == 1 and b * c == -1:
        return Verdict(Kind.INDEFINITE, "necessity-bound", witness=ones)
    return Verdict(Kind.UNDETERMINED, "outside-settled-family")


def _bands(es: List[Fraction]) -> Verdict:
    """The relaxed rules on the three e-values divided by a, for d = a and
    c = -b."""
    # The PD region is a union of all-three-in-one-band conditions.  The
    # widened split point -5/18 strictly enlarges the upper band; its lower
    # band is contained in the original (-7/12, -1/4], so only three rules
    # can fire.  The union interval (-7/12, -1/6] is NOT valid: mixing
    # bands admits counterexamples.
    if all(_LO < e <= _SPLIT_CORE for e in es):
        rule = "pd-lower-band"
    elif all(_SPLIT_CORE <= e <= _PD_HI_CORE for e in es):
        rule = "pd-upper-band"
    elif all(_SPLIT <= e <= _PD_HI_CORE for e in es):
        rule = "pd-upper-band-widened"
    else:
        return Verdict(Kind.UNDETERMINED, "outside-bands")
    return Verdict(Kind.POSITIVE_DEFINITE, rule)
