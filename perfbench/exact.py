"""Independent exact arithmetic for checking labels and program outputs.

Nothing here imports ``quartpd``.  A tensor is a dict from a sorted 1-based
index 4-tuple to a ``Fraction``; a polynomial is a dict from an exponent
tuple to a ``Fraction``.  The form of a tensor is expanded by brute force
over all n^4 index tuples, so it shares no code path with the package's
multiplicity-weighted evaluator.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Dict, Sequence, Tuple

Poly = Dict[Tuple[int, ...], Fraction]
Tensor = Dict[Tuple[int, int, int, int], Fraction]


def form_value(dim: int, tensor: Tensor, x: Sequence) -> Fraction:
    """Tx^4 as the plain sum over all n^4 index tuples."""
    x = [Fraction(v) for v in x]
    total = Fraction(0)
    for idx in itertools.product(range(dim), repeat=4):
        t = tensor.get(tuple(sorted(i + 1 for i in idx)))
        if t:
            total += t * x[idx[0]] * x[idx[1]] * x[idx[2]] * x[idx[3]]
    return total


def form_poly(dim: int, tensor: Tensor) -> Poly:
    """Monomial coefficients of Tx^4, again by the n^4 brute-force sum."""
    out: Poly = {}
    for idx in itertools.product(range(dim), repeat=4):
        t = tensor.get(tuple(sorted(i + 1 for i in idx)))
        if t:
            exp = [0] * dim
            for i in idx:
                exp[i] += 1
            key = tuple(exp)
            out[key] = out.get(key, Fraction(0)) + t
    return _clean(out)


def tensor_from_poly(dim: int, poly: Poly) -> Tensor:
    """Canonical entries of the symmetric tensor whose form is ``poly``."""
    out: Tensor = {}
    for exp, c in poly.items():
        if sum(exp) != 4 or len(exp) != dim:
            raise ValueError(f"not a quartic monomial in {dim} variables: {exp}")
        idx = tuple(i + 1 for i, k in enumerate(exp) for _ in range(k))
        mult = math.factorial(4) // math.prod(math.factorial(k) for k in exp)
        if c:
            out[idx] = Fraction(c) / mult
    return out


def _clean(p: Poly) -> Poly:
    return {k: v for k, v in p.items() if v != 0}


def poly_add(*ps: Poly) -> Poly:
    out: Poly = {}
    for p in ps:
        for k, v in p.items():
            out[k] = out.get(k, Fraction(0)) + v
    return _clean(out)


def poly_scale(c, p: Poly) -> Poly:
    c = Fraction(c)
    return _clean({k: c * v for k, v in p.items()})


def poly_mul(p: Poly, q: Poly) -> Poly:
    out: Poly = {}
    for (ka, va), (kb, vb) in itertools.product(p.items(), q.items()):
        k = tuple(a + b for a, b in zip(ka, kb))
        out[k] = out.get(k, Fraction(0)) + va * vb
    return _clean(out)


def poly_value(p: Poly, x: Sequence) -> Fraction:
    x = [Fraction(v) for v in x]
    return sum((c * math.prod(xi**e for xi, e in zip(x, k)) for k, c in p.items()), Fraction(0))


def power_sum4(dim: int) -> Poly:
    """x1^4 + ... + xn^4, which is positive definite."""
    return {tuple(4 if j == i else 0 for j in range(dim)): Fraction(1) for i in range(dim)}


# -- certificates ---------------------------------------------------------
#
# A labelled input carries one certificate for its label:
#   {"kind": "sos", "squares": [(w, poly), ...], "eps": e, "zero": x|None}
#       form == sum w*poly^2 + e*(x1^4+..+xn^4) with every w >= 0.  e > 0
#       proves PD; e == 0 with form(zero) == 0 at zero != 0 proves PSD-not-PD.
#   {"kind": "product", "scale": w, "factors": [(A, B, C), ...]}
#       binary form == w * prod(A x^2 + B xy + C y^2) with w > 0, A > 0 and
#       B^2 < 4AC for every factor proves PD.
#   {"kind": "witness", "point": x}       form(x) < 0 proves indefinite.
#   {"kind": "theorem", "rule": r, "zero": x|None}
#       the label is a cited family rule of the paper; checked here only by
#       nonnegativity at fixed probe points and, for PSD, an exact zero.

PROBES = [p for p in itertools.product(range(-1, 2), repeat=3) if any(p)]


def check_certificate(dim: int, tensor: Tensor, label: str, cert: dict) -> None:
    """Raise ``AssertionError`` unless ``cert`` proves ``label`` for ``tensor``."""
    kind = cert["kind"]
    if kind == "witness":
        if label != "indefinite":
            raise AssertionError(f"witness certificate for label {label}")
        if not form_value(dim, tensor, cert["point"]) < 0:
            raise AssertionError("witness is not negative")
        return
    if kind == "sos":
        squares, eps = cert["squares"], Fraction(cert["eps"])
        if any(Fraction(w) < 0 for w, _ in squares) or eps < 0:
            raise AssertionError("negative SOS weight")
        expansion = poly_add(
            *(poly_scale(w, poly_mul(q, q)) for w, q in squares),
            poly_scale(eps, power_sum4(dim)),
        )
        if expansion != form_poly(dim, tensor):
            raise AssertionError("SOS expansion differs from the form")
        if label == "pd":
            if not eps > 0:
                raise AssertionError("PD label needs eps > 0")
            return
        if label == "psd_not_pd":
            _check_zero(dim, tensor, cert.get("zero"))
            return
        raise AssertionError(f"SOS certificate for label {label}")
    if kind == "product":
        # binary form == scale * prod(A x^2 + B xy + C y^2), each factor definite
        if label != "pd" or dim != 2 or not Fraction(cert["scale"]) > 0:
            raise AssertionError("product certificate is for binary PD labels")
        expansion = {(0, 0): Fraction(cert["scale"])}
        for A, B, C in cert["factors"]:
            if not (A > 0 and B * B - 4 * A * C < 0):
                raise AssertionError("product factor is not definite")
            expansion = poly_mul(expansion, {(2, 0): A, (1, 1): B, (0, 2): C})
        if _clean(expansion) != form_poly(dim, tensor):
            raise AssertionError("product expansion differs from the form")
        return
    if kind == "theorem":
        if label not in ("pd", "psd_not_pd") or dim != 3:
            raise AssertionError(f"theorem certificate for a dim-{dim} {label} label")
        for p in PROBES:
            v = form_value(dim, tensor, p)
            if v < 0 or (label == "pd" and v == 0):
                raise AssertionError(f"form is {v} at probe {p}")
        if label == "psd_not_pd":
            _check_zero(dim, tensor, cert.get("zero"))
        return
    raise AssertionError(f"unknown certificate kind {kind!r}")


def _check_zero(dim: int, tensor: Tensor, zero) -> None:
    if zero is None or not any(Fraction(v) for v in zero):
        raise AssertionError("PSD-not-PD label needs a nonzero root")
    if form_value(dim, tensor, zero) != 0:
        raise AssertionError("claimed root is not a root")
