"""Seeded, labelled input generators for the three workloads.

Every input carries the argv of one ``quartpd`` decision, the exact tensor
that argv denotes (built here, not by the package), a label in
{"pd", "psd_not_pd", "indefinite"} and a certificate for that label that
``exact.check_certificate`` verifies.  Catalog inputs carry the entry's
weights and, for the expected failures, the exact counterexample value.

Strata are laid out in blocks: each block holds every stratum in its fixed
share, shuffled, so any prefix of the decision sequence keeps the shares to
within one block.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction as F
from typing import Dict, List, Sequence, Tuple

from exact import (
    form_poly,
    form_value,
    poly_add,
    poly_mul,
    poly_scale,
    poly_value,
    power_sum4,
    tensor_from_poly,
)

# binary-mix strata and their count per block of 40 decisions.  Sorted by
# latency: negative and zero diagonals (30%), PD products (27.5%), the
# near-boundary PD and PSD squares (15%), the witness search (25%) and its
# float fallback (2.5%).  So p50 falls among the PD products and p90 in the
# witness search, each at least 7.5 percentile points from a stratum edge.
BINARY_BLOCK = {
    "negative_diagonal": 6,
    "zero_diagonal": 6,
    "pd_product": 11,
    "near_boundary_pd": 3,
    "psd_square": 3,
    "interior_indefinite": 8,
    "near_boundary_indefinite": 2,
    "near_boundary_narrow": 1,
}
# ternary-oracle strata and their count per block of 5 decisions
TERNARY_BLOCK = {"family": 1, "general_pd": 2, "general_indefinite": 2}
# The oracle's cost varies threefold between general tensors, so a run's
# figures would follow which tensors the seed drew.  The general tensors are
# instead a fixed pool of base forms, each shown under a seeded signed
# permutation of the variables: every tensor changes with the seed while the
# mix of oracle work stays put, and a run cycles through all of them.
TERNARY_BLOCKS = 20

# catalog labels with (weights, fail point or None); P(x) is
# (x1+x2+x3)^4 - 8(x1^3x2 + x1x3^3 + x2^3x3) - x1x2x3(w1x1 + w2x2 + w3x3)
_FAIL_A = (F(-6, 5), F(5), F(1))
_FAIL_B = (F(-47, 5), F(-2), F(23, 10))
CATALOG = {
    "19u": ((19, 19, 19), None),
    "14u": ((14, 14, 14), None),
    "15u": ((15, 15, 15), None),
    "16u": ((16, 16, 16), None),
    "17u": ((17, 17, 17), None),
    "18u": ((18, 18, 18), None),
    "41/3u": ((F(41, 3),) * 3, None),
    "19-17-15": ((19, 17, 15), None),
    "19-16-15": ((19, 16, 15), None),
    "15-14-14": ((15, 14, 14), None),
    "15-16-14": ((15, 16, 14), None),
    "17-15-18": ((17, 15, 18), None),
    "46/3-14-14": ((F(46, 3), 14, 14), None),
    "19-14-14": ((19, 14, 14), _FAIL_A),
    "18-14-14": ((18, 14, 14), _FAIL_A),
    "17-14-14": ((17, 14, 14), _FAIL_A),
    "16-14-14": ((16, 14, 14), _FAIL_A),
    "41/3-15-15": ((F(41, 3), 15, 15), _FAIL_B),
}

WARMUP = {
    "binary-mix": ["check", "binary", "1", "0", "1", "0", "1", "--json"],
    "ternary-oracle": ["check", "@warmup", "--json"],
    "catalog": ["inequalities", "--only", "14u", "--json"],
}

# binary monomials x^(4-k) y^k
_X, _Y = {(1, 0): F(1)}, {(0, 1): F(1)}


def _q(rng: random.Random, lo: int, hi: int, dens: Sequence[int] = (1, 2, 3, 4, 5, 6, 7)) -> F:
    den = rng.choice(dens)
    return F(rng.randint(lo * den, hi * den), den)


def _pos(rng: random.Random, lo: F = F(1, 4), hi: int = 3) -> F:
    v = _q(rng, 0, hi)
    return v if v >= lo else lo + v


def _lin(a, b) -> dict:
    return poly_add(poly_scale(a, _X), poly_scale(b, _Y))


def _binary_input(poly: dict, label: str, cert: dict) -> dict:
    tensor = tensor_from_poly(2, poly)
    coeffs = [tensor.get(idx, F(0)) for idx in ((1, 1, 1, 1), (1, 1, 1, 2), (1, 1, 2, 2), (1, 2, 2, 2), (2, 2, 2, 2))]
    argv = ["check", "binary", *map(str, coeffs), "--json"]
    return {"argv": argv, "dim": 2, "tensor": tensor, "label": label, "cert": cert}


def _swap(poly: dict) -> dict:
    return {(k[1], k[0]): v for k, v in poly.items()}


def _pd_quadratic(rng: random.Random) -> Tuple[F, F, F]:
    """(alpha, beta, gamma) of alpha*(x + beta*y)^2 + gamma*y^2, alpha, gamma > 0."""
    return _pos(rng), _q(rng, -2, 2), _pos(rng)


def _quad_squares(alpha, beta, gamma, times: dict) -> List[Tuple[F, dict]]:
    """Squares whose weighted sum is times^2 * (alpha(x+beta y)^2 + gamma y^2)."""
    out = [(alpha, poly_mul(times, _lin(1, beta)))]
    if gamma:
        out.append((gamma, poly_mul(times, _Y)))
    return out


def _sos_poly(squares, eps, dim) -> dict:
    return poly_add(*(poly_scale(w, poly_mul(q, q)) for w, q in squares), poly_scale(eps, power_sum4(dim)))


def _quadratic(alpha, beta, gamma) -> dict:
    return _sos_poly(_quad_squares(alpha, beta, gamma, {(0, 0): F(1)}), F(0), 2)


def _scale_sos(c: F, cert: dict) -> dict:
    return {**cert, "squares": [(c * w, q) for w, q in cert["squares"]], "eps": c * cert["eps"]}


def _gen_binary(rng: random.Random, stratum: str) -> dict:
    if stratum == "negative_diagonal":
        a = [_q(rng, -2, 2) for _ in range(5)]
        side = rng.randrange(2)
        a[4 * side] = -_pos(rng)
        poly = {(4 - k, k): c * m for k, (c, m) in enumerate(zip(a, (1, 4, 6, 4, 1)))}
        point = (F(0), F(1)) if side else (F(1), F(0))
        return _binary_input(poly, "indefinite", {"kind": "witness", "point": point})
    if stratum == "zero_diagonal":
        swap = rng.randrange(2)
        if rng.randrange(2):
            # y^2 * (u (x + c y)^2 + r y^2): zero at (1, 0)
            squares = [(_pos(rng), poly_mul(_Y, _lin(1, _q(rng, -2, 2)))), (_q(rng, 0, 2), poly_mul(_Y, _Y))]
            poly, zero = _sos_poly(squares, F(0), 2), (F(1), F(0))
            if swap:
                squares = [(w, _swap(q)) for w, q in squares]
                poly, zero = _swap(poly), (F(0), F(1))
            cert = {"kind": "sos", "squares": squares, "eps": F(0), "zero": zero}
            return _binary_input(poly, "psd_not_pd", cert)
        # zero x^4 coefficient with a nonzero x^3 y term: the odd term dominates
        a1 = _q(rng, -2, 2) or F(1)
        poly = {(3, 1): 4 * a1, (2, 2): 6 * _q(rng, -2, 2), (1, 3): 4 * _q(rng, -2, 2), (0, 4): _q(rng, 0, 2)}
        point = next((t, F(1)) for k in range(64) for t in (F(2) ** k * (-1 if a1 > 0 else 1),)
                     if form_value(2, tensor_from_poly(2, poly), (t, 1)) < 0)
        if swap:
            poly, point = _swap(poly), point[::-1]
        return _binary_input(poly, "indefinite", {"kind": "witness", "point": point})
    if stratum == "pd_product":
        quads = [_quadratic(*_pd_quadratic(rng)) for _ in range(2)]
        w = _pos(rng)
        factors = [tuple(q.get(k, F(0)) for k in ((2, 0), (1, 1), (0, 2))) for q in quads]
        poly = poly_scale(w, poly_mul(*quads))
        return _binary_input(poly, "pd", {"kind": "product", "scale": w, "factors": factors})
    if stratum == "psd_square":
        r = _pos(rng, F(1, 3)) * rng.choice((1, -1))
        s = r if rng.randrange(4) == 0 else _pos(rng, F(1, 3)) * rng.choice((1, -1))
        square = poly_mul(_lin(1, -r), _lin(1, -s))
        w = _pos(rng)
        cert = {"kind": "sos", "squares": [(w, square)], "eps": F(0), "zero": (r, F(1))}
        return _binary_input(_sos_poly(cert["squares"], F(0), 2), "psd_not_pd", cert)
    if stratum == "interior_indefinite":
        # (x - r y)(x - s y) * Q with r != s of one sign and Q positive definite
        sign = rng.choice((1, -1))
        r = sign * _pos(rng, F(1, 3))
        s = r + sign * _pos(rng, F(1, 4), 2)
        quad = _quadratic(*_pd_quadratic(rng))
        poly = poly_scale(_pos(rng), poly_mul(poly_mul(_lin(1, -r), _lin(1, -s)), quad))
        return _binary_input(poly, "indefinite", {"kind": "witness", "point": ((r + s) / 2, F(1))})
    if stratum.startswith("near_boundary"):
        return _near_boundary(rng, stratum)
    raise ValueError(stratum)


def _near_boundary(rng: random.Random, stratum: str) -> dict:
    """(x - r y)^2 * Q with Q positive semidefinite, moved by +-delta(x^4 + y^4)
    and scaled by 10^m, so coefficient magnitudes span twelve decades.

    ``near_boundary_pd`` adds delta.  The two indefinite strata subtract it:
    ``near_boundary_indefinite`` with a root r of denominator 1, 2, 3, 4 or 8
    and delta down to 1e-7 of the diagonal, ``near_boundary_narrow`` with a
    root of denominator 5 or 7 and delta at most 1e-4 of the diagonal, so the
    negative interval around r is narrow and holds no short rational.
    """
    narrow = stratum == "near_boundary_narrow"
    den = rng.choice((5, 7) if narrow else (1, 2, 3, 4, 8))
    num = rng.choice([k for k in range(1, 3 * den + 1) if k % den or den == 1])
    r = F(num, den) * rng.choice((1, -1))
    alpha, beta, gamma = _pd_quadratic(rng)
    if beta and rng.randrange(3) == 0:
        gamma = F(0)  # Q = alpha (x + beta y)^2, a second double root
    squares = _quad_squares(alpha, beta, gamma, _lin(1, -r))
    base = _sos_poly(squares, F(0), 2)
    top = min(alpha, base[(0, 4)])
    delta = top * F(rng.randint(1, 9), 20) / 10 ** rng.randint(4 if narrow else 0, 7)
    scale = F(10) ** rng.randint(-6, 6)
    if stratum == "near_boundary_pd":
        cert = _scale_sos(scale, {"kind": "sos", "squares": squares, "eps": delta, "zero": None})
        return _binary_input(_sos_poly(cert["squares"], cert["eps"], 2), "pd", cert)
    poly = poly_scale(scale, poly_add(base, poly_scale(-delta, power_sum4(2))))
    return _binary_input(poly, "indefinite", {"kind": "witness", "point": (r, F(1))})


# -- ternary --------------------------------------------------------------

def _monomials(dim: int, degree: int) -> List[Tuple[int, ...]]:
    if dim == 1:
        return [(degree,)]
    return [(k, *rest) for k in range(degree, -1, -1) for rest in _monomials(dim - 1, degree - k)]


_QUAD3 = _monomials(3, 2)


def _general_sos(rng: random.Random) -> Tuple[list, F]:
    squares = []
    for _ in range(3):
        q = {m: F(rng.randint(-2, 2)) for m in _QUAD3}
        q = {m: v for m, v in q.items() if v} or {(2, 0, 0): F(1)}
        squares.append((_q(rng, 1, 3, (1, 2, 4)), q))
    return squares, F(rng.randint(1, 10), 10)


def _tensor_doc(dim: int, tensor: dict) -> dict:
    return {"dim": dim, "entries": [{"index": list(idx), "value": str(v)} for idx, v in sorted(tensor.items())]}


def _diagonal(dim: int, value: F) -> dict:
    """value * (x1^4 + ... + xn^4) as tensor entries."""
    return {(i,) * 4: value for i in range(1, dim + 1)}


# the ternary warm-up is x1^4 + x2^4 + x3^4 as a tensor file, decided by the oracle
WARMUP_DOC = _tensor_doc(3, _diagonal(3, F(1)))


def _cyclic_poly(coeffs: Sequence[F]) -> dict:
    """a b c d e123 e223 e233 on the cyclic orbits, as a polynomial."""
    a, b, c, d, e1, e2, e3 = coeffs
    slots = {
        (1, 1, 1, 1): a, (2, 2, 2, 2): a, (3, 3, 3, 3): a,
        (1, 1, 1, 2): b, (2, 2, 2, 3): b, (1, 3, 3, 3): b,
        (1, 1, 1, 3): c, (1, 2, 2, 2): c, (2, 3, 3, 3): c,
        (1, 1, 2, 2): d, (1, 1, 3, 3): d, (2, 2, 3, 3): d,
        (1, 1, 2, 3): e1, (1, 2, 2, 3): e2, (1, 2, 3, 3): e3,
    }
    return form_poly(3, {k: F(v) for k, v in slots.items() if v})


_LO, _HI = F(-7, 12), F(-5, 36)


def _gen_family(rng: random.Random) -> dict:
    b, c = rng.choice(((1, -1), (-1, 1)))
    pick = rng.randrange(15)
    if pick < 6:  # PD band as in acceptance test 4, lifted to d >= 1
        e = _LO + (_HI - _LO) * F(rng.randint(2, 1000), 1000)
        d = 1 + 2 * F(rng.randint(0, 1000), 1000)
        family, coeffs, label, cert = "cyclic", [1, b, c, d, e], "pd", {"kind": "theorem", "rule": "pd-interval"}
    elif pick < 9:  # relaxed: all three e-slots in one band
        lo, hi = rng.choice(((_LO, F(-1, 4)), (F(-1, 4), F(-1, 6)), (F(-5, 18), F(-1, 6))))
        es = [lo + (hi - lo) * F(rng.randint(1, 1000), 1000) for _ in range(3)]
        family, coeffs, label, cert = "relaxed", [1, b, c, 1, *es], "pd", {"kind": "theorem", "rule": "band"}
    elif pick < 11:  # matched-sign -7/12 boundary
        s = rng.choice((1, -1))
        point = (F(1), F(1), F(-5)) if s == 1 else (F(1), F(1), F(1))
        family, coeffs, label, cert = "cyclic", [1, s, s, 1, _LO], "indefinite", {"kind": "witness", "point": point}
    elif pick < 13:  # alternating-sign -7/12 boundary
        family, coeffs, label = "cyclic", [1, b, c, 1, _LO], "psd_not_pd"
        cert = {"kind": "theorem", "rule": "boundary-alternating", "zero": (F(1), F(1), F(1))}
    else:  # necessity bound below -7/12
        e = _LO - F(rng.randint(1, 1000), 1000)
        family, coeffs, label = "cyclic", [1, b, c, 1, e], "indefinite"
        cert = {"kind": "witness", "point": (F(1), F(1), F(1))}
    # positive rescaling keeps the verdict; a != 1 exercises the normalization
    scale = rng.choice((F(1), F(1), F(2), F(1, 3), F(7, 2), F(10) ** rng.randint(-4, 4)))
    coeffs = [scale * F(v) for v in coeffs]
    full = coeffs if family == "relaxed" else [*coeffs, coeffs[4], coeffs[4]]
    tensor = tensor_from_poly(3, _cyclic_poly(full))
    argv = ["check", family, *map(str, coeffs), "--json"]
    return {"argv": argv, "dim": 3, "tensor": tensor, "label": label, "cert": cert}


def _gen_general(rng: random.Random, stratum: str) -> dict:
    squares, eps = _general_sos(rng)
    poly = _sos_poly(squares, eps, 3)
    if stratum == "general_pd":
        label, cert = "pd", {"kind": "sos", "squares": squares, "eps": eps, "zero": None}
    else:
        # subtract g*x1x2x3(x1+x2+x3), which vanishes on every coordinate
        # plane, so that the form is -rho at p while its principal binaries
        # stay positive definite
        p = tuple(F(rng.choice((1, 2, 3))) for _ in range(3))
        bump = {(2, 1, 1): F(1), (1, 2, 1): F(1), (1, 1, 2): F(1)}
        norm2 = sum(v * v for v in p)
        rho = norm2 * norm2 / 10
        g = (poly_value(poly, p) + rho) / poly_value(bump, p)
        poly = poly_add(poly, poly_scale(-g, bump))
        label, cert = "indefinite", {"kind": "witness", "point": p}
    return {"poly": poly, "label": label, "cert": cert}


def _substitute(poly: dict, perm: Sequence[int], signs: Sequence[int]) -> dict:
    """The form in y with x_i = signs[i] * y_perm[i], as a polynomial in y."""
    out = {}
    for e, v in poly.items():
        f = [0] * len(e)
        for i, k in enumerate(e):
            f[perm[i]] = k
            if signs[i] < 0 and k % 2:
                v = -v
        out[tuple(f)] = v
    return out


def _permuted_general(rng: random.Random, base: dict) -> dict:
    """``base`` under a random signed permutation, with its certificate."""
    perm = list(range(3))
    rng.shuffle(perm)
    signs = [rng.choice((1, -1)) for _ in range(3)]
    cert = dict(base["cert"])
    if cert["kind"] == "sos":
        cert["squares"] = [(w, _substitute(q, perm, signs)) for w, q in cert["squares"]]
    else:
        point = [F(0)] * 3
        for i, v in enumerate(cert["point"]):
            point[perm[i]] = signs[i] * v
        cert["point"] = tuple(point)
    tensor = tensor_from_poly(3, _substitute(base["poly"], perm, signs))
    return {"argv": ["check", None, "--json"], "doc": _tensor_doc(3, tensor), "dim": 3,
            "tensor": tensor, "label": base["label"], "cert": cert}


def _gen_ternary(rng: random.Random) -> List[dict]:
    pool_rng = random.Random("ternary-oracle:pool")
    pools = {
        s: [_gen_general(pool_rng, s) for _ in range(k * TERNARY_BLOCKS)]
        for s, k in TERNARY_BLOCK.items()
        if s != "family"
    }
    for pool in pools.values():
        rng.shuffle(pool)

    def make(rng, stratum):
        if stratum == "family":
            return _gen_family(rng)
        return _permuted_general(rng, pools[stratum].pop())

    return _blocks(rng, TERNARY_BLOCK, TERNARY_BLOCKS, make)


# -- workloads ------------------------------------------------------------


def _blocks(rng: random.Random, block: Dict[str, int], n_blocks: int, make) -> List[dict]:
    out = []
    for _ in range(n_blocks):
        strata = [s for s, k in block.items() for _ in range(k)]
        rng.shuffle(strata)
        for s in strata:
            item = make(rng, s)
            item["stratum"] = s
            out.append(item)
    return out


def generate(workload: str, seed: int) -> List[dict]:
    """The labelled decision sequence of one run; the same seed gives the same list."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "binary-mix":
        items = _blocks(rng, BINARY_BLOCK, 40, _gen_binary)
    elif workload == "ternary-oracle":
        items = _gen_ternary(rng)
    elif workload == "catalog":
        items = []
        for _ in range(40):
            labels = list(CATALOG)
            rng.shuffle(labels)
            for label in labels:
                weights, fail = CATALOG[label]
                items.append({"argv": ["inequalities", "--only", label, "--json"], "label": "catalog",
                              "stratum": "expected_fail" if fail else "holds", "entry": label,
                              "weights": tuple(F(w) for w in weights), "fail_point": fail})
    else:
        raise ValueError(f"unknown workload {workload!r}")
    for i, item in enumerate(items):
        item["id"] = i
    return items


def catalog_value(weights, x) -> F:
    """P(x) of a catalog entry, computed independently of the package."""
    x1, x2, x3 = (F(v) for v in x)
    w1, w2, w3 = weights
    cubics = x1**3 * x2 + x1 * x3**3 + x2**3 * x3
    return (x1 + x2 + x3) ** 4 - 8 * cubics - x1 * x2 * x3 * (w1 * x1 + w2 * x2 + w3 * x3)


# -- known defects --------------------------------------------------------


def probes() -> Dict[str, dict]:
    """Labelled inputs on which the program is known to fail today.

    Each carries the defect it reproduces; a run decides every probe after
    the timed phase and reports it as reproduced or fixed.
    """
    tiny = F(1, 10**30)
    odd = {(3, 1): 4 * tiny, (2, 2): F(6), (0, 4): F(1)}
    root2 = F(math.isqrt(2 * 10**50), 10**25)
    dbl = {(4, 0): F(1), (2, 2): F(-4), (0, 4): 4 - F(1, 10**40)}
    return {
        "binary-tiny-odd-term": {
            **_binary_input(odd, "indefinite", {"kind": "witness", "point": (-2 * F(10) ** 30, F(1))}),
            "defect": "ArithmeticError from the +-2^k witness search",
        },
        "binary-irrational-double-root": {
            **_binary_input(dbl, "indefinite", {"kind": "witness", "point": (root2, F(1))}),
            "defect": "(t^2-2)^2 - 1e-40 is indefinite without a witness",
        },
        "oracle-scaled-1e-10": {
            **_diagonal_input(3, F(1, 10**10)),
            "defect": "the oracle margin is absolute, so a scaled PD form is undetermined",
        },
        "dim-4-input": {**_diagonal_input(4, F(1)), "defect": "a dim-4 tensor crashes the oracle with ValueError"},
        "dim-1-input": {**_diagonal_input(1, F(1)), "defect": "a dim-1 tensor crashes the oracle with ValueError"},
    }


def _diagonal_input(dim: int, value: F) -> dict:
    """value * (x1^4 + ... + xn^4) as a tensor file, PD for value > 0."""
    tensor = _diagonal(dim, value)
    cert = {"kind": "sos", "squares": [], "eps": value, "zero": None}
    return {"argv": ["check", None, "--json"], "doc": _tensor_doc(dim, tensor), "dim": dim,
            "tensor": tensor, "label": "pd", "cert": cert}
