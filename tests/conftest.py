import contextlib
import io
import itertools
import json
import math
import os
import random
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest

import quartpd
from quartpd.tensor import SymmetricTensor4, canonical_indices, multiplicity


def dense_form_reference(T: SymmetricTensor4, x, k=4, y=None):
    """Brute-force n^4 loop; the independent oracle for all exact values.
    Gives Tx^k y^(4-k), the first k slots holding x and the rest y."""
    total = Fraction(0)
    for idx in itertools.product(range(1, T.dim + 1), repeat=4):
        t = T[idx]
        if t:
            p = t
            for pos, i in enumerate(idx):
                p = p * Fraction((x if pos < k else y)[i - 1])
            total += p
    return total


def rank_one_reference(x) -> SymmetricTensor4:
    """x^(x)4, the 4-fold outer product of x with itself."""
    entries = {idx: math.prod(Fraction(x[i - 1]) for i in idx) for idx in canonical_indices(len(x))}
    return SymmetricTensor4(len(x), entries)


def inner_product_reference(S: SymmetricTensor4, T: SymmetricTensor4):
    """<S, T>, the n^4 sum of entrywise products, over the canonical slots
    weighted by their multiplicity."""
    return sum((S[idx] * T[idx] * multiplicity(idx) for idx in canonical_indices(S.dim)), Fraction(0))


def dense_reference(T: SymmetricTensor4):
    """The dense float array (0-indexed) of T, each stored entry written to
    every permutation of its index.  The reference for the oracle's kernel,
    which is built from the entries."""
    import numpy as np

    n = T.dim
    out = np.zeros((n, n, n, n))
    for idx, v in T.entries().items():
        fv = float(v)
        for perm in set(itertools.permutations(idx)):
            out[tuple(i - 1 for i in perm)] = fv
    return out


def cross_form(p, K, c, skew):
    """K |x × p|^2 |x|^2 + c |x|^4, minus x1 x2 x3 (x1 + x2 + x3) if skew,
    as a ternary tensor: |x × p|^2 = |p|^2 |x|^2 - (p . x)^2."""
    pp = sum(v * v for v in p)
    cross = {(i, j): pp * (i == j) - p[i - 1] * p[j - 1] for i in (1, 2, 3) for j in (1, 2, 3)}
    square = {(i, i): 1 for i in (1, 2, 3)}
    coeffs = {}
    for a, b, w in ((cross, square, K), (square, square, c)):
        for (i, j), u in a.items():
            for (k, l), v in b.items():
                idx = tuple(sorted((i, j, k, l)))
                coeffs[idx] = coeffs.get(idx, 0) + w * u * v
    for idx in ((1, 1, 2, 3), (1, 2, 2, 3), (1, 2, 3, 3)) if skew else ():
        coeffs[idx] -= 1
    return SymmetricTensor4(3, {idx: Fraction(v) / multiplicity(idx) for idx, v in coeffs.items()})


def steep_valley(p, K):
    """The skew cross form with c = p1 p2 p3 (p1 + p2 + p3) / (2 |p|^4), so
    that f(p) = -p1 p2 p3 (p1 + p2 + p3) / 2: a negative needle of width
    about K^(-1/2) around p in a form of scale K."""
    pp = sum(v * v for v in p)
    return cross_form(p, K, Fraction(math.prod(p) * sum(p), 2 * pp * pp), skew=True)


def sos_needles(rng: random.Random, count: int):
    """``count`` forms q1^2 + q2^2 + q3^2 - 10^-60 (x1^4 + x2^4 + x3^4), each
    with its point u: an integer point of [-4, 4]^3 with no zero
    coordinate, and three
    quadratic forms q_k(x) = x^T A x - (u^T A u / |u|^2) |x|^2, A a random
    symmetric integer matrix, which all vanish at u.  So the form is -10^-60
    sum u_i^4 < 0 at u, on a negative needle of width about 10^-30."""
    forms = []
    for _ in range(count):
        u = (0, 0, 0)
        while not all(u):
            u = tuple(rng.randint(-4, 4) for _ in range(3))
        uu = sum(v * v for v in u)
        coeffs = {}
        for _ in range(3):
            A = {}
            for i in (1, 2, 3):
                for j in range(i, 4):
                    A[i, j] = A[j, i] = rng.randint(-3, 3)
            uAu = sum(A[i, j] * u[i - 1] * u[j - 1] for i in (1, 2, 3) for j in (1, 2, 3))
            q = {(i, j): A[i, j] - Fraction(uAu, uu) * (i == j) for i in (1, 2, 3) for j in (1, 2, 3)}
            for (i, j), a in q.items():
                for (k, l), b in q.items():
                    idx = tuple(sorted((i, j, k, l)))
                    coeffs[idx] = coeffs.get(idx, 0) + a * b
        for i in (1, 2, 3):
            coeffs[i, i, i, i] -= Fraction(1, 10**60)
        forms.append((SymmetricTensor4(3, {idx: v / multiplicity(idx) for idx, v in coeffs.items()}), u))
    return forms


CROSS_POINTS = [(1, 4, 9), (2, 3, 5), (1, 2, 2), (3, 1, 7)]
CROSS_IDS = ["-".join(map(str, p)) for p in CROSS_POINTS]
# a needle of width about 1e-50: deeper than the Bernstein stage's depth
# cap, where the box at the cap has (2/5, 3/5, 1) as its simplest point
DEEP_NEEDLE = steep_valley((2, 3, 5), 10**100)
# x1^2 x2^2 + x3^4 is PSD with exact zeros at e1 and e2: the Bernstein stage
# ends undetermined (bernstein-zero), and no stage decides
ZERO_CORNERS = {(1, 1, 2, 2): Fraction(1, 6), (3, 3, 3, 3): 1}

# the environment of a subprocess that imports the quartpd these tests import
_SRC = str(Path(quartpd.__file__).parents[1])
SRC_ENV = {**os.environ, "PYTHONPATH": os.pathsep.join([_SRC, os.environ.get("PYTHONPATH", "")])}


def rand_fraction(rng: random.Random, lo=-2, hi=2, max_den=8) -> Fraction:
    den = rng.randint(1, max_den)
    return Fraction(rng.randint(lo * den, hi * den), den)


def rand_vector(rng: random.Random, n: int, **kw):
    return tuple(rand_fraction(rng, **kw) for _ in range(n))


def rand_tensor(rng: random.Random, n: int, **kw) -> SymmetricTensor4:
    entries = {}
    for idx in itertools.combinations_with_replacement(range(1, n + 1), 4):
        entries[idx] = rand_fraction(rng, **kw)
    return SymmetricTensor4(n, entries)


def _refuse_constant(name):
    raise ValueError(f"{name} is not RFC 8259 JSON")


def strict_json(text: str):
    """``json.loads`` that refuses the ``Infinity``, ``-Infinity`` and
    ``NaN`` tokens Python writes by default, as RFC 8259 parsers do."""
    return json.loads(text, parse_constant=_refuse_constant)


@pytest.fixture
def rng():
    return random.Random(20240817)


class _Tee(io.StringIO):
    """A stream that also copies what it is given to ``mixed``."""

    def __init__(self, mixed):
        super().__init__()
        self.mixed = mixed

    def write(self, s):
        self.mixed.write(s)
        return super().write(s)


class CliRunner:
    """Runs a command line in-process and captures what it prints."""

    def invoke(self, main, args):
        """Call ``main(args)``; the result has ``exit_code``, ``output``
        (stdout and stderr in the order they were written), ``stdout``,
        ``stderr`` and ``exception``: the ``SystemExit`` of a nonzero code, or
        any other exception that escaped, which counts as exit code 1."""
        output = io.StringIO()
        out, err = _Tee(output), _Tee(output)
        code, exception = 0, None
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                main(list(args), "quartpd")
            except SystemExit as exc:
                code = 0 if exc.code is None else exc.code
                exception = exc if code != 0 else None
            except Exception as exc:
                code, exception = 1, exc
        return SimpleNamespace(
            exit_code=code,
            output=output.getvalue(),
            stdout=out.getvalue(),
            stderr=err.getvalue(),
            exception=exception,
        )


@pytest.fixture
def runner():
    return CliRunner()
