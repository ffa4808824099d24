import contextlib
import io
import itertools
import json
import math
import random
from fractions import Fraction
from types import SimpleNamespace

import pytest

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
