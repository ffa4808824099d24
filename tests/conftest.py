import itertools
import random
from fractions import Fraction

import pytest

from quartpd.tensor import SymmetricTensor4


def dense_form_reference(T: SymmetricTensor4, x):
    """Brute-force n^4 loop; the independent oracle for all exact values."""
    total = Fraction(0)
    for idx in itertools.product(range(1, T.dim + 1), repeat=4):
        t = T[idx]
        if t:
            p = t
            for i in idx:
                p = p * Fraction(x[i - 1])
            total += p
    return total


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


@pytest.fixture
def rng():
    return random.Random(20240817)
