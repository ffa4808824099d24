import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quartpd import tensor
from quartpd.cyclic import embed
from quartpd.tensor import SymmetricTensor4, canonical_indices, diag_ones, multiplicity
from quartpd.tensorio import parse_document

from conftest import dense_form_reference, rand_fraction, rand_tensor, rand_vector

fractions_st = st.fractions(min_value=-3, max_value=3, max_denominator=8)


def test_multiplicity_table():
    assert multiplicity((1, 1, 1, 1)) == 1
    assert multiplicity((1, 1, 1, 2)) == 4
    assert multiplicity((1, 1, 2, 2)) == 6
    assert multiplicity((1, 1, 2, 3)) == 12
    assert multiplicity((1, 2, 3, 4)) == 24


def test_integer_form_multiplicities_are_multiplicity():
    # integer_form reads each multiplicity off the index's equal-neighbour pattern
    for dim in range(1, 6):
        for a, b, c, d in canonical_indices(dim):
            assert tensor._MULTIPLICITY[a == b, b == c, c == d] == multiplicity((a, b, c, d))


def test_canonical_slot_count():
    # C(n+3, 4) canonical slots
    assert sum(1 for _ in itertools.combinations_with_replacement(range(2), 4)) == 5
    T = rand_tensor(random.Random(1), 3)
    assert len(T.entries()) <= 15


def test_permuted_lookup():
    T = SymmetricTensor4(3, {(1, 2, 2, 3): Fraction(5, 7)})
    for perm in itertools.permutations((1, 2, 2, 3)):
        assert T[perm] == Fraction(5, 7)
    assert T[(1, 1, 1, 1)] == 0


def test_hash_follows_equality():
    # equal tensors, entered in another order or index order, hash alike,
    # and zero entries are not stored
    a = SymmetricTensor4(3, {(1, 2, 2, 3): Fraction(5, 7), (3, 3, 3, 3): 1, (1, 1, 1, 1): 0})
    b = SymmetricTensor4(3, {(3, 3, 3, 3): Fraction(1), (3, 2, 1, 2): Fraction(10, 14)})
    assert a == b and hash(a) == hash(b) == hash(a)
    assert len({a, b, a.scale(2)}) == 2


def test_evaluate_form_diag_ones():
    assert diag_ones(3).evaluate_form((1, 1, 1)) == 3


def test_evaluate_form_paper_values():
    case1 = embed(1, 1, 1, 1, "-7/12")
    assert case1.evaluate_form((1, 1, -5)) == -204
    case2 = embed(1, -1, -1, 1, "-7/12")
    assert case2.evaluate_form((1, 1, 1)) == -24


def test_evaluate_form_matches_dense_reference(rng):
    for _ in range(50):
        n = rng.choice([2, 3])
        T = rand_tensor(rng, n)
        x = rand_vector(rng, n)
        assert T.evaluate_form(x) == dense_form_reference(T, x)


def test_integer_form_is_the_form_times_the_lcm_of_denominators(rng):
    # one integer per monomial, keyed by its canonical index, computed
    # once: E Tx^4 at integer points
    for _ in range(20):
        n = rng.choice([2, 3, 4])
        T = rand_tensor(rng, n)
        E, form = T.integer_form()
        assert E == math.lcm(*(v.denominator for v in T.entries().values()))
        assert set(form) == set(T.entries()) and all(type(c) is int for c in form.values())
        x = [rng.randint(-5, 5) for _ in range(n)]
        assert sum(c * math.prod(x[i - 1] for i in idx) for idx, c in form.items()) == (
            E * dense_form_reference(T, x)
        )
        assert T.integer_form() is T.integer_form()
    assert SymmetricTensor4(3, {}).integer_form() == (1, {})


def test_dimension_mismatch():
    with pytest.raises(ValueError):
        diag_ones(3).evaluate_form((1, 1))


@pytest.mark.parametrize("dim, idx", [
    (3, (1, 1.5, 2, 3)),  # evaluate_form could not index x by it
    (3, (True, 2, 2, 3)),  # describe would write JSON true
    (3, (0, 1, 1, 1)),
    (3, (1, 1, 1, 4)),
    (True, (1, 1, 1, 1)),
    (3.0, (1, 1, 1, 1)),
    (3, ("a", 1, 1, 1)),  # sorting it would raise TypeError
])
def test_an_index_or_dim_that_is_not_an_int_in_range_is_refused(dim, idx):
    with pytest.raises(ValueError):
        SymmetricTensor4(dim, {idx: -100})


@pytest.mark.parametrize("entries", [
    {(1, 1, 1, 2): 1, (2, 1, 1, 1): 2},
    {(2, 1, 1, 1): 2, (1, 1, 1, 2): 1},  # the sorted key after the permuted one
    {(1, 1, 1, 2): 1, (2, 1, 1, 1): 0},  # a zero conflicts before it is dropped
    {(2, 1, 1, 1): 0, (1, 1, 1, 2): "1"},
    {(2, 1, 1, 1): "1/2", (1, 2, 1, 1): "1/3"},  # two permuted keys
])
def test_conflicting_values_for_one_slot_are_refused(entries):
    with pytest.raises(ValueError, match=r"^conflicting values for slot \(1, 1, 1, 2\)$"):
        SymmetricTensor4(2, entries)


def test_equal_spellings_of_one_slot_agree():
    T = SymmetricTensor4(2, {(1, 1, 1, 2): "1/2", (2, 1, 1, 1): "2/4", (1, 2, 1, 1): "0.5"})
    assert T.entries() == {(1, 1, 1, 2): Fraction(1, 2)}
    assert SymmetricTensor4(2, {(2, 1, 1, 1): "-0", (1, 1, 1, 2): 0, (1, 2, 1, 1): "0/3"}).is_zero()


@given(
    alpha=fractions_st,
    beta=fractions_st,
    seed=st.integers(0, 10**6),
)
@settings(max_examples=60, deadline=None)
def test_binomial_expansion(alpha, beta, seed):
    rng = random.Random(seed)
    n = rng.choice([2, 3])
    T = rand_tensor(rng, n)
    x = rand_vector(rng, n)
    y = rand_vector(rng, n)
    z = tuple(alpha * xi + beta * yi for xi, yi in zip(x, y))
    expansion = (
        alpha**4 * dense_form_reference(T, x, 4, y)
        + 4 * alpha**3 * beta * dense_form_reference(T, x, 3, y)
        + 6 * alpha**2 * beta**2 * dense_form_reference(T, x, 2, y)
        + 4 * alpha * beta**3 * dense_form_reference(T, x, 1, y)
        + beta**4 * dense_form_reference(T, x, 0, y)
    )
    assert T.evaluate_form(z) == expansion


@given(lam=fractions_st, seed=st.integers(0, 10**6))
@settings(max_examples=60, deadline=None)
def test_homogeneity(lam, seed):
    rng = random.Random(seed)
    T = rand_tensor(rng, 3)
    x = rand_vector(rng, 3)
    assert T.evaluate_form(tuple(lam * v for v in x)) == lam**4 * T.evaluate_form(x)


def spellings(v):
    """Ways a tensor file may write the value v."""
    p, q = v.numerator, v.denominator
    out = [str(v), f"{3 * p}/{3 * q}", f"{p * 10**6 // q}e-6" if 10**6 % q == 0 else str(v)]
    if q == 1:
        out.append(p)  # a JSON int
    if v == 0:
        out += ["-0", "0/7", "0.0"]
    return out


@st.composite
def documents(draw):
    """A tensor file's document with permuted indices, repeated equal entries
    and zero values, and the exact entries it denotes."""
    dim = draw(st.integers(1, 4))
    slots = draw(st.lists(st.sampled_from(list(canonical_indices(dim))), unique=True, max_size=12))
    exact, listed = {}, []
    for idx in slots:
        v = draw(st.just(Fraction(0)) | st.builds(Fraction, st.integers(-50, 50), st.integers(1, 12)))
        exact[idx] = v
        for _ in range(draw(st.integers(1, 2))):
            index = list(draw(st.permutations(idx)))
            listed.append({"index": index, "value": draw(st.sampled_from(spellings(v)))})
    return {"dim": dim, "entries": draw(st.permutations(listed))}, exact


@given(documents())
@settings(max_examples=150, deadline=None)
def test_parse_document_builds_the_tensor_the_constructor_builds(drawn):
    doc, exact = drawn
    raw = {tuple(e["index"]): e["value"] for e in doc["entries"]}
    T = parse_document(doc)
    assert T == SymmetricTensor4(doc["dim"], raw) == SymmetricTensor4(doc["dim"], exact)
    assert T.integer_form() == SymmetricTensor4(doc["dim"], raw).integer_form()
