"""End-to-end acceptance checks.

Each test covers one headline guarantee of the package and prints a single
pass/fail line directly to the terminal (bypassing capture) so a full run
reads as a checklist.
"""

import itertools
import math
import random
import time
from fractions import Fraction

import pytest

from quartpd.binary import BinaryQuartic, classify
from quartpd import cyclic
from quartpd.cyclic import embed
from quartpd.inequalities import builtin_catalog, verify
from quartpd.oracle import OracleConfig, sphere_minimize, zero_set_probe
from quartpd.verdict import Kind

from conftest import (
    dense_form_reference,
    inner_product_reference,
    rand_fraction,
    rand_tensor,
    rand_vector,
    rank_one_reference,
)

_N_PROPERTY = 1000


@pytest.fixture
def report(capsys, request):
    """Emit '<label>: PASS/FAIL' straight to the terminal on test exit."""
    outcome = {"ok": False, "label": request.node.name}

    yield outcome

    with capsys.disabled():
        print(f"[acceptance] {outcome['label']}: {'PASS' if outcome['ok'] else 'FAIL'}")


def test_exact_value_minus_204(report):
    report["label"] = "matched-sign boundary tensor evaluates to -204 at (1,1,-5)"
    T = embed(1, 1, 1, 1, "-7/12")
    assert T.evaluate_form((1, 1, -5)) == -204
    report["ok"] = True


def test_exact_value_minus_24(report):
    report["label"] = "negative-pair boundary tensor evaluates to -24 at (1,1,1)"
    T = embed(1, -1, -1, 1, "-7/12")
    assert T.evaluate_form((1, 1, 1)) == -24
    report["ok"] = True


def test_boundary_tensor_zero_set(report):
    report["label"] = (
        "boundary tensor: |sphere min| <= 1e-8, zero set +-(1,1,1)/sqrt(3), < 5 s"
    )
    T = embed(1, -1, 1, 1, "-7/12")
    t0 = time.perf_counter()
    res = sphere_minimize(T)
    zeros = zero_set_probe(T)
    elapsed = time.perf_counter() - t0
    assert -1e-8 <= res.min_value <= 1e-8
    assert len(zeros) == 2
    expect = 1 / math.sqrt(3)
    signs = set()
    for z in zeros:
        assert all(abs(abs(v) - expect) <= 1e-4 for v in z)
        signs.add(1 if z[0] > 0 else -1)
    assert signs == {1, -1}
    assert elapsed < 5.0
    report["ok"] = True


def test_pd_interval_sweep(report):
    report["label"] = (
        "200 random (d, e) in the PD band: analytic PD and oracle min > 1e-8, < 10 min"
    )
    rng = random.Random(20240817)
    lo, hi = Fraction(-7, 12), Fraction(-5, 36)
    span = hi - lo
    t0 = time.perf_counter()
    for _ in range(200):
        e = lo + span * Fraction(rng.randint(2, 1000), 1000)
        d = 1 + 2 * Fraction(rng.randint(0, 1000), 1000)
        T = embed(1, -1, 1, d, e)
        assert cyclic.classify(T).kind is Kind.POSITIVE_DEFINITE, (d, e)
        res = sphere_minimize(T)
        assert res.min_value > 1e-8, (d, e, res.min_value)
    assert time.perf_counter() - t0 < 600
    report["ok"] = True


def test_binary_analytic_vs_oracle(report):
    report["label"] = (
        "10^4 random binary quartics: exact criterion agrees with the oracle "
        "wherever the sphere minimum exceeds 1e-6 in modulus"
    )
    rng = random.Random(20240817)
    cfg = OracleConfig(grid_points=512, refine_top_k=12, refine_max_iters=200)
    checked = decisive = 0
    for _ in range(10_000):
        q = BinaryQuartic(*(Fraction(rng.randint(-2000, 2000), 1000) for _ in range(5)))
        checked += 1
        res = sphere_minimize(q.to_tensor(), cfg)
        if abs(res.min_value) <= 1e-6:
            continue
        decisive += 1
        v = classify(q)
        if res.min_value > 0:
            assert v.kind is Kind.POSITIVE_DEFINITE, (tuple(q), res.min_value, v)
        else:
            assert v.kind is Kind.INDEFINITE, (tuple(q), res.min_value, v)
    assert checked == 10_000
    assert decisive > 9000  # near-boundary instances are rare under this sampling
    report["ok"] = True


def test_unit_diagonal_fast_path_boundary(report):
    report["label"] = (
        "unit-diagonal closed form: (1,-1,1,1,1) PD via 432 < 512, "
        "(1,1,1,1,1) PSD-not-PD via 0 <= 0"
    )
    q = BinaryQuartic.of(1, -1, 1, 1, 1)
    assert 27 * (q.a3 - q.a1) ** 4 == 432
    assert 64 * (1 - q.a1 * q.a3) ** 3 == 512
    assert classify(q).kind is Kind.POSITIVE_DEFINITE

    q = BinaryQuartic.of(1, 1, 1, 1, 1)
    assert 27 * (q.a3 - q.a1) ** 4 == 0
    assert 64 * (1 - q.a1 * q.a3) ** 3 == 0
    assert classify(q).kind is Kind.PSD_NOT_PD
    report["ok"] = True


def test_inequality_catalog(report):
    report["label"] = (
        "inequality catalog: strict entries hold with sphere minimum > 1e-8, the non-strict "
        "entry touches zero on the symmetric line, expected failures certified "
        "by exact negative values"
    )
    expect = 1 / math.sqrt(3)
    for ineq in builtin_catalog():
        rep = verify(ineq)
        assert rep.as_expected, ineq.label
        if ineq.expected_fail:
            assert rep.sphere_min < -1e-8, ineq.label
            assert ineq.value(ineq.fail_point) < 0, ineq.label
        elif ineq.strict:
            assert rep.sphere_min > 1e-8, ineq.label
        else:
            assert abs(rep.sphere_min) <= 1e-8, ineq.label
            assert len(rep.equality_points) == 2
            for p in rep.equality_points:
                assert all(abs(abs(v) - expect) <= 1e-4 for v in p)
    assert next(q for q in builtin_catalog() if q.label == "19-14-14").value(
        (Fraction(-6, 5), 5, 1)
    ) == Fraction(-145240, 6250)
    report["ok"] = True


def test_property_suites(report):
    report["label"] = f"eight algebraic property suites at {_N_PROPERTY} random cases each"
    rng = random.Random(20240817)

    # entry lookups are invariant under index permutation
    for _ in range(_N_PROPERTY):
        T = rand_tensor(rng, 3)
        idx = tuple(rng.randint(1, 3) for _ in range(4))
        perm = list(idx)
        rng.shuffle(perm)
        assert T[idx] == T[tuple(perm)]

    # degree-4 homogeneity
    for _ in range(_N_PROPERTY):
        T = rand_tensor(rng, 2)
        x = rand_vector(rng, 2)
        lam = rand_fraction(rng)
        assert T.evaluate_form([lam * v for v in x]) == lam**4 * T.evaluate_form(x)

    # binomial expansion of T(x+y)^4 through mixed evaluations
    for _ in range(_N_PROPERTY):
        T = rand_tensor(rng, 2)
        x, y = rand_vector(rng, 2), rand_vector(rng, 2)
        lhs = T.evaluate_form([a + b for a, b in zip(x, y)])
        rhs = sum(math.comb(4, k) * dense_form_reference(T, x, k, y) for k in range(5))
        assert lhs == rhs

    # <T, x^(x)4> equals Tx^4
    for _ in range(_N_PROPERTY):
        T = rand_tensor(rng, 3)
        x = rand_vector(rng, 3)
        assert inner_product_reference(T, rank_one_reference(x)) == T.evaluate_form(x)

    # Frobenius norm of a rank-one power: ||x^(x)4||_F = (sum x_i^2)^2
    for _ in range(_N_PROPERTY):
        x = rand_vector(rng, 3)
        R = rank_one_reference(x)
        assert inner_product_reference(R, R) == sum(v * v for v in x) ** 4

    # cyclic embeds are invariant under coordinate rotation
    for _ in range(_N_PROPERTY):
        T = embed(*(rand_fraction(rng) for _ in range(5)))
        x = rand_vector(rng, 3)
        assert T.evaluate_form(x) == T.evaluate_form((x[1], x[2], x[0]))

    # verdicts are invariant under positive scaling
    for _ in range(_N_PROPERTY):
        q = BinaryQuartic(*(rand_fraction(rng) for _ in range(5)))
        c = abs(rand_fraction(rng)) + Fraction(1, 8)
        assert classify(q).kind is classify(q.scaled(c)).kind

    # the binary checker is symmetric in x1 <-> x2
    for _ in range(_N_PROPERTY):
        q = BinaryQuartic(*(rand_fraction(rng) for _ in range(5)))
        assert classify(q).kind is classify(q.swapped()).kind

    report["ok"] = True
