import dataclasses
import inspect
import math
import random
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from quartpd import classify, oracle
from quartpd.binary import BinaryQuartic
from quartpd.cyclic import CyclicTernary, embed
from quartpd.inequalities import builtin_catalog, verify
from quartpd.oracle import (
    OracleConfig,
    classify_numeric,
    sphere_minimize,
    zero_set_probe,
)
from quartpd.tensor import SymmetricTensor4, diag_ones, multiplicity
from quartpd.verdict import Kind

from conftest import dense_reference, rand_tensor

BOUNDARY = embed(CyclicTernary.of(1, -1, 1, 1, "-7/12"))
INDEF = embed(CyclicTernary.of(1, 1, 1, 1, "-7/12"))
# a PD form of the benchmark's general pool whose grid points include two
# near saddles, where the tangent Hessian has eigenvalues near -4e-4
SADDLES = SymmetricTensor4(3, {
    idx: Fraction(v) for idx, v in {
        (1, 1, 1, 1): "81/10", (1, 1, 1, 2): "5", (1, 1, 2, 2): "13/3", (1, 2, 2, 2): "3",
        (2, 2, 2, 2): "61/10", (1, 1, 1, 3): "1", (1, 1, 2, 3): "-2/3", (1, 2, 2, 3): "-1/3",
        (2, 2, 2, 3): "-1", (1, 1, 3, 3): "-1/3", (1, 2, 3, 3): "-2/3", (2, 2, 3, 3): "2/3",
        (1, 3, 3, 3): "4", (2, 3, 3, 3): "5", (3, 3, 3, 3): "141/10",
    }.items()
})


def test_diag_ones_minimum():
    # min of sum x_i^4 on the sphere is 1/3 at the fully symmetric points
    res = sphere_minimize(diag_ones(3))
    assert res.min_value == pytest.approx(1 / 3, abs=1e-9)
    assert sorted(abs(v) for v in res.minimizer) == pytest.approx(
        [1 / math.sqrt(3)] * 3, abs=1e-6
    )
    assert classify_numeric(diag_ones(3)).kind is Kind.POSITIVE_DEFINITE


def test_minimizer_contract():
    res = sphere_minimize(BOUNDARY)
    assert abs(sum(v * v for v in res.minimizer) - 1) <= 1e-12
    # reported value matches a re-evaluation at the minimizer
    val = float(BOUNDARY.evaluate_form([Fraction(v).limit_denominator(10**9) for v in res.minimizer]))
    assert val == pytest.approx(res.min_value, abs=1e-9)
    # canonical sign: first coordinate of magnitude positive
    first = next(v for v in res.minimizer if abs(v) > 1e-12)
    assert first > 0


def test_boundary_tensor():
    res = sphere_minimize(BOUNDARY)
    assert abs(res.min_value) <= 1e-8
    assert classify_numeric(BOUNDARY).kind is Kind.UNDETERMINED


def test_indefinite_witness_bound():
    # the normalized witness (1,1,-5)/sqrt(27) bounds the minimum above
    res = sphere_minimize(INDEF)
    assert res.min_value <= -204 / 27**2 + 1e-9


def test_classify_diag_ones():
    assert classify_numeric(diag_ones(3)).kind is Kind.POSITIVE_DEFINITE


def test_classify_zero_tensor():
    v = classify_numeric(SymmetricTensor4(3, {}))
    assert v.kind is Kind.UNDETERMINED
    assert v.rule == "oracle-boundary"


def test_classify_indefinite_with_exact_witness():
    v = classify_numeric(INDEF)
    assert v.kind is Kind.INDEFINITE
    assert INDEF.evaluate_form(v.witness) < 0


@pytest.mark.parametrize("T, rule", [
    (diag_ones(3), "oracle-sphere-minimum"), (INDEF, "oracle-grid-witness"), (BOUNDARY, "oracle-boundary"),
], ids=["PD", "INDEF", "BOUNDARY"])
def test_classify_numeric_is_the_minimum_verdict(T, rule):
    res = sphere_minimize(T)
    v = classify_numeric(T)
    assert v == classify_numeric(T, sample=oracle.sphere_sample(T), minimum=res)
    assert v.rule == rule
    if rule == "oracle-grid-witness":  # the margin is the sampled minimum
        K, _, vals = oracle.sphere_sample(T)
        assert v.margin == math.ldexp(vals.min(), K.shift)
    else:
        assert v.margin == res.min_value


def test_every_indefinite_minimum_has_an_exact_witness():
    rng = random.Random("one-rule")
    tensors = [rand_tensor(rng, dim) for dim in (2, 3) for _ in range(15)]
    tensors += [q.to_tensor() for q in builtin_catalog()]
    indefinite = 0
    for T in tensors:
        v = classify_numeric(T, sample=oracle.sphere_sample(T, OracleConfig(grid_points=2000)))
        if v.kind is Kind.INDEFINITE:
            indefinite += 1
            assert T.evaluate_form(v.witness) < 0
        else:
            assert v.witness is None
    assert indefinite >= 10


def test_classify_numeric_samples_once(monkeypatch):
    # one kernel and one grid per call; the grid is cached, so a fresh
    # (dim, grid size) builds it, and a given sample is read, not retaken
    calls = {"kernel": 0, "grid": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(oracle, "_kernel", counted("kernel", oracle._kernel))
    monkeypatch.setattr(oracle, "_grid", counted("grid", oracle._grid))
    for T, n in ((SymmetricTensor4(3, {}), 2999), (INDEF, 3001)):
        calls.update(kernel=0, grid=0)
        classify_numeric(T, sample=oracle.sphere_sample(T, OracleConfig(grid_points=n)))
        assert calls == {"kernel": 1, "grid": 1}
        calls.update(kernel=0, grid=0)
        classify_numeric(T)
        assert calls["kernel"] == 1 and calls["grid"] <= 1


def test_zero_set_empty_for_pd():
    assert zero_set_probe(diag_ones(3)) == []


def test_zero_set_boundary_pair():
    zeros = zero_set_probe(BOUNDARY)
    assert len(zeros) == 2
    expect = 1 / math.sqrt(3)
    signs = set()
    for z in zeros:
        assert all(abs(abs(v) - expect) <= 1e-4 for v in z)
        signs.add(1 if z[0] > 0 else -1)
    assert signs == {1, -1}


def test_zero_set_binary_quartet():
    # (x1^2 - x2^2)^2 vanishes at the four diagonal directions
    T = BinaryQuartic.of(1, 0, "-1/3", 0, 1).to_tensor()
    zeros = zero_set_probe(T)
    assert len(zeros) == 4
    expect = 1 / math.sqrt(2)
    for z in zeros:
        assert abs(abs(z[0]) - expect) <= 1e-4
        assert abs(abs(z[1]) - expect) <= 1e-4


def test_zero_set_probe_reads_the_given_sample():
    # the caller's sample gives the probe's own result to the bit
    rng = random.Random("probe-sample")
    tensors = [q.to_tensor() for q in builtin_catalog()]
    tensors += [rand_tensor(rng, dim) for dim in (2, 3) for _ in range(6)]
    tensors += [BOUNDARY, BinaryQuartic.of(1, 0, "-1/3", 0, 1).to_tensor()]
    for T in tensors:
        assert zero_set_probe(T, sample=oracle.sphere_sample(T)) == zero_set_probe(T), T


def _cluster_reference(zeros):
    """One pass per zero: a zero becomes a representative unless an
    earlier representative lies within _CLUSTER_TOL of it."""
    reps = []
    for i, z in enumerate(zeros):
        if not (np.linalg.norm(zeros[reps] - z, axis=1) <= oracle._CLUSTER_TOL).any():
            reps.append(i)
    return reps


@pytest.mark.parametrize("T, clusters", [
    pytest.param(next(q for q in builtin_catalog() if q.label == "19u").to_tensor(), 2, id="19u"),
    pytest.param(SymmetricTensor4(3, {(1, 1, 1, 1): Fraction(1)}), 200, id="x1^4-circle"),
    pytest.param(SymmetricTensor4(3, {}), 200, id="zero"),
    pytest.param(BinaryQuartic.of(1, 0, "-1/3", 0, 1).to_tensor(), 4, id="binary-quartet"),
])
@pytest.mark.filterwarnings("error")
def test_zero_set_clusters_match_the_per_zero_reference(T, clusters):
    cfg = OracleConfig()
    K, X, vals = oracle.sphere_sample(T, cfg)
    refined, rvals, _ = oracle._refine_batch(K, X[oracle._top_k(np.abs(vals), 200)], cfg)
    zeros = refined[np.abs(rvals) <= oracle._MARGIN]
    zeros = zeros / np.linalg.norm(zeros, axis=1, keepdims=True)
    reps = _cluster_reference(zeros)
    assert oracle._cluster_representatives(zeros) == reps
    assert zero_set_probe(T) == sorted(tuple(float(v) for v in zeros[i]) for i in reps)
    assert len(reps) == clusters


def test_cluster_representatives_follow_row_order():
    # a chain a - b - c: |a - b| and |b - c| within _CLUSTER_TOL, |a - c| not
    tol = oracle._CLUSTER_TOL
    a, b, c = ([0.0, 0.0, 1.0], [0.8 * tol, 0.0, 1.0], [1.6 * tol, 0.0, 1.0])
    for rows, want in (([a, b, c], [0, 2]), ([b, a, c], [0]), ([a, c, b], [0, 1]), ([], [])):
        points = np.array(rows).reshape(-1, 3)
        assert oracle._cluster_representatives(points) == _cluster_reference(points) == want


def test_determinism():
    # a grid size gives the same result on every call; another size
    # refines to the same minimum
    a, c = (sphere_minimize(INDEF, OracleConfig(grid_points=n)) for n in (20000, 7001))
    assert sphere_minimize(INDEF, OracleConfig(grid_points=20000)) == a
    assert sphere_minimize(INDEF, OracleConfig(grid_points=7001)) == c
    assert c.min_value == pytest.approx(a.min_value, abs=1e-9)


def test_homogeneity_of_minimum():
    a = sphere_minimize(INDEF)
    b = sphere_minimize(INDEF.scale(Fraction(7, 3)))
    assert b.min_value == pytest.approx(7 / 3 * a.min_value, rel=1e-9)


def test_refine_tolerance_is_relative_to_the_scale():
    # _GRAD_TOL applies at the kernel's scale, max |t| in [1, 2): a form of scale 1e-12,
    # whose gradients all lie below 1e-10, is still refined to its minimum 1e-12 / 3
    res = sphere_minimize(diag_ones(3).scale(Fraction(1, 10**12)))
    assert res.iterations_used >= 1
    assert abs(res.min_value - 1e-12 / 3) <= 1e-12 * 1e-12 / 3


@pytest.mark.parametrize("e", [-1500, -1000, -600, 40, 600, 900, 1500])
def test_power_of_two_scales_run_the_same_refine(e):
    # the kernel's power-of-two shift is exact: the refine takes the scale-1
    # iterates to the bit, with no underflow or overflow at either end, and
    # beyond float range too, where only the minimum returned saturates
    base = sphere_minimize(diag_ones(3))
    res = sphere_minimize(diag_ones(3).scale(Fraction(2) ** e))
    if e < 1024:
        assert res.min_value == math.ldexp(base.min_value, e)  # 0.0 at 2^-1500
    else:
        assert res.min_value == math.inf  # where math.ldexp raises
    assert res.minimizer == base.minimizer
    assert res.iterations_used == base.iterations_used
    v, base_v = classify_numeric(diag_ones(3).scale(Fraction(2) ** e)), classify_numeric(diag_ones(3))
    assert (v.kind, v.rule) == (base_v.kind, base_v.rule)


@pytest.mark.parametrize("T, kind", [
    pytest.param(rand_tensor(random.Random("pow2"), 3), Kind.INDEFINITE, id="random"),
    pytest.param(SADDLES, Kind.POSITIVE_DEFINITE, id="SADDLES"),
])
def test_power_of_two_scales_give_the_same_verdict(T, kind):
    base_res = sphere_minimize(T)
    base = classify_numeric(T)
    assert base.kind is kind
    for e in (-1500, -700, -30, 30, 700, 1500):
        res = sphere_minimize(T.scale(Fraction(2) ** e))
        v = classify_numeric(T.scale(Fraction(2) ** e))
        assert (v.kind, v.rule, v.witness) == (base.kind, base.rule, base.witness), e
        assert res.minimizer == base_res.minimizer, e
        assert res.iterations_used == base_res.iterations_used, e
        if abs(e) < 1024:
            assert v.margin == math.ldexp(base.margin, e), e
        else:  # beyond float range the margin saturates
            assert v.margin == (math.copysign(math.inf, base.margin) if e > 0 else 0.0), e


@pytest.mark.parametrize("k", [10, 12])
def test_small_scaled_form_is_positive_definite(k):
    # the margin applies at the kernel's scale, so 1e-k (x1^4 + x2^4 + x3^4)
    # is as clearly PD as x1^4 + x2^4 + x3^4
    v = classify_numeric(diag_ones(3).scale(Fraction(1, 10**k)))
    assert v.kind is Kind.POSITIVE_DEFINITE
    assert v.margin == pytest.approx(10.0**-k / 3, rel=1e-12)


@pytest.mark.parametrize("c", [10**9, 10**15, 10**30], ids=["1e9", "1e15", "1e30"])
def test_large_degenerate_form_is_not_positive_definite(c):
    # c (x1^4 + (x2^2 - x3^2)^2) vanishes at (0, 1, 1), where it grows only
    # like x1^4: the refined minimum is a tiny fraction of max |t| and lies
    # inside the margin, which applies at the kernel's scale
    T = SymmetricTensor4(3, {(1, 1, 1, 1): c, (2, 2, 2, 2): c, (3, 3, 3, 3): c, (2, 2, 3, 3): Fraction(-c, 3)})
    assert classify_numeric(T).kind is Kind.UNDETERMINED
    assert any(abs(abs(y) - abs(z)) < 1e-3 and abs(x) < 1e-3 for x, y, z in zero_set_probe(T))


def _cross_form(p, K, c, skew):
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


CROSS_POINTS = [(1, 4, 9), (2, 3, 5), (1, 2, 2), (3, 1, 7)]
CROSS_IDS = ["-".join(map(str, p)) for p in CROSS_POINTS]


@pytest.mark.parametrize("K", [10**14, 10**15, 10**16], ids=["1e14", "1e15", "1e16"])
@pytest.mark.parametrize("p", CROSS_POINTS, ids=CROSS_IDS)
def test_steep_valley_form_is_indefinite(p, K):
    # with c = p1 p2 p3 (p1 + p2 + p3) / (2 |p|^4), f(p) = -p1 p2 p3 (p1 + p2 + p3) / 2;
    # the negative region is a needle of width about 1e-8 around p, in a
    # form of scale K: with an absolute margin, p = (1, 4, 9) at K = 1e14 ended PD
    pp = sum(v * v for v in p)
    T = _cross_form(p, K, Fraction(math.prod(p) * sum(p), 2 * pp * pp), skew=True)
    verdict = classify(T).verdict
    assert verdict.kind is Kind.INDEFINITE
    assert T.evaluate_form(verdict.witness) < 0


@pytest.mark.parametrize("K", [10**15, 10**16], ids=["1e15", "1e16"])
@pytest.mark.parametrize("p", CROSS_POINTS, ids=CROSS_IDS)
def test_steep_valley_pd_form_is_never_indefinite(p, K):
    # K |x × p|^2 |x|^2 + |x|^4 is PD, but its minimum, 1 at p / |p|, is
    # 1e-18 to 1e-16 of max |t|: inside the margin, so it may end undetermined
    assert classify(_cross_form(p, K, 1, skew=False)).verdict.kind is not Kind.INDEFINITE


def _refined_rule(T):
    """The verdict of the refined minimum alone: with the grid values
    replaced by their absolute values, the grid offers no witness."""
    K, X, vals = oracle.sphere_sample(T)
    return classify_numeric(T, sample=(K, X, np.abs(vals)), minimum=sphere_minimize(T))


def test_grid_witness_moves_only_undetermined_to_indefinite():
    rng = random.Random("grid-witness")
    tensors = [rand_tensor(rng, dim) for dim in (2, 3) for _ in range(15)]
    tensors += [q.to_tensor() for q in builtin_catalog()]
    for p in CROSS_POINTS:
        pp = sum(v * v for v in p)
        c = Fraction(math.prod(p) * sum(p), 2 * pp * pp)
        tensors += [_cross_form(p, K, c, skew=True) for K in (10**14, 10**15, 10**16)]
        tensors += [_cross_form(p, K, 1, skew=False) for K in (10**15, 10**16)]
    rules = set()
    for T in tensors:
        new, old = classify_numeric(T), _refined_rule(T)
        rules.add(new.rule)
        assert new.kind is old.kind or (old.kind, new.kind) == (Kind.UNDETERMINED, Kind.INDEFINITE)
        if new.kind is Kind.INDEFINITE:
            assert T.evaluate_form(new.witness) < 0
    # the steep valleys' negative needles lie between grid points: the refine finds them
    assert rules == {"oracle-grid-witness", "oracle-sphere-minimum", "oracle-boundary"}


@pytest.fixture
def no_refine(monkeypatch):
    def refused(*args):
        raise AssertionError("the refine ran")

    monkeypatch.setattr(oracle, "_refine_batch", refused)


def _ternary_oracle_indefinite(seed):
    """The general indefinite tensors of the benchmark's ternary-oracle
    workload under ``seed`` (perfbench/gen.py)."""
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
    try:
        import gen
    finally:
        sys.path.pop(0)
    items = gen.generate("ternary-oracle", seed)
    return [SymmetricTensor4(3, it["tensor"]) for it in items if it["stratum"] == "general_indefinite"]


def test_grid_witness_needs_no_refine(no_refine):
    # the best grid point already rounds to an exact witness on INDEF, on
    # the catalog's expected failures and on the benchmark's indefinite forms
    tensors = [INDEF, *(q.to_tensor() for q in builtin_catalog() if q.expected_fail)]
    tensors += _ternary_oracle_indefinite(101)
    assert len(tensors) == 1 + 5 + 40
    for T in tensors:
        v = classify_numeric(T)
        assert (v.kind, v.rule) == (Kind.INDEFINITE, "oracle-grid-witness")
        assert T.evaluate_form(v.witness) < 0


def test_grid_value_without_witness_falls_back_to_the_refine(monkeypatch):
    # a negative grid value where a PSD form is >= 0 rounds to no witness:
    # the refined rule decides, and never INDEFINITE
    values = oracle._values

    def forced(K, Q):
        vals = values(K, Q).copy()
        vals[123] = -1.0
        return vals

    monkeypatch.setattr(oracle, "_values", forced)
    for T, kind in ((diag_ones(3), Kind.POSITIVE_DEFINITE), (BOUNDARY, Kind.UNDETERMINED)):
        assert oracle.sphere_sample(T)[2].min() == -1.0
        v = classify_numeric(T)
        assert v.kind is kind
        assert v.rule in ("oracle-sphere-minimum", "oracle-boundary")


@pytest.mark.parametrize("e", [-1500, -600, 600, 1500])
def test_power_of_two_scales_give_the_same_grid_witness(e, no_refine):
    base = classify_numeric(INDEF)
    v = classify_numeric(INDEF.scale(Fraction(2) ** e))
    assert (v.kind, v.rule, v.witness) == (Kind.INDEFINITE, "oracle-grid-witness", base.witness)
    K, _, vals = oracle.sphere_sample(INDEF)
    assert base.margin == math.ldexp(vals.min(), K.shift) < 0
    if abs(e) < 1024:
        assert v.margin == math.ldexp(base.margin, e)
    else:  # beyond float range the margin saturates
        assert v.margin == (-math.inf if e > 0 else 0.0)


def test_unsupported_dimension():
    with pytest.raises(ValueError):
        sphere_minimize(diag_ones(4))


def test_config_validation():
    # an out-of-range or non-integer value is a plain ValueError that names
    # the field; a bool is no integer here (True would be a 1-point grid)
    for field, value, requirement in (
        ("grid_points", 0, "must be positive"),
        ("refine_max_iters", 0, "must be positive"),
        ("grid_points", True, "must be an integer"),
        ("grid_points", 10.0, "must be an integer"),
        ("refine_max_iters", 2.5, "must be an integer"),
        ("refine_max_iters", False, "must be an integer"),
        ("refine_top_k", 2.5, "must be an integer"),
        ("refine_top_k", "50", "must be an integer"),
    ):
        with pytest.raises(ValueError) as exc:
            OracleConfig(**{field: value})
        assert str(exc.value) == f"{field} {requirement}"
    # the grid's arrays grow with it: at most 10^6 points
    assert OracleConfig(grid_points=10**6).grid_points == 10**6
    with pytest.raises(ValueError) as exc:
        OracleConfig(grid_points=10**6 + 1)
    assert str(exc.value) == "grid_points must be at most 1000000"


def test_only_the_sample_and_the_minimum_take_a_config():
    # the config is the grid size and the refine's two bounds; the verdict,
    # the catalog and the zero set run the defaults and take none
    names = [f.name for f in dataclasses.fields(OracleConfig)]
    assert names == ["grid_points", "refine_max_iters", "refine_top_k"]
    assert not hasattr(oracle, "sample_verdict")
    T, q = diag_ones(3), builtin_catalog()[0]
    for fn, arg in ((classify, T), (verify, q), (classify_numeric, T), (zero_set_probe, T)):
        params = inspect.signature(fn).parameters.values()
        assert all("OracleConfig" not in str(p.annotation) for p in params), fn.__name__
        with pytest.raises(TypeError):
            fn(arg, OracleConfig())
    for fn in (oracle.sphere_sample, sphere_minimize):
        assert list(inspect.signature(fn).parameters)[:2] == ["T", "cfg"]


def test_refine_top_k_must_be_positive():
    for k in (0, -3):
        with pytest.raises(ValueError) as exc:
            OracleConfig(refine_top_k=k)
        assert str(exc.value) == "refine_top_k must be positive"
    res = sphere_minimize(diag_ones(2), OracleConfig(refine_top_k=1, grid_points=64))
    assert res.min_value == pytest.approx(0.5, abs=1e-9)


def test_agreement_with_cyclic_rules():
    # PD family instances must certify numerically with a clear margin
    for e in ("-1/2", "-1/3", "-1/4", "-1/6", "-5/36"):
        T = embed(CyclicTernary.of(1, -1, 1, 1, e))
        res = sphere_minimize(T)
        assert res.min_value > 1e-8, e


def _gradient_reference(K, X0, cfg, stats):
    """Projected gradient descent with the refine's backtracking, one numpy
    pass per halving round: the cross-check for the Newton refine's minima.
    ``stats`` counts candidates that stalled (step below 1e-18) and
    iterations where a candidate failed all 40 rounds and stayed active."""
    X = X0 / np.linalg.norm(X0, axis=1, keepdims=True)
    vals, cub, _ = oracle._forms_and_cubics(K, X)
    alpha = np.full(len(X), 0.1)
    active = np.ones(len(X), dtype=bool)
    iters = 0
    for it in range(cfg.refine_max_iters):
        grad = 4.0 * cub
        gt = grad - (np.einsum("pi,pi->p", grad, X))[:, None] * X
        gnorm2 = np.einsum("pi,pi->p", gt, gt)
        active = active & (np.sqrt(gnorm2) > oracle._GRAD_TOL)
        if not active.any():
            break
        iters = it + 1
        moved = np.zeros(len(X), dtype=bool)
        for _ in range(40):
            idx = active & ~moved
            if not idx.any():
                break
            trial = X[idx] - alpha[idx, None] * gt[idx]
            trial = trial / np.linalg.norm(trial, axis=1, keepdims=True)
            tvals, tcub, _ = oracle._forms_and_cubics(K, trial)
            ok = tvals < vals[idx] - 1e-4 * alpha[idx] * gnorm2[idx]
            sel = np.flatnonzero(idx)
            good = sel[ok]
            X[good] = trial[ok]
            vals[good] = tvals[ok]
            cub[good] = tcub[ok]
            moved[good] = True
            alpha[good] = np.minimum(alpha[good] * 2.0, 1.0)
            bad = sel[~ok]
            alpha[bad] *= 0.5
            stuck = bad[alpha[bad] < 1e-18]
            active[stuck] = False
            moved[stuck] = True
            stats["stalled"] += len(stuck)
        stats["all_rungs_failed"] += int((active & ~moved).sum())
    return X, vals, iters


def _newton_reference(K, X0, cfg, stats):
    """The refine of ``_refine_batch`` with one numpy pass per halving
    round: directions from ``_newton_directions`` and one step per
    candidate.  ``stats`` as in ``_gradient_reference``; it also counts
    iterations that some candidate sat out (``partial``) and iterations of
    more than one pass (``multi_pass``)."""
    X = X0 / np.linalg.norm(X0, axis=1, keepdims=True)
    vals, cub, hess = oracle._forms_and_cubics(K, X)
    step = np.ones(len(X))
    active = np.ones(len(X), dtype=bool)
    iters = 0
    for it in range(cfg.refine_max_iters):
        grad = 4.0 * cub
        gt = grad - (np.einsum("pi,pi->p", grad, X))[:, None] * X
        gnorm2 = np.einsum("pi,pi->p", gt, gt)
        active = active & (np.sqrt(gnorm2) > oracle._GRAD_TOL)
        if not active.any():
            break
        iters = it + 1
        rows = np.flatnonzero(active)
        stats["partial"] += len(rows) < len(X)
        d, slope = np.zeros_like(X), np.zeros(len(X))
        d[rows], _ = oracle._newton_directions(X[rows], vals[rows], gt[rows], hess[rows])
        slope[rows] = np.einsum("pi,pi->p", gt[rows], d[rows])
        moved = np.zeros(len(X), dtype=bool)
        for k in range(40):
            sel = np.flatnonzero(active & ~moved)
            if not sel.size:
                break
            stats["multi_pass"] += k == 1
            s = step[sel]
            trial = X[sel] + s[:, None] * d[sel]
            trial = trial / np.linalg.norm(trial, axis=1, keepdims=True)
            tvals, tcub, thess = oracle._forms_and_cubics(K, trial)
            held = vals[sel], cub[sel], hess[sel]
            ok = oracle._decrease(X[sel], held, trial, (tvals, tcub, thess)) < 1e-4 * s * slope[sel]
            good = sel[ok]
            X[good] = trial[ok]
            vals[good] = tvals[ok]
            cub[good] = tcub[ok]
            hess[good] = thess[ok]
            moved[good] = True
            step[good] = np.minimum(s[ok] * 2.0, 1.0)
            bad = sel[~ok]
            step[bad] = s[~ok] * 0.5
            stuck = bad[step[bad] < 1e-18]
            active[stuck] = False
            moved[stuck] = True
            stats["stalled"] += len(stuck)
        stats["all_rungs_failed"] += int((active & ~moved).sum())
    return X, vals, iters


REFINE_CONFIGS = {
    "default": OracleConfig(),
    "one-iteration": OracleConfig(refine_max_iters=1),
    "stall": OracleConfig(),  # with _GRAD_TOL at 1e-300, converged candidates stall
    "top-k-covers-grid": OracleConfig(grid_points=40, refine_top_k=64),
}


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("name", list(REFINE_CONFIGS))
@pytest.mark.filterwarnings("error")
def test_refine_ladder_matches_sequential_reference(dim, name, monkeypatch):
    # the refine gives the reference's iterates to the bit; under the
    # default config its best value is never above the gradient loop's
    cfg = REFINE_CONFIGS[name]
    if name == "stall":
        monkeypatch.setattr(oracle, "_GRAD_TOL", 1e-300)
    rng = random.Random(f"{dim}:{name}")
    stats = {"stalled": 0, "all_rungs_failed": 0, "partial": 0, "multi_pass": 0}
    tensors = []
    for case in range(5):
        T = rand_tensor(rng, dim)
        if case % 2:  # shift towards PD so that minima sit near the boundary too
            T = SymmetricTensor4(dim, {
                idx: v + (rng.randint(0, 3) if len(set(idx)) == 1 else 0)
                for idx, v in T.entries().items()
            })
        tensors.append(T)
    if dim == 3:  # rows off the PD region that take many steps
        tensors.append(SADDLES)
    for case, T in enumerate(tensors):
        scale = max(1.0, *(abs(float(v)) for v in T.entries().values()))
        K, X, vals = oracle.sphere_sample(T, cfg)
        order = np.argsort(vals, kind="stable")
        starts = [X[order[: cfg.refine_top_k]]]
        starts.append(np.random.default_rng(case).normal(size=(7, dim)))
        for X0 in starts:
            got = oracle._refine_batch(K, X0, cfg)
            want = _newton_reference(K, X0, cfg, stats)
            assert np.array_equal(got[0], want[0])
            assert np.array_equal(got[1], want[1])
            assert got[2] == want[2]
            if name == "default":
                spare = {"stalled": 0, "all_rungs_failed": 0}
                gradient = _gradient_reference(K, X0, cfg, spare)
                assert got[1].min() <= gradient[1].min() + 1e-12 * scale
        # refined rows, mostly converged, among fresh grid rows: the
        # converged rows run through every direction and pass unmoved
        mixed = np.concatenate([got[0][::2], X[order[cfg.refine_top_k:][:10]]])
        got = oracle._refine_batch(K, mixed, cfg)
        want = _newton_reference(K, mixed, cfg, stats)
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
        assert got[2] == want[2]
    # x1^2 x2^2, whose zero circles leave rows stuck for many iterations of
    # several passes each (60 iterations bound the test's time)
    T = SymmetricTensor4(dim, {(1, 1, 2, 2): Fraction(1, 6)})
    capped = dataclasses.replace(cfg, refine_max_iters=min(cfg.refine_max_iters, 60))
    K, X, vals = oracle.sphere_sample(T, cfg)
    X0 = X[oracle._top_k(vals, cfg.refine_top_k)]
    got = oracle._refine_batch(K, X0, capped)
    want = _newton_reference(K, X0, capped, stats)
    assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
    assert got[2] == want[2]
    assert stats["multi_pass"] > 0 and (stats["partial"] > 0 or cfg.refine_max_iters == 1)
    if name == "stall":
        assert stats["stalled"] > 0 and stats["all_rungs_failed"] > 0


@pytest.mark.parametrize("T", [
    pytest.param(diag_ones(3), id="diag_ones"),
    pytest.param(INDEF, id="INDEF"),
    *(pytest.param(q.to_tensor(), id=q.label) for q in builtin_catalog()),
])
def test_newton_refine_converges_quickly(T):
    # gradient steps alone take up to 27 iterations on the catalog; a silent
    # fall back to them fails this bound
    assert sphere_minimize(T).iterations_used <= 15


def test_saddle_rows_leave_their_saddles():
    # the |Hr| direction moves the two rows near saddles off them in a few
    # steps; the gradient fallback ran them to the 500-iteration cap
    res = sphere_minimize(SADDLES)
    assert res.iterations_used <= 30
    assert classify_numeric(SADDLES).kind is Kind.POSITIVE_DEFINITE
    assert res.min_value <= 0.04999998426763269 + 1e-12


def test_decrease_keeps_its_sign_at_small_steps():
    # 1e-9 from a minimum (gradients of 1e-9 to 1e-7, as refined candidates
    # have) the change of Tx^4 / |x|^4 along -g falls below one ulp of the
    # values at small steps: the difference of the float values loses its
    # sign there, _decrease keeps its digits against the exact
    # f(y)|x|^4 - f(x)|y|^4 at the float points
    tensors = [diag_ones(3), *(rand_tensor(random.Random(f"decrease:{n}"), n) for n in (2, 3))]
    tensors += [q.to_tensor() for q in builtin_catalog()]
    naive_wrong = 0
    for T in tensors:
        K = oracle._kernel(T)
        x = np.array(sphere_minimize(T).minimizer)
        x = x + 1e-9 * np.random.default_rng(T.dim).normal(size=T.dim)
        X = (x / np.linalg.norm(x))[None]
        forms = oracle._forms_and_cubics(K, X)
        vals, cub, _ = forms
        g = 4.0 * cub[0] - 4.0 * vals[0] * X[0]
        d = -g / np.linalg.norm(g)
        abs_sum = float(sum(abs(v) * multiplicity(idx) for idx, v in T.entries().items()))
        xf = [Fraction(float(v)) for v in X[0]]
        fx, xx = T.evaluate_form(xf), sum(v * v for v in xf)
        for e in range(13):
            Y = X + 10.0**-e * d
            Y = Y / np.linalg.norm(Y)
            yf = [Fraction(float(v)) for v in Y[0]]
            exact = T.evaluate_form(yf) * xx**2 - fx * sum(v * v for v in yf) ** 2
            got = oracle._decrease(X, forms, Y, oracle._forms_and_cubics(K, Y))[0]
            tol = 1e-14 * abs_sum * float(np.linalg.norm(Y - X))
            assert abs(Fraction(float(got)) * 2**K.shift - exact) <= tol, (T, e)
            assert np.sign(got) == np.sign(exact) != 0, (T, e)
            naive = oracle._forms_and_cubics(K, Y)[0][0] - vals[0]
            naive_wrong += bool(np.sign(naive) != np.sign(exact))
    assert naive_wrong > 0


@pytest.mark.parametrize("q", builtin_catalog(), ids=lambda q: q.label)
def test_catalog_candidates_all_converge(q):
    # every refined candidate reaches _GRAD_TOL: none stalls on a decrease
    # below the values' rounding
    T, cfg = q.to_tensor(), OracleConfig()
    K, X, vals = oracle.sphere_sample(T, cfg)
    R, _, _ = oracle._refine_batch(K, X[oracle._top_k(vals, cfg.refine_top_k)], cfg)
    grad = 4.0 * oracle._forms_and_cubics(K, R)[1]
    g = grad - np.einsum("pi,pi->p", grad, R)[:, None] * R  # as in the refine
    assert len(R) == cfg.refine_top_k
    assert np.sqrt(np.einsum("pi,pi->p", g, g)).max() <= oracle._GRAD_TOL


def test_top_k_matches_stable_argsort():
    rng = np.random.default_rng(11)
    ties = rng.integers(0, 6, 300).astype(float)
    with_nan = ties.copy()
    with_nan[rng.choice(300, 40, replace=False)] = np.nan
    mostly_nan = np.full(300, np.nan)
    mostly_nan[[5, 17, 200]] = [2.0, -1.0, 2.0]
    signed_zeros = np.where(rng.random(300) < 0.5, -0.0, 0.0)
    signed_zeros[[3, 9]] = [np.inf, -np.inf]
    for keys in (ties, with_nan, mostly_nan, signed_zeros, rng.normal(size=300)):
        for k in (0, 1, 2, 3, 4, 7, 50, 61, 299, 300, 400):
            want = np.argsort(keys, kind="stable")[:k]
            assert np.array_equal(oracle._top_k(keys, k), want), k


@pytest.mark.parametrize("T", [INDEF, BinaryQuartic.of(1, 0, "-1/3", 0, 1).to_tensor()])
def test_sample_grid_is_cached_read_only(T):
    n = OracleConfig().effective_grid(T.dim)
    fresh = {m: oracle._grid(T.dim, m) for m in (n, 512)}
    _, X, _ = oracle.sphere_sample(T, OracleConfig(grid_points=n))
    assert not X.flags.writeable
    assert np.array_equal(X, fresh[n])
    with pytest.raises(ValueError):
        X[0, 0] = 2.0
    sphere_minimize(T)
    zero_set_probe(T)
    classify_numeric(T)
    for m, grid in fresh.items():
        _, again, _ = oracle.sphere_sample(T, OracleConfig(grid_points=m))
        assert np.array_equal(again, grid)
    assert oracle.sphere_sample(T, OracleConfig(grid_points=n))[1] is X
    # the cache is the grid and its quadratic monomials, no more: 9 float64
    # values per point in dim 3 (every benchmark child holds one)
    X, Q = oracle._cached_grid(T.dim, n)
    assert X.base is None and Q.base is None and Q.flags.c_contiguous
    assert X.dtype == Q.dtype == np.float64
    assert X.size + Q.size <= (T.dim + T.dim * (T.dim + 1) // 2) * n <= 9 * n


def _exact_cubic(T, x):
    """Tx^3 in exact arithmetic: (Tx^3)_i = sum over j, k, l of t_ijkl x_j x_k x_l."""
    n = T.dim
    return [
        sum(T[(i, j, k, l)] * x[j - 1] * x[k - 1] * x[l - 1]
            for j in range(1, n + 1) for k in range(1, n + 1) for l in range(1, n + 1))
        for i in range(1, n + 1)
    ]


@pytest.mark.parametrize("dim", [2, 3])
def test_kernel_matches_exact_evaluation(dim):
    # the Gram-form grid values and the refine's Tx^4 and Tx^3, times
    # 2^shift, agree with Fraction evaluation at the float points, to 1e-12
    # of the scale sum |t| * |x|^k over all index orders
    rng = random.Random(f"kernel:{dim}")
    for case in range(20):
        T = rand_tensor(rng, dim, lo=-10 ** (case % 4), hi=10 ** (case % 4))
        K = oracle._kernel(T)
        X = np.random.default_rng(case).normal(size=(25, dim)) * (0.5 + case % 3)
        grid_vals = oracle._values(K, X[:, K.pairs].prod(axis=2).T)
        vals, cub, _ = oracle._forms_and_cubics(K, X)
        abs_sum = sum(abs(v) * multiplicity(idx) for idx, v in T.entries().items())
        for p, row in enumerate(X):
            x = [Fraction(float(v)) for v in row]
            norm = float(np.linalg.norm(row))
            exact = T.evaluate_form(x)
            tol = 1e-12 * float(abs_sum) * norm**4
            assert abs(Fraction(float(grid_vals[p])) * 2**K.shift - exact) <= tol
            assert abs(Fraction(float(vals[p])) * 2**K.shift - exact) <= tol
            for got, want in zip(cub[p], _exact_cubic(T, x)):
                assert abs(Fraction(float(got)) * 2**K.shift - want) <= 1e-12 * float(abs_sum) * norm**3


def _exact_hessian(T, x):
    """Tx^2 in exact arithmetic: (Tx^2)_ij = sum over k, l of t_ijkl x_k x_l."""
    r = range(1, T.dim + 1)
    return [[sum(T[(i, j, k, l)] * x[k - 1] * x[l - 1] for k in r for l in r) for j in r]
            for i in r]


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("scale", [1, 2**1010])
def test_kernel_hessian_matches_exact_evaluation(dim, scale):
    # Tx^2 from the Hessian rows, times 2^shift, agrees with Fraction
    # evaluation at dyadic points, to 1e-12 of sum |t| * |x|^2
    rng = random.Random(f"hessian:{dim}")
    for case in range(20):
        T = rand_tensor(rng, dim, lo=-10 ** (case % 4), hi=10 ** (case % 4)).scale(Fraction(scale))
        K = oracle._kernel(T)
        assert K.shift == math.frexp(max(abs(float(v)) for v in T.entries().values()))[1] - 1
        x = [Fraction(rng.randint(-16, 16), 8) for _ in range(dim)]
        hess = oracle._forms_and_cubics(K, np.array([x], dtype=float))[2][0]
        abs_sum = sum(abs(v) * multiplicity(idx) for idx, v in T.entries().items())
        tol = abs_sum * sum(v * v for v in x) / 10**12
        for got_row, want_row in zip(hess, _exact_hessian(T, x)):
            for got, want in zip(got_row, want_row):
                assert abs(Fraction(float(got)) * 2**K.shift - want) <= tol


def _reference_kernel(T):
    """S, H and the shift built from the dense tensor ``dense_reference(T)``:
    the reference for ``_kernel``, which reads T's entries directly."""
    pairs, fold = oracle._monomials(T.dim)[:2]
    Td = dense_reference(T)
    top = float(np.abs(Td).max())
    shift = math.frexp(top)[1] - 1
    Td = np.ldexp(Td, -shift)
    i, j = pairs.T
    gram = fold[:, None] * Td[i, j][:, i, j] * fold
    hessian = fold[:, None] * Td[i, j].reshape(len(pairs), -1)
    return gram, hessian, shift


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("scale", [1, 2**1010])
def test_kernel_matches_dense_reference(dim, scale):
    # the kernel built from the stored entries has the bits of the one
    # built from the dense tensor, full and sparse, near float range too
    rng = random.Random(f"dense:{dim}")
    tensors = [SymmetricTensor4(dim, {}), diag_ones(dim)]
    for case in range(10):
        T = rand_tensor(rng, dim, lo=-10 ** (case % 4), hi=10 ** (case % 4))
        if case % 2:
            T = SymmetricTensor4(dim, {i: v for i, v in T.entries().items() if rng.random() < 0.4})
        tensors.append(T)
    for T in tensors:
        K = oracle._kernel(T.scale(Fraction(scale)))
        gram, hessian, shift = _reference_kernel(T.scale(Fraction(scale)))
        assert K.shift == shift
        assert np.array_equal(K.gram, gram)
        assert np.array_equal(K.hessian, hessian)


@pytest.mark.parametrize("k", [-1500, 1500])
def test_kernel_scale_is_exact_beyond_float_range(k):
    # the shift, floor(log2 max|t|), comes from the exact entries, and each
    # coefficient from one rounding of t / 2^shift: 2^k T, whose entries no
    # float holds, has T's coefficients to the bit and T's shift plus k
    rng = random.Random(f"beyond:{k}")
    tensors = [diag_ones(2), *(rand_tensor(rng, dim) for dim in (2, 3, 3))]
    tensors += [q.to_tensor() for q in builtin_catalog() if q.label in ("19-14-14", "41/3u")]
    for T in tensors:
        K, Kk = oracle._kernel(T), oracle._kernel(T.scale(Fraction(2) ** k))
        top = max(abs(v) for v in T.entries().values())
        assert Fraction(2) ** K.shift <= top < Fraction(2) ** (K.shift + 1)
        assert Kk.shift == K.shift + k
        assert np.array_equal(Kk.gram, K.gram) and np.array_equal(Kk.hessian, K.hessian)
    assert oracle._kernel(SymmetricTensor4(3, {})).shift == -1  # frexp(0.0)[1] - 1


def test_floor_log2_at_powers_of_two():
    for e in (-70, -1, 0, 1, 70):
        for r in (Fraction(2) ** e, Fraction(2) ** e * Fraction(99, 100), Fraction(2) ** e * Fraction(3, 2)):
            for q in (r, -r):
                want = e - (abs(q) < Fraction(2) ** e)
                assert oracle._floor_log2(q.numerator, q.denominator) == want, q


@pytest.mark.parametrize("dim", [2, 3])
def test_newton_direction_solves_the_tangent_system(dim):
    # a Newton row has a Riemannian Hessian Hr = P (12 Tx^2) P - 4 Tx^4 P
    # positive definite on the tangent plane, and a tangent d with Hr d = -g;
    # every other row has a tangent eigenvalue <= 0 and a tangent descent
    # direction d with |Hr| d = -g, |Hr| from Hr's tangent eigenvectors
    T = rand_tensor(random.Random(f"newton:{dim}"), dim)
    K = oracle._kernel(T)
    X = np.random.default_rng(dim).normal(size=(200, dim))
    X /= np.linalg.norm(X, axis=1, keepdims=True)
    vals, cub, hess = oracle._forms_and_cubics(K, X)
    P = np.eye(dim) - X[:, :, None] * X[:, None, :]
    g = np.einsum("pij,pj->pi", P, 4.0 * cub)
    # projected twice, so that g is tangent to its own rounding: near a
    # critical point one projection leaves x . g at the rounding of Tx^3
    g -= np.einsum("pi,pi->p", g, X)[:, None] * X
    d, newton = oracle._newton_directions(X, vals, g, hess)
    assert 0 < newton.sum() < len(X)
    for x, Pi, f, H, gi, di, nt in zip(X, P, vals, hess, g, d, newton):
        Hr = Pi @ (12.0 * H) @ Pi - 4.0 * f * Pi
        tangent = np.linalg.svd(Pi)[0][:, : dim - 1]  # orthonormal basis of x's complement
        lam, vec = np.linalg.eigh(tangent.T @ Hr @ tangent)
        size = np.abs(lam).max()
        if nt:
            assert lam.min() > -1e-12 * size
            system = Hr
        else:
            assert lam.min() <= 1e-12 * size
            system = tangent @ vec @ np.diag(np.abs(lam)) @ vec.T @ tangent.T
            assert gi @ di < 0
        assert abs(x @ di) <= 1e-12 * np.linalg.norm(di)
        residual = np.linalg.norm(system @ di + gi)
        assert residual <= 1e-9 * (size * np.linalg.norm(di) + np.linalg.norm(gi))
    # the direction does not depend on the form's scale, and its adjugate
    # neither overflows nor underflows anywhere in float range
    with np.errstate(all="raise"):
        for k in (-1000, -300, 300, 1000):
            scaled = (np.ldexp(a, k) for a in (vals, g, hess))
            dk, nk = oracle._newton_directions(X, *scaled)
            assert np.array_equal(nk, newton) and np.array_equal(dk, d)


@pytest.mark.parametrize("dim", [2, 3])
def test_refine_contraction_is_row_independent(dim):
    # each row of _forms_and_cubics, of _decrease and of _newton_directions
    # has the same bits alone and in any batch, so a candidate's iterates do
    # not depend on which candidates share its pass
    rng = np.random.default_rng(dim)
    T = rand_tensor(random.Random(f"rows:{dim}"), dim)
    K = oracle._kernel(T)
    X = rng.normal(size=(1200, dim))
    X /= np.linalg.norm(X, axis=1, keepdims=True)
    Y = X + rng.normal(size=X.shape) * 10.0 ** rng.integers(-12, 0, (len(X), 1))

    def contractions(rows):
        forms = oracle._forms_and_cubics(K, X[rows])
        y_forms = oracle._forms_and_cubics(K, Y[rows])
        vals, cub, hess = forms
        g = 4.0 * cub
        for _ in range(2):  # projected twice, as in the direction test above
            g = g - np.einsum("pi,pi->p", g, X[rows])[:, None] * X[rows]
        d, newton = oracle._newton_directions(X[rows], vals, g, hess)
        return (*forms, oracle._decrease(X[rows], forms, Y[rows], y_forms), d, newton)

    full = contractions(np.arange(len(X)))
    for p in range(len(X)):
        one = contractions(np.arange(p, p + 1))
        assert all(np.array_equal(a, b[p : p + 1]) for a, b in zip(one, full))
    sizes = [*range(1, 40), 63, 64, 65, 127, 128, 129, 200, 511, 512, 513, 1000, 1199, 1200]
    sizes += rng.integers(1, 1201, 20).tolist()
    for size in sizes:
        rows = rng.choice(len(X), size, replace=False)
        part = contractions(rows)
        assert all(np.array_equal(a, b[rows]) for a, b in zip(part, full)), size


@pytest.mark.parametrize("dim", [2, 3])
def test_kernel_entries_near_float_range(dim):
    # the kernel holds up to 4|t|, so entries near float range are computed
    # at a power-of-two scale: the values are the small tensor's, to the bit
    T = rand_tensor(random.Random(f"big:{dim}"), dim)
    big = T.scale(Fraction(2) ** 1000)
    X = np.random.default_rng(dim).normal(size=(50, dim))
    K, Kbig = oracle._kernel(T), oracle._kernel(big)
    for got, want in zip(oracle._forms_and_cubics(Kbig, X), oracle._forms_and_cubics(K, X)):
        assert np.array_equal(got, np.ldexp(want, 1000 + K.shift - Kbig.shift))
    Q = X[:, K.pairs].prod(axis=2).T
    want = np.ldexp(oracle._values(K, Q), 1000 + K.shift - Kbig.shift)
    assert np.array_equal(oracle._values(Kbig, Q), want)
    # 4 t1122 overflows a float, the form's values do not; the
    # refine runs at the kernel's scale, so no step overflows either
    near_max = {(1, 1, 1, 1): 10**308, (2, 2, 2, 2): 10**308, (1, 1, 2, 2): -9 * 10**307}
    with np.errstate(all="raise"):
        v = classify_numeric(SymmetricTensor4(dim, near_max))
    assert v.kind is Kind.INDEFINITE and v.witness is not None
