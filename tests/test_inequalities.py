import math
import random
from fractions import Fraction

import pytest

import quartpd
from quartpd import bernstein, oracle
from quartpd.inequalities import (
    WeightedInequality,
    builtin_catalog,
    verify,
)
from quartpd import inequalities
from quartpd.pipeline import Decision
from quartpd.tensor import SymmetricTensor4
from quartpd.verdict import Kind, Verdict

from conftest import rand_fraction, rand_vector


def by_label(label):
    matches = [q for q in builtin_catalog() if q.label == label]
    assert len(matches) == 1, label
    return matches[0]


def reversed_coordinates(T):
    # the tensor of x -> form(x3, x2, x1)
    return SymmetricTensor4(3, {tuple(4 - i for i in idx): v for idx, v in T.entries().items()})


def mirrored_cubics(weights, x):
    # an entry's polynomial with every cubic monomial mirrored
    w1, w2, w3 = weights
    x1, x2, x3 = x
    return (
        (x1 + x2 + x3) ** 4
        - 8 * (x1 * x2**3 + x1**3 * x3 + x2 * x3**3)
        - x1 * x2 * x3 * (w1 * x1 + w2 * x2 + w3 * x3)
    )


class TestCatalog:
    def test_uniform_19_nonstrict(self):
        q = by_label("19u")
        assert not q.strict and not q.expected_fail

    def test_expected_fail_entries(self):
        q = by_label("19-14-14")
        assert q.expected_fail
        assert q.fail_point == (Fraction(-6, 5), 5, 1)
        q = by_label("41/3-15-15")
        assert q.expected_fail
        assert q.fail_point == (Fraction(-47, 5), -2, Fraction(23, 10))

    def test_weights_are_exact_however_the_entry_is_built(self):
        direct = WeightedInequality("x", (19, 14, 14), True)
        assert direct.to_tensor() == WeightedInequality.triple(19, 14, 14).to_tensor()
        assert all(type(w) is Fraction for w in direct.weights)
        value = direct.value((Fraction(-6, 5), 5, 1))
        assert type(value) is Fraction and value == by_label("19-14-14").value((Fraction(-6, 5), 5, 1))

    def test_labels_unique(self):
        labels = [q.label for q in builtin_catalog()]
        assert len(labels) == len(set(labels))

    def test_strict_uniforms_present(self):
        for c in ("14", "15", "16", "17", "18", "41/3"):
            assert by_label(f"{c}u").strict


class TestExactSpotCheck:
    def test_uniform_19_at_ones(self):
        assert by_label("19u").value((1, 1, 1)) == 0

    def test_fail_point_value(self):
        v = by_label("19-14-14").value((Fraction(-6, 5), 5, 1))
        assert v == Fraction(-145240, 6250)
        assert float(v) == -23.2384

    def test_uniform_14_sample(self):
        assert by_label("14u").value((1, 1, -5)) == 903

    def test_second_fail_point_negative(self):
        q = by_label("41/3-15-15")
        assert q.value(q.fail_point) < 0

    def test_tensor_matches_polynomial(self, rng):
        for q in builtin_catalog():
            T = q.to_tensor()
            for _ in range(10):
                x = rand_vector(rng, 3)
                assert T.evaluate_form(x) == q.value(x)


class TestVerify:
    def test_uniform_19_boundary(self):
        rep = verify(by_label("19u"))
        assert rep.holds and rep.as_expected
        assert abs(rep.sphere_min) <= 1e-8
        expect = 1 / math.sqrt(3)
        assert len(rep.equality_points) == 2
        for p in rep.equality_points:
            assert all(abs(abs(v) - expect) <= 1e-4 for v in p)

    def test_uniform_14_strict(self):
        rep = verify(by_label("14u"))
        assert rep.holds and rep.sphere_min > 1e-8

    def test_expected_fail_certified(self):
        rep = verify(by_label("19-14-14"))
        assert not rep.holds and rep.as_expected
        assert rep.sphere_min < -1e-8

    def test_report_carries_exact_counterexample_value(self):
        carried = set()
        for q in builtin_catalog():
            d = verify(q).to_dict()
            if "exact_counterexample_value" in d:
                assert d["exact_counterexample_value"] == str(q.value(q.fail_point))
                carried.add(q.label)
        assert carried == {q.label for q in builtin_catalog() if q.expected_fail}
        assert len(carried) == 5

    def test_all_catalog_as_expected(self):
        for q in builtin_catalog():
            assert verify(q).as_expected, q.label

    @pytest.mark.parametrize("q", builtin_catalog(), ids=lambda q: q.label)
    def test_holds_follows_the_check_verdict(self, q):
        # verify decides by the verdict check gives: strict entries need
        # PD, non-strict ones PD or PSD-not-PD
        kind = quartpd.classify(q.to_tensor()).verdict.kind
        if q.strict:
            want = kind is Kind.POSITIVE_DEFINITE
        else:
            want = kind in (Kind.POSITIVE_DEFINITE, Kind.PSD_NOT_PD)
        assert verify(q).holds is want

    def test_entries_are_decided_by_the_pipeline_stages(self):
        # verify decides as classify does: the family rules decide 10 entries
        # exactly, and the Bernstein stage the other 8, refuting the 5
        # expected failures at a dyadic corner
        family = {"14u", "15u", "16u", "17u", "18u", "41/3u", "15-14-14", "17-15-18", "46/3-14-14", "19u"}
        for q in builtin_catalog():
            decision = quartpd.classify(q.to_tensor())
            report = verify(q)
            assert (report.stage, report.verdict) == (decision.stage, decision.verdict), q.label
            if q.label in family:
                assert report.stage == "family", q.label
                if q.label != "19u":
                    assert report.verdict.kind is Kind.POSITIVE_DEFINITE, q.label
            else:
                assert report.stage == "exact-positivity", q.label
                if q.expected_fail:
                    assert report.verdict.rule == "bernstein-corner", q.label
        boundary = verify(by_label("19u"))
        assert (boundary.verdict.kind, boundary.verdict.rule) == (Kind.PSD_NOT_PD, "boundary-alternating-signs")
        assert boundary.verdict.witness == (1, 1, 1)

    @pytest.mark.parametrize("label", ["19-17-15", "19-16-15", "15-16-14"])
    def test_entries_past_the_family_rules_are_exact_pds(self, label):
        # past the family rules, the Bernstein stage certifies these PD
        # entries exactly; the report's margin key is null
        rep = verify(by_label(label))
        assert (rep.stage, rep.verdict.kind, rep.verdict.rule) == (
            "exact-positivity", Kind.POSITIVE_DEFINITE, "bernstein-positive"
        )
        assert rep.verdict.to_dict()["margin"] is None and rep.holds and rep.as_expected
        assert rep.sphere_min > 1e-8

    def test_one_oracle_sample_per_entry(self, monkeypatch):
        # the sphere minimum and 19u's zero-set probe read one sample: one
        # kernel per entry
        calls = 0
        kernel = oracle._kernel

        def counted(T):
            nonlocal calls
            calls += 1
            return kernel(T)

        monkeypatch.setattr(oracle, "_kernel", counted)
        for q in builtin_catalog():
            calls = 0
            verify(q)
            assert calls == 1, q.label


    def test_bernstein_stage_only_where_the_family_rules_do_not_decide(self, monkeypatch):
        # the family entries, 19u among them, never pay for the Bernstein
        # search; every other entry runs it once
        calls = []
        search = bernstein.classify

        def counted(T):
            calls.append(T)
            return search(T)

        monkeypatch.setattr(bernstein, "classify", counted)
        for q in builtin_catalog():
            calls.clear()
            report = verify(q)
            assert len(calls) == (report.stage != "family"), q.label


    def test_holds_follows_the_verdict_alone(self, monkeypatch):
        # an expected failure is as expected only where the verdict does not
        # hold and the named point refutes exactly; the point never
        # overrides the verdict
        q = by_label("19-14-14")
        assert q.expected_fail and q.value(q.fail_point) < 0
        rep = verify(q)
        assert (rep.verdict.kind, rep.holds, rep.as_expected) == (Kind.INDEFINITE, False, True)
        pd = Verdict(Kind.POSITIVE_DEFINITE, "stub")
        with monkeypatch.context() as m:
            m.setattr(inequalities, "classify", lambda T: Decision([("stub", pd)], "stub", pd, {"stub": 0.0}))
            rep = verify(q)
        assert (rep.stage, rep.verdict, rep.holds, rep.as_expected) == ("stub", pd, True, False)
        assert rep.exact_counterexample_value == q.value(q.fail_point)
        # a named point where P is positive backs no failure, whatever the verdict
        for label in ("19-14-14", "14u"):
            base = by_label(label)
            named = WeightedInequality(label, base.weights, True, fail_point=(1, 1, 1))
            assert named.expected_fail and named.value((1, 1, 1)) > 0
            rep = verify(named)
            assert rep.holds is (label == "14u") and not rep.as_expected, label


class TestProperties:
    def test_exchange_variant_holds(self, rng):
        # mirroring every cubic monomial (x1^3 x2 <-> x1 x2^3 and so on) gives
        # the entry with reversed weights at reversed coordinates, so the
        # exchanged strict inequalities hold too
        for label in ("14u", "17u", "19-17-15"):
            w1, w2, w3 = by_label(label).weights
            ex = reversed_coordinates(WeightedInequality(label, (w3, w2, w1), True).to_tensor())
            for _ in range(20):
                x = rand_vector(rng, 3)
                assert ex.evaluate_form(x) == mirrored_cubics((w1, w2, w3), x)
            assert quartpd.classify(ex).verdict.kind is Kind.POSITIVE_DEFINITE, label

    def test_exchange_equals_reflected_argument(self, rng):
        # swapping the cubic set equals evaluating at reversed coordinates
        base = by_label("19-17-15")
        ex = reversed_coordinates(base.to_tensor())
        for _ in range(50):
            x = rand_vector(rng, 3)
            assert base.value(x) == mirrored_cubics(base.weights[::-1], x[::-1])
            assert base.value(x) == ex.evaluate_form(x[::-1])

    def test_monotone_in_uniform_weight(self, rng):
        # larger uniform weight only subtracts more where the weight term
        # is positive
        c19, c14 = by_label("19u"), by_label("14u")
        found = 0
        for _ in range(300):
            x = rand_vector(rng, 3)
            x1, x2, x3 = x
            if x1 * x2 * x3 * (x1 + x2 + x3) > 0:
                found += 1
                assert c19.value(x) <= c14.value(x)
        assert found > 20
