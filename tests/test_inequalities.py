import math
import random
from fractions import Fraction

import pytest

import quartpd
from quartpd import oracle
from quartpd.inequalities import (
    WeightedInequality,
    builtin_catalog,
    exact_spot_check,
    verify,
)
from quartpd import inequalities
from quartpd.verdict import Kind, Verdict

from conftest import rand_fraction, rand_vector


def by_label(label):
    matches = [q for q in builtin_catalog() if q.label == label]
    assert len(matches) == 1, label
    return matches[0]


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

    def test_labels_unique(self):
        labels = [q.label for q in builtin_catalog()]
        assert len(labels) == len(set(labels))

    def test_strict_uniforms_present(self):
        for c in ("14", "15", "16", "17", "18", "41/3"):
            assert by_label(f"{c}u").strict


class TestExactSpotCheck:
    def test_uniform_19_at_ones(self):
        assert exact_spot_check(by_label("19u"), (1, 1, 1)) == 0

    def test_fail_point_value(self):
        v = exact_spot_check(by_label("19-14-14"), (Fraction(-6, 5), 5, 1))
        assert v == Fraction(-145240, 6250)
        assert float(v) == -23.2384

    def test_uniform_14_sample(self):
        assert exact_spot_check(by_label("14u"), (1, 1, -5)) == 903

    def test_second_fail_point_negative(self):
        q = by_label("41/3-15-15")
        assert exact_spot_check(q, q.fail_point) < 0

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
        # the family rules decide 10 entries exactly, the oracle the other 8
        family = {"14u", "15u", "16u", "17u", "18u", "41/3u", "15-14-14", "17-15-18", "46/3-14-14", "19u"}
        for q in builtin_catalog():
            decision = quartpd.classify(q.to_tensor())
            report = verify(q)
            assert report.stage == decision.trace[-1][0], q.label
            assert report.verdict == decision.verdict, q.label
            assert report.stage == ("family" if q.label in family else "oracle"), q.label
            if report.stage == "family" and q.label != "19u":
                assert report.verdict.kind is Kind.POSITIVE_DEFINITE, q.label
        boundary = verify(by_label("19u"))
        assert (boundary.verdict.kind, boundary.verdict.rule) == (Kind.PSD_NOT_PD, "boundary-alternating-signs")
        assert boundary.verdict.witness == (1, 1, 1)

    def test_one_oracle_sample_per_entry(self, monkeypatch):
        # the sphere minimum, the oracle's verdict and 19u's zero-set probe
        # all read one sample: one kernel per entry
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


    def test_oracle_verdict_only_where_no_exact_stage_decides(self, monkeypatch):
        # the family entries, 19u among them, never pay for a witness search
        calls = []
        search = oracle._exact_negative

        def counted(T, point):
            calls.append(point)
            return search(T, point)

        monkeypatch.setattr(oracle, "_exact_negative", counted)
        for q in builtin_catalog():
            calls.clear()
            report = verify(q)
            if report.stage == "family":
                assert calls == [], q.label
            elif q.expected_fail:
                assert report.verdict.kind is Kind.INDEFINITE and calls, q.label


    def test_holds_follows_the_verdict_alone(self, monkeypatch):
        # an expected failure is as expected only where the verdict does not
        # hold and the named point refutes exactly; the point never
        # overrides the verdict
        q = by_label("19-14-14")
        assert q.expected_fail and q.value(q.fail_point) < 0
        rep = verify(q)
        assert (rep.verdict.kind, rep.holds, rep.as_expected) == (Kind.INDEFINITE, False, True)
        pd = Verdict(Kind.POSITIVE_DEFINITE, "oracle-sphere-minimum", margin=1.0)
        with monkeypatch.context() as m:
            m.setattr(inequalities, "classify_numeric", lambda T, **kw: pd)
            rep = verify(q)
        assert (rep.stage, rep.verdict, rep.holds, rep.as_expected) == ("oracle", pd, True, False)
        assert rep.exact_counterexample_value == q.value(q.fail_point)
        # a named point where P is positive backs no failure, whatever the verdict
        for label in ("19-14-14", "14u"):
            base = by_label(label)
            named = WeightedInequality(label, base.weights, True, fail_point=(1, 1, 1))
            assert named.expected_fail and named.value((1, 1, 1)) > 0
            rep = verify(named)
            assert rep.holds is (label == "14u") and not rep.as_expected, label


class TestProperties:
    def test_exchange_variant_holds(self):
        # mirrored cubic monomials: the exchanged strict inequalities hold too
        for label in ("14u", "17u", "19-17-15"):
            base = by_label(label)
            ex = WeightedInequality(
                base.label + "x", base.weights, base.strict, exchanged=True
            )
            rep = verify(ex)
            assert rep.holds, label

    def test_exchange_equals_reflected_argument(self, rng):
        # swapping the cubic set equals evaluating at reversed coordinates
        base = by_label("19-17-15")
        ex = WeightedInequality("x", base.weights[::-1], True, exchanged=True)
        for _ in range(50):
            x = rand_vector(rng, 3)
            assert base.value(x) == ex.value(x[::-1])

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
