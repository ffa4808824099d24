import random
from fractions import Fraction

import pytest

import quartpd
from quartpd import bernstein
from quartpd.cli import main
from quartpd.cyclic import classify, embed
from quartpd.oracle import sphere_minimize
from quartpd.tensor import SymmetricTensor4, diag_ones
from quartpd.verdict import Kind, Verdict

from conftest import dense_form_reference, rand_fraction, rand_vector


DECLINED = Verdict(Kind.UNDETERMINED, "outside-family-hypotheses")


def family(*orbit_values):
    """The family stage's verdict on a cyclic or relaxed form's tensor."""
    return classify(embed(*orbit_values))


class TestEmbed:
    def test_diag_ones(self):
        assert embed(1, 0, 0, 0, 0) == diag_ones(3)

    def test_boundary_psd_zero(self):
        T = embed(1, -1, 1, 1, "-7/12")
        assert T.evaluate_form((1, 1, 1)) == 0

    def test_boundary_indefinite_value(self):
        T = embed(1, 1, 1, 1, "-7/12")
        assert T.evaluate_form((1, 1, -5)) == -204

    def test_all_slots_populated(self):
        T = embed(1, 2, 3, 4, 5)
        assert len(T.entries()) == 15

    def test_cyclic_rotation_invariance(self, rng):
        for _ in range(100):
            T = embed(
                *(rand_fraction(rng) for _ in range(5))
            )
            x = rand_vector(rng, 3)
            rotated = (x[1], x[2], x[0])
            assert T.evaluate_form(x) == T.evaluate_form(rotated)

    def test_rewriting_identity(self, rng):
        # for a = d = 1, b = -1, c = 1 the form equals
        # (x1+x2+x3)^4 - 8(x1^3 x2 + x1 x3^3 + x2^3 x3)
        #   + 12(e-1) x1 x2 x3 (x1+x2+x3)
        for _ in range(100):
            e = rand_fraction(rng)
            T = embed(1, -1, 1, 1, e)
            x = rand_vector(rng, 3)
            x1, x2, x3 = x
            rhs = (
                (x1 + x2 + x3) ** 4
                - 8 * (x1**3 * x2 + x1 * x3**3 + x2**3 * x3)
                + 12 * (e - 1) * x1 * x2 * x3 * (x1 + x2 + x3)
            )
            assert T.evaluate_form(x) == rhs

    def test_orbit_values_land_on_their_slots(self):
        # one e fills the three e-slots; three fill e123, e223, e233 in order
        def slots(a, b, c, d, e123, e223, e233):
            return {
                (1, 1, 1, 1): a, (2, 2, 2, 2): a, (3, 3, 3, 3): a,
                (1, 1, 1, 2): b, (2, 2, 2, 3): b, (1, 3, 3, 3): b,
                (1, 1, 1, 3): c, (1, 2, 2, 2): c, (2, 3, 3, 3): c,
                (1, 1, 2, 2): d, (1, 1, 3, 3): d, (2, 2, 3, 3): d,
                (1, 1, 2, 3): e123, (1, 2, 2, 3): e223, (1, 2, 3, 3): e233,
            }

        assert embed(1, 2, 3, 4, "-7/12").entries() == slots(1, 2, 3, 4, *[Fraction(-7, 12)] * 3)
        relaxed = embed(2, -1, 1, 2, "-1/4", "-1/5", "-1/6").entries()
        assert relaxed == slots(2, -1, 1, 2, Fraction(-1, 4), Fraction(-1, 5), Fraction(-1, 6))

    @pytest.mark.parametrize("es", [(), (0, 0), (0, 0, 0, 0)])
    def test_one_or_three_e_values(self, es):
        with pytest.raises(ValueError, match=f"one e or three .*got {len(es)}"):
            embed(1, -1, 1, 1, *es)

    def test_relaxed_reduces_to_cyclic(self):
        e = Fraction(-1, 3)
        assert embed(1, -1, 1, 1, e) == embed(1, -1, 1, 1, e, e, e)


class TestNecessityBound:
    def test_exact_value_below_boundary(self, rng):
        # on the alternating pattern the value at (1,1,1) is 21 + 36e
        for _ in range(50):
            e = Fraction(-7, 12) - abs(rand_fraction(rng)) - Fraction(1, 100)
            T = embed(1, -1, 1, 1, e)
            assert T.evaluate_form((1, 1, 1)) == 21 + 36 * e < 0


class TestClassifyCyclic:
    def test_boundary_psd(self):
        v = family(1, -1, 1, 1, "-7/12")
        assert v.kind is Kind.PSD_NOT_PD
        assert embed(1, -1, 1, 1, "-7/12").evaluate_form(v.witness) == 0

    def test_pd_interval(self):
        v = family(1, -1, 1, 1, "-1/6")
        assert v.kind is Kind.POSITIVE_DEFINITE
        assert v.rule == "pd-interval"

    def test_pd_interval_extended(self):
        v = family(1, -1, 1, 1, "-5/36")
        assert v.kind is Kind.POSITIVE_DEFINITE
        assert v.rule == "pd-interval-extended"

    def test_pd_interval_lifted(self):
        v = family(1, -1, 1, 2, "-1/4")
        assert v.kind is Kind.POSITIVE_DEFINITE
        assert v.rule == "pd-interval-lifted-offdiag"

    def test_boundary_indefinite_matched_signs(self):
        v = family(1, 1, 1, 1, "-7/12")
        assert v.kind is Kind.INDEFINITE
        assert v.witness == (1, 1, -5)
        assert embed(1, 1, 1, 1, "-7/12").evaluate_form(v.witness) == -204

    def test_boundary_indefinite_negative_signs(self):
        v = family(1, -1, -1, 1, "-7/12")
        assert v.kind is Kind.INDEFINITE
        assert v.witness == (1, 1, 1)
        assert embed(1, -1, -1, 1, "-7/12").evaluate_form(v.witness) == -24

    def test_below_necessity_bound(self):
        v = family(1, -1, 1, 1, -1)
        assert v.kind is Kind.INDEFINITE
        assert embed(1, -1, 1, 1, -1).evaluate_form(v.witness) < 0

    def test_closed_interval_psd_with_lifted_offdiag(self):
        v = family(1, -1, 1, 2, "-7/12")
        assert v.kind is Kind.POSITIVE_DEFINITE
        assert v.rule == "pd-interval-lifted-offdiag"

    def test_outside_family_undetermined(self):
        assert family(1, -1, 1, 1, 0).kind is Kind.UNDETERMINED
        assert family(1, 1, 1, 1, "-1/6").kind is Kind.UNDETERMINED

    def test_settled_endpoint_is_not_sharp(self):
        # -277/2000 and -69/500 lie just past -5/36 = -0.13888...: outside
        # the settled interval, where the Bernstein stage proves the first
        # PD and refutes the second at an exact rational point, for both
        # signs of b (b = 1 swaps x1 and x2)
        for b, x in [(-1, (1, Fraction(7, 32), Fraction(-31, 128))), (1, (Fraction(7, 32), 1, Fraction(-31, 128)))]:
            pd, indefinite = embed(1, b, -b, 1, "-277/2000"), embed(1, b, -b, 1, "-69/500")
            assert classify(pd).rule == classify(indefinite).rule == "outside-settled-family"
            assert bernstein.search(pd)[0] == Verdict(Kind.POSITIVE_DEFINITE, "bernstein-positive")
            assert bernstein.search(indefinite)[0] == Verdict(Kind.INDEFINITE, "bernstein-corner", witness=x)
            assert indefinite.evaluate_form(x) == Fraction(-16815, 268435456)

    def test_pattern_mismatch(self):
        # |b| != a and |c| != a are outside the family's hypotheses
        for args in [(2, -1, 1, 1, 0), (1, "1/2", 1, 1, 0)]:
            assert family(*args) == DECLINED

    def test_nonpositive_a_declines(self):
        assert family(0, 0, 0, 1, 0) == DECLINED
        assert family(-1, -1, 1, -1, "7/12") == DECLINED

    def test_no_pattern(self):
        # a dim-3 tensor off the orbit pattern, and any other dim
        off = embed(1, -1, 1, 1, "-1/6").entries()
        off[(1, 1, 1, 2)] = Fraction(-1, 2)
        for T in [SymmetricTensor4(3, off), diag_ones(2), diag_ones(4)]:
            assert classify(T) == Verdict(Kind.UNDETERMINED, "no-cyclic-pattern")
        # the package's one classification entry point is the pipeline's
        assert [name for name in quartpd.__all__ if "classify" in name] == ["classify"]


class TestClosedLiftedInterval:
    """For b*c = -1 and d > 1 the lifted interval is closed at e = -7/12:
    f_d = f_1 + 6(d - 1)*(x1^2 x2^2 + x1^2 x3^2 + x2^2 x3^2) with f_1 PSD,
    and the sum vanishes only on the axes, where f_d = x_i^4 > 0."""

    SIGNS = [(-1, 1), (1, -1)]

    @pytest.mark.parametrize("b, c", SIGNS)
    def test_lift_identity(self, rng, b, c):
        for _ in range(50):
            d, e = rand_fraction(rng), rand_fraction(rng)
            x1, x2, x3 = x = rand_vector(rng, 3)
            lift = embed(1, b, c, d, e).evaluate_form(x) - embed(1, b, c, 1, e).evaluate_form(x)
            assert lift == 6 * (d - 1) * (x1**2 * x2**2 + x1**2 * x3**2 + x2**2 * x3**2)

    @pytest.mark.parametrize("b, c", SIGNS)
    def test_sphere_minimum_positive(self, b, c):
        res = sphere_minimize(embed(1, b, c, "101/100", "-7/12"))
        assert res.min_value > 1e-8

    @pytest.mark.parametrize("args", [["1", "-1", "1", "2"], ["1", "1", "-1", "101/100"]])
    def test_cli_exit_0(self, runner, args):
        res = runner.invoke(main, ["check", "cyclic", *args, "-7/12"])
        assert res.exit_code == 0
        assert "positive-definite (pd-interval-lifted-offdiag)" in res.output


class TestClassifyRelaxed:
    def test_common_endpoint(self):
        # -1/4 closes the lower band and opens the upper one
        for third, rule in [("-1/3", "pd-lower-band"), ("-1/5", "pd-upper-band")]:
            assert family(1, -1, 1, 1, "-1/4", "-1/4", third) == Verdict(Kind.POSITIVE_DEFINITE, rule)

    def test_lower_band(self):
        v = family(1, -1, 1, 1, "-1/2", "-1/3", "-1/3")
        assert v.kind is Kind.POSITIVE_DEFINITE
        assert v.rule == "pd-lower-band"

    def test_widened_upper_band(self):
        # -0.27 lies below -1/4 but inside [-5/18, -1/6]: only the widened
        # upper band covers the triple
        v = family(1, -1, 1, 1, "-27/100", "-1/5", "-1/5")
        assert v.kind is Kind.POSITIVE_DEFINITE
        assert v.rule == "pd-upper-band-widened"

    def test_upper_band(self):
        assert family(1, -1, 1, 1, "-1/4", "-1/5", "-1/6").rule == "pd-upper-band"

    def test_mixed_across_split_undetermined(self):
        assert family(1, -1, 1, 1, "-13/24", "-1/6", "-1/6") == Verdict(Kind.UNDETERMINED, "outside-bands")

    def test_pattern_mismatch(self):
        # c != -b and d != a are outside the relaxed rule's hypotheses
        for args in [(1, 1, 1, 1, 0, 0, "-1/4"), (1, -1, 1, 2, "-1/3", "-1/4", "-1/4")]:
            assert family(*args) == DECLINED
        # with three equal e's the same pattern is the cyclic ladder's
        assert family(1, 1, 1, 1, 0, 0, 0).rule == "outside-settled-family"

    def test_nonpositive_a_declines(self):
        assert family(-1, 1, -1, -1, "1/4", "1/5", "1/4") == DECLINED


# every cyclic and relaxed input of the two classes above, decisive or not
CYCLIC_CASES = [
    (1, -1, 1, 1, "-7/12"),
    (1, -1, 1, 1, "-1/6"),
    (1, -1, 1, 1, "-5/36"),
    (1, -1, 1, 2, "-1/4"),
    (1, 1, 1, 1, "-7/12"),
    (1, -1, -1, 1, "-7/12"),
    (1, -1, 1, 1, -1),
    (1, -1, 1, 2, "-7/12"),
    (1, -1, 1, 1, 0),
    (1, 1, 1, 1, "-1/6"),
    (2, -1, 1, 1, 0),
    (1, "1/2", 1, 1, 0),
]
RELAXED_CASES = [
    (1, -1, 1, 1, "-1/4", "-1/4", "-1/3"),
    (1, -1, 1, 1, "-1/4", "-1/4", "-1/5"),
    (1, -1, 1, 1, "-1/2", "-1/3", "-1/3"),
    (1, -1, 1, 1, "-27/100", "-1/5", "-1/5"),
    (1, -1, 1, 1, "-1/4", "-1/5", "-1/6"),
    (1, -1, 1, 1, "-13/24", "-1/6", "-1/6"),
    (1, 1, 1, 1, 0, 0, "-1/4"),
    (1, -1, 1, 2, "-1/3", "-1/4", "-1/4"),
    (1, 1, 1, 1, 0, 0, 0),
]


@pytest.mark.parametrize("lam", [Fraction(2), Fraction(1, 3), Fraction(7, 2), Fraction(1, 10**4)])
class TestScaleFree:
    """PD and PSD are invariant under positive scaling, and so are the
    family stage: a scaled input gets the same kind, rule and witness."""

    def test_cyclic(self, lam):
        for args in CYCLIC_CASES:
            scaled = (lam * Fraction(v) for v in args)
            assert family(*scaled) == family(*args)

    def test_relaxed(self, lam):
        for args in RELAXED_CASES:
            scaled = (lam * Fraction(v) for v in args)
            assert family(*scaled) == family(*args)
