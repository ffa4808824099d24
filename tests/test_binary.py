import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from quartpd.binary import (
    BinaryQuartic,
    _cleared,
    _negative_point,
    _eta_chi,
    _radical_bound,
    _sign,
    _sign_sqrt,
    classify,
)
from quartpd.verdict import Kind

from conftest import rand_fraction


def bq(*coeffs):
    return BinaryQuartic.of(*coeffs)


def discriminant_parts(q):
    """eta, chi and the sign of the discriminant eta^3 - 27*chi^2."""
    eta, chi = _eta_chi(q)
    return eta, chi, _sign(eta**3 - 27 * chi * chi)


class TestDiscriminantParts:
    def test_diagonal(self):
        assert discriminant_parts(bq(1, 0, 0, 0, 1)) == (1, 0, 1)

    def test_boundary(self):
        assert discriminant_parts(bq(1, 0, "-1/3", 0, 1)) == (Fraction(4, 3), Fraction(-8, 27), 0)

    def test_pd_instance(self):
        assert discriminant_parts(bq(1, -1, 1, 1, 1)) == (8, -4, 1)


# rule -> a form it decides, and its kind (boundary-discriminant's form is
# TestClassify.test_boundary_branch_pd's)
CRITERION_CASES = {
    "nonnegative-discriminant(i)": ((1, -1, 1, -1, 1), Kind.PSD_NOT_PD),  # (x1 - x2)^4
    "positive-discriminant(i)": ((1, -1, 1, -1, 2), Kind.POSITIVE_DEFINITE),
    "nonnegative-discriminant(ii)": ((1, -2, 3, -2, 1), Kind.PSD_NOT_PD),
    "positive-discriminant(ii)": ((1, -2, 3, -2, 2), Kind.POSITIVE_DEFINITE),
    "criterion-failed": ((1, -3, -3, -3, 1), Kind.INDEFINITE),
}


class TestClassify:
    def test_diagonal_pd(self):
        assert classify(bq(1, 0, 0, 0, 1)).kind is Kind.POSITIVE_DEFINITE

    def test_difference_of_squares_psd_only(self):
        # (x1^2 - x2^2)^2: zero at (1, 1)
        v = classify(bq(1, 0, "-1/3", 0, 1))
        assert v.kind is Kind.PSD_NOT_PD
        assert bq(1, 0, "-1/3", 0, 1).value((1, 1)) == 0

    def test_pm1_pd(self):
        assert classify(bq(1, -1, 1, 1, 1)).kind is Kind.POSITIVE_DEFINITE

    def test_pm1_psd_only(self):
        assert classify(bq(1, 1, 1, 1, 1)).kind is Kind.PSD_NOT_PD

    def test_boundary_branch_pd(self):
        # (x1^2 + x1 x2 + x2^2)^2 has a double-root discriminant yet is PD
        q = bq(1, "1/2", "1/2", "1/2", 1)
        v = classify(q)
        assert v.kind is Kind.POSITIVE_DEFINITE
        assert v.rule == "boundary-discriminant"

    def test_indefinite_has_valid_witness(self):
        q = bq(1, 2, 0, 0, 1)
        v = classify(q)
        assert v.kind is Kind.INDEFINITE
        assert v.witness is not None
        assert q.value(v.witness) < 0

    def test_negative_diagonal(self):
        v = classify(bq(-1, 0, 0, 0, 1))
        assert v.kind is Kind.INDEFINITE
        assert v.witness == (1, 0)

    @pytest.mark.parametrize("rule", list(CRITERION_CASES))
    def test_each_criterion_rule(self, rule):
        # one named case per rule of _criterion, checked against the
        # independent Sturm/gcd reference below as well
        coeffs, kind = CRITERION_CASES[rule]
        q = bq(*coeffs)
        v = classify(q)
        assert (v.kind, v.rule) == (kind, rule)
        assert reference_kind(q) is kind
        if kind is Kind.INDEFINITE:
            assert q.value(v.witness) < 0


def reference_sign_sqrt(p, q, s):
    """The sign of p + q*sqrt(s) for integers p, q and s >= 0, from
    m = isqrt(q^2 s): q*sqrt(s) is sign(q)*m when m^2 = q^2 s, and lies
    strictly between sign(q)*m and sign(q)*(m + 1) otherwise."""
    sigma = -1 if q < 0 else 1  # p + q*sqrt(s) = sigma*(sigma*p + sqrt(r))
    p, r = sigma * p, q * q * s
    m = math.isqrt(r)
    v = p + m if m * m == r else (1 if p >= -m else -1)
    return sigma * _sign(v)


class TestSignSqrt:
    def test_examples(self):
        assert _sign_sqrt(-5, -1, 0) < 0
        assert _sign_sqrt(3, -2, 2) > 0  # 3 > 2*sqrt(2) since 9 > 8
        assert _sign_sqrt(2, -1, 4) == 0
        assert _sign_sqrt(2, -2, 2) < 0
        assert _sign_sqrt(-2, 1, 4) == 0
        assert _sign_sqrt(0, -3, 5) < 0 and _sign_sqrt(0, 0, 5) == 0

    @given(p=st.integers(-10**4, 10**4), q=st.integers(-10**4, 10**4), s=st.integers(0, 10**4))
    @settings(max_examples=300, deadline=None)
    def test_matches_float(self, p, q, s):
        val = p + q * math.sqrt(s)
        exact = _sign_sqrt(p, q, s)
        if abs(val) > 1e-9:
            assert exact == (1 if val > 0 else -1)
        # x and x^2 = (p^2 + q^2 s) + 2pq*sqrt(s) vanish together
        assert (exact == 0) == (_sign_sqrt(p * p + q * q * s, 2 * p * q, s) == 0)

    def test_matches_integer_reference(self, rng):
        # exact zeros p = -q*r at s = r^2, their neighbours p -+ 1, and
        # inputs around 10^30, where floats cannot tell the sign
        cases = []
        for scale in (10, 10**6, 10**15):
            for _ in range(300):
                q, r = rng.randint(-scale, scale), rng.randint(0, scale)
                cases += [(-q * r + k, q, r * r) for k in (-1, 0, 1)]
                s = rng.randint(0, scale * scale)
                m = math.isqrt(q * q * s)
                cases += [(k * m + j, q, s) for k in (1, -1) for j in (-1, 0, 1)]
        zeros = 0
        for p, q, s in cases:
            expected = reference_sign_sqrt(p, q, s)
            assert _sign_sqrt(p, q, s) == expected, (p, q, s)
            zeros += expected == 0
        assert zeros >= 900


def assert_zero_diagonal(q, expected):
    """A zero-diagonal verdict: an INDEFINITE witness is (t, 1) with q < 0,
    a PSD_NOT_PD witness is a nonzero root of q."""
    v = classify(q)
    assert (v.kind, v.rule) == (expected, "zero-diagonal"), (q, v)
    if v.kind is Kind.INDEFINITE:
        assert v.witness[1] == 1 and q.value(v.witness) < 0, (q, v)
    else:
        assert any(v.witness) and q.value(v.witness) == 0, (q, v)
    return v


class TestPrefilter:
    def test_pass_residual_psd(self):
        v = assert_zero_diagonal(bq(0, 0, 1, 0, 1), Kind.PSD_NOT_PD)
        assert v.witness == (1, 0)

    def test_zero_diag_with_cubic_term(self):
        assert_zero_diagonal(bq(0, 1, 1, 0, 1), Kind.INDEFINITE)

    def test_both_diags_zero_with_odd_term(self):
        assert_zero_diagonal(bq(0, 0, 1, 1, 0), Kind.INDEFINITE)

    def test_classify_agrees_with_prefilter(self):
        assert classify(bq(0, 1, 1, 0, 1)).kind is Kind.INDEFINITE
        assert classify(bq(0, 0, 1, 1, 0)).kind is Kind.INDEFINITE
        assert classify(bq(0, 0, 1, 0, 1)).kind is Kind.PSD_NOT_PD

    def test_zero_diag_degenerate_witnesses(self, rng):
        # random degenerate instances: any indefinite witness must verify
        for _ in range(300):
            q = BinaryQuartic(
                Fraction(0),
                rand_fraction(rng),
                rand_fraction(rng),
                rand_fraction(rng),
                abs(rand_fraction(rng)),
            )
            v = classify(q)
            if v.kind is Kind.INDEFINITE:
                assert q.value(v.witness) < 0
            else:
                assert v.kind is Kind.PSD_NOT_PD
                assert q.value((1, 0)) == 0


def closed_form_kind(q):
    """The kind of a unit-diagonal form (1, a1, 1, a3, 1) with |a1|, |a3| <= 1,
    where the criterion collapses to comparing 27 (a3 - a1)^4 against
    64 (1 - a1 a3)^3."""
    lhs, rhs = 27 * (q.a3 - q.a1) ** 4, 64 * (1 - q.a1 * q.a3) ** 3
    if lhs < rhs:
        return Kind.POSITIVE_DEFINITE
    return Kind.PSD_NOT_PD if lhs == rhs else Kind.INDEFINITE


class TestFastPath:
    # unit-diagonal forms, where a closed form decides
    def test_zero_cubics(self):
        assert classify(bq(1, 0, 1, 0, 1)).kind is Kind.POSITIVE_DEFINITE

    def test_opposite_cubics_pd(self):
        v = classify(bq(1, -1, 1, 1, 1))
        assert v.kind is Kind.POSITIVE_DEFINITE
        assert 27 * (1 - (-1)) ** 4 == 432 < 512 == 64 * (1 - (-1) * 1) ** 3

    def test_equal_cubics_psd_only(self):
        v = classify(bq(1, 1, 1, 1, 1))
        assert v.kind is Kind.PSD_NOT_PD

    def test_negative_middle_not_psd(self):
        v = classify(bq(1, 1, -1, 1, 1))
        assert v.kind is Kind.INDEFINITE

    def test_consistency_with_general_path(self, rng):
        for _ in range(1000):
            a1 = rand_fraction(rng, -1, 1)
            a3 = rand_fraction(rng, -1, 1)
            q = bq(1, a1, 1, a3, 1)
            assert closed_form_kind(q) is classify(q).kind


class TestProperties:
    def _random_quartic(self, rng):
        return BinaryQuartic(*(rand_fraction(rng) for _ in range(5)))

    def test_pd_implies_psd(self, rng):
        # and more: a PD form is positive at every nonzero sample point
        for _ in range(2000):
            q = self._random_quartic(rng)
            if classify(q).kind is Kind.POSITIVE_DEFINITE:
                assert q.value((1, 0)) > 0
                assert all(q.value((Fraction(num, 2), 1)) > 0 for num in range(-6, 7))

    def test_scaling_invariance(self, rng):
        for _ in range(500):
            q = self._random_quartic(rng)
            c = abs(rand_fraction(rng, max_den=5)) + Fraction(1, 7)
            assert classify(q).kind is classify(q.scaled(c)).kind

    def test_difference_bound_implies_case_i_lower_end(self, rng):
        # the bound's radicand is 2*a0*s*(3*a2 + sqrt(s)), so wherever it
        # holds 3*a2 >= -sqrt(s), which _criterion's case (i) relies on
        cases = [_cleared((9, 1, -3, 1, 9))]  # radicand 0: 3*a2 = -sqrt(s)
        for _ in range(5000):
            a0, a4 = (abs(rand_fraction(rng)) + Fraction(1, 8) for _ in range(2))
            q = (a0, *(rand_fraction(rng, -3, 3) for _ in range(3)), a4)
            cases.append(_cleared(q))
        held = 0
        for q in cases:
            s = q[0] * q[4]
            if _radical_bound(q, s, 1):
                held += 1
                assert _sign_sqrt(3 * q[2], 1, s) >= 0
        assert held > 500

    def test_swap_symmetry(self, rng):
        for _ in range(1000):
            q = self._random_quartic(rng)
            assert classify(q).kind is classify(q.swapped()).kind

    def test_verdict_matches_exact_sampling(self, rng):
        # a PSD verdict must never contradict an exact negative sample value
        for _ in range(500):
            q = self._random_quartic(rng)
            if classify(q).kind in (Kind.POSITIVE_DEFINITE, Kind.PSD_NOT_PD):
                for num in range(-12, 13):
                    assert q.value((Fraction(num, 4), 1)) >= 0
                    assert q.value((1, Fraction(num, 4))) >= 0


# -- exact witnesses on boundary families ---------------------------------
#
# The reference below decides a binary quartic from the real roots of
# p(t) = q(t, 1) alone, independently of the radical criterion: with a0 >= 0,
# q is PSD iff p >= 0 on the line, i.e. p has a positive leading coefficient
# and no real root of odd multiplicity, and PD iff moreover a0 > 0 and p has
# no real root.  Roots are counted with Sturm's theorem over Fraction; a root
# of multiplicity >= k is a root of gcd(p, p', ..., p^(k-1)).


def _trim(p):
    while p and p[0] == 0:
        p = p[1:]
    return p


def _deriv(p):
    n = len(p) - 1
    return _trim([c * (n - i) for i, c in enumerate(p[:-1])])


def _rem(f, g):
    while len(f) >= len(g):
        c = f[0] / g[0]
        f = _trim([a - c * b for a, b in zip(f, g + [0] * (len(f) - len(g)))][1:])
    return f


def _gcd(f, g):
    while g:
        f, g = g, _rem(f, g)
    return [c / f[0] for c in f]


def _distinct_real_roots(p):
    chain = [p, _deriv(p)]
    while chain[-1]:
        chain.append([-c for c in _rem(chain[-2], chain[-1])])
    chain = [f for f in chain if f]

    def changes(signs):
        signs = [s for s in signs if s]
        return sum(1 for a, b in zip(signs, signs[1:]) if a != b)

    at_plus = [1 if f[0] > 0 else -1 for f in chain]
    at_minus = [s * (-1) ** (len(f) - 1) for s, f in zip(at_plus, chain)]
    return changes(at_minus) - changes(at_plus)


def reference_kind(q: BinaryQuartic) -> Kind:
    if q.a0 < 0:
        return Kind.INDEFINITE
    p = _trim([q.a0, 4 * q.a1, 6 * q.a2, 4 * q.a3, q.a4])
    if not p:
        return Kind.PSD_NOT_PD
    counts, g = [], p  # counts[k]: distinct real roots of multiplicity > k
    while len(g) > 1:
        counts.append(_distinct_real_roots(g))
        g = _gcd(g, _deriv(g))
    counts += [0] * (5 - len(counts))
    odd = sum(counts[k] - counts[k + 1] for k in (0, 2))
    if p[0] < 0 or odd:
        return Kind.INDEFINITE
    return Kind.POSITIVE_DEFINITE if q.a0 > 0 and counts[0] == 0 else Kind.PSD_NOT_PD


def form(*factors):
    """The binary quartic that is the product of binary forms given by
    their coefficient lists [c_x^k, ..., c_y^k]."""
    prod = [Fraction(1)]
    for f in factors:
        out = [Fraction(0)] * (len(prod) + len(f) - 1)
        for i, a in enumerate(prod):
            for j, b in enumerate(f):
                out[i + j] += a * Fraction(b)
        prod = out
    assert len(prod) == 5
    c0, c1, c2, c3, c4 = prod
    return BinaryQuartic(c0, c1 / 4, c2 / 6, c3 / 4, c4)


def lin(r):
    """x - r*y"""
    return [1, -Fraction(r)]


def pd_quad(alpha, beta, gamma):
    """alpha*(x + beta*y)^2 + gamma*y^2"""
    alpha, beta, gamma = (Fraction(v) for v in (alpha, beta, gamma))
    return [alpha, 2 * alpha * beta, alpha * beta * beta + gamma]


def minus_delta(q, delta):
    delta = Fraction(delta)
    return BinaryQuartic(q.a0 - delta, q.a1, q.a2, q.a3, q.a4 - delta)


def assert_exact(q, expected=None):
    """classify agrees with the root-count reference (and with ``expected``),
    and an indefinite verdict carries an exactly negative witness."""
    v = classify(q)
    assert v.kind is reference_kind(q), (q, v)
    if expected is not None:
        assert v.kind is expected, (q, v)
    if v.kind is Kind.INDEFINITE:
        assert v.witness is not None, (q, v)
        assert q.value(v.witness) < 0, (q, v)
    return v


ROOTS = [Fraction(r) for r in (0, 1, -1, "1/2", "-3/4", "5/7", "-9/5", "1/1024", 3)]
PD_QUADS = [(1, 0, 1), ("1/3", "-2", "1/5"), (2, "3/7", "1/100"), ("1/4", 1, 4)]
SCALES = [1, "7/3", Fraction(10) ** 12, Fraction(10) ** -12]


class TestExactWitness:
    def test_dyadic_roots(self):
        # every root is dyadic, so the midpoint of the root bound hits one
        q = bq("9/20", "9/80", "-7/45", "1/5", "26/15")
        assert_exact(q, Kind.INDEFINITE)

    def test_irrational_double_root_perturbed(self):
        # (t^2 - 2)^2 - 10^-40: negative only within 1e-20 of sqrt(2)
        q = bq(1, 0, "-2/3", 0, 4 - Fraction(1, 10**40))
        assert_exact(q, Kind.INDEFINITE)
        assert_exact(bq(1, 0, "-2/3", 0, 4), Kind.PSD_NOT_PD)

    def test_tiny_odd_term(self):
        # negative only for t below about -1.5e30
        q = bq(0, Fraction(1, 10**30), 1, 0, 1)
        assert_exact(q, Kind.INDEFINITE)
        assert_exact(q.swapped(), Kind.INDEFINITE)

    @pytest.mark.parametrize("scale", SCALES)
    def test_perfect_squares_and_double_roots(self, scale):
        for r in ROOTS:
            for s in ROOTS:
                q = form([scale], lin(r), lin(r), lin(s), lin(s))
                assert_exact(q, Kind.PSD_NOT_PD)
                assert_exact(q.swapped(), Kind.PSD_NOT_PD)
            # a double root with a sign change elsewhere
            assert_exact(form([scale], lin(r), lin(r), lin(r + Fraction(1, 3)), lin(-2)), Kind.INDEFINITE)
            for quad in PD_QUADS:
                assert_exact(form([scale], lin(r), lin(r), pd_quad(*quad)), Kind.PSD_NOT_PD)
                # the double root pushed below zero
                q = form([scale], lin(r), lin(r), pd_quad(*quad))
                for delta in (Fraction(1, 10**4), Fraction(1, 10**16)):
                    assert_exact(minus_delta(q, delta * Fraction(scale)), Kind.INDEFINITE)

    @pytest.mark.parametrize("scale", SCALES)
    def test_products_of_pd_quadratics(self, scale):
        for f in PD_QUADS:
            for g in PD_QUADS:
                q = form([scale], pd_quad(*f), pd_quad(*g))
                assert_exact(q, Kind.POSITIVE_DEFINITE)

    @pytest.mark.parametrize("scale", SCALES)
    def test_simple_real_roots(self, scale):
        for r in ROOTS:
            for s in ROOTS:
                if r != s:
                    q = form([scale], lin(r), lin(s), pd_quad(1, 0, 1))
                    assert_exact(q, Kind.INDEFINITE)
                    assert_exact(q.swapped(), Kind.INDEFINITE)

    def test_all_zero_diagonal_shapes(self):
        vals = [-1, 0, "1/3", 1, 2]
        for a1 in vals:
            for a2 in vals:
                for a3 in vals:
                    for a4 in (0, "1/2", 1):
                        q = bq(0, a1, a2, a3, a4)
                        assert_exact(q)
                        assert_exact(q.swapped())

    def test_fast_path_witnesses(self):
        for a1 in (-1, "-1/2", 0, "1/3", 1):
            for a3 in (-1, "-2/3", 0, "1/2", 1):
                q = bq(1, a1, 1, a3, 1)
                v = classify(q)
                assert v.kind is reference_kind(q)
                if v.kind is Kind.INDEFINITE:
                    assert q.value(v.witness) < 0
        for a1 in (-1, 1):
            for a3 in (-1, 1):
                q = bq(1, a1, -1, a3, 1)
                v = classify(q)
                assert v.kind is Kind.INDEFINITE
                assert q.value(v.witness) < 0

    def test_negative_point_none_when_nonnegative(self):
        F = Fraction
        assert _negative_point([F(1), F(0), F(-4), F(0), F(4)]) is None  # (t^2 - 2)^2
        assert _negative_point([F(1), F(0), F(0), F(0), F(1)]) is None
        assert _negative_point([F(0)] * 5) is None
        assert _negative_point([F(0), F(0), F(0), F(0), F(-1)]) == 0


_coeff = st.fractions(min_value=-3, max_value=3, max_denominator=12)


@settings(max_examples=300, deadline=None)
@given(st.lists(_coeff, min_size=5, max_size=5))
def test_random_rational_quartics_have_exact_witnesses(coeffs):
    assert_exact(BinaryQuartic(*coeffs))


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from(["a0", "a4", "both"]),
    st.one_of(st.just(Fraction(0)), _coeff),
    _coeff,
    st.one_of(st.just(Fraction(0)), _coeff),
    st.fractions(min_value=0, max_value=3, max_denominator=12),
)
def test_zero_diagonals_match_reference(zero, a1, a2, a3, diag):
    a0, a4 = {"a0": (0, diag), "a4": (diag, 0), "both": (0, 0)}[zero]
    q = BinaryQuartic(Fraction(a0), a1, a2, a3, Fraction(a4))
    assert_zero_diagonal(q, reference_kind(q))
