import ast
import itertools
import json
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import quartpd
from quartpd import bernstein, cyclic, pipeline
from quartpd.cyclic import embed
from quartpd.inequalities import builtin_catalog
from quartpd.tensor import SymmetricTensor4, diag_ones
from quartpd.verdict import Kind, Verdict

from conftest import (
    CROSS_IDS, CROSS_POINTS, DEEP_NEEDLE, SRC_ENV, ZERO_CORNERS, cross_form, rand_tensor, sos_needles, steep_valley,
)

STRICT = [q for q in builtin_catalog() if q.strict and not q.expected_fail]
FAILING = [q for q in builtin_catalog() if q.expected_fail]


def _box_corners(k, i, j, depth):
    """The four corners of box (i, j, depth) of face k, in coefficient order."""
    return [bernstein._corner(k, i, j, depth, n) for n in bernstein._CORNERS]


def test_face_corners_are_the_form_times_144_e(rng):
    # the corner coefficients are 144 E f at the face's corners
    for _ in range(20):
        T = rand_tensor(rng, 3)
        E, form = T.integer_form()
        for k, coeffs in enumerate(bernstein._faces(form)):
            for n, x in zip(bernstein._CORNERS, _box_corners(k, 0, 0, 0)):
                assert coeffs[n] == 144 * E * T.evaluate_form(x)


def test_face_rows_match_the_per_monomial_sum():
    # _faces gives the sum of one _BASIS vector per monomial, the face's
    # definition, on forms with coefficients of up to 300 digits, on c x1^4
    # whose lanes 144c reach 2^63 from below (packed product, both signs)
    # and pass it (row table), and on the zero form
    rng = random.Random(31)
    below, above = (2**63 - 1) // 144, 2**63 // 144 + 1
    forms = [{(1, 1, 1, 1): c} for c in (below, -below, above, -above)] + [{}]
    for _ in range(200):
        digits = rng.choice((1, 30, 300))
        forms.append({
            idx: rng.randint(-(10**digits), 10**digits)
            for idx in itertools.combinations_with_replacement((1, 2, 3), 4)
            if rng.random() < 0.8
        })
    for form in forms:
        faces = [[0] * 25 for _ in range(3)]
        for idx, c in form.items():
            e1, e2, e3 = idx.count(1), idx.count(2), idx.count(3)
            for k, degrees in enumerate(((e2, e3), (e1, e3), (e1, e2))):
                faces[k] = [x + c * y for x, y in zip(faces[k], bernstein._BASIS[degrees])]
        assert bernstein._faces(form) == faces


def test_halves_keep_the_corners_exact(rng):
    # after d splits, each corner coefficient is 16^d 144 E f at the corner
    T = rand_tensor(rng, 3)
    E, form = T.integer_form()
    for k, coeffs in enumerate(bernstein._faces(form)):
        i = j = 0
        for depth in range(7):
            lo, hi = bernstein._halves(coeffs, depth & 1)
            upper = rng.random() < 0.5
            coeffs = hi if upper else lo
            if depth & 1:
                j = 2 * j + upper
            else:
                i = 2 * i + upper
            scale = 16 ** (depth + 1) * 144 * E
            for n, x in zip(bernstein._CORNERS, _box_corners(k, i, j, depth + 1)):
                assert coeffs[n] == scale * T.evaluate_form(x)


@pytest.mark.parametrize("q", STRICT, ids=lambda q: q.label)
def test_strict_catalog_entries_are_exact_pd(q):
    # through classify (the family rules or the Bernstein stage), and by the
    # Bernstein stage alone
    decision = quartpd.classify(q.to_tensor())
    assert decision.stage in ("family", "exact-positivity")
    assert decision.verdict.kind is Kind.POSITIVE_DEFINITE
    assert bernstein.classify(q.to_tensor()) == Verdict(Kind.POSITIVE_DEFINITE, "bernstein-positive")


@pytest.mark.parametrize("q", FAILING, ids=lambda q: q.label)
def test_expected_failures_are_exact_indefinite(q):
    # refuted at a dyadic corner in a few dozen boxes: the half with the
    # smaller least coefficient is searched first
    T = q.to_tensor()
    decision = quartpd.classify(T)
    assert (decision.stage, decision.verdict.kind) == ("exact-positivity", Kind.INDEFINITE)
    assert decision.verdict.rule == "bernstein-corner"
    assert T.evaluate_form(decision.verdict.witness) < 0
    assert q.value(decision.verdict.witness) < 0
    assert bernstein.search(T)[1] <= 64


@pytest.mark.parametrize("K", [10**14, 10**15, 10**16], ids=["1e14", "1e15", "1e16"])
@pytest.mark.parametrize("p", CROSS_POINTS, ids=CROSS_IDS)
def test_steep_valleys_are_decided_exactly(p, K):
    skew = steep_valley(p, K)
    verdict = bernstein.classify(skew)
    assert (verdict.kind, verdict.rule) == (Kind.INDEFINITE, "bernstein-corner")
    assert skew.evaluate_form(verdict.witness) < 0
    if K > 10**14:
        assert bernstein.classify(cross_form(p, K, 1, skew=False)).kind is Kind.POSITIVE_DEFINITE


@pytest.mark.parametrize("c", [Fraction(10**400), Fraction(1, 10**400), Fraction(1, 3)], ids=["1e400", "1e-400", "1/3"])
def test_verdict_is_invariant_under_positive_scaling(rng, c):
    # every sign, and so every verdict, box count and witness, is the same
    tensors = [q.to_tensor() for q in builtin_catalog()[1:]]
    tensors += [rand_tensor(rng, 3) for _ in range(5)]
    tensors += [steep_valley((1, 4, 9), 10**14), SymmetricTensor4(3, ZERO_CORNERS)]
    for T in tensors:
        assert bernstein.search(T.scale(c)) == bernstein.search(T)


def test_budget_ends_undetermined():
    # x1^2 x2^2 vanishes on two planes: zero corners without end, and no
    # stage after the Bernstein stage
    T = SymmetricTensor4(3, {(1, 1, 2, 2): Fraction(1, 6)})
    assert bernstein.search(T) == (Verdict(Kind.UNDETERMINED, "bernstein-budget"), bernstein.BUDGET)
    decision = quartpd.classify(T)
    assert decision.trace[-1] == ("exact-positivity", Verdict(Kind.UNDETERMINED, "bernstein-budget"))
    assert (decision.stage, decision.verdict) == (None, Verdict(Kind.UNDETERMINED, "no-decisive-stage"))


def test_depth_cap_tries_the_simplest_point():
    # a needle of width about 1e-50 around (2, 3, 5), which no dyadic corner
    # within 200 splits reaches: the box at the cap holds (2/5, 3/5, 1), its
    # simplest rational point
    verdict, boxes = bernstein.search(DEEP_NEEDLE)
    assert verdict == Verdict(Kind.INDEFINITE, "bernstein-simplest", witness=(Fraction(2, 5), Fraction(3, 5), 1))
    assert DEEP_NEEDLE.evaluate_form(verdict.witness) < 0
    assert boxes == bernstein.MAX_DEPTH + 1
    decision = quartpd.classify(DEEP_NEEDLE)
    assert (decision.stage, decision.verdict) == ("exact-positivity", verdict)


# p in 1..9: steep_valley(p, K) has a negative needle of width about K^(-1/2)
# around p; where no dyadic corner lies in it, the simplest point of the box
# at the depth cap does
_STEEP_PAST_THE_CAP = {
    (8, 4, 4): "bernstein-corner", (8, 1, 3): "bernstein-corner", (8, 7, 9): "bernstein-simplest",
    (7, 7, 5): "bernstein-simplest", (5, 2, 5): "bernstein-simplest", (4, 4, 8): "bernstein-corner",
    (1, 6, 8): "bernstein-corner", (3, 4, 7): "bernstein-simplest", (1, 8, 3): "bernstein-corner",
    (2, 2, 4): "bernstein-corner", (8, 6, 5): "bernstein-corner", (3, 6, 4): "bernstein-simplest",
    (2, 3, 5): "bernstein-simplest",  # DEEP_NEEDLE at K = 1e100
}


@pytest.mark.parametrize("K", [10**100, 10**1000], ids=["1e100", "1e1000"])
def test_steep_valleys_past_the_depth_cap_are_refuted(K):
    # 12 points from a fixed seed and (2, 3, 5): every form ends exact
    # INDEFINITE at the Bernstein stage, its witness checked again here
    rng = random.Random("steep-valley-1e100")
    points = [tuple(rng.randint(1, 9) for _ in range(3)) for _ in range(12)]
    assert points + [(2, 3, 5)] == list(_STEEP_PAST_THE_CAP)
    for p, rule in _STEEP_PAST_THE_CAP.items():
        T = steep_valley(p, K)
        decision = quartpd.classify(T)
        v = decision.verdict
        assert (decision.stage, v.kind, v.rule) == ("exact-positivity", Kind.INDEFINITE, rule), p
        assert T.evaluate_form(v.witness) < 0, p
        if rule == "bernstein-simplest":  # p itself, on the face of its largest coordinate
            assert v.witness == tuple(Fraction(c, max(p)) for c in p), p


def test_a_needle_at_a_point_of_large_height_ends_at_the_depth_cap():
    # no box at the cap has (10^40 + 1, 3, 5) / (10^40 + 1) as its simplest
    # point: every such box is set aside, and the search ends within budget
    verdict, boxes = bernstein.search(steep_valley((10**40 + 1, 3, 5), 10**100))
    assert verdict == Verdict(Kind.UNDETERMINED, "bernstein-depth")
    assert boxes < bernstein.BUDGET


def test_sos_needles_are_refuted():
    # q1^2 + q2^2 + q3^2 - 10^-60 sum x_i^4 with the q_k vanishing at an
    # integer point u: a needle of width about 1e-30 around u, refuted at a
    # dyadic corner or at u's simplest point, each witness checked again
    rules = []
    for T, u in sos_needles(random.Random("sos-needles"), 40):
        decision = quartpd.classify(T)
        v = decision.verdict
        assert (decision.stage, v.kind) == ("exact-positivity", Kind.INDEFINITE), u
        assert T.evaluate_form(v.witness) < 0, u
        rules.append(v.rule)
    assert (rules.count("bernstein-corner"), rules.count("bernstein-simplest")) == (24, 16)


@pytest.mark.parametrize(
    "T",
    [
        SymmetricTensor4(3, ZERO_CORNERS),
        SymmetricTensor4(3, {(1, 1, 1, 1): 1, (2, 2, 2, 2): 1, (1, 1, 2, 2): Fraction(1, 3)}),
    ],
    ids=["x1^2x2^2+x3^4", "(x1^2+x2^2)^2"],
)
def test_exact_zero_ends_undetermined(T):
    # a zero at a dyadic corner proves "not PD" and nothing more
    assert bernstein.classify(T) == Verdict(Kind.UNDETERMINED, "bernstein-zero")


def test_a_corner_that_is_not_negative_is_never_returned(monkeypatch):
    # the stage checks its witness with evaluate_form before returning it
    T = embed(1, -1, 1, 1, 0)
    monkeypatch.setattr(SymmetricTensor4, "evaluate_form", lambda self, x: Fraction(0))
    with pytest.raises(ArithmeticError, match="not a witness"):
        bernstein.classify(T)


def test_dim_3_only():
    with pytest.raises(ValueError, match="dim 3"):
        bernstein.classify(diag_ones(2))


@pytest.mark.parametrize("scale", [1, Fraction(7, 2), Fraction(1, 10**6)])
@pytest.mark.parametrize("b, c", [(1, -1), (-1, 1)])
def test_alternating_boundary_is_never_pd(b, c, scale):
    # the -7/12 boundary with alternating signs is PSD with the exact zero
    # (1, 1, 1), a corner of every face
    T = embed(1, b, c, 1, Fraction(-7, 12)).scale(scale)
    assert bernstein.classify(T) == Verdict(Kind.UNDETERMINED, "bernstein-zero")
    assert T.evaluate_form((1, 1, 1)) == 0


def _family_draws(rng):
    """The orbit values of cyclic and relaxed tensors from the paper's bands
    and around them."""
    lo, hi = Fraction(-7, 12), Fraction(-5, 36)

    def near(a, b):
        return a + (b - a) * Fraction(rng.randint(-200, 1200), 1000)

    for _ in range(150):
        b = rng.choice((1, -1))
        c = -b if rng.random() < 0.8 else b
        d = rng.choice((Fraction(1), Fraction(1), 1 + Fraction(rng.randint(1, 64), 32)))
        yield (1, b, c, d, lo if rng.random() < 0.1 else near(lo, hi))
    for _ in range(150):
        b = rng.choice((1, -1))
        band = rng.choice(((lo, Fraction(-1, 4)), (Fraction(-1, 4), Fraction(-1, 6)), (Fraction(-5, 18), Fraction(-1, 6)), (lo, hi)))
        yield (1, b, -b, 1, *(near(*band) for _ in range(3)))


def _compare_with_family(draws):
    """The family stage's and the Bernstein stage's verdicts on ``draws``,
    each the orbit values of a cyclic or relaxed tensor:
    wherever both decide, the kinds agree, and a PSD-not-PD family verdict
    is never decided by the stage.  Returns the number decided by both, the
    number of boundary (PSD-not-PD) verdicts and the family rules that
    decided."""
    both = boundary = 0
    rules = set()
    for ct in draws:
        T = embed(*ct)
        family = cyclic.classify(T)
        if family.kind is Kind.UNDETERMINED:
            continue
        rules.add(family.rule)
        exact = bernstein.classify(T)
        if family.kind is Kind.PSD_NOT_PD:
            assert exact == Verdict(Kind.UNDETERMINED, "bernstein-zero"), ct
            boundary += 1
        elif exact.kind is not Kind.UNDETERMINED:
            assert exact.kind is family.kind, ct
            both += 1
    return both, boundary, rules


def test_bernstein_agrees_with_the_family_rules():
    both, boundary, _ = _compare_with_family(_family_draws(random.Random("bernstein-family")))
    assert both >= 150 and boundary >= 5


# -- the family rules as theorems -------------------------------------------
#
# Each family rule's tensor is affine in its e-parameters: e for the cyclic
# rule, (e123, e223, e233) for the relaxed ones.  A point of a parameter box
# is a convex combination of the box's corners, so its tensor is the same
# combination of the corner tensors, and PD forms make a convex cone: a PSD
# form plus a positive multiple of a PD one is PD.  So a rule holds on a box
# when every corner it may reach is PD, or PSD with every point of the rule's
# region putting positive weight on a PD corner.
# - pd-upper-band-widened, on [-5/18, -1/6]^3, which holds pd-upper-band's
#   [-1/4, -1/6]^3: all 8 corners PD.
# - pd-lower-band, on (-7/12, -1/4]^3: the 7 corners other than (-7/12)^3 PD.
#   (-7/12)^3 is the alternating boundary, PSD with the zero (1, 1, 1) by the
#   boundary-alternating-signs rule (test_alternating_boundary_is_never_pd
#   checks that zero), and every point of the half-open box puts weight on
#   another corner.
# - pd-interval and pd-interval-extended (d = 1, b*c = -1), on (-7/12, -5/36]:
#   e = -5/36 PD and e = -7/12 that same PSD boundary.  With d > 1,
#   pd-interval-lifted-offdiag follows as the cyclic ladder's comment says.

_LO = Fraction(-7, 12)
_BAND_CORNERS = {
    "upper-widened": list(itertools.product((Fraction(-5, 18), Fraction(-1, 6)), repeat=3)),
    "lower": [es for es in itertools.product((_LO, Fraction(-1, 4)), repeat=3) if es != (_LO,) * 3],
}
_PD = Verdict(Kind.POSITIVE_DEFINITE, "bernstein-positive")


@pytest.mark.parametrize("band", list(_BAND_CORNERS))
@pytest.mark.parametrize("b", [1, -1])
def test_relaxed_band_corners_are_pd(b, band):
    for es in _BAND_CORNERS[band]:
        T = embed(1, b, -b, 1, *es)
        assert bernstein.classify(T) == _PD, es
        # the corners inside the rule's own region; a corner with three
        # equal e's reaches the cyclic ladder, as it does under check
        if _LO not in es:
            assert cyclic.classify(T).kind is Kind.POSITIVE_DEFINITE, es


@pytest.mark.parametrize("b", [1, -1])
def test_the_cyclic_interval_end_is_pd(b):
    T = embed(1, b, -b, 1, Fraction(-5, 36))
    assert cyclic.classify(T) == Verdict(Kind.POSITIVE_DEFINITE, "pd-interval-extended")
    assert bernstein.classify(T) == _PD


def _family_sweep(rng, n):
    """The orbit values of n tensors, cyclic and relaxed in turn, across the rules' hypotheses:
    b = +-1, c = -b three times in four, d = 1 three times in four (cyclic),
    and e-values on a 1/72 grid in [-2/3, -1/36] or at a rule's endpoint; a
    relaxed draw takes its three e-values from one band."""
    ends = [_LO, Fraction(-5, 18), Fraction(-1, 4), Fraction(-1, 6), Fraction(-5, 36)]
    bands = [(-48, -18), (-18, -12), (-20, -12), (-48, -2)]  # in 72nds

    def e(lo=-48, hi=-2):
        return rng.choice(ends) if rng.random() < 0.2 else Fraction(rng.randint(lo, hi), 72)

    for k in range(n):
        b = rng.choice((1, -1))
        if k % 2:
            c = -b if rng.random() < 0.75 else b
            d = 1 if rng.random() < 0.75 else 1 + Fraction(rng.randint(1, 16), 8)
            yield (1, b, c, d, e())
        else:
            band = rng.choice(bands)
            yield (1, b, -b, 1, *(e(*band) for _ in range(3)))


def test_family_rules_and_bernstein_agree_on_a_fixed_seed():
    # a sweep that also lands on the rules' endpoints; 245 of the 400 draws
    # are decided by a family rule, 236 of them by the Bernstein stage too
    both, boundary, rules = _compare_with_family(_family_sweep(random.Random(34), 400))
    assert len(rules) == 9  # every decisive rule of both classifiers
    assert both >= 230 and boundary >= 5


def test_dim_3_check_never_loads_numpy_and_dim_2_never_loads_bernstein(tmp_path):
    # no stage of check samples the sphere, so numpy never loads, not even
    # where the Bernstein stage ends undetermined (x1^2 x2^2 at its budget,
    # (x1^2 + x2^2)^2 at an exact zero) or refutes at its depth cap
    # (DEEP_NEEDLE); a dim-2 check never compiles the Bernstein stage
    forms = [
        {(1, 1, 1, 1): 1, (2, 2, 2, 2): 1, (3, 3, 3, 3): 1},
        {(1, 1, 2, 2): Fraction(1, 6)},
        {(1, 1, 1, 1): 1, (2, 2, 2, 2): 1, (1, 1, 2, 2): Fraction(1, 3)},
        DEEP_NEEDLE.entries(),
    ]
    paths = []
    for n, entries in enumerate(forms):
        path = tmp_path / f"t{n}.json"
        path.write_text(json.dumps({"dim": 3, "entries": [{"index": list(i), "value": str(v)} for i, v in entries.items()]}))
        paths.append(str(path))
    code = (
        "import contextlib, io, sys\n"
        "from quartpd.cli import main\n"
        "def check(*args):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        try:\n"
        "            main(['check', *args, '--json'])\n"
        "        except SystemExit as exc:\n"
        "            return exc.code\n"
        "print('bernstein' in sys.modules.get('quartpd').__dict__, 'quartpd.bernstein' in sys.modules)\n"
        "print(check('binary', '1', '0', '1', '0', '1'), 'quartpd.bernstein' in sys.modules)\n"
        "print(check('cyclic', '1', '-1', '1', '1', '0'), *(check(path) for path in sys.argv[1:]))\n"
        "print('quartpd.bernstein' in sys.modules, 'numpy' in sys.modules)\n"
    )
    out = subprocess.run([sys.executable, "-c", code, *paths], capture_output=True, text=True, env=SRC_ENV, check=True)
    assert out.stdout.split("\n") == ["False False", "0 False", "2 0 3 3 2", "True False", ""]


def test_the_pipeline_imports_nothing_from_the_oracle():
    tree = ast.parse(Path(pipeline.__file__).read_text())
    modules = {n.module for n in ast.walk(tree) if isinstance(n, ast.ImportFrom)}
    modules |= {a.name for n in ast.walk(tree) if isinstance(n, ast.ImportFrom) and n.level for a in n.names}
    modules |= {a.name for n in ast.walk(tree) if isinstance(n, ast.Import) for a in n.names}
    assert not {m for m in modules if m and "oracle" in m}
