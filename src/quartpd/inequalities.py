"""Verification harness for a catalog of ternary quartic inequalities.

Each catalog entry is the polynomial

    P(x) = (x1+x2+x3)^4 - 8*(x1^3*x2 + x1*x3^3 + x2^3*x3)
           - x1*x2*x3*(w1*x1 + w2*x2 + w3*x3)

with rational weights.  Uniform weight c means w1 = w2 = w3 = c.  The
"exchanged" variant swaps each cubic monomial with its mirror
(x1^3*x2 <-> x1*x2^3 and so on) simultaneously.

Each entry is decided by the pipeline's stages (``pipeline.stages``), as
``check`` decides its tensor: the exact prefilter, then the cyclic family
rules, and where no exact stage decides, ``classify_numeric`` on the
entry's one sphere sample, the oracle's default grid: an exact witness at
its best grid point, or else the verdict of the sphere minimum.  A strict
entry holds when the final verdict is positive definite, a non-strict one
when it is positive definite or semidefinite.  So an entry is exact unless
the oracle decided it: an oracle INDEFINITE rests on an exactly checked
witness, an oracle PD on the float minimum and its margin.  Each report
names the deciding stage and its verdict.  The sphere minimum is reported
for every entry, and the zero set is probed where the final verdict is
semidefinite or undetermined.  An entry with a named counterexample point
is expected to fail: its exact value there is carried in the report, and
the entry is as expected only where it does not hold and that value is
negative.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from .cyclic import RelaxedCyclicTernary, embed
from .oracle import classify_numeric, sphere_minimize, sphere_sample, zero_set_probe
from .pipeline import decide, stages
from .tensor import SymmetricTensor4
from .verdict import Kind, Verdict, as_fraction


@dataclass(frozen=True)
class WeightedInequality:
    label: str
    weights: Tuple[Fraction, Fraction, Fraction]
    strict: bool
    exchanged: bool = False
    fail_point: Optional[Tuple[Fraction, Fraction, Fraction]] = None

    @property
    def expected_fail(self) -> bool:
        """An entry with a named counterexample point is expected to fail."""
        return self.fail_point is not None

    @classmethod
    def uniform(cls, c, strict: bool):
        c = as_fraction(c)
        return cls(f"{c}u", (c, c, c), strict)

    @classmethod
    def triple(cls, w1, w2, w3, **kw):
        """A strict entry with weights (w1, w2, w3)."""
        w = (as_fraction(w1), as_fraction(w2), as_fraction(w3))
        return cls("-".join(str(v) for v in w), w, True, **kw)

    def value(self, x: Sequence) -> Fraction:
        """Exact P(x) for rational x."""
        x1, x2, x3 = (as_fraction(v) for v in x)
        w1, w2, w3 = self.weights
        cubics = (
            x1 * x2**3 + x1**3 * x3 + x2 * x3**3
            if self.exchanged
            else x1**3 * x2 + x1 * x3**3 + x2**3 * x3
        )
        return (
            (x1 + x2 + x3) ** 4
            - 8 * cubics
            - x1 * x2 * x3 * (w1 * x1 + w2 * x2 + w3 * x3)
        )

    def to_tensor(self) -> SymmetricTensor4:
        """Exact symmetrization of P into an order-4 tensor.

        (x1+x2+x3)^4 is the all-ones tensor; each -8 cubic monomial puts
        -8/4 = -2 on its slot; the weight term puts -w_i/12 on its
        x1*x2*x3-type slot.
        """
        w1, w2, w3 = self.weights
        b, c = (1, -1) if self.exchanged else (-1, 1)
        return embed(
            RelaxedCyclicTernary(
                a=Fraction(1),
                b=Fraction(b),
                c=Fraction(c),
                d=Fraction(1),
                e123=1 - w1 / 12,
                e223=1 - w2 / 12,
                e233=1 - w3 / 12,
            )
        )


@dataclass(frozen=True)
class InequalityReport:
    label: str
    sphere_min: float
    min_point: Tuple[float, ...]
    equality_points: List[Tuple[float, ...]]
    holds: bool
    expected_fail: bool
    as_expected: bool
    stage: Optional[str]  # the deciding stage, None when no stage decides
    verdict: Verdict  # the final verdict, the deciding stage's
    exact_counterexample_value: Optional[Fraction] = None  # P at the fail point

    def to_dict(self) -> dict:
        d = {
            "label": self.label,
            "sphere_min": self.sphere_min,
            "min_point": list(self.min_point),
            "equality_points": [list(p) for p in self.equality_points],
            "holds": self.holds,
            "expected_fail": self.expected_fail,
            "as_expected": self.as_expected,
            "stage": self.stage,
            "verdict": self.verdict.to_dict(),
        }
        if self.exact_counterexample_value is not None:
            d["exact_counterexample_value"] = str(self.exact_counterexample_value)
        return d


_FAIL_POINT_A = (Fraction(-6, 5), Fraction(5), Fraction(1))  # (-1.2, 5, 1)
_FAIL_POINT_B = (Fraction(-47, 5), Fraction(-2), Fraction(23, 10))  # (-9.4, -2, 2.3)


_CATALOG: Tuple[WeightedInequality, ...] = (
    WeightedInequality.uniform(19, strict=False),
    WeightedInequality.uniform(14, strict=True),
    WeightedInequality.uniform(15, strict=True),
    WeightedInequality.uniform(16, strict=True),
    WeightedInequality.uniform(17, strict=True),
    WeightedInequality.uniform(18, strict=True),
    WeightedInequality.uniform(Fraction(41, 3), strict=True),
    WeightedInequality.triple(19, 17, 15),
    WeightedInequality.triple(19, 16, 15),
    WeightedInequality.triple(15, 14, 14),
    WeightedInequality.triple(15, 16, 14),
    WeightedInequality.triple(17, 15, 18),
    WeightedInequality.triple(Fraction(46, 3), 14, 14),
    *(
        WeightedInequality.triple(w1, 14, 14, fail_point=_FAIL_POINT_A)
        for w1 in (19, 18, 17, 16)
    ),
    WeightedInequality.triple(Fraction(41, 3), 15, 15, fail_point=_FAIL_POINT_B),
)


def builtin_catalog() -> List[WeightedInequality]:
    """The catalog's entries, built once at import; they are frozen."""
    return list(_CATALOG)


def exact_spot_check(ineq: WeightedInequality, x: Sequence) -> Fraction:
    """Exact value of P(x); guards every float conclusion about a named point."""
    return ineq.value(x)


def verify(ineq: WeightedInequality) -> InequalityReport:
    T = ineq.to_tensor()
    sample = sphere_sample(T)
    res = sphere_minimize(T, sample=sample)
    # the oracle's verdict is built only where the exact stages leave the
    # entry undetermined
    decision = decide(stages(T, lambda: classify_numeric(T, sample=sample, minimum=res)))
    kind = decision.verdict.kind
    # a semidefinite or undecided form may touch zero: look for its zeros
    boundary = kind in (Kind.PSD_NOT_PD, Kind.UNDETERMINED)
    equality_points = zero_set_probe(T, sample=sample) if boundary else []
    if ineq.strict:
        holds = kind is Kind.POSITIVE_DEFINITE
    else:
        holds = kind in (Kind.POSITIVE_DEFINITE, Kind.PSD_NOT_PD)
    exact, as_expected = None, holds
    if ineq.expected_fail:
        # a failure is as expected only where the named point refutes exactly
        exact = exact_spot_check(ineq, ineq.fail_point)
        as_expected = not holds and exact < 0
    return InequalityReport(
        label=ineq.label,
        sphere_min=res.min_value,
        min_point=res.minimizer,
        equality_points=equality_points,
        holds=holds,
        expected_fail=ineq.expected_fail,
        as_expected=as_expected,
        stage=decision.stage,
        verdict=decision.verdict,
        exact_counterexample_value=exact,
    )
