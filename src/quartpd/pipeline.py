"""Classification as a staged pipeline: an exact necessary-condition
prefilter, then family rules for cyclic patterns, then the exact binary
criterion (dim 2) or exact Bernstein subdivision (dim 3, stage
``exact-positivity``).  Every stage is exact: a decisive verdict is either
proved by an exact criterion or carries an exactly checked witness, and no
stage samples the sphere.  ``stages`` is the one place that order is
written; it computes each stage when the one before it has been consumed,
and ``decide`` consumes them up to the first decisive one, whose verdict is
final, and times each stage it runs.  ``classify`` and the inequality
harness both decide that way, and the CLI writes ``classify``'s
``Decision`` as its report.
"""

from __future__ import annotations

import time
from fractions import Fraction
from typing import Dict, Iterable, Iterator, List, NamedTuple, Optional, Tuple

from . import binary as binmod, cyclic
from .tensor import SymmetricTensor4
from .verdict import Kind, Verdict


def _principal_binary(T: SymmetricTensor4, i: int, j: int) -> binmod.BinaryQuartic:
    return binmod.BinaryQuartic(
        T[(i, i, i, i)], T[(i, i, i, j)], T[(i, i, j, j)], T[(i, j, j, j)], T[(j, j, j, j)]
    )


def _unit(dim: int, i: int) -> Tuple[Fraction, ...]:
    return tuple(Fraction(int(k == i)) for k in range(1, dim + 1))


Stage = Tuple[str, Verdict]  # a stage's name and its verdict


def stages(T: SymmetricTensor4) -> Iterator[Stage]:
    """The pipeline's stages on T, in order, each computed when the one
    before it has been consumed, so that ``decide`` runs none past the
    first decisive one.

    The prefilter is an exact principal-subtensor screen: semidefiniteness
    is inherited by principal subtensors, so any indefinite 2-dim
    restriction refutes it.  It decides the zero form (PSD-not-PD, witness
    e1) and dim 1 outright, and reads only the stored entries: once no
    diagonal is negative, a pair (i, j) with none of t_iiij, t_iijj and
    t_ijjj stored restricts to t_iiii*x^4 + t_jjjj*y^4, which cannot
    refute, so only the other pairs are classified, in lexicographic
    order.  For dim 2 the (1,2) binary is the whole form, so the prefilter
    always classifies it and the analytic stage, the exact binary
    criterion, is its verdict, and it always decides.  For dim 3 the
    family stage follows, one classifier (``cyclic.classify``) that reads
    the orbit pattern and runs the cyclic ladder or the relaxed bands, then
    the Bernstein stage ``exact-positivity`` (``quartpd.bernstein``,
    imported there, so no other dim loads it).  Both take T and return a
    ``Verdict``.  No stage decides dim >= 4 past the prefilter.
    """
    stored = T.entries()
    if not stored:  # the zero form vanishes everywhere
        yield "prefilter", Verdict(Kind.PSD_NOT_PD, "zero-form", witness=_unit(T.dim, 1))
        return
    negative = [idx[0] for idx, v in stored.items() if idx[0] == idx[3] and v < 0]
    if negative:
        i = min(negative)
        rule = f"negative-diagonal t{i}{i}{i}{i}"
        yield "prefilter", Verdict(Kind.INDEFINITE, rule, witness=_unit(T.dim, i))
        return
    if T.dim == 1:  # the form is t1111 * x^4, with t1111 > 0
        yield "prefilter", Verdict(Kind.POSITIVE_DEFINITE, "positive-diagonal t1111")
        return
    pairs = {(idx[0], idx[3]) for idx in stored if len(set(idx)) == 2}
    if T.dim == 2:
        pairs.add((1, 2))
    for i, j in sorted(pairs):
        binary = binmod.classify(_principal_binary(T, i, j))
        if binary.kind is Kind.INDEFINITE:
            w = [Fraction(0)] * T.dim
            w[i - 1], w[j - 1] = binary.witness
            rule = f"principal-subtensor({i},{j}):{binary.rule}"
            yield "prefilter", Verdict(Kind.INDEFINITE, rule, witness=tuple(w))
            return
    yield "prefilter", Verdict(Kind.UNDETERMINED, "prefilter-passed")
    if T.dim == 2:  # the loop ran once, on the (1,2) binary
        yield "analytic", binary
    elif T.dim == 3:
        yield "family", cyclic.classify(T)
        from . import bernstein  # dim 3 only: a dim-2 decision never compiles it

        yield "exact-positivity", bernstein.classify(T)


class Decision(NamedTuple):
    trace: List[Stage]  # every stage run, in order; a decisive one ends it
    stage: Optional[str]  # the deciding stage, None when no stage decides
    verdict: Verdict  # its verdict, else undetermined ``no-decisive-stage``
    seconds: Dict[str, float]  # each stage run -> its wall time in seconds


def decide(stages: Iterable[Stage]) -> Decision:
    """Run ``stages``, computed lazily in pipeline order, up to the first
    decisive one: the one place where a stage's verdict becomes final, and
    where a stage is timed, from the end of the stage before it."""
    trace: List[Stage] = []
    seconds: Dict[str, float] = {}
    t0 = time.perf_counter()
    for stage, verdict in stages:
        t1 = time.perf_counter()
        seconds[stage], t0 = t1 - t0, t1
        trace.append((stage, verdict))
        if verdict.kind is not Kind.UNDETERMINED:
            return Decision(trace, stage, verdict, seconds)
    return Decision(trace, None, Verdict(Kind.UNDETERMINED, "no-decisive-stage"), seconds)


def classify(T: SymmetricTensor4) -> Decision:
    """The pipeline's decision on T: the stages run, the deciding one and
    its verdict, and each stage's wall time.  Every decisive verdict is
    exact; dim 3 can end undetermined where the Bernstein stage does not
    decide, and dim >= 4 where the prefilter does not."""
    return decide(stages(T))
