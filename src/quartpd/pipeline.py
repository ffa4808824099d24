"""Classification as a staged pipeline: an exact necessary-condition
prefilter, then family rules for cyclic patterns, then the exact binary
criterion, and finally the numeric sphere oracle.  The stages run in that
order up to the first decisive one, whose verdict is final (``decide``);
``classify`` and the inequality harness both decide that way.
"""

from __future__ import annotations

import json
import time
from fractions import Fraction
from typing import Dict, Iterable, Iterator, List, NamedTuple, Optional, Tuple

# CPython's built-in digest, as its own ``random`` takes sha512:
# ``import hashlib`` loads OpenSSL, several megabytes for one digest a call.
try:
    from _sha2 import sha256  # 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # 3.10, 3.11
    except ImportError:
        from hashlib import sha256

from . import binary as binmod
from .cyclic import CyclicTernary, classify_cyclic, classify_relaxed, detect
from .oracle import ORACLE_DIMS, OracleConfig, classify_numeric
from .tensor import SymmetricTensor4
from .tensorio import ParsedInput, describe, to_tensor
from .verdict import Kind, Verdict


def _principal_binary(T: SymmetricTensor4, i: int, j: int) -> binmod.BinaryQuartic:
    return binmod.BinaryQuartic(
        T[(i, i, i, i)], T[(i, i, i, j)], T[(i, i, j, j)], T[(i, j, j, j)], T[(j, j, j, j)]
    )


def _stage_prefilter(T: SymmetricTensor4) -> Tuple[Verdict, Dict[Tuple[int, int], Verdict]]:
    """Exact principal-subtensor screen: semidefiniteness is inherited by
    principal subtensors, so any indefinite 2-dim restriction refutes it.

    Reads only the stored entries.  Once no diagonal is negative, a pair
    (i, j) with none of t_iiij, t_iijj and t_ijjj stored restricts to
    t_iiii*x^4 + t_jjjj*y^4, which cannot refute, so only the other pairs
    are classified, in lexicographic order.  Also returns the verdict of
    every principal binary it classified; for dim 2 the (1,2) binary is the
    whole form, which the analytic stage reuses, so it is always classified.
    """
    stored = T.entries()
    binaries: Dict[Tuple[int, int], Verdict] = {}
    negative = [idx[0] for idx, v in stored.items() if idx[0] == idx[3] and v < 0]
    if negative:
        i = min(negative)
        w = tuple(Fraction(int(k == i)) for k in range(1, T.dim + 1))
        return Verdict(Kind.INDEFINITE, f"negative-diagonal t{i}{i}{i}{i}", witness=w), binaries
    if T.dim == 1:  # the form is t1111 * x^4
        if T[(1, 1, 1, 1)] > 0:
            return Verdict(Kind.POSITIVE_DEFINITE, "positive-diagonal t1111"), binaries
        return Verdict(Kind.PSD_NOT_PD, "zero-diagonal t1111", witness=(Fraction(1),)), binaries
    pairs = {(idx[0], idx[3]) for idx in stored if len(set(idx)) == 2}
    if T.dim == 2:
        pairs.add((1, 2))
    for i, j in sorted(pairs):
        v = binaries[(i, j)] = binmod.classify(_principal_binary(T, i, j))
        if v.kind is Kind.INDEFINITE:
            w = [Fraction(0)] * T.dim
            w[i - 1], w[j - 1] = v.witness
            verdict = Verdict(
                Kind.INDEFINITE, f"principal-subtensor({i},{j}):{v.rule}", witness=tuple(w)
            )
            return verdict, binaries
    return Verdict(Kind.UNDETERMINED, "prefilter-passed"), binaries


def _stage_family(T: SymmetricTensor4) -> Verdict:
    ct = detect(T)
    if ct is None:
        return Verdict(Kind.UNDETERMINED, "no-cyclic-pattern")
    classifier = classify_cyclic if isinstance(ct, CyclicTernary) else classify_relaxed
    return classifier(ct).verdict


Stage = Tuple[str, Verdict]  # a stage's name and its verdict


class Decision(NamedTuple):
    trace: List[Stage]  # every stage run, in order; a decisive one ends it
    stage: Optional[str]  # the deciding stage, None when no stage decides
    verdict: Verdict  # its verdict, else undetermined ``no-decisive-stage``


def decide(stages: Iterable[Stage]) -> Decision:
    """Run ``stages``, computed lazily in pipeline order, up to the first
    decisive one: the one place where a stage's verdict becomes final."""
    trace: List[Stage] = []
    for stage, verdict in stages:
        trace.append((stage, verdict))
        if verdict.kind is not Kind.UNDETERMINED:
            return Decision(trace, stage, verdict)
    return Decision(trace, None, Verdict(Kind.UNDETERMINED, "no-decisive-stage"))


def exact_stages(T: SymmetricTensor4) -> Iterator[Stage]:
    """The exact stages on T, each computed when the one before it is
    consumed: the prefilter, which decides dim 1 outright, then the family
    rules for dim 3 or the exact binary criterion for dim 2."""
    verdict, binaries = _stage_prefilter(T)
    yield "prefilter", verdict
    if T.dim == 3:
        yield "family", _stage_family(T)
    elif T.dim == 2:
        # the exact binary criterion, already run on the (1,2) binary
        yield "analytic", binaries[(1, 2)]


def run_stages(
    T: SymmetricTensor4,
    cfg: OracleConfig = OracleConfig(),
    oracle_only: bool = False,
    analytic_only: bool = False,
) -> Tuple[Decision, Dict[str, float]]:
    """The pipeline's decision on a tensor, and the wall time of the exact
    stages (``analytic_s``) and of the oracle (``oracle_s``), each when it
    ran.  The oracle covers dims 2 and 3 only, so dim >= 4 can end
    undetermined.  ``oracle_only`` and ``analytic_only`` each skip the
    other stages; setting both raises ``ValueError``, since no stage would
    run."""
    if oracle_only and analytic_only:
        raise ValueError("oracle_only and analytic_only exclude each other")
    timings: Dict[str, float] = {}

    def stages() -> Iterator[Stage]:
        if not oracle_only:
            t0 = time.perf_counter()
            for stage in exact_stages(T):
                timings["analytic_s"] = time.perf_counter() - t0
                yield stage
        if not analytic_only and T.dim in ORACLE_DIMS:
            t0 = time.perf_counter()
            verdict = classify_numeric(T, cfg)
            timings["oracle_s"] = time.perf_counter() - t0
            yield "oracle", verdict

    return decide(stages()), timings


def classify(
    parsed: ParsedInput,
    cfg: OracleConfig = OracleConfig(),
    oracle_only: bool = False,
    analytic_only: bool = False,
) -> dict:
    """``run_stages`` on a parsed input, as the schema-1 report: the input
    and its digest, one trace entry per stage run, the final verdict and
    the stage timings."""
    decision, timings = run_stages(to_tensor(parsed), cfg, oracle_only, analytic_only)
    desc = describe(parsed)
    return {
        "schema": 1,
        "input": desc,
        "digest": sha256(json.dumps(desc, sort_keys=True).encode()).hexdigest(),
        "trace": [{"stage": stage, **verdict.to_dict()} for stage, verdict in decision.trace],
        "verdict": decision.verdict.to_dict(),
        "timings": timings,
    }
