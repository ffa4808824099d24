"""Command-line front end.

Classification runs as a staged pipeline: exact necessary-condition
prefilter, then family rules for cyclic patterns, then the exact binary
criterion, and finally the numeric sphere oracle.  The final verdict is
the first decisive stage's verdict.

Exit codes: 0 positive definite, 1 positive semidefinite (strict or not),
2 indefinite, 3 undetermined, 64 input error.
"""

from __future__ import annotations

import hashlib
import json
import sys
import time
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

import click

from . import binary as binmod
from . import cyclic as cycmod
from .inequalities import builtin_catalog, exact_spot_check, verify
from .oracle import OracleConfig, classify_numeric, sphere_minimize, zero_set_probe
from .tensor import SymmetricTensor4
from .tensorio import InputError, describe, load, parse_shorthand, to_tensor
from .verdict import Kind, PatternMismatchError, Verdict

_EXIT = {
    Kind.POSITIVE_DEFINITE: 0,
    Kind.PSD_NOT_PD: 1,
    Kind.POSITIVE_SEMIDEFINITE: 1,
    Kind.INDEFINITE: 2,
    Kind.UNDETERMINED: 3,
}
EXIT_INPUT_ERROR = 64


def _parse_inputs(inputs: Tuple[str, ...]):
    if not inputs:
        raise InputError("input: a file path or a '<family> c1 .. c5' shorthand expected")
    if len(inputs) == 1:
        return load(inputs[0])
    return parse_shorthand(inputs[0], list(inputs[1:]))


def _principal_binary(T: SymmetricTensor4, i: int, j: int) -> binmod.BinaryQuartic:
    return binmod.BinaryQuartic(
        T[(i, i, i, i)], T[(i, i, i, j)], T[(i, i, j, j)], T[(i, j, j, j)], T[(j, j, j, j)]
    )


def _detect_cyclic(T: SymmetricTensor4):
    """Recognize the cyclic orbit pattern in a dim-3 tensor, allowing the
    three x1*x2*x3-type slots to differ (relaxed pattern)."""
    if T.dim != 3:
        return None
    orbits = {
        "a": [(1, 1, 1, 1), (2, 2, 2, 2), (3, 3, 3, 3)],
        "b": [(1, 1, 1, 2), (2, 2, 2, 3), (1, 3, 3, 3)],
        "c": [(1, 1, 1, 3), (1, 2, 2, 2), (2, 3, 3, 3)],
        "d": [(1, 1, 2, 2), (1, 1, 3, 3), (2, 2, 3, 3)],
    }
    vals = {}
    for name, idxs in orbits.items():
        vs = {T[idx] for idx in idxs}
        if len(vs) != 1:
            return None
        vals[name] = vs.pop()
    e = (T[(1, 1, 2, 3)], T[(1, 2, 2, 3)], T[(1, 2, 3, 3)])
    if e[0] == e[1] == e[2]:
        return cycmod.CyclicTernary(vals["a"], vals["b"], vals["c"], vals["d"], e[0])
    return cycmod.RelaxedCyclicTernary(vals["a"], vals["b"], vals["c"], vals["d"], *e)


def _stage_prefilter(T: SymmetricTensor4) -> Tuple[Verdict, Dict[Tuple[int, int], Verdict]]:
    """Exact principal-subtensor screen: semidefiniteness is inherited by
    principal subtensors, so any indefinite 2-dim restriction refutes it.

    Also returns the verdict of every principal binary it classified; for
    dim 2 the (1,2) binary is the whole form, which the analytic stage reuses.
    """
    pairs = [(i, j) for i in range(1, T.dim + 1) for j in range(i + 1, T.dim + 1)]
    binaries: Dict[Tuple[int, int], Verdict] = {}
    for i in range(1, T.dim + 1):
        if T[(i, i, i, i)] < 0:
            w = tuple(Fraction(int(k == i)) for k in range(1, T.dim + 1))
            return Verdict(Kind.INDEFINITE, f"negative-diagonal t{i}{i}{i}{i}", witness=w), binaries
    for i, j in pairs:
        v = binaries[(i, j)] = binmod.classify(_principal_binary(T, i, j))
        if v.kind is Kind.INDEFINITE:
            w = [Fraction(0)] * T.dim
            w[i - 1], w[j - 1] = v.witness
            verdict = Verdict(
                Kind.INDEFINITE, f"principal-subtensor({i},{j}):{v.rule}", witness=tuple(w)
            )
            return verdict, binaries
    return Verdict(Kind.UNDETERMINED, "prefilter-passed"), binaries


def _stage_family(T: SymmetricTensor4, trace: List[dict]) -> Verdict:
    ct = _detect_cyclic(T)
    if ct is None:
        return Verdict(Kind.UNDETERMINED, "no-cyclic-pattern")
    if ct.a > 0 and ct.a != 1:
        # verdicts are invariant under positive scaling; normalize to a = 1
        scale = 1 / ct.a
        trace.append({"stage": "rescale", "factor": str(scale)})
        if isinstance(ct, cycmod.CyclicTernary):
            ct = cycmod.CyclicTernary(*(scale * v for v in (ct.a, ct.b, ct.c, ct.d, ct.e)))
        else:
            ct = cycmod.RelaxedCyclicTernary(
                *(scale * v for v in (ct.a, ct.b, ct.c, ct.d, ct.e123, ct.e223, ct.e233))
            )
    try:
        if isinstance(ct, cycmod.CyclicTernary):
            return cycmod.classify_cyclic(ct).verdict
        return cycmod.classify_relaxed(ct).verdict
    except PatternMismatchError:
        return Verdict(Kind.UNDETERMINED, "outside-family-hypotheses")


def run_check(parsed, cfg: OracleConfig, oracle_only: bool, analytic_only: bool) -> dict:
    T = to_tensor(parsed)
    desc = describe(parsed)
    digest = hashlib.sha256(json.dumps(desc, sort_keys=True).encode()).hexdigest()
    trace: List[dict] = []
    final: Optional[Verdict] = None
    timings = {}

    def record(stage: str, verdict: Verdict):
        nonlocal final
        trace.append({"stage": stage, **verdict.to_dict()})
        if final is None and verdict.kind is not Kind.UNDETERMINED:
            final = verdict

    if not oracle_only:
        t0 = time.perf_counter()
        verdict, binaries = _stage_prefilter(T)
        record("prefilter", verdict)
        if final is None and T.dim == 3:
            record("family", _stage_family(T, trace))
        if final is None and T.dim == 2:
            # the exact binary criterion, already run on the (1,2) binary
            record("analytic", binaries[(1, 2)])
        timings["analytic_s"] = time.perf_counter() - t0
    if final is None and not analytic_only:
        t0 = time.perf_counter()
        record("oracle", classify_numeric(T, cfg))
        timings["oracle_s"] = time.perf_counter() - t0
    if final is None:
        final = Verdict(Kind.UNDETERMINED, "no-decisive-stage")
    return {
        "schema": 1,
        "input": desc,
        "digest": digest,
        "trace": trace,
        "verdict": final.to_dict(),
        "timings": timings,
    }


def _emit(report: dict, as_json: bool) -> None:
    if as_json:
        click.echo(json.dumps(report, indent=2, sort_keys=True))
        return
    v = report["verdict"]
    for step in report["trace"]:
        if "stage" in step and "kind" in step:
            click.echo(f"  [{step['stage']}] {step['kind']} ({step['rule']})")
    click.echo(f"verdict: {v['kind']} ({v['rule']})")
    if v.get("witness"):
        click.echo(f"witness: ({', '.join(v['witness'])})")
    if v.get("margin") is not None:
        click.echo(f"margin: {v['margin']:.3e}")


def _oracle_options(fn):
    fn = click.option("--grid", type=int, default=None, help="grid point count")(fn)
    fn = click.option("--seed", type=int, default=0, help="jitter seed")(fn)
    fn = click.option("--margin", type=float, default=1e-8, help="classification margin")(fn)
    fn = click.option("--json", "as_json", is_flag=True, help="machine-readable output")(fn)
    return fn


@click.group()
def main() -> None:
    """Positive definiteness checks for 4th-order symmetric tensors."""


@main.command(context_settings={"ignore_unknown_options": True})
@click.argument("inputs", nargs=-1)
@click.option("--psd", is_flag=True, help="ask for semidefiniteness instead of definiteness")
@click.option("--oracle-only", is_flag=True)
@click.option("--analytic-only", is_flag=True)
@_oracle_options
def check(inputs, psd, oracle_only, analytic_only, grid, seed, margin, as_json):
    """Classify a tensor given as a JSON file or a '<family> c1 ...' shorthand."""
    try:
        parsed = _parse_inputs(inputs)
    except InputError as exc:
        click.echo(f"input error: {exc}", err=True)
        sys.exit(EXIT_INPUT_ERROR)
    cfg = OracleConfig(grid_points=grid, seed=seed, classify_margin=margin)
    report = run_check(parsed, cfg, oracle_only, analytic_only)
    kind = Kind(report["verdict"]["kind"])
    if psd:
        report["question"] = "positive-semidefinite"
        report["answer"] = kind in (
            Kind.POSITIVE_DEFINITE,
            Kind.PSD_NOT_PD,
            Kind.POSITIVE_SEMIDEFINITE,
        )
    _emit(report, as_json)
    sys.exit(_EXIT[kind])


@main.command(context_settings={"ignore_unknown_options": True})
@click.argument("inputs", nargs=-1)
@_oracle_options
def minimize(inputs, grid, seed, margin, as_json):
    """Minimize the form over the unit sphere and probe its zero set."""
    try:
        parsed = _parse_inputs(inputs)
    except InputError as exc:
        click.echo(f"input error: {exc}", err=True)
        sys.exit(EXIT_INPUT_ERROR)
    cfg = OracleConfig(grid_points=grid, seed=seed, classify_margin=margin)
    T = to_tensor(parsed)
    t0 = time.perf_counter()
    res = sphere_minimize(T, cfg)
    zeros = zero_set_probe(T, cfg)
    elapsed = time.perf_counter() - t0
    degenerate = T.is_zero()
    report = {
        "schema": 1,
        "input": describe(parsed),
        "min_value": res.min_value,
        "minimizer": list(res.minimizer),
        "zero_set": [list(z) for z in zeros],
        "degenerate": degenerate,
        "iterations": res.iterations_used,
        "timings": {"total_s": elapsed},
    }
    if as_json:
        click.echo(json.dumps(report, indent=2, sort_keys=True))
    else:
        click.echo(f"min {res.min_value:.6f} at ({', '.join(f'{v:.6f}' for v in res.minimizer)})")
        if degenerate:
            click.echo("zero set: entire sphere (degenerate zero tensor)")
        elif zeros:
            for z in zeros:
                click.echo(f"zero: ({', '.join(f'{v:.6f}' for v in z)})")
        else:
            click.echo("zero set: empty")
    sys.exit(0)


@main.command()
@click.option("--only", default=None, help="run a single catalog label, e.g. 19u or 19-14-14")
@_oracle_options
def inequalities(only, grid, seed, margin, as_json):
    """Verify the built-in catalog of ternary quartic inequalities."""
    cfg = OracleConfig(grid_points=grid, seed=seed, classify_margin=margin)
    catalog = builtin_catalog()
    if only is not None:
        catalog = [q for q in catalog if q.label == only]
        if not catalog:
            click.echo(f"input error: --only: unknown label {only!r}", err=True)
            sys.exit(EXIT_INPUT_ERROR)
    reports = []
    for ineq in catalog:
        rep = verify(ineq, cfg)
        entry = rep.to_dict()
        if ineq.expected_fail and ineq.fail_point is not None:
            entry["exact_counterexample_value"] = str(exact_spot_check(ineq, ineq.fail_point))
        reports.append(entry)
    ok = all(r["as_expected"] for r in reports)
    if as_json:
        click.echo(json.dumps({"schema": 1, "ok": ok, "reports": reports}, indent=2, sort_keys=True))
    else:
        for r in reports:
            status = "HOLDS" if r["holds"] else "FAILS"
            expect = " (expected)" if r["as_expected"] else " (UNEXPECTED)"
            click.echo(f"{r['label']:>12}  {status:<6} min={r['sphere_min']: .3e}{expect}")
        click.echo("ok" if ok else "MISMATCH")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
