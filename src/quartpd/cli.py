"""Command-line front end: argument parsing, printing and exit codes around
:func:`quartpd.classify`.

Exit codes: 0 positive definite, 1 positive semidefinite, not definite,
2 indefinite, 3 undetermined, 64 input error (also a bad option or usage),
70 internal error (an unexpected exception, reported in one line).
"""

from __future__ import annotations

import functools
import json
import sys
import time
from typing import NoReturn, Tuple

import click

from .inequalities import builtin_catalog, verify
from .oracle import ORACLE_DIMS, ConfigError, OracleConfig, sphere_minimize, zero_set_probe
from .pipeline import classify
from .tensorio import InputError, describe, load, parse_shorthand, to_tensor
from .verdict import Kind

_EXIT = {
    Kind.POSITIVE_DEFINITE: 0,
    Kind.PSD_NOT_PD: 1,
    Kind.INDEFINITE: 2,
    Kind.UNDETERMINED: 3,
}
EXIT_INPUT_ERROR = 64
EXIT_INTERNAL_ERROR = 70  # EX_SOFTWARE; 1 would read as a PSD verdict

# the OracleConfig field each oracle flag sets
_FLAGS = {"grid_points": "--grid", "seed": "--seed", "classify_margin": "--margin"}


def _input_error(message) -> NoReturn:
    click.echo(f"input error: {message}", err=True)
    sys.exit(EXIT_INPUT_ERROR)


def _parse_inputs(inputs: Tuple[str, ...]):
    try:
        if not inputs:
            raise InputError("input: a file path or a '<family> c1 .. c5' shorthand expected")
        if len(inputs) == 1:
            return load(inputs[0])
        return parse_shorthand(inputs[0], list(inputs[1:]))
    except InputError as exc:
        _input_error(exc)


def _emit(report: dict, as_json: bool) -> None:
    if as_json:
        click.echo(json.dumps(report, indent=2, sort_keys=True))
        return
    v = report["verdict"]
    for step in report["trace"]:
        click.echo(f"  [{step['stage']}] {step['kind']} ({step['rule']})")
    click.echo(f"verdict: {v['kind']} ({v['rule']})")
    if v.get("witness"):
        click.echo(f"witness: ({', '.join(v['witness'])})")
    if v.get("margin") is not None:
        click.echo(f"margin: {v['margin']:.3e}")


def _oracle_options(fn):
    """The shared oracle flags, handed to the command as one ``cfg``."""

    @functools.wraps(fn)
    def cmd(grid, seed, margin, **kwargs):
        try:
            cfg = OracleConfig(grid_points=grid, seed=seed, classify_margin=margin)
        except ConfigError as exc:
            _input_error(f"{_FLAGS[exc.field]} {exc.requirement}")
        return fn(cfg=cfg, **kwargs)

    cmd = click.option("--grid", type=int, default=None, help="grid point count")(cmd)
    cmd = click.option("--seed", type=int, default=0, help="jitter seed")(cmd)
    cmd = click.option("--margin", type=float, default=1e-8, help="classification margin")(cmd)
    return click.option("--json", "as_json", is_flag=True, help="machine-readable output")(cmd)


class _Group(click.Group):
    """A command group whose usage errors (unknown option, bad option value,
    unknown command) exit with the input-error code instead of click's 2,
    which is the code of an indefinite verdict, and whose unexpected
    exceptions exit with the internal-error code instead of a traceback."""

    def make_context(self, *args, **kwargs):
        try:
            return super().make_context(*args, **kwargs)
        except click.UsageError as exc:
            exc.exit_code = EXIT_INPUT_ERROR
            raise

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except click.UsageError as exc:
            exc.exit_code = EXIT_INPUT_ERROR
            raise
        except (click.ClickException, click.exceptions.Exit, click.Abort):
            raise  # click's own control flow (Exit and Abort are RuntimeErrors)
        except Exception as exc:
            click.echo(f"internal error: {type(exc).__name__}: {exc}", err=True)
            sys.exit(EXIT_INTERNAL_ERROR)


@click.group(cls=_Group)
def main() -> None:
    """Positive definiteness checks for 4th-order symmetric tensors."""


@main.command(context_settings={"ignore_unknown_options": True})
@click.argument("inputs", nargs=-1)
@click.option("--oracle-only", is_flag=True)
@click.option("--analytic-only", is_flag=True)
@_oracle_options
def check(inputs, oracle_only, analytic_only, cfg, as_json):
    """Classify a tensor given as a JSON file or a '<family> c1 ...' shorthand."""
    if oracle_only and analytic_only:
        _input_error("--oracle-only and --analytic-only exclude each other")
    report = classify(_parse_inputs(inputs), cfg, oracle_only, analytic_only)
    _emit(report, as_json)
    sys.exit(_EXIT[Kind(report["verdict"]["kind"])])


@main.command(context_settings={"ignore_unknown_options": True})
@click.argument("inputs", nargs=-1)
@_oracle_options
def minimize(inputs, cfg, as_json):
    """Minimize the form over the unit sphere and probe its zero set."""
    parsed = _parse_inputs(inputs)
    T = to_tensor(parsed)
    if T.dim not in ORACLE_DIMS:
        _input_error(f"dim: minimize supports dim 2 or 3, got {T.dim}")
    t0 = time.perf_counter()
    try:
        res = sphere_minimize(T, cfg)
        zeros = zero_set_probe(T, cfg)
    except OverflowError as exc:  # an entry the float oracle cannot take
        _input_error(exc)
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
def inequalities(only, cfg, as_json):
    """Verify the built-in catalog of ternary quartic inequalities."""
    catalog = builtin_catalog()
    if only is not None:
        catalog = [q for q in catalog if q.label == only]
        if not catalog:
            _input_error(f"--only: unknown label {only!r}")
    reports = [verify(ineq, cfg).to_dict() for ineq in catalog]
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
