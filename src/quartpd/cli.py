"""Command-line front end: argument parsing, printing and exit codes around
:func:`quartpd.classify`, whose stages ``check`` runs in their one order
(``pipeline.stages``); ``check --analytic-only`` stops before the oracle.

``quartpd COMMAND [INPUTS]... [OPTIONS]`` with COMMAND one of ``check``,
``minimize`` and ``inequalities``.  Each command has a table of flags,
given as ``--flag value``, ``--flag=value`` or, for a switch, ``--flag``; an
option's value is the next token whatever it starts with.  Every token
that does not start with ``--`` is an input, so negative numbers and
fractions such as ``-1/2`` need no quoting, and every token after ``--``
is an input.  ``--help`` prints the commands, or a command's flags.
``--json`` reports are strict RFC 8259 JSON: a value beyond float range,
which JSON has no number for, is written as the string ``"inf"`` or
``"-inf"``.

Exit codes: 0 positive definite, 1 positive semidefinite, not definite,
2 indefinite, 3 undetermined, 64 input error (also a bad option or usage,
reported in one line), 70 internal error (an unexpected exception,
reported in one line), 130 interrupted (Ctrl-C).
"""

from __future__ import annotations

import json
import math
import sys
import time
from typing import Callable, Dict, List, NamedTuple, NoReturn, Optional, Sequence

from .inequalities import builtin_catalog, verify
from .oracle import ORACLE_DIMS, ConfigError, OracleConfig
from .oracle import sphere_minimize, sphere_sample, zero_set_probe
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
EXIT_INTERRUPTED = 130  # 128 + SIGINT, as a shell reports it


def _input_error(message) -> NoReturn:
    print(f"input error: {message}", file=sys.stderr)
    sys.exit(EXIT_INPUT_ERROR)


def _parse_inputs(inputs: List[str]):
    try:
        if not inputs:
            raise InputError("input: a file path or a '<family> c1 .. c5' shorthand expected")
        if len(inputs) == 1:
            return load(inputs[0])
        return parse_shorthand(inputs[0], inputs[1:])
    except InputError as exc:
        _input_error(exc)


def _strict(value):
    """``value`` with each float outside float range (or NaN) replaced by
    its name, ``"inf"``, ``"-inf"`` or ``"nan"``, which RFC 8259 JSON can
    hold where it has no number for them."""
    if isinstance(value, float):
        return value if math.isfinite(value) else str(value)
    if isinstance(value, dict):
        return {k: _strict(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_strict(v) for v in value]
    return value


def _print_json(report: dict) -> None:
    try:
        text = json.dumps(report, indent=2, sort_keys=True, allow_nan=False)
    except ValueError:  # inf or NaN, which JSON has no number for: rare, so not looked for first
        text = json.dumps(_strict(report), indent=2, sort_keys=True, allow_nan=False)
    print(text)


def _emit(report: dict, as_json: bool) -> None:
    if as_json:
        _print_json(report)
        return
    v = report["verdict"]
    for step in report["trace"]:
        print(f"  [{step['stage']}] {step['kind']} ({step['rule']})")
    print(f"verdict: {v['kind']} ({v['rule']})")
    if v.get("witness"):
        print(f"witness: ({', '.join(v['witness'])})")
    if v.get("margin") is not None:
        print(f"margin: {v['margin']:.3e}")


def _check(inputs, cfg, as_json=False, analytic_only=False) -> NoReturn:
    """Classify a tensor given as a JSON file or a '<family> c1 ...' shorthand."""
    report = classify(_parse_inputs(inputs), cfg, analytic_only=analytic_only)
    _emit(report, as_json)
    sys.exit(_EXIT[Kind(report["verdict"]["kind"])])


def _minimize(inputs, cfg, as_json=False) -> NoReturn:
    """Minimize the form over the unit sphere and probe its zero set."""
    parsed = _parse_inputs(inputs)
    T = to_tensor(parsed)
    if T.dim not in ORACLE_DIMS:
        _input_error(f"dim: minimize supports dim 2 or 3, got {T.dim}")
    t0 = time.perf_counter()
    sample = sphere_sample(T, cfg)  # one sample for the minimum and the zero set
    res = sphere_minimize(T, cfg, sample)
    zeros = zero_set_probe(T, cfg, sample)
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
        _print_json(report)
    else:
        print(f"min {res.min_value:.6f} at ({', '.join(f'{v:.6f}' for v in res.minimizer)})")
        if degenerate:
            print("zero set: entire sphere (degenerate zero tensor)")
        elif zeros:
            for z in zeros:
                print(f"zero: ({', '.join(f'{v:.6f}' for v in z)})")
        else:
            print("zero set: empty")
    sys.exit(0)


def _inequalities(inputs, cfg, as_json=False, only=None) -> NoReturn:
    """Verify the built-in catalog of ternary quartic inequalities."""
    catalog = builtin_catalog()
    if only is not None:
        catalog = [q for q in catalog if q.label == only]
        if not catalog:
            _input_error(f"--only: unknown label {only!r}")
    reports = [verify(ineq, cfg).to_dict() for ineq in catalog]
    ok = all(r["as_expected"] for r in reports)
    if as_json:
        _print_json({"schema": 1, "ok": ok, "reports": reports})
    else:
        for r in reports:
            status = "HOLDS" if r["holds"] else "FAILS"
            expect = " (expected)" if r["as_expected"] else " (UNEXPECTED)"
            print(f"{r['label']:>12}  {status:<6} min={r['sphere_min']: .3e}{expect}")
        print("ok" if ok else "MISMATCH")
    sys.exit(0 if ok else 1)


class _Flag(NamedTuple):
    """A flag that is not given leaves the keyword's or the field's default."""

    dest: str  # the command's keyword, or for an oracle flag the OracleConfig field
    convert: Optional[Callable[[str], object]]  # None for a switch, which takes no value
    help: str


class _Command(NamedTuple):
    run: Callable[..., NoReturn]  # run(inputs, cfg, **values of the flags given)
    takes_inputs: bool
    flags: Dict[str, _Flag]


_ORACLE_FLAGS = {
    "--grid": _Flag("grid_points", int, "grid point count"),
    "--seed": _Flag("seed", int, "jitter seed"),
}
_JSON_FLAG = {"--json": _Flag("as_json", None, "machine-readable output")}

_COMMANDS = {
    "check": _Command(
        _check,
        True,
        {
            "--analytic-only": _Flag("analytic_only", None, "run the exact stages alone"),
            **_JSON_FLAG,
            **_ORACLE_FLAGS,
        },
    ),
    "minimize": _Command(_minimize, True, {**_JSON_FLAG, **_ORACLE_FLAGS}),
    "inequalities": _Command(
        _inequalities,
        False,
        {
            "--only": _Flag("only", str, "run a single catalog label, e.g. 19u or 19-14-14"),
            **_JSON_FLAG,
            **_ORACLE_FLAGS,
        },
    ),
}


def _rows(rows) -> str:
    width = max(len(name) for name, _ in rows) + 2
    return "\n".join(f"  {name:<{width}}{text}".rstrip() for name, text in rows)


def _help(prog: str, name: Optional[str]) -> str:
    if name is None:
        commands = [(n, c.run.__doc__) for n, c in _COMMANDS.items()]
        return (
            f"Usage: {prog} COMMAND [INPUTS]... [OPTIONS]\n\n"
            "  Positive definiteness checks for 4th-order symmetric tensors.\n\n"
            f"Commands:\n{_rows(commands)}\n\n"
            f"Run '{prog} COMMAND --help' for the options of a command."
        )
    command = _COMMANDS[name]
    options = [
        (flag if f.convert is None else f"{flag} {f.convert.__name__.upper()}", f.help)
        for flag, f in command.flags.items()
    ]
    options.append(("--help", "show this message and exit"))
    inputs = " [INPUTS]..." if command.takes_inputs else ""
    return (
        f"Usage: {prog} {name}{inputs} [OPTIONS]\n\n  {command.run.__doc__}\n\n"
        f"Options:\n{_rows(options)}"
    )


def _parse(prog: str, name: str, args: Sequence[str]):
    """The inputs, and the value of each flag given, of command ``name``."""
    flags = _COMMANDS[name].flags
    inputs: List[str] = []
    values = {}
    tokens = iter(args)
    for token in tokens:
        if token == "--":
            inputs.extend(tokens)
        elif not token.startswith("--"):
            inputs.append(token)
        elif token == "--help":
            print(_help(prog, name))
            sys.exit(0)
        else:
            flag_name, eq, raw = token.partition("=")
            flag = flags.get(flag_name)
            if flag is None:
                _input_error(f"no such option: {flag_name}")
            if flag.convert is None:
                if eq:
                    _input_error(f"{token}: {flag_name} takes no value")
                values[flag.dest] = True
                continue
            if not eq:
                raw = next(tokens, None)
                if raw is None:
                    _input_error(f"{flag_name} requires a value")
            try:
                values[flag.dest] = flag.convert(raw)
            except ValueError:
                _input_error(f"{flag_name}: invalid {flag.convert.__name__} value {raw!r}")
    return inputs, values


def _dispatch(argv: List[str], prog: str) -> NoReturn:
    name = argv[0] if argv else None
    if name == "--help":
        print(_help(prog, None))
        sys.exit(0)
    if name not in _COMMANDS:
        if name is None:
            _input_error(f"a command is expected: {', '.join(_COMMANDS)}; see '{prog} --help'")
        _input_error(f"no such {'option' if name.startswith('--') else 'command'}: {name}")
    command = _COMMANDS[name]
    inputs, values = _parse(prog, name, argv[1:])
    if inputs and not command.takes_inputs:
        _input_error(f"unexpected argument: {inputs[0]}")
    oracle = {f.dest: values.pop(f.dest) for f in _ORACLE_FLAGS.values() if f.dest in values}
    try:
        cfg = OracleConfig(**oracle)
    except ConfigError as exc:
        flag = next(n for n, f in _ORACLE_FLAGS.items() if f.dest == exc.field)
        _input_error(f"{flag} {exc.requirement}")
    command.run(inputs, cfg, **values)


def main(args: Optional[Sequence[str]] = None, prog_name: str = "quartpd") -> NoReturn:
    """Run one command line (``sys.argv[1:]`` by default); always ends in
    ``SystemExit`` with the exit code of the module docstring."""
    try:
        _dispatch(list(sys.argv[1:] if args is None else args), prog_name)
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        sys.exit(EXIT_INTERRUPTED)
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        sys.exit(EXIT_INTERNAL_ERROR)


# ``main.main(args=[...], prog_name=...)``, the spelling of a click group, is
# how perfbench/child.py, its only remaining caller, calls the CLI in-process.
main.main = main


if __name__ == "__main__":
    main()
