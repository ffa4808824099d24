"""Command-line front end: argument parsing, reports and exit codes around
the library.  ``check`` runs :func:`quartpd.classify`, whose stages run in
their one order (``pipeline.stages``), and writes its ``Decision`` as the
report, whose every decisive verdict is exact.  No stage of ``check``
samples the sphere, so it loads neither ``quartpd.oracle`` nor numpy;
``minimize`` and ``inequalities`` import them, for the sphere minimum and
the zero set.

``quartpd COMMAND [INPUTS]... [OPTIONS]`` with COMMAND one of ``check``,
``minimize`` and ``inequalities``.  Each command has a table of flags:
switches, given as ``--flag``, and ``inequalities``' ``--only LABEL``,
given as ``--only LABEL`` or ``--only=LABEL``, whose value is the next
token whatever it starts with.  Every token that does not start with
``--`` is an input, so negative numbers and fractions such as ``-1/2``
need no quoting, and every token after ``--`` is an input.  ``--help``
prints the commands, or a command's flags.  The oracle has no flags:
``minimize`` and ``inequalities`` run it with the library's defaults.
``--json`` reports are strict RFC 8259 JSON on one line (``python -m
json.tool`` indents them): a value beyond float range, which JSON has no
number for, is written as the string ``"inf"`` or ``"-inf"``.

Exit codes: 0 positive definite, 1 positive semidefinite, not definite,
2 indefinite, 3 undetermined, 64 input error (also a bad option or usage,
reported in one line), 70 internal error (an unexpected exception,
reported in one line), 130 interrupted (Ctrl-C), 141 stdout closed (the
reader is gone, as for ``| head``; nothing is reported).
"""

from __future__ import annotations

import json
import math
import os
import sys
import time
from typing import Callable, Dict, List, NamedTuple, NoReturn, Optional, Sequence

from .pipeline import classify
from .tensorio import InputError, describe, load, parse_shorthand, to_tensor
from .verdict import Kind

# CPython's built-in digest, as its own ``random`` takes sha512:
# ``import hashlib`` loads OpenSSL, several megabytes for one digest a call.
try:
    from _sha2 import sha256  # 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # 3.10, 3.11
    except ImportError:
        from hashlib import sha256

_EXIT = {
    Kind.POSITIVE_DEFINITE: 0,
    Kind.PSD_NOT_PD: 1,
    Kind.INDEFINITE: 2,
    Kind.UNDETERMINED: 3,
}
EXIT_INPUT_ERROR = 64
EXIT_INTERNAL_ERROR = 70  # EX_SOFTWARE; 1 would read as a PSD verdict
EXIT_INTERRUPTED = 130  # 128 + SIGINT, as a shell reports it
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE


def _input_error(message) -> NoReturn:
    print(f"input error: {message}", file=sys.stderr)
    sys.exit(EXIT_INPUT_ERROR)


def _parse_inputs(inputs: List[str]):
    try:
        if not inputs:
            raise InputError("input: a file path or a '<family> <coefficients>' shorthand expected")
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
    # one line: ``indent`` would take json's pure-Python encoder, several
    # times slower than its C one on a dim-3 report
    try:
        text = json.dumps(report, sort_keys=True, allow_nan=False)
    except ValueError:  # inf or NaN, which JSON has no number for: rare, so not looked for first
        text = json.dumps(_strict(report), sort_keys=True, allow_nan=False)
    print(text)


def _check(inputs, as_json=False) -> NoReturn:
    """Classify a tensor given as a JSON file or a '<family> <coefficients>' shorthand."""
    parsed = _parse_inputs(inputs)
    decision = classify(to_tensor(parsed))
    v = decision.verdict
    if as_json:
        desc = describe(parsed)
        report = {
            "schema": 1,
            "input": desc,
            "digest": sha256(json.dumps(desc, sort_keys=True).encode()).hexdigest(),
            "trace": [{"stage": stage, **verdict.to_dict()} for stage, verdict in decision.trace],
            "verdict": v.to_dict(),
            "timings": {"analytic_s": sum(decision.seconds.values())},
        }
        _print_json(report)
    else:
        for stage, verdict in decision.trace:
            print(f"  [{stage}] {verdict.kind} ({verdict.rule})")
        print(f"verdict: {v.kind} ({v.rule})")
        if v.witness:
            print(f"witness: ({', '.join(map(str, v.witness))})")
    sys.exit(_EXIT[v.kind])


def _minimize(inputs, as_json=False) -> NoReturn:
    """Minimize the form over the unit sphere and probe its zero set."""
    from .oracle import ORACLE_DIMS, sphere_minimize, sphere_sample, zero_set_probe

    parsed = _parse_inputs(inputs)
    T = to_tensor(parsed)
    if T.dim not in ORACLE_DIMS:
        _input_error(f"dim: minimize supports dim 2 or 3, got {T.dim}")
    t0 = time.perf_counter()
    sample = sphere_sample(T)  # one sample for the minimum and the zero set
    res = sphere_minimize(T, sample=sample)
    zeros = zero_set_probe(T, sample=sample)
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


def _inequalities(inputs, as_json=False, only=None) -> NoReturn:
    """Verify the built-in catalog of ternary quartic inequalities."""
    from .inequalities import builtin_catalog, verify

    catalog = builtin_catalog()
    if only is not None:
        catalog = [q for q in catalog if q.label == only]
        if not catalog:
            _input_error(f"--only: unknown label {only!r}")
    reports = [verify(ineq) for ineq in catalog]
    ok = all(r.as_expected for r in reports)
    if as_json:
        _print_json({"schema": 1, "ok": ok, "reports": [r.to_dict() for r in reports]})
    else:
        for r in reports:
            status = "HOLDS" if r.holds else "FAILS"
            expect = " (expected)" if r.as_expected else " (UNEXPECTED)"
            print(f"{r.label:>12}  {status:<6} min={r.sphere_min: .3e}{expect}")
        print("ok" if ok else "MISMATCH")
    sys.exit(0 if ok else 1)


class _Flag(NamedTuple):
    """A flag that is not given leaves the keyword's default."""

    dest: str  # the command's keyword
    takes_value: bool  # a string value, or else a switch
    help: str


class _Command(NamedTuple):
    run: Callable[..., NoReturn]  # run(inputs, **values of the flags given)
    takes_inputs: bool
    flags: Dict[str, _Flag]


_JSON_FLAG = {"--json": _Flag("as_json", False, "machine-readable output")}

_COMMANDS = {
    "check": _Command(_check, True, _JSON_FLAG),
    "minimize": _Command(_minimize, True, _JSON_FLAG),
    "inequalities": _Command(
        _inequalities,
        False,
        {
            "--only": _Flag("only", True, "run a single catalog label, e.g. 19u or 19-14-14"),
            **_JSON_FLAG,
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
        (f"{flag} LABEL" if f.takes_value else flag, f.help)
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
            if not flag.takes_value:
                if eq:
                    _input_error(f"{token}: {flag_name} takes no value")
                values[flag.dest] = True
                continue
            if not eq:
                raw = next(tokens, None)
                if raw is None:
                    _input_error(f"{flag_name} requires a value")
            values[flag.dest] = raw
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
    command.run(inputs, **values)


def main(args: Optional[Sequence[str]] = None, prog_name: str = "quartpd") -> NoReturn:
    """Run one command line (``sys.argv[1:]`` by default); always ends in
    ``SystemExit`` with the exit code of the module docstring."""
    try:
        _dispatch(list(sys.argv[1:] if args is None else args), prog_name)
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        sys.exit(EXIT_INTERRUPTED)
    except BrokenPipeError:
        # the reader is gone: send what is still buffered for stdout, which
        # Python flushes at exit, to devnull, so that flush cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(EXIT_BROKEN_PIPE)
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        sys.exit(EXIT_INTERNAL_ERROR)


# ``main.main(args=[...], prog_name=...)``, the spelling of a click group, is
# how perfbench/child.py, its only remaining caller, calls the CLI in-process.
main.main = main


if __name__ == "__main__":
    main()
