"""Record the CLI's output on every benchmark input, to compare two commits.

Usage: python tools/parity.py SEED [SEED ...] > out.json
       python tools/parity.py --compare PARENT.json CHANGE.json

For each seed and each workload of ``perfbench/gen.py`` it runs every
distinct argv of ``generate(workload, seed)`` through ``quartpd.cli.main``
in-process, importing the package from this checkout's ``src``.  It also
runs ``minimize --json`` on every dim-3 tensor-file input of
``ternary-oracle`` (80 per seed, which rarely have zeros), on every
``binary-mix`` input labelled ``psd_not_pd`` (forms with zeros), on the
18 catalog tensors written as tensor files and on four dim-3 tensor files
with zeros (x1^2 x2^2, (x1^2 + x2^2)^2, x1^2 x2^2 + x3^4 and the cyclic
boundary form (1, 1, -1, 1, -7/12)), so that the sphere minimum and the
zero-set probe are compared in dims 2 and 3, with zeros and without.  It
runs ``check --json`` on those 22 tensor files too, and on each of them
scaled by 2^64, whose Bernstein face coefficients pass 2^63: the exact
stage computes them by one packed-integer product below that bound and by
its row sums above it, so both ways are compared.  It runs ``check
--json`` on six dim-4 and dim-5 tensor files, which the Bernstein stage
decides (``_high_dim_tensors``), and on eight tensor files whose entries take the parse's
slower branches (permuted indices, repeated equal entries, "2/4",
decimals, JSON ints, zero values, and refused values and indices).  It
runs ``check --json`` on binary, cyclic and relaxed shorthands whose first
coefficient takes each branch of the one converter, ``as_fraction``
(``_shorthand_inputs``): "007", "-0", "2/4", "+1", " 7", "1.25", "1e-3",
the refused "1/0" and "1/-2", and digit strings one short of, at and one
past the int-string digit limit; the benchmark's shorthands are all
reduced "p/q" strings.
Tensor-file inputs are written to a temporary directory, as the benchmark
child does.
The output is one JSON object, keys sorted, mapping each input (its argv,
with a tensor file's document in place of its path) to
``[exit code, stdout, stderr]``; a JSON report's ``timings`` are removed.
Two checkouts whose outputs should agree to the bit agree when the files
compare equal with ``cmp``.

A change to the oracle's float arithmetic moves the last bits of its
results, so ``--compare`` checks two recorded files at a tolerance.  It
fails on a differing input set, exit code, stderr, or any field of a JSON
report other than a float, and on a value float (``sphere_min``,
``min_value``) that differs by more than 1e-12 times max |t| of the input's
tensor, the scale at which the oracle computes.  Point
floats (``minimizer``, ``min_point``, ``equality_points``, ``zero_set``)
may move to another of several tied minima, so their differences are
counted and reported but do not fail the compare; any other float must be
equal.  Every differing field of a report is compared, not only the first.
Failures are grouped by class: the command, the field's path with list
indices dropped (``/trace/rule``), and the rule of the verdict that holds
the field (or else of the report's verdict), old -> new.  It prints a
summary, then per class the number of inputs that fail in it and one
example, and exits 0 when the files agree, 1 when they do not.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import tempfile
from fractions import Fraction

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(_ROOT, "src"), os.path.join(_ROOT, "perfbench")]

import gen  # noqa: E402  (perfbench/gen.py)

from quartpd.cli import main as cli_main  # noqa: E402
from quartpd.tensorio import describe  # noqa: E402

WORKLOADS = ("binary-mix", "ternary-oracle", "catalog")

VALUE_FLOATS = ("sphere_min", "min_value")
POINT_FLOATS = ("minimizer", "min_point", "equality_points", "zero_set")


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    code = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            cli_main(list(argv), "quartpd")
        except SystemExit as exc:
            code = 0 if exc.code is None else exc.code
    return code, out.getvalue(), err.getvalue()


def _without_timings(stdout: str) -> str:
    try:
        report = json.loads(stdout)
    except ValueError:
        return stdout
    if isinstance(report, dict):
        report.pop("timings", None)
    return json.dumps(report, indent=2, sort_keys=True)


def _catalog_tensors():
    """The catalog's tensors."""
    from quartpd.inequalities import builtin_catalog

    return [q.to_tensor() for q in builtin_catalog()]


def _zero_tensors():
    """Four dim-3 forms with zeros, where the zero-set probe refines the
    most converged candidates: x1^2 x2^2, whose refine crawls along its
    circles of zeros to the iteration cap, (x1^2 + x2^2)^2,
    x1^2 x2^2 + x3^4 and the cyclic boundary form."""
    from quartpd.cyclic import embed
    from quartpd.tensor import SymmetricTensor4

    one, sixth = Fraction(1), Fraction(1, 6)
    forms = (
        {(1, 1, 2, 2): sixth},  # x1^2 x2^2
        {(1, 1, 1, 1): one, (1, 1, 2, 2): 2 * sixth, (2, 2, 2, 2): one},  # (x1^2 + x2^2)^2
        {(1, 1, 2, 2): sixth, (3, 3, 3, 3): one},  # x1^2 x2^2 + x3^4
    )
    return [*(SymmetricTensor4(3, f) for f in forms), embed(1, 1, -1, 1, "-7/12")]


def _high_dim_tensors():
    """Dim-4 and dim-5 tensors for ``check``: x1^4 + ... + xn^4 for n = 4
    and 5; the Choi-Lam form
    x4^4 + x1^2 x2^2 + x2^2 x3^2 + x3^2 x1^2 - 4 x1 x2 x3 x4 plus 1/1000
    sum x_i^4 (PD), minus 1/1000 sum x_i^4 (negative diagonals, refuted by
    the prefilter) and minus x4^4 / 1000 (indefinite at a zero of the
    Choi-Lam form); and the dim-5 sum of fourth powers times 2^64, whose face
    coefficients pass 2^63."""
    from quartpd.tensor import SymmetricTensor4, diag_ones

    def choi_lam(eps, eps4):
        sixth = Fraction(1, 6)
        entries = {(1, 1, 2, 2): sixth, (2, 2, 3, 3): sixth, (1, 1, 3, 3): sixth, (1, 2, 3, 4): -sixth}
        entries.update({(i, i, i, i): eps + (eps4 if i == 4 else 0) for i in (1, 2, 3, 4)})
        return SymmetricTensor4(4, entries)

    thousandth = Fraction(1, 1000)
    return [
        diag_ones(4),
        diag_ones(5),
        choi_lam(thousandth, 1),
        choi_lam(-thousandth, 1),
        choi_lam(0, 1 - thousandth),
        diag_ones(5).scale(2**64),
    ]


def _slow_path_documents():
    """Tensor files whose entries take the parse's slower branches, which the
    benchmark's canonical, reduced inputs never take: permuted indices,
    repeated equal entries, unreduced "2/4", decimals, JSON ints and zero
    values, and four refused values or indices."""
    def doc(dim, *entries):
        return {"dim": dim, "entries": [{"index": i, "value": v} for i, v in entries]}

    return [
        doc(3, ([1, 1, 1, 1], 1), ([2, 2, 2, 2], 1), ([3, 3, 3, 3], 2), ([3, 2, 1, 1], "-1/12"),
            ([2, 1, 3, 1], "-2/24"), ([3, 3, 1, 1], "2/4"), ([2, 3, 3, 2], 0)),
        doc(3, ([1, 1, 1, 1], "1.25"), ([2, 2, 2, 2], "1e0"), ([3, 3, 3, 3], "0.75"),
            ([1, 2, 2, 1], "-0.5"), ([2, 1, 1, 2], "-5e-1"), ([1, 2, 3, 3], "-0"), ([1, 1, 1, 2], "0/3")),
        doc(2, ([2, 2, 2, 2], 1), ([1, 1, 1, 1], 1), ([2, 1, 2, 1], "-4/12"), ([1, 1, 2, 2], "-1/3")),
        doc(3, ([1, 1, 1, 1], -1), ([3, 1, 2, 2], "007"), ([2, 2, 3, 1], " 7"), ([1, 2, 3, 2], "7.0")),
        doc(2, ([1, 1, 1, 1], "1/0")),
        doc(2, ([1, 1, 1, 1], "+1"), ([1, 1, 2, 2], "1/-2")),
        doc(2, ([1, 1, 1, 1], "1"), ([True, 1, 1, 1], "1")),
        doc(2, ([1, 1, 1, 1], 1.5)),
    ]


def _shorthand_inputs():
    """``check --json`` argvs of a binary, a cyclic and a relaxed shorthand
    whose first coefficient takes each of ``as_fraction``'s branches and
    refusals, the digit strings about the interpreter's digit limit among
    them."""
    limit = sys.get_int_max_str_digits()
    values = ["007", "-0", "2/4", "+1", " 7", "1.25", "1e-3", "1/0", "1/-2",
              *("7" * (limit + n) for n in (-1, 0, 1))]
    bases = {"binary": ["0", "0", "0", "1"], "cyclic": ["-1", "1", "1", "-7/12"],
             "relaxed": ["-1", "1", "1", "-1/4", "-1/5", "-1/6"]}
    return [["check", family, v, *rest, "--json"] for family, rest in bases.items() for v in values]


def inputs(seed):
    """(argv, doc) for each input recorded for ``seed``, repeats included;
    argv[1] is None for a tensor-file input, whose document is doc."""
    for workload in WORKLOADS:
        for item in gen.generate(workload, seed):
            argv, doc = list(item["argv"]), item.get("doc")
            yield argv, doc
            if workload == "ternary-oracle" and argv[1] is None and item["dim"] == 3:
                yield ["minimize", None, "--json"], doc
            elif workload == "binary-mix" and item["label"] == "psd_not_pd":
                yield ["minimize", *argv[1:]], None
    for T in _catalog_tensors() + _zero_tensors():
        yield ["minimize", None, "--json"], describe(T)
        yield ["check", None, "--json"], describe(T)
        yield ["check", None, "--json"], describe(T.scale(2**64))
    for T in _high_dim_tensors():
        yield ["check", None, "--json"], describe(T)
    for doc in _slow_path_documents():
        yield ["check", None, "--json"], doc
    for argv in _shorthand_inputs():
        yield argv, None


def key(argv, doc) -> str:
    """An input's key: its argv, with a tensor file's document in place of its path."""
    return json.dumps(argv if argv[1] is not None else [argv[0], doc, *argv[2:]])


def record(seeds, tmp: str) -> dict:
    results = {}
    for seed in seeds:
        for argv, doc in inputs(seed):
            k = key(argv, doc)
            if k in results:
                continue
            if argv[1] is None:
                argv = [argv[0], os.path.join(tmp, "input.json"), *argv[2:]]
                with open(argv[1], "w") as fh:
                    json.dump(doc, fh)
            code, out, err = _run(argv)
            results[k] = [code, _without_timings(out).replace(tmp, "<tmp>"), err.replace(tmp, "<tmp>")]
    return results


def _max_entry(argv) -> float:
    """max |t| over the tensor of the input ``argv`` (as keyed)."""
    from quartpd.inequalities import builtin_catalog
    from quartpd.tensorio import parse_document, parse_shorthand, to_tensor

    if argv[0] == "inequalities":
        label = argv[argv.index("--only") + 1]
        T = next(q for q in builtin_catalog() if q.label == label).to_tensor()
    elif isinstance(argv[1], dict):
        T = to_tensor(parse_document(argv[1]))
    else:
        coeffs = [a for a in argv[2:] if not a.startswith("--")]
        T = to_tensor(parse_shorthand(argv[1], coeffs))
    return max((abs(float(v)) for v in T.entries().values()), default=0.0)


def _diffs(a, b, field=None, path=""):
    """(path, field, a, b) for each leaf of two parsed reports that differs;
    a differing type, key set or list length is one difference at its path."""
    if type(a) is not type(b):
        return [(path, field, a, b)]
    if isinstance(a, dict) and a.keys() == b.keys():
        return [d for k in sorted(a) for d in _diffs(a[k], b[k], k, f"{path}/{k}")]
    if isinstance(a, list) and len(a) == len(b):
        pairs = enumerate(zip(a, b))
        return [d for i, (x, y) in pairs for d in _diffs(x, y, field, f"{path}/{i}")]
    return [] if a == b else [(path, field, a, b)]


def _describe(path, a, b) -> str:
    if type(a) is type(b) is dict:
        return f"{path}: keys {sorted(a)} != {sorted(b)}"
    if type(a) is type(b) is list:
        return f"{path}: length {len(a)} != {len(b)}"
    return f"{path}: {a!r} != {b!r}"


def _rule(report, path: str):
    """The rule of the innermost verdict along ``path`` in a parsed report:
    of the innermost dict on it that has a ``rule``, or a ``verdict`` with
    one; None if there is none."""
    nodes = [report]
    for part in path.split("/")[1:]:
        nodes.append(nodes[-1][int(part)] if isinstance(nodes[-1], list) else nodes[-1][part])
    for node in reversed(nodes):
        if isinstance(node, dict):
            verdict = node if "rule" in node else node.get("verdict")
            if isinstance(verdict, dict) and "rule" in verdict:
                return verdict["rule"]
    return None


def _class(key, path, old, new) -> str:
    """A failure's class: command, path without list indices, old -> new rule."""
    fields = "/".join(p for p in path.split("/") if not p.isdigit()) or "/"
    return f"{json.loads(key)[0]} {fields} [{_rule(old, path)} -> {_rule(new, path)}]"


def _compare_one(key, old, new, stats) -> list:
    """The failures of one input, as (class, message); updates the float
    statistics in ``stats``."""
    if old[0] != new[0] or old[2] != new[2]:
        message = f"exit code or stderr: {old[0]} {old[2]!r} != {new[0]} {new[2]!r}"
        return [(f"{json.loads(key)[0]} exit code or stderr", message)]
    if old[1] == new[1]:
        return []
    try:
        a, b = json.loads(old[1]), json.loads(new[1])
    except ValueError:
        return [(f"{json.loads(key)[0]} stdout", "stdout: not JSON, and differs")]
    failures, scale = [], None
    for path, field, x, y in _diffs(a, b):
        if type(x) is type(y) is float and field in POINT_FLOATS:
            stats["point_floats"] += 1
            continue
        message = _describe(path, x, y)
        if type(x) is type(y) is float and field in VALUE_FLOATS:
            scale = scale or _max_entry(json.loads(key))
            stats["value_floats"] += 1
            stats["max_value_diff"] = max(stats["max_value_diff"], abs(x - y))
            stats["max_scaled_diff"] = max(stats["max_scaled_diff"], abs(x - y) / scale)
            if abs(x - y) <= 1e-12 * scale:
                continue
            message += f" (tolerance {1e-12 * scale:.3g})"
        failures.append((_class(key, path, a, b), message))
    return failures


def compare(old: dict, new: dict) -> int:
    found = [(k, "input only in one file", "only in one file") for k in sorted(old.keys() ^ new.keys())]
    stats = {"point_floats": 0, "value_floats": 0, "max_value_diff": 0.0, "max_scaled_diff": 0.0}
    differing = 0
    for key in sorted(old.keys() & new.keys()):
        differing += old[key] != new[key]
        found += [(key, cls, message) for cls, message in _compare_one(key, old[key], new[key], stats)]
    classes = {}  # class -> (its inputs, the first failure in it)
    for key, cls, message in found:
        short = key if len(key) <= 120 else key[:117] + "..."
        classes.setdefault(cls, (set(), f"{short}: {message}"))[0].add(key)
    print(f"{len(old.keys() & new.keys())} inputs in both files, {differing} with differing output")
    print(f"value floats differing: {stats['value_floats']}, largest difference "
          f"{stats['max_value_diff']:.3g} ({stats['max_scaled_diff']:.3g} of max |t|)")
    print(f"point floats differing: {stats['point_floats']} (not failing)")
    for cls, (inputs, example) in sorted(classes.items(), key=lambda c: (-len(c[1][0]), c[0])):
        print(f"FAIL {cls}: {len(inputs)} inputs")
        print(f"  e.g. {example}")
    print(f"{len(found)} failures in {len(classes)} classes" if found else "agree within tolerance")
    return 1 if found else 0


def main(args) -> int:
    if args[:1] == ["--compare"] and len(args) == 3:
        with open(args[1]) as fa, open(args[2]) as fb:
            return compare(json.load(fa), json.load(fb))
    if not args or args[0].startswith("--"):
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 64
    seeds = [int(s) for s in args]
    with tempfile.TemporaryDirectory() as tmp:
        results = record(seeds, tmp)
    json.dump(results, sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
