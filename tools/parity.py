"""Record the CLI's output on every benchmark input, to compare two commits.

Usage: python tools/parity.py SEED [SEED ...] > out.json

For each seed and each workload of ``perfbench/gen.py`` it runs every
distinct argv of ``generate(workload, seed)`` through ``quartpd.cli.main``
in-process, importing the package from this checkout's ``src``.  Tensor-file
inputs are written to a temporary directory, as the benchmark child does.
The output is one JSON object, keys sorted, mapping each input (its argv,
with a tensor file's document in place of its path) to
``[exit code, stdout, stderr]``; a JSON report's ``timings`` are removed.
Two checkouts agree when their outputs compare equal with ``cmp``.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import tempfile

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(_ROOT, "src"), os.path.join(_ROOT, "perfbench")]

import gen  # noqa: E402  (perfbench/gen.py)

from quartpd.cli import main as cli_main  # noqa: E402

WORKLOADS = ("binary-mix", "ternary-oracle", "catalog")


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    code = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            cli_main.main(args=list(argv), prog_name="quartpd")
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


def record(seeds, tmp: str) -> dict:
    results = {}
    for seed in seeds:
        for workload in WORKLOADS:
            for item in gen.generate(workload, seed):
                argv = list(item["argv"])
                key = json.dumps(argv if argv[1] is not None else [argv[0], item["doc"], *argv[2:]])
                if key in results:
                    continue
                if argv[1] is None:
                    argv[1] = os.path.join(tmp, "input.json")
                    with open(argv[1], "w") as fh:
                        json.dump(item["doc"], fh)
                code, out, err = _run(argv)
                results[key] = [code, _without_timings(out).replace(tmp, "<tmp>"), err.replace(tmp, "<tmp>")]
    return results


def main(args) -> int:
    if not args:
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
