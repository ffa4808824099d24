"""One benchmark child: a fresh interpreter that makes quartpd decisions.

Usage: child.py MODE JOB -- WARMUP_ARGV...

The child times one warming and ``SETUP_CHUNKS`` calibration chunks,
imports ``quartpd.cli`` from the checkout's ``src``, makes the warm-up
decision, times ``SETUP_CHUNKS`` more chunks and prints
``ready <import_ms> <numpy_loaded> <chunks_s> <cal_s>``: the wall time the
chunks took, which the parent takes off the set-up time it measures up to
that line, and the mean of the median chunk time on either side of the
import.  MODE ``setup`` stops there.  MODE ``measure`` then reads
the JSON job file and runs a closed loop (one decision at a time) for
``seconds``, with a calibration chunk between decisions every
``CAL_EVERY`` seconds; MODE ``trace`` runs the same loop
for a third of the time, then replays those decisions once untraced and
once with every public ``quartpd`` function wrapped in a span.  Either way the known-defect probes
run afterwards, untimed, and the outcome is written to ``job["out"]``.

A decision is one in-process call of the click group ``quartpd.cli.main``
with stdout captured, the exit code read from ``SystemExit`` and the
``--json`` report parsed.
"""

import contextlib
import io
import json
import os
import statistics
import sys
import time
from fractions import Fraction

_HERE = os.path.dirname(os.path.abspath(__file__))
_SRC = os.path.join(os.path.dirname(_HERE), "src")
CAL_EVERY = 0.025  # seconds of decisions between two calibration chunks
SETUP_CHUNKS = 3  # chunks timed on either side of set-up; their median counts


def calibrate():
    """Time one fixed chunk of pure-Python work that touches no quartpd code.

    The host's speed swings by half between fast and slow spells that last
    from a fraction of a second to minutes; the chunk's time, taken between
    decisions, tracks those swings so the parent can scale each decision's
    time to a fixed reference speed.  It imports nothing, so it leaves
    ``sys.modules`` and the resident set alone.
    """
    t0 = time.perf_counter()
    s = 0
    for i in range(6000):
        s += i * i % 7
    f = Fraction(0)
    third = Fraction(1, 3)
    for i in range(1, 100):
        f += Fraction(i, i + 1) * third
    return time.perf_counter() - t0


def _import_cli():
    sys.path.insert(0, _SRC)
    t0 = time.perf_counter()
    import quartpd.cli as cli

    import_ms = (time.perf_counter() - t0) * 1e3
    origin = os.path.realpath(cli.__file__)
    if not origin.startswith(os.path.realpath(_SRC) + os.sep):
        raise SystemExit(f"quartpd.cli was imported from {origin}, not from {_SRC}")
    return cli, import_ms


# One capture buffer for the life of the process, as a real stdout is: click
# caches a wrapper per stream object and never drops one, so a fresh buffer
# per decision would grow the child by about a kilobyte a decision.
_OUT, _ERR = io.StringIO(), io.StringIO()


def decide(main, argv):
    """Run one CLI decision; return (exit code, parsed report, error)."""
    out, err = _OUT, _ERR
    for buf in (out, err):
        buf.seek(0)
        buf.truncate()
    code, report, error = None, None, None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            main.main(args=list(argv), prog_name="quartpd")
        except SystemExit as exc:
            code = 0 if exc.code is None else exc.code
        except Exception as exc:  # a crashing decision is recorded, not fatal
            error = f"{type(exc).__name__}: {exc}"
    if error is None:
        try:
            report = json.loads(out.getvalue())
        except ValueError as exc:
            error = f"{type(exc).__name__}: report is not JSON ({exc})"
    return code, report, error


def summarize(report):
    """The fields of a report that the parent checks, and nothing else."""
    if report is None:
        return None
    if "reports" in report:  # inequalities
        return {
            "ok": report.get("ok"),
            "entries": [
                {k: r.get(k) for k in ("label", "as_expected", "exact_counterexample_value")}
                for r in report["reports"]
            ],
        }
    verdict = report.get("verdict", {})
    stages = [
        [s.get("stage"), s.get("kind"), s.get("rule")] for s in report.get("trace", []) if "kind" in s
    ]
    return {
        "kind": verdict.get("kind"),
        "rule": verdict.get("rule"),
        "witness": verdict.get("witness"),
        "stages": stages,
    }


class Outcomes:
    """Each distinct (exit code, error, summary) once, so that memory does
    not grow with the number of decisions; records refer to it by id."""

    def __init__(self):
        self.ids = {}

    def id(self, code, report, error):
        key = json.dumps([code, error, summarize(report)], sort_keys=True)
        return self.ids.setdefault(key, len(self.ids))

    def export(self):
        return [json.loads(key) for key in self.ids]


class Chunks:
    """Calibration chunks between decisions: one before the first, one
    after the last and one after any decision that ends ``CAL_EVERY`` s or
    more after the previous chunk, so every decision has a chunk on either
    side.  ``cals`` holds [number of decisions made so far, chunk time s]."""

    def __init__(self):
        self.cals = [[0, calibrate()]]
        self.last = time.perf_counter()

    def after(self, n, end, final=False):
        if final or end - self.last >= CAL_EVERY:
            self.cals.append([n, calibrate()])
            self.last = time.perf_counter()


def closed_loop(main, decisions, seconds, outcomes, chunks=None):
    """Send the next decision only after the previous one returns; cycle
    through ``decisions`` until ``seconds`` have passed.  A record is
    [decision index, latency s, outcome id]."""
    records = []
    deadline = time.perf_counter() + seconds
    while True:
        i = len(records) % len(decisions)
        t0 = time.perf_counter()
        code, report, error = decide(main, decisions[i])
        end = time.perf_counter()
        records.append([i, end - t0, outcomes.id(code, report, error)])
        if chunks is not None:
            chunks.after(len(records), end, end >= deadline)
        if end >= deadline:
            return records


def replay_loop(main, decisions, order, outcomes, tracer, chunks):
    """Make decisions ``order`` once each, inside a ``decision`` span when
    tracing; span decision ids are positions in ``order``."""
    records = []
    for k, i in enumerate(order):
        span = contextlib.nullcontext()
        if tracer is not None:
            tracer.decision = k
            span = tracer.span("decision")
        with span:
            t0 = time.perf_counter()
            code, report, error = decide(main, decisions[i])
            end = time.perf_counter()
        records.append([i, end - t0, outcomes.id(code, report, error)])
        chunks.after(len(records), end, k == len(order) - 1)
    return records


def main():
    mode, job_path = sys.argv[1], sys.argv[2]
    warmup = sys.argv[sys.argv.index("--") + 1 :]
    t0 = time.perf_counter()
    calibrate()  # the first chunk warms the interpreter up to the loop
    before = statistics.median(calibrate() for _ in range(SETUP_CHUNKS))
    chunks_s = time.perf_counter() - t0
    cli, import_ms = _import_cli()
    code, report, error = decide(cli.main, warmup)
    if error is not None or code not in (0, 1, 2, 3):
        raise SystemExit(f"warm-up decision failed: exit {code}, {error}")
    numpy_loaded = int("numpy" in sys.modules)
    t0 = time.perf_counter()
    after = statistics.median(calibrate() for _ in range(SETUP_CHUNKS))
    chunks_s += time.perf_counter() - t0
    print(f"ready {import_ms:.6f} {numpy_loaded} {chunks_s:.9f} {(before + after) / 2:.9f}", flush=True)
    if mode == "setup":
        return

    import resource

    with open(job_path) as fh:
        job = json.load(fh)
    decisions = job["decisions"]
    result = {}
    outcomes = Outcomes()
    if mode == "measure":
        chunks = Chunks()
        records = closed_loop(cli.main, decisions, job["seconds"], outcomes, chunks)
        result["cals"] = chunks.cals
    else:
        import tracing

        # a third of the time picks and warms the decisions; they are then
        # replayed untraced and traced, so the overhead compares like with like
        plain = closed_loop(cli.main, decisions, job["seconds"] / 3, outcomes)
        order = [r[0] for r in plain[: job["trace_cap"]]]
        result["warm"] = plain
        chunks = Chunks()
        result["untraced"] = replay_loop(cli.main, decisions, order, outcomes, None, chunks)
        result["untraced_cals"] = chunks.cals
        tracer = tracing.Tracer()
        tracer.install()
        try:
            chunks = Chunks()
            records = replay_loop(cli.main, decisions, order, outcomes, tracer, chunks)
            result["cals"] = chunks.cals
        finally:
            tracer.uninstall()
        result["spans"] = tracer.export()
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result["records"] = records
    result["outcomes"] = outcomes.export()
    result["probes"] = {}
    for name, argv in job["probes"].items():
        code, report, error = decide(cli.main, argv)
        result["probes"][name] = {"code": code, "error": error, "summary": summarize(report)}
    with open(job["out"], "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
