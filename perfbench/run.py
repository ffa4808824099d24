"""quartpd benchmark: decision throughput and latency per decision path.

    python3 perfbench/run.py --workload binary-mix --seed 1 --seconds 20 --trace 0

Workloads (see BENCHMARK.json for why each was chosen): ``binary-mix``,
``ternary-oracle`` and ``catalog``.  Inputs are generated from the seed and
their labels verified in exact arithmetic before anything runs.  Each run
starts fresh child interpreters (``child.py``) that import ``quartpd`` from
this checkout's ``src``: a few that only set up, for the set-up time, and
one that runs a closed loop of decisions, one client and one thread.

With ``--trace 0`` the run reports the end-to-end metrics; with
``--trace 1`` the child replays its decisions with every public
``quartpd`` function wrapped in a span and the run reports per-layer
metrics.  Every decision's output is checked against its label.  The last
stdout line is the JSON result; a fuller report with the stratum census,
each failure and the known-defect probes goes to
``.bench_out/<workload>-seed<seed>-trace<t>/report.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import gen  # noqa: E402
import tracing  # noqa: E402
from exact import check_certificate, form_value  # noqa: E402

WORKLOADS = ("binary-mix", "ternary-oracle", "catalog")
# set-up samples besides the measuring child's own: half before it, half
# after, so that they fall in more than one of the host's speed spells
SETUP_CHILDREN = 8
# The time of one calibration chunk (``child.calibrate``) at the reference
# speed; times are reported scaled to that speed (see ``_scaled_latencies``).
# On the 2-vCPU host the benchmark was tuned on, a chunk takes 0.7-0.8 ms in
# the host's fast spells and 1.1-1.3 ms in its slow ones.
REF_CAL_S = 0.001
# Set-up time grows as the chunk time to this power, not in proportion: part
# of it is the kernel starting a process and reading files, which the host's
# slow spells slow less than Python code.  Fitted (least squares on logs)
# over 971 set-ups spread across four minutes on the tuning host: 0.68-0.76.
SETUP_ELASTICITY = 0.7
TRACE_CAP = 600  # decisions replayed under tracing, to bound span memory
EXIT = {
    "positive-definite": 0,
    "positive-semidefinite-not-definite": 1,
    "positive-semidefinite": 1,
    "indefinite": 2,
    "undetermined": 3,
}
ALLOWED = {
    "pd": {"positive-definite", "positive-semidefinite"},
    "psd_not_pd": {"positive-semidefinite-not-definite", "positive-semidefinite"},
    "indefinite": {"indefinite"},
}


class BenchError(RuntimeError):
    """The benchmark cannot produce a result (missing program, crashed child)."""


def _spawn(mode, job_path, warmup, timeout):
    """Start a child; return (process, set-up seconds, (import ms, numpy
    loaded, calibration chunk s)).  The set-up time leaves out the child's
    calibration chunks."""
    # a fixed hash seed, so that the layout of every dict and set, and with
    # it the speed of a run, does not change from one child to the next
    env = {**os.environ, "PYTHONHASHSEED": "0"}
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "child.py"), mode, job_path, "--", *warmup],
        stdout=subprocess.PIPE,
        text=True,
        cwd=ROOT,
        env=env,
    )
    try:
        if not select.select([proc.stdout], [], [], timeout)[0]:
            raise BenchError(f"child did not set up within {timeout} s")
        line = proc.stdout.readline()
        setup = time.perf_counter() - t0
        if not line.startswith("ready "):
            proc.wait(timeout=timeout)
            raise BenchError(f"child did not set up (exit {proc.returncode})")
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    _, import_ms, numpy_loaded, chunks_s, cal_s = line.split()
    return proc, setup - float(chunks_s), (float(import_ms), int(numpy_loaded), float(cal_s))


def _finish(proc, timeout):
    try:
        proc.stdout.read()
        proc.wait(timeout=timeout)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        raise BenchError(f"child exited with {proc.returncode}")


def _fail_reason(item, code, error, summary):
    """None if the decision's output is correct for its input, else why not."""
    if error is not None:
        return error
    if code not in (0, 1, 2, 3):
        return f"exit code {code}"
    if item["label"] == "catalog":
        entries = summary["entries"]
        if code != 0 or len(entries) != 1 or entries[0]["label"] != item["entry"]:
            return f"catalog entry {item['entry']}: exit {code}, {len(entries)} reports"
        if not entries[0]["as_expected"]:
            return f"catalog entry {item['entry']} not as expected"
        if item["fail_point"] is not None:
            exact = gen.catalog_value(item["weights"], item["fail_point"])
            if Fraction(entries[0]["exact_counterexample_value"] or "nan") != exact or not exact < 0:
                return f"catalog entry {item['entry']}: counterexample value differs"
        return None
    kind = summary["kind"]
    if kind == "undetermined":
        return f"undetermined on a {item['label']} input"
    if kind not in ALLOWED[item["label"]]:
        return f"{kind} on a {item['label']} input"
    if EXIT[kind] != code:
        return f"exit code {code} for {kind}"
    if kind == "indefinite":
        if not summary["witness"]:
            return "indefinite without a witness"
        if not _witness_ok(item, summary["witness"]):
            return "witness is not negative"
    return None


def _witness_ok(item, w):
    """The program's witness, re-evaluated by the benchmark's own evaluator."""
    return len(w) == item["dim"] and form_value(item["dim"], item["tensor"], [Fraction(v) for v in w]) < 0


def _check_records(items, records, outcomes, failures):
    """Count failed decisions, appending each failure to ``failures``."""
    reasons, failed = {}, 0
    for i, _, o in records:
        if (i, o) not in reasons:
            reasons[i, o] = _fail_reason(items[i], *outcomes[o])
        if reasons[i, o] is not None:
            failed += 1
            failures.append({"stratum": items[i]["stratum"], "argv": items[i]["argv"], "reason": reasons[i, o]})
    return failed


def _deciding_stage(item, summary):
    if summary is None:
        return "no-report"
    if item["label"] == "catalog":
        return "inequalities:" + item["stratum"]
    stage = next((s for s in summary["stages"] if s[1] != "undetermined"), None)
    return f"{stage[0]}:{stage[2]}" if stage else "undecided"


def _scaled_latencies(records, cals):
    """Each decision's time at the reference speed: its wall time times
    ``REF_CAL_S`` over the mean of the calibration chunks on either side of
    it.  The host's speed swings by half between spells that can be shorter
    than a second, so each decision is scaled by the chunks next to it; the
    share of slow spells in a run then no longer moves its figures."""
    out, c = [], 0
    for j, (_, lat, _) in enumerate(records):
        while c + 1 < len(cals) and cals[c + 1][0] <= j:
            c += 1
        out.append(lat * REF_CAL_S / ((cals[c][1] + cals[c + 1][1]) / 2))
    return out


def _quantile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _prepare(workload, seed, work):
    """Generate and verify the inputs; write tensor files and the job."""
    items = gen.generate(workload, seed)
    probes = gen.probes()
    for item in [*items, *probes.values()]:
        if "cert" in item:
            check_certificate(item["dim"], item["tensor"], item["label"], item["cert"])
    inputs = os.path.join(work, "inputs")
    os.makedirs(inputs, exist_ok=True)

    def place(name, doc):
        path = os.path.join(inputs, f"{name}.json")
        with open(path, "w") as fh:
            json.dump(doc, fh)
        return path

    for item in items:
        if item["argv"][1] is None:
            item["argv"][1] = place(f"t{item['id']}", item["doc"])
    for name, item in probes.items():
        if item["argv"][1] is None:
            item["argv"][1] = place(name, item["doc"])
    warmup = [place("warmup", gen.WARMUP_DOC) if a == "@warmup" else a for a in gen.WARMUP[workload]]
    return items, probes, warmup


def _run_children(job_path, out_path, warmup, seconds, trace):
    """Set up half of ``SETUP_CHILDREN`` children, run the measuring one,
    then set up the other half; return [set-up s, calibration chunk s] of
    each, import times, whether numpy was loaded, and the measuring child's
    output."""
    setups, imports = [], []

    def set_up_only(n):
        for _ in range(n):
            proc, setup, (import_ms, _, cal) = _spawn("setup", job_path, warmup, 60)
            _finish(proc, 60)
            setups.append([setup, cal])
            imports.append(import_ms)

    set_up_only(SETUP_CHILDREN // 2)
    proc, setup, (import_ms, numpy_loaded, cal) = _spawn("trace" if trace else "measure", job_path, warmup, 60)
    _finish(proc, 3 * seconds + 60)
    setups.append([setup, cal])
    imports.append(import_ms)
    set_up_only(SETUP_CHILDREN - SETUP_CHILDREN // 2)
    with open(out_path) as fh:
        return setups, imports, numpy_loaded, json.load(fh)


def _print_report(report):
    print(f"{report['workload']} seed {report['seed']} trace {report['trace']}: "
          f"{report['attempted']} decisions, {report['failed']} failed, "
          f"{report['latency_samples']} latency samples")
    print(f"failed_share = {report['failed_share']:.6g} ratio")
    print("census: " + ", ".join(f"{k} {100 * v:.1f}%" for k, v in report["census"].items()))
    print("strata: " + ", ".join(f"{s} n={v['n']} p50={v['p50_ms']:.2f}ms" for s, v in report["strata"].items()))
    for name, p in report["known_defects"].items():
        print(f"known defect {name}: {p['status']} ({p['observed']})")
    for f in report["failures"][:10]:
        print(f"FAILED {f['stratum']} {' '.join(f['argv'])}: {f['reason']}")
    for p in report["trace_problems"][:10]:
        print(f"TRACE PROBLEM {p}")
    cal = report["calibration"]
    if report["unscaled_metrics"] is not None:
        print(f"calibration chunk: median {cal['run_chunk_median_ms']:.4g} ms of {cal['run_chunks']} "
              f"(reference {cal['ref_ms']:.4g} ms); unscaled: "
              + ", ".join(f"{k} {v:.6g}" for k, v in report["unscaled_metrics"].items()))
    for k, m in report["metrics"].items():
        print(f"{k} = {m['value']:.6g} {m['unit']}")


def run(workload, seed, seconds, trace):
    if not os.path.isfile(os.path.join(ROOT, "src", "quartpd", "cli.py")):
        raise BenchError(f"no quartpd sources under {os.path.join(ROOT, 'src')}")
    work = os.path.join(ROOT, ".bench_out", f"{workload}-seed{seed}-trace{trace}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    items, probes, warmup = _prepare(workload, seed, work)
    job_path = os.path.join(work, "job.json")
    out_path = os.path.join(work, "child.json")
    with open(job_path, "w") as fh:
        json.dump(
            {
                "decisions": [it["argv"] for it in items],
                "seconds": seconds,
                "trace_cap": TRACE_CAP,
                "probes": {n: p["argv"] for n, p in probes.items()},
                "out": out_path,
            },
            fh,
        )

    setups, imports, numpy_loaded, child = _run_children(job_path, out_path, warmup, seconds, trace)

    failures = []
    records, outcomes = child["records"], child["outcomes"]
    untraced = child.get("untraced", [])
    others = child.get("warm", []) + untraced
    failed = _check_records(items, records + others, outcomes, failures)
    attempted = len(records) + len(others)

    census = Counter(_deciding_stage(items[i], outcomes[o][2]) for i, _, o in records)
    latencies = _scaled_latencies(records, child["cals"])
    strata = defaultdict(list)
    for r, lat in zip(records, latencies):
        strata[items[r[0]]["stratum"]].append(lat * 1e3)
    probe_status = {}
    for name, p in probes.items():
        o = child["probes"][name]
        reason = _fail_reason(p, o["code"], o["error"], o["summary"])
        probe_status[name] = {"defect": p["defect"], "status": "reproduces" if reason else "fixed", "observed": reason}

    problems = []
    raw = None
    if trace:
        summaries = [outcomes[o][2] or {} for _, _, o in records]
        unsettled = {d for d, s in enumerate(summaries) if s.get("stages", [[]])[0][:2] == ["prefilter", "undetermined"]}
        layer, problems = tracing.layer_metrics(child["spans"], unsettled)
        overhead = (sum(latencies) - sum(_scaled_latencies(untraced, child["untraced_cals"]))) / len(records)
        layer.update(
            {
                "import.quartpd_ms": statistics.median(imports),
                "import.numpy_loaded": numpy_loaded,
                "trace.overhead_ms": overhead * 1e3,
            }
        )
        values, section = layer, "per_layer"
    else:
        wall = [r[1] for r in records]
        raw = {
            "decisions_per_s": len(wall) / sum(wall),
            "latency_p50_ms": _quantile(wall, 50) * 1e3,
            "latency_p90_ms": _quantile(wall, 90) * 1e3,
            "setup_s": statistics.median(s for s, _ in setups),
        }
        values, section = {
            "decisions_per_s": len(latencies) / sum(latencies),
            "latency_p50_ms": _quantile(latencies, 50) * 1e3,
            "latency_p90_ms": _quantile(latencies, 90) * 1e3,
            "setup_s": statistics.median(s * (REF_CAL_S / c) ** SETUP_ELASTICITY for s, c in setups),
            "peak_rss_mb": child["peak_rss_mb"],
        }, "end_to_end"
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)[section]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec}

    report = {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "attempted": attempted,
        "failed": failed,
        "failed_share": failed / attempted,
        "latency_samples": len(latencies),
        "setup_samples_s": [s for s, _ in setups],
        "calibration": {
            "ref_ms": REF_CAL_S * 1e3,
            "setup_chunk_ms": [c * 1e3 for _, c in setups],
            "run_chunks": len(child.get("cals", [])),
            "run_chunk_median_ms": statistics.median(c for _, c in child["cals"]) * 1e3,
        },
        "unscaled_metrics": raw,
        "census": {k: v / len(records) for k, v in census.most_common()},
        "strata": {
            s: {"n": len(v), "p50_ms": statistics.median(v), "max_ms": max(v)} for s, v in sorted(strata.items())
        },
        "failures": failures,
        "trace_problems": problems,
        "known_defects": probe_status,
        "metrics": metrics,
    }
    with open(os.path.join(work, "report.json"), "w") as fh:
        json.dump(report, fh, indent=1)

    _print_report(report)
    print(f"report: {os.path.relpath(os.path.join(work, 'report.json'), ROOT)}")
    return {"correct": failed == 0 and not problems, "attempted": attempted, "failed": failed, "metrics": metrics}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    try:
        result = run(args.workload, args.seed, args.seconds, args.trace)
    except (BenchError, OSError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
