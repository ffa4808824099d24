"""``tools/parity.py --compare`` on small synthetic records: what it lets
through and what it fails."""

import importlib.util
import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

PARITY = Path(__file__).resolve().parents[1] / "tools" / "parity.py"

# binary shorthand with max |t| = 1000, and one with max |t| = 1/1000
KEY = json.dumps(["check", "binary", "1000", "0", "1", "0", "1", "--json"])
SMALL_KEY = json.dumps(["check", "binary", "1/1000", "0", "1/1000", "0", "1/1000", "--json"])


@pytest.fixture(scope="module")
def parity():
    path = list(sys.path)
    spec = importlib.util.spec_from_file_location("parity", PARITY)
    module = importlib.util.module_from_spec(spec)
    try:
        spec.loader.exec_module(module)
    finally:
        sys.path[:] = path  # the tool puts src and perfbench first
    return module


def record(margin=0.5, minimizer=(0.6, 0.8), stages=("prefilter", "oracle"), code=0, key=KEY):
    report = {
        "trace": [{"stage": s, "kind": "positive-definite"} for s in stages],
        "verdict": {
            "kind": "positive-definite",
            "margin": margin,
            "minimizer": list(minimizer),
        },
    }
    return {key: [code, json.dumps(report, indent=2, sort_keys=True), ""]}


def test_identical_records_pass(parity, capsys):
    assert parity.compare(record(), record()) == 0
    assert "0 with differing output" in capsys.readouterr().out


def test_a_float_margin_compares_exactly(parity, capsys):
    # every report writes margin as null; a float that comes back is not a
    # value float, so it must be equal, within no tolerance
    assert parity.compare(record(margin=0.5), record(margin=0.5 + 5e-10)) == 1
    out = capsys.readouterr().out
    assert "value floats differing: 0" in out
    assert "FAIL check /verdict/margin" in out and "tolerance" not in out


def test_minimizer_is_only_counted(parity, capsys):
    assert parity.compare(record(), record(minimizer=(0.8, 0.6))) == 0
    assert "point floats differing: 2 (not failing)" in capsys.readouterr().out


def test_trace_length_fails(parity, capsys):
    assert parity.compare(record(), record(stages=("prefilter",))) == 1
    assert "length 2 != 1" in capsys.readouterr().out


def test_exit_code_fails(parity, capsys):
    assert parity.compare(record(), record(code=1)) == 1
    assert "exit code or stderr" in capsys.readouterr().out


# a minimize input keyed by its tensor document, with max |t| = 8
MIN_KEY = json.dumps(["minimize", {"dim": 3, "entries": [
    {"index": [1, 1, 1, 1], "value": "8"}, {"index": [2, 2, 2, 2], "value": "1"},
    {"index": [3, 3, 3, 3], "value": "1"}]}, "--json"])


# the same with max |t| = 1/1000
SMALL_MIN_KEY = json.dumps(["minimize", {"dim": 3, "entries": [
    {"index": [1, 1, 1, 1], "value": "1/1000"}, {"index": [2, 2, 2, 2], "value": "1/1000"},
    {"index": [3, 3, 3, 3], "value": "1/1000"}]}, "--json"])


def minimize_record(min_value=0.5, zero_set=((0.6, 0.8, 0.0),), key=MIN_KEY):
    report = {"min_value": min_value, "minimizer": [0.0, 0.6, 0.8], "iterations": 4,
              "zero_set": [list(z) for z in zero_set], "degenerate": False}
    return {key: [0, json.dumps(report, indent=2, sort_keys=True), ""]}


def test_min_value_tolerance_scales_with_the_largest_entry(parity, capsys):
    # tolerance 1e-12 * 8
    assert parity.compare(minimize_record(), minimize_record(min_value=0.5 + 5e-12)) == 0
    assert "value floats differing: 1" in capsys.readouterr().out
    assert parity.compare(minimize_record(), minimize_record(min_value=0.5 + 2e-11)) == 1
    assert "tolerance 8e-12" in capsys.readouterr().out


def test_min_value_tolerance_shrinks_below_scale_one(parity, capsys):
    # tolerance 1e-12 * 1e-3 = 1e-15: no floor at scale 1
    old = minimize_record(min_value=5e-4, key=SMALL_MIN_KEY)
    assert parity.compare(old, minimize_record(min_value=5e-4 + 5e-16, key=SMALL_MIN_KEY)) == 0
    assert parity.compare(old, minimize_record(min_value=5e-4 + 5e-15, key=SMALL_MIN_KEY)) == 1
    assert "tolerance 1e-15" in capsys.readouterr().out


def test_zero_set_points_are_only_counted(parity, capsys):
    moved = minimize_record(zero_set=((0.8, 0.6, 0.0),))
    assert parity.compare(minimize_record(), moved) == 0
    assert "point floats differing: 2 (not failing)" in capsys.readouterr().out
    assert parity.compare(minimize_record(), minimize_record(zero_set=())) == 1
    assert "length 1 != 0" in capsys.readouterr().out


def indefinite_report(rule, witness, margin):
    verdict = {"kind": "indefinite", "rule": rule, "witness": list(witness), "margin": margin}
    passed = {"stage": "prefilter", "kind": "undetermined", "rule": "prefilter-passed"}
    return json.dumps({"trace": [passed, {"stage": "oracle", **verdict}], "verdict": verdict})


def catalog_report(holds):
    verdict = {"kind": "positive-semidefinite-not-definite", "rule": "boundary-alternating-signs"}
    return json.dumps({"reports": [{"holds": holds, "verdict": verdict}]})


def test_failures_are_grouped_by_class(parity, capsys):
    # a class is the command, the path without list indices and the rules
    old = {k: [2, indefinite_report("oracle-sphere-minimum", ("1", "-1"), -0.5), ""] for k in (KEY, SMALL_KEY)}
    new = {k: [2, indefinite_report("oracle-grid-witness", ("1", "-2"), -0.25), ""] for k in (KEY, SMALL_KEY)}
    ineq = json.dumps(["inequalities", "--only", "19u", "--json"])
    old[ineq], new[ineq] = [0, catalog_report(True), ""], [0, catalog_report(False), ""]
    assert parity.compare(old, new) == 1
    out = capsys.readouterr().out
    for field in ("trace/rule", "trace/witness", "trace/margin", "verdict/rule", "verdict/witness", "verdict/margin"):
        assert f"FAIL check /{field} [oracle-sphere-minimum -> oracle-grid-witness]: 2 inputs\n" in out
    assert "FAIL inequalities /reports/holds [boundary-alternating-signs -> boundary-alternating-signs]: 1 inputs\n" in out
    assert out.count("FAIL") == 7
    assert out.endswith("13 failures in 7 classes\n")


def test_minimize_covers_the_catalog_and_the_binary_boundary(parity, monkeypatch, tmp_path):
    # minimize runs on each dim-3 tensor file of ternary-oracle, on every
    # binary-mix input labelled psd_not_pd, on each catalog tensor and on
    # four dim-3 forms with zeros, written as tensor files; check runs on
    # each distinct benchmark input once, on those catalog and zero-set
    # tensors and their multiples by 2^64, and on tensor files whose entries
    # take the parse's slower branches
    from quartpd.cyclic import embed
    from quartpd.inequalities import builtin_catalog
    from quartpd.tensor import SymmetricTensor4
    from quartpd.tensorio import parse_document, to_tensor

    monkeypatch.setattr(parity, "_run", lambda argv: (0, "", ""))
    recorded = parity.record([101], str(tmp_path))
    keys = [json.loads(k) for k in recorded]
    distinct = {parity.key(item["argv"], item.get("doc")) for w in ("binary-mix", "ternary-oracle")
                for item in parity.gen.generate(w, 101)}
    checks = {k for k in recorded if json.loads(k)[0] == "check"}
    assert distinct <= checks
    docs = [k[1] for k in keys if k[0] == "minimize" and isinstance(k[1], dict)]
    ternary = [item["doc"] for item in parity.gen.generate("ternary-oracle", 101)
               if item["argv"][1] is None and item["dim"] == 3]
    assert all(doc in docs for doc in ternary) and len(ternary) == 80
    tensors = [to_tensor(parse_document(doc)).entries() for doc in docs]
    assert all(q.to_tensor().entries() in tensors for q in builtin_catalog())
    one, sixth = Fraction(1), Fraction(1, 6)
    with_zeros = [
        {(1, 1, 2, 2): sixth},  # x1^2 x2^2
        {(1, 1, 1, 1): one, (1, 1, 2, 2): 2 * sixth, (2, 2, 2, 2): one},  # (x1^2 + x2^2)^2
        {(1, 1, 2, 2): sixth, (3, 3, 3, 3): one},  # x1^2 x2^2 + x3^4
        embed(1, 1, -1, 1, "-7/12").entries(),  # the cyclic boundary form
    ]
    assert all(entries in tensors for entries in with_zeros)
    assert len(docs) == len(ternary) + len(builtin_catalog()) + len(with_zeros)
    fixed = [q.to_tensor() for q in builtin_catalog()] + [SymmetricTensor4(3, e) for e in with_zeros]
    slow = parity._slow_path_documents()
    extra = [json.loads(k)[1] for k in checks - distinct]
    assert all(doc in extra for doc in slow) and len(extra) == 44 + len(slow)
    scaled = {to_tensor(parse_document(doc)) for doc in extra if doc not in slow}
    assert scaled == {T.scale(c) for T in fixed for c in (1, 2**64)}
    indices = [e["index"] for doc in slow for e in doc["entries"]]
    values = [e["value"] for doc in slow for e in doc["entries"]]
    assert any(i != sorted(i) for i in indices) and "2/4" in values and 0 in values
    assert any(type(v) is int for v in values) and any(isinstance(v, str) and "." in v for v in values)
    binary = {tuple(k) for k in keys if k[0] == "minimize" and k[1] == "binary"}
    boundary = [item["argv"] for item in parity.gen.generate("binary-mix", 101) if item["label"] == "psd_not_pd"]
    assert binary == {("minimize", *argv[1:]) for argv in boundary} and len(boundary) == 236
    assert all(argv[-1] == "--json" for argv in binary)
