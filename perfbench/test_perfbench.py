"""Tests of the benchmark itself: labels, the exact checker, span analysis
and the scaling of times to the reference speed.

    python3 -m pytest perfbench -q
"""

import os
import sys
from fractions import Fraction as F

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import exact  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402


@pytest.mark.parametrize("workload", ["binary-mix", "ternary-oracle"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_every_generated_label_verifies(workload, seed):
    items = gen.generate(workload, seed)
    for item in items:
        exact.check_certificate(item["dim"], item["tensor"], item["label"], item["cert"])


def test_catalog_counterexamples_are_negative():
    for label, (weights, fail) in gen.CATALOG.items():
        if fail is not None:
            assert gen.catalog_value(tuple(F(w) for w in weights), fail) < 0, label
    assert gen.catalog_value((19, 14, 14), (F(-6, 5), 5, 1)) == F(-145240, 6250)


def test_probe_labels_verify():
    for name, item in gen.probes().items():
        exact.check_certificate(item["dim"], item["tensor"], item["label"], item["cert"])


def test_same_seed_same_inputs_and_fixed_shares():
    a, b = gen.generate("binary-mix", 7), gen.generate("binary-mix", 7)
    assert [i["argv"] for i in a] == [i["argv"] for i in b]
    assert [i["argv"] for i in a] != [i["argv"] for i in gen.generate("binary-mix", 8)]
    size = sum(gen.BINARY_BLOCK.values())
    for start in range(0, len(a), size):
        block = [i["stratum"] for i in a[start : start + size]]
        assert {s: block.count(s) for s in gen.BINARY_BLOCK} == gen.BINARY_BLOCK


def test_exact_evaluator_on_known_values():
    def cyclic(a, b, c, d, e):
        return exact.tensor_from_poly(3, gen._cyclic_poly([F(v) for v in (a, b, c, d, e, e, e)]))

    assert exact.form_value(3, cyclic(1, 1, 1, 1, F(-7, 12)), (1, 1, -5)) == -204
    assert exact.form_value(3, cyclic(1, -1, -1, 1, F(-7, 12)), (1, 1, 1)) == -24
    assert exact.form_value(3, cyclic(1, -1, 1, 1, F(-7, 12)), (1, 1, 1)) == 0


def test_checker_rejects_false_certificates():
    square = {(1, 1): F(1), (0, 2): F(-2)}  # xy - 2y^2
    poly = exact.poly_add(exact.poly_mul(square, square), exact.power_sum4(2))
    tensor = exact.tensor_from_poly(2, poly)
    good = {"kind": "sos", "squares": [(F(1), square)], "eps": F(1), "zero": None}
    exact.check_certificate(2, tensor, "pd", good)
    with pytest.raises(AssertionError):
        exact.check_certificate(2, tensor, "pd", {**good, "eps": F(2)})
    with pytest.raises(AssertionError):
        exact.check_certificate(2, tensor, "psd_not_pd", {**good, "zero": (F(1), F(0))})
    with pytest.raises(AssertionError):
        exact.check_certificate(2, tensor, "indefinite", {"kind": "witness", "point": (F(2), F(1))})


def _span(name, t0, t1, parent, decision=0):
    return (name, t0, t1, parent, decision, None)


def test_self_times_sum_to_the_decision():
    spans = [_span(0, 0.0, 10.0, -1), _span(1, 1.0, 4.0, 0), _span(2, 2.0, 3.0, 1), _span(1, 5.0, 9.0, 0)]
    selfs, problems = tracing.self_times(spans)
    assert problems == []
    assert selfs == [3.0, 2.0, 1.0, 4.0]
    assert sum(selfs) == 10.0


@pytest.mark.parametrize(
    "spans",
    [
        [_span(0, 0.0, 10.0, -1), _span(1, 1.0, 11.0, 0)],  # child outlives its parent
        [_span(0, 0.0, 10.0, -1), _span(1, 1.0, 5.0, 0), _span(1, 4.0, 6.0, 0)],  # siblings overlap
        [_span(0, 0.0, 10.0, -1, 0), _span(1, 1.0, 2.0, 0, 1)],  # child in another decision
    ],
)
def test_self_times_flag_bad_nesting(spans):
    assert tracing.self_times(spans)[1]


def test_tracer_wraps_every_binding():
    sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
    cli = pytest.importorskip("quartpd.cli")
    import quartpd.oracle as oracle

    import child

    original = oracle.classify_numeric
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert cli.classify_numeric is oracle.classify_numeric is not original
        tracer.decision = 0
        with tracer.span("decision"):
            code, report, error = child.decide(cli.main, ["check", "binary", "1", "0", "-1/3", "0", "1", "--json"])
    finally:
        tracer.uninstall()
    assert oracle.classify_numeric is original and cli.classify_numeric is original
    assert (code, error, report["verdict"]["kind"]) == (1, None, "positive-semidefinite-not-definite")
    trace = tracer.export()
    names = [trace["names"][s[0]] for s in trace["spans"]]
    assert names.count("binary.classify") == 2  # prefilter and analytic stage
    assert "oracle.classify_numeric" not in names
    metrics, problems = tracing.layer_metrics(trace, unsettled={0})
    assert problems == []
    assert metrics["binary.classify.calls_per_unsettled_decision"] == 2


def test_latencies_scale_by_the_chunks_either_side():
    # chunks [decisions made so far, chunk s]: 2 ms before the first two
    # decisions and after them, 1 ms after the third
    records = [[0, 0.010, 0], [1, 0.010, 0], [2, 0.010, 0]]
    cals = [[0, 0.002], [2, 0.002], [3, 0.001]]
    scaled = run._scaled_latencies(records, cals)
    ref = run.REF_CAL_S
    assert scaled == pytest.approx([0.010 * ref / 0.002, 0.010 * ref / 0.002, 0.010 * ref / 0.0015])
