import json
import math
import os
import re
import subprocess
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import pytest

import quartpd
from quartpd import bernstein, binary, cli, oracle, pipeline, tensorio
from quartpd.binary import BinaryQuartic
from quartpd.cli import main
from quartpd.cyclic import embed
from quartpd.oracle import OracleConfig
from quartpd.tensor import SymmetricTensor4
from quartpd.tensorio import InputError, load, parse_document, parse_shorthand, to_tensor
from quartpd.verdict import Kind, Verdict, _check_digits, as_fraction

from conftest import DEEP_NEEDLE, SRC_ENV, ZERO_CORNERS, strict_json

DIGIT_LIMIT = sys.get_int_max_str_digits()


class TestParsing:
    def test_file_format(self, tmp_path):
        doc = {
            "dim": 3,
            "entries": [
                {"index": [1, 1, 1, 1], "value": "1"},
                {"index": [3, 2, 1, 1], "value": "-7/12"},  # non-canonical order
            ],
        }
        p = tmp_path / "t.json"
        p.write_text(json.dumps(doc))
        T = load(str(p))
        assert isinstance(T, SymmetricTensor4)
        assert T[(1, 1, 2, 3)] == Fraction(-7, 12)

    def test_decimal_values_exact(self):
        doc = {"dim": 2, "entries": [{"index": [1, 1, 1, 1], "value": "-1.2"}]}
        T = parse_document(doc)
        assert T[(1, 1, 1, 1)] == Fraction(-6, 5)

    def test_shorthand(self):
        # a shorthand parses to its family's name and exact coefficients
        q = parse_shorthand("binary", ["1", "0", "-1/3", "0", "1"])
        assert q == tensorio.Shorthand("binary", (1, 0, Fraction(-1, 3), 0, 1))
        ct = parse_shorthand("cyclic", ["1", "-1", "1", "1", "-1/6"])
        assert ct == tensorio.Shorthand("cyclic", (1, -1, 1, 1, Fraction(-1, 6)))
        rt = parse_shorthand("relaxed", ["1", "-1", "1", "1", "-1/4", "-1/4", "-1.25"])
        assert rt == tensorio.Shorthand("relaxed", (1, -1, 1, 1, Fraction(-1, 4), Fraction(-1, 4), Fraction(-5, 4)))
        assert all(type(v) is Fraction for v in q.coeffs + ct.coeffs + rt.coeffs)

    @pytest.mark.parametrize("family, coeffs", [
        ("binary", "1 0 -1/3 0 1.5"),
        ("cyclic", "1 -1 1 1 -1/6"),
        ("relaxed", "1 -1 1 1 -1/4 -1/5 -1/6"),
    ])
    def test_shorthand_round_trips_through_describe(self, family, coeffs):
        parsed = parse_shorthand(family, coeffs.split())
        doc = tensorio.describe(parsed)
        assert doc == {"family": family, "coeffs": [str(v) for v in parsed.coeffs]}
        assert parse_shorthand(doc["family"], doc["coeffs"]) == parse_document(doc) == parsed

    def test_errors_name_field(self):
        with pytest.raises(InputError, match="dim"):
            parse_document({"entries": []})
        with pytest.raises(InputError, match="entries\\[0\\].index"):
            parse_document({"dim": 2, "entries": [{"index": [1, 1, 3, 1], "value": "1"}]})
        with pytest.raises(InputError, match="entries\\[0\\].value"):
            parse_document({"dim": 2, "entries": [{"index": [1, 1, 1, 1], "value": "x"}]})
        with pytest.raises(InputError, match="family"):
            parse_shorthand("hexagonal", ["1"])
        with pytest.raises(InputError, match="5 coefficients"):
            parse_shorthand("binary", ["1", "2"])

    def test_json_booleans_rejected(self, runner, tmp_path):
        # JSON true/false load as Python bools, which are ints too
        for doc, field in (
            ({"dim": True, "entries": [{"index": [True, 1, 1, 1], "value": True}]}, "dim"),
            ({"dim": 1, "entries": [{"index": [True, 1, 1, 1], "value": "1"}]}, "entries[0].index"),
            ({"dim": 1, "entries": [{"index": [1, 1, 1, 1], "value": False}]}, "entries[0].value"),
            ({"family": "binary", "coeffs": [True, 0, 1, 0, 1]}, "coefficient"),
        ):
            p = tmp_path / "bool.json"
            p.write_text(json.dumps(doc))
            res = runner.invoke(main, ["check", str(p)])
            assert res.exit_code == 64
            assert f"input error: {field}:" in res.output

    def test_entries_must_be_a_list(self, runner, tmp_path):
        with pytest.raises(InputError, match="entries: list expected"):
            parse_document({"dim": 2, "entries": 5})
        p = tmp_path / "entries.json"
        p.write_text(json.dumps({"dim": 2, "entries": 5}))
        res = runner.invoke(main, ["check", str(p)])
        assert res.exit_code == 64
        assert "input error: entries: list expected" in res.output

    def test_conflicting_slot_values(self):
        doc = {
            "dim": 2,
            "entries": [
                {"index": [1, 1, 1, 2], "value": "1"},
                {"index": [1, 1, 2, 1], "value": "2"},
            ],
        }
        with pytest.raises(InputError, match="conflicting"):
            parse_document(doc)

    def test_json_integer_beyond_digit_limit(self, runner, tmp_path):
        # json.dumps cannot write it either, so the document is spelled out
        p = tmp_path / "long.json"
        p.write_text('{"dim": 1, "entries": [{"index": [1, 1, 1, 1], "value": 1%s}]}' % ("0" * 5000))
        with pytest.raises(InputError, match="document:"):
            load(str(p))
        res = runner.invoke(main, ["check", str(p)])
        assert res.exit_code == 64
        assert res.output.startswith("input error: document:")

    @pytest.mark.parametrize("text", [
        "[" * 100_000 + "]" * 100_000,
        '{"dim": 2, "entries": ' + "[" * 100_000 + "]" * 100_000 + "}",
    ], ids=["array", "entries"])
    def test_json_nested_beyond_the_stack(self, runner, tmp_path, text):
        p = tmp_path / "deep.json"
        p.write_text(text)
        with pytest.raises(InputError, match="document: nested too deeply"):
            load(str(p))
        res = runner.invoke(main, ["check", str(p)])
        assert res.exit_code == 64
        assert res.output == "input error: document: nested too deeply\n"

    def test_decimal_digit_limit(self, runner, tmp_path):
        # 10**4299 and its inverse have 4300 digits, the interpreter's limit
        assert as_fraction("1_0e4_298") == 10**4299
        assert as_fraction("1e-4299") == Fraction(1, 10**4299)
        assert as_fraction("-1.25e3") == -1250
        for value in ("1e1000000", "-2.5E+10000000", "1e-1000000", "1e4300", "." + "1" * 4300):
            with pytest.raises(ValueError, match="4300-digit limit"):
                as_fraction(value)
            path = write_tensor(tmp_path, 1, {(1, 1, 1, 1): value})
            res = runner.invoke(main, ["check", path])
            assert res.exit_code == 64
            assert res.output.startswith("input error: entries[0].value:")
            res = runner.invoke(main, ["check", "binary", "1", "0", value, "0", "1"])
            assert res.exit_code == 64
            assert res.output.startswith("input error: coefficient:")

    @pytest.mark.parametrize("value", [
        "0", "-0", "007", "-7/2", "2/4", "-3/6", "1/0", "+1", " 1", "1_000", "1.25", "1e-3",
        "\u0661",  # an Arabic-Indic digit one
        "1/-2", "", "-",
        *(  # digit strings about the int-string digit limit
            pytest.param("7" * (DIGIT_LIMIT + n), id=f"limit{n:+d}-digits") for n in (-1, 0, 1)
        ),
        7, True, 1.5,  # a JSON int, true and a float
    ])
    def test_parse_converts_each_value_as_as_fraction_does(self, value):
        # as_fraction's short "p/q" branch gives the Fraction or error text of
        # the limit check and Fraction(text), and a shorthand and a document
        # report the same value or error, at the default digit limit and at
        # a lower one set at run time
        def outcome(convert):
            try:
                return convert()
            except (ValueError, ZeroDivisionError, TypeError) as exc:
                return type(exc), str(exc)

        def reference():
            _check_digits(value)
            return Fraction(value)

        doc = {"dim": 1, "entries": [{"index": [1, 1, 1, 1], "value": value}]}
        try:
            for limit in (DIGIT_LIMIT, 640):
                sys.set_int_max_str_digits(limit)
                expected = outcome(lambda: as_fraction(value))
                if isinstance(value, str):
                    assert expected == outcome(reference)
                for parse, field in [
                    (lambda: parse_shorthand("binary", [value] * 5).coeffs[0], "coefficient"),
                    (lambda: parse_document(doc)[1, 1, 1, 1], "entries[0].value"),
                ]:
                    got = outcome(parse)
                    if type(expected) is tuple:
                        assert got == (InputError, f"{field}: {expected[1]}")
                    else:
                        assert got == expected and type(got) is Fraction
        finally:
            sys.set_int_max_str_digits(DIGIT_LIMIT)

    def test_to_tensor_roundtrip(self, runner, monkeypatch):
        # each family's tensor is the one check decides
        decided = []
        monkeypatch.setattr(cli, "classify", lambda T: decided.append(T) or pipeline.classify(T))
        binary_T = SymmetricTensor4(2, {(1, 1, 1, 1): 1, (1, 1, 2, 2): Fraction(-1, 3), (2, 2, 2, 2): 1})
        for family, coeffs, T in [
            ("binary", "1 0 -1/3 0 1", binary_T),
            ("cyclic", "1 -1 1 1 -1/6", embed(1, -1, 1, 1, "-1/6")),
            ("relaxed", "1 -1 1 1 -1/4 -1/5 -1/6", embed(1, -1, 1, 1, "-1/4", "-1/5", "-1/6")),
        ]:
            assert to_tensor(parse_shorthand(family, coeffs.split())) == T
            runner.invoke(main, ["check", family, *coeffs.split()])
            assert decided.pop() == T and not decided


class TestPipeline:
    def test_family_stage_decides(self):
        rep = quartpd.classify(embed(1, -1, 1, 1, "-1/6"))
        assert rep.verdict.kind is Kind.POSITIVE_DEFINITE
        stages = [stage for stage, _ in rep.trace]
        assert stages == ["prefilter", "family"]

    def test_scaled_family_input(self):
        # a = 2: the family rules read the orbit values divided by a
        rep = quartpd.classify(embed(2, -2, 2, 2, "-1/3"))
        assert rep.verdict.kind is Kind.POSITIVE_DEFINITE
        assert [stage for stage, _ in rep.trace] == ["prefilter", "family"]
        assert rep.trace[-1][1].kind is Kind.POSITIVE_DEFINITE

    @pytest.mark.parametrize(
        "parsed",
        [
            SymmetricTensor4(1, {(1, 1, 1, 1): 1}),
            parse_shorthand("binary", "1 0 -1/3 0 1".split()),
            parse_shorthand("cyclic", "2 -2 2 2 -1/3".split()),
            parse_shorthand("cyclic", "0 0 0 1 0".split()),  # the family rules decline a = 0
            SymmetricTensor4(4, {(i, i, i, i): 1 for i in range(1, 5)}),
            parse_shorthand("cyclic", "1 -1 1 1 0".split()),  # refuted by the Bernstein stage
        ],
    )
    def test_every_trace_entry_has_stage_and_kind(self, parsed):
        rep = quartpd.classify(to_tensor(parsed))
        assert rep.trace
        for stage, verdict in rep.trace:
            assert isinstance(stage, str)
            assert isinstance(verdict.kind, Kind)
        # decide times each stage it runs, and only those
        assert list(rep.seconds) == [stage for stage, _ in rep.trace]
        assert all(s >= 0 for s in rep.seconds.values())

    def test_oracle_only_agrees_with_analytic(self):
        # the oracle's minimum alone never contradicts the pipeline's exact
        # verdict: it is negative where the pipeline refutes, positive on
        # the PD forms, and clear of zero either way
        for parsed in (
            parse_shorthand("cyclic", "1 -1 1 1 -1/6".split()),
            parse_shorthand("binary", "1 -1 1 1 1".split()),
            parse_shorthand("cyclic", "1 1 1 1 -7/12".split()),
        ):
            a = quartpd.classify(to_tensor(parsed))
            assert a.verdict.kind in (Kind.POSITIVE_DEFINITE, Kind.INDEFINITE)
            minimum = oracle.sphere_minimize(to_tensor(parsed)).min_value
            assert (minimum < 0) is (a.verdict.kind is Kind.INDEFINITE)
            assert abs(minimum) > 1e-6

    def test_oracle_only_is_gone(self, runner):
        # the stage order has no switch: --oracle-only is an unknown option,
        # and classify takes the tensor alone, so an old positional
        # (oracle_only, analytic_only) call fails rather than run other stages
        res = runner.invoke(main, ["check", "binary", "1", "0", "1", "0", "1", "--oracle-only"])
        assert res.exit_code == 64
        assert res.output == "input error: no such option: --oracle-only\n"
        with pytest.raises(TypeError):
            quartpd.classify(BinaryQuartic.of(1, 0, 1, 0, 1).to_tensor(), OracleConfig(), True)

    @pytest.mark.parametrize(
        "T, calls",
        [
            (embed(1, -1, 1, 1, "-1/6"), 0),  # PD by the family rules
            (BinaryQuartic.of(1, 0, "-1/3", 0, 1).to_tensor(), 0),  # the binary criterion
            (SymmetricTensor4(3, {(1, 1, 1, 1): 1, (2, 2, 2, 2): 1, (3, 3, 3, 3): 1,
                                  (1, 1, 1, 2): 5}), 0),  # refuted by the prefilter
            (SymmetricTensor4(3, {(1, 1, 1, 1): 1, (2, 2, 2, 2): 1, (3, 3, 3, 3): 1,
                                  (1, 1, 2, 3): Fraction(1, 10)}), 1),  # PD by the Bernstein stage
            (embed(1, -1, 1, 1, 0), 1),  # outside the family, refuted by Bernstein
            (SymmetricTensor4(1, {(1, 1, 1, 1): 1}), 0),
            (SymmetricTensor4(4, {(i, i, i, i): 1 for i in range(1, 5)}), 1),  # PD by the Bernstein stage
            (SymmetricTensor4(3, ZERO_CORNERS), 1),  # the Bernstein stage ends undetermined
        ],
        ids=["family", "binary", "prefilter", "general", "cyclic", "dim1", "dim4", "zero-corner"],
    )
    def test_bernstein_runs_where_no_earlier_stage_decides(self, T, calls, monkeypatch):
        # the stages are computed lazily: the Bernstein stage runs once,
        # exactly where no earlier stage decides
        made = []
        search = bernstein.classify

        def counted(T):
            made.append(T)
            return search(T)

        monkeypatch.setattr(bernstein, "classify", counted)
        trace = [s for s, _ in pipeline.decide(pipeline.stages(T)).trace]
        assert len(made) == calls
        assert trace.count("exact-positivity") == calls
        # where it runs, it is the last stage
        assert calls == 0 or trace[-1] == "exact-positivity"
        assert "oracle" not in trace

    def test_analytic_only_undetermined(self):
        # every stage is exact, so there is no analytic_only mode: the
        # Bernstein stage refutes the cyclic form outside the family, and
        # leaves x1^2 x2^2 + x3^4, with its exact zeros, undetermined
        T = embed(1, -1, 1, 1, 0)
        with pytest.raises(TypeError):
            quartpd.classify(T, analytic_only=True)
        rep = quartpd.classify(T)
        assert (rep.stage, rep.verdict.kind) == ("exact-positivity", Kind.INDEFINITE)
        assert T.evaluate_form(rep.verdict.witness) < 0
        rep = quartpd.classify(SymmetricTensor4(3, ZERO_CORNERS))
        assert (rep.stage, rep.verdict.kind) == (None, Kind.UNDETERMINED)
        assert rep.trace[-1] == ("exact-positivity", Verdict(Kind.UNDETERMINED, "bernstein-zero"))

    def test_prefilter_catches_bad_subtensor(self):
        T = SymmetricTensor4(3, {(1, 1, 1, 1): 1, (2, 2, 2, 2): 1, (3, 3, 3, 3): 1,
                                 (1, 1, 1, 2): 5})
        rep = quartpd.classify(T)
        assert rep.verdict.kind is Kind.INDEFINITE
        assert rep.trace[0][0] == "prefilter"

    def test_determinism(self):
        a = quartpd.classify(embed(1, 1, -1, "3/2", 0))
        b = quartpd.classify(embed(1, 1, -1, "3/2", 0))
        assert a._replace(seconds=None) == b._replace(seconds=None)

    @pytest.mark.parametrize(
        "args, stage",
        [
            (["binary", "-1", "0", "1", "0", "1"], "prefilter"),  # negative diagonal
            ([{(1, 1, 1, 1): 1, (2, 2, 2, 2): 1, (3, 3, 3, 3): 1, (1, 1, 1, 2): 5}], "prefilter"),
            (["cyclic", "2", "-2", "2", "2", "-1/3"], "family"),  # a scaled family input
            (["binary", "1", "0", "-1/3", "0", "1"], "analytic"),
            ([DEEP_NEEDLE.entries()], "exact-positivity"),  # refuted at the depth cap
            (["cyclic", "1", "-1", "1", "1", "0"], "exact-positivity"),
        ],
    )
    def test_classify_matches_cli_report(self, runner, tmp_path, args, stage):
        if isinstance(args[0], dict):
            args = [write_tensor(tmp_path, 3, args[0])]
        res = runner.invoke(main, ["check", *args, "--json"])
        cli_report = json.loads(res.output)
        parsed = load(args[0]) if len(args) == 1 else parse_shorthand(args[0], args[1:])
        decision = quartpd.classify(to_tensor(parsed))
        assert decision.stage == stage
        assert cli_report["input"] == tensorio.describe(parsed)
        assert cli_report["trace"] == [{"stage": s, **v.to_dict()} for s, v in decision.trace]
        assert cli_report["verdict"] == decision.verdict.to_dict()

    @pytest.mark.parametrize(
        "args, stages",
        [
            (["binary", "-1", "0", "1", "0", "1"], ["prefilter"]),
            (["cyclic", "2", "-2", "2", "2", "-1/3"], ["prefilter", "family"]),
            (["binary", "1", "0", "-1/3", "0", "1"], ["prefilter", "analytic"]),
            (["cyclic", "1", "-1", "1", "1", "0"], ["prefilter", "family", "exact-positivity"]),
            ([ZERO_CORNERS], ["prefilter", "family", "exact-positivity"]),
        ],
        ids=["prefilter", "family", "analytic", "exact-positivity", "undetermined"],
    )
    def test_report_timings(self, runner, tmp_path, args, stages):
        # analytic_s, the time of every stage run, and no other key
        if isinstance(args[0], dict):
            args = [write_tensor(tmp_path, 3, args[0]), *args[1:]]
        res = runner.invoke(main, ["check", *args, "--json"])
        report = json.loads(res.output)
        assert [step["stage"] for step in report["trace"]] == stages
        timings = report["timings"]
        assert set(timings) == {"analytic_s"}
        assert all(isinstance(t, float) and t >= 0 for t in timings.values())

    def test_library_call_loads_neither_numpy_nor_click(self):
        # numpy, click and OpenSSL's _hashlib are each megabytes that a
        # decision, through the library or the CLI, does not need; nor does
        # it need dataclasses (which loads inspect, ast, dis and tokenize),
        # the oracle or the inequality harness
        unused = ("numpy", "click", "_hashlib", "dataclasses", "inspect", "quartpd.oracle", "quartpd.inequalities")
        loaded = f"print(sorted(m for m in {unused!r} if m in sys.modules))"
        library = (
            "import sys, quartpd\n"
            "quartpd.classify(quartpd.BinaryQuartic.of(1, 0, 1, 0, 1).to_tensor())\n"
            "quartpd.classify(quartpd.diag_ones(3))\n" + loaded + "\n"
            # they and their names still resolve, loading on first use
            "assert quartpd.oracle.sphere_minimize is quartpd.sphere_minimize\n"
            "assert quartpd.OracleConfig is quartpd.oracle.OracleConfig\n"
            "assert quartpd.verify is quartpd.inequalities.verify\n"
            "assert not hasattr(quartpd, 'no_such_name')\n"
        )
        shell = (
            "import contextlib, io, sys\n"
            "from quartpd.cli import main\n"
            # a positive-definite binary (exit 0) and an indefinite dim-3 tensor (exit 2)
            "for args, want in ((['binary', '1', '0', '1', '0', '1'], 0), (['cyclic', '1', '-1', '1', '1', '0'], 2)):\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        try:\n"
            "            main(['check', *args, '--json'])\n"
            "        except SystemExit as exc:\n"
            "            assert exc.code == want, (args, exc.code)\n" + loaded
        )
        for code in (library, shell):
            out = subprocess.run(
                [sys.executable, "-c", code], capture_output=True, text=True, env=SRC_ENV, check=True
            )
            assert out.stdout.strip() == "[]"


def write_tensor(tmp_path, dim, entries):
    p = tmp_path / f"t{dim}.json"
    doc = {"dim": dim, "entries": [{"index": list(i), "value": str(v)} for i, v in entries.items()]}
    p.write_text(json.dumps(doc))
    return str(p)


class TestCli:
    def test_check_pd_exit_0(self, runner):
        res = runner.invoke(main, ["check", "cyclic", "1", "-1", "1", "1", "-1/6"])
        assert res.exit_code == 0
        assert "positive-definite" in res.output

    def test_check_psd_exit_1(self, runner):
        res = runner.invoke(main, ["check", "binary", "1", "0", "-1/3", "0", "1"])
        assert res.exit_code == 1
        assert "positive-semidefinite-not-definite" in res.output

    def test_check_indefinite_exit_2(self, runner):
        res = runner.invoke(main, ["check", "cyclic", "1", "1", "1", "1", "-7/12"])
        assert res.exit_code == 2
        assert "(1, 1, -5)" in res.output

    def test_check_undetermined_exit_3(self, runner, tmp_path):
        path = write_tensor(tmp_path, 3, ZERO_CORNERS)
        res = runner.invoke(main, ["check", path])
        assert res.exit_code == 3
        assert "verdict: undetermined (no-decisive-stage)" in res.output

    def test_check_input_error_exit_64(self, runner):
        res = runner.invoke(main, ["check", "no-such-file.json"])
        assert res.exit_code == 64
        res = runner.invoke(main, ["check", "binary", "1", "2"])
        assert res.exit_code == 64

    def test_check_json_schema(self, runner):
        res = runner.invoke(
            main,
            ["check", "cyclic", "1", "-1", "1", "1", "-1/6", "--json"],
        )
        doc = json.loads(res.output)
        assert doc["schema"] == 1
        assert doc["verdict"]["kind"] == "positive-definite"

    def test_check_file_input(self, runner, tmp_path):
        p = tmp_path / "diag.json"
        p.write_text(
            json.dumps(
                {
                    "dim": 2,
                    "entries": [
                        {"index": [1, 1, 1, 1], "value": "1"},
                        {"index": [2, 2, 2, 2], "value": "1"},
                    ],
                }
            )
        )
        res = runner.invoke(main, ["check", str(p)])
        assert res.exit_code == 0

    def test_json_determinism(self, runner):
        args = ["check", "cyclic", "1", "1", "1", "1", "-1/2", "--json"]
        outs = []
        for _ in range(2):
            res = runner.invoke(main, args)
            doc = json.loads(res.output)
            doc.pop("timings")
            outs.append(json.dumps(doc, sort_keys=True))
        assert outs[0] == outs[1]

    def test_minimize(self, runner):
        res = runner.invoke(main, ["minimize", "cyclic", "1", "0", "0", "0", "0"])
        assert res.exit_code == 0
        assert "min 0.333333" in res.output

    def test_minimize_zero_tensor_degenerate(self, runner, tmp_path):
        p = tmp_path / "zero.json"
        p.write_text(json.dumps({"dim": 3, "entries": []}))
        res = runner.invoke(main, ["minimize", str(p)])
        assert res.exit_code == 0
        assert "degenerate" in res.output

    def test_minimize_searches_no_witness(self, runner, monkeypatch):
        # minimize reports the minimum and the zero set, and runs no stage
        def refused(*args):
            raise AssertionError("a stage ran")

        monkeypatch.setattr(cli, "classify", refused)
        monkeypatch.setattr(pipeline, "stages", refused)
        res = runner.invoke(main, ["minimize", "cyclic", "1", "1", "1", "1", "-7/12"])
        assert res.exit_code == 0
        assert res.output.startswith("min -")

    @pytest.mark.parametrize("args, n_zeros", [
        (["binary", "1", "0", "1", "0", "1"], 0),
        (["binary", "1", "0", "-1/3", "0", "1"], 4),  # (x1^2 - x2^2)^2
        (["cyclic", "1", "0", "0", "0", "0"], 0),
        (["cyclic", "1", "-1", "1", "1", "-7/12"], 2),  # the cyclic boundary form
    ])
    def test_minimize_samples_once(self, runner, monkeypatch, args, n_zeros):
        # one kernel per call, and the report holds what sphere_minimize and
        # zero_set_probe give, each on a sample of its own
        T = to_tensor(parse_shorthand(args[0], args[1:]))
        res, zeros = oracle.sphere_minimize(T), oracle.zero_set_probe(T)
        calls = []
        kernel = oracle._kernel
        monkeypatch.setattr(oracle, "_kernel", lambda T: calls.append(T) or kernel(T))
        out = runner.invoke(main, ["minimize", *args, "--json"])
        assert out.exit_code == 0 and len(calls) == 1
        doc = strict_json(out.stdout)
        assert (doc["min_value"], doc["minimizer"]) == (res.min_value, list(res.minimizer))
        assert doc["iterations"] == res.iterations_used
        assert doc["zero_set"] == [list(z) for z in zeros] and len(zeros) == n_zeros

    @pytest.mark.parametrize(
        "args",
        [
            ["check", "cyclic", "1", "-1", "1", "1", "0"],
            ["minimize", "binary", "1", "0", "-1", "0", "1"],
            ["inequalities", "--only", "19u"],
        ],
        ids=["check", "minimize", "inequalities"],
    )
    def test_json_report_is_one_line(self, runner, args):
        res = runner.invoke(main, [*args, "--json"])
        assert res.stdout.count("\n") == 1 and res.stdout.endswith("\n")
        assert isinstance(strict_json(res.stdout), dict)

    def test_inequalities_single(self, runner):
        res = runner.invoke(main, ["inequalities", "--only", "19-14-14"])
        assert res.exit_code == 0
        assert "FAILS" in res.output and "expected" in res.output

    def test_inequalities_unknown_label(self, runner):
        res = runner.invoke(main, ["inequalities", "--only", "nope"])
        assert res.exit_code == 64

    def test_only_takes_its_value_either_way(self, runner):
        # --only is the one flag with a value: the next token, or after '='
        spaced = runner.invoke(main, ["inequalities", "--only", "19u"])
        joined = runner.invoke(main, ["inequalities", "--only=19u"])
        assert spaced.exit_code == joined.exit_code == 0
        assert joined.output == spaced.output and "19u" in joined.output

    @pytest.mark.parametrize(
        "args, message",
        [
            (["--only"], "--only requires a value"),
            # the value is the next token, whatever it starts with
            (["--only", "--json"], "--only: unknown label '--json'"),
        ],
    )
    def test_only_value_errors(self, runner, args, message):
        res = runner.invoke(main, ["inequalities", *args])
        assert res.exit_code == 64
        assert res.output == f"input error: {message}\n"

    @pytest.mark.parametrize("command", ["check", "minimize"])
    def test_no_inputs_is_an_input_error(self, runner, command):
        # the message gives no coefficient count: relaxed takes 7, not 5
        res = runner.invoke(main, [command, "--json"])
        assert res.exit_code == 64
        assert res.output == (
            "input error: input: a file path or a '<family> <coefficients>' shorthand expected\n"
        )

    @pytest.mark.parametrize(
        "args",
        [
            ["check", "binary", "1", "0", "1", "0", "1", "--grid", "0"],
            ["check", "binary", "1", "0", "1", "0", "1", "--margin", "2"],
            ["minimize", "binary", "1", "0", "1", "0", "1", "--grid", "-5"],
            ["check", "binary", "1", "0", "1", "0", "1", "--grid", "abc"],
            ["inequalities", "--bogus"],
            ["check", "binary", "1", "0", "1", "0", "1", "--margin", "nan"],
            ["check", "binary", "1", "0", "1", "0", "1", "--seed", "-1"],
            ["check", "binary", "1", "0", "1", "0", "1", "--analytic-only"],
            ["minimize", "binary", "1", "0", "1", "0", "1", "--seed", "-1"],
            ["inequalities", "--only", "19u", "--seed", "-2"],
            ["inequalities", "--grid", "64"],
            ["check", "binary", "1", "0", "1", "0", "1", "--bogus"],
            ["check", "binary", "1", "0", "1", "0", "1", "--grid"],
            ["check", "binary", "1", "0", "1", "0", "1", "--json=1"],
            ["bogus"],
            ["inequalities", "extra"],
        ],
    )
    def test_option_and_usage_errors_exit_64(self, runner, args):
        res = runner.invoke(main, args)
        assert res.exit_code == 64
        assert isinstance(res.exception, SystemExit)
        assert res.output.startswith("input error:") and res.output.count("\n") == 1
        # the offending flag is the last option of each argv, or else its
        # last argument, and is named
        flag = next((a for a in reversed(args) if a.startswith("--")), args[-1])
        assert flag in res.output
        if flag in ("--grid", "--seed", "--margin", "--analytic-only"):
            # the oracle has no flags: each command runs its defaults, and
            # every stage is exact, so there is no exact-stages-only mode
            assert res.output == f"input error: no such option: {flag}\n"

    @pytest.mark.parametrize(
        "args, rule",
        [
            (["binary", "-1/2", "0", "1", "0", "1"], "negative-diagonal t1111"),
            (["binary", "-3", "0", "1", "0", "1"], "negative-diagonal t1111"),
            (["binary", "1", "0", "1", "0", "-1e-3"], "negative-diagonal t2222"),
            (["--", "binary", "1", "0", "-1", "0", "1"], "principal-subtensor(1,2):criterion-failed"),
        ],
    )
    def test_negative_numbers_are_inputs(self, runner, args, rule):
        res = runner.invoke(main, ["check", *args])
        assert res.exit_code == 2, res.output
        assert f"verdict: indefinite ({rule})" in res.output

    @pytest.mark.parametrize(
        "args, code, expected",
        [
            (["check", "cyclic", "1", "-1", "1", "1", "-1/6"], 0, "positive-definite"),
            (["check", "cyclic", "1", "1", "1", "1", "-7/12"], 2, "witness: (1, 1, -5)"),
            (["--help"], 0, "inequalities"),
            (["check", "--help"], 0, "--json"),
            (
                ["check", "binary", "1", "0", "1", "0", "1", "--grid", "abc"],
                64,
                "input error: no such option: --grid",
            ),
        ],
    )
    def test_module_entry_point(self, args, code, expected):
        out = subprocess.run(
            [sys.executable, "-m", "quartpd.cli", *args], capture_output=True, text=True, env=SRC_ENV
        )
        assert out.returncode == code, out.stderr
        assert expected in out.stdout + out.stderr
        if args[-1] == "--help":
            flags = cli._COMMANDS[args[0]].flags if len(args) == 2 else cli._COMMANDS
            assert all(flag in out.stdout for flag in flags)


def test_readme_names_the_cli_flags():
    # every flag that README's CLI section names is one some command
    # accepts, or --help, and every flag a command accepts is named there
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    section = readme.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    named = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", section))
    accepted = {flag for command in cli._COMMANDS.values() for flag in command.flags}
    assert named - {"--help"} <= accepted, named - accepted
    assert accepted <= named, accepted - named


class TestDimensions:
    def test_dim1_decided_exactly(self, runner, tmp_path):
        for value, code, kind, witness in (
            (1, 0, "positive-definite", None),
            (0, 1, "positive-semidefinite-not-definite", ["1"]),
            (-2, 2, "indefinite", ["1"]),
        ):
            path = write_tensor(tmp_path, 1, {(1, 1, 1, 1): value})
            res = runner.invoke(main, ["check", path, "--json"])
            assert res.exit_code == code
            doc = json.loads(res.output)
            assert doc["verdict"]["kind"] == kind
            assert doc["verdict"]["witness"] == witness
            assert [s["stage"] for s in doc["trace"]] == ["prefilter"]

    @pytest.mark.parametrize(
        "args",
        [1, 2, 3, 4, ["binary", *"00000"], ["cyclic", *"00000"], ["relaxed", *"0000000"]],
        ids=["dim1", "dim2", "dim3", "dim4", "binary", "cyclic", "relaxed"],
    )
    def test_zero_form_is_psd_not_pd_in_every_dim(self, runner, tmp_path, args):
        # the zero form vanishes everywhere: the prefilter decides it exactly
        if isinstance(args, int):
            args = [write_tensor(tmp_path, args, {})]
        res = runner.invoke(main, ["check", *args, "--json"])
        assert res.exit_code == 1
        doc = json.loads(res.output)
        assert [s["stage"] for s in doc["trace"]] == ["prefilter"]
        assert doc["verdict"]["rule"] == "zero-form"
        parsed = load(args[0]) if len(args) == 1 else parse_shorthand(args[0], args[1:])
        witness = [Fraction(w) for w in doc["verdict"]["witness"]]
        assert any(witness) and to_tensor(parsed).evaluate_form(witness) == 0

    def test_dim4_skips_the_oracle(self, runner, tmp_path):
        # the family rules decline dim 4, and the Bernstein stage decides it
        path = write_tensor(tmp_path, 4, {(i, i, i, i): 1 for i in range(1, 5)})
        res = runner.invoke(main, ["check", path, "--json"])
        assert res.exit_code == 0
        doc = json.loads(res.output)
        assert [s["stage"] for s in doc["trace"]] == ["prefilter", "family", "exact-positivity"]
        assert doc["verdict"]["rule"] == "bernstein-positive"

    def test_dim4_prefilter_still_refutes(self, runner, tmp_path):
        path = write_tensor(tmp_path, 4, {(i, i, i, i): 1 for i in range(1, 5)} | {(3, 3, 3, 4): 5})
        res = runner.invoke(main, ["check", path, "--json"])
        assert res.exit_code == 2
        doc = json.loads(res.output)
        assert doc["verdict"]["rule"].startswith("principal-subtensor(3,4)")

    def test_prefilter_reads_only_stored_pairs(self, monkeypatch):
        calls = []

        def counted(q):
            calls.append(q)
            return classify_binary(q)

        classify_binary = binary.classify
        monkeypatch.setattr(binary, "classify", counted)
        entries = {(i, i, i, i): 1 for i in range(1, 41)}
        entries.update({(2, 2, 7, 7): 1, (3, 9, 9, 9): Fraction(1, 10)})
        rep = quartpd.classify(SymmetricTensor4(40, entries))
        assert len(calls) == 2  # one per pair with a stored entry; all 780 before
        assert rep.trace[0][1].rule == "prefilter-passed"
        assert rep.verdict.rule == "no-decisive-stage"

    def test_dim_bound(self, runner, tmp_path):
        bound = tensorio.MAX_DIM
        with pytest.raises(InputError, match=f"dim: at most {bound}"):
            parse_document({"dim": bound + 1, "entries": []})
        path = tmp_path / "wide.json"
        path.write_text(json.dumps({"dim": bound + 1, "entries": []}))
        res = runner.invoke(main, ["check", str(path)])
        assert res.exit_code == 64
        assert res.output.startswith("input error: dim:")
        # at the bound an input is read and decided in time linear in its entries
        entries = [{"index": [bound, bound, bound, bound], "value": "-1"}]
        path.write_text(json.dumps({"dim": bound, "entries": entries}))
        res = runner.invoke(main, ["check", str(path)])
        assert res.exit_code == 2
        assert f"negative-diagonal t{bound}" in res.output

    @pytest.mark.parametrize("dim", [1, 4])
    def test_minimize_other_dims_exit_64(self, runner, tmp_path, dim):
        path = write_tensor(tmp_path, dim, {(i, i, i, i): 1 for i in range(1, dim + 1)})
        res = runner.invoke(main, ["minimize", path])
        assert res.exit_code == 64
        assert isinstance(res.exception, SystemExit)


class TestBeyondFloatRange:
    """The Bernstein stage decides dim-3 forms in integers, so a tensor
    beyond or below float range is decided exactly, as its multiples are.
    The oracle takes its kernel's scale from the exact entries, so it
    refines such a tensor as it does its power-of-two multiples; only the
    minimum it reports saturates, to inf, -inf or 0.0."""

    HUGE = 10**400
    # 10^400 (x1^4 + x2^4 + x3^4 - 12 x1^2 x2 x3), -9 10^400 at (1, 1, 1)
    HUGE_INDEFINITE = {(1, 1, 1, 1): HUGE, (2, 2, 2, 2): HUGE, (3, 3, 3, 3): HUGE,
                       (1, 1, 2, 3): -HUGE}

    def tensor_file(self, tmp_path, entries):
        path = tmp_path / "t.json"
        path.write_text(json.dumps({
            "dim": 3, "entries": [{"index": list(i), "value": v} for i, v in entries.items()]
        }))
        return str(path)

    # the family rules decline b = 0, so the Bernstein stage decides
    # 10^+-400 sum x_i^4; the oracle's minimum lies beyond float range
    @pytest.mark.parametrize("value, minimum", [("1e400", "inf"), ("1e-400", 0.0)])
    def test_scaled_sum_of_fourth_powers_is_positive_definite(self, runner, tmp_path, value, minimum):
        path = self.tensor_file(tmp_path, {(i, i, i, i): value for i in (1, 2, 3)})
        res = runner.invoke(main, ["check", path, "--json"])
        assert res.exit_code == 0
        doc = strict_json(res.output)
        assert [s["stage"] for s in doc["trace"]] == ["prefilter", "family", "exact-positivity"]
        verdict = doc["verdict"]
        assert (verdict["kind"], verdict["rule"], verdict["margin"]) == ("positive-definite", "bernstein-positive", None)
        assert oracle.sphere_minimize(load(path)).min_value == float(minimum)
        assert runner.invoke(main, ["minimize", path]).exit_code == 0

    @pytest.mark.parametrize("value, minimum", [("1e400", "inf"), ("-1e400", "-inf"), ("1e-400", 0.0)])
    def test_json_reports_are_strict_beyond_float_range(self, runner, tmp_path, value, minimum):
        # a value beyond float range is written as the string "inf", since
        # RFC 8259 JSON has no number for it
        entries = {(i, i, i, i): value for i in (1, 2, 3)}
        # the prefilter refutes -10^400 sum x_i^4, so the oracle's -inf
        # minimum is read on the huge indefinite form
        checked = self.HUGE_INDEFINITE if value == "-1e400" else entries
        path = self.tensor_file(tmp_path, checked)
        res = runner.invoke(main, ["check", path, "--json"])
        doc = strict_json(res.output)
        assert doc["trace"][-1]["stage"] == "exact-positivity"
        assert doc["verdict"]["margin"] is None
        assert oracle.sphere_minimize(load(path)).min_value == float(minimum)
        res = runner.invoke(main, ["minimize", self.tensor_file(tmp_path, entries), "--json"])
        assert res.exit_code == 0
        assert strict_json(res.output)["min_value"] == minimum

    def test_huge_indefinite_form_has_an_exact_witness(self, runner, tmp_path):
        path = self.tensor_file(tmp_path, self.HUGE_INDEFINITE)
        T = load(path)
        res = runner.invoke(main, ["check", path, "--json"])
        assert res.exit_code == 2
        doc = strict_json(res.output)
        assert [s["stage"] for s in doc["trace"]] == ["prefilter", "family", "exact-positivity"]
        verdict = doc["verdict"]
        assert (verdict["kind"], verdict["rule"]) == ("indefinite", "bernstein-corner")
        assert T.evaluate_form([Fraction(w) for w in verdict["witness"]]) < 0
        # the oracle's minimum is negative, beyond float range
        assert oracle.sphere_minimize(T).min_value == -math.inf
        assert runner.invoke(main, ["minimize", path]).exit_code == 0

    def test_mixed_scales_end_at_the_boundary(self, runner, tmp_path):
        # passes the prefilter and has no cyclic pattern; the Bernstein stage
        # certifies it exactly, while the oracle, at its kernel's scale
        # max|t| = 10^400, sees the entries 1 vanish and reads the circle
        # x1 = 0 as zeros
        entries = {(1, 1, 1, 1): self.HUGE, (2, 2, 2, 2): 1, (3, 3, 3, 3): 1, (1, 1, 2, 3): 1}
        path = self.tensor_file(tmp_path, entries)
        res = runner.invoke(main, ["check", path, "--json"])
        assert res.exit_code == 0
        doc = json.loads(res.output)
        assert doc["trace"][-1]["stage"] == "exact-positivity"
        assert doc["verdict"]["rule"] == "bernstein-positive"
        zeros = oracle.zero_set_probe(load(path))
        assert zeros and all(abs(z[0]) < 1e-3 for z in zeros)
        assert runner.invoke(main, ["minimize", path]).exit_code == 0


def test_entries_near_float_range_check_without_warnings(runner, tmp_path):
    # check refutes exactly; the oracle ranks and refines at its kernel's
    # power-of-two scale, so no step overflows: no numpy warning, and its
    # minimum is negative
    path = tmp_path / "near.json"
    entries = {(1, 1, 1, 1): "1.7e308", (2, 2, 2, 2): "1.7e308", (3, 3, 3, 3): "1.7e308",
               (1, 2, 2, 3): "1e308"}
    path.write_text(json.dumps({
        "dim": 3, "entries": [{"index": list(i), "value": v} for i, v in entries.items()]
    }))
    T = load(str(path))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        res = runner.invoke(main, ["check", str(path), "--json"])
        minimum = oracle.sphere_minimize(T).min_value
    assert (res.exit_code, res.stderr) == (2, "")
    verdict = json.loads(res.stdout)["verdict"]
    assert (verdict["kind"], verdict["rule"]) == ("indefinite", "bernstein-corner")
    assert T.evaluate_form([Fraction(w) for w in verdict["witness"]]) < 0
    assert minimum < 0


def test_every_kind_has_an_exit_code():
    assert set(cli._EXIT) == set(Kind)


def test_every_export_resolves():
    for name in quartpd.__all__:
        assert hasattr(quartpd, name), name


def test_unexpected_exception_exits_70(runner, monkeypatch):
    def broken(*args, **kwargs):
        raise RuntimeError("stage blew up")

    monkeypatch.setattr("quartpd.cli.classify", broken)
    res = runner.invoke(main, ["check", "binary", "1", "0", "1", "0", "1"])
    assert res.exit_code == 70
    assert isinstance(res.exception, SystemExit)
    assert res.output == "internal error: RuntimeError: stage blew up\n"


def test_interrupt_exits_130(runner, monkeypatch):
    def interrupted(*args, **kwargs):
        raise KeyboardInterrupt

    monkeypatch.setattr("quartpd.cli.classify", interrupted)
    res = runner.invoke(main, ["check", "binary", "1", "0", "1", "0", "1"])
    assert res.exit_code == 130
    assert isinstance(res.exception, SystemExit)
    assert res.output == res.stderr == "interrupted\n"


@pytest.mark.parametrize(
    "args",
    [
        ["check", "binary", "1", "0", "1", "0", "1", "--json"],
        ["minimize", "binary", "1", "0", "1", "0", "1"],
        ["inequalities", "--only", "14u"],
    ],
    ids=["check", "minimize", "inequalities"],
)
def test_closed_stdout_exits_141(args):
    # the reader is gone before the report is written, as for `| head -c 10`
    read, write = os.pipe()
    os.close(read)
    try:
        out = subprocess.run(
            [sys.executable, "-m", "quartpd.cli", *args], stdout=write, stderr=subprocess.PIPE, env=SRC_ENV
        )
    finally:
        os.close(write)
    assert (out.returncode, out.stderr) == (141, b"")
