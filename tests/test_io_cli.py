import json
import os
import subprocess
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import pytest

import quartpd
from quartpd import binary, cli, oracle, tensorio
from quartpd.binary import BinaryQuartic
from quartpd.cli import main
from quartpd.cyclic import CyclicTernary, RelaxedCyclicTernary, embed
from quartpd.oracle import OracleConfig
from quartpd.tensor import SymmetricTensor4
from quartpd.tensorio import InputError, load, parse_document, parse_shorthand, to_tensor
from quartpd.verdict import Kind, as_fraction

from conftest import strict_json


_SRC = str(Path(quartpd.__file__).parents[1])
_SRC_ENV = {**os.environ, "PYTHONPATH": os.pathsep.join([_SRC, os.environ.get("PYTHONPATH", "")])}


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
        q = parse_shorthand("binary", ["1", "0", "-1/3", "0", "1"])
        assert isinstance(q, BinaryQuartic)
        ct = parse_shorthand("cyclic", ["1", "-1", "1", "1", "-1/6"])
        assert isinstance(ct, CyclicTernary)
        rt = parse_shorthand("relaxed", ["1", "-1", "1", "1", "-1/4", "-1/4", "-1/4"])
        assert isinstance(rt, RelaxedCyclicTernary)

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

    def test_to_tensor_roundtrip(self):
        ct = CyclicTernary.of(1, -1, 1, 1, "-1/6")
        assert to_tensor(ct) == embed(ct)


class TestPipeline:
    CFG = OracleConfig(grid_points=2000)

    def test_family_stage_decides(self):
        rep = quartpd.classify(
            CyclicTernary.of(1, -1, 1, 1, "-1/6"), self.CFG, False, False
        )
        assert rep["verdict"]["kind"] == "positive-definite"
        stages = [s["stage"] for s in rep["trace"]]
        assert stages == ["prefilter", "family"]

    def test_scaled_family_input(self):
        # a = 2: the family rules read the orbit values divided by a
        rep = quartpd.classify(CyclicTernary.of(2, -2, 2, 2, "-1/3"), self.CFG, False, False)
        assert rep["verdict"]["kind"] == "positive-definite"
        assert [s["stage"] for s in rep["trace"]] == ["prefilter", "family"]
        assert rep["trace"][-1]["kind"] == "positive-definite"

    @pytest.mark.parametrize(
        "parsed",
        [
            SymmetricTensor4(1, {(1, 1, 1, 1): 1}),
            BinaryQuartic.of(1, 0, "-1/3", 0, 1),
            CyclicTernary.of(2, -2, 2, 2, "-1/3"),
            CyclicTernary.of(0, 0, 0, 1, 0),  # the family rules decline a = 0
            SymmetricTensor4(4, {(i, i, i, i): 1 for i in range(1, 5)}),
            CyclicTernary.of(1, -1, 1, 1, 0),  # decided by the oracle
        ],
    )
    def test_every_trace_entry_has_stage_and_kind(self, parsed):
        rep = quartpd.classify(parsed, self.CFG)
        assert rep["trace"]
        for step in rep["trace"]:
            assert isinstance(step["stage"], str)
            assert Kind(step["kind"])

    def test_oracle_only_agrees_with_analytic(self):
        for parsed in (
            CyclicTernary.of(1, -1, 1, 1, "-1/6"),
            BinaryQuartic.of(1, -1, 1, 1, 1),
            CyclicTernary.of(1, 1, 1, 1, "-7/12"),
        ):
            a = quartpd.classify(parsed, self.CFG, False, False)
            b = quartpd.classify(parsed, self.CFG, True, False)
            margin = b["verdict"]["margin"]
            if margin is not None and abs(margin) > 1e-6:
                assert a["verdict"]["kind"] == b["verdict"]["kind"]

    def test_both_stage_flags_are_a_usage_error(self, runner):
        with pytest.raises(ValueError, match="oracle_only and analytic_only"):
            quartpd.classify(BinaryQuartic.of(1, 0, 1, 0, 1), oracle_only=True, analytic_only=True)
        res = runner.invoke(
            main, ["check", "binary", "1", "0", "1", "0", "1", "--oracle-only", "--analytic-only"]
        )
        assert res.exit_code == 64
        assert res.output.startswith("input error:")
        assert "--oracle-only" in res.output and "--analytic-only" in res.output

    def test_analytic_only_undetermined(self):
        rep = quartpd.classify(CyclicTernary.of(1, -1, 1, 1, 0), self.CFG, False, True)
        assert rep["verdict"]["kind"] == "undetermined"

    def test_prefilter_catches_bad_subtensor(self):
        T = SymmetricTensor4(3, {(1, 1, 1, 1): 1, (2, 2, 2, 2): 1, (3, 3, 3, 3): 1,
                                 (1, 1, 1, 2): 5})
        rep = quartpd.classify(T, self.CFG, False, False)
        assert rep["verdict"]["kind"] == "indefinite"
        assert rep["trace"][0]["stage"] == "prefilter"

    def test_determinism(self):
        a = quartpd.classify(CyclicTernary.of(1, 1, -1, "3/2", 0), self.CFG, False, False)
        b = quartpd.classify(CyclicTernary.of(1, 1, -1, "3/2", 0), self.CFG, False, False)
        a.pop("timings")
        b.pop("timings")
        assert a == b

    @pytest.mark.parametrize(
        "args, stage",
        [
            (["binary", "-1", "0", "1", "0", "1"], "prefilter"),  # negative diagonal
            ([{(1, 1, 1, 1): 1, (2, 2, 2, 2): 1, (3, 3, 3, 3): 1, (1, 1, 1, 2): 5}], "prefilter"),
            (["cyclic", "2", "-2", "2", "2", "-1/3"], "family"),  # a scaled family input
            (["binary", "1", "0", "-1/3", "0", "1"], "analytic"),
            (["cyclic", "1", "-1", "1", "1", "0"], "oracle"),
        ],
    )
    def test_classify_matches_cli_report(self, runner, tmp_path, args, stage):
        if isinstance(args[0], dict):
            args = [write_tensor(tmp_path, 3, args[0])]
        res = runner.invoke(main, ["check", *args, "--json", "--grid", "2000"])
        cli_report = json.loads(res.output)
        parsed = load(args[0]) if len(args) == 1 else parse_shorthand(args[0], args[1:])
        report = quartpd.classify(parsed, self.CFG)
        assert next(s["stage"] for s in report["trace"] if s["kind"] != "undetermined") == stage
        cli_report.pop("timings")
        report.pop("timings")
        assert report == cli_report

    def test_library_call_loads_neither_numpy_nor_click(self):
        # numpy, click and OpenSSL's _hashlib are each megabytes that a
        # binary decision, through the library or the CLI, does not need
        loaded = "print(sorted(m for m in ('numpy', 'click', '_hashlib') if m in sys.modules))"
        library = (
            "import sys, quartpd\n"
            "quartpd.classify(quartpd.BinaryQuartic.of(1, 0, 1, 0, 1))\n" + loaded
        )
        shell = (
            "import contextlib, io, sys\n"
            "from quartpd.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    try:\n"
            "        main(['check', 'binary', '1', '0', '1', '0', '1', '--json'])\n"
            "    except SystemExit as exc:\n"
            "        assert exc.code == 0, exc.code\n" + loaded
        )
        for code in (library, shell):
            out = subprocess.run(
                [sys.executable, "-c", code], capture_output=True, text=True, env=_SRC_ENV, check=True
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

    def test_check_undetermined_exit_3(self, runner):
        res = runner.invoke(
            main,
            ["check", "cyclic", "1", "-1", "1", "1", "0", "--analytic-only"],
        )
        assert res.exit_code == 3

    def test_check_input_error_exit_64(self, runner):
        res = runner.invoke(main, ["check", "no-such-file.json"])
        assert res.exit_code == 64
        res = runner.invoke(main, ["check", "binary", "1", "2"])
        assert res.exit_code == 64

    def test_check_json_schema(self, runner):
        res = runner.invoke(
            main,
            ["check", "cyclic", "1", "-1", "1", "1", "-1/6", "--json", "--grid", "2000"],
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
        args = ["check", "cyclic", "1", "1", "1", "1", "-1/2", "--json", "--grid", "2000"]
        outs = []
        for _ in range(2):
            res = runner.invoke(main, args)
            doc = json.loads(res.output)
            doc.pop("timings")
            outs.append(json.dumps(doc, sort_keys=True))
        assert outs[0] == outs[1]

    def test_minimize(self, runner):
        res = runner.invoke(main, ["minimize", "cyclic", "1", "0", "0", "0", "0", "--grid", "2000"])
        assert res.exit_code == 0
        assert "min 0.333333" in res.output

    def test_minimize_zero_tensor_degenerate(self, runner, tmp_path):
        p = tmp_path / "zero.json"
        p.write_text(json.dumps({"dim": 3, "entries": []}))
        res = runner.invoke(main, ["minimize", str(p), "--grid", "1000"])
        assert res.exit_code == 0
        assert "degenerate" in res.output

    def test_minimize_searches_no_witness(self, runner, monkeypatch):
        # minimize reports the minimum and the zero set, and builds no verdict
        def refused(*args):
            raise AssertionError("a witness was searched")

        monkeypatch.setattr("quartpd.oracle._exact_negative", refused)
        res = runner.invoke(main, ["minimize", "cyclic", "1", "1", "1", "1", "-7/12", "--grid", "2000"])
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
        cfg = OracleConfig(grid_points=3000)
        T = to_tensor(parse_shorthand(args[0], args[1:]))
        res, zeros = oracle.sphere_minimize(T, cfg), oracle.zero_set_probe(T, cfg)
        calls = []
        kernel = oracle._kernel
        monkeypatch.setattr(oracle, "_kernel", lambda T: calls.append(T) or kernel(T))
        out = runner.invoke(main, ["minimize", *args, "--grid", "3000", "--json"])
        assert out.exit_code == 0 and len(calls) == 1
        doc = strict_json(out.stdout)
        assert (doc["min_value"], doc["minimizer"]) == (res.min_value, list(res.minimizer))
        assert doc["iterations"] == res.iterations_used
        assert doc["zero_set"] == [list(z) for z in zeros] and len(zeros) == n_zeros

    @pytest.mark.parametrize("args", [
        ["check", "binary", "1", "0", "1", "0", "1"],
        ["minimize", "binary", "1", "0", "1", "0", "1"],
        ["inequalities", "--only", "19u"],
    ])
    def test_grid_above_the_bound_is_an_input_error(self, runner, monkeypatch, args):
        # rejected with the config, before any grid is built
        def refused(*args):
            raise AssertionError("a grid was built")

        monkeypatch.setattr(oracle, "_grid", refused)
        res = runner.invoke(main, [*args, "--grid", "1000001"])
        assert res.exit_code == 64 and isinstance(res.exception, SystemExit)
        assert res.output == "input error: --grid must be at most 1000000\n"

    def test_inequalities_single(self, runner):
        res = runner.invoke(main, ["inequalities", "--only", "19-14-14", "--grid", "4000"])
        assert res.exit_code == 0
        assert "FAILS" in res.output and "expected" in res.output

    def test_inequalities_unknown_label(self, runner):
        res = runner.invoke(main, ["inequalities", "--only", "nope"])
        assert res.exit_code == 64

    @pytest.mark.parametrize(
        "args",
        [
            ["check", "binary", "1", "0", "1", "0", "1", "--grid", "0"],
            ["check", "binary", "1", "0", "1", "0", "1", "--margin", "2"],
            ["minimize", "binary", "1", "0", "1", "0", "1", "--grid", "-5"],
            ["check", "binary", "1", "0", "1", "0", "1", "--grid", "abc"],
            ["inequalities", "--bogus"],
            ["check", "binary", "1", "0", "1", "0", "1", "--margin", "nan"],
            ["check", "binary", "1", "0", "1", "0", "1", "--oracle-only", "--seed", "-1"],
            ["minimize", "binary", "1", "0", "1", "0", "1", "--seed", "-1"],
            ["inequalities", "--only", "19u", "--seed", "-2"],
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
            (["check", "--help"], 0, "--oracle-only"),
            (["check", "binary", "1", "0", "1", "0", "1", "--grid", "abc"], 64, "input error: --grid"),
        ],
    )
    def test_module_entry_point(self, args, code, expected):
        out = subprocess.run(
            [sys.executable, "-m", "quartpd.cli", *args], capture_output=True, text=True, env=_SRC_ENV
        )
        assert out.returncode == code, out.stderr
        assert expected in out.stdout + out.stderr
        if args[-1] == "--help":
            flags = cli._COMMANDS[args[0]].flags if len(args) == 2 else cli._COMMANDS
            assert all(flag in out.stdout for flag in flags)


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

    def test_dim1_oracle_only_undetermined(self, runner, tmp_path):
        path = write_tensor(tmp_path, 1, {(1, 1, 1, 1): 1})
        res = runner.invoke(main, ["check", path, "--oracle-only"])
        assert res.exit_code == 3

    def test_dim4_skips_the_oracle(self, runner, tmp_path):
        path = write_tensor(tmp_path, 4, {(i, i, i, i): 1 for i in range(1, 5)})
        res = runner.invoke(main, ["check", path, "--json"])
        assert res.exit_code == 3
        doc = json.loads(res.output)
        assert [s["stage"] for s in doc["trace"]] == ["prefilter"]
        assert doc["verdict"]["rule"] == "no-decisive-stage"

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
        assert rep["trace"][0]["rule"] == "prefilter-passed"
        assert rep["verdict"]["rule"] == "no-decisive-stage"

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
    """The oracle takes its kernel's scale from the exact entries, so it
    decides a tensor beyond or below float range as it decides its
    power-of-two multiples; only the values it reports saturate, to inf or
    0.0."""

    HUGE = 10**400

    def tensor_file(self, tmp_path, entries):
        path = tmp_path / "t.json"
        path.write_text(json.dumps({
            "dim": 3, "entries": [{"index": list(i), "value": v} for i, v in entries.items()]
        }))
        return str(path)

    # a margin beyond float range is written as the string "inf", since
    # RFC 8259 JSON has no number for it
    @pytest.mark.parametrize("value, margin", [("1e400", "inf"), ("1e-400", 0.0)])
    def test_scaled_sum_of_fourth_powers_is_positive_definite(self, runner, tmp_path, value, margin):
        path = self.tensor_file(tmp_path, {(i, i, i, i): value for i in (1, 2, 3)})
        for flags in ([], ["--oracle-only"]):
            res = runner.invoke(main, ["check", path, "--json", *flags])
            assert res.exit_code == 0
            verdict = strict_json(res.output)["verdict"]
            assert (verdict["kind"], verdict["rule"]) == ("positive-definite", "oracle-sphere-minimum")
            assert verdict["margin"] == margin
        assert runner.invoke(main, ["minimize", path]).exit_code == 0

    @pytest.mark.parametrize("value, minimum", [("1e400", "inf"), ("-1e400", "-inf"), ("1e-400", 0.0)])
    def test_json_reports_are_strict_beyond_float_range(self, runner, tmp_path, value, minimum):
        path = self.tensor_file(tmp_path, {(i, i, i, i): value for i in (1, 2, 3)})
        res = runner.invoke(main, ["check", path, "--json", "--oracle-only"])
        assert strict_json(res.output)["verdict"]["margin"] == minimum
        res = runner.invoke(main, ["minimize", path, "--json"])
        assert res.exit_code == 0
        assert strict_json(res.output)["min_value"] == minimum

    def test_huge_indefinite_form_has_an_exact_witness(self, runner, tmp_path):
        # 10^400 (x1^4 + x2^4 + x3^4 - 12 x1^2 x2 x3), -9 10^400 at (1, 1, 1)
        entries = {(1, 1, 1, 1): self.HUGE, (2, 2, 2, 2): self.HUGE, (3, 3, 3, 3): self.HUGE,
                   (1, 1, 2, 3): -self.HUGE}
        path = self.tensor_file(tmp_path, entries)
        for flags in ([], ["--oracle-only"]):
            res = runner.invoke(main, ["check", path, "--json", *flags])
            assert res.exit_code == 2
            verdict = json.loads(res.output)["verdict"]
            assert verdict["kind"] == "indefinite"
            assert load(path).evaluate_form([Fraction(w) for w in verdict["witness"]]) < 0
        assert runner.invoke(main, ["minimize", path]).exit_code == 0

    def test_mixed_scales_end_at_the_boundary(self, runner, tmp_path):
        # passes the prefilter, has no cyclic pattern: only the oracle is left,
        # and at the kernel's scale, max|t| = 10^400, the entries 1 vanish
        entries = {(1, 1, 1, 1): self.HUGE, (2, 2, 2, 2): 1, (3, 3, 3, 3): 1, (1, 1, 2, 3): 1}
        path = self.tensor_file(tmp_path, entries)
        res = runner.invoke(main, ["check", path, "--json"])
        assert res.exit_code == 3
        doc = json.loads(res.output)
        assert doc["trace"][-1]["stage"] == "oracle"
        assert (doc["verdict"]["kind"], doc["trace"][-1]["rule"]) == ("undetermined", "oracle-boundary")
        assert runner.invoke(main, ["minimize", path]).exit_code == 0


def test_entries_near_float_range_check_without_warnings(runner, tmp_path):
    # the oracle ranks and refines at its kernel's power-of-two scale, so no
    # step overflows: no numpy warning, and the witness is still exact
    path = tmp_path / "near.json"
    entries = {(1, 1, 1, 1): "1.7e308", (2, 2, 2, 2): "1.7e308", (3, 3, 3, 3): "1.7e308",
               (1, 2, 2, 3): "1e308"}
    path.write_text(json.dumps({
        "dim": 3, "entries": [{"index": list(i), "value": v} for i, v in entries.items()]
    }))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        res = runner.invoke(main, ["check", str(path), "--json"])
    assert (res.exit_code, res.stderr) == (2, "")
    verdict = json.loads(res.stdout)["verdict"]
    assert (verdict["kind"], verdict["rule"]) == ("indefinite", "oracle-grid-witness")
    assert load(str(path)).evaluate_form([Fraction(w) for w in verdict["witness"]]) < 0


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
