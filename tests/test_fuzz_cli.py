"""Fuzz of parse -> check: every document, valid or not, ends in a defined
exit code with a report or one ``input error:`` line, never a traceback."""

import json

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from quartpd.cli import main

from conftest import strict_json

# json.dumps cannot write an integer beyond the int-string digit limit, so a
# placeholder string stands for one and is spelled out after dumping
_LONG = "@long-integer@"

exponents = st.one_of(
    st.integers(-400, 400).map(lambda k: f"1e{k}"),
    st.sampled_from(["1e1000000", "-3.5E+10000000", "1e-4300", "1e4300", "1e-1000000"]),
)
numbers = st.one_of(
    st.integers(-5, 5), st.fractions(-5, 5, max_denominator=12).map(str), exponents
)
scalars = st.one_of(
    st.integers(-(10**6), 10**6),
    st.booleans(),
    st.none(),
    st.floats(),
    st.fractions(max_denominator=50).map(str),
    st.decimals(allow_nan=False, allow_infinity=False, places=3).map(str),
    exponents,
    st.sampled_from(["1/0", "", "x", "1/2/3", "1_0", _LONG]),
    st.text(max_size=6),
)
dims = st.one_of(st.integers(-1, 5), st.booleans(), st.floats(), st.text(max_size=3), st.just(_LONG))
indices = st.one_of(
    st.lists(st.one_of(st.integers(-1, 6), st.booleans(), st.just("1")), max_size=5),
    scalars,
)
entries = st.lists(
    st.one_of(
        st.fixed_dictionaries({"index": indices, "value": scalars}),
        st.dictionaries(st.sampled_from(["index", "value", "other"]), scalars, max_size=2),
        scalars,
    ),
    max_size=8,
)
# documents whose dim and indices are mostly in range, so that they reach the stages
well_formed = st.integers(1, 4).flatmap(
    lambda n: st.fixed_dictionaries(
        {
            "dim": st.just(n),
            "entries": st.lists(
                st.fixed_dictionaries(
                    {
                        "index": st.lists(st.integers(1, n), min_size=4, max_size=4),
                        "value": numbers,
                    }
                ),
                max_size=10,
            ),
        }
    )
)
tensor_docs = st.one_of(
    st.fixed_dictionaries({"dim": dims, "entries": entries}),
    st.fixed_dictionaries({"dim": dims}, optional={"entries": st.one_of(entries, scalars)}),
)
family_docs = st.fixed_dictionaries(
    {
        "family": st.one_of(st.sampled_from(["binary", "cyclic", "relaxed", "quintic"]), scalars),
        "coeffs": st.one_of(st.lists(scalars, min_size=0, max_size=8), scalars),
    }
)
documents = st.one_of(well_formed, tensor_docs, family_docs, scalars, st.lists(scalars, max_size=2))


@given(doc=documents)
@settings(
    max_examples=400,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)
def test_parse_check_ends_in_a_defined_exit_code(tmp_path, runner, doc):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc).replace(json.dumps(_LONG), "7" * 5000))
    res = runner.invoke(main, ["check", str(path), "--json"])
    assert res.exception is None or isinstance(res.exception, SystemExit), res.output
    assert res.exit_code in (0, 1, 2, 3, 64), res.output
    if res.exit_code == 64:
        assert res.output.startswith("input error:") and res.output.count("\n") == 1
    else:
        assert strict_json(res.output)["verdict"]["kind"]
