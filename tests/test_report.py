import json
import tracemalloc
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from jordanflow import InputError
from jordanflow import cli
from jordanflow.cli import main
from jordanflow.report import SCHEMA_VERSION, dumps_canonical, load_schema
from oracles import down_convert_report, dumps_canonical_reference

finite = st.floats(allow_nan=False, allow_infinity=False)

leaves = st.one_of(
    st.booleans(),
    st.integers(),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    finite,
    finite.map(np.float64),
    st.sampled_from([-0.0, 1e308, 5e-324, np.float64(-0.0)]),
    st.none(),
    st.text(),
)

arrays = hnp.arrays(
    dtype=st.sampled_from([np.float64, np.int64]),
    shape=hnp.array_shapes(min_dims=0, max_dims=2, min_side=0, max_side=4),
    elements={"allow_nan": False, "allow_infinity": False},
)

keys = st.one_of(st.text(), st.integers(), st.booleans(), finite, st.none())

reports = st.recursive(
    st.one_of(leaves, arrays),
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=5).map(tuple),
        st.dictionaries(keys, children, max_size=5),
    ),
    max_leaves=30,
)


class TestDumpsCanonical:
    @given(obj=reports, indent=st.sampled_from([0, 2, 5]))
    @settings(max_examples=200, deadline=None)
    def test_bytes_equal_reference(self, obj, indent):
        assert dumps_canonical(obj, indent) == dumps_canonical_reference(obj, indent)

    @pytest.mark.parametrize(
        "bad",
        [
            float("nan"),
            float("inf"),
            -float("inf"),
            np.float64("nan"),
            {1, 2},
            1 + 2j,
            np.bool_(True),
        ],
    )
    @pytest.mark.parametrize(
        "wrap",
        [
            lambda x: x,
            lambda x: [1, x],
            lambda x: [1.5, x],
            lambda x: {"a": [[], x]},
            lambda x: (None, x),
        ],
    )
    def test_unserializable_raises_in_both(self, bad, wrap):
        for dumps in (dumps_canonical, dumps_canonical_reference):
            with pytest.raises(InputError):
                dumps(wrap(bad))

    @given(data=st.data(), indent=st.sampled_from([0, 3]))
    @settings(max_examples=100, deadline=None)
    def test_shared_tuples_equal_reference(self, data, indent):
        """A few tuple objects, each at many positions of one report, among
        them tuples that compare equal but hold other types: each position
        is written as its own tuple is."""
        flat = st.one_of(
            st.lists(st.integers(), min_size=1, max_size=4),
            st.lists(finite, min_size=1, max_size=4),
            st.lists(st.one_of(st.booleans(), st.integers(), finite), min_size=1, max_size=4),
        ).map(tuple)
        pool = [(1, 0), (True, False), (1.0, 0.0), (np.int64(1), 0), (-0.0, 0.0)]
        pool += data.draw(st.lists(flat, max_size=4))
        obj = data.draw(
            st.recursive(
                st.sampled_from(pool),
                lambda children: st.one_of(
                    st.lists(children, min_size=1, max_size=6),
                    st.lists(children, min_size=1, max_size=6).map(tuple),
                    st.dictionaries(st.text(max_size=2), children, max_size=4),
                ),
                max_leaves=40,
            )
        )
        assert dumps_canonical(obj, indent) == dumps_canonical_reference(obj, indent)

    def test_rows_that_compare_equal_keep_their_own_text(self):
        """Flat tuples are written once per tuple object; rows equal as
        tuples but of other types, or other objects, keep their own text."""

        class Count(int):
            def __str__(self):
                return "not-this"

        shared = (1, 0)
        report = {
            "ints": [[1, 0], (1, 0), [10**20, 0]],
            "floats": [[1.0, 0.0], (1.0, 0.0), [1e20, 0.0], [1e20, 0]],
            "bools": [[True, False], (True, False), [1, False]],
            "zeros": [[-0.0, 0.0], [0.0, -0.0], [0, 0]],
            "numpy": [
                [np.int64(1), np.int64(0)],
                [np.float64(1e20), np.float64(0.0)],
                np.array([1e20, 0.0]),
                np.array([10**18, 0]),
            ],
            "subclass": [[Count(1), Count(0)], [1, 0]],
            "again": [[1e20, 0.0], [10**20, 0], (True, False), [1, 0]],
            "shared": [shared, [shared, (1.0, 0.0)], {"x": shared}, (np.int64(1), 0), shared],
        }
        for indent in (0, 3):
            assert dumps_canonical(report, indent) == dumps_canonical_reference(report, indent)

    def test_row_memo_lives_for_one_call(self):
        """A list mutated between two calls is written as it is now, and the
        row texts of a call are freed when it returns."""
        row = [1.5, 2.5]
        report = {"a": row, "b": [row, [3, 4]]}
        first = dumps_canonical(report)
        row[0] = 7.25
        second = dumps_canonical(report)
        assert second == dumps_canonical_reference(report) != first
        # the first call fills the interpreter's tuple free lists, which
        # tracemalloc would count as kept; the second writes other rows
        dumps_canonical([[i + j / 32 for j in range(24)] for i in range(2000)])
        rows = [[i - j / 32 for j in range(24)] for i in range(2000)]
        tracemalloc.start()
        try:
            text = dumps_canonical({"rows": rows})
            del text
            kept = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert kept < 100_000

    def test_tuple_row_memo_lives_for_one_call(self):
        """Tuples that only the running call holds (a list subclass that
        yields a fresh tuple per element) are written as they are: a memo
        that kept their text but let them go would hand a freed tuple's id,
        and its text, to a later one.  Tuple rows of a second call get their
        own text; the row texts of a call are freed when it returns."""

        class Fresh(list):
            def __iter__(self):
                return (tuple(row) for row in list.__iter__(self))

        report = [Fresh([[i, i + 0.5], [i, -i]]) for i in range(200)]
        assert dumps_canonical(report, 2) == dumps_canonical_reference(report, 2)
        first = dumps_canonical({"a": (1.5, 2.5)})
        second = dumps_canonical({"a": (7.25, 2.5)})
        assert second == dumps_canonical_reference({"a": (7.25, 2.5)}) != first
        dumps_canonical([tuple(i + j / 32 for j in range(24)) for i in range(2000)])
        rows = [tuple(i - j / 32 for j in range(24)) for i in range(2000)]
        tracemalloc.start()
        try:
            text = dumps_canonical({"rows": rows, "again": rows})
            del text
            kept = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert kept < 100_000

    def test_full_flag_report_peak_memory(self, tmp_path, monkeypatch):
        """The tracemalloc peak while serializing the 5,040-component
        analyze report of a 7x7 diagonal input stays within 3.5x the output
        length (a single fragment list for the whole report reaches 5.3x),
        both for the object the CLI builds, whose assignment rows are shared
        tuples, and for the parsed report, whose rows are lists.  The built
        object also equals the reference writer's bytes."""
        built = []
        monkeypatch.setattr(
            cli, "dumps_canonical", lambda obj: built.append(obj) or dumps_canonical(obj)
        )
        rates = [0.9, 0.55, 0.3, 0.05, -0.2, -0.6, -1.0]
        src = tmp_path / "x.json"
        src.write_text(json.dumps({"n": 7, "rows": np.diag(rates).tolist()}))
        out = tmp_path / "out.json"
        assert main(["analyze", str(src), "--flag", "1,2,3,4,5,6", "-o", str(out)]) == 0
        want = out.read_text()
        report = json.loads(want)
        assert len(report["components"]) == 5040
        assert type(built[0]["components"][0]["assignment"][0]) is tuple
        assert dumps_canonical_reference(built[0]) + "\n" == want
        for obj in (built[0], report):
            tracemalloc.start()
            try:
                text = dumps_canonical(obj)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert text + "\n" == want
            assert peak <= 3.5 * len(text)


#: jf-schema-1 reports of these runs, written by jordanflow before
#: jf-schema-2 and kept in ``data/jf_schema_1``: name -> (subcommand, input
#: document, flag file document or None, options).  The inputs are in Schur
#: form already (diagonal, one 2 x 2 rotation block, one Jordan block), so
#: their reports carry no rounding that another LAPACK could change.
DOWN_CONVERT_CASES = {
    "analyze-jordan-block": (
        "analyze",
        {"n": 4, "rows": [[1.0, 1.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0],
                          [0.0, 0.0, -0.5, 0.0], [0.0, 0.0, 0.0, -1.5]]},
        None,
        ["--flag", "1,2"],
    ),
    "analyze-regular-classify-flag": (
        "analyze",
        {"n": 3, "rows": [[3.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, -4.0]]},
        {"dims": [1, 2], "basis": [[0.0, 0.0], [0.0, 1.0], [1.0, 0.0]]},
        ["--flag", "1,2"],
    ),
    "analyze-discrete-rotation": (
        "analyze",
        {"n": 3, "rows": [[0.0, -2.0, 0.0], [2.0, 0.0, 0.0], [0.0, 0.0, 0.25]]},
        None,
        ["--flag", "1", "--time", "discrete"],
    ),
    "floquet-repeated-rate": (
        "floquet",
        {"T": 1.0, "A0": [[0.25, 0.0, 0.0], [0.0, 0.25, 0.0], [0.0, 0.0, -0.5]],
         "harmonics": []},
        None,
        ["--flag", "1,2", "--steps", "64"],
    ),
    "floquet-no-flag": (
        "floquet",
        {"T": 1.0, "A0": [[0.25, 0.0, 0.0], [0.0, 0.25, 0.0], [0.0, 0.0, -0.5]],
         "harmonics": []},
        None,
        ["--steps", "64"],
    ),
    "decompose-x4": (
        "decompose",
        {"n": 3, "rows": [[-1.0, -2.0, 0.0], [2.0, -1.0, 0.0], [0.0, 0.0, 2.0]]},
        None,
        [],
    ),
}

JF_SCHEMA_1 = Path(__file__).parent / "data" / "jf_schema_1"


def run_case(name, tmp_path):
    """The report text of one ``DOWN_CONVERT_CASES`` run."""
    command, doc, flag_doc, options = DOWN_CONVERT_CASES[name]
    src = tmp_path / "input.json"
    src.write_text(json.dumps(doc))
    argv = [command, str(src), *options, "-o", str(tmp_path / "out.json")]
    if flag_doc is not None:
        (tmp_path / "flag.json").write_text(json.dumps(flag_doc))
        argv += ["--classify-flag", str(tmp_path / "flag.json")]
    assert main(argv) == 0
    return (tmp_path / "out.json").read_text()


class TestDownConvert:
    """jf-schema-2 drops copies only: each report converts back to the
    jf-schema-1 bytes of the same run."""

    @pytest.mark.parametrize("name", sorted(DOWN_CONVERT_CASES))
    def test_reproduces_jf_schema_1_bytes(self, name, tmp_path):
        text = run_case(name, tmp_path)
        rep = json.loads(text)
        assert rep["schema"] == f"{SCHEMA_VERSION}/{DOWN_CONVERT_CASES[name][0]}"
        jsonschema.validate(rep, load_schema(DOWN_CONVERT_CASES[name][0]))
        assert down_convert_report(text) == (JF_SCHEMA_1 / f"{name}.json").read_text()

    @pytest.mark.parametrize("name", ["analyze-jordan-block", "floquet-repeated-rate"])
    def test_no_fact_stated_twice(self, name, tmp_path):
        rep = json.loads(run_case(name, tmp_path))
        for c in rep["components"]:
            assert set(c) == {
                "index", "assignment", "dim", "n_w", "stable_dim", "attractor", "repeller"
            }
        if "classification" in rep:
            assert set(rep["classification"]) == {
                "h_regular", "conformal", "rate_margin", "conformal_margin", "eigen_rates"
            }
        else:
            assert np.allclose(rep["eigen_rates"], [0.25, 0.25, -0.5], atol=1e-9)
            assert rep["eigen_rates"][0] == rep["eigen_rates"][1]

    def test_floquet_without_flag_has_null_rates(self, tmp_path):
        rep = json.loads(run_case("floquet-no-flag", tmp_path))
        assert rep["eigen_rates"] is None and rep["components"] is None

    @pytest.mark.parametrize("flag", ["attractor", "repeller"])
    def test_dropped_flag_is_caught(self, flag, tmp_path):
        rep = json.loads(run_case("analyze-jordan-block", tmp_path))
        comp = next(c for c in rep["components"] if c[flag])
        del comp[flag]
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate(rep, load_schema("analyze"))
        with pytest.raises((KeyError, ValueError)):
            down_convert_report(dumps_canonical(rep))

    @pytest.mark.parametrize("name", ["analyze-jordan-block", "floquet-repeated-rate"])
    def test_merged_eigen_rates_are_caught(self, name, tmp_path):
        """Eigen rates written once per cluster instead of once per
        dimension lose the multiplicities."""
        rep = json.loads(run_case(name, tmp_path))
        holder = rep.get("classification", rep)
        rates = holder["eigen_rates"]
        holder["eigen_rates"] = sorted(set(rates), reverse=True)
        assert holder["eigen_rates"] != rates
        with pytest.raises(ValueError, match="multiplicity"):
            down_convert_report(dumps_canonical(rep))
