import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from jordanflow import InputError
from jordanflow.cli import main
from jordanflow.report import dumps_canonical
from oracles import dumps_canonical_reference

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

    def test_rows_that_compare_equal_keep_their_own_text(self):
        """Flat rows are written once per distinct (formatter, value); rows
        equal as tuples but of other types keep their own text."""

        class Count(int):
            def __str__(self):
                return "not-this"

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

    def test_full_flag_report_peak_memory(self, tmp_path):
        """The tracemalloc peak while serializing the 5,040-component
        analyze report of a 7x7 diagonal input stays within 3.5x the output
        length (a single fragment list for the whole report reaches 5.3x)."""
        rates = [0.9, 0.55, 0.3, 0.05, -0.2, -0.6, -1.0]
        src = tmp_path / "x.json"
        src.write_text(json.dumps({"n": 7, "rows": np.diag(rates).tolist()}))
        out = tmp_path / "out.json"
        assert main(["analyze", str(src), "--flag", "1,2,3,4,5,6", "-o", str(out)]) == 0
        report = json.loads(out.read_text())
        assert len(report["components"]) == 5040
        tracemalloc.start()
        try:
            text = dumps_canonical(report)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert text + "\n" == out.read_text()
        assert peak <= 3.5 * len(text)
