import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import json_report
from hilbclose import formats
from hilbclose.hilbert import coefficient_report
from hilbclose.ideals import ParameterIdeal
from hilbclose.theorems import fuzz_corpus


class TestRecords:
    def test_ring_round_trip(self, remark_ring):
        rec = formats.ring_to_record(remark_ring)
        assert rec == {"dim": 2, "generators": [[0, 2], [0, 3], [1, 0], [1, 1]]}
        assert formats.ring_from_record(rec) == remark_ring

    def test_ring_bad_record(self):
        with pytest.raises(formats.FormatError):
            formats.ring_from_record({"generators": [[1, 0]]})
        with pytest.raises(formats.FormatError):
            formats.ring_from_record([1, 2])

    def test_ideal_round_trip(self, remark_ring):
        q = ParameterIdeal(remark_ring, [(0, 2), (1, 0)])
        rec = formats.ideal_to_record(q)
        assert rec == {"generators": [[0, 2], [1, 0]], "ordered": True}
        gens, ordered = formats.ideal_from_record(rec, remark_ring)
        assert ordered and gens == [(0, 2), (1, 0)]

    def test_corpus_round_trip(self):
        corpus = fuzz_corpus(42, 4, max_coord=4)
        rec = formats.corpus_to_record(corpus)
        back = formats.corpus_from_record(rec)
        assert [(i.ring, i.parameter.ordered_generators) for i in back] == \
            [(i.ring, i.parameter.ordered_generators) for i in corpus]

    def test_corpus_bare_list(self, remark_ring):
        rows = [{"ring": formats.ring_to_record(remark_ring),
                 "ideal": {"generators": [[1, 0], [0, 2]], "ordered": True}}]
        back = formats.corpus_from_record(rows)
        assert len(back) == 1
        assert back[0].ring == remark_ring


# report values: nested dicts, lists and tuples of str, int, bool and None
REPORT_TEXT = st.sampled_from(["S̄", "\n", '"', "\\", "", "e1_lim", "ä\x00\t"]) | st.text()
REPORT_SCALARS = (st.none() | st.booleans() | st.integers() | REPORT_TEXT
                  | st.sampled_from([-1, 2 ** 80, -(2 ** 80), 0]))
REPORT_VALUES = st.recursive(
    REPORT_SCALARS,
    lambda children: (st.lists(children, max_size=4)
                      | st.lists(children, max_size=4).map(tuple)
                      | st.lists(st.integers(), max_size=4)
                      | st.dictionaries(REPORT_TEXT, children, max_size=4)),
    max_leaves=20)


class TestDumpsReport:
    def test_integers_become_strings(self):
        text = formats.dumps_report({"a": 5, "b": [1, 2], "c": None, "d": True, "e": "x"})
        assert json.loads(text) == {"a": "5", "b": ["1", "2"], "c": None, "d": True, "e": "x"}

    def test_huge_integers_safe(self):
        big = 2 ** 80
        assert json.loads(formats.dumps_report(big)) == str(big)

    @given(REPORT_VALUES)
    @settings(max_examples=300, deadline=None)
    def test_matches_stdlib_encoder(self, value):
        assert formats.dumps_report(value) == json_report(value)

    def test_literals_and_empty_containers(self):
        value = {"t": True, "f": False, "n": None, "d": {}, "l": [], "u": (), "s": "S̄"}
        text = formats.dumps_report(value)
        assert text == json_report(value)
        assert '"t": true' in text and '"f": false' in text and '"n": null' in text
        assert "\\u0304" in text and text.endswith("}\n")

    @pytest.mark.parametrize("value", [1.5, {1, 2}, {1: "a"}, {1: "a", "b": 2}, {"a": [0.0]},
                                       [{"b": {3}}]],
                             ids=["float", "set", "int-key", "mixed-keys", "nested-float",
                                  "nested-set"])
    def test_other_values_rejected(self, value):
        with pytest.raises(formats.FormatError, match="cannot serialize"):
            formats.dumps_report(value)


class TestReports:
    def test_bundle_report_fields(self, remark_ring):
        q = ParameterIdeal(remark_ring, [(1, 0), (0, 2)])
        bundle = coefficient_report(remark_ring, q, n_max=8)
        report = formats.bundle_to_report(
            bundle, remark_ring, formats.ideal_to_record(q))
        text = formats.dumps_report(report)
        data = json.loads(text)
        assert data["e1_integral"] == "0"
        assert data["e1_ordinary"] == "-1"
        assert data["bcm_bracket"] == ["0", "0"]
        assert data["filtrations"]["integral"]["lengths"][:3] == ["1", "5", "11"]

    def test_csv(self, free2):
        q = ParameterIdeal(free2, [(2, 0), (0, 3)])
        bundle = coefficient_report(free2, q, n_max=8)
        csv = formats.bundle_to_csv(bundle)
        lines = csv.strip().split("\n")
        assert lines[0] == "n,ordinary,integral,lim_intersect"
        assert lines[1] == "0,6,5,6"

    def test_table(self, free2):
        q = ParameterIdeal(free2, [(2, 0), (0, 3)])
        bundle = coefficient_report(free2, q, n_max=8)
        table = formats.bundle_to_table(bundle)
        assert "ordinary" in table and "(6, 0, 0)" in table
