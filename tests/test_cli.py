import hashlib
import json
import os
import subprocess
import sys

import pytest

from conftest import child_env
from hilbclose.cli import main

REMARK_RING = {"dim": 2, "generators": [[1, 0], [1, 1], [0, 2], [0, 3]]}
REMARK_Q = {"generators": [[1, 0], [0, 2]], "ordered": True}
FREE3_RING = {"dim": 3, "generators": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]}
FREE3_Q = {"generators": [[2, 0, 0], [0, 1, 0], [0, 0, 1]], "ordered": True}
FREE2_RING = {"dim": 2, "generators": [[1, 0], [0, 1]]}
NAT_RING = {"dim": 1, "generators": [[1]]}
# one instance of each ring kind: numerical, free, non-CM and CM non-free
KIND_CORPUS = {"instances": [
    {"id": "num-3-5-7", "ring": {"dim": 1, "generators": [[3], [5], [7]]},
     "ideal": {"generators": [[6]], "ordered": True}},
    {"id": "nat", "ring": NAT_RING, "ideal": {"generators": [[3]], "ordered": True}},
    {"id": "free3", "ring": FREE3_RING, "ideal": FREE3_Q},
    {"id": "remark", "ring": REMARK_RING, "ideal": REMARK_Q},
    {"id": "free2", "ring": FREE2_RING,
     "ideal": {"generators": [[2, 0], [0, 3]], "ordered": True}},
    {"id": "veronese", "ring": {"dim": 2, "generators": [[2, 0], [1, 1], [0, 2]]},
     "ideal": {"generators": [[2, 0], [0, 2]], "ordered": True}},
]}


def write(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


class TestAnalyze:
    def test_remark_json(self, tmp_path, capsys):
        ring = write(tmp_path, "ring.json", REMARK_RING)
        ideal = write(tmp_path, "q.json", REMARK_Q)
        code = main(["analyze", "--ring", ring, "--ideal", ideal,
                     "--n-max", "8", "--report", "json"])
        out = capsys.readouterr().out
        assert code == 0
        data = json.loads(out)
        assert data["e1_integral"] == "0"
        assert data["e1_ordinary"] == "-1"

    def test_free_maximal(self, tmp_path, capsys):
        ring = write(tmp_path, "ring.json", {"dim": 2, "generators": [[1, 0], [0, 1]]})
        ideal = write(tmp_path, "q.json", {"generators": [[1, 0], [0, 1]], "ordered": True})
        code = main(["analyze", "--ring", ring, "--ideal", ideal, "--report", "json"])
        data = json.loads(capsys.readouterr().out)
        assert code == 0
        for key in ("e1_ordinary", "e1_integral", "e1_lim"):
            assert data[key] == "0", key

    def test_non_m_primary_exit_1(self, tmp_path, capsys):
        ring = write(tmp_path, "ring.json", {"dim": 2, "generators": [[1, 0], [0, 1]]})
        ideal = write(tmp_path, "q.json", {"generators": [[0, 1], [0, 2]], "ordered": True})
        code = main(["analyze", "--ring", ring, "--ideal", ideal])
        err = capsys.readouterr().err
        assert code == 1
        assert "NOT_M_PRIMARY" in err

    def test_non_m_primary_1d_exit_1(self, tmp_path, capsys):
        # x^0 = 1 is on no extreme ray: the ideal is the whole ring
        ring = write(tmp_path, "ring.json", {"dim": 1, "generators": [[3], [5]]})
        ideal = write(tmp_path, "q.json", {"generators": [[0]], "ordered": True})
        code = main(["analyze", "--ring", ring, "--ideal", ideal])
        err = capsys.readouterr().err
        assert code == 1
        assert "NOT_M_PRIMARY" in err

    @pytest.mark.parametrize("ring_rec, ideal_rec", [
        ({"dim": 2, "generators": [[1.5, 0], [0, 1]]}, {"generators": [[1, 0], [0, 1]]}),
        ({"dim": 2, "generators": [[True, 0], [0, 1]]}, {"generators": [[1, 0], [0, 1]]}),
        (REMARK_RING, {"generators": [[1.9, 0], [0, 2]], "ordered": True}),
        (REMARK_RING, {"generators": [["1.0", 0], [0, 2]], "ordered": True}),
    ], ids=["float-ring", "bool-ring", "float-ideal", "float-string-ideal"])
    def test_non_integer_exponent_exit_1(self, tmp_path, capsys, ring_rec, ideal_rec):
        # no exponent is truncated: the file is rejected before any fit
        ring = write(tmp_path, "ring.json", ring_rec)
        ideal = write(tmp_path, "q.json", ideal_rec)
        code = main(["analyze", "--ring", ring, "--ideal", ideal])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith("input error [FORMAT]"), captured.err

    def test_decimal_string_exponents_parse(self, tmp_path, capsys):
        # reports write integers as strings, so a reproducer re-parses
        ring = write(tmp_path, "ring.json", {"dim": "2", "generators": [["1", "0"], ["0", "1"]]})
        ideal = write(tmp_path, "q.json", {"generators": [["1", "0"], ["0", "1"]]})
        assert main(["analyze", "--ring", ring, "--ideal", ideal, "--report", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["e1_ordinary"] == "0"

    @pytest.mark.parametrize("ring_rec, ideal_rec", [
        ({"dim": 1, "generators": "35"}, {"generators": [[6]]}),
        ({"dim": 2, "generators": {"10": 1, "01": 2}}, {"generators": [[1, 0], [0, 1]]}),
        ({"dim": 1, "generators": ["3", "5"]}, {"generators": [[6]]}),
        ({"dim": 1, "generators": [[3], [5]]}, {"generators": "6"}),
        (REMARK_RING, {"generators": [[1, 0], "02"], "ordered": True}),
        (REMARK_RING, {"generators": [[1, 0], [0, 2]], "ordered": "no"}),
        (REMARK_RING, {"generators": [[1, 0], [0, 2]], "ordered": 1}),
    ], ids=["string-ring", "object-ring", "flat-ring", "string-ideal", "string-vector",
            "string-ordered", "int-ordered"])
    def test_malformed_record_exit_1(self, tmp_path, capsys, ring_rec, ideal_rec):
        # generators are arrays of integer arrays and "ordered" a JSON boolean:
        # a string or an object is not read character by character or by key
        ring = write(tmp_path, "ring.json", ring_rec)
        ideal = write(tmp_path, "q.json", ideal_rec)
        code = main(["analyze", "--ring", ring, "--ideal", ideal])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith("input error [FORMAT]"), captured.err
        assert "Traceback" not in captured.err

    def test_malformed_json_diagnostic(self, tmp_path, capsys):
        ring = tmp_path / "ring.json"
        ring.write_text('{"dim": 2, "generators": [[1,0],')
        ideal = write(tmp_path, "q.json", REMARK_Q)
        code = main(["analyze", "--ring", str(ring), "--ideal", ideal])
        err = capsys.readouterr().err
        assert code == 1
        assert "line" in err

    def test_n_max_below_3d_bound_exit_1(self, tmp_path, capsys):
        # 5 passes the 2-D bound but a 3-D fit needs n_max >= 6
        ring = write(tmp_path, "ring.json", FREE3_RING)
        ideal = write(tmp_path, "q.json", FREE3_Q)
        code = main(["analyze", "--ring", ring, "--ideal", ideal, "--n-max", "5"])
        err = capsys.readouterr().err
        assert code == 1
        assert "input error" in err and "Traceback" not in err

    def test_char_p(self, tmp_path, capsys):
        ring = write(tmp_path, "ring.json", REMARK_RING)
        ideal = write(tmp_path, "q.json", REMARK_Q)
        code = main(["analyze", "--ring", ring, "--ideal", ideal,
                     "--n-max", "6", "--char", "2"])
        data = json.loads(capsys.readouterr().out)
        assert code == 0
        assert data["tight_bracket"] == ["0", "0"]
        assert data["filtrations"]["tight"]["status"] == "ok"
        assert "e_max" not in data

    def test_non_prime_char(self, tmp_path, capsys):
        ring = write(tmp_path, "ring.json", REMARK_RING)
        ideal = write(tmp_path, "q.json", REMARK_Q)
        code = main(["analyze", "--ring", ring, "--ideal", ideal, "--char", "6"])
        assert code == 1

    def test_out_file(self, tmp_path):
        ring = write(tmp_path, "ring.json", REMARK_RING)
        ideal = write(tmp_path, "q.json", REMARK_Q)
        out = tmp_path / "report.json"
        code = main(["analyze", "--ring", ring, "--ideal", ideal,
                     "--n-max", "6", "--out", str(out)])
        assert code == 0
        assert json.loads(out.read_text())["e0"] == "2"

    @pytest.mark.parametrize("ring,gens,e0", [
        (NAT_RING, [[4]], 4),
        (FREE2_RING, [[2, 0], [0, 3]], 6),
        (FREE2_RING, [[0, 3], [2, 0]], 6),
        (FREE2_RING, [[1, 0], [0, 1]], 1),
        (REMARK_RING, REMARK_Q["generators"], None),
        (FREE3_RING, FREE3_Q["generators"], None),
    ])
    def test_multiplicity_volume_key(self, tmp_path, capsys, ring, gens, e0):
        # free rings of dimension 1 and 2 carry the key, equal to e0; others lack it
        ring = write(tmp_path, "ring.json", ring)
        ideal = write(tmp_path, "q.json", {"generators": gens, "ordered": True})
        code = main(["analyze", "--ring", ring, "--ideal", ideal, "--n-max", "6"])
        data = json.loads(capsys.readouterr().out)
        assert code == 0
        if e0 is None:
            assert "multiplicity_volume" not in data
        else:
            assert data["multiplicity_volume"] == data["e0"] == str(e0)

    @pytest.mark.parametrize("ring_rec, ideal_rec, args, digest", [
        (REMARK_RING, REMARK_Q, ["--n-max", "40", "--char", "2"],
         "161208b065ce4887057d779ce4d6dbd7d9927aca5582b280c2403e4927308a40"),
        (FREE3_RING, {"generators": [[2, 0, 0], [0, 3, 0], [0, 0, 2]], "ordered": True},
         ["--n-max", "6"],
         "3353ec3edbabddc44ad5097f087cdde71abfff23f1c07c25523524fd606772be"),
        ({"dim": 1, "generators": [[3], [5], [7]]}, {"generators": [[5]], "ordered": True}, [],
         "0766f2792e8fc384d6af21bee776d37ebab062463c711735e16d8abcdfcd4b83"),
    ], ids=["remark-s2-char-2", "free3", "num-3-5-7"])
    def test_report_digest(self, tmp_path, capsys, ring_rec, ideal_rec, args, digest):
        # the analyze report's bytes; a deliberate change of the report updates the digest
        ring = write(tmp_path, "ring.json", ring_rec)
        ideal = write(tmp_path, "q.json", ideal_rec)
        assert main(["analyze", "--ring", ring, "--ideal", ideal] + args) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest

    def test_csv(self, tmp_path, capsys):
        ring = write(tmp_path, "ring.json", REMARK_RING)
        ideal = write(tmp_path, "q.json", REMARK_Q)
        code = main(["analyze", "--ring", ring, "--ideal", ideal,
                     "--n-max", "6", "--report", "csv"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.splitlines()[1] == "0,3,1,1"


class TestVerify:
    def test_corpus_with_remark_witness(self, tmp_path, capsys):
        corpus = {"instances": [
            {"id": "remark", "ring": REMARK_RING, "ideal": REMARK_Q},
            {"id": "free", "ring": {"dim": 2, "generators": [[1, 0], [0, 1]]},
             "ideal": {"generators": [[1, 0], [0, 1]], "ordered": True}},
        ]}
        path = write(tmp_path, "corpus.json", corpus)
        code = main(["verify", "--corpus", path, "--n-max", "6"])
        data = json.loads(capsys.readouterr().out)
        assert code == 0
        assert data["summary"]["hypothesis_violating_witnesses"] == "1"
        assert data["summary"]["violations"] == "0"

    def test_n_max_below_3d_bound_exit_1(self, tmp_path, capsys):
        corpus = {"instances": [
            {"id": "remark", "ring": REMARK_RING, "ideal": REMARK_Q},
            {"id": "free3", "ring": FREE3_RING, "ideal": FREE3_Q},
        ]}
        path = write(tmp_path, "corpus.json", corpus)
        code = main(["verify", "--corpus", path, "--n-max", "5"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert "input error" in captured.err and "Traceback" not in captured.err

    def test_char_2_every_ring_kind_digest(self, tmp_path, monkeypatch, capsys):
        # the only command path through the 1-D tight closure
        monkeypatch.chdir(tmp_path)
        write(tmp_path, "corpus.json", KIND_CORPUS)
        code = main(["verify", "--corpus", "corpus.json", "--char", "2", "--n-max", "6"])
        out = capsys.readouterr().out
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == \
            "2cdc0754934f508dcda880f35adb4f3f402d54a42c2cc92ee274883664543e6b"

    def test_report_independent_of_path_spelling(self, tmp_path, monkeypatch, capsys):
        path = write(tmp_path, "corpus.json", KIND_CORPUS)
        monkeypatch.chdir(tmp_path)
        outs = []
        for given in (path, "corpus.json", os.path.join("..", tmp_path.name, "corpus.json")):
            assert main(["verify", "--corpus", given, "--n-max", "6"]) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1] == outs[2]
        assert json.loads(outs[0])["corpus"] == "corpus.json"

    @pytest.mark.parametrize("corpus", [[5], {"instances": 7}], ids=["entry", "instances"])
    def test_malformed_corpus_exit_1(self, tmp_path, capsys, corpus):
        path = write(tmp_path, "corpus.json", corpus)
        code = main(["verify", "--corpus", path, "--n-max", "6"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert "input error [FORMAT]" in captured.err and "Traceback" not in captured.err

    @pytest.mark.parametrize("entry", [
        {"ring": {"dim": 2, "generators": [[2.7, 0], [0, 1]]}, "ideal": REMARK_Q},
        {"ring": {"dim": 2.0, "generators": [[1, 0], [0, 1]]}, "ideal": REMARK_Q},
        {"ring": FREE2_RING, "ideal": {"generators": [[1, 0], [0, "2x"]], "ordered": True}},
        {"ring": {"dim": 2, "generators": {"10": 1, "01": 2}}, "ideal": REMARK_Q},
        {"ring": FREE2_RING, "ideal": {"generators": [[1, 0], [0, 1]], "ordered": "yes"}},
    ], ids=["float-generator", "float-dim", "non-decimal-string", "object-generators",
            "string-ordered"])
    def test_non_integer_corpus_exit_1(self, tmp_path, capsys, entry):
        path = write(tmp_path, "corpus.json", {"instances": [entry]})
        code = main(["verify", "--corpus", path, "--n-max", "6"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert "input error [FORMAT]" in captured.err and "Traceback" not in captured.err

    def test_unstabilized_ordinary_fit_is_partial(self, tmp_path, capsys):
        # fz5-033's ordinary fit does not stabilize by n_max 8: e1(Q) is
        # uncertified, which is a partial report, not a theorem violation
        corpus = [{"id": "fz5-033",
                   "ring": {"dim": 2, "generators": [[5, 9], [6, 1], [9, 8], [10, 0]]},
                   "ideal": {"generators": [[10, 0], [10, 18]], "ordered": True}}]
        path = write(tmp_path, "corpus.json", corpus)
        out = tmp_path / "verdicts.json"
        code = main(["verify", "--corpus", path, "--out", str(out)])
        assert code == 2
        data = json.loads(out.read_text())
        assert data["summary"]["violations"] == "0"
        assert data["verdicts"][0]["e1_ordinary"] is None
        assert not data["verdicts"][0]["passed"]
        assert list(tmp_path.glob("*.reproducer.json")) == []
        assert "partial report" in capsys.readouterr().err

    def test_missing_corpus(self, capsys):
        code = main(["verify", "--corpus", "/nonexistent.json"])
        assert code == 1


class TestFuzz:
    def test_small_fuzz(self, capsys):
        code = main(["fuzz", "--seed", "42", "--count", "3",
                     "--max-coord", "4", "--n-max", "6"])
        data = json.loads(capsys.readouterr().out)
        assert code == 0
        assert data["summary"]["instances"] == "3"
        assert data["summary"]["chain_passes"] == "3"

    def test_count_zero(self, capsys):
        code = main(["fuzz", "--seed", "42", "--count", "0"])
        data = json.loads(capsys.readouterr().out)
        assert code == 0
        assert data["summary"]["instances"] == "0"

    @pytest.mark.parametrize("command", [["fuzz", "--seed", "42", "--count", "0"],
                                         ["verify", "--corpus", "corpus.json"]])
    def test_no_report_option(self, command, capsys):
        # verify and fuzz always write JSON, so they take no --report
        with pytest.raises(SystemExit) as exc:
            main(command + ["--report", "csv"])
        assert exc.value.code == 2
        assert "--report" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [["analyze", "--ring", "r.json", "--ideal", "q.json"],
                                         ["verify", "--corpus", "corpus.json"],
                                         ["fuzz", "--seed", "42", "--count", "0"]])
    def test_no_e_max_option(self, command, capsys):
        # the tight closure is exact, so no Frobenius depth is taken
        with pytest.raises(SystemExit) as exc:
            main(command + ["--char", "2", "--e-max", "3"])
        assert exc.value.code == 2
        assert "--e-max" in capsys.readouterr().err

    def test_char_2_seed_7(self, capsys):
        # the split slots of the non-CM rings fz7-000 and fz7-006 lie in
        # the tight closure too
        code = main(["fuzz", "--seed", "7", "--count", "12", "--char", "2"])
        data = json.loads(capsys.readouterr().out)
        assert code == 0
        assert data["summary"]["violations"] == "0"

    def test_char_2_seed_7_report_digest(self, tmp_path):
        # the characteristic-p verify path extracts tight closures, which no
        # benchmark workload runs; a deliberate change of this report updates
        # the digest
        out = tmp_path / "fuzz.json"
        code = main(["fuzz", "--seed", "7", "--count", "12", "--char", "2", "--out", str(out)])
        assert code == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == \
            "63b1b30ac8951d85a891b1ff6ecd779d6a103b83de33020116a1a513b87dc313"

    @pytest.mark.parametrize("flag,value,message", [
        ("--count", "-3", "count must be at least 0"),
        ("--count", "-1", "count must be at least 0"),
        ("--max-coord", "-1", "max-coord must be at least 1"),
        ("--max-coord", "0", "max-coord must be at least 1"),
    ], ids=["--count--3", "--count--1", "--max-coord--1", "--max-coord-0"])
    def test_bad_fuzz_sizes_exit_1(self, flag, value, message, capsys):
        args = {"--count": "2", "--max-coord": "4"}
        args[flag] = value
        code = main(["fuzz", "--seed", "42", "--n-max", "6"]
                    + [part for item in args.items() for part in item])
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == (1, "", "input error: %s\n" % message)

    def test_char_named_in_report(self, capsys):
        # --char adds the characteristic and each e1_tight; without it neither key
        args = ["fuzz", "--seed", "7", "--count", "3", "--max-coord", "4", "--n-max", "6"]
        reports = []
        for extra in ([], ["--char", "2"]):
            assert main(args + extra) == 0
            reports.append(capsys.readouterr().out)
        plain, char2 = map(json.loads, reports)
        assert reports[0] != reports[1]
        assert "characteristic" not in plain
        assert all("e1_tight" not in v for v in plain["verdicts"])
        assert char2["characteristic"] == "2"
        assert all("e1_tight" in v for v in char2["verdicts"])

    def test_byte_determinism_in_process(self, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        for out in (a, b):
            code = main(["fuzz", "--seed", "7", "--count", "3",
                         "--max-coord", "4", "--n-max", "6", "--out", str(out)])
            assert code == 0
        assert a.read_bytes() == b.read_bytes()

    def test_exhaustion_exit_1(self, capsys):
        code = main(["fuzz", "--seed", "1", "--count", "50", "--max-coord", "1"])
        assert code == 1


class TestInputErrors:
    """The bounds on the options, checked before any file is read: exit 1,
    nothing on stdout, and one exact line on stderr (the fuzz sizes in
    ``TestFuzz.test_bad_fuzz_sizes_exit_1``)."""

    @staticmethod
    def command(tmp_path, name):
        if name == "analyze":
            return ["analyze", "--ring", write(tmp_path, "ring.json", REMARK_RING),
                    "--ideal", write(tmp_path, "q.json", REMARK_Q)]
        if name == "verify":
            corpus = {"instances": [{"id": "remark", "ring": REMARK_RING, "ideal": REMARK_Q}]}
            return ["verify", "--corpus", write(tmp_path, "corpus.json", corpus)]
        return ["fuzz", "--seed", "42", "--count", "2"]

    @pytest.mark.parametrize("name", ["analyze", "verify", "fuzz"])
    @pytest.mark.parametrize("flag,value,message", [
        ("--n-max", "4", "n-max must be at least 5"),
        ("--char", "4", "characteristic must be prime"),
        ("--char", "1", "characteristic must be prime"),
    ])
    def test_bounds(self, tmp_path, capsys, name, flag, value, message):
        code = main(self.command(tmp_path, name) + [flag, value])
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == (1, "", "input error: %s\n" % message)


class TestExample:
    @pytest.mark.parametrize("name", ["remark-s2", "free-x2y3", "free-maximal"])
    def test_builtin(self, name, capsys):
        code = main(["example", name])
        out = capsys.readouterr().out
        assert code == 0
        assert "MISMATCH" not in out

    def test_unknown_name(self, capsys):
        code = main(["example", "nope"])
        err = capsys.readouterr().err
        assert code == 1
        assert "remark-s2" in err


class TestRoundTrip:
    def test_reproducer_like_files_reparse(self, tmp_path):
        from hilbclose import formats
        from hilbclose.theorems import fuzz_corpus

        corpus = fuzz_corpus(9, 3, max_coord=4)
        rec = formats.corpus_to_record(corpus)
        path = write(tmp_path, "corpus.json", rec)
        back = formats.corpus_from_record(json.loads(open(path).read()))
        assert [i.ring for i in back] == [i.ring for i in corpus]


class TestExitContracts:
    def test_analyze_partial_exit_2(self, tmp_path, monkeypatch):
        # contract test: a NOT_STABILIZED filtration yields exit 2 with the
        # partial report still written
        import hilbclose.cli as cli_mod
        from hilbclose.hilbert import FiltrationKind, HilbertReport

        real = cli_mod.coefficient_report

        def flaky(ring, q, **kw):
            bundle = real(ring, q, **kw)
            stuck = HilbertReport(FiltrationKind.LIM_INTERSECT, kw.get("n_max", 10),
                                  bundle.reports[FiltrationKind.LIM_INTERSECT].lengths,
                                  None, None, "NOT_STABILIZED")
            bundle.reports[FiltrationKind.LIM_INTERSECT] = stuck
            return bundle

        monkeypatch.setattr(cli_mod, "coefficient_report", flaky)
        ring = write(tmp_path, "ring.json", REMARK_RING)
        ideal = write(tmp_path, "q.json", REMARK_Q)
        out = tmp_path / "report.json"
        code = main(["analyze", "--ring", ring, "--ideal", ideal,
                     "--n-max", "6", "--out", str(out)])
        assert code == 2
        data = json.loads(out.read_text())
        assert data["filtrations"]["lim_intersect"]["status"] == "NOT_STABILIZED"
        assert data["filtrations"]["ordinary"]["status"] == "ok"

    def test_verify_violation_exit_3_with_reproducer(self, tmp_path, monkeypatch):
        import hilbclose.cli as cli_mod

        real = cli_mod.verify_instances

        def sabotaged(instances, **kw):
            summary = real(instances, **kw)
            summary.results[0]["chain"].inclusions_ok = False
            summary.violations.append(summary.results[0])
            return summary

        monkeypatch.setattr(cli_mod, "verify_instances", sabotaged)
        corpus = {"instances": [
            {"id": "free", "ring": {"dim": 2, "generators": [[1, 0], [0, 1]]},
             "ideal": {"generators": [[1, 0], [0, 1]], "ordered": True}}]}
        path = write(tmp_path, "corpus.json", corpus)
        out = tmp_path / "verdicts.json"
        code = main(["verify", "--corpus", path, "--n-max", "6", "--out", str(out)])
        assert code == 3
        repro_path = str(out) + ".reproducer.json"
        repro = json.loads(open(repro_path).read())
        # the reproducer re-parses as a valid instance
        from hilbclose import formats
        ring = formats.ring_from_record(repro["ring"])
        gens, _ = formats.ideal_from_record(repro["ideal"], ring)
        assert gens == [(1, 0), (0, 1)]

    def test_analyze_internal_error_exit_4(self, tmp_path, monkeypatch, capsys):
        import hilbclose.cli as cli_mod
        from hilbclose.errors import UncertifiedError

        def broken(ring, q, **kw):
            raise UncertifiedError("complement line bound violated (internal)")

        monkeypatch.setattr(cli_mod, "coefficient_report", broken)
        ring = write(tmp_path, "ring.json", REMARK_RING)
        ideal = write(tmp_path, "q.json", REMARK_Q)
        code = main(["analyze", "--ring", ring, "--ideal", ideal, "--n-max", "6"])
        assert code == 4
        assert capsys.readouterr().err.startswith("internal error [UNCERTIFIED]")

    def test_broken_invariant_exit_4(self, tmp_path, monkeypatch, capsys):
        # a regular ring whose engine reports it not CM breaks ring_profile's
        # invariant: exit 4, not a traceback with the bad-input code
        from hilbclose import lattice

        class NotCM(lattice._Grid2):
            def __init__(self, ring):
                super().__init__(ring)
                self.is_cm = False

        monkeypatch.setattr(lattice, "_Grid2", NotCM)
        corpus = {"instances": [{"id": "free2", "ring": FREE2_RING,
                                 "ideal": {"generators": [[1, 0], [0, 1]], "ordered": True}}]}
        path = write(tmp_path, "corpus.json", corpus)
        code = main(["verify", "--corpus", path, "--n-max", "6",
                     "--out", str(tmp_path / "verdicts.json")])
        assert code == 4
        err = capsys.readouterr().err
        assert err.startswith("internal error [UNCERTIFIED]: inconsistent ring profile")

    def test_analyze_byte_determinism(self, tmp_path):
        ring = write(tmp_path, "ring.json", REMARK_RING)
        ideal = write(tmp_path, "q.json", REMARK_Q)
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for out in (a, b):
            assert main(["analyze", "--ring", ring, "--ideal", ideal,
                         "--n-max", "6", "--out", str(out)]) == 0
        assert a.read_bytes() == b.read_bytes()


class TestSubprocess:
    def test_import_loads_no_code_generators(self):
        # in a child: pytest itself has imported dataclasses here
        probe = ("import sys; before = set(sys.modules); import hilbclose.cli; "
                 "print(' '.join(sorted(set(sys.modules) - before)))")
        proc = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                              text=True, env=child_env(), check=True)
        loaded = set(proc.stdout.split())
        assert "hilbclose.cli" in loaded
        assert not loaded & {"dataclasses", "inspect", "ast", "dis", "tokenize"}

    def test_console_entry(self, tmp_path):
        ring = write(tmp_path, "ring.json", REMARK_RING)
        ideal = write(tmp_path, "q.json", REMARK_Q)
        proc = subprocess.run(
            [sys.executable, "-m", "hilbclose.cli", "analyze", "--ring", ring,
             "--ideal", ideal, "--n-max", "6"],
            capture_output=True, text=True, env=child_env())
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["e0"] == "2"
