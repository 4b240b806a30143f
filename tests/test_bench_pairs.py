import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"


@pytest.fixture
def bench_pairs(monkeypatch):
    """tools/bench_pairs.py with git and the benchmark runs replaced."""
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    monkeypatch.setattr(mod, "export", lambda rev, dest: None)
    monkeypatch.setattr(mod, "shared_differ", lambda rev: False)
    monkeypatch.setattr(mod, "git", lambda *args, **kwargs: "abc1234\n")
    monkeypatch.setattr(mod.signal, "signal", lambda *args: None)
    return mod


def fake_runs(mod, monkeypatch, correct=True, parent_digest="d1"):
    """Every metric reads 2.0 on the parent and 1.0 on the change."""
    def run_bench(tree, workload):
        values = {m: 1.0 if tree == mod.ROOT else 2.0 for m in mod.METRICS}
        return values, correct, [parent_digest if tree != mod.ROOT else "d1"]

    monkeypatch.setattr(mod, "run_bench", run_bench)


@pytest.mark.parametrize("correct, parent_digest, code", [
    (True, "d1", 0), (True, "d2", 1), (False, "d1", 1)])
def test_broken_pair_exits_1(bench_pairs, monkeypatch, tmp_path, capsys,
                             correct, parent_digest, code):
    fake_runs(bench_pairs, monkeypatch, correct, parent_digest)
    out = tmp_path / "BENCH_test.json"
    got = bench_pairs.main(["--parent", "HEAD", "--workload", "corpus",
                            "--pairs", "2", "--out", str(out)])
    assert got == code
    entry = json.loads(out.read_text())["workloads"]["corpus"]
    assert entry["all_runs_correct"] is correct
    assert entry["digests_equal"] is (parent_digest == "d1")
    line = capsys.readouterr().out.strip()
    assert line.endswith("all_runs_correct %s, digests_equal %s"
                         % (correct, parent_digest == "d1"))


def test_prints_every_metric(bench_pairs, monkeypatch, tmp_path, capsys):
    fake_runs(bench_pairs, monkeypatch)
    code = bench_pairs.main(["--parent", "HEAD", "--workload", "corpus", "--workload", "deep",
                             "--pairs", "2", "--out", str(tmp_path / "BENCH_test.json")])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    want = []
    for workload in ("corpus", "deep"):
        want += ["%s %s median 2.0000 -> 1.0000, change wins 2/2, parent IQR 0.0000"
                 % (workload, m) for m in bench_pairs.METRICS]
        want.append("%s all_runs_correct True, digests_equal True" % workload)
    assert lines == want
