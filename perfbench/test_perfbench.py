"""Self-tests of the benchmark: metric names, self times, and a smoke run per
workload on tiny inputs.

Run from the repository root:

    python3 -m unittest discover -s perfbench
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracing  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
_outputs = {}


def smoke(trace):
    """Output of one smoke run of every workload, cached per trace mode."""
    if trace not in _outputs:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", "all", "--smoke",
             "--seconds", "0", "--seed", "5", "--trace", str(trace)],
            capture_output=True, text=True, cwd=str(ROOT), timeout=170)
        _outputs[trace] = proc
    return _outputs[trace]


class BenchmarkFileTest(unittest.TestCase):
    def setUp(self):
        self.spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    def test_names_are_well_formed(self):
        names = [w["name"] for w in self.spec["workloads"]]
        names += [m["name"] for m in self.spec["end_to_end"] + self.spec["per_layer"]]
        for name in names:
            self.assertRegex(name, NAME)
        self.assertEqual(len(names), len(set(names)))

    def test_names_match_the_benchmark(self):
        self.assertEqual([w["name"] for w in self.spec["workloads"]], list(run.WORKLOADS))
        self.assertEqual({m["name"]: m["unit"] for m in self.spec["end_to_end"]},
                         run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in self.spec["per_layer"]},
                         run.PER_LAYER)

    def test_every_metric_is_printed(self):
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            proc = smoke(trace)
            self.assertEqual(proc.returncode, 0, proc.stderr)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            for workload in run.WORKLOADS:
                for metric in self.spec[kind]:
                    name = metric["name"]
                    self.assertIn("  " + name + " ", proc.stdout)
                    entry = result["metrics"]["%s.%s" % (workload, name)]
                    self.assertEqual(entry["unit"], metric["unit"])


class SmokeRunTest(unittest.TestCase):
    def test_each_workload_passes_its_checks(self):
        proc = smoke(0)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreater(result["attempted"], 0)
        self.assertEqual(proc.stdout.count("output checks                ok"),
                         len(run.WORKLOADS))

    def test_layer_self_times_fit_in_the_traced_wall_time(self):
        proc = smoke(1)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
        for workload in run.WORKLOADS:
            total = sum(metrics["%s.%s.self_s" % (workload, layer)]["value"]
                        for layer in tracing.LAYERS)
            wall = metrics["%s.trace.wall_s" % workload]["value"]
            self.assertGreater(total, 0)
            self.assertLessEqual(total, wall)

    def test_missing_sources_exit_without_a_result(self):
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys; sys.path.insert(0, %r); import run; run.SRC = run.ROOT / 'nowhere';"
             " sys.exit(run.main(['--workload', 'deep', '--seed', '1']))" % str(BENCH)],
            capture_output=True, text=True, cwd=str(ROOT), timeout=60)
        self.assertEqual(proc.returncode, 2)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
