#!/usr/bin/env python3
"""Alternating parent/change pairs of the benchmark, written to a BENCH_*.json.

Run from the repository root:

    python3 tools/bench_pairs.py --parent HEAD~1 --workload corpus --pairs 10 \\
        --out BENCH_example.json

The parent revision is exported with ``git archive REV | tar -x`` into a
temporary directory; the change is the working tree.  Each tree runs its own
``perfbench/run.py`` for the benchmark's 30 seconds, so the script refuses to
run when ``perfbench/`` or ``BENCHMARK.json`` differ between the two trees:
the pairs would not measure the same work.

Odd pairs (1st, 3rd, ...) run the parent first and even pairs the change
first.  Each value is the median over
one run's repeats, as ``perfbench/run.py`` prints it.  For every end-to-end
metric the output lists both sides' values, their medians, the parent's
interquartile range and how many pairs the change won (lower is better).
Standard output has one line per workload and metric with the two medians,
the wins and the parent's IQR, then a line per workload that says whether
every run was correct and whether both trees gave the same report digests;
the exit status is 1 when either is false, 2 when the pairs could not be
run.  Stdlib only.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SHARED = ("perfbench", "BENCHMARK.json")
METRICS = ("setup_s", "wall_s", "inst_p50_s", "inst_p90_s", "peak_rss_mb")


class PairError(Exception):
    pass


def git(*args, **kwargs):
    return subprocess.run(["git", "-C", str(ROOT)] + list(args), check=True,
                          capture_output=True, **kwargs).stdout


def export(rev, dest):
    """Write the tree of ``rev`` into ``dest`` with git archive and tar."""
    archive = subprocess.Popen(["git", "-C", str(ROOT), "archive", "--format=tar", rev],
                               stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", str(dest)], stdin=archive.stdout, check=True)
    archive.stdout.close()
    if archive.wait() != 0:
        raise PairError("git archive %s failed" % rev)


def shared_differ(rev):
    """Whether the files under SHARED differ between ``rev`` and the working tree."""
    changed = subprocess.run(["git", "-C", str(ROOT), "diff", "--quiet", rev, "--", *SHARED])
    if changed.returncode not in (0, 1):
        raise PairError("git diff against %s failed" % rev)
    untracked = git("ls-files", "--others", "--exclude-standard", "--", *SHARED)
    return changed.returncode == 1 or bool(untracked)


def run_bench(tree, workload):
    """One ``perfbench/run.py`` run in ``tree``: (metrics, correct, digests)."""
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seconds", "30", "--trace", "0"],
                          cwd=str(tree), capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        sys.stderr.write(proc.stderr)
        raise PairError("perfbench in %s exited with %d" % (tree, proc.returncode))
    result = json.loads(lines[-1])
    digests = []
    for line in lines:
        if line.strip().startswith("report digest"):
            digests += line.split()[2:]
    values = {name: result["metrics"][name]["value"] for name in METRICS}
    return values, result["correct"], digests


def summarize(parent, change):
    """Medians, the parent's IQR and the change's wins for one metric."""
    q1, _, q3 = statistics.quantiles(parent, n=4)
    wins = sum(c < p for p, c in zip(parent, change))
    return {"parent_median": round(statistics.median(parent), 4),
            "change_median": round(statistics.median(change), 4),
            "parent_iqr": round(q3 - q1, 4),
            "change_wins": "%d/%d" % (wins, len(parent)),
            "parent": [round(v, 4) for v in parent],
            "change": [round(v, 4) for v in change]}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="parent revision")
    parser.add_argument("--workload", action="append", required=True,
                        choices=("corpus", "deep", "free3"))
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--out", required=True, help="the BENCH_*.json to write")
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2")
    # exit through SystemExit on SIGTERM, so the exported trees are removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        parent_tree = Path(tmp) / "parent"
        parent_tree.mkdir()
        export(args.parent, parent_tree)
        if shared_differ(args.parent):
            raise PairError("perfbench/ or BENCHMARK.json differ between the trees; "
                            "pairs would not measure the same work")
        trees = {"parent": parent_tree, "change": ROOT}

        doc = {
            "what": "alternating parent/change pairs of `python3 perfbench/run.py "
                    "--workload W --seconds 30 --trace 0`; odd pairs run the "
                    "parent first, even pairs the change first; each value is the "
                    "median over that run's repeats",
            "parent": git("rev-parse", "--short", args.parent, text=True).strip(),
            "change": "working tree",
            "machine": "Python %s, %d CPUs, one benchmark process at a time"
                       % (platform.python_version(), os.cpu_count() or 0),
            "workloads": {},
        }
        for workload in args.workload:
            values = {side: {m: [] for m in METRICS} for side in trees}
            correct = True
            digests = {side: set() for side in trees}
            for i in range(args.pairs):
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                for side in order:
                    got, ok, dig = run_bench(trees[side], workload)
                    correct = correct and ok
                    digests[side].update(dig)
                    for m in METRICS:
                        values[side][m].append(got[m])
                print("%s pair %d/%d: wall_s parent %.3f change %.3f"
                      % (workload, i + 1, args.pairs, values["parent"]["wall_s"][-1],
                         values["change"]["wall_s"][-1]), file=sys.stderr)
            entry = {"all_runs_correct": correct,
                     "report_digests": {side: sorted(d) for side, d in digests.items()},
                     "digests_equal": digests["parent"] == digests["change"]}
            for m in METRICS:
                entry[m] = summarize(values["parent"][m], values["change"][m])
            doc["workloads"][workload] = entry
    Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")
    broken = False
    for workload, entry in doc["workloads"].items():
        for m in METRICS:
            v = entry[m]
            print("%s %s median %.4f -> %.4f, change wins %s, parent IQR %.4f"
                  % (workload, m, v["parent_median"], v["change_median"], v["change_wins"],
                     v["parent_iqr"]))
        print("%s all_runs_correct %s, digests_equal %s"
              % (workload, entry["all_runs_correct"], entry["digests_equal"]))
        broken = broken or not (entry["all_runs_correct"] and entry["digests_equal"])
    return 1 if broken else 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except PairError as exc:
        sys.stderr.write("bench_pairs: %s\n" % exc)
        sys.exit(2)
