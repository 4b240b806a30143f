#!/usr/bin/env python3
"""Benchmark of hilbclose: the time to verify a corpus and to analyze single
instances at large n, end to end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all            # every workload
    python3 perfbench/run.py --workload deep --trace 1  # per-layer metrics

Each repeat of a workload runs in a fresh interpreter (``worker.py``), one at
a time, so no cache and no peak memory carries over.  A run makes at least
three repeats and starts another while it expects it to end within
``--seconds``.  An instance's time is the mean over the repeats; set-up is
measured in the repeats and in extra set-up-only interpreters, and reported
as a median.  With ``--trace 1`` one more repeat runs traced; the run prints
the per-layer metrics and the tracing overhead, and writes the spans under
``perfbench/out/``.  The workloads are fixed; ``--seed`` changes nothing
(README.md says why).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is 0
when every output check passed, 1 when one failed, 2 when the benchmark
could not run.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
WORKLOADS = ("corpus", "deep", "free3")
SETUP_ONLY_REPEATS = 5
MIN_REPEATS = 3
CHILD_TIMEOUT_S = 170

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "inst_p50_s": "s",
    "inst_p90_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "lattice.first_shift_calls": "count",
    "lattice.member_calls": "count",
    "lattice.self_s": "s",
    "lattice.grid_lines": "count",
    "lattice.table_cells": "count",
    "ideals.line_first_calls": "count",
    "ideals.fanout": "ratio",
    "ideals.extract_calls": "count",
    "ideals.extract_s": "s",
    "ideals.extract_yield": "ratio",
    "ideals.complement_points": "count",
    "ideals.complement_hit_ratio": "ratio",
    "ideals.power_s": "s",
    "ideals.self_s": "s",
    "closures.integral_s": "s",
    "closures.lim_s": "s",
    "closures.limit_chain_steps": "count",
    "closures.limit_hit_ratio": "ratio",
    "closures.tight_s": "s",
    "closures.self_s": "s",
    "hilbert.members": "count",
    "hilbert.fit_s": "s",
    "hilbert.retries": "count",
    "hilbert.not_stabilized": "count",
    "hilbert.e0_mismatch": "count",
    "hilbert.self_s": "s",
    "theorems.checks_s": "s",
    "theorems.corpus_s": "s",
    "theorems.self_s": "s",
    "formats.report_s": "s",
    "formats.report_bytes": "bytes",
    "formats.self_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
}


class BenchmarkError(Exception):
    """The benchmark itself could not run (as opposed to a failed check)."""


def run_child(args):
    """One worker interpreter; returns its JSON result."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    try:
        proc = subprocess.run([sys.executable, str(BENCH / "worker.py")] + args,
                              capture_output=True, text=True, env=env, cwd=str(ROOT),
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchmarkError("worker %s timed out after %d s" % (args, CHILD_TIMEOUT_S))
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchmarkError("worker %s exited with %d" % (args, proc.returncode))
    return json.loads(lines[-1])


def percentile(values, q):
    """The q-th percentile (0 < q < 100) by linear interpolation."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def run_workload(name, seed, seconds, trace, count=None, smoke=False):
    """Every repeat of one workload; returns (summary dict, metrics dict)."""
    base = ["--workload", name]
    if count is not None:
        base += ["--count", str(count)]
    if smoke:
        base.append("--smoke")
    setups = [run_child(base + ["--setup-only"])["setup_s"]
              for _ in range(SETUP_ONLY_REPEATS)]
    passes = []
    start = time.perf_counter()
    # after the minimum, start another repeat only if it should end in time
    while (len(passes) < MIN_REPEATS
           or (time.perf_counter() - start) * (1 + 1.0 / len(passes)) <= seconds):
        passes.append(run_child(base))
    setups += [p["setup_s"] for p in passes]
    traced = None
    if trace:
        OUT.mkdir(exist_ok=True)
        spans = OUT / ("spans-%s-seed%d.jsonl" % (name, seed))
        traced = run_child(base + ["--trace", "1", "--spans-out", str(spans)])

    runs = passes + ([traced] if traced else [])
    instances = sorted(passes[0]["inst_s"])
    fails, problems, errors = {}, {}, {}
    for run in runs:
        fails.update(run["fails"])
        problems.update(run["problems"])
        errors.update(run["errors"])
    digests = sorted({run["digest"] for run in runs})
    # the mean over repeats averages over the machine's bursts of load from other
    # tenants; it was steadier than the median or the minimum of the repeats
    inst = [statistics.fmean(run["inst_s"][iid] for run in passes) for iid in instances]
    summary = {
        "workload": name,
        "repeats": len(passes),
        "repeat_wall_s": [run["wall_s"] for run in passes],
        "instances": len(instances),
        "setup_samples": len(setups),
        "fail_ids": {iid: fails.get(iid) or [errors[iid]]
                     for iid in sorted(set(fails) | set(errors))},
        "problems": problems,
        "errors": errors,
        "digests": digests,
        "attempted": sum(len(run["inst_s"]) for run in runs),
        "failed": sum(len(set(run["problems"]) | set(run["errors"])) for run in runs),
    }
    summary["fail_frac"] = len(summary["fail_ids"]) / len(instances) if instances else 0.0
    summary["correct"] = bool(instances) and not problems and not errors and len(digests) == 1
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": sum(inst),
        "inst_p50_s": percentile(inst, 50),
        "inst_p90_s": percentile(inst, 90),
        "peak_rss_mb": statistics.median(run["peak_rss_mb"] for run in passes),
    }
    if traced:
        layers = dict(traced["layers"])
        layers["trace.overhead_s"] = traced["wall_s"] - metrics["wall_s"]
        summary["spans"] = traced["spans"]
        metrics = layers
    return summary, metrics


def print_summary(summary, metrics, units):
    name = summary["workload"]
    print("workload %s: %d timed repeat(s), %d instance(s) each, %d set-up sample(s)"
          % (name, summary["repeats"], summary["instances"], summary["setup_samples"]))
    print("  %-28s %s" % ("pass time of each repeat",
                          " ".join("%.3f" % t for t in summary["repeat_wall_s"])))
    for key in units:
        print("  %-28s %14.6g %s" % (key, metrics[key], units[key]))
    print("  %-28s %14.4f (%d of %d instances)"
          % ("fail_frac", summary["fail_frac"], len(summary["fail_ids"]), summary["instances"]))
    for iid, why in summary["fail_ids"].items():
        print("    %s: %s" % (iid, "; ".join(why)))
    print("  %-28s %s" % ("report digest", " ".join("sha256:" + d for d in summary["digests"])))
    if "spans" in summary:
        print("  %-28s %d" % ("recorded spans", summary["spans"]))
    checks = "ok" if summary["correct"] else "FAILED"
    print("  %-28s %s" % ("output checks", checks))
    for iid, what in sorted(summary["problems"].items()):
        print("    %s: %s" % (iid, "; ".join(what)))
    for iid, what in sorted(summary["errors"].items()):
        print("    %s: %s" % (iid, what))
    if len(summary["digests"]) > 1:
        print("    report digests differ between repeats")


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="hilbclose benchmark", epilog="Workloads: " + ", ".join(WORKLOADS))
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=42,
                        help="accepted and recorded; the workloads are fixed (see README.md)")
    parser.add_argument("--seconds", type=float, default=30,
                        help="time for the timed repeats; after the first three, a "
                             "repeat starts only if it is expected to end within it")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--count", type=int, default=None,
                        help="corpus instances to verify (default 25; 100 is the whole "
                             "acceptance corpus)")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, for the self-tests")
    args = parser.parse_args(argv)

    if not (SRC / "hilbclose" / "__init__.py").is_file():
        sys.stderr.write("hilbclose sources not found under %s\n" % SRC)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    units = PER_LAYER if args.trace else END_TO_END
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        try:
            summary, metrics = run_workload(name, args.seed, args.seconds, args.trace,
                                            count=args.count if name == "corpus" else None,
                                            smoke=args.smoke)
        except BenchmarkError as exc:
            sys.stderr.write("benchmark error: %s\n" % exc)
            return 2
        print_summary(summary, metrics, units)
        result["correct"] = result["correct"] and summary["correct"]
        result["attempted"] += summary["attempted"]
        result["failed"] += summary["failed"]
        prefix = "" if len(names) == 1 else name + "."
        for key, unit in units.items():
            result["metrics"][prefix + key] = {"value": metrics[key], "unit": unit}
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
