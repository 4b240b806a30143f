"""One repeat of one workload, in a fresh interpreter.

``run.py`` starts this script once per repeat, so no ring, ideal or engine
cache and no peak memory carries over between repeats.  It prints one JSON
object: set-up and pass times, per-instance times, the digest of the reports,
the instances counted in fail_frac, failed checks and peak RSS; with
``--trace 1`` also the per-layer metrics of the pass.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import time
import traceback


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--count", type=int, default=None)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans-out", default=None)
    args = parser.parse_args(argv)

    t0 = time.perf_counter()
    import hilbclose.cli  # noqa: F401  (importing is part of the set-up time)

    import workloads

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    items = workloads.setup(args.workload, count=args.count, smoke=args.smoke)
    setup_s = time.perf_counter() - t0
    result = {"setup_s": setup_s}
    if args.setup_only:
        print(json.dumps(result))
        return 0

    corpus_s = tracer.incl["theorems.corpus"] if tracer else 0.0
    if tracer:
        tracer.reset()
    runner = workloads.Runner(args.workload, smoke=args.smoke)
    inst_s, reports, fails, problems, errors = {}, {}, {}, {}, {}
    e0_mismatch = 0
    start = time.perf_counter()
    for item in items:
        iid = item.instance_id
        if tracer:
            tracer.instance = iid
        a = time.perf_counter()
        try:
            outcome = runner.run(item)
        except Exception as exc:  # one instance's crash must not hide the others
            inst_s[iid] = time.perf_counter() - a
            errors[iid] = "%s: %s" % (type(exc).__name__, exc)
            traceback.print_exc(file=sys.stderr)
            continue
        inst_s[iid] = time.perf_counter() - a
        if tracer:
            tracer.read_ring(item.ring)
        reports[iid] = outcome.report
        why = workloads.fit_failures(outcome.fits)
        e0_mismatch += any(w.startswith("e0 mismatch") for w in why)
        if outcome.problems:
            problems[iid] = outcome.problems
            why = why + ["check failed"]
        if why:
            fails[iid] = why
    wall_s = time.perf_counter() - start

    digest = hashlib.sha256()
    for iid in sorted(reports):
        digest.update(iid.encode() + b"\n" + reports[iid].encode())
    result.update({
        "wall_s": wall_s,
        "inst_s": inst_s,
        "digest": digest.hexdigest(),
        "fails": fails,
        "problems": problems,
        "errors": errors,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    })
    if tracer:
        tracer.uninstall()
        layers = tracer.metrics()
        layers["hilbert.e0_mismatch"] = e0_mismatch
        layers["theorems.corpus_s"] = corpus_s
        layers["trace.wall_s"] = wall_s
        result["layers"] = layers
        result["spans"] = len(tracer.spans)
        if args.spans_out:
            tracer.write_spans(args.spans_out)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
