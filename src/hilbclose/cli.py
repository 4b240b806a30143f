"""Batch front end: analyze single instances, verify corpora, fuzz, replay
built-in examples.

Exit codes: 0 success, 1 input error, 2 partial report (a fit did not
stabilize), 3 theorem violation or example mismatch, 4 internal error (a
certification check failed).  Reports are byte-deterministic for a fixed
configuration.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from math import comb

from . import formats
from .errors import HilbcloseError, UncertifiedError
from .hilbert import FiltrationKind, _is_prime, coefficient_report
from .ideals import ParameterIdeal
from .theorems import fuzz_corpus, verify_instances

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_PARTIAL = 2
EXIT_VIOLATION = 3
EXIT_INTERNAL = 4

REPORT_FORMATS = ("json", "csv", "table")
CHAR_HELP = ("a prime p: adds the tight filtration (Q^n)* = Q^n S̄ ∩ S, S̄ the "
             "normalization, the same for every p")


def _emit(text, out_path):
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _load_json(path, what):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise formats.FormatError("cannot read %s file %r: %s" % (what, path, exc))
    except json.JSONDecodeError as exc:
        raise formats.FormatError(
            "%s file %r: line %d column %d: %s"
            % (what, path, exc.lineno, exc.colno, exc.msg))


def _check_args(args):
    """The bounds on the options, checked before any file is read; the
    n_max bound is the 2-D one, as no ring is known yet (``_check_n_max``)."""
    if args.command == "example":
        return
    if args.n_max < 5:
        raise ValueError("n-max must be at least 5")
    if args.command == "fuzz":
        if args.count < 0:
            raise ValueError("count must be at least 0")
        if args.max_coord < 1:
            raise ValueError("max-coord must be at least 1")
    if args.char is not None and not _is_prime(args.char):
        raise ValueError("characteristic must be prime")


def _check_n_max(n_max, rings):
    """Length fits need n_max >= dim + 3; ``_check_args`` checks n_max
    before the rings are read, so only the 2-D bound."""
    dim = max((ring.dim for ring in rings), default=0)
    if n_max < dim + 3:
        raise ValueError("n-max must be at least %d for a %d-dimensional ring"
                         % (dim + 3, dim))


def run_analyze(args):
    try:
        ring = formats.ring_from_record(_load_json(args.ring, "ring"))
        record = _load_json(args.ideal, "ideal")
        gens, _ = formats.ideal_from_record(record, ring)
        q = ParameterIdeal(ring, gens)
        _check_n_max(args.n_max, [ring])
    except (HilbcloseError, ValueError) as exc:
        sys.stderr.write("input error [%s]: %s\n"
                         % (getattr(exc, "code", "INVALID"), exc))
        return EXIT_INPUT
    bundle = coefficient_report(ring, q, n_max=args.n_max, characteristic=args.char)
    report = formats.bundle_to_report(bundle, ring, record)
    if ring.is_free and ring.dim <= 2:
        # Q is (x^a) or (x^a, y^b) there, whose Newton-polyhedron volume is e(Q)
        report["multiplicity_volume"] = q.multiplicity()
    if args.report == "json":
        _emit(formats.dumps_report(report), args.out)
    elif args.report == "csv":
        _emit(formats.bundle_to_csv(bundle), args.out)
    else:
        _emit(formats.bundle_to_table(bundle), args.out)
    partial = any(rep.status != "ok" for rep in bundle.reports.values())
    return EXIT_PARTIAL if partial else EXIT_OK


def _run_verification(args, instances, params):
    summary = verify_instances(instances, n_max=args.n_max, characteristic=args.char)
    report = formats.summary_to_report(summary, args.command, params)
    _emit(formats.dumps_report(report), args.out)
    if summary.violations:
        repro = formats.reproducer_record(summary.violations[0])
        path = (args.out or "violation") + ".reproducer.json"
        with open(path, "w") as fh:
            json.dump(repro, fh, sort_keys=True, indent=2)
            fh.write("\n")
        sys.stderr.write("theorem violation: reproducer written to %s\n" % path)
        return EXIT_VIOLATION
    if summary.partial:
        sys.stderr.write("partial report: %d instance(s) with a fit that did not stabilize\n"
                         % len(summary.partial))
        return EXIT_PARTIAL
    return EXIT_OK


def run_verify(args):
    try:
        instances = formats.corpus_from_record(_load_json(args.corpus, "corpus"))
        _check_n_max(args.n_max, [inst.ring for inst in instances])
    except (HilbcloseError, ValueError) as exc:
        sys.stderr.write("input error [%s]: %s\n"
                         % (getattr(exc, "code", "INVALID"), exc))
        return EXIT_INPUT
    # the file name alone, so the report does not depend on how the path is spelt
    return _run_verification(args, instances, {"corpus": os.path.basename(args.corpus)})


def run_fuzz(args):
    try:
        instances = fuzz_corpus(args.seed, args.count, max_coord=args.max_coord)
    except HilbcloseError as exc:
        sys.stderr.write("input error [%s]: %s\n" % (exc.code, exc))
        return EXIT_INPUT
    params = {"seed": args.seed, "count": args.count, "max_coord": args.max_coord}
    return _run_verification(args, instances, params)


# ---------------------------------------------------------------------------
# built-in examples

def _builtin_examples():
    remark = {
        "name": "remark-s2",
        "ring": {"dim": 2, "generators": [[1, 0], [1, 1], [0, 2], [0, 3]]},
        "ideal": {"generators": [[1, 0], [0, 2]], "ordered": True},
        "n_max": 8,
        "expect": {
            "integral_lengths": [2 * comb(n + 2, 2) - 1 for n in range(9)],
            "ordinary_lengths": [(n + 1) * (n + 3) for n in range(9)],
            "integral_coefficients": [2, 0, -1],
            "ordinary_coefficients": [2, -1, 0],
            "e1_lim": 0,
        },
    }
    x2y3 = {
        "name": "free-x2y3",
        "ring": {"dim": 2, "generators": [[1, 0], [0, 1]]},
        "ideal": {"generators": [[2, 0], [0, 3]], "ordered": True},
        "n_max": 8,
        "expect": {
            "integral_lengths": [(n + 1) * (3 * n + 5) for n in range(9)],
            "ordinary_lengths": [6 * comb(n + 2, 2) for n in range(9)],
            "integral_coefficients": [6, 1, 0],
            "ordinary_coefficients": [6, 0, 0],
            "e1_lim": 0,
        },
    }
    maximal = {
        "name": "free-maximal",
        "ring": {"dim": 2, "generators": [[1, 0], [0, 1]]},
        "ideal": {"generators": [[1, 0], [0, 1]], "ordered": True},
        "n_max": 8,
        "expect": {
            "integral_lengths": [comb(n + 2, 2) for n in range(9)],
            "ordinary_lengths": [comb(n + 2, 2) for n in range(9)],
            "integral_coefficients": [1, 0, 0],
            "ordinary_coefficients": [1, 0, 0],
            "e1_lim": 0,
        },
    }
    return {ex["name"]: ex for ex in (remark, x2y3, maximal)}


def example_instance(name):
    """Ring and parameter ideal of a built-in example."""
    ex = _builtin_examples()[name]
    ring = formats.ring_from_record(ex["ring"])
    gens, _ = formats.ideal_from_record(ex["ideal"], ring)
    return ring, ParameterIdeal(ring, gens)


def run_example(args):
    examples = _builtin_examples()
    name = args.name
    if name not in examples:
        sys.stderr.write("unknown example %r; available: %s\n"
                         % (name, ", ".join(sorted(examples))))
        return EXIT_INPUT
    ex = examples[name]
    ring, q = example_instance(name)
    bundle = coefficient_report(ring, q, n_max=ex["n_max"])
    got = {
        "integral_lengths": list(bundle.report(FiltrationKind.INTEGRAL).lengths),
        "ordinary_lengths": list(bundle.report(FiltrationKind.ORDINARY).lengths),
        "integral_coefficients": list(bundle.report(FiltrationKind.INTEGRAL).coefficients),
        "ordinary_coefficients": list(bundle.report(FiltrationKind.ORDINARY).coefficients),
        "e1_lim": bundle.e1_lim,
    }
    lines = ["example %s" % name,
             "%-24s %-8s" % ("quantity", "match")]
    all_ok = True
    for key in sorted(ex["expect"]):
        ok = got[key] == ex["expect"][key]
        all_ok = all_ok and ok
        lines.append("%-24s %-8s expected=%r got=%r"
                     % (key, "ok" if ok else "MISMATCH", ex["expect"][key], got[key]))
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK if all_ok else EXIT_VIOLATION


# ---------------------------------------------------------------------------
# argument parsing

def build_parser():
    parser = argparse.ArgumentParser(
        prog="hilbclose",
        description="Exact Hilbert-Samuel coefficients of closure filtrations "
                    "for monomial ideals in affine semigroup rings.")
    sub = parser.add_subparsers(dest="command", required=True)

    pa = sub.add_parser("analyze", help="coefficient report for one instance")
    pa.add_argument("--ring", required=True, help="ring description JSON file")
    pa.add_argument("--ideal", required=True, help="parameter ideal JSON file")
    pa.add_argument("--n-max", type=int, default=10)
    pa.add_argument("--char", type=int, default=None, help=CHAR_HELP)
    pa.add_argument("--report", choices=REPORT_FORMATS, default="json")
    pa.add_argument("--out", default=None)

    pv = sub.add_parser("verify", help="run the theorem suite over a corpus file")
    pv.add_argument("--corpus", required=True)
    pv.add_argument("--n-max", type=int, default=8)
    pv.add_argument("--char", type=int, default=None, help=CHAR_HELP)
    pv.add_argument("--out", default=None)

    pf = sub.add_parser("fuzz", help="generate and verify a random corpus")
    pf.add_argument("--seed", type=int, required=True)
    pf.add_argument("--count", type=int, required=True)
    pf.add_argument("--max-coord", type=int, default=6)
    pf.add_argument("--n-max", type=int, default=8)
    pf.add_argument("--char", type=int, default=None, help=CHAR_HELP)
    pf.add_argument("--out", default=None)

    pe = sub.add_parser("example", help="replay a built-in example")
    pe.add_argument("name")
    pe.add_argument("--out", default=None)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_args(args)
    except ValueError as exc:
        sys.stderr.write("input error: %s\n" % exc)
        return EXIT_INPUT
    runner = {"analyze": run_analyze, "verify": run_verify,
              "fuzz": run_fuzz, "example": run_example}[args.command]
    try:
        return runner(args)
    except UncertifiedError as exc:
        # a certificate the theory guarantees did not hold: a bug, not bad input
        sys.stderr.write("internal error [%s]: %s\n" % (exc.code, exc))
        return EXIT_INTERNAL
    except HilbcloseError as exc:
        sys.stderr.write("error [%s]: %s\n" % (exc.code, exc))
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
