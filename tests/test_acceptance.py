"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

The randomized corpus (seed 42, 100 two-dimensional instances, coordinates
bounded by 6) is generated once and shared by the criteria that quantify over
it.  Expected values are exact; no tolerances apply anywhere.
"""

import hashlib
import itertools
import json
import subprocess
import sys
import time
from math import comb

import pytest

from conftest import brute_member, child_env, integral_oracle, parameter_power, rule_member
from hilbclose.cli import example_instance
from hilbclose.closures import ClosureRule
from hilbclose.hilbert import (
    CoefficientBundle,
    Filtration,
    FiltrationKind,
    coefficient_report,
    fit_filtration,
)
from hilbclose.ideals import ParameterIdeal
from hilbclose.theorems import (
    CHECK_N_MAX,
    check_nonnegativity_chain,
    check_vanishing,
    fuzz_corpus,
    ring_profile,
    verify_instances,
)

SEED = 42
CORPUS_SIZE = 100
MAX_COORD = 6
N_MAX = 8
# sha256 of the fuzz report of the corpus above; a deliberate change of the
# report updates it
FUZZ_DIGEST = "711e97da78b1535a47c6bb22cd125ea87cc3d52b932cb5590fc4106004c2ffd6"


def _line(num, ok, text):
    print("ACCEPTANCE %d [%s] %s" % (num, "PASS" if ok else "FAIL", text))
    return ok


@pytest.fixture(scope="module")
def corpus_run():
    t0 = time.time()
    corpus = fuzz_corpus(SEED, CORPUS_SIZE, max_coord=MAX_COORD)
    summary = verify_instances(corpus, n_max=N_MAX)
    elapsed = time.time() - t0
    return corpus, summary, elapsed


def test_criterion_1_paper_counterexample(remark_ring):
    t0 = time.time()
    q = ParameterIdeal(remark_ring, [(1, 0), (0, 2)])
    rep = fit_filtration(Filtration(FiltrationKind.INTEGRAL, q), n_max=10)
    expected = [2 * comb(n + 2, 2) - 1 for n in range(11)]
    lengths_ok = list(rep.lengths) == expected
    fit_ok = rep.coefficients[:2] == (2, 0)
    prof = ring_profile(remark_ring)
    profile_ok = (not prof.is_regular) and (not prof.is_s2)
    elapsed = time.time() - t0
    ok = lengths_ok and fit_ok and profile_ok and elapsed < 10
    assert _line(1, ok,
                 "counterexample ring: integral lengths 2*C(n+2,2)-1 exact, "
                 "(e0bar, e1bar) = (2, 0), non-regular, non-S2 (%.1fs)" % elapsed)
    assert lengths_ok and fit_ok and profile_ok
    assert elapsed < 10


def test_criterion_2_derived_benchmark(free2):
    t0 = time.time()
    q = ParameterIdeal(free2, [(2, 0), (0, 3)])
    int_rep = fit_filtration(Filtration(FiltrationKind.INTEGRAL, q), n_max=10)
    ord_rep = fit_filtration(Filtration(FiltrationKind.ORDINARY, q), n_max=10)
    expected = [(n + 1) * (3 * n + 5) for n in range(11)]
    lengths_ok = list(int_rep.lengths) == expected
    fits_ok = int_rep.coefficients == (6, 1, 0) and ord_rep.coefficients == (6, 0, 0)
    elapsed = time.time() - t0
    ok = lengths_ok and fits_ok and elapsed < 5
    assert _line(2, ok,
                 "free (x^2, y^3): integral lengths (n+1)(3n+5), fits (6,1,0) "
                 "and (6,0,0) (%.1fs)" % elapsed)
    assert lengths_ok and fits_ok
    assert elapsed < 5


def test_criterion_3_theorem_property_suite(corpus_run):
    corpus, summary, elapsed = corpus_run
    size_ok = summary.instances >= 100
    inclusion_ok = all(r["chain"].inclusions_ok for r in summary.results)
    claim_ok = all(all(r["chain"].claim_bound_ok) for r in summary.results)
    sign_ok = True
    bracket_ok = True
    for r in summary.results:
        det = r["chain"].details
        if det["e1_ordinary"] is None or det["e1_ordinary"] > 0:
            sign_ok = False
        if det["e1_lim"] is not None:
            if det["e1_lim"] < 0:
                bracket_ok = False
            if det["e1_integral"] is not None and det["e1_integral"] < det["e1_lim"]:
                bracket_ok = False
    time_ok = elapsed < 300
    ok = size_ok and inclusion_ok and claim_ok and sign_ok and bracket_ok and time_ok
    assert _line(3, ok,
                 "%d-instance corpus: sandwich, split-count bound, e1 <= 0, "
                 "bracket nonempty and nonnegative (%.1fs)"
                 % (summary.instances, elapsed))
    assert size_ok and inclusion_ok and claim_ok and sign_ok and bracket_ok
    assert time_ok


def test_criterion_4_vanishing_suite(corpus_run, remark_ring):
    corpus, summary, _ = corpus_run
    corpus_ok = all(not r["vanishing"].failed for r in summary.results)
    # every corpus instance with vanishing integral e1 and S2 must be "pass"
    for r in summary.results:
        v = r["vanishing"]
        if v.e1_integral == 0 and v.profile.is_s2:
            corpus_ok = corpus_ok and v.classification == "pass"
    builtins_ok = True
    classifications = {}
    for name in ("remark-s2", "free-x2y3", "free-maximal"):
        ring, q = example_instance(name)
        verdict = check_vanishing(CoefficientBundle(ring, q, n_max=CHECK_N_MAX))
        classifications[name] = verdict.classification
        builtins_ok = builtins_ok and not verdict.failed
    witness_ok = classifications["remark-s2"] == "witness"
    ok = corpus_ok and builtins_ok and witness_ok
    assert _line(4, ok,
                 "vanishing implication clean on corpus + built-ins; "
                 "counterexample classified as hypothesis-violating witness")
    assert corpus_ok and builtins_ok and witness_ok


def test_criterion_5_e1_zero_implies_cm(corpus_run):
    corpus, summary, _ = corpus_run
    checked = 0
    lim_checked = 0
    ok = True
    for r in summary.results:
        verdict = r["e1_zero_cm"]
        if not verdict.applicable:
            continue
        checked += 1
        q = r["instance"].parameter
        if not (r["vanishing"].profile.is_cm and q.colength() == q.multiplicity()):
            ok = False
        if verdict.details.get("e1_lim") == 0:
            lim_checked += 1
            if verdict.details.get("limit_closure_trivial") is not True:
                ok = False
        if not verdict.ok:
            ok = False
    assert _line(5, ok,
                 "e1 = 0 instances (%d) are CM; e1_lim = e1 = 0 instances (%d) "
                 "have trivial limit closure" % (checked, lim_checked))
    assert ok
    assert checked > 0  # the corpus does exercise the implication


def test_criterion_6_characteristic_p_bracket():
    ok = True
    details = []
    for name in ("remark-s2", "free-x2y3", "free-maximal"):
        ring, q = example_instance(name)
        for p in (2, 3):
            verdict = check_nonnegativity_chain(
                CoefficientBundle(ring, q, n_max=6, characteristic=p))
            bundle = coefficient_report(ring, q, n_max=8, characteristic=p)
            chain_ok = verdict.passed
            e1_lim, e1_tight = bundle.tight_bracket
            e1_int = bundle.e1_integral
            bracket_ok = 0 <= e1_lim <= e1_tight <= e1_int if None not in (
                e1_lim, e1_tight, e1_int) else False
            ok = ok and chain_ok and bracket_ok
            details.append("%s/p=%d:%s" % (name, p, "ok" if chain_ok and bracket_ok
                                           else "FAIL"))
    assert _line(6, ok,
                 "char-p sandwich with tight closure and bracket in [0, e1bar] "
                 "on built-ins (%s)" % ", ".join(details))
    assert ok


def test_criterion_7_oracle_equivalence(corpus_run):
    corpus, _, _ = corpus_run
    t0 = time.time()
    closure_ok = True
    member_ok = True
    box = [v for v in itertools.product(range(21), repeat=2) if v[0] + v[1] <= 20]
    for inst in corpus:
        # the run path's integral rule against the Newton polyhedra of Q,
        # scaled by n, and of Q^n
        ideal = parameter_power(inst.parameter, 1)
        rule = ClosureRule(inst.parameter)
        scaled = integral_oracle(ideal)
        for n in (2, 3, 4):
            power = integral_oracle(parameter_power(inst.parameter, n))
            if any(not rule_member(rule, n, v) == scaled(n, v) == power(1, v) for v in box):
                closure_ok = False
        gens = [tuple(g) for g in inst.ring.generators]
        for v in box:
            if inst.ring.member(v) != brute_member(gens, v):
                member_ok = False
    elapsed = time.time() - t0
    ok = closure_ok and member_ok
    assert _line(7, ok,
                 "integral rule equals the closure of the power (n <= 4) and "
                 "membership matches brute force (|v| <= 20) on all %d instances (%.1fs)"
                 % (len(corpus), elapsed))
    assert closure_ok and member_ok


def test_criterion_8_fuzz_determinism(tmp_path):
    t0 = time.time()
    outs = []
    for i in (0, 1):
        out = tmp_path / ("run%d.json" % i)
        proc = subprocess.run(
            [sys.executable, "-m", "hilbclose.cli", "fuzz",
             "--seed", str(SEED), "--count", str(CORPUS_SIZE),
             "--max-coord", str(MAX_COORD), "--n-max", str(N_MAX),
             "--out", str(out)],
            capture_output=True, text=True, env=child_env())
        assert proc.returncode == 0, proc.stderr
        outs.append(out.read_bytes())
    elapsed = time.time() - t0
    ok = outs[0] == outs[1] and len(outs[0]) > 0
    report = json.loads(outs[0])
    clean = report["summary"]["violations"] == "0"
    pinned = hashlib.sha256(outs[0]).hexdigest() == FUZZ_DIGEST
    assert _line(8, ok and clean and pinned,
                 "two fuzz runs (seed %d, %d instances) are byte-identical, "
                 "violation-free and match the pinned digest (%.1fs)"
                 % (SEED, CORPUS_SIZE, elapsed))
    assert ok and clean and pinned
