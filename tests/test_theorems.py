from collections import Counter
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    CHAIN_REASONS,
    chain_by_points,
    complement,
    lim_intersection,
    parameter_power,
    tight_member,
)
from hilbclose import closures, hilbert, ideals, theorems
from hilbclose.closures import ClosureRule
from hilbclose.errors import GenerationExhaustedError, UncertifiedError
from hilbclose.hilbert import CoefficientBundle, FiltrationKind, coefficient_report
from hilbclose.ideals import ParameterIdeal, _steps
from hilbclose.lattice import AffineSemigroup, _stair_corners, _staircase, vdot, vscale
from hilbclose.theorems import (
    CHECK_N_MAX,
    Instance,
    VerificationSummary,
    check_e1_zero_implies_cm,
    check_nonnegativity_chain,
    check_vanishing,
    fuzz_corpus,
    ring_profile,
    verify_instances,
)
from test_closures import CORPUS_RINGS, ray_parameters
from test_ideals import sweep_rings


def mutate_slot(monkeypatch, n, change):
    """Pass the corners of split slot n's column array on each coset through
    ``change(q, key, corners)`` whenever the slot is built."""
    real = closures._slot_stair

    def mutated(q, k):
        stair = real(q, k)
        if k == n:
            stair = {key: _staircase(change(q, key, _stair_corners(cols)))
                     for key, cols in stair.items()}
        return stair

    monkeypatch.setattr(closures, "_slot_stair", mutated)


class TestRingProfile:
    def test_remark(self, remark_ring):
        prof = ring_profile(remark_ring)
        assert not prof.is_cm          # colength 3 vs e0 = 2
        assert not prof.is_s2
        assert not prof.is_regular
        assert prof.embedding_dim == 4
        q = ParameterIdeal(remark_ring, [(1, 0), (0, 2)])
        assert q.colength() == 3
        assert CoefficientBundle(remark_ring, q, n_max=CHECK_N_MAX).e0 == 2

    def test_free(self, free2):
        prof = ring_profile(free2)
        assert prof.is_regular and prof.is_cm and prof.is_s2
        assert prof.embedding_dim == 2

    def test_cm_not_regular(self, cm_ring):
        prof = ring_profile(cm_ring)
        assert prof.is_cm and prof.is_s2
        assert not prof.is_regular
        assert prof.embedding_dim == 3

    def test_cm_from_apery_staircase(self, remark_ring, cm_ring, free3):
        # remark: coset (0, 1) of Z(1,0) + Z(0,2) holds the Apéry elements (1,1), (0,3)
        assert not remark_ring.is_cm
        assert cm_ring.is_cm and free3.is_cm
        assert AffineSemigroup(1, [(3,), (5,)]).is_cm
        # 1-D and free Z^3 rings are CM, hence S2
        assert ring_profile(free3).is_s2
        assert ring_profile(AffineSemigroup(1, [(3,), (5,)])).is_s2

    def test_regular_but_not_cm_is_uncertified(self, free2, monkeypatch):
        # regular => CM is an invariant, not an input condition: it raises
        # under python -O too
        monkeypatch.setattr(free2._engine, "is_cm", False)
        with pytest.raises(UncertifiedError, match="inconsistent ring profile"):
            ring_profile(free2)

    def test_profile_is_frozen_and_compared_by_value(self, free2, cm_ring):
        prof = ring_profile(free2)
        with pytest.raises(AttributeError):
            prof.is_cm = False
        assert prof == ring_profile(free2) != ring_profile(cm_ring)

    def test_cm_matches_multiplicity_on_corpus(self):
        verdicts = []
        for inst in fuzz_corpus(42, 25, max_coord=6):
            prof = ring_profile(inst.ring)
            e0 = CoefficientBundle(inst.ring, inst.parameter, n_max=CHECK_N_MAX).e0
            assert prof.is_cm == (inst.parameter.colength() == e0), inst.instance_id
            verdicts.append(prof.is_cm)
        assert True in verdicts and False in verdicts


class TestChain:
    def test_remark_chain(self, remark_ring):
        q = ParameterIdeal(remark_ring, [(1, 0), (0, 2)])
        verdict = check_nonnegativity_chain(CoefficientBundle(remark_ring, q, n_max=6))
        assert verdict.passed
        assert verdict.details["e1_ordinary"] == -1
        assert verdict.details["e1_lim"] == 0
        assert verdict.details["e1_integral"] == 0

    def test_free_x2y3(self, free2):
        q = ParameterIdeal(free2, [(2, 0), (0, 3)])
        verdict = check_nonnegativity_chain(CoefficientBundle(free2, q, n_max=6))
        assert verdict.passed
        assert (verdict.details["e1_ordinary"], verdict.details["e1_lim"],
                verdict.details["e1_integral"]) == (0, 0, 1)

    def test_free_maximal(self, free2):
        q = ParameterIdeal(free2, [(1, 0), (0, 1)])
        verdict = check_nonnegativity_chain(CoefficientBundle(free2, q, n_max=6))
        assert verdict.passed
        assert verdict.details["e1_integral"] == 0

    def test_char_p_chain(self, remark_ring):
        q = ParameterIdeal(remark_ring, [(1, 0), (0, 2)])
        verdict = check_nonnegativity_chain(
            CoefficientBundle(remark_ring, q, n_max=5, characteristic=2))
        assert verdict.passed

    def test_unnested_split_slots_fail(self, monkeypatch):
        # slot 3 gains the corner (4, 1), which lies in the integral closure
        # of Q^3 but not in slot 2; every inclusion and length rise still
        # holds.  The ring (fz42-032) is not CM: a CM ring's slot n is Q^n,
        # which the chain reads off the parameters with no arrays built
        ring = AffineSemigroup(2, [(0, 4), (0, 6), (1, 0), (4, 1), (4, 6)])
        q = ParameterIdeal(ring, [(1, 0), (0, 4)])
        assert not ring.is_cm
        eng = ring._engine
        l1, l2 = vdot(eng.lam1, (4, 1)), vdot(eng.lam2, (4, 1))
        gained = (l1 // eng.D1, l2 // eng.D2)
        mutate_slot(monkeypatch, 3, lambda q, key, corners: corners + [gained]
                    if key == (l1 % eng.D1, l2 % eng.D2) else corners)
        verdict = check_nonnegativity_chain(CoefficientBundle(ring, q, n_max=6))
        assert not verdict.inclusions_ok and not verdict.passed
        assert verdict.details["lim_chain_nested"] is False
        assert verdict.details["failures"] == [{"n": 3, "reason": "split slots not nested"}]

    def test_cm_ring_builds_no_power(self, monkeypatch):
        # slot n of a CM ring is Q^n: its generators, the sums of n
        # parameters, are read as facet-form values, with no ideal or slot
        # array built and no exponent vector tested
        ring = AffineSemigroup(2, [(1, 0), (2, 1), (0, 3), (1, 3)])
        q = ParameterIdeal(ring, [(1, 0), (0, 3)])
        assert ring.is_cm

        def refuse(*args):
            raise AssertionError("split slot built on a CM ring")

        monkeypatch.setattr(closures, "_slot_stair", refuse)
        verdict = check_nonnegativity_chain(
            CoefficientBundle(ring, q, n_max=6, characteristic=2))
        assert verdict.passed and verdict.details["lim_chain_nested"] is True

    def test_verify_path_reads_slot_arrays(self, monkeypatch):
        # fz42-003, the one non-CM ring of the first 25 corpus instances:
        # verify builds no ideal, and builds each slot's arrays once, slot 1
        # and slot n_max + 1 for the split certificate too.  The point-by-
        # point code lives on only in the tests (conftest.chain_by_points)
        inst = fuzz_corpus(42, 4, max_coord=6)[3]
        assert inst.instance_id == "fz42-003" and not inst.ring.is_cm
        for owner, name in ((closures, "lim_intersection"), (closures, "_split_slot"),
                            (ClosureRule, "member"), (ideals, "MonomialIdeal")):
            assert not hasattr(owner, name), name
        builds, real = Counter(), closures._slot_stair

        def counted(q, k):
            builds[k] += 1
            return real(q, k)

        monkeypatch.setattr(closures, "_slot_stair", counted)
        summary = verify_instances([inst], n_max=CHECK_N_MAX)
        assert summary.results[0]["chain"].inclusions_ok
        assert builds == Counter(range(1, CHECK_N_MAX + 2))

    def test_tight_lengths_below_integral_fail(self, remark_ring, monkeypatch):
        # slot n ⊆ (Q^n)* ⊆ the integral closure of Q^n, so a tight length
        # below the integral one breaks the length comparison
        q = ParameterIdeal(remark_ring, [(1, 0), (0, 2)])
        real = ClosureRule.lengths

        def lowered(rule, n_max):
            out = real(rule, n_max)
            return [ell - 1 for ell in out] if rule.tight else out

        monkeypatch.setattr(ClosureRule, "lengths", lowered)
        verdict = check_nonnegativity_chain(
            CoefficientBundle(remark_ring, q, n_max=6, characteristic=2))
        assert verdict.inclusions_ok and not verdict.coefficient_chain_ok
        assert verdict.details["failures"] == [
            {"n": n, "reason": "length comparison"} for n in range(7)]
        assert check_nonnegativity_chain(CoefficientBundle(remark_ring, q, n_max=6)).passed


class TestChainByPoints:
    """The chain check on facet-form values and slot arrays against the
    point-by-point check it replaced (``conftest.chain_by_points``): the
    same inclusions_ok, lim_chain_nested and failures, with and without a
    characteristic."""

    @staticmethod
    def assert_same(ring, q, n_max=6):
        failures = []
        for char in (None, 2):
            verdict = check_nonnegativity_chain(
                CoefficientBundle(ring, q, n_max=n_max, characteristic=char))
            got = [f for f in verdict.details.get("failures", ())
                   if f["reason"] in CHAIN_REASONS]
            assert (verdict.inclusions_ok, verdict.details["lim_chain_nested"], got) == \
                chain_by_points(ring, q, n_max, char), char
            failures.append(got)
        return failures

    @settings(max_examples=40, deadline=None)
    @given(st.one_of(sweep_rings, st.sampled_from(CORPUS_RINGS)),
           st.integers(1, 3), st.integers(1, 3), st.integers(0, 5), st.booleans())
    def test_ray_parameters(self, sgens, k1, k2, pick, swap):
        # parameters on each ray, not always multiples of g1 or g2
        ring = AffineSemigroup(2, sgens)
        assert self.assert_same(ring, ray_parameters(ring, k1, k2, pick, swap)) == [[], []]

    @pytest.mark.parametrize("dim,sgens,qgens", [
        (3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)], [(2, 0, 0), (0, 1, 0), (0, 0, 3)]),
        (3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)], [(0, 0, 3), (2, 0, 0), (0, 1, 0)]),
        (1, [(3,), (5,), (7,)], [(6,)]),
        (1, [(3,), (5,), (7,)], [(5,)]),
    ], ids=["free3", "free3-reordered", "num-3-5-7", "num-3-5-7-x5"])
    def test_cm_kinds(self, dim, sgens, qgens):
        ring = AffineSemigroup(dim, sgens)
        assert self.assert_same(ring, ParameterIdeal(ring, qgens)) == [[], []]

    NON_CM = [(AffineSemigroup(2, [(1, 0), (1, 1), (0, 2), (0, 3)]), [(1, 0), (0, 2)])] + [
        (i.ring, i.parameter.ordered_generators)
        for i in fuzz_corpus(42, 40, max_coord=6) if not i.ring.is_cm]

    @pytest.mark.parametrize("n", [2, 3, 5])
    @pytest.mark.parametrize("case", range(3))
    def test_gained_corner(self, monkeypatch, case, n):
        # slot n gains a corner below the first one of each coset in turn:
        # outside S, the integral closure or slot n - 1, and failing at n
        ring, gens = self.NON_CM[case]
        target = []

        def change(q, key, corners):
            (m1, m2), *_ = corners
            return corners + [(m1, m2 - 1)] if key in target and m2 else corners

        mutate_slot(monkeypatch, n, change)
        for key in sorted(ring._engine.stair):
            target[:] = [key]
            failures = self.assert_same(ring, ParameterIdeal(ring, gens))
            assert all(f["n"] == n for got in failures for f in got), key

    @pytest.mark.parametrize("n", [2, 3, 5])
    @pytest.mark.parametrize("case", range(3))
    def test_lost_corner(self, monkeypatch, case, n):
        # slot n loses the corner n*u, on row 0 of its coset: Q^n leaves it
        ring, gens = self.NON_CM[case]
        eng = ring._engine

        def change(q, key, corners):
            a = _steps(q)[0]
            return corners[:-1] if key == (n * a % eng.D1, 0) else corners

        mutate_slot(monkeypatch, n, change)
        failures = self.assert_same(ring, ParameterIdeal(ring, gens))
        assert all(got[0] == {"n": n, "reason": "inclusion"} for got in failures)

    def test_lost_corner_only_arrays_see(self, monkeypatch):
        # fz42-032: slot 2 loses the first corner of coset (0, 1), and is no
        # longer an ideal.  Slot 3 has a corner there outside it, which is
        # no minimal generator: the check by points passes, and the check
        # on the arrays, which tests every corner, fails at n = 3
        ring = AffineSemigroup(2, [(0, 4), (0, 6), (1, 0), (4, 1), (4, 6)])
        q = ParameterIdeal(ring, [(1, 0), (0, 4)])
        mutate_slot(monkeypatch, 2, lambda q, key, corners: corners[1:] if key == (0, 1)
                    else corners)
        assert chain_by_points(ring, q, 6) == (True, True, [])
        verdict = check_nonnegativity_chain(CoefficientBundle(ring, q, n_max=6))
        assert verdict.details["failures"] == [{"n": 3, "reason": "split slots not nested"}]


class TestClaimBound:
    def test_remark_small(self, remark_ring):
        bundle = CoefficientBundle(remark_ring, ParameterIdeal(remark_ring, [(1, 0), (0, 2)]))
        assert bundle.claim_row(1).ok
        assert bundle.claim_row(2).ok

    def test_free_equality_case(self, free2):
        # maximal ideal: the bound is met with equality
        bundle = CoefficientBundle(free2, ParameterIdeal(free2, [(1, 0), (0, 1)]))
        row = bundle.claim_row(3)
        assert row.ok and row.length == row.bound

    def test_one_formula(self, remark_ring, free2):
        # the bundle's rows and the chain verdict agree
        cases = [(remark_ring, ParameterIdeal(remark_ring, [(1, 0), (0, 2)])),
                 (free2, ParameterIdeal(free2, [(2, 0), (0, 3)]))]
        cases += [(inst.ring, inst.parameter) for inst in fuzz_corpus(42, 5)]
        for ring, q in cases:
            bundle = CoefficientBundle(ring, q, n_max=CHECK_N_MAX)
            lengths = bundle.report(FiltrationKind.LIM_INTERSECT).lengths
            rows = bundle.claim_rows
            assert [(r.n, r.length, r.bound) for r in rows] == [
                (n, ell, comb(n + 2, 2) * bundle.e0) for n, ell in enumerate(lengths)]
            oks = tuple(r.ok for r in rows)
            chain = check_nonnegativity_chain(CoefficientBundle(ring, q, n_max=CHECK_N_MAX))
            assert chain.claim_bound_ok == oks


class TestVanishing:
    def test_remark_is_witness(self, remark_ring):
        q = ParameterIdeal(remark_ring, [(1, 0), (0, 2)])
        verdict = check_vanishing(CoefficientBundle(remark_ring, q, n_max=CHECK_N_MAX))
        assert verdict.classification == "witness"
        assert not verdict.failed

    def test_free_maximal_passes(self, free2):
        q = ParameterIdeal(free2, [(1, 0), (0, 1)])
        verdict = check_vanishing(CoefficientBundle(free2, q, n_max=CHECK_N_MAX))
        assert verdict.classification == "pass"
        assert verdict.details["nu_m_mod_q"] == 0

    def test_x2y3_vacuous(self, free2):
        q = ParameterIdeal(free2, [(2, 0), (0, 3)])
        verdict = check_vanishing(CoefficientBundle(free2, q, n_max=CHECK_N_MAX))
        assert verdict.classification == "vacuous"

    def test_regular_with_nu_one(self, free2):
        # Q = (x, y^2): regular ring, nu(m/Q) = 1
        q = ParameterIdeal(free2, [(1, 0), (0, 2)])
        verdict = check_vanishing(CoefficientBundle(free2, q, n_max=CHECK_N_MAX))
        assert verdict.classification == "pass"
        assert verdict.details["nu_m_mod_q"] == 1


class TestE1ZeroImpliesCM:
    def test_free_regular_sequence(self, free2):
        q = ParameterIdeal(free2, [(2, 0), (0, 3)])
        verdict = check_e1_zero_implies_cm(CoefficientBundle(free2, q, n_max=CHECK_N_MAX))
        assert verdict.applicable and verdict.ok
        assert verdict.details["limit_closure_trivial"]

    def test_remark_vacuous(self, remark_ring):
        q = ParameterIdeal(remark_ring, [(1, 0), (0, 2)])
        verdict = check_e1_zero_implies_cm(CoefficientBundle(remark_ring, q, n_max=CHECK_N_MAX))
        assert not verdict.applicable

    def test_cm_instance(self, cm_ring):
        q = ParameterIdeal(cm_ring, [(2, 0), (0, 1)])
        verdict = check_e1_zero_implies_cm(CoefficientBundle(cm_ring, q, n_max=CHECK_N_MAX))
        assert verdict.applicable and verdict.ok

    def test_char_p_on_regular(self, free2):
        q = ParameterIdeal(free2, [(1, 0), (0, 2)])
        verdict = check_e1_zero_implies_cm(
            CoefficientBundle(free2, q, n_max=CHECK_N_MAX, characteristic=3))
        assert verdict.applicable and verdict.ok
        assert verdict.details.get("tight_closure_trivial") is True

    @pytest.mark.parametrize("seed,count,max_coord", [(42, 100, 6), (7, 40, 10), (11, 200, 4)])
    def test_trivial_by_counts(self, seed, count, max_coord):
        # Q ⊆ Q^lim and Q ⊆ Q*, so each is Q iff its first length is
        # colength(Q): against the built Q^lim and a box enumeration of Q*
        trivial = Counter()
        for inst in fuzz_corpus(seed, count, max_coord=max_coord):
            q = inst.parameter
            bundle = CoefficientBundle(inst.ring, q, characteristic=2)
            lim = bundle.report(FiltrationKind.LIM_INTERSECT).lengths[0] == q.colength()
            tight = bundle.report(FiltrationKind.TIGHT).lengths[0] == q.colength()
            slot = lim_intersection(q, 2)
            base = parameter_power(q, 1)
            assert lim == (sorted(slot.gens) == sorted(base.gens)), inst.instance_id
            assert tight == (not any(tight_member(q, 1, v)
                                     for v in complement(base))), inst.instance_id
            trivial.update(lim=lim, tight=tight)
        assert 0 < trivial["tight"] <= trivial["lim"] < count


class TestFuzzCorpus:
    def test_deterministic(self):
        a = fuzz_corpus(42, 3, max_coord=4)
        b = fuzz_corpus(42, 3, max_coord=4)
        assert [i.instance_id for i in a] == [i.instance_id for i in b]
        assert [(i.ring.generators, i.parameter.ordered_generators) for i in a] == \
            [(i.ring.generators, i.parameter.ordered_generators) for i in b]

    def test_different_seeds_differ(self):
        a = fuzz_corpus(42, 3, max_coord=4)
        b = fuzz_corpus(43, 3, max_coord=4)
        assert [(i.ring.generators, i.parameter.ordered_generators) for i in a] != \
            [(i.ring.generators, i.parameter.ordered_generators) for i in b]

    def test_instances_valid(self):
        for inst in fuzz_corpus(7, 5, max_coord=5):
            # some multiple of each extreme generator lies in Q
            q = inst.parameter
            base = parameter_power(q, 1)
            assert all(any(base.member(vscale(k, g)) for k in range(1, 40))
                       for g in inst.ring.extreme_generators()), inst.instance_id
            assert inst.ring.dim == 2

    def test_zero_count(self):
        assert fuzz_corpus(42, 0) == []

    def test_exhaustion(self):
        with pytest.raises(GenerationExhaustedError):
            fuzz_corpus(1, 50, max_coord=1, max_generators=2)


def one_path_instance(name):
    """An instance of each ring kind the checks read: numerical, free Z^3,
    non-CM (the remark ring) and a non-CM corpus ring."""
    if name == "fz42-003":
        return fuzz_corpus(42, 4, max_coord=6)[3]
    sgens, qgens = {
        "num-3-5-7-x5": ([(3,), (5,), (7,)], [(5,)]),
        "free3": ([(1, 0, 0), (0, 1, 0), (0, 0, 1)], [(2, 0, 0), (0, 1, 0), (0, 0, 3)]),
        "remark": ([(1, 0), (1, 1), (0, 2), (0, 3)], [(1, 0), (0, 2)]),
    }[name]
    ring = AffineSemigroup(len(qgens), sgens)
    return Instance(name, ring, ParameterIdeal(ring, qgens))


class TestVerifyInstances:
    @pytest.mark.parametrize("characteristic", [None, 2])
    @pytest.mark.parametrize("name", ["num-3-5-7-x5", "free3", "remark", "fz42-003"])
    def test_checks_read_the_bundle_alone(self, name, characteristic):
        # each check is a function of the bundle: on a fresh bundle of the
        # same run parameters it gives verify_instances' verdicts
        inst = one_path_instance(name)
        result, = verify_instances([inst], n_max=CHECK_N_MAX,
                                   characteristic=characteristic).results
        bundle = CoefficientBundle(inst.ring, inst.parameter, n_max=CHECK_N_MAX,
                                   characteristic=characteristic)
        assert result["chain"] == check_nonnegativity_chain(bundle, name)
        assert result["vanishing"] == check_vanishing(bundle)
        assert result["e1_zero_cm"] == check_e1_zero_implies_cm(bundle)

    def test_small_corpus_clean(self):
        corpus = fuzz_corpus(11, 6, max_coord=4)
        summary = verify_instances(corpus, n_max=6)
        assert not summary.violations
        assert summary.chain_passes == summary.instances == 6

    def test_remark_witness_classified(self, remark_ring):
        from hilbclose.theorems import Instance

        inst = Instance("remark", remark_ring,
                        ParameterIdeal(remark_ring, [(1, 0), (0, 2)]))
        summary = verify_instances([inst], n_max=6)
        assert not summary.violations
        assert len(summary.witnesses) == 1

    def test_unstabilized_ordinary_fit_is_partial(self):
        from hilbclose.theorems import Instance

        # fz5-033: the ordinary fit does not stabilize by n_max 8
        ring = AffineSemigroup(2, [(5, 9), (6, 1), (9, 8), (10, 0)])
        inst = Instance("fz5-033", ring, ParameterIdeal(ring, [(10, 0), (10, 18)]))
        summary = verify_instances([inst], n_max=8)
        assert not summary.violations and summary.chain_passes == 0
        assert [r["instance"] for r in summary.partial] == [inst]
        chain = summary.partial[0]["chain"]
        assert chain.details["e1_ordinary"] is None
        assert chain.details["failures"] == [{"reason": "e1(Q) uncertified"}]
        assert chain.claim_bound_ok == (False,)

    def test_verdict_records(self):
        inst = one_path_instance("remark")
        with pytest.raises(AttributeError):
            inst.ring = None
        assert inst == Instance("remark", inst.ring, inst.parameter)
        bundle = CoefficientBundle(inst.ring, inst.parameter, n_max=CHECK_N_MAX)
        vanish, e1cm = check_vanishing(bundle), check_e1_zero_implies_cm(bundle)
        for record, name in ((vanish, "classification"), (e1cm, "ok")):
            with pytest.raises(AttributeError):
                setattr(record, name, None)
        assert (vanish, e1cm) == (check_vanishing(bundle), check_e1_zero_implies_cm(bundle))
        # the chain verdict and the summary are filled in, so mutable
        chain = check_nonnegativity_chain(bundle, "remark")
        other = check_nonnegativity_chain(bundle, "remark")
        assert chain == other and chain != check_nonnegativity_chain(bundle, "other")
        other.inclusions_ok = False
        assert chain != other and not other.passed
        summary = VerificationSummary(characteristic=2)
        assert (summary.characteristic, summary.instances, summary.chain_passes) == (2, 0, 0)
        assert summary.results == summary.violations == summary.partial == []
        summary.instances += 1
        assert VerificationSummary().characteristic is None

    def test_determinism_of_verdicts(self):
        corpus = fuzz_corpus(5, 4, max_coord=4)
        s1 = verify_instances(corpus, n_max=6)
        s2 = verify_instances(fuzz_corpus(5, 4, max_coord=4), n_max=6)
        assert [r["chain"].details["e1_integral"] for r in s1.results] == \
            [r["chain"].details["e1_integral"] for r in s2.results]

    def test_char_p_corpus(self):
        # the tight closure is wedged into every sandwich when a characteristic is set
        corpus = fuzz_corpus(13, 4, max_coord=4)
        summary = verify_instances(corpus, n_max=6, characteristic=2)
        assert not summary.violations
        assert summary.chain_passes == 4

    def test_one_bundle_per_instance(self, monkeypatch):
        fits = Counter()
        real = hilbert.fit_filtration

        def counting(filtration, *args, **kwargs):
            fits[id(filtration.parameter), filtration.kind] += 1
            return real(filtration, *args, **kwargs)

        monkeypatch.setattr(hilbert, "fit_filtration", counting)
        corpus = fuzz_corpus(42, 2)
        base = (FiltrationKind.ORDINARY, FiltrationKind.INTEGRAL,
                FiltrationKind.LIM_INTERSECT)
        want = Counter({(id(inst.parameter), k): 1 for inst in corpus for k in base})
        verify_instances(corpus)
        assert fits == want
        # with a characteristic the tight filtration is fitted once too, for e1_tight
        fits.clear()
        verify_instances(corpus, characteristic=2)
        assert fits == want + Counter({(id(inst.parameter), FiltrationKind.TIGHT): 1
                                       for inst in corpus})
        fits.clear()
        bundle = coefficient_report(corpus[0].ring, corpus[0].parameter, characteristic=2)
        assert set(bundle.reports) == set(FiltrationKind)
        assert fits == Counter({(id(corpus[0].parameter), k): 1 for k in FiltrationKind})

