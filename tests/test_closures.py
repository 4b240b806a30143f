import itertools
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    MonomialIdeal,
    box_semigroup,
    colength,
    complement,
    compositions,
    integral_colengths,
    integral_oracle,
    least_conductor,
    lim_intersection,
    limit_chain_member,
    limit_member_by_search,
    newton_polyhedron,
    parameter_power,
    rule_lengths_by_line,
    rule_member,
    split_meet_member,
    split_slot,
    tight_colengths,
    tight_member,
)
from hilbclose.cli import _builtin_examples, example_instance
from hilbclose.closures import ClosureRule, _floor_sum
from hilbclose.errors import NotMPrimaryError
from hilbclose.hilbert import CoefficientBundle, Filtration, FiltrationKind, fit_filtration
from hilbclose.ideals import ParameterIdeal
from hilbclose.lattice import AffineSemigroup, vadd, vdot, vscale, vsub
from hilbclose.theorems import fuzz_corpus
from test_ideals import sweep_rings


def gens_of(ideal):
    return sorted(tuple(g) for g in ideal.gens)


def min_points(member, box, steps=((1, 0), (0, 1))):
    """The minimal points of {v in [0, box]^2 : member(v)}: those with no
    v - g inside, g in ``steps``, the generators of the ring (free Z^2 by
    default)."""
    return [v for v in itertools.product(range(box + 1), repeat=2)
            if member(v) and not any(member(vsub(v, g)) for g in steps)]


class TestIntegralClosure:
    """The integral rule of a parameter ideal at k = 1 against its Newton
    polyhedron and frozen closures."""

    def test_free_adds_diagonal(self, free2):
        rule = ClosureRule(ParameterIdeal(free2, [(2, 0), (0, 2)]))
        assert min_points(lambda v: rule_member(rule, 1, v), 4) == [(0, 2), (1, 1), (2, 0)]

    def test_maximal_is_closed(self, free2):
        q = ParameterIdeal(free2, [(1, 0), (0, 1)])
        rule = ClosureRule(q)
        for k in (1, 2, 3):
            power = parameter_power(q, k)
            for v in itertools.product(range(6), repeat=2):
                assert rule_member(rule, k, v) == power.member(v), (k, v)

    def test_remark_closure_of_q(self, remark_ring):
        rule = ClosureRule(ParameterIdeal(remark_ring, [(1, 0), (0, 2)]))
        assert rule_member(rule, 1, (1, 1)) and rule_member(rule, 1, (0, 3))
        assert rule.lengths(5)[0] == 1

    def test_oracle_brute_force_newton_points(self, remark_ring):
        # oracle: integral closure = S-points of the Newton polyhedron
        q = ParameterIdeal(remark_ring, [(1, 0), (0, 2)])
        rule = ClosureRule(q)
        poly = newton_polyhedron([(1, 0), (0, 2)], remark_ring)
        for v in itertools.product(range(9), repeat=2):
            if remark_ring.member(v):
                assert rule_member(rule, 1, v) == poly.contains(v), v

    def test_free3(self, free3):
        rule = ClosureRule(ParameterIdeal(free3, [(2, 0, 0), (0, 2, 0), (0, 0, 2)]))
        assert rule_member(rule, 1, (1, 1, 0)) and rule_member(rule, 1, (1, 0, 1))
        assert rule_member(rule, 1, (0, 1, 1))
        assert not rule_member(rule, 1, (1, 0, 0))

    def test_free3_not_m_primary(self, free3):
        ideal = MonomialIdeal(free3, [(1, 0, 0), (0, 1, 0)])
        with pytest.raises(NotMPrimaryError):
            ClosureRule(ideal)
        with pytest.raises(NotMPrimaryError):
            ParameterIdeal(free3, [(1, 0, 0), (0, 1, 0)])


class TestIntegralClosurePower:
    """The integral rule at every k against the Newton polyhedron of Q^k."""

    def test_colength_16(self, free2):
        # frozen from the lattice count under 3a+2b < 12
        q = ParameterIdeal(free2, [(2, 0), (0, 3)])
        assert ClosureRule(q).lengths(5)[1] == 16

    def test_remark_power3(self, remark_ring):
        q = ParameterIdeal(remark_ring, [(1, 0), (0, 2)])
        assert ClosureRule(q).lengths(5)[2] == 11

    def test_scaling_coherence(self, remark_ring, free2):
        # the closure of Q^n is that of (u1^n, u2^n), and the Newton
        # polyhedron of the n-fold sums is the n-scaled one
        cases = [(remark_ring, [(1, 0), (0, 2)]), (free2, [(2, 0), (0, 3)])]
        for ring, gens in cases:
            q = ParameterIdeal(ring, gens)
            rule = ClosureRule(q)
            for n in (1, 2, 3, 4):
                bracket = ClosureRule(q.split((n, n)))
                power = integral_oracle(parameter_power(q, n))
                for v in itertools.product(range(4 * n + 4), repeat=2):
                    assert (rule_member(rule, n, v) == rule_member(bracket, 1, v)
                            == power(1, v)), (ring, n, v)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(1, 5), st.integers(1, 5))
    def test_scaling_coherence_fuzzed(self, a, b):
        ring = AffineSemigroup(2, [(1, 0), (0, 1)])
        q = ParameterIdeal(ring, [(a, 0), (0, b)])
        rule = ClosureRule(q)
        for n in (2, 3):
            power = integral_oracle(parameter_power(q, n))
            for v in itertools.product(range(n * max(a, b) + 2), repeat=2):
                assert rule_member(rule, n, v) == power(1, v), (n, v)

    def test_integral_lengths_against_halfspace_count(self, cm_ring):
        # independent oracle: count box points in S (brute search) outside the
        # scaled polyhedron (raw halfspace arithmetic), no grid machinery
        from conftest import brute_member

        gens = [(2, 0), (3, 0), (0, 1)]
        q = ParameterIdeal(cm_ring, [(2, 0), (0, 1)])
        poly = newton_polyhedron([(2, 0), (0, 1)], cm_ring)
        lengths = ClosureRule(q).lengths(5)
        for n in (1, 2, 3, 4):
            expected = 0
            for v in itertools.product(range(30), repeat=2):
                if brute_member(gens, v) and not all(
                        nm[0] * v[0] + nm[1] * v[1] >= n * off
                        for nm, off in poly.halfspaces):
                    expected += 1
            assert lengths[n - 1] == expected, n

    def test_graded_family(self, remark_ring):
        # closure(Q^a) closure(Q^b) lies in closure(Q^(a+b))
        rule = ClosureRule(ParameterIdeal(remark_ring, [(1, 0), (0, 2)]))
        pts = sorted(box_semigroup(remark_ring.generators, 7))
        for a in range(1, 4):
            for b in range(1, 4):
                for v in (v for v in pts if rule_member(rule, a, v)):
                    for w in (w for w in pts if rule_member(rule, b, w)):
                        assert rule_member(rule, a + b, vadd(v, w)), (a, b, v, w)


class TestLimitClosure:
    """Q^lim, slot 1 of the split filtration, on frozen instances."""

    def test_free_regular_sequence_closed(self, free2):
        q = ParameterIdeal(free2, [(3, 0), (0, 2)])
        assert lim_intersection(q, 2).gens == parameter_power(q, 1).gens

    def test_remark_limit_closure(self, remark_ring):
        q = ParameterIdeal(remark_ring, [(1, 0), (0, 2)])
        closed = lim_intersection(q, 2)
        assert complement(closed) == [(0, 0)]
        assert closed.member((1, 1)) and closed.member((0, 3))
        assert not parameter_power(q, 1).member((1, 1))

    def test_cm_instance_closed(self, cm_ring):
        # colength(Q) = e0(Q) here, so the limit closure is Q itself
        q = ParameterIdeal(cm_ring, [(2, 0), (0, 1)])
        assert lim_intersection(q, 2).gens == parameter_power(q, 1).gens

    def test_dim1(self):
        ring = AffineSemigroup(1, [(2,), (3,)])
        q = ParameterIdeal(ring, [(4,)])
        assert lim_intersection(q, 1).gens == parameter_power(q, 1).gens

    def test_cm_kinds_return_q(self, free3, monkeypatch):
        # numerical semigroups and free Z^3 are Cohen-Macaulay: Q^lim is Q,
        # returned without building a split slot
        import conftest

        monkeypatch.setattr(conftest, "split_slot", None)
        for q in (ParameterIdeal(AffineSemigroup(1, [(3,), (5,)]), [(6,)]),
                  ParameterIdeal(free3, [(2, 0, 0), (0, 3, 0), (0, 0, 1)])):
            assert lim_intersection(q, q.ring.dim).gens == parameter_power(q, 1).gens

    def test_flat_then_growing_chain(self):
        # fz42-032: chain members t = 1..7 agree, and (0, 6) enters only at
        # t = 8, because (0, 6) + 8*(1, 4) = (0, 36) + 2*(4, 1)
        ring = AffineSemigroup(2, [(0, 4), (0, 6), (1, 0), (4, 1), (4, 6)])
        q = ParameterIdeal(ring, [(1, 0), (0, 4)])
        closed = lim_intersection(q, 2)
        assert gens_of(closed) == [(0, 4), (0, 6), (1, 0), (8, 2)]
        assert colength(closed) == len(complement(closed)) == 2
        assert not limit_chain_member(q, 7, (0, 6)) and limit_chain_member(q, 8, (0, 6))

    def test_max_coord_14_split(self):
        ring = AffineSemigroup(2, [(1, 13), (2, 6), (8, 1), (10, 0)])
        q = ParameterIdeal(ring, [(20, 0), (1, 13)]).split((1, 3))
        assert colength(lim_intersection(q, 2)) == 480


CORPUS_RINGS = sorted({tuple(map(tuple, inst.ring.generators))
                       for inst in fuzz_corpus(42, 40, max_coord=6)})


def ray_parameters(ring, k1, k2, pick, swap):
    """A parameter on each extreme ray, not always a multiple of g1 or g2,
    listed in either order."""
    eng = ring._engine
    ray1 = [g for g in ring.generators if vdot(eng.lam2, g) == 0]
    ray2 = [g for g in ring.generators if vdot(eng.lam1, g) == 0]
    params = [vscale(k1, ray1[pick % len(ray1)]), vscale(k2, ray2[pick % len(ray2)])]
    return ParameterIdeal(ring, params[::-1] if swap else params)


class TestLimitClosedForm:
    """The closed form of Q^lim against the colon chain at large t and a
    direct search over the chain index, on every point outside Q."""

    @settings(max_examples=100, deadline=None)
    @given(st.one_of(sweep_rings, st.sampled_from(CORPUS_RINGS)),
           st.integers(1, 2), st.integers(1, 2), st.integers(0, 5), st.booleans(),
           st.sampled_from(compositions(2, 2) + compositions(3, 2) + compositions(4, 2)))
    def test_matches_chain_and_search(self, sgens, k1, k2, pick, swap, alpha):
        ring = AffineSemigroup(2, sgens)
        q = ray_parameters(ring, k1, k2, pick, swap).split(alpha)
        closed = lim_intersection(q, 2)
        # the closed form a non-CM ring takes, here on every ring
        up = split_slot(q, 1)
        # every ideal here contains Q, so agreeing outside Q they are equal
        assert all(closed.member(g) and up.member(g) for g in q.ordered_generators)
        for v in complement(parameter_power(q, 1)):
            inside = limit_member_by_search(q, v, 90)
            assert limit_chain_member(q, 48, v) == limit_chain_member(q, 96, v) == inside, v
            assert closed.member(v) == inside, v
            assert up.member(v) == inside, v


class TestSplitClosedForm:
    """Split intersections Q^(total - 1) S' ∩ S, built from their corners,
    against the meet of the limit closures of the splits."""

    @settings(max_examples=100, deadline=None)
    @given(st.one_of(sweep_rings, st.sampled_from(CORPUS_RINGS)),
           st.integers(1, 2), st.integers(1, 2), st.integers(0, 5), st.booleans(),
           st.integers(2, 6))
    def test_matches_meet_of_limit_closures(self, sgens, k1, k2, pick, swap, total):
        ring = AffineSemigroup(2, sgens)
        q = ray_parameters(ring, k1, k2, pick, swap)
        ideal = lim_intersection(q, total)
        # the closed form a non-CM ring takes, here on every ring
        up = split_slot(q, total - 1)
        # a split (u1^a1, u2^a2), a1 + a2 = total, holds Q^(total - 1) by
        # pigeonhole; so do the meet and the slot, which agree outside it
        power = parameter_power(q, total - 1)
        assert all(ideal.member(g) and up.member(g) for g in power.gens)
        outside = 0
        for v in complement(power):
            inside = split_meet_member(q, total, v)
            assert ideal.member(v) == inside, v
            assert up.member(v) == inside, v
            outside += not inside
        assert colength(ideal) == outside

    def test_max_coord_14_fit(self):
        # the slowest split fit of fuzz_corpus(7, 6, max_coord=14)
        ring = AffineSemigroup(2, [(1, 13), (2, 6), (8, 1), (10, 0)])
        q = ParameterIdeal(ring, [(20, 0), (1, 13)])
        rep = CoefficientBundle(ring, q, n_max=8).report(FiltrationKind.LIM_INTERSECT)
        assert (rep.coefficients, rep.status) == ((260, 0, -1260), "ok")


class TestCompositions:
    def test_small(self):
        assert compositions(2, 2) == [(1, 1)]
        assert compositions(3, 2) == [(1, 2), (2, 1)]
        assert compositions(4, 2) == [(1, 3), (2, 2), (3, 1)]
        assert compositions(4, 3) == [(1, 1, 2), (1, 2, 1), (2, 1, 1)]

    def test_counts(self):
        from math import comb

        for total in range(2, 9):
            assert len(compositions(total, 2)) == comb(total - 1, 1)
            if total >= 3:
                assert len(compositions(total, 3)) == comb(total - 1, 2)


CM_CASES = [
    (2, [(1, 0), (0, 1)], [(2, 0), (0, 3)]),
    (2, [(2, 0), (3, 0), (0, 1)], [(2, 0), (0, 1)]),
    (3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)], [(2, 0, 0), (0, 1, 0), (0, 0, 3)]),
    (3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)], [(0, 0, 3), (2, 0, 0), (0, 1, 0)]),
    (1, [(3,), (5,), (7,)], [(6,)]),
    (1, [(4,), (6,), (9,)], [(4,)]),
]


class TestLimIntersection:
    @pytest.mark.parametrize("dim,sgens,qgens", CM_CASES, ids=[
        "free2", "cm_ring", "free3", "free3-reordered", "num-3-5-7", "num-4-6-9"])
    def test_cm_rings_match_meet(self, dim, sgens, qgens):
        # in a CM ring the splits intersect to Q^(total - d + 1); the
        # oracle meets the per-split colon chains instead
        ring = AffineSemigroup(dim, sgens)
        assert ring.is_cm
        q = ParameterIdeal(ring, qgens)
        for total in range(dim, dim + 5):
            # a split of total holds Q^(total - d + 1) by pigeonhole, so the
            # meet does, and it agrees with the slot outside that power
            ideal = lim_intersection(q, total)
            power = parameter_power(q, total - dim + 1)
            assert all(ideal.member(g) for g in power.gens), total
            outside = 0
            for v in complement(power):
                inside = split_meet_member(q, total, v)
                assert ideal.member(v) == inside, (total, v)
                outside += not inside
            assert q.power_colength(total - dim + 1) == outside, total

    def test_remark_single_split(self, remark_ring):
        q = ParameterIdeal(remark_ring, [(1, 0), (0, 2)])
        ideal = lim_intersection(q, 2)
        assert complement(ideal) == [(0, 0)]
        assert colength(ideal) == 1

    def test_remark_total3(self, remark_ring):
        # frozen: the two splits (2,1) and (1,2) intersect to the closure of Q^2
        q = ParameterIdeal(remark_ring, [(1, 0), (0, 2)])
        ideal = lim_intersection(q, 3)
        assert colength(ideal) == len(complement(ideal)) == 5
        assert colength(ideal) <= 6  # split-count bound instance
        closure = integral_oracle(parameter_power(q, 1))
        for v in itertools.product(range(12), repeat=2):
            assert ideal.member(v) == closure(2, v), v

    def test_sandwich_remark(self, remark_ring):
        q = ParameterIdeal(remark_ring, [(1, 0), (0, 2)])
        d = remark_ring.dim
        rule = ClosureRule(q)
        for n in range(1, 5):
            mid = lim_intersection(q, n + d - 1)
            assert all(mid.member(g) for g in parameter_power(q, n).gens), n
            assert all(rule_member(rule, n, g) for g in mid.gens), n

    def test_contains_total_power(self, remark_ring):
        q = ParameterIdeal(remark_ring, [(1, 0), (0, 2)])
        for total in (2, 3, 4):
            slot = lim_intersection(q, total)
            assert all(slot.member(g) for g in parameter_power(q, total).gens)

    def test_total_below_dim_rejected(self, remark_ring):
        q = ParameterIdeal(remark_ring, [(1, 0), (0, 2)])
        with pytest.raises(ValueError):
            lim_intersection(q, 1)


def frobenius_test(ring, q, k, c, s, p):
    """c + p^e*s in the bracket power (Q^k)^[p^e] for e = 0..3."""
    u1, u2 = q.ordered_generators
    power = [vadd(vscale(a, u1), vscale(k - a, u2)) for a in range(k + 1)]
    for e in range(4):
        w = vadd(c, vscale(p ** e, s))
        if not any(ring.member(vsub(w, vscale(p ** e, g))) for g in power):
            return False
    return True


class TestTightClosure:
    """(Q^k)* = Q^k S̄ ∩ S, the tight rule, against two oracles built from
    point membership: a box enumeration of Q^k S̄ ∩ S, and the Frobenius test
    of each minimal point with the conductor, a test element since k[S̄] is
    F-regular."""

    @settings(max_examples=60, deadline=None)
    @given(st.one_of(sweep_rings, st.sampled_from(CORPUS_RINGS)),
           st.integers(1, 2), st.integers(1, 2), st.integers(0, 5), st.booleans())
    def test_matches_box_enumeration(self, sgens, k1, k2, pick, swap):
        ring = AffineSemigroup(2, sgens)
        q = ray_parameters(ring, k1, k2, pick, swap)
        rule = ClosureRule(q, tight=True)
        u1, u2 = q.ordered_generators
        # the complement lies in the parallelogram spanned by k*u1 and k*u2
        box = 3 * max(vadd(u1, u2))
        in_s = box_semigroup(sgens, box)
        lengths = rule.lengths(2)
        for k in (1, 2, 3):
            inside = {v for v in in_s if tight_member(q, k, v)}
            for v in itertools.product(range(box + 1), repeat=2):
                assert rule_member(rule, k, v) == (v in inside), (k, v)
            assert lengths[k - 1] == len(in_s - inside), k

    @settings(max_examples=60, deadline=None)
    @given(st.one_of(sweep_rings, st.sampled_from(CORPUS_RINGS)),
           st.integers(1, 2), st.integers(1, 2), st.integers(0, 5), st.booleans())
    def test_conductor_frobenius_test(self, sgens, k1, k2, pick, swap):
        ring = AffineSemigroup(2, sgens)
        q = ray_parameters(ring, k1, k2, pick, swap)
        rule = ClosureRule(q, tight=True)
        c = least_conductor(ring)
        # a minimal point is a point of the complement plus a generator
        box = 3 * max(vadd(*q.ordered_generators)) + max(map(max, ring.generators))
        for k in (1, 2, 3):
            gens = min_points(lambda v: rule_member(rule, k, v), box, ring.generators)
            assert gens, k
            for s in gens:
                for p in (2, 3):
                    assert frobenius_test(ring, q, k, c, s, p), (k, s, p)

    def test_free_tightly_closed(self, free2, free3):
        for q in (ParameterIdeal(free2, [(2, 0), (0, 3)]),
                  ParameterIdeal(free3, [(2, 0, 0), (0, 1, 0), (0, 0, 3)])):
            rule = ClosureRule(q, tight=True)
            powers = [parameter_power(q, k) for k in (1, 2, 3)]
            assert rule.lengths(2) == [len(complement(p)) for p in powers], q
            for k, power in enumerate(powers, 1):
                for v in itertools.product(range(8), repeat=q.ring.dim):
                    assert rule_member(rule, k, v) == power.member(v), (q, k, v)

    @pytest.mark.parametrize("sgens,u", [([(3,), (5,), (7,)], 6), ([(4,), (6,), (9,)], 4)])
    def test_numerical_semigroup(self, sgens, u):
        # Q^k S̄ ∩ S = {s in S : s >= k*u}, as the integral closure is
        ring = AffineSemigroup(1, sgens)
        q = ParameterIdeal(ring, [(u,)])
        rule = ClosureRule(q, tight=True)
        top = max(g[0] for g in ring.generators)
        for k in (1, 2, 3):
            for x in range(k * u + 2 * top):
                assert rule_member(rule, k, (x,)) == (ring.member((x,)) and x >= k * u), (k, x)

    def test_remark_is_qbar(self, remark_ring):
        q = ParameterIdeal(remark_ring, [(1, 0), (0, 2)])
        rule = ClosureRule(q, tight=True)
        closure = integral_oracle(parameter_power(q, 1))
        box = list(itertools.product(range(8), repeat=2))
        for v in box:
            assert rule_member(rule, 1, v) == closure(1, v), v
        assert [v for v in box if remark_ring.member(v) and not rule_member(rule, 1, v)] == [(0, 0)]
        assert rule.lengths(0) == [1]

    def test_requires_parameter_ideal(self, free2):
        with pytest.raises(NotMPrimaryError):
            ClosureRule(MonomialIdeal(free2, [(2, 0), (0, 2)]), tight=True)


def rule_cases():
    """Parameter ideals of every ring kind, 2-D ones in both generator orders."""
    cases = [example_instance(name)[1] for name in sorted(_builtin_examples())]
    for inst in fuzz_corpus(42, 20):
        q = inst.parameter
        cases += [q, ParameterIdeal(q.ring, q.ordered_generators[::-1])]
    free3 = AffineSemigroup(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    cases.append(ParameterIdeal(free3, [(0, 0, 3), (2, 0, 0), (0, 1, 0)]))
    for sgens, u in (([(3,), (5,), (7,)], 6), ([(4,), (6,), (9,)], 4)):
        cases.append(ParameterIdeal(AffineSemigroup(1, sgens), [(u,)]))
    return cases


def tight_oracle_colengths(q, n_max):
    """ell(R / (Q^k)*), k = 1..n_max, for every ring kind: free Z^3 is
    regular, so (Q^k)* is Q^k; in dimension 1 Q^k S̄ ∩ S is {s >= k*u}, the
    integral closure; 2-D rings take the box enumeration."""
    if q.ring.kind == "free3":
        return [len(complement(parameter_power(q, k))) for k in range(1, n_max + 1)]
    if q.ring.dim == 1:
        return integral_colengths(q, n_max)
    return tight_colengths(q, n_max)


class TestClosureRule:
    """Lengths and points of the integral and tight rules against the
    Newton-polyhedron count and the box enumeration of Q^k S̄ ∩ S."""

    @pytest.mark.parametrize("tight", [False, True])
    def test_lengths_match_extraction(self, tight):
        # the box enumeration of the tight closures grows with k^2, so it
        # runs to k = 5; ``TestFloorSums`` takes the counts to k = 41
        for q in rule_cases():
            if tight:
                assert ClosureRule(q, True).lengths(4) == tight_oracle_colengths(q, 5), q
            else:
                assert ClosureRule(q).lengths(9) == integral_colengths(q, 10), q

    @settings(max_examples=40, deadline=None)
    @given(sweep_rings, st.integers(1, 3), st.integers(1, 3), st.integers(0, 5), st.booleans())
    def test_random_rings(self, sgens, k1, k2, pick, swap):
        ring = AffineSemigroup(2, sgens)
        q = ray_parameters(ring, k1, k2, pick, swap)
        box = 4 * max(map(max, q.ordered_generators))
        closure = integral_oracle(parameter_power(q, 1))
        integral, tight = ClosureRule(q), ClosureRule(q, tight=True)
        assert integral.lengths(3) == integral_colengths(q, 4)
        assert tight.lengths(3) == tight_colengths(q, 4)
        for k in (1, 2, 3, 4):
            for v in itertools.product(range(box + 1), repeat=2):
                assert rule_member(integral, k, v) == closure(k, v), (k, v)
                assert rule_member(tight, k, v) == tight_member(q, k, v), (k, v)

    def test_requires_parameter_ideal(self, free2):
        with pytest.raises(NotMPrimaryError):
            ClosureRule(MonomialIdeal(free2, [(2, 0), (0, 2)]))


def free3_box(a, b, c, order=(0, 1, 2)):
    """Q = (x^a, y^b, z^c) in free Z^3, its generators in ``order``."""
    gens = [(a, 0, 0), (0, b, 0), (0, 0, c)]
    return ParameterIdeal(AffineSemigroup(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)]),
                          [gens[i] for i in order])


class TestFloorSums:
    """The 2-D counts by per-class floor sums, and the free-Z^3 counts by
    weighted row floor sums, against the count with one term per line
    (``conftest.rule_lengths_by_line``) and free Z^3's closed forms."""

    @pytest.mark.parametrize("n", [0, 1, 2, 5, 9])
    def test_floor_sum_brute_force(self, n):
        for m, a, b in itertools.product(range(1, 8), range(-10, 11), range(-15, 16)):
            want = sum((a * i + b) // m for i in range(n))
            assert _floor_sum(n, m, a, b) == want, (n, m, a, b)

    def test_floor_sum_large(self):
        n, m, a, b = 10 ** 6, 7919, -104729, 3 ** 30
        assert _floor_sum(n, m, a, b) == sum((a * i + b) // m for i in range(n))

    @settings(max_examples=60, deadline=None)
    @given(st.one_of(sweep_rings, st.sampled_from(CORPUS_RINGS)),
           st.integers(1, 3), st.integers(1, 3), st.integers(0, 5))
    def test_random_rings(self, sgens, k1, k2, pick):
        q = ray_parameters(AffineSemigroup(2, sgens), k1, k2, pick, False)
        for params in (q.ordered_generators, q.ordered_generators[::-1]):
            for tight in (False, True):
                rule = ClosureRule(ParameterIdeal(q.ring, params), tight)
                assert rule.lengths(40) == rule_lengths_by_line(rule, 40), (params, tight)

    def test_acceptance_corpus(self):
        for inst in fuzz_corpus(42, 100):
            for tight in (False, True):
                rule = ClosureRule(inst.parameter, tight)
                assert rule.lengths(40) == rule_lengths_by_line(rule, 40), (inst.instance_id, tight)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(1, 9), st.integers(1, 9), st.integers(1, 9),
           st.permutations(range(3)), st.integers(4, 16))
    def test_free3_rows(self, a, b, c, order, n_max):
        q = free3_box(a, b, c, order)
        for tight in (False, True):
            rule = ClosureRule(q, tight)
            assert rule.lengths(n_max) == rule_lengths_by_line(rule, n_max), tight
        # free Z^3 is normal and regular, so (Q^k)* = Q^k
        want = [a * b * c * comb(k + 2, 3) for k in range(1, n_max + 2)]
        assert ClosureRule(q, True).lengths(n_max) == want

    @settings(max_examples=20, deadline=None)
    @given(st.integers(1, 4), st.integers(1, 4), st.integers(1, 4),
           st.permutations(range(3)), st.integers(4, 6))
    def test_free3_integral_box_count(self, a, b, c, order, n_max):
        # the integral closure of Q^k is {x/a + y/b + z/c >= k}
        top = n_max + 1
        sums = [x * b * c + y * a * c + z * a * b
                for x, y, z in itertools.product(range(top * a), range(top * b), range(top * c))]
        want = [sum(1 for s in sums if s < k * a * b * c) for k in range(1, top + 1)]
        assert ClosureRule(free3_box(a, b, c, order)).lengths(n_max) == want

    def test_free3_large(self):
        q = free3_box(200, 300, 2)
        want = [200 * 300 * 2 * comb(k + 2, 3) for k in range(1, 8)]
        assert ClosureRule(q, True).lengths(6) == want
        report = fit_filtration(Filtration(FiltrationKind.INTEGRAL, q), 6)
        assert report.coefficients == (120000, 89600, 7400, 0)
