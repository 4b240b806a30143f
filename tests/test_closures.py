import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import compositions, limit_chain_member, limit_member_by_search, split_meet
from hilbclose.cli import _builtin_examples, example_instance
from hilbclose.closures import (
    ClosureRule,
    _ContractUp,
    integral_closure,
    integral_closure_power,
    lim_intersection,
    limit_closure,
    tight_closure,
)
from hilbclose.errors import NotMPrimaryError
from hilbclose.hilbert import CoefficientBundle, FiltrationKind
from hilbclose.ideals import MonomialIdeal, ParameterIdeal, ideal_power
from hilbclose.lattice import AffineSemigroup, in_lattice, vadd, vdot, vscale, vsub
from hilbclose.theorems import fuzz_corpus
from test_ideals import sweep_rings


def gens_of(ideal):
    return [tuple(g) for g in ideal.min_generators]


class TestIntegralClosure:
    def test_free_adds_diagonal(self, free2):
        ideal = MonomialIdeal(free2, [(2, 0), (0, 2)])
        assert gens_of(integral_closure(ideal)) == [(0, 2), (1, 1), (2, 0)]

    def test_maximal_is_closed(self, free2):
        m = MonomialIdeal(free2, [(1, 0), (0, 1)])
        assert integral_closure(m) == m

    def test_remark_closure_of_q(self, remark_ring):
        q = MonomialIdeal(remark_ring, [(1, 0), (0, 2)])
        qbar = integral_closure(q)
        assert qbar.member((1, 1)) and qbar.member((0, 3))
        assert qbar.colength() == 1

    def test_idempotent(self, remark_ring, free2):
        for ring, gens in ((remark_ring, [(1, 0), (0, 2)]), (free2, [(3, 1), (0, 2)])):
            ideal = MonomialIdeal(ring, gens)
            once = integral_closure(ideal)
            assert integral_closure(once) == once

    def test_oracle_brute_force_newton_points(self, remark_ring):
        # oracle: integral closure = S-points of the Newton polyhedron
        q = MonomialIdeal(remark_ring, [(1, 0), (0, 2)])
        qbar = integral_closure(q)
        poly = remark_ring.newton_polyhedron([(1, 0), (0, 2)])
        for v in itertools.product(range(9), repeat=2):
            if remark_ring.member(v):
                assert qbar.member(v) == poly.contains(v), v

    def test_free3(self, free3):
        ideal = MonomialIdeal(free3, [(2, 0, 0), (0, 2, 0), (0, 0, 2)])
        closed = integral_closure(ideal)
        assert closed.member((1, 1, 0)) and closed.member((1, 0, 1)) and closed.member((0, 1, 1))
        assert not closed.member((1, 0, 0))

    def test_free3_not_m_primary(self, free3):
        ideal = MonomialIdeal(free3, [(1, 0, 0), (0, 1, 0)])
        with pytest.raises(NotMPrimaryError):
            integral_closure(ideal)
        with pytest.raises(NotMPrimaryError):
            integral_closure_power(ideal, 2)


class TestIntegralClosurePower:
    def test_power_one_matches(self, free2):
        ideal = MonomialIdeal(free2, [(2, 0), (0, 3)])
        assert integral_closure_power(ideal, 1) == integral_closure(ideal)

    def test_colength_16(self, free2):
        # frozen from the lattice count under 3a+2b < 12
        ideal = MonomialIdeal(free2, [(2, 0), (0, 3)])
        assert integral_closure_power(ideal, 2).colength() == 16

    def test_remark_power3(self, remark_ring):
        q = MonomialIdeal(remark_ring, [(1, 0), (0, 2)])
        assert integral_closure_power(q, 3).colength() == 11

    def test_scaling_coherence(self, remark_ring, free2):
        cases = [(remark_ring, [(1, 0), (0, 2)]), (free2, [(2, 1), (0, 3)])]
        for ring, gens in cases:
            ideal = MonomialIdeal(ring, gens)
            for n in (1, 2, 3, 4):
                assert integral_closure_power(ideal, n) == \
                    integral_closure(ideal_power(ideal, n)), (ring, n)

    @settings(max_examples=20, deadline=None)
    @given(st.sets(st.tuples(st.integers(0, 4), st.integers(0, 4)),
                   min_size=2, max_size=4).filter(
        lambda s: any(v[1] == 0 for v in s) and any(v[0] == 0 for v in s)
        and (0, 0) not in s))
    def test_scaling_coherence_fuzzed(self, gens):
        ring = AffineSemigroup(2, [(1, 0), (0, 1)])
        ideal = MonomialIdeal(ring, list(gens))
        for n in (2, 3):
            assert integral_closure_power(ideal, n) == \
                integral_closure(ideal_power(ideal, n))

    def test_integral_lengths_against_halfspace_count(self, cm_ring):
        # independent oracle: count box points in S (brute search) outside the
        # scaled polyhedron (raw halfspace arithmetic), no grid machinery
        from conftest import brute_member

        gens = [(2, 0), (3, 0), (0, 1)]
        q = MonomialIdeal(cm_ring, [(2, 0), (0, 1)])
        poly = cm_ring.newton_polyhedron([(2, 0), (0, 1)])
        for n in (1, 2, 3, 4):
            expected = 0
            for v in itertools.product(range(30), repeat=2):
                if brute_member(gens, v) and not all(
                        nm[0] * v[0] + nm[1] * v[1] >= n * off
                        for nm, off in poly.halfspaces):
                    expected += 1
            assert integral_closure_power(q, n).colength() == expected, n

    def test_graded_family(self, remark_ring):
        q = MonomialIdeal(remark_ring, [(1, 0), (0, 2)])
        closures = {n: integral_closure_power(q, n) for n in range(1, 7)}
        for a in range(1, 4):
            for b in range(1, 4):
                prod_gens = [tuple(x + y for x, y in zip(u, v))
                             for u in closures[a].min_generators
                             for v in closures[b].min_generators]
                assert all(closures[a + b].member(g) for g in prod_gens), (a, b)


class TestLimitClosure:
    def test_free_regular_sequence_closed(self, free2):
        q = ParameterIdeal(free2, [(3, 0), (0, 2)])
        cert = limit_closure(q)
        assert cert.ideal == q.base
        assert cert.stabilized_t == 0

    def test_remark_limit_closure(self, remark_ring):
        q = ParameterIdeal(remark_ring, [(1, 0), (0, 2)])
        cert = limit_closure(q)
        assert [tuple(p) for p in cert.ideal.complement()] == [(0, 0)]
        assert cert.ideal.member((1, 1)) and cert.ideal.member((0, 3))
        assert not q.base.member((1, 1))
        assert cert.stabilized_t == 1

    def test_exact_certificate(self, remark_ring):
        # the chain reaches the closure exactly at stabilized_t, not before
        q = ParameterIdeal(remark_ring, [(1, 0), (0, 2)])
        cert = limit_closure(q)
        assert cert.window == 0
        assert limit_chain_member(q, cert.stabilized_t) == cert.ideal
        assert limit_chain_member(q, cert.stabilized_t - 1) != cert.ideal

    def test_cm_instance_closed(self, cm_ring):
        # colength(Q) = e0(Q) here, so the limit closure is Q itself
        q = ParameterIdeal(cm_ring, [(2, 0), (0, 1)])
        assert limit_closure(q).ideal == q.base

    def test_dim1(self):
        ring = AffineSemigroup(1, [(2,), (3,)])
        q = ParameterIdeal(ring, [(4,)])
        assert limit_closure(q).ideal == q.base

    def test_cm_kinds_return_q(self, free3, monkeypatch):
        # numerical semigroups and free Z^3 are Cohen-Macaulay: Q^lim is Q,
        # returned without an extraction
        import hilbclose.closures as closures_mod

        monkeypatch.setattr(closures_mod, "extract_ideal", None)
        for q in (ParameterIdeal(AffineSemigroup(1, [(3,), (5,)]), [(6,)]),
                  ParameterIdeal(free3, [(2, 0, 0), (0, 3, 0), (0, 0, 1)])):
            cert = limit_closure(q)
            assert cert.ideal == q.base
            assert cert.stabilized_t == 0

    def test_flat_then_growing_chain(self):
        # fz42-032: members t = 1..7 agree, and (0, 6) enters only at t = 8,
        # because (0, 6) + 8*(1, 4) = (0, 36) + 2*(4, 1)
        ring = AffineSemigroup(2, [(0, 4), (0, 6), (1, 0), (4, 1), (4, 6)])
        cert = limit_closure(ParameterIdeal(ring, [(1, 0), (0, 4)]))
        assert gens_of(cert.ideal) == [(0, 4), (0, 6), (1, 0), (8, 2)]
        assert cert.ideal.colength() == 2
        assert cert.stabilized_t == 8

    def test_max_coord_14_split(self):
        ring = AffineSemigroup(2, [(1, 13), (2, 6), (8, 1), (10, 0)])
        q = ParameterIdeal(ring, [(20, 0), (1, 13)]).split((1, 3))
        cert = limit_closure(q)
        assert cert.ideal.colength() == 480
        assert cert.stabilized_t == 7


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
    """The closed form against the colon chain at large t and a direct search
    over the chain index, with the exact certificate."""

    @settings(max_examples=100, deadline=None)
    @given(st.one_of(sweep_rings, st.sampled_from(CORPUS_RINGS)),
           st.integers(1, 2), st.integers(1, 2), st.integers(0, 5), st.booleans(),
           st.sampled_from(compositions(2, 2) + compositions(3, 2) + compositions(4, 2)))
    def test_matches_chain_and_search(self, sgens, k1, k2, pick, swap, alpha):
        ring = AffineSemigroup(2, sgens)
        q = ray_parameters(ring, k1, k2, pick, swap).split(alpha)
        cert = limit_closure(q)
        closed = cert.ideal
        assert closed == limit_chain_member(q, 48) == limit_chain_member(q, 96)
        assert limit_chain_member(q, cert.stabilized_t) == closed
        if cert.stabilized_t > 0:
            assert limit_chain_member(q, cert.stabilized_t - 1) != closed
        else:
            assert closed == q.base and closed._up.stair is None
        up = _ContractUp(ring, q)
        box = max(max(map(max, closed.min_generators)), max(map(max, sgens))) + 3
        for v in itertools.product(range(box + 1), repeat=2):
            inside = limit_member_by_search(q, v, 90)
            assert closed.member(v) == inside, v
            assert up.member(v) == inside, v


class TestSplitClosedForm:
    """Split intersections {s : A(s) + B(s) >= total - 1} against the meet of
    the limit closures of the splits."""

    @settings(max_examples=100, deadline=None)
    @given(st.one_of(sweep_rings, st.sampled_from(CORPUS_RINGS)),
           st.integers(1, 2), st.integers(1, 2), st.integers(0, 5), st.booleans(),
           st.integers(2, 6))
    def test_matches_meet_of_limit_closures(self, sgens, k1, k2, pick, swap, total):
        ring = AffineSemigroup(2, sgens)
        q = ray_parameters(ring, k1, k2, pick, swap)
        meet = split_meet(q, total)
        ideal = lim_intersection(q, total)
        assert ideal == meet
        assert ideal.colength() == meet.colength()
        up = _ContractUp(ring, q, total - 1)
        box = max(max(map(max, meet.min_generators)), max(map(max, sgens))) + 3
        for v in itertools.product(range(box + 1), repeat=2):
            assert up.member(v) == meet.member(v), v

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
            meet = split_meet(q, total)
            ideal = lim_intersection(q, total)
            assert ideal == meet, total
            assert ideal.colength() == meet.colength(), total

    def test_remark_single_split(self, remark_ring):
        q = ParameterIdeal(remark_ring, [(1, 0), (0, 2)])
        ideal = lim_intersection(q, 2)
        assert [tuple(p) for p in ideal.complement()] == [(0, 0)]
        assert ideal.colength() == 1

    def test_remark_total3(self, remark_ring):
        # frozen: the two splits (2,1) and (1,2) intersect to the closure of Q^2
        q = ParameterIdeal(remark_ring, [(1, 0), (0, 2)])
        ideal = lim_intersection(q, 3)
        assert ideal.colength() == 5
        assert ideal.colength() <= 6  # split-count bound instance
        assert ideal == integral_closure_power(q.base, 2)

    def test_sandwich_remark(self, remark_ring):
        q = ParameterIdeal(remark_ring, [(1, 0), (0, 2)])
        d = remark_ring.dim
        for n in range(1, 5):
            mid = lim_intersection(q, n + d - 1)
            low = ideal_power(q.base, n)
            high = integral_closure_power(q.base, n)
            assert mid.contains_ideal(low), n
            assert high.contains_ideal(mid), n

    def test_contains_total_power(self, remark_ring):
        q = ParameterIdeal(remark_ring, [(1, 0), (0, 2)])
        for total in (2, 3, 4):
            assert lim_intersection(q, total).contains_ideal(
                ideal_power(q.base, total))

    def test_total_below_dim_rejected(self, remark_ring):
        q = ParameterIdeal(remark_ring, [(1, 0), (0, 2)])
        with pytest.raises(ValueError):
            lim_intersection(q, 1)


def box_semigroup(sgens, box):
    """S ∩ [0, box]^2, sieved in order of coordinate sum."""
    pts = {(0, 0)}
    for v in sorted(itertools.product(range(box + 1), repeat=2), key=sum):
        if any(vsub(v, g) in pts for g in sgens):
            pts.add(v)
    return pts


def in_normalization(ring, w):
    """w in cone ∩ ZS: between the two extreme rays and on the group lattice."""
    (x1, y1), (x2, y2) = ring.extreme_generators()
    x, y = w
    return (x1 * y - y1 * x >= 0 and x * y2 - y * x2 >= 0
            and in_lattice(ring.group_lattice(), w))


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
    """(Q^k)* = Q^k S̄ ∩ S against two oracles built from point membership:
    a box enumeration of Q^k S̄ ∩ S, and the Frobenius test of each minimal
    generator with the conductor, a test element since k[S̄] is F-regular."""

    @settings(max_examples=60, deadline=None)
    @given(st.one_of(sweep_rings, st.sampled_from(CORPUS_RINGS)),
           st.integers(1, 2), st.integers(1, 2), st.integers(0, 5), st.booleans())
    def test_matches_box_enumeration(self, sgens, k1, k2, pick, swap):
        ring = AffineSemigroup(2, sgens)
        q = ray_parameters(ring, k1, k2, pick, swap)
        u1, u2 = q.ordered_generators
        # the complement lies in the parallelogram spanned by k*u1 and k*u2
        box = 3 * max(vadd(u1, u2))
        in_s = box_semigroup(sgens, box)
        for k in (1, 2, 3):
            tight = tight_closure(q, k)
            inside = {v for v in in_s if any(
                in_normalization(ring, vsub(v, vadd(vscale(a, u1), vscale(k - a, u2))))
                for a in range(k + 1))}
            for v in itertools.product(range(box + 1), repeat=2):
                assert tight.member(v) == (v in inside), (k, v)
            assert tight.colength() == len(in_s - inside), k

    @settings(max_examples=60, deadline=None)
    @given(st.one_of(sweep_rings, st.sampled_from(CORPUS_RINGS)),
           st.integers(1, 2), st.integers(1, 2), st.integers(0, 5), st.booleans())
    def test_conductor_frobenius_test(self, sgens, k1, k2, pick, swap):
        ring = AffineSemigroup(2, sgens)
        q = ray_parameters(ring, k1, k2, pick, swap)
        c = ring.conductor()
        for k in (1, 2, 3):
            for s in tight_closure(q, k).min_generators:
                for p in (2, 3):
                    assert frobenius_test(ring, q, k, c, s, p), (k, s, p)

    def test_free_tightly_closed(self, free2, free3):
        for q in (ParameterIdeal(free2, [(2, 0), (0, 3)]),
                  ParameterIdeal(free3, [(2, 0, 0), (0, 1, 0), (0, 0, 3)])):
            for k in (1, 2, 3):
                assert tight_closure(q, k) == ideal_power(q.base, k), (q, k)

    @pytest.mark.parametrize("sgens,u", [([(3,), (5,), (7,)], 6), ([(4,), (6,), (9,)], 4)])
    def test_numerical_semigroup(self, sgens, u):
        # Q^k S̄ ∩ S = {s in S : s >= k*u}, as the integral closure is
        ring = AffineSemigroup(1, sgens)
        q = ParameterIdeal(ring, [(u,)])
        for k in (1, 2, 3):
            tight = tight_closure(q, k)
            assert tight == integral_closure_power(q.base, k)
            for x in range(4 * u):
                assert tight.member((x,)) == (ring.member((x,)) and x >= k * u), (k, x)

    def test_remark_is_qbar(self, remark_ring):
        q = ParameterIdeal(remark_ring, [(1, 0), (0, 2)])
        tight = tight_closure(q)
        assert tight == integral_closure(q.base)
        assert [tuple(p) for p in tight.complement()] == [(0, 0)]

    def test_requires_parameter_ideal(self, free2):
        with pytest.raises(NotMPrimaryError):
            tight_closure(MonomialIdeal(free2, [(2, 0), (0, 2)]))


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


class TestClosureRule:
    """Lengths counted from the integral and tight rules against the
    colengths of the extracted closures."""

    @pytest.mark.parametrize("tight", [False, True])
    def test_lengths_match_extraction(self, tight):
        for q in rule_cases():
            if tight:
                want = [tight_closure(q, k).colength() for k in range(1, 11)]
            else:
                want = [integral_closure_power(q.base, k).colength() for k in range(1, 11)]
            assert ClosureRule(q, tight).lengths(9) == want, q

    @settings(max_examples=40, deadline=None)
    @given(sweep_rings, st.integers(1, 3), st.integers(1, 3), st.integers(0, 5), st.booleans())
    def test_random_rings(self, sgens, k1, k2, pick, swap):
        ring = AffineSemigroup(2, sgens)
        q = ray_parameters(ring, k1, k2, pick, swap)
        box = 4 * max(map(max, q.ordered_generators))
        for rule, close in ((ClosureRule(q), lambda k: integral_closure_power(q.base, k)),
                            (ClosureRule(q, tight=True), lambda k: tight_closure(q, k))):
            lengths = rule.lengths(3)
            for k in (1, 2, 3, 4):
                closed = close(k)
                assert lengths[k - 1] == closed.colength(), (rule.tight, k)
                for v in itertools.product(range(box + 1), repeat=2):
                    assert rule.member(k, v) == closed.member(v), (rule.tight, k, v)

    def test_requires_parameter_ideal(self, free2):
        with pytest.raises(NotMPrimaryError):
            ClosureRule(MonomialIdeal(free2, [(2, 0), (0, 2)]))
