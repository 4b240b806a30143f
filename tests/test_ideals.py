import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    REMARK_GENS,
    brute_complement,
    brute_ideal_member,
    grid_first,
    limit_chain_member,
    line_first,
    split_meet_member,
    stabilization,
    tight_member,
)
from hilbclose.closures import ClosureRule, _split_slot, lim_intersection
from hilbclose.errors import NotMPrimaryError, RingMismatchError, UnsupportedRingError
from hilbclose.ideals import (
    MonomialIdeal,
    ParameterIdeal,
    _axis_reach,
    _column_heights,
    _IdealUp,
    ideal_power,
    ideal_product,
    ideal_sum,
    is_parameter_ideal,
    maximal_ideal,
    nu_m_mod_q,
)
from hilbclose.lattice import AffineSemigroup, vadd, vdot, vscale, vsub


def gens_of(ideal):
    return [tuple(g) for g in ideal.min_generators]


class TestConstruction:
    def test_reduces_to_antichain(self, free2):
        ideal = MonomialIdeal(free2, [(1, 0), (2, 0), (1, 1)])
        assert gens_of(ideal) == [(1, 0)]

    def test_generator_outside_ring_rejected(self, remark_ring):
        with pytest.raises(ValueError):
            MonomialIdeal(remark_ring, [(0, 1)])

    def test_antichain_under_s_divisibility(self, remark_ring):
        # (0,5) - (0,2) = (0,3) in S, so (0,5) is redundant
        ideal = MonomialIdeal(remark_ring, [(0, 2), (0, 5)])
        assert gens_of(ideal) == [(0, 2)]

    def test_keeps_s_incomparable(self, remark_ring):
        # (0,3) - (0,2) = (0,1) is not in S: both survive
        ideal = MonomialIdeal(remark_ring, [(0, 2), (0, 3)])
        assert gens_of(ideal) == [(0, 2), (0, 3)]


class TestMembershipAndUpset:
    def test_upset_closure_random(self, remark_ring):
        rng = random.Random(3)
        q = MonomialIdeal(remark_ring, [(1, 0), (0, 2)])
        members = [v for v in itertools.product(range(8), repeat=2) if q.member(v)]
        svals = [v for v in itertools.product(range(8), repeat=2) if remark_ring.member(v)]
        for _ in range(60):
            v = rng.choice(members)
            s = rng.choice(svals)
            assert q.member((v[0] + s[0], v[1] + s[1]))

    def test_matches_bruteforce(self, remark_ring):
        q = MonomialIdeal(remark_ring, [(1, 0), (0, 2)])
        for v in itertools.product(range(10), repeat=2):
            assert q.member(v) == brute_ideal_member(REMARK_GENS, [(1, 0), (0, 2)], v), v


class TestProductPower:
    def test_remark_square(self, remark_ring):
        q = MonomialIdeal(remark_ring, [(1, 0), (0, 2)])
        assert gens_of(ideal_power(q, 2)) == [(0, 4), (1, 2), (2, 0)]

    def test_power_one_identity(self, remark_ring):
        q = MonomialIdeal(remark_ring, [(1, 0), (0, 2)])
        assert ideal_power(q, 1) is q

    def test_free_square(self, free2):
        q = MonomialIdeal(free2, [(2, 0), (0, 3)])
        assert gens_of(ideal_power(q, 2)) == [(0, 6), (2, 3), (4, 0)]

    def test_product_associative_powers(self, remark_ring):
        q = MonomialIdeal(remark_ring, [(1, 0), (0, 2)])
        for a in (1, 2, 3):
            for b in (1, 2, 3):
                lhs = ideal_product(ideal_power(q, a), ideal_power(q, b))
                assert lhs == ideal_power(q, a + b), (a, b)

    @settings(max_examples=25, deadline=None)
    @given(st.sets(st.tuples(st.integers(0, 4), st.integers(0, 4)),
                   min_size=1, max_size=3).filter(lambda s: (0, 0) not in s))
    def test_product_powers_fuzzed_free(self, gens):
        ring = AffineSemigroup(2, [(1, 0), (0, 1)])
        ideal = MonomialIdeal(ring, list(gens))
        for a in (1, 2):
            for b in (1, 2):
                assert ideal_product(ideal_power(ideal, a), ideal_power(ideal, b)) == \
                    ideal_power(ideal, a + b)

    def test_ring_mismatch(self, remark_ring, free2):
        a = MonomialIdeal(remark_ring, [(1, 0)])
        b = MonomialIdeal(free2, [(1, 0)])
        with pytest.raises(RingMismatchError):
            ideal_product(a, b)

    def test_sum(self, remark_ring):
        a = MonomialIdeal(remark_ring, [(2, 0)])
        b = MonomialIdeal(remark_ring, [(0, 2)])
        assert gens_of(ideal_sum(a, b)) == [(0, 2), (2, 0)]


class TestColength:
    def test_remark_parameter(self, remark_ring):
        q = MonomialIdeal(remark_ring, [(1, 0), (0, 2)])
        assert q.colength() == 3
        assert [tuple(p) for p in q.complement()] == [(0, 0), (0, 3), (1, 1)]

    def test_free_maximal(self, free2):
        assert MonomialIdeal(free2, [(1, 0), (0, 1)]).colength() == 1

    def test_remark_square_colength(self, remark_ring):
        q = MonomialIdeal(remark_ring, [(1, 0), (0, 2)])
        q2 = ideal_power(q, 2)
        expected = brute_complement(REMARK_GENS, gens_of(q2), 14)
        assert q2.colength() == len(expected) == 8
        assert [tuple(p) for p in q2.complement()] == expected

    def test_cm_ring_colengths(self, cm_ring):
        q = MonomialIdeal(cm_ring, [(2, 0), (0, 1)])
        assert q.colength() == 2
        assert [tuple(p) for p in q.complement()] == [(0, 0), (3, 0)]
        assert ideal_power(q, 2).colength() == 6

    def test_complement_matches_bruteforce_deep(self, cm_ring):
        gens = [(2, 0), (3, 0), (0, 1)]
        q3 = ideal_power(MonomialIdeal(cm_ring, [(2, 0), (0, 1)]), 3)
        expected = brute_complement(gens, gens_of(q3), 16)
        assert sorted(map(tuple, q3.complement())) == expected

    def test_not_m_primary(self, free2):
        ideal = MonomialIdeal(free2, [(0, 1)])
        assert not ideal.is_m_primary
        with pytest.raises(NotMPrimaryError):
            ideal.complement()
        with pytest.raises(NotMPrimaryError):
            ideal.colength()

    def test_complement_witness_present(self, remark_ring):
        q = MonomialIdeal(remark_ring, [(1, 0), (0, 2)])
        assert q.is_m_primary
        assert q.complement() == ((0, 0), (0, 3), (1, 1))

    def test_colength_monotone(self, remark_ring):
        q = MonomialIdeal(remark_ring, [(1, 0), (0, 2)])
        lengths = [ideal_power(q, n).colength() for n in range(1, 6)]
        assert lengths == sorted(lengths)
        assert lengths == [(n + 1) * (n + 3) for n in range(0, 5)]

    def test_dim1_colength(self):
        ring = AffineSemigroup(1, [(2,), (3,)])
        ideal = MonomialIdeal(ring, [(4,)])
        # complement: S-points below the up-set of 4: {0, 2, 3, 5}
        assert ideal.colength() == 4

    def test_free3_colength(self, free3):
        ideal = MonomialIdeal(free3, [(2, 0, 0), (0, 2, 0), (0, 0, 2), (1, 1, 1)])
        assert ideal.colength() == 7

    @settings(max_examples=25, deadline=None)
    @given(st.sets(st.tuples(st.integers(0, 4), st.integers(0, 4)),
                   min_size=2, max_size=4).filter(
        lambda s: any(v[1] == 0 and v[0] > 0 for v in s)
        and any(v[0] == 0 and v[1] > 0 for v in s)))
    def test_colength_antitone_in_containment(self, gens):
        # I contained in J forces colength(I) >= colength(J)
        ring = AffineSemigroup(2, [(1, 0), (0, 1)])
        smaller = MonomialIdeal(ring, list(gens))
        larger = ideal_sum(smaller, MonomialIdeal(ring, [(1, 1)]))
        assert larger.contains_ideal(smaller)
        assert smaller.colength() >= larger.colength()


# rings for the sweep: finite gaps, gap rays, several cosets
SWEEP_RINGS = [
    REMARK_GENS,  # finite gap (0, 1), two cosets
    [(2, 0), (0, 2), (3, 1), (1, 3)],  # finite gap (1, 1), two cosets
    [(2, 0), (3, 0), (0, 1)],  # gap ray (1, 0) + t(0, 1), two cosets
    [(4, 0), (0, 2), (1, 1), (3, 1)],  # gap ray (2, 0) + t(4, 0), four cosets
    [(3, 0), (0, 2), (1, 2), (2, 2)],  # two gap rays along (3, 0), three cosets
    [(3, 0), (1, 1), (0, 3)],  # normal, three cosets
]


def _ring_or_none(gens):
    try:
        return AffineSemigroup(2, gens)
    except (UnsupportedRingError, ValueError):
        return None


sweep_rings = st.one_of(
    st.sampled_from(SWEEP_RINGS),
    st.sets(st.tuples(st.integers(0, 3), st.integers(0, 3)), min_size=2, max_size=4)
    .map(sorted).filter(lambda gens: (0, 0) not in gens and _ring_or_none(gens)),
)


def _first_shift(eng, w, axis):
    """Least t >= 0 with w + t*g_axis in S, or None: per generator, the
    reference the staircase sweep replaced."""
    l1, l2 = vdot(eng.lam1, w), vdot(eng.lam2, w)
    key = (l1 % eng.D1, l2 % eng.D2)
    if key not in eng.box:  # off the group lattice
        return None
    fixed, trav = (l1 // eng.D1, l2 // eng.D2) if axis == 1 else (l2 // eng.D2, l1 // eng.D1)
    t = grid_first(eng, key, axis, fixed) if fixed >= 0 else None
    return None if t is None else max(0, t - trav)


class TestStaircaseSweep:
    """The per-coset complement sweep against the per-generator minimum it replaced."""

    @settings(max_examples=60, deadline=None)
    @given(sweep_rings, st.integers(1, 3), st.integers(1, 3),
           st.lists(st.lists(st.integers(0, 1), min_size=4, max_size=4), max_size=3))
    def test_sweep_matches_generator_minimum(self, sgens, k1, k2, combos):
        ring = AffineSemigroup(2, sgens)
        eng = ring._engine
        extra = [tuple(sum(c * g[i] for c, g in zip(combo, ring.generators)) for i in (0, 1))
                 for combo in combos]
        ideal = MonomialIdeal(ring, [vscale(k1, eng.g1), vscale(k2, eng.g2)]
                              + [v for v in extra if any(v)])
        gens = ideal.min_generators
        for axis in (0, 1):
            stable, consts = stabilization(eng, axis)
            gfix = eng.g1 if axis == 1 else eng.g2
            for key in sorted(eng.box):
                for f in range(stable, stable + 6):
                    assert grid_first(eng, key, axis, f) == consts[key]
                count = stable + 6
                cols = _IdealUp(ring, gens).cols(key)
                got = [line_first(cols, axis, m) for m in range(count)]
                for m in range(count):
                    v0 = vadd(eng.box[key], vscale(m, gfix))
                    firsts = [_first_shift(eng, vsub(v0, u), axis) for u in gens]
                    firsts = [t for t in firsts if t is not None]
                    assert got[m] == (min(firsts) if firsts else None), (key, axis, m)
        comp = sorted(map(tuple, ideal.complement()))
        box = max(max(map(max, comp), default=0), max(map(max, gens))) + 4
        assert comp == brute_complement(sgens, gens_of(ideal), box)


class TestProfiles:
    """Every up-set's column arrays, read along both axes, against a bounded
    scan of ``member``."""

    @settings(max_examples=40, deadline=None)
    @given(sweep_rings, st.integers(1, 3), st.integers(1, 3),
           st.lists(st.lists(st.integers(0, 1), min_size=4, max_size=4), max_size=2))
    def test_profile_matches_member_scan(self, sgens, k1, k2, combos):
        ring = AffineSemigroup(2, sgens)
        eng = ring._engine

        def element(combo):
            return tuple(sum(c * g[i] for c, g in zip(combo, ring.generators)) for i in (0, 1))

        extra = [v for v in map(element, combos) if any(v)]
        gens = MonomialIdeal(ring, [vscale(k1, eng.g1), vscale(k2, eng.g2)] + extra)
        q = ParameterIdeal(ring, [vscale(k1, eng.g1), vscale(k2, eng.g2)])
        upsets = [(_IdealUp(ring, gens.min_generators), gens.member)] + [
            (_split_slot(q, k)._up, lambda v, k=k: split_meet_member(q, k + 1, v))
            for k in (1, 2, 3)]
        hi = 12 * (k1 + k2 + 4)
        for axis in (0, 1):
            gfix, gax = (eng.g1, eng.g2) if axis == 1 else (eng.g2, eng.g1)
            count = stabilization(eng, axis)[0] + 4
            for key in sorted(eng.box):
                for upset, member in upsets:
                    cols = upset.cols(key)
                    prof = [line_first(cols, axis, m) for m in range(count)]
                    for m in range(count):
                        v0 = vadd(eng.box[key], vscale(m, gfix))
                        first = next((t for t in range(hi)
                                      if member(vadd(v0, vscale(t, gax)))), None)
                        assert prof[m] == first, (upset.stair is not None, key, axis, m)


class TestStoredStaircase:
    """A split slot's column arrays, built from its corners, against the meet
    of the splits' limit closures and the arrays its generators build, and
    its counted colength against the materialized and brute-force
    complements."""

    @settings(max_examples=30, deadline=None)
    @given(sweep_rings, st.integers(1, 2), st.integers(1, 2), st.booleans())
    def test_lookup_and_colength(self, sgens, k1, k2, swap):
        ring = AffineSemigroup(2, sgens)
        eng = ring._engine
        powers = [vscale(k1, eng.g1), vscale(k2, eng.g2)]
        q = ParameterIdeal(ring, powers[::-1] if swap else powers)
        for k in (1, 2, 3):
            slot = _split_slot(q, k)
            stair = slot._up.stair
            assert sorted(stair) == sorted(eng.box), k
            gens = slot.min_generators
            for key in sorted(eng.box):
                cols = stair[key]
                # past the last column and the first entry every line is level
                span = max(len(cols), max(t for t in cols if t is not None) + 1) + 3
                for m1 in range(-1, span):
                    for m2 in range(-1, span):
                        v = vadd(eng.box[key], vadd(vscale(m1, eng.g1), vscale(m2, eng.g2)))
                        assert slot.member(v) == split_meet_member(q, k + 1, v), (k, v)
                assert cols == _IdealUp(ring, gens).cols(key), (k, key)
            comp = sorted(map(tuple, slot.complement()))
            box = max(max(map(max, comp), default=0), max(map(max, gens))) + 4
            assert slot.colength() == len(comp) == \
                len(brute_complement(sgens, gens_of(slot), box)), k


class TestExtractionOracle:
    """Cross-check split slots and closure rules against a box brute force.

    The oracle enumerates the members of a closure, by its definition, in a
    generous box and keeps the points all of whose predecessors leave it;
    every minimal generator of the tested closures is small enough to land
    inside the box.
    """

    CASES = [
        ("remark", [(1, 0), (0, 2)]),
        ("remark", [(0, 4), (2, 0)]),
        ("cm", [(2, 0), (0, 1)]),
        ("cm", [(0, 2), (4, 0)]),
    ]

    @staticmethod
    def brute_min_gens(ring, member, box):
        out = []
        for v in itertools.product(range(box + 1), repeat=2):
            if not member(v):
                continue
            if all(not member((v[0] - g[0], v[1] - g[1])) for g in ring.generators):
                out.append(v)
        return out

    def parameters(self, remark_ring, cm_ring):
        rings = {"remark": remark_ring, "cm": cm_ring}
        return [ParameterIdeal(rings[name], gens) for name, gens in self.CASES]

    def test_colon_extraction(self, remark_ring, cm_ring):
        # Q^lim is the colon (u1^(t+1), u2^(t+1)) : (u1 u2)^t for large t
        for q in self.parameters(remark_ring, cm_ring):
            closed = _split_slot(q, 1)
            expected = self.brute_min_gens(q.ring, lambda v: limit_chain_member(q, 48, v), 14)
            assert gens_of(closed) == expected, q

    def test_intersection_extraction(self, remark_ring, cm_ring):
        # split slot k, the intersection of the splits' limit closures
        for q in self.parameters(remark_ring, cm_ring):
            for k in (2, 3):
                met = _split_slot(q, k)
                expected = self.brute_min_gens(
                    q.ring, lambda v: split_meet_member(q, k + 1, v), 14)
                assert gens_of(met) == expected, (q, k)
                if not q.ring.is_cm:
                    assert met == lim_intersection(q, k + 1), (q, k)

    def test_closure_extraction(self, remark_ring, cm_ring):
        # the tight closure Q^k S̄ ∩ S, held as its rule: the rule's minimal
        # points are those of the box enumeration
        for q in self.parameters(remark_ring, cm_ring):
            rule = ClosureRule(q, tight=True)
            for k in (1, 2, 3):
                got = self.brute_min_gens(q.ring, lambda v: rule.member(k, v), 14)
                expected = self.brute_min_gens(q.ring, lambda v: tight_member(q, k, v), 14)
                assert got == expected, (q, k)


FREE3_GENS = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
small3 = st.tuples(st.integers(0, 4), st.integers(0, 4), st.integers(0, 4))


class TestFree3Heights:
    """Free-Z^3 heights and reach against a box brute force: the corners of
    the height function, the columns below both their left and lower
    neighbours, are the minimal generators."""

    @staticmethod
    def brute_min_gens(member, box):
        return [v for v in itertools.product(range(box + 1), repeat=3)
                if member(v) and not any(member(vsub(v, e)) for e in FREE3_GENS)]

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 4), st.integers(1, 4), st.integers(1, 4),
           st.lists(small3, max_size=4))
    def test_extraction_matches_brute_force(self, a, b, c, extra):
        ring = AffineSemigroup(3, FREE3_GENS)
        gens = gens_of(MonomialIdeal(
            ring, [(a, 0, 0), (0, b, 0), (0, 0, c)] + [v for v in extra if any(v)]))
        memo = {}

        def member(v):
            if v not in memo:
                memo[v] = min(v) >= 0 and brute_ideal_member(FREE3_GENS, gens, v)
            return memo[v]

        expected = self.brute_min_gens(member, 4)
        for i, e in enumerate(FREE3_GENS):
            reach = next((k for k in range(5) if member(vscale(k, e))), None)
            assert _axis_reach(gens, i) == reach, i
        hts = _column_heights(gens, a + 1, b + 1)
        for x in range(a + 1):
            for y in range(b + 1):
                assert hts[x][y] == next((z for z in range(5) if member((x, y, z))), None)
        corners = [(x, y, hts[x][y]) for x in range(a + 1) for y in range(b + 1)
                   if hts[x][y] is not None
                   and (x == 0 or hts[x - 1][y] is None or hts[x][y] < hts[x - 1][y])
                   and (y == 0 or hts[x][y - 1] is None or hts[x][y] < hts[x][y - 1])]
        assert sorted(corners) == expected == gens
        comp = sorted(map(tuple, MonomialIdeal(ring, gens).complement()))
        assert comp == brute_complement(FREE3_GENS, gens, 4)


class TestParameterIdeal:
    def test_remark_parameter(self, remark_ring):
        q = ParameterIdeal(remark_ring, [(1, 0), (0, 2)])
        assert is_parameter_ideal(q)
        assert q.colength() == 3

    def test_order_preserved(self, remark_ring):
        q = ParameterIdeal(remark_ring, [(0, 2), (1, 0)])
        assert [tuple(g) for g in q.ordered_generators] == [(0, 2), (1, 0)]
        assert gens_of(q.base) == [(0, 2), (1, 0)]

    def test_split(self, remark_ring):
        q = ParameterIdeal(remark_ring, [(1, 0), (0, 2)])
        qa = q.split((2, 1))
        assert [tuple(g) for g in qa.ordered_generators] == [(2, 0), (0, 2)]

    def test_wrong_count(self, remark_ring):
        with pytest.raises(NotMPrimaryError):
            ParameterIdeal(remark_ring, [(1, 0)])

    def test_not_spanning(self, free2):
        with pytest.raises(NotMPrimaryError):
            ParameterIdeal(free2, [(0, 1), (0, 2)])

    def test_large_pure_power(self, free2, free3):
        # pure powers are read off the generators, with no cap on their size
        q2 = ParameterIdeal(free2, [(5000, 0), (0, 1)])
        q3 = ParameterIdeal(free3, [(5000, 0, 0), (0, 1, 0), (0, 0, 1)])
        assert q2.base.is_m_primary and q3.base.is_m_primary
        assert q3.base._ray_powers() == (5000, 1, 1)
        assert q3.colength() == 5000
        assert not MonomialIdeal(free3, [(5000, 0, 0), (0, 1, 0)]).is_m_primary

    def test_large_pure_power_closure_and_colon(self, free3):
        # the pure powers are read in closed form, so no scan cap applies
        q = ParameterIdeal(free3, [(5000, 0, 0), (0, 1, 0), (0, 0, 1)])
        assert lim_intersection(q, 3) == q.base
        assert ClosureRule(q, tight=True).lengths(0) == [q.colength()]
        # (Q : x) = (x^4999, y, z)
        colon = MonomialIdeal(free3, [(4999, 0, 0), (0, 1, 0), (0, 0, 1)])
        assert colon._ray_powers() == (4999, 1, 1)
        assert colon.colength() == 4999

    def test_is_parameter_on_plain_ideal(self, remark_ring):
        assert is_parameter_ideal(MonomialIdeal(remark_ring, [(1, 0), (0, 2)]))
        assert not is_parameter_ideal(maximal_ideal(remark_ring))


class TestNu:
    def test_remark(self, remark_ring):
        q = ParameterIdeal(remark_ring, [(1, 0), (0, 2)])
        assert nu_m_mod_q(q) == 2

    def test_free_maximal(self, free2):
        q = ParameterIdeal(free2, [(1, 0), (0, 1)])
        assert nu_m_mod_q(q) == 0

    def test_cm_ring(self, cm_ring):
        q = ParameterIdeal(cm_ring, [(2, 0), (0, 1)])
        # (3,0) is the only irreducible outside Q + m^2
        assert nu_m_mod_q(q) == 1

    @staticmethod
    def outside_q_plus_m2(q):
        qm2 = ideal_sum(q.base, ideal_power(maximal_ideal(q.ring), 2))
        return sum(1 for g in q.ring.minimal_generators() if not qm2.member(g))

    @settings(max_examples=40, deadline=None)
    @given(sweep_rings, st.integers(1, 3), st.integers(1, 3), st.booleans())
    def test_matches_q_plus_m_squared(self, sgens, k1, k2, swap):
        # an irreducible element is never in m^2, so only Q decides
        ring = AffineSemigroup(2, sgens)
        powers = [vscale(k, g) for k, g in zip((k1, k2), ring.extreme_generators())]
        q = ParameterIdeal(ring, powers[::-1] if swap else powers)
        assert nu_m_mod_q(q) == self.outside_q_plus_m2(q)

    @pytest.mark.parametrize("dim, sgens, qgens", [
        (1, [(3,), (5,), (7,)], [(6,)]),
        (1, [(4,), (6,), (9,)], [(4,)]),
        (3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)], [(2, 0, 0), (0, 1, 0), (0, 0, 1)]),
    ])
    def test_matches_q_plus_m_squared_other_dims(self, dim, sgens, qgens):
        q = ParameterIdeal(AffineSemigroup(dim, sgens), qgens)
        assert nu_m_mod_q(q) == self.outside_q_plus_m2(q)
