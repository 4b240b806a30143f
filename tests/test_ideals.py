import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    REMARK_GENS,
    MonomialIdeal,
    brute_complement,
    brute_ideal_member,
    brute_member,
    brute_searcher,
    cols,
    colength,
    complement,
    grid_first,
    lim_intersection,
    limit_chain_member,
    line_first,
    parameter_power,
    parameter_sums,
    rule_member,
    split_meet_member,
    split_slot,
    stabilization,
    tight_member,
)
from hilbclose.closures import ClosureRule
from hilbclose.errors import NotMPrimaryError, UnsupportedRingError
from hilbclose.ideals import ParameterIdeal, nu_m_mod_q
from hilbclose.hilbert import Filtration, FiltrationKind, length_sequence
from hilbclose.lattice import AffineSemigroup, vadd, vdot, vscale, vsub


def gens_of(ideal):
    return sorted(tuple(g) for g in ideal.gens)


class TestConstruction:
    def test_reduces_to_antichain(self, remark_ring):
        # Q^n needs no reduction: the sums of n parameters are incomparable
        q = ParameterIdeal(remark_ring, [(1, 0), (0, 2)])
        for n in range(1, 6):
            sums = parameter_sums(q.ordered_generators, n)
            for a, b in itertools.permutations(sums, 2):
                assert not brute_member(REMARK_GENS, vsub(a, b)), (n, a, b)

    def test_generator_outside_ring_rejected(self, remark_ring):
        with pytest.raises(ValueError, match="not in the semigroup"):
            ParameterIdeal(remark_ring, [(0, 1), (1, 0)])

    def test_antichain_under_s_divisibility(self, remark_ring):
        # (0,5) - (0,2) = (0,3) in S: the two do not make a parameter ideal
        with pytest.raises(NotMPrimaryError, match="do not positively span"):
            ParameterIdeal(remark_ring, [(0, 2), (0, 5)])

    def test_keeps_s_incomparable(self, remark_ring):
        # (0,3) - (0,2) = (0,1) is not in S: both generate
        ideal = MonomialIdeal(remark_ring, [(0, 2), (0, 3)])
        assert gens_of(ideal) == [(0, 2), (0, 3)]
        for v in itertools.product(range(8), repeat=2):
            assert ideal.member(v) == brute_ideal_member(REMARK_GENS, [(0, 2), (0, 3)], v), v


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
        q = ParameterIdeal(remark_ring, [(1, 0), (0, 2)])
        assert gens_of(parameter_power(q, 2)) == [(0, 4), (1, 2), (2, 0)]

    def test_power_one_identity(self, remark_ring):
        q = ParameterIdeal(remark_ring, [(1, 0), (0, 2)])
        assert parameter_sums(q.ordered_generators, 1) == [(1, 0), (0, 2)]

    def test_free_square(self, free2):
        q = ParameterIdeal(free2, [(2, 0), (0, 3)])
        assert gens_of(parameter_power(q, 2)) == [(0, 6), (2, 3), (4, 0)]

    def test_product_associative_powers(self, remark_ring):
        q = ParameterIdeal(remark_ring, [(1, 0), (0, 2)])
        params = q.ordered_generators
        for a in (1, 2, 3):
            for b in (1, 2, 3):
                lhs = {vadd(x, y) for x in parameter_sums(params, a)
                       for y in parameter_sums(params, b)}
                assert sorted(lhs) == sorted(parameter_sums(params, a + b)), (a, b)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(1, 4), st.integers(1, 4), st.integers(1, 3), st.integers(1, 3))
    def test_product_powers_fuzzed_free(self, x, y, a, b):
        # Q^a Q^b = Q^(a+b), tested as ideals by their members
        ring = AffineSemigroup(2, [(1, 0), (0, 1)])
        q = ParameterIdeal(ring, [(x, 0), (0, y)])
        lhs = [vadd(u, v) for u in parameter_power(q, a).gens for v in parameter_power(q, b).gens]
        rhs = parameter_power(q, a + b).gens
        for v in itertools.product(range(4 * (a + b) + 2), repeat=2):
            assert brute_ideal_member([(1, 0), (0, 1)], lhs, v) == \
                brute_ideal_member([(1, 0), (0, 1)], rhs, v), v


class TestColength:
    def test_remark_parameter(self, remark_ring):
        q = ParameterIdeal(remark_ring, [(1, 0), (0, 2)])
        assert q.colength() == 3
        assert complement(parameter_power(q, 1)) == [(0, 0), (0, 3), (1, 1)]

    def test_free_maximal(self, free2):
        assert ParameterIdeal(free2, [(1, 0), (0, 1)]).colength() == 1

    def test_remark_square_colength(self, remark_ring):
        q = ParameterIdeal(remark_ring, [(1, 0), (0, 2)])
        expected = brute_complement(REMARK_GENS, gens_of(parameter_power(q, 2)), 14)
        assert q.power_colength(2) == colength(parameter_power(q, 2)) == len(expected) == 8
        assert complement(parameter_power(q, 2)) == expected

    def test_cm_ring_colengths(self, cm_ring):
        q = ParameterIdeal(cm_ring, [(2, 0), (0, 1)])
        assert q.colength() == 2
        assert complement(parameter_power(q, 1)) == [(0, 0), (3, 0)]
        assert q.power_colength(2) == 6

    def test_complement_matches_bruteforce_deep(self, cm_ring):
        gens = [(2, 0), (3, 0), (0, 1)]
        q = ParameterIdeal(cm_ring, [(2, 0), (0, 1)])
        expected = brute_complement(gens, gens_of(parameter_power(q, 3)), 16)
        assert complement(parameter_power(q, 3)) == expected
        assert q.power_colength(3) == len(expected)

    def test_not_m_primary(self, free2):
        # (1,1) lies on no extreme ray
        with pytest.raises(NotMPrimaryError, match="do not positively span"):
            ParameterIdeal(free2, [(0, 1), (1, 1)])

    def test_complement_witness_present(self, remark_ring):
        q = ParameterIdeal(remark_ring, [(1, 0), (0, 2)])
        comp = complement(parameter_power(q, 1))
        assert comp == [(0, 0), (0, 3), (1, 1)]
        assert not any(parameter_power(q, 1).member(v) for v in comp)

    def test_colength_monotone(self, remark_ring):
        q = ParameterIdeal(remark_ring, [(1, 0), (0, 2)])
        lengths = [q.power_colength(n) for n in range(1, 6)]
        assert lengths == sorted(lengths)
        assert lengths == [(n + 1) * (n + 3) for n in range(0, 5)]

    def test_dim1_colength(self):
        ring = AffineSemigroup(1, [(2,), (3,)])
        q = ParameterIdeal(ring, [(4,)])
        # complement: S-points below the up-set of 4: {0, 2, 3, 5}
        assert q.colength() == 4
        assert complement(parameter_power(q, 1)) == [(0,), (2,), (3,), (5,)]

    def test_free3_colength(self, free3):
        q = ParameterIdeal(free3, [(2, 0, 0), (0, 2, 0), (0, 0, 2)])
        assert q.colength() == len(complement(parameter_power(q, 1))) == 8
        assert q.power_colength(2) == len(complement(parameter_power(q, 2))) == 32

    @settings(max_examples=25, deadline=None)
    @given(st.integers(1, 4), st.integers(1, 4), st.integers(1, 3), st.integers(1, 3))
    def test_colength_antitone_in_containment(self, x, y, a, b):
        # I contained in J forces colength(I) >= colength(J): Q(a, b) and
        # Q^(a+b) lie in Q, and Q^(a+b) in Q(a, b)
        ring = AffineSemigroup(2, [(1, 0), (0, 1)])
        q = ParameterIdeal(ring, [(x, 0), (0, y)])
        split = q.split((a, b))
        assert all(parameter_power(q, 1).member(g) for g in split.ordered_generators)
        assert all(parameter_power(split, 1).member(g) for g in parameter_power(q, a + b).gens)
        assert q.power_colength(a + b) >= split.colength() >= q.colength()


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
    """The per-coset column arrays against the per-generator minimum, and
    their column count against the box enumeration."""

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
        gens = ideal.gens
        for axis in (0, 1):
            stable, consts = stabilization(eng, axis)
            gfix = eng.g1 if axis == 1 else eng.g2
            for key in sorted(eng.box):
                for f in range(stable, stable + 6):
                    assert grid_first(eng, key, axis, f) == consts[key]
                count = stable + 6
                key_cols = cols(ideal, key)
                got = [line_first(key_cols, axis, m) for m in range(count)]
                for m in range(count):
                    v0 = vadd(eng.box[key], vscale(m, gfix))
                    firsts = [_first_shift(eng, vsub(v0, u), axis) for u in gens]
                    firsts = [t for t in firsts if t is not None]
                    assert got[m] == (min(firsts) if firsts else None), (key, axis, m)
        assert colength(ideal) == len(complement(ideal))


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
        gens = [vscale(k1, eng.g1), vscale(k2, eng.g2)] + extra
        q = ParameterIdeal(ring, [vscale(k1, eng.g1), vscale(k2, eng.g2)])
        in_s = brute_searcher(sgens)
        upsets = [(MonomialIdeal(ring, gens), lambda v: any(in_s(vsub(v, g)) for g in gens))] + [
            (split_slot(q, k), lambda v, k=k: split_meet_member(q, k + 1, v))
            for k in (1, 2, 3)]
        hi = 12 * (k1 + k2 + 4)
        for axis in (0, 1):
            gfix, gax = (eng.g1, eng.g2) if axis == 1 else (eng.g2, eng.g1)
            count = stabilization(eng, axis)[0] + 4
            for key in sorted(eng.box):
                for upset, member in upsets:
                    key_cols = cols(upset, key)
                    prof = [line_first(key_cols, axis, m) for m in range(count)]
                    for m in range(count):
                        v0 = vadd(eng.box[key], vscale(m, gfix))
                        first = next((t for t in range(hi)
                                      if member(vadd(v0, vscale(t, gax)))), None)
                        assert prof[m] == first, (upset, key, axis, m)


class TestStoredStaircase:
    """A split slot's column arrays, built from its corners, against the meet
    of the splits' limit closures and the arrays its generators build, and
    its counted colength against the box enumeration."""

    @settings(max_examples=30, deadline=None)
    @given(sweep_rings, st.integers(1, 2), st.integers(1, 2), st.booleans())
    def test_lookup_and_colength(self, sgens, k1, k2, swap):
        ring = AffineSemigroup(2, sgens)
        eng = ring._engine
        powers = [vscale(k1, eng.g1), vscale(k2, eng.g2)]
        q = ParameterIdeal(ring, powers[::-1] if swap else powers)
        for k in (1, 2, 3):
            slot = split_slot(q, k)
            stair = slot.stair
            assert sorted(stair) == sorted(eng.box), k
            gens = slot.gens
            for key in sorted(eng.box):
                key_cols = stair[key]
                # past the last column and the first entry every line is level
                span = max(len(key_cols), max(t for t in key_cols if t is not None) + 1) + 3
                for m1 in range(-1, span):
                    for m2 in range(-1, span):
                        v = vadd(eng.box[key], vadd(vscale(m1, eng.g1), vscale(m2, eng.g2)))
                        assert slot.member(v) == split_meet_member(q, k + 1, v), (k, v)
                assert key_cols == cols(MonomialIdeal(ring, gens), key), (k, key)
            assert colength(slot) == len(complement(slot)), k


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
            closed = split_slot(q, 1)
            expected = self.brute_min_gens(q.ring, lambda v: limit_chain_member(q, 48, v), 14)
            assert gens_of(closed) == expected, q

    def test_intersection_extraction(self, remark_ring, cm_ring):
        # split slot k, the intersection of the splits' limit closures
        for q in self.parameters(remark_ring, cm_ring):
            for k in (2, 3):
                met = split_slot(q, k)
                expected = self.brute_min_gens(
                    q.ring, lambda v: split_meet_member(q, k + 1, v), 14)
                assert gens_of(met) == expected, (q, k)
                if not q.ring.is_cm:
                    slot = lim_intersection(q, k + 1)
                    assert (slot.gens, slot.stair) == (met.gens, met.stair), (q, k)

    def test_closure_extraction(self, remark_ring, cm_ring):
        # the tight closure Q^k S̄ ∩ S, held as its rule: the rule's minimal
        # points are those of the box enumeration
        for q in self.parameters(remark_ring, cm_ring):
            rule = ClosureRule(q, tight=True)
            for k in (1, 2, 3):
                got = self.brute_min_gens(q.ring, lambda v: rule_member(rule, k, v), 14)
                expected = self.brute_min_gens(q.ring, lambda v: tight_member(q, k, v), 14)
                assert got == expected, (q, k)


FREE3_GENS = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]


class TestPowerColengths:
    """ell(R/Q^k) in closed form, per Apéry class of a numerical semigroup
    and as a box in free Z^3, against the box enumeration."""

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(2, 12), min_size=1, max_size=3, unique=True),
           st.integers(1, 4), st.data())
    def test_num1_per_class(self, vals, step, data):
        ring = AffineSemigroup(1, [(step * v,) for v in vals])
        # a parameter other than amin: a sum of one to three generators
        picks = data.draw(st.lists(st.sampled_from(ring.generators), min_size=1, max_size=3))
        a = sum(g[0] for g in picks)
        if a == ring._engine.amin:
            a += max(g[0] for g in ring.generators)
        q = ParameterIdeal(ring, [(a,)])
        for k in (1, 2, 3):
            assert q.power_colength(k) == len(complement(parameter_power(q, k))), (a, k)

    @pytest.mark.parametrize("sgens, a, want", [
        ([(6,), (9,), (20,)], 9, [9, 18, 27]),
        ([(3,), (5,), (7,)], 5, [5, 10, 15]),
        ([(4,), (6,)], 10, [5, 10, 15]),
    ])
    def test_num1_values(self, sgens, a, want):
        # e(x^a) = a / gcd, the index of ZS in Z; the count
        # #{s in S : s < k*a} would give 2 for (x^9) in <6, 9, 20>
        q = ParameterIdeal(AffineSemigroup(1, sgens), [(a,)])
        assert [q.power_colength(k) for k in (1, 2, 3)] == want
        assert [len(complement(parameter_power(q, k))) for k in (1, 2, 3)] == want

    @settings(max_examples=25, deadline=None)
    @given(st.integers(1, 3), st.integers(1, 3), st.integers(1, 3), st.permutations(range(3)))
    def test_free3_box(self, a, b, c, order):
        axes = [(a, 0, 0), (0, b, 0), (0, 0, c)]
        q = ParameterIdeal(AffineSemigroup(3, FREE3_GENS), [axes[i] for i in order])
        for k in (1, 2, 3):
            assert q.power_colength(k) == len(complement(parameter_power(q, k))), k

    def test_large_values(self, free3):
        ring = AffineSemigroup(1, [(1000,), (1001,)])
        q = ParameterIdeal(ring, [(1000,)])
        assert q.colength() == 1000
        lengths = length_sequence(Filtration(FiltrationKind.ORDINARY, q), 6)
        assert lengths == [1000 * (n + 1) for n in range(7)]
        q3 = ParameterIdeal(free3, [(2000, 0, 0), (0, 3000, 0), (0, 0, 2)])
        assert q3.colength() == q3.multiplicity() == 12_000_000


class TestParameterIdeal:
    def test_remark_parameter(self, remark_ring):
        q = ParameterIdeal(remark_ring, [(1, 0), (0, 2)])
        assert q.colength() == 3

    def test_order_preserved(self, remark_ring):
        q = ParameterIdeal(remark_ring, [(0, 2), (1, 0)])
        assert [tuple(g) for g in q.ordered_generators] == [(0, 2), (1, 0)]
        assert parameter_power(q, 1).gens == [(0, 2), (1, 0)]

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
        assert q2.colength() == q3.colength() == 5000
        with pytest.raises(NotMPrimaryError):
            ParameterIdeal(free3, [(5000, 0, 0), (0, 1, 0)])

    def test_large_pure_power_closure_and_colon(self, free3):
        # the pure powers are read in closed form, so no scan cap applies
        q = ParameterIdeal(free3, [(5000, 0, 0), (0, 1, 0), (0, 0, 1)])
        assert lim_intersection(q, 3).gens == parameter_power(q, 1).gens
        assert ClosureRule(q, tight=True).lengths(0) == [q.colength()]
        # (Q : x) = (x^4999, y, z)
        colon = ParameterIdeal(free3, [(4999, 0, 0), (0, 1, 0), (0, 0, 1)])
        assert colon.colength() == 4999

    def test_is_parameter_on_plain_ideal(self, remark_ring):
        ParameterIdeal(remark_ring, [(1, 0), (0, 2)])
        with pytest.raises(NotMPrimaryError, match="exactly 2 generators, got 4"):
            ParameterIdeal(remark_ring, remark_ring.minimal_generators())


SPAN_MESSAGES = ("do not positively span the cone", "must be distinct")


def parameter_by_definition(ring, gens, reach=40):
    """Whether monomials ``gens`` of S make a parameter ideal, from the
    definition by brute-force search: Q ⊆ m, some multiple k >= 1 of each
    extreme generator lies in Q, and the d generators are pairwise
    incomparable."""
    in_s = brute_searcher(ring.generators)

    def inside(v):
        return any(in_s(vsub(v, u)) for u in gens)

    return (all(any(u) for u in gens)
            and all(any(inside(vscale(k, g)) for k in range(1, reach))
                    for g in ring.extreme_generators())
            and not any(in_s(vsub(a, b)) for a, b in itertools.permutations(gens, 2)))


def drawn_element(data, ring):
    """An element of S: a multiple of one generator, often on an extreme
    ray, or a sum of up to three generators, zero included."""
    if data.draw(st.booleans()):
        return vscale(data.draw(st.integers(1, 3)), data.draw(st.sampled_from(ring.generators)))
    picks = data.draw(st.lists(st.sampled_from(ring.generators), max_size=3))
    return tuple(sum(c) for c in zip(*picks)) if picks else (0,) * ring.dim


class TestRayCheck:
    """The check that each generator lies on its own extreme ray accepts
    exactly the parameter ideals of the definition."""

    @staticmethod
    def check(ring, gens):
        try:
            ParameterIdeal(ring, gens)
        except NotMPrimaryError as exc:
            assert any(m in str(exc) for m in SPAN_MESSAGES), exc
            accepted = False
        else:
            accepted = True
        assert accepted == parameter_by_definition(ring, gens), gens
        return accepted

    @settings(max_examples=100, deadline=None)
    @given(sweep_rings, st.data())
    def test_sweep_rings(self, sgens, data):
        ring = AffineSemigroup(2, sgens)
        self.check(ring, [drawn_element(data, ring) for _ in range(2)])

    @settings(max_examples=60, deadline=None)
    @given(st.permutations(range(3)), st.lists(st.integers(1, 3), min_size=3, max_size=3),
           st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2)), max_size=2), st.booleans())
    def test_free3(self, order, scales, moves, collapse):
        # powers of the three axes, some moved by a unit vector, which keeps
        # a generator on its axis or takes it off; or two on one ray
        gens = [vscale(k, FREE3_GENS[i]) for k, i in zip(scales, order)]
        for j, axis in moves:
            gens[j] = vadd(gens[j], FREE3_GENS[axis])
        if collapse:
            gens[2] = vscale(2, gens[1])
        self.check(AffineSemigroup(3, FREE3_GENS), gens)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(2, 9), min_size=1, max_size=3, unique=True), st.data())
    def test_numerical_semigroups(self, vals, data):
        ring = AffineSemigroup(1, [(v,) for v in vals])
        self.check(ring, [drawn_element(data, ring)])

    def test_both_outcomes(self, remark_ring, free3):
        # the cases above draw both outcomes; these pin one of each per kind
        num = AffineSemigroup(1, [(3,), (5,)])
        accepted = [(remark_ring, [(0, 3), (1, 0)]), (num, [(5,)]),
                    (free3, [(0, 0, 2), (1, 0, 0), (0, 4, 0)])]
        rejected = [(remark_ring, [(0, 3), (1, 1)]), (num, [(0,)]),
                    (free3, [(1, 1, 0), (0, 1, 0), (0, 0, 1)])]
        for ring, gens in accepted:
            assert self.check(ring, gens)
        for ring, gens in rejected:
            assert not self.check(ring, gens)


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
        sgens = q.ring.generators
        qm2 = list(q.ordered_generators) + [vadd(g, h) for g in sgens for h in sgens]
        return sum(1 for g in q.ring.minimal_generators()
                   if not brute_ideal_member(sgens, qm2, g))

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
