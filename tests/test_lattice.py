import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    REMARK_GENS,
    RationalPolyhedron,
    brute_member,
    finite_gaps,
    grid_first,
    in_lattice,
    in_normalization,
    least_conductor,
    newton_polyhedron,
    normalization_gaps,
    stabilization,
)
from hilbclose.errors import DimensionMismatchError, UncertifiedError, UnsupportedRingError
from hilbclose.lattice import (
    AffineSemigroup,
    ExponentVector,
    _stair_colength,
    _stair_corners,
    _staircase,
    vadd,
    vscale,
)


class TestExponentVector:
    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            ExponentVector((1, -1))

    def test_add(self):
        assert ExponentVector((1, 2)) + ExponentVector((3, 4)) == (4, 6)

    def test_add_length_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            ExponentVector((1,)) + ExponentVector((1, 2))

    def test_scaled(self):
        assert ExponentVector((2, 3)).scaled(4) == (8, 12)


class TestConstruction:
    def test_rejects_zero_generator(self):
        with pytest.raises(ValueError):
            AffineSemigroup(2, [(0, 0), (1, 0)])

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            AffineSemigroup(2, [(1, 0), (1, 0)])

    def test_rejects_rank_deficient(self):
        with pytest.raises(UnsupportedRingError):
            AffineSemigroup(2, [(1, 1), (2, 2)])

    def test_rejects_nonfree_dim3(self):
        with pytest.raises(UnsupportedRingError):
            AffineSemigroup(3, [(2, 0, 0), (0, 1, 0), (0, 0, 1)])

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            AffineSemigroup(2, [(1, 0, 0)])


class TestMembership:
    def test_remark_gap(self, remark_ring):
        # the single saturation gap
        assert remark_ring.member((0, 1)) is False

    def test_remark_generator(self, remark_ring):
        assert remark_ring.member((1, 1))

    def test_remark_combination(self, remark_ring):
        # (2,3) = (1,1)+(1,0)+(0,2)
        assert remark_ring.member((2, 3))

    def test_dimension_check(self, remark_ring):
        with pytest.raises(DimensionMismatchError):
            remark_ring.member((1, 2, 3))

    def test_matches_bruteforce_remark(self, remark_ring):
        for v in itertools.product(range(13), repeat=2):
            if sum(v) <= 20:
                assert remark_ring.member(v) == brute_member(REMARK_GENS, v), v

    def test_matches_bruteforce_cm(self, cm_ring):
        gens = [(2, 0), (3, 0), (0, 1)]
        for v in itertools.product(range(13), repeat=2):
            if sum(v) <= 20:
                assert cm_ring.member(v) == brute_member(gens, v), v

    def test_numerical_semigroup(self):
        ring = AffineSemigroup(1, [(3,), (5,)])
        expected = {0, 3, 5, 6, 8}
        for x in range(13):
            assert ring.member((x,)) == (x in expected or x >= 8), x

    def test_free3(self, free3):
        assert free3.member((4, 0, 7))

    def test_deep_coordinates_on_gap_ray(self, cm_ring):
        # far outside any bounded table: the gap ray stays out of S forever
        big = 10 ** 6
        assert not cm_ring.member((1, big))
        assert cm_ring.member((2, big))
        assert cm_ring.member((3, big))
        assert cm_ring.member((5, big))
        assert not cm_ring.member((1, 0))

    def test_deep_coordinates_remark(self, remark_ring):
        big = 10 ** 9
        assert remark_ring.member((0, 2 * big))
        assert remark_ring.member((0, 2 * big + 1))
        assert remark_ring.member((1, big))
        assert not remark_ring.member((0, 1))

    def test_large_parallelogram(self):
        # (1000,1) and (1,1000) span a parallelogram of 999,999 lattice points
        # but one coset, whose only Apéry element is the origin
        ring = AffineSemigroup(2, [(1, 1000), (1000, 1)])
        assert ring.is_cm
        assert ring.member((1001, 1001)) and ring.member((2000, 2))
        assert not ring.member((1, 1)) and not ring.member((999, 999))

    def test_deep_thin_slab(self):
        # only every fifth level is reachable at first coordinate zero
        ring = AffineSemigroup(2, [(1, 0), (1, 1), (0, 5)])
        assert ring.member((0, 5 * 10 ** 7))
        assert not ring.member((0, 5 * 10 ** 7 + 3))
        assert ring.member((3, 5 * 10 ** 7 + 3))
        assert not ring.member((2, 5 * 10 ** 7 + 3))

    @settings(max_examples=40, deadline=None)
    @given(st.lists(
        st.tuples(st.integers(0, 5), st.integers(0, 5)).filter(lambda g: g != (0, 0)),
        min_size=2, max_size=5, unique=True))
    def test_membership_consistency_fuzzed(self, gens):
        try:
            ring = AffineSemigroup(2, gens)
        except UnsupportedRingError:
            return
        for v in itertools.product(range(9), repeat=2):
            if sum(v) <= 12:
                assert ring.member(v) == brute_member(gens, v), (gens, v)


def _brute_table(gens, nx, ny):
    """Membership DP over the box [0, nx) x [0, ny)."""
    tab = [[False] * ny for _ in range(nx)]
    tab[0][0] = True
    for x in range(nx):
        for y in range(ny):
            tab[x][y] = tab[x][y] or any(
                x >= g[0] and y >= g[1] and tab[x - g[0]][y - g[1]] for g in gens)
    return tab


class TestResidueDecisionPath:
    """Membership and line firsts, decided per residue class (coset of
    Z g1 + Z g2) from the Apéry staircase, against a brute-force DP over a
    box past the stabilization index on both axes."""

    @pytest.mark.parametrize("gens", [
        [(1, 0), (1, 1), (0, 2), (0, 3)],
        [(2, 0), (3, 0), (0, 1)],
        [(1, 0), (1, 1), (0, 5)],
        [(2, 1), (1, 3), (3, 0), (0, 4)],
        [(5, 1), (1, 5), (3, 3)],
        # cosets whose least in-S point is not found first along generator sums
        [(0, 5), (2, 4), (2, 5), (5, 2), (6, 0)],
        [(0, 3), (0, 5), (2, 1), (2, 6), (4, 0)],
        # coordinates up to 14, Apéry elements far from the origin
        [(1, 13), (2, 6), (8, 1), (10, 0)],
    ])
    def test_membership_matches_bruteforce(self, gens):
        ring = AffineSemigroup(2, gens)
        eng = ring._engine
        stable = [stabilization(eng, axis)[0] for axis in (0, 1)]
        # line f of each axis up to stable + 2, walked to the other's stable + 2
        lines = []
        for axis in (0, 1):
            gfix, gtrav = (eng.g1, eng.g2) if axis == 1 else (eng.g2, eng.g1)
            for key in sorted(eng.box):
                for f in range(stable[axis] + 3):
                    v0 = vadd(eng.box[key], vscale(f, gfix))
                    lines.append((key, axis, f, [vadd(v0, vscale(t, gtrav))
                                                 for t in range(stable[1 - axis] + 3)]))
        nx = max(p[0] for *_, pts in lines for p in pts) + 1
        ny = max(p[1] for *_, pts in lines for p in pts) + 1
        tab = _brute_table(gens, nx, ny)
        for key, axis, f, pts in lines:
            first = next((t for t, p in enumerate(pts) if tab[p[0]][p[1]]), None)
            assert grid_first(eng, key, axis, f) == first, (key, axis, f)
        for v in itertools.product(range(nx), range(ny)):
            assert ring.member(v) == tab[v[0]][v[1]], v

    def test_apery_corners_are_the_staircase_corners(self):
        # the Apéry elements the ideals' staircases are moved from
        for gens, key, want in (
                ([(0, 5), (2, 4), (2, 5), (5, 2), (6, 0)], (5, 0), [(1, 3), (2, 2)]),
                ([(0, 3), (0, 5), (2, 1), (2, 6), (4, 0)], (2, 0), [(0, 2), (1, 1)])):
            eng = AffineSemigroup(2, gens)._engine
            assert sorted(eng.apery[key]) == want
            for k, cols in eng.stair.items():
                assert sorted(eng.apery[k]) == _stair_corners(cols), (gens, k)

    @pytest.mark.parametrize("corners", [[(0, 0)], [(1, 0)], [(0, 1)]],
                             ids=["off-ring", "missed-column", "tail"])
    def test_column_sums_raise(self, remark_ring, corners):
        # coset (0, 1) of the remark ring has the corners (0, 1) and (1, 0):
        # an up-set from (0, 0) leaves S, one from (1, 0) misses column 0,
        # and one from (0, 1) alone misses row 0 past column 0
        eng = remark_ring._engine
        assert sorted(eng.apery[0, 1]) == [(0, 1), (1, 0)]
        stair = dict(eng.stair)
        assert _stair_colength(eng, stair.__getitem__) == 0
        stair[0, 1] = _staircase(corners)
        with pytest.raises(UncertifiedError):
            _stair_colength(eng, stair.__getitem__)

    def test_colength_still_exact(self):
        from hilbclose.ideals import ParameterIdeal

        ring = AffineSemigroup(2, REMARK_GENS)
        q = ParameterIdeal(ring, [(1, 0), (0, 2)])
        assert q.colength() == 3


class TestMinimalGenerators:
    def test_remark(self, remark_ring):
        assert [tuple(g) for g in remark_ring.minimal_generators()] == [
            (0, 2), (0, 3), (1, 0), (1, 1)]

    def test_redundant_generator_dropped(self):
        ring = AffineSemigroup(2, [(1, 0), (0, 1), (2, 3)])
        assert [tuple(g) for g in ring.minimal_generators()] == [(0, 1), (1, 0)]
        assert ring.is_free

    def test_cm_ring(self, cm_ring):
        assert [tuple(g) for g in cm_ring.minimal_generators()] == [
            (0, 1), (2, 0), (3, 0)]


class TestDerivedData:
    def test_group_lattice_remark(self, remark_ring):
        # (1,0) and (1,1) already generate all of Z^2
        basis = remark_ring.group_lattice()
        for v in [(0, 1), (1, 0), (-3, 7)]:
            assert in_lattice(basis, v)

    def test_group_lattice_sublattice(self):
        ring = AffineSemigroup(2, [(2, 0), (0, 3)])
        basis = ring.group_lattice()
        assert in_lattice(basis, (4, 3))
        assert not in_lattice(basis, (1, 3))
        assert not in_lattice(basis, (2, 2))

    def test_cone_halfspaces(self, remark_ring, cm_ring):
        # every generator satisfies every cone halfspace
        for ring in (remark_ring, cm_ring):
            for nm in ring.cone_halfspaces():
                for g in ring.generators:
                    assert sum(a * b for a, b in zip(nm, g)) >= 0

    def test_extreme_generators(self, remark_ring, cm_ring, free3):
        assert remark_ring.extreme_generators() == ((1, 0), (0, 2))
        assert cm_ring.extreme_generators() == ((2, 0), (0, 1))
        # the other engines' rays and facet forms
        numerical = AffineSemigroup(1, [(5,), (3,)])
        assert numerical.extreme_generators() == ((3,),)
        assert numerical.cone_halfspaces() == ((1,),)
        units = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
        assert free3.extreme_generators() == free3.cone_halfspaces() == units


class TestNumericalApery:
    """The numerical engine, held as its Apéry set modulo amin, against
    brute-force membership and the least conductor."""

    @staticmethod
    def check(vals):
        ring = AffineSemigroup(1, [(v,) for v in vals])
        eng = ring._engine
        amin, amax = min(vals), max(vals)
        step = amin
        for v in vals:
            step = math.gcd(step, v)
        # every multiple of the gcd past the Frobenius bound lies in S
        bound = amin * amax // step + amin + amax
        tab = bytearray(bound + 1)
        tab[0] = 1
        for x in range(bound + 1):
            if tab[x]:
                for v in vals:
                    if x + v <= bound:
                        tab[x + v] = 1
        assert sorted(eng.apery) == list(range(0, amin, step))
        for r, w in eng.apery.items():
            assert w % amin == r and tab[w] and (w < amin or not tab[w - amin]), (r, w)
        gaps = [x for x in range(0, bound + 1, step) if not tab[x]]
        assert eng.conductor == (gaps[-1] + step if gaps else 0)
        for x in range(bound + 1):
            assert ring.member((x,)) == bool(tab[x]), x
        for x in (bound + 1, bound + step, 10 ** 12 * step + step, 10 ** 12 * step + 1):
            assert ring.member((x,)) == (x % step == 0), x
        return eng

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(1, 30), min_size=1, max_size=4, unique=True))
    def test_matches_bruteforce(self, vals):
        self.check(vals)

    def test_gcd_above_one(self):
        eng = self.check([4, 6])
        assert eng.apery == {0: 0, 2: 6} and eng.conductor == 4

    def test_large_generators(self):
        # one Apéry element per class: 1000 of them, the largest 999 * 1001
        eng = self.check([1000, 1001])
        assert len(eng.apery) == 1000 and max(eng.apery.values()) == 999 * 1001
        assert eng.conductor == 999 * 1000


class TestSaturation:
    """The brute-force oracles for S̄ ∖ S and the conductor, which other
    tests rely on, against frozen values."""

    def test_remark_single_gap(self, remark_ring):
        assert normalization_gaps(remark_ring, 8) == [(0, 1)]
        assert finite_gaps(remark_ring, 8) == [(0, 1)]

    def test_remark_conductor_valid_exhaustively(self, remark_ring):
        # c + v in S for every saturation point v in a generous region
        c = least_conductor(remark_ring)
        assert c == (1, 0)
        for v in itertools.product(range(9), repeat=2):
            assert remark_ring.member((c[0] + v[0], c[1] + v[1])), v

    def test_free_saturated(self, free2):
        assert normalization_gaps(free2, 8) == []
        assert least_conductor(free2) == (0, 0)

    def test_ray_periodic_gaps(self, cm_ring):
        # the gap ray (1, 0) + t(0, 1) has no point whose row meets S
        assert normalization_gaps(cm_ring, 8) == [(1, t) for t in range(9)]
        assert finite_gaps(cm_ring, 8) == []
        assert least_conductor(cm_ring) == (2, 0)

    def test_ray_periodic_conductor_sound(self, cm_ring):
        c = least_conductor(cm_ring)
        for v in itertools.product(range(9), repeat=2):
            if in_normalization(cm_ring, v):
                assert cm_ring.member((c[0] + v[0], c[1] + v[1])), v

    def test_conductor_soundness_random(self, remark_ring):
        import random

        rng = random.Random(7)
        c = least_conductor(remark_ring)
        for _ in range(100):
            v = (rng.randrange(0, 30), rng.randrange(0, 30))
            assert remark_ring.member((c[0] + v[0], c[1] + v[1]))

    def test_numerical(self):
        ring = AffineSemigroup(1, [(3,), (5,)])
        assert [g[0] for g in finite_gaps(ring, 20)] == [1, 2, 4, 7]
        assert least_conductor(ring) == (8,)


class TestNewtonPolyhedron:
    """The Newton-polyhedron oracle of the integral-closure tests."""

    def test_symmetric_diagonal(self, free2):
        poly = newton_polyhedron([(2, 0), (0, 2)], free2)
        assert set(poly.halfspaces) == {((0, 1), 0), ((1, 0), 0), ((1, 1), 2)}

    def test_two_point_hull(self, free2):
        poly = newton_polyhedron([(2, 0), (0, 3)], free2)
        assert set(poly.halfspaces) == {((0, 1), 0), ((1, 0), 0), ((3, 2), 6)}

    def test_remark_hull(self, remark_ring):
        poly = newton_polyhedron([(1, 0), (0, 2)], remark_ring)
        assert set(poly.halfspaces) == {((0, 1), 0), ((1, 0), 0), ((2, 1), 2)}

    def test_vertices_satisfy_halfspaces(self, free2):
        pts = [(3, 1), (1, 2), (4, 0)]
        poly = newton_polyhedron(pts, free2)
        for p in pts:
            assert poly.contains(p)

    def test_contains_cross_check(self, free2):
        # oracle: v in NP iff exists rational convex combination below v
        from fractions import Fraction

        pts = [(2, 0), (0, 3)]
        poly = newton_polyhedron(pts, free2)
        for v in itertools.product(range(6), repeat=2):
            expected = any(
                Fraction(k, 12) * pts[0][0] + Fraction(12 - k, 12) * pts[1][0] <= v[0]
                and Fraction(k, 12) * pts[0][1] + Fraction(12 - k, 12) * pts[1][1] <= v[1]
                for k in range(13))
            assert poly.contains(v) == expected, v

    def test_scaling_law(self, free2):
        # NP of the n-fold sums equals the n-scaled polyhedron
        pts = [(2, 1), (0, 3), (4, 0)]
        for n in (2, 3):
            sums = [tuple(sum(c) for c in zip(*combo))
                    for combo in itertools.product(pts, repeat=n)]
            scaled = newton_polyhedron(pts, free2).scale(n)
            direct = newton_polyhedron(sums, free2)
            assert scaled == direct, n

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6)),
                    min_size=1, max_size=4),
           st.integers(2, 3))
    def test_scaling_law_fuzzed(self, pts, n):
        ring = AffineSemigroup(2, [(1, 0), (0, 1)])
        sums = [tuple(sum(c) for c in zip(*combo))
                for combo in itertools.product(pts, repeat=n)]
        assert newton_polyhedron(pts, ring).scale(n) == newton_polyhedron(sums, ring)

    def test_dim3(self, free3):
        poly = newton_polyhedron([(2, 0, 0), (0, 2, 0), (0, 0, 2)], free3)
        assert poly.contains((1, 1, 0))
        assert poly.contains((1, 0, 1))
        assert not poly.contains((1, 0, 0))
        assert poly.contains((0, 3, 0))

    def test_empty_points_rejected(self, free2):
        with pytest.raises(ValueError):
            newton_polyhedron([], free2)


class TestRationalPolyhedron:
    def test_scale_and_contains(self):
        poly = RationalPolyhedron(2, [((1, 1), 2), ((1, 0), 0), ((0, 1), 0)])
        assert poly.contains((1, 1))
        assert not poly.contains((1, 0))
        assert poly.scale(3).contains((3, 3))
        assert not poly.scale(3).contains((3, 2))

    def test_scale_validates(self):
        with pytest.raises(ValueError):
            RationalPolyhedron(2, [((1, 0), 0)]).scale(0)
