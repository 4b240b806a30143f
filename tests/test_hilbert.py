from math import comb, inf

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hilbclose.closures as closures_mod
import hilbclose.ideals as ideals_mod
from conftest import (
    REMARK_GENS,
    MonomialIdeal,
    brute_complement,
    colength,
    complement,
    compositions,
    finite_gaps,
    lim_intersection,
    parameter_power,
    parameter_sums,
    rule_member,
)
from hilbclose.cli import example_instance
from hilbclose.errors import NotMPrimaryError, NotStabilizedError, UncertifiedError
from hilbclose.hilbert import (
    DEFAULT_WINDOW,
    ClaimRow,
    CoefficientBundle,
    Filtration,
    FiltrationKind,
    HilbertReport,
    coefficient_report,
    fit_filtration,
    fit_polynomial,
    length_sequence,
)
from hilbclose.ideals import ParameterIdeal
from hilbclose.lattice import AffineSemigroup, vadd, vdot, vscale
from hilbclose.theorems import fuzz_corpus
from test_closures import ray_parameters
from test_ideals import sweep_rings


def product_powers(ring, gens, n):
    """I^1..I^n for the ideal generated by ``gens``: I^k is generated by
    the sums of k generators."""
    return [MonomialIdeal(ring, parameter_sums(gens, k)) for k in range(1, n + 1)]


@pytest.fixture(scope="module")
def corpus_parameters():
    """The parameter ideals of both fuzz corpora, CM and non-CM rings."""
    return [inst.parameter for inst in fuzz_corpus(42, 100) + fuzz_corpus(7, 40, max_coord=10)]


def other_cm_parameters():
    """Three ideals of free Z^3 and one of each of three numerical semigroups."""
    free3 = AffineSemigroup(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    out = [ParameterIdeal(free3, gens) for gens in (
        ((1, 0, 0), (0, 1, 0), (0, 0, 1)),
        ((2, 0, 0), (0, 3, 0), (0, 0, 2)),
        ((3, 0, 0), (0, 2, 0), (0, 0, 4)))]
    for sgens, u in (([(3,), (5,), (7,)], 6), ([(4,), (6,), (9,)], 4), ([(4,), (6,)], 8)):
        out.append(ParameterIdeal(AffineSemigroup(1, sgens), [(u,)]))
    return out


def cm_parameters(corpus_parameters):
    """The CM corpus instances and ``other_cm_parameters()``."""
    return [q for q in corpus_parameters if q.ring.is_cm] + other_cm_parameters()


class TestLengthSequence:
    def test_integral_remark(self, remark_ring):
        q = ParameterIdeal(remark_ring, [(1, 0), (0, 2)])
        filt = Filtration(FiltrationKind.INTEGRAL, q)
        got = length_sequence(filt, 5)
        assert got == [2 * ((n + 2) * (n + 1) // 2) - 1 for n in range(6)]
        assert got == [1, 5, 11, 19, 29, 41]

    def test_ordinary_free_maximal(self, free2):
        q = ParameterIdeal(free2, [(1, 0), (0, 1)])
        filt = Filtration(FiltrationKind.ORDINARY, q)
        assert length_sequence(filt, 5) == [1, 3, 6, 10, 15, 21]

    def test_ordinary_remark(self, remark_ring):
        q = ParameterIdeal(remark_ring, [(1, 0), (0, 2)])
        filt = Filtration(FiltrationKind.ORDINARY, q)
        got = length_sequence(filt, 5)
        assert got == [3, 8, 15, 24, 35, 48]
        assert got == [(n + 1) * (n + 3) for n in range(6)]

    def test_lengths_against_bruteforce(self, remark_ring):
        q = ParameterIdeal(remark_ring, [(1, 0), (0, 2)])
        got = length_sequence(Filtration(FiltrationKind.ORDINARY, q), 5)
        for n in range(4):
            gens = parameter_sums(q.ordered_generators, n + 1)
            assert got[n] == len(brute_complement(REMARK_GENS, gens, 18)), n

    def test_requires_m_primary(self, free2):
        bad = MonomialIdeal(free2, [(0, 2)])
        with pytest.raises(NotMPrimaryError):
            Filtration(FiltrationKind.ORDINARY, bad)

    def test_split_lengths_must_nest(self, remark_ring, monkeypatch):
        # split slots nest as {A + B >= k} do, so falling lengths are an
        # internal error for this kind too
        import hilbclose.hilbert as hilbert_mod

        q = ParameterIdeal(remark_ring, [(1, 0), (0, 2)])
        monkeypatch.setattr(hilbert_mod, "split_lengths",
                            lambda q, n_max: list(range(n_max + 1, 0, -1)))
        with pytest.raises(UncertifiedError):
            length_sequence(Filtration(FiltrationKind.LIM_INTERSECT, q), 5)

    def test_n_max_too_small(self, free2):
        q = ParameterIdeal(free2, [(1, 0), (0, 1)])
        with pytest.raises(ValueError):
            length_sequence(Filtration(FiltrationKind.ORDINARY, q), 3)

    def test_lim_filtration_remark(self, remark_ring):
        q = ParameterIdeal(remark_ring, [(1, 0), (0, 2)])
        filt = Filtration(FiltrationKind.LIM_INTERSECT, q)
        # frozen: on this ring the split intersections agree with the integral closures
        assert length_sequence(filt, 5) == [1, 5, 11, 19, 29, 41]

    def test_tight_filtration_free(self, free2):
        q = ParameterIdeal(free2, [(1, 0), (0, 1)])
        filt = Filtration(FiltrationKind.TIGHT, q)
        assert length_sequence(filt, 5) == [1, 3, 6, 10, 15, 21]

    def test_tight_equals_integral_dim1(self):
        # S = <3,5,7>, Q = (t^6): (Q^n)* and the integral closure of Q^n are
        # both {s in S : s >= 6n}, and S misses only 1, 2 and 4 below it
        ring = AffineSemigroup(1, [(3,), (5,), (7,)])
        q = ParameterIdeal(ring, [(6,)])
        tight = length_sequence(Filtration(FiltrationKind.TIGHT, q), 5)
        assert tight == length_sequence(Filtration(FiltrationKind.INTEGRAL, q), 5)
        assert tight == [3, 9, 15, 21, 27, 33]

    def test_integral_builds_no_members(self, free2):
        # no kind builds members; the integral and tight closures are rules,
        # which the chain check tests points against
        q = ParameterIdeal(free2, [(2, 0), (0, 3)])
        for kind in FiltrationKind:
            assert not hasattr(Filtration(kind, q), "member"), kind
        assert rule_member(Filtration(FiltrationKind.INTEGRAL, q).rule, 2, (2, 3))

    @pytest.mark.parametrize("kind", list(FiltrationKind))
    def test_needs_parameter_ideal(self, kind, free2):
        with pytest.raises(NotMPrimaryError):
            Filtration(kind, MonomialIdeal(free2, [(1, 0), (0, 1)]))


class TestCMClosedForm:
    """Ordinary and split lengths of CM rings in closed form, certified by
    the determinant multiplicity, against the colengths of the powers."""

    def test_lengths_match_product_path(self, corpus_parameters):
        # the powers counted by columns on 2-D rings, per Apéry class in
        # dimension 1 and as boxes in free Z^3 (``power_colength``)
        cases = cm_parameters(corpus_parameters)
        assert len(cases) == 128
        for q in cases:
            want = [q.power_colength(k) for k in range(1, 12)]
            if q.ring.kind == "grid2":
                assert want == [colength(parameter_power(q, k)) for k in range(1, 12)], q
            for kind in (FiltrationKind.ORDINARY, FiltrationKind.LIM_INTERSECT):
                assert length_sequence(Filtration(kind, q), 10) == want, (q, kind)

    def test_multiplicity_certifies_cm(self, corpus_parameters):
        # Serre: colength(Q) >= e(Q), with equality iff the ring is CM; on
        # non-CM rings e(Q) is still the ordinary fit's e0
        for q in cm_parameters(corpus_parameters):
            assert q.colength() == q.multiplicity(), q
        non_cm = [q for q in corpus_parameters if not q.ring.is_cm]
        assert len(non_cm) == 18
        for q in non_cm:
            assert q.colength() > q.multiplicity(), q
            assert fit_filtration(Filtration(FiltrationKind.ORDINARY, q)).e0 == \
                q.multiplicity(), q

    def test_multiplicity_values(self, remark_ring, free3):
        assert ParameterIdeal(remark_ring, [(1, 0), (0, 2)]).multiplicity() == 2
        assert ParameterIdeal(free3, [(0, 0, 2), (2, 0, 0), (0, 3, 0)]).multiplicity() == 12
        # <4, 6> spans 2Z: index 2
        ring = AffineSemigroup(1, [(4,), (6,)])
        assert ParameterIdeal(ring, [(8,)]).multiplicity() == 4

    @pytest.mark.parametrize("kind", [FiltrationKind.ORDINARY, FiltrationKind.LIM_INTERSECT])
    def test_uncertified_cm_flag_raises(self, kind, remark_ring, monkeypatch):
        # the remark ring is not CM: colength(Q) = 3 > e(Q) = 2
        monkeypatch.setattr(remark_ring._engine, "is_cm", True)
        q = ParameterIdeal(remark_ring, [(1, 0), (0, 2)])
        with pytest.raises(UncertifiedError):
            length_sequence(Filtration(kind, q), 5)

    def test_parameter_powers_match_products(self, corpus_parameters):
        # the sums of n parameters are the n-fold products of Q's
        # generators, and pairwise incomparable
        for q in corpus_parameters + other_cm_parameters():
            params, member = q.ordered_generators, q.ring.member
            prev = parameter_sums(params, 1)
            for n in range(2, 12):
                got = parameter_sums(params, n)
                assert sorted(got) == sorted({tuple(map(sum, zip(a, u)))
                                              for a in prev for u in params}), (q, n)
                assert not any(member(tuple(x - y for x, y in zip(a, b)))
                               for a in got for b in got if a != b), (q, n)
                prev = got


def non_cm_parameters(corpus_parameters):
    """The non-CM corpus instances and the built-in remark-s2."""
    return [q for q in corpus_parameters if not q.ring.is_cm] + [example_instance("remark-s2")[1]]


def member_colengths(q, kind, n_max):
    """The colengths of the ideals Q^(n+1) or split slots n+1, n = 0..n_max."""
    if kind is FiltrationKind.ORDINARY:
        members = [parameter_power(q, n + 1) for n in range(n_max + 1)]
    else:
        members = [lim_intersection(q, n + q.ring.dim) for n in range(n_max + 1)]
    return [colength(m) for m in members]


def lam_point(eng, l1, l2):
    """The lattice point with lam values (l1, l2)."""
    (a, b), (c, d) = eng.lam1, eng.lam2
    det = a * d - b * c
    return ((l1 * d - l2 * b) // det, (a * l2 - c * l1) // det)


def ray_split(q):
    """The parameters (u, v) of Q on g1's and g2's rays."""
    lam2 = q.ring._engine.lam2
    u, v = sorted(q.ordered_generators, key=lambda g: vdot(lam2, g))
    return u, v


def hole_table_points(q, n):
    """The points of E_n = (Q^n S' ∩ S) ∖ Q^n in lam values, as the
    ordinary count reads them off ``_hole_table``: one per hole h and i + j
    = n with i < T(h), j < M(h) and h + i*u + j*v no hole."""
    eng = q.ring._engine
    u, v = ray_split(q)
    a, b = vdot(eng.lam1, u), vdot(eng.lam2, v)
    return [(h1 + i * a, h2 + (n - i) * b) for (h1, h2), m, t, hits in closures_mod._hole_table(q)
            for i in range(n + 1) if i < t and n - i < m and (i, n - i) not in hits]


class TestNonCMCounts:
    """Ordinary and split lengths from the holes S' ∖ S, against the
    colengths of the powers and slots they replace."""

    KINDS = (FiltrationKind.ORDINARY, FiltrationKind.LIM_INTERSECT)

    def test_counts_match_member_colengths(self, corpus_parameters):
        cases = non_cm_parameters(corpus_parameters)
        assert len(cases) == 19
        for q, n_max in [(q, 10) for q in cases[:-1]] + [(cases[-1], 40)]:
            for kind in self.KINDS:
                want = member_colengths(q, kind, n_max)
                assert length_sequence(Filtration(kind, q), n_max) == want, (q, kind)

    @settings(max_examples=60, deadline=None)
    @given(sweep_rings, st.integers(1, 3), st.integers(1, 3), st.integers(0, 5), st.booleans(),
           st.sampled_from(compositions(2, 2) + compositions(3, 2) + compositions(4, 2)))
    def test_counts_match_on_sweep(self, sgens, k1, k2, pick, swap, alpha):
        # both generator orders; parameters that are not multiples of g1 and
        # g2 change coset with each step of u - v, so M(h) > 1 occurs
        q = ray_parameters(AffineSemigroup(2, sgens), k1, k2, pick, swap).split(alpha)
        for kind in self.KINDS:
            assert length_sequence(Filtration(kind, q), 12) == \
                member_colengths(q, kind, 12), kind

    def test_hole_orders_match_scan(self, corpus_parameters):
        # the staircase walk against every pair (i, j), tested directly
        for q in non_cm_parameters(corpus_parameters) + [
                q.split(alpha) for q in non_cm_parameters(corpus_parameters)[:6]
                for alpha in ((2, 1), (1, 3))]:
            a, b, in_s2 = closures_mod._hole_frame(q)
            want = sorted(max(i + j for i in range(h1 // a + 1) for j in range(h2 // b + 1)
                              if in_s2(h1 - i * a, h2 - j * b))
                          for h1, h2 in q.ring._engine.s2_holes)
            assert closures_mod._hole_orders(q) == want, q

    def test_excess_points_by_enumeration(self, corpus_parameters):
        # E_n against every hole moved by i*u + (n-i)*v, tested directly
        for q in non_cm_parameters(corpus_parameters):
            eng = q.ring._engine
            u, v = ray_split(q)
            holes = [lam_point(eng, *h) for h in eng.s2_holes]
            for n in range(1, 13):
                power = parameter_power(q, n)
                want = {(vdot(eng.lam1, p), vdot(eng.lam2, p))
                        for h in holes for i in range(n + 1)
                        for p in [vadd(h, vadd(vscale(i, u), vscale(n - i, v)))]
                        if q.ring.member(p) and not power.member(p)}
                got = hole_table_points(q, n)
                assert len(got) == len(set(got)), (q, n)
                assert set(got) == want, (q, n)

    def test_goto_ozeki_bound(self, corpus_parameters):
        # -ell(H^1_m) <= e1(Q) <= 0, with H^1_m spanned by the holes; the
        # holes whose boxes are unbounded both ways give e1(Q) exactly
        for q in non_cm_parameters(corpus_parameters):
            table = closures_mod._hole_table(q)
            rep = fit_filtration(Filtration(FiltrationKind.ORDINARY, q), 40)
            e0, e1, _ = rep.coefficients
            assert e0 == q.multiplicity(), q
            assert -len(table) <= e1 <= 0, q
            assert e1 == -sum(1 for _, m, t, _ in table if m == t == inf), q

    def test_holes_are_the_finite_gaps(self, corpus_parameters):
        # S' ∖ S is a basis of H^1_m: e1_lim = 0 and e2_lim = -#gaps
        for q in non_cm_parameters(corpus_parameters):
            # the oracle scans a box twice as wide as the holes and generators
            eng = q.ring._engine
            points = [lam_point(eng, *h) for h in eng.s2_holes]
            box = 2 * max(map(max, points + list(q.ring.generators)))
            gaps = finite_gaps(q.ring, box)
            assert sorted(eng.s2_holes) == sorted(
                (vdot(eng.lam1, g), vdot(eng.lam2, g)) for g in gaps), q
            rep = fit_filtration(Filtration(FiltrationKind.LIM_INTERSECT, q))
            assert rep.coefficients == (q.multiplicity(), 0, -len(gaps)), q

    @pytest.mark.parametrize("shift", [(1, 0), (0, 1)])
    def test_wrong_corner_raises(self, remark_ring, monkeypatch, shift):
        # coset (0, 1) has the corner (0, 0), which is the one hole (0, 1)
        eng = remark_ring._engine
        corners = dict(eng.s2_corners)
        assert corners[0, 1] == [(0, 0)]
        corners[0, 1] = [shift]
        monkeypatch.setattr(eng, "s2_corners", corners)
        q = ParameterIdeal(remark_ring, [(1, 0), (0, 2)])
        with pytest.raises(UncertifiedError):
            length_sequence(Filtration(FiltrationKind.LIM_INTERSECT, q), 5)

    def test_dropped_moved_corner_raises(self, remark_ring, monkeypatch):
        # without the corner that u^k moves in, slot k misses Q^k's point
        # k*u, so the line-by-line count no longer certifies the hole count
        full = closures_mod._moved_corners
        monkeypatch.setattr(closures_mod, "_moved_corners", lambda *args: full(*args)[:-1])
        q = ParameterIdeal(remark_ring, [(1, 0), (0, 2)])
        with pytest.raises(UncertifiedError):
            closures_mod.split_lengths(q, 5)

    @pytest.mark.parametrize("mutant", [
        lambda h, m, t, hits: (h, m + 1, t, hits),
        lambda h, m, t, hits: (h, m, t + 1, hits),
        lambda h, m, t, hits: (h, m, t, [])], ids=["M+1", "T+1", "no-hits"])
    def test_wrong_hole_table_raises(self, monkeypatch, mutant):
        # fz42-058: 98 holes, on which each mutant changes a length
        ring = AffineSemigroup(2, [(0, 6), (1, 6), (5, 2), (6, 1)])
        q = ParameterIdeal(ring, [(6, 1), (0, 6)])
        full = closures_mod._hole_table
        monkeypatch.setattr(closures_mod, "_hole_table",
                            lambda q: [mutant(*row) for row in full(q)])
        with pytest.raises(UncertifiedError):
            length_sequence(Filtration(FiltrationKind.ORDINARY, q), 8)


class TestPowerColength:
    """ell(R/Q^k) counted by columns from the moved Apéry corners, with no
    power built, against a box enumeration."""

    @settings(max_examples=60, deadline=None)
    @given(sweep_rings, st.integers(1, 12), st.integers(1, 3), st.integers(1, 3),
           st.integers(0, 5), st.booleans())
    def test_matches_brute_complement(self, sgens, k, k1, k2, pick, swap):
        # both generator orders; parameters not always multiples of g1 or g2
        q = ray_parameters(AffineSemigroup(2, sgens), k1, k2, pick, swap)
        assert q.power_colength(k) == len(complement(parameter_power(q, k))), k

    def test_dropped_apery_corner_raises(self, monkeypatch):
        # remark-s2 at n_max 40: with one source Apéry corner missing per
        # coset, Q^41 is too large and the last ordinary length uncertified
        ring, q = example_instance("remark-s2")
        q.colength()  # the first certificate, counted before the mutation
        full = ideals_mod._moved_corners
        monkeypatch.setattr(ideals_mod, "_moved_corners", lambda *args: full(*args)[:-1])
        with pytest.raises(UncertifiedError):
            closures_mod.ordinary_lengths(q, 40)


class TestFitPolynomial:
    def test_remark_integral(self):
        coeffs, n0 = fit_polynomial([1, 5, 11, 19, 29, 41], 2)
        assert coeffs == (2, 0, -1)
        assert n0 == 0

    def test_free_maximal(self):
        assert fit_polynomial([1, 3, 6, 10, 15, 21], 2) == ((1, 0, 0), 0)

    def test_x2y3_integral(self):
        assert fit_polynomial([5, 16, 33, 56, 85, 120], 2) == ((6, 1, 0), 0)

    def test_not_stabilized(self):
        with pytest.raises(NotStabilizedError):
            fit_polynomial([1, 2, 4, 8, 16, 32, 64], 2)

    def test_late_stabilization(self):
        # polynomial only from n = 1 on
        vals = [7] + [2 * ((n + 2) * (n + 1) // 2) for n in range(1, 7)]
        coeffs, n0 = fit_polynomial(vals, 2)
        assert coeffs == (2, 0, 0)
        assert n0 == 1

    def test_dim1(self):
        coeffs, n0 = fit_polynomial([2, 4, 6, 8, 10], 1)
        assert coeffs == (2, 0)
        assert n0 == 0

    def test_too_short(self):
        with pytest.raises(ValueError):
            fit_polynomial([1, 2, 3], 2)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 3).flatmap(lambda d: st.lists(
        st.integers(-50, 50), min_size=d + 1, max_size=d + 1)),
        st.lists(st.integers(-2, 2), max_size=6), st.integers(0, 3))
    def test_n0_is_minimal(self, coeffs, noise, extra):
        # the polynomial plus noise on a prefix: n0 is the least index from
        # which the lengths match the polynomial, as a scan from the end finds
        d = len(coeffs) - 1

        def value(n):
            return sum((-1) ** i * coeffs[i] * comb(n + d - i, d - i) for i in range(d + 1))

        count = len(noise) + d + 1 + DEFAULT_WINDOW + extra
        lengths = [value(n) + (noise[n] if n < len(noise) else 0) for n in range(count)]
        got, n0 = fit_polynomial(lengths, d)
        assert got == tuple(coeffs)
        scan = count
        while scan and value(scan - 1) == lengths[scan - 1]:
            scan -= 1
        assert n0 == scan

    def test_refit_stability(self, remark_ring):
        q = ParameterIdeal(remark_ring, [(1, 0), (0, 2)])
        filt = Filtration(FiltrationKind.INTEGRAL, q)
        first = fit_polynomial(length_sequence(filt, 8), 2)
        second = fit_polynomial(length_sequence(filt, 10), 2)
        assert first[0] == second[0]

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 3).flatmap(lambda d: st.lists(
        st.integers(-500, 500), min_size=d + 1, max_size=d + 1)), st.integers(0, 6))
    def test_round_trip(self, coeffs, extra):
        d = len(coeffs) - 1
        lengths = [sum((-1) ** i * e * comb(n + d - i, d - i) for i, e in enumerate(coeffs))
                   for n in range(d + 4 + extra)]
        assert fit_polynomial(lengths, d) == (tuple(coeffs), 0)

    def test_replay_exactness(self, remark_ring, cm_ring):
        # the fitted polynomial reproduces every length from n0 on
        for ring, qgens in ((remark_ring, [(1, 0), (0, 2)]), (cm_ring, [(2, 0), (0, 1)])):
            q = ParameterIdeal(ring, qgens)
            for kind in (FiltrationKind.ORDINARY, FiltrationKind.INTEGRAL):
                lengths = length_sequence(Filtration(kind, q), 9)
                (e0, e1, e2), n0 = fit_polynomial(lengths, 2)
                for n in range(n0, len(lengths)):
                    value = e0 * comb(n + 2, 2) - e1 * comb(n + 1, 1) + e2
                    assert value == lengths[n], (kind, n)


class TestMultiplicityVolume:
    """``analyze`` reports e(Q) = ``multiplicity()`` as the volume of the
    Newton polyhedron's complement on free rings of dimension 1 and 2."""

    def test_x2y3(self, free2):
        assert ParameterIdeal(free2, [(2, 0), (0, 3)]).multiplicity() == 6

    def test_maximal(self, free2):
        assert ParameterIdeal(free2, [(1, 0), (0, 1)]).multiplicity() == 1

    def test_collinear_generators(self, free2):
        # (x^2, y^2) has the integral closure (x^2, xy, y^2), and e0 = 4
        q = ParameterIdeal(free2, [(2, 0), (0, 2)])
        assert q.multiplicity() == 4
        rep = fit_filtration(Filtration(FiltrationKind.ORDINARY, q))
        assert rep.e0 == 4
        closed = product_powers(free2, [(2, 0), (1, 1), (0, 2)], 11)
        assert fit_polynomial([colength(p) for p in closed], 2)[0][0] == 4

    def test_staircase(self, free2):
        # vertices (0,3),(1,1),(3,0): trapezoids 2 + 1, so e0 = 2 * 3 = 6;
        # cross-checked against the ordinary-powers fit (6, 1, 0)
        powers = product_powers(free2, [(0, 3), (1, 1), (3, 0)], 11)
        coeffs, _ = fit_polynomial([colength(p) for p in powers], 2)
        assert coeffs == (6, 1, 0)

    def test_dim1(self):
        ring = AffineSemigroup(1, [(1,)])
        assert ParameterIdeal(ring, [(4,)]).multiplicity() == 4

    def test_matches_every_fit(self, free2):
        q = ParameterIdeal(free2, [(2, 0), (0, 3)])
        for kind in (FiltrationKind.ORDINARY, FiltrationKind.INTEGRAL,
                     FiltrationKind.LIM_INTERSECT):
            rep = fit_filtration(Filtration(kind, q))
            assert rep.e0 == q.multiplicity(), kind


class TestCoefficientReport:
    def test_remark_bundle(self, remark_ring):
        q = ParameterIdeal(remark_ring, [(1, 0), (0, 2)])
        bundle = coefficient_report(remark_ring, q, n_max=8)
        assert bundle.e1_ordinary == -1
        assert bundle.e1_integral == 0
        assert bundle.e1_lim == 0
        assert bundle.bcm_bracket == (0, 0)
        assert bundle.e0 == 2
        assert bundle.e0_agreement
        assert all(row.ok for row in bundle.claim_rows)

    def test_claim_row_reads_fitted_lengths(self, remark_ring):
        q = ParameterIdeal(remark_ring, [(1, 0), (0, 2)])
        bundle = coefficient_report(remark_ring, q, n_max=8)
        lengths = bundle.report(FiltrationKind.LIM_INTERSECT).lengths
        for n, row in enumerate(bundle.claim_rows):
            assert row.length == lengths[n] == colength(lim_intersection(q, n + 2))
        for n in (-1, len(lengths)):
            with pytest.raises(ValueError):
                bundle.claim_row(n)

    def test_report_records(self, remark_ring):
        q = ParameterIdeal(remark_ring, [(1, 0), (0, 2)])
        rep = CoefficientBundle(remark_ring, q, n_max=8).report(FiltrationKind.INTEGRAL)
        with pytest.raises(AttributeError):
            rep.status = "NOT_STABILIZED"
        assert rep == HilbertReport(FiltrationKind.INTEGRAL, 8, rep.lengths, (2, 0, -1),
                                    rep.stabilization_index, "ok")
        assert (rep.e0, rep.e1) == (2, 0)
        stuck = HilbertReport(FiltrationKind.INTEGRAL, 8, rep.lengths, None, None,
                              "NOT_STABILIZED")
        assert stuck != rep and stuck.e0 is stuck.e1 is None
        row = ClaimRow(n=2, length=11, bound=12)
        with pytest.raises(AttributeError):
            row.bound = 0
        assert row == ClaimRow(2, 11, 12) and row.ok and not ClaimRow(n=2, length=13, bound=12).ok

    def test_claim_row_without_e0(self):
        # fz5-033 of fuzz_corpus(5, 60, max_coord=12): the ordinary fit does
        # not stabilize by n_max 8, so there is no e0(Q) to bound by
        ring = AffineSemigroup(2, [(5, 9), (6, 1), (9, 8), (10, 0)])
        bundle = CoefficientBundle(ring, ParameterIdeal(ring, [(10, 0), (10, 18)]), n_max=8)
        assert bundle.e0 is None and bundle.claim_rows == ()
        with pytest.raises(NotStabilizedError, match="no e0"):
            bundle.claim_row(0)

    def test_free_x2y3(self, free2):
        q = ParameterIdeal(free2, [(2, 0), (0, 3)])
        bundle = coefficient_report(free2, q, n_max=8)
        assert bundle.e1_ordinary == 0
        assert bundle.e1_lim == 0
        assert bundle.e1_integral == 1
        assert bundle.e0 == 6

    def test_free_maximal_all_zero(self, free2):
        q = ParameterIdeal(free2, [(1, 0), (0, 1)])
        bundle = coefficient_report(free2, q, n_max=8)
        assert bundle.e1_ordinary == bundle.e1_integral == bundle.e1_lim == 0

    def test_char_p_brackets(self, remark_ring):
        q = ParameterIdeal(remark_ring, [(1, 0), (0, 2)])
        bundle = coefficient_report(remark_ring, q, n_max=8, characteristic=2)
        assert bundle.tight_bracket == (0, 0)
        assert bundle.characteristic == 2
        rep = bundle.report(FiltrationKind.TIGHT)
        assert rep.status == "ok"
        assert rep.lengths[:3] == (1, 5, 11)

    def test_char_must_be_prime(self, remark_ring):
        q = ParameterIdeal(remark_ring, [(1, 0), (0, 2)])
        with pytest.raises(ValueError):
            coefficient_report(remark_ring, q, n_max=8, characteristic=4)

    def test_cm_ring(self, cm_ring):
        q = ParameterIdeal(cm_ring, [(2, 0), (0, 1)])
        bundle = coefficient_report(cm_ring, q, n_max=8)
        assert bundle.e0 == 2
        assert bundle.e1_ordinary == 0
        assert bundle.e1_integral == 1
        assert bundle.report(FiltrationKind.INTEGRAL).lengths[:4] == (1, 4, 9, 16)

    def test_unstabilized_fit_yields_partial_report(self, remark_ring, monkeypatch):
        # a fit that does not stabilize, even after the retry, surfaces as a
        # NOT_STABILIZED report (partial bundle, exit 2 at the CLI), never as
        # a wrong answer
        import hilbclose.hilbert as hilbert_mod

        def unstable(lengths, d):
            raise NotStabilizedError("no constant window (forced)")

        monkeypatch.setattr(hilbert_mod, "fit_polynomial", unstable)
        q = ParameterIdeal(remark_ring, [(1, 0), (0, 2)])
        filt = Filtration(FiltrationKind.LIM_INTERSECT, q)
        rep = fit_filtration(filt, 6)
        assert rep.status == "NOT_STABILIZED"
        assert rep.coefficients is None
        assert rep.e1 is None
