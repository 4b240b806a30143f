"""Monomial-ideal arithmetic over a fixed affine semigroup.

Ideals are S-stable up-sets held by their minimal generators.  The integral
and tight closures are never ideals: ``closures.ClosureRule`` tests points
against their rules and counts their lengths.  In dimension 2, the lattice
points of each coset of Z g1 + Z g2 form a grid whose columns run parallel
to g2.  Along a column membership in an up-set is monotone, so the up-set
restricted to it is a final segment described by its first index, and on
each coset those indices form a nonincreasing column array whose drops are
the up-set's minimal grid points.

Each ideal keeps that column array in the ring's own format
(``lattice._staircase``).  A generator w moves the Apéry corners of the
coset of S it starts from onto its own coset (``lattice._moved_corners``),
so an ideal held by generators builds a coset's array from their moved
corners on first use, and the power Q^k of a parameter ideal (u, v) from
those that i*u + (k - i)*v moves, i = 0..k, with no parameter sum formed
(``ParameterIdeal.power_colength``).  The one derived ideal that is built,
a non-CM ring's split slot (``closures._split_slot``), comes with its
arrays whole, and ``member`` reads them (``lattice._stair_at``).  A
colength is the sum over columns of the ideal's first row less the ring's
(``lattice._stair_colength``), with no complement materialized.  The fits
count the powers of a parameter ideal from the holes S' ∖ S instead
(``closures.ordinary_lengths``); the colength of the last power certifies
the last of them.

In free Z^3 an ideal is a nonincreasing height function on the (x, y)
plane: ``_column_heights`` reads the least z on each column from the
generators with a 2-D prefix minimum, and ``_axis_reach`` the least k with
k*e_i inside in closed form.  Complements are the points below each
column's height, and colengths the sum of the heights.
"""

from __future__ import annotations

import itertools

from .errors import DimensionMismatchError, NotMPrimaryError, RingMismatchError
from .lattice import (
    ExponentVector,
    _column_runs,
    _moved_corners,
    _stair_at,
    _stair_colength,
    _staircase,
    vadd,
    vdot,
    vscale,
    vsub,
)


def antichain_reduce(ring, vectors):
    """Minimal elements of the up-set generated by ``vectors`` (S-divisibility)."""
    vecs = sorted(set(tuple(v) for v in vectors), key=lambda v: (sum(v), v))
    kept = []
    for v in vecs:
        dominated = False
        for u in kept:
            d = vsub(v, u)
            if all(c >= 0 for c in d) and ring.member(d):
                dominated = True
                break
        if not dominated:
            kept.append(v)
    return tuple(ExponentVector(v) for v in sorted(kept))


# ---------------------------------------------------------------------------
# abstract up-sets

class _IdealUp:
    """Up-set generated by explicit monomial generators.  On a 2-D ring it
    has a column array per coset: a split slot's, kept whole as ``stair``,
    or one built on first use from the generators' moved Apéry corners."""

    def __init__(self, ring, gens, stair=None):
        self.ring = ring
        self.gens = [tuple(g) for g in gens]
        self._eng = ring._engine if ring.kind == "grid2" else None
        self.stair = stair
        self._built = {}

    def cols(self, key):
        """The column array of coset ``key``."""
        if self.stair is not None:
            return self.stair[key]
        if key not in self._built:
            eng = self._eng
            shifts = [(vdot(eng.lam1, g), vdot(eng.lam2, g)) for g in self.gens]
            self._built[key] = _staircase(_moved_corners(eng, key, shifts, eng.apery))
        return self._built[key]

    def member(self, v):
        eng = self._eng
        if eng is not None:
            if self.stair is not None:
                return _stair_at(eng, self.stair, vdot(eng.lam1, v), vdot(eng.lam2, v))
            x, y = v
            for ux, uy in self.gens:
                dx = x - ux
                dy = y - uy
                if dx >= 0 and dy >= 0 and eng.member((dx, dy)):
                    return True
            return False
        for u in self.gens:
            d = vsub(v, u)
            if all(c >= 0 for c in d) and self.ring.member(d):
                return True
        return False


# ---------------------------------------------------------------------------
# free Z^3 heights

def _column_heights(gens, nx, ny):
    """Least z with (x, y, z) above some generator, per column x < nx, y < ny.

    Generator (a, b, c) starts every column x >= a, y >= b at height c, so
    each generator goes on its own column, and a 2-D prefix minimum spreads
    it.  None where no generator reaches the column.
    """
    hts = [[None] * ny for _ in range(nx)]
    for a, b, c in gens:
        if a < nx and b < ny and (hts[a][b] is None or c < hts[a][b]):
            hts[a][b] = c
    for x in range(nx):
        col = hts[x]
        prev = hts[x - 1] if x else [None] * ny
        for y in range(ny):
            best = col[y]
            for h in (prev[y], col[y - 1] if y else None):
                if h is not None and (best is None or h < best):
                    best = h
            col[y] = best
    return hts


def _axis_reach(gens, i):
    """Least k >= 0 with k*e_i above some generator, or None: the least u_i
    over the generators u on axis i."""
    return min((u[i] for u in gens if all(c == 0 for j, c in enumerate(u) if j != i)),
               default=None)


class MonomialIdeal:
    """An S-stable up-set of exponents, held by minimal generators."""

    def __init__(self, ring, generators, _reduced=False, _stair=None):
        self.ring = ring
        gens = [ExponentVector(g) for g in generators]
        if not gens:
            raise ValueError("a monomial ideal needs at least one generator")
        for g in gens:
            if g.dim != ring.dim:
                raise DimensionMismatchError("generator %r has wrong length" % (tuple(g),))
            if any(g) and not ring.member(g):
                raise ValueError("generator %r is not in the semigroup" % (tuple(g),))
        if _reduced:
            self.min_generators = tuple(sorted(gens))
        else:
            self.min_generators = antichain_reduce(ring, gens)
        self._up = _IdealUp(ring, self.min_generators, _stair)
        self._cache = {}

    def __eq__(self, other):
        return (isinstance(other, MonomialIdeal) and self.ring == other.ring
                and self.min_generators == other.min_generators)

    def __hash__(self):
        return hash((self.ring, self.min_generators))

    def __repr__(self):
        return "MonomialIdeal(%r)" % (sorted(map(tuple, self.min_generators)),)

    def member(self, v):
        v = tuple(int(c) for c in v)
        if len(v) != self.ring.dim:
            raise DimensionMismatchError("vector %r has wrong length" % (v,))
        return self._up.member(v)

    def contains_ideal(self, other):
        self._check_ring(other)
        return all(self._up.member(g) for g in other.min_generators)

    def _check_ring(self, other):
        if self.ring != other.ring:
            raise RingMismatchError("ideals live over different semigroup rings")

    # -- finiteness certificate and complement

    def _ray_powers(self):
        """Per extreme direction, least k with k*g_axis in the ideal (None if none)."""
        if "ray_powers" not in self._cache:
            kind = self.ring.kind
            if kind == "grid2":
                # the ray through g1 (g2) is row (column) 0 of coset (0, 0):
                # row 0 starts at the column whose entry is 0
                cols = self._up.cols((0, 0))
                ks = [next((m for m, t in enumerate(cols) if t == 0), None), cols[0]]
            elif kind == "num1":
                # k*amin lies in I once it passes a generator by the conductor
                amin = self.ring._engine.amin
                ks = [next(k for k in itertools.count() if self._up.member((k * amin,)))]
            else:
                ks = [_axis_reach(self.min_generators, i) for i in range(3)]
            self._cache["ray_powers"] = tuple(ks)
        return self._cache["ray_powers"]

    @property
    def is_m_primary(self):
        return all(k is not None for k in self._ray_powers())

    def _check_m_primary(self):
        if not self.is_m_primary:
            raise NotMPrimaryError("ideal %r does not positively span the cone" % (self,))

    def complement(self):
        """The certified finite set of S-points outside the ideal."""
        if "complement" not in self._cache:
            self._check_m_primary()
            kind = self.ring.kind
            if kind == "grid2":
                eng = self.ring._engine
                pts = []
                for key, cols in eng.stair.items():
                    for m1, lo, hi in _column_runs(cols, self._up.cols(key)):
                        v0 = vadd(eng.box[key], vscale(m1, eng.g1))
                        pts.extend(vadd(v0, vscale(t, eng.g2)) for t in range(lo, hi))
            elif kind == "num1":
                eng = self.ring._engine
                top = min(sum(g) for g in self.min_generators) + eng.conductor
                pts = [(x,) for x in range(0, top + 1, eng.step)
                       if eng.member((x,)) and not self._up.member((x,))]
            else:
                # below each column's height; h(x, y) <= h(0, 0) = kz
                kx, ky, _ = self._ray_powers()
                hts = _column_heights(self.min_generators, kx, ky)
                pts = [(x, y, z) for x in range(kx) for y in range(ky)
                       for z in range(hts[x][y])]
            self._cache["complement"] = tuple(ExponentVector(p) for p in sorted(pts))
        return self._cache["complement"]

    def colength(self):
        """Exact length of R/I (number of standard monomials), counted by
        columns in dimension 2 and by lines in dimension 3."""
        if "colength" not in self._cache:
            self._check_m_primary()
            kind = self.ring.kind
            if kind == "grid2":
                n = _stair_colength(self.ring._engine, self._up.cols)
            elif kind == "num1":
                n = len(self.complement())
            else:
                kx, ky, _ = self._ray_powers()
                n = sum(map(sum, _column_heights(self.min_generators, kx, ky)))
            self._cache["colength"] = n
        return self._cache["colength"]


# ---------------------------------------------------------------------------
# arithmetic

def ideal_sum(a, b):
    a._check_ring(b)
    return MonomialIdeal(a.ring, list(a.min_generators) + list(b.min_generators))


def ideal_product(a, b):
    a._check_ring(b)
    gens = [vadd(u, v) for u in a.min_generators for v in b.min_generators]
    return MonomialIdeal(a.ring, gens)


def ideal_power(a, n):
    """I^n; a parameter ideal's power is read off its generators."""
    if n < 1:
        raise ValueError("power must be >= 1")
    if n == 1:
        return a
    if is_parameter_ideal(a):
        return MonomialIdeal(a.ring, parameter_sums(a.min_generators, n), _reduced=True)
    out = a
    for _ in range(n - 1):
        out = ideal_product(out, a)
    return out


def parameter_sums(params, n):
    """The sums of n parameters, the generators of Q^n; they are pairwise
    incomparable, as the parameters lie on distinct extreme rays."""
    return [tuple(map(sum, zip(*c))) for c in itertools.combinations_with_replacement(params, n)]


def maximal_ideal(ring):
    return MonomialIdeal(ring, ring.minimal_generators(), _reduced=True)


# ---------------------------------------------------------------------------
# parameter ideals

class ParameterIdeal:
    """An m-primary ideal generated by dim-many ordered monomials.

    The generator order is user-visible state: splits Q(alpha) exponentiate
    the i-th listed generator by alpha_i.
    """

    def __init__(self, ring, ordered_generators):
        gens = [ExponentVector(g) for g in ordered_generators]
        if len(gens) != ring.dim:
            raise NotMPrimaryError(
                "a parameter ideal needs exactly %d generators, got %d"
                % (ring.dim, len(gens)))
        if len(set(gens)) != len(gens):
            raise NotMPrimaryError("parameter ideal generators must be distinct")
        self.ring = ring
        self.ordered_generators = tuple(gens)
        self.base = MonomialIdeal(ring, gens)
        self._cache = {}
        if len(self.base.min_generators) != ring.dim or not self.base.is_m_primary:
            raise NotMPrimaryError(
                "generators %r do not positively span the cone"
                % ([tuple(g) for g in gens],))

    def __eq__(self, other):
        return (isinstance(other, ParameterIdeal) and self.ring == other.ring
                and self.ordered_generators == other.ordered_generators)

    def __hash__(self):
        return hash((self.ring, self.ordered_generators))

    def __repr__(self):
        return "ParameterIdeal(%r)" % (list(map(tuple, self.ordered_generators)),)

    def split(self, alpha):
        """The parameter ideal (u1^a1, ..., ud^ad) for a composition alpha."""
        if len(alpha) != len(self.ordered_generators):
            raise DimensionMismatchError("split %r has wrong length" % (alpha,))
        if any(a < 1 for a in alpha):
            raise ValueError("split exponents must be >= 1")
        return ParameterIdeal(
            self.ring,
            [g.scaled(a) for g, a in zip(self.ordered_generators, alpha)])

    def colength(self):
        """ell(R/Q), counted once."""
        if "colength" not in self._cache:
            self._cache["colength"] = self.power_colength(1)
        return self._cache["colength"]

    def power_colength(self, k):
        """ell(R/Q^k).  On a 2-D ring, Q^k is on each coset the staircase of
        the Apéry corners that i*u + (k - i)*v, i = 0..k, move onto it
        (``_power_shifts``), counted by columns with no power built."""
        if self.ring.kind != "grid2":
            return ideal_power(self.base, k).colength()
        eng, shifts = self.ring._engine, _power_shifts(self, k)
        return _stair_colength(
            eng, lambda key: _staircase(_moved_corners(eng, key, shifts, eng.apery)))

    def multiplicity(self):
        """e(Q) = |det(u1, ..., ud)| / [Z^d : ZS], the index being the product
        of the diagonal of the triangular basis ``ring.group_lattice()``."""
        index = 1
        for i, row in enumerate(self.ring.group_lattice()):
            index *= row[i]
        return abs(_det([tuple(g) for g in self.ordered_generators]) // index)


def _steps(q):
    """(a, b) for a 2-D parameter ideal (u, v), u and v on g1's and g2's
    rays: u = (a, 0) and v = (0, b) in lam values."""
    eng = q.ring._engine
    return tuple(max(vdot(lam, u) for u in q.ordered_generators) for lam in (eng.lam1, eng.lam2))


def _power_shifts(q, k):
    """The lam values of i*u + (k - i)*v, i = 0..k: the shifts of Q^k."""
    a, b = _steps(q)
    return [(i * a, (k - i) * b) for i in range(k + 1)]


def _det(rows):
    """Determinant of a small square integer matrix, by cofactors."""
    if len(rows) == 1:
        return rows[0][0]
    return sum((-1) ** j * rows[0][j] * _det([r[:j] + r[j + 1:] for r in rows[1:]])
               for j in range(len(rows)))


def is_parameter_ideal(ideal):
    if isinstance(ideal, ParameterIdeal):
        return True
    return (len(ideal.min_generators) == ideal.ring.dim) and ideal.is_m_primary


def nu_m_mod_q(q):
    """The dimension of m/(Q + m^2): the minimal generators of m outside Q.
    An irreducible element never lies in m^2, so those outside Q are a basis."""
    base = q.base if isinstance(q, ParameterIdeal) else q
    return sum(1 for g in q.ring.minimal_generators() if not base.member(g))
