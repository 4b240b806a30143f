"""Exact lattice substrate: exponent vectors and affine semigroups.

Everything here runs on arbitrary-precision integers; no floating point
participates in any decision.

The workhorse for two-dimensional semigroups is a per-coset grid: writing the
group lattice L as a disjoint union of cosets of Z·g1 + Z·g2 (g1, g2 generators
on the two extreme rays), every lattice point in the cone is box_point + m1*g1
+ m2*g2 with m >= 0.  S is the union of the translates a + N·g1 + N·g2 of its
finitely many Apéry elements a, those with a - g1 and a - g2 outside S
(Rosales and García-Sánchez, Proc. Edinburgh Math. Soc. 41, 1998), so on each
coset S is an up-set of the grid with the Apéry elements as its corners.
The engine computes them once per ring and keeps each coset's staircase
(``_staircase``, which also builds the split slots' staircases from their
corners): ``rows`` and ``cols``, the first index in S on the lines parallel
to g1 and to g2 up to the last corner.  Membership and line-first queries
are array reads for points of any size, which the ideal engine relies on,
and S is Cohen-Macaulay exactly when every coset has one corner.
"""

from __future__ import annotations

import heapq
from functools import cached_property
from math import gcd

from .errors import DimensionMismatchError, UncertifiedError, UnsupportedRingError


# ---------------------------------------------------------------------------
# small integer-vector helpers (plain tuples)

def vadd(u, v):
    return tuple(a + b for a, b in zip(u, v))


def vsub(u, v):
    return tuple(a - b for a, b in zip(u, v))


def vscale(k, u):
    return tuple(k * a for a in u)


def vdot(u, v):
    return sum(a * b for a, b in zip(u, v))


class ExponentVector(tuple):
    """A monomial exponent: fixed-length tuple of nonnegative integers."""

    def __new__(cls, coords):
        coords = tuple(int(c) for c in coords)
        if any(c < 0 for c in coords):
            raise ValueError("exponent coordinates must be nonnegative: %r" % (coords,))
        return super().__new__(cls, coords)

    @property
    def dim(self):
        return len(self)

    def __add__(self, other):
        if len(self) != len(other):
            raise DimensionMismatchError("cannot add vectors of lengths %d and %d"
                                         % (len(self), len(other)))
        return ExponentVector(a + b for a, b in zip(self, other))

    def scaled(self, k):
        if k < 0:
            raise ValueError("scale factor must be nonnegative")
        return ExponentVector(k * a for a in self)


# ---------------------------------------------------------------------------
# integer lattices

def lattice_basis(vectors, dim):
    """Row basis (sorted by pivot column) of the lattice spanned by ``vectors``."""
    rows = [list(v) for v in vectors if any(v)]
    basis = []
    for col in range(dim):
        active = [r for r in rows if r[col] != 0]
        rest = [r for r in rows if r[col] == 0]
        while len(active) > 1:
            active.sort(key=lambda r: abs(r[col]))
            a, b = active[0], active[1]
            q = b[col] // a[col]
            for i in range(dim):
                b[i] -= q * a[i]
            if b[col] == 0:
                active.remove(b)
                if any(b):
                    rest.append(b)
        if active:
            piv = active[0]
            if piv[col] < 0:
                piv = [-c for c in piv]
            basis.append(tuple(piv))
        rows = rest
    return basis


def _primitive(v):
    g = 0
    for c in v:
        g = gcd(g, abs(c))
    if g == 0:
        return tuple(v)
    return tuple(c // g for c in v)


def _staircase(points):
    """The staircase (rows, cols) of the up-set that grid points (m1, m2)
    generate on one coset: ``cols`` holds the first m2 on the columns up to
    the last corner, ``rows`` the first m1 on the rows up to the first, and
    None where the up-set has not started.  The corners, the points below
    every point left of them, form an antichain, so along either array the
    last corner passed is the least."""
    corners = []
    for a, b in sorted(points):
        if not corners or b < corners[-1][1]:
            corners.append((a, b))
    rows, cols = [None] * (corners[0][1] + 1), [None] * (corners[-1][0] + 1)
    for a, b in corners:
        rows[b], cols[a] = a, b
    for line in (rows, cols):
        for m in range(1, len(line)):
            if line[m] is None:
                line[m] = line[m - 1]
    return rows, cols


def _stair_corners(lines):
    """The corners (m1, m2) of one coset's staircase: the columns whose
    first index drops."""
    cols = lines[1]
    return [(m, t) for m, t in enumerate(cols) if t is not None and (m == 0 or t != cols[m - 1])]


def _stair_at(eng, stair, l1, l2):
    """Membership of the lattice point with lam values (l1, l2) in the
    up-set with staircase ``stair`` (key -> (rows, cols)) over the grid of
    ``eng``.

    Columns mu < len(cols) read ``cols``, rows nu < len(rows) right of them
    read ``rows``, and every point beyond both lies in the up-set.
    """
    lines = stair.get((l1 % eng.D1, l2 % eng.D2))  # None off the group lattice
    m1 = l1 // eng.D1
    m2 = l2 // eng.D2
    if lines is None or m1 < 0 or m2 < 0:
        return False
    rows, cols = lines
    if m1 < len(cols):
        t = cols[m1]
        return t is not None and m2 >= t
    if m2 < len(rows):
        s = rows[m2]
        return s is not None and m1 >= s
    return True


def _stair_profile(lines, axis, count):
    """First indices on lines 0..count-1 of one coset, read off its staircase.

    Past the stored lines, the first index on line m is the least index of
    the other array whose entry is at most m; both arrays fall, so one
    pointer walking down the other array serves every later line.
    """
    rows, cols = lines
    own, other = (cols, rows) if axis == 1 else (rows, cols)
    out = own[:count]
    p = len(other)
    for m in range(len(own), count):
        while p and other[p - 1] is not None and other[p - 1] <= m:
            p -= 1
        out.append(p)
    return out


# ---------------------------------------------------------------------------
# engines

class _Num1:
    """Numerical-semigroup engine for ambient dimension 1."""

    kind = "num1"
    is_cm = True

    def __init__(self, ring):
        self.ring = ring
        vals = sorted(v[0] for v in ring.generators)
        g = 0
        for v in vals:
            g = gcd(g, v)
        self.step = g
        self.amin = vals[0]
        bound = (self.amin * vals[-1]) // g + self.amin + vals[-1] + 1
        tab = bytearray(bound + 1)
        tab[0] = 1
        for x in range(1, bound + 1):
            for v in vals:
                if x >= v and tab[x - v]:
                    tab[x] = 1
                    break
        self.tab = tab
        run_needed = self.amin // g
        run = 0
        conductor = None
        for x in range(0, bound + 1, g):
            if tab[x]:
                run += 1
                if run >= run_needed:
                    conductor = x - (run_needed - 1) * g
                    break
            else:
                run = 0
        if conductor is None:  # cannot happen below the Frobenius bound
            raise UncertifiedError("numerical semigroup conductor not found in certified range")
        self.conductor = conductor

    def member(self, v):
        x = v[0]
        if x < 0 or x % self.step != 0:
            return False
        if x < len(self.tab):
            return bool(self.tab[x])
        return x >= self.conductor

class _Free3:
    """Engine for the free semigroup Z>=0^3."""

    kind = "free3"
    is_cm = True

    def __init__(self, ring):
        self.ring = ring

    def member(self, v):
        return all(c >= 0 for c in v)

class _Grid2:
    """Coset-grid engine for rank-2 semigroups in ambient dimension 2, held
    as the Apéry staircase of each coset."""

    kind = "grid2"

    def __init__(self, ring):
        self.ring = ring
        gens = ring.generators

        def cross(u, v):
            return u[0] * v[1] - u[1] * v[0]

        ray1 = [g for g in gens if all(cross(g, h) >= 0 for h in gens)]
        ray2 = [g for g in gens if all(cross(h, g) >= 0 for h in gens)]
        if not ray1 or not ray2:
            raise UnsupportedRingError("cone has no extreme generators")
        pick = lambda cands: min(cands, key=lambda g: (sum(g), g))
        self.g1 = pick(ray1)
        self.g2 = pick(ray2)
        det = cross(self.g1, self.g2)
        if det <= 0:
            raise UnsupportedRingError("semigroup cone is not two-dimensional")

        # integer dual forms: lam1 vanishes on g2, lam2 on g1, both >= 0 on the cone
        self.lam1 = _primitive((self.g2[1], -self.g2[0]))
        self.lam2 = _primitive((-self.g1[1], self.g1[0]))
        if vdot(self.lam1, self.g1) < 0:
            self.lam1 = vscale(-1, self.lam1)
        if vdot(self.lam2, self.g2) < 0:
            self.lam2 = vscale(-1, self.lam2)
        self.D1 = vdot(self.lam1, self.g1)
        self.D2 = vdot(self.lam2, self.g2)
        assert self.D1 > 0 and self.D2 > 0
        assert all(vdot(self.lam1, g) >= 0 and vdot(self.lam2, g) >= 0 for g in gens)
        self._l1x, self._l1y = self.lam1
        self._l2x, self._l2y = self.lam2

        # box points: lattice points of the fundamental parallelepiped of (g1, g2)
        self.box, corners = self._apery()
        # S is CM iff each coset holds exactly one Apéry element (Rosales and
        # García-Sánchez, Proc. Edinburgh Math. Soc. 41, 1998)
        self.is_cm = all(len(pts) == 1 for pts in corners.values())
        self.stair = {key: _staircase(pts) for key, pts in corners.items()}
        # one in-S point per coset with small grid coordinates
        self.witness = {key: min(pts, key=lambda p: (max(p), p))
                        for key, pts in corners.items()}
        self._stable = tuple(
            (max(len(lines[axis]) for lines in self.stair.values()) - 1,
             {key: lines[axis][-1] for key, lines in self.stair.items()})
            for axis in (0, 1))

    def _apery(self):
        """Box point and grid coordinates (m1, m2) of the Apéry elements of
        each coset: the s in S with s - g1 and s - g2 outside S.

        The image of S in L / (Z g1 + Z g2) is a submonoid of a finite group
        that generates it, so S meets every coset.  Apéry elements are sums
        of the other generators.  A Dijkstra over those sums by coordinate
        sum pops each point after every point of its coset it dominates, so a
        point that no earlier survivor dominates is an Apéry element.  A dominated point is dropped unexpanded, since its
        successors are dominated as well; every Apéry element is reached,
        since its partial sums are Apéry elements too.
        """
        others = [g for g in self.ring.generators if g != self.g1 and g != self.g2]
        box, corners = {}, {}
        heap = [(0, (0, 0))]
        seen = {(0, 0)}
        while heap:
            _, v = heapq.heappop(heap)
            l1, l2 = vdot(self.lam1, v), vdot(self.lam2, v)
            key, m1, m2 = (l1 % self.D1, l2 % self.D2), l1 // self.D1, l2 // self.D2
            pts = corners.setdefault(key, [])
            if any(a <= m1 and b <= m2 for a, b in pts):
                continue
            if not pts:
                box[key] = vsub(v, vadd(vscale(m1, self.g1), vscale(m2, self.g2)))
            pts.append((m1, m2))
            for g in others:
                w = (v[0] + g[0], v[1] + g[1])
                if w not in seen:
                    seen.add(w)
                    heapq.heappush(heap, (w[0] + w[1], w))
        return box, corners

    # -- per-line first-membership index

    def grid_first(self, key, axis, fixed):
        """First t with box[key] + (fixed, t) (axis order) in S; None if the line misses S.

        ``fixed`` must be >= 0.  Past the coset's last stored line the
        answer is constant.
        """
        line = self.stair[key][axis]
        return line[fixed] if fixed < len(line) else line[-1]

    def stabilization(self, axis):
        """(S, consts) with grid_first(key, axis, f) == consts[key] for every f >= S.

        S is the largest Apéry coordinate along the fixed axis over all
        cosets, and consts[key] the least along the other.
        """
        return self._stable[axis]

    def member(self, v):
        x, y = v
        return _stair_at(self, self.stair, self._l1x * x + self._l1y * y,
                         self._l2x * x + self._l2y * y)

    # -- the S2-ification S' (Trung and Hoa, Trans. AMS 298, 1986)

    @cached_property
    def s2_corners(self):
        """The corner (c1, c2) of S' on each coset: the least column and the
        least row index whose lines meet S.  S' is the quadrant m >= c there."""
        return {key: tuple(next(i for i, t in enumerate(line) if t is not None)
                           for line in (cols, rows))
                for key, (rows, cols) in self.stair.items()}

    @cached_property
    def s2_holes(self):
        """The lam values of S' ∖ S: the points of each coset's quadrant below
        its staircase.  Past the stored columns S starts at row c2."""
        out = []
        for key, (c1, c2) in self.s2_corners.items():
            cols = self.stair[key][1]
            out += [(key[0] + m1 * self.D1, key[1] + m2 * self.D2)
                    for m1 in range(c1, len(cols)) for m2 in range(c2, cols[m1])]
        return out


# ---------------------------------------------------------------------------
# public semigroup type

class AffineSemigroup:
    """The exponent semigroup S ⊆ Z>=0^d of a monomial subring, d in {1, 2, 3}.

    Ambient d <= 2 supports arbitrary finitely generated pointed full-rank
    semigroups; d = 3 is supported only for the free semigroup Z>=0^3.
    """

    def __init__(self, dim, generators):
        dim = int(dim)
        if dim not in (1, 2, 3):
            raise UnsupportedRingError("ambient dimension must be 1, 2, or 3")
        gens = []
        for g in generators:
            ev = ExponentVector(g)
            if ev.dim != dim:
                raise DimensionMismatchError(
                    "generator %r has length %d, expected %d" % (tuple(g), ev.dim, dim))
            if not any(ev):
                raise ValueError("semigroup generators must be nonzero")
            gens.append(ev)
        if len(set(gens)) != len(gens):
            raise ValueError("semigroup generators must be pairwise distinct")
        if not gens:
            raise ValueError("at least one generator required")
        self.dim = dim
        self.generators = tuple(sorted(gens))
        basis = lattice_basis(self.generators, dim)
        if len(basis) != dim:
            raise UnsupportedRingError(
                "generators must span a rank-%d lattice (cone must be full-dimensional)" % dim)
        if dim == 1:
            self._engine = _Num1(self)
        elif dim == 2:
            self._engine = _Grid2(self)
        else:
            units = {tuple(1 if i == j else 0 for j in range(3)) for i in range(3)}
            if not units <= set(map(tuple, self.generators)):
                raise UnsupportedRingError("dimension 3 supports only the free semigroup Z^3_{>=0}")
            self._engine = _Free3(self)
        self._cache = {}

    # value semantics
    def __eq__(self, other):
        return (isinstance(other, AffineSemigroup)
                and self.dim == other.dim and self.generators == other.generators)

    def __hash__(self):
        return hash((self.dim, self.generators))

    def __repr__(self):
        return "AffineSemigroup(dim=%d, generators=%r)" % (
            self.dim, [tuple(g) for g in self.generators])

    @property
    def kind(self):
        return self._engine.kind

    @property
    def is_cm(self):
        """Whether k[S] is Cohen-Macaulay: always for free Z^3 and numerical
        semigroups, in dimension 2 iff each coset has one Apéry element."""
        return self._engine.is_cm

    @property
    def is_free(self):
        return set(self.minimal_generators()) == {
            ExponentVector(tuple(1 if i == j else 0 for j in range(self.dim)))
            for i in range(self.dim)}

    def member(self, v):
        """True iff v is a nonnegative integer combination of the generators."""
        v = tuple(int(c) for c in v)
        if len(v) != self.dim:
            raise DimensionMismatchError(
                "vector %r has length %d, expected %d" % (v, len(v), self.dim))
        if any(c < 0 for c in v):
            return False
        if not any(v):
            return True
        return self._engine.member(v)

    def minimal_generators(self):
        """The irreducible elements of S (they form its unique minimal generating set)."""
        if "irreducible" not in self._cache:
            out = [g for g in self.generators
                   if not any(h != g and self._member_diff(g, h) for h in self.generators)]
            self._cache["irreducible"] = tuple(sorted(out))
        return self._cache["irreducible"]

    def _member_diff(self, g, h):
        d = vsub(g, h)
        if any(c < 0 for c in d):
            return False
        if not any(d):
            return False
        return self.member(d)

    def extreme_generators(self):
        """One generator per extreme ray of the cone, in ray order."""
        if self.kind == "grid2":
            return (self._engine.g1, self._engine.g2)
        if self.kind == "num1":
            return ((self._engine.amin,),)
        return tuple(tuple(1 if i == j else 0 for j in range(3)) for i in range(3))

    def group_lattice(self):
        """Triangular row basis of the subgroup of Z^d the generators span."""
        if "lattice" not in self._cache:
            self._cache["lattice"] = tuple(
                tuple(r) for r in lattice_basis(self.generators, self.dim))
        return self._cache["lattice"]

    def cone_halfspaces(self):
        """Primitive inward normals of the real cone the generators span."""
        if self.kind == "grid2":
            return (self._engine.lam1, self._engine.lam2)
        if self.kind == "num1":
            return ((1,),)
        return tuple(tuple(1 if i == j else 0 for j in range(3)) for i in range(3))
