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
The engine computes them once per ring and keeps each coset's staircase as
one column array (``_staircase``): the first index in S on each column up
to the last corner.  A row starts at the least column whose entry is at most
its index, and past the last corner a column starts at the last entry, so
membership is an array read for points of any size, and S is
Cohen-Macaulay exactly when every coset has one corner.  A numerical
semigroup is held the same way with one line per class modulo its least
generator: its Apéry set, the least element of S in each class.

The ideals of S are held the same way.  An ideal generated by points w is,
on each coset, the up-set of the Apéry corners that the w move onto it
from their source cosets (``_moved_corners``), and its colength is a sum
over columns of its first row less that of S (``_stair_colength``).
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
    """The column array of the up-set that grid points (m1, m2) generate on
    one coset: the first m2 on each column up to the last corner, None
    where the up-set has not started.  Past the last corner a column starts
    at the last entry, and row m2 at the least column whose entry is at
    most m2.  The corners, the points below every point left of them, form
    an antichain, so the array falls at each corner and stays level
    between them."""
    corners = []
    for a, b in sorted(points):
        if not corners or b < corners[-1][1]:
            corners.append((a, b))
    cols = [None] * (corners[-1][0] + 1)
    for a, b in corners:
        cols[a] = b
    for m in range(1, len(cols)):
        if cols[m] is None:
            cols[m] = cols[m - 1]
    return cols


def _stair_corners(cols):
    """The corners (m1, m2) of one coset's staircase: the columns whose
    first index drops."""
    return [(m, t) for m, t in enumerate(cols) if t is not None and (m == 0 or t != cols[m - 1])]


def _stair_at(eng, stair, l1, l2):
    """Membership of the lattice point with lam values (l1, l2) in the
    up-set with column arrays ``stair`` (key -> cols) over the grid of
    ``eng``: column m1 reads its entry, the last one past the array."""
    cols = stair.get((l1 % eng.D1, l2 % eng.D2))  # None off the group lattice
    m1 = l1 // eng.D1
    if cols is None or m1 < 0:
        return False
    t = cols[m1 if m1 < len(cols) else -1]
    return t is not None and l2 // eng.D2 >= t


def _stair_within(corners, other):
    """Whether the grid points ``corners`` (key -> [(m1, m2)]) lie on the
    up-set with column arrays ``other``: column m1 of a coset reads its
    entry, the last one past the array."""
    for key, pts in corners.items():
        own = other[key]
        last = len(own) - 1
        for m1, m2 in pts:
            t = own[m1 if m1 < last else last]
            if t is None or t > m2:
                return False
    return True


def _moved_corners(eng, key, shifts, corners):
    """The points of coset ``key`` onto which the lam values ``shifts`` move
    the corners of their source cosets, ``corners`` mapping each coset to
    its list.  Shift s moves the coset of key - s, and its corner p lands
    at p - q, q the grid quotient of key - s."""
    (k1, k2), d1, d2 = key, eng.D1, eng.D2
    out = []
    for s1, s2 in shifts:
        l1, l2 = k1 - s1, k2 - s2
        q1, q2 = l1 // d1, l2 // d2
        for p1, p2 in corners[l1 - q1 * d1, l2 - q2 * d2]:
            out.append((p1 - q1, p2 - q2))
    return out


def _column_runs(ring, own):
    """The points of S outside an up-set on one coset, as runs (m1, lo, hi):
    column m1 from row lo up to row hi, ``ring`` and ``own`` the column
    arrays of S and of the up-set.

    Past its stored columns each array keeps its last value, so the
    complement is finite exactly when the up-set meets every column that S
    meets and the two last values agree.  Raises UncertifiedError when it
    does not, or when the up-set leaves S.
    """
    if own[-1] != ring[-1]:
        raise UncertifiedError("staircase tail %d, the ring's %d (internal)" % (own[-1], ring[-1]))
    # the shorter array, padded with its last value, to the common length
    pad = len(own) - len(ring)
    ring, own = ring + ring[-1:] * pad, own + own[-1:] * -pad
    runs = []
    for m, (s, t) in enumerate(zip(ring, own)):
        if s != t:
            if s is None or t is None or t < s:
                raise UncertifiedError("staircase misses or leaves S on column %d (internal)" % m)
            runs.append((m, s, t))
    return runs


def _stair_colength(eng, cols_of):
    """The number of points of S outside the up-set whose column array on
    coset ``key`` is ``cols_of(key)``: the sum over columns of its first row
    less that of S (``_column_runs``)."""
    return sum(hi - lo for key, cols in eng.stair.items()
               for _, lo, hi in _column_runs(cols, cols_of(key)))


# ---------------------------------------------------------------------------
# engines

class _Num1:
    """Numerical-semigroup engine for ambient dimension 1, held as its Apéry
    set modulo amin: ``apery`` maps each class r of the multiples of the gcd
    to the least element of S in it, so S is the union of the lines
    apery[r] + N*amin."""

    kind = "num1"
    is_cm = True

    def __init__(self, ring):
        self.ring = ring
        vals = sorted(v[0] for v in ring.generators)
        self.amin = amin = vals[0]
        self.step = gcd(*vals)
        self.gens, self.lams = ((amin,),), ((1,),)
        # a Dijkstra over the classes: the first element popped in a class
        # is its least, and the least of a class is the least of another
        # plus a generator other than amin
        apery, heap = {}, [(0, 0)]
        while heap:
            x, r = heapq.heappop(heap)
            if r not in apery:
                apery[r] = x
                for v in vals[1:]:
                    if (x + v) % amin not in apery:
                        heapq.heappush(heap, (x + v, (x + v) % amin))
        self.apery = apery
        # the largest multiple of the gcd outside S is the largest Apéry
        # element less amin
        self.conductor = max(apery.values()) - amin + self.step

    def member(self, v):
        x = v[0]
        return x % self.step == 0 and x >= self.apery[x % self.amin]

    member_at = member  # the one facet form is x itself


class _Free3:
    """Engine for the free semigroup Z>=0^3."""

    kind = "free3"
    is_cm = True

    def __init__(self, ring):
        self.ring = ring
        self.gens = self.lams = tuple(tuple(1 if i == j else 0 for j in range(3))
                                      for i in range(3))

    def member(self, v):
        return all(c >= 0 for c in v)

    member_at = member  # the facet forms are the coordinates


class _Grid2:
    """Coset-grid engine for rank-2 semigroups in ambient dimension 2, held
    as the Apéry corners (``apery``) and column array (``stair``) of each
    coset."""

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
        if not (self.D1 > 0 and self.D2 > 0 and all(
                vdot(self.lam1, g) >= 0 and vdot(self.lam2, g) >= 0 for g in gens)):
            raise UncertifiedError("facet forms are not positive on the cone (internal bug)")
        self._l1x, self._l1y = self.lam1
        self._l2x, self._l2y = self.lam2
        self.gens, self.lams = (self.g1, self.g2), (self.lam1, self.lam2)

        # box points: lattice points of the fundamental parallelepiped of (g1, g2)
        self.box, corners = self._apery()
        # S is CM iff each coset holds exactly one Apéry element (Rosales and
        # García-Sánchez, Proc. Edinburgh Math. Soc. 41, 1998)
        self.is_cm = all(len(pts) == 1 for pts in corners.values())
        self.apery = corners
        self.stair = {key: _staircase(pts) for key, pts in corners.items()}

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

    def member(self, v):
        x, y = v
        return _stair_at(self, self.stair, self._l1x * x + self._l1y * y,
                         self._l2x * x + self._l2y * y)

    def member_at(self, lams):
        """``member`` of the point with facet-form values ``lams``."""
        return _stair_at(self, self.stair, *lams)

    # -- the S2-ification S' (Trung and Hoa, Trans. AMS 298, 1986)

    @cached_property
    def s2_corners(self):
        """The corner (c1, c2) of S' on each coset, as a one-point list like
        ``apery``'s: the least column and the least row that meet S, the
        first column of its array that holds an entry and the last entry.
        S' is the quadrant m >= c there."""
        return {key: [(next(m for m, t in enumerate(cols) if t is not None), cols[-1])]
                for key, cols in self.stair.items()}

    @cached_property
    def s2_holes(self):
        """The lam values of S' ∖ S: the points of each coset's quadrant below
        its staircase.  Past the stored columns S starts at row c2."""
        out = []
        for key, [(c1, c2)] in self.s2_corners.items():
            cols = self.stair[key]
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
        return self._engine.gens

    def group_lattice(self):
        """Triangular row basis of the subgroup of Z^d the generators span."""
        if "lattice" not in self._cache:
            self._cache["lattice"] = tuple(
                tuple(r) for r in lattice_basis(self.generators, self.dim))
        return self._cache["lattice"]

    def cone_halfspaces(self):
        """Primitive inward normals of the real cone the generators span."""
        return self._engine.lams
