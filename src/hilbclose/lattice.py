"""Exact lattice substrate: exponent vectors, affine semigroups, rational polyhedra.

Everything here runs on arbitrary-precision integers (plus fractions.Fraction
for polyhedron bookkeeping); no floating point participates in any decision.

The workhorse for two-dimensional semigroups is a per-coset grid: writing the
group lattice L as a disjoint union of cosets of Z·g1 + Z·g2 (g1, g2 generators
on the two extreme rays), every lattice point in the cone is box_point + m1*g1
+ m2*g2 with m >= 0.  Membership in S along any line parallel to a ray is
monotone (adding a generator stays in S), so each line is described by a single
"first index in S", cached per line and computed either from a bounded table or
from an exact residue knapsack.  That makes membership and line-first queries
O(1) for points of any size, which the ideal engine relies on.
"""

from __future__ import annotations

import heapq
import itertools
from fractions import Fraction
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


def in_lattice(basis, v):
    """Exact membership of integer vector ``v`` in the lattice given by ``basis``."""
    v = list(v)
    for row in basis:
        col = next(i for i, c in enumerate(row) if c != 0)
        if v[col] % row[col] != 0:
            return False
        q = v[col] // row[col]
        for i in range(len(v)):
            v[i] -= q * row[i]
    return not any(v)


# ---------------------------------------------------------------------------
# rational polyhedra (halfspace form)

class RationalPolyhedron:
    """Intersection of halfspaces  <normal, x> >= offset  with integer data.

    Normals are primitive integer vectors; scaling the polyhedron by a positive
    integer multiplies offsets and fixes normals (the recession cone).
    """

    def __init__(self, dim, halfspaces):
        self.dim = dim
        seen = {}
        for normal, offset in halfspaces:
            normal = tuple(int(c) for c in normal)
            offset = int(offset)
            if len(normal) != dim:
                raise DimensionMismatchError("halfspace normal has wrong length")
            key = normal
            # keep the tightest offset per normal
            if key not in seen or seen[key] < offset:
                seen[key] = offset
        self.halfspaces = tuple(sorted(seen.items()))

    def contains(self, point, scale=1):
        """Exact test of ``point`` against the ``scale``-fold polyhedron."""
        if len(point) != self.dim:
            raise DimensionMismatchError("point has wrong length")
        return all(vdot(n, point) >= scale * h for n, h in self.halfspaces)

    def scale(self, n):
        if n < 1:
            raise ValueError("scale must be a positive integer")
        return RationalPolyhedron(self.dim, [(nm, n * h) for nm, h in self.halfspaces])

    def __eq__(self, other):
        return isinstance(other, RationalPolyhedron) and self.halfspaces == other.halfspaces

    def __hash__(self):
        return hash(self.halfspaces)

    def __repr__(self):
        return "RationalPolyhedron(%r)" % (list(self.halfspaces),)


def _primitive(v):
    g = 0
    for c in v:
        g = gcd(g, abs(c))
    if g == 0:
        return tuple(v)
    return tuple(c // g for c in v)


def _hull2(points):
    """Counterclockwise convex hull (Andrew monotone chain, exact)."""
    pts = sorted(set(points))
    if len(pts) <= 2:
        return pts

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    lower, upper = [], []
    for p in pts:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    for p in reversed(pts):
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return lower[:-1] + upper[:-1]


_MISS = object()


# ---------------------------------------------------------------------------
# engines

class _Num1:
    """Numerical-semigroup engine for ambient dimension 1."""

    kind = "num1"

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

    def saturation_data(self):
        gaps = [(x,) for x in range(0, self.conductor, self.step) if not self.tab[x]]
        return gaps, []

    def conductor_vector(self):
        return (self.conductor,)


class _Free3:
    """Engine for the free semigroup Z>=0^3."""

    kind = "free3"

    def __init__(self, ring):
        self.ring = ring

    def member(self, v):
        return all(c >= 0 for c in v)

    def saturation_data(self):
        return [], []

    def conductor_vector(self):
        return (0, 0, 0)


class _Grid2:
    """Coset-grid engine for rank-2 semigroups in ambient dimension 2."""

    kind = "grid2"

    _TABLE_CAP = 4096

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

        self.basis = lattice_basis(gens, 2)
        if len(self.basis) != 2:
            raise UnsupportedRingError("generators must span a rank-2 lattice")
        # triangular basis rows (a, b), (0, c) for the unrolled membership test
        assert self.basis[0][0] > 0 and self.basis[1][0] == 0
        self._lat_a = self.basis[0][0]
        self._lat_b = self.basis[0][1]
        self._lat_c = self.basis[1][1]
        self._l1x, self._l1y = self.lam1
        self._l2x, self._l2y = self.lam2

        # box points: lattice points of the fundamental parallelepiped of (g1, g2)
        self.box = {}
        for a in range(self.D1):
            for b in range(self.D2):
                x = Fraction(a, self.D1) * self.g1[0] + Fraction(b, self.D2) * self.g2[0]
                y = Fraction(a, self.D1) * self.g1[1] + Fraction(b, self.D2) * self.g2[1]
                if x.denominator == 1 and y.denominator == 1:
                    p = (int(x), int(y))
                    if in_lattice(self.basis, p):
                        self.box[(a, b)] = p

        self._table = None
        self._table_size = 0
        self._firsts = {}
        self._witness = None
        self._stable = {}

    # -- bounded membership table (accelerator; certified logic sits above it)

    def _ensure_table(self, size):
        size = min(size, self._TABLE_CAP)
        if self._table is not None and self._table_size >= size:
            return
        gens = self.ring.generators
        n = size + 1
        tab = [bytearray(n) for _ in range(n)]
        tab[0][0] = 1
        for x in range(n):
            row = tab[x]
            for y in range(n):
                if x == 0 and y == 0:
                    continue
                for g in gens:
                    if x >= g[0] and y >= g[1] and tab[x - g[0]][y - g[1]]:
                        row[y] = 1
                        break
        self._table = tab
        self._table_size = size

    def _table_member(self, p):
        if p[0] < 0 or p[1] < 0:
            return None
        if p[0] <= self._table_size and p[1] <= self._table_size:
            return bool(self._table[p[0]][p[1]])
        return None

    # -- witnesses: one in-S point per coset, with small grid coordinates

    def _witnesses(self):
        """Dijkstra over generator sums: a small in-S point in every coset.

        The image of S in L/(Z g1 + Z g2) is the whole (finite) group, so the
        search reaches every coset; grid coordinates only grow along sums, so
        the first pop per coset has minimal max-coordinate.
        """
        if self._witness is not None:
            return self._witness
        found = {}
        heap = [(0, 0, 0, (0, 0))]
        pops = 0
        cap = 64 * len(self.box) * len(self.ring.generators) + 4096
        while heap and len(found) < len(self.box):
            pops += 1
            if pops > cap:
                raise UncertifiedError(
                    "could not locate coset witnesses in certified range")
            mx, m1, m2, v = heapq.heappop(heap)
            key, k1, k2 = self._decompose(v)
            if key in found:
                continue
            found[key] = (k1, k2)
            for g in self.ring.generators:
                w = (v[0] + g[0], v[1] + g[1])
                _, w1, w2 = self._decompose(w)
                heapq.heappush(heap, (max(w1, w2), w1, w2, w))
        if len(found) < len(self.box):
            raise UncertifiedError(
                "could not locate coset witnesses in certified range")
        self._witness = found
        return self._witness

    def _decompose(self, v):
        l1 = vdot(self.lam1, v)
        l2 = vdot(self.lam2, v)
        return (l1 % self.D1, l2 % self.D2), l1 // self.D1, l2 // self.D2

    def _in_lat2(self, x, y):
        if x % self._lat_a:
            return False
        return (y - (x // self._lat_a) * self._lat_b) % self._lat_c == 0

    # -- exact per-line first-membership index

    def grid_first(self, key, axis, fixed):
        """First t with box[key] + (fixed, t) (axis order) in S; None if the line misses S.

        For ``fixed`` at or past the witness bound b_fix the far branch
        answers: the least t < b_trav whose cross line starts at or before
        ``fixed``, else b_trav.  That is nonincreasing in ``fixed`` and
        constant once ``fixed`` also reaches every finite cross-line first;
        ``stabilization`` returns that index and the constants.
        """
        ck = (key, axis, fixed)
        hit = self._firsts.get(ck, _MISS)
        if hit is not _MISS:
            return hit
        wit = self._witnesses()[key]
        b_fix = wit[0] if axis == 1 else wit[1]
        b_trav = wit[1] if axis == 1 else wit[0]
        if fixed >= b_fix:
            # the far point (fixed, b_trav) is in S, so the first index is <= b_trav
            best = b_trav
            for t in range(b_trav):
                h = self.grid_first(key, 1 - axis, t)
                if h is not None and h <= fixed:
                    best = t
                    break
            self._firsts[ck] = best
            return best
        r = self.box[key]
        gfix = self.g1 if axis == 1 else self.g2
        gtrav = self.g2 if axis == 1 else self.g1
        v0 = vadd(r, vscale(fixed, gfix))
        # fast path: scan inside the bounded table
        self._ensure_table(max(64, 2 * (max(v0) + max(max(g) for g in self.ring.generators) + 1)))
        t = 0
        while True:
            p = vadd(v0, vscale(t, gtrav))
            known = self._table_member(p)
            if known is None:
                break
            if known:
                self._firsts[ck] = t
                return t
            t += 1
        result = self._line_dp(v0, axis)
        self._firsts[ck] = result
        return result

    def stabilization(self, axis):
        """(S, consts) with grid_first(key, axis, f) == consts[key] for every f >= S.

        S is the largest witness bound b_fix and finite cross-line first over
        all cosets, so every line at or past it takes the far branch of
        ``grid_first`` with every cross line already entered.
        """
        hit = self._stable.get(axis)
        if hit is not None:
            return hit
        wit = self._witnesses()
        stable = 0
        consts = {}
        for key in sorted(self.box):
            b_fix, b_trav = wit[key] if axis == 1 else wit[key][::-1]
            stable = max(stable, b_fix)
            consts[key] = b_trav
            for t in range(b_trav):
                h = self.grid_first(key, 1 - axis, t)
                if h is not None:
                    stable = max(stable, h)
                    consts[key] = min(consts[key], t)
        self._stable[axis] = (stable, consts)
        return self._stable[axis]

    def _line_dp(self, v0, axis):
        """Exact first t >= 0 with v0 + t*g_axis in S via a residue knapsack."""
        if axis == 1:
            lamB, lamT, gamma = self.lam1, self.lam2, self.D2
        else:
            lamB, lamT, gamma = self.lam2, self.lam1, self.D1
        cstar = vdot(lamB, v0)
        nu0 = vdot(lamT, v0)
        if cstar < 0:
            return None
        off = [(vdot(lamB, h), vdot(lamT, h)) for h in self.ring.generators if vdot(lamB, h) > 0]
        ray = sorted({vdot(lamT, h) for h in self.ring.generators if vdot(lamB, h) == 0})
        # minimal ray-sum per residue mod gamma (Dijkstra; gamma itself is a ray value)
        rho = {0: 0}
        heap = [(0, 0)]
        while heap:
            val, res = heapq.heappop(heap)
            if rho.get(res, None) != val:
                continue
            for a in ray:
                nres = (res + a) % gamma
                nval = val + a
                if nres not in rho or rho[nres] > nval:
                    rho[nres] = nval
                    heapq.heappush(heap, (nval, nres))
        # knapsack over off-ray generators: minimal lamT-sum per (budget, residue)
        table = [dict() for _ in range(cstar + 1)]
        table[0][0] = 0
        for bud in range(cstar + 1):
            entries = table[bud]
            if not entries:
                continue
            for res, nuM in list(entries.items()):
                for a, bt in off:
                    nb = bud + a
                    if nb > cstar:
                        continue
                    nr = (res + bt) % gamma
                    nn = nuM + bt
                    if table[nb].get(nr, None) is None or table[nb][nr] > nn:
                        table[nb][nr] = nn
        best = None
        for res, nuM in table[cstar].items():
            need = (nu0 - nuM) % gamma
            if need not in rho:
                continue
            total = nuM + rho[need]
            t = max(0, (total - nu0) // gamma)
            if best is None or t < best:
                best = t
        return best

    # -- membership

    def member(self, v):
        x, y = v
        if x < 0 or y < 0:
            return False
        if not self._in_lat2(x, y):
            return False
        l1 = self._l1x * x + self._l1y * y
        l2 = self._l2x * x + self._l2y * y
        if l1 < 0 or l2 < 0:
            return False
        key = (l1 % self.D1, l2 % self.D2)
        wit = self._witness
        if wit is None:
            wit = self._witnesses()
        b1, b2 = wit[key]
        m1 = l1 // self.D1
        m2 = l2 // self.D2
        if m1 >= b1 and m2 >= b2:
            return True
        if m1 < b1:
            t = self.grid_first(key, 1, m1)
            return t is not None and m2 >= t
        t = self.grid_first(key, 0, m2)
        return t is not None and m1 >= t

    # -- saturation

    def saturation_data(self):
        """Finite gaps and full gap rays of (cone ∩ lattice) \\ S."""
        finite = set()
        rays = []
        for key in sorted(self.box):
            r = self.box[key]
            b1, b2 = self._witnesses()[key]
            for mu in range(b1):
                t0 = self.grid_first(key, 1, mu)
                base = vadd(r, vscale(mu, self.g1))
                if t0 is None:
                    rays.append((base, self.g2))
                else:
                    for t in range(t0):
                        finite.add(vadd(base, vscale(t, self.g2)))
            for nu in range(b2):
                s0 = self.grid_first(key, 0, nu)
                base = vadd(r, vscale(nu, self.g2))
                if s0 is None:
                    rays.append((base, self.g1))
                else:
                    for s in range(s0):
                        finite.add(vadd(base, vscale(s, self.g1)))
        # points absorbed by a full ray are reported once, via the ray
        pruned = []
        for p in finite:
            on_ray = False
            for base, d in rays:
                diff = vsub(p, base)
                if d[0] * diff[1] == d[1] * diff[0]:
                    i = 0 if d[0] != 0 else 1
                    if diff[i] % d[i] == 0 and diff[i] // d[i] >= 0:
                        on_ray = True
                        break
            if not on_ray:
                pruned.append(p)
        return sorted(pruned), sorted(rays)

    def conductor_vector(self):
        """Least (|c|_1, lex) element of S with c + saturation ⊆ S, certified."""
        bases = []
        for key in sorted(self.box):
            r = self.box[key]
            b1, b2 = self._witnesses()[key]
            for mu in range(b1):
                bases.append(vadd(r, vscale(mu, self.g1)))
            for nu in range(b2):
                bases.append(vadd(r, vscale(nu, self.g2)))
        total = 0
        while total <= 8 * self._TABLE_CAP:
            for x in range(total + 1):
                c = (x, total - x)
                if not self.member(c):
                    continue
                # monotone line argument: checking each near-region line base suffices
                if all(self.member(vadd(c, base)) for base in bases):
                    return c
            total += 1
        raise UncertifiedError("conductor scan exceeded certified range")


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

    def conductor(self):
        """A vector c in S with c + (saturation of S) ⊆ S, from the certified scan."""
        if "conductor" not in self._cache:
            self._cache["conductor"] = ExponentVector(self._engine.conductor_vector())
        return self._cache["conductor"]

    def saturation(self):
        """Gaps (finite part and full rays) of the saturation, plus the conductor."""
        if "saturation" not in self._cache:
            finite, rays = self._engine.saturation_data()
            self._cache["saturation"] = SaturationResult(
                ring=self,
                gaps=tuple(ExponentVector(p) for p in finite),
                gap_rays=tuple((ExponentVector(b), ExponentVector(d)) for b, d in rays),
                conductor=self.conductor(),
            )
        return self._cache["saturation"]

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

    def newton_polyhedron(self, points):
        """conv(points) + cone(S) as a halfspace list (exact)."""
        pts = [tuple(int(c) for c in p) for p in points]
        if not pts:
            raise ValueError("newton_polyhedron requires at least one point")
        for p in pts:
            if len(p) != self.dim:
                raise DimensionMismatchError("point %r has wrong length" % (p,))
        if self.dim == 1:
            return RationalPolyhedron(1, [((1,), min(p[0] for p in pts))])
        if self.dim == 2:
            e = self._engine
            normals = [e.lam1, e.lam2]
            hull = _hull2(pts)
            n = len(hull)
            for i in range(n):
                p, q = hull[i], hull[(i + 1) % n]
                d = vsub(q, p)
                if not any(d):
                    continue
                cand = (-d[1], d[0])
                # orient inward: all points on the >= side
                if all(vdot(cand, r) >= vdot(cand, p) for r in pts):
                    nm = _primitive(cand)
                elif all(vdot(cand, r) <= vdot(cand, p) for r in pts):
                    nm = _primitive(vscale(-1, cand))
                else:
                    continue
                if vdot(nm, e.g1) >= 0 and vdot(nm, e.g2) >= 0:
                    normals.append(nm)
            return RationalPolyhedron(
                2, [(nm, min(vdot(nm, p) for p in pts)) for nm in normals])
        # free Z^3: axis normals, triangle normals, edge-axis normals
        normals = {(1, 0, 0), (0, 1, 0), (0, 0, 1)}
        axes = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]

        def cross3(u, v):
            return (u[1] * v[2] - u[2] * v[1],
                    u[2] * v[0] - u[0] * v[2],
                    u[0] * v[1] - u[1] * v[0])

        def consider(n):
            if not any(n):
                return
            if all(c >= 0 for c in n):
                normals.add(_primitive(n))
            elif all(c <= 0 for c in n):
                normals.add(_primitive(vscale(-1, n)))

        for a, b in itertools.combinations(pts, 2):
            d = vsub(b, a)
            for ax in axes:
                consider(cross3(d, ax))
        for a, b, c in itertools.combinations(pts, 3):
            consider(cross3(vsub(b, a), vsub(c, a)))
        return RationalPolyhedron(
            3, [(nm, min(vdot(nm, p) for p in pts)) for nm in sorted(normals)])


class SaturationResult:
    """Gap description of S̄ ∖ S plus a certified conductor."""

    def __init__(self, ring, gaps, gap_rays, conductor):
        self.ring = ring
        self.gaps = gaps
        self.gap_rays = gap_rays
        self.conductor = conductor

    @property
    def is_saturated(self):
        return not self.gaps and not self.gap_rays

    def __repr__(self):
        return ("SaturationResult(gaps=%r, gap_rays=%r, conductor=%r)"
                % (self.gaps, self.gap_rays, self.conductor))


def semigroup_membership(ring, v):
    """True iff ``v`` is a nonnegative integer combination of ring generators."""
    return ring.member(v)


def saturation(ring):
    return ring.saturation()


def newton_polyhedron(points, ring):
    return ring.newton_polyhedron(points)
