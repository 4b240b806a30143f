"""Shared fixtures and independent oracles.

The oracles here deliberately avoid the package's grid machinery: membership
is a plain bounded search or a sieve, complements are box enumerations,
closures are tested point by point from their definitions, and a ring's
normalization is the cone of its extreme generators on its group lattice.
Expected values in the tests were computed with these oracles and then
frozen.  Where an oracle needs S itself at large points it asks
``ring.member``, which ``test_lattice`` checks against the bounded search.

Integral closures are read off Newton polyhedra: the integral closure of
I^n is the set of points of S in n times conv(I) + cone(S).  The limit
closure of a parameter ideal is reached through its colon chain at a
fixed index, or by a bounded search over the chain index.  Report text is
checked against the standard library's JSON encoder.

One helper is not independent: ``colength`` counts a 2-D ideal by the
package's own columns from its generators' moved corners (``cols``).
Tests use it to check the other counts, from the holes and in closed form,
and check it against the box enumeration on small cases.

The split slots as ideals (``lim_intersection``, ``split_slot``) and the
chain check point by point (``chain_by_points``) are the package's former
code, which built each slot, pulled out its minimal generators and tested
exponent vectors against the closure rules.  They are kept here as the
reference for the chain check, which reads facet-form values and column
arrays instead.
"""

import itertools
import json
import os
from math import gcd

import pytest

import hilbclose
from hilbclose import closures
from hilbclose.hilbert import CoefficientBundle, FiltrationKind
from hilbclose.ideals import MonomialIdeal
from hilbclose.lattice import (
    AffineSemigroup,
    _moved_corners,
    _stair_at,
    _stair_colength,
    _stair_corners,
    _staircase,
    vadd,
    vdot,
    vscale,
    vsub,
)


def child_env():
    """The environment for a child interpreter that imports this same hilbclose."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(hilbclose.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return env


def brute_searcher(gens):
    """Nonnegative-integer-combination search, bounded by the point itself,
    with one memo across the calls of the returned test."""
    gens = [tuple(g) for g in gens]
    memo = {}

    def rec(w):
        if all(c == 0 for c in w):
            return True
        if w in memo:
            return memo[w]
        memo[w] = False
        for g in gens:
            d = tuple(a - b for a, b in zip(w, g))
            if all(c >= 0 for c in d) and rec(d):
                memo[w] = True
                break
        return memo[w]

    def member(v):
        w = tuple(v)
        return all(c >= 0 for c in w) and rec(w)

    return member


def brute_member(gens, v):
    return brute_searcher(gens)(v)


def line_first(cols, axis, fixed):
    """First t >= 0 on line ``fixed`` of one coset along ``axis``, read off
    its column array, None if the line misses the up-set: column ``fixed``
    (axis 1) reads its entry, the last one past the array, and row
    ``fixed`` (axis 0) starts at the least column whose entry is at most
    ``fixed``."""
    if axis == 1:
        return cols[min(fixed, len(cols) - 1)]
    return next((m for m, t in enumerate(cols) if t is not None and t <= fixed), None)


def grid_first(eng, key, axis, fixed):
    """First t >= 0 with box[key] + (fixed, t) (axis order) in S, None if
    the line misses S (``line_first`` on the coset's column array)."""
    return line_first(eng.stair[key], axis, fixed)


def stabilization(eng, axis):
    """(S, consts) with grid_first(eng, key, axis, f) == consts[key] for
    every f >= S.  A column is constant from the coset's last column on,
    and a row from its first entry, the first corner's row, on, where it
    starts at the first column."""
    if axis == 1:
        return (max(len(cols) for cols in eng.stair.values()) - 1,
                {key: cols[-1] for key, cols in eng.stair.items()})
    firsts = {key: next(m for m, t in enumerate(cols) if t is not None)
              for key, cols in eng.stair.items()}
    return (max(eng.stair[key][m] for key, m in firsts.items()), firsts)


def brute_ideal_member(sgens, igens, v):
    return any(
        brute_member(sgens, tuple(a - b for a, b in zip(v, g)))
        for g in igens
        if all(a - b >= 0 for a, b in zip(v, g)))


def brute_complement(sgens, igens, box):
    """S-points inside [0, box]^d that are not in the ideal."""
    dim = len(next(iter(sgens)))
    member = brute_searcher(sgens)
    out = []
    for v in itertools.product(range(box + 1), repeat=dim):
        if member(v) and not any(member(vsub(v, g)) for g in igens):
            out.append(v)
    return sorted(out)


def parameter_sums(params, n):
    """The sums of n parameters, the generators of Q^n; they are pairwise
    incomparable, as the parameters lie on distinct extreme rays."""
    return [tuple(map(sum, zip(*c))) for c in itertools.combinations_with_replacement(params, n)]


def parameter_power(q, n):
    """Q^n as an ideal, generated by the sums of n parameters."""
    return MonomialIdeal(q.ring, parameter_sums(q.ordered_generators, n))


def cols(ideal, key):
    """The column array of coset ``key`` of a 2-D ideal: a split slot's
    own (``split_slot``), else the staircase of the Apéry corners that its
    generators move onto the coset."""
    if isinstance(ideal, StairIdeal):
        return ideal.stair[key]
    eng = ideal.ring._engine
    shifts = [(vdot(eng.lam1, g), vdot(eng.lam2, g)) for g in ideal.gens]
    return _staircase(_moved_corners(eng, key, shifts, eng.apery))


def complement(ideal):
    """S ∖ I for an m-primary ideal I, sorted, sieved in a box that holds it
    (``box_semigroup``): in 1-D below the least generator plus the
    conductor, in free Z^3 below the largest generator coordinate, and on a
    2-D ring below the corner past every coset's stored columns and largest
    entry, beyond which the column arrays of I and S agree."""
    ring, eng = ideal.ring, ideal.ring._engine
    if ring.kind == "num1":
        side = min(g[0] for g in ideal.gens) + eng.conductor
    elif ring.kind == "free3":
        side = max(map(max, ideal.gens))
    else:
        side = 0
        for key, ring_cols in eng.stair.items():
            own = cols(ideal, key)
            m1 = max(len(ring_cols), len(own))
            m2 = max(t for t in ring_cols + own if t is not None)
            side = max(side, *vadd(eng.box[key], vadd(vscale(m1, eng.g1), vscale(m2, eng.g2))))
    pts = box_semigroup(ring.generators, side)
    return sorted(v for v in pts if not any(vsub(v, g) in pts for g in ideal.gens))


def colength(ideal):
    """ell(R/I) of an m-primary ideal: by columns from its column arrays on
    a 2-D ring (``lattice._stair_colength``), else by ``complement``."""
    if ideal.ring.kind == "grid2":
        return _stair_colength(ideal.ring._engine, lambda key: cols(ideal, key))
    return len(complement(ideal))


def box_semigroup(sgens, box):
    """S ∩ [0, box]^d, sieved in order of coordinate sum."""
    dim = len(next(iter(sgens)))
    pts = {(0,) * dim}
    for v in sorted(itertools.product(range(box + 1), repeat=dim), key=sum):
        if any(vsub(v, g) in pts for g in sgens):
            pts.add(v)
    return pts


# ---------------------------------------------------------------------------
# lattices and the normalization

def in_lattice(basis, v):
    """Exact membership of integer vector ``v`` in the lattice with the
    triangular row basis ``basis``."""
    v = list(v)
    for row in basis:
        col = next(i for i, c in enumerate(row) if c != 0)
        if v[col] % row[col] != 0:
            return False
        q = v[col] // row[col]
        for i in range(len(v)):
            v[i] -= q * row[i]
    return not any(v)


def _det(rows):
    if len(rows) == 1:
        return rows[0][0]
    if len(rows) == 2:
        return rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]
    return sum((-1) ** j * rows[0][j] * _det([r[:j] + r[j + 1:] for r in rows[1:]])
               for j in range(len(rows)))


def basis_coords(basis, v):
    """(c, D) with v = (c_1 b_1 + ... + c_d b_d) / D, by Cramer's rule; D > 0."""
    basis = [tuple(b) for b in basis]
    det = _det(basis)
    sign = 1 if det > 0 else -1
    coords = [sign * _det(basis[:i] + [tuple(v)] + basis[i + 1:]) for i in range(len(basis))]
    return coords, abs(det)


def in_normalization(ring, w):
    """w in S̄ = cone ∩ ZS: nonnegative coordinates over the extreme
    generators, and on the group lattice."""
    coords, _ = basis_coords(ring.extreme_generators(), w)
    return min(coords) >= 0 and in_lattice(ring.group_lattice(), w)


def _parallelepiped(ring):
    """The points r of ZS in the half-open parallelepiped of the extreme
    generators; S̄ is the union of the r + N g_1 + ... + N g_d."""
    gens = ring.extreme_generators()
    top = [sum(c) for c in zip(*gens)]
    out = []
    for w in itertools.product(*(range(t + 1) for t in top)):
        coords, det = basis_coords(gens, w)
        if all(0 <= c < det for c in coords) and in_lattice(ring.group_lattice(), w):
            out.append(w)
    return out


def least_conductor(ring):
    """The least c in S, by coordinate sum and then lexicographically, with
    c + S̄ ⊆ S.  As S + g_i ⊆ S, c qualifies when c + r ∈ S for every point r
    of ``_parallelepiped``."""
    shifts = _parallelepiped(ring)
    for total in itertools.count():
        for c in itertools.product(range(total + 1), repeat=ring.dim):
            if sum(c) == total and all(ring.member(vadd(c, r)) for r in shifts):
                return c


def normalization_gaps(ring, box):
    """The points of S̄ ∖ S in [0, box]^d."""
    return [w for w in itertools.product(range(box + 1), repeat=ring.dim)
            if in_normalization(ring, w) and not ring.member(w)]


def finite_gaps(ring, box):
    """The points of S̄ ∖ S in [0, box]^d that lie on no gap ray: their line
    along each extreme generator meets S.  A line is followed through the
    gaps of the box; a point of S̄ past them inside the box is in S, and one
    outside the box is scanned for ``box`` more steps."""
    gaps = normalization_gaps(ring, box)
    inside = set(gaps)

    def meets(w, g, memo):
        path = []
        while w in inside and w not in memo:
            path.append(w)
            w = vadd(w, g)
        if w in memo:
            hit = memo[w]
        else:
            hit = max(w) <= box or any(ring.member(vadd(w, vscale(t, g)))
                                       for t in range(box + 1))
        memo.update(dict.fromkeys(path, hit))
        return hit

    memos = [(g, {}) for g in ring.extreme_generators()]
    return [w for w in gaps if all(meets(w, g, memo) for g, memo in memos)]


# ---------------------------------------------------------------------------
# Newton polyhedra

class RationalPolyhedron:
    """Intersection of halfspaces  <normal, x> >= offset  with integer data.

    Scaling by a positive integer multiplies offsets and fixes normals (the
    recession cone).
    """

    def __init__(self, dim, halfspaces):
        self.dim = dim
        seen = {}
        for normal, offset in halfspaces:
            normal = tuple(int(c) for c in normal)
            # keep the tightest offset per normal
            if normal not in seen or seen[normal] < offset:
                seen[normal] = int(offset)
        self.halfspaces = tuple(sorted(seen.items()))

    def contains(self, point, scale=1):
        """Exact test of ``point`` against the ``scale``-fold polyhedron."""
        return all(vdot(n, point) >= scale * h for n, h in self.halfspaces)

    def scale(self, n):
        if n < 1:
            raise ValueError("scale must be a positive integer")
        return RationalPolyhedron(self.dim, [(nm, n * h) for nm, h in self.halfspaces])

    def __eq__(self, other):
        return isinstance(other, RationalPolyhedron) and self.halfspaces == other.halfspaces

    def __repr__(self):
        return "RationalPolyhedron(%r)" % (list(self.halfspaces),)


def _primitive(v):
    g = 0
    for c in v:
        g = gcd(g, abs(c))
    return tuple(v) if g == 0 else tuple(c // g for c in v)


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


def newton_polyhedron(points, ring):
    """conv(points) + cone(S) as a halfspace list (exact).

    In dimension 2 the normals are the cone's and those of the hull edges
    that face away from the origin; in free Z^3 the axes', those of the
    planes through three points, and those of the planes through two points
    and an axis direction.
    """
    pts = [tuple(int(c) for c in p) for p in points]
    if not pts:
        raise ValueError("newton_polyhedron requires at least one point")
    if ring.dim == 1:
        return RationalPolyhedron(1, [((1,), min(p[0] for p in pts))])
    if ring.dim == 2:
        g1, g2 = ring.extreme_generators()
        normals = list(ring.cone_halfspaces())
        hull = _hull2(pts)
        for p, q in zip(hull, hull[1:] + hull[:1]):
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
            if vdot(nm, g1) >= 0 and vdot(nm, g2) >= 0:
                normals.append(nm)
        return RationalPolyhedron(2, [(nm, min(vdot(nm, p) for p in pts)) for nm in normals])
    axes = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    normals = set(axes)

    def cross3(u, v):
        return (u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2], u[0] * v[1] - u[1] * v[0])

    def consider(n):
        if any(n) and all(c >= 0 for c in n):
            normals.add(_primitive(n))
        elif any(n) and all(c <= 0 for c in n):
            normals.add(_primitive(vscale(-1, n)))

    for a, b in itertools.combinations(pts, 2):
        for ax in axes:
            consider(cross3(vsub(b, a), ax))
    for a, b, c in itertools.combinations(pts, 3):
        consider(cross3(vsub(b, a), vsub(c, a)))
    return RationalPolyhedron(3, [(nm, min(vdot(nm, p) for p in pts)) for nm in sorted(normals)])


def integral_oracle(ideal):
    """The test (n, v) -> v in the integral closure of I^n: v in S and in n
    times the Newton polyhedron of I's generators."""
    poly = newton_polyhedron(ideal.gens, ideal.ring)
    return lambda n, v: ideal.ring.member(v) and poly.contains(v, n)


def integral_colengths(q, n_max):
    """ell(R / integral closure of Q^n), n = 1..n_max, for a parameter ideal Q:
    the points of S outside n times its Newton polyhedron.  They lie in the
    simplex conv(0, n u_1, ..., n u_d), so a box of side n_max times the
    largest parameter coordinate holds them, sieved once.  A point of S
    lies in every cone halfspace (offset 0), and in n times the others while
    n is at most its value over the offset."""
    poly = newton_polyhedron([tuple(u) for u in q.ordered_generators], q.ring)
    box = n_max * max(max(u) for u in q.ordered_generators)
    levels = [min(vdot(nm, v) // h for nm, h in poly.halfspaces if h > 0)
              for v in box_semigroup(q.ring.generators, box)]
    return [sum(1 for level in levels if level < n) for n in range(1, n_max + 1)]


def rule_member(rule, k, v):
    """v in the k-th closure of a ``ClosureRule``: v in S, and the rule's
    one inequality at v's facet-form values (``ClosureRule.contains``)."""
    return rule.ring.member(v) and rule.contains(k, [[vdot(lam, v) for lam, _ in rule.forms]])


def rule_lengths_by_line(rule, n_max):
    """The colengths of a 2-D or free-Z^3 ``ClosureRule``'s k-th closures,
    k = 1..n_max+1, one term per line and k.  Column m1 of 2-D coset
    (k1, k2) holds S from t0 = ``grid_first(eng, key, 1, m1)`` on; free-Z^3
    line (l1, l2) holds the values of the last form from t0 = 0 on, the
    first two forms' values being l1 and l2.  The rule reads
    alpha*k - beta <= gamma*t on a line, so it adds max(0, ceil((alpha*k -
    beta) / gamma) - t0) points.  Lines with l1 >= (n_max+1)*a1, or in
    free Z^3 l2 >= (n_max+1)*a2, add none.  This is the count that the
    floor sums of ``ClosureRule.lengths`` replaced, kept as their
    reference."""
    top = n_max + 1
    if rule.ring.kind == "free3":
        (_, a1), (_, a2), (_, a) = rule.forms
        if rule.tight:
            # floor(l3/a) >= k - floor(l1/a1) - floor(l2/a2)
            alpha, gamma = a, 1
            beta = lambda l1, l2: (l1 // a1 + l2 // a2) * a
        else:
            # l1/a1 + l2/a2 + l3/a >= k, times a1*a2*a
            alpha, gamma = a1 * a2 * a, a1 * a2
            beta = lambda l1, l2: (l1 * a2 + l2 * a1) * a
        lines = [(beta(l1, l2), 0) for l1 in range(top * a1) for l2 in range(top * a2)]
    else:
        eng = rule.ring._engine
        (_, a1), (_, a) = rule.forms
        if rule.tight:
            # floor(lam2/a) >= k - floor(lam1/a1)
            alpha, gamma = a, eng.D2
            beta = lambda l1, l2: (l1 // a1) * a + l2
        else:
            # lam1/a1 + lam2/a >= k, times a1*a
            alpha, gamma = a1 * a, eng.D2 * a1
            beta = lambda l1, l2: l1 * a + l2 * a1
        lines = []
        for k1, k2 in eng.box:
            for m1 in range(-(-(top * a1 - k1) // eng.D1)):
                t0 = grid_first(eng, (k1, k2), 1, m1)
                if t0 is not None:
                    lines.append((beta(k1 + m1 * eng.D1, k2), t0))
    return [sum(max(0, -((b - alpha * k) // gamma) - t0) for b, t0 in lines)
            for k in range(1, top + 1)]


# ---------------------------------------------------------------------------
# limit closures, split intersections and tight closures of parameter ideals

def tight_member(q, k, v):
    """v in Q^k S̄ ∩ S: v in S and v - sum of k parameters in S̄ (2-D)."""
    u1, u2 = q.ordered_generators
    return q.ring.member(v) and any(
        in_normalization(q.ring, vsub(v, vadd(vscale(a, u1), vscale(k - a, u2))))
        for a in range(k + 1))


def tight_colengths(q, n_max):
    """ell(R / (Q^k)*), k = 1..n_max, for a 2-D parameter ideal Q: the
    points of S outside Q^k S̄ (``tight_member``).  A point x*u1 + y*u2
    with x >= k or y >= k lies in Q^k S̄ (take off k*u1 or k*u2), so the
    points outside lie in the parallelogram spanned by k*u1 and k*u2, inside
    a box of side n_max times the largest coordinate of u1 + u2.  S̄ in the box is sieved once, and
    the points still inside at k - 1 are tested at k, as the closures nest."""
    u1, u2 = q.ordered_generators
    box = n_max * max(vadd(u1, u2))
    pts = box_semigroup(q.ring.generators, box)
    normal = {w for w in itertools.product(range(box + 1), repeat=2)
              if in_normalization(q.ring, w)}
    inside, out = pts, []
    for k in range(1, n_max + 1):
        inside = {v for v in inside
                  if any(vsub(v, vadd(vscale(a, u1), vscale(k - a, u2))) in normal
                         for a in range(k + 1))}
        out.append(len(pts) - len(inside))
    return out


def limit_chain_member(q, t, v):
    """v in the t-th colon (u1^(t+1), ..., ud^(t+1)) : (u1...ud)^t of the
    limit-closure chain: v in S with v + t*(u1 + ... + ud) - (t+1)*u_i in S
    for some i."""
    ring = q.ring
    shifted = vadd(v, vscale(t, tuple(map(sum, zip(*q.ordered_generators)))))
    return ring.member(v) and any(ring.member(vsub(shifted, vscale(t + 1, u)))
                                  for u in q.ordered_generators)


def limit_member_by_search(q, v, t_max):
    """v in S with v - u_i + t*u_j in S for some i, j != i and t <= t_max (2-D)."""
    ring = q.ring
    u1, u2 = q.ordered_generators
    return ring.member(v) and any(
        ring.member(vadd(vsub(v, ui), vscale(t, uj)))
        for ui, uj in ((u1, u2), (u2, u1)) for t in range(t_max + 1))


def compositions(total, parts):
    """All compositions of ``total`` into ``parts`` positive entries, lex order."""
    if parts == 1:
        return [(total,)] if total >= 1 else []
    out = []
    for first in range(1, total - parts + 2):
        for rest in compositions(total - first, parts - 1):
            out.append((first,) + rest)
    return out


def split_meet_member(q, total, v):
    """v in the limit closure of every split Q(alpha), |alpha| = total.  Each
    closure is the colon chain at t = 48, which reaches it on the rings the
    tests draw, so the oracle shares no code with the closed form."""
    return all(limit_chain_member(q.split(alpha), 48, v)
               for alpha in compositions(total, q.ring.dim))


class StairIdeal(MonomialIdeal):
    """A split slot as an ideal: its minimal generators and, whole, its
    column arrays ``stair``, which ``member`` reads."""

    def __init__(self, ring, gens, stair):
        super().__init__(ring, gens)
        self.stair = stair

    def member(self, v):
        eng = self.ring._engine
        return _stair_at(eng, self.stair, vdot(eng.lam1, v), vdot(eng.lam2, v))


def lim_intersection(q, total):
    """Intersection of the limit closures of the splits Q(alpha), |alpha| = total.

    In a Cohen-Macaulay ring it is the power Q^(total - d + 1): the
    parameters form a regular sequence, so every Q(alpha)^lim is Q(alpha),
    and flatness carries the intersection of the monomial ideals (X^alpha)
    to that of the Q(alpha).  Otherwise the ring is a 2-D grid and the
    intersection is Q^(total - 1) S' ∩ S (``split_slot``).
    """
    d = q.ring.dim
    if total < d:
        raise ValueError("split total must be at least the ring dimension")
    if q.ring.is_cm:
        return parameter_power(q, total - d + 1)
    return split_slot(q, total - 1)


def split_slot(q, k):
    """Q^k S' ∩ S for a parameter ideal of a 2-D ring, from the package's
    column arrays (``closures._slot``).  Its generators are the corners v
    with no v - g on the arrays, g a ring generator other than g1 and g2:
    v - g1 and v - g2 lie on v's coset below the corner."""
    ring, eng, stair = q.ring, q.ring._engine, closures._slot(q, k)
    (g1x, g1y), (g2x, g2y) = eng.g1, eng.g2
    # v - g on integers: its lam values are those of v minus those of g
    offs = [(vdot(eng.lam1, g), vdot(eng.lam2, g)) for g in ring.generators
            if g != eng.g1 and g != eng.g2]
    gens = []
    for key, key_cols in stair.items():
        rx, ry = eng.box[key]
        for m1, m2 in _stair_corners(key_cols):
            l1, l2 = key[0] + m1 * eng.D1, key[1] + m2 * eng.D2
            if not any(_stair_at(eng, stair, l1 - a, l2 - b) for a, b in offs):
                gens.append((rx + m1 * g1x + m2 * g2x, ry + m1 * g1y + m2 * g2y))
    return StairIdeal(ring, gens, stair)


CHAIN_REASONS = ("inclusion", "split slots not nested",
                 "split intersection not inside tight closure")


def chain_by_points(ring, q, n_max, characteristic=None):
    """(inclusions_ok, lim_chain_nested, failures) of the inclusion part of
    ``theorems.check_nonnegativity_chain``, as the package once checked
    it: Q^n by the sums of n parameters, a non-CM ring's split slot n as an
    ideal (``lim_intersection``) with Q^n tested against it and its
    minimal generators tested in turn, every test on exponent vectors
    (``rule_member`` and ``MonomialIdeal.member``)."""
    bundle = CoefficientBundle(ring, q, n_max=n_max, characteristic=characteristic)
    integral = bundle.filtration(FiltrationKind.INTEGRAL).rule
    tight = bundle.filtration(FiltrationKind.TIGHT).rule if characteristic else None
    inclusions_ok = nested = True
    failures, prev = [], None
    for n in range(1, n_max + 1):
        gens = parameter_sums(q.ordered_generators, n)
        if ring.is_cm:
            ok, up = True, MonomialIdeal(ring, gens)
        else:
            up = lim_intersection(q, n + 1)
            ok = all(up.member(g) for g in gens)
            gens = up.gens
        ok = ok and all(rule_member(integral, n, g) for g in gens)
        if tight is not None and ok and not all(rule_member(tight, n, g) for g in gens):
            ok = False
            failures.append({"n": n, "reason": CHAIN_REASONS[2]})
        if not ok:
            inclusions_ok = False
            failures.append({"n": n, "reason": CHAIN_REASONS[0]})
        if prev is not None and not all(prev.member(g) for g in gens):
            nested = inclusions_ok = False
            failures.append({"n": n, "reason": CHAIN_REASONS[1]})
        prev = up
    return inclusions_ok, nested, failures


def _decimal_ints(value):
    """``value`` with every int but a bool replaced by its decimal string."""
    if isinstance(value, bool) or value is None or isinstance(value, str):
        return value
    if isinstance(value, int):
        return str(value)
    if isinstance(value, (list, tuple)):
        return [_decimal_ints(v) for v in value]
    return {k: _decimal_ints(v) for k, v in value.items()}


def json_report(value):
    """Report text by the standard library's encoder, which the package's
    one-pass writer (``formats.dumps_report``) must reproduce byte for byte."""
    return json.dumps(_decimal_ints(value), sort_keys=True, indent=2) + "\n"




REMARK_GENS = [(1, 0), (1, 1), (0, 2), (0, 3)]


@pytest.fixture
def remark_ring():
    """The 2-dimensional non-normal domain with a one-dimensional normalization cokernel."""
    return AffineSemigroup(2, REMARK_GENS)


@pytest.fixture
def free2():
    return AffineSemigroup(2, [(1, 0), (0, 1)])


@pytest.fixture
def free3():
    return AffineSemigroup(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)])


@pytest.fixture
def cm_ring():
    """Cohen-Macaulay but non-regular: first coordinates from the (2,3) numerical semigroup."""
    return AffineSemigroup(2, [(2, 0), (3, 0), (0, 1)])
