"""Closure operations on monomial ideals: integral, limit, split-intersection
and tight.

The integral closure of Q^k is the rule given by its Newton polyhedron,
k conv(u_i) + cone.  The other three are one contraction Q^k T ∩ S from a
module-finite Cohen-Macaulay overring T of the ring; none of them builds T.
The split slot k (the split intersection over |alpha| = k + d - 1, of which
Q^lim is slot 1) takes T = S', the S2-ification (Trung and Hoa, Trans. AMS
298, 1986), and brackets the big-CM closure of Q^k from below, with the
integral closure above.  The tight closure (Q^k)* takes T = S̄, the
normalization: k[S̄] is normal toric, hence F-regular (Hochster and Huneke,
JAMS 3, 1990), so (Q^k)* = Q^k S̄ ∩ S in every characteristic p.  In a
Cohen-Macaulay ring the parameters form a regular sequence, so
Z[X1..Xd] -> R, X_i -> u_i, is flat and the split slot is Q^k; only a 2-D
grid can fail to be CM.  There S' is one quadrant per coset of
Z g1 + Z g2, at the least m1 and m2 of the coset's Apéry corners
(``s2_corners``), so Q^k S' is on each coset the union of k + 1
quadrants, and the slot's column array is built from their corners, moved
as the power's Apéry corners are (``lattice._moved_corners``), and the
coset's Apéry corners in closed form (``_slot_stair``).

For the powers of a parameter ideal, both the integral and the tight
closure are rules in the cone's facet forms (``ClosureRule``), and no
ideal of either is built: the fits count their lengths from the rules, along
the ray of the last facet form (one line per Apéry class of a numerical
semigroup, one floor sum per stable residue class of 2-D columns and per
free-Z^3 row), and the chain check tests facet-form values against them,
one integer inequality per point (``ClosureRule.contains``).  The split
lengths are counted from the holes S' ∖ S (``split_lengths``), since k[S']
is CM, and so are the ordinary lengths of a non-CM ring
(``ordinary_lengths``): Q^n S' is Q^n and the holes moved by the sums of n
parameters.  No split slot is built as an ideal.  The chain check reads
slot k in facet-form values (``SplitSlot``): on a CM ring it is Q^k, held
by the sums of k parameters; otherwise it is its column arrays, built once
per k and kept on the ideal (``_slot``), and tested corner by corner.  The
split certificate counts a slot's colength by columns from the same
arrays (``lattice._stair_colength``), and a CM ring's by the closed forms
of ``ParameterIdeal.power_colength``.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from itertools import accumulate, product, repeat
from math import comb, gcd, inf, prod
from operator import add, floordiv, mul, sub

from .errors import NotMPrimaryError, UncertifiedError
from .ideals import ParameterIdeal, _power_shifts, _steps
from .lattice import (_moved_corners, _stair_at, _stair_colength, _stair_corners, _stair_within,
                      _staircase)

# ---------------------------------------------------------------------------
# the integral and tight rules of a parameter ideal's powers

class ClosureRule:
    """The integral closures of the powers of a parameter ideal Q or, with
    ``tight``, their tight closures (Q^k)* = Q^k S̄ ∩ S, as rules on S.

    Let lam_i be the facet forms of the cone (``cone_halfspaces``) and a_i
    the value of lam_i on the parameter u_i off facet i; an m-primary ideal
    with d generators has one on each ray.  For s in S,

        s in the integral closure of Q^k  iff  sum_i lam_i(s) / a_i >= k,
        s in (Q^k)*                       iff  sum_i floor(lam_i(s) / a_i) >= k:

    k conv(u_i) plus the cone is the Newton polyhedron of Q^k, and s lies in
    Q^k S̄ when some b_1 + ... + b_d = k has b_i <= floor(lam_i(s) / a_i).
    ``lengths`` counts the colengths of both from the rule, by one weighted
    floor sum per free-Z^3 row and per residue class of stable 2-D columns.
    """

    def __init__(self, q, tight=False):
        if not isinstance(q, ParameterIdeal):
            raise NotMPrimaryError("closure rules are taken of parameter-ideal powers")
        self.ring = q.ring
        self.tight = tight
        self._steps = _steps(q)
        self.forms = list(zip(self.ring.cone_halfspaces(), self._steps))
        self._prod = prod(self._steps)
        self._weights = [self._prod // a for a in self._steps]
        self._counted = []  # the lengths at k = 1, 2, ... counted so far

    def contains(self, k, points):
        """Whether the k-th closure holds the points of S whose facet-form
        values ``points`` lists: the rule's one integer inequality at each.
        The rule is read one facet form at a time over all points, and the
        least value is compared with the bound once.  An empty list passes."""
        if not points:
            return True
        if self.tight:
            op, factors, bound = floordiv, self._steps, k
        else:
            op, factors, bound = mul, self._weights, k * self._prod
        (col, f), *others = zip(zip(*points), factors)
        values = map(op, col, repeat(f))
        for col, f in others:
            values = map(add, values, map(op, col, repeat(f)))
        return min(values) >= bound

    def lengths(self, n_max):
        """The colengths of the k-th closures, k = 1..n_max+1, from the rule.

        S runs in lines along the ray of the last form at fixed values of
        the others, from a first index t0 on: a numerical semigroup's class
        r modulo amin has lam = apery[r] + t*amin and t0 = 0; column m1 of
        2-D coset (k1, k2) has lam1 = k1 + m1*D1, lam2 = k2 + t*D2 and t0
        its entry in the coset's column array; free-Z^3 column (x, y) has
        z = t and t0 = 0.  The rule reads alpha*k <= w + c*lam on a line, w
        fixed per line (0 with one form), so with b = w + c*lam at t0 the
        line adds max(0, ceil((alpha*k - b) / gamma)) points, gamma = c
        times the step of lam.  Lines on which the other forms alone reach
        k (lam1 >= k*a1, x >= k*ax or y >= k*ay) add none.  The classes and
        the 2-D columns before the coset's last stored one add their terms
        one by one.  From that column on t0 is the coset's last entry and b
        linear in m1 on each class mod the period of floor(lam1 / a1) (1 for
        the integral rule), so the terms of a class are positive on an
        initial run and add up to one ``_floor_sum``.  So do the lines of a
        free-Z^3 row x, on which b is linear in y (on each class mod ay for
        the tight rule).  Under the tight rule w depends on x // ax and
        y // ay alone, so the ax*ay classes of the rows of one block of ax
        are equal runs: one run stands for them, counted with weight ax*ay.

        w is a sum of one term per other form, lam_i * P/a_i under the
        integral rule and a * floor(lam_i / a_i) under the tight one, taken
        term by term.  The lines and runs are sorted by b once, and at each
        k only those with b < alpha*k are visited: the others add nothing.
        No length depends on n_max, so the counted ones are kept on the rule
        and a later call with a larger n_max counts only the new k.
        """
        ring, top, counted = self.ring, n_max + 1, self._counted
        if len(counted) >= top:
            return counted[:top]
        *rest, (_, a) = self.forms
        if self.tight:
            # floor(lam/a) >= k - floor(w/a): w's term floor(lam_i/a_i) * a
            alpha, c, terms = a, 1, [(b, a) for _, b in rest]
        else:
            # lam * P/a >= k*P - w: w's term lam_i * P/a_i
            alpha, c, terms = self._prod, self._prod // a, [(1, self._prod // b) for _, b in rest]
        lines, runs = [], []  # b per line; (b at the first line, slope, weight) per run
        if ring.kind == "num1":
            eng = ring._engine
            step, lines = eng.amin, [c * x for x in eng.apery.values()]
        elif ring.kind == "grid2":
            eng = ring._engine
            ((_, a1),), ((div, mult),), step, D1 = rest, terms, eng.D2, eng.D1
            period = a1 // gcd(D1, a1) if self.tight else 1
            rise = period * D1 // div * mult  # w(lam1 + period*D1) - w(lam1)
            for (k1, k2), cols in eng.stair.items():
                # past the coset's last stored column t0 is its last value
                stable = len(cols) - 1
                for m1 in range(min(stable, -(-(top * a1 - k1) // D1))):
                    if cols[m1] is not None:
                        lines.append((k1 + m1 * D1) // div * mult + c * (k2 + cols[m1] * step))
                last = c * (k2 + cols[-1] * step)
                for l1 in range(k1 + stable * D1, k1 + (stable + period) * D1, D1):
                    runs.append((l1 // div * mult + last, rise, 1))
        else:
            # the rows of a block of dx = ax (tight) or 1 (integral) are
            # one run of slope w(x, dy) - w(x, 0), with weight dx*dy
            step, ((_, ax), _), ((dx, mx), (dy, my)) = 1, rest, terms
            runs = [(i * mx, my, dx * dy) for i in range(top * ax // dx)]
        lines.sort()
        runs.sort()
        starts = [b for b, _, _ in runs]
        gamma = c * step
        for k in range(len(counted) + 1, top + 1):
            ak = alpha * k
            n = sum(-((b - ak) // gamma) for b in lines[:bisect_left(lines, ak)])
            for b, slope, weight in runs[:bisect_left(starts, ak)]:
                # ceil((alpha*k - b - slope*j) / gamma) > 0 for j < count
                n -= weight * _floor_sum(-((b - ak) // slope), gamma, slope, b - ak)
            counted.append(n)
        return counted[:top]


def _floor_sum(n, m, a, b):
    """sum(floor((a*i + b) / m) for i in range(n)) for m > 0, by Euclid-style
    reduction: terms with 0 <= a, b < m reduce to the sum with m and a
    swapped over the points under the line (the standard lattice-point count
    in a right trapezoid)."""
    total = 0
    while True:
        total += (a // m) * (n * (n - 1) // 2) + (b // m) * n
        a, b = a % m, b % m
        y = a * n + b
        if y < m:
            return total
        n, b, m, a = y // m, y % m, a, m


# ---------------------------------------------------------------------------
# contractions Q^k S' ∩ S: limit closure and split intersections

class SplitSlot:
    """Split slot k, Q^k S' ∩ S, as the chain check reads it: in
    facet-form values, generated by ``corners``.

    On a CM ring the slot is Q^k, whose corners are the sums of k
    parameters (``_power_shifts``), and l lies in it when l - h ∈ S for one
    of them: with no search when l is a sum of k or k + 1 parameters.
    Otherwise the slot is its column arrays (``_slot``) and their corners,
    and lies in S or another slot when each coset's corners lie on its
    array there (``lattice._stair_within``).
    """

    def __init__(self, q, k):
        self.eng = eng = q.ring._engine
        self.stair = None if q.ring.is_cm else _slot(q, k)
        if self.stair is None:
            self.corners = _power_shifts(q, k)
            self._known = set(self.corners).union(_power_shifts(q, k + 1))
        else:
            self._grid = {key: _stair_corners(cols) for key, cols in self.stair.items()}
            self.corners = [(k1 + m1 * eng.D1, k2 + m2 * eng.D2)
                            for (k1, k2), pts in self._grid.items() for m1, m2 in pts]

    def holds(self, l):
        """Whether the point with facet-form values ``l`` lies in the slot."""
        if self.stair is not None:
            return _stair_at(self.eng, self.stair, *l)
        return l in self._known or any(self.eng.member_at(tuple(map(sub, l, h)))
                                       for h in self.corners)

    def in_ring(self):
        """Whether the slot lies in S."""
        if self.stair is None:
            return all(map(self.eng.member_at, self.corners))
        return _stair_within(self._grid, self.eng.stair)

    def within(self, other):
        """Whether the slot lies in slot ``other`` of the same ideal."""
        if self.stair is None:
            return all(map(other.holds, self.corners))
        return _stair_within(self._grid, other.stair)


def _slot(q, k):
    """The column arrays of slot k (``_slot_stair``), built once per q and
    k and kept on q for the chain check and the split certificate."""
    slots = q._cache.setdefault("slots", {})
    if k not in slots:
        slots[k] = _slot_stair(q, k)
    return slots[k]


def _slot_stair(q, k):
    """The column array of Q^k S' ∩ S on each coset of a 2-D ring.

    S' is one quadrant per coset, at its corner (``s2_corners``), so Q^k S'
    is there the union of the quadrants at the S' corners that
    i*u + (k - i)*v moves onto it (``_moved_corners``), and its meet with S
    the up-set generated by max(p, c), p the coset's Apéry corners and c
    those moved corners.
    """
    eng, shifts = q.ring._engine, _power_shifts(q, k)
    return {key: _staircase([(p1 if p1 > c1 else c1, p2 if p2 > c2 else c2) for (p1, p2), (c1, c2)
                             in product(pts, _moved_corners(eng, key, shifts, eng.s2_corners))])
            for key, pts in eng.apery.items()}


def split_lengths(q, n_max):
    """The colengths of the split slots Q^k S' ∩ S, k = 1..n_max+1, counted
    from the holes.

    k[S'] is a module-finite CM overring, so S' ∖ Q^k S' has e(Q) C(k+d-1, d)
    points, and slot k misses besides them the holes h ∈ S' ∖ S with
    ord(h) < k, ord(h) the largest N with h ∈ Q^N S'.  The first and the
    last length must equal those counted by columns from the slot's
    staircase (``_split_colength``): the first is then ell(S'/QS') = e(Q),
    which by Serre holds iff k[S'] is CM, and the last checks the holes.
    On a CM ring S' = S has no holes, the check is colength(Q) = e(Q), and
    the ordinary lengths are the same: the sequence is kept on q.
    """
    key = ("split_lengths", n_max)
    if key not in q._cache:
        out = _split_counts(q, n_max)
        if q.ring.is_cm:
            counted = [(0, q.colength())]
        else:
            counted = [(n, _split_colength(q, n + 1)) for n in (0, n_max)]
        _certify("split", out, counted)
        q._cache[key] = out
    return q._cache[key]


def ordinary_lengths(q, n_max):
    """ell(R/Q^k), k = 1..n_max+1, for a parameter ideal (u, v) of a 2-D
    ring, u on g1's ray and v on g2's, with no power built.

    S' = S ⊔ H, H the holes, so Q^k S' = Q^k ∪ {h + i*u + j*v : h ∈ H,
    i + j = k}, and S ∖ Q^k is S ∖ Q^k S' and E_k = (Q^k S' ∩ S) ∖ Q^k.  A
    point p of E_k is counted at its representation h + i*u + j*v with the
    largest i: with M(h) and T(h) from ``_hole_table``, the one with
    i < T(h), j < M(h) and p no hole.  j >= M(h) would give p a larger i or
    put it in Q^k, and i >= T(h) would put it in Q^k.  So #E_k counts the
    points with i + j = k of one box [0, T(h)) x [0, M(h)) per hole, less
    the holes hit.  The first length must equal colength(Q), and the last
    the colength of Q^(n_max+1), counted by columns from its moved Apéry
    corners (``ParameterIdeal.power_colength``).
    """
    top = n_max + 1
    # second differences of the diagonal counts: the generating function of
    # a box is (1 - x^T)(1 - x^M) / (1 - x)^2
    corners, hits_in = [0] * (top + 1), [0] * (top + 1)
    for _, m, t, hits in _hole_table(q):
        for at, sign in ((0, 1), (t, -1), (m, -1), (t + m, 1)):
            if at <= top:
                corners[at] += sign
        for i, j in hits:
            if i < t and j < m and i + j <= top:
                hits_in[i + j] += 1
    extra = [e - h for e, h in zip(accumulate(accumulate(corners)), hits_in)]
    out = [s + e for s, e in zip(_split_counts(q, n_max), extra[1:])]
    _certify("ordinary", out, [(0, q.colength()), (n_max, q.power_colength(top))])
    return out


def _certify(kind, out, counted):
    for n, c in counted:
        if out[n] != c:
            raise UncertifiedError("%s length %d at n=%d, counted %d (internal bug)"
                                   % (kind, out[n], n, c))


def _split_counts(q, n_max):
    """e(Q) C(n+d, d) less the holes h of order at most n, n = 0..n_max
    (``_hole_orders``)."""
    e, d, orders = q.multiplicity(), q.ring.dim, _hole_orders(q)
    return [e * comb(n + d, d) - bisect_right(orders, n) for n in range(n_max + 1)]


def _hole_orders(q):
    """The sorted ord(h) of the holes h ∈ S' ∖ S, kept on q.  S' + S ⊆ S',
    so the (i, j) with h - i*u - j*v in S' form a down-set, and one walk
    along its staircase, j falling as i rises, passes the largest i + j."""
    if "hole_orders" not in q._cache:
        orders = []
        if not q.ring.is_cm:
            a, b, in_s2 = _hole_frame(q)
            for h1, h2 in q.ring._engine.s2_holes:
                best, j = 0, h2 // b
                for i in range(h1 // a + 1):
                    while j >= 0 and not in_s2(h1 - i * a, h2 - j * b):
                        j -= 1
                    if j < 0:
                        break
                    best = max(best, i + j)
                orders.append(best)
        q._cache["hole_orders"] = sorted(orders)
    return q._cache["hole_orders"]


def _split_colength(q, k):
    """ell(R / Q^k S' ∩ S), counted by columns from its arrays (``_slot``)."""
    return _stair_colength(q.ring._engine, _slot(q, k).__getitem__)


def _hole_frame(q):
    """The holes' grid for a 2-D parameter ideal (u, v), u and v on g1's
    and g2's rays: (a, b, in_s2), u = (a, 0) and v = (0, b) in lam values
    and in_s2 the test of S' by lam values.  S' on the coset of l is
    {l >= its corner}."""
    eng = q.ring._engine
    (d1, d2), corners = (eng.D1, eng.D2), eng.s2_corners
    a, b = _steps(q)

    def in_s2(l1, l2):
        [(c1, c2)] = corners[l1 % d1, l2 % d2]
        return l1 // d1 >= c1 and l2 // d2 >= c2

    return a, b, in_s2


def _hole_table(q):
    """(h, M(h), T(h), hits) for each hole h ∈ S' ∖ S of a 2-D ring, h in
    lam values.  M is the least t >= 1 with h - t*(u - v) in S', T the
    least s >= 1 with h + s*(u - v) in S, either inf if lam1 or lam2 goes
    negative first, and hits the pairs (i, j) with h + i*u + j*v a hole.
    Such a hole shares h's class mod (a, b), so each class is searched on
    its own."""
    eng = q.ring._engine
    a, b, in_s2 = _hole_frame(q)
    classes = {}
    for h1, h2 in eng.s2_holes:
        classes.setdefault((h1 % a, h2 % b), []).append((h1 // a, h2 // b))
    out = []
    for (r1, r2), pts in classes.items():
        for i0, j0 in pts:
            h1, h2 = r1 + i0 * a, r2 + j0 * b
            m = next((t for t in range(1, i0 + 1) if in_s2(h1 - t * a, h2 + t * b)), inf)
            t = next((s for s in range(1, j0 + 1)
                      if _stair_at(eng, eng.stair, h1 + s * a, h2 - s * b)), inf)
            hits = [(i - i0, j - j0) for i, j in pts if i >= i0 and j >= j0]
            out.append(((h1, h2), m, t, hits))
    return out
