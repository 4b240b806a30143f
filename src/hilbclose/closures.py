"""Closure operations on monomial ideals: integral, limit, split-intersection,
Frobenius bracket powers and tight-closure candidates.

Integral closures come from Newton polyhedra, limit closures from their
closed form S ∩ ⋃_i (u_i + S_{w_i}), S_w the localization of S at w.  The
split intersections follow one rule per ring.  In a Cohen-Macaulay ring the
parameters form a regular sequence, so Q(alpha)^lim = Q(alpha) and, the map
Z[X1..Xd] -> R, X_i -> u_i, being flat, slot k is the ordinary power Q^k.
Only a 2-D grid can fail to be CM; there slot k is {s : A(s) + B(s) >= k}
(``_LimUp``), of which Q^lim is slot 1.  The big-CM closure of a power is
never computed directly (no such algebra is constructed); it is bracketed
between the split intersection below and the integral closure above, and in
characteristic p additionally by the Frobenius candidate.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import NotMPrimaryError, UncertifiedError, UnsupportedRingError
from .ideals import (
    MonomialIdeal,
    ParameterIdeal,
    _FrobUp,
    _IdealUp,
    _PolyUp,
    extract_ideal,
    ideal_power,
)
from .lattice import ExponentVector, _stair_profile, vadd, vdot, vscale, vsub

# ---------------------------------------------------------------------------
# integral closure

def integral_closure(ideal):
    """Lattice points of the Newton polyhedron of the generators, inside S."""
    return integral_closure_power(ideal, 1)


def integral_closure_power(ideal, n):
    """The integral closure of the n-th power, via the n-scaled polyhedron."""
    if n < 1:
        raise ValueError("power must be >= 1")
    ring = ideal.ring
    # free-Z^3 extraction bounds its box by pure powers on the x and y axes;
    # 2-D extraction needs none and also closes non-m-primary ideals
    if ring.dim == 3 and not ideal.is_m_primary:
        raise NotMPrimaryError("closure extraction in dimension 3 needs an m-primary ideal")
    poly = ring.newton_polyhedron([tuple(g) for g in ideal.min_generators])
    seed = tuple(ideal.min_generators[0].scaled(n))
    return extract_ideal(ring, _PolyUp(ring, poly, n, seed))


# ---------------------------------------------------------------------------
# limit closure

class _LimUp:
    """{s ∈ S : A(s) + B(s) >= k} for a 2-D parameter ideal (u1, u2), u1 on
    g2's ray: A(s) is the largest a <= k with s - a*u1 in S_u2, B(s) the
    largest b <= k with s - b*u2 in S_u1, S_w the localization S - N w.  As
    s ∈ (Q(a1, a2))^lim iff a1 <= A(s) or a2 <= B(s), order 1 is Q^lim and
    order N - 1 the split intersection over |alpha| = N.  On a line along a
    ray the count of the parameter off that ray is a constant c, not falling
    from line to line, and the other count reaches k - c from one index on."""

    def __init__(self, ring, q, k=1):
        self.ring = ring
        self._eng = eng = ring._engine
        u1, u2 = map(tuple, q.ordered_generators)
        if vdot(eng.lam2, u1) == 0:
            u1, u2 = u2, u1
        # per axis, the parameter off the ray along that axis, and its lam values
        self._off = (u1, u2)
        self._lams = [(vdot(eng.lam1, u), vdot(eng.lam2, u)) for u in self._off]
        self.k = k

    def _bars(self, key, axis):
        """For c = 0..k, the least fixed index from which the lines of coset
        ``key`` along ``axis`` moved by -c*u, u the parameter off that ray, meet
        S (so lie in S_w); nondecreasing in c.  box[key] has lam values key."""
        eng, (d1, d2) = self._eng, self._lams[axis]
        first = eng.stabilization(1 - axis)[1]
        lams = ((key[0] - c * d1, key[1] - c * d2) for c in range(self.k + 1))
        return [first[l1 % eng.D1, l2 % eng.D2] - (l1 // eng.D1 if axis == 1 else l2 // eng.D2)
                for l1, l2 in lams]

    def member(self, v):
        key, m1, m2 = self._eng._decompose(v)
        return self._eng.member(v) and sum(m >= bar for axis, m in ((0, m2), (1, m1))
                                           for bar in self._bars(key, axis)[1:]) >= self.k

    def profile(self, key, axis, count):
        own, need = self._bars(key, axis), self._bars(key, 1 - axis)
        out, c = [], 0
        for m, ts in enumerate(_stair_profile(self._eng.stair[key], axis, count)):
            # c, the count constant on line m, by one pointer over its bars
            while c < self.k and own[c + 1] <= m:
                c += 1
            out.append(None if ts is None else max(ts, need[self.k - c]))
        return out

    def seed(self):
        return vscale(self.k, min(self._off))

    def chain_index(self, s):
        """Least t with s - u_i + t*u_j in S for i != j: the first member of the
        colon chain that holds s.  A passing line test makes t exist."""
        if not self.member(s):
            raise UncertifiedError("limit-closure generator fails the closed form (internal)")
        member, (u, v) = self._eng.member, self._off
        t = 0
        while not (member(vadd(vsub(s, u), vscale(t, v)))
                   or member(vadd(vsub(s, v), vscale(t, u)))):
            t += 1
        return t


@dataclass(frozen=True)
class LimitClosureCertificate:
    """The limit closure and the exact index at which the colon chain
    (u1^(t+1), ..., ud^(t+1)) : (u1...ud)^t reaches it.  ``window`` is
    always 0; it remains for readers of the former windowed certificate."""

    ideal: MonomialIdeal
    stabilized_t: int
    window: int = 0


def limit_closure(q):
    """Q^lim = S ∩ ⋃_i (u_i + S_{w_i}), w_i the product of the other parameters.

    Cohen-Macaulay rings (free Z^3, numerical semigroups, CM 2-D grids) have
    Q^lim = Q.  Otherwise the ring is a 2-D grid and Q^lim is larger than Q;
    the closure is extracted from its closed form, and ``stabilized_t`` is
    the largest least chain index of a minimal generator.
    """
    if not isinstance(q, ParameterIdeal):
        raise NotMPrimaryError("limit closure is defined for parameter ideals")
    ring = q.ring
    if ring.is_cm:
        # Q again, without a staircase or q.base's cached values
        return LimitClosureCertificate(
            ideal=MonomialIdeal(ring, q.base.min_generators, _reduced=True), stabilized_t=0)
    up = _LimUp(ring, q)
    closed = extract_ideal(ring, up)
    return LimitClosureCertificate(
        ideal=closed, stabilized_t=max(up.chain_index(s) for s in closed.min_generators))


# ---------------------------------------------------------------------------
# split intersections

def lim_intersection(q, total):
    """Intersection of the limit closures of the splits Q(alpha), |alpha| = total.

    Contains Q^total; contained in the integral closure of Q^(total - d + 1).
    In a Cohen-Macaulay ring it is the power Q^(total - d + 1): the
    parameters form a regular sequence, so Z[X1..Xd] -> R, X_i -> u_i, is
    flat (Hartshorne 1966), every Q(alpha)^lim is Q(alpha), and flatness
    carries the intersection of the monomial ideals (X^alpha) to that of the
    Q(alpha).  Otherwise the ring is a 2-D grid and the intersection is
    {s ∈ S : A(s) + B(s) >= total - 1} (``_LimUp``).
    """
    ring = q.ring
    d = ring.dim
    if total < d:
        raise ValueError("split total must be at least the ring dimension")
    if ring.is_cm:
        return ideal_power(q.base, total - d + 1)
    return extract_ideal(ring, _LimUp(ring, q, total - 1))


# ---------------------------------------------------------------------------
# characteristic p

def _is_prime(p):
    if p < 2:
        return False
    f = 2
    while f * f <= p:
        if p % f == 0:
            return False
        f += 1
    return True


def inversion_frees(ring, c):
    """True iff inverting the monomial of c turns k[S] into a regular ring.

    Interior elements always qualify; an element on an extreme ray qualifies
    iff every grid line parallel to that ray meets S (no gap rays parallel to
    it), which makes the localized semigroup a group times a free part.
    """
    c = tuple(c)
    if not ring.member(c):
        return False
    if ring.kind == "free3":
        return True
    if ring.kind == "num1":
        return True
    eng = ring._engine
    l1 = vdot(eng.lam1, c)
    l2 = vdot(eng.lam2, c)
    if l1 > 0 and l2 > 0:
        return True
    axis = 0 if l2 == 0 else 1
    # lines parallel to the c-ray must all meet S; adding the other extreme
    # generator keeps a line meeting S, so line 0 of each coset decides
    return all(eng.grid_first(key, axis, 0) is not None for key in eng.box)


def default_test_element(ring):
    """Lexicographically smallest generator whose inversion frees the semigroup."""
    for g in sorted(ring.generators):
        if inversion_frees(ring, g):
            return g
    raise UnsupportedRingError("no generator inverts to a regular localization")


class FrobeniusContext:
    """Characteristic-p context: prime p, Frobenius depth, and a test element."""

    def __init__(self, ring, p, e_max=4, test_element=None, test_power=1):
        if not _is_prime(p):
            raise ValueError("characteristic must be prime, got %r" % (p,))
        if e_max < 2:
            raise ValueError("e_max must be >= 2")
        if not 1 <= test_power <= 3:
            raise ValueError("test_power must be between 1 and 3")
        self.ring = ring
        self.p = int(p)
        self.e_max = int(e_max)
        base = ExponentVector(test_element) if test_element is not None \
            else default_test_element(ring)
        if not inversion_frees(ring, base):
            raise UnsupportedRingError(
                "test element %r does not free the semigroup" % (tuple(base),))
        self.test_element = base.scaled(test_power)

    def powers(self, e_top=None):
        e_top = self.e_max if e_top is None else e_top
        return [self.p ** e for e in range(0, e_top + 1)]


def frobenius_power(ideal, q):
    """The bracket power I^[q]: generators scaled by q."""
    if q < 1:
        raise ValueError("Frobenius power index must be >= 1")
    return MonomialIdeal(ideal.ring, [g.scaled(q) for g in ideal.min_generators])


@dataclass(frozen=True)
class TightStatus:
    e_max: int
    stable: bool  # candidate unchanged between e_max - 1 and e_max


def _tight_candidate_at(ideal, ctx, e_top):
    ring = ideal.ring
    c = tuple(ctx.test_element)
    scaled = [(q, _IdealUp(ring, [g.scaled(q) for g in ideal.min_generators]))
              for q in ctx.powers(e_top)]
    up = _FrobUp(ring, [tuple(g) for g in ideal.min_generators], scaled, c)
    return extract_ideal(ring, up)


def tight_closure_candidate(ideal, ctx):
    """Monomials s with c + q*s in I^[q] for every q = p^e, e <= e_max.

    With a genuine test element this is a superset of the tight closure,
    shrinking as e_max grows; the certified lower bound for parameter-ideal
    powers is the split intersection.  The status records whether one more
    Frobenius step still changed the result.
    """
    if not ideal.is_m_primary:
        raise NotMPrimaryError("tight-closure candidates need an m-primary ideal")
    prev = _tight_candidate_at(ideal, ctx, ctx.e_max - 1)
    cur = _tight_candidate_at(ideal, ctx, ctx.e_max)
    return cur, TightStatus(e_max=ctx.e_max, stable=(prev == cur))
