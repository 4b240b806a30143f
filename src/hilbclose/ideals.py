"""Parameter ideals over a fixed affine semigroup and the facet-form values
of their powers' generators.

Every ideal the commands read is a parameter ideal Q = (u1, ..., ud): d
monomials, each on its own extreme ray of the cone (``ParameterIdeal``).
Its powers are never built.  Their colengths ell(R/Q^k) are counted from the
engine's own data, one closed form per ring kind
(``ParameterIdeal.power_colength``):

- a numerical semigroup, Q = (x^a): S is the union of the lines
  apery[r] + N*amin over its Apéry classes r, and ka + S of the lines
  ka + apery[(r - ka) mod amin] + N*amin, so class r holds
  (apery[(r - ka) mod amin] + ka - apery[r]) / amin points of S ∖ (ka + S);
- free Z^3, Q = (x^a, y^b, z^c): the parameters are a regular sequence, so
  ell(R/Q^k) = abc*C(k+2, 3);
- a 2-D ring: on each coset of Z g1 + Z g2 the lattice points form a grid
  whose columns run parallel to g2, and an ideal is an up-set there, a
  nonincreasing column array (``lattice._staircase``).  Q^k is on each
  coset the staircase of the Apéry corners that i*u + (k - i)*v,
  i = 0..k, move onto it (``lattice._moved_corners``), and its colength
  the sum over columns of its first row less the ring's
  (``lattice._stair_colength``).

``ParameterIdeal`` is the one ideal class.  ``nu_m_mod_q`` tests the
minimal generators of m against Q's generators, and the chain check reads
Q^n in the facet-form values of its generators, the sums of n parameters
(``_power_shifts``), and a non-CM ring's split slots as their column arrays
(``closures.SplitSlot``).
"""

from __future__ import annotations

from math import comb, prod

from .errors import DimensionMismatchError, NotMPrimaryError
from .lattice import ExponentVector, _moved_corners, _stair_colength, _staircase, vdot, vsub


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
        for g in gens:
            if g.dim != ring.dim:
                raise DimensionMismatchError("generator %r has wrong length" % (tuple(g),))
            if any(g) and not ring.member(g):
                raise ValueError("generator %r is not in the semigroup" % (tuple(g),))
        # Q is m-primary iff each extreme ray holds a generator: k*g in Q
        # forces a generator onto g's ray.  On ray i every facet form but
        # the i-th vanishes, and the i-th is positive.
        forms = ring.cone_halfspaces()
        rays = {tuple(i for i, lam in enumerate(forms) if vdot(lam, g)) for g in gens}
        if rays != {(i,) for i in range(ring.dim)}:
            raise NotMPrimaryError(
                "generators %r do not positively span the cone"
                % ([tuple(g) for g in gens],))
        self.ring = ring
        self.ordered_generators = tuple(gens)
        self._cache = {}

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
        """ell(R/Q^k), in closed form from the engine's data with no power
        built: per Apéry class of a numerical semigroup, as a box in free
        Z^3, and by columns from the moved Apéry corners (``_power_shifts``)
        on a 2-D ring."""
        ring, eng = self.ring, self.ring._engine
        if ring.kind == "grid2":
            shifts = _power_shifts(self, k)
            return _stair_colength(
                eng, lambda key: _staircase(_moved_corners(eng, key, shifts, eng.apery)))
        if ring.kind == "num1":
            # #(S ∖ (ka + S)): class r starts at apery[r] in S, and in ka + S
            # at ka + apery[(r - ka) mod amin]
            ka, amin = k * self.ordered_generators[0][0], eng.amin
            return sum(eng.apery[(r - ka) % amin] + ka - a for r, a in eng.apery.items()) // amin
        # free Z^3: each parameter's one nonzero coordinate is its box side
        return prod(map(max, self.ordered_generators)) * comb(k + 2, 3)

    def multiplicity(self):
        """e(Q) = |det(u1, ..., ud)| / [Z^d : ZS], the index being the product
        of the diagonal of the triangular basis ``ring.group_lattice()``."""
        index = 1
        for i, row in enumerate(self.ring.group_lattice()):
            index *= row[i]
        return abs(_det([tuple(g) for g in self.ordered_generators]) // index)


def _steps(q):
    """(a_1, ..., a_d), a_i the value of the i-th facet form
    (``cone_halfspaces``) on the parameter off facet i: in facet-form values
    that parameter is a_i e_i.  On a 2-D ring u = (a, 0) and v = (0, b) in
    lam values.  Kept on q."""
    if "steps" not in q._cache:
        q._cache["steps"] = tuple(max(vdot(lam, u) for u in q.ordered_generators)
                                  for lam in q.ring.cone_halfspaces())
    return q._cache["steps"]


def _power_shifts(q, k):
    """The facet-form values of the sums of k parameters, the generators of
    Q^k and its shifts: b_1 a_1 e_1 + ... + b_d a_d e_d with b_1 + ... +
    b_d = k (``_steps``); on a 2-D ring (i*a, (k - i)*b), i = 0..k.  Kept
    on q."""
    if ("shifts", k) not in q._cache:
        *head, last = _steps(q)
        out = [((), k)]  # (values so far, parameters left)
        for a in head:
            out = [(l + (b * a,), left - b) for l, left in out for b in range(left + 1)]
        q._cache["shifts", k] = [l + (left * last,) for l, left in out]
    return q._cache["shifts", k]


def _det(rows):
    """Determinant of a small square integer matrix, by cofactors."""
    if len(rows) == 1:
        return rows[0][0]
    return sum((-1) ** j * rows[0][j] * _det([r[:j] + r[j + 1:] for r in rows[1:]])
               for j in range(len(rows)))


def nu_m_mod_q(q):
    """The dimension of m/(Q + m^2): the minimal generators of m outside Q.
    An irreducible element never lies in m^2, so those outside Q are a basis."""
    return sum(1 for g in q.ring.minimal_generators()
               if not any(q.ring.member(vsub(g, u)) for u in q.ordered_generators))
