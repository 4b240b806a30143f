"""Length sequences of power filtrations and exact binomial-basis coefficient fits.

Every filtration is one of the powers of a parameter ideal Q, and none
builds a member for its lengths ell(R/F_{n+1}), n = 0..n_max.  The integral
and tight ones are counted from the closure rule (``closures.ClosureRule``).
The split ones are e(Q) C(n+d, d) less the holes h ∈ S' ∖ S of order
ord(h) <= n (``closures.split_lengths``), e(Q) = |det(u1..ud)| / [Z^d : ZS]
(``ParameterIdeal.multiplicity``), certified by the first and last length
counted from the slot's staircase; a CM ring has no holes, and its ordinary
lengths are the same, certified by colength(Q) = e(Q).  The ordinary
lengths of a non-CM ring add to the split ones the points of
(Q^n S' ∩ S) ∖ Q^n, counted per hole (``closures.ordinary_lengths``) and
certified by colength(Q) and the colength of the last power.  A fit
detects a constant trailing window of d-th forward differences and then
reads the integers (e_0, ..., e_d) in the alternating binomial basis

    ell(R/F_{n+1}) = e_0 C(n+d, d) - e_1 C(n+d-1, d-1) + ... + (-1)^d e_d

off the last d + 1 lengths by integer differences.

A ``CoefficientBundle`` holds the filtrations and fits of one parameter ideal
and makes each on first use; ``analyze``, ``verify``, ``fuzz`` and the
theorem checks all read their coefficients and claim bounds from it.  Given a
prime characteristic p it adds the tight filtration (Q^n)* = Q^n S̄ ∩ S,
which is the same for every p.
"""

from __future__ import annotations

import enum
from collections import namedtuple
from math import comb

from .closures import ClosureRule, ordinary_lengths, split_lengths
from .errors import NotMPrimaryError, NotStabilizedError, UncertifiedError
from .ideals import ParameterIdeal

DEFAULT_N_MAX = 10
RETRY_N_MAX = 14
DEFAULT_WINDOW = 3


class FiltrationKind(enum.Enum):
    ORDINARY = "ordinary"
    INTEGRAL = "integral"
    LIM_INTERSECT = "lim_intersect"
    TIGHT = "tight"


def _is_prime(p):
    if p < 2:
        return False
    f = 2
    while f * f <= p:
        if p % f == 0:
            return False
        f += 1
    return True


class Filtration:
    """The filtration of one kind over the powers of a parameter ideal.

    The integral and tight kinds keep their ``ClosureRule`` as ``rule``, from
    which their lengths are counted and against which points are tested; no
    kind builds its members.
    """

    def __init__(self, kind, q):
        if not isinstance(q, ParameterIdeal):
            raise NotMPrimaryError("the %s filtration needs a parameter ideal" % kind.value)
        self.kind = kind
        self.parameter = q
        self.ring = q.ring
        self.rule = None
        if kind in (FiltrationKind.INTEGRAL, FiltrationKind.TIGHT):
            self.rule = ClosureRule(q, tight=kind is FiltrationKind.TIGHT)


def length_sequence(filtration, n_max):
    """Exact lengths ell(R/F_{n+1}) for n = 0..n_max.

    The integral and tight kinds count them from their rule.  The split kind
    takes e(Q) C(n+d, d) less the holes S' ∖ S of order at most n, once the
    first and the last length equal those counted from the slot's
    staircase: the first is then Serre's ell(S'/QS') = e(Q), true iff k[S']
    is CM, so a mismatch is an internal error.  A CM ring has no holes and
    the test is colength(Q) = e(Q); its ordinary lengths are the same, as
    gr_Q(R) = (R/Q)[X1..Xd].  The ordinary lengths of a non-CM ring add #(Q^n S' ∩ S)
    ∖ Q^n to the split ones, certified by colength(Q) and the colength of
    Q^(n_max+1) counted from its moved Apéry corners.
    """
    ring = filtration.ring
    if n_max < ring.dim + 3:
        raise ValueError("n_max must be at least dim + 3")
    q = filtration.parameter
    if filtration.rule is not None:
        out = filtration.rule.lengths(n_max)
    elif filtration.kind is FiltrationKind.ORDINARY and not ring.is_cm:
        out = ordinary_lengths(q, n_max)
    else:
        # on a CM ring Q^k = Q^k S' ∩ S: the split count has no holes
        out = split_lengths(q, n_max)
    # theorem-backed monotonicity; split slots nest as powers and as
    # {A + B >= k} do
    for i in range(n_max):
        if out[i] > out[i + 1]:
            raise UncertifiedError(
                "non-monotone %s lengths at n=%d: %r (internal bug)"
                % (filtration.kind.value, i, out))
    return out


def _forward_diffs(seq, order):
    cur = list(seq)
    for _ in range(order):
        cur = [b - a for a, b in zip(cur, cur[1:])]
    return cur


def fit_polynomial(lengths, d):
    """Exact (e_0, ..., e_d) and the earliest index the polynomial matches from.

    The coefficients are peeled off the last d + 1 lengths: e_i is, up to
    the sign (-1)^i, the (d-i)-th difference of what remains once the terms
    of e_0..e_{i-1} are subtracted.  The lengths less the polynomial vanish
    on those d + 1, so they vanish from m on exactly when the d-th
    differences equal the last one, e_0, from m on: the earliest index is
    the least such m.  Raises NotStabilizedError when the d-th differences
    have no constant trailing window of ``DEFAULT_WINDOW`` values.
    """
    lengths = list(lengths)
    if len(lengths) < d + 1 + DEFAULT_WINDOW:
        raise ValueError("need at least d + 1 + window length values")
    diffs = _forward_diffs(lengths, d)
    tail = diffs[-DEFAULT_WINDOW:]
    if any(t != tail[0] for t in tail):
        raise NotStabilizedError("no constant window of degree-%d differences" % d)
    base = len(lengths) - (d + 1)
    rest = lengths[base:]
    coeffs = []
    for i in range(d + 1):
        sign = (-1) ** i
        e = sign * _forward_diffs(rest[i:], d - i)[0]
        coeffs.append(e)
        rest = [v - sign * e * comb(base + k + d - i, d - i) for k, v in enumerate(rest)]
    coeffs = tuple(coeffs)
    n0 = len(diffs) - 1
    while n0 and diffs[n0 - 1] == diffs[-1]:
        n0 -= 1
    if n0 > len(lengths) - 1 - DEFAULT_WINDOW:
        raise NotStabilizedError("trailing window matches no single polynomial")
    return coeffs, n0


class HilbertReport(namedtuple("HilbertReport", "kind n_max lengths coefficients "
                                                "stabilization_index status")):
    """One fit: ``coefficients`` and ``stabilization_index`` are None unless
    ``status`` is "ok"; otherwise it is an error code."""
    __slots__ = ()

    @property
    def e1(self):
        return None if self.coefficients is None else self.coefficients[1]

    @property
    def e0(self):
        return None if self.coefficients is None else self.coefficients[0]


def fit_filtration(filtration, n_max=DEFAULT_N_MAX):
    """Length sequence plus fit, with one adaptive extension before giving up."""
    for n in sorted({n_max, max(n_max, RETRY_N_MAX)}):
        lengths = length_sequence(filtration, n)
        try:
            coeffs, n0 = fit_polynomial(lengths, filtration.ring.dim)
        except NotStabilizedError:
            continue
        if coeffs[0] < 1:
            raise UncertifiedError("fitted multiplicity %d < 1 (internal bug)" % coeffs[0])
        return HilbertReport(filtration.kind, n, tuple(lengths), coeffs, n0, "ok")
    return HilbertReport(filtration.kind, n, tuple(lengths), None, None, "NOT_STABILIZED")


class ClaimRow(namedtuple("ClaimRow", "n length bound")):
    __slots__ = ()

    @property
    def ok(self):
        return self.length <= self.bound


class CoefficientBundle:
    """The filtrations and fits of one parameter ideal, made on first use.

    ``analyze``, ``verify``, ``fuzz`` and the theorem checks all read one
    bundle per instance, so each filtration is built and fitted at most once.
    ``reports`` holds the fits made so far.
    """

    def __init__(self, ring, q, n_max=DEFAULT_N_MAX, characteristic=None):
        if characteristic is not None and not _is_prime(characteristic):
            raise ValueError("characteristic must be prime, got %r" % (characteristic,))
        self.ring = ring
        self.parameter = q
        self.n_max = n_max
        self.characteristic = characteristic
        self.reports = {}
        self._filtrations = {}

    @property
    def kinds(self):
        """The applicable filtrations, in enum order."""
        kinds = (FiltrationKind.ORDINARY, FiltrationKind.INTEGRAL, FiltrationKind.LIM_INTERSECT)
        return kinds if self.characteristic is None else kinds + (FiltrationKind.TIGHT,)

    def filtration(self, kind):
        if kind not in self._filtrations:
            self._filtrations[kind] = Filtration(kind, self.parameter)
        return self._filtrations[kind]

    def report(self, kind):
        if kind not in self.reports:
            self.reports[kind] = fit_filtration(self.filtration(kind), self.n_max)
        return self.reports[kind]

    @property
    def e0(self):
        return self.report(FiltrationKind.ORDINARY).e0

    @property
    def e1_ordinary(self):
        return self.report(FiltrationKind.ORDINARY).e1

    @property
    def e1_integral(self):
        return self.report(FiltrationKind.INTEGRAL).e1

    @property
    def e1_lim(self):
        return self.report(FiltrationKind.LIM_INTERSECT).e1

    @property
    def e1_tight(self):
        if self.characteristic is None:
            return None
        return self.report(FiltrationKind.TIGHT).e1

    @property
    def bcm_bracket(self):
        """[lower, upper] bracket for the first big-CM coefficient."""
        if self.e1_lim is None or self.e1_integral is None:
            return None
        return (self.e1_lim, self.e1_integral)

    @property
    def tight_bracket(self):
        if self.e1_lim is None or self.e1_tight is None:
            return None
        return (self.e1_lim, self.e1_tight)

    @property
    def e0_agreement(self):
        vals = {self.report(k).e0 for k in self.kinds} - {None}
        return len(vals) == 1

    def claim_row(self, n):
        """The split-count bound at index n: the fitted split-intersection
        length at n, the colength of slot n+1, against C(n+d, d) e0(Q)."""
        e0 = self.e0
        if e0 is None:
            raise NotStabilizedError("no e0(Q) to bound by: the ordinary fit did not stabilize")
        d = self.ring.dim
        lengths = self.report(FiltrationKind.LIM_INTERSECT).lengths
        if not 0 <= n < len(lengths):
            raise ValueError("index %d lies outside the fitted lengths 0..%d"
                             % (n, len(lengths) - 1))
        return ClaimRow(n=n, length=lengths[n], bound=comb(n + d, d) * e0)

    @property
    def claim_rows(self):
        """One row per fitted split-intersection length; none without e0."""
        if self.e0 is None:
            return ()
        lengths = self.report(FiltrationKind.LIM_INTERSECT).lengths
        return tuple(self.claim_row(n) for n in range(len(lengths)))


def coefficient_report(ring, q, n_max=DEFAULT_N_MAX, characteristic=None, e_max=None):
    """Fit every applicable filtration of a parameter ideal and return the bundle.

    ``e_max`` is accepted and ignored, so callers that pass a Frobenius depth
    keep working; the tight closure is exact and takes none.
    """
    bundle = CoefficientBundle(ring, q, n_max=n_max, characteristic=characteristic)
    for kind in bundle.kinds:
        bundle.report(kind)
    return bundle
