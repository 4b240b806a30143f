"""Instance-level verification of the coefficient theorems, ring predicates,
and the randomized corpus driver.

Every check is a function of one ``hilbert.CoefficientBundle``, which holds
the instance and the run parameters; ``verify_instances`` builds it once per
instance and passes it to each check, so no filtration is built or fitted
twice.

A FAIL from the chain or bound checks is a bug somewhere in the artifact (the
statements are theorems); the vanishing check additionally classifies
hypothesis-violating witnesses, which are expected to exist.
"""

from __future__ import annotations

import random
from collections import namedtuple

from .closures import SplitSlot
from .errors import (GenerationExhaustedError, NotMPrimaryError, UncertifiedError,
                     UnsupportedRingError)
from .hilbert import CoefficientBundle, FiltrationKind
from .ideals import ParameterIdeal, _power_shifts, nu_m_mod_q
from .lattice import AffineSemigroup, vscale

CHECK_N_MAX = 8
UNCERTIFIED_E1 = "e1(Q) uncertified"


RingProfile = namedtuple("RingProfile", "is_regular is_cm is_s2 dim embedding_dim")


def ring_profile(ring):
    """Regularity, Cohen-Macaulayness and S2 of the ring.

    CM is read off the ring's Apéry elements (``AffineSemigroup.is_cm``),
    not from a fit: in dimension 2, S is CM iff each coset of Z g1 + Z g2
    holds one Apéry element (Rosales and García-Sánchez, 1998).  The
    equivalent multiplicity criterion colength(Q) = e(Q) is enforced where
    the lengths are made (``hilbert.length_sequence``).
    """
    embdim = len(ring.minimal_generators())
    # S2 is CM in dimension 2, and 1-D and free Z^3 rings are CM
    profile = RingProfile(is_regular=embdim == ring.dim, is_cm=ring.is_cm, is_s2=ring.is_cm,
                          dim=ring.dim, embedding_dim=embdim)
    # regular => CM => S2; S2 is CM and regular is embdim = dim by construction
    if embdim < ring.dim or (profile.is_regular and not profile.is_cm):
        raise UncertifiedError("inconsistent ring profile %r (internal bug)" % (profile,))
    return profile


class ChainVerdict:
    __slots__ = ("instance_id", "inclusions_ok", "claim_bound_ok", "coefficient_chain_ok",
                 "details")

    def __init__(self, instance_id, inclusions_ok, claim_bound_ok, coefficient_chain_ok, details):
        self.instance_id = instance_id
        self.inclusions_ok = inclusions_ok
        self.claim_bound_ok = claim_bound_ok
        self.coefficient_chain_ok = coefficient_chain_ok
        self.details = details

    def __eq__(self, other):
        if type(other) is not ChainVerdict:
            return NotImplemented
        return all(getattr(self, a) == getattr(other, a) for a in self.__slots__)

    @property
    def passed(self):
        return self.inclusions_ok and all(self.claim_bound_ok) and self.coefficient_chain_ok


def check_nonnegativity_chain(bundle, instance_id=""):
    """Verify the inclusion sandwich, the split-count bound, and the sign chain.

    Q^n, generated by the sums of n parameters, must lie in split slot n
    (``closures.SplitSlot``), and the slot in S, in the integral closure of
    Q^n and in slot n - 1; with a characteristic also in the tight closure
    (Q^n)*.  No ideal is built: points are read as facet-form values, and
    the slot lies in an ideal when its corners do, the sums of n parameters
    on a CM ring and its arrays' staircase corners otherwise.  The closures
    are their rules, one integer inequality each (``ClosureRule.contains``).
    The lengths must then fall along the sandwich, ordinary >= split >=
    tight >= integral: slot n ⊆ Q^n S̄ ∩ S ⊆ the integral closure, so the
    tight lengths that reports print are checked against both neighbours.
    """
    q = bundle.parameter
    integral = bundle.filtration(FiltrationKind.INTEGRAL).rule
    tight = None
    if bundle.characteristic is not None:
        tight = bundle.filtration(FiltrationKind.TIGHT).rule

    details = {"instance": [tuple(g) for g in q.ordered_generators],
               "ring": [tuple(g) for g in bundle.ring.generators]}
    inclusions_ok = True
    lim_nested = True
    prev = None  # split slot n - 1
    for n in range(1, bundle.n_max + 1):
        slot = SplitSlot(q, n)
        ok = all(map(slot.holds, _power_shifts(q, n)))  # Q^n ⊆ slot n
        ok = ok and slot.in_ring() and integral.contains(n, slot.corners)
        if tight is not None and ok and not tight.contains(n, slot.corners):
            ok = False
            details.setdefault("failures", []).append(
                {"n": n, "reason": "split intersection not inside tight closure"})
        if not ok:
            inclusions_ok = False
            details.setdefault("failures", []).append({"n": n, "reason": "inclusion"})
        if prev is not None and not slot.within(prev):
            # slots nest as powers and as {A + B >= k} do
            lim_nested = inclusions_ok = False
            details.setdefault("failures", []).append(
                {"n": n, "reason": "split slots not nested"})
        prev = slot
    details["lim_chain_nested"] = lim_nested

    ord_rep = bundle.report(FiltrationKind.ORDINARY)
    lim_rep = bundle.report(FiltrationKind.LIM_INTERSECT)
    int_rep = bundle.report(FiltrationKind.INTEGRAL)
    details["e1_ordinary"] = ord_rep.e1
    details["e1_integral"] = int_rep.e1
    details["e1_lim"] = lim_rep.e1
    reps = [ord_rep, lim_rep, int_rep]
    if tight is not None:
        details["e1_tight"] = bundle.e1_tight
        reps.insert(2, bundle.report(FiltrationKind.TIGHT))

    coeff_ok = True
    if ord_rep.e1 is None:
        # the ordinary fit did not stabilize: no sign to check (``_uncertified_only``)
        coeff_ok = False
        details.setdefault("failures", []).append({"reason": UNCERTIFIED_E1})
    elif ord_rep.e1 > 0:
        coeff_ok = False
        details.setdefault("failures", []).append({"reason": "e1(Q) > 0"})
    if lim_rep.e1 is not None:
        if lim_rep.e1 < 0:
            coeff_ok = False
            details.setdefault("failures", []).append({"reason": "e1_lim < 0"})
        if int_rep.e1 is not None and int_rep.e1 < lim_rep.e1:
            coeff_ok = False
            details.setdefault("failures", []).append({"reason": "empty bracket"})
    # pointwise length comparisons mirror the inclusions
    for n in range(min(len(rep.lengths) for rep in reps)):
        column = [rep.lengths[n] for rep in reps]
        if column != sorted(column, reverse=True):
            coeff_ok = False
            details.setdefault("failures", []).append(
                {"n": n, "reason": "length comparison"})

    return ChainVerdict(
        instance_id=instance_id,
        inclusions_ok=inclusions_ok,
        claim_bound_ok=tuple(r.ok for r in bundle.claim_rows) or (False,),
        coefficient_chain_ok=coeff_ok,
        details=details)


class VanishingVerdict(namedtuple("VanishingVerdict",
                                  "classification e1_integral profile details")):
    """``classification`` is "pass", "vacuous", "witness" or "VIOLATION"."""
    __slots__ = ()

    @property
    def failed(self):
        return self.classification == "VIOLATION"


def check_vanishing(bundle):
    """The vanishing implication: integral e1 = 0 with S2 forces regularity.

    Instances with vanishing integral e1 but without S2 are recorded as
    hypothesis-violating witnesses (they are expected to exist), never as
    failures.
    """
    rep = bundle.report(FiltrationKind.INTEGRAL)
    profile = ring_profile(bundle.ring)
    details = {"e1_integral": rep.e1}
    if rep.e1 is None or rep.e1 != 0:
        return VanishingVerdict("vacuous", rep.e1, profile, details)
    if not profile.is_s2:
        return VanishingVerdict("witness", 0, profile, details)
    nu = nu_m_mod_q(bundle.parameter)
    details["nu_m_mod_q"] = nu
    if profile.is_regular and nu <= 1:
        return VanishingVerdict("pass", 0, profile, details)
    return VanishingVerdict("VIOLATION", 0, profile, details)


ImplicationVerdict = namedtuple("ImplicationVerdict", "applicable ok details")


def check_e1_zero_implies_cm(bundle):
    """Fitted e1(Q) = 0 forces Cohen-Macaulayness, and then a trivial limit closure.

    The characteristic-p collapse (tight closure of Q equal to Q) is asserted
    only when the bracket certifies the first big-CM coefficient to be zero,
    i.e. on instances the vanishing theorem makes regular.
    """
    q = bundle.parameter
    ord_rep = bundle.report(FiltrationKind.ORDINARY)
    details = {"e1_ordinary": ord_rep.e1}
    if ord_rep.e1 is None or ord_rep.e1 != 0:
        return ImplicationVerdict(False, True, details)
    ok = bundle.ring.is_cm
    details["is_cm"] = ok
    lim_rep = bundle.report(FiltrationKind.LIM_INTERSECT)
    details["e1_lim"] = lim_rep.e1
    if lim_rep.e1 == 0:
        # slot 1 of the split filtration is Q^lim, which holds Q: it is Q
        # iff its colength, the first split length, is Q's
        trivial = lim_rep.lengths[0] == q.colength()
        details["limit_closure_trivial"] = trivial
        ok = ok and trivial
        if bundle.characteristic is not None:
            int_rep = bundle.report(FiltrationKind.INTEGRAL)
            if int_rep.e1 == 0:
                # likewise Q ⊆ Q*, read off the first tight length
                trivial = bundle.report(FiltrationKind.TIGHT).lengths[0] == q.colength()
                details["tight_closure_trivial"] = trivial
                ok = ok and trivial
    return ImplicationVerdict(True, ok, details)


# ---------------------------------------------------------------------------
# corpus

Instance = namedtuple("Instance", "instance_id ring parameter")


def fuzz_corpus(seed, count, max_coord=6, max_generators=5):
    """Deterministic corpus of verified 2-dimensional instances; duplicates
    are filtered."""
    if count == 0:
        return []
    rng = random.Random(seed)
    out = []
    seen = set()
    attempts = 0
    cap = 400 * max(count, 1) + 400
    while len(out) < count:
        attempts += 1
        if attempts > cap:
            raise GenerationExhaustedError(
                "bounds admit no further valid instances (made %d of %d)"
                % (len(out), count))
        ngen = rng.randint(2, max_generators)
        gens = set()
        for _ in range(ngen):
            v = (rng.randint(0, max_coord), rng.randint(0, max_coord))
            if v != (0, 0):
                gens.add(v)
        if len(gens) < 2:
            continue
        try:
            ring = AffineSemigroup(2, sorted(gens))
        except (UnsupportedRingError, ValueError):
            continue
        g1, g2 = ring.extreme_generators()
        qgens = [vscale(rng.randint(1, 2), g1), vscale(rng.randint(1, 2), g2)]
        try:
            q = ParameterIdeal(ring, qgens)
        except NotMPrimaryError:
            continue
        key = (ring.minimal_generators(), q.ordered_generators)
        if key in seen:
            continue
        seen.add(key)
        out.append(Instance(
            instance_id="fz%s-%03d" % (seed, len(out)),
            ring=ring, parameter=q))
    return out


class VerificationSummary:
    __slots__ = ("instances", "chain_passes", "violations", "partial", "witnesses",
                 "specimens", "results", "characteristic")

    def __init__(self, characteristic=None):
        self.instances = self.chain_passes = 0
        self.violations, self.partial, self.witnesses = [], [], []
        self.specimens, self.results = [], []
        self.characteristic = characteristic


def result_passed(result):
    """Whether one instance of ``verify_instances`` passed every check."""
    e1cm = result["e1_zero_cm"]
    return (result["chain"].passed and not result["vanishing"].failed
            and (not e1cm.applicable or e1cm.ok))


def _uncertified_only(result):
    """Whether an instance failed only because its ordinary fit did not
    stabilize: e1(Q) is then uncertified, and with no e0 the split-count
    bound has no rows, so ``claim_bound_ok`` is ``(False,)``.  Every other
    chain failure records its own reason."""
    reasons = {f["reason"] for f in result["chain"].details.get("failures", ())}
    return reasons == {UNCERTIFIED_E1} and not result["vanishing"].failed


def verify_instances(instances, n_max=CHECK_N_MAX, characteristic=None):
    """Run every check on every instance; collect witnesses, violations and
    the partial instances, whose only failures come from a fit that did not
    stabilize (``_uncertified_only``)."""
    summary = VerificationSummary(characteristic=characteristic)
    for inst in instances:
        bundle = CoefficientBundle(inst.ring, inst.parameter, n_max=n_max,
                                   characteristic=characteristic)
        chain = check_nonnegativity_chain(bundle, inst.instance_id)
        vanish = check_vanishing(bundle)
        e1cm = check_e1_zero_implies_cm(bundle)
        result = {
            "instance": inst,
            "chain": chain,
            "vanishing": vanish,
            "e1_zero_cm": e1cm,
        }
        summary.results.append(result)
        summary.instances += 1
        if result_passed(result):
            summary.chain_passes += 1
        elif _uncertified_only(result):
            summary.partial.append(result)
        else:
            summary.violations.append(result)
        if vanish.classification == "witness":
            summary.witnesses.append(result)
        lim_e1 = chain.details.get("e1_lim")
        int_e1 = chain.details.get("e1_integral")
        if (lim_e1 == 0 and int_e1 == 0 and vanish.profile.is_s2
                and not vanish.profile.is_cm):
            summary.specimens.append(result)
    return summary

