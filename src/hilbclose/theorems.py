"""Instance-level verification of the coefficient theorems, ring predicates,
and the randomized corpus driver.

Every check reads one ``hilbert.CoefficientBundle`` per instance;
``verify_instances`` builds it once and passes it as ``bundle=`` to each
check, so no filtration is built or fitted twice.

A FAIL from the chain or bound checks is a bug somewhere in the artifact (the
statements are theorems); the vanishing check additionally classifies
hypothesis-violating witnesses, which are expected to exist.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .errors import GenerationExhaustedError, NotMPrimaryError, UnsupportedRingError
from .hilbert import CoefficientBundle, FiltrationKind
from .ideals import ParameterIdeal, nu_m_mod_q
from .lattice import AffineSemigroup, vscale

CHECK_N_MAX = 8


@dataclass(frozen=True)
class RingProfile:
    is_regular: bool
    is_cm: bool
    is_s2: bool
    dim: int
    embedding_dim: int
    evidence: dict

    def __post_init__(self):
        # regular => CM => S2 for these models
        assert not self.is_regular or self.is_cm
        assert not self.is_cm or self.is_s2
        assert self.embedding_dim >= self.dim
        assert (self.embedding_dim == self.dim) == self.is_regular


def _bundle(ring, q, bundle, n_max=CHECK_N_MAX, characteristic=None):
    """The caller's bundle, or a fresh one for a standalone check.

    A given bundle's n_max and characteristic win over the arguments.
    """
    if bundle is None:
        bundle = CoefficientBundle(ring, q, n_max=n_max, characteristic=characteristic)
    return bundle


def ring_profile(ring, q, bundle=None):
    """Regularity, Cohen-Macaulayness and S2 of the ring, with the
    parameter ideal's colength and ordinary fit as evidence.

    CM is read off the ring's Apéry elements (``AffineSemigroup.is_cm``),
    not from the fit: in dimension 2, S is CM iff each coset of Z g1 + Z g2
    holds one Apéry element (Rosales and García-Sánchez, 1998).  The evidence
    shows the equivalent multiplicity criterion colength(Q) = e0(Q), which
    is also enforced: on a CM ring the ordinary and split lengths are made
    only once colength(Q) equals the determinant multiplicity
    (``hilbert.length_sequence``).  S2 reduces to CM in dimension 2 and is
    automatic in dimension 1.
    """
    bundle = _bundle(ring, q, bundle)
    rep = bundle.report(FiltrationKind.ORDINARY)
    embdim = len(ring.minimal_generators())
    is_cm = ring.is_cm
    return RingProfile(
        is_regular=embdim == ring.dim, is_cm=is_cm,
        is_s2=is_cm if ring.dim == 2 else True, dim=ring.dim, embedding_dim=embdim,
        evidence={
            "parameter": [tuple(g) for g in bundle.parameter.ordered_generators],
            "colength": bundle.parameter.colength(),
            "e0": rep.e0,
            "ordinary_lengths": list(rep.lengths),
        })


@dataclass
class ChainVerdict:
    instance_id: str
    inclusions_ok: bool
    claim_bound_ok: tuple
    coefficient_chain_ok: bool
    vanishing_implication_ok: bool | None
    details: dict = field(default_factory=dict)

    @property
    def passed(self):
        parts = [self.inclusions_ok, all(self.claim_bound_ok), self.coefficient_chain_ok]
        if self.vanishing_implication_ok is not None:
            parts.append(self.vanishing_implication_ok)
        return all(parts)


def check_nonnegativity_chain(ring, q, n_max=CHECK_N_MAX, characteristic=None, instance_id="",
                              bundle=None):
    """Verify the inclusion sandwich, the split-count bound, and the sign chain.

    With a characteristic the tight closure is wedged into the sandwich as
    well; a tight closure that exceeds the integral closure is reported
    loudly rather than silently accepted.  The integral and tight closures
    are their rules (``ClosureRule``): a split slot lies inside when its
    generators do, and only the tight closure's own generators are
    extracted, to test against the integral rule.
    """
    bundle = _bundle(ring, q, bundle, n_max, characteristic)
    q = bundle.parameter
    ord_f = bundle.filtration(FiltrationKind.ORDINARY)
    lim_f = bundle.filtration(FiltrationKind.LIM_INTERSECT)
    integral = bundle.filtration(FiltrationKind.INTEGRAL).rule
    tight_f = None
    if bundle.characteristic is not None:
        tight_f = bundle.filtration(FiltrationKind.TIGHT)

    details = {"instance": [tuple(g) for g in q.ordered_generators],
               "ring": [tuple(g) for g in ring.generators]}
    inclusions_ok = True
    lim_nested = True
    for n in range(1, bundle.n_max + 1):
        low, mid = ord_f.member(n), lim_f.member(n)
        ok = mid.contains_ideal(low) and integral.contains(n, mid)
        if tight_f is not None and ok:
            if not tight_f.rule.contains(n, mid):
                ok = False
                details.setdefault("failures", []).append(
                    {"n": n, "reason": "split intersection not inside tight closure"})
            elif not integral.contains(n, tight_f.member(n)):
                ok = False
                details.setdefault("failures", []).append(
                    {"n": n, "reason": "tight closure exceeds the integral closure"})
        if not ok:
            inclusions_ok = False
            details.setdefault("failures", []).append({"n": n, "reason": "inclusion"})
        if n > 1 and not lim_f.member(n - 1).contains_ideal(mid):
            # slots nest as powers and as {A + B >= k} do
            lim_nested = inclusions_ok = False
            details.setdefault("failures", []).append(
                {"n": n, "reason": "split slots not nested"})
    details["lim_chain_nested"] = lim_nested

    ord_rep = bundle.report(FiltrationKind.ORDINARY)
    lim_rep = bundle.report(FiltrationKind.LIM_INTERSECT)
    int_rep = bundle.report(FiltrationKind.INTEGRAL)
    details["e1_ordinary"] = ord_rep.e1
    details["e1_integral"] = int_rep.e1
    details["e1_lim"] = lim_rep.e1
    if tight_f is not None:
        details["e1_tight"] = bundle.e1_tight

    coeff_ok = True
    if ord_rep.e1 is None or ord_rep.e1 > 0:
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
    n_common = min(len(ord_rep.lengths), len(lim_rep.lengths), len(int_rep.lengths))
    for n in range(n_common):
        if not (ord_rep.lengths[n] >= lim_rep.lengths[n] >= int_rep.lengths[n]):
            coeff_ok = False
            details.setdefault("failures", []).append(
                {"n": n, "reason": "length comparison"})

    return ChainVerdict(
        instance_id=instance_id,
        inclusions_ok=inclusions_ok,
        claim_bound_ok=tuple(r.ok for r in bundle.claim_rows) or (False,),
        coefficient_chain_ok=coeff_ok,
        vanishing_implication_ok=None,
        details=details)


def check_claim_bound(ring, q, n, bundle=None):
    """Exact check of the split-count length bound at one index."""
    if n < 0:
        raise ValueError("index must be >= 0")
    return _bundle(ring, q, bundle).claim_row(n).ok


@dataclass(frozen=True)
class VanishingVerdict:
    classification: str  # "pass" | "vacuous" | "witness" | "VIOLATION"
    e1_integral: int | None
    profile: RingProfile
    details: dict

    @property
    def failed(self):
        return self.classification == "VIOLATION"


def check_vanishing(ring, q, bundle=None):
    """The vanishing implication: integral e1 = 0 with S2 forces regularity.

    Instances with vanishing integral e1 but without S2 are recorded as
    hypothesis-violating witnesses (they are expected to exist), never as
    failures.
    """
    bundle = _bundle(ring, q, bundle)
    q = bundle.parameter
    rep = bundle.report(FiltrationKind.INTEGRAL)
    profile = ring_profile(ring, q, bundle)
    details = {"e1_integral": rep.e1}
    if rep.e1 is None or rep.e1 != 0:
        return VanishingVerdict("vacuous", rep.e1, profile, details)
    if not profile.is_s2:
        return VanishingVerdict("witness", 0, profile, details)
    nu = nu_m_mod_q(q)
    details["nu_m_mod_q"] = nu
    if profile.is_regular and nu <= 1:
        return VanishingVerdict("pass", 0, profile, details)
    return VanishingVerdict("VIOLATION", 0, profile, details)


@dataclass(frozen=True)
class ImplicationVerdict:
    applicable: bool
    ok: bool
    details: dict


def check_e1_zero_implies_cm(ring, q, characteristic=None, bundle=None):
    """Fitted e1(Q) = 0 forces Cohen-Macaulayness, and then a trivial limit closure.

    The characteristic-p collapse (tight closure of Q equal to Q) is asserted
    only when the bracket certifies the first big-CM coefficient to be zero,
    i.e. on instances the vanishing theorem makes regular.
    """
    bundle = _bundle(ring, q, bundle, characteristic=characteristic)
    q = bundle.parameter
    ord_rep = bundle.report(FiltrationKind.ORDINARY)
    details = {"e1_ordinary": ord_rep.e1}
    if ord_rep.e1 is None or ord_rep.e1 != 0:
        return ImplicationVerdict(False, True, details)
    profile = ring_profile(ring, q, bundle)
    ok = profile.is_cm
    details["is_cm"] = profile.is_cm
    lim_rep = bundle.report(FiltrationKind.LIM_INTERSECT)
    details["e1_lim"] = lim_rep.e1
    if lim_rep.e1 == 0:
        # slot 1 of the split filtration is Q^lim
        trivial = bundle.filtration(FiltrationKind.LIM_INTERSECT).member(1) == q.base
        details["limit_closure_trivial"] = trivial
        ok = ok and trivial
        if bundle.characteristic is not None:
            int_rep = bundle.report(FiltrationKind.INTEGRAL)
            if int_rep.e1 == 0:
                trivial = bundle.filtration(FiltrationKind.TIGHT).member(1) == q.base
                details["tight_closure_trivial"] = trivial
                ok = ok and trivial
    return ImplicationVerdict(True, ok, details)


# ---------------------------------------------------------------------------
# corpus

@dataclass(frozen=True)
class Instance:
    instance_id: str
    ring: AffineSemigroup
    parameter: ParameterIdeal


def fuzz_corpus(seed, count, max_coord=6, max_generators=5, dim=2):
    """Deterministic corpus of verified instances; duplicates are filtered."""
    if dim != 2:
        raise UnsupportedRingError("the fuzz corpus generates 2-dimensional instances")
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


@dataclass
class VerificationSummary:
    instances: int = 0
    chain_passes: int = 0
    violations: list = field(default_factory=list)
    witnesses: list = field(default_factory=list)
    specimens: list = field(default_factory=list)
    results: list = field(default_factory=list)
    characteristic: int | None = None

    @property
    def ok(self):
        return not self.violations


def result_passed(result):
    """Whether one instance of ``verify_instances`` passed every check."""
    e1cm = result["e1_zero_cm"]
    return (result["chain"].passed and not result["vanishing"].failed
            and (not e1cm.applicable or e1cm.ok))


def verify_instances(instances, n_max=CHECK_N_MAX, characteristic=None):
    """Run every check on every instance; collect witnesses and violations."""
    summary = VerificationSummary(characteristic=characteristic)
    for inst in instances:
        ring, q = inst.ring, inst.parameter
        bundle = CoefficientBundle(ring, q, n_max=n_max, characteristic=characteristic)
        chain = check_nonnegativity_chain(ring, q, instance_id=inst.instance_id,
                                          bundle=bundle)
        vanish = check_vanishing(ring, q, bundle=bundle)
        chain.vanishing_implication_ok = not vanish.failed
        e1cm = check_e1_zero_implies_cm(ring, q, bundle=bundle)
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

