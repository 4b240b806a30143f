"""The benchmark's workloads: their inputs, one instance's run, and its checks.

Each workload is a closed loop: one client, one instance at a time, in a
fixed order.  The inputs are fixed too: a new draw of corpus instances per
seed would move the pass time by more than any bound, since instance times
are heavy-tailed, and a new order moves the garbage collector's pauses onto
other instances, since every instance's ring keeps its caches for the rest
of the pass, as in ``hilbclose fuzz``.

* ``corpus``: the verify path (``verify_instances`` and
  ``summary_to_report``) over the first ``count`` instances of the acceptance
  corpus ``fuzz_corpus(42, ...)``, at n_max 8 with no characteristic.
* ``deep``: the analyze path (``coefficient_report`` and
  ``bundle_to_report``) on the built-in examples at n_max 40, in
  characteristic 2 with e_max 4.
* ``free3``: the analyze path on the free semigroup Z^3 at n_max 6.
"""

from __future__ import annotations

from dataclasses import dataclass, field

CORPUS_SEED = 42
CORPUS_COUNT = 25
CORPUS_MAX_COORD = 6
CORPUS_N_MAX = 8
DEEP_N_MAX = 40
DEEP_CHARACTERISTIC = 2
DEEP_E_MAX = 4
FREE3_N_MAX = 6
FREE3_IDEALS = (
    ((1, 0, 0), (0, 1, 0), (0, 0, 1)),
    ((2, 0, 0), (0, 3, 0), (0, 0, 2)),
    ((3, 0, 0), (0, 2, 0), (0, 0, 4)),
)
# smaller inputs for the self-tests: same paths, a few seconds in all
SMOKE = {"corpus_count": 3, "deep_n_max": 8, "free3_ideals": 1}


@dataclass
class Item:
    """One instance of a workload and what its run produced."""

    instance_id: str
    ring: object
    parameter: object
    record: dict = field(default_factory=dict)
    expect: dict | None = None


@dataclass
class Outcome:
    report: str
    fits: list  # the HilbertReport of every fitted filtration
    problems: list  # failed output checks


def setup(name, count=None, smoke=False):
    """Generate or parse the inputs of a workload (the timed set-up)."""
    from hilbclose import cli, formats, theorems
    from hilbclose.ideals import ParameterIdeal
    from hilbclose.lattice import AffineSemigroup

    if name == "corpus":
        if count is None:
            count = SMOKE["corpus_count"] if smoke else CORPUS_COUNT
        corpus = theorems.fuzz_corpus(CORPUS_SEED, count, max_coord=CORPUS_MAX_COORD)
        return [Item(inst.instance_id, inst.ring, inst.parameter) for inst in corpus]
    if name == "deep":
        items = []
        for ex_name, ex in sorted(cli._builtin_examples().items()):
            ring = formats.ring_from_record(ex["ring"])
            gens, _ = formats.ideal_from_record(ex["ideal"], ring)
            items.append(Item(ex_name, ring, ParameterIdeal(ring, gens),
                              record=ex["ideal"], expect=ex["expect"]))
        return items
    if name == "free3":
        ideals = FREE3_IDEALS[:SMOKE["free3_ideals"]] if smoke else FREE3_IDEALS
        items = []
        for gens in ideals:
            ring = AffineSemigroup(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
            label = "free3-x%dy%dz%d" % tuple(sum(g) for g in gens)
            items.append(Item(label, ring, ParameterIdeal(ring, gens),
                              record={"generators": [list(g) for g in gens],
                                      "ordered": True}))
        return items
    raise ValueError("unknown workload %r" % (name,))


class Runner:
    """Runs single instances of one workload through the public entry points."""

    def __init__(self, name, smoke=False):
        from hilbclose import hilbert
        from tracing import replace_everywhere

        self.name = name
        self.smoke = smoke
        self._fits = []
        if name == "corpus":
            # verify_instances keeps its fits internal; record them on the way out
            fit = hilbert.fit_filtration

            def recording_fit(*args, **kwargs):
                rep = fit(*args, **kwargs)
                self._fits.append(rep)
                return rep

            replace_everywhere(fit, recording_fit)

    def run(self, item):
        from hilbclose import formats, hilbert, theorems
        from hilbclose.theorems import Instance

        if self.name == "corpus":
            self._fits.clear()
            summary = theorems.verify_instances(
                [Instance(item.instance_id, item.ring, item.parameter)],
                n_max=CORPUS_N_MAX)
            params = {"seed": CORPUS_SEED, "max_coord": CORPUS_MAX_COORD,
                      "n_max": CORPUS_N_MAX}
            report = formats.dumps_report(formats.summary_to_report(summary, "fuzz", params))
            problems = ["theorem violation"] if summary.violations else []
            return Outcome(report, list(self._fits), problems)
        if self.name == "deep":
            n_max = SMOKE["deep_n_max"] if self.smoke else DEEP_N_MAX
            bundle = hilbert.coefficient_report(
                item.ring, item.parameter, n_max=n_max,
                characteristic=DEEP_CHARACTERISTIC, e_max=DEEP_E_MAX)
            problems = _example_mismatches(bundle, item.expect)
        else:
            bundle = hilbert.coefficient_report(item.ring, item.parameter,
                                                n_max=FREE3_N_MAX)
            problems = _free3_mismatches(bundle)
        report = formats.dumps_report(formats.bundle_to_report(bundle, item.ring,
                                                               item.record))
        return Outcome(report, list(bundle.reports.values()), problems)


def _example_mismatches(bundle, expect):
    """Differences from a built-in example's ``expect`` dict.

    The example lists lengths up to its own n_max; a longer run must agree on
    that prefix.
    """
    from hilbclose.hilbert import FiltrationKind

    ordinary = bundle.report(FiltrationKind.ORDINARY)
    integral = bundle.report(FiltrationKind.INTEGRAL)
    got = {
        "integral_lengths": list(integral.lengths),
        "ordinary_lengths": list(ordinary.lengths),
        "integral_coefficients": list(integral.coefficients or ()),
        "ordinary_coefficients": list(ordinary.coefficients or ()),
        "e1_lim": bundle.e1_lim,
    }
    out = []
    for key, want in sorted(expect.items()):
        have = got[key]
        if key.endswith("_lengths"):
            have = have[:len(want)]
        if have != want:
            out.append("%s: expected %r, got %r" % (key, want, have))
    return out


def _free3_mismatches(bundle):
    """e0(Q) = abc and e1(Q) = 0 for Q = (x^a, y^b, z^c) in the free ring."""
    from hilbclose.hilbert import FiltrationKind

    a, b, c = (sum(g) for g in bundle.parameter.ordered_generators)
    ordinary = bundle.report(FiltrationKind.ORDINARY)
    want = (a * b * c, 0)
    have = tuple(ordinary.coefficients[:2]) if ordinary.coefficients else None
    return [] if have == want else ["ordinary (e0, e1): expected %r, got %r" % (want, have)]


def fit_failures(fits):
    """Why an instance counts in fail_frac: fits not ok, or disagreeing e0."""
    out = ["%s %s" % (rep.kind.value, rep.status) for rep in fits if rep.status != "ok"]
    e0 = {rep.kind.value: rep.e0 for rep in fits if rep.status == "ok"}
    if len(set(e0.values())) > 1:
        out.append("e0 mismatch " + " ".join("%s=%d" % kv for kv in sorted(e0.items())))
    return out
