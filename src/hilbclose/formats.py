"""File formats: JSON records for rings, ideals and corpora, and report emission.

Input records hold generators as arrays of integer arrays, each integer a
plain JSON integer or the decimal string that reports write, and an ideal's
``ordered`` as a JSON boolean; anything else is rejected.

``dumps_report`` writes a report in one pass: keys sorted, a two-space
indent, a final newline.  Every integer is a decimal string, so consumers
never face 64-bit overflow; booleans and null are JSON literals, and
non-ASCII text is ``\\uXXXX``-escaped.  Any other value (a float, a set, a
non-string key) is a ``FormatError``.  Report bytes are deterministic: no
timestamps, and the same text as ``json.dumps(..., sort_keys=True,
indent=2)`` of the report with its integers as strings.
"""

from __future__ import annotations

import json
import re
from json.encoder import encode_basestring_ascii as _quote

from .errors import HilbcloseError
from .hilbert import FiltrationKind
from .ideals import ParameterIdeal
from .lattice import AffineSemigroup
from .theorems import Instance, result_passed


class FormatError(HilbcloseError):
    code = "FORMAT"


def _integer(value):
    """A JSON integer, not a bool, or the decimal string reports write."""
    if type(value) is int or isinstance(value, str) and re.fullmatch(r"-?[0-9]+", value):
        return int(value)
    raise FormatError("expected an integer, got %s" % json.dumps(value))


def _vectors(value):
    """A JSON array of integer arrays, as tuples of ints (``_integer``)."""
    if type(value) is not list or any(type(v) is not list for v in value):
        raise FormatError("expected an array of integer arrays, got %s" % json.dumps(value))
    return [tuple(_integer(c) for c in v) for v in value]


def ring_to_record(ring):
    return {"dim": ring.dim, "generators": [list(g) for g in ring.generators]}


def ring_from_record(record):
    if not isinstance(record, dict):
        raise FormatError("ring record must be an object")
    try:
        dim = _integer(record["dim"])
        gens = _vectors(record["generators"])
    except KeyError as exc:
        raise FormatError("ring record needs integer 'dim' and 'generators': %s" % exc)
    return AffineSemigroup(dim, gens)


def ideal_to_record(q):
    return {"generators": [list(g) for g in q.ordered_generators], "ordered": True}


def ideal_from_record(record, ring):
    if not isinstance(record, dict):
        raise FormatError("ideal record must be an object")
    if "generators" not in record:
        raise FormatError("ideal record needs a 'generators' array")
    gens = _vectors(record["generators"])
    ordered = record.get("ordered", False)
    if type(ordered) is not bool:
        raise FormatError("'ordered' must be true or false, got %s" % json.dumps(ordered))
    if not ordered:
        gens = sorted(gens)
    return gens, ordered


def corpus_to_record(instances):
    return {"instances": [
        {"id": inst.instance_id,
         "ring": ring_to_record(inst.ring),
         "ideal": ideal_to_record(inst.parameter)}
        for inst in instances]}


def corpus_from_record(record):
    """Parse a corpus file: {'instances': [...]} or a bare list."""
    if isinstance(record, dict):
        rows = record.get("instances")
        if not isinstance(rows, list):
            raise FormatError("corpus object needs an 'instances' array")
    elif isinstance(record, list):
        rows = record
    else:
        raise FormatError("corpus must be an object or an array")
    out = []
    for i, row in enumerate(rows):
        if not isinstance(row, dict) or "ring" not in row or "ideal" not in row:
            raise FormatError("corpus entry %d needs to be an object with 'ring' and 'ideal'" % i)
        ring = ring_from_record(row["ring"])
        gens, _ = ideal_from_record(row["ideal"], ring)
        out.append(Instance(
            instance_id=str(row.get("id", "corpus-%03d" % i)),
            ring=ring,
            parameter=ParameterIdeal(ring, gens)))
    return out


def _scalar(value):
    """The JSON text of a str, int, bool or None."""
    if isinstance(value, str):
        return _quote(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return '"%d"' % value
    raise FormatError("cannot serialize %r" % (value,))


def _write(value, newline, out):
    """Append ``value`` to ``out`` as indented JSON text; ``newline`` is a
    line break followed by the indent of the line that ``value`` starts on.

    An int member is formatted in place, and a list of plain ints (a length
    sequence, a vector) in one join."""
    inner = newline + "  "
    if isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        try:
            keys = sorted(value)
        except TypeError:  # keys of mixed types
            raise FormatError("cannot serialize %r" % (value,))
        sep = "{" + inner
        for key in keys:
            if not isinstance(key, str):
                raise FormatError("cannot serialize %r" % (value,))
            v = value[key]
            if type(v) is int:
                out.append('%s%s: "%d"' % (sep, _quote(key), v))
            elif isinstance(v, (dict, list, tuple)):
                out.append(sep + _quote(key) + ": ")
                _write(v, inner, out)
            else:
                out.append(sep + _quote(key) + ": " + _scalar(v))
            sep = "," + inner
        out.append(newline + "}")
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        if all(type(v) is int for v in value):
            out.append('[%s"%s"%s]' % (inner, ('",' + inner + '"').join(map(str, value)),
                                       newline))
            return
        sep = "[" + inner
        for v in value:
            if type(v) is int:
                out.append('%s"%d"' % (sep, v))
            elif isinstance(v, (dict, list, tuple)):
                out.append(sep)
                _write(v, inner, out)
            else:
                out.append(sep + _scalar(v))
            sep = "," + inner
        out.append(newline + "]")
    else:
        out.append(_scalar(value))


def dumps_report(obj):
    """The report text: ``obj`` as JSON with sorted keys and a two-space
    indent, every int a decimal string, ending in a newline."""
    out = []
    _write(obj, "\n", out)
    out.append("\n")
    return "".join(out)


def _fitted(bundle):
    """The fitted kinds in enum order, and the length of the longest length sequence."""
    kinds = [k for k in FiltrationKind if k in bundle.reports]
    return kinds, max(len(bundle.reports[k].lengths) for k in kinds)


def bundle_to_report(bundle, ring, ideal_record):
    filtrations = {}
    for kind, rep in bundle.reports.items():
        filtrations[kind.value] = {
            "lengths": list(rep.lengths),
            "coefficients": None if rep.coefficients is None else list(rep.coefficients),
            "stabilization_index": rep.stabilization_index,
            "status": rep.status,
            "n_max": rep.n_max,
        }
    report = {
        "command": "analyze",
        "ring": ring_to_record(ring),
        "ideal": ideal_record,
        "n_max": bundle.n_max,
        "characteristic": bundle.characteristic,
        "filtrations": filtrations,
        "e0": bundle.e0,
        "e1_ordinary": bundle.e1_ordinary,
        "e1_integral": bundle.e1_integral,
        "e1_lim": bundle.e1_lim,
        "e1_tight": bundle.e1_tight,
        "bcm_bracket": None if bundle.bcm_bracket is None else list(bundle.bcm_bracket),
        "tight_bracket": None if bundle.tight_bracket is None else list(bundle.tight_bracket),
        "e0_agreement": bundle.e0_agreement,
        "claim_bounds": [
            {"n": row.n, "length": row.length, "bound": row.bound, "ok": row.ok}
            for row in bundle.claim_rows],
    }
    return report


def bundle_to_csv(bundle):
    """Length table only; one column per filtration."""
    kinds, depth = _fitted(bundle)
    header = ["n"] + [k.value for k in kinds]
    lines = [",".join(header)]
    for n in range(depth):
        row = [str(n)]
        for k in kinds:
            lengths = bundle.reports[k].lengths
            row.append(str(lengths[n]) if n < len(lengths) else "")
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def bundle_to_table(bundle):
    """Human-readable summary; coefficient signs follow the alternating basis,
    so e1 is printed with its defining sign (not negated)."""
    kinds, depth = _fitted(bundle)
    lines = []
    lines.append("filtration        status           coefficients (e0, e1, ...)")
    for kind in kinds:
        rep = bundle.reports[kind]
        coeffs = "-" if rep.coefficients is None else str(tuple(rep.coefficients))
        lines.append("%-17s %-16s %s" % (kind.value, rep.status, coeffs))
    lines.append("")
    lines.append("lengths (n: ordinary / integral / lim_intersect%s)"
                 % (" / tight" if FiltrationKind.TIGHT in bundle.reports else ""))
    for n in range(depth):
        vals = []
        for k in kinds:
            lengths = bundle.reports[k].lengths
            vals.append(str(lengths[n]) if n < len(lengths) else "-")
        lines.append("  %2d: %s" % (n, " / ".join(vals)))
    if bundle.bcm_bracket is not None:
        lines.append("")
        lines.append("first-coefficient bracket (big-CM): [%d, %d]" % bundle.bcm_bracket)
    if bundle.tight_bracket is not None:
        lines.append("first-coefficient bracket (tight): [%d, %d]" % bundle.tight_bracket)
    return "\n".join(lines) + "\n"


def summary_to_report(summary, command, params):
    verdicts = []
    for res in summary.results:
        inst = res["instance"]
        chain = res["chain"]
        e1cm = res["e1_zero_cm"]
        verdicts.append({
            "instance_id": inst.instance_id,
            "ring": ring_to_record(inst.ring),
            "ideal": ideal_to_record(inst.parameter),
            "passed": result_passed(res),
            "inclusions_ok": chain.inclusions_ok,
            "claim_bound_ok": all(chain.claim_bound_ok),
            "coefficient_chain_ok": chain.coefficient_chain_ok,
            "e1_ordinary": chain.details.get("e1_ordinary"),
            "e1_integral": chain.details.get("e1_integral"),
            "e1_lim": chain.details.get("e1_lim"),
            "vanishing": res["vanishing"].classification,
            "e1_zero_cm_ok": (not e1cm.applicable) or e1cm.ok,
            "lim_chain_nested": chain.details.get("lim_chain_nested"),
        })
        # the tight keys only with a characteristic, so other reports keep their bytes
        if summary.characteristic is not None:
            verdicts[-1]["e1_tight"] = chain.details.get("e1_tight")
    report = {
        "command": command,
        "summary": {
            "instances": summary.instances,
            "chain_passes": summary.chain_passes,
            "violations": len(summary.violations),
            "hypothesis_violating_witnesses": len(summary.witnesses),
            "conjecture_relevant_specimens": len(summary.specimens),
        },
        "verdicts": verdicts,
    }
    if summary.characteristic is not None:
        report["characteristic"] = summary.characteristic
    report.update(params)
    return report


def reproducer_record(result):
    inst = result["instance"]
    chain = result["chain"]
    return {
        "ring": ring_to_record(inst.ring),
        "ideal": ideal_to_record(inst.parameter),
        "violation": {
            "instance_id": inst.instance_id,
            "inclusions_ok": chain.inclusions_ok,
            "claim_bound_ok": all(chain.claim_bound_ok),
            "coefficient_chain_ok": chain.coefficient_chain_ok,
            "vanishing": result["vanishing"].classification,
            "failures": chain.details.get("failures", []),
        },
    }
