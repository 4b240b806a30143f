"""Runtime tracing of hilbclose's layer boundaries, installed from outside.

The library is not edited: ``Tracer.install`` replaces functions and methods
at the boundaries between its modules with timing wrappers.  A function bound
into other modules by ``from .x import y`` is replaced in every module that
holds it, so callers in any layer go through the wrapper.

Four kinds of boundary:

* recorded spans (name, start, end, parent, instance id), kept in memory and
  written out when the run ends;
* light spans, timed and counted like spans but not recorded, for boundaries
  called tens of thousands of times;
* counted calls, for ``_IdealUp.line_first`` (about a million calls per
  pass), whose time stays with the span that called it;
* lattice calls, the hottest boundary (``_Grid2.first_shift`` runs millions
  of times per pass): counted, and timed only at the outermost lattice call.
  ``_Grid2.grid_first`` is reached almost only through ``first_shift`` and
  ``member`` and is not wrapped, to keep the overhead down.

Self time of a span is its duration minus the time its child spans and
lattice calls cover.  A layer's self time is the sum over its spans; the
lattice layer is the leaf, so its self time is the time inside outermost
lattice calls.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from collections import Counter

LAYERS = ("lattice", "ideals", "closures", "hilbert", "theorems", "formats")

_now = time.perf_counter

# (module, attribute path, metric group, kind); the group's first part is the layer
RECORDED, LIGHT, COUNTED, LATTICE = "span", "light", "count", "lattice"
BOUNDARIES = (
    ("theorems", "fuzz_corpus", "theorems.corpus", RECORDED),
    ("theorems", "verify_instances", "theorems.verify", RECORDED),
    ("theorems", "check_nonnegativity_chain", "theorems.checks", RECORDED),
    ("theorems", "check_vanishing", "theorems.checks", RECORDED),
    ("theorems", "check_e1_zero_implies_cm", "theorems.checks", RECORDED),
    ("hilbert", "coefficient_report", "hilbert.report", RECORDED),
    ("hilbert", "fit_filtration", "hilbert.fit", RECORDED),
    ("hilbert", "length_sequence", "hilbert.lengths", RECORDED),
    ("hilbert", "fit_polynomial", "hilbert.polyfit", LIGHT),
    ("hilbert", "Filtration.member", "hilbert.member", RECORDED),
    ("closures", "integral_closure", "closures.integral", RECORDED),
    ("closures", "integral_closure_power", "closures.integral", RECORDED),
    ("closures", "lim_intersection", "closures.lim", RECORDED),
    ("closures", "limit_closure", "closures.lim", RECORDED),
    ("closures", "_limit_closure_cached", "closures.lim_cache", LIGHT),
    ("closures", "_closure_free3", "closures.closure_free3", RECORDED),
    ("closures", "_tight_candidate_at", "closures.tight", RECORDED),
    ("closures", "tight_closure_candidate", "closures.tight", RECORDED),
    ("closures", "FrobeniusContext.__init__", "closures.frobenius_context", RECORDED),
    ("ideals", "extract_min_gens", "ideals.extract", RECORDED),
    ("ideals", "_extract_grid2", "ideals.extract_scan", LIGHT),
    ("ideals", "_extract_num1", "ideals.extract_scan", LIGHT),
    ("ideals", "_extract_free3", "ideals.extract_scan", LIGHT),
    ("ideals", "ideal_power", "ideals.power", RECORDED),
    ("ideals", "ideal_product", "ideals.product", LIGHT),
    ("ideals", "ideal_sum", "ideals.sum", LIGHT),
    ("ideals", "ideal_colon", "ideals.colon", LIGHT),
    ("ideals", "ideal_colon_ideal", "ideals.colon", LIGHT),
    ("ideals", "ideal_intersection", "ideals.intersection", LIGHT),
    ("ideals", "nu_m_mod_q", "ideals.nu", LIGHT),
    ("ideals", "MonomialIdeal.__init__", "ideals.ideal_init", LIGHT),
    ("ideals", "MonomialIdeal.contains_ideal", "ideals.contains", LIGHT),
    ("ideals", "MonomialIdeal.complement", "ideals.complement", RECORDED),
    ("ideals", "_IdealUp.line_first", "ideals.line_first", COUNTED),
    ("formats", "ring_from_record", "formats.parse", LIGHT),
    ("formats", "ideal_from_record", "formats.parse", LIGHT),
    ("formats", "summary_to_report", "formats.report", RECORDED),
    ("formats", "bundle_to_report", "formats.report", RECORDED),
    ("formats", "dumps_report", "formats.report", RECORDED),
    ("lattice", "AffineSemigroup.__init__", "lattice.ring_init", LATTICE),
    ("lattice", "AffineSemigroup.minimal_generators", "lattice.ring_misc", LATTICE),
    ("lattice", "AffineSemigroup.saturation", "lattice.ring_misc", LATTICE),
    ("lattice", "AffineSemigroup.conductor", "lattice.ring_misc", LATTICE),
    ("lattice", "AffineSemigroup.newton_polyhedron", "lattice.ring_misc", LATTICE),
    ("lattice", "_Grid2.first_shift", "lattice.first_shift", LATTICE),
    ("lattice", "_Num1.first_shift", "lattice.first_shift", LATTICE),
    ("lattice", "_Grid2.member", "lattice.member", LATTICE),
    ("lattice", "_Num1.member", "lattice.member", LATTICE),
    ("lattice", "_Free3.member", "lattice.member", LATTICE),
    ("lattice", "_Grid2._witnesses", "lattice.witnesses", LATTICE),
    ("lattice", "_Grid2._ensure_table", "lattice.table", LATTICE),
)


def replace_everywhere(fn, replacement):
    """Rebind ``fn`` to ``replacement`` in every loaded hilbclose module.

    Returns the (module, name, fn) bindings replaced, for undoing.
    """
    done = []
    for modname, mod in list(sys.modules.items()):
        if modname != "hilbclose" and not modname.startswith("hilbclose."):
            continue
        for attr, val in list(vars(mod).items()):
            if val is fn:
                setattr(mod, attr, replacement)
                done.append((mod, attr, fn))
    return done


class Tracer:
    """Spans, counters and per-layer self times for one traced pass."""

    def __init__(self):
        self.spans = []  # (span id, parent id, instance id, name, start, end)
        self.instance = "setup"
        self.calls = Counter()  # per group
        self.incl = Counter()  # per group: time of outermost spans of the group
        self.layer_self = Counter()
        self.group_self = Counter()
        self.extra = Counter()  # counts read from results and caches
        self._stack = []  # open spans: [span id, child time]
        self._group_depth = Counter()
        self._lattice_timer = [0, 0.0]
        self._cells = []  # (group, [count]) of the counted-only wrappers
        self._next_id = [0]
        self._installed = []

    # -- wrappers

    def _span(self, fn, group, name):
        """Timed wrapper; a span record named ``name`` is kept unless it is None."""
        layer = group.split(".", 1)[0]
        stack = self._stack
        depth = self._group_depth
        calls = self.calls
        incl = self.incl
        layer_self = self.layer_self
        group_self = self.group_self
        spans = self.spans
        next_id = self._next_id

        def wrapper(*args, **kwargs):
            calls[group] += 1
            next_id[0] += 1
            sid = next_id[0]
            parent = stack[-1][0] if stack else 0
            frame = [sid, 0.0]
            stack.append(frame)
            depth[group] += 1
            t0 = _now()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = _now()
                stack.pop()
                depth[group] -= 1
                dur = t1 - t0
                if stack:
                    stack[-1][1] += dur
                layer_self[layer] += dur - frame[1]
                group_self[group] += dur - frame[1]
                if not depth[group]:
                    incl[group] += dur
                if name is not None:
                    spans.append((sid, parent, self.instance, name, t0, t1))

        return wrapper

    def _cell(self, group):
        cell = [0]
        self._cells.append((group, cell))
        return cell

    def _lattice(self, fn, group):
        stack = self._stack
        cell = self._cell(group)
        timer = self._lattice_timer  # [inside a lattice call, total time]

        def wrapper(*args, **kwargs):
            cell[0] += 1
            if timer[0]:
                return fn(*args, **kwargs)
            timer[0] = 1
            t0 = _now()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = _now() - t0
                timer[0] = 0
                timer[1] += dur
                if stack:
                    stack[-1][1] += dur

        return wrapper

    def _count(self, fn, group):
        cell = self._cell(group)

        def wrapper(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _observe(self, group, fn, wrapped):
        """Wrap ``wrapped`` (already timed) with result bookkeeping for ``group``.

        Cache hits of the complement and of filtration members bypass the
        timed wrapper, so the counts and times cover computed values only.
        """
        extra = self.extra
        calls = self.calls
        if group in ("ideals.extract", "ideals.extract_scan"):
            key = "extract_kept" if group == "ideals.extract" else "extract_candidates"

            def wrapper(*args, **kwargs):
                out = wrapped(*args, **kwargs)
                extra[key] += len(out)
                return out
            return wrapper
        if group == "ideals.complement":
            def wrapper(ideal):
                memo = getattr(ideal.ring, "_cache", {}).get("complements", {})
                if "complement" in getattr(ideal, "_cache", {}) or ideal.min_generators in memo:
                    extra["complement_hits"] += 1
                    return fn(ideal)
                out = wrapped(ideal)
                extra["complement_points"] += len(out)
                return out
            return wrapper
        if group == "closures.lim_cache":
            def wrapper(q, alpha, *rest):
                if (alpha,) + rest in q.__dict__.get("_split_limit_cache", {}):
                    extra["limit_hits"] += 1
                return wrapped(q, alpha, *rest)
            return wrapper
        if group == "closures.lim" and fn.__name__ == "limit_closure":
            def wrapper(*args, **kwargs):
                cert = wrapped(*args, **kwargs)
                extra["limit_chain_steps"] += cert.stabilized_t + cert.window
                return cert
            return wrapper
        if group == "hilbert.member":
            def wrapper(filtration, k):
                if k in getattr(filtration, "_members", ()):
                    return fn(filtration, k)
                return wrapped(filtration, k)
            return wrapper
        if group == "hilbert.fit":
            def wrapper(*args, **kwargs):
                before = calls["hilbert.lengths"]
                rep = wrapped(*args, **kwargs)
                if calls["hilbert.lengths"] - before > 1:
                    extra["fit_retries"] += 1
                if rep.status != "ok":
                    extra["not_stabilized"] += 1
                return rep
            return wrapper
        if group == "formats.report" and fn.__name__ == "dumps_report":
            def wrapper(*args, **kwargs):
                text = wrapped(*args, **kwargs)
                extra["report_bytes"] += len(text.encode())
                return text
            return wrapper
        return wrapped

    # -- installation

    def install(self):
        """Replace every boundary in every loaded hilbclose module."""
        for modname, path, group, kind in BOUNDARIES:
            owner = importlib.import_module("hilbclose." + modname)
            parts = path.split(".")
            holder = owner if len(parts) == 1 else getattr(owner, parts[0], None)
            fn = getattr(holder, parts[-1], None) if holder is not None else None
            if fn is None:  # the boundary no longer exists; nothing to trace
                continue
            if kind == LATTICE:
                wrapped = self._lattice(fn, group)
            elif kind == COUNTED:
                wrapped = self._count(fn, group)
            else:
                name = "%s.%s" % (modname, path) if kind == RECORDED else None
                wrapped = self._span(fn, group, name)
            wrapped = self._observe(group, fn, wrapped)
            if len(parts) == 1:
                self._installed += replace_everywhere(fn, wrapped)
            else:
                setattr(holder, parts[-1], wrapped)
                self._installed.append((holder, parts[-1], fn))

    def uninstall(self):
        for holder, attr, fn in reversed(self._installed):
            setattr(holder, attr, fn)
        self._installed.clear()

    def reset(self):
        """Drop everything measured so far (the set-up phase) except its spans."""
        self.calls.clear()
        self.incl.clear()
        self.layer_self.clear()
        self.group_self.clear()
        self.extra.clear()
        self._lattice_timer[1] = 0.0
        for _, cell in self._cells:
            cell[0] = 0

    # -- cache sizes, read after each instance

    def read_ring(self, ring):
        eng = getattr(ring, "_engine", None)
        self.extra["grid_lines"] += len(getattr(eng, "_firsts", ()))
        if getattr(eng, "_table", None) is not None:
            self.extra["table_cells"] += (eng._table_size + 1) ** 2

    # -- results

    def metrics(self):
        """Per-layer metrics of the traced pass, by their names in BENCHMARK.json."""
        c, e, incl = Counter(self.calls), self.extra, self.incl
        for group, cell in self._cells:
            c[group] += cell[0]
        layer_self = Counter(self.layer_self)
        layer_self["lattice"] += self._lattice_timer[1]

        def ratio(num, den):
            return num / den if den else 0.0

        first_shift = c["lattice.first_shift"]
        line_first = c["ideals.line_first"]
        complements = c["ideals.complement"] + e["complement_hits"]
        limit_lookups = c["closures.lim_cache"]
        out = {
            "lattice.first_shift_calls": first_shift,
            "lattice.member_calls": c["lattice.member"],
            "lattice.grid_lines": e["grid_lines"],
            "lattice.table_cells": e["table_cells"],
            "ideals.line_first_calls": line_first,
            "ideals.fanout": ratio(first_shift, line_first),
            "ideals.extract_calls": c["ideals.extract"],
            "ideals.extract_s": incl["ideals.extract"],
            "ideals.extract_yield": ratio(e["extract_kept"], e["extract_candidates"]),
            "ideals.complement_points": e["complement_points"],
            "ideals.complement_hit_ratio": ratio(e["complement_hits"], complements),
            "ideals.power_s": incl["ideals.power"],
            "closures.integral_s": incl["closures.integral"],
            "closures.lim_s": incl["closures.lim"],
            "closures.limit_chain_steps": e["limit_chain_steps"],
            "closures.limit_hit_ratio": ratio(e["limit_hits"], limit_lookups),
            "closures.tight_s": incl["closures.tight"],
            "hilbert.members": c["hilbert.member"],
            "hilbert.fit_s": incl["hilbert.fit"],
            "hilbert.retries": e["fit_retries"],
            "hilbert.not_stabilized": e["not_stabilized"],
            "theorems.checks_s": self.group_self["theorems.checks"],
            "formats.report_s": incl["formats.report"],
            "formats.report_bytes": e["report_bytes"],
        }
        for layer in LAYERS:
            out[layer + ".self_s"] = layer_self[layer]
        return out

    def write_spans(self, path):
        with open(path, "w") as fh:
            for sid, parent, inst, name, t0, t1 in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "instance": inst,
                                     "name": name, "start": t0, "end": t1}) + "\n")
