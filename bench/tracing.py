"""Opt-in spans around soritica's public entry points, from outside.

:meth:`Tracer.install` replaces each entry point below with a wrapper: the
name in every ``soritica`` module that imported it, and every class
attribute that aliases it (``__radd__ = __add__``).  Each
wrapped call records a span (name, start, end, parent, op) and adds to two
per-name totals: calls and self time, the span's duration minus the time
its child spans cover.  A call that re-enters the entry point it is
already inside (a recursive evaluator) is folded into the outer span.

Totals cover every call; the span log keeps the first ``max_spans`` spans
so a long run stays small in memory.  :meth:`Tracer.uninstall` restores
every patched name.
"""

from __future__ import annotations

import json
import sys
import time
from array import array
from collections import Counter

#: (metric name, module, attribute path) for each traced entry point.
ENTRY_POINTS = (
    ("series.add", "soritica.series", "EpsSeries.__add__"),
    ("series.mul", "soritica.series", "EpsSeries.__mul__"),
    ("series.cmp", "soritica.series", "EpsSeries.__lt__"),
    ("series.cmp", "soritica.series", "EpsSeries.compare"),
    ("series.parse", "soritica.series", "parse_series"),
    ("neutrix.make", "soritica.neutrix", "ExternalNumber.make"),
    ("neutrix.add", "soritica.neutrix", "ExternalNumber.__add__"),
    ("neutrix.mul", "soritica.neutrix", "ExternalNumber.__mul__"),
    ("neutrix.parse", "soritica.neutrix", "parse_external"),
    ("neutrix.inverse", "soritica.neutrix", "regular_inverse"),
    ("sampling.check", "soritica.sampling", "mutual_membership_check"),
    ("sampling.member", "soritica.sampling", "en_member"),
    ("laws.suite", "soritica.laws", "run_law_suite"),
    ("formulas.parse", "soritica.formulas", "parse_formula"),
    ("formulas.print", "soritica.formulas", "formula_to_str"),
    ("semantics.classical", "soritica.semantics", "eval_classical"),
    ("semantics.k3", "soritica.semantics", "eval_k3"),
    ("semantics.fuzzy", "soritica.semantics", "eval_fuzzy"),
    ("semantics.super", "soritica.semantics", "eval_super"),
    ("semantics.tautology", "soritica.semantics", "is_tautology_k3"),
    ("semantics.tautology", "soritica.semantics", "quasi_tautology_k3"),
    ("sorites.load", "soritica.sorites", "scenario_from_dict"),
    ("sorites.load", "soritica.sorites", "load_scenario"),
    ("sorites.barnes", "soritica.sorites", "barnes_check"),
    ("sorites.induction", "soritica.sorites", "run_induction"),
    ("sorites.conditional", "soritica.sorites", "run_conditional"),
    ("sorites.doubling", "soritica.sorites", "doubling_analysis"),
    ("sorites.render", "soritica.sorites", "SoritesReport.to_text"),
    ("sorites.render", "soritica.sorites", "SoritesReport.to_json"),
    ("cli.main", "soritica.cli", "main"),
)

SPAN_NAMES = tuple(dict.fromkeys(name for name, _, _ in ENTRY_POINTS))

#: Backend methods counted (no spans: there is one call per index).
BACKEND_CLASSES = ("ClassicalCutoff", "KleenePenumbra", "FuzzyMembership", "Superval", "Nonstandard")
BACKEND_METHODS = ("truth", "designated_true", "designated_false")

#: Counts kept beside the spans, per op in the report.
COUNTS = ("sorites.backend.calls", "neutrix.mul.cross_terms", "neutrix.mul.kept_terms")


def _term_count(x):
    """Representative terms of an external number, series or rational."""
    if hasattr(x, "rep"):
        return len(x.rep.terms)
    if hasattr(x, "terms"):
        return len(x.terms)
    return int(x != 0)


def _patch_sites(original, modules):
    """Every (owner, attribute) whose value is ``original``."""
    sites = []
    for module in modules:
        for attr, value in list(vars(module).items()):
            if value is original:
                sites.append((module, attr))
            elif isinstance(value, type) and value.__module__.startswith("soritica"):
                for name, member in list(vars(value).items()):
                    inner = member.__func__ if isinstance(member, staticmethod) else member
                    if inner is original and (value, name) not in sites:
                        sites.append((value, name))
    return sites


class Tracer:
    def __init__(self, max_spans=50_000):
        self.max_spans = max_spans
        self.calls = Counter()
        self.self_ns = Counter()
        self.counts = Counter()
        self.op_index = -1
        self._stack = []  # [name, start, child_ns, span_id]
        self._names = ["op", *SPAN_NAMES]
        self._ids = {name: i for i, name in enumerate(self._names)}
        self._log = {k: array("q") for k in ("name", "parent", "op", "start", "end")}
        self._restore = []

    # -- spans --------------------------------------------------------------

    def _open(self, name):
        log = self._log
        span_id = -1
        if len(log["name"]) < self.max_spans:
            span_id = len(log["name"])
            log["name"].append(self._ids[name])
            log["parent"].append(self._stack[-1][3] if self._stack else -1)
            log["op"].append(self.op_index)
            log["start"].append(0)
            log["end"].append(0)
        frame = [name, 0, 0, span_id]
        self._stack.append(frame)
        frame[1] = time.perf_counter_ns()
        return frame

    def _close(self, frame):
        end = time.perf_counter_ns()
        self._stack.pop()
        name, start, child_ns, span_id = frame
        duration = end - start
        self.calls[name] += 1
        self.self_ns[name] += duration - child_ns
        if self._stack:
            self._stack[-1][2] += duration
        if span_id >= 0:
            self._log["start"][span_id] = start
            self._log["end"][span_id] = end

    def run_op(self, fn):
        """Run one benchmark op as the root span ``op``."""
        self.op_index += 1
        frame = self._open("op")
        try:
            return fn()
        finally:
            # A RecursionError can strike inside a wrapper's own bookkeeping
            # and leave frames behind; drop them at the op boundary.
            while self._stack[-1] is not frame:
                self._stack.pop()
            self._close(frame)

    def _wrap(self, name, fn):
        stack = self._stack

        def traced(*args, **kwargs):
            if stack and stack[-1][0] == name:
                return fn(*args, **kwargs)
            frame = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(frame)

        if name != "neutrix.mul":
            return traced
        counts = self.counts

        def traced_mul(a, b):
            result = traced(a, b)
            if result is not NotImplemented:
                counts["neutrix.mul.cross_terms"] += _term_count(a) * _term_count(b)
                counts["neutrix.mul.kept_terms"] += _term_count(result)
            return result

        return traced_mul

    def _count(self, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts["sorites.backend.calls"] += 1
            return fn(*args, **kwargs)

        return counted

    # -- patching -----------------------------------------------------------

    def _replace(self, owner, attr, wrapper):
        current = vars(owner)[attr]
        self._restore.append((owner, attr, current))
        setattr(owner, attr, staticmethod(wrapper) if isinstance(current, staticmethod) else wrapper)

    def install(self):
        modules = [m for n, m in sys.modules.items() if n.startswith("soritica")]
        for name, module_name, path in ENTRY_POINTS:
            module = sys.modules.get(module_name)
            if module is None:
                continue
            owner = module
            for part in path.split("."):
                owner = getattr(owner, part)
            wrapper = self._wrap(name, owner)
            for site, attr in _patch_sites(owner, modules):
                self._replace(site, attr, wrapper)
        sorites = sys.modules.get("soritica.sorites")
        if sorites is not None:
            for cls_name in BACKEND_CLASSES:
                cls = getattr(sorites, cls_name)
                for method in BACKEND_METHODS:
                    self._replace(cls, method, self._count(vars(cls)[method]))

    def uninstall(self):
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    # -- results ------------------------------------------------------------

    def per_op(self, ops):
        """Per-layer metrics: calls and self time per op, plus the counts."""
        out = {}
        for name in SPAN_NAMES:
            out[f"{name}.calls"] = (self.calls[name] / ops, "count")
            out[f"{name}.self_us"] = (self.self_ns[name] / ops / 1000, "us")
        for name in COUNTS:
            out[name] = (self.counts[name] / ops, "count")
        return out

    def dump(self, path):
        """Write the span log as JSON lines."""
        log = self._log
        with open(path, "w", encoding="utf-8") as handle:
            for i in range(len(log["name"])):
                handle.write(
                    json.dumps(
                        {
                            "id": i,
                            "op": log["op"][i],
                            "name": self._names[log["name"][i]],
                            "parent": log["parent"][i],
                            "start_ns": log["start"][i],
                            "end_ns": log["end"][i],
                        }
                    )
                    + "\n"
                )
