"""Span tracing around the public functions of each slsn module.

``from .core import feasibility_check`` copies the binding into every
importing module, so a wrapper replaces the original function object in
every slsn module namespace that holds it; calls made inside the package
then pass through the same wrapper.  Each call records one span (name,
start, end, parent span, item); spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import json
import sys
from time import perf_counter

# span name -> (module, attributes) of the functions the span wraps
LAYERS = {
    "cli.dispatch": ("cli", "dispatch"),
    "classifier.classify": ("classifier", "classify"),
    "formats.load_instance": ("formats", "load_instance"),
    "formats.parse_instance": ("formats", "parse_instance"),
    "formats.dump_instance_text": ("formats", "dump_instance_text"),
    "core.feasibility_check": ("core", "feasibility_check"),
    "core.canonical_path_assignment": ("core", "canonical_path_assignment"),
    "core.restricted_min_cost_path": ("core", "restricted_min_cost_path"),
    "core.expand_to_unit": ("core", "expand_to_unit"),
    "exact_const.solve_unit_length": ("exact_const", "solve_unit_length"),
    "exact_const.solve_unit_cost": ("exact_const", "solve_unit_cost"),
    "exact_const.union_search": ("exact_const", "_search_best_union"),
    "exact_const.shortest_length_under_edge_budget": (
        "exact_const", "shortest_length_under_edge_budget"),
    "star_dst.solve_slst": ("star_dst", "solve_slst"),
    "star_dst.build_layered_dst": ("star_dst", "build_layered_dst"),
    "star_dst.solve_dst": ("star_dst", "solve_dst"),
    "approx.approx_const": ("approx", "approx_const"),
    "approx.approx_star": ("approx", "approx_star"),
    "approx.opt_low": ("approx", "opt_low"),
    "approx.build_height_table": ("approx", "build_height_table"),
    "gadgets.build": ("gadgets", "build_case1 build_case2 build_case3 build_case4"),
    "gadgets.witness_solution": ("gadgets", "witness_solution"),
    "gadgets.verify_structure": ("gadgets", "verify_structure"),
}

# Counts read off a wrapped call's result: span name -> (count name, reader).
COUNTS = {
    "core.feasibility_check": ("core.feasibility_check.feasible", lambda r: int(r.feasible)),
    "star_dst.build_layered_dst": ("star_dst.layered_arcs", lambda r: len(r[0].arcs)),
    "approx.build_height_table": ("approx.height_cells", lambda r: sum(1 for _ in r.cells())),
    "formats.dump_instance_text": ("formats.instance_bytes", lambda r: len(r.encode())),
}


class Tracer:
    """Spans of one run: (name, start, end, parent index, item key)."""

    def __init__(self, package):
        self.package = package
        self.spans: list = []
        self.counts: dict[str, int] = {}
        self.item = None
        self._open: list[int] = []
        self._installed: list = []

    def _wrap(self, name, fn):
        count = COUNTS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.spans)
            self.spans.append(None)
            parent = self._open[-1] if self._open else -1
            self._open.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._open.pop()
                self.spans[idx] = (name, start, end, parent, self.item)
            if count is not None:
                self.counts[count[0]] = self.counts.get(count[0], 0) + count[1](result)
            return result

        return traced

    def install(self):
        """Replace every binding of each wrapped function in the package."""
        modules = [m for n, m in sys.modules.items() if n.split(".")[0] == self.package]
        for name, (mod, attrs) in LAYERS.items():
            for attr in attrs.split():
                original = getattr(sys.modules[f"{self.package}.{mod}"], attr)
                wrapper = self._wrap(name, original)
                for module in modules:
                    for binding, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, binding, wrapper)
                            self._installed.append((module, binding, original))

    def uninstall(self):
        for module, binding, original in reversed(self._installed):
            setattr(module, binding, original)
        self._installed.clear()

    def layer_totals(self):
        """Per span name: calls, busy seconds, and self seconds.

        Self time is the span's duration minus the part its direct child
        spans cover; calls run one at a time, so children never overlap.
        """
        covered = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        totals: dict[str, list] = {}
        for (name, start, end, _, _), child in zip(self.spans, covered):
            row = totals.setdefault(name, [0, 0.0, 0.0])
            row[0] += 1
            row[1] += end - start
            row[2] += end - start - child
        return totals

    def write(self, path):
        """Write every span, one JSON array per line, times relative to the first."""
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, item in self.spans:
                fh.write(json.dumps([name, round(start - origin, 7), round(end - origin, 7), parent, item]))
                fh.write("\n")
