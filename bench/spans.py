"""Spans and counts recorded around the benchmark's calls into flowpoly.

Workload code reaches flowpoly only through the namespace that ``bind``
returns.  Untraced, its attributes are the library functions themselves, so
an untraced run pays nothing for the instrumentation.  Traced, each one is
wrapped in a span that adds the call's self time and call count to a
``Recorder``, and a few calls also add size counters read off their results.
"""

from __future__ import annotations

import importlib
from collections import Counter, defaultdict
from time import perf_counter
from types import SimpleNamespace

# flowpoly module -> the public functions the workloads call in it.
INSTRUMENTED = {
    "graphs": (
        "complete_graph",
        "id_order_framing",
        "random_framing",
        "enumerate_routes",
        "route_flow_vector",
    ),
    "kostant": (
        "indegree_shift_netflow",
        "ehrhart_netflow",
        "enumerate_integer_flows",
        "flow_polytope_volume",
        "flow_ehrhart_value",
    ),
    "posets": (
        "skew_star",
        "staircase_star",
        "all_staircase_partitions",
        "order_polytope_vertices",
        "count_linear_extensions",
        "order_polynomial",
    ),
    "planar": ("poset_to_flow_graph",),
    "geometry": ("lattice_basis", "simplex_normalized_volume", "triangulation_checks"),
    "triangulations": (
        "canonical_triangulation",
        "dkk_maximal_cliques",
        "dkk_triangulation",
        "ps_triangulation",
        "flow_to_clique",
        "clique_to_flow",
        "framing_change_bijection",
        "compare_triangulations",
    ),
    "asm": ("asm_dilation_count", "family_report"),
    "checks": ("transported_canonical_triangulation",),
}


def _report_counts(report):
    work = report.sample_count * report.simplex_count
    return (
        ("geometry.simplices", report.simplex_count),
        ("geometry.samples", report.sample_count),
        # every sample is tested against every simplex: the work an exact
        # ridge-pairing certificate would remove
        ("geometry.barycentric_tests", work),
        ("geometry.madds.computed", work * report.dimension**2),
    )


# span name -> counters read off the call's result
COUNTERS = {
    "graphs.enumerate_routes": lambda routes: (("graphs.routes", len(routes)),),
    "triangulations.dkk_maximal_cliques": lambda c: (("triangulations.cliques", len(c)),),
    "triangulations.dkk_triangulation": lambda c: (("triangulations.cliques", len(c)),),
    "triangulations.ps_triangulation": lambda l: (("triangulations.leaves", len(l)),),
    "geometry.triangulation_checks": _report_counts,
}
COUNTER_NAMES = (
    "graphs.routes",
    "triangulations.cliques",
    "triangulations.leaves",
    "geometry.simplices",
    "geometry.samples",
    "geometry.barycentric_tests",
    "geometry.madds.computed",
)


class Recorder:
    """Self time and call count per span name, plus size counters."""

    def __init__(self):
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.counts = Counter()
        self._child_s = []  # time spent in child spans, one entry per open span

    def wrap(self, name, fn):
        counters = COUNTERS.get(name)

        def traced(*args, **kwargs):
            self._child_s.append(0.0)
            start = perf_counter()
            try:
                return_value = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                self.self_s[name] += elapsed - self._child_s.pop()
                self.calls[name] += 1
                if self._child_s:
                    self._child_s[-1] += elapsed
            if counters is not None:
                self.counts.update(dict(counters(return_value)))
            return return_value

        return traced


def bind(recorder=None):
    """Namespace of the instrumented flowpoly functions, traced if a recorder is given."""
    functions = {}
    for module, names in INSTRUMENTED.items():
        mod = importlib.import_module(f"flowpoly.{module}")
        for name in names:
            fn = getattr(mod, name)
            functions[name] = fn if recorder is None else recorder.wrap(f"{module}.{name}", fn)
    return SimpleNamespace(**functions)
