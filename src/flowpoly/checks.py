"""Mechanical verification of the package's structural claims.

Each verify_* function runs one property over the built-in corpus and
returns a list of (fixture name, passed, detail) records; the CLI turns
these into PASS/FAIL lines and an exit code.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from . import fixtures
from .graphs import (
    all_framings,
    enumerate_routes,
    id_order_framing,
    random_framing,
    route_flow_vector,
)
from .kostant import (
    ehrhart_netflow,
    enumerate_integer_flows,
    flow_polytope_volume,
    indegree_shift_netflow,
)
from .planar import dual_poset, flow_to_order_point, order_to_flow_point
from .posets import all_staircase_partitions, linear_extensions, order_ideals, order_polynomial
from .triangulations import (
    canonical_triangulation,
    clique_to_flow,
    compare_triangulations,
    dkk_maximal_cliques,
    dkk_triangulation,
    flow_to_clique,
    framing_change_bijection,
    linext_to_clique,
    ps_triangulation,
)


def transported_canonical_triangulation(pg):
    """Canonical simplices of O(P_G) in flow coordinates; each vertex mapped once."""
    poset = dual_poset(pg)
    points = {}
    simplices = []
    for simp in canonical_triangulation(poset):
        for v in simp.vertices:
            if v not in points:
                points[v] = order_to_flow_point(pg, dict(zip(poset.elements, v)))
        simplices.append(tuple(points[v] for v in simp.vertices))
    return simplices


def verify_thm2():
    """Transported canonical triangulation equals the clique triangulation."""
    results = []
    for name, pg in fixtures.planar_fixtures().items():
        transported = transported_canonical_triangulation(pg)
        dkk = dkk_triangulation(pg.graph, pg.framing)
        report = compare_triangulations(transported, dkk)
        detail = f"{len(dkk)} simplices"
        if not report.equal:
            detail = (
                f"mismatch: {len(report.only_in_a)} only canonical, "
                f"{len(report.only_in_b)} only clique-side"
            )
        results.append((name, report.equal, detail))
    return results


def _framings_for(name, g):
    if name in ("k4", "k5"):
        return list(all_framings(g))
    return [id_order_framing(g)] + [random_framing(g, seed) for seed in range(5)]


def verify_dkk_eq_ps():
    """Reduction leaves and coherent cliques coincide; leaves are coherent."""
    from .graphs import coherent

    results = []
    for name, g in fixtures.graph_fixtures().items():
        ok = True
        detail = ""
        for k, framing in enumerate(_framings_for(name, g)):
            leaves = ps_triangulation(g, framing)
            cliques = dkk_maximal_cliques(g, framing)
            if sorted(l.routes for l in leaves) != sorted(cliques):
                ok, detail = False, f"route families differ (framing #{k})"
                break
            for leaf in leaves:
                for p, q in itertools.combinations(leaf.routes, 2):
                    if not coherent(g, framing, p, q):
                        ok, detail = False, f"incoherent leaf pair (framing #{k})"
                        break
        if ok:
            detail = f"{k + 1} framings"
        results.append((name, ok, detail))
    return results


def verify_bij_linext():
    """linext_to_clique bijects extensions of P_G with maximal cliques."""
    results = []
    for name, pg in fixtures.planar_fixtures().items():
        poset = dual_poset(pg)
        exts = linear_extensions(poset)
        image = [linext_to_clique(pg, ext) for ext in exts]
        cliques = dkk_maximal_cliques(pg.graph, pg.framing)
        ok = len(set(image)) == len(exts) and sorted(image) == sorted(cliques)
        results.append((name, ok, f"e(P_G) = {len(exts)} = #cliques = {len(cliques)}"))
    return results


def verify_bij_flow():
    """flow<->clique round trips and the framing-change bijection."""
    results = []
    for name, g in fixtures.graph_fixtures().items():
        f1 = id_order_framing(g)
        f2 = random_framing(g, 1)
        flows = enumerate_integer_flows(g, indegree_shift_netflow(g))
        vectors = [
            tuple(fl.get(e, 0) for e in range(g.edge_count)) for fl in flows
        ]
        ok = True
        cliques = set()
        for vec in vectors:
            clique = flow_to_clique(g, f1, vec)
            cliques.add(clique)
            if clique_to_flow(g, f1, clique) != vec:
                ok = False
                break
        if ok:
            ok = cliques == set(dkk_maximal_cliques(g, f1))
        if ok:
            change = framing_change_bijection(g, f1, f2)
            ok = sorted(change.values()) == sorted(dkk_maximal_cliques(g, f2))
        results.append((name, ok, f"{len(vectors)} flows"))
    return results


def verify_maps_roundtrip(t_values=(1, 2)):
    """The order/flow maps are mutually inverse on lattice points of t-dilates."""
    results = []
    for name, pg in fixtures.planar_fixtures().items():
        g = pg.graph
        poset = dual_poset(pg)
        ok = True
        detail_counts = []
        for t in t_values:
            flows = enumerate_integer_flows(g, ehrhart_netflow(g, t))
            vectors = [
                tuple(fl.get(e, 0) for e in range(g.edge_count)) for fl in flows
            ]
            images = set()
            for vec in vectors:
                f = flow_to_order_point(pg, vec)
                if order_to_flow_point(pg, f, total=t) != tuple(map(Fraction, vec)):
                    ok = False
                    break
                if any(not 0 <= v <= t or v != int(v) for v in f.values()):
                    ok = False
                    break
                if any(f[a] > f[b] for a, b in poset.covers):
                    ok = False
                    break
                images.add(tuple(sorted((r, v) for r, v in f.items())))
            # images must exhaust the order-preserving maps P_G -> {0..t}
            expected = order_polynomial(poset, t + 1)
            if len(images) != len(vectors) or len(vectors) != expected:
                ok = False
            detail_counts.append(len(vectors))
        results.append((name, ok, f"lattice points {detail_counts}"))
    return results


def verify_asm_family(ns=(3, 4), lambdas=None):
    """family_report consistency across the staircase shapes."""
    from .asm import family_report

    results = []
    for n in ns:
        shapes = lambdas if lambdas is not None else all_staircase_partitions(n)
        for lam in shapes:
            report = family_report(n, lam)
            name = f"n={n} lambda={','.join(map(str, lam)) or '-'}"
            detail = (
                f"vertices {report.vertex_count}, dim {report.dimension}, "
                f"vol {report.volume_by_extensions}"
            )
            results.append((name, report.all_consistent, detail))
    return results


def verify_vertex_bijections():
    """Route flows <-> 0/1 order points <-> ideals, on the planar corpus."""
    results = []
    for name, pg in fixtures.planar_fixtures().items():
        g = pg.graph
        poset = dual_poset(pg)
        routes = enumerate_routes(g)
        points = set()
        ok = True
        for r in routes:
            f = flow_to_order_point(pg, route_flow_vector(g, r))
            if any(v not in (0, 1) for v in f.values()):
                ok = False
            points.add(tuple(int(f[x]) for x in poset.elements))
        ok = ok and len(points) == len(routes) == len(order_ideals(poset))
        results.append((name, ok, f"{len(routes)} vertices"))
    return results


PROPERTIES = {
    "thm2": verify_thm2,
    "dkk-eq-ps": verify_dkk_eq_ps,
    "bij-linext": verify_bij_linext,
    "bij-flow": verify_bij_flow,
    "maps-roundtrip": verify_maps_roundtrip,
    "asm-family": verify_asm_family,
    "vertex-bij": verify_vertex_bijections,
}
