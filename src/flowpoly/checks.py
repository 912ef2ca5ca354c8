"""Mechanical verification of the package's structural claims.

Each verify_* function runs one property over the built-in corpus and
returns a list of (fixture name, passed, detail) records; the CLI turns
these into PASS/FAIL lines and an exit code.
"""

from __future__ import annotations

from fractions import Fraction

from . import fixtures
from .asm import family_report
from .graphs import all_framings, id_order_framing, random_framing, route_flow_vector
from .kostant import ehrhart_netflow, enumerate_integer_flows, indegree_shift_netflow
from .planar import (
    _ideal_routes, dual_poset, flow_to_order_point, order_to_flow_point, poset_to_flow_graph
)
from .posets import (
    _chain_sums, _ideal_vertices, all_staircase_partitions, linear_extensions,
    order_polynomial, staircase_star,
)
from .triangulations import (
    _clique_masks,
    _items,
    _ps_masks,
    clique_to_flow,
    dkk_maximal_cliques,
    flow_to_clique,
    framing_change_bijection,
    linext_to_clique,
)


def transported_canonical_triangulation(pg):
    """Canonical simplices of O(P_G) in flow coordinates: each vertex, the
    filter indicator of an ideal, becomes the unit flow of its route."""
    poset, routes, route_of = _ideal_routes(pg)
    flow = {m: route_flow_vector(pg.graph, routes[i]) for m, i in route_of.items()}
    return _chain_sums(poset, (flow[0],), lambda i, up: (flow[up],))


def _thm2(pg):
    """The sets of canonical simplices of O(P_G) and of DKK cliques of pg,
    both as masks over its route index."""
    poset, routes, route_of = _ideal_routes(pg)
    bit = {m: 1 << (len(routes) - 1 - i) for m, i in route_of.items()}
    canonical = _chain_sums(poset, bit[0], lambda i, up: bit[up])
    return set(canonical), set(_clique_masks(pg.graph, pg.framing)[2])


def verify_thm2():
    """Transported canonical triangulation equals the clique triangulation,
    on the planar corpus and the staircase of order 6."""
    corpus = fixtures.planar_fixtures()
    corpus["gp-skew6-0"] = poset_to_flow_graph(*staircase_star(6))
    results = []
    for name, pg in corpus.items():
        canonical, cliques = _thm2(pg)
        ok = canonical == cliques
        detail = f"{len(cliques)} simplices" if ok else (
            f"mismatch: {len(canonical - cliques)} only canonical, "
            f"{len(cliques - canonical)} only clique-side"
        )
        results.append((name, ok, detail))
    return results


def _framings_for(name, g):
    if name in ("k4", "k5"):
        return list(all_framings(g))
    return [id_order_framing(g)] + [random_framing(g, seed) for seed in range(5)]


def _reduction_failure(g, framing):
    """Why the reduction leaves under framing are not the coherent cliques,
    or None; compared as masks, a mismatch names the first incoherent pair."""
    routes, adj, cliques = _clique_masks(g, framing)
    masks = _ps_masks(g, framing)[1]
    if sorted(masks, reverse=True) == cliques:
        return None
    for mask in masks:
        for b in range(mask.bit_length() - 1, -1, -1):  # from the first route; later ones are lower
            later = mask & ~adj[b] & ((1 << b) - 1)
            if mask >> b & 1 and later:
                p, q = _items((1 << b) | (1 << later.bit_length() - 1), routes)
                return f"incoherent leaf pair {p} and {q}"
    return "route families differ"


def verify_dkk_eq_ps():
    """Reduction leaves and coherent cliques coincide; leaves are coherent.
    A fixture stops at its first failure, which names the framing."""
    results = []
    for name, g in fixtures.graph_fixtures().items():
        for k, framing in enumerate(_framings_for(name, g)):
            failure = _reduction_failure(g, framing)
            if failure:
                break
        detail = f"{failure} (framing #{k})" if failure else f"{k + 1} framings"
        results.append((name, not failure, detail))
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


def verify_maps_roundtrip():
    """The order/flow maps are mutually inverse on lattice points of 1- and 2-dilates."""
    results = []
    for name, pg in fixtures.planar_fixtures().items():
        g = pg.graph
        poset = dual_poset(pg)
        ok = True
        detail_counts = []
        for t in (1, 2):
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


def verify_asm_family(ns=(3, 4)):
    """family_report consistency across the staircase shapes."""
    results = []
    for n in ns:
        for lam in all_staircase_partitions(n):
            report = family_report(n, lam)
            name = f"n={n} lambda={','.join(map(str, lam)) or '-'}"
            detail = (
                f"vertices {report.vertex_count}, dim {report.dimension}, "
                f"vol {report.volume_by_extensions}"
            )
            results.append((name, report.all_consistent, detail))
    return results


def verify_vertex_bijections():
    """Routes <-> ideals by upper boundaries, on the planar corpus, and
    flow_to_order_point sends each route to its ideal's filter indicator."""
    results = []
    for name, pg in fixtures.planar_fixtures().items():
        poset, routes, route_of = _ideal_routes(pg)
        vertex = _ideal_vertices(poset)
        ok = len(route_of) == len(routes) and all(
            flow_to_order_point(pg, route_flow_vector(pg.graph, routes[i]))
            == dict(zip(poset.elements, vertex[m]))
            for m, i in route_of.items()
        )
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
