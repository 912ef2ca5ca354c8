import pickle
import time

import pytest
from hypothesis import given, strategies as st

from flowpoly.errors import ContractError, InputError
from flowpoly.graphs import (
    DirectedMultigraph,
    Framing,
    all_framings,
    coherent,
    complete_graph,
    enumerate_routes,
    graph_from_json,
    graph_to_json,
    id_order_framing,
    parallel_edges,
    path_graph,
    prune_inner_vertices,
    random_framing,
    require_pruned,
    route_flow_vector,
    route_vertices,
)
from flowpoly.triangulations import dkk_maximal_cliques


def test_edges_must_point_forward():
    with pytest.raises(InputError):
        DirectedMultigraph(3, ((2, 1),))
    with pytest.raises(InputError):
        DirectedMultigraph(3, ((1, 4),))
    with pytest.raises(InputError):
        DirectedMultigraph(2, ((1, 1),))
    with pytest.raises(InputError, match="^vertex count must be positive$"):
        DirectedMultigraph(0, ())


def test_parallel_edges_refuses_a_negative_count():
    with pytest.raises(InputError, match="^edge count must be nonnegative$"):
        parallel_edges(-1)
    assert parallel_edges(0).edges == ()


@pytest.mark.parametrize(
    "g", [complete_graph(5), parallel_edges(3), path_graph(4), DirectedMultigraph(4, ((1, 3), (1, 3)))]
)
def test_stored_adjacency_matches_an_edge_scan(g):
    for v in range(0, g.n + 2):
        assert g.in_edge_ids(v) == tuple(e for e, (_, h) in enumerate(g.edges) if h == v)
        assert g.out_edge_ids(v) == tuple(e for e, (t, _) in enumerate(g.edges) if t == v)
    # the stored adjacency is not a field: equality, hash and repr ignore it
    twin = DirectedMultigraph(g.n, [list(e) for e in g.edges])
    assert twin == g and hash(twin) == hash(g)
    assert repr(g) == f"DirectedMultigraph(n={g.n}, edges={g.edges!r})"
    # a walk stores nothing on g, and a caller mutating the routes it got
    # does not reach a later walk
    routes = enumerate_routes(g)
    routes.reverse()
    routes.append((0,))
    pruned = all(g.in_edge_ids(v) and g.out_edge_ids(v) for v in g.inner_vertices())
    if pruned:
        assert dkk_maximal_cliques(g, id_order_framing(g)) == dkk_maximal_cliques(
            twin, id_order_framing(twin)
        )
    assert enumerate_routes(g) == enumerate_routes(twin)
    clone = pickle.loads(pickle.dumps(g))
    for h in (g, clone):
        assert h == twin and hash(h) == hash(twin) and repr(h) == repr(twin)
        assert vars(h) == vars(twin)


def test_dimension_formula():
    assert complete_graph(7).dimension() == 15
    assert path_graph(5).dimension() == 0
    assert parallel_edges(3).dimension() == 2


def test_route_count_complete_graph():
    # routes of K_n are subsets of inner vertices
    for n in range(3, 8):
        assert len(enumerate_routes(complete_graph(n))) == 2 ** (n - 2)


def test_route_vertices_and_flow_vector():
    g = complete_graph(4)
    routes = enumerate_routes(g)
    for r in routes:
        verts = route_vertices(g, r)
        assert verts[0] == 1 and verts[-1] == 4
        vec = route_flow_vector(g, r)
        assert sum(vec) == len(r)


def test_routes_are_lexicographic_by_edge_ids():
    g = complete_graph(4)
    routes = enumerate_routes(g)
    assert routes == sorted(routes)


def test_prune_removes_dead_inner_vertices():
    # vertex 2 has no out-edge, vertex 3 survives
    g = DirectedMultigraph(4, ((1, 2), (1, 3), (3, 4)))
    result = prune_inner_vertices(g)
    assert result.removed_vertices == (2,)
    assert result.graph.edges == ((1, 2), (2, 3))
    assert result.vertex_map == {1: 1, 3: 2, 4: 3}


def test_prune_degenerate_graph_raises():
    with pytest.raises(InputError, match="degenerate"):
        prune_inner_vertices(DirectedMultigraph(3, ((1, 2),)))


def test_require_pruned():
    require_pruned(complete_graph(4))
    require_pruned(parallel_edges(1))
    with pytest.raises(ContractError):
        require_pruned(DirectedMultigraph(3, ((1, 2), (1, 3))))
    # two vertices and no edge: no route, so an empty flow polytope
    with pytest.raises(ContractError, match="^degenerate graph, empty flow polytope$"):
        require_pruned(DirectedMultigraph(2, ()))


def test_framing_validation():
    g = complete_graph(4)
    fr = id_order_framing(g)
    Framing.validate(g, fr)
    bad = Framing(dict(fr.in_orders), dict(fr.out_orders))
    first = bad.in_orders[3][0]
    bad.in_orders[3] = (first, first)
    with pytest.raises(InputError):
        Framing.validate(g, bad)


def test_framing_validation_refuses_a_non_framing_and_malformed_orders():
    g = complete_graph(4)
    fr = id_order_framing(g)
    with pytest.raises(InputError, match="^framing must be a Framing, not NoneType$"):
        dkk_maximal_cliques(g, None)
    for bad in (
        Framing({**fr.in_orders, 2: 5}, fr.out_orders),
        Framing(fr.in_orders, {**fr.out_orders, 3: 7}),
        Framing({**fr.in_orders, 3: ("a", 1)}, fr.out_orders),
    ):
        with pytest.raises(InputError, match="-order at vertex [23] does not list its edges"):
            Framing.validate(g, bad)
    for bad in (Framing([], fr.out_orders), Framing(fr.in_orders, None)):
        with pytest.raises(InputError, match="^framing orders must map vertices to edge orders$"):
            Framing.validate(g, bad)


def test_all_framings_count():
    # K_4: 1!2! at vertex 2, 2!1! at vertex 3
    assert len(list(all_framings(complete_graph(4)))) == 4
    assert len(list(all_framings(complete_graph(5)))) == 144


@given(st.integers(0, 2 ** 30))
def test_random_framing_is_valid(seed):
    g = complete_graph(5)
    Framing.validate(g, random_framing(g, seed))


def test_coherent_rejects_a_non_path_route():
    g = DirectedMultigraph(3, ((1, 2), (2, 3), (1, 3)))
    fr = id_order_framing(g)
    with pytest.raises(ContractError, match="is not a path"):
        coherent(g, fr, (1, 0), (0, 1))
    with pytest.raises(ContractError, match="is not a path"):
        coherent(g, fr, (0, 1), (0, 2))


@pytest.mark.parametrize("route", [(-1,), (), (9,), (0, 6)])
def test_a_route_id_outside_the_edges_is_not_a_path(route):
    g = complete_graph(4)
    with pytest.raises(ContractError, match="is not a path"):
        route_vertices(g, route)
    with pytest.raises(ContractError, match="is not a path"):
        coherent(g, id_order_framing(g), route, (2,))


@pytest.mark.parametrize("route", [(5,), (3,), (3, 5), (0,), (0, 3)])
def test_a_path_that_does_not_run_from_1_to_n_is_not_a_route(route):
    g = complete_graph(4)
    with pytest.raises(ContractError, match="^edge sequence .* is not a path from 1 to 4$"):
        route_vertices(g, route)
    with pytest.raises(ContractError, match="is not a path"):
        coherent(g, id_order_framing(g), route, (0, 3, 5))


@pytest.mark.parametrize("route", [("a",), (0.5,), 5, [1.0, "2"]])
def test_route_ids_follow_the_integer_rule(route):
    with pytest.raises(InputError, match="^route edge ids must be integers$"):
        route_vertices(complete_graph(4), route)


def test_route_ids_that_are_integral_numbers_are_read_as_ints():
    g = complete_graph(4)
    assert route_vertices(g, [0.0, 4]) == route_vertices(g, (0, 4)) == (1, 2, 4)


def test_coherent_checks_its_framing():
    g = complete_graph(4)
    with pytest.raises(InputError, match="does not list its edges exactly once"):
        coherent(g, Framing({}, {}), (2,), (0, 3, 5))


def test_coherence_is_symmetric():
    g = complete_graph(5)
    fr = random_framing(g, 3)
    routes = enumerate_routes(g)
    for p in routes:
        for q in routes:
            assert coherent(g, fr, p, q) == coherent(g, fr, q, p)


def test_routes_sharing_no_inner_vertex_are_coherent():
    g = parallel_edges(3)
    fr = id_order_framing(g)
    for p in enumerate_routes(g):
        for q in enumerate_routes(g):
            assert coherent(g, fr, p, q)


def test_graph_json_roundtrip():
    g = complete_graph(5)
    fr = random_framing(g, 11)
    g2, fr2 = graph_from_json(graph_to_json(g, fr))
    assert g2 == g
    assert fr2.in_orders == fr.in_orders and fr2.out_orders == fr.out_orders
    # framing defaults to id-order when absent
    g3, fr3 = graph_from_json({"n": 4, "edges": [[1, 2], [2, 3], [3, 4], [1, 4]]})
    assert fr3.in_orders == id_order_framing(g3).in_orders


def test_graph_json_malformed():
    with pytest.raises(InputError):
        graph_from_json({"edges": [[1, 2]]})
    # non-integral numbers are refused, not truncated
    for data in (
        {"n": 3.7, "edges": [[1, 3], [1, 2], [2, 3]]},
        {"n": 3, "edges": [[1.5, 3], [1, 2], [2, 3]]},
    ):
        with pytest.raises(InputError, match="must be integers"):
            graph_from_json(data)
    g, _ = graph_from_json({"n": 3.0, "edges": [[1.0, 3], [1, 2], [2, 3]]})
    assert g == DirectedMultigraph(3, ((1, 3), (1, 2), (2, 3)))
    # an unpruned graph is refused before the framing over its inner
    # vertices is built, so the vertex count alone cannot overflow or stall
    for n in (1e300, 10**6):
        start = time.perf_counter()
        with pytest.raises(InputError, match="^graph is not pruned: vertex 2 lacks in- or out-edges$"):
            graph_from_json({"n": n, "edges": []})
        assert time.perf_counter() - start < 0.1
