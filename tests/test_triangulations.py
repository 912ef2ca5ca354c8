import gc
import re
from collections import Counter
from itertools import combinations, combinations_with_replacement, product
from math import comb, factorial

import pytest
from hypothesis import example, given, seed, settings, strategies as st

from flowpoly import checks, triangulations
from flowpoly.asm import dyck_path_count, enumerate_asm
from flowpoly.errors import ContractError, InputError, InternalCheckError
from flowpoly.fixtures import (
    TRIANGLE, graph_fixtures, planar_fixtures, poset_fixtures, wedge_framing, wedge_graph
)
from flowpoly.graphs import (
    DirectedMultigraph,
    Framing,
    all_framings,
    coherent,
    complete_graph,
    enumerate_routes,
    id_order_framing,
    parallel_edges,
    random_framing,
    require_pruned,
    route_flow_vector,
    route_vertices,
)
from flowpoly.kostant import (
    compositions_colex, enumerate_integer_flows, flow_polytope_volume, indegree_shift_netflow
)
from flowpoly.planar import arc_diagram, dual_poset, order_to_flow_point, poset_to_flow_graph
from flowpoly.posets import (
    all_staircase_partitions,
    antichain,
    chain,
    count_linear_extensions,
    linear_extensions,
    skew_star,
    staircase_star,
    zigzag,
)
from flowpoly.triangulations import (
    NoncrossingTree,
    canonical_triangulation,
    clique_to_flow,
    compare_triangulations,
    dkk_maximal_cliques,
    dkk_triangulation,
    flow_to_clique,
    framing_change_bijection,
    linext_to_clique,
    noncrossing_trees,
    ps_triangulation,
    simplex_key,
)


def test_canonical_simplex_count_and_shape():
    for p, _ in (chain(3), antichain(3), zigzag(4), skew_star(4)):
        simps = canonical_triangulation(p)
        assert len(simps) == len(linear_extensions(p))
        for s in simps:
            assert len(s.vertices) == len(p.elements) + 1
            # vertices interpolate between all-ones and all-zeros
            assert s.vertices[0] == (1,) * len(p.elements)
            assert s.vertices[-1] == (0,) * len(p.elements)


def _walk_free_canonical(p):
    """The canonical simplices built without the chain walk: a recursive
    walk of the linear extensions over the addable elements of each prefix
    ideal, then each extension's prefix ideals rebuilt as masks, one vertex
    (the complementary filter's indicator) per mask."""
    elements = p.elements
    below = [sum(1 << elements.index(a) for a in p.strictly_below(x)) for x in elements]
    extensions = []

    def walk(ideal, prefix):
        addable = [i for i, b in enumerate(below) if not ideal >> i & 1 and not b & ~ideal]
        if not addable:
            extensions.append(prefix)
        for i in addable:
            walk(ideal | 1 << i, prefix + (elements[i],))

    walk(0, ())
    simplices = []
    for ext in extensions:
        masks = [0]
        for e in ext:
            masks.append(masks[-1] | 1 << elements.index(e))
        vertices = tuple(tuple(int(not m >> i & 1) for i in range(len(elements))) for m in masks)
        simplices.append((ext, vertices))
    return simplices


ORACLE_POSETS = {name: p for name, (p, _) in poset_fixtures().items()} | {
    "skew5-" + ("".join(map(str, lam)) or "0"): skew_star(5, lam)[0]
    for lam in all_staircase_partitions(5)
}


@pytest.mark.parametrize("name", ORACLE_POSETS)
def test_canonical_triangulation_matches_the_walk_free_oracle(name):
    # up to 10 elements, past the 7 of the generated posets
    p = ORACLE_POSETS[name]
    simplices = canonical_triangulation(p)
    assert [(s.extension, s.vertices) for s in simplices] == _walk_free_canonical(p)
    assert [s.extension for s in simplices] == linear_extensions(p)


def test_noncrossing_tree_counts():
    assert len(noncrossing_trees(2, 3)) == 3
    assert len(noncrossing_trees(1, 4)) == 1
    assert len(noncrossing_trees(5, 1)) == 1
    for l in range(1, 7):
        for r in range(1, 7):
            assert len(noncrossing_trees(l, r)) == comb(l + r - 2, l - 1)


def test_noncrossing_tree_edges_are_noncrossing():
    # the (left, right) pairs the reduction's deal joins: right j takes the
    # lefts in its window lo..hi-1
    for left, right in product(range(1, 6), repeat=2):
        for tree in noncrossing_trees(left, right):
            windows = triangulations._deal(tree.composition)
            pairs = [(a, x) for x, (lo, hi, _) in enumerate(windows) for a in range(lo, hi)]
            assert len(pairs) == left + right - 1
            reached, size = {("left", 0)}, 0
            while len(reached) != size:
                size = len(reached)
                for a, x in pairs:
                    if {("left", a), ("right", x)} & reached:
                        reached |= {("left", a), ("right", x)}
            assert len(reached) == left + right  # connected, so a spanning tree
            for (a, x) in pairs:
                for (b, y) in pairs:
                    assert not (a < b and y < x)


def test_noncrossing_tree_rejects_bad_composition():
    with pytest.raises(ContractError):
        NoncrossingTree(3, 2, (3, 0))
    with pytest.raises(ContractError, match=r"^composition \(3, -1\) does not encode a tree"):
        NoncrossingTree(3, 2, (3, -1))
    with pytest.raises(InputError, match="^both sides of a noncrossing tree must be nonempty$"):
        noncrossing_trees(0, 2)
    for sides in ((None, 2), ("a", 1), (2, [1])):
        with pytest.raises(InputError, match="^noncrossing tree sides must be integers$"):
            noncrossing_trees(*sides)


def test_reduction_degrees_follow_composition():
    # star: 4 in-edges and 3 out-edges at vertex 2, reduced along (1, 0, 2)
    g = DirectedMultigraph(
        3, ((1, 2), (1, 2), (1, 2), (1, 2), (2, 3), (2, 3), (2, 3))
    )
    fr = id_order_framing(g)
    flow = (0, 0, 0, 0, 1, 0, 2)
    routes = flow_to_clique(g, fr, flow)
    # out-edge j takes b_j + 1 consecutive in-edges, neighbours sharing one
    assert routes == ((0, 4), (1, 4), (1, 5), (1, 6), (2, 6), (3, 6))
    assert [sum(r[-1] == e for r in routes) for e in (4, 5, 6)] == [2, 1, 3]
    assert clique_to_flow(g, fr, routes) == flow


def _tuple_prefix_reduction(g, fr):
    """The vertex reduction with each route prefix kept as its edge-id tuple:
    (sorted leaf routes, leaf flow) per leaf, in walk order."""
    blocks = {e: [(e,)] for e in g.out_edge_ids(1)}
    flow = [0] * g.edge_count
    leaves = []

    def descend(v):
        if v == g.n:
            routes = [pre for e in g.in_edge_ids(g.n) for pre in blocks[e]]
            leaves.append((tuple(sorted(routes)), tuple(flow)))
            return
        ins = [pre for e in fr.in_orders[v] for pre in blocks[e]]
        for composition in compositions_colex(len(ins) - 1, len(fr.out_orders[v])):
            p = 0
            for e, b in zip(fr.out_orders[v], composition):
                blocks[e] = [pre + (e,) for pre in ins[p : p + b + 1]]
                flow[e] = b
                p += b
            descend(v + 1)

    descend(2)
    return leaves


REDUCTION_ORACLE_CASES = [
    (f"k{n}-{name}", complete_graph(n), fr)
    for n in (4, 5, 6, 7)
    for name, fr in (
        ("id", id_order_framing(complete_graph(n))),
        ("f5", random_framing(complete_graph(n), 5)),
        ("f91", random_framing(complete_graph(n), 91)),
    )
] + [(name, pg.graph, pg.framing) for name, pg in planar_fixtures().items()]
# the walk ends at n - 1 when n - 1 has one out-edge: on K3 that is the first
# inner vertex; a second (5, 6) edge keeps K6's walk going down to n
K6_TWO_56 = DirectedMultigraph(6, complete_graph(6).edges + ((5, 6),))
REDUCTION_ORACLE_CASES += [
    ("k3-id", complete_graph(3), id_order_framing(complete_graph(3))),
    ("k6-two-56-id", K6_TWO_56, id_order_framing(K6_TWO_56)),
    ("k6-two-56-f5", K6_TWO_56, random_framing(K6_TWO_56, 5)),
]


@pytest.mark.parametrize(
    "name,g,fr", REDUCTION_ORACLE_CASES, ids=[c[0] for c in REDUCTION_ORACLE_CASES]
)
def test_reduction_matches_the_tuple_prefix_oracle(name, g, fr):
    leaves = ps_triangulation(g, fr)
    assert [(leaf.routes, leaf.flow) for leaf in leaves] == _tuple_prefix_reduction(g, fr)


def _ps_with_a_repeat(monkeypatch, vertex, out_order=None):
    """ps_triangulation on K6 with the prefixes arriving at vertex ending in
    their first one again, in place of the last, and optionally vertex's
    out-order replaced.  The first leaf deals every arriving prefix to the
    first out-edge, at vertex and below it, so that edge's window holds the
    first prefix twice and the leaf has #E - #V + 2 routes, one twice."""
    arriving = triangulations._arriving

    def repeating(framing, blocks, v):
        ins = arriving(framing, blocks, v)
        return ins[:-1] + ins[:1] if v == vertex else ins

    monkeypatch.setattr(triangulations, "_arriving", repeating)
    g = complete_graph(6)
    fr = id_order_framing(g)
    if out_order is not None:
        fr = Framing(fr.in_orders, {**fr.out_orders, vertex: out_order})
    message = "leaf does not have #E - #V + 2 distinct routes"
    with pytest.raises(InternalCheckError, match=f"^{re.escape(message)}$"):
        ps_triangulation(g, fr)


def test_leaf_refuses_a_repeated_route(monkeypatch):
    # vertex 3 deals the repeat to edge (3, 4), which enters neither 5 nor 6,
    # so it is carried down in that edge's block
    _ps_with_a_repeat(monkeypatch, 3)


def test_leaf_refuses_a_repeated_route_on_an_edge_into_n(monkeypatch):
    # with (4, 6) first in the out-order of vertex 4, the repeat lands in the
    # union of an edge into n
    g = complete_graph(6)
    _ps_with_a_repeat(monkeypatch, 4, (g.edges.index((4, 6)), g.edges.index((4, 5))))


def test_leaf_refuses_a_repeated_route_on_an_edge_into_n_minus_1(monkeypatch):
    # vertex 4 deals the repeat to (4, 5); vertex 5 has the one out-edge
    # (5, 6), so the walk keeps no block there and the repeat lands in the
    # union it carries for the edges into n - 1
    _ps_with_a_repeat(monkeypatch, 4)


def test_reduction_leaf_count_is_volume():
    for g in (complete_graph(4), complete_graph(5), complete_graph(6), wedge_graph()):
        fr = wedge_framing() if g.n == 5 and g.edge_count == 8 else id_order_framing(g)
        leaves = ps_triangulation(g, fr)
        assert len(leaves) == flow_polytope_volume(g)
        for leaf in leaves:
            assert len(leaf.routes) == g.edge_count - g.n + 2


def test_reduction_of_parallel_graph_is_trivial():
    g = parallel_edges(3)
    leaves = ps_triangulation(g, Framing({}, {}))
    assert len(leaves) == 1
    assert leaves[0].routes == ((0,), (1,), (2,))


def test_leaf_flows_are_shifted_netflows():
    g = complete_graph(5)
    nf = indegree_shift_netflow(g)
    valid = {
        tuple(fl.get(e, 0) for e in range(g.edge_count))
        for fl in enumerate_integer_flows(g, nf)
    }
    leaves = ps_triangulation(g, id_order_framing(g))
    assert {leaf.flow for leaf in leaves} == valid


def test_dkk_cliques_are_pairwise_coherent():
    g = complete_graph(5)
    fr = random_framing(g, 7)
    for clique in dkk_maximal_cliques(g, fr):
        for p in clique:
            for q in clique:
                assert coherent(g, fr, p, q)


def test_dkk_matches_reduction_on_k4_all_framings():
    g = complete_graph(4)
    for fr in all_framings(g):
        dkk = {tuple(c) for c in dkk_maximal_cliques(g, fr)}
        ps = {leaf.routes for leaf in ps_triangulation(g, fr)}
        assert dkk == ps


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 2 ** 20))
def test_dkk_matches_reduction_on_seeded_framings(seed):
    g = complete_graph(5)
    fr = random_framing(g, seed)
    dkk = {tuple(c) for c in dkk_maximal_cliques(g, fr)}
    ps = {leaf.routes for leaf in ps_triangulation(g, fr)}
    assert dkk == ps


def _brute_force_cliques(g, fr):
    """Every pairwise-coherent route set of size #E - #V + 2 that no route extends."""
    routes = enumerate_routes(g)
    ok = {(p, q) for p in routes for q in routes if p == q or coherent(g, fr, p, q)}
    found = []
    for clique in combinations(routes, g.edge_count - g.n + 2):
        if all((p, q) in ok for p, q in combinations(clique, 2)) and not any(
            r not in clique and all((r, p) in ok for p in clique) for r in routes
        ):
            found.append(clique)
    return found


ORACLE_GRAPHS = [
    ("k4", complete_graph(4), None),
    ("k5", complete_graph(5), None),
    ("parallel3", parallel_edges(3), None),
] + [(name, pg.graph, pg.framing) for name, pg in planar_fixtures().items()]


@pytest.mark.parametrize("name,g,planar", ORACLE_GRAPHS, ids=[n for n, _, _ in ORACLE_GRAPHS])
def test_dkk_cliques_match_brute_force(name, g, planar):
    framings = [random_framing(g, seed) for seed in (3, 17, 2024)]
    for fr in framings + ([planar] if planar is not None else []):
        assert dkk_maximal_cliques(g, fr) == _brute_force_cliques(g, fr)


def test_dkk_rejects_cliques_of_mixed_sizes(monkeypatch):
    # K5 has 8 routes and cliques of size 7; without the pairs (r0, r1) and
    # (r0, r2) the maximal cliques are {r1..r7} (size 7) and {r0, r3..r7} (size 6)
    g = complete_graph(5)
    r = enumerate_routes(g)
    missing = {frozenset((r[0], r[1])), frozenset((r[0], r[2]))}
    # profile each route as itself, so the patched kernel sees the routes
    monkeypatch.setattr(triangulations, "_passes", lambda g, fr, route: route)
    monkeypatch.setattr(triangulations, "_coherent", lambda p, q: {p, q} not in missing)
    with pytest.raises(InternalCheckError, match="clique of size 6, expected 7"):
        dkk_maximal_cliques(g, id_order_framing(g))


def test_triangle_has_single_clique():
    cliques = dkk_maximal_cliques(TRIANGLE, id_order_framing(TRIANGLE))
    assert cliques == [((0, 1), (2,))]


@st.composite
def neighbour_masks(draw):
    """A random graph on 1 to 12 vertices as neighbour masks by bit."""
    n = draw(st.integers(1, 12))
    adj = [0] * n
    for a, b in combinations(range(n), 2):
        if draw(st.booleans()):
            adj[a] |= 1 << b
            adj[b] |= 1 << a
    return adj


def _brute_force_maximal_cliques(adj):
    """Every vertex set whose members are pairwise adjacent and to which no
    other vertex is adjacent in full, as a mask."""
    n = len(adj)
    found = set()
    for size in range(n + 1):
        for vs in combinations(range(n), size):
            mask = sum(1 << v for v in vs)
            if all(adj[a] >> b & 1 for a, b in combinations(vs, 2)) and not any(
                mask & ~adj[v] == 0 for v in range(n) if v not in vs
            ):
                found.add(mask)
    return found


@seed(0xB4)
@settings(max_examples=60, deadline=2000)
@given(neighbour_masks())
@example([0])  # one isolated vertex
@example([0b10, 0b01, 0b1000, 0b0100, 0])  # cliques of sizes 2, 2 and 1
@example([0b0110, 0b0101, 0b0011, 0])  # a triangle and an isolated vertex
def test_maximal_cliques_match_brute_force_on_any_graph(adj):
    cliques = triangulations._maximal_cliques(adj)
    assert len(cliques) == len(set(cliques))
    assert set(cliques) == _brute_force_maximal_cliques(adj)


@st.composite
def mask_lists(draw):
    """Masks over 0 to 10 route-like items, in drawn, ascending or
    descending order, with repeats and the empty mask allowed."""
    items = [(i, i + 1) for i in range(draw(st.integers(0, 10)))]
    masks = draw(st.lists(st.integers(0, (1 << len(items)) - 1), max_size=30))
    if masks:
        masks += draw(st.lists(st.sampled_from(masks), max_size=5))
    order = draw(st.sampled_from(["drawn", "ascending", "descending"]))
    if order == "drawn":
        masks = draw(st.permutations(masks))
    else:
        masks.sort(reverse=order == "descending")
    return list(masks), items


@seed(0xDEC)
@settings(max_examples=60, deadline=2000)
@given(mask_lists())
@example(([], [(0, 1)]))
@example(([0, 0b101, 0b101, 0, 0b111], [(0, 1), (1, 2), (2, 3)]))
@example(([0b111, 0b110, 0b011, 0b001, 0], [(0, 1), (1, 2), (2, 3)]))
def test_decode_matches_per_mask_items(masks_and_items):
    # the decoder reads each mask against the previous one, so its order,
    # repeats and the empty mask must not change any tuple
    masks, items = masks_and_items
    assert triangulations._decode(masks, items) == [triangulations._items(m, items) for m in masks]


@st.composite
def wide_mask_lists(draw):
    """Masks over 9 to 40 route-like items, so that a low part spans several
    8-bit chunks, each drawn at random or as a neighbour of an earlier mask
    with a few low bits flipped, in drawn, ascending or descending order."""
    items = [(i, i + 1) for i in range(draw(st.integers(9, 40)))]
    full = (1 << len(items)) - 1
    masks = []
    for _ in range(draw(st.integers(0, 30))):
        if masks and draw(st.booleans()):
            masks.append(draw(st.sampled_from(masks)) ^ draw(st.integers(0, 0xFFFF)) & full)
        else:
            masks.append(draw(st.integers(0, full)))
    order = draw(st.sampled_from(["drawn", "ascending", "descending"]))
    if order != "drawn":
        masks.sort(reverse=order == "descending")
    return masks, items


@seed(0xDEC8)
@settings(max_examples=60, deadline=2000)
@given(wide_mask_lists())
@example(([(1 << 40) - 1, 0xFF00FF00FF, 0x00FF00FF00, 0xFF00FF00FF, 0], [(i, i + 1) for i in range(40)]))
def test_decode_matches_per_mask_items_across_8_bit_chunks(masks_and_items):
    # a missed low part is read 8 bits at a time from a per-call memo of
    # chunks, so one chunk value at two shifts must give two item runs
    masks, items = masks_and_items
    assert triangulations._decode(masks, items) == [triangulations._items(m, items) for m in masks]


def test_flow_clique_roundtrip():
    g = complete_graph(5)
    fr = random_framing(g, 2)
    for leaf in ps_triangulation(g, fr):
        assert flow_to_clique(g, fr, leaf.flow) == leaf.routes
        assert clique_to_flow(g, fr, leaf.routes) == leaf.flow


STAIRCASE4 = poset_to_flow_graph(*staircase_star(4))
K5_REVERSED = DirectedMultigraph(5, tuple(reversed(complete_graph(5).edges)))
ROUNDTRIP_CASES = [
    (f"k{n}-f{seed}", complete_graph(n), random_framing(complete_graph(n), seed))
    for n in (5, 6)
    for seed in (1, 8, 33)
] + [
    ("staircase4", STAIRCASE4.graph, STAIRCASE4.framing),
    # edge ids falling along every route
    ("k5-ids-reversed", K5_REVERSED, random_framing(K5_REVERSED, 8)),
]


@pytest.mark.parametrize("name,g,fr", ROUNDTRIP_CASES, ids=[c[0] for c in ROUNDTRIP_CASES])
def test_flow_clique_roundtrip_on_every_leaf(name, g, fr):
    leaves = ps_triangulation(g, fr)
    assert len(leaves) == flow_polytope_volume(g)
    for leaf in leaves:
        assert flow_to_clique(g, fr, leaf.flow) == leaf.routes
        assert clique_to_flow(g, fr, leaf.routes) == leaf.flow
        assert clique_to_flow(g, fr, reversed(leaf.routes)) == leaf.flow
        assert leaf.flow == _distinct_prefix_flow(g, leaf.routes)


def test_flow_clique_maps_enumerate_no_route(monkeypatch):
    # a flow replays over tuples of edge ids and a clique counts its own
    # prefixes, so K20 and its 2^18 routes cost no more than one replay each,
    # and neither map builds or decodes a route mask
    def refuse(*args):
        raise AssertionError("the maps enumerated the routes of g or used route masks")

    for name in ("enumerate_routes", "_items", "_through"):
        monkeypatch.setattr(triangulations, name, refuse)
    g = complete_graph(20)
    fr = random_framing(g, 7)
    flow = tuple(t - 2 if h == g.n and t > 1 else 0 for t, h in g.edges)
    clique = flow_to_clique(g, fr, flow)
    assert len(clique) == g.edge_count - g.n + 2
    assert clique_to_flow(g, fr, clique) == flow


@st.composite
def framed_graphs(draw):
    """The path 1 -> ... -> n plus up to 5 forward edges, parallels allowed,
    under a random framing."""
    n = draw(st.integers(2, 6))
    extra = []
    for _ in range(draw(st.integers(0, 5))):
        tail = draw(st.integers(1, n - 1))
        extra.append((tail, draw(st.integers(tail + 1, n))))
    g = DirectedMultigraph(n, tuple((v, v + 1) for v in range(1, n)) + tuple(extra))
    return g, random_framing(g, draw(st.integers(0, 2**20)))


@seed(0xF10)
@settings(max_examples=60, deadline=2000)
@given(framed_graphs())
def test_reduction_agrees_with_volume_cliques_and_flows(graph_and_framing):
    g, fr = graph_and_framing
    leaves = ps_triangulation(g, fr)
    cliques = dkk_maximal_cliques(g, fr)
    assert len(leaves) == flow_polytope_volume(g) == len(cliques)
    assert sorted(leaf.routes for leaf in leaves) == cliques
    assert [(leaf.routes, leaf.flow) for leaf in leaves] == _tuple_prefix_reduction(g, fr)
    flows = enumerate_integer_flows(g, indegree_shift_netflow(g))
    assert {leaf.flow for leaf in leaves} == {
        tuple(fl.get(e, 0) for e in range(g.edge_count)) for fl in flows
    }
    for leaf in leaves:
        assert flow_to_clique(g, fr, leaf.flow) == leaf.routes
        assert clique_to_flow(g, fr, leaf.routes) == leaf.flow


def _coherent_at_merge_vertices(g, fr, p, q):
    """Coherence as first defined: at each common inner vertex v, compare the
    last differing edges of the two prefixes into v in the in-order of the
    vertex they enter, and the first differing edges of the two suffixes
    out of v in the out-order of the vertex they leave."""
    vp, vq = route_vertices(g, p), route_vertices(g, q)

    def compare(a, b, orders, end):
        if a == b:
            return 0
        k = 0
        while a[k] == b[k]:
            k += 1
        order = orders[g.edges[a[k]][end]]
        return -1 if order.index(a[k]) < order.index(b[k]) else 1

    for v in set(vp[1:-1]) & set(vq[1:-1]):
        i, j = vp.index(v), vq.index(v)
        c_in = compare(p[:i][::-1], q[:j][::-1], fr.in_orders, 1)
        c_out = compare(p[i:], q[j:], fr.out_orders, 0)
        if c_in * c_out < 0:
            return False
    return True


def _coherence_cases():
    for n in (3, 4, 5):
        yield from ((complete_graph(n), fr) for fr in all_framings(complete_graph(n)))
    for n in (6, 7):
        g = complete_graph(n)
        yield g, id_order_framing(g)
        yield from ((g, random_framing(g, seed)) for seed in range(6))
    for g in graph_fixtures().values():
        yield from ((g, random_framing(g, seed)) for seed in (1, 2, 3))
    yield from ((pg.graph, pg.framing) for pg in planar_fixtures().values())


def _check_coherence_on_all_pairs(g, fr):
    routes = enumerate_routes(g)
    for p in routes:
        for q in routes:
            assert coherent(g, fr, p, q) == _coherent_at_merge_vertices(g, fr, p, q)
    return len(routes) ** 2


def test_coherent_matches_merge_vertex_definition():
    assert sum(_check_coherence_on_all_pairs(g, fr) for g, fr in _coherence_cases()) == 23478


@seed(0xC0E)
@settings(max_examples=60, deadline=2000)
@given(framed_graphs())
def test_coherent_matches_merge_vertex_definition_on_generated_graphs(graph_and_framing):
    _check_coherence_on_all_pairs(*graph_and_framing)


def test_walks_free_their_state_on_return():
    # a recursive closure that kept its self-reference would leave a cycle
    # for the garbage collector on every call
    g = complete_graph(6)
    fr = id_order_framing(g)
    p4, emb4 = staircase_star(4)
    pg4 = poset_to_flow_graph(p4, emb4)
    gc.collect()
    gc.disable()
    try:
        dkk_maximal_cliques(g, fr)
        checks._thm2(pg4)  # the canonical-mask walk and the clique walk
        canonical_triangulation(p4)
        checks.transported_canonical_triangulation(pg4)
        ps_triangulation(g, fr)
        enumerate_asm(4)
        linear_extensions(p4)
        enumerate_integer_flows(g, indegree_shift_netflow(g))
        all_staircase_partitions(5)
        dyck_path_count(5)
        assert gc.collect() == 0
    finally:
        gc.enable()


def _k6_leaves():
    g = complete_graph(6)
    fr = random_framing(g, 1)
    return g, fr, [leaf.routes for leaf in ps_triangulation(g, fr)]


def _prefix_counts(routes):
    """Number of distinct route prefixes ending in each edge."""
    return Counter(pre[-1] for pre in {r[:j] for r in routes for j in range(1, len(r) + 1)})


def _distinct_prefix_flow(g, routes):
    """The flow read off a leaf's routes: one less than the number of distinct
    route prefixes ending in each edge, and 0 on the edges out of 1."""
    counts = _prefix_counts(routes)
    return tuple(0 if g.edges[e][0] == 1 else counts[e] - 1 for e in range(g.edge_count))


def _crossed(g, cliques):
    """Two routes of a leaf made to swap their tails where they meet, such
    that the distinct-prefix count of every edge stays that of the leaf:
    only the confirming replay tells this route set from the leaf."""
    for clique in cliques:
        for p, q in combinations(clique, 2):
            for i in range(1, len(p)):
                for j in range(1, len(q)):
                    if g.edges[p[i]][0] != g.edges[q[j]][0] or p[:i] == q[:j] or p[i:] == q[j:]:
                        continue
                    rest = tuple(r for r in clique if r not in (p, q))
                    crossed = rest + (p[:i] + q[j:], q[:j] + p[i:])
                    if len(set(crossed)) == len(crossed) and _prefix_counts(crossed) == _prefix_counts(clique):
                        return crossed
    raise AssertionError("no leaf has a tail swap that keeps the prefix counts")


@pytest.mark.parametrize(
    "make_clique",
    [
        _crossed,
        lambda g, cliques: cliques[0] + cliques[0][:1],
        lambda g, cliques: cliques[0][1:],
        lambda g, cliques: cliques[0][:-1] + (next(r for r in cliques[1] if r not in cliques[0]),),
        lambda g, cliques: cliques[0][:-1] + ((g.edge_count,),),
        lambda g, cliques: cliques[0][:-1] + ((-1,) + cliques[0][-1][1:],),
        lambda g, cliques: cliques[0][1:] + (tuple(reversed(cliques[0][0])),),
        lambda g, cliques: (),
        lambda g, cliques: [list(r) for r in cliques[0]],
        lambda g, cliques: [tuple(float(e) for e in r) for r in cliques[0]],
    ],
    ids=["crossed-tails", "repeated-route", "dropped-route", "swapped-route", "edge-out-of-range",
         "negative-edge-id", "not-a-path", "empty", "routes-as-lists", "float-edge-ids"],
)
def test_clique_to_flow_rejects_non_leaves(make_clique):
    g, fr, cliques = _k6_leaves()
    with pytest.raises(
        InputError, match="^route set is not a leaf of the reduction for this framing$"
    ):
        clique_to_flow(g, fr, make_clique(g, cliques))


def test_flow_to_clique_rejects_unrealizable_flow():
    g = complete_graph(4)
    fr = id_order_framing(g)
    with pytest.raises(InputError):
        flow_to_clique(g, fr, (9, 9, 9, 9, 9, 9))
    with pytest.raises(InputError):
        flow_to_clique(g, fr, (1, 0, 0))


def test_flow_and_clique_maps_reject_malformed_entries():
    g = complete_graph(4)
    fr = id_order_framing(g)
    for flow in (("a",) * 6, (None,) * 6, (float("inf"),) * 6, 6):
        with pytest.raises(InputError, match="^flow must be a nonnegative integer vector"):
            flow_to_clique(g, fr, flow)
    for clique in ([(0,), "x"], [(0, 1), (0, "a")], 7):
        with pytest.raises(InputError, match="^route set must be a collection of edge-id tuples$"):
            clique_to_flow(g, fr, clique)
    # the graph and framing are refused as such, before any route is read
    leaf = ps_triangulation(g, fr)[0]
    gapped = Framing({**fr.in_orders, 3: fr.in_orders[3][1:]}, fr.out_orders)
    message = "^framing in-order at vertex 3 does not list its edges exactly once$"
    with pytest.raises(InputError, match=message):
        flow_to_clique(g, gapped, leaf.flow)
    with pytest.raises(InputError, match=message):
        clique_to_flow(g, gapped, leaf.routes)
    unpruned = DirectedMultigraph(5, g.edges)
    with pytest.raises(ContractError):
        flow_to_clique(unpruned, fr, leaf.flow)
    with pytest.raises(ContractError):
        clique_to_flow(unpruned, fr, leaf.routes)
    # True is the int 1, as a float id is not an int
    assert any(1 in r for r in leaf.routes)
    as_bools = [tuple(True if e == 1 else e for e in r) for r in leaf.routes]
    assert clique_to_flow(g, fr, as_bools) == leaf.flow


def test_flow_to_clique_rejects_flow_out_of_vertex_1():
    # edge 0 = (1, 2) is never reduced, so only an explicit check sees its flow
    g = complete_graph(4)
    fr = id_order_framing(g)
    flow = list(ps_triangulation(g, fr)[0].flow)
    flow[0] += 1
    with pytest.raises(InputError, match="^flow not realizable: nonzero flow out of vertex 1$"):
        flow_to_clique(g, fr, flow)


def test_framing_change_bijection_properties():
    g = complete_graph(5)
    f1 = id_order_framing(g)
    f2 = random_framing(g, 1)
    mapping = framing_change_bijection(g, f1, f2)
    source = {leaf.routes for leaf in ps_triangulation(g, f1)}
    target = {leaf.routes for leaf in ps_triangulation(g, f2)}
    assert set(mapping) == source
    assert set(mapping.values()) == target
    identity = framing_change_bijection(g, f1, f1)
    assert all(k == v for k, v in identity.items())


@pytest.mark.parametrize(
    "mangle,message",
    [
        (lambda routes, masks, flows: (routes, masks[:-1], flows[:-1]), "no leaf flow under f2"),
        (lambda routes, masks, flows: (routes, [masks[0]] * len(masks), flows), "not injective"),
    ],
    ids=["missing-flow", "repeated-clique"],
)
def test_framing_change_bijection_checks_the_second_walk(monkeypatch, mangle, message):
    g = complete_graph(5)
    f1, f2 = id_order_framing(g), random_framing(g, 1)
    walk = triangulations._ps_masks

    def broken(g, framing):
        leaves = walk(g, framing)
        return mangle(*leaves) if framing is f2 else leaves

    monkeypatch.setattr(triangulations, "_ps_masks", broken)
    with pytest.raises(InternalCheckError, match=message):
        framing_change_bijection(g, f1, f2)


def test_dkk_eq_ps_stops_at_an_incoherent_leaf_and_names_it(monkeypatch):
    walk = checks._ps_masks
    calls = Counter()

    def first_incoherent_pair(g, framing):
        pairs = combinations(enumerate_routes(g), 2)
        return next((pq for pq in pairs if not coherent(g, framing, *pq)), None)

    def broken(g, framing):
        calls[g] += 1
        routes, masks, flows = walk(g, framing)
        pair = first_incoherent_pair(g, framing)
        if pair is None:
            return routes, masks, flows
        pair_mask = sum(1 << (len(routes) - 1 - routes.index(r)) for r in pair)
        return routes, [pair_mask] + masks[1:], flows

    monkeypatch.setattr(checks, "_ps_masks", broken)
    results = {name: (ok, detail) for name, ok, detail in checks.verify_dkk_eq_ps()}
    g = complete_graph(5)
    p, q = first_incoherent_pair(g, next(all_framings(g)))
    assert results["k5"] == (False, f"incoherent leaf pair {p} and {q} (framing #0)")
    assert calls[g] == 1  # no later framing is walked
    # two routes of the triangle are coherent, so its leaves are untouched
    assert results["triangle"] == (True, "6 framings")


def _pruned_graphs(n, max_edges):
    """Every pruned multigraph on n vertices with at most max_edges edges."""
    pairs = list(combinations(range(1, n + 1), 2))
    for m in range(1, max_edges + 1):
        for edges in combinations_with_replacement(pairs, m):
            g = DirectedMultigraph(n, edges)
            try:
                require_pruned(g)
            except ContractError:
                continue
            yield g


def test_dkk_eq_ps_on_every_small_pruned_graph():
    # a census of the general-graph claim: on every pruned graph with five
    # vertices and at most seven edges, under two framings, the reduction
    # leaves are the coherent cliques and they count the Kostant volume.
    # The census has edges 1 -> n and parallel edges into n, so it also
    # holds the reduction to the tuple-prefix oracle on those
    graphs = list(_pruned_graphs(5, 7))
    assert len(graphs) == 539
    for g in graphs:
        volume = flow_polytope_volume(g)
        for name, fr in (("id-order", id_order_framing(g)), ("random 1", random_framing(g, 1))):
            failure = checks._reduction_failure(g, fr)
            assert failure is None, f"edges {g.edges}, {name} framing: {failure}"
            leaves = [(leaf.routes, leaf.flow) for leaf in ps_triangulation(g, fr)]
            assert leaves == _tuple_prefix_reduction(g, fr), f"edges {g.edges}, {name} framing"
            count = len(leaves)
            assert count == volume, f"edges {g.edges}, {name} framing: {count} leaves, volume {volume}"


def test_linext_to_clique_covers_planar_triangulation():
    for p, emb in (skew_star(3), skew_star(4), zigzag(4)):
        pg = poset_to_flow_graph(p, emb)
        g = pg.graph
        fr = pg.framing
        cliques = {tuple(c) for c in dkk_maximal_cliques(g, fr)}
        images = {linext_to_clique(pg, ext) for ext in linear_extensions(p)}
        assert images == cliques


def test_linext_to_clique_rejects_non_extensions():
    p, emb = skew_star(4)
    pg = poset_to_flow_graph(p, emb)
    ext = linear_extensions(p)[0]
    assert len(linext_to_clique(pg, ext)) == 7
    for bad, why in (
        (ext[::-1], f"{ext[-1]!r} out of place"),  # above its lower covers
        (ext[:2] + ext[1:-1], f"{ext[1]!r} out of place"),  # repeated
        (ext[:-1], "regions missing"),  # truncated
        (ext[:-1] + ("z",), "'z' out of place"),  # unknown label
        (5, "5"),  # not iterable
        (None, "None"),
    ):
        with pytest.raises(InputError, match=re.escape(f"region poset: {why}") + "$"):
            linext_to_clique(pg, bad)


def test_compare_triangulations_reports_difference():
    g = complete_graph(5)
    a = dkk_triangulation(g, id_order_framing(g))
    b = dkk_triangulation(g, random_framing(g, 5))
    same = compare_triangulations(a, a)
    assert same.equal and not same.only_in_a
    diff = compare_triangulations(a, b)
    assert diff.equal == (not diff.only_in_a and not diff.only_in_b)
    assert len(a) == len(b) == flow_polytope_volume(g)


def test_simplex_key_is_order_insensitive():
    assert simplex_key([(1, 0), (0, 1)]) == simplex_key([(0, 1), (1, 0)])


def test_dkk_triangulation_vertices_are_route_flows():
    g = complete_graph(4)
    fr = id_order_framing(g)
    for clique, simplex in zip(dkk_maximal_cliques(g, fr), dkk_triangulation(g, fr)):
        assert simplex == tuple(sorted(route_flow_vector(g, r) for r in clique))


PLANAR_FIXTURES = planar_fixtures()


@pytest.mark.parametrize("name", PLANAR_FIXTURES)
def test_transport_matches_the_fraction_oracle(name):
    # each vertex is read off the ideal -> route map; order_to_flow_point
    # on every vertex of every simplex must give the same simplices
    pg = PLANAR_FIXTURES[name]
    poset = dual_poset(pg)
    oracle = [
        tuple(order_to_flow_point(pg, dict(zip(poset.elements, v))) for v in s.vertices)
        for s in canonical_triangulation(poset)
    ]
    assert checks.transported_canonical_triangulation(pg) == oracle


@st.composite
def noncrossing_arc_diagrams(draw):
    """The path 1 -> ... -> n plus arcs that pairwise nest or are disjoint,
    parallels allowed, drawn above the line with every arc order defaulted."""
    n = draw(st.integers(2, 8))
    arcs = []
    for _ in range(draw(st.integers(0, 8))):
        a = draw(st.integers(1, n - 1))
        b = draw(st.integers(a + 1, n))
        if not any(a < c < b < d or c < a < d < b for c, d in arcs):
            arcs.append((a, b))
    g = DirectedMultigraph(n, tuple((v, v + 1) for v in range(1, n)) + tuple(arcs))
    return arc_diagram(g, Framing({}, {}))


def _check_mask_thm2(pg):
    canonical, cliques = checks._thm2(pg)
    coordinates = compare_triangulations(
        checks.transported_canonical_triangulation(pg), dkk_triangulation(pg.graph, pg.framing)
    )
    assert (canonical == cliques) == coordinates.equal
    assert coordinates.equal
    assert count_linear_extensions(dual_poset(pg)) == len(cliques) == len(canonical)


@seed(0xA5C)
@settings(max_examples=60, deadline=2000)
@given(noncrossing_arc_diagrams())
def test_mask_thm2_agrees_with_coordinates_on_arc_diagrams(pg):
    _check_mask_thm2(pg)


@pytest.mark.parametrize(
    "lam", all_staircase_partitions(5), ids=lambda lam: "".join(map(str, lam)) or "0"
)
def test_mask_thm2_agrees_with_coordinates_on_skew5(lam):
    _check_mask_thm2(poset_to_flow_graph(*skew_star(5, lam)))
