import re
from fractions import Fraction

import pytest
from hypothesis import assume, given, seed, settings
from hypothesis import strategies as st
from hypothesis.vendor.pretty import pretty

from flowpoly import planar
from flowpoly.errors import InputError, InternalCheckError, NotPlanarError
from flowpoly.fixtures import TRIANGLE, poset_fixtures, wedge_framing, wedge_graph
from flowpoly.graphs import (
    DirectedMultigraph,
    Framing,
    all_framings,
    complete_graph,
    enumerate_routes,
    id_order_framing,
    parallel_edges,
    route_flow_vector,
)
from flowpoly.kostant import (
    ehrhart_netflow, enumerate_integer_flows, flow_ehrhart_value, flow_polytope_volume
)
from flowpoly.planar import (
    BOTTOM,
    TOP,
    PlanarGraphData,
    arc_diagram,
    dual_poset,
    flow_to_order_point,
    order_to_flow_point,
    poset_to_flow_graph,
)
from flowpoly.posets import (
    HasseEmbedding,
    Poset,
    all_staircase_partitions,
    antichain,
    chain,
    count_linear_extensions,
    default_embedding,
    order_ideals,
    order_polynomial,
    skew_star,
    zigzag,
)
from test_posets import shuffled_posets
from test_triangulations import PLANAR_FIXTURES, noncrossing_arc_diagrams


def test_single_edge_has_no_regions():
    g = DirectedMultigraph(2, ((1, 2),))
    pg = arc_diagram(g, Framing({}, {}))
    assert pg.regions == {}
    assert pg.edge_sides == ((BOTTOM, TOP),)


def test_parallel_edges_region_between_arcs():
    g = parallel_edges(2)
    pg = arc_diagram(g, Framing({}, {}))
    assert list(pg.regions.values()) == [(0, 1)]
    # edge 0 is drawn on top
    assert pg.edge_sides[0] == (0, TOP)
    assert pg.edge_sides[1] == (BOTTOM, 0)


def test_triangle_single_region():
    pg = arc_diagram(TRIANGLE, id_order_framing(TRIANGLE))
    assert len(pg.regions) == 1
    dual = dual_poset(pg)
    assert len(dual.elements) == 1 and dual.covers == ()


def test_region_count_is_euler_count():
    for g, fr in [
        (parallel_edges(3), Framing({}, {})),
        (wedge_graph(), wedge_framing()),
    ]:
        pg = arc_diagram(g, fr)
        assert len(pg.regions) == g.edge_count - g.n + 1


def test_k4_is_not_planar_above_the_line():
    g = complete_graph(4)
    for fr in all_framings(g):
        with pytest.raises(NotPlanarError):
            arc_diagram(g, fr)


def test_crossing_error_reports_edge_pair():
    # arcs (1,3) and (2,4) must interleave
    g = DirectedMultigraph(4, ((1, 2), (2, 3), (3, 4), (1, 3), (2, 4)))
    fr = id_order_framing(g)
    with pytest.raises(NotPlanarError) as exc:
        arc_diagram(g, fr)
    a, b = exc.value.edge_pair
    ta, ha = g.edges[a]
    tb, hb = g.edges[b]
    # the reported arcs genuinely conflict: they overlap but neither nests
    assert max(ta, tb) < min(ha, hb)
    assert not (ta < tb and hb < ha) and not (tb < ta and ha < hb)


@pytest.mark.parametrize(
    "g, framing, pair",
    [
        # parallel arcs nested one way at vertex 1 and the other at vertex 3
        (
            DirectedMultigraph(3, ((1, 2), (2, 3), (1, 3), (1, 3))),
            Framing({3: (2, 3, 1)}, {1: (3, 2, 0)}),
            (2, 3),
        ),
        # two arcs out of vertex 1, the shorter one on top
        (TRIANGLE, Framing({}, {1: (0, 2)}), (0, 2)),
    ],
    ids=["parallel-arcs", "shared-tail"],
)
def test_crossing_error_names_the_nesting_conflict(g, framing, pair):
    with pytest.raises(NotPlanarError, match=re.escape(f"edges {pair}") + "$") as exc:
        arc_diagram(g, framing)
    assert exc.value.edge_pair == pair


@pytest.mark.parametrize(
    "framing, message",
    [
        (Framing({3: (1,)}, {}), "in-order at vertex 3 does not match its edges"),
        (Framing({}, {1: (0,)}), "out-order at vertex 1 does not match its edges"),
        # the out-order at vertex 1 puts the shorter arc on top, but the
        # malformed in-order is refused first
        (Framing({3: (1,)}, {1: (0, 2)}), "in-order at vertex 3 does not match its edges"),
    ],
    ids=["in-order", "out-order", "before-a-crossing"],
)
def test_order_that_does_not_match_its_edges_is_refused(framing, message):
    with pytest.raises(InputError, match=f"^{re.escape(message)}$") as exc:
        arc_diagram(TRIANGLE, framing)
    assert type(exc.value) is InputError


@pytest.mark.parametrize(
    "framing, message",
    [
        (None, "framing must be a Framing, not NoneType"),
        (Framing([], {}), "framing orders must map vertices to edge orders"),
        (Framing({2: 5}, {}), "in-order at vertex 2 does not match its edges"),
        (Framing({}, {3: ("a", 6)}), "out-order at vertex 3 does not match its edges"),
    ],
    ids=["none", "list-of-orders", "number-order", "mixed-order"],
)
def test_arc_diagram_refuses_what_is_not_a_framing(framing, message):
    with pytest.raises(InputError, match=f"^{re.escape(message)}$") as exc:
        arc_diagram(complete_graph(4), framing)
    assert type(exc.value) is InputError


def test_arc_diagram_orders_at_the_ends_stay_optional():
    # at vertices 1 and 3 the longer arc 2 is on top, as the default puts it
    ends = Framing({2: (0,), 3: (2, 1)}, {1: (2, 0), 2: (1,)})
    assert arc_diagram(TRIANGLE, ends) == arc_diagram(TRIANGLE, Framing({2: (0,)}, {2: (1,)}))


def test_wide_drawings_are_drawn():
    # 1,010 parallel arcs, and the fan 1 -> 2 plus 1,010 parallel arcs 2 -> 3
    wide = 1010
    pg = arc_diagram(parallel_edges(wide), Framing({}, {}))
    assert len(pg.regions) == wide - 1
    assert pg.framing == Framing({}, {})
    fan = DirectedMultigraph(3, ((1, 2),) + ((2, 3),) * wide)
    pg = arc_diagram(fan, Framing({}, {}))
    assert len(pg.regions) == wide - 1
    assert pg.framing == Framing({2: (0,)}, {2: tuple(range(1, wide + 1))})


def test_poset_to_flow_graph_refuses_a_reserved_label():
    for label in (BOTTOM, TOP):
        message = f"poset element {label!r} is a reserved region label"
        for p in (Poset((label,), ()), Poset((1, label), ((1, label),))):
            with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
                poset_to_flow_graph(p)


BOTTOM_LIST = "embedding inconsistent: bottom must list each minimal element once"
TOP_LIST = "embedding inconsistent: top must list each maximal element once"


@pytest.mark.parametrize(
    "bottom, top, message",
    [
        ((1, 2, "zz"), (1, 2), BOTTOM_LIST),
        ((1,), (1, 2), BOTTOM_LIST),
        ((1, 2), (2, 1, 2), TOP_LIST),
        ((2, 1), (1, 2), "embedding inconsistent: not an upward planar drawing"),
    ],
    ids=["unknown-element", "no-lower-edge", "duplicate", "crossing"],
)
def test_poset_to_flow_graph_refuses_an_inconsistent_embedding(bottom, top, message):
    p, emb = antichain(2)
    with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
        poset_to_flow_graph(p, HasseEmbedding(emb.up, emb.down, bottom, top))


def test_poset_to_flow_graph_refuses_a_doubled_or_non_extremal_list():
    # both drew a graph with one edge too many before the extremal-list rule
    p, emb = skew_star(4)
    with pytest.raises(InputError, match=f"^{re.escape(TOP_LIST)}$"):
        poset_to_flow_graph(p, HasseEmbedding(emb.up, emb.down, emb.bottom, emb.top * 2))
    p, emb = chain(2)
    with pytest.raises(InputError, match=f"^{re.escape(BOTTOM_LIST)}$"):
        poset_to_flow_graph(p, HasseEmbedding(emb.up, emb.down, (1, 2), emb.top))


def test_wedge_dual_poset_shape():
    pg = arc_diagram(wedge_graph(), wedge_framing())
    dual = dual_poset(pg)
    assert len(dual.elements) == 4
    # two minimal regions under the inner arcs, then a chain of two
    assert len(dual.minimal_elements()) == 2
    assert len(dual.maximal_elements()) == 1
    assert count_linear_extensions(dual) == 2


def test_flow_to_order_point_crossing_rule():
    g = parallel_edges(2)
    pg = arc_diagram(g, Framing({}, {}))
    region = next(iter(pg.regions))
    assert flow_to_order_point(pg, (1, 0))[region] == 0
    assert flow_to_order_point(pg, (0, 1))[region] == 1


def test_flow_map_rejects_nonconserving_input():
    pg = arc_diagram(TRIANGLE, id_order_framing(TRIANGLE))
    with pytest.raises(InputError):
        flow_to_order_point(pg, (1, 0, 0))
    with pytest.raises(InputError):
        flow_to_order_point(pg, (-1, -1, 1))


def test_order_map_rejects_nonmonotone_input():
    pg = poset_to_flow_graph(*chain(2))
    with pytest.raises(InputError):
        order_to_flow_point(pg, {1: 1, 2: 0})


POSET_FIXTURES = [
    ("empty", (Poset((), ()), None)),
    ("chain1", chain(1)),
    ("chain2", chain(2)),
    ("chain4", chain(4)),
    ("antichain2", antichain(2)),
    ("antichain4", antichain(4)),
    ("zigzag5", zigzag(5)),
    ("skew3", skew_star(3)),
    ("skew4", skew_star(4)),
    ("skew4-21", skew_star(4, (2, 1))),
]


@pytest.mark.parametrize("name,fixture", POSET_FIXTURES)
def test_flow_graph_volume_equals_extensions(name, fixture):
    p, emb = fixture
    pg = poset_to_flow_graph(p, emb)
    assert flow_polytope_volume(pg.graph) == count_linear_extensions(p)
    assert len(pg.regions) == len(p.elements)


SKEW5_FIXTURES = [
    (f"skew5-{''.join(map(str, lam)) or 0}", skew_star(5, lam))
    for lam in all_staircase_partitions(5)
]


@pytest.mark.parametrize("name,fixture", POSET_FIXTURES + SKEW5_FIXTURES)
def test_dual_of_flow_graph_recovers_poset(name, fixture):
    p, emb = fixture
    pg = poset_to_flow_graph(p, emb)
    dual = dual_poset(pg)
    assert set(dual.elements) == set(p.elements)
    assert set(dual.covers) == set(p.covers)


@pytest.mark.parametrize("name,fixture", POSET_FIXTURES)
def test_vertex_bijection_routes_vs_ideals(name, fixture):
    p, emb = fixture
    pg = poset_to_flow_graph(p, emb)
    routes = enumerate_routes(pg.graph)
    assert len(routes) == len(order_ideals(p))
    seen = set()
    for r in routes:
        f = flow_to_order_point(pg, route_flow_vector(pg.graph, r))
        assert all(v in (0, 1) for v in f.values())
        filt = frozenset(x for x, v in f.items() if v == 1)
        # image is a filter
        assert all(y in filt for x in filt for y in p.elements if p.less(x, y))
        seen.add(filt)
    assert len(seen) == len(routes)


@pytest.mark.parametrize("name,fixture", POSET_FIXTURES[:7])
def test_lattice_point_bijection_in_dilations(name, fixture):
    p, emb = fixture
    pg = poset_to_flow_graph(p, emb)
    g = pg.graph
    for t in (1, 2):
        flows = enumerate_integer_flows(g, ehrhart_netflow(g, t))
        images = set()
        for fl in flows:
            vec = tuple(fl.get(e, 0) for e in range(g.edge_count))
            f = flow_to_order_point(pg, vec)
            assert order_to_flow_point(pg, f, total=t) == tuple(map(Fraction, vec))
            images.add(tuple(sorted(f.items())))
        assert len(images) == len(flows)


def test_two_chain_extreme_order_points():
    p, emb = chain(2)
    pg = poset_to_flow_graph(p, emb)
    g = pg.graph
    # f == 0 picks out the route crossing only the top Hasse edge
    fl0 = order_to_flow_point(pg, {1: 0, 2: 0})
    assert sorted(fl0) == [0, 0, 1]
    assert pg.edge_sides[fl0.index(1)] == (2, TOP)
    fl1 = order_to_flow_point(pg, {1: 1, 2: 1})
    assert pg.edge_sides[fl1.index(1)] == (BOTTOM, 1)


@pytest.mark.parametrize("kind", [int, Fraction, float], ids=["int", "fraction", "float"])
def test_maps_return_fractions_for_int_fraction_and_float_input(kind):
    pg = poset_to_flow_graph(*chain(2))
    heights = {BOTTOM: 0, 1: 1, 2: 3, TOP: 4}
    expected = tuple(Fraction(heights[above] - heights[below]) for below, above in pg.edge_sides)
    fl = order_to_flow_point(pg, {1: kind(1), 2: kind(3)}, total=kind(4))
    assert fl == expected and all(type(x) is Fraction for x in fl)
    f = flow_to_order_point(pg, tuple(map(kind, fl)))
    assert f == {1: 1, 2: 3} and all(type(x) is Fraction for x in f.values())


def test_maps_convert_floats_exactly():
    pg = poset_to_flow_graph(*chain(2))
    fl = order_to_flow_point(pg, {1: 0.25, 2: 0.5})
    assert sorted(fl) == [Fraction(1, 4), Fraction(1, 4), Fraction(1, 2)]
    assert flow_to_order_point(pg, tuple(map(float, fl))) == {1: Fraction(1, 4), 2: Fraction(1, 2)}


@pytest.mark.parametrize("where", ["flow", "order", "total"])
@pytest.mark.parametrize(
    "value",
    ["0", "x", None, float("nan"), float("inf"), float("-inf")],
    ids=["str-0", "str-x", "none", "nan", "inf", "-inf"],
)
def test_maps_refuse_what_is_not_a_finite_number(where, value):
    pg = poset_to_flow_graph(*chain(2))
    with pytest.raises(InputError, match="is not a finite number$"):
        if where == "flow":
            flow_to_order_point(pg, (value, 0, 0))
        elif where == "order":
            order_to_flow_point(pg, {1: value, 2: 1})
        else:
            order_to_flow_point(pg, {1: 0, 2: 1}, total=value)


def test_embedding_left_right_matters_but_stays_consistent():
    # both embeddings of the 2-antichain give isomorphic flow graphs
    p, emb = antichain(2)
    flipped = HasseEmbedding(up=emb.up, down=emb.down, bottom=(2, 1), top=(2, 1))
    pg1 = poset_to_flow_graph(p, emb)
    pg2 = poset_to_flow_graph(p, flipped)
    assert sorted(pg1.graph.edges) == sorted(pg2.graph.edges)



# ---------------------------------------------------------------------------
# the region boundaries and planar framing derived from the edge sides

_FWD, _REV = 1, -1


def _trace_faces(rotations):
    """Orbit decomposition of darts under next = CCW-predecessor of reverse.

    rotations: vertex -> CCW-ordered list of darts (edge id, direction)
    based at that vertex, the reverse of every dart based somewhere.
    Returns the list of faces, each a tuple of darts traced counterclockwise
    with the interior on the left, and the map from each dart to the index
    of its face.
    """
    position = {d: (v, i) for v, darts in rotations.items() for i, d in enumerate(darts)}
    faces, face_of = [], {}
    for start in position:
        if start in face_of:
            continue
        face, d = [], start
        while d not in face_of:
            face.append(d)
            face_of[d] = len(faces)
            v, i = position[(d[0], -d[1])]
            d = rotations[v][i - 1]
        faces.append(tuple(face))
    return faces, face_of


def _hasse_edges(p, emb):
    """The edges of the Hasse diagram of p + bottom + top, in the order
    whose ids poset_to_flow_graph gives them."""
    hasse = [*p.covers, *((BOTTOM, x) for x in emb.bottom), *((x, TOP) for x in emb.top)]
    return hasse if p.elements else [*hasse, (BOTTOM, TOP)]


def _hasse_faces(p, emb):
    """The faces of the Hasse drawing of p + bottom + top, with an edge from
    bottom to top at the far left and one at the far right, traced from its
    rotation system: the faces and the face index of each dart, or None when
    the system lacks the reverse of a dart or the face count is not that of
    a plane drawing, #E - #V + 2.  The bottom and top lists must be the
    minimal and maximal elements, each once."""
    hasse = _hasse_edges(p, emb)
    left, right = len(hasse), len(hasse) + 1
    up, down = {x: [] for x in p.elements}, {x: [] for x in p.elements}
    for eid, (x, y) in enumerate(hasse):
        if x in up:
            up[x].append(eid)
        if y in down:
            down[y].append(eid)
    for x in p.elements:
        up_rank = {y: i for i, y in enumerate(emb.up.get(x, ()))}
        down_rank = {y: i for i, y in enumerate(emb.down.get(x, ()))}
        up[x].sort(key=lambda eid: up_rank.get(hasse[eid][1], len(up_rank)))
        down[x].sort(key=lambda eid: down_rank.get(hasse[eid][0], len(down_rank)))
    rotations = {
        x: [*((e, _FWD) for e in reversed(up[x])), *((e, _REV) for e in down[x])]
        for x in p.elements
    }
    links = [eid for eid, (x, _) in enumerate(hasse) if x == BOTTOM]
    rotations[BOTTOM] = [(right, _FWD), *((e, _FWD) for e in reversed(links)), (left, _FWD)]
    links = [eid for eid, (_, y) in enumerate(hasse) if y == TOP]
    rotations[TOP] = [(left, _REV), *((e, _REV) for e in links), (right, _REV)]
    darts = {d for ds in rotations.values() for d in ds}
    if any((e, -s) not in darts for e, s in darts):
        return None
    faces, face_of = _trace_faces(rotations)
    return (faces, face_of) if len(faces) == len(hasse) - len(p.elements) + 2 else None


def _face_cycle_oracle(p, emb, pg, faces, face_of):
    """Regions and framing as poset_to_flow_graph built them from the faces
    of the Hasse drawing before PlanarGraphData derived them: each face's
    boundary cycle is one run of forward darts (its east side, traversed
    bottom to top) and one run of reversed darts (its west side, top to
    bottom).  Every face but the outer one must be one G_P vertex: the
    tail of each G_P edge west of its Hasse edge, the head east of it."""
    hasse = _hasse_edges(p, emb)
    dual_id = {hasse.index(sides): i for i, sides in enumerate(pg.edge_sides)}
    number = {}
    for eid, i in dual_id.items():
        for dart, v in zip(((eid, _FWD), (eid, _REV)), pg.graph.edges[i]):
            assert number.setdefault(face_of[dart], v) == v
    assert len(number) == len(faces) - 1
    assert sorted(number.values()) == list(range(1, pg.graph.n + 1))

    regions = dict.fromkeys(p.elements, ())
    for i, eid in sorted((i, eid) for eid, i in dual_id.items()):
        for x in hasse[eid]:
            if x in regions:
                regions[x] += (i,)

    in_orders, out_orders = {}, {}
    for fce, v in number.items():
        cycle = [d for d in faces[fce] if d[0] < len(hasse)]
        fwd_flags = [d[1] == _FWD for d in cycle]
        # rotate the cycle so it starts at a forward-run boundary
        k = len(cycle)
        start = next((i for i in range(k) if fwd_flags[i] and not fwd_flags[i - 1]), 0)
        cycle = cycle[start:] + cycle[:start]
        fwd = [dual_id[d[0]] for d in cycle if d[1] == _FWD]
        rev = [dual_id[d[0]] for d in cycle if d[1] == _REV]
        assert [d[1] == _FWD for d in cycle] == [True] * len(fwd) + [False] * len(rev)
        if 1 < v:
            in_orders[v] = tuple(rev)
        if v < pg.graph.n:
            out_orders[v] = tuple(reversed(fwd))
    inner = pg.graph.inner_vertices()
    return regions, Framing({v: in_orders[v] for v in inner}, {v: out_orders[v] for v in inner})


def _check_traced_faces(p, emb):
    """poset_to_flow_graph refuses the drawing exactly when its faces do
    not trace, and otherwise gives the face-cycle oracle's regions and
    framing; returns whether it drew."""
    traced = _hasse_faces(p, emb)
    if traced is None:
        with pytest.raises(InputError):
            poset_to_flow_graph(p, emb)
        return False
    pg = poset_to_flow_graph(p, emb)
    regions, framing = _face_cycle_oracle(p, emb, pg, *traced)
    assert list(pg.regions.items()) == list(regions.items())
    assert list(pg.framing.in_orders.items()) == list(framing.in_orders.items())
    assert list(pg.framing.out_orders.items()) == list(framing.out_orders.items())
    return True


ORACLE_POSETS = {
    **poset_fixtures(),
    **{
        f"skew{n}-" + ("".join(map(str, lam)) or "0"): skew_star(n, lam)
        for n in range(1, 7)
        for lam in all_staircase_partitions(n)
    },
}


@pytest.mark.parametrize("name", ORACLE_POSETS)
def test_poset_to_flow_graph_matches_the_face_cycle_framing(name):
    assert _check_traced_faces(*ORACLE_POSETS[name])


def test_poset_to_flow_graph_numbers_the_faces_least_hasse_edge_first():
    # after vertex 3 two faces are ready: vertex 4 is the one bordering
    # Hasse edge 2, the cover (2, 3) < (2, 4), and vertex 5 the other, whose
    # least Hasse edge is 4
    pg = poset_to_flow_graph(*skew_star(5, (1,)))
    assert pg.graph.edges == (
        (1, 2), (1, 2), (1, 3), (1, 5), (2, 3), (2, 4), (3, 4), (3, 5),
        (4, 6), (4, 7), (5, 6), (5, 8), (6, 7), (6, 8), (7, 8), (7, 8),
    )


@st.composite
def hasse_drawings(draw):
    """Posets of up to 6 elements in their default drawing, or with every
    cover, bottom and top order shuffled."""
    _, p = draw(shuffled_posets(6))
    emb = default_embedding(p)
    if draw(st.booleans()):
        def shuffled(xs):
            return tuple(draw(st.permutations(xs)))

        emb = HasseEmbedding(
            {x: shuffled(ys) for x, ys in emb.up.items()},
            {x: shuffled(ys) for x, ys in emb.down.items()},
            shuffled(emb.bottom),
            shuffled(emb.top),
        )
    return p, emb


@seed(0xFACE)
@settings(max_examples=60, deadline=2000)
@given(hasse_drawings())
def test_poset_to_flow_graph_numbers_the_traced_faces(drawing):
    _check_traced_faces(*drawing)


@st.composite
def extremal_list_drawings(draw):
    """hasse_drawings, and in half of them one entry dropped from the bottom
    or top list, or one element of the poset put in at any place there."""
    p, emb = draw(hasse_drawings())
    lists = {"bottom": list(emb.bottom), "top": list(emb.top)}
    if p.elements and draw(st.booleans()):
        listed = lists[draw(st.sampled_from(sorted(lists)))]
        at = draw(st.integers(0, len(listed)))
        if listed and draw(st.booleans()):
            del listed[min(at, len(listed) - 1)]
        else:
            listed.insert(at, draw(st.sampled_from(p.elements)))
    return p, HasseEmbedding(emb.up, emb.down, tuple(lists["bottom"]), tuple(lists["top"]))


@seed(0xB07)
@settings(max_examples=60, deadline=2000)
@given(extremal_list_drawings())
def test_poset_to_flow_graph_draws_p_or_refuses(drawing):
    # a drawing of P + BOTTOM + TOP has one G_P edge per Hasse edge
    p, emb = drawing
    try:
        pg = poset_to_flow_graph(p, emb)
    except InputError:
        return
    extremal = len(p.minimal_elements()) + len(p.maximal_elements())
    assert pg.graph.edge_count == len(p.covers) + (extremal or 1)
    assert dual_poset(pg) == p


def _check_drawn(g, framing):
    """The planar framing is the drawing's arc order at the inner vertices,
    and drawing g again in it gives back the same data."""
    pg = arc_diagram(g, framing)
    in_orders, out_orders = planar._full_orders(g, framing)
    inner = g.inner_vertices()
    assert pg.framing == Framing({v: in_orders[v] for v in inner}, {v: out_orders[v] for v in inner})
    redrawn = arc_diagram(g, pg.framing)
    assert list(redrawn.regions.items()) == list(pg.regions.items())
    assert redrawn.edge_sides == pg.edge_sides
    return pg


# the planar fixtures drawn by arc_diagram, with the framings they are drawn in
ARC_FIXTURES = {
    "triangle": (TRIANGLE, id_order_framing(TRIANGLE)),
    "parallel2": (parallel_edges(2), Framing({}, {})),
    "parallel3": (parallel_edges(3), Framing({}, {})),
    "wedge": (wedge_graph(), wedge_framing()),
}


@pytest.mark.parametrize("name", ARC_FIXTURES)
def test_arc_fixture_framing_is_its_arc_order(name):
    assert _check_drawn(*ARC_FIXTURES[name]) == PLANAR_FIXTURES[name]


@seed(0xF4A)
@settings(max_examples=60, deadline=2000)
@given(noncrossing_arc_diagrams())
def test_arc_diagram_framing_is_its_arc_order(pg):
    _check_drawn(pg.graph, Framing({}, {}))


@st.composite
def one_page_drawings(draw):
    """Pruned multigraphs on at most 6 vertices with at most 7 edges, and at
    every vertex, with even odds, its one-page arc order (farther endpoint
    on top, parallel arcs by id) or a shuffled one."""
    n = draw(st.integers(2, 6))
    edges = []
    for v in range(2, n):
        if all(h != v for _, h in edges):
            edges.append((draw(st.integers(1, v - 1)), v))
        if all(t != v for t, _ in edges):
            edges.append((v, draw(st.integers(v + 1, n))))
    assume(len(edges) <= 7)
    pairs = [(t, h) for t in range(1, n) for h in range(t + 1, n + 1)]
    edges += draw(st.lists(st.sampled_from(pairs), min_size=int(n == 2), max_size=7 - len(edges)))
    g = DirectedMultigraph(n, tuple(draw(st.permutations(edges))))
    in_orders, out_orders = {}, {}
    for v in range(1, n + 1):
        ins, outs = g.in_edge_ids(v), g.out_edge_ids(v)
        in_orders[v] = tuple(sorted(ins, key=lambda e: (g.edges[e][0], e)))
        out_orders[v] = tuple(sorted(outs, key=lambda e: (-g.edges[e][1], e)))
        if draw(st.booleans()):
            in_orders[v] = tuple(draw(st.permutations(ins)))
        if draw(st.booleans()):
            out_orders[v] = tuple(draw(st.permutations(outs)))
    return g, Framing(in_orders, out_orders)


def _one_page_is_plane(g, framing):
    """Whether the arcs of g, drawn above the line in the framing's orders,
    are free of crossings: with the spine edges (v, v + 1) added below every
    arc, the rotation at v, counterclockwise, is the spine out, the out-arcs
    bottom to top, the in-arcs top to bottom and the spine in, and the
    traced faces satisfy Euler's formula V - E + F = 2."""
    m, n = g.edge_count, g.n
    rotations = {
        v: [
            *([(m + v - 1, _FWD)] if v < n else []),
            *((e, _FWD) for e in reversed(framing.out_orders[v])),
            *((e, _REV) for e in framing.in_orders[v]),
            *([(m + v - 2, _REV)] if v > 1 else []),
        ]
        for v in range(1, n + 1)
    }
    faces, _ = _trace_faces(rotations)
    return n - (m + n - 1) + len(faces) == 2


def _conflict(g, framing, e, f):
    """Whether arcs e and f cannot both be drawn in the framing's orders:
    they interleave, parallel arcs nest one way at the tail and the other at
    the head, or at a shared endpoint the arc reaching farther is not on top."""
    (s, t), (u, w) = g.edges[e], g.edges[f]

    def on_top(order):
        return order.index(e) < order.index(f)

    if s < u < t < w or u < s < w < t:
        return True
    if (s, t) == (u, w):
        return on_top(framing.out_orders[s]) != on_top(framing.in_orders[t])
    if s == u:
        return on_top(framing.out_orders[s]) != (t > w)
    if t == w:
        return on_top(framing.in_orders[t]) != (s < u)
    return False


@seed(0x1BA6E)
@settings(max_examples=60, deadline=2000)
@given(one_page_drawings())
def test_arc_diagram_refuses_exactly_the_drawings_with_a_crossing(drawing):
    g, framing = drawing
    if _one_page_is_plane(g, framing):
        _check_drawn(g, framing)
        return
    with pytest.raises(NotPlanarError) as exc:
        arc_diagram(g, framing)
    e, f = exc.value.edge_pair
    assert e < f and _conflict(g, framing, e, f)


# four in-edges at vertex 3, top to bottom 3, 1, 4, 5, with sides
# 3 = (0, 1), 1 = (3, 0), 4 = (2, 3) and 5 = (BOTTOM, 2)
FAN_IN = DirectedMultigraph(4, ((1, 2), (2, 3), (3, 4), (1, 3), (2, 3), (2, 3), (1, 4)))


@pytest.mark.parametrize(
    "edited",
    [
        {1: (3, 1)},  # edges 3 and 1 both on top
        {1: (3, BOTTOM)},  # no edge has 3's below-label above it
        {4: (2, 0), 5: (0, 2)},  # 3, 4, 5 and then 4 again
    ],
    ids=["two-tops", "stops-early", "runs-into-itself"],
)
def test_sides_that_do_not_chain_name_the_vertex(edited):
    pg = arc_diagram(FAN_IN, Framing({}, {}))
    assert pg.framing.in_orders[3] == (3, 1, 4, 5)
    sides = tuple(edited.get(e, s) for e, s in enumerate(pg.edge_sides))
    with pytest.raises(InternalCheckError, match="^edge sides do not chain the in-edges at vertex 3$"):
        PlanarGraphData(FAN_IN, tuple(pg.regions), sides)


def test_arc_regions_are_numbered_by_tail_from_the_bottom_arc_up():
    # top to bottom, the arcs out of vertex 1 are 6, 7, 4 and 0, and out of
    # vertex 3 they are 5 and 2: regions 0, 1, 2 lie under 4, 7, 6, and 3 under 5
    pg = arc_diagram(wedge_graph(), wedge_framing())
    assert pg.edge_sides == (
        (BOTTOM, 0), (BOTTOM, 0), (BOTTOM, 3), (BOTTOM, 3), (0, 1), (3, 1), (2, TOP), (1, 2)
    )


@pytest.mark.parametrize("name", ARC_FIXTURES)
def test_planar_graph_data_pretty_prints_its_fields(name):
    # Hypothesis reports a falsifying PlanarGraphData by its init fields
    assert "edge_sides=" in pretty(arc_diagram(*ARC_FIXTURES[name]))


@seed(0xE4B)
@settings(max_examples=60, deadline=2000)
@given(noncrossing_arc_diagrams())
def test_arc_diagram_ehrhart_identity(pg):
    # lattice points of t * F_G are the order-preserving maps of the region
    # poset into a chain of t + 1 elements
    poset = dual_poset(pg)
    for t in range(4):
        assert order_polynomial(poset, t + 1) == flow_ehrhart_value(pg.graph, t)
