"""Planar line drawings, truncated duals, and the order/flow polytope maps.

Graphs are drawn with vertices 1..n on a horizontal line and all arcs in
the upper half-plane; the drawing is described combinatorially by the
top-to-bottom in/out arc orders at each vertex.  Its arcs cross nowhere
exactly when they nest like parentheses, which one left-to-right sweep over
a stack of open arcs decides.  Both planar drawings here, these arc
diagrams and the upward Hasse drawings below, find the faces on the two
sides of every edge by one rule, _sides: each face but the outer one has
one lowest vertex, lies between two consecutive out-edges there, and is
named by the first of them.

Both constructions below hand PlanarGraphData only the region labels and
the edge sides (the regions below and above each edge).  It derives each
region's boundary and the planar framing from the sides by one rule:
top to bottom, each in-edge's below-label is the next in-edge's
above-label at an inner vertex, and the same for out-edges.

The bounded regions of a drawing, ordered "lower to higher" across each
arc, form a poset, whose covers dual_poset reads straight off the edge
sides.  Conversely a poset with an upward-planar Hasse drawing (by default
posets.default_embedding) yields a flow graph as the truncated dual of the
Hasse diagram of P with BOTTOM added below it and TOP above it (0-hat and
1-hat), so each Hasse edge is already the pair of labels on the two sides
of its dual edge.  The drawing's bottom list must name each minimal
element once and its top list each maximal element once.  Its faces are
numbered source to sink by a topological sort that takes the ready face
bordering the least Hasse edge id first.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import pairwise

from .errors import InputError, InternalCheckError, NotPlanarError, _exact
from .graphs import (
    DirectedMultigraph, Framing, _listed, _order_maps, enumerate_routes, require_pruned,
    route_flow_vector
)
from .posets import Poset, _ideal_vertices, default_embedding

BOTTOM = "BOTTOM"
TOP = "TOP"


@dataclass
class PlanarGraphData:
    """A graph together with its drawing's bounded regions.

    edge_sides[e] = (below, above) holds the labels of the regions on the
    two sides of edge e, using BOTTOM/TOP for the unbounded region
    approached from below respectively above the drawing; labels lists the
    bounded regions' labels in order.  Both other fields are derived from
    the edge sides: regions maps each label to the ascending ids of the
    edges with that label on either side, and framing is the planar
    framing, in which consecutive in-edges, and consecutive out-edges, at
    an inner vertex share the region between them (top to bottom, the
    below-label of one is the above-label of the next).  Sides that do not
    chain so raise InternalCheckError naming the vertex.
    """

    graph: DirectedMultigraph
    labels: tuple
    edge_sides: tuple
    regions: dict = field(init=False)
    framing: Framing = field(init=False)

    def __post_init__(self):
        g, labels = self.graph, self.labels
        if len(labels) != g.edge_count - g.n + 1:
            raise InternalCheckError(f"{len(labels)} regions, expected {g.edge_count - g.n + 1}")
        if len(self.edge_sides) != g.edge_count:
            raise InternalCheckError("edge_sides must cover every edge")
        regions = {label: [] for label in labels}
        for e, (below, above) in enumerate(self.edge_sides):
            if below == above:
                raise InternalCheckError(f"edge {e} has the same label on both sides")
            for label in (below, above):
                if label in regions:
                    regions[label].append(e)
                elif label not in (BOTTOM, TOP):
                    raise InternalCheckError(f"edge {e} borders unknown label {label!r}")
        self.regions = {label: tuple(ids) for label, ids in regions.items()}
        inner = g.inner_vertices()
        self.framing = Framing(
            in_orders={v: self._top_to_bottom(v, "in", g.in_edge_ids(v)) for v in inner},
            out_orders={v: self._top_to_bottom(v, "out", g.out_edge_ids(v)) for v in inner},
        )

    def _top_to_bottom(self, v, kind, ids):
        """ids chained from the one edge whose above-label is no other's
        below-label, each next edge's above-label the last one's below-label."""
        sides = self.edge_sides
        belows = {sides[e][0] for e in ids}
        by_above = {sides[e][1]: e for e in ids}
        tops = [e for e in ids if sides[e][1] not in belows]
        order = tops if len(tops) == 1 else []
        while 0 < len(order) < len(ids):
            nxt = by_above.get(sides[order[-1]][0])
            if nxt is None or nxt in order:
                break
            order.append(nxt)
        if len(order) != len(ids):
            raise InternalCheckError(f"edge sides do not chain the {kind}-edges at vertex {v}")
        return tuple(order)


# ---------------------------------------------------------------------------
# the faces of an upward plane drawing


def _sides(vertices, in_orders, out_orders, outer):
    """The faces before and after every edge of an upward plane drawing.

    The orders list the edges at each vertex in one direction across the
    drawing, and vertices lists every tail after the tails of its own
    in-edges.  Each face but the outer one lies between two consecutive
    out-edges at its lowest vertex and is named by the first of them.  At
    each vertex the face before its first in-edge continues past its first
    out-edge, and the face after its last in-edge past its last out-edge;
    at a vertex with no in-edges these are the two faces in outer.
    """
    sides = {}
    for v in vertices:
        ins, outs = in_orders[v], out_orders[v]
        first, last = (sides[ins[0]][0], sides[ins[-1]][1]) if ins else outer
        for i, e in enumerate(outs):
            sides[e] = (outs[i - 1] if i else first, e if i < len(outs) - 1 else last)
    return sides


# ---------------------------------------------------------------------------
# arc diagrams


def _full_orders(g, framing):
    """Top-to-bottom arc orders at every vertex, defaulting the endpoints,
    in one left-to-right sweep that also decides planarity.

    Inner-vertex orders come from the framing, each checked against its
    vertex's edges before the sweep.  At vertices 1 and n (and at any vertex
    the framing omits) arcs are ordered with the farther endpoint on top,
    parallel arcs following their order at the other end.  The sweep keeps
    the open arcs on a stack, outermost at the bottom: at each vertex the
    in-arcs, read bottom up, close the arcs on top, then the out-arcs open,
    top arc first.  The arcs nest like parentheses, so no two cross, exactly
    when every in-arc is on top as it closes (Bernhart and Kainen, 1979);
    else it and the top arc, opened later and still open, are a crossing
    pair, and NotPlanarError names them.
    """
    given_ins, given_outs = _order_maps(framing)
    for v in range(1, g.n + 1):
        ins, outs = given_ins.get(v), given_outs.get(v)
        if ins is not None and _listed(ins) != g.in_edge_ids(v):
            raise InputError(f"in-order at vertex {v} does not match its edges")
        if outs is not None and _listed(outs) != g.out_edge_ids(v):
            raise InputError(f"out-order at vertex {v} does not match its edges")
    # each arc's place in its head's given in-order
    head_rank = {e: i for v in range(1, g.n + 1) for i, e in enumerate(given_ins.get(v) or ())}
    in_orders, out_orders, opened, open_arcs = {}, {}, {}, []
    for v in range(1, g.n + 1):
        ins = given_ins.get(v)
        if ins is None:
            # farther tail on top, then the tail's out-order: the order they opened
            ins = tuple(sorted(g.in_edge_ids(v), key=opened.__getitem__))
        for e in reversed(ins):
            if open_arcs[-1] != e:
                pair = tuple(sorted((e, open_arcs[-1])))
                raise NotPlanarError(f"not planar in this arc order: edges {pair}", edge_pair=pair)
            open_arcs.pop()
        outs = given_outs.get(v)
        if outs is None:
            outs = tuple(
                sorted(g.out_edge_ids(v), key=lambda e: (-g.edges[e][1], head_rank.get(e, e)))
            )
        for e in outs:
            opened[e] = len(opened)
        open_arcs.extend(outs)
        in_orders[v], out_orders[v] = ins, outs
    return in_orders, out_orders


def arc_diagram(g, framing):
    """Regions and edge sides of the upper-half-plane drawing of g.

    The framing gives top-to-bottom arc orders; orders at vertices 1 and n
    may be omitted and are then chosen canonically.  The one stack sweep of
    _full_orders fills in those orders and raises NotPlanarError at the
    first two arcs that are forced to cross.  Otherwise the arcs nest, and
    each arc but the lowest out of its tail has a region directly under it,
    the face that _sides names by that arc.  The orders run top to bottom,
    so the face before an arc is above it and the face after it is below it.
    """
    require_pruned(g)
    in_orders, out_orders = _full_orders(g, framing)

    # the region under each arc, numbered by tail and from the bottom arc up
    under = {}
    for v in range(1, g.n):
        for e in reversed(out_orders[v][:-1]):
            under[e] = len(under)
    sides = _sides(range(1, g.n), in_orders, out_orders, (TOP, BOTTOM))
    edge_sides = tuple(
        (under.get(below, below), under.get(above, above))
        for above, below in (sides[e] for e in range(g.edge_count))
    )
    return PlanarGraphData(g, tuple(under.values()), edge_sides)


# ---------------------------------------------------------------------------
# truncated dual poset


def dual_poset(pg):
    """Poset on the bounded regions: each edge between two of them is a
    cover, lower to higher, listed in from_relations order."""
    index = {r: i for i, r in enumerate(pg.regions)}
    covers = {
        (below, above)
        for below, above in pg.edge_sides
        if below not in (BOTTOM, TOP) and above not in (BOTTOM, TOP)
    }
    return Poset(tuple(pg.regions), sorted(covers, key=lambda c: (index[c[1]], index[c[0]])))


def _upper_boundary(pg, lower):
    """The route on the upper boundary of the region set lower, which holds
    BOTTOM: the edges with lower below and the rest above, in path order."""
    g = pg.graph
    boundary = [e for e, (b, a) in enumerate(pg.edge_sides) if b in lower and a not in lower]
    route = tuple(sorted(boundary, key=g.edges.__getitem__))
    if [1] + [g.edges[e][1] for e in route] != [g.edges[e][0] for e in route] + [g.n]:
        raise InternalCheckError(f"upper boundary of {sorted(lower - {BOTTOM})!r} is not a route")
    return route


def _ideal_routes(pg):
    """The dual poset, the routes of pg.graph, and per ideal mask of the
    poset the index of the route on its upper boundary.  That route's unit
    flow must be order_to_flow_point of the complementary filter's
    indicator, and distinct ideals must give distinct routes."""
    poset = dual_poset(pg)
    routes = enumerate_routes(pg.graph)
    index = {route: i for i, route in enumerate(routes)}
    route_of = {}
    for ideal, filt in _ideal_vertices(poset).items():
        route = _upper_boundary(pg, {r for r, x in zip(poset.elements, filt) if not x} | {BOTTOM})
        flow = order_to_flow_point(pg, dict(zip(poset.elements, filt)))
        if flow != route_flow_vector(pg.graph, route):
            raise InternalCheckError(f"upper boundary route {route} is not the transported vertex")
        route_of[ideal] = index[route]
    if len(set(route_of.values())) != len(route_of):
        raise InternalCheckError("two order ideals have one upper boundary route")
    return poset, routes, route_of


# ---------------------------------------------------------------------------
# poset -> flow graph (truncated dual of the augmented Hasse diagram)


def poset_to_flow_graph(p, emb=None):
    """Flow graph G_P: the truncated dual of Hasse(P + BOTTOM + TOP).

    The Hasse diagram of P with BOTTOM as its least and TOP as its greatest
    element is drawn upward-planar using the supplied embedding, two extra
    BOTTOM-to-TOP edges are added at the far left and far right, and the
    faces of that drawing become the vertices of G_P (numbered
    source-to-sink).  Every G_P edge crosses one Hasse edge x -> y and its
    sides are (x, y), so the regions of the returned PlanarGraphData are
    exactly the elements of P.  InputError refuses an element equal to
    BOTTOM or TOP, a bottom list that is not the minimal elements, each
    once, and a top list that is not the maximal elements, each once.
    """
    if emb is None:
        emb = default_embedding(p)
    elements = p.elements
    for label in (BOTTOM, TOP):
        if label in elements:
            raise InputError(f"poset element {label!r} is a reserved region label")
    for name, kind, listed, extremal in (
        ("bottom", "minimal", emb.bottom, p.minimal_elements()),
        ("top", "maximal", emb.top, p.maximal_elements()),
    ):
        if len(listed) != len(extremal) or set(listed) != set(extremal):
            raise InputError(f"embedding inconsistent: {name} must list each {kind} element once")

    # (x, y) pairs of the augmented Hasse diagram, parallel to edge ids of the dual
    hasse = [*p.covers, *((BOTTOM, x) for x in emb.bottom), *((x, TOP) for x in emb.top)]
    if not elements:
        hasse.append((BOTTOM, TOP))
    left = len(hasse)
    right = left + 1

    up = {x: [] for x in (BOTTOM, *elements)}
    down = {x: [] for x in (BOTTOM, *elements, TOP)}
    for eid, (x, y) in enumerate(hasse):
        up[x].append(eid)
        down[y].append(eid)
    # sort per-element edge lists left-to-right following the embedding
    for x in elements:
        up_rank = {y: i for i, y in enumerate(emb.up.get(x, ()))}
        down_rank = {y: i for i, y in enumerate(emb.down.get(x, ()))}
        up[x].sort(key=lambda eid: up_rank.get(hasse[eid][1], len(up_rank)))
        down[x].sort(key=lambda eid: down_rank.get(hasse[eid][0], len(down_rank)))
    up[BOTTOM] = [left, *up[BOTTOM], right]
    down[TOP] = [left, *down[TOP], right]
    # the faces west and east of every edge; sorting by the size of the
    # lower set gives a linear extension
    lower = sorted(elements, key=lambda x: p._below[p._index[x]].bit_count())
    sides = _sides([BOTTOM, *lower], down, up, ("outer", "outer"))
    # the extremal lists give every element an edge below and above, so the
    # drawing is planar iff consecutive in-edges share the face between them
    if any(
        sides[a][1] != sides[b][0] for v in (*elements, TOP) for a, b in pairwise(down[v])
    ):
        raise InputError("embedding inconsistent: not an upward planar drawing")

    # number the inner faces by a topological sort of the west-to-east dual
    # adjacency, the ready face that borders the least edge id first (the
    # two faces of one edge are never ready together).  The checks above
    # make the drawing a planar st-graph from BOTTOM to TOP, so the dual over
    # its inner faces is a planar st-graph too (Di Battista, Eades, Tamassia
    # and Tollis, Graph Drawing, ch. 4): it has no cycle, and its one source
    # and one sink are the faces east of left and west of right, the only
    # faces bordered on one side by no Hasse edge.  So the sort numbers every
    # face, that source first and that sink last.
    dual_arcs = [(*sides[eid], eid) for eid in range(len(hasse))]
    least_edge = {}
    for west, east, eid in dual_arcs:
        least_edge.setdefault(west, eid)
        least_edge.setdefault(east, eid)
    indeg = dict.fromkeys(least_edge, 0)
    east_of = {i: [] for i in least_edge}
    for west, east, _ in dual_arcs:
        indeg[east] += 1
        east_of[west].append(east)
    number = {}
    ready = [(least_edge[i], i) for i in least_edge if indeg[i] == 0]
    heapq.heapify(ready)
    while ready:
        _, fce = heapq.heappop(ready)
        number[fce] = len(number) + 1
        for east in east_of[fce]:
            indeg[east] -= 1
            if indeg[east] == 0:
                heapq.heappush(ready, (least_edge[east], east))

    dual_arcs.sort(key=lambda t: (number[t[0]], number[t[1]], t[2]))
    g = DirectedMultigraph(
        len(number), tuple((number[w], number[e]) for w, e, _ in dual_arcs)
    )
    return PlanarGraphData(g, elements, tuple(hasse[eid] for _, _, eid in dual_arcs))


# ---------------------------------------------------------------------------
# the volume-preserving maps


def _check_flow(g, fl):
    """Validate nonnegativity and conservation; returns the exact flow and its total."""
    if len(fl) != g.edge_count:
        raise InputError("flow vector length must equal the edge count")
    fl = tuple(map(_exact, fl))
    if any(x < 0 for x in fl):
        raise InputError("flows must be nonnegative")
    total = sum(fl[e] for e in g.out_edge_ids(1))
    for v in g.inner_vertices():
        into = sum(fl[e] for e in g.in_edge_ids(v))
        out = sum(fl[e] for e in g.out_edge_ids(v))
        if into != out:
            raise InputError(f"flow is not conserved at vertex {v}")
    if total != sum(fl[e] for e in g.in_edge_ids(g.n)):
        raise InputError("flow is not conserved at the sink")
    return fl, total


def flow_to_order_point(pg, fl):
    """Height function on the regions: f(x) = flow crossed from below up to x.

    Well-definedness is asserted by re-checking every edge after the
    breadth-first labeling, which amounts to comparing all pairs of paths.
    """
    fl, total = _check_flow(pg.graph, fl)
    values = {BOTTOM: Fraction(0)}
    frontier = [BOTTOM]
    while frontier:
        nxt = []
        for label in frontier:
            for e, (below, above) in enumerate(pg.edge_sides):
                if below == label and above not in values:
                    values[above] = values[label] + fl[e]
                    nxt.append(above)
                elif above == label and below not in values:
                    values[below] = values[label] - fl[e]
                    nxt.append(below)
        frontier = nxt
    for e, (below, above) in enumerate(pg.edge_sides):
        if values[above] - values[below] != fl[e]:
            raise InternalCheckError(
                f"region heights are inconsistent across edge {e}"
            )
    if values.get(TOP, total) != total:
        raise InternalCheckError("top of the drawing is not at the total flow value")
    return {r: values[r] for r in pg.regions}


def order_to_flow_point(pg, f, total=1):
    """Flow from a height function: fl(e) = f(above) - f(below).

    ``f`` assigns a value to every region label; BOTTOM and TOP are fixed
    at 0 and ``total``.  Monotonicity violations raise InputError.
    """
    values = dict(f)
    values[BOTTOM] = 0
    values[TOP] = _exact(total)
    missing = [r for r in pg.regions if r not in values]
    if missing:
        raise InputError(f"no value supplied for regions {missing}")
    fl = []
    for e, (below, above) in enumerate(pg.edge_sides):
        d = _exact(values[above]) - _exact(values[below])
        if d < 0:
            raise InputError(
                f"values are not order preserving across edge {e} "
                f"({below!r} -> {above!r})"
            )
        fl.append(d)
    fl, seen_total = _check_flow(pg.graph, fl)
    if seen_total != values[TOP]:
        raise InternalCheckError("reconstructed flow has the wrong throughput")
    return tuple(map(Fraction, fl))
