"""Planar line drawings, truncated duals, and the order/flow polytope maps.

Graphs are drawn with vertices 1..n on a horizontal line and all arcs in
the upper half-plane; the drawing is described combinatorially by the
top-to-bottom in/out arc orders at each vertex, and its regions are read
off them.  Only poset_to_flow_graph traces faces, from rotation systems:
darts are (edge id, direction) pairs and the successor of a dart is the
counterclockwise predecessor of its reverse at the head vertex, so every
face is traced counterclockwise with its interior on the left.

Both constructions below hand PlanarGraphData only the region labels and
the edge sides (the regions below and above each edge).  It derives each
region's boundary and the planar framing from the sides by one rule:
top to bottom, each in-edge's below-label is the next in-edge's
above-label at an inner vertex, and the same for out-edges.

The bounded regions of a drawing, ordered "lower to higher" across each
arc, form a poset, whose covers dual_poset reads straight off the edge
sides.  Conversely a poset with an upward-planar Hasse drawing (by default
posets.default_embedding) yields a flow graph as the truncated dual of the
augmented Hasse diagram; its faces are numbered source to sink by a
topological sort that takes the ready face with the least sorted darts
first.
"""

from __future__ import annotations

import heapq
from dataclasses import InitVar, dataclass, field
from fractions import Fraction

from .errors import InputError, InternalCheckError, NotPlanarError
from .graphs import (
    DirectedMultigraph, Framing, enumerate_routes, require_pruned, route_flow_vector
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
    labels: InitVar[tuple]
    edge_sides: tuple
    regions: dict = field(init=False)
    framing: Framing = field(init=False)

    def __post_init__(self, labels):
        g = self.graph
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
# rotation systems and face tracing

_FWD, _REV = 1, -1


def _trace_faces(rotations):
    """Orbit decomposition of darts under next = CCW-predecessor of reverse.

    rotations: vertex -> CCW-ordered list of darts (edge id, direction)
    based at that vertex.  Returns the list of faces, each a tuple of darts,
    and the map from each dart to the index of its face.
    """
    at_vertex = {}
    position = {}
    for v, darts in rotations.items():
        for i, d in enumerate(darts):
            if d in position:
                raise InternalCheckError(f"dart {d} appears at two vertices")
            position[d] = (v, i)
        at_vertex[v] = darts
    faces = []
    face_of = {}
    for start in position:
        if start in face_of:
            continue
        face = []
        d = start
        while True:
            face.append(d)
            face_of[d] = len(faces)
            rev = (d[0], -d[1])
            if rev not in position:
                raise InputError(f"rotation system lacks the reverse of dart {d}")
            v, i = position[rev]
            d = at_vertex[v][(i - 1) % len(at_vertex[v])]
            if d == start:
                break
            if d in face_of:
                raise InputError("face tracing failed to close; embedding inconsistent")
        faces.append(tuple(face))
    return faces, face_of


# ---------------------------------------------------------------------------
# arc diagrams


def _full_orders(g, framing):
    """Top-to-bottom arc orders at every vertex, defaulting the endpoints.

    Inner-vertex orders come from the framing.  At vertices 1 and n (and
    at any vertex the framing omits) arcs are ordered with the farther
    endpoint on top, parallel arcs following their order at the other end.
    """
    in_orders, out_orders = {}, {}
    for v in range(1, g.n + 1):
        ins, outs = g.in_edge_ids(v), g.out_edge_ids(v)
        in_orders[v] = framing.in_orders.get(v)
        out_orders[v] = framing.out_orders.get(v)
        if in_orders[v] is not None and sorted(in_orders[v]) != sorted(ins):
            raise InputError(f"in-order at vertex {v} does not match its edges")
        if out_orders[v] is not None and sorted(out_orders[v]) != sorted(outs):
            raise InputError(f"out-order at vertex {v} does not match its edges")
    for v in range(1, g.n + 1):
        if out_orders[v] is None:
            ref = {}
            for e in g.out_edge_ids(v):
                head = g.edges[e][1]
                other = in_orders.get(head)
                ref[e] = other.index(e) if other is not None else e
            out_orders[v] = tuple(
                sorted(g.out_edge_ids(v), key=lambda e: (-g.edges[e][1], ref[e]))
            )
        if in_orders[v] is None:
            ref = {}
            for e in g.in_edge_ids(v):
                tail = g.edges[e][0]
                other = out_orders.get(tail)
                ref[e] = other.index(e) if other is not None else e
            in_orders[v] = tuple(
                sorted(g.in_edge_ids(v), key=lambda e: (g.edges[e][0], ref[e]))
            )
    return in_orders, out_orders


def _crossing_pair(g, in_orders, out_orders):
    """First pair of arcs that must cross under the given orders, or None."""
    m = g.edge_count
    for e in range(m):
        for f in range(e + 1, m):
            (u1, v1), (u2, v2) = g.edges[e], g.edges[f]
            if u1 < u2 < v1 < v2 or u2 < u1 < v2 < v1:
                return (e, f)
            if (u1, v1) == (u2, v2):
                # parallel arcs must nest the same way at both endpoints
                order_tail = out_orders[u1].index(e) < out_orders[u1].index(f)
                order_head = in_orders[v1].index(e) < in_orders[v1].index(f)
                if order_tail != order_head:
                    return (e, f)
            elif u1 == u2:
                # shared tail: the arc reaching farther must be on top
                top_first = out_orders[u1].index(e) < out_orders[u1].index(f)
                if top_first != (v1 > v2):
                    return (e, f)
            elif v1 == v2:
                # shared head: the arc from farther left must be on top
                top_first = in_orders[v1].index(e) < in_orders[v1].index(f)
                if top_first != (u1 < u2):
                    return (e, f)
    return None


def arc_diagram(g, framing):
    """Regions and edge sides of the upper-half-plane drawing of g.

    The framing gives top-to-bottom arc orders; orders at vertices 1 and n
    may be omitted and are then chosen canonically.  Raises NotPlanarError
    when two arcs are forced to cross.  Otherwise the arcs nest, and each
    arc but the lowest out of its tail has a region directly under it.
    Above an arc lies the region under the next arc up at its tail, else at
    its head, else TOP if its head is n, else the region above the top arc
    out of its head (whose head lies farther right, so the search ends).
    """
    require_pruned(g)
    in_orders, out_orders = _full_orders(g, framing)
    pair = _crossing_pair(g, in_orders, out_orders)
    if pair is not None:
        raise NotPlanarError(f"not planar in this arc order: edges {pair}", edge_pair=pair)

    # the region under each arc, numbered by tail and from the bottom arc up
    under = {}
    for v in range(1, g.n):
        for e in reversed(out_orders[v][:-1]):
            under[e] = len(under)

    def above(e):
        while True:
            tail, head = g.edges[e]
            for order in (out_orders[tail], in_orders[head]):
                i = order.index(e)
                if i:
                    return under[order[i - 1]]
            if head == g.n:
                return TOP
            e = out_orders[head][0]

    edge_sides = tuple((under.get(e, BOTTOM), above(e)) for e in range(g.edge_count))
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

_BOT, _TOPHAT = ("__0hat__",), ("__1hat__",)  # private sentinels, not valid labels


def poset_to_flow_graph(p, emb=None):
    """Flow graph G_P: the truncated dual of Hasse(P + bottom + top).

    The Hasse diagram of the augmented poset is drawn upward-planar using
    the supplied embedding, two extra bottom-to-top edges are added at the
    far left and far right, and the faces of that drawing become the
    vertices of G_P (numbered source-to-sink).  Every G_P edge crosses one
    Hasse edge x -> y; its sides are labeled (x, y), so the regions of the
    returned PlanarGraphData are exactly the elements of P.
    """
    if emb is None:
        emb = default_embedding(p)
    elements = p.elements
    if _BOT in elements or _TOPHAT in elements:
        raise InputError("poset uses a reserved internal label")

    hasse = []  # (x, y) pairs in hat(P), parallel to edge ids of the dual
    for a, b in p.covers:
        hasse.append((a, b))
    for mmin in emb.bottom:
        hasse.append((_BOT, mmin))
    for mmax in emb.top:
        hasse.append((mmax, _TOPHAT))
    if not elements:
        hasse.append((_BOT, _TOPHAT))
    left = len(hasse)
    right = left + 1

    up = {x: [] for x in elements}
    down = {x: [] for x in elements}
    for eid, (x, y) in enumerate(hasse):
        if x in down:  # covers and element->tophat edges, keyed at x
            up[x].append(eid)
        if y in up:
            down[y].append(eid)
    # sort per-element dart lists left-to-right following the embedding
    for x in elements:
        up_rank = {y: i for i, y in enumerate(emb.up.get(x, ()))}
        down_rank = {y: i for i, y in enumerate(emb.down.get(x, ()))}
        up[x].sort(
            key=lambda eid: up_rank.get(hasse[eid][1], len(up_rank))
        )
        down[x].sort(
            key=lambda eid: down_rank.get(hasse[eid][0], len(down_rank))
        )

    rotations = {}
    for x in elements:
        rotations[x] = [(e, _FWD) for e in reversed(up[x])] + [
            (e, _REV) for e in down[x]
        ]
    bottom_links = [eid for eid, (x, _) in enumerate(hasse) if x == _BOT]
    top_links = [eid for eid, (_, y) in enumerate(hasse) if y == _TOPHAT]
    rotations[_BOT] = (
        [(right, _FWD)]
        + [(e, _FWD) for e in reversed(bottom_links)]
        + [(left, _FWD)]
    )
    rotations[_TOPHAT] = (
        [(left, _REV)] + [(e, _REV) for e in top_links] + [(right, _REV)]
    )

    faces, face_of = _trace_faces(rotations)
    expected_faces = (len(hasse) + 2) - (len(elements) + 2) + 2
    if len(faces) != expected_faces:
        raise InputError("embedding inconsistent: wrong face count for a planar drawing")
    outer = face_of[(left, _FWD)]
    source = face_of[(left, _REV)]
    sink = face_of[(right, _FWD)]
    if outer in (source, sink):
        raise InputError("embedding inconsistent: boundary faces collapse together")

    # number the faces (except the outer one) by a topological sort of the
    # west-to-east dual adjacency, the ready face with the least sorted darts first
    dual_arcs = []  # (west face, east face, hasse edge id)
    for eid in range(len(hasse)):
        west, east = face_of[(eid, _FWD)], face_of[(eid, _REV)]
        if outer in (west, east):
            raise InputError("embedding inconsistent: a crossed edge borders the outside")
        dual_arcs.append((west, east, eid))

    inner_faces = [i for i in range(len(faces)) if i != outer]
    indeg = dict.fromkeys(inner_faces, 0)
    east_of = {i: [] for i in inner_faces}
    for west, east, _ in dual_arcs:
        indeg[east] += 1
        east_of[west].append(east)
    number = {}
    ready = [(sorted(faces[i]), i) for i in inner_faces if indeg[i] == 0]
    heapq.heapify(ready)
    while ready:
        _, fce = heapq.heappop(ready)
        number[fce] = len(number) + 1
        for east in east_of[fce]:
            indeg[east] -= 1
            if indeg[east] == 0:
                heapq.heappush(ready, (sorted(faces[east]), east))
    if len(number) != len(inner_faces):
        raise InputError("embedding inconsistent: dual adjacency is cyclic")
    if number[source] != 1 or number[sink] != len(inner_faces):
        raise InternalCheckError("dual source/sink are not extreme in the numbering")

    dual_arcs.sort(key=lambda t: (number[t[0]], number[t[1]], t[2]))
    g = DirectedMultigraph(
        len(inner_faces), tuple((number[w], number[e]) for w, e, _ in dual_arcs)
    )

    def to_label(x):
        if x is _BOT:
            return BOTTOM
        if x is _TOPHAT:
            return TOP
        return x

    edge_sides = tuple(
        (to_label(hasse[eid][0]), to_label(hasse[eid][1])) for _, _, eid in dual_arcs
    )
    return PlanarGraphData(g, elements, edge_sides)


# ---------------------------------------------------------------------------
# the volume-preserving maps


def _exact(x):
    """x itself if an int or a Fraction, else x converted exactly to a Fraction."""
    return x if isinstance(x, (int, Fraction)) else Fraction(x)


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
