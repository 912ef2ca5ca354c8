"""Directed multigraphs on [n], framings, routes and the coherence relation.

Vertices are 1..n and every edge points from its smaller endpoint to its
larger one.  Edges are identified by their 0-based position in the edge
list; parallel edges are distinguished only by this id.  A framing orders
the in-edges and out-edges at every inner vertex; all framing lists are
written "smallest first", which for planar framings means top to bottom.

Two routes are coherent when, at every inner vertex they share, the order
in which they arrive (set where their shared stretch begins) does not
contradict the order in which they leave (set where it ends).  Each route
is profiled once by its framing ranks at its inner vertices, and one kernel
compares two profiles in one backward pass over their shared vertices.
"""

from __future__ import annotations

import random
from collections.abc import Mapping
from dataclasses import dataclass

from .errors import ContractError, InputError, _integers, _nonnegative

Route = tuple  # tuple of edge ids forming a directed path from 1 to n
_ENDPOINTS = "vertex count and edge endpoints must be integers"


@dataclass(frozen=True)
class DirectedMultigraph:
    n: int
    edges: tuple

    def __post_init__(self):
        edges = tuple(_integers((t, h), _ENDPOINTS) for t, h in self.edges)
        object.__setattr__(self, "n", _integers((self.n,), _ENDPOINTS)[0])
        object.__setattr__(self, "edges", edges)
        if self.n < 1:
            raise InputError("vertex count must be positive")
        for eid, (tail, head) in enumerate(self.edges):
            if not (1 <= tail < head <= self.n):
                raise InputError(
                    f"edge {eid} = ({tail},{head}) is not forward-directed inside [1,{self.n}]"
                )
        # adjacency of the vertices that have edges, built once; not a field,
        # so eq, hash and repr ignore it
        ins, outs = {}, {}
        for eid, (tail, head) in enumerate(self.edges):
            outs.setdefault(tail, []).append(eid)
            ins.setdefault(head, []).append(eid)
        object.__setattr__(self, "_in", {v: tuple(es) for v, es in ins.items()})
        object.__setattr__(self, "_out", {v: tuple(es) for v, es in outs.items()})

    @property
    def edge_count(self):
        return len(self.edges)

    def in_edge_ids(self, v):
        return self._in.get(v, ())

    def out_edge_ids(self, v):
        return self._out.get(v, ())

    def inner_vertices(self):
        return tuple(range(2, self.n))

    def dimension(self):
        """Dimension of the flow polytope: #E - #V + 1."""
        return len(self.edges) - self.n + 1


@dataclass
class Framing:
    """Linear orders on in/out edges at every inner vertex, smallest first."""

    in_orders: dict
    out_orders: dict

    @staticmethod
    def validate(g, framing):
        in_orders, out_orders = _order_maps(framing)
        for v in range(2, g.n):
            for label, order, expect in (
                ("in", in_orders.get(v), g._in.get(v, ())),
                ("out", out_orders.get(v), g._out.get(v, ())),
            ):
                if _listed(order) != expect:  # expect is sorted
                    raise InputError(
                        f"framing {label}-order at vertex {v} does not list its edges exactly once"
                    )
        return framing


def _order_maps(framing):
    """The order maps of ``framing``; InputError unless they are mappings."""
    if not isinstance(framing, Framing):
        raise InputError(f"framing must be a Framing, not {type(framing).__name__}")
    if not all(isinstance(m, Mapping) for m in (framing.in_orders, framing.out_orders)):
        raise InputError("framing orders must map vertices to edge orders")
    return framing.in_orders, framing.out_orders


def _listed(order):
    """An order's edge ids sorted; None for None, a number or mixed types."""
    try:
        return tuple(sorted(order))
    except TypeError:
        return None


def id_order_framing(g):
    """Deterministic framing ordering all edge lists by edge id."""
    return Framing(
        in_orders={v: tuple(g.in_edge_ids(v)) for v in g.inner_vertices()},
        out_orders={v: tuple(g.out_edge_ids(v)) for v in g.inner_vertices()},
    )


def random_framing(g, seed):
    rng = random.Random(seed)
    in_orders, out_orders = {}, {}
    for v in g.inner_vertices():
        ins, outs = list(g.in_edge_ids(v)), list(g.out_edge_ids(v))
        rng.shuffle(ins)
        rng.shuffle(outs)
        in_orders[v] = tuple(ins)
        out_orders[v] = tuple(outs)
    return Framing(in_orders, out_orders)


def all_framings(g):
    """Every framing of g (cartesian product of per-vertex orders)."""
    import itertools

    inner = g.inner_vertices()
    in_perms = [list(itertools.permutations(g.in_edge_ids(v))) for v in inner]
    out_perms = [list(itertools.permutations(g.out_edge_ids(v))) for v in inner]
    for ins in itertools.product(*in_perms):
        for outs in itertools.product(*out_perms):
            yield Framing(dict(zip(inner, ins)), dict(zip(inner, outs)))


# ---------------------------------------------------------------------------
# builders


def complete_graph(n):
    (n,) = _integers((n,), _ENDPOINTS)
    return DirectedMultigraph(n, tuple((i, j) for i in range(1, n) for j in range(i + 1, n + 1)))


def path_graph(n):
    (n,) = _integers((n,), _ENDPOINTS)
    return DirectedMultigraph(n, tuple((i, i + 1) for i in range(1, n)))


def parallel_edges(count):
    count = _nonnegative(count, "edge count")
    return DirectedMultigraph(2, ((1, 2),) * count)


# ---------------------------------------------------------------------------
# pruning


@dataclass
class PruneResult:
    graph: DirectedMultigraph
    removed_vertices: tuple
    vertex_map: dict  # old label -> new label for surviving vertices
    edge_map: dict  # old edge id -> new edge id for surviving edges


def prune_inner_vertices(g):
    """Remove inner vertices with only in- or only out-edges, iteratively.

    Relabels the survivors to a contiguous range and records the original
    labels.  Raises InputError if vertex 1 loses its connection to n.
    """
    alive_vertices = set(range(1, g.n + 1))
    alive_edges = set(range(len(g.edges)))
    removed = []
    changed = True
    while changed:
        changed = False
        for v in sorted(alive_vertices):
            if v in (1, g.n):
                continue
            ins = [e for e in g.in_edge_ids(v) if e in alive_edges]
            outs = [e for e in g.out_edge_ids(v) if e in alive_edges]
            if not ins or not outs:
                alive_vertices.remove(v)
                alive_edges.difference_update(ins, outs)
                removed.append(v)
                changed = True
    vertex_map = {old: new for new, old in enumerate(sorted(alive_vertices), start=1)}
    kept = sorted(alive_edges)
    edge_map = {old: new for new, old in enumerate(kept)}
    new_edges = tuple(
        (vertex_map[g.edges[e][0]], vertex_map[g.edges[e][1]]) for e in kept
    )
    pruned = DirectedMultigraph(len(alive_vertices), new_edges)
    if pruned.n < 2 or not pruned.edges:  # pruned, so each edge is on a route
        raise InputError("degenerate graph, empty flow polytope")
    return PruneResult(pruned, tuple(removed), vertex_map, edge_map)


def require_pruned(g):
    """Raise ContractError unless g has two or more vertices, an edge if it
    has two, and in- and out-edges at every inner vertex.

    The walk stops at the first inner vertex without them, so it takes at
    most one step per edge whatever the vertex count.
    """
    if g.n < 2:
        raise ContractError("flow polytopes need at least two vertices")
    if g.n == 2 and not g.edges:
        raise ContractError("degenerate graph, empty flow polytope")
    v = 2
    while v < g.n and g.in_edge_ids(v) and g.out_edge_ids(v):
        v += 1
    if v < g.n:
        raise ContractError(f"graph is not pruned: vertex {v} lacks in- or out-edges")
    return g


# ---------------------------------------------------------------------------
# routes


def enumerate_routes(g):
    """All 1->n directed paths as edge-id tuples, lexicographic by ids."""
    routes = []
    stack = []

    def walk(v):
        if v == g.n:
            routes.append(tuple(stack))
            return
        for e in g.out_edge_ids(v):
            stack.append(e)
            walk(g.edges[e][1])
            stack.pop()

    if g.n >= 2:
        walk(1)
    del walk  # breaks its self-reference, so the walk's state is freed on return
    return routes


def route_vertices(g, route):
    """The vertices along route, edge ids of g joined head to tail from 1 to
    n, else ContractError."""
    route = _integers(route, "route edge ids must be integers")
    verts = [1]
    for e in route:
        if not (0 <= e < len(g.edges) and g.edges[e][0] == verts[-1]):
            break
        verts.append(g.edges[e][1])
    else:
        if route and verts[-1] == g.n:
            return tuple(verts)
    raise ContractError(f"edge sequence {route} is not a path from 1 to {g.n}")


def route_flow_vector(g, route):
    """0/1 unit-flow vector of a route, indexed by edge id."""
    vec = [0] * len(g.edges)
    for e in route:
        vec[e] += 1
    return tuple(vec)


# ---------------------------------------------------------------------------
# the coherence relation


def _passes(g, framing, route):
    """Route profile: each inner vertex, in route order, to the ranks of the
    route's edge into it in the framing's in-order and of its edge out of it
    in the out-order."""
    verts = route_vertices(g, route)
    return {
        v: (framing.in_orders[v].index(route[i - 1]), framing.out_orders[v].index(route[i]))
        for i, v in enumerate(verts[1:-1], start=1)
    }


def _coherent(p, q):
    """Coherence of two route profiles, in one backward pass.

    Over the shared inner vertices, last first, the out-comparison is set
    where the two routes leave by different edges, and inherited where they
    leave by one edge, from that edge's head (0 into n).  The routes are
    incoherent when they enter some shared vertex by different edges in the
    order opposite to the out-comparison there.  A shared vertex entered by
    one edge needs no test: both comparisons there equal those at that
    edge's tail, or the in-comparison is 0 if the tail is vertex 1.
    """
    c = 0
    for v in reversed(p):
        if v in q:
            (p_in, p_out), (q_in, q_out) = p[v], q[v]
            if p_out != q_out:
                c = 1 if p_out > q_out else -1
            if (p_in - q_in) * c < 0:
                return False
    return True


def coherent(g, framing, p, q):
    """True iff routes p and q are coherent at every common inner vertex."""
    Framing.validate(g, framing)
    return _coherent(_passes(g, framing, p), _passes(g, framing, q))


# ---------------------------------------------------------------------------
# JSON interface


def _framing_to_json(g, framing):
    return {
        str(v): {"in": list(framing.in_orders[v]), "out": list(framing.out_orders[v])}
        for v in g.inner_vertices()
    }


def graph_to_json(g, framing=None):
    data = {"n": g.n, "edges": [list(e) for e in g.edges]}
    if framing is not None:
        data["framing"] = _framing_to_json(g, framing)
    return data


def graph_from_json(data):
    """Parse the graph JSON schema; absent framing defaults to id-order.
    An unpruned graph is refused before the framing, which lists every
    inner vertex, is read or built."""
    try:
        g = DirectedMultigraph(data["n"], tuple(tuple(e) for e in data["edges"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"malformed graph JSON: {exc}") from exc
    try:
        require_pruned(g)
    except ContractError as exc:
        raise InputError(str(exc)) from exc
    block = data.get("framing")
    if block is None:
        return g, id_order_framing(g)
    in_orders, out_orders = {}, {}
    try:
        for key, spec in block.items():
            v = int(key)
            if not 1 < v < g.n:
                raise InputError(f"framing names vertex {v}, which is not an inner vertex")
            if v in in_orders:
                raise InputError(f"framing names vertex {v} twice")
            in_orders[v] = _integers(spec["in"], "framing edge ids must be integers")
            out_orders[v] = _integers(spec["out"], "framing edge ids must be integers")
        return g, Framing.validate(g, Framing(in_orders, out_orders))
    except (AttributeError, KeyError, OverflowError, TypeError, ValueError) as exc:
        raise InputError(f"malformed framing JSON: {exc}") from exc
