"""Directed multigraphs on [n], framings, routes and the coherence relation.

Vertices are 1..n and every edge points from its smaller endpoint to its
larger one.  Edges are identified by their 0-based position in the edge
list; parallel edges are distinguished only by this id.  A framing orders
the in-edges and out-edges at every inner vertex; all framing lists are
written "smallest first", which for planar framings means top to bottom.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .errors import ContractError, InputError

Route = tuple  # tuple of edge ids forming a directed path from 1 to n


@dataclass(frozen=True)
class DirectedMultigraph:
    n: int
    edges: tuple

    def __post_init__(self):
        object.__setattr__(self, "edges", tuple((int(t), int(h)) for t, h in self.edges))
        if self.n < 1:
            raise InputError("vertex count must be positive")
        for eid, (tail, head) in enumerate(self.edges):
            if not (1 <= tail < head <= self.n):
                raise InputError(
                    f"edge {eid} = ({tail},{head}) is not forward-directed inside [1,{self.n}]"
                )
        # adjacency, built once; not a field, so eq, hash and repr ignore it
        ins = {v: [] for v in range(1, self.n + 1)}
        outs = {v: [] for v in range(1, self.n + 1)}
        for eid, (tail, head) in enumerate(self.edges):
            outs[tail].append(eid)
            ins[head].append(eid)
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
        for v in g.inner_vertices():
            for label, order, expect in (
                ("in", framing.in_orders.get(v), g.in_edge_ids(v)),
                ("out", framing.out_orders.get(v), g.out_edge_ids(v)),
            ):
                if order is None or sorted(order) != sorted(expect):
                    raise InputError(
                        f"framing {label}-order at vertex {v} does not list its edges exactly once"
                    )
        return framing


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
    return DirectedMultigraph(n, tuple((i, j) for i in range(1, n) for j in range(i + 1, n + 1)))


def path_graph(n):
    return DirectedMultigraph(n, tuple((i, i + 1) for i in range(1, n)))


def parallel_edges(count, n=2):
    if n != 2:
        raise InputError("parallel-edge builder produces two-vertex graphs")
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
            ins = [e for e in alive_edges if g.edges[e][1] == v]
            outs = [e for e in alive_edges if g.edges[e][0] == v]
            if not ins or not outs:
                alive_vertices.remove(v)
                alive_edges -= set(ins) | set(outs)
                removed.append(v)
                changed = True
    vertex_map = {old: new for new, old in enumerate(sorted(alive_vertices), start=1)}
    kept = sorted(alive_edges)
    edge_map = {old: new for new, old in enumerate(kept)}
    new_edges = tuple(
        (vertex_map[g.edges[e][0]], vertex_map[g.edges[e][1]]) for e in kept
    )
    pruned = DirectedMultigraph(len(alive_vertices), new_edges)
    if pruned.n < 2 or not enumerate_routes(pruned):
        raise InputError("degenerate graph, empty flow polytope")
    return PruneResult(pruned, tuple(removed), vertex_map, edge_map)


def require_pruned(g):
    """Raise ContractError unless g has two or more vertices and every inner
    vertex has in- and out-edges."""
    if g.n < 2:
        raise ContractError("flow polytopes need at least two vertices")
    for v in g.inner_vertices():
        if not g.in_edge_ids(v) or not g.out_edge_ids(v):
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
    return routes


def route_vertices(g, route):
    verts = [g.edges[route[0]][0]]
    for e in route:
        tail, head = g.edges[e]
        if tail != verts[-1]:
            raise ContractError(f"edge sequence {route} is not a path")
        verts.append(head)
    return tuple(verts)


def route_flow_vector(g, route):
    """0/1 unit-flow vector of a route, indexed by edge id."""
    vec = [0] * len(g.edges)
    for e in route:
        vec[e] += 1
    return tuple(vec)


# ---------------------------------------------------------------------------
# the coherence relation


def compare_into(g, framing, v, p, q):
    """Compare two route-prefixes ending at v; -1, 0 or 1.

    Finds the largest vertex w after which the prefixes coincide and
    before which they differ, then compares the edges entering w in the
    framing's in-order at w.
    """
    for path in (p, q):
        if not path or g.edges[path[-1]][1] != v:
            raise ContractError(f"prefix {path} does not end at vertex {v}")
    if p == q:
        return 0
    k = 0
    while k < len(p) and k < len(q) and p[-1 - k] == q[-1 - k]:
        k += 1
    if k == len(p) or k == len(q):
        raise ContractError("one prefix is a strict suffix of the other")
    ep, eq = p[-1 - k], q[-1 - k]
    w = g.edges[ep][1]
    if g.edges[eq][1] != w:
        raise ContractError("prefixes do not merge at a single vertex")
    order = framing.in_orders[w]
    return -1 if order.index(ep) < order.index(eq) else 1


def compare_outof(g, framing, v, p, q):
    """Compare two route-suffixes starting at v; -1, 0 or 1."""
    for path in (p, q):
        if not path or g.edges[path[0]][0] != v:
            raise ContractError(f"suffix {path} does not start at vertex {v}")
    if p == q:
        return 0
    k = 0
    while k < len(p) and k < len(q) and p[k] == q[k]:
        k += 1
    if k == len(p) or k == len(q):
        raise ContractError("one suffix is a strict prefix of the other")
    ep, eq = p[k], q[k]
    w = g.edges[ep][0]
    if g.edges[eq][0] != w:
        raise ContractError("suffixes do not branch at a single vertex")
    order = framing.out_orders[w]
    return -1 if order.index(ep) < order.index(eq) else 1


def coherent(g, framing, p, q):
    """True iff routes p and q are coherent at every common inner vertex."""
    vp = route_vertices(g, p)
    vq = route_vertices(g, q)
    common = set(vp[1:-1]) & set(vq[1:-1])
    for v in common:
        ip, iq = vp.index(v), vq.index(v)
        cmp_in = compare_into(g, framing, v, p[:ip], q[:iq])
        cmp_out = compare_outof(g, framing, v, p[ip:], q[iq:])
        if cmp_in * cmp_out < 0:
            return False
    return True


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
    """Parse the graph JSON schema; absent framing defaults to id-order."""
    try:
        g = DirectedMultigraph(int(data["n"]), tuple(tuple(e) for e in data["edges"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"malformed graph JSON: {exc}") from exc
    block = data.get("framing")
    if block is None:
        return g, id_order_framing(g)
    in_orders, out_orders = {}, {}
    try:
        for key, spec in block.items():
            v = int(key)
            if v not in g.inner_vertices():
                raise InputError(f"framing names vertex {v}, which is not an inner vertex")
            in_orders[v] = tuple(spec["in"])
            out_orders[v] = tuple(spec["out"])
        return g, Framing.validate(g, Framing(in_orders, out_orders))
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise InputError(f"malformed framing JSON: {exc}") from exc
