"""Three triangulation algorithms and the bijections between their index sets.

* canonical: one simplex of the order polytope per linear extension,
  vertices the indicator vectors of the suffix filters along its chain of
  ideals, read by the posets module's one walk of those chains;
* reduction ("ps"): reduce the inner vertices in the order 2, ..., n-1, each
  along a noncrossing bipartite tree, i.e. a composition b.  When v is
  reduced every edge into v already holds its final block of route prefixes;
  the prefixes arriving at v are those blocks in framing in-order, and
  out-edge j (framing out-order) takes the window of b_j + 1 of them from
  position b_1 + ... + b_{j-1} on, each extended by itself, and flow b_j.  A
  prefix is the AND of through[e] over its edges: the routes extending it,
  for through[e] the routes of g via e.  A prefix reaching n is one route,
  and so is one reaching n-1 when n-1 has a single out-edge, which every
  prefix there goes on along.  So an edge into such a last vertex keeps no
  block: the walk carries the union of those routes and their numbers down
  to the leaf, emitted at n-1 when it is last, whose mask is the union, and
  a leaf is sound when #E - #V + 2 routes arrived and the union has as many
  bits.  The windows are cached per vertex and number of arriving prefixes,
  and a leaf stays the mask of its routes until a caller decodes it;
* clique ("dkk"): maximal sets of pairwise coherent routes, found by
  Bron-Kerbosch with pivoting on bitmasks (one int per route set).  What
  the walk reports below a node (R, P, X) is R joined with cliques fixed by
  (P, X) alone, so each distinct (P, X) is expanded once into a DAG, and
  the cliques are unfolded from its root-to-leaf paths by an explicit stack.

Each leaf's flow has netflow (0, d_2, ..., d_{n-1}, -sum d_i).  A flow maps
to its leaf by one replay of the reduction on edge-tuple prefixes; a clique
maps to its flow by a count, b_e + 1 distinct prefixes of its routes ending
in e, confirmed by that replay.  Matching the leaf masks of two framings by
flow gives the framing-change bijection, decoded at the end.
Masks are decoded in one pass: a mask's tuple takes its leading items, those
above the highest bit where it differs from the previous mask, off the
previous tuple, and the low rest is decoded once per distinct value, from
the items of its 8-bit chunks, each chunk decoded once per pass.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import reduce
from itertools import chain, repeat
from math import comb
from operator import eq, or_

from .errors import ContractError, InputError, InternalCheckError, _integers
from .graphs import (
    Framing,
    _coherent,
    _passes,
    enumerate_routes,
    require_pruned,
    route_flow_vector,
)
from .kostant import compositions_colex
from .planar import BOTTOM, _upper_boundary
from .posets import _chain_sums, _ideal_vertices, linear_extensions


# ---------------------------------------------------------------------------
# canonical triangulation of the order polytope


@dataclass(frozen=True)
class CanonicalSimplex:
    extension: tuple
    vertices: tuple  # indicator vectors of the suffix filters, largest first


def canonical_triangulation(p):
    """One simplex per linear extension of p.

    The simplex of extension (s_1, ..., s_k) has the k+1 vertices
    1_{F_j}, F_j = {s_{j+1}, ..., s_k}, in p.elements coordinates: the
    filter indicators along its chain of ideals, one shared tuple per ideal.
    """
    vertex = _ideal_vertices(p)
    vertices = _chain_sums(p, (vertex[0],), lambda i, up: (vertex[up],))
    return list(map(CanonicalSimplex, linear_extensions(p), vertices))


# ---------------------------------------------------------------------------
# noncrossing bipartite trees


@dataclass(frozen=True)
class NoncrossingTree:
    left: int
    right: int
    composition: tuple

    def __post_init__(self):
        c = self.composition
        if len(c) != self.right or sum(c) != self.left - 1 or any(b < 0 for b in c):
            raise ContractError(
                f"composition {c} does not encode a tree "
                f"on {self.left}+{self.right} vertices"
            )


def noncrossing_trees(left, right):
    """All noncrossing spanning trees on (left, right), colex composition order."""
    left, right = _integers((left, right), "noncrossing tree sides must be integers")
    if left < 1 or right < 1:
        raise InputError("both sides of a noncrossing tree must be nonempty")
    trees = [
        NoncrossingTree(left, right, c) for c in compositions_colex(left - 1, right)
    ]
    if len(trees) != comb(left + right - 2, left - 1):
        raise InternalCheckError("noncrossing tree count disagrees with the binomial")
    return trees


# ---------------------------------------------------------------------------
# the vertex-reduction subdivision


def _validate_framed(g, framing):
    require_pruned(g)
    Framing.validate(g, framing)


@dataclass(frozen=True)
class SubdivisionLeaf:
    routes: tuple  # sorted tuple of routes (edge-id tuples) of the original graph
    flow: tuple  # integer flow on the original edges, netflow (0, d_2, ..)


def _arriving(framing, blocks, v):
    """The route prefixes ending at v: the blocks of its in-edges, in in-order."""
    return [pre for e in framing.in_orders[v] for pre in blocks[e]]


def _deal(composition):
    """The reduction's deal along composition b as windows on the arriving
    prefixes: per out-edge (framing out-order) (lo, hi, b_j), out-edge j
    taking positions lo..hi-1, lo = b_1 + ... + b_{j-1} and hi = lo + b_j + 1,
    and carrying flow b_j, so consecutive windows share one position."""
    windows, lo = [], 0
    for b in composition:
        windows.append((lo, lo + b + 1, b))
        lo += b
    return windows


def _through(g, routes):
    """Per edge id the mask of the routes through it, route i of k being bit
    k-1-i."""
    through = [0] * g.edge_count
    for b, route in enumerate(reversed(routes)):
        for e in route:
            through[e] |= 1 << b
    return through


def _ps_masks(g, framing):
    """The routes of g, and the leaves of the reduction as masks and flows.

    Tree choices at each vertex run in colex composition order, so leaves
    come ordered by their compositions, vertex 2 first, each in colex order.
    Out-edge e takes the window ins[lo:hi].  A prefix reaching n is a single
    route, and so is one reaching n-1 when n-1 has one out-edge, for it goes
    on along that edge; for e into such a last vertex the walk ORs the
    window into the union it carries and counts it, k into n and k1 into
    n-1.  The walk ends at the last vertex, where the one out-edge of n-1
    takes flow k1 - 1, and the leaf checks that #E - #V + 2 routes arrived,
    no two the same.
    """
    _validate_framed(g, framing)
    routes = enumerate_routes(g)
    through = _through(g, routes)
    n, expected = g.n, g.edge_count - g.n + 2
    ones = g.out_edge_ids(n - 1) if n > 2 else ()
    last = n - 1 if len(ones) == 1 else n  # where the walk emits its leaves
    blocks, flow = {}, [0] * g.edge_count
    leaf, counts = 0, [0, 0]  # the routes so far, and how many enter n and n-1
    for e in g.out_edge_ids(1):
        head = g.edges[e][1]
        if head < last:
            blocks[e] = [through[e]]
        else:
            leaf |= through[e]
            counts[head < n] += 1
    masks, flows = [], []
    # (v, number of arriving prefixes) -> per composition, its deal steps
    # (out-edge, through mask, window lo, hi, flow), split by whether the
    # out-edge enters a last vertex, and the prefixes it adds to k and k1
    deals = {}

    def descend(v, leaf, k, k1):
        if v == last:
            if last < n:
                flow[ones[0]] = k1 - 1
            k += k1
            if k != expected or leaf.bit_count() != k:
                raise InternalCheckError("leaf does not have #E - #V + 2 distinct routes")
            masks.append(leaf)
            flows.append(tuple(flow))
            return
        ins = _arriving(framing, blocks, v)
        key = (v, len(ins))
        if key not in deals:
            outs, deals[key] = framing.out_orders[v], []
            for tree in noncrossing_trees(len(ins), len(outs)):
                dealt, joined, added = [], [], [0, 0]
                for e, (lo, hi, b) in zip(outs, _deal(tree.composition)):
                    head = g.edges[e][1]
                    if head < last:
                        dealt.append((e, through[e], lo, hi, b))
                    else:
                        joined.append((e, through[e], lo, hi, b))
                        added[head < n] += hi - lo
                deals[key].append((dealt, joined, *added))
        for dealt, joined, dk, dk1 in deals[key]:
            for e, t, lo, hi, b in dealt:
                blocks[e] = [x & t for x in ins[lo:hi]]
                flow[e] = b
            union = leaf
            for e, t, lo, hi, b in joined:
                union |= reduce(or_, ins[lo:hi]) & t
                flow[e] = b
            descend(v + 1, union, k + dk, k1 + dk1)

    descend(2, leaf, *counts)
    del descend  # breaks its self-reference, so the walk's state is freed on return
    return routes, masks, flows


def ps_triangulation(g, framing):
    """All leaves of the vertex-reduction subdivision, in _ps_masks order."""
    routes, masks, flows = _ps_masks(g, framing)
    return list(map(SubdivisionLeaf, _decode(masks, routes), flows))


def _replay(g, framing, flow):
    """The sorted leaf routes of the reduction of each inner vertex along the
    flow on its out-edges, each taking its window of the arriving prefixes,
    for a validated g and framing; a prefix is its tuple of edge ids.  With
    every total right, n receives #E - #V + 2 distinct routes."""
    blocks = {e: [(e,)] for e in g.out_edge_ids(1)}
    for v in range(2, g.n):
        ins = _arriving(framing, blocks, v)
        outs = framing.out_orders[v]
        composition = [flow[e] for e in outs]
        if min(composition) < 0 or sum(composition) != len(ins) - 1:
            raise InputError(f"flow not realizable: bad total at vertex {v}")
        for e, (lo, hi, _) in zip(outs, _deal(composition)):
            blocks[e] = [pre + (e,) for pre in ins[lo:hi]]
    if any(flow[e] for e in g.out_edge_ids(1)):
        raise InputError("flow not realizable: nonzero flow out of vertex 1")
    return sorted(pre for e in g.in_edge_ids(g.n) for pre in blocks[e])


def flow_to_clique(g, framing, flow):
    """Leaf routes of the reduction replayed along a given integer flow: at
    each vertex the tree whose composition is the flow on its out-edges."""
    _validate_framed(g, framing)
    message = "flow must be a nonnegative integer vector over the edges"
    flow = _integers(flow, message)
    if len(flow) != g.edge_count or any(x < 0 for x in flow):
        raise InputError(message)
    return tuple(_replay(g, framing, flow))


def clique_to_flow(g, framing, clique):
    """Inverse of flow_to_clique: b_e is one less than the number of distinct
    prefixes of the clique's routes that end in e, as out-edge e takes one
    arriving prefix more than its flow.  The flow is returned when its replay
    gives back the clique, else InputError."""
    try:
        target = sorted(clique)
    except TypeError:
        raise InputError("route set must be a collection of edge-id tuples") from None
    _validate_framed(g, framing)
    # (0.0, 4.0) is no route, though it equals (0, 4)
    tuples = all(map(isinstance, target, repeat(tuple)))
    if tuples and all(map(isinstance, chain.from_iterable(target), repeat(int))):
        # sorted, a route meets no earlier prefix past the one it shares with
        # the route before it; ends lists the last edge of each distinct prefix
        ends = []
        for previous, route in zip([()] + target, target):
            ends += route[[*map(eq, previous, route), False].index(False) :]
        count = Counter(ends)
        flow = tuple(count[e] - 1 for e in range(g.edge_count))
        try:
            if _replay(g, framing, flow) == target:
                return flow
        except InputError:
            pass
    raise InputError("route set is not a leaf of the reduction for this framing")


def framing_change_bijection(g, f1, f2):
    """Map each f1-clique to the f2-clique with the same reduction flow."""
    routes, masks, flows = _ps_masks(g, f1)
    mask_by_flow = {flow: mask for mask, flow in zip(*_ps_masks(g, f2)[1:])}
    if not mask_by_flow.keys() >= set(flows):
        raise InternalCheckError("a leaf flow under f1 is no leaf flow under f2")
    image = [mask_by_flow[flow] for flow in flows]
    if len(set(image)) != len(image):
        raise InternalCheckError("framing change map is not injective")
    return dict(zip(_decode(masks, routes), _decode(image, routes)))


# ---------------------------------------------------------------------------
# coherent-route cliques


def _maximal_cliques(adj):
    """The maximal cliques, as unsorted masks, of the graph on bits
    0..len(adj)-1 whose neighbour masks by bit are adj; a nonempty graph.

    Bron-Kerbosch with pivoting, every vertex set an int: the pivot is the
    first of P | X, from the highest bit, with the most neighbours in P, and
    the candidates are P minus its neighbours, highest bit first.  The pivot
    and the candidates depend on (P, X) alone, so the cliques reported
    below a node (R, P, X) are R | c for c in a set fixed by (P, X).  Many
    nodes share one (P, X), so each distinct pair is expanded once into its
    steps, (candidate bit, the child's steps or None at a leaf), and the
    cliques are the unions of the bits along each path from the root to a
    leaf.  A step holds its child's step list, not its (P, X), so each
    distinct pair is kept once, as its key in steps.
    """
    top, root = ((1 << len(adj)) - 1, 0), []
    steps = {top: root}  # (p, x) -> [(bit, child's steps, or None at a leaf)]
    todo = [(top, root)]
    while todo:
        (p, x), node = todo.pop()  # p is nonempty; a child whose P is empty is a leaf
        most, pivot_adj, rest = -1, 0, p | x
        while rest:
            u = rest.bit_length() - 1
            rest ^= 1 << u
            size = (adj[u] & p).bit_count()
            if size > most:
                most, pivot_adj = size, adj[u]
        candidates = p & ~pivot_adj
        while candidates:
            v = candidates.bit_length() - 1
            bit = 1 << v
            candidates ^= bit
            p_v, x_v = p & adj[v], x & adj[v]
            if p_v:
                child = steps.get((p_v, x_v))
                if child is None:
                    child = steps[p_v, x_v] = []
                    todo.append(((p_v, x_v), child))
                node.append((bit, child))
            elif not x_v:
                node.append((bit, None))
            p ^= bit
            x |= bit
    cliques = []
    walk = [(0, root)]
    while walk:
        r, node = walk.pop()
        for bit, child in node:
            if child is None:
                cliques.append(r | bit)
            else:
                walk.append((r | bit, child))
    return cliques


def _clique_masks(g, framing):
    """The routes of g, their coherence graph as neighbour masks by bit, and
    its maximal cliques as masks: route i of the k routes is bit k-1-i.

    The cliques come from _maximal_cliques, whose Bron-Kerbosch walk expands
    each distinct (P, X) subproblem once (421 of them on the staircase of
    order 6, against 282,386 tree nodes) and unfolds the cliques from them.
    All cliques have one size, asserted rather than trusted, so sorting the
    masks in descending order sorts their route tuples lexicographically.
    """
    _validate_framed(g, framing)
    routes = enumerate_routes(g)
    k = len(routes)
    profiles = [_passes(g, framing, r) for r in routes]
    adj = [0] * k  # indexed by bit
    for a in range(k):
        for b in range(a + 1, k):
            if _coherent(profiles[a], profiles[b]):
                adj[k - 1 - a] |= 1 << (k - 1 - b)
                adj[k - 1 - b] |= 1 << (k - 1 - a)
    cliques = _maximal_cliques(adj)
    expected = g.edge_count - g.n + 2
    for c in cliques:
        if c.bit_count() != expected:
            raise InternalCheckError(
                "coherence relation violates top-dimensionality: clique of size "
                f"{c.bit_count()}, expected {expected}"
            )
    cliques.sort(reverse=True)
    return routes, adj, cliques


def _items(mask, items):
    """The items of mask, in order: item i of k is bit k-1-i."""
    found = []
    while mask:
        b = mask.bit_length() - 1
        mask ^= 1 << b
        found.append(items[-1 - b])
    return tuple(found)


def _decode(masks, items):
    """Each mask as the tuple of its items, in one pass over the masks.

    Item i of k is bit k-1-i, so a mask's tuple begins with the items of the
    bits above the highest bit where it differs from the previous mask, which
    are read off the previous tuple; the rest, the low part, is decoded once
    per distinct value, 8 bits at a time from the top: the items of each
    8-bit chunk, kept in place as low & (255 << s), are decoded once per
    call.  Any order of the masks gives the same tuples.
    """
    decoded, lows, chunks = [], {}, {}
    last, items_of_last = 0, ()
    for mask in masks:
        h = (mask ^ last).bit_length()
        low = mask & ((1 << h) - 1)
        tail = lows.get(low)
        if tail is None:
            tail = ()
            for s in range((h - 1) & -8, -1, -8):  # the chunks below bit h, top first
                chunk = low & (255 << s)
                part = chunks.get(chunk)
                if part is None:
                    part = chunks[chunk] = _items(chunk, items)
                tail += part
            lows[low] = tail
        items_of_last = items_of_last[: (mask >> h).bit_count()] + tail
        last = mask
        decoded.append(items_of_last)
    return decoded


def dkk_maximal_cliques(g, framing):
    """Maximal sets of pairwise coherent routes, each of size #E - #V + 2,
    sorted; the clique masks are decoded into route tuples only at the end."""
    routes, _, cliques = _clique_masks(g, framing)
    return _decode(cliques, routes)


def dkk_triangulation(g, framing):
    """Cliques realized as simplices of unit route flows, decoded straight from their masks."""
    routes, _, cliques = _clique_masks(g, framing)
    flows = [route_flow_vector(g, r) for r in routes]
    return [tuple(sorted(s)) for s in _decode(cliques, flows)]


# ---------------------------------------------------------------------------
# linear extensions -> cliques on planar graphs


def linext_to_clique(pg, ext):
    """Routes on the upper boundaries of the extension's prefix ideals,
    sorted; each traced as planar._ideal_routes traces an ideal's route.
    InputError unless ext lists every region once, after its lower covers."""
    covers = {r: {b for b, a in pg.edge_sides if a == r} for r in pg.regions}
    try:
        ext = iter(ext)
    except TypeError:
        raise InputError(f"not a linear extension of the region poset: {ext!r}") from None
    lower = {BOTTOM}
    routes = [_upper_boundary(pg, lower)]
    for x in ext:
        try:
            placeable = x not in lower and covers[x] <= lower
        except (KeyError, TypeError):  # not a region label
            placeable = False
        if not placeable:
            raise InputError(f"not a linear extension of the region poset: {x!r} out of place")
        lower.add(x)
        routes.append(_upper_boundary(pg, lower))
    if len(lower) != len(covers) + 1:
        raise InputError("not a linear extension of the region poset: regions missing")
    if len(set(routes)) != len(routes):
        raise InternalCheckError("extension produced a repeated route")
    return tuple(sorted(routes))


# ---------------------------------------------------------------------------
# comparison


@dataclass
class TriangulationComparison:
    equal: bool
    only_in_a: list
    only_in_b: list


def simplex_key(vertices):
    """Canonical coordinate-based key: sorted tuple of vertex tuples."""
    return tuple(sorted(tuple(x) for x in vertices))


def compare_triangulations(a, b):
    """Set comparison of two simplex lists under the canonical keys."""
    ka = {simplex_key(s) for s in a}
    kb = {simplex_key(s) for s in b}
    return TriangulationComparison(
        equal=ka == kb,
        only_in_a=sorted(ka - kb),
        only_in_b=sorted(kb - ka),
    )
