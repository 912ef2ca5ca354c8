"""Integer flows, Kostant partition function values and flow-polytope oracles.

All arithmetic is exact (python ints / fractions).  The vector-partition
count K_G(a) is implemented twice: by explicit backtracking enumeration and
by a forward transfer DP over the vertices, whose state is the supply still
to place and the inflows still owed to later vertices, packed into one int
as digits in base S + 2, S a sum of positive netflows that bounds every
digit; tests assert the two agree.  An edge's shares move a state along a
line of states down to supply 0, so the DP walks each line once and keeps
a running sum, rather than sending each state to every point below it.

The DP's netflow pass reads a list of (netflow, weight) choices per vertex
and sums the weighted counts over every choice.  kostant_value gives each
vertex its one netflow entry with weight 1.  The Ehrhart polynomial is the
generalized Lidskii formula (Baldoni and Vergne 2008; Meszaros and Morales
2019): with o_v = outdeg(v) - 1 and d = #E - #V + 1,
L_G(t) = sum_k c_k * C(t + o_1, k), where the integer c_k sums
prod_{v >= 2} C(o_v, j_v) * K_G(j - o, 0) over the weak compositions j of d
with j_1 = k, and c_d is the normalized volume.  Each c_k is one DP whose
choices at v >= 2 are every j_v - o_v, weighted C(o_v, j_v).
"""

from __future__ import annotations

from collections.abc import Mapping, Set
from fractions import Fraction
from functools import cache
from itertools import combinations_with_replacement
from math import comb
from operator import itemgetter, sub

from .errors import ContractError, InputError, _integers
from .graphs import DirectedMultigraph, _require_graph, require_pruned


def compositions_colex(total, parts):
    """Weak compositions of ``total`` into ``parts`` parts as a list, colex order.

    Stars and bars: the sums of the last 1, 2, ..., parts - 1 parts are a
    nondecreasing sequence in 0..total, and itertools lists those in
    lexicographic order, which is colex order of the compositions.
    """
    if parts == 0:
        return [()] if total == 0 else []
    return [
        tuple(map(sub, (total, *sums[::-1]), (*sums[::-1], 0)))
        for sums in combinations_with_replacement(range(total + 1), parts - 1)
    ]


def _check_netflow(g, netflow):
    _require_graph(g)
    # a mapping would be read as its keys, and a set in its iteration order
    if isinstance(netflow, (Mapping, Set)):
        raise InputError("netflow must be a sequence, not a mapping or a set")
    if not hasattr(netflow, "__len__"):
        raise InputError("netflow entries must be integers")
    if len(netflow) != g.n:
        raise InputError("netflow vector length must equal the vertex count")
    netflow = _integers(netflow, "netflow entries must be integers")
    if sum(netflow) != 0:
        raise InputError("netflow entries must sum to zero")
    return netflow


def enumerate_integer_flows(g, netflow):
    """All nonnegative integer edge flows with the given netflow vector.

    Backtracks over vertices 1..n in order, distributing the supply at each
    vertex (its netflow plus the inflow its in-edges carry so far) over its
    out-edges.  Each flow is a dict keyed by every edge id, vertex by vertex
    in out-edge order; the list is sorted by the per-edge value tuple.
    """
    netflow = _check_netflow(g, netflow)
    n = g.n
    outs = [g.out_edge_ids(v) for v in range(n + 1)]  # index 0 unused
    order = [e for out in outs for e in out]
    heads = [[g.edges[e][1] for e in out] for out in outs]
    compositions = cache(compositions_colex)
    inflow = [0] * (n + 1)
    values = [0] * len(order)
    flows = []

    def walk(v, pos):
        supply = netflow[v - 1] + inflow[v]
        if v == n:
            if supply == 0:
                flows.append(tuple(values))
            return
        stop = pos + len(outs[v])
        if supply < 0 or (supply > 0 and pos == stop):
            return
        for comp in compositions(supply, stop - pos):
            values[pos:stop] = comp
            for h, a in zip(heads[v], comp):
                inflow[h] += a
            walk(v + 1, stop)
            for h, a in zip(heads[v], comp):
                inflow[h] -= a

    walk(1, 0)
    del walk  # breaks its self-reference, so the walk's state is freed on return
    if len(flows) > 1:  # then g has two edges or more, and itemgetter gives tuples
        position = {e: i for i, e in enumerate(order)}
        flows.sort(key=itemgetter(*(position[e] for e in range(g.edge_count))))
    return [dict(zip(order, fl)) for fl in flows]


def kostant_value(g, netflow):
    """K_G(netflow): number of nonnegative integer flows, by the transfer DP
    with one choice, weight 1, per vertex."""
    return _count(g, _check_netflow(g, netflow))


def _count(g, netflow):
    return _transfer(g, [[(a, 1)] for a in netflow])


def _transfer(g, choices):
    """Sum over the netflow choices of the weight times the number of flows:
    vertex v may enter with any (netflow, weight) pair in ``choices[v - 1]``,
    and vertex n's netflow is the balance of the others.

    One dict maps a state to a count and advances one vertex at a time.  At
    vertex v the state is one int in base B = S + 2, S the sum over v < n of
    v's largest netflow choice where it is positive: digit 0 holds v's
    supply still to place and digit h - v the inflow owed to a later vertex
    h < n.  Those digits add up to partial sums of chosen netflows, so each
    lies in [0, S] and none carries.  Entering vertex v divides the state by
    B and adds each of v's netflow choices, weighting the count; a state
    whose supply is negative, or positive at a vertex with no out-edge, is
    dropped.

    Vertex v's out-edges then take shares of the supply one edge at a time,
    parallel edges included, and the last edge takes the remainder.  A
    share a on an edge into h < n adds a * (B^(h-v) - 1), a step that
    B >= 2 keeps nonzero also at S = 0, where B = S + 1 would not; one into
    n subtracts a, since vertex n's inflow is not kept.

    The shares 0..s of a state with supply s reach the points key + a * step
    of its line, which ends at supply 0; each state on a line reaches every
    point below it there.  So the new count at a point is the sum of the
    old counts at or above it on its line.  Taking the states in the step's
    direction (descending keys for the step -1 into n) meets each line's
    top state first; one walk from there down to supply 0 writes that
    running sum at every point, and the line's other states are skipped.
    The order saves work and nothing else: no walk reaches a top state, so
    its walk is the last on its line in any order.
    """
    n = g.n
    # the largest (netflow, weight) pair holds the largest netflow
    base = sum(max(max(pairs)[0], 0) for pairs in choices[: n - 1]) + 2
    place = [base**d for d in range(n)]
    states = {0: 1}
    for v in range(1, n):
        heads = sorted(g.edges[e][1] for e in g.out_edge_ids(v))
        # dividing off v - 1's spent digit leaves the inflow owed to v in digit 0;
        # adding one of v's netflow choices makes it the supply
        entered = {}
        get = entered.get
        pairs = choices[v - 1]
        for key, count in states.items():
            owed = key // base
            for net, weight in pairs:
                if (supply := owed % base + net) == 0 or (supply > 0 and heads):
                    entered[owed + net] = get(owed + net, 0) + count * weight
        states = entered
        for idx, h in enumerate(heads):
            step = (place[h - v] if h < n else 0) - 1
            advanced = {}
            if idx == len(heads) - 1:
                get = advanced.get
                for key, k in states.items():
                    nxt = key + key % base * step
                    advanced[nxt] = get(nxt, 0) + k
            else:
                # a key that an earlier walk wrote lies on a line walked already
                get = states.get
                for key in sorted(states, reverse=step < 0):
                    if key not in advanced:
                        total = 0
                        for nxt in range(key, key + (key % base + 1) * step, step):
                            total += get(nxt, 0)
                            advanced[nxt] = total
            states = advanced
    return sum(states.values())


def indegree_shift_netflow(g):
    """(0, d_2, ..., d_{n-1}, -sum d_i) with d_i = indegree(i) - 1."""
    ds = [len(g.in_edge_ids(i)) - 1 for i in range(2, g.n)]
    return tuple([0] + ds + [-sum(ds)])


def flow_polytope_volume(g):
    """Normalized volume of the flow polytope, as a Kostant value."""
    require_pruned(g)
    return _count(g, indegree_shift_netflow(g))


def ehrhart_netflow(g, t):
    return tuple([t] + [0] * (g.n - 2) + [-t])


def flow_ehrhart_value(g, t):
    """Lattice-point count of the t-th dilation of the flow polytope."""
    require_pruned(g)
    (t,) = _integers((t,), "netflow entries must be integers")
    if t < 0:
        raise InputError("dilation factor must be nonnegative")
    return _count(g, ehrhart_netflow(g, t))


def _lidskii_coefficients(g):
    """(o_1, [c_0, ..., c_d]) of a pruned g: c_k is one transfer DP on g
    without the in-edges of n, which sink netflow 0 leaves empty.  Vertex 1
    enters with netflow k - o_1, the only positive one, and each v >= 2 with
    every j_v - o_v, 0 <= j_v <= o_v, weighted C(o_v, j_v)."""
    o = [len(g.out_edge_ids(v)) - 1 for v in range(1, g.n + 1)]
    choices = [[(j - x, comb(x, j)) for j in range(x + 1)] for x in o]
    inner = DirectedMultigraph(g.n, tuple(e for e in g.edges if e[1] < g.n))
    coefficients = [0] * o[0]  # vertex 1 has no in-edge to meet a netflow k - o_1 < 0
    for k in range(o[0], g.dimension() + 1):
        choices[0] = [(k - o[0], 1)]  # j_1 = k
        coefficients.append(_transfer(inner, choices))
    return o[0], coefficients


def flow_ehrhart_polynomial(g):
    """The Ehrhart polynomial's coefficients, constant term first, as
    Fractions: Lidskii's sum_k c_k * C(t + o_1, k) expanded exactly, its
    value at t = d + 1 checked against flow_ehrhart_value.

    That check costs more than the polynomial: its DP runs in base d + 3,
    and its states grow with the base.  On K8 (d = 15) the coefficients
    took 0.6-0.8 s and the check 2.1-2.9 s, on staircase 8 (d = 28) 2.7 s
    and 9.0 s, each on a 2-vCPU machine, so the check bounds the sizes
    this reaches.  It is kept as the one comparison of the formula with
    the plain count that every call makes.
    """
    require_pruned(g)
    o_1, coefficients = _lidskii_coefficients(g)
    dim = len(coefficients) - 1
    monomial, binomial = [Fraction(0)] * (dim + 1), [Fraction(1)]  # C(t + o_1, k) in t
    for k, c in enumerate(coefficients):
        for i, b in enumerate(binomial):
            monomial[i] += c * b
        binomial = [(x * (o_1 - k) + y) / (k + 1) for x, y in zip(binomial + [0], [0] + binomial)]
    if sum(c * (dim + 1) ** i for i, c in enumerate(monomial)) != flow_ehrhart_value(g, dim + 1):
        raise ContractError("Ehrhart values are not polynomial of the expected degree")
    return monomial
