"""Integer flows, Kostant partition function values and flow-polytope oracles.

All arithmetic is exact (python ints / fractions).  The vector-partition
count K_G(a) is implemented twice: by explicit backtracking enumeration and
by a forward transfer DP over the vertices, whose state is the supply still
to place and the inflows still owed to later vertices, packed into one int
as digits in base S + 2, S the sum of the positive netflow entries, which
bounds every digit; tests assert the two agree.  An edge's shares move a
state along a line of states down to supply 0, so the DP walks each line
once and keeps a running sum, rather than sending each state to every
point below it.
"""

from __future__ import annotations

from collections.abc import Mapping, Set
from fractions import Fraction
from functools import cache
from itertools import combinations_with_replacement
from math import factorial
from operator import itemgetter, sub

from .errors import ContractError, InputError, _integers
from .graphs import require_pruned


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
    """K_G(netflow): number of nonnegative integer flows, by a transfer DP.

    One dict maps a state to a count and advances one vertex at a time.  At
    vertex v the state is one int in base B = S + 2, S the sum of the
    positive netflow entries: digit 0 holds v's supply still to place and
    digit h - v the inflow owed to a later vertex h < n.  Those digits add
    up to a partial sum of the netflow, so each lies in [0, S] and none
    carries.  Vertex v's out-edges take shares of the supply one edge at a
    time, parallel edges included, and the last edge takes the remainder.
    A share a on an edge into h < n adds a * (B^(h-v) - 1), a step that
    B >= 2 keeps nonzero also at S = 0, where B = S + 1 would not; one into
    n subtracts a, since vertex n's inflow is not kept: with a balanced
    netflow it is fixed by the others.  Entering vertex v + 1 divides the
    state by B, in the pass that adds v + 1's netflow.

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
    netflow = _check_netflow(g, netflow)
    n = g.n
    base = sum(a for a in netflow if a > 0) + 2
    place = [base**d for d in range(n)]
    states = {0: 1}
    for v in range(1, n):
        heads = sorted(g.edges[e][1] for e in g.out_edge_ids(v))
        net = netflow[v - 1]
        # dividing off v - 1's spent digit leaves the inflow owed to v in digit 0;
        # adding v's netflow makes it the supply, 0 where v has no out-edge
        states = {
            owed + net: k
            for key, k in states.items()
            if (supply := net + (owed := key // base) % base) == 0 or (supply > 0 and heads)
        }
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
    return kostant_value(g, indegree_shift_netflow(g))


def ehrhart_netflow(g, t):
    return tuple([t] + [0] * (g.n - 2) + [-t])


def flow_ehrhart_value(g, t):
    """Lattice-point count of the t-th dilation of the flow polytope."""
    require_pruned(g)
    (t,) = _integers((t,), "netflow entries must be integers")
    if t < 0:
        raise InputError("dilation factor must be nonnegative")
    return kostant_value(g, ehrhart_netflow(g, t))


def lagrange_coefficients(values):
    """Exact polynomial coefficients through points (0, values[0]), (1, ...)."""
    degree = len(values) - 1
    coeffs = [Fraction(0)] * (degree + 1)
    for i, y in enumerate(values):
        basis = [Fraction(1)]
        denom = 1
        for j in range(degree + 1):
            if j == i:
                continue
            # multiply basis by (x - j)
            nxt = [Fraction(0)] * (len(basis) + 1)
            for k, c in enumerate(basis):
                nxt[k] += c * (-j)
                nxt[k + 1] += c
            basis = nxt
            denom *= i - j
        for k, c in enumerate(basis):
            coeffs[k] += Fraction(y) * c / denom
    return coeffs


def polynomial_value(coeffs, t):
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * t + c
    return acc


def flow_ehrhart_polynomial(g):
    """Fit the Ehrhart polynomial exactly and sanity-check one extra point."""
    require_pruned(g)
    dim = g.dimension()
    values = [flow_ehrhart_value(g, t) for t in range(dim + 1)]
    coeffs = lagrange_coefficients(values)
    probe = flow_ehrhart_value(g, dim + 1)
    if polynomial_value(coeffs, dim + 1) != probe:
        raise ContractError("Ehrhart values are not polynomial of the expected degree")
    return coeffs


def volume_from_ehrhart(g):
    coeffs = flow_ehrhart_polynomial(g)
    lead = coeffs[-1]
    vol = lead * factorial(len(coeffs) - 1)
    if vol.denominator != 1:
        raise ContractError("leading Ehrhart coefficient times dim! is not integral")
    return int(vol)
