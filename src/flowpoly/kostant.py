"""Integer flows, Kostant partition function values and flow-polytope oracles.

All arithmetic is exact (python ints / fractions).  The vector-partition
count K_G(a) is implemented twice: by explicit backtracking enumeration and
by a memoized dynamic program; tests assert the two agree.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, factorial

from .errors import ContractError, InputError
from .graphs import require_pruned


def compositions_colex(total, parts):
    """Weak compositions of ``total`` into ``parts`` parts as a list, colex order."""
    if parts == 0:
        return [()] if total == 0 else []
    if parts == 1:
        return [(total,)]
    return [
        rest + (last,)
        for last in range(total + 1)
        for rest in compositions_colex(total - last, parts - 1)
    ]


def _check_netflow(g, netflow):
    if len(netflow) != g.n:
        raise InputError("netflow vector length must equal the vertex count")
    if sum(netflow) != 0:
        raise InputError("netflow entries must sum to zero")
    return tuple(int(a) for a in netflow)


def enumerate_integer_flows(g, netflow):
    """All nonnegative integer edge flows with the given netflow vector.

    Backtracks over vertices 1..n in order, distributing the required
    outflow at each vertex over its out-edges; result sorted canonically
    by the per-edge value tuple.
    """
    netflow = _check_netflow(g, netflow)
    out_ids = {v: g.out_edge_ids(v) for v in range(1, g.n + 1)}
    flows = []
    assignment = {}
    inflow = [0] * (g.n + 1)

    def walk(v):
        if v == g.n:
            if inflow[v] + netflow[v - 1] == 0:
                flows.append(dict(assignment))
            return
        supply = netflow[v - 1] + inflow[v]
        outs = out_ids[v]
        if supply < 0 or (supply > 0 and not outs):
            return
        for comp in compositions_colex(supply, len(outs)):
            for e, val in zip(outs, comp):
                assignment[e] = val
                inflow[g.edges[e][1]] += val
            walk(v + 1)
            for e, val in zip(outs, comp):
                inflow[g.edges[e][1]] -= val
        for e in outs:
            assignment.pop(e, None)

    walk(1)
    flows.sort(key=lambda fl: tuple(fl.get(e, 0) for e in range(len(g.edges))))
    return flows


def kostant_value(g, netflow):
    """K_G(netflow): number of nonnegative integer flows, by dynamic program.

    The memo key is (vertex, residual inflows at vertices beyond it); out-edge
    values toward a common head are aggregated with a stars-and-bars weight.
    """
    netflow = _check_netflow(g, netflow)
    heads = {}
    for v in range(1, g.n):
        per_head = {}
        for e in g.out_edge_ids(v):
            per_head[g.edges[e][1]] = per_head.get(g.edges[e][1], 0) + 1
        heads[v] = sorted(per_head.items())

    @lru_cache(maxsize=None)
    def count(v, residual):
        # residual[i] = accumulated inflow of vertex v+1+i
        if v == g.n:
            return 1
        supply = netflow[v - 1] + (0 if v == 1 else residual[0])
        tail_residual = residual if v == 1 else residual[1:]
        if supply < 0:
            return 0
        per_head = heads[v]
        if not per_head:
            if supply > 0:
                return 0
            return count(v + 1, tail_residual)
        total = 0

        def distribute(idx, remaining, acc):
            nonlocal total
            if idx == len(per_head) - 1:
                acc.append((per_head[idx][0], remaining))
                new_res = list(tail_residual)
                ways = 1
                for (h, cnt), (_, t) in zip(per_head, acc):
                    new_res[h - v - 1] += t
                    ways *= comb(t + cnt - 1, cnt - 1)
                total += ways * count(v + 1, tuple(new_res))
                acc.pop()
                return
            for t in range(remaining + 1):
                acc.append((per_head[idx][0], t))
                distribute(idx + 1, remaining - t, acc)
                acc.pop()

        distribute(0, supply, [])
        return total

    result = count(1, (0,) * (g.n - 1))
    count.cache_clear()
    return result


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
