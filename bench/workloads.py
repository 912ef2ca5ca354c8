"""The benchmark's three workloads.

``make_jobs(workload, seed, lib)`` builds a workload's inputs through
``lib`` (see spans.bind) and returns its jobs in seeded order.  The seed
picks the random framings and the job order, nothing else, so every
expected value below is the same for every seed.  Each job returns
``(ok, output)``: ``ok`` says whether the output matched a value known
independently of the code that computed it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from math import comb, factorial, prod
from typing import Callable


@dataclass(frozen=True)
class Job:
    name: str
    run: Callable[[], tuple]


class SetupError(Exception):
    """A workload's inputs came out wrong, so its jobs would test nothing."""


def _distinct(items, expected, what):
    if len(items) != expected or len(set(items)) != expected:
        raise SetupError(f"{len(items)} {what} ({len(set(items))} distinct), expected {expected}")
    return items


# ---------------------------------------------------------------------------
# independent values, from closed formulas


def catalan(k):
    return comb(2 * k, k) // (k + 1)


def catalan_product(n):
    """Normalized volume of the flow polytope of K_n: C_1 C_2 ... C_{n-3}."""
    return prod(catalan(i) for i in range(1, n - 2))


def staircase_tableaux(n):
    """Standard tableaux of shape (n-1, ..., 1), by the hook-length formula."""
    return factorial(comb(n, 2)) // prod((2 * k - 1) ** (n - k) for k in range(1, n))


def proctor(n, t):
    """Proctor's product formula for the lattice points of t * P_empty(n)."""
    value = prod(
        Fraction(2 * t + i + j - 1, i + j - 1)
        for i in range(1, n + 1)
        for j in range(i + 1, n + 1)
    )
    return int(value)


# Lattice points of t * P(K_7) for t = 0..10, recorded from the Kostant DP;
# the jobs for t <= 3 check against brute-force flow enumeration instead.
# t = 11, 12 (0.5 s, 1 s) are left out: with them, ten jobs are far slower
# than the rest and job_tail_s (p93, ten jobs beyond) jumps across that gap.
K7_EHRHART = (1, 32, 450, 3976, 25725, 132608, 574056, 2162400, 7269438, 22222400, 62665876)
BRUTE_FORCE_T_MAX = 3

# e(P) of skew_star(5, lam), recorded from count_linear_extensions: the
# simplex count of every triangulation of its order or flow polytope
SKEW5_EXTENSIONS = {(2, 1): 272, (3,): 112}


# ---------------------------------------------------------------------------
# geometry-check


def _geometry(lib, vertices, simplices, volume):
    basis = lib.lattice_basis(vertices)
    unimodular = sum(lib.simplex_normalized_volume(s, basis) == 1 for s in simplices)
    report = lib.triangulation_checks(vertices, simplices, volume)
    output = (len(simplices), unimodular, report.volume_total, report.passed)
    return output == (volume, volume, volume, True), output


def dkk_geometry(lib, g, framing, volume):
    vertices = [lib.route_flow_vector(g, r) for r in lib.enumerate_routes(g)]
    return _geometry(lib, vertices, lib.dkk_triangulation(g, framing), volume)


def canonical_geometry(lib, p, extensions):
    simplices = [s.vertices for s in lib.canonical_triangulation(p)]
    return _geometry(lib, lib.order_polytope_vertices(p), simplices, extensions)


def geometry_check(lib, rng):
    jobs = []
    # K7 (140 simplices, d = 15) takes 13 s a job, too long to repeat within
    # a run on a shared machine, so the high-dimension shape is K5 and K6
    for n, framings in ((5, 3), (6, 6)):
        g = lib.complete_graph(n)
        for _ in range(framings):
            s = rng.randrange(2**32)
            fr = lib.random_framing(g, s)
            jobs.append(
                Job(f"dkk-geometry-K{n}-f{s}", partial(dkk_geometry, lib, g, fr, catalan_product(n)))
            )
    for lam, extensions in SKEW5_EXTENSIONS.items():
        p, _ = lib.skew_star(5, lam)
        jobs.append(
            Job(f"canonical-geometry-skew5-{lam}", partial(canonical_geometry, lib, p, extensions))
        )
    return jobs


# ---------------------------------------------------------------------------
# enumerate-biject


def _expect(output, expected):
    return output == expected, output


def route_counts(lib, graphs, expected):
    return _expect(tuple(len(lib.enumerate_routes(g)) for g in graphs), expected)


def dkk_count(lib, g, framing, expected):
    return _expect(len(lib.dkk_maximal_cliques(g, framing)), expected)


def ps_count(lib, g, framing, expected):
    leaves = lib.ps_triangulation(g, framing)
    distinct = (len({leaf.routes for leaf in leaves}), len({leaf.flow for leaf in leaves}))
    return _expect(distinct, (expected, expected))


def framing_change(lib, g, f1, f2, expected):
    mapping = lib.framing_change_bijection(g, f1, f2)
    size = g.edge_count - g.n + 2
    sizes_ok = all(len(c) == size for c in mapping.values())
    return _expect((len(mapping), len(set(mapping.values())), sizes_ok), (expected, expected, True))


def flow_roundtrip(lib, g, framing, flow):
    # Injective because every flow comes back; clique_to_flow raises unless
    # the clique is a reduction leaf; #flows = #leaves, so this is a bijection.
    clique = lib.flow_to_clique(g, framing, flow)
    return _expect(lib.clique_to_flow(g, framing, clique), flow)


def transported_vs_dkk(lib, pg, expected):
    transported = lib.transported_canonical_triangulation(pg)
    dkk = lib.dkk_triangulation(pg.graph, pg.framing)
    equal = lib.compare_triangulations(transported, dkk).equal
    return _expect((len(transported), len(dkk), equal), (expected, expected, True))


def enumerate_biject(lib, rng):
    k8 = lib.complete_graph(8)
    vol8 = catalan_product(8)
    jobs = []
    for _ in range(2):
        s = rng.randrange(2**32)
        fr = lib.random_framing(k8, s)
        jobs.append(Job(f"dkk-K8-f{s}", partial(dkk_count, lib, k8, fr, vol8)))
        jobs.append(Job(f"ps-K8-f{s}", partial(ps_count, lib, k8, fr, vol8)))
    s = rng.randrange(2**32)
    change = (lib.id_order_framing(k8), lib.random_framing(k8, s))
    jobs.append(Job(f"framing-change-K8-f{s}", partial(framing_change, lib, k8, *change, vol8)))

    # The round trips use one fixed framing: job_p50_s and job_tail_s both
    # fall among these 140 jobs, and a seeded framing moved them by up to 35 %.
    k7 = lib.complete_graph(7)
    fr7 = lib.id_order_framing(k7)
    flows = lib.enumerate_integer_flows(k7, lib.indegree_shift_netflow(k7))
    vectors = [tuple(fl.get(e, 0) for e in range(k7.edge_count)) for fl in flows]
    _distinct(vectors, catalan_product(7), "integer flows of K7")
    for i, vec in enumerate(vectors):
        jobs.append(Job(f"flow-roundtrip-K7-{i}", partial(flow_roundtrip, lib, k7, fr7, vec)))

    # skew_star(5, (2,1)) rather than the staircase keeps this job at 0.4 s,
    # so a run repeats it often enough for its median time to be steady
    skew5 = lib.poset_to_flow_graph(*lib.skew_star(5, (2, 1)))
    jobs.append(
        Job("transported-canonical-skew5-(2, 1)",
            partial(transported_vs_dkk, lib, skew5, SKEW5_EXTENSIONS[2, 1]))
    )
    pg6 = lib.poset_to_flow_graph(*lib.staircase_star(6))
    g6 = pg6.graph
    jobs.append(Job("dkk-staircase6", partial(dkk_count, lib, g6, pg6.framing, staircase_tableaux(6))))
    # routes of G_P are the order ideals of P: Catalan(6) for the staircase
    jobs.append(Job("routes-K8-staircase6", partial(route_counts, lib, (k8, g6), (2**6, catalan(6)))))
    return jobs


# ---------------------------------------------------------------------------
# count-ehrhart


def triple_oracle(lib, n, lam, p, g):
    output = tuple(
        (lib.asm_dilation_count(n, lam, t), lib.order_polynomial(p, t + 1), lib.flow_ehrhart_value(g, t))
        for t in range(4)
    )
    ok = all(a == b == c for a, b, c in output)
    if lam == ():
        ok = ok and all(a == proctor(n, t) for t, (a, _, _) in enumerate(output))
    return ok, output


def asm_vs_proctor(lib, n, t):
    return _expect(lib.asm_dilation_count(n, (), t), proctor(n, t))


def kn_volume(lib, g):
    return _expect(lib.flow_polytope_volume(g), catalan_product(g.n))


def k7_ehrhart(lib, g, t):
    value = lib.flow_ehrhart_value(g, t)
    if t <= BRUTE_FORCE_T_MAX:
        return _expect(value, len(lib.enumerate_integer_flows(g, lib.ehrhart_netflow(g, t))))
    return _expect(value, K7_EHRHART[t])


def asm_family(lib, n, shapes):
    reports = [lib.family_report(n, lam) for lam in shapes]
    volumes = {r.lam: r.volume_by_extensions for r in reports}
    ok = all(r.all_consistent for r in reports) and volumes[()] == staircase_tableaux(n)
    return ok, tuple(sorted(volumes.items()))


def staircase_extensions(lib, p, n):
    return _expect(lib.count_linear_extensions(p), staircase_tableaux(n))


def staircase_order_polynomial(lib, p, n):
    output = tuple(lib.order_polynomial(p, t + 1) for t in range(4))
    return _expect(output, tuple(proctor(n, t) for t in range(4)))


def count_ehrhart(lib, rng):
    jobs = []
    shapes6 = _distinct(lib.all_staircase_partitions(6), catalan(6), "order-6 staircase shapes")
    for lam in shapes6:
        p, emb = lib.skew_star(6, lam)
        g = lib.poset_to_flow_graph(p, emb).graph
        jobs.append(Job(f"triple-oracle-6-{lam}", partial(triple_oracle, lib, 6, lam, p, g)))
    for t in range(4):
        jobs.append(Job(f"asm-proctor-7-t{t}", partial(asm_vs_proctor, lib, 7, t)))
    for n in (9, 10, 11):
        jobs.append(Job(f"volume-K{n}", partial(kn_volume, lib, lib.complete_graph(n))))
    k7 = lib.complete_graph(7)
    for t in range(len(K7_EHRHART)):
        jobs.append(Job(f"ehrhart-K7-t{t}", partial(k7_ehrhart, lib, k7, t)))
    shapes5 = _distinct(lib.all_staircase_partitions(5), catalan(5), "order-5 staircase shapes")
    jobs.append(Job("asm-family-5", partial(asm_family, lib, 5, shapes5)))
    p7, _ = lib.staircase_star(7)
    jobs.append(Job("extensions-staircase7", partial(staircase_extensions, lib, p7, 7)))
    jobs.append(Job("order-polynomial-staircase7", partial(staircase_order_polynomial, lib, p7, 7)))
    return jobs


WORKLOADS = {
    "geometry-check": geometry_check,
    "enumerate-biject": enumerate_biject,
    "count-ehrhart": count_ehrhart,
}


def make_jobs(workload, seed, lib):
    """Inputs and jobs of one workload; the seed picks framings and job order."""
    rng = random.Random(seed)
    jobs = WORKLOADS[workload](lib, rng)
    rng.shuffle(jobs)
    return jobs
