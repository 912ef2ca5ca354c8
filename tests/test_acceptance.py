"""Acceptance gate: ten end-to-end criteria, one printed line per criterion.

Every equality below is exact (integers and Fractions throughout); volume
always means normalized volume.
"""

import time
from math import comb, factorial

from flowpoly.asm import (
    asm_dilation_count,
    catalan,
    dyck_path_count,
    euler_zigzag,
    p_lambda_vertices,
    proctor_ehrhart,
)
from flowpoly.checks import (
    verify_bij_flow,
    verify_bij_linext,
    verify_dkk_eq_ps,
    verify_maps_roundtrip,
    verify_thm2,
)
from flowpoly.fixtures import graph_fixtures, planar_fixtures, poset_fixtures
from flowpoly.geometry import (
    affine_dimension,
    lattice_basis,
    simplex_normalized_volume,
    triangulation_checks,
)
from flowpoly.graphs import complete_graph, enumerate_routes, id_order_framing
from flowpoly.kostant import flow_ehrhart_value, flow_polytope_volume
from flowpoly.posets import (
    all_staircase_partitions,
    count_linear_extensions,
    order_polynomial,
    order_polytope_vertices,
    skew_star,
    staircase_star,
    staircase_syt_count,
)
from flowpoly.triangulations import (
    canonical_triangulation,
    dkk_maximal_cliques,
    dkk_triangulation,
    ps_triangulation,
)


def _report(capsys, num, label, bad):
    ok = not bad
    with capsys.disabled():
        print(f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'} {label}")
    assert ok, f"criterion {num} ({label}): " + "; ".join(bad)


def test_criterion_01_catalan_product_volumes(capsys):
    bad = []
    start = time.monotonic()
    expected = {4: 1, 5: 2, 6: 10, 7: 140}
    for n, vol in expected.items():
        g = complete_graph(n)
        fr = id_order_framing(g)
        product = 1
        for i in range(1, n - 2):
            product *= catalan(i)
        if product != vol:
            bad.append(f"K_{n}: product formula gives {product}")
        if flow_polytope_volume(g) != vol:
            bad.append(f"K_{n}: kostant volume != {vol}")
        if len(ps_triangulation(g, fr)) != vol:
            bad.append(f"K_{n}: reduction leaf count != {vol}")
        if len(dkk_maximal_cliques(g, fr)) != vol:
            bad.append(f"K_{n}: clique count != {vol}")
    k7 = complete_graph(7)
    if len(enumerate_routes(k7)) != 32:
        bad.append("K_7 route count != 32")
    if k7.dimension() != 15:
        bad.append("K_7 dimension != 15")
    elapsed = time.monotonic() - start
    if elapsed >= 60:
        bad.append(f"runtime {elapsed:.1f}s exceeds 60s")
    _report(capsys, 1, "Catalan-product volumes of K_4..K_7 by three methods", bad)


def test_criterion_02_asmcry_vertices_volumes_dimensions(capsys):
    bad = []
    expected = {3: (5, 2, 3), 4: (14, 16, 6), 5: (42, 768, 10)}
    for n, (nverts, vol, dim) in expected.items():
        verts = p_lambda_vertices(n)
        if len(verts) != nverts:
            bad.append(f"n={n}: {len(verts)} vertices, expected {nverts}")
        if staircase_syt_count(n) != vol:
            bad.append(f"n={n}: tableau count != {vol}")
        if count_linear_extensions(staircase_star(n)[0]) != vol:
            bad.append(f"n={n}: extension count != {vol}")
        flat = [tuple(x for row in m for x in row) for m in verts]
        if affine_dimension(flat) != dim or dim != comb(n, 2):
            bad.append(f"n={n}: affine dimension != {dim}")
    _report(capsys, 2, "ASM family vertex counts, volumes and dimensions", bad)


def test_criterion_03_ehrhart_triple_oracle(capsys):
    bad = []
    from flowpoly.planar import poset_to_flow_graph

    for n in (3, 4):
        for lam in all_staircase_partitions(n):
            poset, emb = skew_star(n, lam)
            g = poset_to_flow_graph(poset, emb).graph
            for t in range(4):
                a = asm_dilation_count(n, lam, t)
                b = order_polynomial(poset, t + 1)
                c = flow_ehrhart_value(g, t)
                if not a == b == c:
                    bad.append(f"n={n} lam={lam} t={t}: {a}/{b}/{c}")
                if lam == () and a != proctor_ehrhart(n, t):
                    bad.append(f"n={n} t={t}: product formula disagrees")
    _report(capsys, 3, "dilation = order polynomial = flow Ehrhart (+ product)", bad)


def test_flow_ehrhart_values_are_the_order_polynomial():
    # the flow side of criterion 03 in full: d + 1 values fix the degree-d
    # Ehrhart polynomial, d = C(n, 2) - |lam|
    from flowpoly.planar import poset_to_flow_graph

    for n in range(1, 6):
        for lam in all_staircase_partitions(n):
            poset, emb = skew_star(n, lam)
            g = poset_to_flow_graph(poset, emb).graph
            for t in range(comb(n, 2) - sum(lam) + 1):
                assert flow_ehrhart_value(g, t) == order_polynomial(poset, t + 1)


def test_staircase_flow_ehrhart_values_are_proctors_polynomial():
    from flowpoly.planar import poset_to_flow_graph

    g = poset_to_flow_graph(*staircase_star(6)).graph
    for t in range(comb(6, 2) + 1):
        assert flow_ehrhart_value(g, t) == proctor_ehrhart(6, t)


def test_criterion_04_transported_triangulations_agree(capsys):
    bad = [f"{name}: {detail}" for name, ok, detail in verify_thm2() if not ok]
    _report(capsys, 4, "canonical triangulation transports onto clique triangulation", bad)


def test_criterion_05_reduction_equals_cliques(capsys):
    bad = [f"{name}: {detail}" for name, ok, detail in verify_dkk_eq_ps() if not ok]
    _report(capsys, 5, "reduction leaves = coherent cliques (all/seeded framings)", bad)


def test_criterion_06_bijections(capsys):
    bad = [f"{name}: {detail}" for name, ok, detail in verify_bij_linext() if not ok]
    bad += [f"{name}: {detail}" for name, ok, detail in verify_bij_flow() if not ok]
    _report(capsys, 6, "extension/flow/framing-change bijections", bad)


def test_criterion_07_family_corollaries(capsys):
    bad = []
    for n in (3, 4, 5):
        lam = tuple(range(n - 2, 0, -1))  # staircase of size n-1
        if len(p_lambda_vertices(n, lam)) != 2 ** (n - 1):
            bad.append(f"n={n} near-full shape: vertex count != 2^{n - 1}")
        if count_linear_extensions(skew_star(n, lam)[0]) != factorial(n - 1):
            bad.append(f"n={n} near-full shape: volume != ({n - 1})!")
    for n, nverts, k in ((4, 13, 5), (5, 34, 7)):
        lam = tuple(range(n - 3, 0, -1))  # staircase of size n-2
        if len(p_lambda_vertices(n, lam)) != nverts:
            bad.append(f"n={n}: vertex count != {nverts}")
        vol = count_linear_extensions(skew_star(n, lam)[0])
        if vol != euler_zigzag(k):
            bad.append(f"n={n}: volume {vol} != alternating count E_{k}")
    for n in range(2, 7):
        for k in range(0, 4):
            if n - k - 1 < 0:
                continue
            lam = tuple(range(n - k - 1, 0, -1))
            if dyck_path_count(n, max_height=k + 1) != len(p_lambda_vertices(n, lam)):
                bad.append(f"n={n} k={k}: bounded Dyck count mismatch")
    _report(capsys, 7, "special-shape corollaries (powers, Euler, bounded Dyck)", bad)


def test_criterion_08_face_dimensions(capsys):
    bad = []
    for n in (2, 3, 4):
        for lam in all_staircase_partitions(n):
            verts = p_lambda_vertices(n, lam)
            flat = [tuple(x for row in m for x in row) for m in verts]
            if affine_dimension(flat) != comb(n, 2) - sum(lam):
                bad.append(f"n={n} lam={lam}: wrong dimension")
    flat5 = [
        tuple(x for row in m for x in row) for m in p_lambda_vertices(5, (2, 1, 1))
    ]
    if affine_dimension(flat5) != 6:
        bad.append("n=5 lam=(2,1,1): dimension != 6")
    _report(capsys, 8, "face dimension = binom(n,2) - |lambda|", bad)


def test_criterion_09_triangulation_geometry(capsys):
    bad = []
    from flowpoly.graphs import route_flow_vector

    for name, g in graph_fixtures().items():
        if name == "path4":
            continue  # a single point has no top-dimensional simplices
        fr = id_order_framing(g)
        verts = [route_flow_vector(g, r) for r in enumerate_routes(g)]
        vol = flow_polytope_volume(g)
        basis = lattice_basis(verts)
        simplices = dkk_triangulation(g, fr)
        if any(simplex_normalized_volume(s, basis) != 1 for s in simplices):
            bad.append(f"{name}: non-unimodular clique simplex")
        report = triangulation_checks(verts, simplices, vol)
        if not report.passed:
            bad.append(f"{name}: {report.failures[:1]}")
        if name in ("k5", "wedge"):
            ps_simps = [
                tuple(route_flow_vector(g, r) for r in leaf.routes)
                for leaf in ps_triangulation(g, fr)
            ]
            if not triangulation_checks(verts, ps_simps, vol).passed:
                bad.append(f"{name}: reduction triangulation failed checks")
    for name in ("chain3", "antichain3", "zigzag4", "skew3-0", "skew4-0"):
        p, _ = poset_fixtures()[name]
        verts = order_polytope_vertices(p)
        basis = lattice_basis(verts)
        simplices = [s.vertices for s in canonical_triangulation(p)]
        if any(simplex_normalized_volume(s, basis) != 1 for s in simplices):
            bad.append(f"{name}: non-unimodular canonical simplex")
        if not triangulation_checks(verts, simplices, count_linear_extensions(p)).passed:
            bad.append(f"{name}: canonical triangulation failed checks")
    _report(capsys, 9, "unimodular simplices, exact volumes, sample coverage", bad)


def test_criterion_10_lattice_map_fidelity(capsys):
    bad = [
        f"{name}: {detail}"
        for name, ok, detail in verify_maps_roundtrip()
        if not ok
    ]
    assert len(planar_fixtures()) >= 20  # the whole drawn corpus is exercised
    _report(capsys, 10, "order/flow maps biject lattice points of dilates", bad)
