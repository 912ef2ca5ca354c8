import importlib.util
from fractions import Fraction
from itertools import product
from math import comb, factorial, prod
from pathlib import Path

import pytest
from hypothesis import given, seed, settings, strategies as st

from flowpoly import kostant
from flowpoly.asm import proctor_ehrhart
from flowpoly.errors import ContractError, InputError
from flowpoly.fixtures import planar_fixtures
from flowpoly.graphs import DirectedMultigraph, complete_graph, parallel_edges, path_graph
from flowpoly.kostant import (
    _lidskii_coefficients,
    compositions_colex,
    ehrhart_netflow,
    enumerate_integer_flows,
    flow_ehrhart_polynomial,
    flow_ehrhart_value,
    flow_polytope_volume,
    indegree_shift_netflow,
    kostant_value,
)
from flowpoly.planar import poset_to_flow_graph
from flowpoly.posets import all_staircase_partitions, skew_star, staircase_star

CATALAN_PRODUCTS = {4: 1, 5: 2, 6: 10, 7: 140}


def test_compositions_colex_order_and_count():
    comps = compositions_colex(3, 2)
    assert comps == [(3, 0), (2, 1), (1, 2), (0, 3)]
    assert len(compositions_colex(4, 3)) == 15


def _colex(total, parts):
    """Colex order by definition: the last part ascending, and for each
    last part the compositions of the rest in colex order."""
    if parts == 0:
        return [()] if total == 0 else []
    return [rest + (last,) for last in range(total + 1) for rest in _colex(total - last, parts - 1)]


def test_compositions_colex_follow_the_recursive_definition():
    for total in range(9):
        for parts in range(7):
            assert compositions_colex(total, parts) == _colex(total, parts)


@pytest.mark.parametrize("n,expected", sorted(CATALAN_PRODUCTS.items()))
def test_complete_graph_volumes(n, expected):
    assert flow_polytope_volume(complete_graph(n)) == expected


def test_volume_requires_pruned_graph():
    with pytest.raises(ContractError):
        flow_polytope_volume(DirectedMultigraph(3, ((1, 2), (1, 3))))
    with pytest.raises(ContractError, match="^degenerate graph, empty flow polytope$"):
        flow_polytope_volume(DirectedMultigraph(2, ()))
    with pytest.raises(ContractError, match="^degenerate graph, empty flow polytope$"):
        flow_ehrhart_value(DirectedMultigraph(2, ()), 1)


def test_negative_dilation_is_refused():
    with pytest.raises(InputError, match="^dilation factor must be nonnegative$"):
        flow_ehrhart_value(complete_graph(4), -1)


def test_netflow_must_balance():
    g = complete_graph(4)
    with pytest.raises(InputError):
        kostant_value(g, (1, 0, 0, 0))
    with pytest.raises(InputError):
        kostant_value(g, (1, 0, -1))


def test_non_integral_netflow_is_rejected():
    g = complete_graph(4)
    with pytest.raises(InputError, match="integers"):
        kostant_value(g, (0.5, 0, 0, -0.5))
    with pytest.raises(InputError, match="integers"):
        kostant_value(g, (Fraction(3, 2), Fraction(-1, 2), 0, -1))
    with pytest.raises(InputError, match="integers"):
        flow_ehrhart_value(g, 1.5)
    assert kostant_value(g, (2.0, 0, 0, -2.0)) == kostant_value(g, (2, 0, 0, -2))
    # a netflow without a length; a sized one keeps the length message first
    for netflow in (5, None, iter((2, 0, 0, -2))):
        for count in (kostant_value, enumerate_integer_flows):
            with pytest.raises(InputError, match="^netflow entries must be integers$"):
                count(g, netflow)
    with pytest.raises(InputError, match="^netflow vector length must equal the vertex count$"):
        kostant_value(g, ("a", None))


def test_unordered_netflow_is_rejected():
    # a mapping would be read as its keys, a set in its iteration order; both
    # are refused before their length or entries are read
    g = complete_graph(4)
    for netflow in (
        {1: "a", 2: "b", 0: "c", -3: "d"},
        {0: 1, 1: 0, 2: 0, 3: -1},
        {1, 2, 0, -3},
        frozenset((2, 0, -2)),
        {0: 2, 3: -2}.keys(),
    ):
        for count in (kostant_value, enumerate_integer_flows):
            with pytest.raises(InputError, match="^netflow must be a sequence, not a mapping or a set$"):
                count(g, netflow)


def test_dp_agrees_with_bruteforce_enumeration():
    cases = [
        (complete_graph(4), (2, 0, 0, -2)),
        (complete_graph(5), indegree_shift_netflow(complete_graph(5))),
        (complete_graph(5), ehrhart_netflow(complete_graph(5), 2)),
        (parallel_edges(3), (3, -3)),
        (DirectedMultigraph(4, ((1, 2), (1, 2), (2, 3), (2, 4), (3, 4))), (2, 1, 0, -3)),
        # vertex 2 has no out-edges, so it can take no inflow
        (DirectedMultigraph(3, ((1, 2), (1, 3))), (2, 0, -2)),
        (DirectedMultigraph(3, ((1, 2), (1, 3))), (1, 1, -2)),
        # the packed state's boundaries: an all-zero netflow, a negative
        # first entry, an inflow reaching S (the sum of the positive
        # entries) exactly, and parallel edges into vertex n
        (complete_graph(5), (0, 0, 0, 0, 0)),
        (complete_graph(4), (-1, 2, 0, -1)),
        (DirectedMultigraph(4, ((1, 2), (1, 2), (2, 3), (2, 3), (3, 4), (3, 4))), (2, 1, 0, -3)),
        (DirectedMultigraph(3, ((1, 2), (1, 3), (1, 3), (2, 3), (2, 3))), (2, 1, -3)),
        # the line walk's boundaries: lines of step -1, walked by descending
        # key, from two or three non-last parallel edges into n with supply
        # 3 or more; an owed inflow equal to S (vertex 2 of K4 putting its
        # whole supply on 2 -> 3 owes 3 to vertex 3); negative inner entries
        (parallel_edges(4), (5, -5)),
        (DirectedMultigraph(3, ((1, 2), (1, 3), (1, 3), (1, 3), (2, 3))), (4, 0, -4)),
        (DirectedMultigraph(3, ((1, 2), (2, 3), (2, 3), (2, 3))), (1, 3, -4)),
        (complete_graph(4), (2, 1, 0, -3)),
        (complete_graph(5), (3, -1, 2, -2, -2)),
        (DirectedMultigraph(4, ((1, 2), (1, 3), (1, 4), (1, 4), (2, 3), (3, 4))), (4, -1, -2, -1)),
        # the base sums the positive entries of vertices 1..n - 1: a positive
        # entry at n, which it leaves out, and the largest positive entry at
        # an inner vertex, with a digit past it
        (complete_graph(4), (1, -2, 0, 1)),
        (complete_graph(4), (-1, 0, 0, 1)),
        (complete_graph(5), (2, 0, 3, -3, -2)),
        (DirectedMultigraph(4, ((1, 2), (2, 3), (2, 4), (3, 4), (3, 4))), (1, 0, 2, -3)),
    ]
    for g, nf in cases:
        assert kostant_value(g, nf) == len(enumerate_integer_flows(g, nf))


def test_transfer_sums_weighted_netflow_choices():
    # vertex v < n enters with each (netflow, weight) pair of choices[v - 1]
    # and vertex n with the balance, its own choice unread, so the DP is the
    # weighted sum of flow counts
    cases = [
        (complete_graph(4), [[(2, 1), (1, 3)], [(0, 2), (1, 1), (-1, 5)], [(0, 1), (2, 7)]]),
        (parallel_edges(3), [[(0, 1), (2, 4), (3, 5)]]),
        # vertex 3 has no out-edges: netflow -2 at vertex 2 makes its supply
        # negative unless 1 sends it 2, and netflow 1 at vertex 3 leaves a
        # positive supply there; the DP drops both states
        (
            DirectedMultigraph(4, ((1, 2), (1, 3), (1, 4), (2, 4))),
            [[(2, 1), (1, 2)], [(-2, 3), (0, 1)], [(1, 5), (0, 2)]],
        ),
    ]
    for g, inner in cases:
        expected = 0
        for pairs in product(*inner):
            nets = tuple(net for net, _ in pairs)
            expected += prod(w for _, w in pairs) * len(enumerate_integer_flows(g, nets + (-sum(nets),)))
        assert expected > 0
        assert kostant._transfer(g, inner + [[(0, 1)]]) == expected


def test_public_counts_check_the_netflow_they_are_given_only(monkeypatch):
    # flow_polytope_volume and flow_ehrhart_value build their netflow, so only
    # kostant_value, whose netflow comes from the caller, checks it
    calls = []

    def spy(g, netflow):
        calls.append(netflow)
        return check(g, netflow)

    check = kostant._check_netflow
    monkeypatch.setattr(kostant, "_check_netflow", spy)
    g = complete_graph(5)
    assert flow_polytope_volume(g) == 2
    assert flow_ehrhart_value(g, 2) == 35
    assert calls == []
    assert kostant_value(g, (2, 0, 0, 0, -2)) == 35
    assert calls == [(2, 0, 0, 0, -2)]


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 4), st.integers(0, 3))
def test_dp_agrees_on_random_netflows(a, b):
    g = complete_graph(4)
    nf = (a, b, 0, -a - b)
    assert kostant_value(g, nf) == len(enumerate_integer_flows(g, nf))


@st.composite
def graphs_with_netflows(draw):
    """The path 1 -> ... -> n plus up to 5 forward edges, parallels allowed,
    with a balanced netflow whose inner entries may be negative."""
    n = draw(st.integers(2, 6))
    extra = []
    for _ in range(draw(st.integers(0, 5))):
        tail = draw(st.integers(1, n - 1))
        extra.append((tail, draw(st.integers(tail + 1, n))))
    g = DirectedMultigraph(n, tuple((v, v + 1) for v in range(1, n)) + tuple(extra))
    head = [draw(st.integers(0, 3))] + [draw(st.integers(-2, 2)) for _ in range(n - 2)]
    return g, tuple(head) + (-sum(head),)


@seed(0xC057)
@settings(max_examples=60, deadline=2000)
@given(graphs_with_netflows())
def test_dp_agrees_with_enumeration_on_random_graphs(graph_and_netflow):
    g, nf = graph_and_netflow
    assert kostant_value(g, nf) == len(enumerate_integer_flows(g, nf))


@seed(0xF10E)
@settings(max_examples=60, deadline=2000)
@given(graphs_with_netflows())
def test_enumerated_flows_keep_their_contract(graph_and_netflow):
    # the drawn graphs' edge ids are not in tail order, so the dicts' key
    # order (vertex by vertex, in out-edge order) is not the sort order
    g, nf = graph_and_netflow
    flows = enumerate_integer_flows(g, nf)
    order = [e for v in range(1, g.n) for e in g.out_edge_ids(v)]
    assert all(list(fl) == order for fl in flows)
    vectors = [tuple(fl[e] for e in range(g.edge_count)) for fl in flows]
    assert len(set(vectors)) == len(vectors)
    assert vectors == sorted(vectors)
    for fl in flows:
        for v in range(1, g.n + 1):
            into = sum(fl[e] for e in g.in_edge_ids(v))
            out = sum(fl[e] for e in g.out_edge_ids(v))
            assert out - into == nf[v - 1]
    if g.edge_count <= 5:
        # no edge carries more than S, the sum of the positive entries
        values = range(sum(a for a in nf if a > 0) + 1)
        brute = {
            vec
            for vec in product(values, repeat=g.edge_count)
            if all(
                sum(vec[e] for e in g.out_edge_ids(v)) - sum(vec[e] for e in g.in_edge_ids(v)) == nf[v - 1]
                for v in range(1, g.n + 1)
            )
        }
        assert set(vectors) == brute


def test_integer_flows_conserve():
    g = complete_graph(4)
    nf = (2, 1, 0, -3)
    for fl in enumerate_integer_flows(g, nf):
        for v in range(1, 5):
            into = sum(fl.get(e, 0) for e in g.in_edge_ids(v))
            out = sum(fl.get(e, 0) for e in g.out_edge_ids(v))
            assert out - into == nf[v - 1]


def test_ehrhart_values_start_at_vertex_count():
    g = complete_graph(4)
    assert flow_ehrhart_value(g, 0) == 1
    assert flow_ehrhart_value(g, 1) == 4  # all vertices are lattice points


def test_ehrhart_of_parallel_edges_is_simplex():
    # t-dilate of the (m-1)-simplex
    g = parallel_edges(3)
    for t in range(5):
        assert flow_ehrhart_value(g, t) == (t + 1) * (t + 2) // 2


def test_path_graph_is_a_point():
    g = path_graph(4)
    assert flow_polytope_volume(g) == 1
    assert all(flow_ehrhart_value(g, t) == 1 for t in range(4))


def test_lidskii_polynomial_exact():
    # the flow polytope of three parallel edges is the 2-simplex, C(t + 2, 2)
    assert _lidskii_coefficients(parallel_edges(3)) == (2, [0, 0, 1])
    coeffs = flow_ehrhart_polynomial(parallel_edges(3))
    assert coeffs == [Fraction(1), Fraction(3, 2), Fraction(1, 2)]
    assert all(type(c) is Fraction for c in coeffs)
    # K4's is a unimodular 3-simplex: C(t + 2, 2) + C(t + 2, 3) = C(t + 3, 3)
    assert _lidskii_coefficients(complete_graph(4)) == (2, [0, 0, 1, 1])
    assert flow_ehrhart_polynomial(complete_graph(4)) == [1, Fraction(11, 6), 1, Fraction(1, 6)]


@pytest.mark.parametrize("n", [4, 5, 6, 7])
def test_volume_from_ehrhart_leading_coefficient(n):
    # c_d is the normalized volume, and d! times the leading monomial coefficient
    g = complete_graph(n)
    _, coefficients = _lidskii_coefficients(g)
    assert coefficients[-1] == flow_polytope_volume(g) == CATALAN_PRODUCTS[n]
    assert flow_ehrhart_polynomial(g)[-1] * factorial(g.dimension()) == CATALAN_PRODUCTS[n]


def test_ehrhart_polynomial_constant_term_one():
    for g in (complete_graph(4), complete_graph(5), parallel_edges(2)):
        coeffs = flow_ehrhart_polynomial(g)
        assert coeffs[0] == 1


def _lidskii_agrees_with_the_dp(g, t_max=None):
    """The Lidskii polynomial equals flow_ehrhart_value at t = 0..t_max,
    by default d + 1, and its c_d equals flow_polytope_volume."""
    o_1, coefficients = _lidskii_coefficients(g)
    d = g.dimension()
    assert len(coefficients) == d + 1 and coefficients[-1] == flow_polytope_volume(g)
    for t in range(d + 2 if t_max is None else t_max + 1):
        assert sum(c * comb(t + o_1, k) for k, c in enumerate(coefficients)) == flow_ehrhart_value(g, t)


@pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
def test_lidskii_agrees_with_the_dp_on_complete_graphs(n):
    # the K8 DP grows steeply with t, to 1.5 s at t = 22 on a 2-vCPU VM and
    # over 5 s for t = 15..22, so K8 stops at t = 12
    _lidskii_agrees_with_the_dp(complete_graph(n), 12 if n == 8 else None)


def test_lidskii_agrees_with_the_dp_on_planar_fixtures():
    for pg in planar_fixtures().values():
        _lidskii_agrees_with_the_dp(pg.graph)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_lidskii_agrees_with_the_dp_on_skew_staircases(n):
    for lam in all_staircase_partitions(n):
        _lidskii_agrees_with_the_dp(poset_to_flow_graph(*skew_star(n, lam)).graph)


@seed(0x1D5C)
@settings(max_examples=60, deadline=2000)
@given(graphs_with_netflows())
def test_lidskii_agrees_with_the_dp_on_random_multigraphs(graph_and_netflow):
    # the drawn graphs hold the path 1 -> ... -> n, so they are pruned
    _lidskii_agrees_with_the_dp(graph_and_netflow[0])


def test_staircase_7_ehrhart_polynomial_is_proctors():
    coeffs = flow_ehrhart_polynomial(poset_to_flow_graph(*staircase_star(7)).graph)
    assert len(coeffs) == 22
    for t in range(23):
        assert sum(c * t**i for i, c in enumerate(coeffs)) == proctor_ehrhart(7, t)


def test_lidskii_staircase_script_runs():
    path = Path(__file__).resolve().parents[1] / "scripts" / "check_lidskii_staircase.py"
    spec = importlib.util.spec_from_file_location("check_lidskii_staircase", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    assert script.main(5) == 0


def test_ehrhart_polynomial_checks_one_more_value(monkeypatch):
    g = complete_graph(5)
    d = g.dimension()

    def off_at_d_plus_1(g, t):
        return flow_ehrhart_value(g, t) + (t == d + 1)

    monkeypatch.setattr(kostant, "flow_ehrhart_value", off_at_d_plus_1)
    with pytest.raises(ContractError, match="^Ehrhart values are not polynomial of the expected degree$"):
        flow_ehrhart_polynomial(g)
