from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, seed, settings, strategies as st

from flowpoly.errors import ContractError, InputError
from flowpoly.graphs import DirectedMultigraph, complete_graph, parallel_edges, path_graph
from flowpoly.kostant import (
    compositions_colex,
    ehrhart_netflow,
    enumerate_integer_flows,
    flow_ehrhart_polynomial,
    flow_ehrhart_value,
    flow_polytope_volume,
    indegree_shift_netflow,
    kostant_value,
    lagrange_coefficients,
    polynomial_value,
    volume_from_ehrhart,
)

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
    ]
    for g, nf in cases:
        assert kostant_value(g, nf) == len(enumerate_integer_flows(g, nf))


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


def test_lagrange_interpolation_exact():
    coeffs = lagrange_coefficients([1, 4, 9, 16])
    assert coeffs == [Fraction(1), Fraction(2), Fraction(1), Fraction(0)]
    assert polynomial_value(coeffs, 7) == 64


@pytest.mark.parametrize("n", [4, 5, 6])
def test_volume_from_ehrhart_leading_coefficient(n):
    assert volume_from_ehrhart(complete_graph(n)) == CATALAN_PRODUCTS[n]


def test_ehrhart_polynomial_constant_term_one():
    for g in (complete_graph(4), complete_graph(5), parallel_edges(2)):
        coeffs = flow_ehrhart_polynomial(g)
        assert coeffs[0] == 1
