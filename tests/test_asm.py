from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from flowpoly import asm
from flowpoly.asm import (
    asm_dilation_count,
    catalan,
    corner_sum_map,
    dyck_path_count,
    enumerate_asm,
    euler_zigzag,
    family_report,
    is_asm,
    p_lambda_vertices,
    proctor_ehrhart,
    validate_in_p_lambda,
    zero_pattern,
)
from flowpoly.errors import InputError, InternalCheckError
from flowpoly.posets import (
    all_staircase_partitions,
    order_polynomial,
    order_polytope_vertices,
    skew_star,
)

ASM_COUNTS = {1: 1, 2: 2, 3: 7, 4: 42}


def test_is_asm():
    assert is_asm(((0, 1, 0), (1, -1, 1), (0, 1, 0)))
    assert is_asm(((1, 0), (0, 1)))
    assert not is_asm(((1, 0), (1, 0)))  # column sums
    assert not is_asm(((0, 1), (1, -1)))  # trailing row sum 0
    assert not is_asm(((2, -1), (-1, 2)))


@pytest.mark.parametrize("n,expected", sorted(ASM_COUNTS.items()))
def test_asm_counts(n, expected):
    assert len(enumerate_asm(n)) == expected


@pytest.mark.parametrize("zeros", [{(5, 5)}, {("a", 1)}, 7], ids=["outside", "not-integers", "not-cells"])
def test_enumerate_asm_refuses_bad_zeros(zeros):
    with pytest.raises(InputError, match=r"^zeros must be cells \(i, j\) with 1 <= i, j <= 2$"):
        enumerate_asm(2, zeros)


def test_zero_pattern():
    assert zero_pattern(2) == set()
    assert zero_pattern(3) == {(3, 1)}
    assert zero_pattern(3, (1,)) == {(3, 1), (1, 3)}
    assert zero_pattern(4, (2, 1)) >= {(1, 3), (1, 4), (2, 4)}
    with pytest.raises(InputError):
        zero_pattern(3, (1, 2))


def test_p_lambda_vertex_counts():
    assert [len(p_lambda_vertices(n)) for n in (1, 2, 3, 4)] == [1, 2, 5, 14]
    # catalan numbers for the empty shape
    for n in (2, 3, 4, 5):
        assert len(p_lambda_vertices(n)) == catalan(n)
    # the full staircase shape forces the identity-like permutation matrix
    assert len(p_lambda_vertices(3, (2, 1))) == 1


def test_vertex_self_check_reads_the_forced_zeros(monkeypatch):
    # an ASM with a 1 on the band cell (3,1), which P_()(3) forces to zero
    m = ((0, 1, 0), (0, 0, 1), (1, 0, 0))
    monkeypatch.setattr(asm, "enumerate_asm", lambda n, zeros: [m])
    with pytest.raises(InternalCheckError, match=r"entry \(3,1\) must be zero"):
        p_lambda_vertices(3)


def test_validate_in_p_lambda():
    half = Fraction(1, 2)
    m = ((half, half, 0), (half, 0, half), (0, half, half))
    validate_in_p_lambda(3, (), m)
    with pytest.raises(InputError):
        # (1,3) must be zero for lambda = (1,)
        validate_in_p_lambda(3, (1,), ((0, 0, 1), (1, 0, 0), (0, 1, 0)))
    with pytest.raises(InputError):
        validate_in_p_lambda(3, (), ((1, 0, 0), (1, 0, 0), (0, 1, 0)))
    with pytest.raises(InputError):
        validate_in_p_lambda(2, (), ((1, 0),))
    with pytest.raises(InputError, match="^nan is not a finite number$"):
        validate_in_p_lambda(2, (), ((float("nan"), 0), (0, 1)))
    with pytest.raises(InputError, match="^'1' is not a finite number$"):
        validate_in_p_lambda(2, (), (("1", 0), (0, 1)))


def test_corner_sum_example():
    m = ((0, 1, 0), (1, -1, 1), (0, 1, 0))
    g = corner_sum_map(3, (), m)
    assert g == {(1, 2): 0, (1, 3): 1, (2, 3): 0}


def test_corner_sum_bijects_vertices_onto_order_polytope():
    for n in (2, 3, 4):
        for lam in all_staircase_partitions(n):
            poset, _ = skew_star(n, lam)
            verts = p_lambda_vertices(n, lam)
            images = set()
            for m in verts:
                g = corner_sum_map(n, lam, m)
                images.add(tuple(g[e] for e in poset.elements))
            assert images == set(order_polytope_vertices(poset))
            assert len(images) == len(verts)


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 4))
def test_dilation_count_matches_order_polynomial(t):
    for n in (3, 4):
        poset, _ = skew_star(n)
        assert asm_dilation_count(n, (), t) == order_polynomial(poset, t + 1)


def test_dilation_count_with_shapes():
    for n in (3, 4):
        for lam in all_staircase_partitions(n):
            poset, _ = skew_star(n, lam)
            for t in range(3):
                assert asm_dilation_count(n, lam, t) == order_polynomial(poset, t + 1)


def _dilated_matrices(n, lam, t):
    """Integer n x n matrices in t * P_lambda(n), listed cell by cell with no
    memo: zeros below the first subdiagonal and on lambda's cells justified
    to the upper right, every row and column partial sum in [0, t], every
    row and column sum t."""
    lam = tuple(lam) + (0,) * n
    cells = [(i, j) for i in range(n) for j in range(n)]
    rows, cols = [0] * n, [0] * n
    entries = []
    out = []

    def place(k):
        if k == len(cells):
            if all(c == t for c in cols):
                out.append(tuple(entries))
            return
        i, j = cells[k]
        forced = i - j >= 2 or j >= n - lam[i]
        for a in (0,) if forced else range(-t, t + 1):
            rows[i] += a
            cols[j] += a
            if 0 <= rows[i] <= t and 0 <= cols[j] <= t and (j < n - 1 or rows[i] == t):
                entries.append(a)
                place(k + 1)
                entries.pop()
            rows[i] -= a
            cols[j] -= a

    place(0)
    return out


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_dilation_count_matches_plain_enumeration(n):
    # at n <= 3, t = 4, 5 reach cells that are last in their row and column
    for lam in all_staircase_partitions(n):
        for t in range(6 if n <= 3 else 4):
            assert asm_dilation_count(n, lam, t) == len(_dilated_matrices(n, lam, t))


@pytest.mark.parametrize("n", [5, 6])
def test_dilation_count_at_zero_matches_plain_enumeration(n):
    # t = 0 is the smallest radix of the packed state
    for lam in all_staircase_partitions(n):
        assert asm_dilation_count(n, lam, 0) == len(_dilated_matrices(n, lam, 0)) == 1


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_dilation_count_is_proctors_polynomial(n):
    # d + 1 values fix a polynomial of degree d = C(n, 2)
    for t in range(comb(n, 2) + 1):
        assert asm_dilation_count(n, (), t) == proctor_ehrhart(n, t)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_dilation_count_is_the_order_polynomial(n):
    for lam in all_staircase_partitions(n):
        poset, _ = skew_star(n, lam)
        for t in range(comb(n, 2) - sum(lam) + 1):
            assert asm_dilation_count(n, lam, t) == order_polynomial(poset, t + 1)


def test_dilation_count_uses_no_poset_flow_graph_or_corner_sums(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the ASM DP called another model")

    models = ("order_polynomial", "skew_star", "poset_to_flow_graph", "flow_ehrhart_value", "corner_sum_map")
    for name in models:
        monkeypatch.setattr(asm, name, refuse)
    for t in range(7):
        assert asm_dilation_count(4, (), t) == proctor_ehrhart(4, t)


@pytest.mark.parametrize("zeros", [{(1, 1), (1, 2)}, {(1, 1), (2, 1)}], ids=["row", "column"])
def test_a_line_with_no_free_cell_counts_zero_above_t_zero(monkeypatch, zeros):
    monkeypatch.setattr(asm, "zero_pattern", lambda n, lam: zeros)
    assert [asm_dilation_count(2, (), t) for t in range(4)] == [1, 0, 0, 0]


def test_dilation_count_at_one_counts_vertices():
    for n in range(1, 6):
        for lam in all_staircase_partitions(n):
            assert asm_dilation_count(n, lam, 1) == len(p_lambda_vertices(n, lam))


@pytest.mark.parametrize("n", [0, -1])
def test_dilation_count_rejects_bad_sizes(n):
    with pytest.raises(InputError, match="^matrix size must be positive$"):
        asm_dilation_count(n, (), 1)
    with pytest.raises(InputError, match="^matrix size must be positive$"):
        enumerate_asm(n)
    with pytest.raises(InputError, match="^matrix size must be positive$"):
        proctor_ehrhart(n, 2)
    with pytest.raises(InputError, match="^matrix size must be positive$"):
        zero_pattern(n)


def test_empty_matrix_is_refused_through_the_zero_pattern():
    for n in (0, -1, -2):
        with pytest.raises(InputError, match="^matrix size must be positive$"):
            validate_in_p_lambda(n, (), [])
        with pytest.raises(InputError, match="^matrix size must be positive$"):
            corner_sum_map(n, (), [])


@pytest.mark.parametrize("count", [asm_dilation_count, proctor_ehrhart], ids=["asm", "proctor"])
def test_negative_dilation_is_refused(count):
    args = (3, (), -1) if count is asm_dilation_count else (3, -1)
    with pytest.raises(InputError, match="^dilation factor must be nonnegative$"):
        count(*args)


def test_dilation_count_rejects_non_integral_input():
    with pytest.raises(InputError, match="integers"):
        asm_dilation_count(3, (), 1.5)
    with pytest.raises(InputError, match="integers"):
        asm_dilation_count(2.5, (), 1)
    with pytest.raises(InputError, match="integers"):
        asm_dilation_count(3, (1.5,), 1)
    assert asm_dilation_count(3.0, (), 2.0) == asm_dilation_count(3, (), 2)
    # and so does its product-formula partner
    with pytest.raises(InputError, match="integers"):
        proctor_ehrhart(3, 1.5)
    with pytest.raises(InputError, match="integers"):
        proctor_ehrhart(2.5, 1)
    assert proctor_ehrhart(3.0, 2.0) == proctor_ehrhart(3, 2)


def test_proctor_product():
    assert [proctor_ehrhart(3, t) for t in range(4)] == [1, 5, 14, 30]
    for n in (2, 3, 4):
        for t in range(4):
            assert proctor_ehrhart(n, t) == asm_dilation_count(n, (), t)
    assert proctor_ehrhart(n=4, t=1) == 14


def test_dyck_path_counts():
    assert [dyck_path_count(n) for n in range(1, 6)] == [1, 2, 5, 14, 42]
    assert dyck_path_count(4, max_height=1) == 1
    assert dyck_path_count(4, max_height=2) == 8
    # bounded counts equal vertex counts of the staircase-shape family
    for n in range(2, 6):
        for k in range(0, n):
            bounded = dyck_path_count(n, max_height=k + 1)
            lam = tuple(range(n - k - 1, 0, -1))
            assert bounded == len(p_lambda_vertices(n, lam))
    # height <= 2 doubles: 2^{n-1}
    assert [dyck_path_count(n, max_height=2) for n in (1, 2, 3, 4)] == [1, 2, 4, 8]


def test_small_sequences():
    assert [euler_zigzag(k) for k in range(6)] == [1, 1, 1, 2, 5, 16]
    assert [catalan(n) for n in range(6)] == [1, 1, 2, 5, 14, 42]


def test_family_report_consistency():
    rep = family_report(3)
    assert rep.all_consistent
    assert rep.vertex_count == 5
    assert rep.dimension == rep.expected_dimension == 3
    assert rep.volume_by_extensions == 2
    assert rep.ehrhart_values == (1, 5, 14, 30)
    data = rep.to_json()
    assert data["lambda"] == [] and data["all_consistent"]


def test_family_report_with_shape():
    rep = family_report(4, (2, 1))
    assert rep.all_consistent
    assert rep.expected_dimension == 3
    assert rep.volume_by_extensions == rep.volume_by_kostant == rep.volume_by_dkk_count
