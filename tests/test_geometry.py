import functools
import itertools
import math
import random
from fractions import Fraction
from operator import mul
from unittest import mock

import pytest
from hypothesis import given, seed, settings, strategies as st

from flowpoly.errors import InputError, InternalCheckError, _exact
from flowpoly.geometry import (
    SAMPLE_COUNT,
    SAMPLE_SEED,
    _below,
    _compile,
    _locator,
    _volume_and_inverse,
    affine_dimension,
    coordinates_in_basis,
    determinant,
    hermite_row_basis,
    lattice_basis,
    matrix_rank,
    simplex_normalized_volume,
    triangulation_checks,
)
from flowpoly.graphs import (
    complete_graph,
    enumerate_routes,
    id_order_framing,
    random_framing,
    route_flow_vector,
)
from flowpoly.kostant import flow_polytope_volume
from flowpoly.posets import antichain, count_linear_extensions, order_polytope_vertices, skew_star
from flowpoly.triangulations import canonical_triangulation, dkk_triangulation

KERNEL_SETTINGS = settings(max_examples=60, deadline=2000)


def test_matrix_rank_basic():
    assert matrix_rank([]) == 0
    assert matrix_rank([[0, 0]]) == 0
    assert matrix_rank([[1, 2], [2, 4]]) == 1
    assert matrix_rank([[1, 2], [3, 4]]) == 2
    # exactness: this matrix fools floating point eliminations at scale
    rows = [[Fraction(1, (i + j + 1)) for j in range(6)] for i in range(6)]
    assert matrix_rank(rows) == 6


def test_determinant():
    assert determinant([[1, 2], [3, 4]]) == -2
    assert determinant([[2]]) == 2
    assert determinant([[1, 1], [1, 1]]) == 0


def test_hermite_basis_spans_lattice():
    basis = hermite_row_basis([[2, 0], [0, 2], [1, 1]])
    # index-2 sublattice of Z^2
    assert len(basis) == 2
    det = determinant([list(r) for r in basis])
    assert abs(det) == 2


@pytest.mark.parametrize(
    "rows, basis",
    [
        ([[1, 1], [0, 1]], [(1, 1), (0, 1)]),
        ([[2, 0], [0, 2], [1, 1]], [(1, 1), (0, 2)]),
        ([[0, 3, 1], [0, 1, 2], [4, 0, 6]], [(4, 0, 6), (0, 1, 2), (0, 0, 5)]),
        ([[-2, 4, 6, 0], [3, -1, 0, 5], [1, 1, 1, 1]], [(1, 1, 1, 1), (0, 2, 5, 4), (0, 0, 7, 10)]),
    ],
)
def test_hermite_row_basis_is_not_reduced_above_pivots(rows, basis):
    # (1, 1) over (0, 1) is echelon but not the Hermite normal form
    assert hermite_row_basis(rows) == basis


@seed(0xA5C)
@KERNEL_SETTINGS
@given(st.lists(st.lists(st.integers(-4, 4), min_size=3, max_size=3), max_size=4))
def test_hermite_row_basis_is_an_echelon_basis(rows):
    basis = hermite_row_basis(rows)
    assert len(basis) == matrix_rank(rows)
    pivots = [next(j for j, x in enumerate(row) if x) for row in basis]
    assert pivots == sorted(set(pivots))  # each pivot right of the one above
    assert all(row[j] > 0 for row, j in zip(basis, pivots))
    for row in rows:  # every row is an integer combination of the basis
        assert all(type(c) is int for c in coordinates_in_basis(basis, row))


def test_affine_dimension():
    assert affine_dimension([(1, 2, 3)]) == 0
    assert affine_dimension([(0, 0), (1, 0), (0, 1), (1, 1)]) == 2
    assert affine_dimension([(0, 0, 0), (1, 1, 0), (2, 2, 0)]) == 1


def test_affine_dimension_of_flow_polytopes():
    for n in (4, 5, 6):
        g = complete_graph(n)
        verts = [route_flow_vector(g, r) for r in enumerate_routes(g)]
        assert affine_dimension(verts) == g.dimension()


def test_affine_dimension_of_order_polytopes():
    for p, _ in (antichain(3), skew_star(3), skew_star(4, (2,))):
        assert affine_dimension(order_polytope_vertices(p)) == len(p.elements)


def test_unit_simplex_volume():
    d = 4
    simplex = [tuple(0 for _ in range(d))] + [
        tuple(int(i == j) for j in range(d)) for i in range(d)
    ]
    basis = lattice_basis(simplex)
    assert simplex_normalized_volume(simplex, basis) == 1
    # degenerate: repeated vertex, or one vertex too few or too many
    assert simplex_normalized_volume([simplex[0]] * 2 + simplex[2:], basis) == 0
    assert simplex_normalized_volume(simplex[1:], basis) == 0
    assert simplex_normalized_volume(simplex + [(1,) * d], basis) == 0


UNEQUAL = "points must all have the same number of coordinates"
RAGGED = "matrix rows must all have the same length"
BASIS = "basis must be a sequence of integer rows"
EXPECTED = "expected volume must"
UNIT = [(1, 0), (0, 1)]
SQUARE = [(0, 0), (1, 0), (0, 1), (1, 1)]
DIAGONAL_CUT = [((0, 0), (1, 0), (1, 1)), ((0, 0), (0, 1), (1, 1))]


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: affine_dimension([]), "affine dimension of an empty point set is undefined"),
        (lambda: lattice_basis([]), "need at least one point"),
        (lambda: determinant([[1, 2]]), "determinant needs a square matrix"),
        (
            lambda: lattice_basis([(0,), (Fraction(1, 2),)]),
            "lattice points must have integer coordinates",
        ),
        (
            lambda: triangulation_checks(
                [(0, 0), (Fraction(3, 2), 0), (0, 1)], [((0, 0), (Fraction(3, 2), 0), (0, 1))], 1
            ),
            "lattice points must have integer coordinates",
        ),
        (lambda: affine_dimension([(0,), (1, 5)]), UNEQUAL),
        (lambda: lattice_basis([(0, 0), (1,)]), UNEQUAL),
        (
            lambda: simplex_normalized_volume([(0, 0, 0), (1, 0, 0), (0, 1, 5)], [(1, 0), (0, 1)]),
            UNEQUAL,
        ),
        (
            lambda: triangulation_checks(
                [(0, 0), (1, 0), (0, 1), (1, 1, 7)],
                [((0, 0), (1, 0), (0, 1)), ((1, 0), (0, 1), (1, 1, 7))],
                2,
            ),
            UNEQUAL,
        ),
        (lambda: affine_dimension([(0,), ("1",)]), "'1' is not a finite number"),
        (lambda: determinant([[float("nan")]]), "nan is not a finite number"),
        (lambda: matrix_rank([[1, None]]), "None is not a finite number"),
        (
            lambda: triangulation_checks([(0, 0), (float("inf"), 0), (0, 1)], [], 1),
            "inf is not a finite number",
        ),
        (
            lambda: triangulation_checks(
                [(0, 0), (1.5, 0), (0, 1)], [((0, 0), (1.5, 0), (0, 1))], 1
            ),
            "lattice points must have integer coordinates",
        ),
        (lambda: lattice_basis([(0, 0), (float("nan"), 0)]), "nan is not a finite number"),
        (lambda: lattice_basis([(0, 0), (float("inf"), 0)]), "inf is not a finite number"),
        (lambda: lattice_basis([(0, 0), ("1", 0)]), "'1' is not a finite number"),
        (
            lambda: simplex_normalized_volume([(0, 0), (float("nan"), 0), (0, 1)], UNIT),
            "nan is not a finite number",
        ),
        (
            lambda: simplex_normalized_volume([(0, 0), (float("inf"), 0), (0, 1)], UNIT),
            "inf is not a finite number",
        ),
        (
            lambda: simplex_normalized_volume([(0, 0), ("1", 0), (0, 1)], UNIT),
            "'1' is not a finite number",
        ),
        # the nan is off the basis's pivot column, so it leaves a residual
        (
            lambda: simplex_normalized_volume([(0, 0), (1, float("nan"))], [(1, 0)]),
            "nan is not a finite number",
        ),
        (
            lambda: simplex_normalized_volume([(0, 0), (1, 1)], [(1, 0)]),
            "vector lies outside the lattice span",
        ),
        # a basis of Z^2, but not in echelon form
        (
            lambda: simplex_normalized_volume([(0, 0), (1, 0), (0, 1)], [(2, 1), (1, 1)]),
            "basis must be in row echelon form",
        ),
        (
            lambda: simplex_normalized_volume([(0, 0), (1, 0), (0, 1)], [(1, 0), (0, 0)]),
            "basis must be in row echelon form",
        ),
        (
            lambda: coordinates_in_basis([(2, 1), (1, 1)], [1, 0]),
            "basis must be in row echelon form",
        ),
        (
            lambda: coordinates_in_basis([(1, 0), (0, 0)], [1, 0]),
            "basis must be in row echelon form",
        ),
        (lambda: matrix_rank([[1], [1, 5]]), RAGGED),
        (lambda: matrix_rank([[1, 2], [3]]), RAGGED),
        (lambda: hermite_row_basis([[0, 1], [1, 0, 5]]), RAGGED),
        (lambda: hermite_row_basis([[1, 2], [0]]), RAGGED),
        (lambda: simplex_normalized_volume([(0,), (1,)], [(float("nan"),)]), BASIS),
        (lambda: simplex_normalized_volume([(0,), (1,)], [("1",)]), BASIS),
        (lambda: simplex_normalized_volume([(0,), (2,)], [(1.5,)]), BASIS),
        (lambda: simplex_normalized_volume([(0, 0), (1, 0), (0, 1)], [1, 2]), BASIS),
        (lambda: coordinates_in_basis([(2.5,)], [1]), BASIS),
        (lambda: triangulation_checks(SQUARE, DIAGONAL_CUT, "2"), f"{EXPECTED} be an integer"),
        (lambda: triangulation_checks(SQUARE, DIAGONAL_CUT, 2.5), f"{EXPECTED} be an integer"),
        (lambda: triangulation_checks(SQUARE, DIAGONAL_CUT, -2), f"{EXPECTED} be nonnegative"),
        (lambda: triangulation_checks(SQUARE, [None], 1), "simplex 0 must be a sequence of points"),
        (lambda: simplex_normalized_volume(None, UNIT), "simplex must be a sequence of points"),
        (lambda: simplex_normalized_volume([0, 1], [(1,)]), "simplex must be a sequence of points"),
        (lambda: affine_dimension([1, 2]), "points must be sequences of coordinates"),
        (lambda: lattice_basis([1, 2]), "points must be sequences of coordinates"),
    ],
    ids=[
        "affine-dimension",
        "lattice-basis",
        "determinant",
        "half-integer",
        "half-integer-checks",
        "unequal-affine-dimension",
        "unequal-lattice-basis",
        "unequal-simplex",
        "unequal-checks",
        "string-affine-dimension",
        "nan-determinant",
        "none-matrix-rank",
        "infinite-checks",
        "half-integer-float-checks",
        "nan-lattice-basis",
        "infinite-lattice-basis",
        "string-lattice-basis",
        "nan-simplex",
        "infinite-simplex",
        "string-simplex",
        "nan-off-pivot-simplex",
        "outside-span-simplex",
        "non-echelon-basis",
        "zero-row-basis",
        "non-echelon-coordinates-basis",
        "zero-row-coordinates-basis",
        "ragged-rank-longer",
        "ragged-rank-shorter",
        "ragged-hermite-longer",
        "ragged-hermite-zero-row",
        "nan-basis",
        "string-basis",
        "half-integer-basis",
        "int-rows-basis",
        "half-integer-coordinates-basis",
        "string-expected-volume",
        "half-integer-expected-volume",
        "negative-expected-volume",
        "none-simplex-checks",
        "none-simplex",
        "int-points-simplex",
        "int-points-affine-dimension",
        "int-points-lattice-basis",
    ],
)
def test_refusals(call, message):
    with pytest.raises(InputError, match=f"^{message}$"):
        call()


def test_lattice_basis_takes_integral_values_only():
    assert lattice_basis([(0,), (Fraction(2),)]) == lattice_basis([(0,), (2.0,)]) == [(2,)]
    with pytest.raises(InputError, match="^lattice points must have integer coordinates$"):
        hermite_row_basis([[2.5, 0]])


def test_integral_floats_give_exact_results():
    floats = [[1.0, 2.0], [3.0, 4.0]]
    assert determinant(floats) == Fraction(-2) and matrix_rank(floats) == 2
    assert affine_dimension([(0.0, 0.0), (2.0, 2.0), (1.0, 1.0)]) == 1
    simplex = [(0.0, 0.0), (1.0, 0.0), (0.0, 2.0)]
    volume = simplex_normalized_volume(simplex, UNIT)
    assert volume == 2 and type(volume) is int
    # a float off the integers is made exact, as its Fraction twin is
    for half in (0.5, Fraction(1, 2)):
        assert simplex_normalized_volume([(0, 0), (half, 0), (0, 2)], UNIT) == 1


def test_integral_basis_entries_are_read_as_ints():
    volume = simplex_normalized_volume([(0,), (1,)], [(1.0,)])
    assert volume == 1 and type(volume) is int
    assert coordinates_in_basis([(2.0,)], [1]) == (Fraction(1, 2),)
    assert coordinates_in_basis([(Fraction(2),)], [4]) == (2,)


def test_expected_volume_is_read_as_an_int():
    report = triangulation_checks(SQUARE, DIAGONAL_CUT, 2.0)
    assert report.passed and report.to_json()["expected_volume"] == 2
    assert type(report.expected_volume) is int


def test_basis_memo_reads_the_basis_as_it_is_at_each_call():
    """The per-basis memo is keyed on the rows' values, so a basis list
    changed between calls is read anew, and a basis it refused is refused
    again."""
    simplex = [(0, 0, 0), (1, 0, 0), (0, 2, 0)]
    basis = [[1, 0, 0], [0, 1, 0]]
    assert simplex_normalized_volume(simplex, basis) == 2
    basis[1][1] = 2
    assert simplex_normalized_volume(simplex, basis) == 1
    assert coordinates_in_basis(basis, [3, 4, 0]) == (3, 2)
    basis[1] = [0, 1, 1]  # (0, 2, 0) leaves the span
    with pytest.raises(InputError, match="^vector lies outside the lattice span$"):
        simplex_normalized_volume(simplex, basis)
    assert simplex_normalized_volume([(0, 0, 0), (1, 0, 0), (0, 1, 1)], basis) == 1
    basis.reverse()
    for _ in range(2):
        with pytest.raises(InputError, match="^basis must be in row echelon form$"):
            simplex_normalized_volume([(0, 0, 0), (1, 0, 0), (0, 1, 1)], basis)
        with pytest.raises(InputError, match="^basis must be in row echelon form$"):
            coordinates_in_basis(basis, [1, 0, 0])
    basis.reverse()
    assert simplex_normalized_volume([(0, 0, 0), (1, 0, 0), (0, 1, 1)], basis) == 1


def test_coordinates_in_basis_detects_outside_vectors():
    basis = hermite_row_basis([[1, 0, 0], [0, 1, 0]])
    assert coordinates_in_basis(basis, [3, 4, 0]) == (3, 4)
    with pytest.raises(InputError):
        coordinates_in_basis(basis, [0, 0, 1])


def test_triangulation_checks_unit_square():
    report = triangulation_checks(SQUARE, DIAGONAL_CUT, 2)
    assert report.passed and report.volume_total == 2
    assert report.sample_count == 200


def test_triangulation_checks_single_point():
    # one 0-simplex of volume 1: its edge matrix is the empty 0x0 matrix
    report = triangulation_checks([(1, 2)], [((1, 2),)], 1)
    assert report.passed and report.dimension == 0 and report.volume_total == 1
    assert report.sample_count == 200


FLOAT_SQUARE = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0)]


@pytest.mark.parametrize(
    "simplices, volume",
    [(DIAGONAL_CUT, 2), (DIAGONAL_CUT + [DIAGONAL_CUT[0]], 3), (DIAGONAL_CUT[:1], 2)],
    ids=["pass", "overlap", "missing"],
)
@pytest.mark.parametrize("float_simplices", [False, True], ids=["int-simplices", "float-simplices"])
def test_float_square_report_holds_ints_only(simplices, volume, float_simplices):
    expected = triangulation_checks(SQUARE, simplices, volume)
    if float_simplices:
        simplices = [[tuple(map(float, p)) for p in s] for s in simplices]
    report = triangulation_checks(FLOAT_SQUARE, simplices, volume)
    assert report.to_json() == expected.to_json() and report.witness == expected.witness
    numbers = [report.simplex_count, report.dimension, report.volume_total, report.sample_count]
    if report.witness:
        witness = report.witness
        numbers += [witness.simplex, *witness.point[0], witness.point[1], *witness.containing]
    assert all(type(x) is int for x in numbers)


DOUBLED_TRIANGLE = [(0, 0), (1, 0), (2, 0), (0, 1), (1, 1), (0, 2)]
# a rectangle cut into unimodular, volume 2 and unimodular triangles; the
# last shares an edge with the middle one only
RECTANGLE = [(0, 0), (1, 0), (2, 0), (0, 1), (2, 1)]
RECTANGLE_CUT = [((0, 0), (1, 0), (0, 1)), ((1, 0), (0, 1), (2, 1)), ((1, 0), (2, 1), (2, 0))]


@pytest.mark.parametrize(
    "vertices, simplices, volume, failures",
    [
        (SQUARE, DIAGONAL_CUT[:1], 2, ["volume total 1 != expected 2"]),
        (
            SQUARE,
            DIAGONAL_CUT + [((0, 0), (1, 0), (0, 1))],
            3,
            ["sample from simplex 0 lies in simplices [0, 2]"],
        ),
        (
            SQUARE,
            [((0, 0), (2, 0), (1, 1))],
            2,
            ["simplex 0: 1 vertices are not polytope vertices"],
        ),
        (
            SQUARE,
            [DIAGONAL_CUT[0], ((0, 0), (0, 0), (1, 1))],
            2,
            ["simplex 1: normalized volume 0, expected 1", "volume total 1 != expected 2"],
        ),
        (
            SQUARE,
            [DIAGONAL_CUT[0], ((0, 0), (1, 1))],
            2,
            ["simplex 1: normalized volume 0, expected 1", "volume total 1 != expected 2"],
        ),
        (
            DOUBLED_TRIANGLE,
            [((0, 0), (2, 0), (0, 2))],
            4,
            ["simplex 0: normalized volume 4, expected 1"],
        ),
        (
            DOUBLED_TRIANGLE,
            [((0, 0), (1, 0), (2, 0))],
            1,
            ["simplex 0: normalized volume 0, expected 1", "volume total 0 != expected 1"],
        ),
        (RECTANGLE, RECTANGLE_CUT, 4, ["simplex 1: normalized volume 2, expected 1"]),
        (
            SQUARE,
            DIAGONAL_CUT + [DIAGONAL_CUT[0][::-1]],
            3,
            ["sample from simplex 0 lies in simplices [0, 2]"],
        ),
    ],
    ids=[
        "missing",
        "overlap",
        "foreign-vertex",
        "repeated-vertex",
        "two-vertices",
        "volume-4",
        "flat",
        "behind-volume-2",
        "repeated-vertex-set",
    ],
)
def test_triangulation_checks_catch_broken_squares(vertices, simplices, volume, failures):
    report = triangulation_checks(vertices, simplices, volume)
    assert not report.passed
    assert report.failures == failures
    assert (report.witness is None) == (report.sample_count == 0)


def test_sample_witness_on_overlap():
    simplices = DIAGONAL_CUT + [((0, 0), (1, 0), (0, 1))]
    report = triangulation_checks(SQUARE, simplices, 3)
    witness = report.witness
    assert witness.simplex == 0 and witness.containing == (0, 2)
    # the square's lattice coordinates are its own coordinates
    num, den = witness.point
    point = [Fraction(x, den) for x in num]
    inside = [j for j, s in enumerate(simplices) if min(fraction_barycentric(s, [point])[0]) >= 0]
    assert inside == [0, 2]
    assert "witness" not in report.to_json()
    assert triangulation_checks(SQUARE, DIAGONAL_CUT, 2).witness is None


# ---------------------------------------------------------------------------
# compiled barycentric rows against a dense Fraction oracle


def fraction_barycentric(simplex, points):
    """Weights lam_0..lam_d of each point in simplex, by Fraction Gauss–Jordan
    on the edge matrix with one right-hand side per point."""
    origin, d = simplex[0], len(simplex) - 1
    m = [
        [Fraction(p[i] - origin[i]) for p in simplex[1:]]
        + [Fraction(x[i]) - origin[i] for x in points]
        for i in range(d)
    ]
    for col in range(d):
        piv = next(r for r in range(col, d) if m[r][col])
        m[col], m[piv] = m[piv], m[col]
        m[col] = [x / m[col][col] for x in m[col]]
        for r in range(d):
            if r != col and m[r][col]:
                m[r] = [a - m[r][col] * b for a, b in zip(m[r], m[col])]
    weights = []
    for k in range(len(points)):
        lam = [row[d + k] for row in m]
        weights.append([1 - sum(lam)] + lam)
    return weights


def lattice_ids(vertices, simplices):
    """Per vertex id the lattice coordinates, and each simplex as its vertices' ids."""
    basis = lattice_basis(vertices)
    base = vertices[0]
    coords = [coordinates_in_basis(basis, [x - b for x, b in zip(p, base)]) for p in vertices]
    ids = {p: v for v, p in enumerate(vertices)}
    return coords, [[ids[p] for p in s] for s in simplices]


def lattice_simplices(coords, simplices):
    """Each simplex of vertex ids by its vertices' lattice coordinates."""
    return [[coords[v] for v in s] for s in simplices]


def boundary_heavy_weights(simplices, count, rng):
    """Barycentric weights on one simplex's vertices, each zero half of the
    time, as (simplex index, weights)."""
    draws = []
    for _ in range(count):
        k = rng.randrange(len(simplices))
        weights = [rng.choice((0, 0, 1, 2, 5)) for _ in simplices[k]]
        weights[rng.randrange(len(weights))] += 1
        draws.append((k, weights))
    return draws


def point(coords, simplex, weights):
    """(num, den): the point with these weights on the simplex's vertex ids."""
    columns = zip(*(coords[v] for v in simplex))
    return [sum(map(mul, weights, col)) for col in columns], sum(weights)


@functools.cache
def k6_dkk():
    g = complete_graph(6)
    return [route_flow_vector(g, r) for r in enumerate_routes(g)], dkk_triangulation(
        g, id_order_framing(g)
    )


@functools.cache
def skew5_canonical():
    p, _ = skew_star(5, (2, 1))
    return order_polytope_vertices(p), [s.vertices for s in canonical_triangulation(p)]


def weight(row, num, den):
    """den times the weight of the dense row (c, a_1, ..., a_d) at num / den."""
    return sum(map(mul, row, (den, *num)))


def contains(rows, num, den):
    """Whether num / den lies in the closed simplex: no weight is negative.

    The per-simplex test that `_locator` replaced, kept as its oracle.
    """
    return all(weight(row, num, den) >= 0 for row in rows)


def locator(coords, compiled):
    """`_locator` of ``compiled``, listing the simplices in the mask it gives."""
    locate = _locator(compiled, coords)

    def containing(simplex, weights):
        inside = locate(simplex, weights)
        return [k for k in range(len(compiled)) if inside >> k & 1]

    return containing


@pytest.mark.parametrize("case", [k6_dkk, skew5_canonical], ids=["K6-dkk", "skew5-21-canonical"])
def test_compiled_rows_match_fraction_oracle(case):
    vertices, simplices = case()
    coords, ids = lattice_ids(vertices, simplices)
    simplices = lattice_simplices(coords, ids)
    rng = random.Random(0xA5C)
    draws = boundary_heavy_weights(ids, 12, rng)
    points = [point(coords, ids[k], weights) for k, weights in draws]
    vols, compiled = _compile(coords, ids, len(simplices[0]) - 1)
    assert vols == [1] * len(simplices)
    inside = [[] for _ in points]
    for k, (s, rows) in enumerate(zip(simplices, compiled)):
        assert len(rows) == len(s)
        oracle = fraction_barycentric(s, [[Fraction(x, den) for x in num] for num, den in points])
        for i, ((num, den), lam) in enumerate(zip(points, oracle)):
            if min(lam) >= 0:
                inside[i].append(k)
            # each compiled row is den times the matching oracle weight
            assert [weight(row, num, den) for row in rows] == [x * den for x in lam]
    locate = locator(coords, compiled)
    assert [locate(ids[k], weights) for k, weights in draws] == inside
    # boundary points lie in several closed simplices, so ">=" is exercised
    assert sum(map(len, inside)) > len(points)


@seed(0xA5C)
@KERNEL_SETTINGS
@given(
    st.sampled_from(["K5", "K6", "skew4"]),
    st.integers(0, 3),
    st.randoms(use_true_random=False),
)
def test_row_index_matches_per_simplex_test(name, variant, rng):
    vertices, simplices, _ = oracle_case(name, variant)
    coords, ids = lattice_ids(vertices, simplices)
    _, compiled = _compile(coords, ids, len(lattice_basis(vertices)))
    locate = locator(coords, compiled)
    for k, weights in boundary_heavy_weights(ids, 8, rng):
        num, den = point(coords, ids[k], weights)
        expected = [j for j, rows in enumerate(compiled) if contains(rows, num, den)]
        assert locate(ids[k], weights) == expected


def unit_segments():
    """The segment [0, 2000] cut into unit segments: rows reach 2000 at a vertex."""
    return [(x,) for x in range(2001)], [[x, x + 1] for x in range(2000)]


def grid_square(k=30):
    """The k x k square cut into unit squares, each cut into two triangles."""
    coords = [(i, j) for i in range(k + 1) for j in range(k + 1)]
    v = {p: n for n, p in enumerate(coords)}
    simplices = []
    for i, j in itertools.product(range(k), repeat=2):
        simplices.append([v[i, j], v[i + 1, j], v[i, j + 1]])
        simplices.append([v[i + 1, j + 1], v[i, j + 1], v[i + 1, j]])
    return coords, simplices


@pytest.mark.parametrize("case", [unit_segments, grid_square], ids=["segment", "grid"])
def test_locator_keeps_large_row_values_apart(case):
    """With every weight at its maximum 10**6, the digits of the rows at
    the far end of the polytope come nearest their width, and a simplex's
    centroid still lies in it alone."""
    coords, simplices = case()
    vols, compiled = _compile(coords, simplices, len(coords[0]))
    assert vols == [1] * len(simplices)
    locate = locator(coords, compiled)
    # every 25th simplex, down from the last
    for k in range(len(simplices) - 1, -1, -25):
        assert locate(simplices[k], [10**6] * len(simplices[k])) == [k]


def test_draw_matches_randint_expression():
    """`_below` draws the stream of ``randrange(n)`` and ``randint(1, 10**6)``
    on this interpreter, as `triangulation_checks` draws a sample's simplex
    index and weights; at the powers of two 1, 2, 4 and 8 the rejection
    loop runs for the index as well."""
    for n in (1, 2, 3, 4, 8, 272):
        old, new = random.Random(SAMPLE_SEED), random.Random(SAMPLE_SEED)
        for _ in range(SAMPLE_COUNT):
            expected = old.randrange(n), [old.randint(1, 10**6) for _ in range(8)]
            index = _below(new.getrandbits, n)
            assert (index, [1 + _below(new.getrandbits, 10**6) for _ in range(8)]) == expected


# ---------------------------------------------------------------------------
# the dual-graph walk against one elimination per simplex


def homogeneous(s):
    """The matrix H of a simplex: one column (1, x) per vertex x."""
    return [[1] * len(s), *map(list, zip(*s))]


def eliminated(coords, simplices, d):
    """`_compile` by one [H | I] elimination per simplex, with no walk."""
    vols, compiled = [], []
    for s in simplices:
        vol, inv = 0, None
        if len(set(s)) == len(s) == d + 1:
            vol, inv = _volume_and_inverse(homogeneous([coords[v] for v in s]))
        vols.append(vol)
        compiled.append(None if inv is None else list(map(tuple, inv)))
    return vols, compiled


@functools.cache
def oracle_case(name, variant):
    """K5 or K6 DKK under id-order (variant 0) or `random_framing(g, variant)`,
    or skew4 canonical for lam = (), (1,), (2, 1) by variant mod 3."""
    if name == "skew4":
        p, _ = skew_star(4, ((), (1,), (2, 1))[variant % 3])
        simplices = [s.vertices for s in canonical_triangulation(p)]
        return order_polytope_vertices(p), simplices, count_linear_extensions(p)
    g = complete_graph(int(name[1:]))
    fr = random_framing(g, variant) if variant else id_order_framing(g)
    vertices = [route_flow_vector(g, r) for r in enumerate_routes(g)]
    return vertices, dkk_triangulation(g, fr), flow_polytope_volume(g)


@st.composite
def corrupted_triangulations(draw):
    """A K5, K6 or skew4 triangulation after one to three drawn corruptions."""
    name = draw(st.sampled_from(["K5", "K6", "skew4"]))
    vertices, simplices, volume = oracle_case(name, draw(st.integers(0, 3)))
    simplices = [list(s) for s in simplices]
    kinds = ["drop", "duplicate", "swap", "shuffle", "volume"]
    for kind in draw(st.lists(st.sampled_from(kinds), min_size=1, max_size=3)):
        k = draw(st.integers(0, len(simplices) - 1))
        if kind == "drop" and len(simplices) > 1:
            del simplices[k]
        elif kind == "duplicate":
            copy = draw(st.permutations(simplices[k]))
            simplices.insert(draw(st.integers(0, len(simplices))), copy)
        elif kind == "swap":
            other = simplices[draw(st.integers(0, len(simplices) - 1))]
            new = [p for p in other if p not in simplices[k]]
            if new:
                s = list(simplices[k])
                s[draw(st.integers(0, len(s) - 1))] = draw(st.sampled_from(new))
                simplices[k] = s
        elif kind == "shuffle":
            simplices = [draw(st.permutations(s)) for s in simplices]
        elif kind == "volume":
            volume += draw(st.sampled_from([-1, 1]))
    return vertices, simplices, volume


@seed(0xA5C)
@KERNEL_SETTINGS
@given(corrupted_triangulations())
def test_walk_matches_elimination_oracle(case):
    vertices, simplices, volume = case
    report = triangulation_checks(vertices, simplices, volume)
    with mock.patch("flowpoly.geometry._compile", eliminated):
        oracle = triangulation_checks(vertices, simplices, volume)
    assert report.to_json() == oracle.to_json()
    assert report.witness == oracle.witness
    coords, ids = lattice_ids(vertices, simplices)
    d = len(lattice_basis(vertices))
    assert _compile(coords, ids, d) == eliminated(coords, ids, d)


@seed(0xA5C)
@KERNEL_SETTINGS
@given(corrupted_triangulations() | st.sampled_from([k6_dkk, skew5_canonical]).map(lambda f: f()))
def test_walk_rows_invert_the_homogeneous_matrix(case):
    """Row i of a unimodular simplex's compiled rows is 1 at its vertex i and
    0 at its other vertices: together the rows are H^-1."""
    vertices, simplices = case[:2]
    coords, ids = lattice_ids(vertices, simplices)
    lattice = lattice_simplices(coords, ids)
    vols, compiled = _compile(coords, ids, len(lattice_basis(vertices)))
    unimodular = [k for k, vol in enumerate(vols) if vol == 1]
    assert unimodular == [k for k, rows in enumerate(compiled) if rows is not None]
    for k in unimodular:
        for i, w in enumerate(lattice[k]):
            unit = [int(j == i) for j in range(len(lattice[k]))]
            assert [weight(row, w, 1) for row in compiled[k]] == unit


@pytest.mark.parametrize(
    "case, eliminations",
    [
        (lambda: (*k6_dkk(), 10), 1),
        (lambda: (RECTANGLE, RECTANGLE_CUT, 4), 2),
        (lambda: (SQUARE, DIAGONAL_CUT + [DIAGONAL_CUT[0][::-1]], 3), 1),
    ],
    ids=["K6-dkk", "behind-volume-2", "repeated-vertex-set"],
)
def test_one_elimination_per_dual_graph_component(case, eliminations):
    vertices, simplices, volume = case()
    with mock.patch("flowpoly.geometry._volume_and_inverse", wraps=_volume_and_inverse) as spy:
        triangulation_checks(vertices, simplices, volume)
    assert spy.call_count == eliminations


# ---------------------------------------------------------------------------
# broken K6 triangulations: five DKK simplices from each of two framings


# s -> (origin simplex, containing simplices, sample_count) of the first failing sample
K6_MIXES = {
    1: (1, [1, 6], 1), 2: (0, [0, 7], 2), 3: (1, [1, 8], 1), 4: (1, [1, 9], 1),
    5: (1, [1, 8], 1), 6: (0, [0, 6], 2), 7: (1, [1, 5], 1), 8: (1, [1, 5], 1),
    9: (1, [1, 8], 1), 10: (1, [1, 7], 1), 11: (1, [1, 8], 1), 12: (1, [1, 5], 1),
    13: (1, [1, 6], 1), 14: (1, [1, 7], 1), 15: (1, [1, 8], 1), 16: (0, [0, 6], 2),
    17: (1, [1, 6], 1), 18: (0, [0, 7], 2), 19: (1, [1, 8], 1), 20: (1, [1, 7], 1),
    21: (0, [0, 7], 2), 22: (1, [1, 8], 1), 23: (1, [1, 6], 1), 24: (1, [1, 5], 1),
    25: (0, [0, 6], 2), 26: (1, [1, 8], 1), 27: (1, [1, 8], 1), 28: (0, [0, 6], 2),
    29: (0, [0, 7], 2),
}


def test_broken_k6_mixes():
    g = complete_graph(6)
    vertices = [route_flow_vector(g, r) for r in enumerate_routes(g)]
    first = dkk_triangulation(g, id_order_framing(g))[:5]
    for s, (origin, containing, samples) in K6_MIXES.items():
        other = [x for x in dkk_triangulation(g, random_framing(g, s)) if x not in first][:5]
        report = triangulation_checks(vertices, first + other, 10)
        assert report.volume_total == 10
        assert report.failures == [f"sample from simplex {origin} lies in simplices {containing}"]
        assert report.sample_count == samples
        assert (report.witness.simplex, report.witness.containing) == (origin, tuple(containing))


@pytest.mark.parametrize("framing", ["id-order", 7, 1])
def test_k7_dkk_passes_triangulation_checks(framing):
    g = complete_graph(7)
    fr = id_order_framing(g) if framing == "id-order" else random_framing(g, framing)
    vertices = [route_flow_vector(g, r) for r in enumerate_routes(g)]
    simplices = dkk_triangulation(g, fr)
    report = triangulation_checks(vertices, simplices, flow_polytope_volume(g))
    assert report.passed and report.simplex_count == 140 and report.dimension == 15
    assert report.sample_count == 200 and report.witness is None
    # a repeated simplex passes the volume check with the volume raised to
    # match, and overlaps its copy
    report = triangulation_checks(vertices, simplices + [simplices[1]], 141)
    assert report.failures == ["sample from simplex 1 lies in simplices [1, 140]"]
    assert report.sample_count == 31 and report.witness.containing == (1, 140)


def test_dkk_simplices_are_unimodular():
    g = complete_graph(5)
    simps = dkk_triangulation(g, id_order_framing(g))
    verts = [route_flow_vector(g, r) for r in enumerate_routes(g)]
    basis = lattice_basis(verts)
    assert all(simplex_normalized_volume(s, basis) == 1 for s in simps)


def test_canonical_simplices_are_unimodular():
    p, _ = skew_star(3)
    verts = order_polytope_vertices(p)
    basis = lattice_basis(verts)
    for s in canonical_triangulation(p):
        assert simplex_normalized_volume(s.vertices, basis) == 1


# ---------------------------------------------------------------------------
# the elimination kernel against independent oracles


def leibniz_determinant(m):
    n = len(m)
    total = 0
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        total += (-1) ** inversions * math.prod(m[i][perm[i]] for i in range(n))
    return total


def rank_by_minors(m):
    rows, cols = len(m), len(m[0])
    for k in range(min(rows, cols), 0, -1):
        for rs in itertools.combinations(range(rows), k):
            for cs in itertools.combinations(range(cols), k):
                if leibniz_determinant([[m[i][j] for j in cs] for i in rs]):
                    return k
    return 0


entries = st.one_of(st.just(0), st.integers(-3, 3), st.fractions(-3, 3, max_denominator=4))


@st.composite
def matrices(draw, shapes):
    """An r x c matrix, or a product (r x k)(k x c) of two, so that rank <= k is common."""
    r, c = draw(shapes)
    if draw(st.booleans()):
        return [[draw(entries) for _ in range(c)] for _ in range(r)]
    k = draw(st.integers(0, 4))
    a = [[draw(entries) for _ in range(k)] for _ in range(r)]
    b = [[draw(entries) for _ in range(c)] for _ in range(k)]
    return [[sum((x * y[j] for x, y in zip(row, b)), 0) for j in range(c)] for row in a]


@st.composite
def unit_pivot_matrices(draw, shapes):
    """An r x c matrix of 0, 1 and -1, as flow and order polytopes give,
    with some columns zero, and when drawn so a first column of 0, 2, -2
    and 3 only, so that a non-unit pivot comes before unit ones."""
    r, c = draw(shapes)
    unit = st.sampled_from([0, 0, 1, -1])
    m = [[draw(unit) for _ in range(c)] for _ in range(r)]
    for j in draw(st.sets(st.integers(0, c - 1), max_size=c // 2)):
        for row in m:
            row[j] = 0
    if draw(st.booleans()):
        for row in m:
            row[0] = draw(st.sampled_from([0, 2, -2, 3]))
    return m


@st.composite
def unimodular_matrices(draw, max_n=16):
    """Products of elementary integer matrices: row additions, swaps, sign flips."""
    n = draw(st.integers(1, max_n))
    m = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(draw(st.integers(0, 3 * n))):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        op = draw(st.sampled_from(["add", "swap", "negate"]))
        if op == "add" and i != j:
            k = draw(st.integers(-2, 2))
            m[i] = [a + k * b for a, b in zip(m[i], m[j])]
        elif op == "swap":
            m[i], m[j] = m[j], m[i]
        elif op == "negate":
            m[i] = [-a for a in m[i]]
    return m


@seed(0xA5C)
@KERNEL_SETTINGS
@given(
    matrices(st.integers(0, 4).map(lambda n: (n, n)))
    | unit_pivot_matrices(st.integers(1, 6).map(lambda n: (n, n)))
)
def test_determinant_matches_leibniz(m):
    assert determinant(m) == leibniz_determinant(m)


@seed(0xA5C)
@KERNEL_SETTINGS
@given(matrices(st.tuples(st.integers(1, 4), st.integers(1, 5))))
def test_matrix_rank_matches_largest_nonzero_minor(m):
    assert matrix_rank(m) == rank_by_minors(m)


@seed(0xA5C)
@KERNEL_SETTINGS
@given(unimodular_matrices())
def test_unimodular_inverse(m):
    vol, inv = _volume_and_inverse([list(row) for row in m])
    assert vol == 1
    n = len(m)
    product = [[sum(a * b for a, b in zip(row, col)) for col in zip(*inv)] for row in m]
    assert product == [[int(i == j) for j in range(n)] for i in range(n)]


def fraction_reduced(m):
    """The rank of m and, when m is square of full rank, its inverse, by
    Gauss–Jordan elimination of [m | I] over the Fractions."""
    n = len(m)
    a = [[*map(Fraction, row), *(Fraction(i == j) for j in range(n))] for i, row in enumerate(m)]
    rank = 0
    for col in range(len(m[0])):
        p = next((i for i in range(rank, n) if a[i][col]), None)
        if p is None:
            continue
        a[rank], a[p] = a[p], a[rank]
        a[rank] = [x / a[rank][col] for x in a[rank]]
        for i in range(n):
            if i != rank and a[i][col]:
                a[i] = [x - a[i][col] * y for x, y in zip(a[i], a[rank])]
        rank += 1
    return rank, [row[-n:] for row in a] if rank == n == len(m[0]) else None


@seed(0xA5C)
@KERNEL_SETTINGS
@given(unit_pivot_matrices(st.tuples(st.integers(1, 6), st.integers(1, 6))))
def test_rank_of_unit_pivot_matrices_matches_fraction_elimination(m):
    assert matrix_rank(m) == fraction_reduced(m)[0]


@st.composite
def inverse_cases(draw, kind):
    """A square integer matrix with |det| 1 ("unit"), > 1 ("scaled": one row
    of a unimodular matrix times 2, -2 or 3) or 0 ("singular": one row made
    a combination of the others), or a square unit-pivot matrix ("any")."""
    if kind == "any":
        return draw(unit_pivot_matrices(st.integers(1, 6).map(lambda n: (n, n))))
    m = draw(unimodular_matrices(max_n=6))
    n = len(m)
    i = draw(st.integers(0, n - 1))
    if kind == "scaled":
        k = draw(st.sampled_from([2, -2, 3]))
        m[i] = [k * x for x in m[i]]
    elif kind == "singular":
        ks = [draw(st.integers(-1, 1)) if j != i else 0 for j in range(n)]
        m[i] = [sum(map(mul, ks, col)) for col in zip(*m)]
    return m


@pytest.mark.parametrize("kind", ["unit", "scaled", "singular", "any"])
@seed(0xA5C)
@KERNEL_SETTINGS
@given(data=st.data())
def test_volume_and_inverse_match_fraction_inverse(kind, data):
    m = data.draw(inverse_cases(kind))
    vol, inv = _volume_and_inverse([list(row) for row in m])
    assert vol == abs(leibniz_determinant(m))
    assert {"unit": vol == 1, "scaled": vol > 1, "singular": vol == 0}.get(kind, True)
    assert inv == (fraction_reduced(m)[1] if vol == 1 else None)


@seed(0xA5C)
@KERNEL_SETTINGS
@given(st.data())
def test_coordinates_in_basis_reconstructs_vector(data):
    cols = data.draw(st.integers(1, 5))
    # generators with a zero last column span a lattice off the last axis
    row = st.lists(st.integers(-4, 4), min_size=cols - 1, max_size=cols - 1)
    gens = data.draw(st.lists(row.map(lambda r: r + [0]), max_size=4))
    basis = hermite_row_basis(gens)
    coeffs = data.draw(st.lists(entries, min_size=len(basis), max_size=len(basis)))
    v = [sum((c * row[i] for c, row in zip(coeffs, basis)), 0) for i in range(cols)]
    coords = coordinates_in_basis(basis, v)
    assert coords == tuple(coeffs)  # the Hermite basis is linearly independent
    assert [sum((c * row[i] for c, row in zip(coords, basis)), 0) for i in range(cols)] == v
    with pytest.raises(InputError):
        coordinates_in_basis(basis, v[:-1] + [data.draw(st.integers(1, 3))])


def fraction_volume(simplex, basis):
    """The normalized volume from lattice coordinates, in Fractions: |det| of
    the edge vectors' `coordinates_in_basis`, with the same refusals."""
    simplex = [tuple(p) for p in simplex]
    if len(set(simplex)) != len(simplex) or len(simplex) != len(basis) + 1:
        return 0
    if len(simplex) > 1:
        simplex = [tuple(map(_exact, p)) for p in simplex]
    if any(len(p) != len(simplex[0]) for p in simplex):
        raise InputError(UNEQUAL)
    base = simplex[0]
    rows = [coordinates_in_basis(basis, [x - b for x, b in zip(p, base)]) for p in simplex[1:]]
    vol = abs(determinant(rows))
    if vol.denominator != 1:
        raise InternalCheckError("simplex volume is not integral in the chosen lattice")
    return int(vol)


def outcome(call, *args):
    try:
        value = call(*args)
    except (InputError, InternalCheckError) as e:
        return type(e), str(e)
    return type(value), value


@st.composite
def volume_cases(draw, shape):
    """A simplex and an echelon basis: pivots other than 1, some negative,
    vertices on and off the lattice, d = 0, as ints, Fractions or floats, or
    with one nan or string entry.  ``shape`` "outside" moves one vertex by a
    unit vector, often out of the span, and "degenerate" repeats a vertex,
    drops or adds one, or gives one an extra coordinate."""
    n = draw(st.integers(1, 4))
    row = st.lists(st.integers(-3, 3), min_size=n, max_size=n)
    gens = draw(st.lists(row, min_size=draw(st.sampled_from(range(n + 1))), max_size=n))
    scale = draw(st.integers(1, 3))
    basis = hermite_row_basis([[scale * x for x in r] for r in gens])
    if basis and draw(st.booleans()):
        k = draw(st.integers(0, len(basis) - 1))
        basis[k] = tuple(-x for x in basis[k])
    d = len(basis)
    base = draw(row)
    # integer coefficients keep the vertices on the lattice, fractions move them off
    off = draw(st.integers(0, 3)) == 0
    coeff = st.fractions(-2, 2, max_denominator=3) if off else st.integers(-2, 2)
    simplex = [base]
    for _ in range(d):
        c = draw(st.lists(coeff, min_size=d, max_size=d))
        simplex.append([b + sum(map(mul, c, col), 0) for b, col in zip(base, zip(*basis))])
    if shape == "outside":
        simplex[draw(st.integers(0, d))][draw(st.integers(0, n - 1))] += 1
    elif shape == "degenerate":
        fault = draw(st.sampled_from(["repeat", "short", "long", "unequal"]))
        if fault == "repeat" and d:
            simplex[-1] = list(simplex[0])
        elif fault == "short":
            simplex.pop()
        elif fault == "long":
            simplex.append([x + 1 for x in base])
        elif fault == "unequal":
            simplex[-1] = simplex[-1] + [0]
    kind = draw(st.sampled_from([int, "nan", Fraction, int, float, "string", int]))
    if kind in (Fraction, float):
        simplex = [[kind(x) for x in p] for p in simplex]
    elif kind != int and simplex:
        simplex[-1][-1] = float("nan") if kind == "nan" else "1"
    return simplex, basis


@pytest.mark.parametrize("shape", ["plain", "outside", "degenerate"])
@seed(0xA5C)
@KERNEL_SETTINGS
@given(data=st.data())
def test_volume_matches_lattice_coordinates(shape, data):
    simplex, basis = data.draw(volume_cases(shape))
    assert outcome(simplex_normalized_volume, simplex, basis) == outcome(
        fraction_volume, simplex, basis
    )
