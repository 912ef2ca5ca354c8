import copy
import functools
import itertools
import pickle
import random
import re
from math import comb

import pytest
from hypothesis import given, seed, settings, strategies as st

from flowpoly.errors import InputError
from flowpoly.posets import (
    Poset,
    all_staircase_partitions,
    antichain,
    chain,
    count_linear_extensions,
    linear_extensions,
    order_ideals,
    order_polynomial,
    order_polynomial_bruteforce,
    order_polytope_vertices,
    poset_from_json,
    poset_to_json,
    skew_star,
    staircase_cells,
    staircase_star,
    staircase_syt_count,
    zigzag,
)
from flowpoly.triangulations import canonical_triangulation


def test_poset_rejects_cycles_and_redundant_covers():
    with pytest.raises(InputError):
        Poset((1, 2), ((1, 2), (2, 1)))
    with pytest.raises(InputError):
        # (1,3) is implied by (1,2),(2,3)
        Poset((1, 2, 3), ((1, 2), (2, 3), (1, 3)))


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: Poset((1, 1), ()), "duplicate poset elements"),
        (lambda: Poset((1, 2), ((1, 3),)), "cover (1,3) uses unknown elements"),
        (lambda: Poset((1, 2), ((1, 1),)), "covers must relate distinct elements"),
        (lambda: Poset.from_relations((1, 2), ((1, 2), (2, 1))), "relation set contains a cycle"),
        (
            lambda: order_polynomial(antichain(2)[0], -1),
            "order polynomial argument must be nonnegative",
        ),
        (lambda: skew_star(4, (-1,)), "partition parts must be nonnegative"),
        (lambda: skew_star(4, (0, 1)), "partition parts must be weakly decreasing"),
        (lambda: staircase_syt_count(-1), "staircase order must be nonnegative"),
        (lambda: staircase_cells(-1), "staircase order must be nonnegative"),
        (lambda: skew_star(-2), "staircase order must be nonnegative"),
        (lambda: staircase_star(-2), "staircase order must be nonnegative"),
        (lambda: all_staircase_partitions(-1), "staircase order must be nonnegative"),
        (lambda: chain(-2), "poset size must be nonnegative"),
        (lambda: antichain(-1), "poset size must be nonnegative"),
        (lambda: zigzag(-5), "poset size must be nonnegative"),
    ],
    ids=[
        "duplicate", "unknown-cover", "self-cover", "relation-cycle", "negative-m",
        "negative-part", "zero-before-positive", "negative-syt-order", "negative-cells-order",
        "negative-skew-order", "negative-staircase-order", "negative-partitions-order",
        "negative-chain", "negative-antichain", "negative-zigzag",
    ],
)
def test_refusals(build, message):
    with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
        build()


def test_order_queries_reject_unknown_elements():
    p, _ = chain(3)
    for query in (lambda: p.less(1, 9), lambda: p.less(9, 1), lambda: p.strictly_below(9),
                  lambda: p.strictly_below([1])):
        with pytest.raises(InputError, match="is not an element of the poset$"):
            query()
    assert p.less(1, 3) and not p.less(3, 1) and p.strictly_below(3) == {1, 2}


def test_from_relations_reduces_transitively():
    p = Poset.from_relations((1, 2, 3), ((1, 2), (2, 3), (1, 3)))
    assert set(p.covers) == {(1, 2), (2, 3)}
    assert p.less(1, 3)
    with pytest.raises(InputError, match="unknown elements"):
        Poset.from_relations((1, 2), ((3, 1),))


def test_from_relations_cover_order_follows_elements():
    # the same order relation on tuple labels, given in different orders and
    # with different redundant pairs, must give one poset
    rng = random.Random(0xC0)
    for _ in range(200):
        elements = tuple((rng.randint(0, 9), rng.randint(0, 9)) for _ in range(7))
        elements = tuple(dict.fromkeys(elements))
        pairs = [
            (elements[i], elements[j])
            for i in range(len(elements))
            for j in range(i + 1, len(elements))
            if rng.random() < 0.35
        ]
        first = Poset.from_relations(elements, pairs)
        shuffled = list(pairs) + [(a, b) for b in elements for a in first.strictly_below(b)]
        rng.shuffle(shuffled)
        second = Poset.from_relations(elements, shuffled)
        assert first == second
        assert [b for _, b in first.covers] == sorted(
            (b for _, b in first.covers), key=elements.index
        )


def test_chain_and_antichain_extension_counts():
    import math

    for k in range(1, 6):
        assert count_linear_extensions(chain(k)[0]) == 1
        assert count_linear_extensions(antichain(k)[0]) == math.factorial(k)


def test_linear_extensions_listing_matches_count():
    for p, _ in (zigzag(4), skew_star(3), antichain(3)):
        exts = linear_extensions(p)
        assert len(exts) == count_linear_extensions(p)
        assert len(set(exts)) == len(exts)
        for ext in exts:
            pos = {e: i for i, e in enumerate(ext)}
            assert all(pos[a] < pos[b] for a, b in p.covers)


def test_zigzag_counts_euler_and_fibonacci():
    # extensions: zigzag numbers 1,1,2,5,16,61; ideals: odd-index Fibonacci
    expected_ext = {1: 1, 2: 1, 3: 2, 4: 5, 5: 16, 6: 61}
    fib = [0, 1]
    while len(fib) < 16:
        fib.append(fib[-1] + fib[-2])
    for k, e in expected_ext.items():
        p, _ = zigzag(k)
        assert count_linear_extensions(p) == e
        assert len(order_ideals(p)) == fib[k + 2]


def test_order_ideals_are_downclosed():
    p, _ = skew_star(4, (1,))
    for ideal in order_ideals(p):
        for x in ideal:
            assert p.strictly_below(x) <= ideal


def test_order_polynomial_edge_cases():
    p, _ = antichain(2)
    assert order_polynomial(p, 0) == 0
    assert order_polynomial(Poset((), ()), 0) == 1
    assert order_polynomial(p, 1) == 1
    assert order_polynomial(p, 2) == len(order_ideals(p))
    with pytest.raises(InputError, match="integer"):
        order_polynomial(p, 2.5)
    assert order_polynomial(p, 3.0) == order_polynomial(p, 3)


@settings(max_examples=20, deadline=None)
@given(st.integers(1, 4), st.integers(1, 4))
def test_order_polynomial_matches_bruteforce(k, m):
    p, _ = zigzag(k)
    assert order_polynomial(p, m) == order_polynomial_bruteforce(p, m)


def test_order_polynomial_matches_bruteforce_on_skew():
    for n in (3, 4):
        for lam in all_staircase_partitions(n):
            p, _ = skew_star(n, lam)
            for m in range(4):
                assert order_polynomial(p, m) == order_polynomial_bruteforce(p, m)


def test_staircase_cells_shape():
    assert staircase_cells(3) == ((1, 2), (1, 3), (2, 3))
    assert staircase_cells(3, (1,)) == ((1, 2), (2, 3))
    assert staircase_cells(4, (2, 1)) == ((1, 2), (2, 3), (3, 4))
    with pytest.raises(InputError):
        staircase_cells(3, (3,))
    with pytest.raises(InputError):
        staircase_cells(4, (1, 2))


def test_skew_star_covers_are_grid_steps():
    p, _ = staircase_star(4)
    for (i, j), (a, b) in p.covers:
        assert (a, b) in ((i, j + 1), (i - 1, j))


def test_staircase_syt_counts():
    assert [staircase_syt_count(n) for n in (2, 3, 4, 5)] == [1, 2, 16, 768]
    for n in (3, 4, 5):
        assert staircase_syt_count(n) == count_linear_extensions(staircase_star(n)[0])


def test_all_staircase_partitions():
    parts = all_staircase_partitions(3)
    assert set(parts) == {(), (1,), (2,), (1, 1), (2, 1)}
    assert len(all_staircase_partitions(4)) == 14
    # Catalan(n) partitions; the empty one fits the order-0 staircase too
    assert [len(all_staircase_partitions(n)) for n in range(8)] == [
        comb(2 * n, n) // (n + 1) for n in range(8)
    ]


def test_staircase_orders_0_and_1_are_empty():
    for n in (0, 1):
        assert staircase_syt_count(n) == 1
        assert staircase_cells(n) == ()
        assert skew_star(n)[0].elements == staircase_star(n)[0].elements == ()
    assert all_staircase_partitions(0) == [()]
    assert all_staircase_partitions(1) == [()]


def test_order_polytope_vertices_are_filters():
    p, _ = skew_star(3)
    verts = order_polytope_vertices(p)
    assert len(verts) == len(order_ideals(p))
    for v in verts:
        filt = {e for e, x in zip(p.elements, v) if x}
        for x in filt:
            for y in p.elements:
                if p.less(x, y):
                    assert y in filt


def test_builder_embeddings_are_pinned():
    # the drawings the builders hand to poset_to_flow_graph, written out
    _, emb = skew_star(4, (1,))
    assert emb.up == {
        (1, 2): ((1, 3),), (1, 3): (), (2, 3): ((1, 3), (2, 4)), (2, 4): (), (3, 4): ((2, 4),)
    }
    assert emb.down == {
        (1, 2): (), (1, 3): ((1, 2), (2, 3)), (2, 3): (), (2, 4): ((2, 3), (3, 4)), (3, 4): ()
    }
    assert emb.bottom == ((1, 2), (2, 3), (3, 4)) and emb.top == ((1, 3), (2, 4))
    _, emb = zigzag(5)
    assert emb.up == {1: (2,), 2: (), 3: (2, 4), 4: (), 5: (4,)}
    assert emb.down == {1: (), 2: (1, 3), 3: (), 4: (3, 5), 5: ()}
    assert emb.bottom == (1, 3, 5) and emb.top == (2, 4)


def test_poset_json_roundtrip():
    p, emb = zigzag(4)
    p2, emb2 = poset_from_json(poset_to_json(p, emb))
    assert p2.elements == p.elements and set(p2.covers) == set(p.covers)
    assert emb2.bottom == emb.bottom and emb2.top == emb.top
    # tuple labels are flattened to strings for the skew posets
    q, qemb = skew_star(3)
    data = poset_to_json(q, qemb)
    assert data["elements"] == ["1,2", "1,3", "2,3"]


@st.composite
def shuffled_posets(draw, max_size=7):
    """from_relations posets on tuple labels whose element order is shuffled."""
    labels = [(k, -k) for k in range(draw(st.integers(0, max_size)))]
    hidden = draw(st.permutations(labels))  # every relation points up this order
    pairs = [(a, b) for i, a in enumerate(hidden) for b in hidden[i + 1 :]]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    relations = [pair for pair, k in zip(pairs, keep) if k]
    return relations, Poset.from_relations(draw(st.permutations(labels)), relations)


@seed(0x1DEA)
@settings(max_examples=60, deadline=2000)
@given(shuffled_posets())
def test_ideal_kernel_matches_brute_force(case):
    relations, p = case
    elements = p.elements
    index = {e: i for i, e in enumerate(elements)}
    # the order: a transitive closure of the relations, pair by pair
    less = set(relations)
    while grown := {(a, d) for a, b in less for c, d in less if b == c} - less:
        less |= grown
    for b in elements:
        assert p.strictly_below(b) == {a for a in elements if (a, b) in less}
        assert all(p.less(a, b) == ((a, b) in less) for a in elements)
    covers = [
        (a, b) for a, b in less if not any((a, z) in less and (z, b) in less for z in elements)
    ]
    assert list(p.covers) == sorted(covers, key=lambda c: (index[c[1]], index[c[0]]))
    # combinations come by size, then lexicographic in element index
    subsets = [
        frozenset(c) for k in range(len(elements) + 1) for c in itertools.combinations(elements, k)
    ]
    ideals = [s for s in subsets if all(p.strictly_below(x) <= s for x in s)]
    assert order_ideals(p) == ideals
    assert order_polytope_vertices(p) == sorted(
        tuple(int(e not in s) for e in elements) for s in ideals
    )

    def respects_covers(perm):
        pos = {e: i for i, e in enumerate(perm)}
        return all(pos[a] < pos[b] for a, b in p.covers)

    exts = sorted(
        (perm for perm in itertools.permutations(elements) if respects_covers(perm)),
        key=lambda perm: [index[e] for e in perm],
    )
    assert linear_extensions(p) == exts
    assert count_linear_extensions(p) == len(exts)
    for m in range(4):
        assert order_polynomial(p, m) == order_polynomial_bruteforce(p, m)
    simplices = canonical_triangulation(p)
    assert [s.extension for s in simplices] == exts
    for s in simplices:
        assert s.vertices == tuple(
            tuple(int(e in s.extension[j:]) for e in elements) for j in range(len(elements) + 1)
        )


# ---------------------------------------------------------------------------
# J(P) belongs to its poset: built once, on first use, and never changed

READERS = {
    "order_polynomial": lambda p: [order_polynomial(p, m) for m in range(1, 5)],
    "count_linear_extensions": count_linear_extensions,
    "linear_extensions": linear_extensions,
    "order_ideals": order_ideals,
    "order_polytope_vertices": order_polytope_vertices,
    "canonical_triangulation": canonical_triangulation,
}


def test_one_poset_builds_its_ideal_lattice_once(monkeypatch):
    build, builds = Poset._lattice.func, []

    def counted(p):
        builds.append(p.elements)
        return build(p)

    prop = functools.cached_property(counted)
    prop.__set_name__(Poset, "_lattice")
    monkeypatch.setattr(Poset, "_lattice", prop)
    p, _ = skew_star(5, (2,))
    for read in READERS.values():
        read(p)
    assert builds == [p.elements]


def test_readers_leave_the_ideal_lattice_unchanged():
    p, _ = skew_star(5, (1,))
    lattice = p._lattice
    before = copy.deepcopy(lattice)
    for read in READERS.values():
        read(p)
    assert p._lattice is lattice and lattice == before


def test_a_built_lattice_keeps_eq_hash_repr_and_pickling():
    p, twin = zigzag(5)[0], zigzag(5)[0]
    key = (hash(p), repr(p))
    count_linear_extensions(p)
    assert "_lattice" in vars(p) and "_lattice" not in vars(twin)
    assert p == twin and (hash(p), repr(p)) == key == (hash(twin), repr(twin))
    clone = pickle.loads(pickle.dumps(p))
    assert clone == p and (hash(clone), repr(clone)) == key
    assert clone._lattice == p._lattice and order_ideals(clone) == order_ideals(p)


@seed(0x1A77)
@settings(max_examples=40, deadline=2000)
@given(shuffled_posets(max_size=6), st.permutations(sorted(READERS)))
def test_readers_agree_on_a_warmed_and_a_fresh_poset(case, order):
    _, p = case
    for name in order:  # warms p, readers in a drawn order
        READERS[name](p)
    for name, read in READERS.items():
        assert read(p) == read(Poset(p.elements, p.covers)), name
