"""Finite posets, linear extensions, order ideals and the staircase families.

A poset holds its order once, as int bitmasks (bit i is elements[i]): per
element the mask of the elements strictly below it, closed by a Warshall
pass when the poset is built.  The order queries, the cover checks and the
cover extraction of from_relations read those masks, and so does the Hasse
diagram of J(P), built once per poset, on first use: per ideal mask its
steps up.  e(P) is a forward DP over it, the order polynomial zeta transforms
read off its steps, and one walk of its maximal chains, summing a weight per
step, lists the linear extensions and the canonical simplices (vertices, masks).

Skew-staircase posets carry cell labels (i, j); their partial order is
p_{ij} <= p_{i'j'} iff i >= i' and j <= j'.  Every builder returns its
poset with default_embedding, the Hasse drawing whose left-to-right orders
follow the element order; for the builders' posets it is upward planar,
and the planar module turns it into a flow graph.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from math import comb, factorial

from .errors import InputError, _integers, _nonnegative


@dataclass(frozen=True)
class Poset:
    elements: tuple
    covers: tuple

    def __post_init__(self):
        object.__setattr__(self, "elements", tuple(self.elements))
        object.__setattr__(self, "covers", tuple((a, b) for a, b in self.covers))
        elems = set(self.elements)
        if len(elems) != len(self.elements):
            raise InputError("duplicate poset elements")
        for a, b in self.covers:
            if a not in elems or b not in elems:
                raise InputError(f"cover ({a},{b}) uses unknown elements")
            if a == b:
                raise InputError("covers must relate distinct elements")
        index, below = _order_masks(self.elements, self.covers)
        for a, b in self.covers:
            i = index[a]
            if below[i] >> i & 1:
                raise InputError("cover relation contains a cycle")
            # irredundancy: no intermediate z with a < z < b
            if _indirectly_below(below, index[b]) >> i & 1:
                raise InputError(f"cover ({a},{b}) is implied by transitivity")
        # not fields, so eq, hash and repr ignore them
        object.__setattr__(self, "_index", index)
        object.__setattr__(self, "_below", tuple(below))

    @cached_property
    def _lattice(self):
        """J(P)'s Hasse diagram, shared by its readers, which never change it: per
        ideal mask m, by size and then by sorted element indices, its steps (i, m | 1 << i)
        up, ascending in i, one per element i outside m whose lower set is in m."""
        lattice, level, below = {}, [0], self._below
        while level:
            for m in level:
                lattice[m] = [
                    (i, m | 1 << i) for i, b in enumerate(below) if not m >> i & 1 and not b & ~m
                ]
            level = sorted({up for m in level for _, up in lattice[m]}, key=_indices)
        return lattice

    def _bit(self, x):
        try:
            return self._index[x]
        except (KeyError, TypeError):
            raise InputError(f"{x!r} is not an element of the poset") from None

    def less(self, a, b):
        """Strict order a < b."""
        return bool(self._below[self._bit(b)] >> self._bit(a) & 1)

    def strictly_below(self, b):
        return frozenset(self.elements[i] for i in _indices(self._below[self._bit(b)]))

    def minimal_elements(self):
        uppers = {b for _, b in self.covers}
        return tuple(e for e in self.elements if e not in uppers)

    def maximal_elements(self):
        lowers = {a for a, _ in self.covers}
        return tuple(e for e in self.elements if e not in lowers)

    @classmethod
    def from_relations(cls, elements, relations):
        """Build a poset from an arbitrary strict-order relation set."""
        elements = tuple(elements)
        _, below = _order_masks(elements, relations)
        if any(m >> i & 1 for i, m in enumerate(below)):
            raise InputError("relation set contains a cycle")
        # covers in element order, so equal relations give equal posets
        covers = tuple(
            (elements[i], b)
            for j, b in enumerate(elements)
            for i in _indices(below[j] & ~_indirectly_below(below, j))
        )
        return cls(elements, covers)


# ---------------------------------------------------------------------------
# the order on bitmasks: bit i is elements[i]


def _order_masks(elements, relations):
    """Element -> bit index, and per index the mask of the elements strictly
    below it: the transitive closure of relations, by a Warshall pass."""
    index = {e: i for i, e in enumerate(elements)}
    below = [0] * len(elements)
    for a, b in relations:
        if a not in index or b not in index:
            raise InputError(f"relation ({a},{b}) uses unknown elements")
        below[index[b]] |= 1 << index[a]
    for k, through in enumerate(below):  # from here on k may be an intermediate
        for e, m in enumerate(below):
            if m >> k & 1:
                below[e] = m | through
    return index, below


def _indirectly_below(below, j):
    """Mask of the elements below some element strictly below element j."""
    mask = 0
    for z in _indices(below[j]):
        mask |= below[z]
    return mask


def _indices(mask):
    return tuple(i for i in range(mask.bit_length()) if mask >> i & 1)


# ---------------------------------------------------------------------------
# the readers of J(P), Poset._lattice: its ideals and its maximal chains


def _chain_sums(p, start, weigh):
    """Per maximal chain of J(P), in linear_extensions order, start
    plus weigh(i, up) over its steps (i, up), each step weighed once: 1-tuples
    add up to sequences, ints to masks when no two ideals share a bit
    (planar._ideal_routes refuses two ideals with one route)."""
    weighted = {m: [] for m in p._lattice}
    for m, steps in p._lattice.items():
        weighted[m].extend((weighted[up], weigh(i, up)) for i, up in steps)
    out = []

    def walk(steps, total):
        if not steps:  # only the full ideal has nothing to add
            out.append(total)
            return
        for above, w in steps:
            walk(above, total + w)

    walk(weighted[0], start)
    del walk  # breaks its self-reference, so the walk's state is freed on return
    return out


def _ideal_vertices(p):
    """Per ideal mask, the 0/1 indicator of the complementary filter."""
    n = len(p.elements)
    return {m: tuple(int(not m >> i & 1) for i in range(n)) for m in p._lattice}


def linear_extensions(p):
    """All linear extensions, lexicographic in element-index order."""
    elements = p.elements
    return _chain_sums(p, (), lambda i, up: (elements[i],))


def count_linear_extensions(p):
    """e(P): maximal chains of the ideal lattice, counted upward by size."""
    chains = dict.fromkeys(p._lattice, 0)
    chains[0] = 1
    for ideal, steps in p._lattice.items():
        c = chains[ideal]
        for _, up in steps:
            chains[up] += c
    return chains[(1 << len(p.elements)) - 1]


def order_ideals(p):
    """All down-closed subsets, by size and then by sorted element indices."""
    return [frozenset(p.elements[i] for i in _indices(m)) for m in p._lattice]


def order_polytope_vertices(p):
    """0/1 filter indicators in p.elements coordinates, sorted."""
    return sorted(_ideal_vertices(p).values())


def order_polynomial(p, m):
    """Number of order-preserving maps P -> {1..m}.

    Counted as (m-1)-multichains in the ideal lattice J(P), each step one
    zeta transform (Bjorklund et al., SODA 2012): for e in linear-extension
    order, and no other, add w[I - e] into w[I] for every ideal I with e
    maximal.  Oracle for small posets: order_polynomial_bruteforce.
    """
    m = _nonnegative(m, "order polynomial argument")
    if m == 0:
        return 1 if not p.elements else 0
    position = {ideal: k for k, ideal in enumerate(p._lattice)}
    # a step up by e joins the ideals with e maximal; e's first step leaves its lower set,
    # and a < b gives |below(a)| < |below(b)|, so the elements enter joins in a linear extension
    joins = {}
    for ideal, steps in p._lattice.items():
        for i, up in steps:
            joins.setdefault(i, []).append((position[up], position[ideal]))
    pairs = [pair for steps in joins.values() for pair in steps]
    weights = [1] * len(position)
    for _ in range(m - 1):
        for k, j in pairs:
            weights[k] += weights[j]
    return weights[-1]


def order_polynomial_bruteforce(p, m):
    """Direct enumeration of order-preserving maps; oracle for small posets."""
    count = 0
    for values in itertools.product(range(1, m + 1), repeat=len(p.elements)):
        eta = dict(zip(p.elements, values))
        if all(eta[a] <= eta[b] for a, b in p.covers):
            count += 1
    return count


# ---------------------------------------------------------------------------
# named families


@dataclass(frozen=True)
class HasseEmbedding:
    """Upward-planar drawing data: per-element left-to-right cover orders,
    plus global left-to-right orders of the minimal and maximal elements."""

    up: dict
    down: dict
    bottom: tuple
    top: tuple


def default_embedding(p):
    """The Hasse drawing whose left-to-right orders all follow p.elements.

    One pass over the covers, taken in from_relations order, fills the
    per-element cover orders; the minimal and maximal elements keep their
    element order.  The builders below draw their posets with it.
    """
    up = {x: () for x in p.elements}
    down = dict(up)
    for a, b in sorted(p.covers, key=lambda c: (p._index[c[1]], p._index[c[0]])):
        up[a] += (b,)
        down[b] += (a,)
    return HasseEmbedding(up, down, p.minimal_elements(), p.maximal_elements())


def chain(k):
    k = _nonnegative(k, "poset size")
    poset = Poset(tuple(range(1, k + 1)), tuple((i, i + 1) for i in range(1, k)))
    return poset, default_embedding(poset)


def antichain(k):
    k = _nonnegative(k, "poset size")
    poset = Poset(tuple(range(1, k + 1)), ())
    return poset, default_embedding(poset)


def zigzag(k):
    """Fence with covers alternating up/down starting upward: 1 < 2 > 3 < 4 ..."""
    k = _nonnegative(k, "poset size")
    covers = tuple((i, i + 1) if i % 2 == 1 else (i + 1, i) for i in range(1, k))
    poset = Poset(tuple(range(1, k + 1)), covers)
    return poset, default_embedding(poset)


def validate_staircase_partition(n, lam):
    lam = _integers(lam, "partition parts must be integers")
    if any(x < 0 for x in lam):
        raise InputError("partition parts must be nonnegative")
    if any(lam[i] < lam[i + 1] for i in range(len(lam) - 1)):
        raise InputError("partition parts must be weakly decreasing")
    lam = tuple(x for x in lam if x)  # drops the trailing zeros
    if any(lam[i] > n - (i + 1) for i in range(len(lam))):
        raise InputError(f"partition {lam} does not fit inside the staircase of order {n}")
    return lam


def staircase_cells(n, lam=()):
    """Cells (i, j) of the order-n staircase with lam removed from row ends."""
    n = _nonnegative(n, "staircase order")
    lam = validate_staircase_partition(n, lam)
    cells = []
    for i in range(1, n):
        cut = lam[i - 1] if i <= len(lam) else 0
        for j in range(i + 1, n - cut + 1):
            cells.append((i, j))
    return tuple(cells)


def skew_star(n, lam=()):
    """Poset on staircase-minus-lam cells: (i,j) <= (i',j') iff i>=i', j<=j'."""
    cells = staircase_cells(n, lam)
    present = set(cells)
    covers = []
    for (i, j) in cells:
        if (i, j + 1) in present:
            covers.append(((i, j), (i, j + 1)))
        if (i - 1, j) in present:
            covers.append(((i, j), (i - 1, j)))
    poset = Poset(cells, tuple(covers))
    return poset, default_embedding(poset)


def staircase_star(n):
    return skew_star(n, ())


def staircase_syt_count(n):
    """Standard Young tableaux of staircase shape (n-1, ..., 1), hook product."""
    n = _nonnegative(n, "staircase order")
    hooks = 1
    for k in range(1, n):
        hooks *= (2 * k - 1) ** (n - k)
    total = factorial(comb(n, 2))
    if total % hooks:
        raise InputError("staircase hook product does not divide the factorial")
    return total // hooks


def all_staircase_partitions(n):
    """Every partition fitting inside the order-n staircase."""
    n = _nonnegative(n, "staircase order")
    results = []

    def extend(prefix, row):
        if row >= n:  # row 1 ends the walk for order 0 too
            results.append(tuple(x for x in prefix if x))
            return
        hi = min(n - row, prefix[-1] if prefix else n)
        for part in range(hi, -1, -1):
            extend(prefix + [part], row + 1)

    extend([], 1)
    del extend  # breaks its self-reference, so the walk's state is freed on return
    return results


# ---------------------------------------------------------------------------
# JSON interface


def _label_to_json(label):
    if isinstance(label, tuple):
        return ",".join(str(x) for x in label)
    return label


def poset_to_json(p, emb=None):
    data = {
        "elements": [_label_to_json(e) for e in p.elements],
        "covers": [[_label_to_json(a), _label_to_json(b)] for a, b in p.covers],
    }
    if emb is not None:
        block = {
            str(_label_to_json(e)): {
                "up": [_label_to_json(x) for x in emb.up.get(e, ())],
                "down": [_label_to_json(x) for x in emb.down.get(e, ())],
            }
            for e in p.elements
        }
        block["__bottom__"] = [_label_to_json(x) for x in emb.bottom]
        block["__top__"] = [_label_to_json(x) for x in emb.top]
        data["embedding"] = block
    return data


def poset_from_json(data):
    try:
        elements, covers = data["elements"], data["covers"]
        pairs = all(isinstance(c, list) and len(c) == 2 for c in covers)
        if not isinstance(elements, list) or not pairs:
            raise TypeError("elements must be a list and covers a list of pairs")
        poset = Poset(tuple(elements), tuple(tuple(c) for c in covers))
    except (KeyError, TypeError) as exc:
        raise InputError(f"malformed poset JSON: {exc}") from exc
    block = data.get("embedding")
    if block is None:
        return poset, None
    if not isinstance(block, dict):
        raise InputError("malformed poset JSON: embedding is not an object")
    unknown = set(block) - {str(e) for e in poset.elements} - {"__bottom__", "__top__"}
    if unknown:
        raise InputError(
            f"embedding names unknown elements: {', '.join(sorted(map(str, unknown)))}"
        )
    up, down = {}, {}
    try:
        for e in poset.elements:
            spec = block.get(str(e), {})
            up[e] = tuple(spec.get("up", ()))
            down[e] = tuple(spec.get("down", ()))
        emb = HasseEmbedding(
            up=up,
            down=down,
            bottom=tuple(block.get("__bottom__", poset.minimal_elements())),
            top=tuple(block.get("__top__", poset.maximal_elements())),
        )
    except (AttributeError, TypeError) as exc:
        raise InputError(f"malformed poset embedding: {exc}") from exc
    return poset, emb
