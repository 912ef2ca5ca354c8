"""Finite posets, linear extensions, order ideals and the staircase families.

Ideals, e(P), linear extensions, the order polynomial and the canonical
simplices read off one ideal-lattice kernel on int bitmasks, built once per
call: e(P) is a forward DP over the ideal masks, the order polynomial
repeated zeta transforms over them.

Skew-staircase posets carry cell labels (i, j); their partial order is
p_{ij} <= p_{i'j'} iff i >= i' and j <= j'.  Builders also return the
canonical upward-planar embedding of the Hasse diagram, which the planar
module turns into a flow graph.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import comb, factorial

from .errors import InputError


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
        below = _transitive_below(self.elements, self.covers)
        object.__setattr__(self, "_below", below)
        for a, b in self.covers:
            if a in below[a]:
                raise InputError("cover relation contains a cycle")
            # irredundancy: no intermediate z with a < z < b
            for z in below[b]:
                if z != a and a in below[z]:
                    raise InputError(f"cover ({a},{b}) is implied by transitivity")

    def less(self, a, b):
        """Strict order a < b."""
        return a in self._below[b]

    def le(self, a, b):
        return a == b or self.less(a, b)

    def strictly_below(self, b):
        return self._below[b]

    def lower_covers(self, b):
        return tuple(a for a, x in self.covers if x == b)

    def upper_covers(self, a):
        return tuple(x for y, x in self.covers if y == a)

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
        below = _transitive_below(elements, relations)
        for e in elements:
            if e in below[e]:
                raise InputError("relation set contains a cycle")
        # covers in element order, so equal relations give equal posets
        covers = tuple(
            (a, b)
            for b in elements
            for a in elements
            if a in below[b] and not any(a in below[z] for z in below[b])
        )
        return cls(elements, covers)


def _transitive_below(elements, covers):
    below = {e: set() for e in elements}
    for a, b in covers:
        if a not in below or b not in below:
            raise InputError(f"relation ({a},{b}) uses unknown elements")
        below[b].add(a)
    for k in elements:  # Warshall: from here on k may be an intermediate
        for e in elements:
            if k in below[e]:
                below[e] |= below[k]
    return {e: frozenset(s) for e, s in below.items()}


# ---------------------------------------------------------------------------
# linear extensions and the ideal lattice, on bitmasks: bit i is p.elements[i]


def _below_masks(p):
    """Per element, the mask of the elements strictly below it."""
    index = {e: i for i, e in enumerate(p.elements)}
    return [sum(1 << index[a] for a in p.strictly_below(e)) for e in p.elements]


def _indices(mask):
    return tuple(i for i in range(mask.bit_length()) if mask >> i & 1)


def _addable(below, ideal):
    """Indices, ascending, of the elements outside ideal whose lower set is in it."""
    return [i for i, b in enumerate(below) if not ideal >> i & 1 and not b & ~ideal]


def _ideal_masks(below):
    """All order ideals as masks, by size and then by sorted element indices."""
    masks, level = [0], [0]
    while level:
        level = sorted({m | 1 << i for m in level for i in _addable(below, m)}, key=_indices)
        masks += level
    return masks


def _ideal_vertices(p):
    """Per ideal mask, the 0/1 indicator of the complementary filter."""
    n = len(p.elements)
    masks = _ideal_masks(_below_masks(p))
    return {m: tuple(int(not m >> i & 1) for i in range(n)) for m in masks}


def linear_extensions(p):
    """All linear extensions, lexicographic in element-index order."""
    below = _below_masks(p)
    addable = {m: _addable(below, m) for m in _ideal_masks(below)}
    out, prefix = [], []

    def walk(ideal):
        if not addable[ideal]:  # only the full ideal has nothing to add
            out.append(tuple(prefix))
            return
        for i in addable[ideal]:
            prefix.append(p.elements[i])
            walk(ideal | 1 << i)
            prefix.pop()

    walk(0)
    del walk  # breaks its self-reference, so the walk's state is freed on return
    return out


def count_linear_extensions(p):
    """e(P): maximal chains of the ideal lattice, counted upward by size."""
    below = _below_masks(p)
    chains = dict.fromkeys(_ideal_masks(below), 0)
    chains[0] = 1
    for ideal, c in chains.items():
        for i in _addable(below, ideal):
            chains[ideal | 1 << i] += c
    return chains[(1 << len(below)) - 1]


def order_ideals(p):
    """All down-closed subsets, by size and then by sorted element indices."""
    masks = _ideal_masks(_below_masks(p))
    return [frozenset(p.elements[i] for i in _indices(m)) for m in masks]


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
    if m < 0:
        raise InputError("order polynomial argument must be nonnegative")
    if m == 0:
        return 1 if not p.elements else 0
    below = _below_masks(p)
    position = {ideal: k for k, ideal in enumerate(_ideal_masks(below))}
    # a < b gives |below(a)| < |below(b)|, so sorting by it is a linear extension
    pairs = [
        (position[ideal], position[ideal ^ 1 << i])
        for i in sorted(range(len(below)), key=lambda i: below[i].bit_count())
        for ideal in position
        if ideal >> i & 1 and ideal ^ 1 << i in position
    ]
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


def chain(k):
    elements = tuple(range(1, k + 1))
    covers = tuple((i, i + 1) for i in range(1, k))
    poset = Poset(elements, covers)
    emb = HasseEmbedding(
        up={i: ((i + 1,) if i < k else ()) for i in elements},
        down={i: ((i - 1,) if i > 1 else ()) for i in elements},
        bottom=(1,) if k else (),
        top=(k,) if k else (),
    )
    return poset, emb


def antichain(k):
    elements = tuple(range(1, k + 1))
    poset = Poset(elements, ())
    emb = HasseEmbedding(
        up={e: () for e in elements},
        down={e: () for e in elements},
        bottom=elements,
        top=elements,
    )
    return poset, emb


def zigzag(k):
    """Fence with covers alternating up/down starting upward: 1 < 2 > 3 < 4 ..."""
    elements = tuple(range(1, k + 1))
    covers = []
    for i in range(1, k):
        covers.append((i, i + 1) if i % 2 == 1 else (i + 1, i))
    poset = Poset(elements, tuple(covers))
    up = {e: [] for e in elements}
    down = {e: [] for e in elements}
    for a, b in covers:
        up[a].append(b)
        down[b].append(a)
    for e in elements:
        up[e] = tuple(sorted(up[e]))
        down[e] = tuple(sorted(down[e]))
    emb = HasseEmbedding(
        up=up,
        down=down,
        bottom=tuple(e for e in elements if not down[e]),
        top=tuple(e for e in elements if not up[e]),
    )
    return poset, emb


def validate_staircase_partition(n, lam):
    if any(int(x) != x for x in lam):
        raise InputError("partition parts must be integers")
    lam = tuple(int(x) for x in lam if int(x) != 0)
    if any(x < 0 for x in lam):
        raise InputError("partition parts must be nonnegative")
    if any(lam[i] < lam[i + 1] for i in range(len(lam) - 1)):
        raise InputError("partition parts must be weakly decreasing")
    if any(lam[i] > n - (i + 1) for i in range(len(lam))):
        raise InputError(f"partition {lam} does not fit inside the staircase of order {n}")
    return lam


def staircase_cells(n, lam=()):
    """Cells (i, j) of the order-n staircase with lam removed from row ends."""
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
    up = {}
    down = {}
    for (i, j) in cells:
        up[(i, j)] = tuple(c for c in ((i - 1, j), (i, j + 1)) if c in present)
        down[(i, j)] = tuple(c for c in ((i, j - 1), (i + 1, j)) if c in present)
    key = lambda c: (c[0] + c[1], -c[0])
    emb = HasseEmbedding(
        up=up,
        down=down,
        bottom=tuple(sorted(poset.minimal_elements(), key=key)),
        top=tuple(sorted(poset.maximal_elements(), key=key)),
    )
    return poset, emb


def staircase_star(n):
    return skew_star(n, ())


def staircase_syt_count(n):
    """Standard Young tableaux of staircase shape (n-1, ..., 1), hook product."""
    hooks = 1
    for k in range(1, n):
        hooks *= (2 * k - 1) ** (n - k)
    total = factorial(comb(n, 2))
    if total % hooks:
        raise InputError("staircase hook product does not divide the factorial")
    return total // hooks


def all_staircase_partitions(n):
    """Every partition fitting inside the order-n staircase."""
    results = []

    def extend(prefix, row):
        if row == n:
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
