"""Exact linear algebra for lattice polytopes.

Points are tuples of integers or Fractions.  Every elimination goes through
one fraction-free kernel (Bareiss 1968): rows with Fraction entries are
first scaled to integers, and each step divides exactly by the previous
pivot, so entries stay integral (they are minors of the input).  Flow and
order polytopes give matrices of 0, 1 and -1, so each column takes a pivot
of 1 or -1 when it has one; while the pivot and the previous one are both
1, a step multiplies and divides by nothing.  A pivot row leaves the
working rows, and the columns up to its pivot are dropped.  Eliminating
below each pivot gives the rank and the determinant (the last pivot); the
Gauss–Jordan sweep, which also clears above it, gives the integer inverse
of the unimodular simplices of a triangulation.

Normalized volumes are taken relative to the lattice spanned by the
polytope's vertex differences.  Its basis, computed once per polytope by
integer row operations, is in row echelon form with positive pivots: each
row's first nonzero entry lies right of the previous row's.  Coordinates in
it follow by forward substitution on the pivot columns, and a simplex's
normalized volume needs none: its edge vectors' minor on the pivot columns,
over the product of the pivots, is the determinant of their coordinates.
What a basis gives every simplex, its pivot columns, pivot product and
right kernel, is kept in a small memo keyed on its integer rows (`_frame`).

Entries that are not ints or Fractions are made exact where they enter
(`errors._exact`): at the points of `affine_dimension`, `lattice_basis` and
`triangulation_checks`, where a row reaches the elimination kernel, and at
the vertices of `simplex_normalized_volume` unless all are ints.  A basis
is read by the integer rule (`errors._integers`), and an expected volume
as a nonnegative int (`errors._nonnegative`).

The sample-coverage check treats each unimodular simplex as its homogeneous
matrix H, whose column for vertex x is (1, x) in lattice coordinates.  The
rows of the integer inverse H^-1 are the simplex's barycentric weights, kept
as dense tuples (c, a_1, ..., a_d): the weight at a point b is the dot
product of the row with (1, b).  The inverses come from one elimination per
component of the dual graph (simplices joined by shared ridges) plus a
rank-one update across each shared ridge: two simplices that share a ridge
differ in one vertex.  Each row is the functional of a facet hyperplane, and
the simplices share most of them.  Each vertex packs its values of the
distinct rows into one int, a digit each.  A sample is a simplex and weights
on its vertices, drawn from ``getrandbits`` as ``randrange`` and ``randint``
draw them; one sum of those ints times its weights evaluates every row, and
the simplices that contain the sample are those with no negative row.
"""

from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from operator import add, getitem, mul, sub

from .errors import InputError, InternalCheckError, _exact, _integers, _nonnegative

SAMPLE_SEED = 0xA5C
SAMPLE_COUNT = 200
_RAGGED = "matrix rows must all have the same length"
_BASIS = "basis must be a sequence of integer rows"


def _bareiss(m, jordan=False):
    """Fraction-free elimination of the integer rows ``m``, which it uses up.

    Returns ``(pivots, last, sign, reduced)``: the pivot columns, the last
    pivot, a sign such that ``sign * last`` is the determinant when m is
    square of full rank, and with ``jordan`` the reduced pivot rows (else
    none).  Each column takes a pivot of 1 or -1 when it has one, and a row
    whose pivot is -1 is negated (``sign`` flips); the pivot row leaves the
    working rows, and every row drops the columns up to the pivot.  The rows
    left get ``(pivot * a - f * b) // last``, where b is the pivot row and f
    the row's entry in the pivot column; the division is exact, and while
    pivot and last are both 1 it is ``a - f * b``.  A column where no
    working row is nonzero has no pivot, and costs a scan of it.  With
    ``jordan`` the earlier pivot rows get the same update (Gauss–Jordan),
    so ``reduced`` is ``last`` times the reduced row echelon form of m, in
    the columns past the last pivot.  The pivots, ``last`` and ``sign`` do
    not depend on ``jordan``.
    """
    pivots, last, sign = [], 1, 1
    rows, reduced = m, []
    start = 0  # the rows hold the entries of columns start, start + 1, ...
    for col in range(len(m[0]) if m else 0):
        k = col - start
        column = [row[k] for row in rows]
        if 1 in column:
            p = column.index(1)
        elif -1 in column:
            p = column.index(-1)
        else:
            p = next((i for i, x in enumerate(column) if x), None)
            if p is None:
                continue
        if p & 1:  # moving row p to the front is a cycle of p + 1 rows
            sign = -sign
        top = rows.pop(p)
        pivot, tail = top[k], top[k + 1 :]
        if pivot == -1:
            pivot, tail, sign = 1, [-x for x in tail], -sign
        unit, same = pivot == last == 1, pivot == last
        for group in (rows, reduced):
            for i, row in enumerate(group):
                f = row[k]
                if not f and same:
                    group[i] = row[k + 1 :]
                elif f == 1 and unit:
                    group[i] = list(map(sub, row[k + 1 :], tail))
                elif f == -1 and unit:
                    group[i] = list(map(add, row[k + 1 :], tail))
                elif unit:
                    group[i] = [a - f * b for a, b in zip(row[k + 1 :], tail)]
                else:
                    # exact: every entry is a minor of the input (Sylvester's identity)
                    group[i] = [(pivot * a - f * b) // last for a, b in zip(row[k + 1 :], tail)]
        if jordan:
            reduced.append(tail)
        last = pivot
        pivots.append(col)
        start = col + 1
        if not rows:
            break
    return pivots, last, sign, reduced


def _integer_rows(rows):
    """Each row scaled by the lcm of its denominators, and the product of the scales.

    A row with an entry that has no denominator (a float, say) is made
    exact first (`_exact`).
    """
    out, scale = [], 1
    for row in rows:
        try:
            den = math.lcm(*(x.denominator for x in row))
        except AttributeError:
            row = list(map(_exact, row))
            den = math.lcm(*(x.denominator for x in row))
        out.append([int(x * den) for x in row])
        scale *= den
    return out, scale


def matrix_rank(rows):
    """Rank over the rationals, by exact fraction-free elimination."""
    m = _integer_rows(rows)[0]
    if len(set(map(len, m))) > 1:
        raise InputError(_RAGGED)
    return len(_bareiss(m)[0])


def hermite_row_basis(rows):
    """A basis of the lattice that the integer rows span, in row echelon form.

    Column by column, gcd row operations clear the entries below the pivot,
    and the pivot is made positive.  Each row's first nonzero entry, its
    pivot, lies right of the previous row's, which `coordinates_in_basis`
    and `simplex_normalized_volume` rely on.  The entries above a pivot are
    not reduced, so this is not the Hermite normal form.
    """
    message = "lattice points must have integer coordinates"
    m = [_integers(row, message) for row in rows]
    if len(set(map(len, m))) > 1:
        raise InputError(_RAGGED)
    m = [row for row in m if any(row)]
    if not m:
        return []
    ncols = len(m[0])
    basis = []
    r = 0
    for col in range(ncols):
        # clear the column below r by gcd row operations
        while True:
            live = [i for i in range(r, len(m)) if m[i][col] != 0]
            if not live:
                break
            i = min(live, key=lambda i: abs(m[i][col]))
            m[r], m[i] = m[i], m[r]
            if m[r][col] < 0:
                m[r] = [-x for x in m[r]]
            done = True
            for i in range(r + 1, len(m)):
                q = m[i][col] // m[r][col]
                if q:
                    m[i] = [a - q * b for a, b in zip(m[i], m[r])]
                if m[i][col] != 0:
                    done = False
            if done:
                break
        if any(m[i][col] for i in range(r, len(m))):
            basis.append(tuple(m[r]))
            r += 1
            if r == len(m):
                break
    return basis


def _differences(points, base):
    """Each point minus base, refusing points of another length than base."""
    if any(len(p) != len(base) for p in points):
        raise InputError("points must all have the same number of coordinates")
    return [[x - b for x, b in zip(p, base)] for p in points]


def _points(points):
    """Each point as a tuple of exact coordinates (`_exact`)."""
    try:
        return [tuple(map(_exact, p)) for p in points]
    except TypeError:  # points, or one of them, is not iterable
        raise InputError("points must be sequences of coordinates") from None


def affine_dimension(points):
    points = _points(points)
    if not points:
        raise InputError("affine dimension of an empty point set is undefined")
    return matrix_rank(_differences(points[1:], points[0]))


def _basis(points):
    """`lattice_basis` of points already made exact."""
    if not points:
        raise InputError("need at least one point")
    return hermite_row_basis(_differences(points[1:], points[0]))


def lattice_basis(points):
    """Echelon basis (`hermite_row_basis`) of the lattice of all vertex differences."""
    return _basis(_points(points))


@functools.lru_cache(maxsize=32)
def _frame(basis):
    """The integer rows of an echelon ``basis`` (a tuple of rows), its pivot
    columns, the product of its pivots and its right kernel.

    The rows are read by the `_integers` rule, so 2.0 is 2 and 2.5 is
    refused, and a basis not in row echelon form (a zero row, or a pivot
    not right of the one above) is refused.  The kernel has one integer
    vector per free column f: ``product`` at f, 0 at the other free
    columns, and the pivot entries by back-substitution; ``product`` times
    the inverse of the triangular pivot block is integral, so every
    division is exact.  Each vector is kept as its nonzero entries, a tuple
    of columns and a tuple of values.  The memo is keyed on the rows'
    values, so it serves any basis equal to one it has read, and it never
    holds a basis it refused.
    """
    rows = tuple(_integers(row, _BASIS) for row in basis)
    # a row's first nonzero entry, found by value: the entries before it are
    # 0; a zero row gets column 0 and makes the product 0
    pivots = tuple(row.index(next(filter(None, row), 0)) for row in rows)
    product = math.prod(map(getitem, rows, pivots))
    if not product or any(a >= b for a, b in zip(pivots, pivots[1:])):
        raise InputError("basis must be in row echelon form")
    n = len(rows[0]) if rows else 0
    kernel = []
    for f in sorted(set(range(n)) - set(pivots)):
        k = [0] * n
        k[f] = product
        for row, j in reversed(list(zip(rows, pivots))):
            k[j] = -sum(map(mul, row[j + 1 :], k[j + 1 :])) // row[j]
        cols = tuple(j for j, x in enumerate(k) if x)
        kernel.append((cols, tuple(map(k.__getitem__, cols))))
    return rows, pivots, product, tuple(kernel)


def _read_basis(basis):
    """`_frame` of a basis given as any sequence of rows."""
    try:
        return _frame(tuple(map(tuple, basis)))
    except TypeError:  # the basis or a row is not iterable, or an entry is unhashable
        raise InputError(_BASIS) from None


def coordinates_in_basis(basis, vector):
    """Express ``vector`` in the given row basis; exact, raises if outside span.

    ``basis`` must be in row echelon form, as `lattice_basis` returns it, so
    each coordinate is read off the next row's pivot column (forward
    substitution); another basis is refused (`_frame`).  A vector in the
    span but off the lattice gets Fraction coordinates.
    """
    rows, pivots = _read_basis(basis)[:2]
    if rows and len(vector) != len(rows[0]):
        raise InputError("points must all have the same number of coordinates")
    residual = list(vector)
    coords = []
    for row, col in zip(rows, pivots):
        q, r = divmod(residual[col], row[col])
        c = Fraction(residual[col], row[col]) if r else q
        if c:
            residual = [a - c * b for a, b in zip(residual, row)]
        coords.append(c)
    if any(residual):
        raise InputError("vector lies outside the lattice span")
    return tuple(coords)


def determinant(rows):
    """Exact determinant of a square matrix, by fraction-free elimination."""
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise InputError("determinant needs a square matrix")
    m, scale = _integer_rows(rows)
    pivots, last, sign, _ = _bareiss(m)
    if len(pivots) < n:
        return Fraction(0)
    return Fraction(sign * last, scale)


def simplex_normalized_volume(simplex, basis):
    """|det| of the simplex's edge vectors in lattice-basis coordinates.

    Returns 0 for degenerate simplices (repeated vertices, wrong vertex
    count for the lattice rank, or affinely dependent vertices).  ``basis``
    must be in row echelon form, as `lattice_basis` returns it, so its block
    B_P on the pivot columns P is triangular; another basis is refused.
    Edge vectors V in the span of B are V = C B, so det C = det V_P / det
    B_P: the volume is |det V_P| / |prod of pivots|, with no lattice
    coordinates.  The simplex lies in a translate of the span when every
    vector of the right kernel of B takes one value on all its vertices.
    The pivots, their product and the kernel come from the basis's memo
    (`_frame`), and each kernel vector is read on its nonzero entries only.
    Vertices that are not all ints are made exact first (`_exact`), so a
    nan or a string is refused before anything else, and their minor
    reaches the elimination through `_integer_rows`.
    """
    rows, pivots, product, kernel = _read_basis(basis)
    try:
        simplex = [tuple(p) for p in simplex]
        distinct = len(set(simplex))
    except TypeError:  # the simplex or a point is not iterable, or an entry is unhashable
        raise InputError("simplex must be a sequence of points") from None
    d = len(pivots)
    if distinct != len(simplex) or distinct != d + 1:
        return 0
    if not d:
        return 1
    try:  # a sum of ints is an int; a float, a Fraction or a string makes it none
        ints = type(sum(map(sum, simplex))) is int
    except TypeError:
        ints = False
    if not ints:
        simplex = [tuple(map(_exact, p)) for p in simplex]
    if set(map(len, simplex)) != {len(rows[0])}:
        raise InputError("points must all have the same number of coordinates")
    for cols, values in kernel:
        if len({sum(map(mul, values, map(p.__getitem__, cols))) for p in simplex}) > 1:
            raise InputError("vector lies outside the lattice span")
    if kernel:  # else every column is a pivot column and V_P is V
        simplex = [list(map(p.__getitem__, pivots)) for p in simplex]
    base = simplex[0]
    edges = [list(map(sub, p, base)) for p in simplex[1:]]
    m, scale = (edges, 1) if ints else _integer_rows(edges)
    rank, last = _bareiss(m)[:2]
    vol, rest = divmod(abs(last) if len(rank) == d else 0, abs(scale * product))
    if rest:
        raise InternalCheckError("simplex volume is not integral in the chosen lattice")
    return vol


# ---------------------------------------------------------------------------
# triangulation verification


@dataclass(frozen=True)
class SampleWitness:
    """A sample point that does not lie in exactly one simplex."""

    simplex: int  # index of the simplex the point was drawn from
    point: tuple  # (num, den): the point num / den in lattice coordinates
    containing: tuple  # indices of the simplices that contain it


@dataclass
class TriangulationReport:
    simplex_count: int
    dimension: int
    volume_total: int
    expected_volume: int
    sample_count: int
    failures: list = field(default_factory=list)
    witness: SampleWitness | None = None  # set when the sample check fails; not in to_json

    @property
    def passed(self):
        return not self.failures

    def to_json(self):
        return {
            "simplex_count": self.simplex_count,
            "dimension": self.dimension,
            "volume_total": self.volume_total,
            "expected_volume": self.expected_volume,
            "sample_count": self.sample_count,
            "passed": self.passed,
            "failures": list(self.failures),
        }


def _volume_and_inverse(m):
    """|det m| of a square integer matrix, and its inverse when that is 1.

    One Gauss–Jordan elimination of [m | I] (`_bareiss`).  When m is
    nonsingular its columns hold every pivot, and the reduced pivot rows,
    read past them, are last * m^-1, with |last| = |det m|.  A pivot of -1
    is negated, so |det m| = 1 means last = 1 and the rows are m^-1.
    """
    d = len(m)
    aug = [row + [int(i == j) for j in range(d)] for i, row in enumerate(m)]
    pivots, last, _, inverse = _bareiss(aug, jordan=True)
    if pivots != list(range(d)):
        return 0, None
    if last != 1:
        return abs(last), None
    return 1, inverse


def _compile(coords, simplices, d):
    """Each simplex's normalized volume, and its barycentric rows when unimodular.

    ``simplices`` lists each simplex by its vertex ids, and ``coords[v]``
    are the lattice coordinates of vertex v.  A simplex is its homogeneous
    matrix H, whose column for vertex x is (1, x), and its rows are the rows
    of H^-1, in its own vertex order: row v is the dense tuple (c, a_1, ...,
    a_d), and the weight of v at a point b is ``c + sum(a_j * b_j)``, the
    dot product of the row with (1, b).  A walk over the dual graph gets
    them with one elimination per component.  A neighbour R + {b} of a unimodular
    simplex R + {a} has volume |lam_a|, where lam are the weights of b in
    R + {a}; when that is 1, its rows are row a times lam_a and each other
    row v minus lam_a * lam_v times row a (Sherman–Morrison).  A simplex
    reached only through non-unimodular ones starts a component of its own.
    Rows that an update leaves unchanged are shared, not copied.
    """
    masks, ridges = [], {}
    for k, s in enumerate(simplices):
        bits = {1 << v for v in s}
        if len(s) != len(bits) or len(bits) != d + 1:
            bits = set()  # repeated vertices or a wrong vertex count: volume 0
        mask = sum(bits)
        masks.append(mask)
        for bit in bits:
            ridges.setdefault(mask ^ bit, []).append(k)
    points = [(1, *p) for p in coords]
    vols = [0] * len(simplices)
    compiled = [None] * len(simplices)
    reached = [not mask for mask in masks]
    for root, s in enumerate(simplices):
        if reached[root]:
            continue
        reached[root] = True
        vols[root], inv = _volume_and_inverse([list(r) for r in zip(*map(points.__getitem__, s))])
        if inv is None:
            continue
        compiled[root] = list(map(tuple, inv))
        stack = [root]
        while stack:
            k = stack.pop()
            rows = dict(zip(simplices[k], compiled[k]))
            for a, row_a in rows.items():
                ridge = masks[k] ^ (1 << a)
                for t in ridges[ridge]:
                    if reached[t]:
                        continue
                    reached[t] = True
                    b = (masks[t] ^ ridge).bit_length() - 1
                    h = points[b]
                    f = sum(map(mul, row_a, h))
                    vols[t] = abs(f)
                    if vols[t] != 1:
                        continue
                    # b == a when t repeats this simplex's vertex set
                    new = {b: row_a if f == 1 else tuple(-x for x in row_a)}
                    for v, row in rows.items():
                        if v != a:
                            g = f * sum(map(mul, row, h))
                            new[v] = tuple(x - g * y for x, y in zip(row, row_a)) if g else row
                    compiled[t] = [new[v] for v in simplices[t]]
                    stack.append(t)
    return vols, compiled


def _locator(compiled, coords):
    """A function of a simplex's vertex ids and weights on them that gives
    the mask of the simplices of `_compile` containing that point.

    Row v of a unimodular simplex's H^-1 is the primitive affine functional
    of its facet hyperplane opposite v, and a triangulation's simplices share
    most of those (K8 DKK: 129,360 rows, 110 distinct), so each distinct row
    r is kept once, with the mask of the simplices that have it.  Vertex v
    packs its values as digits, Q_v = sum(lam_r(x_v) * 2**(width * r)), and
    digit r of sum(w_v * Q_v) is sum(w_v) * lam_r at the point.  The rows are
    bounded on the box that the vertices span, and the d + 1 weights w_v (as
    many as a simplex has rows) by 10**6, so a bias of 2**(width - 1) keeps
    every digit in range: none carries, and its top bit is set exactly when
    the row is not negative there.  A last digit 1 fixes the length of the
    sum's binary string.
    """
    index = {}
    for k, rows in enumerate(compiled):
        for row in rows:
            index[row] = index.get(row, 0) | 1 << k
    lo, hi = [list(map(f, zip(*coords))) for f in (min, max)]
    # each row's least and greatest value on the box [lo, hi], which holds every vertex
    ends = [
        c + sum(map(f, map(mul, a, lo), map(mul, a, hi))) for c, *a in index for f in (min, max)
    ]
    width = (len(compiled[0]) * 10**6 * max(map(abs, ends))).bit_length() + 1
    columns = [sum(a << width * r for r, a in enumerate(col)) for col in zip(*index)]
    packed = [sum(map(mul, (1, *x), columns)) for x in coords]
    bias = int("1" + ("1" + "0" * (width - 1)) * len(index), 2)

    def locate(simplex, weights):
        total = sum(map(mul, weights, map(packed.__getitem__, simplex)), bias)
        outside = 0  # the top bit of digit r is char -width * (r + 1)
        for mask, sign in zip(index.values(), f"{total:b}"[-width::-width]):
            if sign == "0":
                outside |= mask
        return (1 << len(compiled)) - 1 & ~outside

    return locate


def _below(getrandbits, n):
    """``randrange(n)``, by its rejection loop on a `random.Random`'s
    ``getrandbits``: the same stream as its ``randrange`` and ``randint``."""
    k = n.bit_length()
    r = getrandbits(k)
    while r >= n:
        r = getrandbits(k)
    return r


def triangulation_checks(polytope_vertices, simplices, expected_volume):
    """Sanity-check a claimed triangulation of conv(polytope_vertices).

    Verifies vertex membership, unimodularity of each simplex, the total
    volume against an independently computed value, and that each of 200
    seeded interior sample points lies in exactly one simplex.  The vertices
    are made exact first (`_exact`), so the report holds no float, and each
    simplex vertex is looked up once, as its id in the vertex list.  Every
    sample is decided against every simplex by exact integer barycentric
    weights: the rows of the inverse of the simplex's homogeneous matrix H,
    whose columns are (1, x) over its vertices x in lattice coordinates,
    from one elimination per component of the dual graph and a rank-one
    update across each shared ridge (`_compile`).  A sample is a simplex and
    weights drawn as ``randrange`` and ``randint`` draw them (`_below`), and
    one sum of packed ints evaluates every distinct row there (`_locator`).
    When a sample lies in none or several simplices, the report's
    ``witness`` holds it and the simplices that contain it.

    The samples are drawn only from the listed simplices, so a region that
    no simplex covers is never sampled: only the volume total catches a
    missing simplex.
    """
    expected_volume = _nonnegative(expected_volume, "expected volume")
    vertices = _points(polytope_vertices)
    basis = _basis(vertices)
    d = len(basis)
    # a simplex vertex such as (1.0, 0) finds the id of its equal vertex
    ids = {p: v for v, p in enumerate(vertices)}
    simplices = list(simplices)
    failures = []
    for idx, s in enumerate(simplices):
        try:
            simplices[idx] = simplex = [ids.get(tuple(p)) for p in s]
        except TypeError:  # s or a point is not iterable, or an entry is unhashable
            raise InputError(f"simplex {idx} must be a sequence of points") from None
        extra = simplex.count(None)
        if extra:
            failures.append(f"simplex {idx}: {extra} vertices are not polytope vertices")

    total = samples = 0
    witness = None
    if not failures:
        # per id, integer lattice coordinates relative to vertices[0]
        coords = [coordinates_in_basis(basis, v) for v in _differences(vertices, vertices[0])]
        vols, compiled = _compile(coords, simplices, d)
        total = sum(vols)
        for idx, vol in enumerate(vols):
            if vol != 1:
                failures.append(f"simplex {idx}: normalized volume {vol}, expected 1")
        if total != expected_volume:
            failures.append(f"volume total {total} != expected {expected_volume}")
        if not failures and simplices:
            getrandbits = random.Random(SAMPLE_SEED).getrandbits
            locate = _locator(compiled, coords)
            for samples in range(1, SAMPLE_COUNT + 1):
                idx = _below(getrandbits, len(simplices))
                weights = [1 + _below(getrandbits, 10**6) for _ in range(d + 1)]
                inside = locate(simplices[idx], weights)
                if inside.bit_count() != 1:
                    containing = [k for k in range(len(simplices)) if inside >> k & 1]
                    failures.append(f"sample from simplex {idx} lies in simplices {containing}")
                    columns = zip(*map(coords.__getitem__, simplices[idx]))
                    num = tuple(sum(map(mul, weights, col)) for col in columns)
                    witness = SampleWitness(idx, (num, sum(weights)), tuple(containing))
                    break

    return TriangulationReport(
        simplex_count=len(simplices),
        dimension=d,
        volume_total=total,
        expected_volume=expected_volume,
        sample_count=samples,
        failures=failures,
        witness=witness,
    )
