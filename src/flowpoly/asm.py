"""Alternating sign matrices, the near-diagonal faces P_lambda(n), and the
corner-sum map onto order polytopes of skew-staircase posets.

P_lambda(n) is the face of the ASM polytope cut out by forcing zeros below
the first subdiagonal (i - j >= 2) and on the cells of lambda justified to
the upper right corner; one membership test reads that definition for
is_asm, validate_in_p_lambda and the vertex self-check.  The corner-sum map
g(i,j) = 1 - sum_{i'<=i, j'>=j} m_{i'j'} identifies it with the order
polytope of the skew staircase poset.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import comb

from .errors import InputError, InternalCheckError, _exact, _integers
from .geometry import affine_dimension
from .kostant import flow_ehrhart_value, flow_polytope_volume
from .planar import poset_to_flow_graph
from .posets import (
    count_linear_extensions,
    order_polynomial,
    skew_star,
    staircase_cells,
    validate_staircase_partition,
)
from .triangulations import _clique_masks


def _membership_failure(m, zeros=()):
    """Why the square matrix m is not in P_lambda(n), or None: a nonzero
    entry on a cell of zeros (1-based), then a row, then a column whose
    partial sums leave [0, 1] or do not end at 1."""
    for (i, j) in zeros:
        if m[i - 1][j - 1] != 0:
            return f"entry ({i},{j}) must be zero for this shape"
    for kind, lines in (("row", m), ("column", zip(*m))):
        for k, line in enumerate(lines, start=1):
            s = 0
            for x in line:
                s += x
                if not 0 <= s <= 1:
                    return f"{kind} {k} has a partial sum outside [0,1]"
            if s != 1:
                return f"{kind} {k} does not sum to 1"


def is_asm(m):
    """Alternating-sign test: entries in {-1,0,1}, and a point of P_()(n)."""
    n = len(m)
    if any(len(row) != n for row in m) or any(x not in (-1, 0, 1) for row in m for x in row):
        return False
    return _membership_failure(m) is None


def zero_pattern(n, lam=()):
    """Forced-zero cells of P_lambda(n): the lower band and lambda's cells."""
    (n,) = _integers((n,), "matrix size must be an integer")
    if n < 1:
        raise InputError("matrix size must be positive")
    lam = validate_staircase_partition(n, lam)
    zeros = {(i, j) for i in range(1, n + 1) for j in range(1, n + 1) if i - j >= 2}
    for i, part in enumerate(lam, start=1):
        for j in range(n - part + 1, n + 1):
            zeros.add((i, j))
    return zeros


def _free_cells(n, zeros):
    """Row i's free cells (0-based columns of cells not forced to zero), and
    the columns whose sum is final after row i: their last free cell is in
    row i, or, for a column with no free cell, row i is the last row."""
    free = {i: [j for j in range(n) if (i, j + 1) not in zeros] for i in range(1, n + 1)}
    last_row = dict.fromkeys(range(n), n) | {j: i for i in free for j in free[i]}
    done = {i: [j for j in range(n) if last_row[j] == i] for i in free}
    return free, done


def enumerate_asm(n, zeros=frozenset()):
    """All n x n alternating sign matrices (with optional forced zeros).

    zeros holds cells (i, j), 1 <= i, j <= n; anything else is refused.
    A depth-first walk over the free cells in row-major order that tries
    every entry keeping each partial row and column sum in [0, 1], and
    keeps a row that ends at sum 1 with every column whose sum is final
    after it also at 1.  It fixes no entry ahead, unlike
    asm_dilation_count, so it stays an independent oracle for that DP at
    t = 1.
    """
    (n,) = _integers((n,), "matrix size must be an integer")
    if n < 1:
        raise InputError("matrix size must be positive")
    message = f"zeros must be cells (i, j) with 1 <= i, j <= {n}"
    try:
        zeros = {_integers(cell, message) for cell in zeros}
    except TypeError:  # zeros is not iterable
        raise InputError(message) from None
    if any(len(cell) != 2 or not (0 < cell[0] <= n and 0 < cell[1] <= n) for cell in zeros):
        raise InputError(message)
    free, done = _free_cells(n, zeros)
    rows = [[0] * n for _ in range(n)]
    cols = [0] * n
    out = []

    def place(i, k, r):
        # the k-th free cell of row i, with row partial sum r
        if k == len(free[i]):
            if r != 1 or any(cols[j] != 1 for j in done[i]):
                return
            if i == n:
                out.append(tuple(map(tuple, rows)))
            else:
                place(i + 1, 0, 0)
            return
        j = free[i][k]
        c = cols[j]
        for a in range(max(-r, -c), 1 - max(r, c) + 1):
            rows[i - 1][j], cols[j] = a, c + a
            place(i, k + 1, r + a)
        rows[i - 1][j], cols[j] = 0, c

    place(1, 0, 0)
    del place  # breaks its self-reference, so the walk's state is freed on return
    out.sort()
    return out


def p_lambda_vertices(n, lam=()):
    """Vertices of P_lambda(n), its integer points, each checked for membership."""
    zeros = zero_pattern(n, lam)
    verts = enumerate_asm(n, frozenset(zeros))
    for m in verts:
        integral = all(isinstance(x, int) for row in m for x in row)
        failure = _membership_failure(m, zeros) if integral else "an entry is not an integer"
        if failure:
            raise InternalCheckError(f"generator produced a matrix outside P_lambda(n): {failure}")
    return verts


def validate_in_p_lambda(n, lam, m):
    """Membership test for (rational) matrices in P_lambda(n)."""
    zeros = zero_pattern(n, lam)  # refuses n < 1 before the shape check
    if len(m) != n or any(len(row) != n for row in m):
        raise InputError(f"matrix is not {n}x{n}")
    m = tuple(tuple(Fraction(_exact(x)) for x in row) for row in m)
    failure = _membership_failure(m, zeros)
    if failure:
        raise InputError(failure)
    return m


def corner_sum_map(n, lam, m):
    """g(i,j) = 1 - sum of entries weakly above and weakly right of (i,j).

    Maps P_lambda(n) into the order polytope of the skew staircase poset;
    the output is checked to be order preserving with values in [0,1].
    """
    m = validate_in_p_lambda(n, lam, m)
    cells = staircase_cells(n, lam)
    g = {}
    for (i, j) in cells:
        corner = sum(m[a][b] for a in range(i) for b in range(j - 1, n))
        g[(i, j)] = 1 - corner
    poset, _ = skew_star(n, lam)
    for (a, b) in poset.covers:
        if g[a] > g[b]:
            raise InternalCheckError(f"corner sums not order preserving at {a} <= {b}")
    if any(not 0 <= v <= 1 for v in g.values()):
        raise InternalCheckError("corner sums leave the unit interval")
    return g


def asm_dilation_count(n, lam, t):
    """Integer matrices in t * P_lambda(n), by a cell-by-cell transfer DP.

    One dict maps a state to a count and advances one free cell at a time,
    in row-major order; forced-zero cells change no sum and are skipped.
    The state is one int in base B = t + 2: digit j holds column j's
    partial sum and digit n the row's partial sum.  The entry range keeps
    every partial sum in [0, t], so no digit carries; an entry a adds
    a * (B^j + B^n).  The last free cell of a row takes t - r, and the last
    free cell of a column t - c, for partial sums r and c: a state is kept
    only if that entry is in range (c <= r at a row's last cell, r <= c at
    a column's, c = r at a cell that is both), so every state can close.
    At the end of a row its sum is t and the row digit restarts at 0; a row
    or column with no free cell never reaches t.  The answer is the count
    of the all-t state.
    """
    n, t = _integers((n, t), "matrix size and dilation factor must be integers")
    if t < 0:
        raise InputError("dilation factor must be nonnegative")
    free, done = _free_cells(n, zero_pattern(n, lam))  # refuses n < 1
    base = t + 2
    place = [base**j for j in range(n + 1)]
    row = place[n]
    full = t * row
    states = {0: 1}
    for i in range(1, n + 1):
        for j in free[i]:
            col, step = place[j], place[j] + row
            # where the cell ends its row (column) its lowest entry is t - r
            # (t - c), the one entry that brings that sum to t
            row_end, col_end = t * (j == free[i][-1]), t * (j in done[i])
            advanced = {}
            get = advanced.get
            for key, k in states.items():
                c, r = key // col % base, key // row
                # the entry range, without two builtin calls per state
                low = row_end - r if row_end - r > col_end - c else col_end - c
                high = c if c > r else r
                for nxt in range(key + low * step, key + (t - high) * step + 1, step):
                    advanced[nxt] = get(nxt, 0) + k
            states = advanced
        # drop the row sum, t unless the row has no free cell
        states = {key - full: k for key, k in states.items() if key // row == t}
    return states.get(t * sum(place[:n]), 0)


def proctor_ehrhart(n, t):
    """prod_{1<=i<j<=n} (2t+i+j-1)/(i+j-1), asserted to be an integer."""
    n, t = _integers((n, t), "matrix size and dilation factor must be integers")
    if t < 0:
        raise InputError("dilation factor must be nonnegative")
    if n < 1:
        raise InputError("matrix size must be positive")
    value = Fraction(1)
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            value *= Fraction(2 * t + i + j - 1, i + j - 1)
    if value.denominator != 1:
        raise InternalCheckError("product formula did not give an integer")
    return int(value)


# ---------------------------------------------------------------------------
# independent counting helpers for the family's corollaries


def dyck_path_count(n, max_height=None):
    """Dyck paths of semilength n staying weakly below max_height."""
    if max_height is None:
        max_height = n
    counts = [1] + [0] * max_height  # paths so far ending at each height
    for _ in range(2 * n):
        padded = [0, *counts, 0]
        counts = [padded[h] + padded[h + 2] for h in range(max_height + 1)]
    return counts[0]


def euler_zigzag(k):
    """Number of alternating permutations a_1 < a_2 > a_3 < ... of [k]."""
    if k == 0:
        return 1
    count = 0
    for perm in itertools.permutations(range(1, k + 1)):
        ok = all(
            (perm[i] < perm[i + 1]) == (i % 2 == 0) for i in range(k - 1)
        )
        count += ok
    return count


def catalan(n):
    return comb(2 * n, n) // (n + 1)


# ---------------------------------------------------------------------------
# the orchestrated report


@dataclass
class FamilyReport:
    n: int
    lam: tuple
    vertex_count: int
    dimension: int
    expected_dimension: int
    volume_by_extensions: int
    volume_by_kostant: int
    volume_by_dkk_count: int
    ehrhart_values: tuple  # asm_dilation_count at t = 0..3
    all_consistent: bool

    def to_json(self):
        return {
            "n": self.n,
            "lambda": list(self.lam),
            "vertex_count": self.vertex_count,
            "dimension": self.dimension,
            "expected_dimension": self.expected_dimension,
            "volume_by_extensions": self.volume_by_extensions,
            "volume_by_kostant": self.volume_by_kostant,
            "volume_by_dkk_count": self.volume_by_dkk_count,
            "ehrhart_values": list(self.ehrhart_values),
            "all_consistent": self.all_consistent,
        }


def family_report(n, lam=()):
    """Cross-checked summary of P_lambda(n) through all three polytope models."""
    lam = validate_staircase_partition(n, lam)
    verts = p_lambda_vertices(n, lam)
    flat = [tuple(x for row in m for x in row) for m in verts]
    dim = affine_dimension(flat)
    expected_dim = comb(n, 2) - sum(lam)
    poset, emb = skew_star(n, lam)
    pg = poset_to_flow_graph(poset, emb)
    vol_ext = count_linear_extensions(poset)
    vol_kostant = flow_polytope_volume(pg.graph)
    vol_dkk = len(_clique_masks(pg.graph, pg.framing)[2])
    ehrhart = tuple(asm_dilation_count(n, lam, t) for t in range(4))
    consistent = (
        dim == expected_dim
        and vol_ext == vol_kostant == vol_dkk
        and len(verts) == ehrhart[1]
        and all(
            value == order_polynomial(poset, t + 1) == flow_ehrhart_value(pg.graph, t)
            for t, value in enumerate(ehrhart)
        )
        and (lam != () or all(value == proctor_ehrhart(n, t) for t, value in enumerate(ehrhart)))
    )
    return FamilyReport(
        n=n,
        lam=lam,
        vertex_count=len(verts),
        dimension=dim,
        expected_dimension=expected_dim,
        volume_by_extensions=vol_ext,
        volume_by_kostant=vol_kostant,
        volume_by_dkk_count=vol_dkk,
        ehrhart_values=ehrhart,
        all_consistent=consistent,
    )
