"""Check the Lidskii Ehrhart polynomial of a staircase's flow graph against
Proctor's product formula.

For the staircase poset of order n (default 8), the flow graph G_P of its
planar drawing has a flow polytope of dimension d = n(n - 1)/2 whose
lattice-point counts are the ASM-CRY Ehrhart values proctor_ehrhart(n, t).
The script takes the Lidskii coefficients c_k of G_P, with
L(t) = sum_k c_k * C(t + o_1, k), and compares L(t) with
proctor_ehrhart(n, t) at t = 0..d + 1.  It skips the Kostant DP at
t = d + 1 that flow_ehrhart_polynomial adds as its check, which alone
costs several times the coefficients at order 8.  It prints the time taken
and exits 1 on a mismatch.

    PYTHONPATH=src python scripts/check_lidskii_staircase.py [n]
"""

import sys
import time
from math import comb

from flowpoly import poset_to_flow_graph, proctor_ehrhart, staircase_star
from flowpoly.kostant import _lidskii_coefficients


def main(n):
    start = time.perf_counter()
    o_1, coefficients = _lidskii_coefficients(poset_to_flow_graph(*staircase_star(n)).graph)
    d = len(coefficients) - 1
    bad = [
        t
        for t in range(d + 2)
        if sum(c * comb(t + o_1, k) for k, c in enumerate(coefficients)) != proctor_ehrhart(n, t)
    ]
    elapsed = time.perf_counter() - start
    print(f"staircase {n}: degree {d}, t = 0..{d + 1}, {len(bad)} mismatches, {elapsed:.2f} s")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(int(sys.argv[1]) if len(sys.argv) > 1 else 8))
