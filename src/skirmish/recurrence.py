"""Reference solver: exact win probability by collision recurrence.

Conditioning on the first collision removes one particle: with front
speeds a and b, side A keeps its particle with probability a/(a+b) and the
duel continues one B short, otherwise one A short.  Tabulating that
recurrence over suffix pairs of the two speed lists costs O(m*n) exact
operations.  Every other solver in this package is checked against this
one.

`p_a_wins_recursive` runs the recurrence fraction-free, in the manner of
Bareiss's integer-preserving elimination.  On integer speeds (same ratios),
P(i, j) for the suffix duel a[i:] versus b[j:] is a sum over paths from
cell (i, j) to the boundary of products of step probabilities, and a step
out of cell (i, j) has denominator a_i + b_j.  Every step raises i + j by
one, so a path leaves each anti-diagonal i + j = d at most once, and

    D = prod_{d=0..m+n-2} lcm{a_i + b_j : i + j = d}

is a multiple of every path product's denominator.  Hence N(i, j) =
P(i, j) * D is an integer in every cell, and each step of

    N(i, j) = (a_i * N(i, j+1) + b_j * N(i+1, j)) / (a_i + b_j)

is an exact integer division.  The only reduction is Fraction(N(0, 0), D).
"""

from __future__ import annotations

import math
from fractions import Fraction

from .model import Instance


def fill_table(inst: Instance) -> dict[tuple[int, int], Fraction]:
    """The full-table oracle: each suffix duel a[i:] versus b[j:] as a Fraction.

    The key (i, j) means i A-particles and j B-particles are already dead;
    (m, n) is absent, since the empty-vs-empty duel has no defined winner,
    and (0, 0) is P(A wins).  This is the recurrence read literally, one
    Fraction per cell, kept so that tests can check `p_a_wins_recursive`
    and the table itself against it; no solver calls it.
    """
    a, b = inst.a, inst.b
    m, n = len(a), len(b)
    memo: dict[tuple[int, int], Fraction] = {}
    for i in range(m, -1, -1):
        for j in range(n, -1, -1):
            if i == m and j == n:
                continue
            if j == n:
                memo[i, j] = Fraction(1)
            elif i == m:
                memo[i, j] = Fraction(0)
            else:
                p_front = a[i] / (a[i] + b[j])
                memo[i, j] = p_front * memo[i, j + 1] + (1 - p_front) * memo[i + 1, j]
    return memo


def path_denominator(a: tuple[int, ...], b: tuple[int, ...]) -> int:
    """D: the product over anti-diagonals of the lcm of their a_i + b_j."""
    m, n = len(a), len(b)
    return math.prod(
        math.lcm(*(a[i] + b[d - i] for i in range(max(0, d - n + 1), min(d, m - 1) + 1)))
        for d in range(m + n - 1)
    )


def p_a_wins_recursive(inst: Instance) -> Fraction:
    """Exact probability that side A annihilates all of side B."""
    a, b = inst.integer_speeds()
    if not b:
        return Fraction(1)
    denominator = path_denominator(a, b)
    # row[j] holds N(i+1, j) until cell (i, j) overwrites it with N(i, j).
    row = [0] * len(b)
    for i in range(len(a) - 1, -1, -1):
        ai = a[i]
        right = denominator
        for j in range(len(b) - 1, -1, -1):
            bj = b[j]
            right, remainder = divmod(ai * right + bj * row[j], ai + bj)
            if remainder:
                raise AssertionError(
                    f"inexact division at cell ({i}, {j}): "
                    "the path denominator does not clear this cell"
                )
            row[j] = right
    return Fraction(row[0], denominator)
