"""Reference solver: exact win probability by collision recurrence.

Conditioning on the first collision removes one particle: with front
speeds a and b, side A keeps its particle with probability a/(a+b) and the
duel continues one B short, otherwise one A short.  Tabulating that
recurrence over suffix pairs of the two speed lists costs O(m*n) exact
operations.  Every other solver in this package is checked against this
one.

`p_a_wins_recursive` runs the recurrence fraction-free, in the manner of
Bareiss's integer-preserving elimination.  On integer speeds (same ratios),
a step out of cell (i, j) has denominator a_i + b_j, and each cell holds
the integer N(i, j) = P(i, j) * S for its band's scale S:

    N(i, j) = (a_i * N(i, j+1) + b_j * N(i+1, j)) / (a_i + b_j)

The only reduction is Fraction(N(0, 0), S).  The sweep starts at the scale
|guess|, or at 1 with no guess; `verify` guesses the denominator of the
answer it checks, about the width of the cells' own denominators.  Where a
division leaves a remainder r, the band widens: it multiplies every live
value, and its scale, by g = s / gcd(s, r) for the cell's sum s, the least
factor that makes that cell exact.  Before and after a widening every cell
is exactly P(i, j) times its band's scale, since all of them are
multiplied by the same g, so the sweep returns P(0, 0) from any start,
right or wrong: a guess changes only how often the sweep widens, and so
its speed, never the value.  Each widening makes the scale the lcm of the
start and of the denominators met so far.

Cell (i, j) needs only its right neighbour (i, j+1) and the one below,
(i+1, j), so the table is swept column by column from the right, in
bands of rows.  A band of rows lo..hi-1 keeps one column of its own cells
and needs from outside only the row just below it, N(hi, j), one column
at a time; after each column it hands on its top row, N(lo, j), with the
factor by which its scale has grown.  The band above widens itself and
that value to the lcm of the two scales before it uses it.  The whole
table is one band over a row of zeros.  The bands run through
`streams.in_processes`, one band to each process it grants: the top band
in the caller, and each band below it in a forked child that streams its
top row up a pipe to the band above, so all bands work at once, one
column apart.  A table asks for one band per BAND_WORK of its work, cells
times the bits of the starting scale, and never more bands than rows.
A table that asks for fewer than two is one band, swept in the caller
without the runner: only a sweep that forks loads `streams`, and a sweep
from 1 never does.  Every band clears the same cells, so the value does not
depend on the split.
"""

from __future__ import annotations

import math
from collections import deque
from collections.abc import Iterable, Iterator
from fractions import Fraction
from functools import partial
from itertools import chain, repeat

from .model import Instance

# The least work, in cells times the bits of the starting scale, that pays
# for a band of its own.  A fork in a fresh `skirmish solve` costs about as
# much as 18 million bit-cells of sweeping, and two bands broke even with
# one at 35-45 million (Python 3.11, 2-core Xeon; distinct speeds in 1..5000
# at 44v44 to 48v48, equal ones at 140v140).  So a table forks from twice
# this size on: seeded distinct speeds in 1..5000 reach it at 75v75 from the
# answer's width, where `verify` starts.  The bands pay there: on the
# benchmark's seed-901 `exact-distinct` duels, fresh `solve` processes took
# 127 against 153 ms with one band forced at 80v80, and 231 against 278 ms
# at 120v120 (medians of 16 alternating pairs).
BAND_WORK = 1 << 25


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


def p_a_wins_recursive(inst: Instance, guess: int | None = None) -> Fraction:
    """Exact probability that side A annihilates all of side B.

    `guess`, a denominator the value is expected to have, sets the scale
    the sweep starts at, |guess|, and changes only the sweep's speed.  None
    or 0 starts at 1.
    """
    a, b = inst.integer_speeds()
    if not b:
        return Fraction(1)
    scale = abs(guess or 1)
    bands = min(len(a), len(a) * len(b) * scale.bit_length() // BAND_WORK)
    if bands < 2:
        value, growth = _banded_sweep(a, b, scale, 1, None)
    else:
        from .streams import in_processes

        value, growth = in_processes(bands, partial(_banded_sweep, a, b, scale))
    return Fraction(value, scale * growth)


def _sweep(
    a, b, lo: int, hi: int, scale: int, below: Iterable[tuple[int, int]]
) -> Iterator[tuple[int, int]]:
    """(N(lo, j), growth) for j = n-1 down to 0: rows lo..hi-1 of the table, column by column.

    Each cell holds P(i, j) * scale * growth, where growth, from 1, is how
    far the band has widened its scale.  `below` yields (N(hi, j), growth)
    in the same order: the top row of the band below, or (0, 1) when
    hi = m.  It is read one column ahead of the work on that column, and
    no further.
    """
    # column[k] holds N(hi-1-k, j+1) until cell (hi-1-k, j) overwrites it
    # with N(hi-1-k, j); the column right of the table is N(i, n) = scale.
    column = [scale] * (hi - lo)
    band = a[lo:hi][::-1]
    growth = 1
    for j, (down, under) in zip(range(len(b) - 1, -1, -1), below):
        if under != growth:  # both sides widen to the lcm of the two scales
            wide = math.lcm(growth, under)
            down *= wide // under
            if wide != growth:
                column = [value * (wide // growth) for value in column]
                growth = wide
        bj = b[j]
        for k, ai in enumerate(band):
            down, remainder = divmod(ai * column[k] + bj * down, ai + bj)
            if remainder:
                # Widen every live value by the least g that clears this cell.
                common = math.gcd(ai + bj, remainder)
                g = (ai + bj) // common
                growth *= g
                column = [value * g for value in column]
                down = down * g + remainder // common
            column[k] = down
        yield down, growth


def _banded_sweep(a, b, scale: int, bands: int, start) -> tuple[int, int]:
    """(N(0, 0), growth) from the top band, with every band below it swept in a child from `start`.

    Band t holds rows bounds[t]..bounds[t+1]-1.  Its child reads `below`
    from the pipe of band t+1 and writes its own top row into a pipe to
    band t-1, column by column, each value followed by its growth, so that
    all bands run at once, one column apart.  The parent closes each pipe
    once the child that reads it exists.  One band forks nothing and needs
    no `start`.
    """
    bounds = [len(a) * t // bands for t in range(bands + 1)]
    below, pipe = repeat((0, 1)), None
    for t in range(bands - 1, 0, -1):
        # Here, not at the top: one band must not load `streams`.
        from .streams import frames

        held = pipe
        # Made here, it sweeps nothing until the child first advances it.
        top_row = _sweep(a, b, bounds[t], bounds[t + 1], scale, below)
        pipe = start(partial(chain.from_iterable, top_row))
        if held is not None:
            held.close()
        values = frames(pipe)
        below = zip(values, values)
    return deque(_sweep(a, b, 0, bounds[1], scale, below), maxlen=1).pop()
