"""The reference solver, its full-table oracle and the one-A product."""

import math
from fractions import Fraction
from itertools import repeat

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from skirmish import (
    Instance,
    InvalidInstance,
    p_a_wins_recursive,
    recurrence,
    solve,
    streams,
)
from skirmish.recurrence import _sweep, fill_table

from conftest import (
    SOLVE_FORKING_SIZE,
    grouped_instances,
    huge_rational_speeds,
    instances,
    seeded_duel,
    speed_lists,
    speeds,
)
from oracles import expand, p_a_wins_single_a


class TestKnownValues:
    @pytest.mark.parametrize(
        "a, b, expected",
        [
            ((1,), (1,), Fraction(1, 2)),
            ((30, 20), (15, 36), Fraction(270, 539)),
            ((2, 1), (1,), Fraction(5, 6)),
            ((1,), (1, 1), Fraction(1, 4)),
            ((15, 36), (12, 40), Fraction(314, 627)),
            ((12, 40), (20, 30), Fraction(293, 588)),
        ],
    )
    def test_values(self, a, b, expected):
        assert p_a_wins_recursive(Instance(a, b)) == expected

    def test_base_cases(self):
        assert p_a_wins_recursive(Instance((5,), ())) == 1
        assert p_a_wins_recursive(Instance((), (5,))) == 0
        with pytest.raises(InvalidInstance):
            p_a_wins_recursive(Instance((), ()))


class TestDpTable:
    def test_entries_satisfy_recurrence(self):
        inst = Instance((3, 1, 4), (1, 5))
        table = fill_table(inst)
        m, n = len(inst.a), len(inst.b)
        assert len(table) == (m + 1) * (n + 1) - 1
        for (i, j), value in table.items():
            if j == n:
                assert value == 1
            elif i == m:
                assert value == 0
            else:
                p = inst.a[i] / (inst.a[i] + inst.b[j])
                assert value == p * table[i, j + 1] + (1 - p) * table[i + 1, j]

    def test_no_recursion_depth_dependence(self):
        # 80 vs 80 equal speeds: 6561 exact entries, still instant.
        inst = Instance((1,) * 80, (1,) * 80)
        assert p_a_wins_recursive(inst) == Fraction(1, 2)


EXTREME_SPEEDS = [
    pytest.param(Instance(("1e400", "1", "1e-400"), ("1e-400", "3", "1e400")), id="1e400-mixed"),
    pytest.param(Instance(("1e-400",), ("1e-400", "1e400")), id="1e-400-lone-a"),
    pytest.param(
        Instance(huge_rational_speeds(3, 300, 1), huge_rational_speeds(4, 300, 2)),
        id="300-digit-rationals",
    ),
    pytest.param(seeded_duel(40), id="40v40-integers"),
]


def assert_sweeps_match_full_table(inst):
    """The sweep from 1 and the one from the answer's denominator both give the oracle's value."""
    value = fill_table(inst)[0, 0]
    assert p_a_wins_recursive(inst) == p_a_wins_recursive(inst, value.denominator) == value


# One side of an integer duel: one to five speeds up to 10^6, repeats
# included, so that a duel's sums a_i + b_j lie below 2^16, above it, or both.
mixed_duels = st.lists(
    st.one_of(st.integers(1, 60), st.integers(1 << 16, 10**6)), min_size=1, max_size=5
)


class TestFractionFreeKernel:
    """The integer kernel against the full-table Fraction oracle, from 1 or the answer's width."""

    @given(instances(min_side=0))
    def test_matches_full_table(self, inst):
        assert_sweeps_match_full_table(inst)

    @given(grouped_instances().map(expand))
    @settings(max_examples=25, deadline=None)
    def test_matches_full_table_with_repeated_speeds(self, inst):
        assert_sweeps_match_full_table(inst)

    @pytest.mark.parametrize("inst", EXTREME_SPEEDS)
    def test_extreme_speeds(self, inst):
        assert_sweeps_match_full_table(inst)

    @given(mixed_duels, mixed_duels)
    @example([1, 9001], [1])
    @example([70000, 3], [1 << 16, 5, 5])
    def test_matches_full_table_with_sums_around_2_16(self, a, b):
        assert_sweeps_match_full_table(Instance(tuple(a), tuple(b)))

    # Starts short of the value's denominator 18004 = 2^2 * 7 * 643 on
    # (1, 9001) vs (1,): half of it, 1, its odd part, and it over its
    # largest prime factor.  Each leaves a cell with a remainder.
    @pytest.mark.parametrize(
        "start", [9002, 1, 4501, 28], ids=["half", "one", "odd-part", "short-prime"]
    )
    def test_short_start_widens_to_the_value(self, start):
        inst = Instance((1, 9001), (1,))
        answer = fill_table(inst)[0, 0]
        a, b = inst.integer_speeds()
        value, growth = list(_sweep(a, b, 0, len(a), start, repeat((0, 1))))[-1]
        # The sweep widens just to the value's denominator, and is exact.
        assert growth > 1
        assert start * growth == answer.denominator
        assert Fraction(value, start * growth) == answer == p_a_wins_recursive(inst, start)


def band_rows(inst, bands, guess=None):
    """The starting scale and each band's top row, from `bands` chained _sweep generators.

    A row holds (N(lo, j), growth) pairs, so that N(lo, j) / (scale * growth)
    is P(lo, j).  The rows split as the forked path splits them, except that
    here a band may be empty: a band of no rows passes the row below it
    straight up.  The scale starts as `p_a_wins_recursive(inst, guess)` starts it.
    """
    a, b = inst.integer_speeds()
    scale = abs(guess or 1)
    bounds = [len(a) * t // bands for t in range(bands + 1)]
    rows = [[] for _ in range(bands)]

    def recorded(values, row):
        for value in values:
            row.append(value)
            yield value

    below = repeat((0, 1))
    for t in range(bands - 1, -1, -1):
        rows_t = _sweep(a, b, bounds[t], bounds[t + 1], scale, below)
        below = recorded(rows_t, rows[t])
    for _ in below:
        pass
    return scale, bounds, rows


class TestRowBands:
    """The band split of the reference, chained in process: no fork, so any thread count."""

    @given(instances(min_side=0), st.integers(1, 4))
    @example(Instance((3,), (1, 5)), 1)
    @example(Instance((3,), (1, 5)), 4)
    @example(Instance((3, 1), (2,)), 2)
    @example(Instance((3, 1, 4), ()), 3)
    @example(Instance((), (2, 7)), 2)
    def test_every_band_streams_its_top_row(self, inst, bands):
        scale, bounds, rows = band_rows(inst, bands)
        table = fill_table(inst)
        n = len(inst.b)
        for lo, row in zip(bounds, rows):
            assert [Fraction(value, scale * growth) for value, growth in row] == [
                table[lo, j] for j in range(n - 1, -1, -1)
            ]

    @pytest.mark.parametrize("bands", [2, 3, 4])
    @pytest.mark.parametrize("inst", EXTREME_SPEEDS)
    def test_extreme_speeds(self, inst, bands):
        scale, _, rows = band_rows(inst, bands)
        value, growth = rows[0][-1]
        assert Fraction(value, scale * growth) == fill_table(inst)[0, 0]


def guess_for(kind, value, inst, multiple, number):
    """A guess of the `kind` in GUESSES for the true value of `inst`."""
    d = value.denominator
    if kind == "answer":
        return d
    if kind == "one":
        return 1
    if kind == "multiple":
        return d * multiple
    if kind == "prime-removed":
        # Every prime of d divides some sum a_i + b_j of the integer speeds.
        a, b = inst.integer_speeds()
        for s in sorted({ai + bj for ai in a for bj in b}):
            if (common := math.gcd(s, d)) > 1:
                return d // next(
                    (p for p in range(2, math.isqrt(common) + 1) if common % p == 0), common
                )
        return d
    if kind == "random":
        return number
    return 2**4000


GUESSES = ("answer", "one", "multiple", "prime-removed", "random", "huge")


class TestGuessedScale:
    """The sweep from |guess|, widened where a cell needs it: no guess changes the value."""

    @given(
        instances(min_side=0),
        st.integers(1, 4),
        st.sampled_from(GUESSES),
        st.integers(2, 10**6),
        st.integers(-(10**40), 10**40),
    )
    @example(Instance((3, 1, 4), (1, 5)), 2, "one", 2, 0)
    @example(Instance((2, 1), (1,)), 2, "prime-removed", 2, 0)
    # A guess of 0 starts at 1, and a negative one at its absolute value.
    @example(Instance((3, 1, 4), (1, 5)), 2, "random", 2, 0)
    @example(Instance((3, 1, 4), (1, 5)), 3, "random", 2, -35)
    def test_any_guess_gives_the_value(self, inst, bands, kind, multiple, number):
        table = fill_table(inst)
        guess = guess_for(kind, table[0, 0], inst, multiple, number)
        assert p_a_wins_recursive(inst, guess) == table[0, 0]
        scale, bounds, rows = band_rows(inst, bands, guess)
        n = len(inst.b)
        for lo, row in zip(bounds, rows):
            assert [Fraction(value, scale * growth) for value, growth in row] == [
                table[lo, j] for j in range(n - 1, -1, -1)
            ]

    @given(grouped_instances().map(expand), st.sampled_from(GUESSES), st.integers(2, 10**6))
    @settings(max_examples=25, deadline=None)
    def test_any_guess_with_repeated_speeds(self, inst, kind, multiple):
        value = fill_table(inst)[0, 0]
        guess = guess_for(kind, value, inst, multiple, multiple)
        assert p_a_wins_recursive(inst, guess) == value

    @pytest.mark.parametrize("inst", EXTREME_SPEEDS)
    @pytest.mark.parametrize("kind", GUESSES)
    def test_extreme_speeds(self, inst, kind):
        value = fill_table(inst)[0, 0]
        assert p_a_wins_recursive(inst, guess_for(kind, value, inst, 7, 12345)) == value


# The bands that the reference asks for on seeded duels from the answer's
# denominator.  These are the verify path's and must not move.
BAND_COUNTS = [(40, 0), (64, 1), (SOLVE_FORKING_SIZE, 2), (90, 3), (120, 7)]


@pytest.mark.parametrize("n, guessed", BAND_COUNTS)
def test_bands_asked_for(monkeypatch, n, guessed):
    """Two bands or more are asked of `streams.in_processes`; fewer are one band in the caller."""
    asked, scales = [], []

    def in_processes(units, run):
        asked.append(units)
        assert units >= 2, "only a sweep that forks loads the runner"
        return run(1, None)

    sweep = recurrence._banded_sweep

    def banded_sweep(a, b, scale, bands, start):
        scales.append(scale)
        if len(asked) < len(scales):
            # Not through the runner: the request, cells times the scale's
            # bits over BAND_WORK, is under two bands, and one runs.
            asked.append(min(len(a), len(a) * len(b) * scale.bit_length() // recurrence.BAND_WORK))
            assert (asked[-1] < 2, bands, start) == (True, 1, None)
        return sweep(a, b, scale, bands, start)

    inst = seeded_duel(n)
    value = solve(inst).value
    monkeypatch.setattr(streams, "in_processes", in_processes)
    monkeypatch.setattr(recurrence, "_banded_sweep", banded_sweep)
    assert p_a_wins_recursive(inst, value.denominator) == value
    assert scales == [value.denominator]
    assert asked == [guessed]


@pytest.mark.parametrize("n", [n for n, _ in BAND_COUNTS])
def test_unguessed_reference_is_one_band(monkeypatch, n):
    """From 1, the reference is one band in the caller at every size above,
    so it never loads `streams`: cells times 1 bit is far under BAND_WORK."""
    calls = []

    def in_processes(units, run):
        pytest.fail(f"the unguessed reference asked for {units} bands")

    sweep = recurrence._banded_sweep
    inst = seeded_duel(n)
    value = solve(inst).value
    monkeypatch.setattr(streams, "in_processes", in_processes)
    monkeypatch.setattr(
        recurrence, "_banded_sweep", lambda a, b, *rest: calls.append(rest) or sweep(a, b, *rest)
    )
    assert p_a_wins_recursive(inst) == value
    # The scale, the band count and the child starter.
    assert calls == [(1, 1, None)]


# The factor by which the sweep from a right answer's denominator widens on
# seeded duels: the part of its cells' denominators that the answer's lacks.
# Like the guessed band counts, these fix the verify path's work and must
# not move.
GUESSED_GROWTH = {40: 76189, 64: 94773229, SOLVE_FORKING_SIZE: 113, 90: 1, 120: 1}


@pytest.mark.parametrize("n", GUESSED_GROWTH)
def test_guessed_sweep_widens(monkeypatch, n):
    ends = []
    sweep = recurrence._banded_sweep
    monkeypatch.setattr(
        recurrence, "_banded_sweep", lambda *args: ends.append(sweep(*args)) or ends[-1]
    )
    inst = seeded_duel(n)
    value = solve(inst).value
    assert p_a_wins_recursive(inst, value.denominator) == value
    [(_, growth)] = ends
    assert growth == GUESSED_GROWTH[n]


def test_fork_fixtures_fork():
    """The duels the forked tests use, started at the answer's denominator,
    are large enough for two row bands, and 90 for three."""
    for n, bands in ((SOLVE_FORKING_SIZE, 2), (90, 3)):
        guess = solve(seeded_duel(n)).value.denominator
        assert n * n * guess.bit_length() >= bands * recurrence.BAND_WORK
    # At SOLVE_FORKING the lower band widens that start.
    inst = seeded_duel(SOLVE_FORKING_SIZE)
    _, _, rows = band_rows(inst, 2, solve(inst).value.denominator)
    assert rows[1][-1][1] > 1


class TestSingleAFastPath:
    def test_examples(self):
        assert p_a_wins_single_a(1, (1, 1)) == Fraction(1, 4)
        assert p_a_wins_single_a(60, (20, 30)) == Fraction(1, 2)
        assert p_a_wins_single_a(5, ()) == 1

    @given(speeds, speed_lists(0, 5))
    def test_matches_reference(self, a1, b):
        assert p_a_wins_single_a(a1, b) == p_a_wins_recursive(Instance((a1,), b))


class TestInvariants:
    @given(instances())
    def test_complementarity(self, inst):
        assert p_a_wins_recursive(inst) + p_a_wins_recursive(inst.swapped()) == 1

    @given(instances(), st.randoms(use_true_random=False))
    def test_permutation_invariance(self, inst, rng):
        a, b = list(inst.a), list(inst.b)
        rng.shuffle(a)
        rng.shuffle(b)
        assert p_a_wins_recursive(Instance(tuple(a), tuple(b))) == p_a_wins_recursive(inst)

    @given(instances(), speeds)
    def test_scaling_invariance(self, inst, scale):
        scaled = Instance(
            tuple(s * scale for s in inst.a), tuple(s * scale for s in inst.b)
        )
        assert p_a_wins_recursive(scaled) == p_a_wins_recursive(inst)

    @given(instances(min_side=1), speeds)
    def test_extra_defender_strictly_hurts(self, inst, extra):
        p_before = p_a_wins_recursive(inst)
        p_after = p_a_wins_recursive(Instance(inst.a, inst.b + (extra,)))
        assert p_after < p_before

    @given(instances())
    def test_probability_bounds(self, inst):
        p = p_a_wins_recursive(inst)
        assert 0 <= p <= 1
