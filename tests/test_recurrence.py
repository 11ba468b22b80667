"""The reference solver, its full-table oracle and the one-A product."""

import inspect
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
    WRONG_ANSWERS,
    grouped_instances,
    huge_rational_speeds,
    instances,
    seeded_duel,
    speed_lists,
    speeds,
    wrong_answer,
)
from oracles import expand, needs_fork, p_a_wins_single_a, run_fresh


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


# Specific to the reference: a one-band sweep from 1 to compare with, and the
# duels.  Started at the answer's denominator, SOLVE_FORKING asks for two
# bands and 90 for three; FORK_PRELUDE's cap of two cores keeps the forks
# the tests count the same on any host.
RECURRENCE_PRELUDE = """
from skirmish import p_a_wins_recursive, recurrence

def in_process(inst):
    a, b = inst.integer_speeds()
    top = list(recurrence._sweep(a, b, 0, len(a), 1, repeat((0, 1))))
    return Fraction(*top[-1])
""" + inspect.getsource(seeded_duel) + (
    f"duel = seeded_duel\nSOLVE_FORKING = {SOLVE_FORKING_SIZE}\n"
)


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


def short_start(kind, inst, d):
    """A divisor of d short of it: 1, d's odd part, or d over the largest sum a_i + b_j dividing it.

    The last two keep two bands' work at SOLVE_FORKING_SIZE.
    """
    if kind == "one":
        return 1
    if kind == "odd-part":
        return d // (d & -d)
    a, b = inst.integer_speeds()
    return d // max(ai + bj for ai in a for bj in b if d % (ai + bj) == 0)


def run_bands(body):
    return run_fresh(RECURRENCE_PRELUDE + body)


# Makes the bottom band, rows lo..m-1, fail before its first column, in
# whatever process sweeps it: a child wherever the table forks.
FAILING_BOTTOM = (
    "inner = recurrence._sweep\n"
    "def failing_bottom(a, b, lo, hi, scale, below):\n"
    "    rows = inner(a, b, lo, hi, scale, below)\n"
    "    if hi == len(a):\n"
    "        raise AssertionError(f'the bottom band, rows {lo}..{hi - 1}, failed')\n"
    "    yield from rows\n"
    "recurrence._sweep = failing_bottom\n"
)


@needs_fork
class TestForkedBands:
    def test_values_match_in_process(self):
        out, seen = run_bands(
            "print('printed before the fork')\n"
            "fds = open_fds()\n"
            "report = []\n"
            "for n in (SOLVE_FORKING, 90):\n"
            "    expected = in_process(duel(n))\n"
            "    before = len(forks)\n"
            "    value = p_a_wins_recursive(duel(n), expected.denominator)\n"
            "    report.append([n, len(forks) - before, value == expected])\n"
            "print(json.dumps({'report': report, 'fds': open_fds() - fds,"
            " 'children': children_left()}))\n"
        )
        assert seen == {
            "report": [[SOLVE_FORKING_SIZE, 1, True], [90, 1, True]], "fds": 0, "children": False
        }
        # stdout is a pipe, so block-buffered: a child that flushed it on exit
        # would print the line a second time.
        assert out.count("printed before the fork") == 1

    def test_failure_in_a_child_band_is_caught(self):
        # Two bands from the answer's denominator: the lower one, rows 42..83,
        # runs in the child.  The guess is taken before the fault.
        _, seen = run_bands(
            "guess = in_process(duel(SOLVE_FORKING)).denominator\n"
            + FAILING_BOTTOM
            + "fds = open_fds()\n"
            "try:\n"
            "    p_a_wins_recursive(duel(SOLVE_FORKING), guess)\n"
            "    message = None\n"
            "except AssertionError as exc:\n"
            "    message = str(exc)\n"
            "checks = [len(forks), open_fds() - fds, children_left()]\n"
            "inst = duel(64)\n"
            "with contextlib.redirect_stderr(io.StringIO()) as err:\n"
            "    code = main(['solve', '--a', ','.join(map(str, inst.a)),"
            " '--b', ','.join(map(str, inst.b))])\n"
            "checks += [len(forks), open_fds() - fds, children_left()]\n"
            "print(json.dumps({'message': message, 'checks': checks, 'code': code,"
            " 'stderr': err.getvalue()}))\n"
        )
        assert seen["message"] == "the bottom band, rows 42..83, failed"
        # Forks so far, fds opened and not closed, a child left unreaped.  At
        # 64v64 the solve's reference, from the answer's denominator, is one
        # band's work, so it sweeps in one band, rows 0..63, and forks nothing.
        assert seen["checks"] == [1, 0, False, 1, 0, False]
        assert seen["code"] == 3
        assert "the bottom band, rows 0..63, failed" in seen["stderr"]

    def test_three_bands_chain_their_pipes(self):
        # Three bands: the middle child reads the bottom child's pipe, and
        # the parent closes the middle pipe once it holds the top one, before
        # the top band starts.  A failure in the bottom band crosses both pipes.
        _, seen = run_bands(
            "streams.usable_cores = lambda: 3\n"
            "sweep = recurrence._sweep\n"
            "held = []\n"
            "def counted_top(a, b, lo, hi, scale, below):\n"
            "    if lo == 0 and hi < len(a):\n"
            "        held.append(open_fds() - fds)\n"
            "    return sweep(a, b, lo, hi, scale, below)\n"
            "recurrence._sweep = counted_top\n"
            "fds = open_fds()\n"
            "inst = duel(90)\n"
            "value = in_process(inst)\n"
            "checks = [p_a_wins_recursive(inst, value.denominator) == value]\n"
            "checks += [len(forks), open_fds() - fds, children_left()]\n"
            + FAILING_BOTTOM
            + "try:\n"
            "    p_a_wins_recursive(inst, value.denominator)\n"
            "    message = None\n"
            "except AssertionError as exc:\n"
            "    message = str(exc)\n"
            "checks += [len(forks), open_fds() - fds, children_left()]\n"
            "print(json.dumps({'message': message, 'checks': checks, 'held': held}))\n"
        )
        assert seen["message"] == "the bottom band, rows 60..89, failed"
        # Equal to the one band; forks so far, fds left open, a child left unreaped.
        assert seen["checks"] == [True, 2, 0, False, 4, 0, False]
        # Fds the parent held as its top band started, in each of the two calls.
        assert seen["held"] == [1, 1]

    def test_failure_in_the_top_band_leaves_no_child_waiting(self):
        # The child's 84 columns of 1.7 KB each overfill the pipe once the top
        # band stops reading; it must fail its write, not block the reaping.
        _, seen = run_bands(
            "guess = in_process(duel(SOLVE_FORKING)).denominator\n"
            "sweep = recurrence._sweep\n"
            "def failing_top(a, b, lo, hi, scale, below):\n"
            "    rows = sweep(a, b, lo, hi, scale, below)\n"
            "    if lo == 0:\n"
            "        next(rows)\n"
            "        raise AssertionError('the top band failed first')\n"
            "    yield from rows\n"
            "recurrence._sweep = failing_top\n"
            "fds = open_fds()\n"
            "try:\n"
            "    p_a_wins_recursive(duel(SOLVE_FORKING), guess)\n"
            "    message = None\n"
            "except AssertionError as exc:\n"
            "    message = str(exc)\n"
            "print(json.dumps([message, len(forks), open_fds() - fds, children_left()]))\n"
        )
        assert seen == ["the top band failed first", 1, 0, False]

    def test_failed_fork_falls_back_to_one_band(self):
        _, seen = run_bands(
            "import errno\n"
            "inst = duel(SOLVE_FORKING)\n"
            "argv = ['solve', '--a', ','.join(map(str, inst.a)),"
            " '--b', ','.join(map(str, inst.b))]\n"
            "def failing_fork():\n"
            "    forks.append(1)\n"
            "    raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))\n"
            "os.fork = failing_fork\n"
            "fds = open_fds()\n"
            "with contextlib.redirect_stdout(io.StringIO()) as out,"
            " contextlib.redirect_stderr(io.StringIO()) as err:\n"
            "    code = main(argv)\n"
            "checks = [code, len(forks), open_fds() - fds, children_left(), err.getvalue()]\n"
            "os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n"
            "with contextlib.redirect_stdout(io.StringIO()) as one_core:\n"
            "    checks.append(main(argv))\n"
            "checks.append(out.getvalue() == one_core.getvalue() != '')\n"
            "print(json.dumps(checks))\n"
        )
        # Exit code, forks tried, fds left open, a child left unreaped,
        # stderr; then the one-core run's exit code and matching stdout.
        assert seen == [0, 1, 0, False, "", 0, True]

    @pytest.mark.parametrize(
        "setup",
        [
            "import threading\n"
            "threading.Thread(target=threading.Event().wait, daemon=True).start()\n",
            "os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n",
        ],
        ids=["second-thread", "one-core"],
    )
    def test_one_band_without_a_fork(self, setup):
        _, seen = run_bands(
            setup
            + "expected = in_process(duel(SOLVE_FORKING))\n"
            "value = p_a_wins_recursive(duel(SOLVE_FORKING), expected.denominator)\n"
            "print(json.dumps({'forks': len(forks), 'same': value == expected}))\n"
        )
        assert seen == {"forks": 0, "same": True}

    @pytest.mark.parametrize("kind, forks", [("one", 0), ("odd-part", 1), ("short-sum", 1)])
    def test_short_start_widens_across_bands(self, kind, forks):
        # From a start short of the answer's denominator the lower band widens
        # further, and the top band must widen to the lcm of the two scales.
        _, seen = run_bands(
            inspect.getsource(short_start)
            + "inst = duel(SOLVE_FORKING)\n"
            "value = in_process(inst)\n"
            f"start = short_start({kind!r}, inst, value.denominator)\n"
            "fds = open_fds()\n"
            "same = p_a_wins_recursive(inst, start) == value\n"
            "print(json.dumps([start < value.denominator, value.denominator % start == 0,"
            " same, len(forks), open_fds() - fds, children_left()]))\n"
        )
        # Short, a divisor, the value, forks, fds left open, a child left unreaped.
        assert seen == [True, True, True, forks, 0, False]

    def test_negative_guess_forks(self):
        # A forked child writes unsigned frames, so the sweep starts at |guess|:
        # here the answer's width, two bands' work (`test_fork_fixtures_fork`).
        _, seen = run_bands(
            "inst = duel(SOLVE_FORKING)\n"
            "value = in_process(inst)\n"
            "fds = open_fds()\n"
            "same = p_a_wins_recursive(inst, -value.denominator) == value\n"
            "print(json.dumps([same, len(forks), open_fds() - fds, children_left()]))\n"
        )
        assert seen == [True, 1, 0, False]

    @pytest.mark.parametrize(
        "kind, forks", [("wrong-numerator", 1), ("denominator-1", 0), ("extra-prime", 1)]
    )
    def test_wrong_route_with_its_denominator_as_guess(self, kind, forks):
        # The reference starts at the wrong denominator.  From the right
        # denominator that is two bands, and the lower one must widen its
        # start (`test_fork_fixtures_fork`); from 1 it is one band's work.
        _, seen = run_bands(
            f"kind = {kind!r}\n"
            + inspect.getsource(wrong_answer)
            + "from skirmish import residues\n"
            "inst = duel(SOLVE_FORKING)\n"
            "value = in_process(inst)\n"
            "wrong = wrong_answer(kind, value)\n"
            "residues.p_a_wins_distinct = lambda inst: residues.MethodReport("
            "wrong, 'distinct', (-wrong,))\n"
            "fds = open_fds()\n"
            "with contextlib.redirect_stdout(io.StringIO()) as out,"
            " contextlib.redirect_stderr(io.StringIO()) as err:\n"
            "    code = main(['solve', '--a', ','.join(map(str, inst.a)),"
            " '--b', ','.join(map(str, inst.b))])\n"
            "expected = f'inconsistency: distinct gave {wrong},"
            " recursive reference gives {value}\\n'\n"
            "print(json.dumps([code, err.getvalue() == expected, out.getvalue().count('\\n'),"
            " len(forks), open_fds() - fds, children_left()]))\n"
        )
        # Exit code, the message, stdout lines, forks, fds left open, a child left unreaped.
        assert seen == [1, True, 1, forks, 0, False]


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
