"""The reference solver, its full-table oracle and the one-A product."""

import inspect
import json
import math
import os
import subprocess
import sys
from contextlib import contextmanager
from fractions import Fraction
from itertools import chain, repeat
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from skirmish import (
    Instance,
    InvalidInstance,
    p_a_wins_recursive,
    recurrence,
)
from skirmish.cli import main
from skirmish.recurrence import _diagonal_lcms, _sweep, fill_table, path_denominator

from conftest import (
    FORKING_SIZE,
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


@contextmanager
def tightened(**settings):
    """Within: D is tightened whatever its width, with `settings` of recurrence."""
    with pytest.MonkeyPatch.context() as patch:
        for name, value in {"TIGHT_BITS": 0, **settings}.items():
            patch.setattr(recurrence, name, value)
        yield


def recursive_tight(inst):
    with tightened():
        return p_a_wins_recursive(inst)


def path_products(a, b, i=0, j=0):
    """For each path from cell (i, j) out of the table, the product of its sums a_i + b_j."""
    if i == len(a) or j == len(b):
        yield 1
        return
    for rest in chain(path_products(a, b, i, j + 1), path_products(a, b, i + 1, j)):
        yield (a[i] + b[j]) * rest


# Faults that leave D too small, each as the code that injects it into
# `recurrence`: D itself cut down, or one part of the tight D lost.  For the
# last, sums above 9000 are not factored, so that there is a large-sum lcm
# to skip on the duels the tests use.
DENOMINATOR_FAULTS = {
    "half": "shrunk = recurrence.path_denominator\n"
    "recurrence.path_denominator = lambda a, b: shrunk(a, b) // 2\n",
    "one": "recurrence.path_denominator = lambda a, b: 1\n",
    "dropped-prime": "chains = recurrence._chain_exponents\n"
    "recurrence._chain_exponents = lambda a, b, limit: "
    "{p: e for p, e in chains(a, b, limit).items() if p != 2}\n",
    "short-chain": "chains = recurrence._chain_exponents\n"
    "recurrence._chain_exponents = lambda a, b, limit: "
    "(lambda e: {**e, max(e): e[max(e)] - 1})(chains(a, b, limit))\n",
    "skipped-large-lcm": "recurrence.SIEVE_LIMIT = 9000\n"
    "lcms = recurrence._diagonal_lcms\n"
    "recurrence._diagonal_lcms = lambda a, b, above: [] if above else lcms(a, b, above)\n",
}


class TestFractionFreeKernel:
    """The integer kernel against the full-table Fraction oracle, D tightened or not."""

    @given(instances(min_side=0))
    def test_matches_full_table(self, inst):
        assert p_a_wins_recursive(inst) == recursive_tight(inst) == fill_table(inst)[0, 0]

    @given(grouped_instances().map(expand))
    @settings(max_examples=25, deadline=None)
    def test_matches_full_table_with_repeated_speeds(self, inst):
        assert p_a_wins_recursive(inst) == recursive_tight(inst) == fill_table(inst)[0, 0]

    @pytest.mark.parametrize("inst", EXTREME_SPEEDS)
    def test_extreme_speeds(self, inst):
        assert p_a_wins_recursive(inst) == recursive_tight(inst) == fill_table(inst)[0, 0]

    @pytest.mark.parametrize("fault", DENOMINATOR_FAULTS)
    def test_too_small_denominator_is_caught(self, monkeypatch, capsys, fault):
        # Integer speeds (1, 9001) vs (1,): D = 2 * 9002 = 2^2 * 4501, tight or
        # not, is the least that clears both cells, so a smaller D leaves a
        # remainder, which must not pass.  Each name is recorded to be restored
        # after the test; the fault's code then replaces some of them.
        for name in ("TIGHT_BITS", "SIEVE_LIMIT", "path_denominator", "_chain_exponents",
                     "_diagonal_lcms"):
            monkeypatch.setattr(recurrence, name, getattr(recurrence, name))
        recurrence.TIGHT_BITS = 0
        exec(DENOMINATOR_FAULTS[fault], {"recurrence": recurrence})
        with pytest.raises(AssertionError, match="inexact division"):
            p_a_wins_recursive(Instance((1, 9001), (1,)))
        assert main(["solve", "--a", "1,9001", "--b", "1"]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert "inexact division" in err


# Integer duels of up to ten speeds in all, repeats included.
small_duels = st.tuples(
    st.lists(st.integers(1, 60), min_size=1, max_size=5),
    st.lists(st.integers(1, 60), min_size=1, max_size=5),
).map(lambda sides: tuple(map(tuple, sides)))


class TestTightDenominator:
    """The tight D: each prime's longest chain of factors along one path."""

    @given(small_duels)
    def test_is_the_lcm_of_the_path_products(self, duel):
        a, b = duel
        with tightened():
            tight = path_denominator(a, b)
        assert tight == math.lcm(*path_products(a, b))
        assert math.prod(_diagonal_lcms(a, b, 0)) % tight == 0

    @given(small_duels, st.integers(0, 120))
    def test_sums_beyond_the_sieve_go_to_the_diagonal_lcm(self, duel, limit):
        a, b = duel
        with tightened(SIEVE_LIMIT=limit):
            denominator = path_denominator(a, b)
            value = p_a_wins_recursive(Instance(a, b))
        assert denominator % math.lcm(*path_products(a, b)) == 0
        assert math.prod(_diagonal_lcms(a, b, 0)) % denominator == 0
        assert value == fill_table(Instance(a, b))[0, 0]

    @pytest.mark.parametrize("n", [FORKING_SIZE, 80, 120])
    def test_narrower_than_the_diagonal_lcm(self, n):
        a, b = seeded_duel(n).integer_speeds()
        wide = math.prod(_diagonal_lcms(a, b, 0))
        assert wide.bit_length() >= recurrence.TIGHT_BITS
        assert path_denominator(a, b).bit_length() < 0.65 * wide.bit_length()


def band_rows(inst, bands):
    """Each band's streamed top row, from `bands` chained _sweep generators in process.

    The rows split as the forked path splits them, except that here a band
    may be empty: a band of no rows passes the row below it straight up.
    """
    a, b = inst.integer_speeds()
    denominator = path_denominator(a, b)
    bounds = [len(a) * t // bands for t in range(bands + 1)]
    rows = [[] for _ in range(bands)]

    def recorded(values, row):
        for value in values:
            row.append(value)
            yield value

    below = repeat(0)
    for t in range(bands - 1, -1, -1):
        below = recorded(_sweep(a, b, bounds[t], bounds[t + 1], denominator, below), rows[t])
    for _ in below:
        pass
    return denominator, bounds, rows


class TestRowBands:
    """The band split of the reference, chained in process: no fork, so any thread count."""

    @given(instances(min_side=0), st.integers(1, 4))
    @example(Instance((3,), (1, 5)), 1)
    @example(Instance((3,), (1, 5)), 4)
    @example(Instance((3, 1), (2,)), 2)
    @example(Instance((3, 1, 4), ()), 3)
    @example(Instance((), (2, 7)), 2)
    def test_every_band_streams_its_top_row(self, inst, bands):
        denominator, bounds, rows = band_rows(inst, bands)
        table = fill_table(inst)
        n = len(inst.b)
        for lo, row in zip(bounds, rows):
            assert [Fraction(value, denominator) for value in row] == [
                table[lo, j] for j in range(n - 1, -1, -1)
            ]

    @pytest.mark.parametrize("bands", [2, 3, 4])
    @pytest.mark.parametrize("inst", EXTREME_SPEEDS)
    def test_extreme_speeds(self, inst, bands):
        denominator, _, rows = band_rows(inst, bands)
        assert Fraction(rows[0][-1], denominator) == fill_table(inst)[0, 0]


SRC = Path(__file__).resolve().parent.parent / "src"
# Without PYTHONUNBUFFERED a piped stdout is block-buffered, as it is for
# most callers: what a forked child must never flush a second time.
BUFFERED_ENV = {
    **{k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"},
    "PYTHONPATH": str(SRC),
}

# Run in a fresh interpreter, which has not imported numpy and so holds one
# OS thread: the only kind of process the reference forks.  `os.fork` is
# wrapped to count its calls, and the script reports what it saw as JSON.
FRESH_PRELUDE = """
import contextlib, io, json, os, random, sys
from fractions import Fraction
from itertools import repeat
from skirmish import Instance, p_a_wins_recursive, recurrence
from skirmish.cli import main

forks = []
real_fork = os.fork

def counting_fork():
    forks.append(1)
    return real_fork()

os.fork = counting_fork

def in_process(inst):
    a, b = inst.integer_speeds()
    denominator = recurrence.path_denominator(a, b)
    top = list(recurrence._sweep(a, b, 0, len(a), denominator, repeat(0)))
    return Fraction(top[-1], denominator)

def open_fds():
    return len(os.listdir("/proc/self/fd"))

def zombies():
    try:
        return os.waitpid(-1, os.WNOHANG) != (0, 0)
    except ChildProcessError:
        return False
""" + inspect.getsource(seeded_duel) + f"duel = seeded_duel\nFORKING = {FORKING_SIZE}\n"


def test_fork_fixtures_fork():
    """The duels the forked tests use are large enough for two row bands."""
    for n in (FORKING_SIZE, 90):
        a, b = seeded_duel(n).integer_speeds()
        assert n * n * path_denominator(a, b).bit_length() >= 2 * recurrence.BAND_WORK


def run_fresh(body):
    """Run FRESH_PRELUDE + body in a new interpreter; its last stdout line as JSON."""
    result = subprocess.run(
        [sys.executable, "-c", FRESH_PRELUDE + body],
        capture_output=True,
        text=True,
        env=BUFFERED_ENV,
        timeout=60,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout, json.loads(result.stdout.splitlines()[-1])


needs_fork = pytest.mark.skipif(
    not hasattr(os, "fork")
    or not os.path.isdir("/proc/self/task")
    or len(os.sched_getaffinity(0)) < 2,
    reason="the forked bands need os.fork, /proc and two usable cores",
)


@needs_fork
class TestForkedBands:
    def test_values_match_in_process(self):
        out, seen = run_fresh(
            "print('printed before the fork')\n"
            "fds = open_fds()\n"
            "report = []\n"
            "for n in (FORKING, 90):\n"
            "    before = len(forks)\n"
            "    value = p_a_wins_recursive(duel(n))\n"
            "    report.append([n, len(forks) - before, value == in_process(duel(n))])\n"
            "print(json.dumps({'report': report, 'fds': open_fds() - fds,"
            " 'zombies': zombies()}))\n"
        )
        assert seen == {
            "report": [[FORKING_SIZE, 1, True], [90, 1, True]], "fds": 0, "zombies": False
        }
        # stdout is a pipe, so block-buffered: a child that flushed it on exit
        # would print the line a second time.
        assert out.count("printed before the fork") == 1

    def test_failure_in_a_child_band_is_caught(self):
        # D - 1 is coprime to D, so the bottom-right cell (63, 63), which
        # lies in the forked lower band, is the first that cannot divide.
        # The bit length, and with it the decision to fork, is unchanged.
        _, seen = run_fresh(
            "shrunk = recurrence.path_denominator\n"
            "recurrence.path_denominator = lambda a, b: shrunk(a, b) - 1\n"
            "fds = open_fds()\n"
            "inst = duel(FORKING)\n"
            "try:\n"
            "    p_a_wins_recursive(inst)\n"
            "    message = None\n"
            "except AssertionError as exc:\n"
            "    message = str(exc)\n"
            "checks = [len(forks), open_fds() - fds, zombies()]\n"
            "with contextlib.redirect_stderr(io.StringIO()) as err:\n"
            "    code = main(['solve', '--a', ','.join(map(str, inst.a)),"
            " '--b', ','.join(map(str, inst.b))])\n"
            "checks += [len(forks), open_fds() - fds, zombies()]\n"
            "print(json.dumps({'message': message, 'checks': checks, 'code': code,"
            " 'stderr': err.getvalue()}))\n"
        )
        assert seen["message"].startswith("inexact division at cell (63, 63)")
        # Forks so far, fds opened and not closed, a child left unreaped.
        assert seen["checks"] == [1, 0, False, 2, 0, False]
        assert seen["code"] == 3
        assert "inexact division at cell (63, 63)" in seen["stderr"]

    def test_three_bands_chain_their_pipes(self):
        # Three bands: the middle child reads the bottom child's pipe, and
        # the parent closes the middle pipe once it holds the top one.  A
        # failure at cell (89, 89), in the bottom band, crosses both pipes.
        _, seen = run_fresh(
            "recurrence.usable_cores = lambda: 3\n"
            "fds = open_fds()\n"
            "inst = duel(90)\n"
            "checks = [p_a_wins_recursive(inst) == in_process(inst)]\n"
            "checks += [len(forks), open_fds() - fds, zombies()]\n"
            "shrunk = recurrence.path_denominator\n"
            "recurrence.path_denominator = lambda a, b: shrunk(a, b) - 1\n"
            "try:\n"
            "    p_a_wins_recursive(inst)\n"
            "    message = None\n"
            "except AssertionError as exc:\n"
            "    message = str(exc)\n"
            "checks += [len(forks), open_fds() - fds, zombies()]\n"
            "print(json.dumps({'message': message, 'checks': checks}))\n"
        )
        assert seen["message"].startswith("inexact division at cell (89, 89)")
        # Equal to the one band; forks so far, fds left open, a child left unreaped.
        assert seen["checks"] == [True, 2, 0, False, 4, 0, False]

    def test_failure_in_the_top_band_leaves_no_child_waiting(self):
        # The child's 64 columns of 2.2 KB each overfill the pipe once the top
        # band stops reading; it must fail its write, not block the reaping.
        _, seen = run_fresh(
            "sweep = recurrence._sweep\n"
            "def failing_top(a, b, lo, hi, denominator, below):\n"
            "    rows = sweep(a, b, lo, hi, denominator, below)\n"
            "    if lo == 0:\n"
            "        next(rows)\n"
            "        raise AssertionError('the top band failed first')\n"
            "    yield from rows\n"
            "recurrence._sweep = failing_top\n"
            "fds = open_fds()\n"
            "try:\n"
            "    p_a_wins_recursive(duel(FORKING))\n"
            "    message = None\n"
            "except AssertionError as exc:\n"
            "    message = str(exc)\n"
            "print(json.dumps([message, len(forks), open_fds() - fds, zombies()]))\n"
        )
        assert seen == ["the top band failed first", 1, 0, False]

    def test_failed_fork_falls_back_to_one_band(self):
        _, seen = run_fresh(
            "import errno\n"
            "inst = duel(FORKING)\n"
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
            "checks = [code, len(forks), open_fds() - fds, zombies(), err.getvalue()]\n"
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
        _, seen = run_fresh(
            setup
            + "value = p_a_wins_recursive(duel(FORKING))\n"
            "print(json.dumps({'forks': len(forks), 'same': value == in_process(duel(FORKING))}))\n"
        )
        assert seen == {"forks": 0, "same": True}

    @pytest.mark.parametrize("fault", ["dropped-prime", "short-chain", "skipped-large-lcm"])
    def test_too_small_tight_denominator_is_caught(self, fault):
        _, seen = run_fresh(
            DENOMINATOR_FAULTS[fault]
            + "fds = open_fds()\n"
            "inst = duel(FORKING)\n"
            "try:\n"
            "    p_a_wins_recursive(inst)\n"
            "    message = None\n"
            "except AssertionError as exc:\n"
            "    message = str(exc)\n"
            "checks = [len(forks)]\n"
            "with contextlib.redirect_stdout(io.StringIO()) as out,"
            " contextlib.redirect_stderr(io.StringIO()) as err:\n"
            "    code = main(['solve', '--a', ','.join(map(str, inst.a)),"
            " '--b', ','.join(map(str, inst.b))])\n"
            "checks += [len(forks), open_fds() - fds, zombies(), code, out.getvalue()]\n"
            "print(json.dumps({'message': message, 'checks': checks, 'stderr': err.getvalue()}))\n"
        )
        assert seen["message"].startswith("inexact division")
        # Forks by then, fds left open, a child left unreaped, exit code, stdout.
        assert seen["checks"] == [1, 2, 0, False, 3, ""]
        assert "inexact division" in seen["stderr"]


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
