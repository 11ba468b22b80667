"""The process runner, and every computation that it forks, one table row each.

`streams.in_processes` is the one process runner: the estimators' draw
blocks and the reference recurrence's row bands both run through it.
`TestRunner` tests it in process: how often it calls its computation, on
how many processes, and that it reaps every child whatever the
computation returns or raises.

`FORKED` is the rest: one row per computation under one fault.  The
computations are the estimators' counts, the reference's value and the
commands that run them; the faults are a fork or a pipe that fails, a
fork that warns, a failure or a death in a child or in the caller, a
second thread, one core, and starts that the bands must widen.  Each row
runs in a fresh interpreter, which has no thread but its main one and so
forks where the library forks.  It must give its outcome and its forks,
leave no descriptor open and no child unreaped, and print a line printed
before the computation once on a block-buffered stdout.  Where forking
fails or is not allowed, a row runs in process with the same outcome.  A
new fault, or a new user of the runner, is one more row.
"""

import errno
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from skirmish import streams

from conftest import SOLVE_FORKING_SIZE, seeded_duel, wrong_answer


def assert_no_child():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestRunner:
    """`in_processes(units, run)`: how often it calls run, on how many processes, and the reaping."""

    @pytest.mark.parametrize("units", [0, 1])
    def test_one_unit_runs_once_in_process(self, monkeypatch, units):
        monkeypatch.setattr(streams, "usable_cores", lambda: 2)
        monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked for one unit"))
        calls = []
        assert streams.in_processes(units, lambda k, start: calls.append(k) or "done") == "done"
        assert calls == [1]

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_failure_after_a_fork_is_not_run_again(self, monkeypatch):
        monkeypatch.setattr(streams, "usable_cores", lambda: 2)
        assert streams.can_fork()
        calls = []

        def run(k, start):
            calls.append(k)
            start(lambda: iter([1, 2]))
            raise AssertionError("the caller's share failed")

        with pytest.raises(AssertionError, match="the caller's share failed"):
            streams.in_processes(2, run)
        assert calls == [2]
        assert_no_child()

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_failed_second_fork_reaps_the_first_then_runs_once_in_process(self, monkeypatch):
        monkeypatch.setattr(streams, "usable_cores", lambda: 3)
        assert streams.can_fork()
        fork, forks = os.fork, []

        def second_fails():
            forks.append(1)
            if len(forks) == 2:
                raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))
            return fork()

        monkeypatch.setattr(os, "fork", second_fails)
        calls = []

        def run(k, start):
            calls.append(k)
            if k == 1:
                assert_no_child()  # the first child is reaped before this call
                return "in process"
            for _ in range(k - 1):
                start(lambda: iter([1]))
            return "forked"

        assert streams.in_processes(3, run) == "in process"
        assert (calls, len(forks)) == ([3, 1], 2)
        assert_no_child()


SRC = Path(__file__).resolve().parent.parent / "src"
# Without PYTHONUNBUFFERED a piped stdout is block-buffered, as it is for
# most callers: what a forked child must never flush a second time.  This
# tree's source is first on the import path.
BUFFERED_ENV = {
    **{k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}, "PYTHONPATH": str(SRC)
}

# Every row's script starts with this, once: a second copy would wrap
# `counting_fork` in itself.  `os.fork` is wrapped to count its calls, and
# `failing`, put in place of `os.fork` or `os.pipe`, counts each call as a
# fork tried.  At most two cores are granted, so that the forks a row counts
# do not grow with the host; a row that needs another count sets its own.
FORK_PRELUDE = """
import contextlib, errno, io, json, os, random, signal
from fractions import Fraction
from itertools import repeat
from skirmish import Instance, p_a_wins_recursive, recurrence, residues, streams
from skirmish.cli import main

host_cores = streams.usable_cores
streams.usable_cores = lambda: min(2, host_cores())
caller = os.getpid()

forks = []
real_fork = os.fork

def counting_fork():
    forks.append(1)
    return real_fork()

os.fork = counting_fork

def failing(*args):
    forks.append(1)
    raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))

def open_fds():
    return len(os.listdir("/proc/self/fd"))

def children_left():
    # Any child, exited or still running: none may outlive the call that forked it.
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return False
    return True

def caught(compute):
    try:
        return compute()
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"

def cli(command, inst, *flags):
    # main's exit code, its stdout, and the last line of its stderr.
    a, b = (",".join(map(str, side)) for side in (inst.a, inst.b))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([command, "--a", a, "--b", b, *flags])
    return [code, out.getvalue(), err.getvalue().splitlines()[-1:]]

def in_process(inst):
    # One band from 1 in this process: the value every forked sweep must give.
    a, b = inst.integer_speeds()
    return Fraction(*list(recurrence._sweep(a, b, 0, len(a), 1, repeat((0, 1))))[-1])
""" + inspect.getsource(seeded_duel)

PRINTED = "printed before the computation"


def cores(count):
    return f"streams.usable_cores = lambda: {count}\n"


# The faults of the runner itself, on two cores, so that a fork is tried on any host.
FAILS = cores(2) + "os.{} = failing\n"
# From Python 3.12 os.fork warns in a process with a second OS thread,
# after the child exists; here that is played on any version, under the
# error filter the test suite runs with.
FORK_WARNS = cores(2) + """
import warnings
warnings.simplefilter("error")
fork = os.fork

def warning_fork():
    pid = fork()
    if pid:
        warnings.warn("this process is multi-threaded", DeprecationWarning)
    return pid

os.fork = warning_fork
"""
SECOND_THREAD = cores(2) + """
import threading
threading.Thread(target=threading.Event().wait, daemon=True).start()
"""
ONE_CORE = "os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n"

# The estimators, with numpy loaded before any descriptor is counted, as a
# command loads it, and small blocks: 2000 trials of FIGHT make 16 to 48.
DRAWING = """
import numpy
from skirmish import SimConfig, estimate_volume, simulate

streams.BLOCK_BYTES = 1 << 12
FIGHT = Instance((30, 20), (15, 36))
EVEN = Instance((1,) * 4, (1,) * 4)

def counts():
    # Both policies' wins and the volume hits.
    return [
        simulate(FIGHT, SimConfig(2000, 3, policy)).a_wins
        for policy in ("frontmost", "random-adjacent")
    ] + [estimate_volume(FIGHT, 2000, 3).hits]
"""
COUNTS = [980, 988, 1008]  # counts() on one worker
COMMANDS = (
    '[cli("simulate", FIGHT, "--trials", "200000")[::2],'
    ' cli("volume", FIGHT, "--samples", "200000")[::2]]'
)
# Four steps finish a 4 v 4 duel only when one side loses every collision;
# zero draws make side A win them all.  So the blocks drawn where `fails`
# holds fail the draw budget check, and the others pass.
SHORT_BUDGET = """
streams.slot_width = lambda draws: 4
raw_slots = streams.raw_slots

def drawn(*args):
    raw = raw_slots(*args)
    return raw if {fails} else raw * 0

streams.raw_slots = drawn
"""
# The same, in every process, and 29 blocks of 7 trials on three workers.
SHORT_BUDGET_EVERYWHERE = cores(3) + (
    "streams.slot_width = lambda draws: 4\nstreams.BLOCK_BYTES = 7 * 8 * 4\n"
)
BUDGET = [3, "", ["AssertionError: a duel failed to finish within its draw budget"]]
# A drawer that meets `fault` in every forked child.
IN_A_CHILD = """
{drawer} = streams.{drawer}

def drawn(*args):
    if os.getpid() != caller:
        {fault}
    return {drawer}(*args)

streams.{drawer} = drawn
"""
KILLED = "os.kill(os.getpid(), signal.SIGKILL)"
ENDED = [3, "", ["RuntimeError: a forked worker ended without its values"]]



def duel(n):
    return f"inst = seeded_duel({n})\nvalue = in_process(inst)\n"


# Started at the answer's denominator, SOLVE_FORKING_SIZE asks for two bands
# and 90 for three (`test_fork_fixtures_fork`).
FORKING = duel(SOLVE_FORKING_SIZE)
SWEPT = "p_a_wins_recursive(inst, value.denominator) == value"
NEGATIVE = "p_a_wins_recursive(inst, -value.denominator) == value"
SOLVED = 'cli("solve", inst)'
# The bottom band, rows lo..m-1, meets `fault` before its first column, in
# whatever process sweeps it: a child wherever the table forks.
BOTTOM_BAND = """
inner = recurrence._sweep

def failing_bottom(a, b, lo, hi, scale, below):
    rows = inner(a, b, lo, hi, scale, below)
    if hi == len(a):
        {}
    yield from rows

recurrence._sweep = failing_bottom
"""
BOTTOM_FAILS = BOTTOM_BAND.format(
    "raise AssertionError(f'the bottom band, rows {lo}..{hi - 1}, failed')"
)
BOTTOM_FAILED = "AssertionError: the bottom band, rows {}..{}, failed"
# The child's 84 columns of 1.7 KB each overfill the pipe once the top band
# stops reading; it must fail its write, not block the reaping.
TOP_FAILS = """
sweep = recurrence._sweep

def failing_top(a, b, lo, hi, scale, below):
    rows = sweep(a, b, lo, hi, scale, below)
    if lo == 0:
        next(rows)
        raise AssertionError("the top band failed first")
    yield from rows

recurrence._sweep = failing_top
"""
# Three bands: the middle child reads the bottom child's pipe, and the
# parent closes the middle pipe once it holds the top one, before the top
# band starts.  `held` notes the descriptors it holds then, in each call.
THREE_BANDS = cores(3) + duel(90) + """
sweep = recurrence._sweep
held = []

def counted_top(a, b, lo, hi, scale, below):
    if lo == 0 and hi < len(a):
        held.append(open_fds() - fds)
    return sweep(a, b, lo, hi, scale, below)

recurrence._sweep = counted_top
"""
HELD = f"[caught(lambda: {SWEPT}), held]"
# A divisor of d short of it: 1, d's odd part, or d over the largest sum
# a_i + b_j dividing it.  The last two keep two bands' work.  From there the
# lower band widens further, and the top band must widen to the lcm of the
# two scales.
SHORT_START = """
d = value.denominator
a, b = inst.integer_speeds()
start = {
    "one": 1,
    "odd-part": d // (d & -d),
    "short-sum": d // max(ai + bj for ai in a for bj in b if d % (ai + bj) == 0),
}[kind]
"""
SHORT = "[start < d, d % start == 0, p_a_wins_recursive(inst, start) == value]"
# The solve's report from one band in this process, to compare with.
ALONE = cores(1) + 'alone = cli("solve", inst)\n'
AS_ALONE = '[alone[::2], cli("solve", inst) == alone]'
# The distinct route answers wrong, and the reference starts at the wrong
# denominator: from the right one that is two bands, and the lower one must
# widen its start; from 1 it is one band's work.
WRONG_ROUTE = inspect.getsource(wrong_answer) + """
wrong = wrong_answer(kind, value)
residues.p_a_wins_distinct = lambda inst: residues.MethodReport(wrong, "distinct", (-wrong,))

def told():
    # The exit code, the report's lines, and whether stderr names both values.
    code, out, err = cli("solve", inst)
    message = f"inconsistency: distinct gave {wrong}, recursive reference gives {value}"
    return [code, out.count("\\n"), err == [message]]
"""


CAN_COUNT = hasattr(os, "fork") and os.path.isdir("/proc/self/fd")
needs_proc = pytest.mark.skipif(not CAN_COUNT, reason="counting forks needs os.fork and /proc")
needs_fork = pytest.mark.skipif(
    not CAN_COUNT or len(os.sched_getaffinity(0)) < 2,
    reason="forking on the host's cores needs os.fork, /proc and two usable cores",
)


def row(name, setup, expression, outcome, forks, *marks):
    """One FORKED row.  Only a row that forks on the host's cores, as
    FORK_PRELUDE caps them, needs two of them; a row that forks nothing or
    sets its own count needs only os.fork and /proc."""
    on_host = forks and "streams.usable_cores = " not in setup
    marks = [needs_fork if on_host else needs_proc, *marks]
    return pytest.param(setup, expression, outcome, forks, id=name, marks=marks)


def blocks(name, setup, expression, outcome, forks):
    return row(f"blocks-{name}", DRAWING + setup, expression, outcome, forks, pytest.mark.draws)


def bands(name, setup, expression, outcome, forks):
    return row(f"bands-{name}", setup, expression, outcome, forks)


def of_kind(kind):
    return f"{FORKING}kind = {kind!r}\n"


FORKED = [
    # The estimators' blocks: the one-worker counts on any number of workers,
    # and in process where a fork is tried and fails or is not allowed.
    blocks("on-one-core", cores(1), "counts()", COUNTS, 0),
    blocks("on-two-cores", cores(2), "counts()", COUNTS, 3),
    blocks("on-three-cores", cores(3), "counts()", COUNTS, 6),
    blocks("fork-fails", FAILS.format("fork"), "counts()", COUNTS, 3),
    blocks("pipe-fails", FAILS.format("pipe"), "counts()", COUNTS, 3),
    blocks("fork-warns", FORK_WARNS, "counts()", COUNTS, 3),
    blocks("second-thread", SECOND_THREAD, "[streams.can_fork(), counts()]", [False, COUNTS], 0),
    blocks("commands-fork-fails", FAILS.format("fork"), COMMANDS, [[0, []], [0, []]], 2),
    blocks("commands-pipe-fails", FAILS.format("pipe"), COMMANDS, [[0, []], [0, []]], 2),
    # A failure in any worker reaches the caller as a crash.
    *(
        blocks(
            f"short-budget-in-the-{where}",
            SHORT_BUDGET.format(fails=f"os.getpid() {test} caller"),
            'cli("simulate", EVEN, "--trials", "2000")',
            BUDGET,
            1,
        )
        for where, test in (("child", "!="), ("caller", "=="))
    ),
    *(
        blocks(
            f"short-budget-on-three-cores-{policy}",
            SHORT_BUDGET_EVERYWHERE,
            f'cli("simulate", EVEN, "--trials", "200", "--seed", "1", "--policy", {policy!r})',
            BUDGET,
            2,
        )
        for policy in ("frontmost", "random-adjacent")
    ),
    blocks(
        "child-raises",
        IN_A_CHILD.format(drawer="unit_floats", fault="raise ZeroDivisionError('in the child')"),
        'cli("volume", FIGHT, "--samples", "2000")',
        [3, "", ["RuntimeError: in a forked worker: ZeroDivisionError: in the child"]],
        1,
    ),
    blocks(
        "child-killed",
        IN_A_CHILD.format(drawer="raw_slots", fault=KILLED),
        'cli("simulate", FIGHT, "--trials", "2000")',
        ENDED,
        1,
    ),
    # The reference's row bands: the one-band value however the table is split,
    # from any start, and in one band where a fork fails or is not allowed.
    bands("two", FORKING, SWEPT, True, 1),
    bands("three-on-two-cores", cores(2) + duel(90), SWEPT, True, 1),
    bands("three", THREE_BANDS, HELD, [True, [1]], 2),
    bands("negative-guess", FORKING, NEGATIVE, True, 1),
    *(
        bands(f"short-start-{kind}", of_kind(kind) + SHORT_START, SHORT, [True] * 3, forks)
        for kind, forks in (("one", 0), ("odd-part", 1), ("short-sum", 1))
    ),
    bands("fork-fails", FORKING + FAILS.format("fork"), SWEPT, True, 1),
    bands("pipe-fails", FORKING + FAILS.format("pipe"), SWEPT, True, 1),
    bands("fork-warns", FORKING + FORK_WARNS, SWEPT, True, 1),
    bands(
        "second-thread", FORKING + SECOND_THREAD, f"[streams.can_fork(), {SWEPT}]", [False, True], 0
    ),
    bands("one-core", ONE_CORE + FORKING, SWEPT, True, 0),
    # A failure in any band reaches the caller.
    bands("bottom-fails", FORKING + BOTTOM_FAILS, SWEPT, BOTTOM_FAILED.format(42, 83), 1),
    bands(
        "three-bottom-fails",
        THREE_BANDS + BOTTOM_FAILS,
        HELD,
        [BOTTOM_FAILED.format(60, 89), [1]],
        2,
    ),
    bands(
        "bottom-raises",
        FORKING + BOTTOM_BAND.format("raise ZeroDivisionError(f'rows {lo}..{hi - 1}')"),
        SWEPT,
        "RuntimeError: in a forked worker: ZeroDivisionError: rows 42..83",
        1,
    ),
    bands("top-fails", FORKING + TOP_FAILS, SWEPT, "AssertionError: the top band failed first", 1),
    # The solve command, whose check sweeps the reference from the answer's denominator.
    bands("solve", FORKING, SOLVED + "[::2]", [0, []], 1),
    bands("solve-fork-fails", FORKING + ALONE + FAILS.format("fork"), AS_ALONE, [[0, []], True], 1),
    bands("solve-child-killed", FORKING + BOTTOM_BAND.format(KILLED), SOLVED, ENDED, 1),
    # At 64v64 that sweep is one band's work, rows 0..63, in the caller.
    bands(
        "solve-in-one-band-fails",
        "inst = seeded_duel(64)\n" + BOTTOM_FAILS,
        SOLVED,
        [3, "", [BOTTOM_FAILED.format(0, 63)]],
        0,
    ),
    *(
        bands(f"solve-{kind}", of_kind(kind) + WRONG_ROUTE, "told()", [1, 1, True], forks)
        for kind, forks in (("wrong-numerator", 1), ("denominator-1", 0), ("extra-prime", 1))
    ),
]


@pytest.mark.parametrize("setup, expression, outcome, forks", FORKED)
def test_forked(setup, expression, outcome, forks):
    """The setup, then the computation: its outcome, its forks, no descriptor
    left open, no child left, and a line printed before it printed once.

    The counts are taken after the setup, which may read `fds`, the
    descriptors open as the computation starts.
    """
    script = FORK_PRELUDE + setup + (
        f"print({PRINTED!r})\n"
        "fds, before = open_fds(), len(forks)\n"
        f"outcome = caught(lambda: {expression})\n"
        "print(json.dumps([outcome, len(forks) - before, open_fds() - fds, children_left()]))\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=BUFFERED_ENV, timeout=60
    )
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout.splitlines()[-1]) == [outcome, forks, 0, False]
    # stdout is a pipe, so block-buffered: a child that flushed it on exit
    # would print the line a second time.
    assert result.stdout.count(PRINTED) == 1
