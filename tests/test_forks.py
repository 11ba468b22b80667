"""The process runner, the estimators' blocks on forked workers, and the processes that never fork.

`streams.in_processes` runs the reference's row bands too; those are
tested in test_recurrence.py.  Here the runner must call its computation
once on one process, or once more after a failed fork, and reap every
child whatever the computation returns or raises.  The counts of forked
blocks must equal the one-worker counts, a failure in any worker must
reach the caller, and no child, descriptor or doubled stdout line may be
left behind.  Where forking fails or is unsafe, everything runs in
process with the same counts.
"""

import errno
import os
import threading
import warnings

import pytest

from skirmish import (
    Instance,
    SimConfig,
    estimate_volume,
    p_a_wins_recursive,
    simulate,
    streams,
)
from skirmish.cli import main

from conftest import SOLVE_FORKING_SIZE, seeded_duel
from oracles import needs_fork, run_fresh, use_block_trials

FIGHT = Instance((30, 20), (15, 36))

# Small blocks, so that 2000 trials of FIGHT make 16 to 48 of them.
ESTIMATOR_PRELUDE = """
import numpy  # loaded before any descriptor is counted, as a command loads it
from skirmish import SimConfig, estimate_volume, simulate

streams.BLOCK_BYTES = 1 << 12
FIGHT = Instance((30, 20), (15, 36))

def counts(inst, trials, seed):
    return [
        simulate(inst, SimConfig(trials, seed, policy)).a_wins
        for policy in ("frontmost", "random-adjacent")
    ] + [estimate_volume(inst, trials, seed).hits]
"""


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


def run_blocks(body):
    return run_fresh(ESTIMATOR_PRELUDE + body)


@needs_fork
@pytest.mark.draws
class TestForkedBlocks:
    def test_counts_match_one_worker(self):
        out, seen = run_blocks(
            "print('printed before the fork')\n"
            "fds = open_fds()\n"
            "report = []\n"
            "for cores in (2, 3, 1):\n"
            "    streams.usable_cores = lambda: cores\n"
            "    before = len(forks)\n"
            "    seen = counts(FIGHT, 2000, 3)\n"
            "    report.append([cores, len(forks) - before, seen])\n"
            "print(json.dumps({'report': report, 'fds': open_fds() - fds,"
            " 'children': children_left()}))\n"
        )
        (_, two, forked_two), (_, three, forked_three), (_, one, in_process) = seen["report"]
        # Forks for the three estimators on two and three workers, none on one.
        assert (two, three, one) == (3, 6, 0)
        assert forked_two == forked_three == in_process
        assert (seen["fds"], seen["children"]) == (0, False)
        # stdout is a pipe, so block-buffered: a child that flushed it on exit
        # would print the line a second time.
        assert out.count("printed before the fork") == 1

    @pytest.mark.parametrize("failing", ["child", "caller"])
    def test_short_draw_budget_in_one_worker_reaches_the_caller(self, failing):
        # Four steps finish a 4 v 4 duel only when one side loses every
        # collision; zero draws make side A win them all.  So the blocks of
        # the one worker fail the budget check and the other's all pass.
        _, seen = run_blocks(
            "caller = os.getpid()\n"
            "streams.slot_width = lambda draws: 4\n"
            "raw_slots = streams.raw_slots\n"
            "def drawn(*args):\n"
            "    raw = raw_slots(*args)\n"
            f"    fails = os.getpid() {'!=' if failing == 'child' else '=='} caller\n"
            "    return raw if fails else raw * 0\n"
            "streams.raw_slots = drawn\n"
            "fds = open_fds()\n"
            "argv = ['simulate', '--a', '1,1,1,1', '--b', '1,1,1,1', '--trials', '2000']\n"
            "with contextlib.redirect_stdout(io.StringIO()) as out,"
            " contextlib.redirect_stderr(io.StringIO()) as err:\n"
            "    code = main(argv)\n"
            "print(json.dumps([code, len(forks), open_fds() - fds, children_left(),"
            " out.getvalue(), 'AssertionError: a duel failed to finish within its draw budget'"
            " in err.getvalue()]))\n"
        )
        # Exit code, forks, fds left open, a child left unreaped, stdout, the error.
        assert seen == [3, 1, 0, False, "", True]

    def test_other_failure_in_a_child_names_itself(self):
        _, seen = run_blocks(
            "caller = os.getpid()\n"
            "unit_floats = streams.unit_floats\n"
            "def drawn(*args):\n"
            "    if os.getpid() != caller:\n"
            "        raise ZeroDivisionError('a fault in the child')\n"
            "    return unit_floats(*args)\n"
            "streams.unit_floats = drawn\n"
            "fds = open_fds()\n"
            "argv = ['volume', '--a', '30,20', '--b', '15,36', '--samples', '2000']\n"
            "with contextlib.redirect_stdout(io.StringIO()) as out,"
            " contextlib.redirect_stderr(io.StringIO()) as err:\n"
            "    code = main(argv)\n"
            "print(json.dumps([code, len(forks), open_fds() - fds, children_left(),"
            " out.getvalue(), 'RuntimeError: in a forked worker: ZeroDivisionError: a fault"
            " in the child' in err.getvalue()]))\n"
        )
        assert seen == [3, 1, 0, False, "", True]


def all_counts():
    """Both policies' wins and the volume hits for FIGHT, on two workers of 7-trial blocks."""
    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(streams, "usable_cores", lambda: 2)
        counts = []
        for policy, draws in (("frontmost", 3), ("random-adjacent", 9)):
            use_block_trials(monkeypatch, 7, streams.slot_width(draws))
            counts.append(simulate(FIGHT, SimConfig(700, 3, policy)).a_wins)
        use_block_trials(monkeypatch, 7, streams.slot_width(4))
        counts.append(estimate_volume(FIGHT, 700, 3).hits)
    return counts


@pytest.mark.draws
class TestInProcess:
    @pytest.mark.parametrize("broken", ["fork", "pipe"])
    def test_failed_fork_or_pipe_gives_the_same_counts(self, monkeypatch, capsys, broken):
        expected = all_counts()
        tried = []

        def failing(*args):
            tried.append(1)
            raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))

        monkeypatch.setattr(os, broken, failing)
        assert all_counts() == expected
        # One try for each estimator, then one worker in process.
        assert len(tried) == 3
        monkeypatch.setattr(streams, "usable_cores", lambda: 2)
        for argv in (
            ["simulate", "--a", "30,20", "--b", "15,36", "--trials", "200000"],
            ["volume", "--a", "30,20", "--b", "15,36", "--samples", "200000"],
        ):
            assert main(argv) == 0
        assert capsys.readouterr().err == ""
        assert len(tried) == 5
        assert_no_child()

    def test_no_fork_while_a_second_thread_lives(self, monkeypatch):
        monkeypatch.setattr(streams, "usable_cores", lambda: 2)
        # From the answer's denominator, the reference asks for two bands.
        duel = seeded_duel(SOLVE_FORKING_SIZE)
        value = p_a_wins_recursive(duel)
        expected = all_counts(), value

        def forbidden():
            pytest.fail("forked while a second Python thread was alive")

        monkeypatch.setattr(os, "fork", forbidden)
        stop = threading.Event()
        thread = threading.Thread(target=stop.wait)
        thread.start()
        try:
            assert not streams.can_fork()
            assert (all_counts(), p_a_wins_recursive(duel, value.denominator)) == expected
        finally:
            stop.set()
            thread.join(timeout=10)
        assert not thread.is_alive()

    def test_a_warning_from_fork_leaves_no_child_unreaped(self, monkeypatch):
        # From Python 3.12, os.fork warns in a process with a second OS
        # thread, after the child exists; here that is played on any version,
        # under the error filter the test suite runs with.
        expected = all_counts()
        fork = os.fork

        def warning_fork():
            pid = fork()
            if pid:
                warnings.warn("this process is multi-threaded", DeprecationWarning)
            return pid

        monkeypatch.setattr(os, "fork", warning_fork)
        assert all_counts() == expected
        assert_no_child()
