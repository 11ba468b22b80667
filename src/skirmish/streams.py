"""Deterministic draw streams for the stochastic estimators.

Philox (numpy's 4x64 counter-based generator) keyed by the user seed.
Trial number t owns the fixed slice [t*width, (t+1)*width) of the key's raw
64-bit output stream, where width is the per-trial draw budget rounded up
to a whole Philox block of four outputs.  Any contiguous trial range can
then be regenerated on its own by starting the counter at the range's
first block, so partitioning trials across blocks (or workers) reproduces
a serial run bit for bit.

Two drawers read that stream: `raw_slots` hands out the 64-bit words and
`unit_floats` the same words as doubles in [0, 1), each allocating one
block per call.  The estimators reduce their trials with `block_sums`, in
blocks of about BLOCK_BYTES of draws (1638 trials of 80 words at 40 v 40),
so that a block fits a 2 MiB per-core L2 cache and each pass over it stays
out of main memory.  The blocks are dealt round-robin to one worker per
process: worker 0 runs in the calling process and every other worker in a
forked child, which sends its counts back up a pipe.  Children, not
threads: a lockstep step makes a few small numpy calls on one block, and
threads would spend most of their time waiting for each other's GIL.  The
counts are integers added at the end, so neither the block size nor the
number of processes that run them changes a count.

`in_processes` is the one place this package decides how many processes
run a computation, and how it falls back to one; the draw blocks and the
reference recurrence's row bands both run through it.  The recurrence
calls it only for a sweep of two bands or more, so that only a sweep that
forks loads this module: the exact commands otherwise start without it.
It forks only
where `can_fork` says it may: `os.fork` exists and no Python thread other
than the caller is alive, since only the forking thread lives on in the
child, and a lock that another thread held would stay held there.
Threads that numpy's OpenBLAS started do not count: OpenBLAS stops its
pool in a `pthread_atfork` handler, so a child forked after `import numpy`
starts with one OS thread and its BLAS calls work.  Where forking is
unsafe, unavailable or fails, the computation runs in one process, with
the same result.

`gate` is the one test of an estimate: could `hits` out of `draws` come
from the exact value, at a false-alarm rate of at most ALPHA whatever the
count?  crosscheck, the release gate and the tests all ask it.

numpy is imported inside the functions that draw, not at module level, so
the exact commands, which never draw, start without loading it.
"""

from __future__ import annotations

import math
import os
import sys
from functools import partial
from itertools import islice

from .model import whole_number

# Not `typing.TYPE_CHECKING`: type checkers treat any constant of this name
# as true, and importing `typing` would cost every command its start-up time.
TYPE_CHECKING = False
if TYPE_CHECKING:
    from collections.abc import Callable, Iterable, Iterator
    from fractions import Fraction
    from typing import TypeVar

    import numpy as np

    T = TypeVar("T")

OUTPUTS_PER_BLOCK = 4  # Philox4x64 emits four 64-bit words per counter tick
BLOCK_BYTES = 1 << 20  # raw draws per block of trials
ALPHA = 6.334e-5  # the gate's false-alarm bound: the two-sided normal tail beyond 4 sigma


def check_seed(seed) -> int:
    """`seed` as a Python int in [0, 2^64), the Philox key range."""
    return whole_number(seed, "seed", low=0, high=2**64 - 1)


def binomial(hits: int, draws: int) -> tuple[float, float]:
    """The hit fraction and its binomial standard error, as both estimators report them."""
    estimate = hits / draws
    return estimate, math.sqrt(estimate * (1.0 - estimate) / draws)


def gate(hits: int, draws: int, p: Fraction) -> tuple[bool, float]:
    """(agree, sigmas): could `hits` out of `draws` come from the exact p?

    agree is the Chernoff-Hoeffding relative-entropy test: it passes when
    draws * KL(hits/draws || p) <= ln(2/ALPHA), which bounds each tail's
    chance by ALPHA/2 at every count, so a right answer fails at most ALPHA
    of the time however few the draws or however near p is to 0 or 1.
    The logarithms of p and 1 - p are taken from p's numerator and
    denominator (a Fraction strictly between 0 and 1), so they stay finite
    where float(p) would round to 0 or 1.  sigmas is |z| against the null
    standard error sqrt(draws*p*(1-p)), as a float capped at the float
    range: the report's measure of the miss, not the test.
    """
    log_p = math.log(p.numerator) - math.log(p.denominator)
    log_q = math.log(p.denominator - p.numerator) - math.log(p.denominator)
    misses = draws - hits
    # n * KL(h/n || p), with the 0 * log 0 terms dropped.
    divergence = 0.0
    if hits:
        divergence += hits * (math.log(hits) - math.log(draws) - log_p)
    if misses:
        divergence += misses * (math.log(misses) - math.log(draws) - log_q)
    z_squared = (hits - draws * p) ** 2 / (draws * p * (1 - p))
    return divergence <= math.log(2 / ALPHA), math.sqrt(min(z_squared, sys.float_info.max))


def slot_width(draws: int) -> int:
    """Per-trial draw budget rounded up to whole Philox blocks (minimum one)."""
    blocks = max(1, -(-draws // OUTPUTS_PER_BLOCK))
    return blocks * OUTPUTS_PER_BLOCK


def raw_slots(seed: int, start: int, count: int, width: int) -> np.ndarray:
    """Raw 64-bit draws for trials [start, start + count), one row per trial."""
    return _philox(seed, start, count, width).random_raw(count * width).reshape(count, width)


def unit_floats(seed: int, start: int, count: int, width: int) -> np.ndarray:
    """The draws of `raw_slots` as doubles in [0, 1): (word >> 11) * 2^-53, bit for bit.

    numpy's `Generator.random` maps each 64-bit word to a double that way,
    filling the 53-bit mantissa, so the doubles come straight from the
    stream and no block of words is held beside them.
    """
    import numpy as np

    return np.random.Generator(_philox(seed, start, count, width)).random((count, width))


def _philox(seed: int, start: int, count: int, width: int) -> np.random.Philox:
    """The Philox stream keyed by seed, at the first word of trial `start`'s slot."""
    if width % OUTPUTS_PER_BLOCK:
        raise ValueError("slot width must be a multiple of the Philox block size")
    if count < 1:
        raise ValueError("need at least one trial")
    import numpy as np

    return np.random.Philox(key=seed, counter=start * width // OUTPUTS_PER_BLOCK)


def usable_cores() -> int:
    """How many cores this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def can_fork() -> bool:
    """Whether this process may fork a worker: os.fork exists and no other Python thread is alive.

    Read through sys.modules, so that a process that never imported
    `threading`, and so has no other Python thread, does not import it here.
    """
    threading = sys.modules.get("threading")
    return hasattr(os, "fork") and (threading is None or threading.active_count() == 1)


def in_processes(units: int, run: Callable[[int, Callable], T]) -> T:
    """run(k, start) for `units` parts of work: k processes, the caller and k - 1 children.

    k is min(units, usable_cores()) where `can_fork` allows, and 1
    otherwise.  `start(produce)` forks a child that calls produce() and
    writes each int it yields as a frame: a signed 8-byte length, then that
    many bytes; it returns the read end of the child's pipe, which `frames`
    reads.  An exception in the child goes up as a frame of negative length
    that carries its text.  The child ends with os._exit, so it never runs
    the parent's exit handlers or flushes the parent's stdio buffers a
    second time.  Once run returns or raises, every read end is closed and
    only then every child reaped: a child still writing fails at once
    instead of waiting on a full pipe that nobody reads.  Where a pipe or a
    fork fails (OSError), run(1, start) runs once more and forks nothing.
    """
    processes = min(units, usable_cores()) if units > 1 and can_fork() else 1
    try:
        return _reaped(processes, run)
    except OSError:
        if processes == 1:
            raise
    return _reaped(1, run)  # no pipe or no process to spare: one process needs neither


def _reaped(processes: int, run: Callable[[int, Callable], T]) -> T:
    """run(processes, start), then close every child's pipe and reap every child."""
    pids: list[int] = []
    pipes: list = []

    def start(produce: Callable[[], Iterable[int]]):
        read_end, write_end = os.pipe()
        try:
            pid = _fork()
        except OSError:
            os.close(read_end)
            os.close(write_end)
            raise
        if pid == 0:
            os.close(read_end)
            _child(produce, write_end)
        pids.append(pid)
        os.close(write_end)
        pipes.append(open(read_end, "rb"))
        return pipes[-1]

    try:
        return run(processes, start)
    finally:
        for pipe in pipes:
            pipe.close()
        for pid in pids:
            os.waitpid(pid, 0)


def _fork() -> int:
    # From Python 3.12 os.fork warns when the process has a second OS thread,
    # as numpy's BLAS pool is, and a filter that turns the warning into an
    # error raises it after the child exists, so that nobody could reap the
    # child.  That pool is safe to fork (see the module docstring).  Without
    # `warnings` imported, the default filters ignore the warning here.
    warnings = sys.modules.get("warnings")
    if warnings is None:
        return os.fork()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DeprecationWarning)
        return os.fork()


def _child(produce: Callable[[], Iterable[int]], write_end: int) -> None:
    """In a forked child: write every int of produce(), or the failure's frame, then exit."""
    status = 1
    try:
        with open(write_end, "wb") as out:
            try:
                for value in produce():
                    size = (value.bit_length() + 7) // 8
                    out.write(size.to_bytes(8, "little", signed=True))
                    out.write(value.to_bytes(size, "little"))
                    out.flush()
            except Exception as failure:  # the parent raises it again from the frame
                text = f"{type(failure).__name__}: {failure}".encode()
                out.write((-len(text)).to_bytes(8, "little", signed=True) + text)
        status = 0
    finally:
        os._exit(status)


def frames(pipe) -> Iterator[int]:
    """The ints a child of `in_processes` writes, in order; it never stops by itself.

    A frame of negative length carries the text of the child's failure,
    raised here as an AssertionError when it was one (the checks of the
    recurrence and of the estimators raise those) and as a RuntimeError
    otherwise.  A pipe that ends before a frame does is a RuntimeError too.
    """
    while True:
        header = pipe.read(8)
        size = int.from_bytes(header, "little", signed=True)
        payload = pipe.read(abs(size))
        if len(header) < 8 or len(payload) < abs(size):
            raise RuntimeError("a forked worker ended without its values")
        if size < 0:
            name, _, text = payload.decode().partition(": ")
            if name == "AssertionError":
                raise AssertionError(text)
            raise RuntimeError(f"in a forked worker: {payload.decode()}")
        yield int.from_bytes(payload, "little")


def block_sums(
    draw: Callable[[int, int, int, int], np.ndarray],
    seed: int,
    trials: int,
    width: int,
    count: Callable[[np.ndarray], tuple[int, ...]],
) -> tuple[int, ...]:
    """Sum of count(draw(seed, start, rows, width)) over trials [0, trials), BLOCK_BYTES a block.

    draw is `raw_slots` or `unit_floats`, and count may spend the block it
    is handed.  Worker w of k takes blocks w, w + k, ..., one worker to
    each process of `in_processes`, worker 0 in the caller.  An exception
    in any worker reaches the caller once every child has been reaped.
    """
    rows = min(trials, max(1, BLOCK_BYTES // (8 * width)))
    starts = range(0, trials, rows)

    def share(worker: int, workers: int) -> tuple[int, ...]:
        parts = [
            count(draw(seed, start, min(rows, trials - start), width))
            for start in starts[worker::workers]
        ]
        return tuple(map(sum, zip(*parts)))

    def spread(workers: int, start) -> tuple[int, ...]:
        pipes = [start(partial(share, w, workers)) for w in range(1, workers)]
        parts = [share(0, workers)]
        parts += [tuple(islice(frames(pipe), len(parts[0]))) for pipe in pipes]
        return tuple(map(sum, zip(*parts)))

    return in_processes(len(starts), spread)
