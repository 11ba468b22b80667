"""Deterministic draw streams for the stochastic estimators.

Philox (numpy's 4x64 counter-based generator) keyed by the user seed.
Trial number t owns the fixed slice [t*width, (t+1)*width) of the key's raw
64-bit output stream, where width is the per-trial draw budget rounded up
to a whole Philox block of four outputs.  Any contiguous trial range can
then be regenerated on its own by starting the counter at the range's
first block, so partitioning trials across blocks (or workers) reproduces
a serial run bit for bit.

The estimators reduce their trials with `block_sums`, in blocks of about
BLOCK_BYTES of raw draws (1638 trials of 80 words at 40 v 40), so that a
block and one transposed copy of it fit a 2 MiB per-core L2 cache and each
pass over a block stays out of main memory.  The blocks are dealt
round-robin to one worker thread per usable core (numpy releases the GIL
while it draws and computes), and each worker allocates its scratch
buffers once and reuses them for every block it takes.  The counts are
integers added at the end, so neither the block size nor the number of
cores that run them changes a count.

`gate` is the one test of an estimate: is it within SIGMAS standard
errors of the exact value?  crosscheck, the release gate and the tests
all ask it.

numpy is imported inside the functions that draw, not at module level, so
the exact commands, which never draw, start without loading it.
"""

from __future__ import annotations

import math
import os
import sys

from .model import whole_number

# Not `typing.TYPE_CHECKING`: type checkers treat any constant of this name
# as true, and importing `typing` would cost every command its start-up time.
TYPE_CHECKING = False
if TYPE_CHECKING:
    from collections.abc import Callable
    from fractions import Fraction

    import numpy as np

OUTPUTS_PER_BLOCK = 4  # Philox4x64 emits four 64-bit words per counter tick
BLOCK_BYTES = 1 << 20  # raw draws per block of trials
SIGMAS = 4  # how many standard errors an estimate may stray from the exact value


def check_seed(seed) -> int:
    """`seed` as a Python int in [0, 2^64), the Philox key range."""
    return whole_number(seed, "seed", low=0, high=2**64 - 1)


def binomial(hits: int, draws: int) -> tuple[float, float]:
    """The hit fraction and its binomial standard error, as both estimators report them."""
    estimate = hits / draws
    return estimate, math.sqrt(estimate * (1.0 - estimate) / draws)


def gate(hits: int, draws: int, p: Fraction) -> tuple[bool, float]:
    """(agree, sigmas): is `hits` out of `draws` within SIGMAS standard errors of p?

    The standard error is the null one, sqrt(draws*p*(1-p)) at the exact p
    (a Fraction strictly between 0 and 1), so a run that hits always or
    never is judged like any other.  agree compares z^2 <= SIGMAS^2
    exactly; sigmas is |z| as a float, capped at the float range.
    """
    z_squared = (hits - draws * p) ** 2 / (draws * p * (1 - p))
    return z_squared <= SIGMAS**2, math.sqrt(min(z_squared, sys.float_info.max))


def slot_width(draws: int) -> int:
    """Per-trial draw budget rounded up to whole Philox blocks (minimum one)."""
    blocks = max(1, -(-draws // OUTPUTS_PER_BLOCK))
    return blocks * OUTPUTS_PER_BLOCK


def raw_slots(seed: int, start: int, count: int, width: int) -> np.ndarray:
    """Raw 64-bit draws for trials [start, start + count), one row per trial."""
    if width % OUTPUTS_PER_BLOCK:
        raise ValueError("slot width must be a multiple of the Philox block size")
    if count < 1:
        raise ValueError("need at least one trial")
    import numpy as np

    bit_generator = np.random.Philox(
        key=seed, counter=start * width // OUTPUTS_PER_BLOCK
    )
    return bit_generator.random_raw(count * width).reshape(count, width)


def usable_cores() -> int:
    """How many cores this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def block_sums(
    seed: int,
    trials: int,
    width: int,
    make_count: Callable[[int], Callable[[np.ndarray], tuple[int, ...]]],
) -> tuple[int, ...]:
    """Sum of count(raw_slots(...)) over trials [0, trials) in blocks of BLOCK_BYTES.

    Each worker calls make_count(rows) once, with the most trials a block
    holds, and gets the function that counts one block; that is where its
    buffers live.  Worker w takes blocks w, w + workers, ...  One worker
    runs on the calling thread and starts no thread.  An exception in any
    worker reaches the caller once every worker has stopped.
    """
    rows = min(trials, max(1, BLOCK_BYTES // (8 * width)))
    starts = range(0, trials, rows)
    workers = min(usable_cores(), len(starts))

    def run(worker: int) -> list[tuple[int, ...]]:
        count = make_count(rows)
        return [
            count(raw_slots(seed, start, min(rows, trials - start), width))
            for start in starts[worker::workers]
        ]

    if workers == 1:
        parts = run(0)
    else:
        # Imported here: a command that runs one worker never needs it.
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(workers) as pool:
            parts = [part for chunk in pool.map(run, range(workers)) for part in chunk]
    return tuple(map(sum, zip(*parts)))


def unit_floats(raw: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Map raw 64-bit words to doubles in [0, 1), filling the 53-bit mantissa.

    The doubles go to `out` (float64, raw's shape) and nothing is
    allocated: raw is shifted in place, so its words are spent.
    """
    import numpy as np

    return np.multiply(np.right_shift(raw, np.uint64(11), out=raw), 2.0**-53, out=out)
