"""Deterministic draw streams for the stochastic estimators.

Philox (numpy's 4x64 counter-based generator) keyed by the user seed.
Trial number t owns the fixed slice [t*width, (t+1)*width) of the key's raw
64-bit output stream, where width is the per-trial draw budget rounded up
to a whole Philox block of four outputs.  Any contiguous trial range can
then be regenerated on its own by starting the counter at the range's
first block, so partitioning trials across blocks (or workers) reproduces
a serial run bit for bit.

The estimators walk their trials in blocks from `trial_blocks`, each about
BLOCK_BYTES of raw draws (1638 trials of 80 words at 40 v 40), so that a
block and one transposed copy of it fit a 2 MiB per-core L2 cache and each
pass over a block stays out of main memory.  Block size never changes a
count.

numpy is imported inside the functions that draw, not at module level, so
the exact commands, which never draw, start without loading it.
"""

from __future__ import annotations

import math

from .model import whole_number

# Not `typing.TYPE_CHECKING`: type checkers treat any constant of this name
# as true, and importing `typing` would cost every command its start-up time.
TYPE_CHECKING = False
if TYPE_CHECKING:
    from collections.abc import Iterator

    import numpy as np

OUTPUTS_PER_BLOCK = 4  # Philox4x64 emits four 64-bit words per counter tick
BLOCK_BYTES = 1 << 20  # raw draws per block of trials


def check_seed(seed) -> int:
    """`seed` as a Python int in [0, 2^64), the Philox key range."""
    return whole_number(seed, "seed", low=0, high=2**64 - 1)


def binomial(hits: int, draws: int) -> tuple[float, float]:
    """The hit fraction and its binomial standard error, as both estimators report them."""
    estimate = hits / draws
    return estimate, math.sqrt(estimate * (1.0 - estimate) / draws)


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


def trial_blocks(seed: int, trials: int, width: int) -> Iterator[np.ndarray]:
    """raw_slots for trials [0, trials) in blocks of BLOCK_BYTES, one trial at least."""
    step = max(1, BLOCK_BYTES // (8 * width))
    for start in range(0, trials, step):
        yield raw_slots(seed, start, min(step, trials - start), width)


def unit_floats(raw: np.ndarray) -> np.ndarray:
    """Map raw 64-bit words to doubles in [0, 1), filling the 53-bit mantissa."""
    import numpy as np

    return (raw >> np.uint64(11)) * 2.0**-53

