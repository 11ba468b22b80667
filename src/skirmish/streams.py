"""Deterministic draw streams for the stochastic estimators.

Philox (numpy's 4x64 counter-based generator) keyed by the user seed.
Trial number t owns the fixed slice [t*width, (t+1)*width) of the key's raw
64-bit output stream, where width is the per-trial draw budget rounded up
to a whole Philox block of four outputs.  Any contiguous trial range can
then be regenerated on its own by starting the counter at the range's
first block, so partitioning trials across blocks (or workers) reproduces
a serial run bit for bit.

numpy is imported inside the functions that draw, not at module level, so
the exact commands, which never draw, start without loading it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np

OUTPUTS_PER_BLOCK = 4  # Philox4x64 emits four 64-bit words per counter tick


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


def unit_floats(raw: np.ndarray) -> np.ndarray:
    """Map raw 64-bit words to doubles in [0, 1), filling the 53-bit mantissa."""
    import numpy as np

    return (raw >> np.uint64(11)) * 2.0**-53


def derived_seed(seed: int, index: int) -> int:
    """Stable 64-bit sub-seed for auxiliary runs (e.g. permutation probes)."""
    import numpy as np

    return int(np.random.SeedSequence((seed, index)).generate_state(1, np.uint64)[0])
