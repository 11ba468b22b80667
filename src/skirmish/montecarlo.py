"""Stochastic play-out of the annihilation duel.

Each collision is resolved by comparing one raw 64-bit draw against the
exact integer threshold floor(2^64 * a/(a+b)), so a single collision's win
odds carry no float rounding.  Draw streams follow the per-trial slot
contract in `streams`: a report is reproducible bit for bit from
(instance, trials, seed, policy) and does not change with the block size
or with how many cores run the blocks.

Two collision-scheduling policies are provided.  "frontmost" always
collides the two leading survivors, which is the physical reading of the
beams.  "random-adjacent" collides a uniformly chosen surviving A with a
uniformly chosen surviving B; the duel's winner distribution is invariant
under collision order, so both policies estimate the same probability, and
the pair of them exists to let tests demonstrate exactly that.

Both policies run every trial of a block in lockstep, one numpy operation
per collision step over the whole block, reading the step's draws as one
column of the block `streams.raw_slots` returned, in place: the strided
column reads as fast as a contiguous copy would, and no worker holds a
second block.
`streams.block_sums` deals the blocks to one worker per usable core, the
caller and forked children, since a step's few small numpy calls would
leave threads waiting on each other's GIL.
"""

from __future__ import annotations

from . import streams
from .model import Instance, InvalidInstance, _Record, parse_speed, whole_number

POLICIES = ("frontmost", "random-adjacent")


class SimConfig(_Record):
    """Trial count, stream seed, and collision-scheduling policy."""

    __slots__ = ("trials", "seed", "policy")

    def __init__(self, trials: int, seed: int = 0, policy: str = "frontmost") -> None:
        if policy not in POLICIES:
            raise ValueError(f"unknown policy {policy!r}; choose from {POLICIES}")
        super().__init__(whole_number(trials, "trials"), streams.check_seed(seed), policy)


class SimReport(_Record):
    """Winner tally plus the binomial standard error of the estimate.

    `SimReport(a_wins: int, trials: int, estimate: float, std_error: float,
    seed: int, policy: str)`.
    """

    __slots__ = ("a_wins", "trials", "estimate", "std_error", "seed", "policy")

    def to_json(self) -> dict:
        return {
            "aWins": self.a_wins,
            "trials": self.trials,
            "estimate": self.estimate,
            "stdError": self.std_error,
            "seed": self.seed,
            "policy": self.policy,
        }


def win_threshold(a, b) -> int:
    """floor(2^64 * a/(a+b)): side A survives iff its raw draw is below this."""
    a = parse_speed(a)
    p = a / (a + parse_speed(b))
    return (p.numerator << 64) // p.denominator


def simulate(inst: Instance, cfg: SimConfig) -> SimReport:
    """Play the whole duel cfg.trials times and report the A-win frequency."""
    if not inst.a or not inst.b:
        raise InvalidInstance("simulation needs particles on both sides")
    if cfg.policy == "frontmost":
        a_wins = _run_frontmost(inst, cfg)
    else:
        a_wins = _run_random_adjacent(inst, cfg)
    estimate, std_error = streams.binomial(a_wins, cfg.trials)
    return SimReport(a_wins, cfg.trials, estimate, std_error, cfg.seed, cfg.policy)


def _run_frontmost(inst: Instance, cfg: SimConfig) -> int:
    """All trials advance in lockstep; one draw column per collision step.

    A duel of m vs n particles lasts at most m + n - 1 collisions, so each
    trial's slot holds that many draws.  After `step` collisions a live duel
    has lost `dead_b` B particles and `step - dead_b` A particles, so
    `dead_b` alone is the state.  Row `step` of the threshold table maps
    `dead_b` to the front pair's threshold, and to 0 once the duel is over:
    no draw is below 0, so finished trials keep drawing into the void with
    their counter frozen, which keeps the stream layout independent of how
    long each duel happens to last.  A step reads its column of the block
    in place: one gather, one compare, one add.  Each worker allocates its
    `dead_b` once and reuses it for every block it takes.
    """
    import numpy as np

    a, b = inst.a, inst.b
    m, n = len(a), len(b)
    collisions = m + n - 1
    # After i A deaths and j B deaths the duel is at step i + j, and the
    # front pair is A's (m-1-i)th particle against B's jth: B dies front to
    # back, A from the rear, since its leading particle is the last fired.
    rows = np.zeros((collisions, n + 1), dtype=np.uint64)
    for i in range(m):
        for j in range(n):
            rows[i + j, j] = win_threshold(a[m - 1 - i], b[j])
    width = streams.slot_width(collisions)
    # A narrowed slot leaves fewer steps than collisions; the budget check catches it.
    steps = min(collisions, width)

    def make_count(block_trials):
        dead_b_buffer = np.empty(block_trials, dtype=np.intp)

        def count(raw):
            dead_b = dead_b_buffer[: len(raw)]
            dead_b.fill(0)
            for row, column in zip(rows, raw[:, :steps].T):
                dead_b += column < row.take(dead_b)
            if not ((dead_b == n) | (steps - dead_b >= m)).all():
                raise AssertionError("a duel failed to finish within its draw budget")
            return (int((dead_b == n).sum()),)

        return count

    (a_wins,) = streams.block_sums(cfg.seed, cfg.trials, width, make_count)
    return a_wins


def _run_random_adjacent(inst: Instance, cfg: SimConfig) -> int:
    """Each collision spends three draws: pick A, pick B, resolve.

    All trials of a block advance in lockstep, collision c reading columns
    3c, 3c + 1 and 3c + 2 of the trial's slot.  A pick maps a raw word u
    to the alive particle of rank floor(u * k / 2^64) among the k alive on
    its side, ranked in firing order; `_scaled_floor` takes that floor
    exactly.  Finished trials keep drawing with their alive masks frozen.
    """
    import numpy as np

    a, b = inst.a, inst.b
    m, n = len(a), len(b)
    pair = np.array([[win_threshold(ai, bj) for bj in b] for ai in a], dtype=np.uint64)
    collisions = m + n - 1
    width = streams.slot_width(3 * collisions)
    # A narrowed slot leaves fewer steps than collisions; the budget check catches it.
    steps = min(collisions, width // 3)

    def make_count(block_trials):
        everyone = np.arange(block_trials)

        def count(raw):
            columns = raw[:, : 3 * steps].T
            trials = everyone[: len(raw)]
            alive_a = np.ones((m, len(raw)), dtype=np.uint8)
            alive_b = np.ones((n, len(raw)), dtype=np.uint8)
            left_a = np.full(len(raw), m, dtype=np.uint64)
            left_b = np.full(len(raw), n, dtype=np.uint64)
            for c in range(steps):
                live = (left_a > 0) & (left_b > 0)
                ia = _ranked(alive_a, _scaled_floor(columns[3 * c], left_a))
                ib = _ranked(alive_b, _scaled_floor(columns[3 * c + 1], left_b))
                a_survives = columns[3 * c + 2] < pair[ia, ib]
                b_dies = live & a_survives
                a_dies = live & ~a_survives
                alive_b[ib, trials] &= ~b_dies
                alive_a[ia, trials] &= ~a_dies
                left_b -= b_dies
                left_a -= a_dies
            if not ((left_a == 0) ^ (left_b == 0)).all():
                raise AssertionError("a duel failed to finish within its draw budget")
            return (int((left_b == 0).sum()),)

        return count

    (a_wins,) = streams.block_sums(cfg.seed, cfg.trials, width, make_count)
    return a_wins


def _scaled_floor(words, k):
    """floor(words * k / 2^64) on uint64 arrays, exact for every k < 2^32.

    Split each word into 32-bit halves: (hi * k + (lo * k >> 32)) >> 32.
    Neither product nor the sum can pass 2^64 (Lemire 2019).
    """
    import numpy as np

    half = np.uint64(32)
    return ((words >> half) * k + ((words & np.uint64(0xFFFFFFFF)) * k >> half)) >> half


def _ranked(alive, rank):
    """Row of each column's alive entry of the given rank, counting from 0.

    Leaving out the last row's prefix keeps the row valid where none is alive.
    """
    import numpy as np

    return (alive[:-1].cumsum(axis=0, dtype=np.uint64) <= rank).sum(axis=0)
