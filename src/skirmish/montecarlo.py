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

Both policies run every trial of a block in lockstep, a few whole-block
numpy operations per collision step, reading the step's draws as columns
of the block `streams.raw_slots` returned.  Frontmost's state is one count
per trial.  Random-adjacent keeps, per side, a running count of the alive
particles up to each position, as a (side size - 1) x trials array: a
pick compares its rank against it, and a death takes one from its rows
from the dead particle on.  The columns are read in place: the strided
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
    return thresholds([parse_speed(a)], [parse_speed(b)])[0][0]


def thresholds(a, b) -> list[list[int]]:
    """`win_threshold(a_i, b_j)` as row i, column j, for Fraction speeds.

    Each pair is cross-multiplied to integers A/B = a_i/b_j, and
    floor(2^64 * A/(A+B)) is the same integer for any such pair, so no
    speed is parsed and no Fraction divided per pair.  The speeds are read
    here, not from `Instance.integer_speeds`, which the exact routes share:
    a fault there still shows as an estimate that misses the exact value.
    """
    b = [(s.numerator, s.denominator) for s in b]
    return [
        [(p * s << 64) // (p * s + r * q) for r, s in b]
        for p, q in ((s.numerator, s.denominator) for s in a)
    ]


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
    in place: one gather, one compare, one add.
    """
    import numpy as np

    a, b = inst.a, inst.b
    m, n = len(a), len(b)
    collisions = m + n - 1
    # After i A deaths and j B deaths the duel is at step i + j, and the
    # front pair is A's (m-1-i)th particle against B's jth: B dies front to
    # back, A from the rear, since its leading particle is the last fired.
    i, j = np.indices((m, n))
    rows = np.zeros((collisions, n + 1), dtype=np.uint64)
    rows[i + j, j] = np.array(thresholds(a, b), dtype=np.uint64)[m - 1 - i, j]
    width = streams.slot_width(collisions)
    # A narrowed slot leaves fewer steps than collisions; the budget check catches it.
    steps = min(collisions, width)

    def count(raw):
        dead_b = np.zeros(len(raw), dtype=np.intp)
        for row, column in zip(rows, raw[:, :steps].T):
            dead_b += column < row.take(dead_b)
        if not ((dead_b == n) | (steps - dead_b >= m)).all():
            raise AssertionError("a duel failed to finish within its draw budget")
        return (int((dead_b == n).sum()),)

    (a_wins,) = streams.block_sums(streams.raw_slots, cfg.seed, cfg.trials, width, count)
    return a_wins


def _run_random_adjacent(inst: Instance, cfg: SimConfig) -> int:
    """Each collision spends three draws: pick A, pick B, resolve.

    All trials of a block advance in lockstep, collision c reading columns
    3c, 3c + 1 and 3c + 2 of the trial's slot.  A pick maps a raw word u
    to the alive particle of rank floor(u * k / 2^64) among the k alive on
    its side, ranked in firing order; `_scaled_floor` takes that floor
    exactly.  Each side's state is a running count: `seen[i, t]` is how
    many of the first i + 1 particles of trial t are alive, so the particle
    of rank r is the number of rows with `seen <= r`, and a death at
    particle p takes one from every row from p on.  The last particle needs
    no row, which leaves a side of one with none.  Finished trials keep
    drawing with their counts frozen.
    """
    import numpy as np

    a, b = inst.a, inst.b
    m, n = len(a), len(b)
    pair = np.array(thresholds(a, b), dtype=np.uint64).ravel()
    collisions = m + n - 1
    width = streams.slot_width(3 * collisions)
    # A narrowed slot leaves fewer steps than collisions; the budget check catches it.
    steps = min(collisions, width // 3)
    rows_a = np.arange(m - 1)[:, None]
    rows_b = np.arange(n - 1)[:, None]

    def count(raw):
        columns = raw[:, : 3 * steps].T
        seen_a = (rows_a + 1).astype(np.uint64).repeat(len(raw), axis=1)
        seen_b = (rows_b + 1).astype(np.uint64).repeat(len(raw), axis=1)
        left_a = np.full(len(raw), m, dtype=np.uint64)
        left_b = np.full(len(raw), n, dtype=np.uint64)
        for c in range(steps):
            live = (left_a > 0) & (left_b > 0)
            ia = (seen_a <= _scaled_floor(columns[3 * c], left_a)).sum(axis=0)
            ib = (seen_b <= _scaled_floor(columns[3 * c + 1], left_b)).sum(axis=0)
            a_survives = columns[3 * c + 2] < pair.take(ia * n + ib)
            b_dies = live & a_survives
            a_dies = live & ~a_survives
            seen_b -= (rows_b >= ib) & b_dies
            seen_a -= (rows_a >= ia) & a_dies
            left_b -= b_dies
            left_a -= a_dies
        if not ((left_a == 0) ^ (left_b == 0)).all():
            raise AssertionError("a duel failed to finish within its draw budget")
        return (int((left_b == 0).sum()),)

    (a_wins,) = streams.block_sums(streams.raw_slots, cfg.seed, cfg.trials, width, count)
    return a_wins


def _scaled_floor(words, k):
    """floor(words * k / 2^64) on uint64 arrays, exact for every k < 2^32.

    Split each word into 32-bit halves: (hi * k + (lo * k >> 32)) >> 32.
    Neither product nor the sum can pass 2^64 (Lemire 2019).
    """
    import numpy as np

    half = np.uint64(32)
    return ((words >> half) * k + ((words & np.uint64(0xFFFFFFFF)) * k >> half)) >> half

