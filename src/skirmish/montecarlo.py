"""Stochastic play-out of the annihilation duel.

Each collision is resolved by comparing one raw 64-bit draw against the
exact integer threshold floor(2^64 * a/(a+b)), so a single collision's win
odds carry no float rounding.  Draw streams follow the per-trial slot
contract in `streams`: a report is reproducible bit for bit from
(instance, trials, seed, policy) and does not change when the trial range
is processed in blocks.

Two collision-scheduling policies are provided.  "frontmost" always
collides the two leading survivors, which is the physical reading of the
beams.  "random-adjacent" collides a uniformly chosen surviving A with a
uniformly chosen surviving B; the duel's winner distribution is invariant
under collision order, so both policies estimate the same probability, and
the pair of them exists to let tests demonstrate exactly that.

Both policies run every trial of a block in lockstep, one numpy operation
per collision step over the whole block, reading the step's draws from a
transposed copy of the block so that each step touches one contiguous row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import streams
from .model import Instance, InvalidInstance, parse_speed

POLICIES = ("frontmost", "random-adjacent")


@dataclass(frozen=True)
class SimConfig:
    """Trial count, stream seed, and collision-scheduling policy."""

    trials: int
    seed: int = 0
    policy: str = "frontmost"

    def __post_init__(self) -> None:
        if isinstance(self.trials, bool) or not isinstance(self.trials, int):
            raise ValueError("trials must be an int")
        if self.trials < 1:
            raise ValueError("trials must be at least 1")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must fit in an unsigned 64-bit word")
        if self.policy not in POLICIES:
            raise ValueError(f"unknown policy {self.policy!r}; choose from {POLICIES}")


@dataclass(frozen=True)
class SimReport:
    """Winner tally plus the binomial standard error of the estimate."""

    a_wins: int
    trials: int
    estimate: float
    std_error: float
    seed: int
    policy: str

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
    p = parse_speed(a) / (parse_speed(a) + parse_speed(b))
    return (p.numerator << 64) // p.denominator


def simulate(inst: Instance, cfg: SimConfig) -> SimReport:
    """Play the whole duel cfg.trials times and report the A-win frequency."""
    if not inst.a or not inst.b:
        raise InvalidInstance("simulation needs particles on both sides")
    if cfg.policy == "frontmost":
        a_wins = _run_frontmost(inst, cfg)
    else:
        a_wins = _run_random_adjacent(inst, cfg)
    estimate = a_wins / cfg.trials
    std_error = math.sqrt(estimate * (1.0 - estimate) / cfg.trials)
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
    long each duel happens to last.  Each block is transposed once, so a
    step reads one contiguous column: one gather, one compare, one add.
    """
    import numpy as np

    a, b = inst.a, inst.b
    m, n = len(a), len(b)
    # pair[i][j]: threshold for the front pair after i A deaths and j B
    # deaths.  B dies front to back; A from the rear, since its leading
    # particle is the last one fired.
    pair = np.array(
        [[win_threshold(a[m - 1 - i], b[j]) for j in range(n)] for i in range(m)],
        dtype=np.uint64,
    )
    collisions = m + n - 1
    # rows[step][dead_b] = pair[step - dead_b][dead_b] while the duel is live.
    steps = np.arange(collisions)[:, None]
    b_deaths = np.arange(n + 1)
    a_deaths = steps - b_deaths
    live = (a_deaths >= 0) & (a_deaths < m) & (b_deaths < n)
    rows = np.where(
        live, pair[np.clip(a_deaths, 0, m - 1), np.minimum(b_deaths, n - 1)], np.uint64(0)
    )
    width = streams.slot_width(collisions)
    a_wins = 0
    for raw in streams.trial_blocks(cfg.seed, cfg.trials, width):
        columns = np.ascontiguousarray(raw[:, :collisions].T)
        dead_b = np.zeros(len(raw), dtype=np.intp)
        for row, column in zip(rows, columns):
            dead_b += column < row.take(dead_b)
        if not ((dead_b == n) | (len(columns) - dead_b >= m)).all():
            raise AssertionError("a duel failed to finish within its draw budget")
        a_wins += int((dead_b == n).sum())
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
    a_wins = 0
    for raw in streams.trial_blocks(cfg.seed, cfg.trials, width):
        columns = np.ascontiguousarray(raw[:, : 3 * collisions].T)
        trials = np.arange(len(raw))
        alive_a = np.ones((len(raw), m), dtype=bool)
        alive_b = np.ones((len(raw), n), dtype=bool)
        left_a = np.full(len(raw), m, dtype=np.uint64)
        left_b = np.full(len(raw), n, dtype=np.uint64)
        for c in range(collisions):
            live = (left_a > 0) & (left_b > 0)
            ia = _ranked(alive_a, _scaled_floor(columns[3 * c], left_a))
            ib = _ranked(alive_b, _scaled_floor(columns[3 * c + 1], left_b))
            a_survives = columns[3 * c + 2] < pair[ia, ib]
            b_dies = live & a_survives
            a_dies = live & ~a_survives
            alive_b[trials, ib] &= ~b_dies
            alive_a[trials, ia] &= ~a_dies
            left_b -= b_dies
            left_a -= a_dies
        if not ((left_a == 0) ^ (left_b == 0)).all():
            raise AssertionError("a duel failed to finish within its draw budget")
        a_wins += int((left_b == 0).sum())
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
    """Column of each row's alive entry of the given rank, counting from 0."""
    import numpy as np

    return (alive.cumsum(axis=1) > rank.astype(np.intp)[:, None]).argmax(axis=1)
