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
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from . import streams
from .model import Instance, InvalidInstance, parse_speed

POLICIES = ("frontmost", "random-adjacent")

_BLOCK_TRIALS = 1 << 15


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
    trial's slot holds that many draws.  Finished trials keep drawing into
    the void (their death counters stop moving), which keeps the stream
    layout independent of how long each duel happens to last.
    """
    import numpy as np

    a, b = inst.a, inst.b
    m, n = len(a), len(b)
    # Entry [i][j]: threshold for the duel's current front pair after i A
    # deaths and j B deaths.  B dies front to back; A from the rear, since
    # its leading particle is the last one fired.
    thresholds = np.array(
        [[win_threshold(a[m - 1 - i], b[j]) for j in range(n)] for i in range(m)],
        dtype=np.uint64,
    )
    collisions = m + n - 1
    width = streams.slot_width(collisions)
    a_wins = 0
    for start in range(0, cfg.trials, _BLOCK_TRIALS):
        count = min(_BLOCK_TRIALS, cfg.trials - start)
        raw = streams.raw_slots(cfg.seed, start, count, width)
        dead_a = np.zeros(count, dtype=np.int64)
        dead_b = np.zeros(count, dtype=np.int64)
        for step in range(collisions):
            active = (dead_a < m) & (dead_b < n)
            if not active.any():
                break
            front = thresholds[np.minimum(dead_a, m - 1), np.minimum(dead_b, n - 1)]
            a_survives = raw[:, step] < front
            dead_b += active & a_survives
            dead_a += active & ~a_survives
        if not ((dead_a == m) ^ (dead_b == n)).all():
            raise AssertionError("a duel failed to finish within its draw budget")
        a_wins += int((dead_b == n).sum())
    return a_wins


def _run_random_adjacent(inst: Instance, cfg: SimConfig) -> int:
    """Each collision spends three draws: pick A, pick B, resolve.

    Survivor picks map a raw word u to floor(u * k / 2^64), the uniform
    index trick on exact integers.  Trials run one by one in Python; this
    policy is the order-invariance witness, not the throughput path.
    """
    a, b = inst.a, inst.b
    m, n = len(a), len(b)
    thresholds = [[win_threshold(ai, bj) for bj in b] for ai in a]
    width = streams.slot_width((m + n - 1) * 3)
    a_wins = 0
    for start in range(0, cfg.trials, _BLOCK_TRIALS):
        count = min(_BLOCK_TRIALS, cfg.trials - start)
        raw = streams.raw_slots(cfg.seed, start, count, width)
        for row in raw:
            alive_a = list(range(m))
            alive_b = list(range(n))
            position = 0
            while alive_a and alive_b:
                pick_a, pick_b, outcome = (int(x) for x in row[position : position + 3])
                position += 3
                ia = alive_a[(pick_a * len(alive_a)) >> 64]
                ib = alive_b[(pick_b * len(alive_b)) >> 64]
                if outcome < thresholds[ia][ib]:
                    alive_b.remove(ib)
                else:
                    alive_a.remove(ia)
            if not alive_b:
                a_wins += 1
    return a_wins


def order_invariance_probe(
    inst: Instance, cfg: SimConfig, permutations: int
) -> list[SimReport]:
    """Simulate random reorderings of both sides under derived seeds.

    Samples `permutations` shuffles and keeps the distinct orderings (an
    all-equal side can only produce one), so the list may be shorter than
    asked.  Every estimate should land within a few standard errors of the
    common exact value; the exercise exists to check that ordering is
    statistical noise, not signal.
    """
    if permutations < 1:
        raise ValueError("need at least one permutation")
    shuffler = random.Random(cfg.seed)
    orderings: list[tuple[tuple, tuple]] = []
    for _ in range(permutations):
        a = list(inst.a)
        b = list(inst.b)
        shuffler.shuffle(a)
        shuffler.shuffle(b)
        ordering = (tuple(a), tuple(b))
        if ordering not in orderings:
            orderings.append(ordering)
    reports = []
    for index, (a, b) in enumerate(orderings):
        sub_cfg = SimConfig(cfg.trials, streams.derived_seed(cfg.seed, index), cfg.policy)
        reports.append(simulate(Instance(a, b), sub_cfg))
    return reports
