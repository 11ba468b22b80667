"""Test-only helpers that exercise the library from outside its public surface.

`use_block_trials` and `record_blocks` set and observe how many trials each
block of `streams.trial_blocks` holds, for the partitioning tests.
`order_invariance_probe` replays one duel under random reorderings of both
sides, each under its own derived seed: the winner distribution does not
depend on firing order, so every estimate must land near the same exact
value.  Nothing in the CLI or the benchmark needs it, so it lives here.

The exact oracles restate a solver the plain way, one reduced Fraction per
factor or term: `p_a_wins_single_a` (one A particle must win every
collision in turn), `distinct_residues_reference` (the simple-pole residues)
and `p_two_speeds_reference` (the single-speed binomial sum).  The library
computes the same exact values on integer numerators.
"""

import math
import random
from fractions import Fraction

import numpy as np

from skirmish import Instance, SimConfig, parse_speed, simulate, streams


def p_a_wins_single_a(a1, b) -> Fraction:
    """One A particle must win every collision in turn: a product, no table."""
    speed = parse_speed(a1)
    result = Fraction(1)
    for bj in b:
        bj = parse_speed(bj)
        result *= speed / (speed + bj)
    return result


def distinct_residues_reference(inst: Instance) -> tuple[Fraction, ...]:
    """-prod_{k != i} a_i/(a_i - a_k) * prod_j a_i/(a_i + b_j), factor by factor."""
    a, b = inst.a, inst.b
    residues = []
    for i, ai in enumerate(a):
        term = Fraction(1)
        for k, ak in enumerate(a):
            if k != i:
                term *= ai / (ai - ak)
        for bj in b:
            term *= ai / (ai + bj)
        residues.append(-term)
    return tuple(residues)


def p_two_speeds_reference(m: int, n: int, v) -> Fraction:
    """sum_{i<m} C(n+i-1, i) * v^i / (1+v)^(n+i), term by term."""
    v = parse_speed(v)
    return sum(
        (math.comb(n + i - 1, i) * v**i / (1 + v) ** (n + i) for i in range(m)),
        Fraction(0),
    )


def derived_seed(seed: int, index: int) -> int:
    """Stable 64-bit sub-seed for auxiliary runs (e.g. permutation probes)."""
    return int(np.random.SeedSequence((seed, index)).generate_state(1, np.uint64)[0])


def order_invariance_probe(inst: Instance, cfg: SimConfig, permutations: int) -> list:
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
        sub_cfg = SimConfig(cfg.trials, derived_seed(cfg.seed, index), cfg.policy)
        reports.append(simulate(Instance(a, b), sub_cfg))
    return reports


def use_block_trials(monkeypatch, trials, width):
    """Make `streams.trial_blocks` yield `trials` trials a block (None: default)."""
    if trials is not None:
        monkeypatch.setattr(streams, "BLOCK_BYTES", trials * 8 * width)


def record_blocks(monkeypatch):
    """List that collects the trial count of every `raw_slots` call."""
    blocks = []
    raw_slots = streams.raw_slots

    def counted(seed, start, count, width):
        blocks.append(count)
        return raw_slots(seed, start, count, width)

    monkeypatch.setattr(streams, "raw_slots", counted)
    return blocks
