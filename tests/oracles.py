"""Test-only helpers that exercise the library from outside its public surface.

`use_block_trials` and `record_blocks` set and observe how many trials each
block of `streams.trial_blocks` holds, for the partitioning tests.
`order_invariance_probe` replays one duel under random reorderings of both
sides, each under its own derived seed: the winner distribution does not
depend on firing order, so every estimate must land near the same exact
value.  Nothing in the CLI or the benchmark needs it, so it lives here.
"""

import random

import numpy as np

from skirmish import Instance, SimConfig, simulate, streams


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
