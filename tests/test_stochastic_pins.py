"""Seeded counts pinned bit for bit.

Every count below was computed by the draw loops that preceded the
lockstep kernels (a Python loop per random-adjacent trial, 32768-trial and
65536-sample blocks), so a change to a draw loop that moves any seeded
result fails here.  The README examples are the first case; the
12 v 12 case spans many blocks of each loop.  The same counts must come
out however many workers share the blocks, forked or in process.
"""

import os
from fractions import Fraction as F

import pytest

from skirmish import Instance, SimConfig, estimate_volume, simulate, streams, volume

from oracles import complement_estimates, use_block_trials

FIGHT = Instance((30, 20), (15, 36))
TWELVE = Instance(tuple(range(1, 13)), tuple(F(k, 3) for k in range(20, 44, 2)))

# (instance, draws, seed, frontmost aWins, random-adjacent aWins, A hits, B hits)
CASES = {
    "readme": (FIGHT, 200_000, 0, 100284, 100530, 99933, 100067),
    "quarter": (Instance((1,), (1, 1)), 1_000_000, 0, 249240, 249934, 249574, 750426),
    "repeated": (Instance((2, 2, 2, 5, 5), (3, 3, 7)), 30_000, 7, 18897, 18812, 18891, 11109),
    "one-v-n": (Instance((9,), (1, 2, 3, 4, 5, 6)), 30_000, 11, 4463, 4366, 4457, 25543),
    "n-v-one": (Instance((1, 1, 2, 3, 5), (F(7, 2),)), 30_000, 12, 27402, 27427, 27429, 2571),
    "twelve": (TWELVE, 100_000, 5, 14267, 14368, 14420, 85580),
}


@pytest.mark.parametrize("case", CASES)
def test_frontmost(case):
    inst, trials, seed, a_wins, *_ = CASES[case]
    assert simulate(inst, SimConfig(trials, seed)).a_wins == a_wins


@pytest.mark.parametrize("case", CASES)
def test_random_adjacent(case):
    inst, trials, seed, _, a_wins, *_ = CASES[case]
    assert simulate(inst, SimConfig(trials, seed, "random-adjacent")).a_wins == a_wins


# Random-adjacent alone at wider sides and at a side of one, pinned from
# the kernel that kept uint8 alive masks and ranked them by a cumsum.
# (instance, trials, seed, random-adjacent aWins)
WIDE = {
    "forty": (
        Instance(tuple(range(1, 41)), tuple(F(2 * k + 1, 2) for k in range(40))),
        4000, 40, 2164,
    ),
    "hundred-v-three": (Instance(tuple(range(1, 101)), (800, 1200, 1700)), 2000, 100, 1506),
    "three-v-hundred": (Instance((800, 1200, 1700), tuple(range(1, 101))), 2000, 100, 468),
    "one-v-one": (Instance((3,), (5,)), 100_000, 1, 37399),
}


@pytest.mark.parametrize("case", WIDE)
def test_random_adjacent_wide(case):
    inst, trials, seed, a_wins = WIDE[case]
    assert simulate(inst, SimConfig(trials, seed, "random-adjacent")).a_wins == a_wins


@pytest.mark.parametrize("case", CASES)
def test_volume(case):
    inst, samples, seed, _, _, hits, swapped_hits = CASES[case]
    forward, backward = complement_estimates(inst, samples, seed)
    assert (forward.hits, backward.hits) == (hits, swapped_hits)


def test_readme_volume_examples():
    assert estimate_volume(FIGHT, 1_000_000, seed=0).hits == 500508


def _counts_on(cores, inst, monkeypatch):
    """Frontmost, random-adjacent and volume counts on `cores` workers, 7 trials a block."""
    monkeypatch.setattr(streams, "usable_cores", lambda: cores)
    forks = []
    fork = os.fork

    def counted_fork():
        forks.append(1)
        return fork()

    monkeypatch.setattr(os, "fork", counted_fork)
    collisions = len(inst.a) + len(inst.b) - 1
    counts = []
    for policy, draws in (("frontmost", collisions), ("random-adjacent", 3 * collisions)):
        use_block_trials(monkeypatch, 7, streams.slot_width(draws))
        counts.append(simulate(inst, SimConfig(700, 3, policy)).a_wins)
    use_block_trials(monkeypatch, 7, streams.slot_width(collisions + 1))
    counts.extend(volume._hit_counts(inst, 700, 3))
    # One worker runs in the caller and forks nothing; each other one is a child.
    assert len(forks) == 3 * (cores - 1 if streams.can_fork() else 0)
    return counts


@pytest.mark.parametrize("inst", [FIGHT, TWELVE], ids=["fight", "twelve"])
def test_counts_do_not_depend_on_worker_count(inst):
    results = []
    for cores in (1, 2, 3):
        with pytest.MonkeyPatch.context() as monkeypatch:
            results.append(_counts_on(cores, inst, monkeypatch))
    assert results[1:] == results[:1] * 2


def _margin_and_hits(inst, samples, seed):
    """Smallest |score_a - score_b| / sum|w ln x| over the samples, and both sides' hits.

    The scores are rebuilt from `streams.unit_floats` with one plain sum per
    sample, not volume's two matmuls, so the hits below come from another
    summation order.
    """
    import numpy as np

    weights = np.array([float(s) for s in inst.a] + [-float(s) for s in inst.b])
    width = streams.slot_width(len(weights))
    smallest, hits_a, hits_b = np.inf, 0, 0
    for start in range(0, samples, 1 << 16):
        count = min(1 << 16, samples - start)
        floats = streams.unit_floats(seed, start, count, width)[:, : len(weights)]
        terms = np.log(floats) * weights
        gap = terms.sum(axis=1)  # score_a - score_b
        smallest = min(smallest, (np.abs(gap) / np.abs(terms).sum(axis=1)).min())
        hits_a += int((gap < 0).sum())
        hits_b += int((gap > 0).sum())
    return smallest, hits_a, hits_b


@pytest.mark.parametrize(
    "inst, samples, seed, hits, swapped_hits",
    [(inst, samples, seed, hits, swapped) for inst, samples, seed, *_, hits, swapped
     in CASES.values()]
    + [(FIGHT, 1_000_000, 0, 500508, None)],
    ids=[*CASES, "readme-1e6"],
)
def test_volume_pins_hold_on_any_libm_and_blas(inst, samples, seed, hits, swapped_hits):
    # Each score sums m + n products w*ln(x), so its float error is a few
    # (m + n + 2) * 2^-52 of sum|w ln x| plus some ulp of each log: far below
    # 2^-30.  With every sample's score gap above that, no libm's log and no
    # BLAS's summation order can move a sample across the boundary.
    smallest, hits_a, hits_b = _margin_and_hits(inst, samples, seed)
    assert smallest > 2.0**-30
    assert hits_a == hits
    assert swapped_hits is None or hits_b == swapped_hits
