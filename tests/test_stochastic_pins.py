"""Seeded counts pinned bit for bit.

Every count below was computed by the draw loops that preceded the
lockstep kernels (a Python loop per random-adjacent trial, 32768-trial and
65536-sample blocks), so a change to a draw loop that moves any seeded
result fails here.  The README examples are the first case; the
12 v 12 case spans many blocks of each loop.
"""

from fractions import Fraction as F

import pytest

from skirmish import Instance, SimConfig, estimate_volume, simulate

from oracles import complement_estimates

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


@pytest.mark.parametrize("case", CASES)
def test_volume(case):
    inst, samples, seed, _, _, hits, swapped_hits = CASES[case]
    forward, backward = complement_estimates(inst, samples, seed)
    assert (forward.hits, backward.hits) == (hits, swapped_hits)


def test_readme_volume_examples():
    assert estimate_volume(FIGHT, 1_000_000, seed=0).hits == 500508
