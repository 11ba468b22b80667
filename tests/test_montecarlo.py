"""Monte Carlo play-out: determinism, partitioning, policies, statistics."""

import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

import skirmish.montecarlo as mc
from skirmish import (
    Instance,
    InvalidInstance,
    SimConfig,
    order_invariance_probe,
    p_a_wins_recursive,
    simulate,
    win_threshold,
)
from skirmish import streams

from conftest import speeds

FIGHT = Instance((30, 20), (15, 36))
FIGHT_P = float(Fraction(270, 539))


def within_four_sigma(report, exact):
    return abs(report.estimate - float(exact)) <= 4 * report.std_error


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SimConfig(0)
        with pytest.raises(ValueError):
            SimConfig(10, seed=-1)
        with pytest.raises(ValueError):
            SimConfig(10, seed=2**64)
        with pytest.raises(ValueError):
            SimConfig(10, policy="nearest")
        with pytest.raises(ValueError):
            SimConfig(10.0)


class TestThreshold:
    def test_exact_floor_values(self):
        assert win_threshold(1, 1) == 1 << 63
        assert win_threshold(1, 2) == (1 << 64) // 3
        assert win_threshold(3, 1) == ((3 << 64) // 4)
        assert win_threshold(7, 7) == 1 << 63

    @given(speeds, speeds)
    def test_scale_invariant(self, a, b):
        assert win_threshold(a, b) == win_threshold(3 * a, 3 * b)

    @given(speeds, speeds)
    def test_momentum_identity(self, a, b):
        # The collision rule preserves momentum on average, exactly.
        p = a / (a + b)
        assert a * p - b * (1 - p) == a - b


class TestSimulate:
    def test_rejects_empty_sides(self):
        with pytest.raises(InvalidInstance):
            simulate(Instance((5,), ()), SimConfig(10))
        with pytest.raises(InvalidInstance):
            simulate(Instance((), (5,)), SimConfig(10))

    def test_deterministic(self):
        cfg = SimConfig(50_000, seed=3)
        assert simulate(FIGHT, cfg) == simulate(FIGHT, cfg)

    def test_partitioning_invariance(self, monkeypatch):
        serial = simulate(FIGHT, SimConfig(10_000, seed=3))
        monkeypatch.setattr(mc, "_BLOCK_TRIALS", 1 << 7)
        blocked = simulate(FIGHT, SimConfig(10_000, seed=3))
        assert blocked == serial

    def test_report_arithmetic(self):
        report = simulate(FIGHT, SimConfig(5_000, seed=2))
        assert 0 <= report.a_wins <= report.trials == 5_000
        assert report.estimate == report.a_wins / report.trials
        expected_se = math.sqrt(report.estimate * (1 - report.estimate) / 5_000)
        assert report.std_error == expected_se
        assert report.seed == 2 and report.policy == "frontmost"

    def test_estimates_track_exact_values(self):
        assert within_four_sigma(simulate(FIGHT, SimConfig(60_000, seed=0)), FIGHT_P)
        quarter = simulate(Instance((1,), (1, 1)), SimConfig(60_000, seed=0))
        assert within_four_sigma(quarter, 0.25)

    def test_random_adjacent_policy_agrees(self):
        report = simulate(FIGHT, SimConfig(20_000, seed=5, policy="random-adjacent"))
        assert report.policy == "random-adjacent"
        assert within_four_sigma(report, FIGHT_P)

    def test_policies_draw_from_independent_layouts(self):
        # Same seed, different draw interpretation; both must stay unbiased.
        front = simulate(Instance((2, 1), (1,)), SimConfig(30_000, seed=8))
        randomized = simulate(
            Instance((2, 1), (1,)), SimConfig(30_000, seed=8, policy="random-adjacent")
        )
        exact = Fraction(5, 6)
        assert within_four_sigma(front, exact)
        assert within_four_sigma(randomized, exact)

    def test_frontmost_matches_scalar_reference(self):
        # Re-play the trials one draw at a time from the same stream and
        # check the vectorized runner reproduces every outcome.
        inst = Instance((3, 1), (2, 2))
        trials = 512
        report = simulate(inst, SimConfig(trials, seed=13))
        m, n = len(inst.a), len(inst.b)
        width = streams.slot_width(m + n - 1)
        raw = streams.raw_slots(13, 0, trials, width)
        a_wins = 0
        collisions_used = []
        for row in raw:
            dead_a = dead_b = step = 0
            while dead_a < m and dead_b < n:
                a_speed = inst.a[m - 1 - dead_a]
                b_speed = inst.b[dead_b]
                if int(row[step]) < win_threshold(a_speed, b_speed):
                    dead_b += 1
                else:
                    dead_a += 1
                step += 1
            collisions_used.append(step)
            a_wins += dead_b == n
        assert report.a_wins == a_wins
        # Every duel ends after m + n - survivors collisions.
        assert all(1 <= c <= m + n - 1 for c in collisions_used)


class TestOrderInvarianceProbe:
    def test_single_ordering_collapses(self):
        reports = order_invariance_probe(Instance((1,), (1,)), SimConfig(1_000, 0), 5)
        assert len(reports) == 1

    def test_all_orderings_compatible(self):
        exact = p_a_wins_recursive(FIGHT)
        reports = order_invariance_probe(FIGHT, SimConfig(20_000, seed=11), 5)
        assert 1 < len(reports) <= 5
        assert all(within_four_sigma(r, exact) for r in reports)
        # Derived seeds differ run to run.
        assert len({r.seed for r in reports}) == len(reports)

    def test_small_instance(self):
        reports = order_invariance_probe(Instance((2, 1), (1,)), SimConfig(20_000, 2), 3)
        assert all(within_four_sigma(r, Fraction(5, 6)) for r in reports)

    def test_deterministic(self):
        first = order_invariance_probe(FIGHT, SimConfig(2_000, seed=4), 4)
        second = order_invariance_probe(FIGHT, SimConfig(2_000, seed=4), 4)
        assert first == second

    def test_needs_positive_permutations(self):
        with pytest.raises(ValueError):
            order_invariance_probe(FIGHT, SimConfig(10), 0)


class TestReportJson:
    def test_schema(self):
        report = simulate(Instance((1,), (1,)), SimConfig(100, seed=9))
        payload = report.to_json()
        assert set(payload) == {"aWins", "trials", "estimate", "stdError", "seed", "policy"}
        assert payload["trials"] == 100
        assert payload["seed"] == 9
        assert payload["aWins"] == report.a_wins
