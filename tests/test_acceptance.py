"""Acceptance gate: the eight release criteria, one pass/fail line each.

Every deterministic check is exact rational arithmetic at zero tolerance;
the two stochastic checks use fixed seeds and `streams.gate`, the
four-standard-error test that crosscheck applies.
Run with plain pytest; each criterion prints `[acceptance] criterion N:
PASS` (or FAIL) directly to the terminal.
"""

import random
import time
from contextlib import contextmanager
from fractions import Fraction

import pytest

from skirmish import (
    GroupedInstance,
    Instance,
    SimConfig,
    closed_form_report,
    default_epsilon,
    estimate_volume,
    group,
    matching_curve_grid,
    p_a_wins_distinct,
    p_a_wins_epsilon,
    p_a_wins_recursive,
    p_a_wins_series,
    p_two_speeds,
    relate,
    simulate,
    solve,
    verify_cycle,
)
from skirmish import streams

HALF = Fraction(1, 2)


@pytest.fixture
def criterion(capsys):
    """Context manager printing the one-line verdict for a criterion."""

    @contextmanager
    def check(number):
        try:
            yield
        except BaseException:
            _announce(capsys, number, "FAIL")
            raise
        _announce(capsys, number, "PASS")

    return check


def _announce(capsys, number, verdict):
    with capsys.disabled():
        print(f"[acceptance] criterion {number}: {verdict}")


def exact_value(instance):
    """Residue-route value for any instance, checked later against recursion."""
    return solve(instance).value


@pytest.fixture(scope="module")
def random_instances():
    """200 seeded random instances, m,n <= 6, small rationals, repeats common."""
    rng = random.Random(20260819)
    pool = [Fraction(num, den) for num in range(1, 13) for den in (1, 2, 3, 4)]
    instances = []
    for _ in range(200):
        m = rng.randint(1, 6)
        n = rng.randint(1, 6)
        palette = rng.sample(pool, rng.randint(1, 4))
        a = tuple(rng.choice(palette) for _ in range(m))
        b = tuple(rng.choice(palette) for _ in range(n))
        instances.append(Instance(a, b))
    return instances


def test_criterion_1_known_duels(criterion):
    cases = [
        (("30", "20"), ("15", "36"), Fraction(270, 539)),
        (("15", "36"), ("12", "40"), Fraction(314, 627)),
        (("12", "40"), ("20", "30"), Fraction(293, 588)),
        (("60",), ("20", "30"), HALF),
        (("60",), ("15", "36"), HALF),
        (("60",), ("12", "40"), HALF),
    ]
    with criterion(1):
        for a, b, expected in cases:
            instance = Instance(a, b)
            start = time.perf_counter()
            recursive = p_a_wins_recursive(instance)
            residue = p_a_wins_distinct(instance).value
            elapsed = time.perf_counter() - start
            assert recursive == expected
            assert residue == expected
            assert elapsed < 1.0


def test_criterion_2_equal_speed_law(criterion):
    with criterion(2):
        for k in range(1, 11):
            grouped = GroupedInstance(((Fraction(1), k),), ((Fraction(1), k),))
            assert p_two_speeds(k, k, 1) == HALF
            assert p_a_wins_series(grouped).value == HALF
            assert p_a_wins_recursive(grouped.expand()) == HALF


def test_criterion_3_method_equivalence(criterion, random_instances):
    with criterion(3):
        start = time.perf_counter()
        for instance in random_instances:
            reference = p_a_wins_recursive(instance)
            assert exact_value(instance) == reference
            grouped = group(instance)
            if len(grouped.a_groups) == 1 and len(grouped.b_groups) == 1:
                assert closed_form_report(grouped).value == reference
        assert time.perf_counter() - start < 30.0


def test_criterion_4_complementarity_and_invariance(criterion, random_instances):
    rng = random.Random(4)
    with criterion(4):
        for instance in random_instances:
            reference = p_a_wins_recursive(instance)

            assert reference + p_a_wins_recursive(instance.swapped()) == 1

            a, b = list(instance.a), list(instance.b)
            rng.shuffle(a)
            rng.shuffle(b)
            assert p_a_wins_recursive(Instance(tuple(a), tuple(b))) == reference

            scale = Fraction(rng.randint(1, 9), rng.randint(1, 9))
            scaled = Instance(
                tuple(speed * scale for speed in instance.a),
                tuple(speed * scale for speed in instance.b),
            )
            assert p_a_wins_recursive(scaled) == reference
            assert exact_value(scaled) == reference


def test_criterion_5_epsilon_convergence(criterion):
    grouped = GroupedInstance(((Fraction(1), 3),), ((Fraction(1), 2),))
    exact = p_a_wins_recursive(grouped.expand())
    with criterion(5):
        epsilon = default_epsilon(grouped)
        errors = [
            abs(p_a_wins_epsilon(grouped, epsilon / scale).value - exact)
            for scale in (1, 10, 100)
        ]
        assert errors[0] > errors[1] > errors[2]
        assert errors[2] / exact < Fraction(1, 10_000)


def test_criterion_6_stochastic_oracles(criterion):
    duels = [
        (Instance(("30", "20"), ("15", "36")), Fraction(270, 539)),
        (Instance(("1",), ("1", "1")), Fraction(1, 4)),
    ]
    with criterion(6):
        start = time.perf_counter()
        for instance, exact in duels:
            sim = simulate(instance, SimConfig(trials=200_000, seed=0))
            assert streams.gate(sim.a_wins, sim.trials, exact)[0]

            vol = estimate_volume(instance, samples=1_000_000, seed=0)
            assert streams.gate(vol.hits, vol.samples, exact)[0]
        assert time.perf_counter() - start < 30.0


def test_criterion_7_intransitivity_witness(criterion):
    with criterion(7):
        witness = verify_cycle(
            ("0.9", "0.0526317"), ("1",), ("0.414213", "0.414212")
        )
        assert witness.p_pq > HALF
        assert witness.p_qr > HALF
        assert witness.p_rp > HALF
        assert witness.is_cycle is True


def test_criterion_8_matching_curve(criterion):
    with criterion(8):
        points = matching_curve_grid(1, 100)
        assert len(points) == 100
        for x, y in points:
            assert (1 + x) * (1 + y) == 2
            assert relate((Fraction(1),), (x, y)).verdict == "matched"
