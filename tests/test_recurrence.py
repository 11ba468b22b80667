"""The reference solver, its full-table oracle and the one-A product."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skirmish import (
    GroupedInstance,
    Instance,
    InvalidInstance,
    fill_table,
    p_a_wins_recursive,
    recurrence,
)
from skirmish.cli import main

from conftest import grouped_instances, instances, speed_lists, speeds
from oracles import p_a_wins_single_a


class TestKnownValues:
    @pytest.mark.parametrize(
        "a, b, expected",
        [
            ((1,), (1,), Fraction(1, 2)),
            ((30, 20), (15, 36), Fraction(270, 539)),
            ((2, 1), (1,), Fraction(5, 6)),
            ((1,), (1, 1), Fraction(1, 4)),
            ((15, 36), (12, 40), Fraction(314, 627)),
            ((12, 40), (20, 30), Fraction(293, 588)),
        ],
    )
    def test_values(self, a, b, expected):
        assert p_a_wins_recursive(Instance(a, b)) == expected

    def test_base_cases(self):
        assert p_a_wins_recursive(Instance((5,), ())) == 1
        assert p_a_wins_recursive(Instance((), (5,))) == 0
        with pytest.raises(InvalidInstance):
            p_a_wins_recursive(Instance((), ()))


class TestDpTable:
    def test_entries_satisfy_recurrence(self):
        inst = Instance((3, 1, 4), (1, 5))
        table = fill_table(inst)
        m, n = table.m, table.n
        assert len(table.memo) == (m + 1) * (n + 1) - 1
        for (i, j), value in table.memo.items():
            if j == n:
                assert value == 1
            elif i == m:
                assert value == 0
            else:
                p = inst.a[i] / (inst.a[i] + inst.b[j])
                assert value == p * table.memo[i, j + 1] + (1 - p) * table.memo[i + 1, j]

    def test_no_recursion_depth_dependence(self):
        # 80 vs 80 equal speeds: 6561 exact entries, still instant.
        inst = Instance((1,) * 80, (1,) * 80)
        assert p_a_wins_recursive(inst) == Fraction(1, 2)


def _huge_rational_speeds(count, digits, seed):
    rng = random.Random(seed)
    low, high = 10 ** (digits - 1), 10**digits
    speeds = [Fraction(rng.randrange(low, high), rng.randrange(low, high)) for _ in range(count)]
    assert len({s.denominator for s in speeds}) == count
    return tuple(speeds)


class TestFractionFreeKernel:
    """The integer kernel against the full-table Fraction oracle."""

    @given(instances(min_side=0))
    def test_matches_full_table(self, inst):
        assert p_a_wins_recursive(inst) == fill_table(inst).value

    @given(grouped_instances().map(GroupedInstance.expand))
    @settings(max_examples=25, deadline=None)
    def test_matches_full_table_with_repeated_speeds(self, inst):
        assert p_a_wins_recursive(inst) == fill_table(inst).value

    @pytest.mark.parametrize(
        "inst",
        [
            Instance(("1e400", "1", "1e-400"), ("1e-400", "3", "1e400")),
            Instance(("1e-400",), ("1e-400", "1e400")),
            Instance(_huge_rational_speeds(3, 300, 1), _huge_rational_speeds(4, 300, 2)),
            Instance(
                tuple(random.Random(40).sample(range(1, 5001), 40)),
                tuple(random.Random(41).sample(range(1, 5001), 40)),
            ),
        ],
        ids=["1e400-mixed", "1e-400-lone-a", "300-digit-rationals", "40v40-integers"],
    )
    def test_extreme_speeds(self, inst):
        assert p_a_wins_recursive(inst) == fill_table(inst).value

    @pytest.mark.parametrize("shrink", [lambda d: d // 2, lambda d: 1], ids=["half", "one"])
    def test_too_small_denominator_is_caught(self, monkeypatch, capsys, shrink):
        # Integer speeds (1, 3) vs (1,): D = 2 * 4 = 8 is the least that clears
        # both cells, so a smaller D leaves a remainder, which must not pass.
        path_denominator = recurrence.path_denominator
        monkeypatch.setattr(
            recurrence, "path_denominator", lambda a, b: shrink(path_denominator(a, b))
        )
        with pytest.raises(AssertionError, match="inexact division"):
            p_a_wins_recursive(Instance((1, 3), (1,)))
        assert main(["solve", "--a", "1,3", "--b", "1"]) == 3
        assert "inexact division" in capsys.readouterr().err


class TestSingleAFastPath:
    def test_examples(self):
        assert p_a_wins_single_a(1, (1, 1)) == Fraction(1, 4)
        assert p_a_wins_single_a(60, (20, 30)) == Fraction(1, 2)
        assert p_a_wins_single_a(5, ()) == 1

    @given(speeds, speed_lists(0, 5))
    def test_matches_reference(self, a1, b):
        assert p_a_wins_single_a(a1, b) == p_a_wins_recursive(Instance((a1,), b))


class TestInvariants:
    @given(instances())
    def test_complementarity(self, inst):
        assert p_a_wins_recursive(inst) + p_a_wins_recursive(inst.swapped()) == 1

    @given(instances(), st.randoms(use_true_random=False))
    def test_permutation_invariance(self, inst, rng):
        a, b = list(inst.a), list(inst.b)
        rng.shuffle(a)
        rng.shuffle(b)
        assert p_a_wins_recursive(Instance(tuple(a), tuple(b))) == p_a_wins_recursive(inst)

    @given(instances(), speeds)
    def test_scaling_invariance(self, inst, scale):
        scaled = Instance(
            tuple(s * scale for s in inst.a), tuple(s * scale for s in inst.b)
        )
        assert p_a_wins_recursive(scaled) == p_a_wins_recursive(inst)

    @given(instances(min_side=1), speeds)
    def test_extra_defender_strictly_hurts(self, inst, extra):
        p_before = p_a_wins_recursive(inst)
        p_after = p_a_wins_recursive(Instance(inst.a, inst.b + (extra,)))
        assert p_after < p_before

    @given(instances())
    def test_probability_bounds(self, inst):
        p = p_a_wins_recursive(inst)
        assert 0 <= p <= 1
