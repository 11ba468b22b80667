"""Residue solvers: simple poles, series poles, closed forms, perturbation."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skirmish import (
    ROUTES,
    GroupedInstance,
    Instance,
    InvalidInstance,
    closed_form_report,
    default_epsilon,
    group,
    p_a_wins_distinct,
    p_a_wins_epsilon,
    p_a_wins_recursive,
    p_a_wins_series,
    p_two_speeds,
    residues,
    solve,
)
from skirmish.cli import main
from skirmish.residues import perturb

from conftest import grouped_instances, huge_rational_speeds, instances, speeds
from oracles import (
    distinct_residues_reference,
    expand,
    p_two_speeds_reference,
    series_residues_reference,
)

F = Fraction


def grouped(a_groups, b_groups):
    return GroupedInstance(
        tuple((F(s), c) for s, c in a_groups), tuple((F(s), c) for s, c in b_groups)
    )


class TestDistinct:
    def test_hand_checked_two_vs_one(self):
        report = p_a_wins_distinct(Instance((2, 1), (1,)))
        assert report.value == F(5, 6)
        assert report.method == "distinct"
        # (2/(2-1))*(2/3) = 4/3 and (1/(1-2))*(1/2) = -1/2, negated per pole
        assert report.residues == (F(-4, 3), F(1, 2))

    def test_known_duels(self):
        assert p_a_wins_distinct(Instance((60,), (20, 30))).value == F(1, 2)
        report = p_a_wins_distinct(Instance((30, 20), (15, 36)))
        assert report.value == F(270, 539)
        assert report.residues == (F(-10, 11), F(20, 49))

    def test_value_is_negated_residue_sum(self):
        report = p_a_wins_distinct(Instance((3, 5), (2, 7)))
        assert -sum(report.residues) == report.value

    def test_duplicate_a_rejected(self):
        with pytest.raises(InvalidInstance):
            p_a_wins_distinct(Instance((1, 1), (2,)))

    def test_repeated_b_is_fine(self):
        report = p_a_wins_distinct(Instance((2, 1), (1, 1)))
        assert report.value == p_a_wins_recursive(Instance((2, 1), (1, 1)))

    @given(instances(min_side=0, max_side=5))
    @settings(max_examples=60)
    def test_matches_reference_when_distinct(self, inst):
        if len(set(inst.a)) != len(inst.a):
            inst = Instance(tuple(set(inst.a)), inst.b)
        assert p_a_wins_distinct(inst).value == p_a_wins_recursive(inst)


class TestDistinctResidueOracle:
    """The integer-numerator residues equal the factor-by-factor Fractions."""

    @staticmethod
    def check(inst):
        assert p_a_wins_distinct(inst).residues == distinct_residues_reference(inst)

    def test_readme_residues(self):
        inst = Instance((30, 20), (15, 36))
        assert distinct_residues_reference(inst) == (F(-10, 11), F(20, 49))
        self.check(inst)

    def test_mixed_denominators(self):
        self.check(Instance(("3/7", "0.9", "5/11", "2"), ("13/4", "1/6", "1/6")))

    @given(instances(min_side=0, max_side=6))
    @settings(max_examples=80)
    def test_rational_speeds(self, inst):
        self.check(Instance(tuple(dict.fromkeys(inst.a)), inst.b))

    @given(grouped_instances())
    @settings(max_examples=25, deadline=None)
    def test_perturbed_instances(self, g):
        # The epsilon route's input: distinct speeds with large denominators.
        self.check(perturb(g, default_epsilon(g)))


class TestSeries:
    def test_equal_speed_pairs(self):
        assert p_a_wins_series(grouped([(1, 2)], [(1, 2)])).value == F(1, 2)
        assert p_a_wins_series(grouped([(1, 2)], [(1, 1)])).value == F(3, 4)

    def test_mixed_multiplicities(self):
        g = grouped([(2, 2), (3, 1)], [(5, 1)])
        value = p_a_wins_series(g).value
        assert value == p_a_wins_recursive(Instance((2, 2, 3), (5,)))
        assert value == F(267, 392)

    @pytest.mark.parametrize(
        "a_groups, b_groups, residues, value",
        [
            ([(2, 2), (3, 1)], [(5, 1)], (F(132, 49), F(-27, 8)), F(267, 392)),
            ([(1, 3)], [(2, 2)], (F(-11, 27),), F(11, 27)),
            ([(1, 2), (3, 2)], [(2, 3)], (F(-1, 18), F(-729, 1250)), F(3593, 5625)),
        ],
    )
    def test_residues_at_higher_order_poles(self, a_groups, b_groups, residues, value):
        report = p_a_wins_series(grouped(a_groups, b_groups))
        assert report.residues == residues
        assert report.value == value

    def test_report_method_and_residue_sum(self):
        report = p_a_wins_series(grouped([(1, 3)], [(2, 2)]))
        assert report.method == "series"
        assert -sum(report.residues) == report.value

    def test_multiplicity_one_reduces_to_distinct(self):
        inst = Instance((5, 2, 11), (3, 3, 7))
        series_report = p_a_wins_series(group(inst))
        distinct_report = p_a_wins_distinct(Instance(tuple(sorted(inst.a)), inst.b))
        assert series_report.value == distinct_report.value
        assert series_report.residues == distinct_report.residues

    @given(instances(min_side=0, max_side=4))
    @settings(max_examples=60)
    def test_matches_reference_with_repeats(self, inst):
        assert p_a_wins_series(group(inst)).value == p_a_wins_recursive(inst)

    @given(grouped_instances())
    @settings(max_examples=25, deadline=None)
    def test_matches_reference_at_high_order(self, g):
        assert p_a_wins_series(g).value == p_a_wins_recursive(expand(g))

    @given(instances(min_side=1, max_side=4))
    @settings(max_examples=40)
    def test_all_residues_sum_to_zero_with_origin(self, inst):
        # The a-poles of the duel plus the a-poles of the swapped duel are
        # all the finite nonzero poles; with the origin's residue of 1 the
        # grand total vanishes.
        forward = p_a_wins_series(group(inst))
        backward = p_a_wins_series(group(inst.swapped()))
        assert sum(forward.residues) + sum(backward.residues) + 1 == 0

    @given(instances(min_side=0, max_side=4))
    @settings(max_examples=40)
    def test_complementarity(self, inst):
        g = group(inst)
        swapped = GroupedInstance(g.b_groups, g.a_groups)
        assert p_a_wins_series(g).value + p_a_wins_series(swapped).value == 1


class TestSeriesResidueOracle:
    """The integer power-sum kernel's residues equal the Fraction recurrence's."""

    @staticmethod
    def check(g):
        assert p_a_wins_series(g).residues == series_residues_reference(g)

    def test_pinned_residues(self):
        g = grouped([(2, 2), (3, 1)], [(5, 1)])
        assert series_residues_reference(g) == (F(132, 49), F(-27, 8))
        self.check(g)

    def test_mixed_denominators(self):
        self.check(grouped([("3/7", 3), ("0.9", 2), ("5/11", 1)], [("13/4", 2), ("1/6", 4)]))

    @given(grouped_instances())
    @settings(max_examples=40, deadline=None)
    def test_high_order_poles(self, g):
        self.check(g)

    @given(instances(min_side=1, max_side=8))
    @settings(max_examples=80)
    def test_rational_speeds(self, inst):
        self.check(group(inst))

    @pytest.mark.parametrize(
        "g",
        [
            grouped(
                [("1e400", 3), ("1", 2), ("1e-400", 4)], [("1e-400", 2), ("3", 1), ("1e400", 3)]
            ),
            grouped([("1e-400", 5)], [("1e-400", 2), ("1e400", 4)]),
            grouped(
                zip(huge_rational_speeds(3, 300, 1), (4, 1, 3)),
                zip(huge_rational_speeds(2, 300, 2), (2, 5)),
            ),
        ],
        ids=["1e400-mixed", "1e-400-lone-a", "300-digit-rationals"],
    )
    def test_extreme_speeds(self, g):
        self.check(g)
        assert p_a_wins_series(g).value == p_a_wins_recursive(expand(g))

    @pytest.mark.parametrize(
        "a, b, step", [("1,1", "1", 1), ("1,1,1", "1,1", 2)], ids=["step-1", "step-2"]
    )
    def test_inexact_step_is_caught(self, monkeypatch, capsys, a, b, step):
        # Ratios scaled by Q/2 instead of the least common denominator Q are
        # not all integers; on these duels a step of the recurrence then
        # leaves a remainder, which must not pass.
        kernel = residues._regular_coefficient
        monkeypatch.setattr(
            residues,
            "_regular_coefficient",
            lambda ratios, weights, degree: kernel([F(u, 2) for u in ratios], weights, degree),
        )
        with pytest.raises(AssertionError, match=f"inexact division at step {step}"):
            p_a_wins_series(group(Instance(tuple(a.split(",")), tuple(b.split(",")))))
        assert main(["solve", "--a", a, "--b", b, "--method", "series"]) == 3
        assert "inexact division" in capsys.readouterr().err


class TestClosedForms:
    def test_equal_speed_values(self):
        assert p_two_speeds(1, 1, 1) == F(1, 2)
        assert p_two_speeds(2, 2, 1) == F(1, 2)
        assert p_two_speeds(2, 1, 1) == F(3, 4)
        assert p_two_speeds(3, 2, 1) == F(11, 16)

    def test_equal_speed_law(self):
        for k in range(1, 11):
            assert p_two_speeds(k, k, 1) == F(1, 2)

    def test_matches_series_route(self):
        for m in range(1, 6):
            for n in range(1, 6):
                assert p_two_speeds(m, n, 1) == p_a_wins_series(
                    grouped([(1, m)], [(1, n)])
                ).value

    def test_two_speed_values(self):
        assert p_two_speeds(1, 1, 3) == F(1, 4)
        assert p_two_speeds(3, 2, 1) == F(11, 16)
        assert p_two_speeds(2, 1, 2) == F(5, 9)

    @given(
        st.integers(1, 5),
        st.integers(1, 5),
        st.fractions(min_value=F(1, 8), max_value=8, max_denominator=8),
    )
    @settings(max_examples=40)
    def test_two_speeds_matches_series(self, m, n, v):
        assert p_two_speeds(m, n, v) == p_a_wins_series(grouped([(1, m)], [(v, n)])).value

    @pytest.mark.parametrize(
        "m, n, v", [(1, 1, 1), (3, 2, 1), (5, 7, F(3, 11)), (13, 1, F(40, 3)), (200, 200, F(31, 47))]
    )
    def test_matches_term_by_term_sum(self, m, n, v):
        assert p_two_speeds(m, n, v) == p_two_speeds_reference(m, n, v)

    @given(st.integers(1, 30), st.integers(1, 30), speeds)
    @settings(max_examples=60)
    def test_matches_term_by_term_sum_at_random(self, m, n, v):
        assert p_two_speeds(m, n, v) == p_two_speeds_reference(m, n, v)

    def test_invalid_counts(self):
        with pytest.raises(InvalidInstance):
            p_two_speeds(0, 1, 1)
        with pytest.raises(InvalidInstance):
            p_two_speeds(1, -2, 1)

    def test_closed_form_report_labels(self):
        all_equal = closed_form_report(grouped([(3, 2)], [(3, 1)]))
        assert all_equal.method == "all-equal"
        assert all_equal.value == p_two_speeds(2, 1, 1)
        scaled = closed_form_report(grouped([(3, 2)], [(6, 1)]))
        assert scaled.method == "per-type-equal"
        assert scaled.value == p_two_speeds(2, 1, 2) == F(5, 9)

    def test_closed_form_needs_single_speeds(self):
        with pytest.raises(InvalidInstance):
            closed_form_report(grouped([(1, 1), (2, 1)], [(3, 1)]))


class TestPerturbation:
    def test_perturb_splits_copies(self):
        g = grouped([(1, 2)], [(1, 1)])
        eps = F(1, 1000)
        inst = perturb(g, eps)
        assert inst.a == (1 + eps, 1 + 2 * eps)
        assert inst.b == (1 + eps,)

    def test_perturb_collision_detected(self):
        g = grouped([(1, 2), (F(1001, 1000), 1)], [(2, 1)])
        with pytest.raises(InvalidInstance):
            perturb(g, F(1, 1000))
        with pytest.raises(InvalidInstance):
            perturb(g, 0)

    def test_epsilon_close_to_exact(self):
        report = p_a_wins_epsilon(grouped([(1, 2)], [(1, 1)]), F(1, 1000))
        assert report.method == "epsilon"
        assert abs(report.value - F(3, 4)) < F(1, 100)

    def test_already_distinct_instance_still_perturbed(self):
        eps = F(1, 100)
        report = p_a_wins_epsilon(grouped([(1, 1)], [(2, 1)]), eps)
        assert report.value == (1 + eps) / (3 + 2 * eps)
        # Unperturbed reference for the same duel:
        assert p_a_wins_recursive(Instance((1,), (2,))) == F(1, 3)

    def test_error_shrinks_with_epsilon(self):
        g = grouped([(1, 3)], [(1, 2)])
        exact = p_two_speeds(3, 2, 1)
        eps = default_epsilon(g)
        errors = [abs(p_a_wins_epsilon(g, e).value - exact) for e in (eps, eps / 10)]
        assert errors[1] < errors[0]


class TestDefaultEpsilon:
    def test_stated_examples(self):
        assert default_epsilon(grouped([(1, 3)], [(1, 2)])) == F(1, 6000)
        assert default_epsilon(grouped([(1, 1), (2, 1)], [(5, 1)])) == F(1, 4000)
        assert default_epsilon(grouped([(1, 2)], [(F(11, 10), 1)])) == F(1, 40000)

    def test_one_sided_fallback(self):
        # No cross-side sums exist; the lone speed sets the scale.
        assert default_epsilon(grouped([(5, 2)], [])) == F(5, 3000)

    def test_perturbation_is_always_valid(self):
        g = grouped([(1, 2), (F(101, 100), 3)], [(1, 2)])
        eps = default_epsilon(g)
        inst = perturb(g, eps)  # must not collide
        assert len(set(inst.a)) == len(inst.a)


class TestMethodReportJson:
    def test_schema(self):
        payload = p_a_wins_distinct(Instance((30, 20), (15, 36))).to_json()
        assert payload == {
            "value": "270/539",
            "decimal": "0.500927643785",
            "method": "distinct",
            "residues": ["-10/11", "20/49"],
        }


def route_domain(route):
    """Instances the named exact route accepts."""
    if route == "distinct":
        return instances(min_side=0, max_side=4).map(
            lambda inst: Instance(tuple(set(inst.a)), inst.b)
        )
    if route == "closed-form":
        return st.builds(
            lambda a, m, b, n: Instance((a,) * m, (b,) * n),
            speeds, st.integers(1, 4), speeds, st.integers(1, 4),
        )
    return instances(min_side=0, max_side=4)


EXACT_ROUTES = [route for route in ROUTES if route != "epsilon"]


class TestSolve:
    @pytest.mark.parametrize("route", EXACT_ROUTES)
    @settings(max_examples=40)
    @given(data=st.data())
    def test_every_exact_route_matches_reference(self, route, data):
        inst = data.draw(route_domain(route))
        assert solve(inst, route).value == p_a_wins_recursive(inst)

    def test_auto_picks_distinct_or_series(self):
        assert solve(Instance((30, 20), (15, 36))).method == "distinct"
        assert solve(Instance((1, 1), (2,))).method == "series"

    def test_recursive_has_no_residues(self):
        report = solve(Instance((1,), (1, 1)), "recursive")
        assert report.residues is None
        assert report.to_json() == {"value": "1/4", "decimal": "0.25", "method": "recursive"}

    def test_no_a_poles_keep_empty_residues(self):
        assert solve(Instance((), (1,)), "series").to_json()["residues"] == []

    def test_epsilon_default_and_override(self):
        inst = Instance((1, 1), (1,))
        g = group(inst)
        assert solve(inst, "epsilon") == p_a_wins_epsilon(g, default_epsilon(g))
        assert solve(inst, "epsilon", "1/100") == p_a_wins_epsilon(g, F(1, 100))

    def test_unknown_route(self):
        with pytest.raises(ValueError, match="unknown route"):
            solve(Instance((1,), (1,)), "newton")
