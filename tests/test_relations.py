"""Matching, beating, curves, and the intransitivity witness."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skirmish import (
    Instance,
    InvalidInstance,
    matching_curve,
    matching_curve_grid,
    p_a_wins_recursive,
    relate,
    verify_cycle,
)
from skirmish.residues import Inconsistency

from conftest import break_route, instances, speeds

F = Fraction


class TestRelate:
    def test_matched(self):
        verdict = relate((60,), (20, 30))
        assert verdict.verdict == "matched"
        assert verdict.p == F(1, 2)

    def test_beats(self):
        verdict = relate((20, 30), (15, 36))
        assert verdict.verdict == "beats"
        assert verdict.p == F(270, 539)

    def test_loses(self):
        verdict = relate((12, 40), (20, 30))
        assert verdict.verdict == "loses"
        assert verdict.p == F(293, 588)

    def test_rejects_empty_groups(self):
        with pytest.raises(InvalidInstance):
            relate((), (1,))
        with pytest.raises(InvalidInstance):
            relate((1,), ())

    @given(instances())
    @settings(max_examples=60)
    def test_antisymmetry(self, inst):
        forward = relate(inst.a, inst.b)
        backward = relate(inst.b, inst.a)
        assert forward.p + backward.p == 1
        mirrored = {"beats": "loses", "loses": "beats", "matched": "matched"}
        assert backward.verdict == mirrored[forward.verdict]

    @given(instances(), speeds)
    @settings(max_examples=40)
    def test_scaling_preserves_verdicts(self, inst, scale):
        plain = relate(inst.a, inst.b)
        scaled = relate(
            tuple(s * scale for s in inst.a), tuple(s * scale for s in inst.b)
        )
        assert scaled.p == plain.p
        assert scaled.verdict == plain.verdict

    @pytest.mark.parametrize(
        "route, first, second, reference",
        [("distinct", (60,), (20, 30), "1/2"), ("series", (1, 1), (2,), "5/9")],
    )
    def test_route_mismatch_raises(self, monkeypatch, route, first, second, reference):
        break_route(monkeypatch, route)
        message = f"{route} gave 1/3, recursive reference gives {reference}"
        with pytest.raises(Inconsistency, match=f"^{message}$"):
            relate(first, second)

    def test_json(self):
        payload = relate((20, 30), (15, 36)).to_json()
        assert payload == {
            "p": "270/539",
            "decimal": "0.500927643785",
            "verdict": "beats",
        }


class TestMatchingCurve:
    def test_known_points(self):
        assert matching_curve(1, [F(9, 10)]) == [(F(9, 10), F(1, 19))]
        assert matching_curve(1, [F(1, 3)]) == [(F(1, 3), F(1, 2))]

    def test_curve_points_really_match(self):
        ((x, y),) = matching_curve(1, [F(1, 3)])
        assert relate((1,), (x, y)).verdict == "matched"

    def test_near_curve_point_is_not_matched(self):
        # Decimal truncations straddle the curve; exact comparison sees it.
        verdict = relate((1,), (F(414213, 10**6), F(414212, 10**6)))
        assert verdict.verdict != "matched"

    def test_no_partner_at_or_beyond_the_single_speed(self):
        with pytest.raises(InvalidInstance):
            matching_curve(1, [F(1)])
        with pytest.raises(InvalidInstance):
            matching_curve(1, [F(3, 2)])

    def test_scaling_to_other_speeds(self):
        ((x, y),) = matching_curve(2, [F(2, 3)])
        assert (1 + x / 2) * (1 + y / 2) == 2
        assert relate((2,), (x, y)).verdict == "matched"

    def test_grid_shape_and_identity(self):
        points = matching_curve_grid(1, 25)
        assert len(points) == 25
        for x, y in points:
            assert 0 < x < 1 and 0 < y
            assert (1 + x) * (1 + y) == 2

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            matching_curve_grid(1, 0)

    @given(st.fractions(min_value=F(1, 50), max_value=F(49, 50), max_denominator=60))
    @settings(max_examples=60)
    def test_every_emitted_point_is_matched(self, x):
        ((_, y),) = matching_curve(1, [x])
        assert (1 + x) * (1 + y) == 2
        assert relate((1,), (x, y)).p == F(1, 2)


class TestCloserSpeedsAreStronger:
    def test_ordering_on_sampled_grid(self):
        # Pairs with a fixed speed budget do better the closer the split is
        # to even, sampled against a fixed opponent.
        opponent = (15, 36)
        values = [
            p_a_wins_recursive(Instance((x, 50 - x), opponent)) for x in (5, 10, 15, 20, 25)
        ]
        assert values == sorted(values)
        assert values[-1] == p_a_wins_recursive(Instance((25, 25), opponent))


class TestVerifyCycle:
    def test_witness_triple_is_a_strict_cycle(self):
        witness = verify_cycle(
            ("0.9", "0.0526317"), ("1",), ("0.414213", "0.414212")
        )
        assert witness.is_cycle
        assert witness.p_pq == F(100000023, 200000023)
        assert witness.p_qr == F(250000000000, 499999248789)
        assert witness.p_rp == F(
            525611522629340162719850, 1045616966477413945809719
        )
        for p in (witness.p_pq, witness.p_qr, witness.p_rp):
            assert p > F(1, 2)

    def test_identical_groups_are_not_a_cycle(self):
        witness = verify_cycle((1,), (1,), (1,))
        assert not witness.is_cycle
        assert witness.p_pq == witness.p_qr == witness.p_rp == F(1, 2)

    def test_transitive_triple_is_not_a_cycle(self):
        witness = verify_cycle((20, 30), (15, 36), (12, 40))
        assert not witness.is_cycle
        assert witness.p_pq > F(1, 2)
        assert witness.p_qr > F(1, 2)
        assert witness.p_rp < F(1, 2)  # P beats R: transitive here

    def test_rejects_empty_group(self):
        with pytest.raises(InvalidInstance):
            verify_cycle((1,), (), (2,))

    def test_route_mismatch_raises(self, monkeypatch):
        break_route(monkeypatch)
        message = "distinct gave 1/3, recursive reference gives 100000023/200000023"
        with pytest.raises(Inconsistency, match=f"^{message}$"):
            verify_cycle(("0.9", "0.0526317"), ("1",), ("0.414213", "0.414212"))

    def test_json(self):
        payload = verify_cycle((1,), (1,), (1,)).to_json()
        assert payload == {
            "groups": [["1"], ["1"], ["1"]],
            "pPQ": "1/2",
            "pQR": "1/2",
            "pRP": "1/2",
            "isCycle": False,
        }
