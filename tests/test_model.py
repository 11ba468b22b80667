"""Model types, parsing, and exact-arithmetic guarantees."""

import json
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from skirmish import (
    GroupedInstance,
    Instance,
    InvalidInstance,
    decimal_str,
    group,
    parse_instance,
    parse_speed,
)

from conftest import instances, speeds


class TestParseSpeed:
    def test_accepts_int_fraction_and_strings(self):
        assert parse_speed(30) == Fraction(30)
        assert parse_speed("3/7") == Fraction(3, 7)
        assert parse_speed(Fraction(5, 2)) == Fraction(5, 2)

    def test_decimal_string_is_exact(self):
        speed = parse_speed("0.1")
        assert speed.numerator == 1 and speed.denominator == 10

    @pytest.mark.parametrize("bad", [0, -1, "-3/7", "0"])
    def test_rejects_non_positive(self, bad):
        with pytest.raises(InvalidInstance):
            parse_speed(bad)

    @pytest.mark.parametrize("bad", [0.9, True, "abc", "1/0", None, [1]])
    def test_rejects_inexact_or_malformed(self, bad):
        with pytest.raises(InvalidInstance):
            parse_speed(bad)


class TestInstance:
    def test_coerces_entries(self):
        inst = Instance(("30", "20"), (15, Fraction(36)))
        assert inst.a == (Fraction(30), Fraction(20))
        assert inst.b == (Fraction(15), Fraction(36))

    def test_single_empty_side_is_allowed(self):
        assert Instance((1,), ()).b == ()
        assert Instance((), (1,)).a == ()

    def test_both_empty_rejected(self):
        with pytest.raises(InvalidInstance):
            Instance((), ())

    def test_swapped(self):
        inst = Instance((1, 2), (3,))
        assert inst.swapped() == Instance((3,), (1, 2))
        assert inst.swapped().swapped() == inst


class TestParseInstance:
    def test_plain_document(self):
        inst = parse_instance('{"a":["30","20"],"b":["15","36"]}')
        assert inst == Instance((30, 20), (15, 36))

    def test_empty_side(self):
        assert parse_instance('{"a":["1"],"b":[]}') == Instance((1,), ())

    def test_decimal_strings_exact(self):
        inst = parse_instance('{"a":["0.9","0.0526317"],"b":["1"]}')
        assert inst.a == (Fraction(9, 10), Fraction(526317, 10**7))

    def test_bare_json_floats_exact(self):
        # The float literal never becomes a binary double on its way in.
        inst = parse_instance('{"a":[0.9],"b":[1]}')
        assert inst.a == (Fraction(9, 10),)

    @pytest.mark.parametrize(
        "text",
        [
            "not json",
            "[1,2]",
            '{"a":[1]}',
            '{"a":1,"b":[1]}',
            '{"a":[],"b":[]}',
            '{"a":[-1],"b":[1]}',
            '{"a":[true],"b":[1]}',
        ],
    )
    def test_rejects_malformed_documents(self, text):
        with pytest.raises(InvalidInstance):
            parse_instance(text)

    def test_round_trips_through_json(self):
        inst = Instance(("1/3", "0.5"), (2,))
        doc = json.dumps({"a": [str(s) for s in inst.a], "b": [str(s) for s in inst.b]})
        assert parse_instance(doc) == inst


class TestGrouping:
    def test_merges_and_sorts(self):
        assert group(Instance((1, 1, 1), (1, 1))).a_groups == ((Fraction(1), 3),)
        assert group(Instance((30, 20), (15, 36))).a_groups == (
            (Fraction(20), 1),
            (Fraction(30), 1),
        )
        assert group(Instance((2, 2, 3), (5,))).a_groups == (
            (Fraction(2), 2),
            (Fraction(3), 1),
        )

    def test_grouped_validation(self):
        with pytest.raises(InvalidInstance):
            GroupedInstance(((Fraction(1), 1), (Fraction(1), 2)), ())
        with pytest.raises(InvalidInstance):
            GroupedInstance(((Fraction(1), 0),), ())
        with pytest.raises(InvalidInstance):
            GroupedInstance((), ())

    def test_expand_and_counts(self):
        grouped = GroupedInstance(((Fraction(2), 2), (Fraction(3), 1)), ((Fraction(5), 1),))
        assert grouped.expand() == Instance((2, 2, 3), (5,))
        assert grouped.total_particles == 4
        assert grouped.swapped().a_groups == grouped.b_groups

    @given(instances())
    def test_group_expand_round_trip(self, inst):
        expanded = group(inst).expand()
        assert sorted(expanded.a) == sorted(inst.a)
        assert sorted(expanded.b) == sorted(inst.b)


class TestDecimalStr:
    def test_twelve_significant_digits(self):
        assert decimal_str(Fraction(270, 539)) == "0.500927643785"
        assert decimal_str(Fraction(1, 19)) == "0.0526315789474"

    def test_short_values(self):
        assert decimal_str(Fraction(1, 2)) == "0.5"
        assert decimal_str(Fraction(1)) == "1"
        assert decimal_str(Fraction(1, 4000)) == "0.00025"

    def test_digit_control(self):
        assert decimal_str(Fraction(2, 3), digits=3) == "0.667"
        with pytest.raises(ValueError):
            decimal_str(Fraction(1, 2), digits=0)


class TestRationalArithmetic:
    @given(speeds, speeds)
    def test_round_trips_are_exact(self, r, s):
        assert (r + s) - s == r
        assert (r * s) / s == r
