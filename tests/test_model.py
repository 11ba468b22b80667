"""Model types, parsing, and exact-arithmetic guarantees."""

import copy
import json
import pickle
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from skirmish import (
    CycleWitness,
    GroupedInstance,
    Instance,
    InvalidInstance,
    MethodReport,
    RelationVerdict,
    SimConfig,
    SimReport,
    VolumeEstimate,
    decimal_str,
    estimate_volume,
    group,
    matching_curve_grid,
    p_two_speeds,
    parse_instance,
    parse_speed,
    simulate,
)

from conftest import instances, speeds
from oracles import expand


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
        assert expand(grouped) == Instance((2, 2, 3), (5,))
        assert grouped.total_particles == 4
        swapped = GroupedInstance(grouped.b_groups, grouped.a_groups)
        assert swapped.a_groups == grouped.b_groups

    @given(instances())
    def test_group_expand_round_trip(self, inst):
        expanded = expand(group(inst))
        assert sorted(expanded.a) == sorted(inst.a)
        assert sorted(expanded.b) == sorted(inst.b)


# One value of every record class in the package.
RECORDS = [
    Instance(("30", "20"), (15,)),
    GroupedInstance(((Fraction(1), 3),), ((Fraction(1), 2),)),
    MethodReport(Fraction(270, 539), "distinct", (Fraction(-10, 11), Fraction(20, 49))),
    MethodReport(Fraction(1, 2), "recursive", None),
    RelationVerdict(Fraction(1, 2), "matched"),
    CycleWitness(((Fraction(1),), (Fraction(2),), (Fraction(3),)), Fraction(1, 3),
                 Fraction(2, 5), Fraction(3, 4)),
    SimConfig(10, 3, "random-adjacent"),
    SimReport(5, 10, 0.5, 0.158, 3, "frontmost"),
    VolumeEstimate(5, 10, 0.5, 0.158, 3),
]


class TestRecords:
    """Value semantics of the immutable records, as frozen dataclasses had them."""

    def test_equality_and_hashing(self):
        inst = Instance((1, 2), (3,))
        assert inst == Instance(("1", "2"), ("3",))
        assert inst != Instance((2, 1), (3,))
        assert inst != inst.swapped()
        assert len({inst, Instance((1, 2), (3,)), inst.swapped()}) == 2
        assert hash(group(inst)) == hash(GroupedInstance(group(inst).a_groups, ((3, 1),)))

    def test_different_classes_are_never_equal(self):
        assert RelationVerdict(Fraction(1, 2), "matched") != (Fraction(1, 2), "matched")
        assert SimReport(5, 10, 0.5, 0.1, 3, "frontmost") != VolumeEstimate(5, 10, 0.5, 0.1, 3)

    def test_unhashable_field_makes_an_unhashable_record(self):
        with pytest.raises(TypeError):
            hash(MethodReport(Fraction(1, 2), "distinct", [Fraction(-1, 2)]))

    @pytest.mark.parametrize("record", RECORDS, ids=lambda r: type(r).__name__)
    def test_fields_are_read_only(self, record):
        # The repr names the first field first: "Instance(a=..., ...)".
        field = repr(record).partition("(")[2].partition("=")[0]
        assert hasattr(record, field)
        with pytest.raises(AttributeError):
            setattr(record, field, None)
        with pytest.raises(AttributeError):
            delattr(record, field)
        with pytest.raises(AttributeError):
            record.extra = 1

    def test_dataclass_style_repr(self):
        grouped = group(Instance(("1", "1", "1"), ("1", "1")))
        assert repr(grouped) == (
            "GroupedInstance(a_groups=((Fraction(1, 1), 3),), b_groups=((Fraction(1, 1), 2),))"
        )
        assert repr(RelationVerdict(Fraction(1, 2), "matched")) == (
            "RelationVerdict(p=Fraction(1, 2), verdict='matched')"
        )

    def test_keyword_construction(self):
        assert Instance(b=(1,), a=(2,)) == Instance((2,), (1,))
        witness = CycleWitness(((1,),) * 3, p_pq=Fraction(1), p_qr=Fraction(2), p_rp=Fraction(3))
        assert (witness.p_pq, witness.p_qr, witness.p_rp) == (1, 2, 3)
        with pytest.raises(TypeError):
            Instance((1,))
        # Validation runs however the fields were given.
        with pytest.raises(InvalidInstance):
            Instance(b=("x",), a=(1,))
        for record in RECORDS:
            kind, values = type(record), record._values()
            fields = dict(zip(kind.__slots__, values))
            first = kind.__slots__[0]
            assert kind(**fields) == record
            for bad_call in (
                lambda: kind(*values, unknown=1),
                lambda: kind(*values, **{first: values[0]}),
                lambda: kind(*values, values[0]),
                lambda: kind(**{k: v for k, v in fields.items() if k != first}),
            ):
                with pytest.raises(TypeError):
                    bad_call()

    @pytest.mark.parametrize("record", RECORDS, ids=lambda r: type(r).__name__)
    def test_copy_deepcopy_and_pickle_round_trip(self, record):
        for clone in (
            copy.copy(record),
            copy.deepcopy(record),
            pickle.loads(pickle.dumps(record)),
        ):
            assert type(clone) is type(record)
            assert clone == record
            assert repr(clone) == repr(record)


FIGHT = Instance((30, 20), (15, 36))

# Every argument that must be a whole number: value -> what the library keeps of it.
WHOLE_NUMBER_SITES = {
    "multiplicity": lambda k: GroupedInstance(((1, k),), ((2, 1),)).a_groups[0][1],
    "side-size": lambda k: p_two_speeds(k, 2, 1),
    "trials": lambda k: SimConfig(k).trials,
    "simulate-seed": lambda k: SimConfig(10, seed=k).seed,
    "samples": lambda k: estimate_volume(FIGHT, k).samples,
    "volume-seed": lambda k: estimate_volume(FIGHT, 10, k).seed,
    "points": lambda k: matching_curve_grid(1, k),
}


class TestWholeNumbers:
    """One rule for counts and seeds: any integer type in, a Python int kept."""

    @pytest.mark.parametrize("site", WHOLE_NUMBER_SITES.values(), ids=WHOLE_NUMBER_SITES)
    @pytest.mark.parametrize("value", [np.int64(3), np.uint64(3), np.int8(3)], ids=repr)
    def test_numpy_integers_are_kept_as_ints(self, site, value):
        kept = site(value)
        assert kept == site(3)
        assert type(kept) is type(site(3))

    @pytest.mark.parametrize("site", WHOLE_NUMBER_SITES.values(), ids=WHOLE_NUMBER_SITES)
    @pytest.mark.parametrize("value", [True, 3.0, np.float64(3), "3", Fraction(3)], ids=repr)
    def test_other_types_are_refused(self, site, value):
        # A bool or float would stand for an integer the record never shows.
        with pytest.raises(ValueError):
            site(value)

    def test_numpy_seeded_reports_serialise(self):
        seed = np.uint64(7)
        reports = [
            simulate(FIGHT, SimConfig(np.int64(10), seed=seed)),
            estimate_volume(FIGHT, np.int64(10), seed),
        ]
        for report in reports:
            assert json.loads(json.dumps(report.to_json()))["seed"] == 7


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
