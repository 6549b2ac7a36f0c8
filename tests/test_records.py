"""Value semantics of the immutable record classes.

Every result and input class is a verdict.Record: equal field values compare
and hash equal, fields cannot be assigned, repr names every field, and copy
and pickle round-trip through the positional __init__.  Validation raises the
messages it always has.
"""

import copy
import pickle

import pytest

from cpdshift import (
    YES,
    AtomicMeasure,
    GrowthFamilyExample,
    NecessaryReport,
    ResolventIntegrals,
    ScalarTriplet,
    TypeLabel,
    Verdict,
    WabClassification,
    point_mass,
    wab_classify,
)
from cpdshift.subnormality import ConditionResult
from conftest import DiagonalTriplet


def measure():
    return AtomicMeasure(((0.5, 0.4), (2.0, 1.0)))


def triplet():
    return ScalarTriplet(0.3, 0.2, measure())


# (class, a fresh instance, an unequal instance of the same class)
RECORDS = {
    "AtomicMeasure": (AtomicMeasure, measure, lambda: point_mass(0.5)),
    "ScalarTriplet": (ScalarTriplet, triplet, lambda: ScalarTriplet(0.3, 0.0, measure())),
    "TypeLabel": (TypeLabel, lambda: TypeLabel("III", "aleph0"), lambda: TypeLabel("II", 1)),
    "DiagonalTriplet": (
        DiagonalTriplet,
        lambda: DiagonalTriplet(3, 0.1, 0.2, measure()),
        lambda: DiagonalTriplet(4, 0.1, 0.2, measure()),
    ),
    "Verdict": (
        Verdict,
        lambda: Verdict(YES, "f", "tag", {"n": 1}, note="why"),
        lambda: Verdict(YES, "f", "tag", {"n": 1}),
    ),
    "ConditionResult": (
        ConditionResult,
        lambda: ConditionResult("i-c-zero", False, 4, "c = 0"),
        lambda: ConditionResult("i-c-zero", True),
    ),
    "NecessaryReport": (
        NecessaryReport,
        lambda: NecessaryReport(True, "", (ConditionResult("i-c-zero", True),)),
        lambda: NecessaryReport(False, "n/a"),
    ),
    "WabClassification": (
        WabClassification,
        lambda: wab_classify(0.5, 1.0),
        lambda: wab_classify(0.5, 2.0),
    ),
    "GrowthFamilyExample": (
        GrowthFamilyExample,
        lambda: GrowthFamilyExample(triplet(), "ii", {"t": 0.3}),
        lambda: GrowthFamilyExample(triplet(), "iii", {"t": 0.3}),
    ),
}


def hash_or_error(obj):
    try:
        return hash(obj)
    except TypeError as exc:  # a dict field: the record is unhashable, as the dict is
        return type(exc)


@pytest.mark.parametrize("name", sorted(RECORDS))
class TestRecord:
    def test_equal_values_compare_and_hash_equal(self, name):
        cls, make, other = RECORDS[name]
        a, b = make(), make()
        assert type(a) is cls and a is not b
        assert a == b and not a != b
        assert hash_or_error(a) == hash_or_error(b)
        assert a != other() and a != object()

    def test_fields_are_read_only(self, name):
        cls, make, _ = RECORDS[name]
        record = make()
        for field in cls.__slots__:
            value = getattr(record, field)
            with pytest.raises(AttributeError):
                setattr(record, field, value)
            with pytest.raises(AttributeError):
                delattr(record, field)
            assert getattr(record, field) is value
        with pytest.raises(AttributeError):
            record.extra = 1

    def test_repr_names_every_field(self, name):
        cls, make, _ = RECORDS[name]
        record = make()
        text = repr(record)
        assert text.startswith(f"{name}(")
        for field in cls.__slots__:
            assert f"{field}={getattr(record, field)!r}" in text

    def test_copy_and_pickle_round_trip(self, name):
        _, make, _ = RECORDS[name]
        record = make()
        assert copy.copy(record) == record
        assert copy.deepcopy(record) == record
        assert pickle.loads(pickle.dumps(record)) == record


def test_verdict_witness_defaults_to_a_fresh_dict():
    a, b = Verdict(YES, "f", "tag"), Verdict(YES, "f", "tag")
    assert a.witness == {} and a.witness is not b.witness and a.note == ""


def test_positional_init_takes_one_value_per_field():
    assert TypeLabel("II", 1).kind == "II"
    for values in (("II",), ("II", 1, 2)):
        with pytest.raises(TypeError, match="TypeLabel takes 2 values"):
            TypeLabel(*values)


def test_defaults():
    assert ConditionResult("x", True) == ConditionResult("x", True, None, "")
    assert NecessaryReport(False) == NecessaryReport(False, "", ())
    assert AtomicMeasure() == AtomicMeasure(()) and AtomicMeasure().is_zero


@pytest.mark.parametrize(
    "make,error,message",
    [
        (lambda: Verdict("maybe", "f", "tag"), ValueError, "unknown outcome 'maybe'"),
        (
            lambda: AtomicMeasure(((-1.0, 1.0),)),
            ValueError,
            "atom 0: point must be a finite nonnegative real, got -1.0",
        ),
        (
            lambda: AtomicMeasure(((0.5, 0.0),)),
            ValueError,
            "atom 0: mass must be a finite positive real, got 0.0",
        ),
        (
            lambda: AtomicMeasure(((2.0, 1.0), (0.5, 1.0))),
            ValueError,
            "atom 1: points must be strictly increasing, got 0.5 after 2.0",
        ),
        (
            lambda: ScalarTriplet(float("nan"), 0.0, measure()),
            ValueError,
            "b must be a finite real, got nan",
        ),
        (
            lambda: ScalarTriplet(0.0, -1.0, measure()),
            ValueError,
            "c must be a finite nonnegative real, got -1.0",
        ),
        (lambda: ScalarTriplet(0.0, 0.0, ((2.0, 1.0),)), TypeError, "nu must be an AtomicMeasure"),
        (
            lambda: ScalarTriplet(0.0, 0.0, point_mass(1.0)),
            ValueError,
            "nu must have no atom at the point 1",
        ),
    ],
)
def test_validation_messages(make, error, message):
    with pytest.raises(error) as info:
        make()
    assert type(info.value) is error and str(info.value) == message


def test_resolvent_integrals_is_a_named_pair():
    pair = point_mass(4.0, 0.6).resolvent_integrals()
    assert type(pair) is ResolventIntegrals and isinstance(pair, tuple)
    assert ResolventIntegrals._fields == ("i1", "i2")
    i1, i2 = pair
    assert (pair.i1, pair.i2) == (i1, i2)
