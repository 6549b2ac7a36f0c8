"""cli.dumps against the emitter it replaced, kept here as the reference.

The reference formats each float as it meets it; dumps fills one template
with all of a report's floats at the end.  Their texts must be equal byte for
byte on every value either can print.
"""

import enum
import math
from json.encoder import encode_basestring_ascii as _quote

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from cpdshift import INCONCLUSIVE, NO, YES, AtomicMeasure, ScalarTriplet, TypeLabel, Verdict
from cpdshift.cli import _fmt, _native, dumps
from cpdshift.subnormality import ConditionResult, NecessaryReport


def reference(obj, indent: int = 0) -> str:
    nl = "\n" if indent else ""
    sep = "," + nl

    def emit(o, depth):
        kind = type(o)
        if kind is float:
            if math.isfinite(o):
                return _fmt(o)
            return '"nan"' if math.isnan(o) else ('"inf"' if o > 0 else '"-inf"')
        if kind is str:
            return _quote(o)
        if kind is dict:
            if not o:
                return "{}"
            pad_in = " " * (indent * (depth + 1))
            items = sep.join(
                [f"{pad_in}{_quote(str(k))}: {emit(v, depth + 1)}" for k, v in o.items()]
            )
            return "{" + nl + items + nl + " " * (indent * depth) + "}"
        if kind is list or kind is tuple:
            if not o:
                return "[]"
            pad_in = " " * (indent * (depth + 1))
            # a sum is finite only if every term is
            if set(map(type, o)) == {float} and math.isfinite(sum(o)):
                items = pad_in + (sep + pad_in).join(map(_fmt, o))
            else:
                items = sep.join([f"{pad_in}{emit(v, depth + 1)}" for v in o])
            return "[" + nl + items + nl + " " * (indent * depth) + "]"
        if o is None:
            return "null"
        if kind is bool:
            return "true" if o else "false"
        if kind is int:
            return str(o)
        return emit(_native(o), depth)

    return emit(obj, 0)


TEXTS = st.one_of(
    st.sampled_from(["%", "%%", "%.17g", "%s", "100%", '"', 'a"%"b', "λµ", "%é", ""]),
    st.text(max_size=6),
)
EDGE_FLOATS = [-0.0, 5e-324, -5e-324, 1e308, -1e308, math.nan, math.inf, -math.inf]
FLOATS = st.one_of(st.sampled_from(EDGE_FLOATS), st.floats())
INTS = st.integers(-(2**70), 2**70)
KEYS = st.one_of(TEXTS, INTS, FLOATS, st.none())

# a bool, or an int of 1e17 or more, as a mass or b: a %.17g slot prints it otherwise
POSITIVE = st.one_of(
    st.floats(min_value=5e-324, max_value=1e308), st.sampled_from([True, 10**17, 2**70])
)
# points sorted and distinct, none at 1, so every draw is a valid triplet
ATOMS = st.dictionaries(st.floats(0.0, 1e6).filter(lambda x: x != 1.0), POSITIVE, max_size=3)
MEASURES = ATOMS.map(lambda atoms: AtomicMeasure(tuple(sorted(atoms.items()))))
TRIPLETS = st.builds(
    ScalarTriplet,
    st.one_of(
        st.floats(allow_nan=False, allow_infinity=False), st.sampled_from([True, -(10**17), 2**70])
    ),
    st.floats(0.0, 1e308),
    MEASURES,
)
LABELS = st.builds(TypeLabel, TEXTS, st.one_of(st.sampled_from([0, 1]), TEXTS))
CONDITIONS = st.builds(ConditionResult, TEXTS, st.booleans(), st.none() | st.integers(0, 99), TEXTS)
NECESSARY = st.builds(
    NecessaryReport, st.booleans(), TEXTS, st.lists(CONDITIONS, max_size=3).map(tuple)
)
OUTCOMES = st.sampled_from([YES, NO, INCONCLUSIVE])
# the witnesses of similar_by_beta, similarity_test and the model report hold tuples,
# measures and triplets
RECORD_WITNESSES = st.dictionaries(
    TEXTS, st.one_of(MEASURES, TRIPLETS, st.tuples(FLOATS, INTS)), max_size=2
)
VERDICTS = st.builds(Verdict, OUTCOMES, TEXTS, TEXTS, RECORD_WITNESSES, note=TEXTS)


def subclass(base):
    """A subclass of base whose to_json nests base's: dumps prints it through to_json."""

    def to_json(self):
        return {"sub": base.to_json(self)}

    return type(base.__name__ + "Sub", (base,), {"to_json": to_json})


SUBCLASSES = {
    base: subclass(base)
    for base in (AtomicMeasure, ScalarTriplet, TypeLabel, NecessaryReport, Verdict)
}
SUBCLASSED = st.one_of(MEASURES, TRIPLETS, LABELS, NECESSARY, VERDICTS).map(
    lambda record: SUBCLASSES[type(record)](*record._values())
)

LEAVES = st.one_of(
    FLOATS,
    TEXTS,
    INTS,
    st.booleans(),
    st.none(),
    st.builds(np.float64, FLOATS),
    st.builds(np.int64, st.integers(-(2**63), 2**63 - 1)),
    st.lists(FLOATS, max_size=4).map(np.array),
    st.lists(st.integers(-5, 5), max_size=4).map(lambda xs: np.array(xs, dtype=np.int64)),
    st.sampled_from([{}, [], ()]),
    MEASURES,
    TRIPLETS,
    LABELS,
    NECESSARY,
    VERDICTS,
    SUBCLASSED,
)


def containers(children):
    return st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.lists(FLOATS, min_size=1, max_size=5),  # all-float runs, finite or not
        st.dictionaries(KEYS, children, max_size=4),
        st.builds(
            Verdict,
            OUTCOMES,
            TEXTS,
            TEXTS,
            st.dictionaries(KEYS, children, max_size=3),
            note=TEXTS,
        ),
    )


VALUES = st.recursive(LEAVES, containers, max_leaves=25)


@given(VALUES)
@settings(derandomize=True, max_examples=400, deadline=None, database=None)
def test_dumps_matches_the_reference(value):
    for indent in (0, 2):
        assert dumps(value, indent) == reference(value, indent)


class Tag(str, enum.Enum):
    """A str subclass that prints otherwise than the str it equals."""

    A = "a"

    def __str__(self):
        return "Tag.A"


def test_edge_values_match_the_reference():
    value = {
        # the cached texts of the str "a" must not serve the Tag equal to it
        "tags": [{"a": "a"}, {Tag.A: Tag.A}],
        "%": "%%",
        "%.17g": ["%.17g", -0.0, 5e-324, 1e308],
        1: [math.nan, math.inf, -math.inf],
        2.5: {None: ()},
        None: [np.float64(0.1), np.int64(-3), np.array([0.5, 2.0])],
        '"é"': [Verdict(YES, "c%", "t%s", {"x": 1.5}, note="%d"), {}, []],
    }
    for indent in (0, 2):
        assert dumps(value, indent) == reference(value, indent)


def test_text_caches_stay_bounded():
    from cpdshift import cli

    value = {f"k{i}%": [f"v{i}%", float(i)] for i in range(3 * cli._TEXT_CAP)}
    assert dumps(value) == reference(value)
    assert len(cli._TEXT) == cli._TEXT_CAP
