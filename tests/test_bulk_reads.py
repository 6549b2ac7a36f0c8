"""Seeded property test: every bulk read equals its per-index read bit for bit.

ShiftSequences.gammas/log_gammas/weights/betas and AtomicMeasure.moments/
log_moments/weights return the reads of every n < count in one list.  At each
index the float must be the one the per-index read returns, and where a
per-index read raises, the bulk read must raise the same exception type and
message, at the first such index.
"""

import math
from array import array

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from cpdshift import (
    AtomicMeasure,
    ScalarTriplet,
    ShiftSequences,
    core,
    validate_triplet,
)

W = core.PREFIX_WINDOW
# counts on both sides of the first block, of the second, and of the prefix window
COUNTS = (0, 1, 2, 3, 33, 34, 35, 67, 68, 69) + tuple(range(W - 3, W + 5))
# a measure has no window: the counts of the reports, and one past the overflow
# of every power p^n with p >= 2
MEASURE_COUNTS = (0, 1, 2, 33, 65, 66, 1100)

points = st.one_of(
    st.floats(0.0, 20.0).filter(lambda x: x != 1.0),
    # 1e-9..1e-2 from 1, on either side
    st.tuples(st.sampled_from((-1.0, 1.0)), st.floats(-9.0, -2.0)).map(
        lambda s: 1.0 + s[0] * 10 ** s[1]
    ),
    # large: gamma_n and the moments leave the double range within the window
    st.floats(3.0, 10.0).map(lambda e: 10**e),
    # tiny: x^n underflows
    st.floats(-300.0, -3.0).map(lambda e: 10**e),
    st.just(0.0),
)
# the empty list is the zero measure
atoms = st.lists(st.tuples(points, st.floats(-14.0, 2.0).map(lambda e: 10**e)), max_size=3)


@st.composite
def triplets(draw):
    nu = AtomicMeasure.from_atoms(draw(atoms))
    c = draw(st.just(0.0) | st.floats(0.0, 2.0))
    # negative slopes reach the triplets whose gamma decays, where reads raise
    t = ScalarTriplet(draw(st.floats(-1.0, 2.0)), c, nu)
    assume(validate_triplet(t).is_yes)
    return t


def trip(b, c, pairs):
    return ScalarTriplet(b, c, AtomicMeasure(tuple(pairs)))


def reference(read, count):
    """(read(n) for n < count up to the first that raises, that exception or None)."""
    values = []
    for n in range(count):
        try:
            values.append(read(n))
        except Exception as exc:  # the exception itself is compared
            return values, exc
    return values, None


def assert_same(bulk_read, ref, count):
    """bulk_read(count) equals the per-index reads ref = reference(...) below count."""
    values, exc = ref
    try:
        got = bulk_read(count)
    except Exception as caught:  # the exception itself is compared
        assert exc is not None and count > len(values), (count, caught)
        assert type(caught) is type(exc) and str(caught) == str(exc), (count, caught, exc)
        return
    assert exc is None or count <= len(values), (count, exc)
    assert array("d", got).tobytes() == array("d", values[:count]).tobytes(), count


SEQUENCE_READS = (
    ("gammas", "gamma"),
    ("log_gammas", "log_gamma"),
    ("weights", "weight"),
    ("betas", "beta"),
)
MEASURE_READS = (("moments", "moment"), ("log_moments", "log_moment"))
MODEL_READS = (("moments", "moment"), ("weights", "weight"))


class ModelReads:
    """A model shift's Berger measure: its bulk reads, beside its per-index reads."""

    def __init__(self, berger: AtomicMeasure):
        self.moments, self.weights = berger.moments, berger.weights
        self.moment, self.atoms = berger.moment, berger.atoms

    def weight(self, n):
        """sqrt(top (S_{n+1} / S_n)) with S_k = sum m (p/top)^k = moment(k) / top^k."""
        top = self.atoms[-1][0] if self.atoms else -math.inf
        if not top > 0.0:  # every moment past the 0-th is 0: 0 after a mass at the origin, then 0/0
            return 0.0 if n == 0 and self.atoms else math.nan
        a, b = (math.fsum(m * (p / top) ** k for p, m in self.atoms) for k in (n, n + 1))
        return math.sqrt(top * (b / a))


def check_reads(make, reads, counts=COUNTS):
    """Each bulk read of make() against the per-index reads of another make(), at every count.

    The bulk reads run once on a fresh object per count, and once on one
    object in decreasing count order, which for sequences reads slices of a
    grown prefix.
    """
    refs = {many: reference(getattr(make(), one), max(counts)) for many, one in reads}
    grown = make()
    for count in sorted(counts, reverse=True):
        fresh = make()
        for many, _ in reads:
            assert_same(getattr(fresh, many), refs[many], count)
            if grown is not fresh:
                assert_same(getattr(grown, many), refs[many], count)


@settings(derandomize=True, max_examples=20, deadline=None, database=None)
@given(triplets())
# saturating gamma and moments; a tiny atom; the zero measure; an atom at the origin
@example(trip(0.5, 1.0, [(19.0, 1e2), (20.0, 1e2)]))
@example(trip(0.5, 0.0, [(1e-300, 1.0), (1e10, 1e-14)]))
@example(trip(0.0, 0.0, []))
@example(trip(0.3, 0.0, [(0.0, 0.7)]))
@example(trip(0.3, 0.2, [(0.4, 1.0), (1.00001, 1.0)]))
# gamma_n = 0.01^n, read in the limit form, where the Q form would cancel to rounding
@example(trip(-0.99, 0.0, [(0.01, 0.9801)]))
# the finite terms 1 + b + c of g_1 sum past the double range
@example(trip(1e308, 8e307, []))
def test_bulk_reads_match_the_index_reads(t):
    check_reads(lambda: ShiftSequences(t), SEQUENCE_READS)
    for m in (t.nu, ShiftSequences(t).defect_measure, AtomicMeasure()):
        check_reads(lambda: m, MEASURE_READS, MEASURE_COUNTS)
        if m.atoms:
            model = ModelReads(m.normalize())
            check_reads(lambda: model, MODEL_READS, MEASURE_COUNTS)


@pytest.mark.parametrize("index", (40, 300, W - 3))
def test_corrupted_block_raises_at_the_same_index(index):
    # as in TestBetaNearOne.test_check_fires_at_the_corrupted_index: a g value off
    # by 1e-6 fails the check of a beta that reads it, and the bulk read raises at the
    # first such index, as the per-index reads do
    t = trip(0.3, 0.2, [(0.4, 1.0), (1.00001, 1.0)])

    def corrupted():
        s = ShiftSequences(t)
        prefix = s._grow(W - 1)
        s._prefix = prefix[:index] + (prefix[index] * (1.0 + 1e-6),) + prefix[index + 1 :]
        return s

    ref = reference(corrupted().beta, W + 2)
    assert str(ref[1]).startswith(f"defect mismatch at n={len(ref[0])}:")
    assert len(ref[0]) <= index
    for count in (index - 8, index + 1, W + 2):
        assert_same(corrupted().betas, ref, count)


def columns_reference(t, count):
    """(betas, gammas, weights, log_gammas)(count) read one after another, or the first raise."""
    s = ShiftSequences(t)
    try:
        betas = s.betas(count)
        return (s.gammas(count), s.weights(count), betas, s.log_gammas(count)), None
    except Exception as exc:  # the exception itself is compared
        return None, exc


@settings(derandomize=True, max_examples=10, deadline=None, database=None)
@given(triplets())
@example(trip(0.5, 1.0, [(19.0, 1e2), (20.0, 1e2)]))
@example(trip(0.3, 0.2, [(0.4, 1.0), (1.00001, 1.0)]))
@example(trip(-0.99, 0.0, [(0.01, 0.9801)]))
def test_columns_match_the_bulk_reads(t):
    for count in (0, 2, 68, W - 2, W + 3):
        want, exc = columns_reference(t, count)
        try:
            got = ShiftSequences(t).columns(count)
        except Exception as caught:  # the exception itself is compared
            assert exc is not None, (count, caught)
            assert type(caught) is type(exc) and str(caught) == str(exc), (count, caught, exc)
            continue
        assert exc is None, (count, exc)
        for column, ref in zip(got, want):
            assert array("d", column).tobytes() == array("d", ref).tobytes(), count
