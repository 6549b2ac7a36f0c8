"""Seeded property test: similar and model reports finish after bounded work.

Validation makes O(log n) kernel evaluations up to the index limit 2^53, and
the reports read beta_1 of their type check and no other beta or gamma.  The
triplet object owns its validation verdict and its type label, so the two
reports on one triplet validate it once and type-check it once.  The type
check reads beta_1 from a 4-entry block of g, so no report grows the prefix,
and the counts below hold for every triplet, whatever its slope or its distance
of the top atom to 1.
"""

import math
from unittest import mock

from conftest import triplets
from hypothesis import example, given, settings

from cpdshift import AtomicMeasure, ScalarTriplet, ShiftSequences, core
from cpdshift.cli import model_report, similar_report

N_SCAN, N_MODEL = 512, 32
# one validation, at most 4 kernel calls per doubling of the exit index, up to 2^53
MAX_GAMMA_CALLS = 4 * (math.log2(core.INDEX_LIMIT) + 1)
# the type check's beta_1 reads g_1 .. g_3 from its own block, not from the prefix
MAX_PREFIX = 0
# every read checks the betas it returns and no others: beta_1 of the one type check,
# whose label both reports read, as does the dichotomy verdict of a type I or II similar
MAX_CHECKED = 1


def trip(b, c, pairs):
    return ScalarTriplet(b, c, AtomicMeasure(tuple(pairs)))


@settings(derandomize=True, max_examples=150, deadline=None, database=None)
@given(triplets())
# slopes that turn nonnegative at n = 239791 and n = 2397897, and a top atom 3e-7 above 1
@example(trip(-1e-6, 0.0, [(1.00001, 1e-12)]))
@example(trip(-1e-7, 0.0, [(1.000001, 1e-14)]))
@example(trip(0.5, 0.0, [(0.5, 1.0), (1.0 + 3e-7, 1.0)]))
def test_reports_do_bounded_work(t):
    built, init = [], ShiftSequences.__init__

    def recording(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self)

    count_gamma = mock.patch.object(core, "_gamma_value", wraps=core._gamma_value)
    count_checked = mock.patch.object(core, "_checked_betas", wraps=core._checked_betas)
    record = mock.patch.object(ShiftSequences, "__init__", recording)
    with count_gamma as gamma, count_checked as checked, record:
        similar_report(t, N_SCAN)
        model_report(t, N_MODEL)
    assert gamma.call_count <= MAX_GAMMA_CALLS
    # _checked_betas(start, defect, theta, g) checks len(g) - 2 indices
    assert sum(len(call.args[3]) - 2 for call in checked.call_args_list) <= MAX_CHECKED
    assert all(len(s._prefix) <= MAX_PREFIX for s in built)


@settings(derandomize=True, max_examples=150, deadline=None, database=None)
@given(triplets())
def test_model_report_reads_one_block(t):
    # the model report prints its Berger measure: beta_1 of the type check is its
    # only sequence read, and it comes from the type check's own block of g
    grow = mock.patch.object(
        ShiftSequences, "_grow", autospec=True, side_effect=ShiftSequences._grow
    )
    count_checked = mock.patch.object(core, "_checked_betas", wraps=core._checked_betas)
    with grow as grown, count_checked as checked:
        model_report(t, N_MODEL)
    assert not grown.called
    checks = [(call.args[0], len(call.args[3]) - 2) for call in checked.call_args_list]
    assert checks in ([], [(1, 1)])
