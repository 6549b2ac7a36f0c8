"""Seeded property test: every report reads the decaying subnormal class.

A Berger measure sum p delta_x with 1-3 atoms x in (0, 0.99) and masses p
summing to 1 is the model of the triplet c = 0, nu = sum p (x-1)^2 delta_x and
b = i1 (or the same slope summed as sum p (x-1)).  Its gamma_n = sum p x^n
decays to 0, where the Q form 1 + b n + integral Q_n d nu cancels to
rounding, so the sequences read the limit form instead.  Every report command
must finish without an exception other than InputError, `classify` must read
TypeIII, `subnormal` Subnormal, and log gamma_n must be the log moments of the
Berger measure.
"""

import json
import math

from hypothesis import example, given, settings
from hypothesis import strategies as st

from cpdshift import AtomicMeasure, ShiftSequences
from cpdshift.cli import (
    InputError,
    classify_report,
    compare_report,
    dumps,
    load_triplet,
    model_report,
    series_rows,
    similar_report,
    subnormal_report,
)

# uniform on (0, 1) as random.random() draws it: k 2^-53 for 0 < k < 2^53
unit = st.integers(1, 2**53 - 1).map(lambda k: k * 2.0**-53)


@st.composite
def decaying_specs(draw):
    xs = sorted(draw(st.lists(unit.map(lambda u: 0.99 * u), min_size=1, max_size=3, unique=True)))
    raw = draw(st.lists(unit, min_size=len(xs), max_size=len(xs)))
    ps = [p / math.fsum(raw) for p in raw]
    atoms = [[x, p * (x - 1.0) ** 2] for x, p in zip(xs, ps)]
    if draw(st.booleans()):
        b = AtomicMeasure(tuple(map(tuple, atoms))).resolvent_integrals().i1
    else:
        b = math.fsum(p * (x - 1.0) for x, p in zip(xs, ps))
    return json.dumps({"b": b, "c": 0.0, "nu": {"atoms": atoms}})


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(decaying_specs())
# gamma_n = 0.01^n; the least atom of the grid, whose x^n underflows from n = 20
@example('{"b": -0.99, "c": 0, "nu": {"atoms": [[0.01, 0.9801]]}}')
@example(json.dumps({"b": 0.99 * 2.0**-53 - 1.0, "c": 0, "nu": {"atoms": [[0.99 * 2.0**-53, 1.0]]}}))
def test_every_report_reads_the_decaying_class(spec):
    try:
        t = load_triplet(spec)
    except InputError:
        return
    reports = {
        "classify": classify_report(t, 64)[0],
        "subnormal": subnormal_report(t, 8, 1e-8)[0],
        "similar": similar_report(t)[0],
        "model": model_report(t, 32)[0],
        "compare": compare_report(t, t)[0],
    }
    for report in reports.values():
        dumps(report)
    dumps(list(series_rows(ShiftSequences(t), 64)))
    assert reports["classify"]["verdict"] == "TypeIII", spec
    assert reports["subnormal"]["verdict"] == "Subnormal", spec
    # log gamma_n are the log moments of the Berger measure w / (x-1)^2 at each atom
    berger = AtomicMeasure(tuple((x, w / (x - 1.0) ** 2) for x, w in t.nu.atoms))
    pairs = zip(ShiftSequences(t).log_gammas(65), berger.log_moments(65))
    assert all(math.isclose(a, b, rel_tol=0.0, abs_tol=1e-11) for a, b in pairs), spec
