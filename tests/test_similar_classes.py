"""Seeded property tests: the defect floor decided from growth classes, and the weight tail.

similar_by_beta decides lim beta_n from the growth classes of the defect
measure and of gamma; on the triplets where that decision is definitive it
must agree with the two-sided moment-ratio test against the model shift.
Neither it nor criterion_weight_band reads a beta_n or lambda_n: the defect
floor from n = 0 must lie below every computed beta_n, and the computed
ratios theta g_{n+1} / g_n from BAND_N_LO on must lie inside the closed-form
weight enclosure, in the prefix and past it.  Subnormal shifts
whose Berger measure lives in (0, 1) have gamma_n decaying to rounding level;
`subnormal`, `similar` and `model` must decide them without reading it.
"""

import math

from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from cpdshift import (
    AtomicMeasure,
    InvalidTripletError,
    ScalarTriplet,
    ShiftSequences,
    classify_type,
    criterion_weight_band,
    model_subnormal,
    similar_by_beta,
    similarity_test,
)
from cpdshift.cli import model_report, similar_report, subnormal_report
from cpdshift.core import PREFIX_WINDOW, ROUNDING
from cpdshift.similarity import BAND_N_LO, _tail_floor

# the floor is checked against the computed beta_0 .. beta_WITNESS_N
WITNESS_N = 64

# an atom anywhere in [0, 20], or 1e-9..1e-1 from 1 on either side
points = st.floats(0.0, 20.0) | st.tuples(
    st.sampled_from((-1.0, 1.0)), st.floats(-9.0, -1.0)
).map(lambda p: 1.0 + p[0] * 10 ** p[1])
atoms = st.lists(
    st.tuples(points.filter(lambda x: x != 1.0), st.floats(-3.0, 1.0).map(lambda e: 10**e)),
    min_size=1,
    max_size=3,
)


@st.composite
def triplets(draw):
    c = draw(st.just(0.0) | st.floats(0.0, 2.0))
    return ScalarTriplet(draw(st.floats(-1.0, 2.0)), c, AtomicMeasure.from_atoms(draw(atoms)))


def sequences(t: ScalarTriplet) -> ShiftSequences:
    try:
        return ShiftSequences(t)
    except InvalidTripletError:
        assume(False)


def trip(b, c, pairs):
    return ScalarTriplet(b, c, AtomicMeasure(tuple(pairs)))


def decided_by_class(t: ScalarTriplet) -> bool:
    """A top atom above 1, c > 0, or a slope L = b - i1 above its rounding."""
    i1 = math.fsum(w / (p - 1.0) for p, w in t.nu.atoms)
    i1_abs = math.fsum(w / abs(p - 1.0) for p, w in t.nu.atoms)
    return t.nu.support_max() > 1.0 or t.c > 0.0 or t.b - i1 > ROUNDING * (abs(t.b) + i1_abs)


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(triplets())
@example(trip(0.0, 1.0, [(0.5, 0.2)]))
@example(trip(0.3, 0.0, [(0.5, 0.4)]))
@example(trip(0.5, 0.25, [(0.5, 1.0), (1.0 + 7.5e-9, 0.5)]))
def test_defect_floor_matches_the_model_ratio_test(t):
    sequences(t)  # rejects a draw that fails validation
    assume(classify_type(t).kind == "III" and decided_by_class(t))
    v = similar_by_beta(t)
    assert v.outcome == similarity_test(t, model_subnormal(t)).outcome
    assert v.is_yes == (t.nu.support_max() > 1.0)


@settings(derandomize=True, max_examples=100, deadline=None, database=None)
@given(triplets())
@example(trip(0.0, 0.0, [(4.0, 1.0)]))
@example(trip(0.5, 0.25, [(0.5, 1.0), (2.0, 0.5)]))
@example(trip(0.17720689370451323, 0.0, [(1.132398, 0.010222038312690144)]))
def test_weights_lie_in_the_tail_enclosure(t):
    s = sequences(t)
    theta = t.nu.support_max()
    assume(theta > 1.0)
    err = criterion_weight_band(t).witness["tail_error"]
    if err >= 1.0:
        return  # the enclosure is unbounded
    lo, hi = theta * (1.0 - err) / (1.0 + err), theta * (1.0 + err) / (1.0 - err)
    ratios = s._weight_squares(BAND_N_LO, PREFIX_WINDOW - 2)
    ratios += [theta * s._g(n + 1) / s._g(n) for n in (10**4, 10**6)]
    assert all(lo <= r <= hi for r in ratios), (lo, hi, min(ratios), max(ratios))


@settings(derandomize=True, max_examples=100, deadline=None, database=None)
@given(triplets())
@example(trip(0.0, 0.0, [(4.0, 1.0)]))
@example(trip(0.5, 0.25, [(0.5, 1.0), (1.0 + 7.5e-9, 0.5)]))
@example(trip(2.0, 2.0, [(1.0 + 1e-9, 10.0)]))
def test_defect_floor_lies_below_every_beta(t):
    s = sequences(t)
    assume(t.nu.support_max() > 1.0)
    eps = _tail_floor(t, 0)
    betas = s.betas(WITNESS_N + 1)
    # far out from the closed form alone: the weight route that beta checks it
    # against loses ~n log(theta) ulps to cancellation
    betas += [math.exp(s.defect_measure.log_moment(n) - s.log_gamma(n)) for n in (10**4, 10**6)]
    assert all(eps <= beta for beta in betas), (eps, min(betas))


# a Berger probability measure on (0, 1), as unnormalized masses at up to three points
berger_masses = st.dictionaries(st.floats(1e-6, 0.99), st.floats(1e-3, 1.0), min_size=1, max_size=3)


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(berger_masses)
@example({0.01: 1.0})
@example({0.35965115428494643: 1.0})
@example({0.99: 1.0, 0.9899999999999999: 1.0})
def test_decaying_subnormal_shifts_are_decided(masses):
    # nu = p (x-1)^2 at each atom x of mass p and b = i1: c = 0 and A = L = 0; every
    # point is kept, since merging two points an ulp apart would move i2 off 1
    total = math.fsum(masses.values())
    nu = AtomicMeasure(tuple(sorted((x, p / total * (x - 1.0) ** 2) for x, p in masses.items())))
    t = ScalarTriplet(nu.resolvent_integrals()[0], 0.0, nu)
    report, code = similar_report(t)
    assert (report["verdict"], code) == ("Subnormal", 0)
    assert report["criteria"]["similar_by_beta"].is_yes
    report, code = subnormal_report(t, 8, 1e-8)
    assert (report["verdict"], code) == ("Subnormal", 0)
    report, code = model_report(t, 32)
    assert (report["verdict"], code) == ("Model", 0)
