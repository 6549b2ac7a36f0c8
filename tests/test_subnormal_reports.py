"""Seeded property test: every report reads subnormality through one rounding rule.

A triplet is subnormal exactly when c = 0, L = b - i1 = 0 and A = 1 - i2 >= 0,
with L and A read by limit_coefficients.  The slopes drawn here sit on i1 or
within a relative 1e-15..1e-6 or an absolute 1e-14..1e-9 of it, where a
second, absolute rule for L would disagree with the one validation and the
necessary conditions read.  So the `subnormal` and `similar` reports must
agree on Subnormal, a Subnormal report must not certify "not similar", no
`subnormal` report is Inconclusive, and the endpoint-atom criterion flags no
b-mismatch on a subnormal shift.  On some draws `similar` stops earlier, in
the beta_1 self-check of its type check; test_type_check_holds pins such
triplets as expected failures.

The shifts built from a Berger measure, nu = p (x - 1)^2 with p a probability
measure, b = i1 and c = 0, have 1 - i2 on the rounding of 0.  On each that
reads subnormal, `similar` must read Subnormal and the endpoint-atom
criterion must raise none of its three flags nor certify "not subnormal".
"""

import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cpdshift import (
    AtomicMeasure,
    ScalarTriplet,
    criterion_kdwq,
    is_subnormal,
    similar_by_beta,
    validate_triplet,
)
from cpdshift.cli import (
    classify_report,
    compare_report,
    series_rows,
    similar_report,
    subnormal_report,
)


def log_uniform(lo: float, hi: float):
    return st.floats(lo, hi).map(lambda e: 10**e)


sign = st.sampled_from((-1.0, 1.0))
# at 0, 1e-12..1e-1 from 1 on either side, in (0, 1), in (1, 1001)
points = (
    st.just(0.0)
    | st.tuples(sign, log_uniform(-12.0, -1.0)).map(lambda d: 1.0 + d[0] * d[1])
    | st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
    | st.floats(1.0, 1001.0, exclude_min=True, exclude_max=True)
)
atoms = st.lists(
    st.tuples(points.filter(lambda x: x != 1.0), log_uniform(-12.0, 6.0)), max_size=4
)


@st.composite
def triplets(draw):
    nu = AtomicMeasure.from_atoms(draw(atoms))
    i1 = nu.resolvent_integrals()[0]
    b = draw(
        st.just(i1)
        | st.tuples(sign, log_uniform(-15.0, -6.0)).map(lambda d: i1 * (1.0 + d[0] * d[1]))
        | st.tuples(sign, log_uniform(-14.0, -9.0)).map(lambda d: i1 + d[0] * d[1])
    )
    c = draw(st.just(0.0) | log_uniform(-12.0, 3.0))
    return ScalarTriplet(b, c, nu)


@settings(derandomize=True, max_examples=400, deadline=None, database=None)
@given(triplets())
def test_reports_share_one_rounding_rule(t):
    assume(validate_triplet(t).is_yes)
    sub_report, _ = subnormal_report(t, 8, 1e-8)
    assert sub_report["verdict"] in ("Subnormal", "NotSubnormal")
    if is_subnormal(t).is_yes and t.nu.support_max() > 1.0:
        assert not criterion_kdwq(t).witness["not_subnormal_flags"]["b-mismatch"]
    try:
        similar, _ = similar_report(t)
    except (ArithmeticError, RuntimeError) as exc:
        # the type check's beta_1 self-check, read before any subnormality rule,
        # fails by rounding on some of these draws: see test_type_check_holds
        assert "beta_1" in str(exc) or "at n=1:" in str(exc), exc
        return
    assert (similar["verdict"] == "Subnormal") == (sub_report["verdict"] == "Subnormal")
    if similar["verdict"] == "Subnormal":
        assert not similar["necessary_conditions"].not_similar


@st.composite
def berger_built(draw):
    """The shift whose Berger measure is a probability p on 1-3 points of (0, 1)
    and perhaps one of (1, 5): nu = p (x - 1)^2, b = i1, c = 0."""
    inside = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
    points = draw(st.lists(inside, min_size=1, max_size=3, unique=True))
    points += draw(st.lists(st.floats(1.0, 5.0, exclude_min=True, exclude_max=True), max_size=1))
    masses = draw(st.lists(st.floats(0.01, 1.0), min_size=len(points), max_size=len(points)))
    total = math.fsum(masses)
    nu = AtomicMeasure.from_atoms((x, m / total * (x - 1.0) ** 2) for x, m in zip(points, masses))
    return ScalarTriplet(nu.resolvent_integrals()[0], 0.0, nu)


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(berger_built())
def test_kdwq_flags_read_the_subnormality_rule(t):
    assume(validate_triplet(t).is_yes and is_subnormal(t).is_yes)
    similar, _ = similar_report(t)
    kdwq = criterion_kdwq(t).witness
    assert not any(kdwq.get("not_subnormal_flags", {}).values()), kdwq
    assert not kdwq.get("certifies_not_subnormal", False), kdwq
    assert similar["verdict"] == "Subnormal"


@pytest.mark.xfail(raises=(ArithmeticError, RuntimeError), strict=True)
@pytest.mark.parametrize(
    "t",
    [
        # beta_1 = 0.1 * 5e-324 / gamma_1 underflows to 0 though the atom lies off the origin
        ScalarTriplet(-0.1, 0.0, AtomicMeasure(((5e-324, 0.1),))),
        # gamma_1 = 1 + b = 1e-15: the weight route to beta_1 loses every digit
        ScalarTriplet(-0.999999999999999, 0.0, AtomicMeasure(((0.0, 1.0),))),
        # beta_1 = w x / gamma_1 = 1.5e-200 / 1e300 underflows to 0
        ScalarTriplet(1e300, 0.0, AtomicMeasure(((1.5, 1e-200),))),
    ],
    ids=["subnormal-float-atom", "type-two-gamma1-1e-15", "type-three-beta1-underflow"],
)
def test_type_check_holds(t):
    """Valid triplets on which rounding breaks classify_type's beta_1 self-check."""
    assert validate_triplet(t).is_yes
    similar_report(t)


# w / (x - 1)^2 = 5e-324 / 4 underflows to 0: the Berger mass at the atom and the
# leading coefficient K of gamma's growth class
TINY_TOP_ATOM = ScalarTriplet(0.0, 0.0, AtomicMeasure(((3.0, 5e-324),)))


@pytest.mark.xfail(raises=ValueError, strict=True)
@pytest.mark.parametrize(
    "report",
    [similar_report, lambda t: subnormal_report(t, 8, 1e-8)],
    ids=["similar", "subnormal"],
)
def test_berger_mass_holds(report):
    """berger_measure builds an atom of mass 0, which AtomicMeasure rejects."""
    assert validate_triplet(TINY_TOP_ATOM).is_yes
    report(TINY_TOP_ATOM)


def test_growth_class_coefficient_holds():
    """quasi_affine_test reads K_om / K_lam from the masses where both K values are 0."""
    report, code = compare_report(TINY_TOP_ATOM, TINY_TOP_ATOM)
    assert (report["verdict"], code) == ("Similar", 0)
    for side in ("forward", "backward"):
        assert report["similarity"].witness[side]["witnesses"]["limit_ratio"] == 1.0


def test_defect_floor_limit_holds():
    """similar_by_beta reads mass / K as (theta - 1)^2 mass / w where K is 0."""
    v = similar_by_beta(TINY_TOP_ATOM)
    assert v.is_yes and v.witness["limit"] == 4.0


# g_n = gamma_n theta^-n lies near theta^-2 = 1e-310, below the normal range, and
# q_poly_scaled's (theta - 1)^2 overflows: g_n reads 0 from n = 3 past the first block
HUGE_TOP_ATOM = ScalarTriplet(0.0, 0.0, AtomicMeasure(((1e155, 1.0),)))


@pytest.mark.xfail(raises=ZeroDivisionError, strict=True)
@pytest.mark.parametrize(
    "report",
    [lambda t: classify_report(t, 64), lambda t: list(series_rows(t.sequences, 64))],
    ids=["classify", "series"],
)
def test_far_g_holds(report):
    """The betas past the first prefix block divide by a g_n of 0."""
    assert validate_triplet(HUGE_TOP_ATOM).is_yes
    report(HUGE_TOP_ATOM)


# b = 1e300 scales the triplet by 2^-82, so the mass 1e-300 reads 0 and g_n, once
# 2^-n underflows, reads 0 where gamma_n ~ 1e-300 2^n is in range
TINY_MASS_BY_HUGE_SLOPE = ScalarTriplet(1e300, 0.0, AtomicMeasure(((2.0, 1e-300),)))


@pytest.mark.xfail(raises=ArithmeticError, strict=True)
def test_scale_keeps_small_masses():
    """log gamma_3000 = log(1e-300 Q_3000(2)), which the one exponent zeroes."""
    log_gamma = TINY_MASS_BY_HUGE_SLOPE.sequences.log_gamma(3000)
    assert log_gamma == pytest.approx(3000 * math.log(2.0) + math.log(1e-300), rel=1e-9)
