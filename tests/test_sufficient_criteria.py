"""Seeded property test: the paper's sufficient criteria never outrun similar_by_beta.

For an atomic nu each sufficient criterion (endpoint atom, endpoint liminf,
weight band, inequality families) needs a top atom above 1, and there
similar_by_beta reads yes: its limit is (theta - 1)^2 > 0 and every beta_n
of type III is positive.  So the `similar` report, which runs
similar_by_beta alone, loses no verdict by leaving the four out.  On every
valid type-III draw, whenever one of them reads yes, similar_by_beta must
read yes and `similar` must read Similar or Subnormal.

The draws cover the benchmark's fuzz strata (1-3 points log-uniform in
[1e-3, 20], an atom 1e-9..1e-2 from 1 on either side, masses and c
log-uniform in [1e-6, 1e2], b uniform in [0, 2] or half the first resolvent
sum) and a wide range (0-4 atoms at 0, 1e-12..1e-1 from 1, in (0, 1) or in
(1, 1001), masses log-uniform in [1e-12, 1e6], c = 0 or log-uniform in
[1e-12, 1e3], b the first resolvent sum, perturbed from it, or uniform in
(-3, 3)).  The explicit examples are the masses near the double limits on
which similar_by_beta once read inconclusive (its floor underflows) or no
(the coefficient K of gamma's growth class overflows to inf).
"""

from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from cpdshift import (
    AtomicMeasure,
    NotApplicableError,
    ScalarTriplet,
    classify_type,
    criterion_ineqsuf,
    criterion_kdwq,
    criterion_nyttrs,
    criterion_weight_band,
    similar_by_beta,
    validate_triplet,
)
from cpdshift.cli import similar_report

CRITERIA = (criterion_kdwq, criterion_nyttrs, criterion_weight_band, criterion_ineqsuf)


def log_uniform(lo: float, hi: float):
    return st.floats(lo, hi).map(lambda e: 10**e)


sign = st.sampled_from((-1.0, 1.0))


@st.composite
def bench_strata(draw):
    point = log_uniform(-3.0, 1.30103).filter(lambda x: x != 1.0)
    points = draw(st.lists(point, min_size=1, max_size=3, unique=True))
    near = draw(st.none() | st.tuples(sign, log_uniform(-9.0, -2.0)))
    if near is not None:
        points.append(1.0 + near[0] * near[1])
    masses = st.lists(log_uniform(-6.0, 2.0), min_size=len(points), max_size=len(points))
    nu = AtomicMeasure.from_atoms(zip(points, draw(masses)))
    c = draw(st.just(0.0) | log_uniform(-6.0, 2.0))
    b = draw(st.floats(0.0, 2.0) | st.just(0.5 * nu.resolvent_integrals()[0]))
    return ScalarTriplet(b, c, nu)


@st.composite
def wide_fuzz(draw):
    point = (
        st.just(0.0)
        | st.tuples(sign, log_uniform(-12.0, -1.0)).map(lambda d: 1.0 + d[0] * d[1])
        | st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
        | st.floats(1.0, 1001.0, exclude_min=True, exclude_max=True)
    )
    atoms = st.tuples(point.filter(lambda x: x != 1.0), log_uniform(-12.0, 6.0))
    nu = AtomicMeasure.from_atoms(draw(st.lists(atoms, max_size=4, unique_by=lambda a: a[0])))
    i1 = nu.resolvent_integrals()[0]
    b = draw(
        st.just(i1)
        | st.tuples(sign, log_uniform(-15.0, -6.0)).map(lambda d: i1 * (1.0 + d[0] * d[1]))
        | st.tuples(sign, log_uniform(-14.0, -9.0)).map(lambda d: i1 + d[0] * d[1])
        | st.floats(-3.0, 3.0, exclude_min=True, exclude_max=True)
    )
    c = draw(st.just(0.0) | log_uniform(-12.0, 3.0))
    return ScalarTriplet(b, c, nu)


def _reads_yes(criterion, t) -> bool:
    try:
        return criterion(t).is_yes
    except NotApplicableError:  # criterion_nyttrs without an atom above 1
        return False


@settings(derandomize=True, max_examples=400, deadline=None, database=None)
@given(bench_strata() | wide_fuzz())
@example(ScalarTriplet(0.0, 1e300, AtomicMeasure(((2.0, 1e-300),))))
@example(ScalarTriplet(0.0, 0.0, AtomicMeasure(((0.5, 1e300), (1.000001, 1e-300)))))
@example(ScalarTriplet(0.0, 0.0, AtomicMeasure(((1.000001, 1e300),))))
def test_sufficient_yes_implies_defect_floor(t):
    assume(validate_triplet(t).is_yes)
    try:
        kind = classify_type(t).kind
    except (ArithmeticError, RuntimeError) as exc:
        # the type check's beta_1 self-check fails by rounding on some draws: see
        # tests/test_subnormal_reports.py::test_type_check_holds
        assert "beta_1" in str(exc) or "at n=1:" in str(exc), exc
        return
    assume(kind == "III")
    fired = [f.__name__ for f in CRITERIA if _reads_yes(f, t)]
    if not fired:
        return
    assert similar_by_beta(t).is_yes, fired
    report, code = similar_report(t)
    assert (report["verdict"], code) in (("Similar", 0), ("Subnormal", 0)), fired
