"""Seeded property test: far indices read gamma, weights and defects without error.

log gamma_n ~ n log theta, so a log-domain difference of two such values
carries ~n log theta ulps; the scaled form g_n = gamma_n theta^-n keeps the
two beta routes within BETA_AGREEMENT_RTOL at every index doubles separate.
"""

import math

from hypothesis import example, given, settings
from hypothesis import strategies as st

from cpdshift import AtomicMeasure, ScalarTriplet, ShiftSequences, core

# geometric from the end of the prefix to 1e9, and the indices where the
# log-domain beta routes used to disagree
INDICES = sorted({4096 * 2**k for k in range(18)} | {1432902, 8714110, 10**7, 10**9})

atoms = st.lists(
    st.tuples(
        st.floats(0.0, 20.0).filter(lambda x: x != 1.0),
        st.floats(-14.0, 2.0).map(lambda e: 10**e),
    ),
    min_size=1,
    max_size=3,
)


@st.composite
def triplets(draw):
    pairs = draw(atoms)
    c = draw(st.just(0.0) | st.floats(0.0, 2.0))
    return ScalarTriplet(draw(st.floats(0.0, 2.0)), c, AtomicMeasure.from_atoms(pairs))


def trip(b, c, pairs):
    return ScalarTriplet(b, c, AtomicMeasure(tuple(pairs)))


@settings(derandomize=True, max_examples=100, deadline=None, database=None)
@given(triplets())
@example(trip(0.5, 0.25, [(0.5, 1.0), (20.0, 0.5)]))
@example(trip(0.5, 0.25, [(0.5, 1.0), (2.0, 0.5)]))
@example(trip(0.5, 0.25, [(0.5, 1.0), (20.0 * (1.0 - 1e-8), 0.3), (20.0, 0.5)]))
@example(trip(0.5, 0.0, [(0.5, 1.0), (1.0 + 3e-7, 1.0)]))
def test_far_reads_raise_nothing(t):
    s = ShiftSequences(t)
    for n in INDICES:
        beta, weight, log_gamma = s.beta(n), s.weight(n), s.log_gamma(n)
        assert beta >= 0.0 and math.isfinite(beta), n
        assert weight > 0.0 and math.isfinite(weight), n
        assert log_gamma >= 0.0 and math.isfinite(log_gamma), n


def test_top_atom_defect_limit():
    # beta_n -> (theta - 1)^2 once the top atom dominates gamma_n
    s = ShiftSequences(trip(0.5, 0.25, [(0.5, 1.0), (20.0, 0.5)]))
    assert all(s.beta(n) == 361.0 for n in (10**4, 1432902, 10**7, 10**9))
    assert core.BETA_AGREEMENT_RTOL == 1e-9
