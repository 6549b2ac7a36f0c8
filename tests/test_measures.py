import json
import math
from fractions import Fraction

import pytest
from conftest import triplets
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cpdshift import (
    AtomicMeasure,
    ModelDegenerateError,
    model_subnormal,
    point_mass,
    validate_triplet,
    zero_measure,
)


def measures(max_atoms=4, max_point=5.0):
    """Hypothesis strategy for small atomic measures with well-spread points."""

    @st.composite
    def build(draw):
        n = draw(st.integers(min_value=0, max_value=max_atoms))
        pts = draw(
            st.lists(
                st.floats(min_value=0.0, max_value=max_point, allow_nan=False),
                min_size=n,
                max_size=n,
                unique=True,
            )
        )
        pts = sorted(round(p, 4) for p in pts)
        if len(set(pts)) != len(pts) or any(p == 1.0 for p in pts):
            pts = [p for i, p in enumerate(pts) if p != 1.0 and p not in pts[:i]]
        masses = draw(
            st.lists(
                st.floats(min_value=0.01, max_value=3.0, allow_nan=False),
                min_size=len(pts),
                max_size=len(pts),
            )
        )
        return AtomicMeasure(tuple(zip(pts, masses)))

    return build()


class TestTotalMass:
    def test_zero(self):
        assert zero_measure().total_mass() == 0.0

    def test_two_atoms(self):
        assert AtomicMeasure(((0.0, 0.5), (1.0, 0.5))).total_mass() == 1.0

    def test_single(self):
        assert point_mass(4.0, 3.0).total_mass() == 3.0

    def test_overflow_saturates(self):
        assert AtomicMeasure(((1.5, 1e308), (1.6, 1e308))).total_mass() == math.inf


class TestMoment:
    def test_bernoulli_style(self):
        a = 0.3
        m = AtomicMeasure(((0.0, 1 - a), (1.0, a)))
        assert m.moment(0) == 1.0
        for n in range(1, 6):
            assert m.moment(n) == a

    def test_single_atom(self):
        assert point_mass(2.0, 0.25).moment(3) == 8 * 0.25

    def test_zero_measure(self):
        for n in range(4):
            assert zero_measure().moment(n) == 0.0

    def test_log_moment(self):
        m = AtomicMeasure(((0.5, 0.3), (2.0, 0.7)))
        for n in range(0, 30, 5):
            assert math.isclose(math.exp(m.log_moment(n)), m.moment(n), rel_tol=1e-12)


class TestKernelIntegral:
    def test_low_orders_vanish(self):
        m = AtomicMeasure(((0.3, 1.0), (2.0, 2.0)))
        assert m.integrate_q(0) == 0.0
        assert m.integrate_q(1) == 0.0

    def test_atom_at_two(self):
        assert point_mass(2.0, 1.0).integrate_q(3) == 4.0

    def test_atom_at_origin(self):
        theta = 0.7
        assert point_mass(0.0, theta).integrate_q(5) == 4 * theta


class TestResolventIntegrals:
    def test_atom_at_four(self):
        i1, i2 = point_mass(4.0, 0.6).resolvent_integrals()
        assert math.isclose(i1, 0.2)
        assert math.isclose(i2, 0.6 / 9)

    def test_atom_at_origin(self):
        theta = 0.25
        i1, i2 = point_mass(0.0, theta).resolvent_integrals()
        assert i1 == -theta and i2 == theta

    def test_sentinel_at_one(self):
        i1, i2 = AtomicMeasure(((1.0, 2.0), (3.0, 1.0))).resolvent_integrals()
        assert math.isnan(i1)
        assert math.isinf(i2)

    def test_overflow_on_both_sides_of_one_is_undefined(self):
        # w / (x - 1) is -inf below 1 and +inf above it
        nu = AtomicMeasure(((0.9999999999, 1e300), (1.0000000001, 1e300)))
        i1, i2 = nu.resolvent_integrals()
        assert math.isnan(i1)
        assert i2 == math.inf


class TestPushforwards:
    def test_sqrt(self):
        assert point_mass(4.0).pushforward_sqrt().atoms == ((2.0, 1.0),)

    def test_fixed_points(self):
        m = AtomicMeasure(((0.0, 0.4), (1.0, 0.6)))
        assert m.pushforward_sqrt() == m

    def test_square_no_merge(self):
        m = AtomicMeasure(((0.25, 1.0), (0.5, 1.0)))
        assert m.pushforward_square().atoms == ((0.0625, 1.0), (0.25, 1.0))

    def test_square_merges_collisions(self):
        # both squares underflow to 0.0
        m = AtomicMeasure(((1e-200, 1.0), (2e-200, 2.0)))
        assert m.pushforward_square().atoms == ((0.0, 3.0),)

    def test_sqrt_merges_exact_collisions(self):
        # sqrt(1 + 2^-52) rounds to 1.0
        m = AtomicMeasure(((1.0, 1.0), (math.nextafter(1.0, 2.0), 2.0)))
        assert m.pushforward_sqrt().atoms == ((1.0, 3.0),)

    def test_distinct_points_stay_apart(self):
        x = 1.0000000000001
        m = AtomicMeasure.from_atoms([(x, 1.0), (1.0, 1.0), (x, 0.5)])
        assert m.atoms == ((1.0, 1.0), (x, 1.5))


class TestNormalize:
    def test_halves(self):
        m = AtomicMeasure(((0.0, 2.0), (3.0, 2.0))).normalize()
        assert m.atoms == ((0.0, 0.5), (3.0, 0.5))

    def test_idempotent_on_probability(self):
        m = AtomicMeasure(((0.0, 0.5), (3.0, 0.5)))
        assert m.normalize() == m

    def test_zero_measure_rejected(self):
        with pytest.raises(ValueError, match="zero measure"):
            zero_measure().normalize()

    def test_overflowing_total(self):
        m = AtomicMeasure(((1.5, 1e308), (1.6, 1e308), (2.0, 5e307))).normalize()
        assert m.atoms == ((1.5, 0.4), (1.6, 0.4), (2.0, 0.2))


class TestInvariants:
    @given(measures())
    @settings(max_examples=150, deadline=None)
    def test_moment_zero_is_total_mass(self, m):
        assert math.isclose(m.moment(0), m.total_mass(), rel_tol=1e-12, abs_tol=1e-12)

    @given(measures(), st.integers(min_value=0, max_value=10))
    @settings(max_examples=150, deadline=None)
    def test_sqrt_pushforward_change_of_variables(self, m, n):
        lhs = m.pushforward_sqrt().moment(2 * n)
        assert math.isclose(lhs, m.moment(n), rel_tol=1e-9, abs_tol=1e-12)

    @given(measures())
    @settings(max_examples=150, deadline=None)
    def test_square_after_sqrt_is_identity(self, m):
        assert m.pushforward_sqrt().pushforward_square().approx_equal(m, 1e-9)

    @given(measures(), st.integers(min_value=0, max_value=12))
    @settings(max_examples=150, deadline=None)
    def test_kernel_second_difference_is_moment(self, m, n):
        dd = m.integrate_q(n + 2) - 2 * m.integrate_q(n + 1) + m.integrate_q(n)
        assert math.isclose(dd, m.moment(n), rel_tol=1e-8, abs_tol=1e-8)


class TestJson:
    def test_round_trip(self):
        m = AtomicMeasure(((0.0, 0.25), (2.5, 1.5)))
        assert AtomicMeasure.from_json(json.loads(json.dumps(m.to_json()))) == m

    def test_rejects_unsorted_naming_atom(self):
        with pytest.raises(ValueError, match="atom 1"):
            AtomicMeasure.from_json({"atoms": [[2.0, 1.0], [1.5, 1.0]]})

    def test_rejects_nonpositive_mass(self):
        with pytest.raises(ValueError, match="atom 0.*mass"):
            AtomicMeasure.from_json({"atoms": [[2.0, 0.0]]})

    def test_rejects_negative_point(self):
        with pytest.raises(ValueError, match="atom 0.*point"):
            AtomicMeasure.from_json({"atoms": [[-1.0, 1.0]]})

    def test_rejects_missing_atoms_key(self):
        with pytest.raises(ValueError, match="atoms"):
            AtomicMeasure.from_json({})


class TestWeights:
    """AtomicMeasure.weights against sqrt(moment(n+1) / moment(n)) in exact arithmetic."""

    COUNT = 32
    # two ulps: the rounded ratio, its product with the top point and the square root
    RTOL = 4.5e-16

    @staticmethod
    def max_relative_error(berger: AtomicMeasure, count: int) -> float:
        atoms = [(Fraction(p), Fraction(m)) for p, m in berger.atoms]
        moments = [sum(m * p**n for p, m in atoms) for n in range(count + 1)]
        worst = 0.0
        for n, w in enumerate(berger.weights(count)):
            # w / exact - 1 = (x - 1) / (sqrt(x) + 1) with x = w^2 / exact^2
            x = Fraction(w) ** 2 * moments[n] / moments[n + 1]
            worst = max(worst, abs(float(x - 1)) / (math.sqrt(float(x)) + 1.0))
        return worst

    @settings(derandomize=True, max_examples=300, deadline=None, database=None)
    @given(triplets())
    def test_berger_weights_match_the_exact_ratio(self, t):
        assume(validate_triplet(t).is_yes)
        try:
            berger = model_subnormal(t)
        except (ModelDegenerateError, ArithmeticError, RuntimeError):
            assume(False)  # types I and II, and the pinned self-check failures
        assert self.max_relative_error(berger, self.COUNT) <= self.RTOL

    def test_unnormalized_masses_stay_finite(self):
        # top * (S_n+1 / S_n): the ratio is taken first, so 1e10 * 1e300 is never formed
        weights = AtomicMeasure(((0.5, 1e300), (1e10, 1e300))).weights(3)
        assert all(math.isfinite(w) and w > 0.0 for w in weights), weights

    def test_no_positive_point(self):
        assert all(math.isnan(w) for w in zero_measure().weights(3))
        zero, *rest = point_mass(0.0, 0.7).weights(3)
        assert zero == 0.0 and all(math.isnan(w) for w in rest)
        assert zero_measure().weights(0) == point_mass(0.0).weights(0) == []
