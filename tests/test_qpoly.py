import decimal
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cpdshift.qpoly import q_poly, q_poly_closed, q_poly_log, q_poly_scaled


def q_recurrence_check(n: int, x: float, tol: float = 1e-10) -> bool:
    """Check the step identity q_poly(n+1, x) == x*q_poly(n, x) + n within tol."""
    lhs = q_poly(n + 1, x)
    rhs = x * q_poly(n, x) + n
    return abs(lhs - rhs) <= tol * (1.0 + abs(lhs))


def q_poly_sum(n: int, x: float) -> float:
    """Summation form: sum_{j=0}^{n-2} (n-1-j) x^j, evaluated by Horner (O(n) reference)."""
    if n < 2:
        return 0.0
    acc = 0.0
    for j in range(n - 2, -1, -1):
        acc = acc * x + (n - 1 - j)
    return acc


@pytest.mark.parametrize("x", [-3.0, 0.0, 0.5, 1.0, 2.0, 17.5])
def test_vanishes_at_low_index(x):
    assert q_poly(0, x) == 0.0
    assert q_poly(1, x) == 0.0


@pytest.mark.parametrize("n", [2, 3, 5, 10, 37])
def test_value_at_one(n):
    assert q_poly(n, 1.0) == n * (n - 1) / 2


@pytest.mark.parametrize("n", [1, 2, 5, 9])
def test_value_at_zero(n):
    assert q_poly(n, 0.0) == n - 1


def test_explicit_small_values():
    assert q_poly(3, 2.0) == 4.0  # 2 + x at x = 2
    assert q_poly(2, 7.0) == 1.0
    assert q_poly(4, 0.5) == 3 + 2 * 0.5 + 0.25


@pytest.mark.parametrize("n,x", [(3, 2.0), (0, 0.7), (10, 0.99), (25, 1.0), (7, 4.5)])
def test_recurrence_examples(n, x):
    assert q_recurrence_check(n, x)


@given(
    st.integers(min_value=0, max_value=60),
    st.floats(min_value=0.0, max_value=5.0, allow_nan=False),
)
@settings(max_examples=300, deadline=None)
def test_recurrence_property(n, x):
    assert q_recurrence_check(n, x)


@given(
    st.integers(min_value=2, max_value=60),
    st.floats(min_value=0.0, max_value=5.0, allow_nan=False),
)
@settings(max_examples=300, deadline=None)
def test_closed_and_sum_forms_agree(n, x):
    if abs(x - 1.0) < 1e-3:  # stay outside the cancellation window
        return
    closed = q_poly_closed(n, x)
    summed = q_poly_sum(n, x)
    assert abs(closed - summed) <= 1e-10 * max(1.0, abs(summed))


@pytest.mark.parametrize("n,x", [(50, 1.5), (200, 2.0), (5000, 4.0), (3, 2.0)])
def test_log_form_matches(n, x):
    expected = q_poly(n, x)
    if math.isfinite(expected) and expected > 0:
        assert math.isclose(q_poly_log(n, x), math.log(expected), rel_tol=1e-12)
    else:
        assert q_poly_log(n, x) > 700.0


def test_log_form_rejects_small_x():
    with pytest.raises(ValueError):
        q_poly_log(10, 0.9)


def _exact_q(n, x):
    """Q_n(x) as an exact fraction, from the integer sum."""
    num, den = Fraction(x).as_integer_ratio()
    acc, den_pow = 0, 1
    for j in range(n - 2, -1, -1):  # sum (n-1-j) num^j den^(n-2-j), by Horner
        acc = acc * num + (n - 1 - j) * den_pow
        den_pow *= den
    return Fraction(acc, den ** (n - 2))


def _exact_log_q(n, x):
    """log Q_n(x) from the exact integer sum, with 40 significant digits."""
    q = _exact_q(n, x)
    with decimal.localcontext() as ctx:
        ctx.prec = 40
        return float(decimal.Decimal(q.numerator).ln() - decimal.Decimal(q.denominator).ln())


def test_log_form_near_one_matches_exact_sums():
    rng = random.Random(20240517)
    draws = [(10, 1.0 + 3e-9), (2, 1.0 + 1e-9), (3, 1.0 + 5e-9), (512, 1.0 + 2.0**-52)]
    while len(draws) < 300:
        x = 1.0 + math.exp(rng.uniform(math.log(1e-16), math.log(20.0)))
        if x > 1.0:
            draws.append((rng.randint(2, 512), x))
    for n, x in draws:
        assert abs(q_poly_log(n, x) - _exact_log_q(n, x)) <= 1e-12, (n, x)


def _scaled_draws(seed, count):
    """(n, x, theta) with n <= 512, theta from 1 + 2^-52 to 20 and 0 <= x <= theta."""
    rng = random.Random(seed)
    draws = [(512, 1.0 + 2.0**-52, 1.0 + 2.0**-52), (2, 1.0 + 1e-9, 20.0), (512, 20.0, 20.0)]
    draws += [(512, 20.0 * (1.0 - 1e-8), 20.0), (300, 0.0, 1.5), (7, 0.5, 1.0)]
    while len(draws) < count:
        theta = 1.0 + math.exp(rng.uniform(math.log(2.0**-52), math.log(19.0)))
        kind = rng.random()
        if kind < 0.3:  # near the top atom
            x = theta * (1.0 - math.exp(rng.uniform(math.log(1e-16), math.log(0.5))))
        elif kind < 0.6:  # near 1, on either side
            x = 1.0 + rng.choice((-1.0, 1.0)) * math.exp(rng.uniform(math.log(1e-16), 0.0))
        else:
            x = rng.uniform(0.0, theta)
        if 0.0 <= x <= theta and x != 1.0:
            draws.append((rng.randint(0, 512), x, theta))
    return draws


def test_scaled_kernel_matches_exact_sums():
    # relative to the exact value, or to the smallest normal double where it underflows
    tiny = Fraction(2.0**-1022)
    for n, x, theta in _scaled_draws(20240519, 400):
        exact = _exact_q(n, x) * Fraction(theta) ** -n if n >= 2 else Fraction(0)
        got = Fraction(q_poly_scaled(n, x, theta))
        assert abs(got - exact) <= exact / 10**12 + tiny, (n, x, theta)


@pytest.mark.parametrize("x", [0.0, 0.3, 1.0 - 1e-9, 0.999])
def test_scaled_kernel_is_q_poly_at_theta_one(x):
    assert all(q_poly_scaled(n, x, 1.0) == q_poly(n, x) for n in range(600))


def test_scaled_kernel_stays_finite_far_out():
    for n in (10**4, 10**7, 10**9, 2**53):
        assert math.isclose(q_poly_scaled(n, 20.0, 20.0), 1.0 / 19.0**2, rel_tol=1e-15)
        assert 0.0 <= q_poly_scaled(n, 19.0, 20.0) < q_poly_scaled(n, 20.0, 20.0)


def test_scaled_step_keeps_to_the_kernel():
    # the prefix steps S_{m+1} = (x/theta) S_m + m theta^-(m+1) over blocks of up to 2048 terms
    for start, x, theta in _scaled_draws(20240520, 40):
        s, u, ratio = q_poly_scaled(start, x, theta), theta**-start, x / theta
        for m in range(start, start + 2048):
            ref = q_poly_scaled(m, x, theta)
            assert abs(s - ref) <= 1e-12 * ref + 1e-300, (m, x, theta)
            u /= theta
            s = ratio * s + m * u


def test_kernel_near_one_matches_exact_sums():
    rng = random.Random(20240518)
    # every regime and both of its edges: n |x - 1| around 1e-3 and around 1
    draws = [(2, 1.0 + 1e-9), (512, 1.0 - 2.0**-53), (512, 1.0 + 2.0**-52)]
    edges = (9.99e-4, 1.001e-3, 0.999, 1.0)
    draws += [(1000, 1.0 + s * r / 1000) for s in (-1.0, 1.0) for r in edges]
    while len(draws) < 300:
        x = 1.0 + rng.choice((-1.0, 1.0)) * math.exp(rng.uniform(math.log(1e-16), math.log(0.5)))
        if x != 1.0:
            draws.append((rng.randint(2, 512), x))
    for n, x in draws:
        exact = _exact_q(n, x)
        assert abs(Fraction(q_poly(n, x)) - exact) <= exact / 10**12, (n, x)
