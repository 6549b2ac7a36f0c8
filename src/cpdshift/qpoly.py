"""The integral kernel polynomials behind conditionally positive definite sequences.

``q_poly(n, x)`` evaluates the degree-(n-2) polynomial whose second difference
in n is x**n; it is the kernel that turns a measure into a moment-like
sequence.  Every evaluation is O(1) in n.
"""

from __future__ import annotations

import math

# The binomial series is summed while n |x - 1| <= this: its tail past d^3 is < 1e-14.
SERIES_LIMIT = 1e-3


def q_poly_closed(n: int, x: float) -> float:
    """Closed form (x^n - 1 - n(x-1)) / (x-1)^2; undefined at x = 1.

    Saturates to +inf when x**n leaves the double range (x > 1).
    """
    if n < 2:
        return 0.0
    d = x - 1.0
    try:
        p = x**n
    except OverflowError:
        return math.inf
    return (p - 1.0 - n * d) / (d * d)


def q_poly(n: int, x: float) -> float:
    """Kernel polynomial value; 0 for n in {0, 1}.

    With d = x - 1: the binomial series while n |d| <= SERIES_LIMIT, the
    closed form once n |d| >= 1, and (expm1(n log1p(d)) - n d) / d^2 in
    between, where the closed form would lose digits to x^n - 1.
    """
    if n < 2:
        return 0.0
    d = x - 1.0
    if abs(n * d) <= SERIES_LIMIT:  # sum_{k>=2} C(n, k) d^(k-2), nested
        tail = (n - 2) * d / 3.0 * (1.0 + (n - 3) * d / 4.0 * (1.0 + (n - 4) * d / 5.0))
        return n * (n - 1) / 2.0 * (1.0 + tail)
    if abs(n * d) < 1.0:
        return (math.expm1(n * math.log1p(d)) - n * d) / (d * d)
    return q_poly_closed(n, x)


def q_poly_log(n: int, x: float) -> float:
    """log of q_poly(n, x) for x > 1, stable for n far beyond double overflow.

    The log of the series value while n (x-1) <= SERIES_LIMIT; otherwise, with
    d = x - 1, q = (1+d)^n (1 - (1 + n d)/(1+d)^n) / d^2, with the inner ratio
    taken through log1p/expm1 so that no step cancels.
    """
    if x <= 1.0:
        raise ValueError("log evaluation requires x > 1")
    if n < 2:
        return -math.inf
    d = x - 1.0
    if n * d <= SERIES_LIMIT:
        return math.log(q_poly(n, x))
    log_pow = n * math.log1p(d)
    return log_pow + math.log(-math.expm1(math.log1p(n * d) - log_pow)) - 2.0 * math.log(d)


def q_recurrence_check(n: int, x: float, tol: float = 1e-10) -> bool:
    """Check the step identity q_poly(n+1, x) == x*q_poly(n, x) + n within tol."""
    lhs = q_poly(n + 1, x)
    rhs = x * q_poly(n, x) + n
    return abs(lhs - rhs) <= tol * (1.0 + abs(lhs))
