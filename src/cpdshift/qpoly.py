"""The integral kernel polynomials behind conditionally positive definite sequences.

``q_poly(n, x)`` evaluates the degree-(n-2) polynomial whose second difference
in n is x**n; it is the kernel that turns a measure into a moment-like
sequence.  ``q_poly_scaled(n, x, theta)`` is Q_n(x) theta^-n, which stays in
the double range however large n is.  Every evaluation is O(1) in n.
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


def q_poly_scaled(n: int, x: float, theta: float) -> float:
    """Q_n(x) theta^-n for 0 <= x <= theta and theta >= 1; exactly q_poly at theta = 1.

    q_poly(n, x) theta^-n while n (x - 1) < 1, else, with d = x - 1,
    (x/theta)^n (1 - (1 + n d) x^-n) / d^2.  The ratio x/theta is rounded once
    and raised to n, as the prefix step and beta's numerator do, so all three
    see the same rounded atom (and x = theta gives exactly 1).
    """
    d = x - 1.0
    if n * d < 1.0:
        return q_poly(n, x) * theta**-n
    rest = -math.expm1(math.log1p(n * d) - n * math.log1p(d))
    return (x / theta) ** n * rest / (d * d)


def q_poly_log(n: int, x: float) -> float:
    """log q_poly(n, x) for x > 1, from the scaled kernel at theta = x."""
    if x <= 1.0:
        raise ValueError("log evaluation requires x > 1")
    return n * math.log1p(x - 1.0) + math.log(q_poly_scaled(n, x, x)) if n >= 2 else -math.inf
