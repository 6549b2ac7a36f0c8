"""The integral kernel polynomials behind conditionally positive definite sequences.

``q_poly(n, x)`` evaluates the degree-(n-2) polynomial whose second difference
in n is x**n; it is the kernel that turns a measure into a moment-like
sequence.
"""

from __future__ import annotations

import math

# Below this distance from the removable singularity at x = 1 the closed form
# loses ~n^2 ulp to cancellation, so the summation form takes over.
CLOSED_FORM_SWITCH = 1e-4


def q_poly_sum(n: int, x: float) -> float:
    """Summation form: sum_{j=0}^{n-2} (n-1-j) x^j, evaluated by Horner."""
    if n < 2:
        return 0.0
    acc = 0.0
    for j in range(n - 2, -1, -1):
        acc = acc * x + (n - 1 - j)
    return acc


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

    Uses the closed form away from x = 1 and the summation form inside the
    cancellation window around it.
    """
    if n < 2:
        return 0.0
    if abs(x - 1.0) < CLOSED_FORM_SWITCH:
        return q_poly_sum(n, x)
    return q_poly_closed(n, x)


def q_poly_log(n: int, x: float) -> float:
    """log of q_poly(n, x) for x > 1, stable for n far beyond double overflow.

    With d = x - 1, q = C(n,2) (1 + (n-2)d/3 (1 + (n-3)d/4 (1 + (n-4)d/5 ...)))
    while n d is small; otherwise q = (1+d)^n (1 - (1 + n d)/(1+d)^n) / d^2,
    with the inner ratio taken through log1p/expm1 so that no step cancels.
    """
    if x <= 1.0:
        raise ValueError("log evaluation requires x > 1")
    if n < 2:
        return -math.inf
    d = x - 1.0
    if n * d <= 1e-3:  # the series tail past d^3 is below 1e-14 relative
        inner = (n - 2) * d / 3.0 * (1.0 + (n - 3) * d / 4.0 * (1.0 + (n - 4) * d / 5.0))
        return math.log(n * (n - 1) / 2.0) + math.log1p(inner)
    log_pow = n * math.log1p(d)
    return log_pow + math.log(-math.expm1(math.log1p(n * d) - log_pow)) - 2.0 * math.log(d)


def q_recurrence_check(n: int, x: float, tol: float = 1e-10) -> bool:
    """Check the step identity q_poly(n+1, x) == x*q_poly(n, x) + n within tol."""
    lhs = q_poly(n + 1, x)
    rhs = x * q_poly(n, x) + n
    return abs(lhs - rhs) <= tol * (1.0 + abs(lhs))
