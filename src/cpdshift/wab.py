"""The two-parameter shift family W(a, b) and generators for the inequality
criterion's three condition families.

W(a, b) has weights (sqrt(a), sqrt((1+n(b-1))/(1+(n-1)(b-1))), ...) for
a > 0, b >= 1.  It generates a CPD shift exactly when theta = 1 - 2a + ab is
nonnegative, is of type I exactly at equality, type II otherwise, and is
never of type III.
"""

from __future__ import annotations

import math

from .core import ScalarTriplet, TypeLabel
from .measures import AtomicMeasure, point_mass, zero_measure
from .similarity import criterion_ineqsuf, example_t0
from .verdict import Record


def wab_weights(a: float, b: float, n: int) -> float:
    """n-th weight of W(a, b)."""
    if not a > 0.0:
        raise ValueError(f"a must be positive, got {a!r}")
    if not b >= 1.0:
        raise ValueError(f"b must be at least 1, got {b!r}")
    if n < 0:
        raise ValueError("index must be nonnegative")
    if n == 0:
        return math.sqrt(a)
    d = b - 1.0
    return math.sqrt((1.0 + n * d) / (1.0 + (n - 1) * d))


def wab_weight_list(a: float, b: float, count: int) -> list[float]:
    return [wab_weights(a, b, n) for n in range(count)]


class WabClassification(Record):
    __slots__ = ("a", "b", "theta", "cpd", "label", "subnormal", "berger", "norm", "triplet")

    def to_json(self) -> dict:
        return {
            "a": self.a,
            "b": self.b,
            "theta": self.theta,
            "cpd": self.cpd,
            "type": self.label.to_json() if self.label else None,
            "subnormal": self.subnormal,
            "berger": self.berger.to_json() if self.berger else None,
            "norm": self.norm,
            "triplet": self.triplet.to_json() if self.triplet else None,
        }


def wab_classify(a: float, b: float) -> WabClassification:
    """Full classification of W(a, b).

    theta = 1 - 2a + ab decides everything: CPD iff theta >= 0, type I iff
    theta = 0 (else type II), subnormal iff a <= b = 1 with Berger measure
    (1-a) at 0 plus a at 1.  The generating triplet is (a-1, 0, theta at 0).
    """
    if not a > 0.0:
        raise ValueError(f"a must be positive, got {a!r}")
    if not b >= 1.0:
        raise ValueError(f"b must be at least 1, got {b!r}")
    # = 1 - 2a + ab; at b = 1 this is 1 - a rounded as -(a - 1), so L = 0 exactly
    theta = (1.0 - a) + a * (b - 1.0)
    norm = math.sqrt(max(a, b))
    if theta < 0.0:
        return WabClassification(a, b, theta, False, None, False, None, norm, None)
    label = TypeLabel("I", 0) if theta == 0.0 else TypeLabel("II", 1)
    subnormal = a <= 1.0 and b == 1.0
    berger = None
    if subnormal:
        if a < 1.0:
            berger = AtomicMeasure(((0.0, 1.0 - a), (1.0, a)))
        else:
            berger = point_mass(1.0, 1.0)
    nu = point_mass(0.0, theta) if theta > 0.0 else zero_measure()
    triplet = ScalarTriplet(a - 1.0, 0.0, nu)
    return WabClassification(a, b, theta, True, label, subnormal, berger, norm, triplet)


class GrowthFamilyExample(Record):
    __slots__ = ("triplet", "family", "params")

    def to_json(self) -> dict:
        doc = self.triplet.to_json()
        doc["meta"] = {"family": self.family, "params": dict(self.params)}
        return doc


def generate_3uwre(
    case: int,
    *,
    b: float = 0.0,
    c: float = 0.0,
    t: float | None = None,
    tau: float | None = None,
    theta: float | None = None,
    alpha: float | None = None,
    point: float | None = None,
    with_positive_c: bool = False,
) -> GrowthFamilyExample:
    """Generate a triplet certified to satisfy one inequality family.

    Follows the recipes literally: single-atom nu with total mass and support
    bounds dictated by the chosen family.  Raises when the requested
    parameters leave an empty window.  The postcondition (the matching family
    holds) is asserted by running the criterion on the output.
    """
    if case == 1:
        example = _case_one(b, c, alpha, point)
    elif case == 2:
        example = _case_two(b, c, t, alpha, point)
    elif case == 3:
        example = _case_three(tau, t, theta, alpha, with_positive_c)
    else:
        raise ValueError(f"case must be 1, 2 or 3, got {case!r}")

    verdict = criterion_ineqsuf(
        example.triplet,
        t_param=example.params.get("t"),
        tau=example.params.get("tau"),
    )
    if example.family not in verdict.witness.get("families", {}):
        raise RuntimeError(
            f"generated triplet fails its own family ({example.family}): {verdict.witness}"
        )
    return example


def _bump_to_boundary(alpha, holds) -> float:
    """Nudge an on-the-boundary mass upward if rounding lands it just below."""
    for factor in (1.0, 1.0 + 1e-9, 1.0 + 1e-6):
        if holds(alpha * factor):
            return alpha * factor
    raise ValueError("no admissible mass near the computed boundary")


def _case_one(b, c, alpha, point) -> GrowthFamilyExample:
    if b < 0.0 or c < 0.0:
        raise ValueError("b and c must be nonnegative")
    if b + c < 1.0:
        raise ValueError("family (i) requires b + c >= 1")
    if alpha is None:
        if c < 1.0:
            alpha = max(1.0, (b - 2.0 * c) / (1.0 - c))
        elif b > c + 1.0:
            raise ValueError("empty window: c >= 1 requires b <= c + 1")
        else:
            alpha = 1.0
        alpha = _bump_to_boundary(
            alpha, lambda a: a >= 1.0 and 2.0 * c + a * (1.0 - c) >= b
        )
    if alpha < 1.0 or 2.0 * c + alpha * (1.0 - c) < b:
        raise ValueError("alpha does not satisfy the family (i) mass inequalities")
    lo = 2.0 * (1.0 + c)
    if point is None:
        point = lo
    if point < lo:
        raise ValueError(f"atom must sit at or above {lo}")
    triplet = ScalarTriplet(b, c, point_mass(point, alpha))
    return GrowthFamilyExample(triplet, "i", {"alpha": alpha, "point": point})


def _case_two(b, c, t, alpha, point) -> GrowthFamilyExample:
    if b < 0.0 or c < 0.0:
        raise ValueError("b and c must be nonnegative")
    t0 = example_t0()
    if t is None:
        t = t0 / 2.0
    if not 0.0 < t < t0:
        raise ValueError(f"empty window: t must lie in (0, {t0})")
    quad = 1.0 - 2.0 * t - 1.5 * t * t  # positive on (0, t0)
    alpha_min = max(
        (1.0 - b - c) / (t * (1.0 + t)),
        (b - 2.0 * c) / quad,
        2.0 * c / (t * (2.0 + t)),
    )
    if alpha is None:
        alpha = alpha_min if alpha_min > 0.0 else 1.0
        alpha = _bump_to_boundary(
            alpha,
            lambda a: (
                b + c + a * t * (1.0 + t) >= 1.0
                and 2.0 * c + a * quad >= b
                and a * t * (2.0 + t) >= 2.0 * c
            ),
        )
    if alpha < alpha_min * (1.0 - 1e-12) or alpha <= 0.0:
        raise ValueError(f"alpha must be positive and at least {alpha_min}")
    lo = 2.0 + t
    if point is None:
        point = lo
    if point < lo:
        raise ValueError(f"atom must sit at or above {lo}")
    triplet = ScalarTriplet(b, c, point_mass(point, alpha))
    return GrowthFamilyExample(triplet, "ii", {"t": t, "alpha": alpha, "point": point})


def _case_three(tau, t, theta, alpha, with_positive_c) -> GrowthFamilyExample:
    if tau is None:
        tau = 0.8
    if not 2.0 / 3.0 < tau < 1.0:
        raise ValueError("tau must lie in (2/3, 1)")
    t_lo, t_hi = 4.0 / 3.0, 2.0 * tau
    if t is None:
        t = 0.5 * (t_lo + t_hi)
    if not t_lo < t < t_hi:
        raise ValueError(f"empty window: t must lie in ({t_lo}, {t_hi})")
    j1_lo, j1_hi = 1.0 + tau / (1.0 - t / 2.0), 1.0 / (1.0 - tau)
    if not j1_lo < j1_hi:
        raise ValueError("empty window for the support endpoint")
    if theta is None:
        theta = 0.5 * (j1_lo + j1_hi)
    if not j1_lo < theta < j1_hi:
        raise ValueError(f"support endpoint must lie in ({j1_lo}, {j1_hi})")
    j2_lo, j2_hi = 2.0 * tau * tau / (2.0 - t), (theta - 1.0) * tau
    if not j2_lo < j2_hi:
        raise ValueError("empty window for the total mass")
    if alpha is None:
        alpha = 0.5 * (j2_lo + j2_hi)
    if not j2_lo < alpha < j2_hi:
        raise ValueError(f"total mass must lie in ({j2_lo}, {j2_hi})")

    b = tau
    c = 0.0
    if with_positive_c:
        c = _positive_c(b, tau, t, theta, alpha)
    triplet = ScalarTriplet(b, c, point_mass(theta, alpha))
    return GrowthFamilyExample(
        triplet,
        "iii",
        {"tau": tau, "t": t, "theta": theta, "alpha": alpha, "c": c},
    )


def _positive_c(b, tau, t, theta, alpha) -> float:
    """Half the supremum of the c keeping the five strict inequalities of the c > 0 variant.

    Three of them bound c above, by theta - 1 - b, alpha t / (2 tau) and
    ((theta - 1) b - alpha) / 2; the other two hold for every c >= 0 once
    they hold at c = 0.
    """

    def feasible(c):
        return (
            theta - 1.0 > b + c
            and 2.0 * c + alpha * (1.0 - t / 2.0) > tau * b
            and alpha * t > 2.0 * tau * c
            and 2.0 * c + alpha < (theta - 1.0) * b
            and (1.0 - tau) * theta < 1.0
        )

    if not feasible(0.0):
        raise ValueError("base case (c = 0) infeasible; cannot push c positive")
    c = min(theta - 1.0 - b, alpha * t / (2.0 * tau), ((theta - 1.0) * b - alpha) / 2.0) / 2.0
    if not (c > 0.0 and feasible(c)):
        raise ValueError("no positive c keeps the strict inequalities")
    return c
