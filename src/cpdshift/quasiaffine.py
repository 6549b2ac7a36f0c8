"""Moment-ratio tests between two weighted shifts.

One shift is a quasi-affine transform of another exactly when the ratio of
their formal moment sequences is bounded; the shifts are similar exactly when
the ratio is bounded above and away from zero (Shields, *Weighted shift
operators and analytic function theory*, 1974).

The tests are exact for every input they accept: triplets and atomic
measures, a model shift's Berger measure among them.  Their moments grow
like K r^n n^d with the growth class (r, d, K) in closed form, so the ratio
om/lam is bounded exactly when (r, d) of om is at most that of lam,
compared lexicographically.  A triplet's linear and constant coefficients
count as 0 within the rounding of their inputs.  A finite weight list
cannot show that a ratio is bounded, so only intertwiner_defect, which
checks an identity on a finite truncation, accepts one; it reads a
triplet's moments from t.sequences, the sequences its reports share.
"""

from __future__ import annotations

import math

from .core import ScalarTriplet, gamma_growth_class
from .measures import AtomicMeasure
from .verdict import NO, YES, Verdict

GROWTH_TAG = "moment-growth-class"
SIMILARITY_TAG = "moment-ratio-two-sided"

# the intertwining identity holds when its defect is at most this times its scale
INTERTWINER_RTOL = 1e-12


def _require_positive_moments(m: AtomicMeasure) -> None:
    if m.is_zero or m.support_max() == 0.0:
        raise ValueError("measure must charge a positive point to generate positive moments")


def _log_moments(obj, count: int) -> list[float]:
    """log of the moments 0..count-1 of a triplet, an atomic measure or a finite weight list."""
    if isinstance(obj, AtomicMeasure):
        _require_positive_moments(obj)
        return obj.log_moments(count)
    if isinstance(obj, ScalarTriplet):
        return obj.sequences.log_gammas(count)
    if isinstance(obj, (list, tuple)) or hasattr(obj, "tolist"):  # weights, also as an array
        ws = [float(w) for w in obj]
        if any(not (w > 0.0) for w in ws):
            raise ValueError("weights must be positive")
        if len(ws) < count - 1:
            raise IndexError(f"{len(ws)} weights give no moment of index {count - 1}")
        logs = [0.0]
        for w in ws[: count - 1]:
            logs.append(logs[-1] + 2.0 * math.log(w))
        return logs
    raise TypeError(f"cannot read moments from {type(obj).__name__}")


def growth_class(obj) -> tuple[float, int, float]:
    """(r, d, K) with n-th moment ~ K r^n n^d, for a triplet or an atomic measure.

    A triplet's class is core.gamma_growth_class; a measure's moments are
    led by the mass at its top point.
    """
    if isinstance(obj, AtomicMeasure):
        _require_positive_moments(obj)
        top, mass = obj.atoms[-1]
        return top, 0, mass
    if not isinstance(obj, ScalarTriplet):
        raise TypeError(f"no growth class for {type(obj).__name__}")
    obj.sequences  # InvalidTripletError unless obj validates
    return gamma_growth_class(obj)


def _lead(obj, cls: tuple[float, int, float]) -> tuple[float, float]:
    """(w, s) with K = w / s in the growth class cls = (r, d, K) of obj.

    Where an atom at r leads a triplet's class (core.gamma_growth_class), w is
    its mass and s = (r - 1)^2; else w = K and s = 1.
    """
    r, _, k = cls
    if isinstance(obj, AtomicMeasure) or r == 1.0:
        return k, 1.0
    return obj.nu.atoms[-1][1], (r - 1.0) ** 2


def quasi_affine_test(lam_hat, om_hat) -> Verdict:
    """Is sup of (om-moments / lam-moments) finite?

    Decided by the growth classes: the ratio tends to K_om / K_lam when the
    two (r, d) agree, to 0 when om's is lower and to infinity when it is
    higher.  Where a K = w / (r - 1)^2 overflows or underflows, the limit
    reads from the masses w of the leading atoms, in which (r - 1)^2 cancels.
    """
    lam, om = growth_class(lam_hat), growth_class(om_hat)
    if om[:2] != lam[:2]:
        limit = 0.0 if om[:2] < lam[:2] else math.inf
    elif 0.0 < om[2] < math.inf and 0.0 < lam[2] < math.inf:
        limit = om[2] / lam[2]
    else:
        (w_om, s_om), (w_lam, s_lam) = _lead(om_hat, om), _lead(lam_hat, lam)
        limit = w_om / w_lam * (s_lam / s_om)
    witness = {"class_lam": lam, "class_om": om, "limit_ratio": limit}
    return Verdict(YES if om[:2] <= lam[:2] else NO, "quasi_affine_test", GROWTH_TAG, witness)


def similarity_test(lam_hat, om_hat) -> Verdict:
    """Ratio bounded above and below away from 0: the shifts are similar,
    exactly when the two growth classes (r, d) agree."""
    forward = quasi_affine_test(lam_hat, om_hat)
    backward = quasi_affine_test(om_hat, lam_hat)
    witness = {"forward": forward.to_json(), "backward": backward.to_json()}
    outcome = YES if forward.is_yes and backward.is_yes else NO
    return Verdict(outcome, "similarity_test", SIMILARITY_TAG, witness)


def intertwiner_defect(lam_hat, om_hat, m: int = 32):
    """Max entry of X W_lam - W_om X for the diagonal ratio intertwiner X.

    X = diag(sqrt(om-moment_n / lam-moment_n)).  Both products vanish off the
    subdiagonal, whose n-th entries are x_{n+1} w_lam_n and w_om_n x_n.
    Returns (defect, scale) over the first m columns of the (m+1)-square
    truncations, where the identity is exact but for rounding.
    """
    lam, om = _log_moments(lam_hat, m + 1), _log_moments(om_hat, m + 1)
    x = [math.exp(0.5 * (o - v)) for o, v in zip(om, lam)]
    lhs = [x[n + 1] * math.exp(0.5 * (lam[n + 1] - lam[n])) for n in range(m)]
    rhs = [math.exp(0.5 * (om[n + 1] - om[n])) * x[n] for n in range(m)]
    defect = max([0.0] + [abs(a - b) for a, b in zip(lhs, rhs)])
    scale = max([1e-300] + [abs(v) for v in lhs + rhs])
    return defect, scale
