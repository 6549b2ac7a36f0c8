"""Moment-ratio tests between two weighted shifts.

One shift is a quasi-affine transform of another exactly when the ratio of
their formal moment sequences is bounded; the shifts are similar exactly when
the ratio is bounded above and away from zero (Shields, *Weighted shift
operators and analytic function theory*, 1974).

For triplets, their sequences, atomic measures and model shifts the test is
exact: their moments grow like K r^n n^d with the growth class (r, d, K) in
closed form, so the ratio om/lam is bounded exactly when (r, d) of om is at
most that of lam, compared lexicographically.  A triplet's linear and
constant coefficients count as 0 within the rounding of their inputs.  A finite weight list cannot
decide boundedness: against one, the test is a heuristic on the trailing
half of the log ratio, and the verdict records that evidence window.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable, Sequence

from .core import ScalarTriplet, ShiftSequences, as_sequences, limit_coefficients
from .measures import AtomicMeasure
from .similarity import ModelShift
from .verdict import INCONCLUSIVE, NO, YES, Verdict

QUASI_TAG = "moment-ratio-sup"
GROWTH_TAG = "moment-growth-class"
SIMILARITY_TAG = "moment-ratio-two-sided"
INTERTWINER_TAG = "diagonal-intertwiner"
ALEVY_TAG = "unbounded-moments-vs-contractive"

DEFAULT_N = 512
# weight lists only, nats/step: log-ratio slopes beyond this are classified
# unbounded; within it, a drift-bounded window is classified bounded.
SLOPE_TOL = 1e-3
WINDOW_DRIFT_TOL = 1.0
# relative size below which a computed leading coefficient L or A of a
# triplet cannot be told from 0
ROUNDING = 16 * sys.float_info.epsilon

# the sources whose moments have a closed-form growth class
CLASSED = (ScalarTriplet, ShiftSequences, AtomicMeasure, ModelShift)


@dataclass(frozen=True)
class MomentSource:
    """Formal moment sequence exposed through log values (overflow-proof)."""

    log_moment_fn: Callable[[int], float]
    max_index: int | None = None
    label: str = ""

    def log_moment(self, n: int) -> float:
        if self.max_index is not None and n > self.max_index:
            raise IndexError(f"moment source {self.label!r} ends at index {self.max_index}")
        return self.log_moment_fn(n)

    @classmethod
    def from_triplet(cls, t: ScalarTriplet | ShiftSequences) -> "MomentSource":
        """Read the memoized log gamma of t's sequences (built here for a bare triplet)."""
        return cls(as_sequences(t).log_gamma, None, "triplet")

    @classmethod
    def from_weights(cls, weights: Sequence[float]) -> "MomentSource":
        """Moments of a finite weight list; quasi_affine_test reads it by a heuristic."""
        ws = [float(w) for w in weights]
        if any(not (w > 0.0) for w in ws):
            raise ValueError("weights must be positive")
        logs = [0.0]
        for w in ws:
            logs.append(logs[-1] + 2.0 * math.log(w))
        return cls(lambda n: logs[n], len(ws), "weights")

    @classmethod
    def from_measure(cls, m: AtomicMeasure) -> "MomentSource":
        _require_positive_moments(m)
        return cls(m.log_moment, None, "measure")


def _require_positive_moments(m: AtomicMeasure) -> None:
    if m.is_zero or m.support_max() == 0.0:
        raise ValueError("measure must charge a positive point to generate positive moments")


def as_moment_source(obj) -> MomentSource:
    if isinstance(obj, MomentSource):
        return obj
    if isinstance(obj, (ScalarTriplet, ShiftSequences)):
        return MomentSource.from_triplet(obj)
    if isinstance(obj, AtomicMeasure):
        return MomentSource.from_measure(obj)
    if isinstance(obj, ModelShift):
        return MomentSource.from_measure(obj.berger)
    if isinstance(obj, (list, tuple)) or hasattr(obj, "tolist"):  # weights, also as an array
        return MomentSource.from_weights(obj)
    raise TypeError(f"cannot interpret {type(obj).__name__} as a moment source")


def growth_class(obj) -> tuple[float, int, float]:
    """(r, d, K) with n-th moment ~ K r^n n^d, for a triplet, its sequences,
    an atomic measure or a model shift (its Berger measure).

    A triplet's gamma_n = A + L n + c n^2 + sum_x w x^n / (x-1)^2 (see
    core.limit_coefficients): its top atom theta leads when theta > 1, else
    the first of c n^2, L n and A with a positive coefficient, else the top
    atom below 1.  A measure's moments are led by the mass at its top point.

    L and A are differences of rounded inputs: a value within ROUNDING of
    the terms it is computed from counts as 0.  So W(a, 1), whose L is 0 but
    for the rounding of a - 1 and 1 - a, keeps the class of its Berger
    measure, as is_subnormal's tolerance on b - i1 does.
    """
    if isinstance(obj, ModelShift):
        obj = obj.berger
    if isinstance(obj, AtomicMeasure):
        _require_positive_moments(obj)
        top, mass = obj.atoms[-1]
        return top, 0, mass
    t = as_sequences(obj).triplet
    top, mass = t.nu.atoms[-1] if t.nu.atoms else (0.0, 0.0)
    if top < 1.0:
        slope, constant = limit_coefficients(t)
        # scales |b| + |i1| and 1 + i2 (every atom lies below 1, so i1 <= 0 <= i2)
        leading = (
            (2, t.c, 0.0),
            (1, slope, abs(t.b) + abs(t.b - slope)),
            (0, constant, 2.0 - constant),
        )
        for d, coeff, scale in leading:
            if coeff > ROUNDING * scale:
                return 1.0, d, coeff
        if top <= 0.0:  # no atom in (0, 1): gamma_n = A + L n for n >= 1, both rounding-level
            return next((1.0, d, coeff) for d, coeff, _ in leading if coeff > 0.0)
    # theta > 1, or below 1 an atom in (0, 1) leads a rounding-level L and A
    return top, 0, mass / (top - 1.0) ** 2


def quasi_affine_test(lam_hat, om_hat, n_max: int = DEFAULT_N) -> Verdict:
    """Is sup of (om-moments / lam-moments) finite?

    Decided by the growth classes when both sides have one: the ratio tends
    to K_om / K_lam when the two (r, d) agree, to 0 when om's is lower and
    to infinity when it is higher.  Against a weight list, n_max bounds the
    window of the heuristic.
    """
    if not (isinstance(lam_hat, CLASSED) and isinstance(om_hat, CLASSED)):
        return _window_heuristic(as_moment_source(lam_hat), as_moment_source(om_hat), n_max)
    lam, om = growth_class(lam_hat), growth_class(om_hat)
    if om[:2] == lam[:2]:
        limit = om[2] / lam[2]
    else:
        limit = 0.0 if om[:2] < lam[:2] else math.inf
    witness = {"class_lam": lam, "class_om": om, "limit_ratio": limit}
    return Verdict(YES if om[:2] <= lam[:2] else NO, "quasi_affine_test", GROWTH_TAG, witness)


def _ls_slope(ys: list[float]) -> float:
    """Least-squares slope of ys against their indices."""
    m = len(ys)
    mid, mean = (m - 1) / 2.0, math.fsum(ys) / m
    return math.fsum((k - mid) * (y - mean) for k, y in enumerate(ys)) / (m * (m * m - 1) / 12.0)


def _window_heuristic(lam: MomentSource, om: MomentSource, n_max: int) -> Verdict:
    """Heuristic for a finite weight list, which cannot show boundedness.

    The least-squares slope of the log ratio over the trailing half window
    decides: clearly positive slope means unbounded, clearly negative means
    bounded, and a flat window is bounded when its drift stays small.
    """
    n = min([n_max] + [s.max_index for s in (lam, om) if s.max_index is not None])
    if n < 8:
        raise ValueError("need at least 8 moments to classify a ratio")
    log_r = [om.log_moment(k) - lam.log_moment(k) for k in range(n + 1)]
    window = log_r[n // 2 :]
    slope = _ls_slope(window)
    sup_idx = max(range(n + 1), key=log_r.__getitem__)
    sup_log = log_r[sup_idx]
    witness = {
        "n_max": n,
        "slope": slope,
        "sup_log_ratio": sup_log,
        "sup_index": sup_idx,
        "window_drift": max(window) - min(window),
    }
    if sup_log < 700.0:
        witness["sup_ratio"] = math.exp(sup_log)

    if slope > SLOPE_TOL:
        return Verdict(NO, "quasi_affine_test", QUASI_TAG, witness)
    if slope < -SLOPE_TOL:
        return Verdict(YES, "quasi_affine_test", QUASI_TAG, witness)
    if witness["window_drift"] <= WINDOW_DRIFT_TOL:
        return Verdict(YES, "quasi_affine_test", QUASI_TAG, witness)
    return Verdict(
        INCONCLUSIVE,
        "quasi_affine_test",
        QUASI_TAG,
        witness,
        note="flat slope but drifting window; evidence window too short",
    )


def similarity_test(lam_hat, om_hat, n_max: int = DEFAULT_N) -> Verdict:
    """Ratio bounded above and below away from 0: the shifts are similar.

    With growth classes on both sides: exactly when the two (r, d) agree.
    """
    forward = quasi_affine_test(lam_hat, om_hat, n_max)
    backward = quasi_affine_test(om_hat, lam_hat, n_max)
    witness = {"forward": forward.to_json(), "backward": backward.to_json()}
    if forward.is_yes and backward.is_yes:
        return Verdict(YES, "similarity_test", SIMILARITY_TAG, witness)
    if forward.is_no or backward.is_no:
        return Verdict(NO, "similarity_test", SIMILARITY_TAG, witness)
    return Verdict(INCONCLUSIVE, "similarity_test", SIMILARITY_TAG, witness)


def shift_matrix(weights: Sequence[float], size: int):
    """Truncated weighted shift: entry (n+1, n) is the n-th weight, as a numpy array."""
    import numpy as np

    mat = np.zeros((size, size))
    for n in range(size - 1):
        mat[n + 1, n] = weights[n]
    return mat


def intertwiner_defect(lam_hat, om_hat, m: int = 32):
    """Max entry of X W_lam - W_om X for the diagonal ratio intertwiner X.

    X = diag(sqrt(om-moment_n / lam-moment_n)).  Both products vanish off the
    subdiagonal, whose n-th entries are x_{n+1} w_lam_n and w_om_n x_n.
    Returns (defect, scale) over the first m columns of the (m+1)-square
    truncations, where the identity is exact but for rounding.
    """
    lam_src, om_src = as_moment_source(lam_hat), as_moment_source(om_hat)
    lam = [lam_src.log_moment(n) for n in range(m + 1)]
    om = [om_src.log_moment(n) for n in range(m + 1)]
    x = [math.exp(0.5 * (o - v)) for o, v in zip(om, lam)]
    lhs = [x[n + 1] * math.exp(0.5 * (lam[n + 1] - lam[n])) for n in range(m)]
    rhs = [math.exp(0.5 * (om[n + 1] - om[n])) * x[n] for n in range(m)]
    defect = max([0.0] + [abs(a - b) for a, b in zip(lhs, rhs)])
    scale = max([1e-300] + [abs(v) for v in lhs + rhs])
    return defect, scale


def intertwiner_check(lam_hat, om_hat, m: int = 32, rtol: float = 1e-12) -> bool:
    """The diagonal sqrt-moment-ratio operator intertwines the two shifts."""
    defect, scale = intertwiner_defect(lam_hat, om_hat, m)
    return defect <= rtol * scale


def alevy_scenario(
    t: ScalarTriplet | ShiftSequences, berger: AtomicMeasure, n_max: int = DEFAULT_N
) -> dict:
    """Quasi-affinity of a non-subnormal shift against a subnormal one, both ways.

    Forward direction (contractive Berger measure, support in [0, 1]): the
    formal moments of the non-subnormal shift grow without bound while the
    subnormal moments stay <= 1, so the ratio decays to 0.  Reverse direction
    (Berger support strictly above the support of nu, both above 1): the
    opposite ratio decays geometrically.  The report certifies moment growth
    via convexity and records where each ratio drops below 1e-6.
    """
    from .subnormality import is_subnormal  # local import avoids a cycle

    seqs = as_sequences(t)
    t = seqs.triplet
    if is_subnormal(seqs).is_yes:
        raise ValueError("scenario requires a non-subnormal shift")

    contractive = berger.is_zero or berger.support_max() <= 1.0
    theta2 = t.nu.support_max()
    theta1 = berger.support_min()
    reverse_applicable = 1.0 < theta2 < theta1
    if not contractive and not reverse_applicable:
        raise ValueError(
            "Berger measure is neither contractive nor supported strictly above nu"
        )

    report: dict = {"criterion": "alevy_scenario", "citation": ALEVY_TAG}

    # moment growth certificate: first strictly positive slope; convexity of
    # gamma makes the sequence increase at least linearly from there on
    grow_idx = None
    for n in range(n_max):
        if seqs.gamma(n + 1) - seqs.gamma(n) > 0.0:
            grow_idx = n
            break
    report["growth"] = {
        "first_increasing_index": grow_idx,
        "certified": grow_idx is not None,
    }

    if contractive:
        if berger.is_zero:
            raise ValueError("Berger measure must be nonzero")
        src = MomentSource.from_measure(berger)
        drop_idx, ratio = _first_drop(lambda n: src.log_moment(n) - seqs.log_gamma(n))
        report["forward"] = {
            "ratio_below_1e-6_at": drop_idx,
            "ratio_there": ratio,
            "berger_total": berger.total_mass(),
        }
    if reverse_applicable:
        src = MomentSource.from_measure(berger)
        drop_idx, ratio = _first_drop(lambda n: seqs.log_gamma(n) - src.log_moment(n))
        report["reverse"] = {
            "theta1": theta1,
            "theta2": theta2,
            "ratio_below_1e-6_at": drop_idx,
            "ratio_there": ratio,
        }
    return report


def _first_drop(log_ratio_fn, cap: int = 10**7):
    """Geometric probe for an index where the (eventually monotone) ratio < 1e-6."""
    target = math.log(1e-6)
    n = 1
    while n <= cap:
        lr = log_ratio_fn(n)
        if lr < target:
            return n, math.exp(lr)
        n *= 2
    lr = log_ratio_fn(cap)
    return None, (math.exp(lr) if lr < 700.0 else math.inf)
