"""Moment-ratio tests between two weighted shifts.

One shift is a quasi-affine transform of another exactly when the ratio of
their formal moment sequences is bounded; the shifts are similar exactly when
the ratio is bounded above and away from zero.  At finite truncation the
classification is necessarily heuristic at the boundary: the verdict records
the evidence window.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

from .core import ScalarTriplet, ShiftSequences, as_sequences
from .measures import AtomicMeasure
from .similarity import ModelShift
from .verdict import INCONCLUSIVE, NO, YES, Verdict

QUASI_TAG = "moment-ratio-sup"
SIMILARITY_TAG = "moment-ratio-two-sided"
INTERTWINER_TAG = "diagonal-intertwiner"
ALEVY_TAG = "unbounded-moments-vs-contractive"

DEFAULT_N = 512
# nats/step: log-ratio slopes beyond this are classified unbounded; within it,
# a drift-bounded window is classified bounded.
SLOPE_TOL = 1e-3
WINDOW_DRIFT_TOL = 1.0


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
        ws = [float(w) for w in weights]
        if any(not (w > 0.0) for w in ws):
            raise ValueError("weights must be positive")
        logs = [0.0]
        for w in ws:
            logs.append(logs[-1] + 2.0 * math.log(w))
        return cls(lambda n: logs[n], len(ws), "weights")

    @classmethod
    def from_measure(cls, m: AtomicMeasure) -> "MomentSource":
        if m.is_zero or m.support_max() == 0.0:
            raise ValueError("measure must charge a positive point to generate positive moments")
        return cls(m.log_moment, None, "measure")


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


def _effective_n(n_max: int, *sources: MomentSource) -> int:
    n = n_max
    for s in sources:
        if s.max_index is not None:
            n = min(n, s.max_index)
    if n < 8:
        raise ValueError("need at least 8 moments to classify a ratio")
    return n


def quasi_affine_test(lam_hat, om_hat, n_max: int = DEFAULT_N) -> Verdict:
    """Is sup of (om-moments / lam-moments) finite?

    Works on log ratios; the least-squares slope over the trailing half window
    decides: clearly positive slope means unbounded, clearly negative means
    bounded, and a flat window is bounded when its drift stays small.
    """
    import numpy as np

    lam = as_moment_source(lam_hat)
    om = as_moment_source(om_hat)
    n = _effective_n(n_max, lam, om)
    log_r = np.array([om.log_moment(k) - lam.log_moment(k) for k in range(n + 1)])
    window = log_r[n // 2 :]
    slope = float(np.polyfit(np.arange(n // 2, n + 1), window, 1)[0])
    sup_idx = int(np.argmax(log_r))
    sup_log = float(log_r[sup_idx])
    witness = {
        "n_max": n,
        "slope": slope,
        "sup_log_ratio": sup_log,
        "sup_index": sup_idx,
        "window_drift": float(window.max() - window.min()),
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
    """Ratio bounded above and below away from 0: the shifts are similar."""
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


def _weights_from_source(src: MomentSource, count: int) -> list[float]:
    return [
        math.exp(0.5 * (src.log_moment(n + 1) - src.log_moment(n))) for n in range(count)
    ]


def intertwiner_defect(lam_hat, om_hat, m: int = 32):
    """Max interior entry of X W_lam - W_om X for the diagonal ratio intertwiner.

    Returns (defect, scale): the identity is exact except at the truncation
    boundary, so only the first m columns of the (m+1)-square truncations are
    compared.
    """
    import numpy as np

    lam = as_moment_source(lam_hat)
    om = as_moment_source(om_hat)
    size = m + 1
    w_lam = shift_matrix(_weights_from_source(lam, size), size)
    w_om = shift_matrix(_weights_from_source(om, size), size)
    x = np.diag([math.exp(0.5 * (om.log_moment(n) - lam.log_moment(n))) for n in range(size)])
    lhs = x @ w_lam
    rhs = w_om @ x
    defect = float(np.abs((lhs - rhs)[:, :m]).max())
    scale = float(max(np.abs(lhs).max(), np.abs(rhs).max(), 1e-300))
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
