"""Criteria for similarity of a type-III shift to a subnormal shift, and the
model subnormal shift itself.

similar_by_beta decides the uniform defect floor, which the model theorem
makes equivalent to similarity to the model shift, so its "no" (a defect
sequence that vanishes or tends to 0) is a negative certificate for that
model.  The other negative certificates live elsewhere: the type I/II
dichotomy and the necessary conditions.

The criteria other than similar_by_beta are the paper's sufficient ones:
their "no" means the hypotheses do not hold, never that similarity was
refuted.  For an atomic nu each of them needs a top atom above 1, where
similar_by_beta already reads yes, so none decides a verdict and the
`similar` report runs similar_by_beta alone.  They stay as library
functions: wab.generate_3uwre builds the paper's classes from
criterion_ineqsuf, the benchmark's tracer (bench/spans.py) looks them up by
name, and the tests check the paper's sufficiency theorems through them.

Changing finitely many weights gives a similar shift, so no criterion takes
a window: each decides every index in closed form from (b, c, nu) and reads
no beta_n or lambda_n.
"""

from __future__ import annotations

import math

from .core import (
    ROUNDING,
    ScalarTriplet,
    ShiftSequences,
    as_sequences,
    classify_type,
    gamma_growth_class,
    limit_coefficients,
)
from .measures import AtomicMeasure
from .verdict import INCONCLUSIVE, NO, YES, NotApplicableError, Verdict

BETA_FLOOR_TAG = "defect-floor-invertibility"
ENDPOINT_ATOM_TAG = "endpoint-atom"
ENDPOINT_LIMINF_TAG = "endpoint-liminf"
WEIGHT_BAND_TAG = "weight-band"
GROWTH_INEQ_TAG = "growth-inequalities"
MODEL_TAG = "model-shift"

# no criterion reads beta_n or lambda_n: the defect floor holds from n = 0 and
# the weight band covers n >= BAND_N_LO
BAND_N_LO = 32


class ModelDegenerateError(ValueError):
    """The model shift exists only for type III; the completion space is too small."""


def similar_by_beta(t: ScalarTriplet | ShiftSequences) -> Verdict:
    """Decide inf beta_n > 0 (bounded invertibility of the model intertwiner).

    beta_n = D_n / gamma_n with D_n the moments of the defect measure
    nu + 2c at 1.  D is the second difference of gamma, so its growth class
    (r, 0, K_D), led by its top atom, is at most gamma's (r, d, K)
    (core.gamma_growth_class): beta_n tends to K_D / K when the two (r, d)
    agree and to 0 otherwise.  Every beta_n of type III is positive, so the
    infimum is positive exactly when that limit is.  A limit of 0, and a
    defect measure that is zero (type I) or lives at the origin (type II,
    beta_n = 0 from n = 1), is a definitive "no".  With an atom of nu above
    1 both classes are led by the top atom theta, the limit is
    (theta - 1)^2 > 0 and the answer is "yes"; the witness eps is
    _tail_floor from n = 0, a floor for every n, so no beta_n is read.  The
    yes stands where eps underflows to 0.  Where K = w / (theta - 1)^2, w the
    mass of nu at theta, overflows or underflows, the limit reads
    (theta - 1)^2 mass / w.
    Without such an atom the limit is positive only when c = 0 and A = L = 0
    (within their rounding), and then beta_n is a convex combination of the
    (1 - x)^2 over the atoms: the least of them floors every beta_n.
    """
    s = as_sequences(t)
    t = s.triplet
    defect = s.defect_measure.atoms
    if not defect or defect[-1][0] == 0.0:
        return Verdict(
            NO,
            "similar_by_beta",
            BETA_FLOOR_TAG,
            {"witness_index": len(defect), "limit": 0.0},
            note="the defect terms vanish; the shift lies in the two-parameter model family",
        )
    top, mass = defect[-1]
    class_gamma = gamma_growth_class(t)
    if class_gamma[:2] != (top, 0):
        limit = 0.0
    elif 0.0 < class_gamma[2] < math.inf:
        limit = mass / class_gamma[2]
    else:  # K = w / (top - 1)^2 over- or underflowed, w the mass of nu at top
        limit = mass / t.nu.atoms[-1][1] * (top - 1.0) ** 2
    witness = {"class_gamma": class_gamma, "class_defect": (top, 0, mass), "limit": limit}
    if t.nu.support_max() > 1.0:
        eps = _tail_floor(t, 0)
        witness.update({"tail_from": 0, "eps": eps})
        note = "" if eps > 0.0 else "certified floor underflows to 0; the limit (theta-1)^2 > 0"
        return Verdict(YES, "similar_by_beta", BETA_FLOOR_TAG, witness, note=note)
    if limit == 0.0:
        note = "the defect moments grow slower than gamma, so beta_n tends to 0"
        return Verdict(NO, "similar_by_beta", BETA_FLOOR_TAG, witness, note=note)
    witness["eps"] = min((1.0 - p) ** 2 for p, _ in t.nu.atoms)
    return Verdict(YES, "similar_by_beta", BETA_FLOOR_TAG, witness)


def _power_peak(k: int, n_from: int, log_theta: float) -> float:
    """sup of n^k theta^-n over n >= n_from: the value at max(n_from, k / log theta)."""
    n = max(n_from, k / log_theta)
    return n**k * math.exp(-n * log_theta)


def _tail_floor(t: ScalarTriplet, n_from: int) -> float:
    """A floor on beta_n for every n >= n_from, when the top atom theta exceeds 1.

    With Q_n(x) <= n^2/2 for x < 1 and Q_n(x) <= x^n/(x-1)^2 for x > 1,
    gamma_n <= sum_k a_k n^k + C theta^n with a = (1, b+, c + mass below 1 / 2)
    and C the second resolvent sum above 1, while the defect moment is at
    least mass({theta}) theta^n.  So beta_n >= mass({theta}) / (sum_k a_k n^k
    theta^-n + C), where n^k theta^-n is at most ~1e31 (_power_peak); the
    floor saturates to 0 only when a coefficient is near the double limit.
    """
    theta = t.nu.support_max()
    log_theta = math.log1p(theta - 1.0)
    mass_below = math.fsum(w for p, w in t.nu.atoms if p < 1.0)
    terms = [math.fsum(w / (p - 1.0) ** 2 for p, w in t.nu.atoms if p > 1.0)]
    for k, a in enumerate((1.0, max(t.b, 0.0), t.c + mass_below / 2.0)):
        terms.append(a * _power_peak(k, n_from, log_theta))
    return t.nu.mass_at(theta) / sum(terms)


def _weight_tail_error(t: ScalarTriplet, n_from: int) -> float:
    """E >= sup over n >= n_from of |R_n| / K in g_n = gamma_n theta^-n = K + R_n.

    Here theta > 1 is the top atom, K = mass({theta}) / (theta-1)^2 and
    R_n = (A + L n + c n^2) theta^-n + sum_{x < theta} w (x/theta)^n / (x-1)^2,
    bounded with the computed |A| and |L| widened by their rounding (a bound,
    so not read as 0 as core.limit_coefficients does) and n^k theta^-n by
    _power_peak.  E is scaled by 1 + n_from ROUNDING for the roundings in its
    own terms, a power of degree n_from among them, and ROUNDING is added for
    those in g_n, so it bounds the computed weights too.
    """
    theta, mass = t.nu.atoms[-1]
    log_theta = math.log1p(theta - 1.0)
    i1, i2 = t.resolvent
    slope, constant = t.b - i1, 1.0 - i2
    i1_abs = math.fsum(w / abs(p - 1.0) for p, w in t.nu.atoms)
    coeffs = (
        abs(constant) + ROUNDING * (2.0 - constant),  # 1 + i2
        abs(slope) + ROUNDING * (abs(t.b) + i1_abs),
        t.c,
    )
    terms = [a * _power_peak(k, n_from, log_theta) for k, a in enumerate(coeffs)]
    terms += [w * (p / theta) ** n_from / (p - 1.0) ** 2 for p, w in t.nu.atoms[:-1]]
    err = math.fsum(terms) / (mass / (theta - 1.0) ** 2)
    return err * (1.0 + n_from * ROUNDING) + ROUNDING


def criterion_kdwq(t: ScalarTriplet | ShiftSequences) -> Verdict:
    """Atom at the top of the support, above 1: similar to a subnormal shift.

    For an atomic nu the finiteness of the resolvent sum above 1 and the atom
    at the endpoint are automatic, so the criterion reduces to theta > 1.
    The witness also tags the non-subnormality side conditions, each the
    failure of one condition of subnormality.is_subnormal, with (L, A) read
    by limit_coefficients:
        (a) A = 1 - (second resolvent sum) < 0,
        (b) b differs from the first resolvent sum (L != 0),
        (c) c > 0.
    """
    t = as_sequences(t).triplet
    theta = t.nu.support_max()
    if not theta > 1.0:
        return Verdict(
            NO,
            "criterion_kdwq",
            ENDPOINT_ATOM_TAG,
            {"theta": theta},
            note="sup of the support does not exceed 1; hypotheses not met",
        )
    i2_above = math.fsum(w / (p - 1.0) ** 2 for p, w in t.nu.atoms if p > 1.0)
    slope, constant = limit_coefficients(t)
    flags = {
        "a-resolvent-gap": constant < 0.0,
        "b-mismatch": slope != 0.0,
        "c-positive": bool(t.c > 0.0),
    }
    witness = {
        "theta": theta,
        "theta_mass": t.nu.mass_at(theta),
        "i2_above_one": i2_above,
        "not_subnormal_flags": flags,
        "certifies_not_subnormal": any(flags.values()),
    }
    return Verdict(YES, "criterion_kdwq", ENDPOINT_ATOM_TAG, witness)


def criterion_nyttrs(t: ScalarTriplet | ShiftSequences) -> Verdict:
    """liminf criterion at the top of the support.

    With eps_n = 1/n, a_n = nu([theta - eps_n, theta]) (1 - eps_n/theta)^n
    tends to mass({theta}) e^(-1/theta); "yes" when that limit is positive.
    """
    t = as_sequences(t).triplet
    theta = t.nu.support_max()
    if not theta > 1.0:
        raise NotApplicableError("sup of the support must exceed 1")
    limit = t.nu.mass_at(theta) * math.exp(-1.0 / theta)
    witness = {"theta": theta, "limit": limit}
    return Verdict(YES if limit > 0.0 else NO, "criterion_nyttrs", ENDPOINT_LIMINF_TAG, witness)


def criterion_weight_band(t: ScalarTriplet | ShiftSequences) -> Verdict:
    """Squared-weight band test on every n >= BAND_N_LO.

    Fits either (tau, M) with 1 + tau <= lambda_n^2 <= 1 + M, tau in (0, 1)
    and (1 - tau)(1 + M) < 1, or tau >= 1 with 1 + tau <= lambda_n^2, to the
    band of lambda_n^2 over n >= BAND_N_LO.  No weight is read: every
    lambda_n^2 = theta g_{n+1} / g_n there lies in
    [theta (1-E)/(1+E), theta (1+E)/(1-E)] with E from _weight_tail_error.
    Without an atom theta > 1, or with E >= 1, the band is [0, inf].
    Similarity depends only on the tail of the weights, so the band covers
    every n >= BAND_N_LO and has no upper end.
    """
    t = as_sequences(t).triplet
    theta = t.nu.support_max()
    err = _weight_tail_error(t, BAND_N_LO) if theta > 1.0 else math.inf
    lo, hi = 0.0, math.inf
    if err < 1.0:
        lo, hi = theta * (1.0 - err) / (1.0 + err), theta * (1.0 + err) / (1.0 - err)
    witness = {"n_lo": BAND_N_LO, "tail_from": BAND_N_LO, "tail_error": err}
    witness.update({"band_min": lo, "band_max": hi})

    if lo >= 2.0:
        witness.update({"family": "tail-above-two", "tau": lo - 1.0})
        return Verdict(YES, "criterion_weight_band", WEIGHT_BAND_TAG, witness)
    tau = lo - 1.0
    m = hi - 1.0
    if 0.0 < tau < 1.0 and m > 0.0 and (1.0 - tau) * (1.0 + m) < 1.0:
        witness.update({"family": "pinched-band", "tau": tau, "M": m})
        return Verdict(YES, "criterion_weight_band", WEIGHT_BAND_TAG, witness)
    note = "no closed-form bound on the weights" if hi == math.inf else "no admissible band"
    return Verdict(INCONCLUSIVE, "criterion_weight_band", WEIGHT_BAND_TAG, witness, note=note)


def _family_i(t: ScalarTriplet, total: float, inf_supp: float) -> bool:
    return (
        t.b + t.c >= 1.0
        and 2.0 * t.c + total * (1.0 - t.c) >= t.b
        and total >= 1.0
        and inf_supp >= 2.0 * (1.0 + t.c)
    )


def _family_ii(t: ScalarTriplet, total: float, inf_supp: float, tp: float) -> bool:
    return (
        t.b + t.c + total * tp * (1.0 + tp) >= 1.0
        and 2.0 * t.c + total * (1.0 - 2.0 * tp - 1.5 * tp * tp) >= t.b
        and total * tp * (2.0 + tp) >= 2.0 * t.c
        and inf_supp >= 2.0 + tp
    )


def _family_iii(
    t: ScalarTriplet, total: float, inf_supp: float, theta: float, tp: float, tau: float
) -> bool:
    return (
        # first group
        t.b + t.c >= tau
        and 2.0 * t.c + total * (1.0 - tp / 2.0) >= tau * t.b
        and total * tp >= 2.0 * tau * t.c
        # second group
        and t.b + t.c <= theta - 1.0
        and 2.0 * t.c + total <= (theta - 1.0) * t.b
        and (1.0 - tau) * theta < 1.0
        and inf_supp >= 1.0 + tau + tp
    )


def _family_ii_t(t: ScalarTriplet, total: float, inf_supp: float) -> float | None:
    """A t in (0, t0) at which family (ii) holds, or None if there is none.

    For t > 0 the first and third conditions grow with t and the second and
    fourth shrink, so the feasible set is [lo, hi]: lo the larger positive
    root of the first and third quadratics, hi the least of the second's
    positive root, t0 and inf_supp - 2.  The midpoint is tried first, then
    the ends, so that a one-point set is found too.
    """
    if not total > 0.0 or t.b - 2.0 * t.c > total:  # then (ii) fails for every t > 0
        return None
    t0 = example_t0()
    k1 = max(0.0, 1.0 - t.b - t.c) / total  # t^2 + t >= k1
    k3 = 2.0 * t.c / total  # t^2 + 2t >= k3
    m = (t.b - 2.0 * t.c) / total  # 1 - 2t - 1.5 t^2 >= m
    lo = max(2.0 * k1 / (1.0 + math.sqrt(1.0 + 4.0 * k1)), k3 / (1.0 + math.sqrt(1.0 + k3)))
    hi = min(2.0 * (1.0 - m) / (2.0 + math.sqrt(10.0 - 6.0 * m)), t0, inf_supp - 2.0)
    for tp in (0.5 * (lo + hi), lo, hi):
        if 0.0 < tp < t0 and _family_ii(t, total, inf_supp, tp):
            return tp
    return None


def _family_iii_point(
    t: ScalarTriplet, total: float, inf_supp: float, theta: float
) -> tuple[float, float] | None:
    """The (t, tau) to test family (iii) at, inside 4/3 < t < 2 tau, 2/3 < tau < 1, or None.

    Five of the conditions are half-planes p t + q tau <= r; the other two
    do not involve (t, tau).  Clipping the triangle by the five leaves the
    feasible polygon, and the mean of its vertices lies inside it.
    """
    if not total > 0.0:  # then (iii) forces c = 0, so tau b <= 0 and b + c < tau
        return None
    polygon = [(4.0 / 3.0, 2.0 / 3.0), (4.0 / 3.0, 1.0), (2.0, 1.0)]
    for p, q, r in (
        (0.0, 1.0, t.b + t.c),
        (total / 2.0, t.b, 2.0 * t.c + total),
        (-total, 2.0 * t.c, 0.0),
        (0.0, -theta, 1.0 - theta),
        (1.0, 1.0, inf_supp - 1.0),
    ):
        clipped = []
        for a, b in zip(polygon, polygon[1:] + polygon[:1]):
            fa, fb = p * a[0] + q * a[1] - r, p * b[0] + q * b[1] - r
            if fa <= 0.0:
                clipped.append(a)
            if fa < 0.0 < fb or fb < 0.0 < fa:
                s = fa / (fa - fb)
                clipped.append((a[0] + s * (b[0] - a[0]), a[1] + s * (b[1] - a[1])))
        polygon = clipped
    if not polygon:
        return None
    tp, tau = (math.fsum(v[i] for v in polygon) / len(polygon) for i in (0, 1))
    return (tp, tau) if 4.0 / 3.0 < tp < 2.0 * tau and 2.0 / 3.0 < tau < 1.0 else None


def criterion_ineqsuf(
    t: ScalarTriplet | ShiftSequences,
    t_param: float | None = None,
    tau: float | None = None,
) -> Verdict:
    """Inequality families over (b, c, nu-total, support endpoints).

    Stated for b >= 0 only; negative b is reported not applicable.  t_param
    pins family (ii)'s t, and t_param with tau pins family (iii)'s (t, tau);
    pinned values are checked literally.  Otherwise each family is decided
    exactly on its window, (0, t0) for (ii) and 4/3 < t < 2 tau,
    2/3 < tau < 1 for (iii), and reports a point where it holds.
    """
    if tau is not None and t_param is None:
        raise ValueError("tau pins family (iii) only together with t_param")
    t = as_sequences(t).triplet
    if t.b < 0.0:
        return Verdict(
            INCONCLUSIVE,
            "criterion_ineqsuf",
            GROWTH_INEQ_TAG,
            {"applicable": False},
            note="criterion is stated for b >= 0",
        )
    total, inf_supp, theta = t.nu.total_mass(), t.nu.support_min(), t.nu.support_max()

    families: dict[str, dict] = {}
    if _family_i(t, total, inf_supp):
        families["i"] = {}
    tp = _family_ii_t(t, total, inf_supp) if t_param is None else t_param
    if tp is not None and _family_ii(t, total, inf_supp, tp):
        families["ii"] = {"t": tp}
    point = _family_iii_point(t, total, inf_supp, theta) if tau is None else (t_param, tau)
    if point is not None and _family_iii(t, total, inf_supp, theta, *point):
        families["iii"] = {"t": point[0], "tau": point[1]}

    witness = {"applicable": True, "families": families, "nu_total": total, "inf_supp": inf_supp}
    outcome, note = (YES, "") if families else (NO, "no family holds")
    return Verdict(outcome, "criterion_ineqsuf", GROWTH_INEQ_TAG, witness, note=note)


def example_t0() -> float:
    """Positive root of 1 - 2t - (3/2) t^2 = 0: the upper end of family (ii)'s t window."""
    return (math.sqrt(10.0) - 2.0) / 3.0


def model_subnormal(t: ScalarTriplet | ShiftSequences) -> AtomicMeasure:
    """Berger measure of the model subnormal shift: normalized (nu + 2c at 1).

    The model is M_z on the L^2 closure of the polynomials, so the measure
    alone determines it; the radial detour (square-root pushforward, then
    square) returns the same measure.  Degenerate for types I and II (the
    completion space has dimension 0 or 1).
    """
    s = as_sequences(t)
    label = classify_type(s)
    if label.kind != "III":
        raise ModelDegenerateError(
            f"model degenerates for type {label.kind} (completion dimension {label.dim})"
        )
    return s.defect_measure.normalize()


def b2_identity_check(
    t: ScalarTriplet | ShiftSequences, m_max: int = 64, rtol: float = 1e-9
) -> bool:
    """gamma_n * beta_n equals the n-th moment of nu + 2c at 1, for n <= m_max."""
    s = as_sequences(t)
    count = m_max + 1
    lhs = [g * b for g, b in zip(s.gammas(count), s.betas(count))]
    rhs = s.defect_measure.moments(count)
    return not any(abs(x - y) > rtol * max(1.0, abs(x), abs(y)) for x, y in zip(lhs, rhs))
