"""Scalar representing triplets and the sequences they generate.

A triplet (b, c, nu) with c >= 0 and nu a finitely atomic measure on [0, oo)
having no atom at 1 generates the candidate formal moment sequence

    gamma_n = 1 + b n + c n^2 + integral of q_poly(n, .) d nu.

When every gamma_n is positive, the weights lambda_n = sqrt(gamma_{n+1} /
gamma_n) define a bounded weighted shift whose formal moments are exactly
gamma, and the defect sequence beta_n = 1 - 2 lambda_n^2 + lambda_n^2
lambda_{n+1}^2 has the closed form (2c + nu-moment_n) / gamma_n.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass

from .measures import AtomicMeasure
from .qpoly import q_poly, q_poly_log
from .verdict import INCONCLUSIVE, NO, YES, InvalidTripletError, Verdict

# gamma values beyond this are evaluated in the log domain only.
OVERFLOW_LIMIT = 1e300

# The two beta routes must agree this closely or the operation fails loudly.
BETA_AGREEMENT_RTOL = 1e-9

VALIDATION_TAG = "triplet-positivity"
CLASSIFY_TAG = "defect-type-classification"


@dataclass(frozen=True)
class ScalarTriplet:
    """Generating data (b, c, nu) of a CPD weighted shift candidate."""

    b: float
    c: float
    nu: AtomicMeasure

    def __post_init__(self):
        if not math.isfinite(self.b):
            raise ValueError(f"b must be a finite real, got {self.b!r}")
        if not math.isfinite(self.c) or self.c < 0.0:
            raise ValueError(f"c must be a finite nonnegative real, got {self.c!r}")
        if not isinstance(self.nu, AtomicMeasure):
            raise TypeError("nu must be an AtomicMeasure")
        if any(p == 1.0 for p, _ in self.nu.atoms):
            raise ValueError("nu must have no atom at the point 1")

    def to_json(self) -> dict:
        return {"b": self.b, "c": self.c, "nu": self.nu.to_json()}

    @classmethod
    def from_json(cls, obj) -> "ScalarTriplet":
        if not isinstance(obj, dict):
            raise ValueError("triplet JSON must be an object")
        for key in ("b", "c", "nu"):
            if key not in obj:
                raise ValueError(f'triplet JSON missing required key "{key}"')
        return cls(float(obj["b"]), float(obj["c"]), AtomicMeasure.from_json(obj["nu"]))


@dataclass(frozen=True)
class TypeLabel:
    """Shift class: "I" (both defect data vanish), "II" (origin-supported), "III" (the rest).

    dim is the dimension of the defect completion space: 0, 1 or "aleph0".
    """

    kind: str
    dim: object

    def to_json(self) -> dict:
        return {"type": self.kind, "dim": self.dim}


@dataclass(frozen=True)
class DiagonalTriplet:
    """Index-k entry of the diagonal operator triplet attached to the shift."""

    k: int
    b_k: float
    c_k: float
    nu_k: AtomicMeasure


def _admissible_case(t: ScalarTriplet):
    """Case row of the admissible-b table and, when decidable, the verdict.

    Returns (case_number, decided) with decided in {YES, NO, None}.  Only the
    rows with a closed-form endpoint -G1 decide negative b; b >= 0 is always
    admissible.
    """
    nu = t.nu
    theta = nu.support_max()
    if theta > 1.0:
        return 1, (YES if t.b >= 0.0 else None)
    if t.c > 0.0:
        return 2, (YES if t.b >= 0.0 else None)
    # here c == 0 and every atom lies in [0, 1)
    i1, i2 = nu.resolvent_integrals()
    g1, g2 = -i1, i2
    if g2 > 1.0:
        if t.b >= 0.0:
            return 4, YES
        return 4, (NO if t.b <= -g1 else None)
    only_origin = len(nu.atoms) == 1 and nu.atoms[0][0] == 0.0
    if g2 == 1.0 and only_origin:
        return 5, (YES if t.b > -g1 else NO)
    if g2 == 1.0:
        return 6, (YES if t.b >= -g1 else NO)
    return 7, (YES if t.b >= -g1 else NO)


def validate_triplet(t: ScalarTriplet, max_steps: int = 10**6) -> Verdict:
    """Decide positivity of the whole generated sequence gamma.

    The second difference of gamma is 2c + nu-moment_n >= 0, so gamma is
    convex and its first difference is nondecreasing.  Scanning forward,
    either some gamma_n <= 0 turns up (invalid, with witness index) or the
    first difference becomes nonnegative (valid forever after).  When c = 0
    and the support of nu lies in [0, 1) the first difference may stay
    negative; its limit b + G1 then settles the verdict in closed form
    (boundary value: gamma -> 1 - G2).
    """
    nu = t.nu
    case, decided = _admissible_case(t)

    out = None
    if t.c == 0.0 and (nu.is_zero or nu.support_max() < 1.0):
        i1, i2 = nu.resolvent_integrals()
        g1, g2 = -i1, i2
        slope_limit = t.b + g1
        if slope_limit < 0.0:
            out = Verdict(
                NO,
                "validate_triplet",
                VALIDATION_TAG,
                {
                    "reason": "moment sequence eventually decreases without bound",
                    "limit_slope": slope_limit,
                    "table_case": case,
                },
            )
        elif slope_limit == 0.0:
            gamma_limit = 1.0 - g2
            has_positive_point = any(p > 0.0 for p, _ in nu.atoms)
            if gamma_limit > 0.0 or (gamma_limit == 0.0 and has_positive_point):
                out = Verdict(
                    YES,
                    "validate_triplet",
                    VALIDATION_TAG,
                    {"branch": "limit", "gamma_limit": gamma_limit, "table_case": case},
                )
            else:
                witness = {
                    "reason": "limit of the moment sequence is not positive",
                    "gamma_limit": gamma_limit,
                    "table_case": case,
                }
                if not has_positive_point:
                    witness["witness_index"] = 1
                out = Verdict(NO, "validate_triplet", VALIDATION_TAG, witness)

    if out is None:
        out = _forward_scan(t, case, max_steps)

    if decided is not None and out.outcome != INCONCLUSIVE and out.outcome != decided:
        raise RuntimeError(
            f"validation scan ({out.outcome}) disagrees with table case {case} ({decided})"
        )
    return out


def _forward_scan(t: ScalarTriplet, case: int, max_steps: int) -> Verdict:
    pts = [p for p, _ in t.nu.atoms]
    wts = [m for _, m in t.nu.atoms]
    qs = [0.0] * len(pts)
    b, c = t.b, t.c
    g = 1.0  # gamma_0
    for n in range(max_steps):
        if g <= 0.0:
            return Verdict(
                NO,
                "validate_triplet",
                VALIDATION_TAG,
                {"witness_index": n, "gamma": g, "table_case": case},
            )
        for i in range(len(qs)):  # kernel recurrence q -> x q + n
            qs[i] = pts[i] * qs[i] + n
        m = n + 1
        g_next = 1.0 + b * m + c * m * m + sum(w * q for w, q in zip(wts, qs))
        if g_next - g >= 0.0:
            return Verdict(
                YES,
                "validate_triplet",
                VALIDATION_TAG,
                {"branch": "forward", "settled_at": n, "table_case": case},
            )
        g = g_next
    return Verdict(
        INCONCLUSIVE,
        "validate_triplet",
        VALIDATION_TAG,
        {"steps": max_steps, "table_case": case},
        note="termination cap reached before the convexity exit",
    )


def _gamma_value(t: ScalarTriplet, n: int) -> float:
    return 1.0 + t.b * n + t.c * n * n + math.fsum(
        w * q_poly(n, p) for p, w in t.nu.atoms
    )


def _log_gamma_value(t: ScalarTriplet, n: int) -> float:
    if n == 0:
        return 0.0
    small = 1.0 + t.b * n + t.c * n * n
    small += math.fsum(w * q_poly(n, p) for p, w in t.nu.atoms if p <= 1.0)
    terms = []
    if small != 0.0:
        terms.append((math.copysign(1.0, small), math.log(abs(small))))
    for p, w in t.nu.atoms:
        if p > 1.0 and n >= 2:
            terms.append((1.0, math.log(w) + q_poly_log(n, p)))
    if not terms:
        raise ArithmeticError(f"gamma_{n} evaluated to zero")
    top = max(la for _, la in terms)
    total = math.fsum(sign * math.exp(la - top) for sign, la in terms)
    if total <= 0.0:
        raise ArithmeticError(f"log-domain cancellation evaluating gamma_{n}")
    return top + math.log(total)


def defect_moment_measure(t: ScalarTriplet) -> AtomicMeasure:
    """nu plus the atom (1, 2c): the measure whose moments are gamma_n * beta_n."""
    if t.c > 0.0:
        return AtomicMeasure.from_atoms(tuple(t.nu.atoms) + ((1.0, 2.0 * t.c),))
    return t.nu


class ShiftSequences:
    """Formal moments gamma_n, weights lambda_n and defects beta_n of a validated triplet.

    This is the single per-triplet owner of the validation verdict, of the
    memoized gamma / log gamma values and of the defect measure nu + 2c at 1;
    criteria, moment sources and reports take one instance (``seqs=``)
    instead of validating and evaluating the triplet again.

    Each gamma is evaluated from the closed formula (no cumulative products);
    values past double-precision range are served in the log domain.  Memoized
    prefixes are guarded by a lock so concurrent readers see consistent values.
    """

    def __init__(self, triplet: ScalarTriplet, validation: Verdict | None = None):
        v = validation if validation is not None else validate_triplet(triplet)
        if not v.is_yes:
            raise InvalidTripletError(
                f"triplet failed positivity validation ({v.outcome}): {v.witness}"
            )
        self.triplet = triplet
        self.validation = v
        self.defect_measure = defect_moment_measure(triplet)
        self._lock = threading.Lock()
        self._gamma: dict[int, float] = {}
        self._log_gamma: dict[int, float] = {}

    def gamma(self, n: int) -> float:
        """gamma_n in double precision; +inf when it overflows the double range."""
        if n < 0:
            raise ValueError("index must be nonnegative")
        with self._lock:
            if n not in self._gamma:
                self._gamma[n] = _gamma_value(self.triplet, n)
            return self._gamma[n]

    def log_gamma(self, n: int) -> float:
        if n < 0:
            raise ValueError("index must be nonnegative")
        with self._lock:
            if n not in self._log_gamma:
                self._log_gamma[n] = _log_gamma_value(self.triplet, n)
            return self._log_gamma[n]

    def weight(self, n: int) -> float:
        g1 = self.gamma(n + 1)
        if g1 < OVERFLOW_LIMIT:
            return math.sqrt(g1 / self.gamma(n))
        return math.exp(0.5 * (self.log_gamma(n + 1) - self.log_gamma(n)))

    def beta_numerator(self, n: int) -> float:
        """2c + n-th moment of nu: the second difference of gamma."""
        return self.defect_measure.moment(n)

    def log_beta_numerator(self, n: int) -> float:
        return self.defect_measure.log_moment(n)

    def beta(self, n: int) -> float:
        """Defect beta_n, computed both from the weights and in closed form.

        The closed form is returned; disagreement beyond 1e-9 signals an
        implementation bug and raises rather than averaging.
        """
        g2 = self.gamma(n + 2)
        if g2 < OVERFLOW_LIMIT:
            g0, g1 = self.gamma(n), self.gamma(n + 1)
            closed = self.beta_numerator(n) / g0
            sq_a, sq_b = g1 / g0, g2 / g1
        else:
            lg0 = self.log_gamma(n)
            lg1 = self.log_gamma(n + 1)
            lg2 = self.log_gamma(n + 2)
            closed = math.exp(self.log_beta_numerator(n) - lg0)
            sq_a, sq_b = math.exp(lg1 - lg0), math.exp(lg2 - lg1)
        direct = 1.0 - 2.0 * sq_a + sq_a * sq_b
        if abs(direct - closed) > BETA_AGREEMENT_RTOL * max(1.0, abs(closed)):
            raise ArithmeticError(
                f"defect mismatch at n={n}: weights give {direct!r}, closed form {closed!r}"
            )
        return closed

    def weights(self, count: int) -> list[float]:
        return [self.weight(n) for n in range(count)]

    def gammas(self, count: int) -> list[float]:
        return [self.gamma(n) for n in range(count)]


def require_valid(t: ScalarTriplet, seqs: ShiftSequences | None = None) -> None:
    """Raise InvalidTripletError unless t generates a positive moment sequence."""
    if seqs is None:
        ShiftSequences(t)


def classify_type(t: ScalarTriplet, seqs: ShiftSequences | None = None) -> TypeLabel:
    """Type I / II / III label with the defect-space dimension.

    Cross-checked against the dichotomy: the label is III exactly when
    beta_1 > 0.
    """
    s = seqs if seqs is not None else ShiftSequences(t)
    nu, c = t.nu, t.c
    if nu.is_zero and c == 0.0:
        label = TypeLabel("I", 0)
    elif c == 0.0 and len(nu.atoms) == 1 and nu.atoms[0][0] == 0.0:
        label = TypeLabel("II", 1)
    else:
        label = TypeLabel("III", "aleph0")
    if (s.beta(1) > 0.0) != (label.kind == "III"):
        raise RuntimeError("type label disagrees with the beta_1 > 0 dichotomy")
    return label


def diagonal_triplet(t: ScalarTriplet, k: int, seqs: ShiftSequences | None = None) -> DiagonalTriplet:
    """k-th diagonal entry of the operator triplet attached to the shift."""
    if k < 0:
        raise ValueError("index must be nonnegative")
    s = seqs if seqs is not None else ShiftSequences(t)
    gk = s.gamma(k)
    b_k = (s.gamma(k + 1) - gk - t.c) / gk
    c_k = t.c / gk
    atoms = tuple(
        (p, p**k * w / gk) for p, w in t.nu.atoms if not (k >= 1 and p == 0.0)
    )
    return DiagonalTriplet(k, b_k, c_k, AtomicMeasure(atoms))
