"""Scalar representing triplets and the sequences they generate.

A triplet (b, c, nu) with c >= 0 and nu a finitely atomic measure on [0, oo)
having no atom at 1 generates the candidate formal moment sequence

    gamma_n = 1 + b n + c n^2 + integral of Q_n d nu,   Q_{n+1}(x) = x Q_n(x) + n.

When every gamma_n is positive, lambda_n = sqrt(gamma_{n+1} / gamma_n) are the
weights of a bounded shift with formal moments gamma, and its defects beta_n =
1 - 2 lambda_n^2 + lambda_n^2 lambda_{n+1}^2 equal (2c + nu-moment_n) / gamma_n.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from .measures import AtomicMeasure, logsumexp
from .qpoly import q_poly, q_poly_log
from .verdict import INCONCLUSIVE, NO, YES, InvalidTripletError, Verdict

# gamma values beyond this are evaluated in the log domain only.
OVERFLOW_LIMIT = 1e300

# gamma_n and log gamma_n are kept for n < PREFIX_WINDOW, so long scans hold no more
# memory; blocks end at FIRST_BLOCK 2^k: 68 and 544 hold what 64/512-term beta scans read.
PREFIX_WINDOW = 4096
FIRST_BLOCK = 34

# Past this index doubles no longer separate consecutive indices.
INDEX_LIMIT = 2**53

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


def limit_coefficients(t: ScalarTriplet) -> tuple[float, float]:
    """(L, A) = (b - i1, 1 - i2) in gamma_n = A + L n + c n^2 + sum_x w x^n / (x-1)^2.

    i1, i2 are the resolvent sums of nu.  Floats subtract to 0 only when
    equal, so the signs of L and A compare b with i1 and 1 with i2.
    """
    i1, i2 = t.nu.resolvent_integrals()
    return t.b - i1, 1.0 - i2


def _admissible_case(t: ScalarTriplet):
    """Case row of the admissible-b table and, when decidable, the verdict.

    Returns (case_number, decided) with decided in {YES, NO, None}.  Only the
    rows with a closed-form endpoint -G1 = i1, the first resolvent sum, decide
    negative b; b >= 0 is always admissible.
    """
    nu = t.nu
    theta = nu.support_max()
    if theta > 1.0:
        return 1, (YES if t.b >= 0.0 else None)
    if t.c > 0.0:
        return 2, (YES if t.b >= 0.0 else None)
    # here c == 0 and every atom lies in [0, 1)
    slope_limit, gamma_limit = limit_coefficients(t)
    if gamma_limit < 0.0:
        if t.b >= 0.0:
            return 4, YES
        return 4, (NO if slope_limit <= 0.0 else None)
    only_origin = len(nu.atoms) == 1 and nu.atoms[0][0] == 0.0
    if gamma_limit == 0.0 and only_origin:
        return 5, (YES if slope_limit > 0.0 else NO)
    if gamma_limit == 0.0:
        return 6, (YES if slope_limit >= 0.0 else NO)
    return 7, (YES if slope_limit >= 0.0 else NO)


def validate_triplet(t: ScalarTriplet) -> Verdict:
    """Decide positivity of the whole generated sequence gamma.

    The second difference of gamma is 2c + nu-moment_n >= 0, so gamma is
    convex and its first difference is nondecreasing.  The first n at which
    gamma_{n+1} >= gamma_n (valid forever after) or gamma_{n+1} <= 0 (invalid,
    with witness index) is found by doubling and bisection on the O(1) kernel.
    When c = 0 and the support of nu lies in [0, 1) the first difference may
    stay negative; its limit L (limit_coefficients) then settles the verdict
    in closed form (boundary value: gamma -> A).  Inconclusive only when gamma
    still decreases at 2^53, past which doubles do not separate consecutive
    indices.
    """
    nu = t.nu
    case, decided = _admissible_case(t)

    out = None
    if t.c == 0.0 and (nu.is_zero or nu.support_max() < 1.0):
        slope_limit, gamma_limit = limit_coefficients(t)
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
        out = _forward_scan(t, case)

    if decided is not None and out.outcome != INCONCLUSIVE and out.outcome != decided:
        raise RuntimeError(
            f"validation scan ({out.outcome}) disagrees with table case {case} ({decided})"
        )
    return out


def _forward_scan(t: ScalarTriplet, case: int) -> Verdict:
    """The convexity exit: the first n with gamma_{n+1} >= gamma_n or gamma_{n+1} <= 0.

    The predicate is monotone in n, so doubling brackets the exit and bisection
    finds it with O(log n) kernel evaluations.  It compares with >=, not through
    a difference, so an overflowed pair of +inf reads as stopped.
    """
    gamma = functools.cache(functools.partial(_gamma_value, t))

    def stopped(n: int) -> bool:
        return gamma(n + 1) >= gamma(n) or gamma(n + 1) <= 0.0

    lo, hi = -1, 0  # the exit lies in (lo, hi] once stopped(hi) holds
    while not stopped(hi):
        if hi >= INDEX_LIMIT:
            return Verdict(
                INCONCLUSIVE,
                "validate_triplet",
                VALIDATION_TAG,
                {"searched_to": hi, "table_case": case},
                note="gamma still decreases where doubles no longer separate consecutive indices",
            )
        lo, hi = hi, max(1, 2 * hi)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if stopped(mid) else (mid, hi)
    if gamma(hi + 1) >= gamma(hi):
        return Verdict(
            YES,
            "validate_triplet",
            VALIDATION_TAG,
            {"branch": "forward", "settled_at": hi, "table_case": case},
        )
    return Verdict(
        NO,
        "validate_triplet",
        VALIDATION_TAG,
        {"witness_index": hi + 1, "gamma": gamma(hi + 1), "table_case": case},
    )


def _gamma_pair(t: ScalarTriplet, n: int, qs) -> tuple[float, float]:
    """gamma_n from Q_n(x) per atom in one fsum, and its log (nan if gamma_n <= 0).

    From OVERFLOW_LIMIT on, the log takes the atoms above 1 from q_poly_log and
    drops a negative rest, which is then below 1e-280 of gamma_n."""
    head = [1.0, t.b * n, t.c * n * n]
    try:
        g = math.fsum(head + [w * q for (_, w), q in zip(t.nu.atoms, qs)])
    except OverflowError:
        g = math.inf
    if g < OVERFLOW_LIMIT:
        return g, (math.log(g) if g > 0.0 else math.nan)
    rest = math.fsum(head + [w * q for (p, w), q in zip(t.nu.atoms, qs) if p < 1.0])
    logs = [math.log(w) + q_poly_log(n, p) for p, w in t.nu.atoms if p > 1.0]
    return g, logsumexp(logs + [math.log(rest)] if rest > 0.0 else logs)


def _gamma_value(t: ScalarTriplet, n: int) -> float:
    """gamma_n from the O(1) kernel, for indices past the prefix."""
    return _gamma_pair(t, n, [q_poly(n, p) for p, _ in t.nu.atoms])[0]


def _log_gamma_value(t: ScalarTriplet, n: int) -> float:
    return _gamma_pair(t, n, [q_poly(n, p) for p, _ in t.nu.atoms])[1]


def defect_moment_measure(t: ScalarTriplet) -> AtomicMeasure:
    """nu plus the atom (1, 2c): the measure whose moments are gamma_n * beta_n."""
    if t.c > 0.0:
        return AtomicMeasure.from_atoms(tuple(t.nu.atoms) + ((1.0, 2.0 * t.c),))
    return t.nu


class ShiftSequences:
    """Formal moments gamma_n, weights lambda_n and defects beta_n of a validated triplet.

    The single per-triplet owner of the validation verdict, of the gamma prefix
    and of the defect measure nu + 2c at 1: criteria, moment sources and
    reports take one instance in place of the triplet instead of evaluating again.

    Each prefix block seeds Q_n(x) per atom from q_poly and steps it with the
    recurrence, so values do not depend on the order of reads.  The prefix is
    an immutable tuple published by one assignment, so it needs no lock.
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
        self._prefix: tuple[tuple[float, float], ...] = ()

    def _prefix_to(self, n: int) -> tuple[tuple[float, float], ...]:
        """The published (gamma, log gamma) prefix, first grown block by block past n."""
        if n < 0:
            raise ValueError("index must be nonnegative")
        prefix = self._prefix
        while len(prefix) <= n:
            start, pts = len(prefix), [p for p, _ in self.triplet.nu.atoms]
            qs = [q_poly(start, p) for p in pts]
            block = []
            for m in range(start, min(PREFIX_WINDOW, max(2 * start, FIRST_BLOCK))):
                block.append(_gamma_pair(self.triplet, m, qs))
                qs = [p * q + m for p, q in zip(pts, qs)]
            self._prefix = prefix = prefix + tuple(block)
        return prefix

    def gamma(self, n: int) -> float:
        """gamma_n in double precision; +inf when it overflows the double range."""
        if n >= PREFIX_WINDOW:
            return _gamma_value(self.triplet, n)
        return self._prefix_to(n)[n][0]

    def log_gamma(self, n: int) -> float:
        lg = _log_gamma_value(self.triplet, n) if n >= PREFIX_WINDOW else self._prefix_to(n)[n][1]
        if math.isnan(lg):
            raise ArithmeticError(f"gamma_{n} is not positive in double precision")
        return lg

    def weight(self, n: int) -> float:
        g1 = self.gamma(n + 1)
        if g1 < OVERFLOW_LIMIT:
            return math.sqrt(g1 / self.gamma(n))
        return math.exp(0.5 * (self.log_gamma(n + 1) - self.log_gamma(n)))

    def beta(self, n: int) -> float:
        """Defect beta_n, computed both from the weights and in closed form.

        The closed form is returned; disagreement beyond 1e-9 signals an
        implementation bug and raises rather than averaging.
        """
        g2 = self.gamma(n + 2)
        if g2 < OVERFLOW_LIMIT:
            g0, g1 = self.gamma(n), self.gamma(n + 1)
            closed = self.defect_measure.moment(n) / g0
            sq_a, sq_b = g1 / g0, g2 / g1
        else:
            lg0 = self.log_gamma(n)
            lg1 = self.log_gamma(n + 1)
            lg2 = self.log_gamma(n + 2)
            closed = math.exp(self.defect_measure.log_moment(n) - lg0)
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


def as_sequences(t: ScalarTriplet | ShiftSequences) -> ShiftSequences:
    """t itself if it is a ShiftSequences, else the sequences of the triplet t.

    Raises InvalidTripletError for a triplet that fails validation.
    """
    return t if isinstance(t, ShiftSequences) else ShiftSequences(t)


def classify_type(t: ScalarTriplet | ShiftSequences) -> TypeLabel:
    """Type I / II / III label with the defect-space dimension.

    Cross-checked against the dichotomy: the label is III exactly when
    beta_1 > 0.
    """
    s = as_sequences(t)
    nu, c = s.triplet.nu, s.triplet.c
    if nu.is_zero and c == 0.0:
        label = TypeLabel("I", 0)
    elif c == 0.0 and len(nu.atoms) == 1 and nu.atoms[0][0] == 0.0:
        label = TypeLabel("II", 1)
    else:
        label = TypeLabel("III", "aleph0")
    if (s.beta(1) > 0.0) != (label.kind == "III"):
        raise RuntimeError("type label disagrees with the beta_1 > 0 dichotomy")
    return label


def diagonal_triplet(t: ScalarTriplet | ShiftSequences, k: int) -> DiagonalTriplet:
    """k-th diagonal entry of the operator triplet attached to the shift."""
    if k < 0:
        raise ValueError("index must be nonnegative")
    s = as_sequences(t)
    t = s.triplet
    gk = s.gamma(k)
    b_k = (s.gamma(k + 1) - gk - t.c) / gk
    c_k = t.c / gk
    # the origin carries no mass for k >= 1, and masses that underflow drop out too
    masses = ((p, p**k * w / gk) for p, w in t.nu.atoms)
    atoms = tuple((p, m) for p, m in masses if m > 0.0)
    return DiagonalTriplet(k, b_k, c_k, AtomicMeasure(atoms))
