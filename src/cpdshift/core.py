"""Scalar representing triplets and the sequences they generate.

A triplet (b, c, nu) with c >= 0 and nu a finitely atomic measure on [0, oo)
having no atom at 1 generates the candidate formal moment sequence

    gamma_n = 1 + b n + c n^2 + integral of Q_n d nu,   Q_{n+1}(x) = x Q_n(x) + n.

When every gamma_n is positive, lambda_n = sqrt(gamma_{n+1} / gamma_n) are the
weights of a bounded shift with formal moments gamma, and its defects beta_n =
1 - 2 lambda_n^2 + lambda_n^2 lambda_{n+1}^2 equal (2c + nu-moment_n) / gamma_n.

All of them are read from one scaled value per index, g_n = gamma_n theta^-n with
theta = max(1, top atom of nu), which stays in the double range at every n:
lambda_n^2 = theta g_{n+1} / g_n, log gamma_n = n log theta + log g_n, and
beta_n = (sum w (x/theta)^n + 2c theta^-n) / g_n.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from .measures import AtomicMeasure
from .qpoly import q_poly, q_poly_scaled  # noqa: F401  (q_poly re-exported)
from .verdict import INCONCLUSIVE, NO, YES, InvalidTripletError, Verdict

# g_n and log gamma_n are kept for n < PREFIX_WINDOW, so long scans hold no more
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


def _scaled_pair(t: ScalarTriplet, n: int, u: float, ss, log_theta: float) -> tuple[float, float]:
    """(g_n, log gamma_n) in one fsum, from u = theta^-n and Q_n(x) theta^-n per atom;
    g_n saturates to +inf past the double range, log gamma_n is nan if g_n <= 0."""
    terms = [u, t.b * n * u, t.c * n * n * u] + [w * s for (_, w), s in zip(t.nu.atoms, ss)]
    try:
        g = math.fsum(terms)
    except OverflowError:
        g = math.inf
    return g, (n * log_theta + math.log(g) if g > 0.0 else math.nan)


def _theta(t: ScalarTriplet) -> float:
    return max(1.0, t.nu.support_max())


def _far_pair(t: ScalarTriplet, n: int) -> tuple[float, float]:
    """(g_n, log gamma_n) from the O(1) scaled kernel, for indices past the prefix."""
    theta = _theta(t)
    ss = [q_poly_scaled(n, p, theta) for p, _ in t.nu.atoms]
    return _scaled_pair(t, n, theta**-n, ss, math.log1p(theta - 1.0))


def _unscale(g: float, theta: float, n: int) -> float:
    """gamma_n = g_n theta^n; +inf when it overflows the double range."""
    try:
        return g * theta**n
    except OverflowError:
        return math.inf


def _gamma_value(t: ScalarTriplet, n: int) -> float:
    """gamma_n from the O(1) kernel, for the validation scan."""
    return _unscale(_far_pair(t, n)[0], _theta(t), n)


def defect_moment_measure(t: ScalarTriplet) -> AtomicMeasure:
    """nu plus the atom (1, 2c): the measure whose moments are gamma_n * beta_n."""
    if t.c > 0.0:
        return AtomicMeasure.from_atoms(tuple(t.nu.atoms) + ((1.0, 2.0 * t.c),))
    return t.nu


class ShiftSequences:
    """Formal moments gamma_n, weights lambda_n and defects beta_n of a validated triplet.

    The single per-triplet owner of the validation verdict, of the scaled prefix
    g_n and of the defect measure nu + 2c at 1: criteria, moment sources and
    reports take one instance in place of the triplet instead of evaluating again.

    Each prefix block seeds Q_n(x) theta^-n per atom from q_poly_scaled and steps
    it with S_{m+1} = (x/theta) S_m + m theta^-(m+1), so values do not depend on
    the order of reads.  The prefix is an immutable tuple published by one
    assignment, so it needs no lock.
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
        self.theta = _theta(triplet)
        self.log_theta = math.log1p(self.theta - 1.0)
        self._prefix: tuple[tuple[float, float], ...] = ()

    def _scaled(self, n: int) -> tuple[float, float]:
        """(g_n, log gamma_n): past the window from the kernel, else from the prefix."""
        prefix = self._prefix
        if n >= len(prefix):
            if n >= PREFIX_WINDOW:
                return _far_pair(self.triplet, n)
            prefix = self._grow(n)
        elif n < 0:
            raise ValueError("index must be nonnegative")
        return prefix[n]

    def _grow(self, n: int) -> tuple[tuple[float, float], ...]:
        """The published prefix, first grown block by block past n."""
        prefix, t, theta, log_theta = self._prefix, self.triplet, self.theta, self.log_theta
        ratios = [p / theta for p, _ in t.nu.atoms]
        while len(prefix) <= n:
            start = len(prefix)
            u, ss = theta**-start, [q_poly_scaled(start, p, theta) for p, _ in t.nu.atoms]
            block = []
            for m in range(start, min(PREFIX_WINDOW, max(2 * start, FIRST_BLOCK))):
                block.append(_scaled_pair(t, m, u, ss, log_theta))
                u /= theta
                ss = [r * s + m * u for r, s in zip(ratios, ss)]
            self._prefix = prefix = prefix + tuple(block)
        return prefix

    def gamma(self, n: int) -> float:
        """gamma_n in double precision; +inf when it overflows the double range."""
        return _unscale(self._scaled(n)[0], self.theta, n)

    def log_gamma(self, n: int) -> float:
        lg = self._scaled(n)[1]
        if math.isnan(lg):
            raise ArithmeticError(f"gamma_{n} is not positive in double precision")
        return lg

    def weight(self, n: int) -> float:
        return math.sqrt(self.theta * self._scaled(n + 1)[0] / self._scaled(n)[0])

    def beta(self, n: int) -> float:
        """Defect beta_n, computed both from the weights and in closed form.

        The closed form is returned; disagreement beyond 1e-9 signals an
        implementation bug and raises rather than averaging.
        """
        theta = self.theta
        g0, g1, g2 = self._scaled(n)[0], self._scaled(n + 1)[0], self._scaled(n + 2)[0]
        closed = math.fsum([w * (p / theta) ** n for p, w in self.defect_measure.atoms]) / g0
        sq_a, sq_b = theta * g1 / g0, theta * g2 / g1
        direct = 1.0 - 2.0 * sq_a + sq_a * sq_b
        if abs(direct - closed) > BETA_AGREEMENT_RTOL * max(1.0, abs(closed)):
            raise ArithmeticError(
                f"defect mismatch at n={n}: weights give {direct!r}, closed form {closed!r}"
            )
        return closed


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
