"""Scalar representing triplets and the sequences they generate.

A triplet (b, c, nu) with c >= 0 and nu a finitely atomic measure on [0, oo)
having no atom at 1 generates the candidate formal moment sequence

    gamma_n = 1 + b n + c n^2 + integral of Q_n d nu,   Q_{n+1}(x) = x Q_n(x) + n.

When every gamma_n is positive, lambda_n = sqrt(gamma_{n+1} / gamma_n) are the
weights of a bounded shift with formal moments gamma, and its defects beta_n =
1 - 2 lambda_n^2 + lambda_n^2 lambda_{n+1}^2 equal (2c + nu-moment_n) / gamma_n.

All of them are read from one scaled value per index, g_n = gamma_n theta^-n with
theta = max(1, top atom of nu), or the top atom itself in the limit form below,
which stays in the double range at every n:
lambda_n^2 = theta g_{n+1} / g_n, log gamma_n = n log theta + log g_n, and
beta_n = (sum w (x/theta)^n + 2c theta^-n) / g_n.

The terms of g_n are written once, in _g_terms, in one of two coefficient sets:
the Q form above, and the limit form sum w x^n / (x-1)^2, the same gamma_n
where c = 0, every atom lies below 1 and limit_coefficients reads A = L = 0,
which neither cancels nor underflows as gamma_n decays.  ShiftSequences keeps
g_n for n < PREFIX_WINDOW in a prefix, built in blocks stepped from those
terms by _g_block, and derives log gamma_n and beta_n from it on read; past
the window g_n is the direct sum of the terms, one index at a time.  Every
beta read checks the closed form against the weight route at each index it
returns.  The only other values kept are those a ScalarTriplet object owns,
its sequences t.sequences among them.

Every triplet-level procedure, here and in subnormality, similarity and
quasiaffine, takes the triplet as its one argument and reads t.sequences
for the values it needs.

Each per-index read has a bulk read (gammas, log_gammas, weights, betas) that
returns every n < count in one pass with the same float operations: the same
bits, and the same exception at the first index whose read raises.
"""

from __future__ import annotations

import math
import sys

from .measures import AtomicMeasure
from .qpoly import q_poly, q_poly_scaled  # noqa: F401  (q_poly re-exported)
from .verdict import INCONCLUSIVE, NO, YES, InvalidTripletError, Record, Verdict, _set

# g_n is kept for n < PREFIX_WINDOW, so long scans hold no more memory; blocks end
# at FIRST_BLOCK 2^k, so that two blocks hold the g_0 .. g_66 of `classify`'s
# default 65 betas.
PREFIX_WINDOW = 4096
FIRST_BLOCK = 34

# Past this index doubles no longer separate consecutive indices.
INDEX_LIMIT = 2**53

# The two beta routes must agree this closely or the operation fails loudly.
BETA_AGREEMENT_RTOL = 1e-9

# relative size below which a computed leading coefficient L or A of a
# triplet cannot be told from 0
ROUNDING = 16 * sys.float_info.epsilon

VALIDATION_TAG = "triplet-positivity"
CLASSIFY_TAG = "defect-type-classification"


class _Owner(Record):
    __slots__ = ("_derived",)  # what is made from the object; Record's fields omit it

    def _own(self, key: str, make, *args):
        """The value under key: make(*args) on the first read, kept in the object."""
        value = self._derived.get(key)
        if value is None:  # setdefault keeps the first value made, should two threads race
            value = self._derived.setdefault(key, make(*args))
        return value


class ScalarTriplet(_Owner):
    """Generating data (b, c, nu) of a CPD weighted shift candidate."""

    __slots__ = ("b", "c", "nu")

    def __init__(self, b: float, c: float, nu: AtomicMeasure):
        if not math.isfinite(b):
            raise ValueError(f"b must be a finite real, got {b!r}")
        if not math.isfinite(c) or c < 0.0:
            raise ValueError(f"c must be a finite nonnegative real, got {c!r}")
        if not isinstance(nu, AtomicMeasure):
            raise TypeError("nu must be an AtomicMeasure")
        if any(p == 1.0 for p, _ in nu.atoms):
            raise ValueError("nu must have no atom at the point 1")
        _set(self, "b", b)
        _set(self, "c", c)
        _set(self, "nu", nu)
        _set(self, "_derived", {})

    # validate_triplet(t), the resolvent sums (i1, i2) of nu and ShiftSequences(t), which
    # raises InvalidTripletError unless t validates: like limit_coefficients and
    # classify_type, made on the first read and owned by the object
    validation = property(lambda t: t._own("validation", validate_triplet, t))
    resolvent = property(lambda t: t._own("resolvent", t.nu.resolvent_integrals))
    sequences = property(lambda t: t._own("sequences", ShiftSequences, t))

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


class TypeLabel(Record):
    """Shift class: "I" (both defect data vanish), "II" (origin-supported), "III" (the rest).

    dim is the dimension of the defect completion space: 0, 1 or "aleph0".
    """

    __slots__ = ("kind", "dim")

    def to_json(self) -> dict:
        return {"type": self.kind, "dim": self.dim}


def limit_coefficients(t: ScalarTriplet) -> tuple[float, float]:
    """(L, A) = (b - i1, 1 - i2) in gamma_n = A + L n + c n^2 + sum_x w x^n / (x-1)^2.

    i1, i2 are the resolvent sums of nu.  L and A are differences of rounded
    inputs, so each reads as 0 within ROUNDING of the terms it is computed
    from: |b| + sum w / |x-1| for L and 1 + i2 for A.  An overflowed (infinite)
    scale reads nothing as 0.  When both would read 0 and nu has no atom off
    the origin, gamma_n = A + L n for n >= 1 and the computed pair stands.
    Every decision on the signs of L and A reads this pair.
    """
    return t._own("coefficients", _limit_coefficients, t)


def _limit_coefficients(t: ScalarTriplet) -> tuple[float, float]:
    i1, i2 = t.resolvent
    slope, constant = t.b - i1, 1.0 - i2
    scale = abs(t.b) + math.fsum(w / abs(p - 1.0) for p, w in t.nu.atoms)
    flat_slope = abs(slope) <= ROUNDING * scale < math.inf
    flat_constant = abs(constant) <= ROUNDING * (1.0 + i2) < math.inf
    if flat_slope and flat_constant and t.nu.support_max() <= 0.0:
        return slope, constant
    return (0.0 if flat_slope else slope), (0.0 if flat_constant else constant)


def gamma_growth_class(t: ScalarTriplet) -> tuple[float, int, float]:
    """(r, d, K) with gamma_n ~ K r^n n^d, from gamma_n = A + L n + c n^2 + sum_x w x^n / (x-1)^2.

    The top atom theta leads when theta > 1, else the first of c n^2, L n and
    A with a positive coefficient (limit_coefficients), else the top atom
    below 1.  So (a - 1, 0, 1 - 2a + a at 0), whose L is 0 but for the
    rounding of 1 - 2a + a, has the class (1, 0, a) of W(a, 1), which
    wab_classify builds with L = 0 exactly.
    """
    top, mass = t.nu.atoms[-1] if t.nu.atoms else (0.0, 0.0)
    if top < 1.0:
        slope, constant = limit_coefficients(t)
        for d, coeff in ((2, t.c), (1, slope), (0, constant)):
            if coeff > 0.0:
                return 1.0, d, coeff
    return top, 0, mass / (top - 1.0) ** 2


def _admissible_case(t: ScalarTriplet, coefficients: tuple[float, float] | None):
    """Case row of the admissible-b table and, when decidable, the verdict.

    Returns (case_number, decided) with decided in {YES, NO, None}.  Only the
    rows with a closed-form endpoint -G1 = i1, the first resolvent sum, decide
    negative b; b >= 0 is always admissible.  coefficients is
    limit_coefficients(t), read only when c = 0 and every atom lies below 1;
    there row 3 (gamma_1 = 1 + b <= 0) is read after row 5, whose open
    endpoint b = -1 it shares.
    """
    nu = t.nu
    theta = nu.support_max()
    if theta > 1.0:
        return 1, (YES if t.b >= 0.0 else None)
    if t.c > 0.0:
        return 2, (YES if t.b >= 0.0 else None)
    slope_limit, gamma_limit = coefficients
    if gamma_limit < 0.0:
        if t.b >= 0.0:
            return 4, YES
        return 4, (NO if slope_limit <= 0.0 else None)
    only_origin = len(nu.atoms) == 1 and nu.atoms[0][0] == 0.0
    if gamma_limit == 0.0 and only_origin:
        return 5, (YES if slope_limit > 0.0 else NO)
    if t.b <= -1.0:
        return 3, NO
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
    in closed form (boundary value: gamma -> A), unless gamma_1 = 1 + b is
    not positive, which the scan finds at its first step.  Inconclusive only
    when gamma still decreases at 2^53, past which doubles do not separate
    consecutive indices.
    """
    nu = t.nu
    limit_class = t.c == 0.0 and nu.support_max() < 1.0
    coefficients = limit_coefficients(t) if limit_class else None
    case, decided = _admissible_case(t, coefficients)

    out = None
    if limit_class and t.b > -1.0:
        slope_limit, gamma_limit = coefficients
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
    values: dict[int, float] = {}
    theta = _theta(t)

    def gamma(n: int) -> float:
        g = values.get(n)
        if g is None:
            g = values[n] = _gamma_value(t, theta, n)
        return g

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


def _fsum_g(terms) -> float:
    """g_n as the fsum of its terms; +inf past the double range."""
    try:
        return math.fsum(terms)
    except OverflowError:
        return math.inf


def _theta(t: ScalarTriplet) -> float:
    return max(1.0, t.nu.support_max())


def _g_terms(t: ScalarTriplet, theta: float, n: int, count: int, limit: bool):
    """The terms of g_m = gamma_m theta^-m for n <= m < n + count, in one coefficient set.

    Returns (rows, seeds, steps).  rows[i] holds the polynomial terms of
    g_{n+i}, and rows[0] also the atom terms w S_n, so that g_n is the sum of
    rows[0].  seeds holds one (w, x/theta, S_n) per atom (x, w) of nu, and a
    later S_m steps from S_n as S_{m+1} = (x/theta) S_m + steps[m - n].

    The Q form has the terms (1, b m, c m^2) theta^-m, S_n = Q_n(x) theta^-n
    and the steps m theta^-(m+1), with theta^-m taken one division at a time.
    The limit form gamma_m = sum w x^m / (x-1)^2 has no polynomial terms,
    S_n = (x/theta)^n / (x-1)^2 and steps of 0: it takes no power of theta,
    which there is the top atom and may be tiny.

    t is read for b, c and nu only, so a ShiftSequences, which keeps them,
    stands in for its triplet here, in _g_block and in _far_g.
    """
    if limit:
        rows, steps = [[] for _ in range(count)], [0.0] * count
    else:
        rows, steps, u = [], [], theta**-n
        for m in range(n, n + count):
            rows.append([u, t.b * m * u, t.c * m * m * u])
            u /= theta
            steps.append(m * u)
    seeds = []
    for p, w in t.nu.atoms:
        r = p / theta
        s = r**n / (p - 1.0) ** 2 if limit else q_poly_scaled(n, p, theta)
        rows[0].append(w * s)
        seeds.append((w, r, s))
    return rows, seeds, steps


def _g_block(t: ScalarTriplet, theta: float, start: int, count: int, limit: bool) -> tuple:
    """g_m for start <= m < start + count: the terms of _g_terms, atom seeds stepped from start.

    A block depends on its start and not on its length: its first k entries
    are the k-entry block from the same start, bit for bit.
    """
    rows, seeds, steps = _g_terms(t, theta, start, count, limit)
    for w, r, s in seeds:
        for row, step in zip(rows[1:], steps):
            s = r * s + step
            row.append(w * s)
    return tuple(map(_fsum_g, rows))


def _far_g(t: ScalarTriplet, theta: float, n: int, limit: bool) -> float:
    """g_n from the O(1) kernel: the direct sum of its terms, for indices past the prefix."""
    return _fsum_g(_g_terms(t, theta, n, 1, limit)[0][0])


def _unscale(g: float, theta: float, n: int) -> float:
    """gamma_n = g_n theta^n; +inf when it overflows the double range."""
    try:
        return g * theta**n
    except OverflowError:
        return math.inf


def _gamma_value(t: ScalarTriplet, theta: float, n: int) -> float:
    """gamma_n from the O(1) kernel in the Q form, for the validation scan."""
    return _unscale(_far_g(t, theta, n, False), theta, n)


def defect_moment_measure(t: ScalarTriplet) -> AtomicMeasure:
    """nu plus the atom (1, 2c): the measure whose moments are gamma_n * beta_n."""
    if t.c > 0.0:
        return AtomicMeasure.from_atoms(tuple(t.nu.atoms) + ((1.0, 2.0 * t.c),))
    return t.nu


def _checked_betas(start: int, defect, theta: float, g) -> list[float]:
    """beta_n for start <= n < start + len(g) - 2, from g = (g_start, g_start+1, ...).

    Returns the closed form sum w r^n / g_n over defect = ((x/theta, w), ...),
    its numerator +inf past the double range as g_n is, checked at every index
    against the weight route 1 - 2 lambda_n^2 + lambda_n^2 lambda_{n+1}^2:
    disagreement beyond BETA_AGREEMENT_RTOL is an implementation bug and
    raises rather than averaging.  Where several indices fail, the first
    raises what it raises when read by itself.
    """
    ns = range(start, start + len(g) - 2)
    try:
        rows = zip(*([w * r**n for n in ns] for r, w in defect)) if defect else [()] * len(ns)
        closed = [_fsum_g(row) / g0 for row, g0 in zip(rows, g)]
        sq = [theta * b / a for a, b in zip(g, g[1:])]
    except ArithmeticError:  # possibly at a later index than a mismatch: check one at a time
        if len(ns) > 1:
            for i in range(len(ns)):
                _checked_betas(start + i, defect, theta, g[i : i + 3])
        raise
    rtol = BETA_AGREEMENT_RTOL
    for n, c, a, b in zip(ns, closed, sq, sq[1:]):
        direct, size = 1.0 - 2.0 * a + a * b, abs(c)
        if abs(direct - c) > rtol * (size if size > 1.0 else 1.0):  # rtol * max(1, |c|)
            raise ArithmeticError(
                f"defect mismatch at n={n}: weights give {direct!r}, closed form {c!r}"
            )
    return closed


class ShiftSequences:
    """Formal moments gamma_n, weights lambda_n and defects beta_n of a validated triplet.

    The owner of the scaled prefix g_n and of the defect measure nu + 2c at 1.
    ShiftSequences(t) builds a new one; criteria and reports share
    t.sequences, the one that the triplet object owns.  It keeps b, c and nu
    of t, not t itself, so a triplet and its sequences form no reference
    cycle and are freed together when the last reference goes.

    The prefix holds g_n only; log gamma_n = n log theta + log g_n is derived
    on read.  Each prefix block comes from _g_block, which steps the atom
    seeds from its first index, so values do not depend on the order of reads
    and a block from 0 of any length gives the prefix's first entries.  It is
    grown on the first read of a gamma, weight or beta; the type check of
    classify_type grows none.  Past PREFIX_WINDOW g_n is the direct sum of
    the terms.  Both read the limit form, with theta the top atom, when
    validation took its limit branch with gamma_limit = 0 (c = 0, every atom
    below 1 and limit_coefficients reading (0, 0)), and the Q form otherwise;
    the set is chosen once, here.  The prefix is an immutable tuple published
    by one assignment, so it needs no lock.

    beta_n is computed on each read from g_n, g_n+1, g_n+2 and the rounded
    ratios x/theta of the defect atoms, and checked against the weight route.

    gammas, log_gammas, weights and betas read every n < count in one pass, bit
    for bit equal to the per-index reads, which serve random access; past the
    window they evaluate each g_n once, and columns reads all four from one
    pass over g.
    """

    def __init__(self, triplet: ScalarTriplet):
        v = triplet.validation
        if not v.is_yes:
            raise InvalidTripletError(
                f"triplet failed positivity validation ({v.outcome}): {v.witness}"
            )
        self.b, self.c, self.nu = triplet.b, triplet.c, triplet.nu
        self.defect_measure = defect_moment_measure(triplet)
        self._limit = v.witness.get("branch") == "limit" and v.witness["gamma_limit"] == 0.0
        # the limit form decays like its top atom, which scales it into the double range;
        # theta - 1 is exact for theta >= 1/2 only, so the top atom takes log
        self.theta = triplet.nu.support_max() if self._limit else _theta(triplet)
        self.log_theta = math.log(self.theta) if self._limit else math.log1p(self.theta - 1.0)
        self._defect = tuple((p / self.theta, w) for p, w in self.defect_measure.atoms)
        self._prefix: tuple[float, ...] = ()

    def _g(self, n: int) -> float:
        """g_n: past the window from the kernel, else from the prefix."""
        prefix = self._prefix
        if n >= len(prefix):
            if n >= PREFIX_WINDOW:
                return _far_g(self, self.theta, n, self._limit)
            prefix = self._grow(n)
        elif n < 0:
            raise ValueError("index must be nonnegative")
        return prefix[n]

    def _grow(self, n: int) -> tuple[float, ...]:
        """The published prefix, first grown block by block past n."""
        prefix, theta, limit = self._prefix, self.theta, self._limit
        while len(prefix) <= n:
            start = len(prefix)
            stop = min(PREFIX_WINDOW, max(2 * start, FIRST_BLOCK))
            block = _g_block(self, theta, start, stop - start, limit)
            self._prefix = prefix = prefix + block
        return prefix

    def _gs(self, count: int) -> tuple[float, ...] | list[float]:
        """g_n for every n < count: the prefix, then one kernel call per index past the window."""
        if count <= PREFIX_WINDOW:
            prefix = self._prefix if count <= len(self._prefix) else self._grow(count - 1)
            return prefix[: max(count, 0)]
        theta, limit = self.theta, self._limit
        far = [_far_g(self, theta, n, limit) for n in range(PREFIX_WINDOW, count)]
        return list(self._grow(PREFIX_WINDOW - 1)) + far

    def _weight_squares(self, lo: int, hi: int) -> list[float]:
        """lambda_n^2 = theta g_{n+1} / g_n for lo <= n <= hi, in one pass over g."""
        if lo < 0:
            raise ValueError("index must be nonnegative")
        g, theta = self._gs(hi + 2), self.theta
        return [theta * b / a for a, b in zip(g[lo:], g[lo + 1 :])]

    def gamma(self, n: int) -> float:
        """gamma_n in double precision; +inf when it overflows the double range."""
        return _unscale(self._g(n), self.theta, n)

    def gammas(self, count: int) -> list[float]:
        """gamma(n) for every n < count."""
        theta = self.theta
        return [_unscale(g, theta, n) for n, g in enumerate(self._gs(count))]

    def _log_gamma(self, n: int, g: float) -> float:
        if not g > 0.0:
            raise ArithmeticError(f"gamma_{n} is not positive in double precision")
        return n * self.log_theta + math.log(g)

    def log_gamma(self, n: int) -> float:
        return self._log_gamma(n, self._g(n))

    def log_gammas(self, count: int) -> list[float]:
        """log_gamma(n) for every n < count; raises at the first n that log_gamma raises at."""
        return [self._log_gamma(n, g) for n, g in enumerate(self._gs(count))]

    def weight(self, n: int) -> float:
        return math.sqrt(self.theta * self._g(n + 1) / self._g(n))

    def weights(self, count: int) -> list[float]:
        """weight(n) for every n < count."""
        return [math.sqrt(x) for x in self._weight_squares(0, count - 1)]

    def beta(self, n: int) -> float:
        """Defect beta_n, computed both from the weights and in closed form.

        The closed form is returned; disagreement beyond BETA_AGREEMENT_RTOL
        signals an implementation bug and raises rather than averaging.
        """
        g = (self._g(n), self._g(n + 1), self._g(n + 2))
        return _checked_betas(n, self._defect, self.theta, g)[0]

    def betas(self, count: int) -> list[float]:
        """beta(n) for every n < count, checked in one pass over g_0 .. g_count+1."""
        return _checked_betas(0, self._defect, self.theta, self._gs(count + 2))

    def columns(self, count: int) -> tuple[list[float], list[float], list[float], list[float]]:
        """(gammas, weights, betas, log_gammas) of count, from one read of g_0 .. g_count+1.

        Bit for bit the four bulk reads, each g_n past the window evaluated
        once.  The betas are read first: where g_n cancels to 0 they raise at
        a lower index than the weights do.
        """
        g, theta = self._gs(count + 2), self.theta
        betas = _checked_betas(0, self._defect, theta, g)
        gammas = [_unscale(x, theta, n) for n, x in enumerate(g[:count])]
        weights = [math.sqrt(theta * b / a) for a, b in zip(g[:count], g[1 : count + 1])]
        return gammas, weights, betas, [self._log_gamma(n, x) for n, x in enumerate(g[:count])]


def classify_type(t: ScalarTriplet) -> TypeLabel:
    """Type I / II / III label with the defect-space dimension.

    Cross-checked against the dichotomy: the label is III exactly when
    beta_1 > 0.  beta_1 is read from a 4-entry block g_0 .. g_3 of _g_block,
    bit for bit ShiftSequences.beta(1) and checked the same way, without
    growing the prefix.
    """
    return t._own("type", _checked_label, t.sequences)


def _checked_label(s: ShiftSequences) -> TypeLabel:
    nu, c = s.nu, s.c
    if nu.is_zero and c == 0.0:
        label = TypeLabel("I", 0)
    elif c == 0.0 and len(nu.atoms) == 1 and nu.atoms[0][0] == 0.0:
        label = TypeLabel("II", 1)
    else:
        label = TypeLabel("III", "aleph0")
    g = _g_block(s, s.theta, 0, 4, s._limit)
    if (_checked_betas(1, s._defect, s.theta, g[1:])[0] > 0.0) != (label.kind == "III"):
        raise RuntimeError("type label disagrees with the beta_1 > 0 dichotomy")
    return label
