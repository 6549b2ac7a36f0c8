"""Subnormality of a CPD weighted shift and the necessary conditions for
similarity to a subnormal operator.

The decisive test is the resolvent criterion: in
gamma_n = A + L n + c n^2 + sum w x^n / (x-1)^2 the shift is subnormal
exactly when c = 0, L = b - i1 = 0 and A = 1 - i2 >= 0 (i1, i2 the resolvent
sums of nu at 1), with the signs of L and A read by limit_coefficients, the
one rule that validation and the necessary conditions read too.  The
moment-matrix oracle is an independent finite certificate (positive
semidefiniteness of the Hankel matrix and its shift) that never consults the
resolvent test.
"""

from __future__ import annotations

import math

from .core import ScalarTriplet, ShiftSequences, as_sequences, classify_type, limit_coefficients
from .measures import AtomicMeasure
from .verdict import INCONCLUSIVE, NO, YES, Record, Verdict, _set

SUBNORMAL_TAG = "resolvent-criterion"
HANKEL_TAG = "stieltjes-hankel-psd"
DICHOTOMY_TAG = "type-I-II-dichotomy"
NECESSARY_TAG = "similarity-necessary-conditions"

# Hankel verdicts: PSD within tol * norm is "yes"; eigenvalues more negative
# than BAND_FACTOR * tol * norm are a decisive "no"; in between is a declared
# tolerance band (not decisive).
HANKEL_BAND_FACTOR = 10.0


def is_subnormal(t: ScalarTriplet | ShiftSequences) -> Verdict:
    """Resolvent test: yes exactly when c = 0, L = 0 and A >= 0, else no.

    (L, A) = (b - i1, 1 - i2) as limit_coefficients reads them.  On success
    the witness carries the Berger measure: mass w/(x-1)^2 at every atom
    (x, w) of nu and A at the point 1, a probability measure reproducing the
    formal moments.
    """
    t = as_sequences(t).triplet
    i1, i2 = t.resolvent
    slope, constant = limit_coefficients(t)
    conditions = {
        "second_resolvent_at_most_one": constant >= 0.0,
        "c_is_zero": t.c == 0.0,
        "b_matches_first_resolvent": slope == 0.0,
    }
    gap = abs(t.b - i1) if math.isfinite(i1) else math.inf
    witness = {"i1": i1, "i2": i2, "b_gap": gap, "conditions": conditions}
    if not all(conditions.values()):
        return Verdict(NO, "is_subnormal", SUBNORMAL_TAG, witness)
    witness["berger"] = berger_measure(t)
    return Verdict(YES, "is_subnormal", SUBNORMAL_TAG, witness)


def berger_measure(t: ScalarTriplet) -> AtomicMeasure:
    """Berger measure of a subnormal triplet (caller checks the criterion)."""
    atoms = [(p, w / (p - 1.0) ** 2) for p, w in t.nu.atoms]
    mass_at_one = limit_coefficients(t)[1]
    if mass_at_one > 0.0:
        atoms.append((1.0, mass_at_one))
    return AtomicMeasure.from_atoms(atoms)


def hankel_psd_oracle(moments, order: int = 8, tol: float = 1e-8) -> Verdict:
    """Finite Stieltjes certificate: PSD of [m_{i+j}] and [m_{i+j+1}], i,j <= order.

    Independent of the resolvent test.  A verdict is decisive unless the most
    negative normalized eigenvalue falls in the band (-BAND_FACTOR*tol, -tol].
    Moments that saturate to +inf past the double range give no matrix to
    test: the verdict is inconclusive.  NaN or -inf moments raise.
    """
    import numpy as np

    need = 2 * order + 2
    if len(moments) < need:
        raise ValueError(f"need at least {need} moments for order {order}, got {len(moments)}")
    m = np.asarray(moments[:need], dtype=float)
    if np.any(np.isnan(m) | (m == -np.inf)):
        raise ValueError("moments must be finite or +inf")
    if np.any(m == np.inf):
        witness = {"order": order, "tol": tol, "decisive": False}
        note = "moments overflow the double range"
        return Verdict(INCONCLUSIVE, "hankel_psd_oracle", HANKEL_TAG, witness, note=note)
    idx = np.arange(order + 1)
    h = m[idx[:, None] + idx[None, :]]
    h_shift = m[idx[:, None] + idx[None, :] + 1]

    worst = 0.0  # most negative normalized eigenvalue over both matrices
    for mat in (h, h_shift):
        norm = float(np.linalg.norm(mat, np.inf))
        if norm == 0.0:
            continue
        lam_min = float(np.linalg.eigvalsh(mat)[0])
        worst = min(worst, lam_min / norm)

    psd = worst >= -tol
    decisive = psd or worst < -HANKEL_BAND_FACTOR * tol
    witness = {
        "order": order,
        "tol": tol,
        "min_normalized_eigenvalue": worst,
        "decisive": decisive,
    }
    outcome = YES if psd else (NO if decisive else INCONCLUSIVE)
    return Verdict(outcome, "hankel_psd_oracle", HANKEL_TAG, witness)


class ConditionResult(Record):
    __slots__ = ("id", "passed", "witness_index", "detail")

    def __init__(self, id: str, passed: bool, witness_index: int | None = None, detail: str = ""):
        _set(self, "id", id)
        _set(self, "passed", passed)
        _set(self, "witness_index", witness_index)
        _set(self, "detail", detail)

    def to_json(self) -> dict:
        doc = {"id": self.id, "status": "pass" if self.passed else "fail"}
        if self.witness_index is not None:
            doc["witness_index"] = self.witness_index
        if self.detail:
            doc["detail"] = self.detail
        return doc


class NecessaryReport(Record):
    __slots__ = ("applicable", "note", "conditions")

    def __init__(
        self, applicable: bool, note: str = "", conditions: tuple[ConditionResult, ...] = ()
    ):
        _set(self, "applicable", applicable)
        _set(self, "note", note)
        _set(self, "conditions", conditions)

    @property
    def not_similar(self) -> bool:
        return self.applicable and any(not c.passed for c in self.conditions)

    @property
    def failed_ids(self) -> list[str]:
        return [c.id for c in self.conditions if not c.passed]

    def to_json(self) -> dict:
        return {
            "applicable": self.applicable,
            "note": self.note,
            "conditions": [c.to_json() for c in self.conditions],
            "certifies_not_similar": self.not_similar,
        }


def necessary_conditions(t: ScalarTriplet | ShiftSequences) -> NecessaryReport:
    """Similarity-to-subnormal necessary conditions, decided in closed form.

    Applicable only when the support of nu lies in [0, 1]; outside that range
    no shift-level criterion is available and the report says so.  The
    conditions quantify over every index k of the diagonal triplet:
        (i)   c = 0,
        (ii)  b_k + nu_k-total <= 0 for all k,
        (iii) b_k + nu_k-total = 0 for all k, or nu charges a point != 0,
        (iv)  some b_k < 0, or nu has no atom in the open interval (0, 1).
    Any failure certifies that the shift is not similar to a subnormal
    operator.

    In gamma_n = A + L n + c n^2 + sum w x^n / (x-1)^2 (limit_coefficients)
    the numerators gamma_k (b_k + nu_k-total) = L + 2ck + sum w x^(k+1)/(x-1)
    and gamma_k b_k = L + 2ck + sum w x^k/(x-1) increase in k, the first to L
    or +inf, the second from b.  So (ii) fails exactly when c > 0 or L > 0,
    with L as limit_coefficients reads it, and (iv) when b >= 0 and an atom
    lies in (0, 1).
    """
    t = as_sequences(t).triplet
    if t.nu.support_max() > 1.0:
        return NecessaryReport(
            applicable=False,
            note="support of nu is not contained in [0, 1]; conditions do not apply",
        )

    ii = t.c == 0.0 and not limit_coefficients(t)[0] > 0.0
    # with no atom off the origin the sums are (L + 2ck) / gamma_k, and a valid
    # triplet with c = 0 has L >= 0: they vanish exactly when (ii) holds
    iii = ii or any(p > 0.0 for p, _ in t.nu.atoms)
    interior = next((i for i, (p, _) in enumerate(t.nu.atoms) if 0.0 < p < 1.0), None)
    iv = t.b < 0.0 or interior is None
    conditions = (
        ConditionResult("i-c-zero", t.c == 0.0, None, "c = 0"),
        ConditionResult("ii-diagonal-sum-nonpositive", ii, None, "b_k + nu_k-total <= 0 for all k"),
        ConditionResult(
            "iii-zero-sum-or-offorigin-support",
            iii,
            None,
            "b_k + nu_k-total = 0 for all k, or supp nu != {0}",
        ),
        ConditionResult(
            "iv-negative-b-or-no-interior-atom",
            iv,
            None if iv else interior,
            "some b_k < 0, or nu has no atom in (0, 1)",
        ),
    )
    return NecessaryReport(True, "", conditions)


def dichotomy_check(t: ScalarTriplet | ShiftSequences) -> Verdict:
    """Types I and II are subnormal or not similar to any subnormal operator.

    Outcome answers "similar to a subnormal operator?": yes means the shift is
    itself subnormal, no means not similar at all.  Type III input is an
    error.
    """
    s = as_sequences(t)
    return _dichotomy(classify_type(s).kind, is_subnormal(s))


def _dichotomy(kind: str, sub: Verdict) -> Verdict:
    """dichotomy_check from the shift's type kind and its is_subnormal verdict."""
    if kind == "III":
        raise ValueError("dichotomy applies only to types I/II")
    witness = {"type": kind, "subnormal": sub.outcome}
    if sub.is_yes:
        witness["classification"] = "subnormal"
        witness["berger"] = sub.witness["berger"]
        return Verdict(YES, "dichotomy_check", DICHOTOMY_TAG, witness)
    witness["classification"] = "not_similar_to_subnormal"
    return Verdict(NO, "dichotomy_check", DICHOTOMY_TAG, witness)
