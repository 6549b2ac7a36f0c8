"""Finitely atomic positive Borel measures on the half line [0, oo).

Everything downstream (moment sequences, Berger measures, pushforwards) is
computed exactly from the atom list, so only finitely atomic measures are
supported.  An empty atom list is the zero measure.
"""

from __future__ import annotations

import math
import sys
from collections import namedtuple
from collections.abc import Iterable

from .qpoly import q_poly
from .verdict import Record, _set


ResolventIntegrals = namedtuple("ResolventIntegrals", ("i1", "i2"))
ResolventIntegrals.__doc__ = """sum w/(x-1) and sum w/(x-1)^2 over the atoms.

When an atom sits exactly at 1, or the terms of the first overflow to -inf
below 1 and to +inf above it, the first integral is reported as NaN
(undefined); with an atom at 1 the second is +inf.
"""


def over_square(w: float, d: float) -> tuple[float, int]:
    """w / d^2 as (m, k), m 2^k, from frexp(w) and frexp(d): w / d**2 bit for bit where normal."""
    mw, ew = math.frexp(w)
    md, ed = math.frexp(d)
    return mw / md**2, ew - 2 * ed


def square_ratio(w: float, d: float) -> float:
    """w / d**2; past the double range of d^2 from over_square, saturating."""
    try:
        return w / d**2
    except OverflowError:
        return saturating_ldexp(*over_square(w, d))


def range_exponent(largest: float, headroom: int, count: int) -> int:
    """The least e >= 0 that keeps a sum of count terms below largest 2^(headroom - e) finite."""
    return max(0, math.frexp(largest)[1] + headroom + count.bit_length() - sys.float_info.max_exp)


def saturating_ldexp(m: float, k: int) -> float:
    """m 2^k, +-inf past the double range as a float product saturates."""
    try:
        return math.ldexp(m, k)
    except OverflowError:
        return math.copysign(math.inf, m)


class AtomicMeasure(Record):
    """Finite positive measure given by (point, mass) atoms.

    Invariants: points are finite, nonnegative and strictly increasing; masses
    are finite and strictly positive.

    moments and log_moments read every n < count in one pass, bit for bit
    equal to moment(n) and log_moment(n).
    """

    __slots__ = ("atoms",)

    def __init__(self, atoms: tuple[tuple[float, float], ...] = ()):
        last = -math.inf
        for i, (point, mass) in enumerate(atoms):
            if not math.isfinite(point) or point < 0.0:
                raise ValueError(
                    f"atom {i}: point must be a finite nonnegative real, got {point!r}"
                )
            if not math.isfinite(mass) or mass <= 0.0:
                raise ValueError(f"atom {i}: mass must be a finite positive real, got {mass!r}")
            if point <= last:
                raise ValueError(
                    f"atom {i}: points must be strictly increasing, got {point!r} after {last!r}"
                )
            last = point
        _set(self, "atoms", atoms)

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_atoms(cls, pairs: Iterable[tuple[float, float]]) -> "AtomicMeasure":
        """Build a measure from unordered pairs, summing the masses at equal points."""
        merged: list[list[float]] = []
        for point, mass in sorted((float(p), float(m)) for p, m in pairs):
            if merged and point == merged[-1][0]:
                merged[-1][1] += mass
            else:
                merged.append([point, mass])
        return cls(tuple((p, m) for p, m in merged))

    @classmethod
    def from_json(cls, obj) -> "AtomicMeasure":
        """Parse {"atoms": [[point, mass], ...]}; rejects invariant violations."""
        if not isinstance(obj, dict) or "atoms" not in obj:
            raise ValueError('measure JSON must be an object with an "atoms" key')
        raw = obj["atoms"]
        if not isinstance(raw, list):
            raise ValueError('"atoms" must be a list of [point, mass] pairs')
        pairs = []
        for i, entry in enumerate(raw):
            if not isinstance(entry, (list, tuple)) or len(entry) != 2:
                raise ValueError(f"atom {i}: expected a [point, mass] pair, got {entry!r}")
            pairs.append((float(entry[0]), float(entry[1])))
        return cls(tuple(pairs))

    def to_json(self) -> dict:
        return {"atoms": [[p, m] for p, m in self.atoms]}

    # -- basic queries ------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.atoms

    def total_mass(self) -> float:
        """Sum of the masses; saturates to +inf past the double range, as moment does."""
        try:
            return math.fsum(m for _, m in self.atoms)
        except OverflowError:
            return math.inf

    def support_min(self) -> float:
        """inf of the support; +inf for the zero measure."""
        return self.atoms[0][0] if self.atoms else math.inf

    def support_max(self) -> float:
        """sup of the support; -inf for the zero measure."""
        return self.atoms[-1][0] if self.atoms else -math.inf

    def mass_at(self, point: float) -> float:
        for p, m in self.atoms:
            if p == point:
                return m
        return 0.0

    # -- integrals ----------------------------------------------------------

    def moment(self, n: int) -> float:
        """n-th power moment, with the convention 0**0 = 1.

        Saturates to +inf past the double range; log_moment stays exact there.
        """
        if n < 0:
            raise ValueError("moment order must be nonnegative")
        if n == 0:
            return self.total_mass()
        try:
            return math.fsum(m * p**n for p, m in self.atoms)
        except OverflowError:
            return math.inf

    def log_moment(self, n: int) -> float:
        """log of the n-th moment, n log(top) + log sum m (p/top)^n, safe beyond overflow."""
        if n == 0:
            return math.log(self.total_mass()) if self.atoms else -math.inf
        top = self.support_max()
        if not top > 0.0:
            return -math.inf
        return n * math.log(top) + math.log(math.fsum(m * (p / top) ** n for p, m in self.atoms))

    def moments(self, count: int) -> list[float]:
        """moment(n) for every n < count: one column of m p^n per atom, one fsum per index."""
        try:
            columns = [[m * p**n for n in range(count)] for p, m in self.atoms]
            return [math.fsum(row) for row in zip(*columns)] if columns else [0.0] * count
        except OverflowError:  # a power or a sum past the double range
            return [self.moment(n) for n in range(count)]

    def _scaled_sums(self, top: float, count: int) -> list[float]:
        """S_n = moment(n) / top^n = fsum m (p/top)^n for every n < count, top > 0 the top point."""
        ratios = [(p / top, m) for p, m in self.atoms]
        columns = [[m * r**n for n in range(count)] for r, m in ratios]
        return [math.fsum(row) for row in zip(*columns)]

    def log_moments(self, count: int) -> list[float]:
        """log_moment(n) for every n < count: n log(top) + log S_n."""
        top = self.support_max()
        if not top > 0.0:
            return [self.log_moment(n) for n in range(count)]
        log_top = math.log(top)
        return [n * log_top + math.log(s) for n, s in enumerate(self._scaled_sums(top, count))]

    def weights(self, count: int) -> list[float]:
        """sqrt(moment(n+1) / moment(n)) for every n < count: the weights of the shift
        whose Berger measure this is, sqrt(top (S_{n+1} / S_n)) from the sums of log_moments."""
        top = self.support_max()
        if not top > 0.0:  # every moment past the 0-th is 0: 0 / (mass at the origin), then 0/0
            return [0.0 if n == 0 and self.atoms else math.nan for n in range(count)]
        sums = self._scaled_sums(top, count + 1)
        return [math.sqrt(top * (b / a)) for a, b in zip(sums, sums[1:])]

    def integrate_q(self, n: int) -> float:
        """Integral of the kernel polynomial q_poly(n, .) against the measure."""
        return math.fsum(m * q_poly(n, p) for p, m in self.atoms)

    def resolvent_integrals(self) -> ResolventIntegrals:
        """First and second resolvent sums at the point 1 (sentinels at an atom on 1)."""
        if any(p == 1.0 for p, _ in self.atoms):
            return ResolventIntegrals(math.nan, math.inf)
        try:
            i1 = math.fsum(m / (p - 1.0) for p, m in self.atoms)
        except ValueError:  # -inf + inf
            i1 = math.nan
        i2 = math.fsum([square_ratio(m, p - 1.0) for p, m in self.atoms])
        return ResolventIntegrals(i1, i2)

    # -- transforms ---------------------------------------------------------

    def pushforward_sqrt(self) -> "AtomicMeasure":
        """Image measure under x -> sqrt(x)."""
        return AtomicMeasure.from_atoms((math.sqrt(p), m) for p, m in self.atoms)

    def pushforward_square(self) -> "AtomicMeasure":
        """Image measure under t -> t**2, merging colliding points."""
        return AtomicMeasure.from_atoms((p * p, m) for p, m in self.atoms)

    def normalize(self) -> "AtomicMeasure":
        """Scale to a probability measure; the zero measure cannot be normalized."""
        if not self.atoms:
            raise ValueError("cannot normalize zero measure")
        masses = [m for _, m in self.atoms]
        scale = 2.0 ** -range_exponent(max(masses), 0, len(masses))  # keeps the total finite
        total = math.fsum([m * scale for m in masses])
        return AtomicMeasure(tuple([(p, m * scale / total) for p, m in self.atoms]))

    def approx_equal(self, other: "AtomicMeasure", rtol: float = 1e-12) -> bool:
        if len(self.atoms) != len(other.atoms):
            return False
        for (p, m), (q, w) in zip(self.atoms, other.atoms):
            if abs(p - q) > rtol * max(1.0, abs(p)) or abs(m - w) > rtol * max(1.0, abs(m)):
                return False
        return True


def zero_measure() -> AtomicMeasure:
    return AtomicMeasure()


def point_mass(point: float, mass: float = 1.0) -> AtomicMeasure:
    return AtomicMeasure(((float(point), float(mass)),))
