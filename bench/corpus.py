"""Seeded inputs for the benchmark workloads.

Every case is spec JSON text (what a `--batch` file line holds) plus the label
its construction implies.  Nothing here calls the library: validity and labels
follow from how each triplet is built, so a change to the library can never
change the inputs.  The same seed gives byte-identical spec text.

Draws that decide how expensive or how fragile a spec is (how many atoms,
whether an atom sits next to 1 and on which side, whether anything else lies
above 1, where the largest point lies, whether c is zero) are stratified:
each seed gets the same number of specs in every such cell, and the
quantiles of the draws that set the cost inside it (distance to 1, largest
point, masses, c, b) are spread evenly.  The distribution is unchanged;
only the seed-to-seed variation of the counts that dominate the timings
(beta-scan hangs, the near-1 beta error, the q_poly_log domain error) and of
the latency quantiles is taken out.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass

# log-uniform point range of the fuzz distribution, and the share of it below 1
FUZZ_POINT_LO, FUZZ_POINT_HI = 1e-3, 20.0
P_BELOW_ONE = math.log(1.0 / FUZZ_POINT_LO) / math.log(FUZZ_POINT_HI / FUZZ_POINT_LO)
NEAR_ONE_LO, NEAR_ONE_HI = 1e-9, 1e-2
# side of the extra atom next to 1 (30% of the fuzz specs get one)
NEAR_ONE_MIX = {"none": 0.70, "below": 0.15, "above": 0.15}
MASS_LO, MASS_HI = 1e-6, 1e2


@dataclass(frozen=True)
class Case:
    """One unit of work: one spec (or two for a pair) and its construction label.

    label keys: "type" ("I"/"II"/"III") and "subnormal" (bool) for triage;
    "similar" (bool) for similar_fuzz and compare_pairs.  A missing key means
    the construction implies nothing about that verdict.
    """

    texts: tuple[str, ...]
    label: dict
    family: str


def spec_text(b: float, c: float, atoms) -> str:
    return json.dumps({"b": b, "c": c, "nu": {"atoms": [[p, m] for p, m in atoms]}})


def _log_scale(u: float, lo: float, hi: float) -> float:
    """The point at quantile u of the log-uniform distribution on [lo, hi]."""
    return math.exp(math.log(lo) + u * math.log(hi / lo))


def _strata(rng: random.Random, count: int, centered: bool = False) -> list[float]:
    """count points in [0, 1), one per equal-width stratum (at its middle when
    centered), in random order."""
    pts = [(k + (0.5 if centered else rng.random())) / count for k in range(count)]
    rng.shuffle(pts)
    return pts


def _allocate(total: int, weights: dict) -> dict:
    """Largest-remainder split of total over the keys in proportion to weights."""
    norm = sum(weights.values())
    exact = {k: total * w / norm for k, w in weights.items()}
    out = {k: int(math.floor(v)) for k, v in exact.items()}
    rest = total - sum(out.values())
    for k in sorted(exact, key=lambda k: (out[k] - exact[k], str(k)))[:rest]:
        out[k] += 1
    return out


def _first_resolvent(atoms) -> float:
    return math.fsum(m / (p - 1.0) for p, m in atoms)


def _second_resolvent(atoms) -> float:
    return math.fsum(m / (p - 1.0) ** 2 for p, m in atoms)


# -- triage ------------------------------------------------------------------


def _conftest_atoms(rng: random.Random, lo=0.05, hi=5.0, mass=(0.1, 2.0), n_max=3):
    """1..n_max distinct points in [lo, hi] at least 0.1 from 1, rounded to 1e-6."""
    n_atoms = rng.randint(1, n_max)
    pts: set[float] = set()
    while len(pts) < n_atoms:
        x = rng.uniform(lo, hi)
        if abs(x - 1.0) >= 0.1:
            pts.add(round(x, 6))
    return [(p, rng.uniform(*mass)) for p in sorted(pts)]


def _random_type_iii(rng: random.Random, atoms=None):
    """(b, c, atoms) drawn like the test suite's random type-III triplets."""
    atoms = atoms if atoms is not None else _conftest_atoms(rng)
    c = 0.0 if rng.random() < 0.5 else rng.uniform(0.0, 1.0)
    b = _draw_b(rng, c, atoms)
    return b, c, atoms


def _draw_b(rng: random.Random, c: float, atoms, u: float | None = None) -> float:
    """b uniform in [0, 2] (2u when the caller stratifies u); one time in five,
    when the admissible-b table allows it, halfway into the negative range
    instead.

    With c = 0, supp nu in [0, 1) and second resolvent sum i2 < 1, every
    b >= i1 (first resolvent sum, negative) is admissible; |i1| <= i2 < 1
    keeps gamma_1 = 1 + b positive.
    """
    b = rng.uniform(0.0, 2.0) if u is None else 2.0 * u
    if (
        rng.random() < 0.2
        and c == 0.0
        and atoms[-1][0] < 1.0
        and _second_resolvent(atoms) < 1.0
    ):
        b = 0.5 * _first_resolvent(atoms)
    return b


def _forced_subnormal(rng: random.Random):
    """c = 0, second resolvent sum in [0.5, 0.95], b equal to the first resolvent sum."""
    raw = _conftest_atoms(rng, hi=1.6, mass=(0.3, 1.0), n_max=2)
    scale = rng.uniform(0.5, 0.95) / _second_resolvent(raw)
    atoms = [(p, m * scale) for p, m in raw]
    return _first_resolvent(atoms), 0.0, atoms


def _wab_member(rng: random.Random, kind: str):
    """Generating triplet (a-1, 0, theta at 0) of W(a, w), theta = 1 - 2a + a w.

    Type I needs theta == 0 exactly: a = 2^k, w = 2 - 2^-k is exact in binary.
    W(a, w) is subnormal exactly when a <= 1 and w == 1.
    """
    if kind == "I":
        k = rng.randint(0, 4)
        a = 2.0**k
        w = 2.0 - 2.0**-k
        return (a - 1.0, 0.0, []), a <= 1.0 and w == 1.0
    a = rng.uniform(0.1, 3.0)
    if a < 1.0 and rng.random() < 0.3:
        w = 1.0
    else:
        w = rng.uniform(max(1.0, 2.0 - 1.0 / a) + 1e-3, 4.0)
    # the slope b + theta = a (w - 1) must not round below 0 when w == 1
    theta = (1.0 - a) + a * (w - 1.0)
    return (a - 1.0, 0.0, [(0.0, theta)]), a <= 1.0 and w == 1.0


TRIAGE_MIX = {"random": 0.40, "forced": 0.15, "perturbed": 0.15, "wab": 0.15, "near_one": 0.15}


def triage_cases(seed: int, count: int = 1000) -> list[Case]:
    rng = random.Random(f"triage-{seed}")
    sizes = _allocate(count, TRIAGE_MIX)
    cases: list[Case] = []
    for _ in range(sizes["random"]):
        b, c, atoms = _random_type_iii(rng)
        label = {"type": "III"}
        if c > 0.0:
            label["subnormal"] = False
        cases.append(Case((spec_text(b, c, atoms),), label, "random"))
    for _ in range(sizes["forced"]):
        b, c, atoms = _forced_subnormal(rng)
        cases.append(Case((spec_text(b, c, atoms),), {"type": "III", "subnormal": True}, "forced"))
    for _ in range(sizes["perturbed"]):
        b, c, atoms = _forced_subnormal(rng)
        # b + 0.1 always validates (gamma grows with b); b - 0.1 only while b >= 0.1
        shift = 0.1 if (b < 0.1 or rng.random() < 0.5) else -0.1
        cases.append(
            Case((spec_text(b + shift, c, atoms),), {"type": "III", "subnormal": False}, "perturbed")
        )
    n_type_i = sizes["wab"] // 4
    for i in range(sizes["wab"]):
        kind = "I" if i < n_type_i else "II"
        (b, c, atoms), sub = _wab_member(rng, kind)
        cases.append(Case((spec_text(b, c, atoms),), {"type": kind, "subnormal": sub}, "wab"))
    near_one = _strata(rng, sizes["near_one"], centered=True)
    for u, side in zip(near_one, _alternating(sizes["near_one"])):
        d = math.exp(math.log(1e-4) + u * math.log(10.0))
        base = [(p, m) for p, m in _conftest_atoms(rng, n_max=2)]
        atoms = sorted(base + [(1.0 + side * d, rng.uniform(0.1, 2.0))])
        b, c, atoms = _random_type_iii(rng, atoms)
        label = {"type": "III"}
        if c > 0.0:
            label["subnormal"] = False
        cases.append(Case((spec_text(b, c, atoms),), label, "near_one"))
    rng.shuffle(cases)
    return cases


def _alternating(count: int) -> list[float]:
    return [1.0 if k % 2 == 0 else -1.0 for k in range(count)]


# -- the fuzz distribution -----------------------------------------------------


def _fuzz_cells() -> dict:
    """Cell probabilities: base atom count x near-1 atom side x base support above 1."""
    cells = {}
    for k in (1, 2, 3):
        below = P_BELOW_ONE**k
        for near, p_near in NEAR_ONE_MIX.items():
            for top, p_top in (("below", below), ("above", 1.0 - below)):
                cells[(k, near, top)] = p_near * p_top / 3.0
    return cells


def _base_points(rng: random.Random, k: int, top: str, v: float) -> list[float]:
    """k points log-uniform in [1e-3, 20], conditioned on whether any exceeds 1.

    In log units u in [0, 1) the largest of k uniform draws has CDF u^k; v
    picks its quantile within the condition (so the caller can stratify it)
    and the other k - 1 points are uniform below it.
    """
    q = P_BELOW_ONE
    if top == "below":
        u_max = q * v ** (1.0 / k)
    else:
        u_max = (q**k + v * (1.0 - q**k)) ** (1.0 / k)
    while True:
        us = [u_max] + [rng.uniform(0.0, u_max) for _ in range(k - 1)]
        pts = {FUZZ_POINT_LO * (FUZZ_POINT_HI / FUZZ_POINT_LO) ** u for u in us}
        if len(pts) == k:
            return sorted(pts)


def fuzz_slots(count: int, above_one=None, near=None) -> list[tuple]:
    """The cells of count fuzz triplets, in proportion to their probabilities.

    above_one=True/False conditions on the top atom lying above 1 or not,
    near="none"/"below"/"above" on the side of the atom next to 1 (whole
    cells are kept, so the sample stays stratified).
    """
    cells = {
        cell: p
        for cell, p in _fuzz_cells().items()
        if (above_one is None or above_one == ("above" in cell[1:]))
        and (near is None or near == cell[1])
    }
    return [cell for cell, n in sorted(_allocate(count, cells).items()) for _ in range(n)]


def near_one_grid(slots) -> dict:
    """Distance-to-1 quantiles for the atoms next to 1, ascending: the middles
    of equal strata of each (side, support above 1) group of slots.

    The counts that decide hangs and kernel errors (each a window of
    distances) are then the same on every seed.  Several fuzz_triplets draws
    can share one grid; each takes an evenly spread part of what is left.
    """
    grid = {}
    for group in sorted({cell[1:] for cell in slots if cell[1] != "none"}):
        n = sum(cell[1:] == group for cell in slots)
        grid[group] = [(k + 0.5) / n for k in range(n)]
    return grid


def _take_spread(values: list, m: int) -> list:
    """Remove and return m of values, at evenly spread positions."""
    picks = [int((j + 0.5) * len(values) / m) for j in range(m)]
    taken = [values[i] for i in picks]
    for i in reversed(picks):
        del values[i]
    return taken


def fuzz_triplets(
    rng: random.Random, count: int, above_one=None, near=None, grid=None
) -> list[tuple]:
    """count (b, c, atoms) triplets from the fuzz distribution, stratified.

    Points log-uniform in [1e-3, 20] (one to three), 30% of triplets with an
    extra atom 1e-9 to 1e-2 from 1 (either side), masses log-uniform in
    [1e-6, 1e2], c = 0 or log-uniform in [1e-6, 1e2] with equal odds, b as in
    _draw_b.  above_one and near condition the draw as in fuzz_slots; grid
    (from near_one_grid, consumed) shares the distances to 1 with other draws.
    """
    slots = fuzz_slots(count, above_one, near)
    grid = near_one_grid(slots) if grid is None else grid
    dists = {}
    for group in sorted({cell[1:] for cell in slots if cell[1] != "none"}):
        dists[group] = _take_spread(grid[group], sum(cell[1:] == group for cell in slots))
        rng.shuffle(dists[group])
    tops = {cell: _strata(rng, slots.count(cell)) for cell in sorted(set(slots))}
    # masses (by rank of the point), c and b are stratified inside each cell
    # too: they set how long the beta scan and the log_gamma prefixes run
    czeros, cvals, masses, bs = {}, {}, {}, {}
    for cell in sorted(set(slots)):
        n = slots.count(cell)
        n_czero = (n + rng.randint(0, 1)) // 2
        czeros[cell] = [j < n_czero for j in range(n)]
        rng.shuffle(czeros[cell])
        cvals[cell] = _strata(rng, n - n_czero)
        masses[cell] = [_strata(rng, n) for _ in range(cell[0] + (cell[1] != "none"))]
        bs[cell] = _strata(rng, n)
    out = []
    for cell in slots:
        k, near, top = cell
        pts = _base_points(rng, k, top, tops[cell].pop())
        if near != "none":
            u = dists[(near, top)].pop()
            d = math.exp(math.log(NEAR_ONE_LO) + u * math.log(NEAR_ONE_HI / NEAR_ONE_LO))
            x = 1.0 + d if near == "above" else 1.0 - d
            if x not in pts:
                pts = sorted(pts + [x])
        atoms = [
            (p, _log_scale(us.pop(), MASS_LO, MASS_HI)) for p, us in zip(pts, masses[cell])
        ]
        c = 0.0 if czeros[cell].pop() else _log_scale(cvals[cell].pop(), MASS_LO, MASS_HI)
        out.append((_draw_b(rng, c, atoms, bs[cell].pop()), c, atoms))
    rng.shuffle(out)
    return out


def _similar_label(c: float, atoms) -> dict:
    """Similar when the top atom exceeds 1; not similar when supp nu is in [0, 1] and c > 0."""
    top = atoms[-1][0] if atoms else -math.inf
    if top > 1.0:
        return {"similar": True}
    if c > 0.0:
        return {"similar": False}
    return {}


# Adversarial specs that stay in similar_fuzz on every seed (ROADMAP aim 1).
PINNED_FUZZ = (
    # the first difference of gamma turns nonnegative only after ~240k steps,
    # so validation scans 240k steps; the top atom 1e-5 above 1 sends the
    # beta scan to n ~ 2e5 on the O(n) Horner kernel
    ("late_slope", -1e-6, 0.0, [(1.00001, 1e-12)]),
    # top atom 3e-7 above 1: the beta scan has to reach n ~ 6.7e6
    ("theta_1p3e-7", 0.5, 0.0, [(0.5, 1.0), (1.0 + 3e-7, 1.0)]),
    # atoms 1.4e-4 below and 1.9e-4 above 1: the closed-form kernel loses
    # ~eps/d^2 and the two beta routes disagree (ArithmeticError)
    ("atom_1m1.4e-4", 0.5, 0.0, [(0.5, 1.0), (1.0 - 1.4e-4, 1.0)]),
    ("atom_1p1.9e-4", 0.5, 0.0, [(0.5, 1.0), (1.0 + 1.9e-4, 1.0)]),
    # large atoms near 20 with mass 1e2: gamma leaves the double range by
    # n ~ 230, so weights, betas and the model run in the log domain
    ("large_atoms", 0.5, 1.0, [(19.0, 1e2), (20.0, 1e2)]),
    ("large_atoms_c", 0.0, 1e2, [(0.5, 1e2), (20.0, 1e2)]),
)


def similar_fuzz_cases(seed: int, count: int = 150) -> list[Case]:
    """The pinned specs first (so a traced prefix of the list holds them), then
    count seeded fuzz draws."""
    rng = random.Random(f"similar_fuzz-{seed}")
    pinned = [
        Case((spec_text(b, c, atoms),), _similar_label(c, atoms), f"pinned:{name}")
        for name, b, c, atoms in PINNED_FUZZ
    ]
    return pinned + [
        Case((spec_text(b, c, atoms),), _similar_label(c, atoms), "fuzz")
        for b, c, atoms in fuzz_triplets(rng, count)
    ]


# -- compare_pairs -------------------------------------------------------------

PAIR_MIX = {"scaled": 0.25, "extra_atom": 0.25, "b_shift": 0.25, "independent": 0.25}


# compare_report(n_max=512) reads the trailing half window [256, 512] of the
# log moment ratio; a pair is labelled only when its construction settles the
# ratio there (the test is a finite-window heuristic before that)
WINDOW_START = 256
DOMINANCE = 100.0


def _logsumexp(values) -> float:
    top = max(values)
    return top + math.log(math.fsum(math.exp(v - top) for v in values))


def _log_gamma_bound(b: float, c: float, atoms, n: int) -> float:
    """log of an upper bound on |gamma_n|: q(n, x) <= n^2/2 max(1, x)^n."""
    terms = [math.log(1.0 + abs(b) * n + c * n * n)]
    terms += [math.log(m * n * n / 2.0) + n * math.log(max(1.0, p)) for p, m in atoms]
    return _logsumexp(terms)


def _dominates(atom, b: float, c: float, rest, n: int = WINDOW_START) -> bool:
    """Does the atom's gamma term exceed DOMINANCE x everything else from n on?

    For x > 1, q(n, x) >= x^(n-2) (its last summand) and the ratio of that to
    the bound on the rest only grows with n past this point.
    """
    p, m = atom
    return math.log(m) + (n - 2) * math.log(p) >= math.log(DOMINANCE) + _log_gamma_bound(
        b, c, rest, n
    )


def compare_pairs_cases(seed: int, count: int = 80) -> list[Case]:
    """Pairs of fuzz triplets, a quarter of each family.

    scaled: masses times k in [0.5, 2] with top atom above 1, so the moment
    ratio tends to k: similar.  extra_atom: an atom at least 0.5 above a top
    atom above 1, so the ratio grows geometrically: not similar.  Both labels
    are set only when the top (or extra) atom dominates gamma from the start
    of the evidence window on.  b_shift (b +- 0.1, kept admissible) and
    independent draws are unlabelled.
    """
    rng = random.Random(f"compare_pairs-{seed}")
    sizes = _allocate(count, PAIR_MIX)
    # independent pairs: the (first, second) sides of the atom next to 1 are
    # allocated over their product distribution, so the pair-type counts are
    # fixed (a triplet with an atom just below 1 costs about 3x the others)
    sides = {(x, y): px * py for x, px in NEAR_ONE_MIX.items() for y, py in NEAR_ONE_MIX.items()}
    pair_sides = sorted(_allocate(sizes["independent"], sides).items())
    # one stratified draw per family and pair side, all from one grid of
    # distances to 1, so each family's error and cost counts are fixed
    draws = [(sizes["scaled"], True), (sizes["extra_atom"], True), (sizes["b_shift"], None)]
    draws += [(m, None, side) for (x, y), m in pair_sides for side in (x, y)]
    grid = near_one_grid([cell for draw in draws for cell in fuzz_slots(*draw)])
    cases: list[Case] = []
    scales = _strata(rng, sizes["scaled"])
    for b, c, atoms in fuzz_triplets(rng, sizes["scaled"], above_one=True, grid=grid):
        k = 0.5 + 1.5 * scales.pop()
        scaled = [(p, m * k) for p, m in atoms]
        settled = all(_dominates(t[-1], b, c, t[:-1]) for t in (atoms, scaled))
        label = {"similar": True} if settled else {}
        cases.append(Case((spec_text(b, c, atoms), spec_text(b, c, scaled)), label, "scaled"))
    gaps, extra_masses = _strata(rng, sizes["extra_atom"]), _strata(rng, sizes["extra_atom"])
    for b, c, atoms in fuzz_triplets(rng, sizes["extra_atom"], above_one=True, grid=grid):
        extra = (
            atoms[-1][0] + 0.5 + 5.0 * gaps.pop(),
            _log_scale(extra_masses.pop(), MASS_LO, MASS_HI),
        )
        label = {"similar": False} if _dominates(extra, b, c, atoms) else {}
        pair = (spec_text(b, c, atoms), spec_text(b, c, atoms + [extra]))
        cases.append(Case(pair if rng.random() < 0.5 else pair[::-1], label, "extra_atom"))
    for b, c, atoms in fuzz_triplets(rng, sizes["b_shift"], grid=grid):
        # b + 0.1 always validates (gamma grows with b); b - 0.1 only while b >= 0.1
        shift = 0.1 if (b < 0.1 or rng.random() < 0.5) else -0.1
        cases.append(
            Case((spec_text(b, c, atoms), spec_text(b + shift, c, atoms)), {}, "b_shift")
        )
    for (x, y), m in pair_sides:
        firsts = fuzz_triplets(rng, m, near=x, grid=grid)
        for first, second in zip(firsts, fuzz_triplets(rng, m, near=y, grid=grid)):
            cases.append(Case((spec_text(*first), spec_text(*second)), {}, "independent"))
    rng.shuffle(cases)
    return cases


WORKLOADS = {
    "triage": triage_cases,
    "similar_fuzz": similar_fuzz_cases,
    "compare_pairs": compare_pairs_cases,
}
