"""Seeded property test: the growth class of gamma against exact values at 2^12 and 2^13.

gamma_n = 1 + b n + c n^2 + sum_x w Q_n(x), with the closed form
Q_n(x) = (x^n - 1 - n (x-1)) / (x-1)^2.  Floats are rationals, so Fraction
gives gamma_n exactly.  Atoms lie on a 1/64 grid (which keeps x^8192 to some
10^4 digits) at least 7/64 from 1, and the leading coefficient c, L or A is at
least 0.1 with the lower terms kept small, so that the leading term dominates
from 2^12 on: gamma_n at 2^13 is within 5% of K r^n n^d, with equal classes
the exact ratio at 2^13 is within 5% of limit_ratio, and with unequal classes
the ratio in the NO direction grows.
"""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from cpdshift import AtomicMeasure, ScalarTriplet, quasi_affine_test, similarity_test
from cpdshift.quasiaffine import growth_class

N1, N2 = 2**12, 2**13
GRID = 64
BELOW = (0, 57)  # grid indices of atoms below 1
ABOVE = (72, 256)  # and above 1, up to 4
FAMILIES = ("exp", "quad", "lin", "const", "sub")


def exact_gamma(t: ScalarTriplet, n: int) -> Fraction:
    total = 1 + Fraction(t.b) * n + Fraction(t.c) * n * n
    for x, w in t.nu.atoms:
        d = Fraction(x) - 1
        total += Fraction(w) * (Fraction(x) ** n - 1 - n * d) / (d * d)
    return total


def grid_points(draw, lo: int, hi: int, max_size: int) -> list[float]:
    ks = draw(st.lists(st.integers(lo, hi), max_size=max_size, unique=True))
    return [k / GRID for k in ks]


@st.composite
def triplets(draw, family: str, top: int):
    """A triplet whose class is led by family, with top grid index `top` for exp and sub."""
    if family == "exp":  # theta = top / 64 > 1
        pts = grid_points(draw, 0, top - 1, 2) + [top / GRID]
        pts = [x for x in pts if abs(x - 1.0) >= 7 / GRID]
        pairs = [(x, draw(st.floats(0.01, 2.0))) for x in pts]
        c = draw(st.just(0.0) | st.floats(0.1, 2.0))
        return ScalarTriplet(draw(st.floats(0.0, 2.0)), c, AtomicMeasure.from_atoms(pairs))
    if family == "sub":  # gamma_n = sum s x^n: b = i1 and A = 0, all exact in binary
        low = grid_points(draw, BELOW[0], top - 1, 1)
        s_top = draw(st.integers(1, 7)) / 8 if low else 1.0
        shares = [(top / GRID, s_top)] + [(x, 1.0 - s_top) for x in low]
        nu = AtomicMeasure.from_atoms((x, s * (x - 1.0) ** 2) for x, s in shares)
        return ScalarTriplet(nu.resolvent_integrals().i1, 0.0, nu)
    pairs = [(x, draw(st.floats(0.01, 0.1))) for x in grid_points(draw, *BELOW, 2)]
    nu = AtomicMeasure.from_atoms(pairs)
    if family == "const":  # L = 0 and A = 1 - i2 >= 0.1
        scale = min(1.0, 0.9 / nu.resolvent_integrals().i2) if pairs else 1.0
        nu = AtomicMeasure.from_atoms((x, w * scale) for x, w in pairs)
        return ScalarTriplet(nu.resolvent_integrals().i1, 0.0, nu)
    c = draw(st.floats(0.1, 2.0)) if family == "quad" else 0.0
    return ScalarTriplet(draw(st.floats(0.25, 2.0)), c, nu)  # L >= b >= 0.25


def top_index(draw, family: str) -> int:
    return draw(st.integers(*ABOVE) if family == "exp" else st.integers(8, BELOW[1]))


@st.composite
def pairs(draw):
    """Two triplets; half of them of one family, sharing the top atom."""
    fam_lam = draw(st.sampled_from(FAMILIES))
    top_lam = top_index(draw, fam_lam)
    if draw(st.booleans()):
        fam_om, top_om = fam_lam, top_lam
    else:
        fam_om = draw(st.sampled_from(FAMILIES))
        top_om = top_index(draw, fam_om)
    return draw(triplets(fam_lam, top_lam)), draw(triplets(fam_om, top_om))


@settings(derandomize=True, max_examples=80, deadline=None, database=None)
@given(pairs())
def test_class_predicts_exact_ratio(pair):
    lam, om = pair
    (lam_1, lam_2), (om_1, om_2) = [(exact_gamma(t, N1), exact_gamma(t, N2)) for t in pair]
    for t, g in ((lam, lam_2), (om, om_2)):  # gamma_n ~ K r^n n^d
        r, d, k = growth_class(t)
        assert abs(g / (Fraction(k) * Fraction(r) ** N2 * N2**d) - 1) <= Fraction(1, 20)
    class_lam, class_om = growth_class(lam)[:2], growth_class(om)[:2]
    forward = quasi_affine_test(lam, om)
    assert forward.is_yes == (class_om <= class_lam)
    assert similarity_test(lam, om).is_yes == (class_om == class_lam)
    if class_om == class_lam:
        ratio = om_2 / lam_2
        assert abs(ratio / Fraction(forward.witness["limit_ratio"]) - 1) <= Fraction(1, 20)
    elif class_om > class_lam:  # om / lam grows
        assert om_2 * lam_1 > om_1 * lam_2
    else:
        assert lam_2 * om_1 > lam_1 * om_2
