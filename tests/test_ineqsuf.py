"""Seeded differential test: the closed-form inequality families against a grid search.

The reference is the 64-point search that `criterion_ineqsuf` used before
the feasible sets were solved exactly: family (ii) tried t = t0 (k + 1/2) / 64,
family (iii) tried 64 values of tau in (2/3, 1) and, for each, 64 values of
t in (4/3, 2 tau).  Every family the grid finds must be found by the closed
form, and every reported parameter must satisfy the literal predicate inside
its window.  The pinned triplets below have feasible sets that fall between
grid points, so only the closed form finds them.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cpdshift import AtomicMeasure, ScalarTriplet, criterion_ineqsuf, example_t0, generate_3uwre
from cpdshift.similarity import _family_ii, _family_iii

GRID = 64


def grid_families(t: ScalarTriplet) -> set[str]:
    """The families (ii) and (iii) that the 64-point grid search finds."""
    total, inf_supp, theta = t.nu.total_mass(), t.nu.support_min(), t.nu.support_max()
    t0 = example_t0()
    found = set()
    if any(_family_ii(t, total, inf_supp, t0 * (k + 0.5) / GRID) for k in range(GRID)):
        found.add("ii")
    for j in range(GRID):
        tau = 2.0 / 3.0 + (1.0 / 3.0) * (j + 0.5) / GRID
        ts = [4.0 / 3.0 + (2.0 * tau - 4.0 / 3.0) * (k + 0.5) / GRID for k in range(GRID)]
        if 2.0 * tau > 4.0 / 3.0 and any(
            _family_iii(t, total, inf_supp, theta, tp, tau) for tp in ts
        ):
            found.add("iii")
            break
    return found


def assert_witnesses_hold(t: ScalarTriplet, families: dict) -> None:
    total, inf_supp, theta = t.nu.total_mass(), t.nu.support_min(), t.nu.support_max()
    if "ii" in families:
        tp = families["ii"]["t"]
        assert 0.0 < tp < example_t0()
        assert _family_ii(t, total, inf_supp, tp)
    if "iii" in families:
        tp, tau = families["iii"]["t"], families["iii"]["tau"]
        assert 4.0 / 3.0 < tp < 2.0 * tau and 2.0 / 3.0 < tau < 1.0
        assert _family_iii(t, total, inf_supp, theta, tp, tau)


@st.composite
def triplets(draw):
    """b in [0, 2], c = 0 or in [0, 1], and 1-3 atoms in [1.5, 6] with masses in [0.05, 3]."""
    points = draw(st.lists(st.floats(1.5, 6.0), min_size=1, max_size=3, unique=True))
    nu = AtomicMeasure.from_atoms((x, draw(st.floats(0.05, 3.0))) for x in points)
    c = draw(st.just(0.0) | st.floats(0.0, 1.0))
    return ScalarTriplet(draw(st.floats(0.0, 2.0)), c, nu)


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(triplets())
def test_closed_form_covers_the_grid(t):
    families = criterion_ineqsuf(t).witness["families"]
    assert grid_families(t) <= set(families)
    assert_witnesses_hold(t, families)


@pytest.mark.parametrize(
    "t,family",
    [
        # t in [0.2472, 0.25], between the grid points 0.2450 and 0.2510
        (ScalarTriplet(0.0, 0.5, AtomicMeasure(((2.25, 1.8),))), "ii"),
        # tau in (1 - 1/3.3, 0.7], between the grid points 0.6953 and 0.7005
        (ScalarTriplet(0.7, 0.0, AtomicMeasure(((3.3, 1.5),))), "iii"),
        # the one-point set t = 0.3
        (generate_3uwre(2, b=0.0, c=0.0, t=0.3).triplet, "ii"),
    ],
)
def test_grid_misses_are_found(t, family):
    assert family not in grid_families(t)
    v = criterion_ineqsuf(t)
    assert v.is_yes and family in v.witness["families"]
    assert_witnesses_hold(t, v.witness["families"])


@pytest.mark.parametrize(
    "example",
    [
        generate_3uwre(1, b=1.0, c=0.0),
        generate_3uwre(1, b=0.5, c=1.5),
        generate_3uwre(2, b=0.0, c=0.0, t=0.3),
        generate_3uwre(2, b=0.5, c=0.2),
        generate_3uwre(2, b=0.2, c=0.1, t=0.2),
        generate_3uwre(3, tau=0.8, t=1.4, theta=4.0, alpha=2.2),
        generate_3uwre(3),
        generate_3uwre(3, with_positive_c=True),
    ],
)
def test_generated_examples_found_unpinned(example):
    v = criterion_ineqsuf(example.triplet)
    assert v.is_yes and example.family in v.witness["families"]
    assert_witnesses_hold(example.triplet, v.witness["families"])
