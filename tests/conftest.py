import numpy as np
import pytest
from hypothesis import strategies as st

from cpdshift import (
    AtomicMeasure,
    ScalarTriplet,
    validate_triplet,
    wab_classify,
)
from cpdshift.verdict import Record

WAB_GRID_A = (0.25, 0.5, 1.0, 2.0)
WAB_GRID_B = (1.0, 1.5, 2.0, 3.0)


def random_type_iii_triplet(rng) -> ScalarTriplet:
    """Validated triplet with at least one atom off the origin (type III)."""
    n_atoms = int(rng.integers(1, 4))
    pts: set[float] = set()
    while len(pts) < n_atoms:
        x = float(rng.uniform(0.05, 5.0))
        if abs(x - 1.0) < 0.1:
            continue
        pts.add(round(x, 6))
    masses = rng.uniform(0.1, 2.0, size=n_atoms)
    nu = AtomicMeasure(tuple((p, float(m)) for p, m in zip(sorted(pts), masses)))
    c = 0.0 if rng.random() < 0.5 else float(rng.uniform(0.0, 1.0))
    b = float(rng.uniform(0.0, 2.0))
    if rng.random() < 0.2 and c == 0.0 and nu.support_max() < 1.0:
        i1, _ = nu.resolvent_integrals()
        b = 0.5 * i1  # halfway into the negative range that L = b - i1 > 0 allows
        # gamma_1 = 1 + b and other early gamma_n can still be negative there; each
        # gamma_n (n >= 1) grows with b and b = 0 is admissible, so move b towards 0
        while not validate_triplet(ScalarTriplet(b, c, nu)).is_yes:
            b *= 0.5
    t = ScalarTriplet(b, c, nu)
    assert validate_triplet(t).is_yes
    return t


atoms = st.lists(
    st.tuples(
        st.floats(0.0, 20.0).filter(lambda x: x != 1.0),
        st.floats(-14.0, 2.0).map(lambda e: 10**e),
    ),
    max_size=3,
)
# an atom 1e-9..1e-2 from 1, on either side, with mass 1e-14..1
near_one = st.tuples(st.sampled_from((-1.0, 1.0)), st.floats(-9.0, -2.0), st.floats(-14.0, 0.0))


@st.composite
def triplets(draw):
    """Triplets with steep and shallow slopes, some with an atom next to 1; not all valid."""
    pairs = draw(atoms)
    near = draw(st.none() | near_one)
    if near is not None:
        side, log_d, log_w = near
        pairs.append((1.0 + side * 10**log_d, 10**log_w))
    c = draw(st.just(0.0) | st.floats(0.0, 2.0))
    # steep slopes, and slopes as shallow as -1e-9
    b = draw(st.floats(-2.0, 2.0) | st.floats(-9.0, 0.0).map(lambda e: -(10**e)))
    return ScalarTriplet(b, c, AtomicMeasure.from_atoms(pairs))


def wab_grid_triplets():
    """(triplet, a, b) for every CPD member of the acceptance grid."""
    out = []
    for a in WAB_GRID_A:
        for b in WAB_GRID_B:
            cl = wab_classify(a, b)
            if cl.cpd:
                out.append((cl.triplet, a, b))
    return out


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture(scope="session")
def corpus(rng):
    """200 validated triplets: random type III plus the two-parameter grid."""
    wab = wab_grid_triplets()
    random_part = [random_type_iii_triplet(rng) for _ in range(200 - len(wab))]
    return [(t, "random") for t in random_part] + [(t, "wab") for t, _, _ in wab]


def forced_subnormal_triplet(rng, max_point=1.6) -> ScalarTriplet:
    """Triplet built to satisfy the resolvent criterion exactly."""
    n_atoms = int(rng.integers(1, 3))
    pts: set[float] = set()
    while len(pts) < n_atoms:
        x = float(rng.uniform(0.05, max_point))
        if abs(x - 1.0) < 0.1:
            continue
        pts.add(round(x, 6))
    masses = rng.uniform(0.3, 1.0, size=n_atoms)
    nu_raw = AtomicMeasure(tuple((p, float(m)) for p, m in zip(sorted(pts), masses)))
    _, i2_raw = nu_raw.resolvent_integrals()
    scale = float(rng.uniform(0.5, 0.95)) / i2_raw
    nu = AtomicMeasure(tuple((p, m * scale) for p, m in nu_raw.atoms))
    i1, _ = nu.resolvent_integrals()
    return ScalarTriplet(i1, 0.0, nu)


def perturbed_triplet(rng, base: ScalarTriplet) -> ScalarTriplet:
    """Offset b by +-0.1, keeping whichever direction still validates."""
    sign = -1.0 if rng.random() < 0.5 else 1.0
    for s in (sign, -sign):
        t = ScalarTriplet(base.b + s * 0.1, base.c, base.nu)
        if validate_triplet(t).is_yes:
            return t
    raise AssertionError("neither perturbation direction validates")


@pytest.fixture(scope="session")
def subnormality_corpus(rng):
    """50 forced-subnormal triplets and 50 perturbed (non-subnormal) ones."""
    forced = [forced_subnormal_triplet(rng) for _ in range(50)]
    perturbed = [perturbed_triplet(rng, t) for t in forced]
    return forced, perturbed


class DiagonalTriplet(Record):
    """Index-k entry of the diagonal operator triplet attached to the shift."""

    __slots__ = ("k", "b_k", "c_k", "nu_k")


def diagonal_triplet(t: ScalarTriplet, k: int) -> DiagonalTriplet:
    """k-th diagonal entry of the operator triplet, read from gamma_k and gamma_k+1.

    The reference that the closed-form necessary conditions are checked against.
    """
    if k < 0:
        raise ValueError("index must be nonnegative")
    s = t.sequences
    gk = s.gamma(k)
    b_k = (s.gamma(k + 1) - gk - t.c) / gk
    c_k = t.c / gk
    # the origin carries no mass for k >= 1, and masses that underflow drop out too
    masses = ((p, p**k * w / gk) for p, w in t.nu.atoms)
    atoms = tuple((p, m) for p, m in masses if m > 0.0)
    return DiagonalTriplet(k, b_k, c_k, AtomicMeasure(atoms))
