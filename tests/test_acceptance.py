"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import math

import numpy as np

from cpdshift import (
    AtomicMeasure,
    ScalarTriplet,
    ShiftSequences,
    criterion_ineqsuf,
    criterion_kdwq,
    defect_moment_measure,
    example_t0,
    generate_3uwre,
    hankel_psd_oracle,
    intertwiner_defect,
    is_subnormal,
    point_mass,
    similar_by_beta,
    similarity_test,
    wab_classify,
    zero_measure,
)
from cpdshift.cli import similar_report

from conftest import WAB_GRID_A, WAB_GRID_B


def report(number: int, description: str, ok: bool) -> None:
    print(f"ACCEPTANCE {number} {'PASS' if ok else 'FAIL'}: {description}")
    assert ok, f"criterion {number} failed: {description}"


def test_criterion_1_wab_family_table():
    ok = True
    for a in WAB_GRID_A:
        for b in WAB_GRID_B:
            cl = wab_classify(a, b)
            theta = 1 - 2 * a + a * b
            ok &= cl.cpd == (theta >= 0)
            if not cl.cpd:
                continue
            ok &= (cl.label.kind == "I") == (theta == 0)
            ok &= cl.subnormal == (a <= 1 and b == 1)
            if cl.subnormal:
                expected = (
                    ((1.0, 1.0),) if a == 1 else ((0.0, 1 - a), (1.0, a))
                )
                ok &= cl.berger.approx_equal(AtomicMeasure(expected), 1e-12)
                s = ShiftSequences(cl.triplet)
                for n in range(65):
                    ok &= abs(cl.berger.moment(n) - s.gamma(n)) <= 1e-12 * max(
                        1.0, s.gamma(n)
                    )
    report(1, "two-parameter family table (CPD/type/subnormality/Berger)", ok)


def test_criterion_2_beta_identity(corpus):
    ok = True
    for t, _ in corpus:
        s = ShiftSequences(t)
        lam_sq = [s.gamma(n + 1) / s.gamma(n) for n in range(66)]
        for n in range(65):
            closed = 2 * t.c + t.nu.moment(n)
            prod = s.gamma(n) * s.beta(n)
            ok &= abs(prod - closed) <= 1e-9 * max(1.0, abs(closed))
            from_weights = 1 - 2 * lam_sq[n] + lam_sq[n] * lam_sq[n + 1]
            ok &= abs(from_weights - s.beta(n)) <= 1e-9 * max(1.0, abs(s.beta(n)))
    report(2, "beta identity gamma_n beta_n = 2c + nu-moment, both beta routes", ok)


def test_criterion_3_defect_dichotomy(corpus):
    ok = True
    for t, source in corpus:
        s = ShiftSequences(t)
        betas = [s.beta(n) for n in range(1, 65)]
        all_positive = all(b > 0 for b in betas)
        all_zero = all(b == 0.0 for b in betas)
        ok &= all_positive or all_zero
        ok &= all_zero == (source == "wab")
    report(3, "defect dichotomy over the corpus; zero case only for the family", ok)


def test_criterion_4_subnormality_oracle_equivalence(subnormality_corpus):
    forced, perturbed = subnormality_corpus
    decisive_agree = 0
    decisive_disagree = 0
    for t in forced + perturbed:
        s = ShiftSequences(t)
        sub = is_subnormal(t)
        oracle = hankel_psd_oracle([s.gamma(n) for n in range(18)], 8, tol=1e-8)
        if oracle.is_inconclusive or sub.is_inconclusive:
            continue
        if oracle.outcome == sub.outcome:
            decisive_agree += 1
        else:
            decisive_disagree += 1
    ok = decisive_disagree == 0 and decisive_agree >= 95
    report(
        4,
        f"resolvent test vs Hankel oracle: {decisive_agree} decisive agreements, "
        f"{decisive_disagree} disagreements",
        ok,
    )


def _brute_force_beta(b, c, theta, mass, n):
    """Defect at index n for a single atom, scaled by theta^-n (no overflow)."""
    s = math.exp(-n * math.log(theta))
    d2 = (theta - 1.0) ** 2
    numerator = 2 * c * s + mass
    denominator = s * (1 + b * n + c * n * n) - mass * s * (1 + n * (theta - 1)) / d2 + mass / d2
    return numerator / denominator


def test_criterion_5_beta_floor_and_limit(rng):
    thetas = np.linspace(1.1, 4.0, 50)
    ok = True
    for theta in thetas:
        mass = float(rng.uniform(0.2, 2.0))
        b = float(rng.uniform(0.0, 1.0))
        c = 0.0 if rng.random() < 0.5 else float(rng.uniform(0.0, 0.5))
        t = ScalarTriplet(b, c, point_mass(float(theta), mass))
        v = similar_by_beta(t)
        ok &= v.is_yes and v.witness["eps"] > 0.0
        ok &= criterion_kdwq(t).is_yes
        limit = (theta - 1.0) ** 2
        beta_200 = ShiftSequences(t).beta(200)
        ok &= abs(beta_200 - limit) <= 1e-3 * limit
        oracle_1000 = _brute_force_beta(b, c, float(theta), mass, 1000)
        ok &= abs(oracle_1000 - limit) <= 1e-3 * limit
        ok &= abs(beta_200 - oracle_1000) <= 1e-3 * abs(oracle_1000)
    report(5, "certified defect floor and the (theta-1)^2 limit on 50 single atoms", ok)


def test_criterion_6_model_identity(corpus):
    ok = True
    checked = 0
    for t, source in corpus:
        if source == "wab":
            continue
        s = ShiftSequences(t)
        m0 = defect_moment_measure(t)
        for n in range(65):
            lhs = s.gamma(n) * s.beta(n)
            rhs = m0.moment(n)
            ok &= abs(lhs - rhs) <= 1e-9 * max(1.0, abs(lhs), abs(rhs))
        expected_atoms = tuple(t.nu.atoms)
        if t.c > 0:
            expected_atoms = tuple(sorted(expected_atoms + ((1.0, 2 * t.c),)))
        ok &= m0 == AtomicMeasure(expected_atoms)
        berger = m0.normalize()
        ok &= berger.pushforward_sqrt().pushforward_square().approx_equal(berger, 1e-12)
        checked += 1
    ok &= checked >= 100
    report(6, f"model moment identity and pushforward round trip on {checked} triplets", ok)


def test_criterion_7_intertwiner_and_similarity(rng):
    ok = True
    for _ in range(20):
        lam = list(rng.uniform(0.5, 2.0, 40))
        om = list(rng.uniform(0.5, 2.0, 40))
        defect, scale = intertwiner_defect(lam, om, m=32)
        ok &= defect <= 1e-12 * scale
    iso = ScalarTriplet(0.0, 0.0, zero_measure())
    for a in (0.25, 0.5, 0.75, 1.0):
        ok &= similarity_test(wab_classify(a, 1.0).triplet, iso).is_yes
    two_iso = ScalarTriplet(1.0, 0.0, zero_measure())
    ok &= similarity_test(two_iso, iso).is_no
    report(7, "exact truncated intertwiners; similarity vs the unweighted shift", ok)


def test_criterion_8_generator_round_trip():
    ok = abs(1 - 2 * example_t0() - 1.5 * example_t0() ** 2) <= 1e-14
    cases = [
        (generate_3uwre(1, b=1.0, c=0.0), "i"),
        (generate_3uwre(1, b=0.5, c=1.5), "i"),
        (generate_3uwre(2, b=0.0, c=0.0, t=0.3), "ii"),
        (generate_3uwre(2, b=0.5, c=0.2), "ii"),
        (generate_3uwre(3, tau=0.8, t=1.4, theta=4.0, alpha=2.2), "iii"),
        (generate_3uwre(3), "iii"),
        (generate_3uwre(3, with_positive_c=True), "iii"),
        (generate_3uwre(3, tau=0.8, t=1.4, theta=4.0, alpha=2.2, with_positive_c=True), "iii"),
    ]
    for example, family in cases:
        ok &= example.family == family
        v = criterion_ineqsuf(
            example.triplet,
            t_param=example.params.get("t"),
            tau=example.params.get("tau"),
        )
        ok &= v.is_yes and family in v.witness["families"]
        ok &= not similar_by_beta(example.triplet).is_no
    ok &= cases[6][0].triplet.c > 0 and cases[7][0].triplet.c > 0
    report(8, "generator round trip for all three families (incl. positive c)", ok)


def test_criterion_9_necessary_condition_negatives():
    w13 = wab_classify(1.0, 3.0).triplet
    doc13, code13 = similar_report(w13, 512)
    ok = doc13["verdict"] == "NotSimilar" and code13 == 0
    ok &= doc13["citation"] == "type-I-II-dichotomy"

    quad = ScalarTriplet(0.0, 1.0, zero_measure())
    doc_q, code_q = similar_report(quad, 512)
    ok &= doc_q["verdict"] == "NotSimilar" and code_q == 0
    ok &= doc_q["citation"].startswith("similarity-necessary-conditions")
    ok &= "i-c-zero" in doc_q["citation"]
    report(9, "negative certificates for the type-II and pure-quadratic shifts", ok)
