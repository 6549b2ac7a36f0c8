import math

import pytest

import cpdshift
from cpdshift import (
    AtomicMeasure,
    InvalidTripletError,
    ScalarTriplet,
    ShiftSequences,
    classify_type,
    diagonal_triplet,
    validate_triplet,
)


def trip(b, c, atoms=()):
    return ScalarTriplet(b, c, AtomicMeasure(tuple(atoms)))


class TestTripletParsing:
    def test_rejects_negative_c(self):
        with pytest.raises(ValueError, match="c must be"):
            trip(0.0, -0.1)

    def test_rejects_atom_at_one(self):
        with pytest.raises(ValueError, match="atom at the point 1"):
            trip(0.0, 0.0, [(1.0, 0.5)])

    def test_json_round_trip(self):
        t = trip(0.5, 0.25, [(0.5, 1.0), (2.0, 0.5)])
        assert ScalarTriplet.from_json(t.to_json()) == t

    def test_json_ignores_extra_keys(self):
        doc = {"b": 0.0, "c": 0.0, "nu": {"atoms": []}, "meta": {"x": 1}}
        assert ScalarTriplet.from_json(doc) == trip(0.0, 0.0)


class TestValidation:
    def test_unweighted_shift(self):
        v = validate_triplet(trip(0.0, 0.0))
        assert v.is_yes

    def test_nonnegative_b_always_valid(self):
        for t in (
            trip(0.0, 0.7),
            trip(2.0, 0.0, [(0.5, 3.0)]),
            trip(0.1, 0.2, [(0.3, 1.0), (4.0, 2.0)]),
        ):
            assert validate_triplet(t).is_yes
            s = ShiftSequences(t)
            assert all(s.gamma(n) >= 1.0 for n in range(50))

    def test_open_endpoint_row_invalid(self):
        # single unit atom at the origin: admissible b is an open half line
        v = validate_triplet(trip(-1.0, 0.0, [(0.0, 1.0)]))
        assert v.is_no
        assert v.witness["table_case"] == 5

    def test_closed_endpoint_row_valid(self):
        # G1 = 0.5, G2 = 1 with an off-origin atom: the endpoint belongs to the range
        v = validate_triplet(trip(-0.5, 0.0, [(0.5, 0.25)]))
        assert v.is_yes
        assert v.witness["table_case"] == 6
        s = ShiftSequences(trip(-0.5, 0.0, [(0.5, 0.25)]))
        for n in range(20):
            assert math.isclose(s.gamma(n), 0.5**n, rel_tol=1e-12)

    def test_below_endpoint_invalid(self):
        v = validate_triplet(trip(-0.6, 0.0, [(0.5, 0.25)]))
        assert v.is_no

    def test_g2_below_one_closed_endpoint(self):
        # G1 = G2 = 0.5: b = -G1 leaves a positive limit 1 - G2
        v = validate_triplet(trip(-0.5, 0.0, [(0.0, 0.5)]))
        assert v.is_yes
        s = ShiftSequences(trip(-0.5, 0.0, [(0.0, 0.5)]))
        for n in range(1, 10):
            assert math.isclose(s.gamma(n), 0.5)

    def test_negative_witness_index(self):
        v = validate_triplet(trip(-2.0, 0.0, [(2.0, 1e-6)]))
        assert v.is_no
        assert v.witness["witness_index"] >= 1

    def test_termination_cap_inconclusive(self):
        v = validate_triplet(trip(-0.4, 0.0, [(0.5, 0.25)]), max_steps=2)
        assert v.is_inconclusive

    def test_sequences_reject_invalid(self):
        with pytest.raises(InvalidTripletError):
            ShiftSequences(trip(-1.0, 0.0, [(0.0, 1.0)]))


class TestGamma:
    def test_gamma0_is_one(self):
        for t in (trip(3.0, 2.0, [(0.5, 1.0)]), trip(0.0, 0.0)):
            assert ShiftSequences(t).gamma(0) == 1.0

    def test_single_atom_closed_form(self):
        w = 0.75
        s = ShiftSequences(trip(0.0, 0.0, [(2.0, w)]))
        for n in range(20):
            assert math.isclose(s.gamma(n), 1 + w * (2**n - 1 - n), rel_tol=1e-13)

    def test_two_parameter_family_moments(self):
        # triplet (a-1, 0, theta at 0) gives a + (n-1)a(b-1) for n >= 1
        a, bb = 0.5, 2.0
        theta = 1 - 2 * a + a * bb
        s = ShiftSequences(trip(a - 1, 0.0, [(0.0, theta)]))
        for n in range(1, 30):
            assert math.isclose(s.gamma(n), a + (n - 1) * a * (bb - 1), rel_tol=1e-12)

    def test_log_gamma_matches(self):
        s = ShiftSequences(trip(0.3, 0.2, [(0.4, 1.0), (3.0, 0.5)]))
        for n in (0, 1, 2, 7, 30, 100):
            assert math.isclose(s.log_gamma(n), math.log(s.gamma(n)), rel_tol=1e-12)

    def test_log_gamma_past_overflow(self):
        s = ShiftSequences(trip(0.0, 0.0, [(2.0, 1.0)]))
        assert s.gamma(2000) == math.inf
        # gamma_n ~ 2^n for this triplet
        assert math.isclose(s.log_gamma(2000), 2000 * math.log(2.0), rel_tol=1e-6)


class TestWeightsAndBeta:
    def test_weight_is_sqrt_ratio(self):
        s = ShiftSequences(trip(0.1, 0.0, [(2.5, 0.3)]))
        for n in range(10):
            assert math.isclose(s.weight(n), math.sqrt(s.gamma(n + 1) / s.gamma(n)))

    def test_beta0_is_2c_plus_total(self):
        for t in (
            trip(0.0, 0.0, [(2.0, 1.0)]),
            trip(1.0, 0.5, [(0.5, 0.2), (3.0, 0.4)]),
            trip(0.0, 0.0),
        ):
            s = ShiftSequences(t)
            assert math.isclose(
                s.beta(0), 2 * t.c + t.nu.total_mass(), rel_tol=1e-12, abs_tol=1e-15
            )

    def test_type_one_beta_vanishes(self):
        s = ShiftSequences(trip(1.0, 0.0))
        assert all(s.beta(n) == 0.0 for n in range(40))

    def test_beta_both_routes_atom_at_two(self):
        s = ShiftSequences(trip(0.0, 0.0, [(2.0, 1.0)]))
        # gamma = 1, 1, 2, 5 -> lambda^2 = 1, 2, 2.5 and beta_1 = 1 - 4 + 5 = 2
        assert math.isclose(s.beta(1), 2.0, rel_tol=1e-12)
        l1, l2 = s.weight(1) ** 2, s.weight(2) ** 2
        assert math.isclose(1 - 2 * l1 + l1 * l2, 2.0, rel_tol=1e-12)

    def test_beta_log_domain(self):
        s = ShiftSequences(trip(0.0, 0.0, [(2.0, 1.0)]))
        assert math.isclose(s.beta(1500), 1.0, rel_tol=1e-9)
        assert math.isclose(s.weight(1500) ** 2, 2.0, rel_tol=1e-9)


class TestCorpusIdentities:
    def test_second_difference_and_beta_identity(self, corpus):
        for t, _ in corpus:
            s = ShiftSequences(t)
            for n in range(0, 65, 7):
                num = 2 * t.c + t.nu.moment(n)
                dd = s.gamma(n) - 2 * s.gamma(n + 1) + s.gamma(n + 2)
                assert abs(dd - num) <= 1e-9 * max(1.0, abs(num))
                prod = s.gamma(n) * s.beta(n)
                assert abs(prod - num) <= 1e-9 * max(1.0, abs(num))

    def test_defect_dichotomy(self, corpus):
        for t, source in corpus:
            s = ShiftSequences(t)
            betas = [s.beta(n) for n in range(1, 65)]
            if source == "wab":
                assert all(b == 0.0 for b in betas)
            else:
                assert all(b > 0.0 for b in betas)

    def test_classification_matches_beta1(self, corpus):
        for t, _ in corpus:
            s = ShiftSequences(t)
            label = classify_type(t, seqs=s)
            assert (label.kind == "III") == (s.beta(1) > 0.0)


class TestConcurrentReads:
    def test_threads_see_consistent_values(self):
        import threading

        t = trip(0.3, 0.2, [(0.5, 1.0), (3.0, 0.5)])
        s = ShiftSequences(t)
        expected = [s.beta(n) for n in range(64)]
        failures = []

        def reader():
            fresh = [s.beta(n) for n in range(64)]
            if fresh != expected:
                failures.append(fresh)

        threads = [threading.Thread(target=reader) for _ in range(8)]
        for th in threads:
            th.start()
        for th in threads:
            th.join()
        assert not failures


class TestClassify:
    def test_type_one(self):
        label = classify_type(trip(0.0, 0.0))
        assert label.kind == "I" and label.dim == 0

    def test_type_two(self):
        label = classify_type(trip(-0.5, 0.0, [(0.0, 0.5)]))
        assert label.kind == "II" and label.dim == 1

    def test_type_three(self):
        label = classify_type(trip(0.0, 0.0, [(2.0, 1.0)]))
        assert label.kind == "III" and label.dim == "aleph0"

    def test_c_positive_is_type_three(self):
        assert classify_type(trip(0.0, 1.0)).kind == "III"


class TestDiagonalTriplet:
    def test_index_zero_recovers_data(self):
        t = trip(0.4, 0.3, [(0.5, 0.7), (2.0, 0.1)])
        s = ShiftSequences(t)
        d = diagonal_triplet(t, 0, seqs=s)
        assert math.isclose(d.b_k, s.gamma(1) - 1 - t.c)
        assert d.c_k == t.c
        assert d.nu_k == t.nu

    def test_type_one_constant(self):
        t = trip(0.7, 0.0)
        for k in range(5):
            d = diagonal_triplet(t, k)
            assert math.isclose(d.b_k, 0.7 / (1 + 0.7 * k))
            assert d.c_k == 0.0 and d.nu_k.is_zero

    def test_atom_at_two_index_one(self):
        d = diagonal_triplet(trip(0.0, 0.0, [(2.0, 1.0)]), 1)
        assert d.b_k == 1.0 and d.c_k == 0.0
        assert d.nu_k.atoms == ((2.0, 2.0),)

    def test_origin_atoms_dropped_for_positive_k(self):
        t = trip(0.0, 0.0, [(0.0, 0.5), (2.0, 0.5)])
        assert diagonal_triplet(t, 0).nu_k.atoms[0][0] == 0.0
        assert all(p > 0 for p, _ in diagonal_triplet(t, 2).nu_k.atoms)


def test_public_names_resolve_once():
    assert len(cpdshift.__all__) == len(set(cpdshift.__all__))
    missing = [name for name in cpdshift.__all__ if not hasattr(cpdshift, name)]
    assert missing == []
