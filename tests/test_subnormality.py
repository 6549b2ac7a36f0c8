import math
import random

import numpy as np
import pytest

from cpdshift import (
    AtomicMeasure,
    ScalarTriplet,
    ShiftSequences,
    dichotomy_check,
    hankel_psd_oracle,
    is_subnormal,
    necessary_conditions,
    validate_triplet,
    wab_classify,
)
from conftest import diagonal_triplet
from cpdshift.core import limit_coefficients


def trip(b, c, atoms=()):
    return ScalarTriplet(b, c, AtomicMeasure(tuple(atoms)))


class TestIsSubnormal:
    @pytest.mark.parametrize("m", [1.0, 4.5, 9.0])
    def test_single_atom_family(self, m):
        # b = m/3 matches the first resolvent sum; I2 = m/9 <= 1
        t = trip(m / 3, 0.0, [(4.0, m)])
        v = is_subnormal(t)
        assert v.is_yes
        berger = v.witness["berger"]
        expected = [(4.0, m / 9)] if m == 9.0 else [(1.0, 1 - m / 9), (4.0, m / 9)]
        assert berger.approx_equal(AtomicMeasure(tuple(expected)), 1e-12)

    @pytest.mark.parametrize("a", [0.25, 0.5, 1.0])
    def test_contractive_family(self, a):
        t = wab_classify(a, 1.0).triplet
        v = is_subnormal(t)
        assert v.is_yes
        atoms = ((1.0, 1.0),) if a == 1.0 else ((0.0, 1 - a), (1.0, a))
        assert v.witness["berger"].approx_equal(AtomicMeasure(atoms), 1e-12)

    def test_c_nonzero_fails(self):
        assert is_subnormal(trip(0.0, 1.0)).is_no

    def test_heavy_tail_fails(self):
        # I2 > 1
        t = trip(10.0 / 3, 0.0, [(4.0, 10.0)])
        assert is_subnormal(t).is_no

    def test_wrong_b_fails(self):
        assert is_subnormal(trip(1.0, 0.0, [(4.0, 1.0)])).is_no

    def test_near_miss_is_not_subnormal(self):
        # L = 1e-9 lies far above its rounding scale 16 eps (|b| + 1/3) ~ 2.4e-15
        t = trip(1.0 / 3 + 1e-9, 0.0, [(4.0, 1.0)])
        v = is_subnormal(t)
        assert v.is_no
        assert v.witness["conditions"]["b_matches_first_resolvent"] is False

    def test_overflowed_resolvent_sums_are_not_subnormal(self):
        # w / (x - 1) overflows: i1 = -inf and i2 = inf, so L = +inf and A = -inf
        t = trip(0.0, 0.0, [(0.9999999999, 1e300)])
        assert validate_triplet(t).is_yes
        assert limit_coefficients(t) == (math.inf, -math.inf)
        assert is_subnormal(t).is_no

    def test_berger_reproduces_moments(self, subnormality_corpus):
        forced, _ = subnormality_corpus
        for t in forced:
            s = ShiftSequences(t)
            berger = is_subnormal(t).witness["berger"]
            assert math.isclose(berger.total_mass(), 1.0, rel_tol=1e-12)
            for n in range(25):
                assert math.isclose(berger.moment(n), s.gamma(n), rel_tol=1e-10)


class TestHankelOracle:
    def test_unweighted_shift(self):
        assert hankel_psd_oracle([1.0] * 18, 8).is_yes

    def test_quadratic_growth_rejected_at_order_two(self):
        moments = [1.0 + n * n for n in range(6)]
        # brute-force 3x3 determinant is negative
        h = np.array([[moments[i + j] for j in range(3)] for i in range(3)])
        assert np.linalg.det(h) < 0
        assert hankel_psd_oracle(moments, 2, tol=1e-10).is_no

    def test_atomic_moments_accepted(self):
        mu = AtomicMeasure(((0.5, 0.3), (1.0, 0.2), (4.0, 0.5)))
        moments = [mu.moment(n) for n in range(18)]
        assert hankel_psd_oracle(moments, 8).is_yes

    def test_requires_enough_moments(self):
        with pytest.raises(ValueError, match="moments"):
            hankel_psd_oracle([1.0] * 10, 8)

    def test_overflowed_moments_are_inconclusive(self):
        # gamma_n saturates to +inf from n = 2: no matrix to test, and no error
        moments = ShiftSequences(trip(0.0, 0.0, [(1.5, 1e308), (1.6, 1e308)])).gammas(18)
        assert moments[1] == 1.0 and moments[2] == math.inf
        v = hankel_psd_oracle(moments, 8)
        assert v.is_inconclusive and v.witness["decisive"] is False
        assert v.note == "moments overflow the double range"
        for bad in (math.nan, -math.inf):
            with pytest.raises(ValueError, match="moments must be finite or"):
                hankel_psd_oracle([1.0] * 17 + [bad], 8)

    def test_agreement_with_resolvent_test(self, subnormality_corpus):
        forced, perturbed = subnormality_corpus
        decisive_agree = 0
        disagreements = 0
        for t in forced + perturbed:
            s = ShiftSequences(t)
            sub = is_subnormal(t)
            oracle = hankel_psd_oracle([s.gamma(n) for n in range(18)], 8, tol=1e-8)
            if oracle.is_inconclusive or sub.is_inconclusive:
                continue
            if oracle.outcome == sub.outcome:
                decisive_agree += 1
            else:
                disagreements += 1
        assert disagreements == 0
        assert decisive_agree >= 95


class TestNecessaryConditions:
    def test_expanding_type_one_fails_ii(self):
        report = necessary_conditions(trip(1.0, 0.0))
        assert report.applicable
        assert "ii-diagonal-sum-nonpositive" in report.failed_ids
        assert report.not_similar

    def test_pure_quadratic_fails_i(self):
        report = necessary_conditions(trip(0.0, 1.0))
        assert report.applicable
        assert "i-c-zero" in report.failed_ids
        assert report.not_similar

    def test_isometry_passes_all(self):
        report = necessary_conditions(trip(0.0, 0.0))
        assert report.applicable and not report.not_similar

    def test_subnormal_contractive_passes(self):
        report = necessary_conditions(wab_classify(0.5, 1.0).triplet)
        assert report.applicable and not report.not_similar
        # L = 0 here too, but the sums read at k <= 64 exceed 1e-12 by rounding alone
        noisy = [(0.35965115428494643, 0.4078505988080308), (0.4534550960150523, 0.29847819533853376)]
        for atom in noisy:
            nu = AtomicMeasure((atom,))
            t = ScalarTriplet(nu.resolvent_integrals()[0], 0.0, nu)
            assert is_subnormal(t).is_yes
            assert self.scan_failed_ids(t) == ["ii-diagonal-sum-nonpositive"]
            assert necessary_conditions(t).to_json()["certifies_not_similar"] is False

    def test_not_applicable_above_one(self):
        report = necessary_conditions(trip(0.0, 0.0, [(2.0, 1.0)]))
        assert not report.applicable
        assert not report.not_similar

    def test_interior_atom_with_nonnegative_b_fails_iv(self):
        # b >= 0 keeps every diagonal b_k >= 0; an atom in (0,1) then breaks (iv)
        t = trip(0.5, 0.0, [(0.5, 0.4)])
        report = necessary_conditions(t)
        assert report.applicable
        assert "iv-negative-b-or-no-interior-atom" in report.failed_ids

    @staticmethod
    def scan_failed_ids(t, k_max=64, atol=1e-12):
        """The conditions failed by the diagonal triplets of index k <= k_max."""
        diag = [diagonal_triplet(t, k) for k in range(k_max + 1)]
        sums = [d.b_k + d.nu_k.total_mass() for d in diag]
        nu = t.nu
        passed = {
            "i-c-zero": t.c == 0.0,
            "ii-diagonal-sum-nonpositive": all(v <= atol for v in sums),
            "iii-zero-sum-or-offorigin-support": all(abs(v) <= atol for v in sums)
            or any(p > 0.0 for p, _ in nu.atoms),
            "iv-negative-b-or-no-interior-atom": any(d.b_k < -atol for d in diag)
            or not any(0.0 < p < 1.0 for p, _ in nu.atoms),
        }
        return [key for key, ok in passed.items() if not ok]

    @pytest.mark.parametrize("seed", (1, 2))
    def test_sums_are_those_of_the_diagonal_triplets(self, seed):
        # the closed form against the diagonal triplets read at k <= 64: A and |L| are
        # kept >= 1e-3 and the atoms <= 0.9, so no read sum is rounding noise; the scan
        # sees (ii) fail only where the sum at k = 64 has already turned positive
        rng = random.Random(seed)
        checked = reached = 0
        while checked < 40:
            points = sorted({rng.choice((0.0, rng.uniform(0.0, 0.9))) for _ in range(3)})
            nu = AtomicMeasure(tuple((p, rng.uniform(0.05, 0.3)) for p in points))
            c = rng.choice((0.0, rng.uniform(0.001, 0.5)))
            i1 = nu.resolvent_integrals()[0]
            b = rng.choice((i1, i1 + rng.uniform(1e-3, 1.5), i1 - rng.uniform(1e-3, 1.5)))
            t = ScalarTriplet(b, c, nu)
            slope, constant = limit_coefficients(t)
            if not (slope == 0.0 or abs(slope) >= 1e-3) or constant < 1e-3:
                continue
            if not validate_triplet(t).is_yes:
                continue
            checked += 1
            scan, closed = self.scan_failed_ids(t), necessary_conditions(t).failed_ids
            assert set(scan) <= set(closed), t
            # gamma_64 (b_64 + nu_64-total), the largest numerator the scan reads
            last = slope + 128 * c + math.fsum(w * p**65 / (p - 1.0) for p, w in nu.atoms)
            if last > 1e-9 or "ii-diagonal-sum-nonpositive" not in closed:
                reached += 1
                assert scan == closed, t
        assert reached >= 30

    def test_json_shape(self):
        doc = necessary_conditions(trip(1.0, 0.0)).to_json()
        assert {c["id"] for c in doc["conditions"]} == {
            "i-c-zero",
            "ii-diagonal-sum-nonpositive",
            "iii-zero-sum-or-offorigin-support",
            "iv-negative-b-or-no-interior-atom",
        }
        failed = [c for c in doc["conditions"] if c["status"] == "fail"]
        # (ii) and (iii) are sign tests with no index to name; (iv) names its interior atom
        assert failed and not any("witness_index" in c for c in failed)
        doc = necessary_conditions(trip(0.5, 0.0, [(0.0, 0.1), (0.5, 0.4)])).to_json()
        assert [c.get("witness_index") for c in doc["conditions"]] == [None, None, None, 1]


class TestDichotomy:
    def test_isometry_subnormal(self):
        v = dichotomy_check(wab_classify(1.0, 1.0).triplet)
        assert v.is_yes and v.witness["classification"] == "subnormal"

    def test_type_two_not_similar(self):
        v = dichotomy_check(wab_classify(1.0, 3.0).triplet)
        assert v.is_no and v.witness["classification"] == "not_similar_to_subnormal"

    def test_expanding_type_one_not_similar(self):
        assert dichotomy_check(trip(1.0, 0.0)).is_no

    def test_type_three_rejected(self):
        with pytest.raises(ValueError, match="dichotomy"):
            dichotomy_check(trip(0.0, 0.0, [(2.0, 1.0)]))
