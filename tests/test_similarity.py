import math

import pytest

from cpdshift import (
    AtomicMeasure,
    ModelDegenerateError,
    NotApplicableError,
    ScalarTriplet,
    ShiftSequences,
    b2_identity_check,
    berger_measure,
    criterion_ineqsuf,
    criterion_kdwq,
    criterion_nyttrs,
    criterion_weight_band,
    classify_type,
    core,
    defect_moment_measure,
    is_subnormal,
    model_subnormal,
    similar_by_beta,
    wab_classify,
)
from cpdshift.cli import similar_report


def trip(b, c, atoms=()):
    return ScalarTriplet(b, c, AtomicMeasure(tuple(atoms)))


class TestSimilarByBeta:
    @pytest.mark.parametrize("theta,mass", [(2.0, 1.0), (1.5, 0.4), (4.0, 2.5)])
    def test_single_atom_above_one_certified(self, theta, mass):
        t = trip(0.0, 0.0, [(theta, mass)])
        v = similar_by_beta(t)
        assert v.is_yes
        eps = v.witness["eps"]
        assert eps > 0.0
        s = ShiftSequences(t)
        # defect converges to (theta-1)^2 regardless of the mass
        assert math.isclose(s.beta(200), (theta - 1.0) ** 2, rel_tol=1e-6)
        assert eps <= s.beta(200)

    def test_certified_floor_bounds_thousand_terms(self):
        t = trip(0.3, 0.1, [(0.7, 0.5), (3.0, 0.8)])
        v = similar_by_beta(t)
        assert v.is_yes
        eps = v.witness["eps"]
        s = ShiftSequences(t)
        for n in range(0, 1001, 50):
            assert eps <= s.beta(n)

    def test_type_one_is_no(self):
        assert similar_by_beta(trip(1.0, 0.0)).is_no

    def test_type_two_vanishes_from_index_one(self):
        v = similar_by_beta(wab_classify(1.0, 3.0).triplet)
        assert v.is_no
        assert v.witness["witness_index"] >= 1

    def test_no_atom_above_one_is_no(self):
        v = similar_by_beta(trip(0.0, 1.0))
        assert v.is_no
        assert v.witness["limit"] == 0.0


class TestTailFloor:
    """The closed-form floor covers every n >= 0, whatever theta is."""

    THETAS = (1.0 + 7.5e-9, 1.0 + 3e-7, 1.0 + 1e-5, 1.004, 2.0, 20.0)

    @pytest.mark.parametrize("theta", THETAS)
    def test_scan_reads_the_prefix_only(self, theta, monkeypatch):
        # the similar report reads no prefix: the beta_1 of its type check is its only
        # sequence read, and it comes from the type check's own block of g
        t = trip(0.5, 0.25, [(0.5, 1.0), (theta, 0.5)])
        checked, built = [], []
        check, init = core._checked_betas, ShiftSequences.__init__

        def counting(start, defect, theta, g):
            checked.extend(range(start, start + len(g) - 2))
            return check(start, defect, theta, g)

        def recording(self, *args, **kwargs):
            init(self, *args, **kwargs)
            built.append(self)

        monkeypatch.setattr(core, "_checked_betas", counting)
        monkeypatch.setattr(ShiftSequences, "__init__", recording)
        report, code = similar_report(t, 512)
        assert report["criteria"]["similar_by_beta"].witness["tail_from"] == 0
        assert (report["verdict"], code) == ("Similar", 0)
        assert checked == [1]
        assert len(built) == 1 and built[0]._prefix == ()

    @pytest.mark.parametrize("theta", THETAS)
    def test_floor_holds_far_out(self, theta):
        t = trip(0.5, 0.25, [(0.5, 1.0), (theta, 0.5)])
        s = ShiftSequences(t)
        eps = similar_by_beta(t).witness["eps"]
        assert eps > 0.0
        assert all(eps <= s.beta(n) for n in range(513))
        n = 513
        while n <= 10**7:
            # the closed form beta returns, without the weight route beta checks it
            # against, which loses ~n log(theta) ulps to cancellation this far out
            assert eps <= math.exp(s.defect_measure.log_moment(n) - s.log_gamma(n)), n
            n = int(n * 1.7) + 1


class TestEndpointAtomCriterion:
    def test_atom_at_two(self):
        v = criterion_kdwq(trip(0.5, 0.0, [(2.0, 1.0)]))
        assert v.is_yes
        assert v.witness["not_subnormal_flags"]["b-mismatch"]

    def test_support_below_one_says_no(self):
        assert criterion_kdwq(trip(0.0, 0.0, [(0.5, 1.0)])).is_no

    def test_c_positive_flag(self):
        v = criterion_kdwq(trip(0.0, 0.2, [(0.5, 1.0), (3.0, 0.1)]))
        assert v.is_yes
        assert v.witness["not_subnormal_flags"]["c-positive"]
        assert v.witness["certifies_not_subnormal"]


class TestEndpointLiminf:
    def test_atom_at_two_limit(self):
        v = criterion_nyttrs(trip(0.0, 0.0, [(2.0, 1.0)]))
        assert v.is_yes
        assert math.isclose(v.witness["limit"], math.exp(-0.5), rel_tol=1e-12)

    def test_small_mass_at_three_halves(self):
        v = criterion_nyttrs(trip(0.0, 0.0, [(1.5, 0.2)]))
        assert v.is_yes
        assert math.isclose(v.witness["limit"], 0.2 * math.exp(-2.0 / 3.0), rel_tol=1e-12)

    def test_not_applicable_below_one(self):
        with pytest.raises(NotApplicableError):
            criterion_nyttrs(trip(0.0, 0.0, [(0.5, 1.0)]))


class TestWeightBand:
    def test_tail_above_two(self):
        v = criterion_weight_band(trip(0.0, 0.0, [(4.0, 1.0)]))
        assert v.is_yes and v.witness["family"] == "tail-above-two"
        assert v.witness["tau"] >= 1.0

    def test_pinched_band(self):
        v = criterion_weight_band(trip(0.0, 0.0, [(1.5, 1.0)]))
        assert v.is_yes and v.witness["family"] == "pinched-band"
        tau, m = v.witness["tau"], v.witness["M"]
        assert 0 < tau < 1 and (1 - tau) * (1 + m) < 1

    def test_isometry_inconclusive(self):
        assert criterion_weight_band(trip(0.0, 0.0)).is_inconclusive


class TestGrowthInequalities:
    def test_family_one(self):
        v = criterion_ineqsuf(trip(1.0, 0.0, [(4.0, 1.0)]))
        assert v.is_yes and "i" in v.witness["families"]

    def test_small_support_fails(self):
        assert criterion_ineqsuf(trip(0.0, 0.0, [(0.5, 1.0)])).is_no

    def test_family_two_with_parameter(self):
        alpha = 1.0 / (0.3 * 1.3)
        v = criterion_ineqsuf(trip(0.0, 0.0, [(2.3, alpha)]), t_param=0.3)
        assert v.is_yes and "ii" in v.witness["families"]

    def test_family_three_instance(self):
        v = criterion_ineqsuf(trip(0.8, 0.0, [(4.0, 2.2)]), t_param=1.4, tau=0.8)
        assert v.is_yes and "iii" in v.witness["families"]

    def test_family_three_found_unpinned(self):
        v = criterion_ineqsuf(trip(0.8, 0.0, [(4.0, 2.2)]))
        assert v.is_yes and "iii" in v.witness["families"]

    def test_tau_pins_only_with_t(self):
        with pytest.raises(ValueError, match="t_param"):
            criterion_ineqsuf(trip(0.8, 0.0, [(4.0, 2.2)]), tau=0.8)

    def test_negative_b_not_applicable(self):
        v = criterion_ineqsuf(trip(-0.5, 0.0, [(0.5, 0.25)]))
        assert v.is_inconclusive and v.witness["applicable"] is False


class TestModelShift:
    def test_single_atom(self):
        t = trip(0.0, 0.0, [(4.0, 1.0)])
        berger = model_subnormal(t)
        assert defect_moment_measure(t).atoms == ((4.0, 1.0),)
        assert berger.atoms == ((4.0, 1.0),)
        moments, weights = berger.moments(5), berger.weights(5)
        for n in range(5):
            assert moments[n] == 4.0**n
            assert math.isclose(weights[n], 2.0, rel_tol=1e-12)

    def test_c_adds_unit_atom(self):
        t = trip(0.0, 0.5, [(4.0, 1.0)])
        assert defect_moment_measure(t).atoms == ((1.0, 1.0), (4.0, 1.0))
        assert model_subnormal(t).approx_equal(AtomicMeasure(((1.0, 0.5), (4.0, 0.5))))

    def test_degenerate_types_rejected(self):
        with pytest.raises(ModelDegenerateError):
            model_subnormal(wab_classify(1.0, 3.0).triplet)
        with pytest.raises(ModelDegenerateError):
            model_subnormal(trip(0.0, 0.0))

    def test_berger_is_square_sqrt_fixed_point(self):
        berger = model_subnormal(trip(0.2, 0.3, [(0.5, 1.0), (2.5, 0.7)]))
        roundtrip = berger.pushforward_sqrt().pushforward_square()
        assert roundtrip.approx_equal(berger, 1e-12)


class TestAtomNextToOne:
    """An atom of nu 1e-13 from 1 stays apart from the atom at 1 (2c's or the Berger's)."""

    X = 1.0000000000001

    def test_defect_floor_reads_the_top_atom(self):
        v = similar_by_beta(trip(0.0, 0.5, [(self.X, 1.0)]))
        assert v.is_yes
        assert v.witness["class_defect"] == (self.X, 0, 1.0)

    def test_model_keeps_both_atoms(self):
        t = trip(0.0, 0.5, [(self.X, 1.0)])
        assert defect_moment_measure(t).atoms == ((1.0, 1.0), (self.X, 1.0))
        assert model_subnormal(t).atoms == ((1.0, 0.5), (self.X, 0.5))

    def test_berger_measure_below_one(self):
        x = 0.9999999999999
        w = 0.5 * (x - 1.0) ** 2
        t = ScalarTriplet(w / (x - 1.0), 0.0, AtomicMeasure(((x, w),)))
        assert is_subnormal(t).is_yes
        assert berger_measure(t).atoms == ((x, 0.5), (1.0, 0.5))


class TestDefectMomentIdentity:
    def test_examples(self):
        assert b2_identity_check(trip(0.0, 0.0, [(2.0, 1.0)]), 64)
        assert b2_identity_check(trip(1.0, 0.0), 64)  # both sides vanish
        assert b2_identity_check(trip(0.0, 1.0), 64)  # gamma_n beta_n = 2

    def test_corpus(self, corpus):
        for t, _ in corpus[:50]:
            assert b2_identity_check(t, 64)

    def test_quadratic_case_value(self):
        t = trip(0.0, 1.0)
        s = ShiftSequences(t)
        m0 = defect_moment_measure(t)
        assert m0.atoms == ((1.0, 2.0),)
        for n in range(10):
            assert math.isclose(s.gamma(n) * s.beta(n), 2.0, rel_tol=1e-12)

    def test_weight_product_route(self):
        # moments of the normalized measure, rebuilt from model weights
        t = trip(0.1, 0.4, [(0.3, 0.6), (3.0, 1.1)])
        s = ShiftSequences(t)
        total = s.defect_measure.total_mass()
        weights = model_subnormal(t).weights(33)
        acc = 1.0
        for n in range(33):
            assert math.isclose(s.gamma(n) * s.beta(n), total * acc, rel_tol=1e-9)
            acc *= weights[n] ** 2


class TestCriteriaConsistency:
    def test_sufficient_yes_never_contradicted(self, corpus):
        for t, source in corpus:
            if source != "random":
                continue
            if classify_type(t).kind != "III":
                continue
            fired = (
                criterion_kdwq(t).is_yes
                or (t.nu.support_max() > 1.0 and criterion_nyttrs(t).is_yes)
                or criterion_weight_band(t).is_yes
                or criterion_ineqsuf(t).is_yes
            )
            if fired:
                assert similar_by_beta(t).is_yes
