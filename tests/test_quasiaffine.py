import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from conftest import random_type_iii_triplet, triplets

from cpdshift import (
    AtomicMeasure,
    ScalarTriplet,
    ShiftSequences,
    classify_type,
    intertwiner_defect,
    is_subnormal,
    model_subnormal,
    point_mass,
    quasi_affine_test,
    similar_by_beta,
    similarity_test,
    wab_classify,
    zero_measure,
)
from cpdshift.cli import compare_report, load_triplet
from cpdshift.core import validate_triplet
from cpdshift.quasiaffine import INTERTWINER_RTOL, growth_class

ISO = ScalarTriplet(0.0, 0.0, zero_measure())
TWO_ISO = ScalarTriplet(1.0, 0.0, zero_measure())  # moments 1 + n


def trip(b, c, atoms=()):
    return ScalarTriplet(b, c, AtomicMeasure(tuple(atoms)))


class TestQuasiAffine:
    def test_reflexive(self):
        for t in (ISO, TWO_ISO, trip(0.0, 0.0, [(2.0, 1.0)])):
            assert quasi_affine_test(t, t).is_yes

    def test_nonsubnormal_transform_of_unweighted_shift(self):
        # ratio 1/gamma_n -> 0: bounded
        v = quasi_affine_test(trip(0.0, 0.3, [(2.0, 1.0)]), ISO)
        assert v.is_yes
        assert v.witness["limit_ratio"] == 0.0
        assert v.witness["class_om"] < v.witness["class_lam"]

    def test_geometric_growth_unbounded(self):
        v = quasi_affine_test(point_mass(1.0), point_mass(2.0))  # 2^n over 1
        assert v.is_no
        assert v.witness["limit_ratio"] == math.inf

    @pytest.mark.parametrize("weights", [[1.0] * 40, (1.0,) * 40, np.ones(40)], ids=type)
    def test_weight_list_has_no_growth_class(self, weights):
        # a finite list cannot show that a ratio is bounded
        for test in (quasi_affine_test, similarity_test):
            for pair in ((weights, ISO), (ISO, weights)):
                with pytest.raises(TypeError, match=type(weights).__name__):
                    test(*pair)
        with pytest.raises(TypeError, match=type(weights).__name__):
            growth_class(weights)
        defect, scale = intertwiner_defect(weights, weights)
        assert defect <= INTERTWINER_RTOL * scale


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(triplets())
def test_type_iii_is_quasi_affine_transform_of_its_model(t):
    # the defect moments gamma_n beta_n grow no faster than gamma_n
    assume(validate_triplet(t).is_yes)
    s = ShiftSequences(t)
    assume(classify_type(s).kind == "III")
    assert quasi_affine_test(s, model_subnormal(s)).is_yes


class TestSimilarity:
    @pytest.mark.parametrize("a", [0.25, 0.5, 0.9])
    def test_contractive_family_similar_to_unweighted_shift(self, a):
        v = similarity_test(wab_classify(a, 1.0).triplet, ISO)
        assert v.is_yes

    def test_two_isometry_not_similar_to_unweighted_shift(self):
        # moments 1 + n are unbounded; the reverse ratio infimum is 0
        v = similarity_test(TWO_ISO, ISO)
        assert v.is_no

    def test_identical_shifts(self):
        t = trip(0.2, 0.1, [(3.0, 0.5)])
        assert similarity_test(t, t).is_yes

    def test_certified_shift_similar_to_its_model(self):
        # moment ratio against the model shift is beta_n / mu0-total, which a
        # certified floor bounds away from 0
        t = trip(0.1, 0.2, [(0.5, 0.4), (2.5, 0.9)])
        assert similar_by_beta(t).is_yes
        model = model_subnormal(t)
        assert similarity_test(t, model).is_yes

    def test_symmetry(self, rng):
        pairs = [(random_type_iii_triplet(rng), random_type_iii_triplet(rng)) for _ in range(6)]
        for lam, om in pairs:
            assert similarity_test(lam, om).outcome == similarity_test(om, lam).outcome


# compare_pairs pairs (bench/corpus.compare_pairs_cases, seed:index) on which
# the window slope fit read the wrong verdict, with the growth-class verdict
GROWTH_CLASS_PAIRS = [
    # top atom 1 + 9.2e-7 against 1 + 3.8e-5: the ratio decays like (1 - 3.7e-5)^n
    (
        "1:6",
        '{"b": 0.8619419126695547, "c": 0.0, '
        '"nu": {"atoms": [[0.0594619699316462, 0.0001446535804651031], '
        '[1.0000009152473108, 0.05469475758621347]]}}',
        '{"b": 0.7097554855295076, "c": 0.04305838337829063, '
        '"nu": {"atoms": [[0.16492590245432712, 0.0035733768048540177], '
        '[1.0000377505320532, 48.84318026025754]]}}',
        "NotSimilar",
    ),
    # top atom 1 + 2.6e-7 against c n^2
    (
        "1:21",
        '{"b": 0.5038543443645929, "c": 8.571683500646076e-06, '
        '"nu": {"atoms": [[0.004748005992900839, 0.13010060254832073], '
        '[1.0000002648969288, 0.0002002720872883717]]}}',
        '{"b": 0.684120256945, "c": 0.0001936306207232882, '
        '"nu": {"atoms": [[0.06454534430866529, 2.3936422140404986e-06], '
        '[0.9999995783034966, 5.9407242395910305e-05]]}}',
        "NotSimilar",
    ),
    # c > 0 on both sides: the ratio tends to c_b / c_a
    (
        "1:39",
        '{"b": 0.6547480285851696, "c": 2.2645687376184606e-06, '
        '"nu": {"atoms": [[0.009500343275929184, 0.06469369519385298]]}}',
        '{"b": 1.1877464466748158, "c": 5.240294936700422, '
        '"nu": {"atoms": [[0.2699207987444386, 0.017423593128106696]]}}',
        "Similar",
    ),
    # L n against a top atom 1 + 1.9e-9
    (
        "1:40",
        '{"b": 1.2795043476957821, "c": 0.0, '
        '"nu": {"atoms": [[0.47716840791702486, 0.5404428041149585]]}}',
        '{"b": 1.0970382241108596, "c": 4.688143340956621e-06, '
        '"nu": {"atoms": [[0.3829465914466818, 0.0001283597390428899], '
        '[1.0000000018587918, 2.8448435125668105e-06]]}}',
        "NotSimilar",
    ),
    (
        "2:59",
        '{"b": 0.5513801130544438, "c": 0.0, '
        '"nu": {"atoms": [[0.01024879508610708, 0.009744683580020678], '
        '[1.0000009152473108, 1.6236696989690718e-06]]}}',
        '{"b": 0.9553832931875628, "c": 0.0008029833833015196, '
        '"nu": {"atoms": [[0.05048022303651243, 38.42856595888295], '
        '[1.0000377505320532, 0.00037444111413138906]]}}',
        "NotSimilar",
    ),
    # top atom 1.0054 against c n^2: the ratio grows like 1.0054^n
    (
        "3:37",
        '{"b": 1.5029213164128283, "c": 0.0, '
        '"nu": {"atoms": [[0.06805929743164615, 0.02267415908177478], '
        '[1.0053798384034436, 0.008102464411478393]]}}',
        '{"b": 0.058249362190414766, "c": 0.037803542178190534, '
        '"nu": {"atoms": [[0.09723785449787768, 0.010475021213690434]]}}',
        "NotSimilar",
    ),
    # L > 0 on both sides: the ratio tends to L_b / L_a, about 1200
    (
        "3:43",
        '{"b": -8.332584367016957e-05, "c": 0.0, '
        '"nu": {"atoms": [[0.01864078622204512, 0.00016354516886308478]]}}',
        '{"b": 0.09991667415632983, "c": 0.0, '
        '"nu": {"atoms": [[0.01864078622204512, 0.00016354516886308478]]}}',
        "Similar",
    ),
]


class TestGrowthClass:
    @pytest.mark.parametrize("case", GROWTH_CLASS_PAIRS, ids=[c[0] for c in GROWTH_CLASS_PAIRS])
    def test_compare_pairs_verdicts(self, case):
        _, spec_a, spec_b, verdict = case
        report, code = compare_report(load_triplet(spec_a), load_triplet(spec_b), 512)
        assert (report["verdict"], code) == (verdict, 0)

    @pytest.mark.parametrize("k", [0.5, 2.0])
    def test_scaled_masses_tend_to_the_scale(self, k):
        def base(scale):
            return trip(0.1, 0.2, [(0.5, 1.0 * scale), (1.04, 2e-5 * scale)])

        v = similarity_test(base(1.0), base(k))
        assert v.is_yes
        assert v.witness["forward"]["witnesses"]["limit_ratio"] == pytest.approx(k, rel=1e-12)
        assert v.witness["backward"]["witnesses"]["limit_ratio"] == pytest.approx(1 / k, rel=1e-12)

    def test_classes(self):
        assert growth_class(trip(0.0, 0.0, [(0.5, 0.4), (2.0, 1.0)])) == (2.0, 0, 1.0)
        assert growth_class(trip(0.3, 0.2, [(0.5, 0.4)]))[:2] == (1.0, 2)
        assert growth_class(TWO_ISO) == (1.0, 1, 1.0)
        assert growth_class(ISO) == (1.0, 0, 1.0)
        # gamma_n = 0.5^n: b = i1 and A = 1 - i2 = 0
        assert growth_class(trip(-0.5, 0.0, [(0.5, 0.25)])) == (0.5, 0, 1.0)
        assert growth_class(AtomicMeasure(((0.5, 0.2), (3.0, 0.7)))) == (3.0, 0, 0.7)

    def test_rounding_level_coefficients_count_as_zero(self):
        # (a - 1, 0, 1 - 2a + a at 0) has L = 0 but for rounding, and rounds to
        # +1.1e-16 for some a: such a triplet keeps the class (1, 0, a) of W(a, 1)
        rounded = 0
        for k in range(1, 1000):
            a = k / 1000
            w = wab_classify(a, 1.0)
            assert validate_triplet(w.triplet).is_yes, k
            v = similarity_test(w.triplet, w.berger)
            assert v.is_yes, k
            assert v.witness["forward"]["witnesses"]["limit_ratio"] == pytest.approx(1.0)
            t = ScalarTriplet(a - 1.0, 0.0, point_mass(0.0, 1.0 - 2.0 * a + a))
            if t.b - t.nu.resolvent_integrals().i1 > 0.0:
                rounded += 1
                assert similarity_test(t, w.berger).is_yes, k
        assert rounded > 0
        # no atom in (0, 1) and both L and A at rounding level: the first positive leads
        w = 1.0 - 2.0**-52
        assert growth_class(trip(-w, 0.0, [(0.0, w)])) == (1.0, 0, 2.0**-52)
        assert growth_class(trip(2.0**-52 - w, 0.0, [(0.0, w)])) == (1.0, 1, 2.0**-52)

    def test_unbounded_direction_reads_infinity(self):
        v = quasi_affine_test(ISO, TWO_ISO)
        assert v.is_no and v.witness["limit_ratio"] == math.inf


class TestIntertwiner:
    def test_identity_pair(self):
        defect, scale = intertwiner_defect(ISO, ISO)
        assert defect <= INTERTWINER_RTOL * scale

    def test_random_pairs_exact(self, rng):
        for _ in range(10):
            lam = list(rng.uniform(0.5, 2.0, 40))
            om = list(rng.uniform(0.5, 2.0, 40))
            defect, scale = intertwiner_defect(lam, om, m=32)
            assert defect <= 1e-12 * scale

    def test_holds_regardless_of_boundedness(self):
        # ratio unbounded, but the algebraic identity still holds entrywise
        defect, scale = intertwiner_defect([math.sqrt(2.0)] * 40, [1.0] * 40)
        assert defect <= INTERTWINER_RTOL * scale

    def test_perturbed_diagonal_fails(self):
        lam = [1.0] * 40
        om = [1.2] * 40
        size = 33
        w_l = np.diag(lam[: size - 1], -1)
        w_o = np.diag(om[: size - 1], -1)
        diag = [1.0]  # sqrt of the moment ratio: the product of the weight ratios
        for n in range(size - 1):
            diag.append(diag[-1] * om[n] / lam[n])
        diag[7] += 1e-3
        x = np.diag(diag)
        defect = np.abs((x @ w_l - w_o @ x)[:, : size - 1]).max()
        scale = max(np.abs(x @ w_l).max(), np.abs(w_o @ x).max())
        assert defect > 1e-12 * scale


class TestAlevyScenario:
    """A non-subnormal shift against a subnormal one, both ways.

    Forward (contractive Berger measure): the non-subnormal moments grow
    without bound while the subnormal ones stay at most 1, so the ratio
    decays to 0.  Reverse (Berger support strictly above that of nu, both
    above 1): the opposite ratio decays geometrically.
    """

    def test_two_isometry_vs_unweighted_shift(self):
        assert not is_subnormal(TWO_ISO).is_yes
        assert growth_class(TWO_ISO)[:2] > (1.0, 0)
        forward = quasi_affine_test(TWO_ISO, point_mass(1.0, 1.0))
        assert forward.is_yes and forward.witness["limit_ratio"] == 0.0

    def test_quadratic_vs_bernoulli_berger(self):
        berger = AtomicMeasure(((0.0, 0.5), (1.0, 0.5)))
        t = trip(0.0, 1.0)
        assert not is_subnormal(t).is_yes
        assert growth_class(t)[:2] == (1.0, 2)
        assert quasi_affine_test(t, berger).witness["limit_ratio"] == 0.0

    def test_reverse_direction(self):
        t, berger = trip(0.0, 0.0, [(1.5, 1.0)]), point_mass(2.0, 1.0)
        assert not is_subnormal(t).is_yes
        reverse = quasi_affine_test(berger, t)
        assert reverse.is_yes and reverse.witness["limit_ratio"] == 0.0
