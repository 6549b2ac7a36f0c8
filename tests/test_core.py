import math
import random
from unittest import mock

import pytest
from hypothesis import example, given, settings

import cpdshift
from cpdshift import (
    AtomicMeasure,
    InvalidTripletError,
    ScalarTriplet,
    ShiftSequences,
    classify_type,
    core,
    point_mass,
    quasi_affine_test,
    validate_triplet,
)
from cpdshift.cli import model_report, similar_report
from conftest import diagonal_triplet, triplets


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

    def test_first_gamma_row_invalid(self):
        # L = -1 and A = 0: no limit row applies, but gamma_1 = 1 + b < 0
        v = validate_triplet(trip(-1.5, 0.0, [(0.5, 0.25)]))
        assert v.witness == {"witness_index": 1, "gamma": -0.5, "table_case": 3}

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

    def test_slow_exit_decides(self):
        # gamma falls for three steps before its first difference turns nonnegative
        t = trip(-0.4, 0.0, [(0.5, 0.25)])
        v = validate_triplet(t)
        assert v.is_yes
        assert v.witness == _linear_scan(t)
        assert v.witness["settled_at"] == 3

    def test_sequences_reject_invalid(self):
        with pytest.raises(InvalidTripletError):
            ShiftSequences(trip(-1.0, 0.0, [(0.0, 1.0)]))


def _linear_scan(t):
    """Reference: step gamma by the kernel recurrence until the convexity exit.

    Returns the witness the forward branch of validate_triplet gives, with the
    value of a non-positive gamma left out."""
    pts, wts = [p for p, _ in t.nu.atoms], [w for _, w in t.nu.atoms]
    qs, g = [0.0] * len(pts), 1.0
    case = core._admissible_case(t, core.limit_coefficients(t))[0]
    for n in range(10**7):
        if g <= 0.0:
            return {"witness_index": n, "table_case": case}
        qs = [p * q + n for p, q in zip(pts, qs)]
        g_next = 1.0 + t.b * (n + 1) + t.c * (n + 1) ** 2 + sum(w * q for w, q in zip(wts, qs))
        if g_next - g >= 0.0:
            return {"branch": "forward", "settled_at": n, "table_case": case}
        g = g_next
    raise AssertionError("reference scan did not exit")


def _late_exit_corpus(seed, count=60):
    """b < 0 triplets whose first difference turns nonnegative near a drawn index.

    An atom 1e-9..1e-2 above 1 with mass |b| d / expm1(n d) lifts the slope
    near n; an atom as far below 1 with b = -G1 (1 - x^n) reaches the limit
    slope b + G1 > 0 as slowly.  Steep slopes make some of them invalid."""
    rng = random.Random(seed)
    out = []
    for i in range(count):
        d = 10 ** rng.uniform(-9, -2)
        n = 10 ** rng.uniform(1, 5)
        atoms = [(rng.uniform(0.0, 0.9), 10 ** rng.uniform(-3, 0))] if i % 3 == 0 else []
        if i % 2 == 0:
            b = -(10 ** rng.uniform(-7, -2))
            c = 10 ** rng.uniform(-14, -10) if i % 4 == 0 else 0.0
            atoms.append((1.0 + d, -b * d / math.expm1(n * d)))
        else:
            x, c = 1.0 - d, 0.0
            g1, n = 10 ** rng.uniform(-3, 0), min(n, 20.0 / d)  # b + G1 = G1 x^n >> rounding
            atoms, b = [(x, g1 * (1.0 - x))], g1 * math.expm1(n * math.log(x))
        out.append(ScalarTriplet(b, c, AtomicMeasure.from_atoms(atoms)))
    return out


class TestBoundedValidation:
    @pytest.mark.parametrize("seed", [1, 2])
    def test_matches_linear_scan(self, seed):
        outcomes = set()
        for t in _late_exit_corpus(seed):
            v = validate_triplet(t)
            ref = _linear_scan(t)
            outcomes.add(v.outcome)
            if v.is_no:
                assert v.witness.pop("gamma") <= 0.0
            assert v.witness == ref, t
        assert outcomes == {"yes", "no"}

    def test_late_slope_is_logarithmic(self, monkeypatch):
        # first difference turns nonnegative after ~240k steps
        calls = []
        kernel = core._gamma_value

        def counting(t, theta, n):
            calls.append(n)
            return kernel(t, theta, n)

        monkeypatch.setattr(core, "_gamma_value", counting)
        v = validate_triplet(trip(-1e-6, 0.0, [(1.00001, 1e-12)]))
        assert v.witness["settled_at"] == 239791
        assert len(calls) <= 4 * math.ceil(math.log2(239791))

    def test_precision_limit_is_inconclusive(self, monkeypatch):
        # exact integers that decrease and stay positive past every index doubles reach
        monkeypatch.setattr(core, "_gamma_value", lambda t, theta, n: 2**60 - n)
        v = validate_triplet(trip(-1.0, 0.0, [(2.0, 1.0)]))
        assert v.is_inconclusive
        assert v.witness["searched_to"] == 2**53


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

    def test_decaying_class_reads_the_limit_form(self):
        # c = 0, an atom below 1 and A = L = 0: gamma_n = 0.01^n, which the Q form
        # 1 - 0.99 n + 0.9801 Q_n(0.01) cancels to rounding
        s = ShiftSequences(trip(-0.99, 0.0, [(0.01, 0.9801)]))
        for n in range(65):
            assert math.isclose(s.gamma(n), 0.01**n, rel_tol=1e-12), n

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
            label = classify_type(t)
            assert (label.kind == "III") == (s.beta(1) > 0.0)


class TestPrefix:
    # gamma leaves the double range near n = 230
    LARGE = trip(0.5, 1.0, [(19.0, 1e2), (20.0, 1e2)])
    NEAR_ONE = (
        trip(0.5, 0.0, [(0.5, 1.0), (1.0 - 1.4e-4, 1.0)]),
        trip(0.5, 0.0, [(0.5, 1.0), (1.0 + 1.9e-4, 1.0)]),
        trip(0.3, 0.2, [(0.4, 1.0), (1.00001, 1.0)]),
    )

    @pytest.mark.parametrize("t", (LARGE,) + NEAR_ONE)
    def test_prefix_matches_point_kernel(self, t):
        s = ShiftSequences(t)
        indices = list(range(600)) + list(range(core.PREFIX_WINDOW - 8, core.PREFIX_WINDOW + 8))
        for n in indices:
            g, point = s.gamma(n), core._gamma_value(t, s.theta, n)
            if max(g, point) < math.inf:
                assert math.isclose(g, point, rel_tol=1e-12), n
            kernel = n * s.log_theta + math.log(core._far_g(t, s.theta, n, False))
            assert math.isclose(s.log_gamma(n), kernel, rel_tol=1e-12), n

    def test_values_do_not_depend_on_the_order_of_reads(self):
        t = self.NEAR_ONE[2]
        forward, backward = ShiftSequences(t), ShiftSequences(t)
        backward.gamma(3000)
        assert [backward.log_gamma(n) for n in range(3000, -1, -1)][::-1] == [
            forward.log_gamma(n) for n in range(3001)
        ]

    def test_far_reads_keep_the_window(self, monkeypatch):
        s = ShiftSequences(self.LARGE)
        s.log_gamma(core.PREFIX_WINDOW + 8)  # a cheap probe first: past the window nothing is kept
        assert len(s._prefix) == 0
        assert s.log_gamma(10**7) > 0.0 and s.gamma(10**7) == math.inf
        assert len(s._prefix) == 0
        built = []
        init = core.ShiftSequences.__init__

        def recording(self, *args, **kwargs):
            init(self, *args, **kwargs)
            built.append(self)

        monkeypatch.setattr(core.ShiftSequences, "__init__", recording)
        # the ratio 1 / (1 + 1e-9 n) tends to 0: the growth classes decide it, no index is read
        forward = quasi_affine_test(trip(1e-9, 0.0), point_mass(1.0, 1.0))
        assert forward.witness["limit_ratio"] == 0.0
        assert built and all(len(b._prefix) == 0 for b in built)


def near_one_corpus(seed, count=40):
    """Valid triplets with one atom 1e-9 to 1e-2 from 1, on either side."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        x = 1.0 + rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-9.0, -2.0)
        low = rng.uniform(0.0, 0.9)
        atoms = [(low, 10.0 ** rng.uniform(-6.0, 2.0)), (x, 10.0 ** rng.uniform(-6.0, 2.0))]
        c = rng.choice((0.0, 10.0 ** rng.uniform(-6.0, 2.0)))
        out.append(trip(rng.uniform(0.0, 2.0), c, atoms))
    return out


class TestBetaNearOne:
    """The two beta routes agree when an atom sits close to 1 (no "defect mismatch")."""

    def test_rtol_unchanged(self):
        assert core.BETA_AGREEMENT_RTOL == 1e-9

    @pytest.mark.parametrize("seed", (1, 2))
    def test_beta_prefix(self, seed):
        for t in TestPrefix.NEAR_ONE + tuple(near_one_corpus(seed)):
            s = ShiftSequences(t)
            assert all(s.beta(n) > 0.0 for n in range(513))

    @pytest.mark.parametrize("index", (40, 300, core.PREFIX_WINDOW - 3))
    def test_check_fires_at_the_corrupted_index(self, index):
        # a g value off by 1e-6 leaves the closed form close but moves the weight route
        s = ShiftSequences(TestPrefix.NEAR_ONE[2])
        prefix = s._grow(core.PREFIX_WINDOW - 1)
        assert len(prefix) == core.PREFIX_WINDOW
        s._prefix = prefix[:index] + (prefix[index] * (1.0 + 1e-6),) + prefix[index + 1 :]
        with pytest.raises(ArithmeticError, match=f"^defect mismatch at n={index}:"):
            s.beta(index)
        # betas that do not read the corrupted value (beta_n reads g_n .. g_n+2) stay readable
        fresh = ShiftSequences(TestPrefix.NEAR_ONE[2])
        for n in (index - 8, index + 1):
            if 0 <= n < core.PREFIX_WINDOW - 2:
                assert s.beta(n) == fresh.beta(n)

    @pytest.mark.parametrize("seed", (1, 2))
    def test_reports(self, seed):
        # atoms just above 1 send the beta scan to n ~ 2/(x-1), so the
        # corpus part keeps the atoms below 1
        below = [t for t in near_one_corpus(seed) if t.nu.support_max() < 1.0]
        for t in TestPrefix.NEAR_ONE[:2] + tuple(below):
            assert similar_report(t, 512)[0]["verdict"] != "InvalidTriplet"
            assert model_report(t, 32)[0]["verdict"] == "Model"


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

    def test_threads_growing_one_prefix_agree(self):
        import sys
        import threading

        t = trip(0.3, 0.2, [(0.5, 1.0), (3.0, 0.5)])  # overflows near n = 630
        ref, s = ShiftSequences(t), ShiftSequences(t)
        expected = [ref.log_gamma(n) for n in range(3000)]
        failures = []

        def reader(k):
            order = range(k, 3000, 7) if k % 2 else range(2999 - k, -1, -7)
            if any(s.log_gamma(n) != expected[n] for n in order):
                failures.append(k)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=reader, args=(k,)) for k in range(8)]
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(th.is_alive() for th in threads)
        assert not failures

    def test_threads_reading_betas_across_the_window_agree(self):
        import sys
        import threading

        t = trip(0.3, 0.2, [(0.5, 1.0), (1.00001, 1.0), (3.0, 0.5)])
        ref, s = ShiftSequences(t), ShiftSequences(t)
        expected = [ref.beta(n) for n in range(core.PREFIX_WINDOW + 16)]
        failures = []

        def reader(k):
            top = len(expected)
            order = range(k, top, 5) if k % 2 else range(top - 1 - k, -1, -5)
            if any(s.beta(n) != expected[n] for n in order):
                failures.append(k)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=reader, args=(k,)) for k in range(8)]
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(th.is_alive() for th in threads)
        assert not failures
        assert len(s._prefix) <= core.PREFIX_WINDOW
        assert all(type(g) is float for g in s._prefix)


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

    @staticmethod
    def prefix_type_check(t):
        """(kind, beta_1) of the type check with beta_1 read through the prefix."""
        beta1 = ShiftSequences(t).beta(1)
        nu, c = t.nu, t.c
        if nu.is_zero and c == 0.0:
            kind = "I"
        elif c == 0.0 and len(nu.atoms) == 1 and nu.atoms[0][0] == 0.0:
            kind = "II"
        else:
            kind = "III"
        if (beta1 > 0.0) != (kind == "III"):
            raise RuntimeError("type label disagrees with the beta_1 > 0 dichotomy")
        return kind, beta1

    @settings(derandomize=True, max_examples=300, deadline=None, database=None)
    @given(triplets())
    @example(trip(-0.99, 0.0, [(0.01, 0.9801)]))  # the limit form, theta the top atom 0.01
    def test_block_beta_one_is_the_prefix_beta_one(self, t):
        try:
            kind, beta1 = self.prefix_type_check(t)
        except Exception as exc:
            with pytest.raises(Exception) as raised:
                classify_type(t)
            assert type(raised.value) is type(exc)
            return
        returned, check = [], core._checked_betas

        def recording(*args):
            returned.append(check(*args))
            return returned[-1]

        with mock.patch.object(core, "_checked_betas", recording):
            label = classify_type(t)
        assert label.kind == kind
        assert [[x.hex() for x in betas] for betas in returned] == [[beta1.hex()]]


class TestDiagonalTriplet:
    def test_index_zero_recovers_data(self):
        t = trip(0.4, 0.3, [(0.5, 0.7), (2.0, 0.1)])
        s = ShiftSequences(t)
        d = diagonal_triplet(t, 0)
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
