import json
import math
import os
import pickle
import subprocess
import sys
from pathlib import Path

import cpdshift
import numpy as np
import pytest
from conftest import triplets
from cpdshift import (
    INCONCLUSIVE,
    YES,
    Verdict,
    b2_identity_check,
    classify_type,
    core,
    criterion_ineqsuf,
    criterion_kdwq,
    criterion_nyttrs,
    criterion_weight_band,
    dichotomy_check,
    is_subnormal,
    model_subnormal,
    necessary_conditions,
    point_mass,
    quasi_affine_test,
    similar_by_beta,
)
from cpdshift.cli import (
    classify_report,
    compare_report,
    dumps,
    load_triplet,
    main,
    model_report,
    series_rows,
    similar_report,
    subnormal_report,
)
from cpdshift.core import as_sequences
from hypothesis import given, settings

ATOM2 = '{"b": 0.0, "c": 0.0, "nu": {"atoms": [[2.0, 1.0]]}}'
W13 = '{"b": 0.0, "c": 0.0, "nu": {"atoms": [[0.0, 2.0]]}}'
QUAD = '{"b": 0.0, "c": 1.0, "nu": {"atoms": []}}'
ISO = '{"b": 0.0, "c": 0.0, "nu": {"atoms": []}}'
W05 = '{"b": -0.5, "c": 0.0, "nu": {"atoms": [[0.0, 0.5]]}}'
SUBN = '{"b": 0.3333333333333333, "c": 0.0, "nu": {"atoms": [[4.0, 1.0]]}}'
# b - i1 = 5e-13 and 1.2e-13, each far above the rounding of L = b - i1, and
# b - i1 = 2e-11, below it: one rule (limit_coefficients) reads L in every report
SLOPE_5E_13 = '{"b": -1.9950000000000001e-10, "c": 0, "nu": {"atoms": [[0.5, 1e-10]]}}'
TYPE_II_SLOPE = '{"b": -0.00066463556622642416, "c": 0, "nu": {"atoms": [[0, 0.00066463556634927066]]}}'
SLOPE_2E_11 = '{"b": 5000.5000500050201, "c": 0, "nu": {"atoms": [[10000, 50000000]]}}'
# the first difference of gamma turns nonnegative only at n = 2397897
LATE = '{"b": -1e-7, "c": 0, "nu": {"atoms": [[1.000001, 1e-14]]}}'


def subprocess_env() -> dict:
    """The environment of a child process that imports this cpdshift."""
    src = str(Path(cpdshift.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out)


class TestClassify:
    def test_type_three(self, capsys):
        code, doc = run_json(capsys, "classify", ATOM2)
        assert code == 0
        assert doc["verdict"] == "TypeIII"
        assert doc["type"]["dim"] == "aleph0"

    def test_invalid_triplet_is_decided(self, capsys):
        bad = '{"b": -1.0, "c": 0.0, "nu": {"atoms": [[0.0, 1.0]]}}'
        code, doc = run_json(capsys, "classify", bad)
        assert code == 0
        assert doc["verdict"] == "InvalidTriplet"

    @pytest.mark.parametrize("command", ("classify", "similar", "model"))
    def test_first_gamma_zero_is_invalid(self, capsys, command):
        # 1/(x - 1) rounds to -1, so L and A read 0, but gamma_1 = 1 + b = 0
        code, doc = run_json(capsys, command, '{"b": -1, "c": 0, "nu": {"atoms": [[5e-324, 1]]}}')
        assert (code, doc["verdict"]) == (0, "InvalidTriplet")
        assert doc["valid"]["witnesses"] == {"witness_index": 1, "gamma": 0.0, "table_case": 3}

    def test_malformed_json_is_input_error(self, capsys):
        code = main(["classify", '{"b": nope'])
        assert code == 1

    def test_schema_violation_is_input_error(self, capsys):
        code = main(["classify", '{"b": 0.0, "c": -1.0, "nu": {"atoms": []}}'])
        assert code == 1


class TestSubnormal:
    def test_subnormal_with_oracle(self, capsys):
        code, doc = run_json(capsys, "subnormal", SUBN)
        assert code == 0
        assert doc["verdict"] == "Subnormal"
        assert doc["oracles_agree"] is True
        assert doc["citation"] == "resolvent-criterion"

    def test_not_subnormal(self, capsys):
        code, doc = run_json(capsys, "subnormal", QUAD)
        assert code == 0 and doc["verdict"] == "NotSubnormal"

    def test_slope_above_rounding_is_not_subnormal(self, capsys):
        # L = b - i1 = 5e-13 is 0.25% of |i1|, far above its rounding scale
        code, doc = run_json(capsys, "subnormal", SLOPE_5E_13)
        assert (code, doc["verdict"]) == (0, "NotSubnormal")

    def test_slope_within_rounding_is_subnormal(self, capsys):
        # L = b - i1 = 2e-11 lies below its rounding scale 16 eps (|b| + i1) = 3.6e-11
        code, doc = run_json(capsys, "subnormal", SLOPE_2E_11)
        assert (code, doc["verdict"]) == (0, "Subnormal")
        assert "note" not in doc["subnormal"]

    @pytest.mark.parametrize("command", ("classify", "subnormal", "similar", "model", "compare"))
    def test_resolvent_sum_overflowing_on_both_sides(self, capsys, command):
        # w / (x - 1) is -inf below 1 and +inf above it: i1 reads NaN, not an fsum error
        spec = '{"b": 0, "c": 0, "nu": {"atoms": [[0.9999999999, 1e300], [1.0000000001, 1e300]]}}'
        code, doc = run_json(capsys, command, *([spec] * (2 if command == "compare" else 1)))
        assert code == 0
        if command == "subnormal":
            assert doc["verdict"] == "NotSubnormal"
            assert doc["subnormal"]["witnesses"]["i1"] == "nan"

    @pytest.mark.parametrize("command", ("classify", "subnormal", "similar", "model"))
    def test_defect_moments_past_the_double_range(self, capsys, command):
        # nu_0 = 2e308 overflows: beta_1 and the Berger measure's total mass read past it,
        # and gamma_n saturates from n = 2, past what the Hankel oracle can test
        spec = '{"b": 0, "c": 0, "nu": {"atoms": [[1.5, 1e308], [1.6, 1e308]]}}'
        code, doc = run_json(capsys, command, spec)
        verdicts = {"classify": "TypeIII", "subnormal": "NotSubnormal", "similar": "Similar"}
        assert (code, doc["verdict"]) == (0, verdicts.get(command, "Model"))
        if command == "subnormal":
            assert doc["oracles_agree"] is None
        if command == "model":
            assert doc["model"]["berger"]["atoms"] == [[1.5, 0.5], [1.6, 0.5]]


class TestSimilar:
    def test_type_two_cites_dichotomy(self, capsys):
        code, doc = run_json(capsys, "similar", W13)
        assert code == 0
        assert doc["verdict"] == "NotSimilar"
        assert doc["citation"] == "type-I-II-dichotomy"

    def test_quadratic_cites_necessary_condition(self, capsys):
        code, doc = run_json(capsys, "similar", QUAD)
        assert code == 0
        assert doc["verdict"] == "NotSimilar"
        assert doc["citation"].startswith("similarity-necessary-conditions")
        assert "i-c-zero" in doc["citation"]

    def test_atom_above_one_similar(self, capsys):
        code, doc = run_json(capsys, "similar", ATOM2)
        assert code == 0
        assert doc["verdict"] == "Similar"
        assert doc["citation"]

    def test_large_slope_reads_no_defect(self, capsys):
        # lambda_0^2 ~ 1e8: the weight route of beta_0 loses ~1e-9 relative to rounding,
        # so a read of beta_0 would fail its two-route check; the floor reads none
        spec = '{"b": 1e8, "c": 2, "nu": {"atoms": [[1.5, 0.001]]}}'
        code, doc = run_json(capsys, "similar", spec)
        assert (code, doc["verdict"], doc["citation"]) == (0, "Similar", "defect-floor-invertibility")

    @pytest.mark.parametrize(
        "spec",
        [
            '{"b": 0, "c": 1e300, "nu": {"atoms": [[2.0, 1e-300]]}}',
            '{"b": 0, "c": 0, "nu": {"atoms": [[0.5, 1e300], [1.000001, 1e-300]]}}',
            '{"b": 0, "c": 0, "nu": {"atoms": [[1.000001, 1e300]]}}',
        ],
        ids=["c-1e300", "mass-below-1e300", "top-mass-1e300"],
    )
    def test_atom_above_one_reads_the_limit(self, capsys, spec):
        # the closed-form floor underflows to 0 (and on the last spec K = mass / (theta-1)^2
        # overflows to inf), but the limit (theta-1)^2 is positive and every beta_n is
        code, doc = run_json(capsys, "similar", spec)
        assert (code, doc["verdict"], doc["citation"]) == (0, "Similar", "defect-floor-invertibility")
        assert list(doc["criteria"]) == ["similar_by_beta"]

    def test_subnormal_takes_precedence(self, capsys):
        # gamma_n = 0.01^n and 0.1^n, which cancel to rounding in the float sums
        decaying = (
            '{"b": -0.99, "c": 0, "nu": {"atoms": [[0.01, 0.9801]]}}',
            '{"b": -0.9, "c": 0, "nu": {"atoms": [[0.1, 0.81]]}}',
        )
        for spec in (SUBN, *decaying):
            code, doc = run_json(capsys, "similar", spec)
            assert code == 0 and doc["verdict"] == "Subnormal"
        # the model shift reads only its Berger measure, none of the cancelled gamma_n
        code, doc = run_json(capsys, "model", decaying[1])
        assert code == 0 and doc["verdict"] == "Model" and "identity_check" not in doc

    def test_interior_slope_certifies_not_similar(self, capsys):
        # diagonal sums b_k + nu_k-total turn positive within k <= 64
        tricky = '{"b": -0.35, "c": 0.0, "nu": {"atoms": [[0.5, 0.2]]}}'
        code, doc = run_json(capsys, "similar", tricky)
        assert code == 0
        assert doc["verdict"] == "NotSimilar"

    @pytest.mark.parametrize(
        "spec, citation",
        [
            (SLOPE_5E_13, "similarity-necessary-conditions(ii-diagonal-sum-nonpositive)"),
            (TYPE_II_SLOPE, "type-I-II-dichotomy"),
        ],
        ids=["type-three", "type-two"],
    )
    def test_slope_above_rounding_is_not_similar(self, capsys, spec, citation):
        # L > 0 beyond its rounding: neither subnormal nor similar to a subnormal shift
        code, doc = run_json(capsys, "similar", spec)
        assert (code, doc["verdict"], doc["citation"]) == (0, "NotSimilar", citation)
        assert doc["subnormal"]["outcome"] == "no"

    def test_near_miss_fails_the_diagonal_sums(self, capsys):
        # b misses the resolvent sum by 1e-9, far above the rounding of L, so L = 1e-9 > 0:
        # the diagonal sums turn positive, though only past k = 64
        near = '{"b": -0.049999999, "c": 0.0, "nu": {"atoms": [[0.9, 0.005]]}}'
        code, doc = run_json(capsys, "similar", near)
        assert doc["verdict"] == "NotSimilar"
        assert doc["citation"] == "similarity-necessary-conditions(ii-diagonal-sum-nonpositive)"
        assert code == 0


class TestCompare:
    def test_contractive_vs_unweighted(self, capsys):
        code, doc = run_json(capsys, "compare", W05, ISO)
        assert code == 0
        assert doc["verdict"] == "Similar"
        assert doc["intertwiner"]["within_tolerance"]

    def test_growing_vs_unweighted(self, capsys):
        grow = '{"b": 1.0, "c": 0.0, "nu": {"atoms": []}}'
        code, doc = run_json(capsys, "compare", grow, ISO)
        assert code == 0 and doc["verdict"] == "NotSimilar"

    def test_growth_coefficient_overflow_reads_the_masses(self, capsys):
        # K = mass / (theta-1)^2 overflows to inf: the limits read from the masses
        spec = '{"b": 0, "c": 0, "nu": {"atoms": [[1.000001, 1e300]]}}'
        code, doc = run_json(capsys, "compare", spec, spec)
        assert (code, doc["verdict"]) == (0, "Similar")
        for side in ("forward", "backward"):
            assert doc["similarity"]["witnesses"][side]["witnesses"]["limit_ratio"] == 1.0
        code, doc = run_json(capsys, "similar", spec)
        limit = doc["criteria"]["similar_by_beta"]["witnesses"]["limit"]
        assert math.isclose(limit, (1.000001 - 1.0) ** 2, rel_tol=1e-15)


class TestValidationOutcomes:
    @pytest.mark.parametrize("cmd", ["classify", "similar"])
    def test_late_exit_decides(self, capsys, cmd):
        code, doc = run_json(capsys, cmd, LATE)
        assert code == 0
        assert doc["valid"]["witnesses"]["settled_at"] == 2397897

    def test_late_exit_compares(self, capsys):
        code, doc = run_json(capsys, "compare", LATE, LATE)
        assert code == 0
        assert doc["valid_a"]["witnesses"]["settled_at"] == 2397897

    def test_late_exit_series(self, capsys):
        code, out = run(capsys, "series", LATE, "--n-max", "3")
        assert code == 0
        assert len(out.splitlines()) == 5

    @staticmethod
    def _undecided_on_call(k):
        """validate_triplet, except that its k-th call (from 0) is inconclusive."""
        calls = []

        def validate(t):
            calls.append(t)
            if len(calls) == k + 1:
                return Verdict(INCONCLUSIVE, "validate_triplet", "triplet-positivity", {})
            return cpdshift.validate_triplet(t)

        return validate

    @pytest.mark.parametrize("side", [0, 1])
    def test_compare_inconclusive_side(self, monkeypatch, side):
        monkeypatch.setattr("cpdshift.core.validate_triplet", self._undecided_on_call(side))
        report, code = compare_report(load_triplet(ATOM2), load_triplet(ISO), 512)
        assert (report["verdict"], code) == ("Inconclusive", 2)

    def test_classify_inconclusive(self, monkeypatch):
        # the same verdict the compare report gives
        monkeypatch.setattr("cpdshift.core.validate_triplet", self._undecided_on_call(0))
        report, code = classify_report(load_triplet(ATOM2), 64)
        assert (report["verdict"], code) == ("Inconclusive", 2)

    def test_series_inconclusive(self, monkeypatch, capsys):
        # the exit code the other reports give, the reason on stderr
        monkeypatch.setattr("cpdshift.core.validate_triplet", self._undecided_on_call(0))
        code = main(["series", ATOM2])
        out, err = capsys.readouterr()
        assert (code, out) == (2, "")
        assert err.startswith("inconclusive")


class TestSeries:
    def test_csv_shape(self, capsys):
        code, out = run(capsys, "series", ATOM2, "--n-max", "5")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "n,gamma,lambda,beta,log_gamma"
        assert len(lines) == 7
        row = lines[2].split(",")
        assert row[0] == "1" and float(row[1]) == 1.0 and float(row[3]) == 2.0

    def test_json_mode(self, capsys):
        code, out = run(capsys, "series", ATOM2, "--n-max", "3", "--json")
        rows = json.loads(out)
        assert code == 0 and len(rows) == 4 and rows[0]["gamma"] == 1.0

    def test_overflow_prints_inf_and_log(self, capsys):
        code, out = run(capsys, "series", ATOM2, "--n-max", "1200")
        last = out.strip().splitlines()[-1].split(",")
        assert last[1] == "inf"
        assert float(last[4]) > 700

    TWO_ATOMS = '{"b": 0.3, "c": 0.2, "nu": {"atoms": [[0.5, 0.4], [2.0, 1.0]]}}'
    # sha256 of the output of `series TWO_ATOMS --n-max 5000` before the columns were
    # read from one pass over g
    DIGESTS = {
        "--csv": "cfb4bfc91c4f0e8f67c5fef5782a25b472f0c85a76aa40a84e207711b58a30dc",
        "--json": "b147d8ba02d2cd9828134fe543d97d0be3c49d9885b13734ff96cd4c578babf2",
    }

    @pytest.mark.parametrize("fmt", sorted(DIGESTS))
    def test_far_indices_evaluate_g_once(self, monkeypatch, capsys, fmt):
        import hashlib

        n_max = 5000
        calls = []
        far_g = core._far_g
        monkeypatch.setattr(
            core, "_far_g", lambda t, theta, n, limit: calls.append(n) or far_g(t, theta, n, limit)
        )
        code, out = run(capsys, "series", self.TWO_ATOMS, "--n-max", str(n_max), fmt)
        assert code == 0
        # the rows read g_0 .. g_{n_max + 2}; validation reads two indices below the window
        far = [n for n in calls if n >= core.PREFIX_WINDOW]
        assert len(calls) - len(far) == 2
        assert sorted(far) == list(range(core.PREFIX_WINDOW, n_max + 3))
        assert hashlib.sha256(out.encode()).hexdigest() == self.DIGESTS[fmt]


class TestExamples:
    def test_wab_round_trips_through_classify(self, capsys):
        code, doc = run_json(capsys, "examples", "wab", "--a", "0.5", "--b", "1.0")
        assert code == 0
        code2, doc2 = run_json(capsys, "classify", json.dumps(doc))
        assert code2 == 0 and doc2["verdict"] == "TypeII"

    def test_case_generators_round_trip(self, capsys):
        for argv in (
            ["examples", "case1", "--b", "1.0", "--c", "0.0"],
            ["examples", "case2", "--t", "0.3"],
            ["examples", "case3", "--tau", "0.8", "--t", "1.4", "--positive-c"],
        ):
            code, doc = run_json(capsys, *argv)
            assert code == 0
            code2, doc2 = run_json(capsys, "classify", json.dumps(doc))
            assert code2 == 0 and doc2["valid"]["outcome"] == "yes"

    @pytest.mark.parametrize(
        "argv,triplet,params",
        [
            ("case1 --b 2 --c 0.5 --alpha 3 --point 4", (2, 0.5), {"alpha": 3, "point": 4}),
            (
                "case2 --b 0.2 --c 0.1 --t 0.3 --alpha 5 --point 3",
                (0.2, 0.1),
                {"t": 0.3, "alpha": 5, "point": 3},
            ),
            (
                "case3 --tau 0.9 --t 1.5 --theta 6 --alpha 4",
                (0.9, 0),
                {"tau": 0.9, "t": 1.5, "theta": 6, "alpha": 4, "c": 0},
            ),
        ],
    )
    def test_case_flags_reach_the_generator(self, capsys, argv, triplet, params):
        code, doc = run_json(capsys, "examples", *argv.split())
        assert code == 0
        assert (doc["b"], doc["c"]) == triplet and doc["meta"]["params"] == params

    def test_non_cpd_parameters_rejected(self, capsys):
        assert main(["examples", "wab", "--a", "2.0", "--b", "1.0"]) == 1

    def test_empty_window_rejected(self, capsys):
        assert main(["examples", "case2", "--t", "0.9"]) == 1


class TestBatch:
    def test_mixed_batch(self, capsys, tmp_path):
        batch = tmp_path / "specs.jsonl"
        batch.write_text(ATOM2 + "\n" + W13 + "\n")
        code, out = run(capsys, "classify", "--batch", str(batch))
        assert code == 0
        docs = [json.loads(line) for line in out.strip().splitlines()]
        assert [d["verdict"] for d in docs] == ["TypeIII", "TypeII"]
        assert [d["batch_index"] for d in docs] == [0, 1]

    def test_bad_line_sets_error_exit(self, capsys, tmp_path):
        batch = tmp_path / "specs.jsonl"
        batch.write_text(ATOM2 + "\nnot json\n")
        code, out = run(capsys, "classify", "--batch", str(batch))
        assert code == 1
        docs = [json.loads(line) for line in out.strip().splitlines()]
        assert "error" in docs[1]


class TestClosedPipe:
    """A reader that stops early, as `| head -n 1` does, gets exit 1 and nothing on stderr."""

    @pytest.mark.parametrize("command", ("series", "batch"))
    def test_quiet_exit(self, tmp_path, command):
        # both print far more than a pipe holds, so the run is still writing at the close
        batch = tmp_path / "specs.jsonl"
        batch.write_text((ATOM2 + "\n") * 100)
        argv = {
            "series": ["series", ATOM2, "--n-max", "5000"],
            "batch": ["similar", "--batch", str(batch)],
        }[command]
        proc = subprocess.Popen(
            [sys.executable, "-m", "cpdshift.cli", *argv],
            env=subprocess_env(),
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        assert proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 1
        assert err == b""


class TestFloatFormatting:
    def test_17_digit_round_trip(self, capsys):
        spec = '{"b": 0.1, "c": 0.0, "nu": {"atoms": [[2.0, 0.3]]}}'
        _, out = run(capsys, "classify", spec)
        assert "0.10000000000000001" in out  # repr-exact decimal expansion
        doc = json.loads(out)
        assert doc["input"]["b"] == 0.1

    def test_dumps_nested_report_objects(self):
        verdict = Verdict(YES, "f", "tag", {"x": np.float64(0.1), "n": math.nan}, note="why")
        obj = {1: (verdict, -math.inf), "k": [np.int64(3), True, None, {}]}
        assert dumps(obj, indent=2) == (
            '{\n  "1": [\n    {\n      "criterion": "f",\n      "outcome": "yes",\n'
            '      "witnesses": {\n        "x": 0.10000000000000001,\n        "n": "nan"\n'
            '      },\n      "citation": "tag",\n      "note": "why"\n    },\n    "-inf"\n'
            '  ],\n  "k": [\n    3,\n    true,\n    null,\n    {}\n  ]\n}'
        )



class TestGoldenBytes:
    """The exact dumps text of each report kind, compact and indented, as sha256."""

    MIXED = '{"b": 0.3, "c": 0.2, "nu": {"atoms": [[0.5, 0.4], [2.0, 1.0], [3.5, 0.3]]}}'
    NEAR_ONE = '{"b": 0.5, "c": 0.0, "nu": {"atoms": [[0.5, 1.0], [1.00019, 1.0]]}}'
    SPECS = {"readme": ATOM2, "mixed": MIXED, "near_one": NEAR_ONE}
    DIGESTS = {
        ("similar", "readme", 0): "35d3ecbfbbf13177398dad23eab212debdcb6dea37f63eb1681bf4c91b4004fe",
        ("similar", "readme", 2): "a0dd0c289e92bc11a78c4fc8ae8ffe7731c31eecaa1e5be3b9f52af014f70862",
        ("model", "readme", 0): "f39d2871c9d3c6d25f97836b59901580466663da0db89b78f8904adb0a230ec4",
        ("model", "readme", 2): "29161d4a46582191ae30ec8e09fdf7ca9f6ad42939fbd8cb8661b5ed0cc9c83d",
        ("classify", "readme", 0): "5cc958ae2e9cc629918e0c414edb2fba65ddef586da006390e4356613cef3a9d",
        ("classify", "readme", 2): "8be55f2eab223eb73c6016a9208f90102171939148e65d8949468fba49ebf038",
        ("compare", "readme", 0): "df96eb35a3714e63004215317e114958a6ed41239590e5fa017fa4745538e736",
        ("compare", "readme", 2): "1060d95b2071f4439701718721e5b940a8e348c0c995467988a84336c2e2dbfe",
        ("similar", "mixed", 0): "e2eecc8029ce1427bfc40aa4e50157cc74280469dd3426d400a8b94c7e0ac50d",
        ("similar", "mixed", 2): "144121adc02c2c970641fe97ac31c99c9b71db5d8351bb82ef29bc7d69ff1f63",
        ("model", "mixed", 0): "e60df20c5c6a951fbd00acd0cfaf4b6db5d3733eccde150a30ccca62aad7b11a",
        ("model", "mixed", 2): "fee3eeb28b54a712974b2b69ee2e1e102ba2bcfa2a93ea540ed6cbcc3ff817b0",
        ("classify", "mixed", 0): "531cdf79bca59d619d9812e16ad5e50b23c66e5f794638c089f73fa5dbb5d137",
        ("classify", "mixed", 2): "1e89a88f11a5e1d5dc157eff1eab0e91f03667b8d883a53e6f46f141c0d6ac33",
        ("compare", "mixed", 0): "aad9db3dd62b6608179aebc36626b6e3c6ef79578d6d7a3754fffe28e7bbebea",
        ("compare", "mixed", 2): "50fb550fe45ed35d3f3af9135bb7713ca18abc7fea97729b3e73176470ac684b",
        ("similar", "near_one", 0): "4f0757d3d3e378839ac9dbf99af4067fa9d5da4f3a12b13eef3bfe74573a35d2",
        ("similar", "near_one", 2): "497f8088bb2880d43d2fb3184d1ddc667f9fd74a6e9d3c32b2319ee4acabe0c9",
        ("model", "near_one", 0): "d6668598f9e97a0edd9e86abd761481ca5bfc82cde9ad6ad4a7a883344e54c9f",
        ("model", "near_one", 2): "333572f96b7da92984b71cf4a03b534dd60998278ce70588d2efb59088272266",
        ("classify", "near_one", 0): "1448c71c98b6fcb320568ab25a2008566040b458183d2815d71bf55e64ded6fb",
        ("classify", "near_one", 2): "952aad24732355759ff5445251f36c90da4a12076f9a235622ccb59b8dd9c4a6",
        ("compare", "near_one", 0): "bef97fc537b97df3e5e1bc76278830307a839648bfa0bcd159939699d9f1a291",
        ("compare", "near_one", 2): "96c59009d41b3f1d92bd624bab04d34b2289bb263189c2fd3580f5c9673cd18d",
        ("subnormal", "readme", 0): "5f7dbfbba1dae5b93afebebb1876d514ec177233ae5d185926365e3643313954",
        ("subnormal", "readme", 2): "1cf7614d0a14330856e543b84b74c0de0fae060590833c9ad04e96b50a96a285",
        ("subnormal", "mixed", 0): "811044edec628eaa5a2e837bec42d2c49723fd2bf890f32e37e283cf1acb46fa",
        ("subnormal", "mixed", 2): "1d8590c6c7fa19d487a9dbadebb9dc71a1c8fee966d30c54e38318d41ea9a311",
        ("subnormal", "near_one", 0): "bab8043c9baf6bc1dc9d967bb1f7cbd4583e08954fa8f1bda5c5199d729a9a82",
        ("subnormal", "near_one", 2): "a4c6c38f30abb213908031b1fbed2db186c36a021cd049649d5ea9b97eaec0ce",
    }

    @pytest.mark.parametrize("name", sorted(SPECS))
    def test_reports(self, name):
        import hashlib

        t = load_triplet(self.SPECS[name])
        reports = {
            "similar": similar_report(t, 512)[0],
            "model": model_report(t, 32)[0],
            "classify": classify_report(t, 64)[0],
            "compare": compare_report(t, load_triplet(ATOM2), 64)[0],
            "subnormal": subnormal_report(t, 8, 1e-8)[0],
        }
        for kind, report in reports.items():
            for indent in (0, 2):
                text = dumps(report, indent=indent)
                digest = hashlib.sha256(text.encode()).hexdigest()
                assert digest == self.DIGESTS[kind, name, indent], (kind, indent)

    # a --batch error line whose message echoes the % of its spec
    PERCENT_LINE = "83b222439845d196fec2a7ec66ad6134bd4f244040ab9d35799325a78b961ebe"

    def test_batch_error_line_echoes_percent(self, capsys, tmp_path):
        import hashlib

        batch = tmp_path / "specs.jsonl"
        batch.write_text('{"b": "5%", "c": 0.0, "nu": {"atoms": [[2.0, 1.0]]}}\n')
        code, out = run(capsys, "similar", "--batch", str(batch))
        assert code == 1
        assert "5%" in json.loads(out)["error"]
        assert hashlib.sha256(out.encode()).hexdigest() == self.PERCENT_LINE

    EDGES = {
        "f": np.float64(0.1),
        "i": np.int64(7),
        "x": [math.nan, math.inf, -math.inf],
        "t": {"k": (1, 2.5, "a")},
        "b": [True, False],
        "\u03bb": "\u00b5",
    }

    def test_edge_values_compact(self):
        assert dumps(self.EDGES) == (
            '{"f": 0.10000000000000001,"i": 7,"x": ["nan","inf","-inf"],'
            '"t": {"k": [1,2.5,"a"]},"b": [true,false],"\\u03bb": "\\u00b5"}'
        )

    def test_edge_values_indented(self):
        assert dumps(self.EDGES, indent=2) == (
            '{\n  "f": 0.10000000000000001,\n  "i": 7,\n  "x": [\n    "nan",\n    "inf",\n'
            '    "-inf"\n  ],\n  "t": {\n    "k": [\n      1,\n      2.5,\n      "a"\n    ]\n'
            '  },\n  "b": [\n    true,\n    false\n  ],\n  "\\u03bb": "\\u00b5"\n}'
        )

class TestUsageErrors:
    def test_flag_of_another_subcommand_is_input_error(self, capsys):
        assert main(["classify", ATOM2, "--tol", "1e-6"]) == 1

    def test_missing_operand_is_input_error(self, capsys):
        assert main(["compare", ATOM2]) == 1

    def test_compare_takes_no_window(self, capsys):
        # the growth classes of two triplets, and every similarity criterion, need no --n-max
        assert main(["compare", ATOM2, ISO, "--n-max", "16"]) == 1
        assert main(["similar", ATOM2, "--n-max", "10"]) == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["examples", "case3", "--b", "0.5"],
            ["examples", "case3", "--c", "7"],
            ["examples", "case3", "--point", "9"],
            ["examples", "case1", "--t", "0.3"],
        ],
    )
    def test_examples_case_takes_only_its_flags(self, capsys, argv):
        assert main(argv) == 1
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv,flag",
        [
            (["classify", ATOM2, "--n-max", "-3"], "--n-max"),
            (["classify", ATOM2, "--n-max", "0"], "--n-max"),
            (["model", ATOM2, "--n-max", "0"], "--n-max"),
            (["series", ATOM2, "--n-max", "-3"], "--n-max"),
            (["subnormal", ATOM2, "--hankel-order", "-2"], "--hankel-order"),
            (["subnormal", ATOM2, "--tol", "nan"], "--tol"),
            (["subnormal", ATOM2, "--tol", "inf"], "--tol"),
            (["subnormal", ATOM2, "--tol", "0"], "--tol"),
            (["subnormal", ATOM2, "--tol=-1e-8"], "--tol"),
        ],
    )
    def test_out_of_range_flag_is_input_error(self, capsys, argv, flag):
        assert main(argv) == 1
        out, err = capsys.readouterr()
        assert out == "" and f"argument {flag}:" in err

    def test_subnormal_reads_its_flags(self, capsys):
        code, doc = run_json(capsys, "subnormal", ATOM2, "--tol", "1e-6", "--hankel-order", "6")
        assert code == 0 and doc["verdict"] == "NotSubnormal"
        assert doc["hankel_oracle"]["witnesses"]["order"] == 6
        # --n-max 1, the least count, is read as given: beta_1 = 0.6 / 1.5, not beta_2
        low = '{"b": 0.3, "c": 0.2, "nu": {"atoms": [[0.5, 0.4]]}}'
        code, doc = run_json(capsys, "classify", low, "--n-max", "1")
        assert code == 0 and doc["beta"]["min_over_1_to_n_max"] == pytest.approx(0.4)
        code, doc = run_json(capsys, "model", low, "--n-max", "1")
        assert code == 0 and len(doc["model"]["moments"]) == len(doc["model"]["weights"]) == 1


class TestOwnedValues:
    """What a triplet object owns is scoped to the object, and changes no report byte."""

    REPORTS = {
        "similar": lambda t: dumps(similar_report(t, 512)[0]),
        "model": lambda t: dumps(model_report(t, 32)[0]),
        "classify": lambda t: dumps(classify_report(t, 64)[0]),
        "subnormal": lambda t: dumps(subnormal_report(t, 8, 1e-8)[0]),
        "compare": lambda t: dumps(compare_report(t, load_triplet(ATOM2), 64)[0]),
        "series": lambda t: dumps(list(series_rows(as_sequences(t), 8))),
    }

    def test_each_object_validates_once(self, monkeypatch):
        calls, validate = [], core.validate_triplet

        def counted(t):
            calls.append(t)
            return validate(t)

        monkeypatch.setattr(core, "validate_triplet", counted)
        spec = TestGoldenBytes.MIXED
        ta, tb = load_triplet(spec), load_triplet(spec)
        for t in (ta, tb, ta, tb):
            similar_report(t, 512)
            model_report(t, 32)
        # one call for each object, though the two are equal
        assert [id(t) for t in calls] == [id(ta), id(tb)]
        # equality, hash, repr and pickling read the fields alone
        fresh = load_triplet(spec)
        assert ta == tb == fresh and hash(ta) == hash(fresh) and repr(ta) == repr(fresh)
        assert pickle.dumps(ta) == pickle.dumps(fresh)
        copy = pickle.loads(pickle.dumps(ta))
        similar_report(copy, 512)
        assert copy == ta and [id(t) for t in calls] == [id(ta), id(tb), id(copy)]

    @classmethod
    def _text(cls, kind, t):
        """The report text of kind on t, or the exception that the report raises."""
        try:
            return cls.REPORTS[kind](t)
        except Exception as exc:  # the pinned self-check failures raise alike on each
            return type(exc), str(exc)

    def check_identical(self, spec):
        """Every report of spec reads the same on a fresh triplet as after similar or model."""
        for kind in self.REPORTS:
            texts = []
            for first in (None, "similar", "model"):
                t = load_triplet(spec)
                if first is not None:
                    self._text(first, t)
                texts.append(self._text(kind, t))
            assert texts[0] == texts[1] == texts[2], (kind, spec)

    @pytest.mark.parametrize("name", sorted(TestGoldenBytes.SPECS))
    def test_golden_specs_read_alike(self, name):
        self.check_identical(TestGoldenBytes.SPECS[name])

    @settings(derandomize=True, max_examples=60, deadline=None, database=None)
    @given(triplets())
    def test_drawn_triplets_read_alike(self, t):
        self.check_identical(json.dumps(t.to_json()))


class TestSharedSequences:
    BASE = '{"b": 0.3, "c": 0.2, "nu": {"atoms": [[0.5, 0.4], [2.0, 1.0], [3.5, 0.3]]}}'

    def _count(self, monkeypatch):
        counts = {"built": 0, "validated": 0, "log_gamma": 0}
        init, validate, log_gamma = (
            core.ShiftSequences.__init__,
            core.validate_triplet,
            core._far_g,
        )

        def counting(key, fn):
            def wrapper(*args, **kwargs):
                counts[key] += 1
                return fn(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(core.ShiftSequences, "__init__", counting("built", init))
        counted_validate = counting("validated", validate)
        monkeypatch.setattr(core, "validate_triplet", counted_validate)
        monkeypatch.setattr("cpdshift.cli.validate_triplet", counted_validate)
        monkeypatch.setattr(core, "_far_g", counting("log_gamma", log_gamma))
        return counts

    def test_compare_builds_one_sequences_per_side(self, monkeypatch):
        ta, tb = load_triplet(self.BASE), load_triplet(ATOM2)
        counts = self._count(monkeypatch)
        report, _ = compare_report(ta, tb, 512)
        assert counts["built"] == 2 and counts["validated"] == 2
        assert counts["log_gamma"] <= 2 * (512 + 1)
        assert report["similarity"].witness["forward"] == quasi_affine_test(ta, tb).to_json()
        assert report["similarity"].witness["backward"] == quasi_affine_test(tb, ta).to_json()

    def test_similar_builds_one_sequences(self, monkeypatch):
        t = load_triplet(self.BASE)
        counts = self._count(monkeypatch)
        similar_report(t, 512)
        assert counts["built"] == 1 and counts["validated"] == 1

    @staticmethod
    def _imports_numpy(calls: str) -> bool:
        """Whether a fresh process that makes the given main() calls loads numpy."""
        code = f"import sys; from cpdshift.cli import main; {calls}; print('numpy' in sys.modules)"
        proc = subprocess.run(
            [sys.executable, "-c", code],
            env=subprocess_env(),
            capture_output=True,
            text=True,
            check=True,
        )
        return proc.stdout.splitlines()[-1] == "True"

    def test_similar_does_not_import_numpy(self):
        # classify and model as well: none of the three needs numpy
        cmds = "('classify', 'similar', 'model')"
        assert not self._imports_numpy(f"[main([cmd, {ATOM2!r}]) for cmd in {cmds}]")

    def test_compare_does_not_import_numpy(self):
        assert not self._imports_numpy(f"main(['compare', {ATOM2!r}, {ISO!r}])")

    # every triplet-level procedure, with its other arguments fixed
    PROCEDURES = (
        classify_type,
        is_subnormal,
        necessary_conditions,
        dichotomy_check,
        similar_by_beta,
        criterion_kdwq,
        criterion_nyttrs,
        criterion_weight_band,
        criterion_ineqsuf,
        model_subnormal,
        b2_identity_check,
        lambda s: quasi_affine_test(s, point_mass(0.5)),
    )

    @staticmethod
    def _outcome(procedure, arg):
        try:
            out = procedure(arg)
        except ValueError as exc:  # not applicable to this type, or a subnormal shift
            return type(exc)
        return out.to_json() if hasattr(out, "to_json") else out

    def test_procedures_take_the_sequences(self, monkeypatch):
        for spec in (ATOM2, W13, SUBN):  # type III, type II, subnormal
            t = load_triplet(spec)
            expected = [self._outcome(f, t) for f in self.PROCEDURES]
            seqs = core.ShiftSequences(t)
            counts = self._count(monkeypatch)
            assert [self._outcome(f, seqs) for f in self.PROCEDURES] == expected, spec
            assert counts["built"] == 0 and counts["validated"] == 0, spec
            monkeypatch.undo()
