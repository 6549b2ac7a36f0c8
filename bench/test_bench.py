"""Self-tests of the benchmark: python3 -m pytest -q bench"""

from __future__ import annotations

import json
import math
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import corpus  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from cpdshift import cli, is_subnormal, validate_triplet  # noqa: E402

SIZES = {"triage": 200, "similar_fuzz": 120, "compare_pairs": 120}


def _cases(name, seed):
    return corpus.WORKLOADS[name](seed, SIZES[name])


@pytest.mark.parametrize("name", sorted(corpus.WORKLOADS))
def test_same_seed_same_text(name):
    first = [c.texts for c in _cases(name, 7)]
    assert first == [c.texts for c in _cases(name, 7)]
    assert first != [c.texts for c in _cases(name, 8)]


def test_same_text_under_any_hash_seed():
    code = (
        "import corpus, hashlib; print(hashlib.sha256(''.join("
        "t for f in corpus.WORKLOADS.values() for c in f(5, 60) for t in c.texts"
        ").encode()).hexdigest())"
    )
    digests = {
        subprocess.run(
            [sys.executable, "-c", code], cwd=BENCH, env={**os.environ, "PYTHONHASHSEED": h},
            capture_output=True, text=True, check=True,
        ).stdout
        for h in ("1", "2")
    }
    assert len(digests) == 1


def _parse(text):
    obj = json.loads(text)
    return obj["b"], obj["c"], [tuple(a) for a in obj["nu"]["atoms"]]


@pytest.mark.parametrize("seed", [2, 3, 4])
def test_triage_labels_hold(seed):
    for case in corpus.triage_cases(seed, 1000):
        b, c, atoms = _parse(case.texts[0])
        t = cli.load_triplet(case.texts[0])
        assert validate_triplet(t).is_yes, case
        kind = case.label["type"]
        if kind == "I":
            assert c == 0.0 and not atoms
        elif kind == "II":
            assert c == 0.0 and len(atoms) == 1 and atoms[0][0] == 0.0
        else:
            assert c > 0.0 or any(p > 0.0 for p, _ in atoms)
        if case.family in ("forced", "perturbed"):
            assert is_subnormal(t).is_yes == case.label["subnormal"], case
        elif c > 0.0:
            assert case.label["subnormal"] is False
        if case.family == "near_one":
            assert any(1e-4 <= abs(p - 1.0) <= 1e-3 for p, _ in atoms)


@pytest.mark.parametrize("seed", [3, 4])
def test_similar_labels_hold(seed):
    for case in _cases("similar_fuzz", seed):
        b, c, atoms = _parse(case.texts[0])
        t = cli.load_triplet(case.texts[0])
        assert validate_triplet(t).is_yes, case
        assert all(p > 0.0 for p, _ in atoms)  # type III, so the model exists
        if atoms[-1][0] > 1.0:
            assert case.label == {"similar": True}
        elif c > 0.0:
            assert case.label == {"similar": False}
        else:
            assert case.label == {}


def test_compare_labels_hold():
    labelled = 0
    for case in _cases("compare_pairs", 3):
        (ba, ca, a), (bb, cb, bt) = map(_parse, case.texts)
        for text in case.texts:
            assert validate_triplet(cli.load_triplet(text)).is_yes, case
        labelled += bool(case.label)
        if case.family == "scaled":
            assert (ba, ca) == (bb, cb) and [p for p, _ in a] == [p for p, _ in bt]
            ratios = [mb / ma for (_, ma), (_, mb) in zip(a, bt)]
            assert 0.5 <= ratios[0] <= 2.0
            assert all(math.isclose(r, ratios[0], rel_tol=1e-12) for r in ratios)
            assert a[-1][0] > 1.0 and case.label in ({"similar": True}, {})
        elif case.family == "extra_atom":
            small, big = sorted((a, bt), key=len)
            assert big[:-1] == small and small[-1][0] > 1.0
            assert big[-1][0] >= small[-1][0] + 0.5 and case.label in ({"similar": False}, {})
        else:
            assert case.label == {}
    assert labelled >= len(_cases("compare_pairs", 3)) // 4


def test_dominance_rule():
    # top atom 3 with unit mass: 3^254 dwarfs a polynomial part
    assert corpus._dominates((3.0, 1.0), 0.5, 0.1, [(0.5, 1.0)])
    # 1e-9 above 1 it never separates from b n inside the window
    assert not corpus._dominates((1.0 + 1e-9, 1.0), 0.5, 0.0, [(0.5, 1.0)])


def test_pinned_specs_present_on_every_seed():
    for seed in (1, 2):
        families = {c.family for c in corpus.similar_fuzz_cases(seed, 10)}
        assert {f"pinned:{p[0]}" for p in corpus.PINNED_FUZZ} <= families


def _near_one_distances(name, seed):
    # 3e-4 holds every failure window and almost never a base point by chance
    return sorted(
        abs(p - 1.0)
        for case in corpus.WORKLOADS[name](seed)
        for text in case.texts
        for p, _ in _parse(text)[2]
        if 0.0 < abs(p - 1.0) < 3e-4
    )


@pytest.mark.parametrize("name", sorted(corpus.WORKLOADS))
def test_distances_to_one_same_on_every_seed(name):
    # the hangs and library errors each sit in a window of distances to 1, so
    # one grid on every seed keeps their counts fixed
    first, second = _near_one_distances(name, 1), _near_one_distances(name, 2)
    assert len(first) == len(second)
    assert all(math.isclose(x, y, rel_tol=1e-9) for x, y in zip(first, second))


def test_self_time_on_synthetic_tree():
    # root [0, 100] -> a [10, 30], b [40, 90] -> c [50, 60]; second root [100, 105]
    parent = [-1, 0, 0, 2, -1]
    start = [0, 10, 40, 50, 100]
    end = [100, 30, 90, 60, 105]
    assert list(spans.self_times(parent, start, end)) == [30.0, 20.0, 40.0, 10.0, 5.0]


def test_tracer_records_nesting_and_counts():
    tracer = spans.Tracer()

    def inner(x):
        return x + 1

    inner_t = tracer._wrap("qpoly.inner", inner)
    outer_t = tracer._wrap("core.outer", lambda x: inner_t(inner_t(x)))
    tracer.spec_id = 4
    assert outer_t(1) == 3
    a = tracer.arrays()
    assert [tracer.names[i] for i in a["name_id"]] == ["core.outer", "qpoly.inner", "qpoly.inner"]
    assert list(a["parent"]) == [-1, 0, 0]
    assert list(a["spec"]) == [4, 4, 4]
    totals = tracer.totals()
    assert totals["qpoly.inner"][0] == 2 and totals["core.outer"][0] == 1
    own = spans.self_times(a["parent"], a["start_ns"], a["end_ns"])
    assert own.sum() == a["end_ns"][0] - a["start_ns"][0]


def test_install_rebinds_every_import_and_restores():
    import cpdshift.core as core
    import cpdshift.measures as measures
    import cpdshift.qpoly as qpoly

    original = qpoly.q_poly
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert core.q_poly is measures.q_poly is qpoly.q_poly is not original
        assert cli.validate_triplet is core.validate_triplet
        cli.classify_report(cli.load_triplet(run.SMALL_SPEC), 8)
        totals = tracer.totals()
        assert totals["core.ShiftSequences.__init__"][0] == 1
        assert totals["core.validate_triplet"][0] == 1
        assert totals["qpoly.q_poly"][0] > 0
    finally:
        tracer.uninstall()
    assert core.q_poly is measures.q_poly is qpoly.q_poly is original


def _spin(cli_, case, index):
    deadline = time.perf_counter() + 5.0
    while time.perf_counter() < deadline:
        pass


def test_budget_hit_is_a_failure():
    import signal

    signal.signal(signal.SIGALRM, run._budget_handler(None))
    workload = run.Workload(_spin, run.compare_wrong, ("compare",), 0.05, 90.0, (), 1)
    stats = run.RunStats()
    run.run_pass(cli, workload, [corpus.Case(("{}",), {}, "spin")], stats)
    assert stats.failures == {("budget", "bench"): 1}
    assert stats.latencies_ms(50.0) == [50.0]
    assert 0.05 <= stats.pass_seconds() < 1.0


def test_benchmark_json_matches_metrics():
    doc = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    # every listed workload exists; triage runs by hand but is not listed
    assert {w["name"] for w in doc["workloads"]} == set(run.WORKLOADS) - {"triage"}
    assert {m["name"]: (m["unit"], m["better"]) for m in doc["per_layer"]} == run.PER_LAYER
    assert [m["name"] for m in doc["end_to_end"]] == list(run.END_TO_END)
    assert {m["name"]: (m["unit"], m["better"]) for m in doc["end_to_end"]} == run.END_TO_END


def test_strata_cover_unit_interval():
    pts = sorted(corpus._strata(random.Random(1), 10))
    assert all(k / 10 <= p < (k + 1) / 10 for k, p in enumerate(pts))
