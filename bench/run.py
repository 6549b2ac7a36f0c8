"""cpdshift benchmark: batch workloads through the CLI report path.

    python3 bench/run.py --workload similar_fuzz --seed 1 --seconds 55 --trace 0

Run from the root of a source tree (the library is imported from ./src).  One
process, one thread, a closed loop with one caller: each spec goes through
cli.load_triplet, the workload's cli.*_report functions and cli.dumps, exactly
as one line of `cpdshift <cmd> --batch` does, and its verdicts are checked
against the label its construction implies.  A spec that raises, runs past
the per-spec budget (a SIGALRM timer in this process) or contradicts its label
fails; failures are attributed to the innermost cpdshift module at fault.

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics of a
traced pass (spans are written to bench/out/).  The last line of standard
output is one JSON object: {"correct", "attempted", "failed", "metrics"}.
See bench/README.md for the workloads, labels, budgets and metric definitions.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import corpus
import spans

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
PKG = SRC / "cpdshift"

# the small fixed spec of the ROADMAP baseline, for the cold-start spawns
SMALL_SPEC = '{"b": 0.3, "c": 0.2, "nu": {"atoms": [[0.5, 0.4], [2.0, 1.0], [3.5, 0.3]]}}'
SMALL_SPEC_B = '{"b": 0.3, "c": 0.2, "nu": {"atoms": [[0.5, 0.8], [2.0, 2.0], [3.5, 0.6]]}}'
SETUP_SPAWNS = 9


class BudgetExceeded(BaseException):
    """Raised from the budget timer; a BaseException so no library handler swallows it."""

    def __init__(self, open_span: str | None):
        super().__init__(open_span)
        self.open_span = open_span


@dataclass
class Outcome:
    verdicts: dict
    texts: tuple
    oracles_agree: bool | None = None


def run_triage(cli, case, index: int) -> Outcome:
    t = cli.load_triplet(case.texts[0])
    rc, _ = cli.classify_report(t, 64)
    rc["batch_index"] = index
    rs, _ = cli.subnormal_report(t, 8, 1e-8)
    rs["batch_index"] = index
    texts = (cli.dumps(rc), cli.dumps(rs))
    return Outcome(
        {"classify": rc["verdict"], "subnormal": rs["verdict"]}, texts, rs.get("oracles_agree")
    )


def run_similar(cli, case, index: int) -> Outcome:
    t = cli.load_triplet(case.texts[0])
    rs, _ = cli.similar_report(t, 512)
    rs["batch_index"] = index
    rm, _ = cli.model_report(t, 32)
    rm["batch_index"] = index
    return Outcome({"similar": rs["verdict"], "model": rm["verdict"]}, (cli.dumps(rs), cli.dumps(rm)))


def run_compare(cli, case, index: int) -> Outcome:
    ta = cli.load_triplet(case.texts[0])
    tb = cli.load_triplet(case.texts[1])
    r, _ = cli.compare_report(ta, tb, 512)
    return Outcome({"compare": r["verdict"]}, (cli.dumps(r),))


UNDECIDED = "Inconclusive"


def triage_wrong(label: dict, v: dict) -> str | None:
    if "type" in label and v["classify"] not in (f"Type{label['type']}", UNDECIDED):
        return f"classify {v['classify']} for type {label['type']}"
    if "subnormal" in label:
        want = "Subnormal" if label["subnormal"] else "NotSubnormal"
        if v["subnormal"] not in (want, UNDECIDED):
            return f"subnormal {v['subnormal']} for {want}"
    if v["subnormal"] == "InvalidTriplet":
        return "valid triplet reported invalid"
    return None


def similar_wrong(label: dict, v: dict) -> str | None:
    accept = {True: ("Similar", "Subnormal"), False: ("NotSimilar",)}
    if "similar" in label and v["similar"] not in accept[label["similar"]] + (UNDECIDED,):
        return f"similar {v['similar']} for similar={label['similar']}"
    if v["similar"] == "InvalidTriplet":
        return "valid triplet reported invalid"
    if v["model"] != "Model":  # every fuzz triplet is type III
        return f"model {v['model']} for a type-III triplet"
    return None


def compare_wrong(label: dict, v: dict) -> str | None:
    accept = {True: "Similar", False: "NotSimilar"}
    if "similar" in label and v["compare"] not in (accept[label["similar"]], UNDECIDED):
        return f"compare {v['compare']} for similar={label['similar']}"
    if v["compare"] == "InvalidTriplet":
        return "valid triplets reported invalid"
    return None


@dataclass(frozen=True)
class Workload:
    run: Callable
    wrong: Callable
    decided_keys: tuple
    budget_s: float
    # fixed tail percentile: the highest of p95/p90/p85/p80 with at least ten
    # successful specs beyond it at the seed commit, so it reads a measured
    # latency and not the budget, and a failure more or less moves it by one
    # rank among many
    tail_pct: float
    setup_args: tuple
    # the traced run covers the first trace_specs cases (the corpus is shuffled)
    trace_specs: int


WORKLOADS = {
    # successful specs <= 20 ms at the seed commit and nothing hangs: 0.1 s is
    # 5x above the slowest
    "triage": Workload(
        run_triage, triage_wrong, ("classify", "subnormal"), 0.1, 95.0,
        ("classify", SMALL_SPEC), 1000,
    ),
    # successful runs <= 0.19 s (a top atom just over 1e-4 above 1 with a tiny
    # mass); the beta-scan hangs on the O(n) Horner kernel run > 20 s: 0.6 s
    # sits 3.2x above the one and 33x below the other
    "similar_fuzz": Workload(
        run_similar, similar_wrong, ("similar",), 0.6, 80.0, ("similar", SMALL_SPEC), 120
    ),
    # successful pairs <= 0.22 s and nothing hangs: 1 s is 4.5x above the slowest
    "compare_pairs": Workload(
        run_compare, compare_wrong, ("compare",), 1.0, 80.0,
        ("compare", SMALL_SPEC, SMALL_SPEC_B), 80,
    ),
}


@dataclass
class RunStats:
    """Per-spec execution times, and the outcome of each spec's first run."""

    elapsed_ms: dict = field(default_factory=dict)  # case index -> [ms per execution]
    failure: dict = field(default_factory=dict)  # case index -> (kind, layer)
    wrong_examples: list = field(default_factory=list)
    decided: int = 0
    bytes_out: int = 0
    agree: int = 0
    both_decided: int = 0
    unstable: int = 0  # repeat executions whose outcome differed from the first
    wall_s: float = 0.0

    @property
    def attempted(self) -> int:
        return len(self.elapsed_ms)

    @property
    def failed(self) -> int:
        return len(self.failure)

    @property
    def failures(self) -> dict:
        counts: dict = {}
        for key in self.failure.values():
            counts[key] = counts.get(key, 0) + 1
        return counts

    def latencies_ms(self, budget_ms: float) -> list:
        """Per-spec latency: the fastest of its executions, the budget if it failed."""
        return [
            budget_ms if i in self.failure else min(times)
            for i, times in self.elapsed_ms.items()
        ]

    def pass_seconds(self) -> float:
        """One pass at every spec's fastest execution time, failures as they ran."""
        return sum(min(times) for times in self.elapsed_ms.values()) / 1000.0


def innermost_layer(exc: BaseException) -> str:
    """Module of the innermost cpdshift frame in the traceback ("bench" if none)."""
    layer, tb = "bench", exc.__traceback__
    pkg = str(PKG)
    while tb is not None:
        filename = tb.tb_frame.f_code.co_filename
        if filename.startswith(pkg):
            layer = Path(filename).stem
        tb = tb.tb_next
    return layer


def run_pass(cli, workload: Workload, cases, stats: RunStats, indices=None, tracer=None) -> None:
    """Run each case at indices (default: all) once, in order, under the budget timer."""
    t_pass = time.perf_counter()
    for index in range(len(cases)) if indices is None else indices:
        case = cases[index]
        if tracer is not None:
            tracer.spec_id = index
            first_span = len(tracer.start)
        failure = None
        t0 = time.perf_counter()
        try:
            signal.setitimer(signal.ITIMER_REAL, workload.budget_s)
            try:
                out = workload.run(cli, case, index)
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0.0)
        except BudgetExceeded as exc:
            failure = ("budget", exc.open_span.split(".")[0] if exc.open_span else innermost_layer(exc))
        except Exception as exc:  # any library error is a measured failure of this spec
            failure = ("exception", innermost_layer(exc))
        dt_ms = (time.perf_counter() - t0) * 1000.0
        if failure is not None and tracer is not None:
            tracer.close_open_spans(first_span)
        if failure is None:
            problem = workload.wrong(case.label, out.verdicts)
            for verdict in out.verdicts.values():
                if not any(f'"verdict": "{verdict}"' in text for text in out.texts):
                    problem = problem or f"verdict {verdict} missing from the report text"
            if problem:
                failure = ("wrong", "verdict")
                if index not in stats.elapsed_ms and len(stats.wrong_examples) < 5:
                    stats.wrong_examples.append(f"{case.family}: {problem}: {case.texts}")
        if index in stats.elapsed_ms:
            stats.elapsed_ms[index].append(dt_ms)
            stats.unstable += failure != stats.failure.get(index)
            continue
        stats.elapsed_ms[index] = [dt_ms]
        if failure is not None:
            stats.failure[index] = failure
            continue
        stats.bytes_out += sum(len(text) for text in out.texts)
        if all(out.verdicts[k] != UNDECIDED for k in workload.decided_keys):
            stats.decided += 1
        if out.oracles_agree is not None:
            stats.both_decided += 1
            stats.agree += bool(out.oracles_agree)
    stats.wall_s += time.perf_counter() - t_pass


def cold_starts(args: tuple, count: int) -> list:
    """Wall times of `count` fresh `cpdshift <args>` processes, spawn to exit."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    cmd = [sys.executable, "-c", "import sys; from cpdshift.cli import main; sys.exit(main())"]
    times = []
    for _ in range(count):
        t0 = time.perf_counter()
        proc = subprocess.run(
            cmd + list(args), cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE
        )
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError(f"cpdshift {args[0]} exited {proc.returncode}: {proc.stderr!r}")
    return times


def percentile(sorted_values, pct: float) -> float:
    """Nearest-rank percentile."""
    rank = max(1, math.ceil(pct / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]


def describe_failures(stats: RunStats) -> str:
    if not stats.failures:
        return "none"
    parts = []
    for kind in ("exception", "budget", "wrong"):
        items = sorted((layer, n) for (k, layer), n in stats.failures.items() if k == kind)
        if items:
            parts.append(f"{kind}: " + ", ".join(f"{layer} {n}" for layer, n in items))
    return "; ".join(parts)


def end_to_end(name: str, workload: Workload, cases, seconds: float, cli) -> tuple[RunStats, dict]:
    """One pass over every spec, then repeat passes while they fit in `seconds`.

    A spec that ran into the budget is not run again: the gap the budget sits
    in makes that outcome certain, and it is scored at the budget anyway.
    Every other spec's latency is the fastest of its runs: on a shared
    machine the same spec runs up to 1.6x slower from one moment to the next,
    and the fastest of many runs spread over the whole run is what repeats.
    """
    cold_starts(workload.setup_args, 1)  # warms the file cache and writes bytecode
    spawns = cold_starts(workload.setup_args, SETUP_SPAWNS // 3)
    stats = RunStats()
    run_pass(cli, workload, cases, stats)
    spawns += cold_starts(workload.setup_args, SETUP_SPAWNS // 3)
    again = [i for i in range(len(cases)) if stats.failure.get(i, ("",))[0] != "budget"]
    repeat_s = sum(stats.elapsed_ms[i][0] for i in again) / 1000.0
    passes = 1
    while stats.wall_s + repeat_s <= seconds:
        before = stats.wall_s
        run_pass(cli, workload, cases, stats, again)
        repeat_s = stats.wall_s - before
        passes += 1
    # spawns spread over the run sample the machine's state over all of it
    spawns += cold_starts(workload.setup_args, SETUP_SPAWNS - len(spawns))
    setup_s = statistics.median(spawns)
    budget_ms = workload.budget_s * 1000.0
    lat = sorted(stats.latencies_ms(budget_ms))
    n = len(lat)
    tail = percentile(lat, workload.tail_pct)
    beyond = sum(1 for x in lat if x > tail)
    metrics = {
        "setup_s": (setup_s, "s"),
        "specs_per_s": (n / stats.pass_seconds(), "1/s"),
        "spec_ms_p50": (statistics.median(lat), "ms"),
        "spec_ms_tail": (tail, "ms"),
        "ok_ratio": (1.0 - stats.failed / n, "1"),
        "decided_ratio": (stats.decided / n, "1"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
    }
    slowest = max((max(t) for i, t in stats.elapsed_ms.items() if i not in stats.failure), default=0.0)
    print(f"workload {name}: {n} specs, {passes} passes ({len(again)} specs repeated), "
          f"budget {workload.budget_s * 1000:g} ms/spec, wall {stats.wall_s:.2f} s, "
          f"slowest successful run {slowest:.2f} ms, {stats.unstable} unstable repeats")
    print(f"  setup_s        {setup_s:.4f} s  (median of {len(spawns)} fresh `cpdshift "
          f"{workload.setup_args[0]}` processes: before, between and after the passes)")
    print(f"  specs_per_s    {metrics['specs_per_s'][0]:.4f} 1/s")
    print(f"  spec_ms_p50    {metrics['spec_ms_p50'][0]:.4f} ms")
    print(f"  spec_ms_tail   {tail:.4f} ms  (p{workload.tail_pct:g} of {n} specs, {beyond} beyond)")
    print(f"  fail_ratio     {stats.failed / n:.4f} 1  ({stats.failed}/{n}; {describe_failures(stats)})")
    print(f"  ok_ratio       {metrics['ok_ratio'][0]:.4f} 1")
    print(f"  decided_ratio  {metrics['decided_ratio'][0]:.4f} 1")
    print(f"  peak_rss_mb    {metrics['peak_rss_mb'][0]:.2f} MiB")
    return stats, metrics


def per_layer(name: str, workload: Workload, cases, cli, seed: int) -> tuple[RunStats, dict]:
    cases = cases[: workload.trace_specs]
    plain = RunStats()
    run_pass(cli, workload, cases, plain)
    tracer = spans.Tracer()
    tracer.install()
    signal.signal(signal.SIGALRM, _budget_handler(tracer))
    traced = RunStats()
    try:
        run_pass(cli, workload, cases, traced, tracer=tracer)
    finally:
        tracer.uninstall()
        signal.signal(signal.SIGALRM, _budget_handler(None))
    out_dir = BENCH / "out"
    out_dir.mkdir(exist_ok=True)
    tracer.save(out_dir / f"spans-{name}-seed{seed}.npz")

    n = traced.attempted
    totals = tracer.totals()
    metrics = {
        metric: (layer_total(metric, totals, tracer.counters, traced) / n, unit)
        for metric, (unit, _) in PER_LAYER.items()
    }
    metrics["subnormality.oracles_agree_ratio"] = (
        traced.agree / traced.both_decided if traced.both_decided else 0.0,
        "1",
    )
    metrics["trace.overhead"] = (traced.wall_s / plain.wall_s, "1")
    print(f"workload {name} traced: {n} specs, {len(tracer.start)} spans; "
          f"{plain.attempted / plain.wall_s:.2f} specs/s untraced, {n / traced.wall_s:.2f} traced")
    print(f"  fail_ratio     {traced.failed / n:.4f} traced ({describe_failures(traced)}), "
          f"{plain.failed / n:.4f} untraced ({describe_failures(plain)})")
    for metric, (value, unit) in metrics.items():
        print(f"  {metric:46s} {value:14.6g} {unit}")
    return traced, metrics


END_TO_END = {
    "setup_s": ("s", "lower"),
    "specs_per_s": ("1/s", "higher"),
    "spec_ms_p50": ("ms", "lower"),
    "spec_ms_tail": ("ms", "lower"),
    "ok_ratio": ("1", "higher"),
    "decided_ratio": ("1", "higher"),
    "peak_rss_mb": ("MiB", "lower"),
}

# metric -> (unit, better); values are per attempted spec of the traced pass
PER_LAYER = {
    "qpoly.q_poly.calls": ("count/spec", "lower"),
    "qpoly.q_poly.self_ms": ("ms/spec", "lower"),
    "qpoly.q_poly_log.calls": ("count/spec", "lower"),
    "qpoly.q_poly_log.self_ms": ("ms/spec", "lower"),
    "qpoly.errors": ("count/spec", "lower"),
    "measures.moment.calls": ("count/spec", "lower"),
    "measures.log_moment.calls": ("count/spec", "lower"),
    "measures.self_ms": ("ms/spec", "lower"),
    "core.validate_triplet.calls": ("count/spec", "lower"),
    "core.validate_triplet.self_ms": ("ms/spec", "lower"),
    "core.validate_triplet.scan_steps": ("count/spec", "lower"),
    "core.ShiftSequences.built": ("count/spec", "lower"),
    "core.gamma.calls": ("count/spec", "lower"),
    "core.gamma.self_ms": ("ms/spec", "lower"),
    "core.log_gamma.calls": ("count/spec", "lower"),
    "core.log_gamma.self_ms": ("ms/spec", "lower"),
    "core.beta.calls": ("count/spec", "lower"),
    "core.beta.self_ms": ("ms/spec", "lower"),
    "core.weight.self_ms": ("ms/spec", "lower"),
    "core.classify_type.self_ms": ("ms/spec", "lower"),
    "core.errors": ("count/spec", "lower"),
    "subnormality.is_subnormal.self_ms": ("ms/spec", "lower"),
    "subnormality.hankel_psd_oracle.self_ms": ("ms/spec", "lower"),
    "subnormality.necessary_conditions.self_ms": ("ms/spec", "lower"),
    "subnormality.oracles_agree_ratio": ("1", "higher"),
    "similarity.similar_by_beta.self_ms": ("ms/spec", "lower"),
    "similarity.similar_by_beta.terms": ("count/spec", "lower"),
    "similarity.criterion_ineqsuf.self_ms": ("ms/spec", "lower"),
    "similarity.criterion_weight_band.self_ms": ("ms/spec", "lower"),
    "similarity.criterion_nyttrs.self_ms": ("ms/spec", "lower"),
    "similarity.criterion_kdwq.self_ms": ("ms/spec", "lower"),
    "similarity.model_subnormal.self_ms": ("ms/spec", "lower"),
    "similarity.b2_identity_check.self_ms": ("ms/spec", "lower"),
    "quasiaffine.quasi_affine_test.calls": ("count/spec", "lower"),
    "quasiaffine.quasi_affine_test.self_ms": ("ms/spec", "lower"),
    "quasiaffine.similarity_test.self_ms": ("ms/spec", "lower"),
    "quasiaffine.intertwiner_defect.self_ms": ("ms/spec", "lower"),
    "cli.load_triplet.self_ms": ("ms/spec", "lower"),
    "cli.report.self_ms": ("ms/spec", "lower"),
    "cli.dumps.self_ms": ("ms/spec", "lower"),
    "cli.bytes_out": ("B/spec", "lower"),
    **{f"{layer}.budget_hits": ("count/spec", "lower") for layer in spans.LAYERS},
    "trace.overhead": ("1", "lower"),
}

# metric stem -> the span names it sums, where they differ
SPAN_NAMES = {
    "core.ShiftSequences.built": ("core.ShiftSequences.__init__",),
    "core.gamma": ("core.ShiftSequences.gamma",),
    "core.log_gamma": ("core.ShiftSequences.log_gamma",),
    "core.beta": ("core.ShiftSequences.beta",),
    "core.weight": ("core.ShiftSequences.weight",),
    "measures.moment": ("measures.AtomicMeasure.moment",),
    "measures.log_moment": ("measures.AtomicMeasure.log_moment",),
    "cli.report": tuple(
        f"cli.{cmd}_report" for cmd in ("classify", "subnormal", "similar", "model", "compare")
    ),
}


def layer_total(metric: str, totals: dict, counters: dict, stats: RunStats) -> float:
    """Sum of a per-layer count or self time over the traced pass."""
    stem, _, kind = metric.rpartition(".")
    if kind in ("scan_steps", "terms"):
        return counters.get(metric, 0)
    if kind in ("errors", "budget_hits"):
        return stats.failures.get(("exception" if kind == "errors" else "budget", stem), 0)
    if metric == "cli.bytes_out":
        return stats.bytes_out
    if metric == "measures.self_ms":
        return sum(ns for span, (_, ns) in totals.items() if span.startswith("measures.")) / 1e6
    if metric == "core.ShiftSequences.built":
        return totals[SPAN_NAMES[metric][0]][0]
    names = SPAN_NAMES.get(stem, (stem,))
    if kind == "calls":
        return sum(totals[span][0] for span in names)
    if kind == "self_ms":
        return sum(totals[span][1] for span in names) / 1e6
    return 0.0  # ratios, set by the caller


def _budget_handler(tracer):
    def handler(signum, frame):
        raise BudgetExceeded(tracer.open_span() if tracer is not None else None)

    return handler


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (PKG / "cli.py").is_file():
        print(f"error: no cpdshift sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from cpdshift import cli

    workload = WORKLOADS[args.workload]
    cases = corpus.WORKLOADS[args.workload](args.seed)
    signal.signal(signal.SIGALRM, _budget_handler(None))
    warm = corpus.Case(tuple(workload.setup_args[1:]), {}, "warm-up")
    for i in range(3):
        workload.run(cli, warm, i)

    if args.trace:
        stats, metrics = per_layer(args.workload, workload, cases, cli, args.seed)
    else:
        stats, metrics = end_to_end(args.workload, workload, cases, args.seconds, cli)
    for example in stats.wrong_examples:
        print(f"  wrong verdict: {example}")
    wrong = sum(n for (kind, _), n in stats.failures.items() if kind == "wrong")
    result = {
        "correct": wrong == 0,
        "attempted": stats.attempted,
        "failed": stats.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
