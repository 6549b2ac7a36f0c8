"""Command-line surface.

Subcommands: classify, subnormal, similar, model, compare, series, examples.
Triplet specs are JSON ({"b": ..., "c": ..., "nu": {"atoms": [[x, w], ...]}})
given inline, as a file path, or "-" for stdin.  Exit codes: 0 decided,
2 inconclusive, 1 input error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from itertools import chain
from json.encoder import encode_basestring_ascii as _quote

from .core import CLASSIFY_TAG, ScalarTriplet, ShiftSequences, TypeLabel, as_sequences
from .core import classify_type
from .core import validate_triplet  # noqa: F401  (t.validation calls it; bench/spans.py traces it)
from .measures import AtomicMeasure
from .quasiaffine import INTERTWINER_RTOL, intertwiner_defect, similarity_test
from .similarity import MODEL_TAG, ModelDegenerateError, model_subnormal, similar_by_beta
from .subnormality import (
    NECESSARY_TAG,
    NecessaryReport,
    _dichotomy,
    hankel_psd_oracle,
    is_subnormal,
    necessary_conditions,
)
from .verdict import Verdict

EXIT_DECIDED = 0
EXIT_INPUT_ERROR = 1
EXIT_INCONCLUSIVE = 2


class InputError(Exception):
    pass


# -- serialization -----------------------------------------------------------


def _fmt(x: float) -> str:
    return format(x, ".17g")


# the quoted, %-escaped text of each str met as a key or a value: the reports
# draw both from a small fixed set, and the cap bounds what other callers add
_TEXT: dict[str, str] = {}
_TEXT_CAP = 1024


def _text(s: str) -> str:
    text = _quote(s).replace("%", "%%")
    if len(_TEXT) < _TEXT_CAP:
        _TEXT[s] = text
    return text


def dumps(obj, indent: int = 0) -> str:
    """JSON text with every float printed to 17 significant digits.

    JSON-native values dispatch on their exact type; anything else prints as
    its native counterpart: subclasses of float, int, str, dict, list and tuple
    by value, report objects through their to_json, numpy scalars and arrays
    through tolist.  dict keys print as str(key).  Non-finite floats print as
    the strings "nan", "inf" and "-inf".

    Five records, matched by exact type, print the text of their to_json from
    their fields, with no dict built: Verdict, its witness not copied,
    TypeLabel, NecessaryReport, and AtomicMeasure and ScalarTriplet, whose
    float points, masses, b and c take a slot each with no finiteness test,
    for their constructors reject every non-finite one.

    One pass builds the text with a %.17g slot for each finite float, every
    other % escaped, and one % fill prints all the floats at the end.
    """
    nl = "\n" if indent else ""
    step = " " * indent
    floats: list[float] = []
    texts = _TEXT

    def emit(o, pad):
        """The text of o, its closing line indented by pad."""
        kind = type(o)
        if kind is float:
            if math.isfinite(o):
                floats.append(o)
                return "%.17g"
            return '"nan"' if math.isnan(o) else ('"inf"' if o > 0 else '"-inf"')
        if kind is str:
            return texts.get(o) or _text(o)
        if kind is dict:
            if not o:
                return "{}"
            inner = pad + step
            # a str value, the most common kind, is looked up here and not through a call
            items = [
                ((type(k) is str and texts.get(k)) or _text(str(k)))
                + ": "
                + ((type(v) is str and texts.get(v)) or emit(v, inner))
                for k, v in o.items()
            ]
            return "{" + nl + inner + ("," + nl + inner).join(items) + nl + pad + "}"
        if kind is list or kind is tuple:
            if not o:
                return "[]"
            inner = pad + step
            sep = "," + nl + inner
            # a sum is finite only if every term is
            if set(map(type, o)) == {float} and math.isfinite(sum(o)):
                floats.extend(o)
                items = "%.17g" + (sep + "%.17g") * (len(o) - 1)
            else:
                items = sep.join([emit(v, inner) for v in o])
            return "[" + nl + inner + items + nl + pad + "]"
        if o is None:
            return "null"
        if kind is bool:
            return "true" if o else "false"
        if kind is int:
            return str(o)
        inner = pad + step
        if kind is Verdict:
            witness = o.witness if type(o.witness) is dict else dict(o.witness)
            parts = [
                '"criterion": ' + emit(o.criterion, inner),
                '"outcome": ' + emit(o.outcome, inner),
                '"witnesses": ' + emit(witness, inner),
                '"citation": ' + emit(o.citation, inner),
            ]
            if o.note:
                parts.append('"note": ' + emit(o.note, inner))
        elif kind is TypeLabel:
            parts = ['"type": ' + emit(o.kind, inner), '"dim": ' + emit(o.dim, inner)]
        elif kind is NecessaryReport:
            parts = [
                '"applicable": ' + emit(o.applicable, inner),
                '"note": ' + emit(o.note, inner),
                '"conditions": ' + emit([c.to_json() for c in o.conditions], inner),
                '"certifies_not_similar": ' + emit(o.not_similar, inner),
            ]
        # finite, for the constructors of a triplet and a measure reject non-finite ones
        elif kind is ScalarTriplet and type(o.b) is float and type(o.c) is float:
            floats.append(o.b)
            floats.append(o.c)
            parts = ['"b": %.17g', '"c": %.17g', '"nu": ' + emit(o.nu, inner)]
        elif kind is AtomicMeasure and set(map(type, chain.from_iterable(o.atoms))) <= {float}:
            floats.extend(chain.from_iterable(o.atoms))
            row = inner + step
            pair = "[" + nl + row + step + "%.17g," + nl + row + step + "%.17g" + nl + row + "]"
            run = ("," + nl + row).join([pair] * len(o.atoms))
            parts = ['"atoms": ' + ("[" + nl + row + run + nl + inner + "]" if run else "[]")]
        else:
            return emit(_native(o), pad)
        return "{" + nl + inner + ("," + nl + inner).join(parts) + nl + pad + "}"

    return emit(obj, "") % tuple(floats)


def _native(o):
    """The JSON-native value that o prints as."""
    if hasattr(o, "to_json"):
        return o.to_json()
    for base in (float, int, str, dict, list, tuple):
        if isinstance(o, base):
            return base(o)
    if hasattr(o, "tolist"):
        return o.tolist()
    raise TypeError(f"cannot serialize {type(o).__name__}")


# -- input loading ------------------------------------------------------------


def _load_json_text(spec: str) -> dict:
    if spec == "-":
        text = sys.stdin.read()
    elif spec.lstrip().startswith("{"):
        text = spec
    else:
        try:
            with open(spec, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise InputError(f"cannot read spec file {spec!r}: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"invalid JSON: {exc}") from exc


def load_triplet(spec: str) -> ScalarTriplet:
    obj = _load_json_text(spec)
    try:
        return ScalarTriplet.from_json(obj)
    except (ValueError, TypeError) as exc:
        raise InputError(f"invalid triplet spec: {exc}") from exc


# -- per-command reports ------------------------------------------------------


def _validated_header(t: ScalarTriplet, command: str) -> tuple[dict, ShiftSequences | None, int]:
    """Open the report of t with the keys input, valid and command.

    Returns (report, sequences, exit code).  When t is not validated the
    sequences are None, and the report, verdict included, and the exit code
    are final.
    """
    v = t.validation
    report = {"input": t, "valid": v, "command": command}
    if v.is_yes:
        return report, as_sequences(t), EXIT_DECIDED
    report["verdict"] = "InvalidTriplet" if v.is_no else "Inconclusive"
    return report, None, EXIT_DECIDED if v.is_no else EXIT_INCONCLUSIVE


def classify_report(t: ScalarTriplet, n_max: int) -> tuple[dict, int]:
    report, seqs, code = _validated_header(t, "classify")
    if seqs is None:
        return report, code
    label = classify_type(seqs)
    beta0, *betas = seqs.betas(n_max + 1)
    report["type"] = label
    report["beta"] = {
        "beta0": beta0,
        "min_over_1_to_n_max": min(betas),
        "all_positive_1_to_n_max": all(b > 0.0 for b in betas),
        "n_max": n_max,
    }
    report["verdict"] = f"Type{label.kind}"
    report["citation"] = CLASSIFY_TAG
    return report, EXIT_DECIDED


def subnormal_report(t: ScalarTriplet, hankel_order: int, tol: float) -> tuple[dict, int]:
    report, seqs, code = _validated_header(t, "subnormal")
    if seqs is None:
        return report, code
    sub = is_subnormal(seqs)
    moments = seqs.gammas(2 * hankel_order + 2)
    oracle = hankel_psd_oracle(moments, hankel_order, tol)
    report["subnormal"] = sub
    report["hankel_oracle"] = oracle
    report["oracles_agree"] = None if oracle.is_inconclusive else sub.outcome == oracle.outcome
    report["verdict"] = "Subnormal" if sub.is_yes else "NotSubnormal"
    report["citation"] = sub.citation
    return report, EXIT_DECIDED


def similar_report(t: ScalarTriplet, n_max: int | None = None) -> tuple[dict, int]:
    """Type, subnormality, necessary conditions and the similarity verdict of t.

    For type III the criteria block holds similar_by_beta alone, the one
    criterion that decides similarity to the model shift: for atomic nu the
    paper's sufficient criteria each need a top atom above 1, where it reads
    yes already, so they stay in similarity.py as library functions and out
    of the report.  n_max is unused: similar_by_beta decides every index in
    closed form.
    """
    report, seqs, code = _validated_header(t, "similar")
    if seqs is None:
        return report, code
    label = classify_type(seqs)
    sub = is_subnormal(seqs)
    nec = necessary_conditions(seqs)
    report["type"] = label
    report["subnormal"] = sub
    report["necessary_conditions"] = nec

    dich = beta = None
    if label.kind in ("I", "II"):
        dich = _dichotomy(label.kind, sub)
        report["dichotomy"] = dich
    else:
        beta = similar_by_beta(seqs)
        report["criteria"] = {"similar_by_beta": beta}

    # aggregation precedence: Subnormal > NotSimilar > Similar > Inconclusive
    if sub.is_yes:
        verdict, citation = "Subnormal", sub.citation
    elif dich is not None and dich.is_no:
        verdict, citation = "NotSimilar", dich.citation
    elif nec.not_similar:
        verdict = "NotSimilar"
        citation = f"{NECESSARY_TAG}({','.join(nec.failed_ids)})"
    elif beta is not None and beta.is_yes:
        verdict, citation = "Similar", beta.citation
    else:
        verdict, citation = "Inconclusive", ""
    report["verdict"] = verdict
    if citation:
        report["citation"] = citation
    return report, EXIT_DECIDED if verdict != "Inconclusive" else EXIT_INCONCLUSIVE


def model_report(t: ScalarTriplet, n_max: int) -> tuple[dict, int]:
    report, seqs, code = _validated_header(t, "model")
    if seqs is None:
        return report, code
    try:
        berger = model_subnormal(seqs)
    except ModelDegenerateError as exc:
        report["model"] = None
        report["verdict"] = "ModelDegenerate"
        report["reason"] = str(exc)
        return report, EXIT_DECIDED
    report["model"] = {
        "mu0": seqs.defect_measure,
        "berger": berger,
        "moments": berger.moments(n_max),
        "weights": berger.weights(n_max),
    }
    report["verdict"] = "Model"
    report["citation"] = MODEL_TAG
    return report, EXIT_DECIDED


def compare_report(
    ta: ScalarTriplet, tb: ScalarTriplet, n_max: int | None = None
) -> tuple[dict, int]:
    """Similarity of two triplets by their growth classes, and the intertwiner check.

    n_max is unused: the growth classes of two triplets need no window.
    """
    report: dict = {"command": "compare", "input_a": ta, "input_b": tb}
    for name, t in (("a", ta), ("b", tb)):
        v = report[f"valid_{name}"] = t.validation
        if not v.is_yes:
            report["verdict"] = "InvalidTriplet" if v.is_no else "Inconclusive"
            return report, EXIT_DECIDED if v.is_no else EXIT_INCONCLUSIVE
    seqs_a, seqs_b = as_sequences(ta), as_sequences(tb)
    sim = similarity_test(seqs_a, seqs_b)
    defect, scale = intertwiner_defect(seqs_a, seqs_b, m=32)
    report["similarity"] = sim
    report["intertwiner"] = {
        "defect": defect,
        "scale": scale,
        "within_tolerance": defect <= INTERTWINER_RTOL * scale,
    }
    report["verdict"] = "Similar" if sim.is_yes else "NotSimilar"
    report["citation"] = sim.citation
    return report, EXIT_DECIDED


def series_rows(seqs: ShiftSequences, n_max: int):
    for n, (gamma, weight, beta, log_gamma) in enumerate(zip(*seqs.columns(n_max + 1))):
        yield {"n": n, "gamma": gamma, "lambda": weight, "beta": beta, "log_gamma": log_gamma}


# -- argument parsing ---------------------------------------------------------


def _checked(cast, ok, want: str):
    """An argparse type: cast the text, and reject a value that fails ok."""

    def parse(text: str):
        value = cast(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {want}, got {text}")
        return value

    parse.__name__ = cast.__name__  # argparse names the type in "invalid int value"
    return parse


_count = _checked(int, lambda n: n >= 1, "at least 1")
_order = _checked(int, lambda n: n >= 0, "nonnegative")
_tolerance = _checked(float, lambda x: 0.0 < x < math.inf, "finite and positive")


# each single-spec command: its report function and the flags that function
# reads, as (parameter, type, default) in the order it takes them
REPORTS = {
    "classify": (classify_report, (("n_max", _count, 64),)),
    "subnormal": (subnormal_report, (("hankel_order", _order, 8), ("tol", _tolerance, 1e-8))),
    "similar": (similar_report, ()),
    "model": (model_report, (("n_max", _count, 32),)),
}

# each examples case: the generate_3uwre keywords its generator reads, one flag each
CASES = {
    1: ("b", "c", "alpha", "point"),
    2: ("b", "c", "t", "alpha", "point"),
    3: ("tau", "t", "theta", "alpha", "with_positive_c"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cpdshift",
        description="Classify CPD weighted shifts and decide subnormality/similarity.",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    for name, (_, flags) in REPORTS.items():
        p = sub.add_parser(name)
        p.add_argument("spec", nargs="?", help="triplet JSON, file path, or -")
        p.add_argument("--batch", metavar="FILE", help="JSON-lines file of triplet specs")
        for key, kind, default in flags:
            p.add_argument("--" + key.replace("_", "-"), type=kind, default=default)

    p = sub.add_parser("compare")
    p.add_argument("spec_a")
    p.add_argument("spec_b")

    p = sub.add_parser("series")
    p.add_argument("spec")
    p.add_argument("--n-max", type=_count, default=64)
    fmt = p.add_mutually_exclusive_group()
    fmt.add_argument("--json", dest="fmt", action="store_const", const="json")
    fmt.add_argument("--csv", dest="fmt", action="store_const", const="csv")
    p.set_defaults(fmt="csv")

    p = sub.add_parser("examples")
    ex_sub = p.add_subparsers(dest="example_kind", required=True)
    pw = ex_sub.add_parser("wab")
    pw.add_argument("--a", type=float, required=True)
    pw.add_argument("--b", type=float, required=True)
    for case, keywords in CASES.items():
        # a flag left out is absent from the namespace, so generate_3uwre's default holds
        pc = ex_sub.add_parser(f"case{case}", argument_default=argparse.SUPPRESS)
        pc.set_defaults(case=case)
        for key in keywords:
            if key == "with_positive_c":
                pc.add_argument("--positive-c", dest=key, action="store_true")
            else:
                pc.add_argument("--" + key, type=float)
    return parser


def _report(args, spec: str) -> tuple[dict, int]:
    """The report and exit code of the single-spec command args.cmd on spec."""
    build, flags = REPORTS[args.cmd]
    return build(load_triplet(spec), *(getattr(args, key) for key, _, _ in flags))


def _run_batch(args) -> int:
    worst = EXIT_DECIDED
    try:
        with open(args.batch, "r", encoding="utf-8") as fh:
            lines = [ln for ln in fh if ln.strip()]
    except OSError as exc:
        print(f"error: cannot read batch file: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    for i, line in enumerate(lines):
        try:
            report, code = _report(args, line.strip())
            report["batch_index"] = i
            print(dumps(report))
        except InputError as exc:
            print(dumps({"batch_index": i, "error": str(exc)}))
            code = EXIT_INPUT_ERROR
        if code == EXIT_INPUT_ERROR:
            worst = EXIT_INPUT_ERROR
        elif code == EXIT_INCONCLUSIVE and worst != EXIT_INPUT_ERROR:
            worst = EXIT_INCONCLUSIVE
    return worst


def main(argv=None) -> int:
    level = os.environ.get("CPDSHIFT_LOG")
    if level:
        import logging

        logging.basicConfig(level=getattr(logging, level.upper(), logging.WARNING))
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on a usage error, which reads as inconclusive
        if not exc.code:
            raise  # --help
        return EXIT_INPUT_ERROR

    try:
        code = _run_command(args)
        sys.stdout.flush()  # a reader that closed the pipe shows here, not at exit
        return code
    except BrokenPipeError:
        # the flush at exit then writes what is left to devnull, quietly
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_INPUT_ERROR
    except (InputError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


def _run_command(args) -> int:
    if args.cmd in REPORTS:
        if args.batch:
            return _run_batch(args)
        if not args.spec:
            raise InputError("a triplet spec (or --batch FILE) is required")
        report, code = _report(args, args.spec)
        print(dumps(report, indent=2))
        return code

    if args.cmd == "compare":
        ta = load_triplet(args.spec_a)
        tb = load_triplet(args.spec_b)
        report, code = compare_report(ta, tb)
        print(dumps(report, indent=2))
        return code

    if args.cmd == "series":
        t = load_triplet(args.spec)
        v = t.validation
        if v.is_no:
            raise InputError(f"triplet is not a valid shift generator: {v.outcome}")
        if v.is_inconclusive:
            print(f"inconclusive: {v.note or 'validation undecided'}", file=sys.stderr)
            return EXIT_INCONCLUSIVE
        rows = list(series_rows(as_sequences(t), args.n_max))
        if args.fmt == "csv":
            print("n,gamma,lambda,beta,log_gamma")
            for r in rows:
                cells = [str(r["n"])] + [
                    _fmt(r[k]) if math.isfinite(r[k]) else "inf"
                    for k in ("gamma", "lambda", "beta", "log_gamma")
                ]
                print(",".join(cells))
        else:
            print(dumps(rows, indent=2))
        return EXIT_DECIDED

    if args.cmd == "examples":
        return _run_examples(args)
    raise AssertionError(args.cmd)


def _run_examples(args) -> int:
    from .wab import generate_3uwre, wab_classify

    if args.example_kind == "wab":
        cl = wab_classify(args.a, args.b)
        if not cl.cpd:
            print(
                f"error: W(a={args.a}, b={args.b}) is not CPD (theta = {cl.theta})",
                file=sys.stderr,
            )
            return EXIT_INPUT_ERROR
        doc = cl.triplet.to_json()
        doc["meta"] = {"family": "wab", "classification": cl.to_json()}
        print(dumps(doc, indent=2))
        return EXIT_DECIDED
    given = {key: value for key, value in vars(args).items() if key in CASES[args.case]}
    example = generate_3uwre(args.case, **given)
    print(dumps(example.to_json(), indent=2))
    return EXIT_DECIDED


if __name__ == "__main__":
    sys.exit(main())
