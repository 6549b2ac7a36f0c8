"""Span tracing installed from outside the library.

Tracer.install wraps the public functions of each cpdshift module, and the
public methods of ShiftSequences and AtomicMeasure, in span recorders.  A
wrapped function is rebound under every name that refers to it in any loaded
cpdshift module (cpdshift.cli.validate_triplet, cpdshift.core.q_poly,
cpdshift.measures.q_poly, ...), so calls between modules are seen too.
Tracer.uninstall puts the originals back.

Spans live in flat typed arrays (name, parent, spec id, start, end in ns) until
the run ends; self time is computed from them afterwards.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

import numpy as np

LAYERS = ("qpoly", "measures", "core", "subnormality", "similarity", "quasiaffine", "cli")

FUNCTIONS = {
    "qpoly": ("q_poly", "q_poly_log"),
    "core": ("validate_triplet", "classify_type"),
    "subnormality": ("is_subnormal", "hankel_psd_oracle", "necessary_conditions"),
    "similarity": (
        "similar_by_beta",
        "criterion_ineqsuf",
        "criterion_weight_band",
        "criterion_nyttrs",
        "criterion_kdwq",
        "model_subnormal",
        "b2_identity_check",
    ),
    "quasiaffine": ("quasi_affine_test", "similarity_test", "intertwiner_defect"),
    "cli": (
        "load_triplet",
        "classify_report",
        "subnormal_report",
        "similar_report",
        "model_report",
        "compare_report",
        "dumps",
    ),
}
CLASSES = {"core": "ShiftSequences", "measures": "AtomicMeasure"}


def _scan_steps(verdict) -> int:
    w = verdict.witness
    return int(w.get("settled_at", w.get("witness_index", w.get("steps", 0))))


# counters read from the verdicts that traced functions return
RESULT_COUNTERS = {
    "core.validate_triplet": ("core.validate_triplet.scan_steps", _scan_steps),
    "similarity.similar_by_beta": (
        "similarity.similar_by_beta.terms",
        lambda v: int(v.witness.get("scanned_to", 0)),
    ),
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_id: array = array("H")
        self.parent: array = array("q")
        self.spec: array = array("q")
        self.start: array = array("q")
        self.end: array = array("q")
        self.stack: list[int] = []
        self.spec_id = -1
        self.counters: dict[str, int] = {}
        self._restore: list[tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------------

    def _wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        clock = time.perf_counter_ns
        name_ids, parents, specs, starts, ends, stack = (
            self.name_id,
            self.parent,
            self.spec,
            self.start,
            self.end,
            self.stack,
        )
        counter = RESULT_COUNTERS.get(name)
        counters = self.counters

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1] if stack else -1)
            specs.append(self.spec_id)
            ends.append(0)
            stack.append(sid)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[sid] = clock()
                stack.pop()
            if counter is not None:
                key, read = counter
                counters[key] = counters.get(key, 0) + read(result)
            return result

        return traced

    def open_span(self) -> str | None:
        """Name of the innermost span still running."""
        return self.names[self.name_id[self.stack[-1]]] if self.stack else None

    def close_open_spans(self, first_span: int) -> None:
        """After an interrupted spec: end every span it left open, now.

        The interrupt may have landed between the appends of one span record;
        the columns are cut back to their common length first.
        """
        columns = (self.name_id, self.parent, self.spec, self.start, self.end)
        n = min(len(col) for col in columns)
        for col in columns:
            del col[n:]
        now = time.perf_counter_ns()
        for sid in range(first_span, n):
            if self.end[sid] == 0:
                self.end[sid] = now
        self.stack.clear()

    # -- installation -----------------------------------------------------------

    def install(self) -> None:
        mods = {name: mod for name, mod in sys.modules.items() if name.startswith("cpdshift")}
        for layer, funcs in FUNCTIONS.items():
            mod = mods[f"cpdshift.{layer}"]
            for fname in funcs:
                original = getattr(mod, fname)
                wrapped = self._wrap(f"{layer}.{fname}", original)
                for other in mods.values():
                    for attr, value in list(vars(other).items()):
                        if value is original:
                            self._rebind(other, attr, wrapped)
        for layer, cls_name in CLASSES.items():
            cls = getattr(mods[f"cpdshift.{layer}"], cls_name)
            for attr, value in list(vars(cls).items()):
                if attr.startswith("_") and attr != "__init__":
                    continue
                if isinstance(value, classmethod):
                    span = f"{layer}.{cls_name}.{attr}"
                    self._rebind(cls, attr, classmethod(self._wrap(span, value.__func__)))
                elif callable(value):
                    self._rebind(cls, attr, self._wrap(f"{layer}.{cls_name}.{attr}", value))

    def _rebind(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    # -- results ----------------------------------------------------------------

    def arrays(self) -> dict:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.uint16),
            "parent": np.frombuffer(self.parent, dtype=np.int64),
            "spec": np.frombuffer(self.spec, dtype=np.int64),
            "start_ns": np.frombuffer(self.start, dtype=np.int64),
            "end_ns": np.frombuffer(self.end, dtype=np.int64),
        }

    def save(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())

    def totals(self) -> dict:
        """{span name: (calls, self time in ns)} over every recorded span."""
        a = self.arrays()
        own = self_times(a["parent"], a["start_ns"], a["end_ns"])
        calls = np.bincount(a["name_id"], minlength=len(self.names))
        self_ns = np.bincount(a["name_id"], weights=own, minlength=len(self.names))
        return {n: (int(calls[i]), float(self_ns[i])) for i, n in enumerate(self.names)}


def self_times(parent, start, end):
    """Span duration minus the durations of its direct children.

    Spans come from one thread, so the children of a span never overlap and
    their durations add up to the part of the parent they cover.
    """
    parent = np.asarray(parent, dtype=np.int64)
    dur = np.asarray(end, dtype=np.float64) - np.asarray(start, dtype=np.float64)
    has_parent = parent >= 0
    covered = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
    return dur - covered
