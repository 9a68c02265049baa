"""In-memory span tracing of rankci's layers, installed from outside.

The traced run replaces public functions at the names under which
``rankci.harness``, ``rankci.cli`` and ``rankci.crc`` bind them with wrappers
that record a span per call: name, start, end, parent span and thread.  The
package itself is not modified, and nothing is patched outside
:meth:`Tracer.patched`, so untraced runs execute the plain code.

A span's parent is the innermost open span on its own thread.  A span that
opens on a thread with no open span (a harness worker thread) takes the
innermost open span of the main thread as its parent, which is the
``harness.sweep`` call that handed it the work.
"""

from __future__ import annotations

import contextlib
import importlib
import itertools
import threading
import time
from collections import defaultdict

# module -> attribute -> span name.  The layer is the part before the dot.
PATCHES = {
    "rankci.harness": {
        "sweep": "harness.sweep",
        "aggregate": "harness.aggregate",
        "per_query_rows": "harness.per_query",
        "bias_dataset": "synth.transform",
        "oracle_dataset": "synth.transform",
        "true_utilities": "metrics.utilities",
        "predicted_utilities": "metrics.utilities",
        "bootstrap_ci": "bootstrap.ci",
        "ppi_estimate": "ppi.estimate",
        "ppi_ci": "ppi.ci",
        "build_batches": "crc.build_batches",
        "calibrate": "crc.calibrate",
        "crc_ci": "crc.ci",
        "stream": "seeding.stream",
        "child_seed": "seeding.stream",
        "build_dataset": "corpus.parse",
        "generate": "synth.generate",
    },
    "rankci.cli": {
        "main": "cli.main",
        "build_dataset": "corpus.parse",
        "parse_run": "corpus.parse",
        "parse_qrels": "corpus.parse",
        "infer_scale_from_dists": "corpus.scale",
        "validate_dataset": "model.validate",
        "true_utilities": "metrics.utilities",
        "predicted_utilities": "metrics.utilities",
        "bootstrap_ci": "bootstrap.ci",
        "ppi_estimate": "ppi.estimate",
        "ppi_ci": "ppi.ci",
        "build_batches": "crc.build_batches",
        "calibrate": "crc.calibrate",
        "crc_ci": "crc.ci",
        "sweep": "harness.sweep",
        "generate": "synth.generate",
    },
    "rankci.crc": {
        "stream": "seeding.stream",
        "query_utility_true": "metrics.utilities",
    },
}

# Positional/keyword text arguments whose length counts as parsed bytes.
_TEXT_ARGS = {"build_dataset": ("run_text", "dists_text", "qrels_text"),
              "parse_run": ("text",), "parse_qrels": ("text",)}


class Tracer:
    """Collects spans and counters for one traced run."""

    def __init__(self):
        self.spans: list[dict] = []
        self.counts: defaultdict[str, float] = defaultdict(float)
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._stacks: dict[int, list[int]] = {}
        self._main = threading.get_ident()

    @contextlib.contextmanager
    def span(self, name: str):
        thread = threading.get_ident()
        with self._lock:
            sid = next(self._ids)
            stack = self._stacks.setdefault(thread, [])
            if stack:
                parent = stack[-1]
            elif thread != self._main and self._stacks.get(self._main):
                parent = self._stacks[self._main][-1]
            else:
                parent = None
            stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            with self._lock:
                stack.pop()
                self.spans.append({"id": sid, "name": name, "start": start, "end": end,
                                   "parent": parent, "thread": thread})

    def count(self, key: str, amount: float = 1.0) -> None:
        with self._lock:
            self.counts[key] += amount

    def _wrap(self, attr: str, name: str, fn):
        text_args = _TEXT_ARGS.get(attr, ())

        def traced(*args, **kwargs):
            self.count(f"{attr}.calls")
            if text_args:
                named = dict(zip(text_args, args), **kwargs)
                self.count("corpus.chars", sum(len(named.get(k) or "") for k in text_args))
            with self.span(name):
                result = fn(*args, **kwargs)
            if attr == "calibrate":
                self.count("calibrate.ok")
            elif attr == "build_batches":
                self.count("batch_entries", sum(len(b) for b in result))
            return result

        return traced

    @contextlib.contextmanager
    def patched(self):
        """Install the wrappers of :data:`PATCHES`; restore the originals on exit."""
        saved = []
        try:
            for module_name, attrs in PATCHES.items():
                module = importlib.import_module(module_name)
                for attr, name in attrs.items():
                    original = getattr(module, attr)
                    saved.append((module, attr, original))
                    setattr(module, attr, self._wrap(attr, name, original))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total, cur_start, cur_end = 0.0, None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id -> duration minus the part of it covered by child spans."""
    children: defaultdict[int, list[dict]] = defaultdict(list)
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]].append(s)
    out = {}
    for s in spans:
        clipped = [(max(c["start"], s["start"]), min(c["end"], s["end"]))
                   for c in children[s["id"]]]
        covered = _union_length([iv for iv in clipped if iv[1] > iv[0]])
        out[s["id"]] = (s["end"] - s["start"]) - covered
    return out


def worker_busy_frac(spans: list[dict], workers: int) -> float:
    """Time each thread spends inside a direct child span of ``harness.sweep``,
    summed over threads, over (sweep wall time x workers).  0 without sweeps."""
    sweeps = {s["id"]: s for s in spans if s["name"] == "harness.sweep"}
    if not sweeps:
        return 0.0
    per_thread: defaultdict[tuple[int, int], list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s["parent"] in sweeps:
            per_thread[(s["parent"], s["thread"])].append((s["start"], s["end"]))
    busy = sum(_union_length(ivs) for ivs in per_thread.values())
    wall = sum(s["end"] - s["start"] for s in sweeps.values())
    return busy / (wall * workers)


def layer_metrics(tracer: Tracer, workers: int) -> dict[str, float]:
    """The per-layer metrics of spec.json from the recorded spans and counters."""
    selfs = self_times(tracer.spans)
    by_name: defaultdict[str, float] = defaultdict(float)
    for s in tracer.spans:
        by_name[s["name"]] += selfs[s["id"]]
    c = tracer.counts
    parse_s = by_name["corpus.parse"] + by_name["corpus.scale"]
    calibrate_calls = c["calibrate.calls"]
    return {
        "crc.calibrate_s": by_name["crc.calibrate"],
        "crc.calibrate_calls": calibrate_calls,
        "crc.calibrate_ok_ratio": c["calibrate.ok"] / calibrate_calls if calibrate_calls else 0.0,
        "crc.build_batches_s": by_name["crc.build_batches"],
        "crc.batch_entries": c["batch_entries"],
        "crc.ci_s": by_name["crc.ci"],
        "crc.ci_calls": c["crc_ci.calls"],
        "corpus.parse_s": parse_s,
        "corpus.mb_per_s": c["corpus.chars"] / 1e6 / parse_s if parse_s else 0.0,
        "model.validate_s": by_name["model.validate"],
        "synth.generate_s": by_name["synth.generate"],
        "synth.transform_s": by_name["synth.transform"],
        "synth.transform_calls": c["bias_dataset.calls"] + c["oracle_dataset.calls"],
        "metrics.utilities_s": by_name["metrics.utilities"],
        "metrics.utilities_calls": (c["true_utilities.calls"] + c["predicted_utilities.calls"]
                                    + c["query_utility_true.calls"]),
        "bootstrap.ci_s": by_name["bootstrap.ci"],
        "bootstrap.ci_calls": c["bootstrap_ci.calls"],
        "ppi.ci_s": by_name["ppi.estimate"] + by_name["ppi.ci"],
        "ppi.ci_calls": c["ppi_ci.calls"],
        "seeding.stream_s": by_name["seeding.stream"],
        "seeding.stream_calls": c["stream.calls"] + c["child_seed.calls"],
        "harness.sweep_self_s": by_name["harness.sweep"],
        "harness.aggregate_s": by_name["harness.aggregate"],
        "harness.per_query_s": by_name["harness.per_query"],
        "harness.worker_busy_frac": worker_busy_frac(tracer.spans, workers),
        "cli.self_s": by_name["cli.main"],
    }
