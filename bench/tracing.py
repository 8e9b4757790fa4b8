"""Spans around the library's public functions, and per-layer totals.

The traced run replaces functions at the module attributes that the
harness looks up at call time (``experiment.sample_matrix``,
``cuts.random_cut``, ``bipartization.find_codd_member`` ...), so no library
source changes; ``traced()`` puts the originals back when it exits.  Spans
stay in memory and are written out once, after the run.

A new trial starts at each ``experiment.sample_matrix`` call, which is the
first traced call of every trial.  The traced run makes one serial pass per
experiment seed of the workload, so its spans cover a fixed amount of work.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from typing import Iterator, Optional

import numpy as np

# module -> public functions the traced run wraps
TRACED = {
    "experiment": ("sample_matrix", "cut_weight", "discrepancy"),
    "cuts": (
        "random_cut",
        "majority_cut",
        "brute_force_max_cut",
        "brute_force_min_discrepancy",
        "cut_weight",
    ),
    "bipartization": ("weak_bipartization", "find_codd_member", "extract_coloring"),
    "textio": ("format_coloring", "parse_coloring"),
}

SAMPLE = "experiment.sample_matrix"
CORE = ("experiment.cut_weight", "experiment.discrepancy", "cuts.cut_weight")
HEURISTICS = ("cuts.random_cut", "cuts.majority_cut")
ORACLES = ("cuts.brute_force_max_cut", "cuts.brute_force_min_discrepancy")
BIPARTIZE = "bipartization.weak_bipartization"
DETECT = "bipartization.find_codd_member"
EXTRACT = "bipartization.extract_coloring"
TEXTIO = ("textio.format_coloring", "textio.parse_coloring")

# Candidate tail percentiles, highest first; the tail is the first one with
# at least TAIL_MIN_BEYOND trials above it.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0)
TAIL_MIN_BEYOND = 10


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into the span list, -1 at top level
    trial: int
    counts: dict = field(default_factory=dict)


def _counts(name: str, args: tuple, result) -> dict:
    """Work counts read off a call's arguments and result, outside its span."""
    if name == SAMPLE:
        return {"ones": result.diagonal_sum()}
    if name in ORACLES:
        return {"colorings": 2 ** (args[0].n - 1)}
    if name == BIPARTIZE:
        return {
            "rematches": result.iterations,
            "terminated": int(result.terminated),
            "codd_encounters": result.codd_encounters,
        }
    return {}


class Tracer:
    """Collects spans from the wrapped functions of one serial run."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._trial = -1

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            if name == SAMPLE:
                self._trial += 1
            index = len(self.spans)
            span = Span(name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self._trial)
            self.spans.append(span)
            self._stack.append(index)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            span.counts = _counts(name, args, result)
            return result

        return functools.wraps(fn)(traced)

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as out:
            for span in self.spans:
                out.write(json.dumps(asdict(span)) + "\n")


def _modules() -> dict:
    return {name: importlib.import_module(f"wrig_lab.{name}") for name in TRACED}


def originals() -> dict[str, object]:
    """The current objects at every traced attribute, by span name."""
    modules = _modules()
    return {
        f"{mod}.{attr}": getattr(modules[mod], attr)
        for mod, attrs in TRACED.items()
        for attr in attrs
    }


@contextmanager
def traced() -> Iterator[Tracer]:
    """Wrap every traced attribute for the duration of the block."""
    modules = _modules()
    saved = originals()
    tracer = Tracer()
    try:
        for name, fn in saved.items():
            mod, attr = name.split(".")
            setattr(modules[mod], attr, tracer.wrap(name, fn))
        yield tracer
    finally:
        for name, fn in saved.items():
            mod, attr = name.split(".")
            setattr(modules[mod], attr, fn)


def read_spans(path: str) -> list[Span]:
    with open(path, encoding="utf-8") as src:
        return [Span(**json.loads(line)) for line in src if line.strip()]


def tail_percentile(count: int) -> Optional[float]:
    """Highest candidate percentile with at least TAIL_MIN_BEYOND samples beyond it."""
    for q in TAIL_PERCENTILES:
        if count * (100.0 - q) / 100.0 >= TAIL_MIN_BEYOND:
            return q
    return None


def trial_times(spans: list[Span]) -> list[float]:
    """Seconds per trial, from its first span's start to its last span's end.

    The harness's own work between trials (records, CSV rows) is left to
    ``experiment.self_s``.
    """
    bounds: dict[int, tuple[float, float]] = {}
    for span in spans:
        start, end = bounds.get(span.trial, (span.start, span.end))
        bounds[span.trial] = (min(start, span.start), max(end, span.end))
    return [end - start for start, end in bounds.values()]


def layer_metrics(spans: list[Span], wall: float) -> tuple[dict[str, float], str]:
    """Per-layer busy (self) times and counts of one traced run.

    Returns the metrics by name and the label of the tail percentile used
    for ``experiment.trial_ms.tail``.
    """
    child_time = [0.0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            child_time[span.parent] += span.end - span.start
    self_time: dict[str, float] = {}
    calls: dict[str, int] = {}
    totals: dict[str, int] = {}
    top_level = 0.0
    for span, children in zip(spans, child_time):
        duration = span.end - span.start
        self_time[span.name] = self_time.get(span.name, 0.0) + duration - children
        calls[span.name] = calls.get(span.name, 0) + 1
        for key, value in span.counts.items():
            totals[key] = totals.get(key, 0) + value
        if span.parent < 0:
            top_level += duration

    def busy(*names: str) -> float:
        return sum(self_time.get(name, 0.0) for name in names)

    def count(*names: str) -> int:
        return sum(calls.get(name, 0) for name in names)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    oracle_busy = busy(*ORACLES)
    rematches = totals.get("rematches", 0)
    per_trial_ms = [1000.0 * t for t in trial_times(spans)]
    tail_q = tail_percentile(len(per_trial_ms))
    if not per_trial_ms:
        p50 = tail = 0.0
        tail_label = "none"
    else:
        p50 = float(np.percentile(per_trial_ms, 50.0))
        if tail_q is None:
            tail, tail_label = max(per_trial_ms), "max"
        else:
            tail, tail_label = float(np.percentile(per_trial_ms, tail_q)), f"p{tail_q:g}"
    metrics = {
        "sampling.busy_s": busy(SAMPLE),
        "sampling.calls": count(SAMPLE),
        "sampling.ones": totals.get("ones", 0),
        "core.busy_s": busy(*CORE),
        "core.calls": count(*CORE),
        "cuts.heuristic.busy_s": busy(*HEURISTICS),
        "cuts.oracle.busy_s": oracle_busy,
        "cuts.oracle.colorings": totals.get("colorings", 0),
        "cuts.oracle.colorings_per_s": ratio(totals.get("colorings", 0), oracle_busy),
        "bipartization.busy_s": busy(BIPARTIZE, DETECT, EXTRACT),
        "bipartization.detect.calls": count(DETECT),
        "bipartization.detect.busy_s": busy(DETECT),
        "bipartization.rematches": rematches,
        "bipartization.terminated_frac": ratio(
            totals.get("terminated", 0), count(BIPARTIZE)
        ),
        "bipartization.cycles_per_rematch": ratio(
            totals.get("codd_encounters", 0), rematches
        ),
        "bipartization.extract.busy_s": busy(EXTRACT),
        "textio.busy_s": busy(*TEXTIO),
        "textio.calls": count(*TEXTIO),
        "experiment.self_s": wall - top_level,
        "experiment.trial_ms.p50": p50,
        "experiment.trial_ms.tail": tail,
    }
    return metrics, tail_label
