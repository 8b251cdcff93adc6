"""Outside-in tracing: spans around the calls one lshkit module makes into another.

`installed(tracer)` replaces, for the duration of a `with` block, the public
names each module looks up in another (the index methods, the distance
kernels bound in the index and exact modules, the evaluation and persistence
entry points) with wrappers that record a span per call. Nothing under
``src/`` is edited; leaving the block restores every original object.
``Dataset.row_of`` is called ~300 times per query, so a wrapper on it would
inflate the query's own time: `counted_row_of()` counts its calls in a pass
of its own instead.

A span records its name, start, end, the span that caused it (its parent),
the request it belongs to (the root span's id), the benchmark phase that was
running, and a few counts observed on the call's arguments or result. Self
time is a span's duration minus the time its direct children cover.
"""

from __future__ import annotations

import functools
import statistics
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter

from lshkit import binary_lsh, dataset, evaluation, exact, persistence, real_lsh


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    root: int
    phase: str
    start: float = 0.0
    end: float = 0.0
    child_time: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.child_time


class Tracer:
    """Keeps every span in memory; metrics are computed when the run ends."""

    def __init__(self):
        self.spans: list[Span] = []
        self.phase = ""
        self._stack: list[Span] = []

    def call(self, name, fn, args, kwargs, observe=None):
        parent = self._stack[-1] if self._stack else None
        sid = len(self.spans)
        span = Span(sid, name, parent.id if parent else None, parent.root if parent else sid, self.phase)
        self.spans.append(span)
        self._stack.append(span)
        span.start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span.end = perf_counter()
            self._stack.pop()
            if parent is not None:
                parent.child_time += span.duration
        if observe is not None:
            observe(span.attrs, args, result)
        return result


def _observe_candidates(attrs, args, result):
    unique, members = result
    attrs["unique"] = len(unique)
    attrs["members"] = members


def _observe_rows(attrs, args, result):
    attrs["rows"] = len(args[0])


def _observe_returned(attrs, args, result):
    attrs["returned"] = len(result)


def _observe_empty(attrs, args, result):
    attrs["empty"] = sum(o.empty_candidates for o in result[1])


def _observe_buckets(attrs, args, result):
    attrs["buckets"] = result.num_buckets


def _patches(tracer: Tracer):
    """(owner, attribute, replacement) for every traced name."""

    def traced(name, fn, observe=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return tracer.call(name, fn, args, kwargs, observe)

        return wrapper

    def traced_build(cls):
        return classmethod(traced("lsh.build", cls.__dict__["build"].__func__))

    out = [(dataset, "load_dataset", traced("dataset.load_dataset", dataset.load_dataset))]
    for cls in (binary_lsh.BinaryLshIndex, real_lsh.RealLshIndex):
        out.append((cls, "build", traced_build(cls)))
        out.append((cls, "candidates", traced("lsh.candidates", cls.candidates, _observe_candidates)))
        out.append((cls, "query", traced("lsh.query", cls.query)))
    for module in (binary_lsh, real_lsh, exact):
        out.append((module, "distances_to", traced("distances.distances_to", module.distances_to, _observe_rows)))
        out.append((module, "rank_top_k", traced("distances.rank_top_k", module.rank_top_k, _observe_returned)))
        out.append((module, "as_query", traced("distances.as_query", module.as_query)))
    for module in (exact, evaluation):
        out.append((module, "knn_exact", traced("exact.knn_exact", module.knn_exact)))
    out.append((evaluation, "run_config", traced("evaluation.run_config", evaluation.run_config, _observe_empty)))
    out.append(
        (evaluation, "bucket_statistics",
         traced("evaluation.bucket_statistics", evaluation.bucket_statistics, _observe_buckets))
    )
    for name in ("dataset_fingerprint", "save_index", "load_index"):
        out.append((persistence, name, traced(f"persistence.{name}", getattr(persistence, name))))
    return out


@contextmanager
def _patched(patches):
    """Install (owner, attribute, replacement) triples; restore the originals after."""
    saved = []
    try:
        for owner, attr, replacement in patches:
            saved.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, replacement)
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


@contextmanager
def installed(tracer: Tracer):
    """Trace every wrapped name inside the block."""
    with _patched(_patches(tracer)):
        yield tracer


@contextmanager
def counted_row_of():
    """Count ``Dataset.row_of`` calls inside the block; yields a one-item list."""
    calls = [0]
    row_of = dataset.Dataset.row_of

    def counting(self, vector_id):
        calls[0] += 1
        return row_of(self, vector_id)

    with _patched([(dataset.Dataset, "row_of", counting)]):
        yield calls


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def layer_metrics(tracer: Tracer, extra: dict) -> dict[str, float]:
    """Per-layer numbers from the spans, plus the counts the workload measured
    itself (row_of calls per query, snapshot bytes, buckets, tracing
    overhead) passed in ``extra``."""
    spans = tracer.spans
    by_name: dict[str, list[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def named(name, phase=None, parents=None):
        return [
            s for s in by_name.get(name, ())
            if (phase is None or s.phase == phase) and (parents is None or s.parent in parents)
        ]

    queries = named("lsh.query", "queries")
    qids = {s.id for s in queries}
    cands = named("lsh.candidates", parents=qids)
    dists = named("distances.distances_to", parents=qids)
    ranks = named("distances.rank_top_k", parents=qids)
    scans = named("exact.knn_exact", "scan")
    cells = named("evaluation.run_config", "sweep")
    stats = named("evaluation.bucket_statistics", "sweep")
    unique = sum(s.attrs["unique"] for s in cands)
    members = sum(s.attrs["members"] for s in cands)
    rows = sum(s.attrs["rows"] for s in dists)
    ms = 1e3
    return {
        "dataset.load_s": _median(s.duration for s in named("dataset.load_dataset", "setup")),
        "dataset.row_of.calls": extra["row_of_calls"],
        "lsh.build_s": _median(s.duration for s in named("lsh.build", "build")),
        "lsh.candidates_ms": ms * _mean(s.duration for s in cands),
        "lsh.query_self_ms": ms * _mean(s.self_time for s in queries),
        "lsh.candidates_per_query": _mean(s.attrs["unique"] for s in cands),
        "lsh.bucket_members_per_query": _mean(s.attrs["members"] for s in cands),
        "lsh.unique_ratio": unique / members if members else 0.0,
        "distances.distances_to_ms": ms * _mean(s.duration for s in dists),
        "distances.rows_scored": _mean(s.attrs["rows"] for s in dists),
        "distances.rank_top_k_ms": ms * _mean(s.duration for s in ranks),
        "distances.useful_ratio": sum(s.attrs["returned"] for s in ranks) / rows if rows else 0.0,
        "distances.scan_distances_to_ms": ms * _mean(
            s.duration for s in named("distances.distances_to", "scan", {s.id for s in scans})
        ),
        "exact.knn_exact_self_ms": ms * _mean(s.self_time for s in scans),
        "evaluation.cell_s": _mean(s.duration for s in cells),
        "evaluation.run_config_self_s": _mean(s.self_time for s in cells),
        "evaluation.bucket_statistics_s": _mean(s.duration for s in stats),
        "evaluation.buckets_counted": _mean(s.attrs["buckets"] for s in stats),
        "evaluation.empty_candidate_queries": _mean(s.attrs["empty"] for s in cells),
        "persistence.save_s": _median(s.duration for s in named("persistence.save_index", "save")),
        "persistence.load_s": _median(s.duration for s in named("persistence.load_index", "load")),
        "persistence.fingerprint_s": _median(
            s.duration for s in named("persistence.dataset_fingerprint")
        ),
        "persistence.snapshot_bytes": extra["snapshot_bytes"],
        "persistence.buckets": extra["buckets"],
        "trace.overhead_s": extra["overhead_s"],
        "trace.spans": len(spans),
    }
