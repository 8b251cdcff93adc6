"""The two workloads and the rounds they run.

A run writes its inputs as an fvec file and loads them, builds the served
index, checks two exact scans against a numpy brute-force ranking and warms
the index up with untimed queries, whose answers are the reference for every
later check. Then it drops its own copy of the vectors and repeats rounds. A
round runs the workload's steps (``Spec.steps``) in order, with one slice of
the round's chunk of closed-loop member queries (k+1, self dropped) before
each step:

  setup  load_dataset of the fvec file + values64
  build  one more build of the served index (timed, then dropped)
  save   save_index of the served index
  load   load_index, then 200 queries on the loaded index
  scan   one knn_exact scan, the IE reference
  sweep  parameter_sweep over the workload's (L, K) grid

Every end-to-end metric is reported on every workload, so each workload also
takes a sample or two of the others' operations; it spends most of a round on
its own. Round 0 always runs to its end (its answers are the digested ones);
after it, the run stops at the first step that begins once ``--seconds`` have
passed.

On a shared host everything a process runs gets slower or faster together,
by up to a half, in phases that last from seconds to minutes. So the round
also times ``_reference_work``, a fixed loop of the benchmark's own (dict
building and lookups, matrix-vector products and argsorts, like the
library's mix), before each step and at its end, keeping the median of three
calls. Every timing sample is rescaled by REFERENCE_SECONDS over the mean of
the reference times just before and just after it: the end-to-end timings
are seconds on a host that runs the reference loop in REFERENCE_SECONDS. A
change to the library moves them as it moves wall time; the host's phase
does not.

A traced run does round 0 five times: untraced to warm up, then untraced,
traced, traced, untraced. The answers must agree, and half the traced minus
untraced wall time of the last four is the tracing overhead, which this
order keeps free of a steady drift in the host's speed. A last pass counts
``Dataset.row_of`` calls over the round's queries, with no other wrapper in
place.
"""

from __future__ import annotations

import bisect
import hashlib
import os
import resource
import statistics
from dataclasses import dataclass, field, replace
from time import perf_counter

import numpy as np

from lshkit import binary_lsh, dataset, evaluation, exact, persistence, real_lsh

import tracing
from checks import Digest, answer_problems, oracle_problems, percentile

K = 10
# about the median time of _reference_work on a shared 2-vCPU Intel Xeon
# (2.0 GHz) virtual machine; any fixed value would do, this one keeps the
# rescaled timings close to wall time there
REFERENCE_SECONDS = 0.006
WARMUP_QUERIES = 500
ORACLE_SCANS = 2
CHECK_QUERIES = 200
SWEEP_QUERIES = 100  # one per class for the first 100 classes


@dataclass(frozen=True)
class Spec:
    classes: int
    per_class: int
    dim: int
    kind: str  # "binary" (SimHash) or "real" (p-stable floor projections)
    L: int
    K: int
    metric: str
    queries_per_class: int
    queries_per_round: int
    steps: tuple[str, ...]
    sweep_L: tuple[int, ...]
    sweep_K: tuple[int, ...]
    std: float = 1.0
    w: float = 4.0


WORKLOADS = {
    # query path: ~310 candidates per query through candidates, row_of,
    # cosine distances_to and rank_top_k; builds are its other own step
    "serve": Spec(1000, 100, 128, "binary", 10, 12, "cosine", 5, 2400,
                  ("build", "setup", "scan", "save", "scan", "load", "build", "setup", "scan", "sweep", "scan"),
                  (1,), (12,)),
    # tuning loop: the 4x3 grid at 20k x 128 and 16 exact scans a round; the
    # served index is the grid's middle cell
    "sweep": Spec(100, 200, 128, "real", 8, 3, "cosine", 50, 1200,
                  ("sweep", *["scan"] * 8, "build", "setup", "save", "load", *["scan"] * 8,
                   "build", "setup", "save", "load"),
                  (2, 4, 8, 16), (2, 3, 4)),
}


def spec_for(workload: str, scale: str) -> Spec:
    spec = WORKLOADS[workload]
    if scale == "tiny":
        return replace(spec, classes=100, per_class=25, dim=16, queries_per_class=10)
    return spec


@dataclass
class Inputs:
    vectors: np.ndarray  # float32, row r has id r
    label_ids: np.ndarray
    query_ids: list[int]  # round robin: query j of every class, then j + 1
    members: list[np.ndarray]  # ids per class


def make_inputs(spec: Spec, seed: int) -> Inputs:
    """Gaussian mixture in shuffled row order, and held-out member queries."""
    rng = np.random.default_rng(seed)
    n = spec.classes * spec.per_class
    centroids = rng.standard_normal((spec.classes, spec.dim))
    label_ids = rng.permutation(np.repeat(np.arange(spec.classes), spec.per_class))
    noise = rng.standard_normal((n, spec.dim)) * spec.std
    vectors = (centroids[label_ids] + noise).astype(np.float32)
    members = [np.flatnonzero(label_ids == c) for c in range(spec.classes)]
    picks = [rng.choice(m, size=spec.queries_per_class, replace=False) for m in members]
    query_ids = [int(picks[c][j]) for j in range(spec.queries_per_class) for c in range(spec.classes)]
    return Inputs(vectors, label_ids, query_ids, members)


@dataclass
class Outcome:
    """What a run measured and checked."""

    metrics: dict[str, float] = field(default_factory=dict)
    notes: dict[str, str] = field(default_factory=dict)
    digests: dict[str, str] = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0

    def check(self, problems) -> None:
        """Count one operation, failed if it produced any problem."""
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems)


def _chunk(items, size: int, r: int) -> list:
    """The r-th chunk of ``size`` items, wrapping around the list."""
    return [items[(r * size + i) % len(items)] for i in range(size)]


class Workload:
    """One workload's state across rounds: the served index, the timing
    samples in the order taken, and the first answer seen for every query and
    scan."""

    def __init__(self, spec: Spec, seed: int, workdir: str):
        self.spec = spec
        self.seed = seed
        inputs = make_inputs(spec, seed)
        self.n = len(inputs.vectors)
        self.label_ids = inputs.label_ids
        self.members = inputs.members
        self.query_ids = inputs.query_ids
        # only the query vectors outlive set-up, so peak_rss_mb is the library's
        self.qvec = {qid: inputs.vectors[qid].copy() for qid in self.query_ids}
        self.fvec = os.path.join(workdir, "data.fvec")
        self.snapshot = os.path.join(workdir, "index.snapshot")
        self.out = Outcome()
        # (sample name, durations) in the order they were taken
        self.timeline: list[tuple[str, list[float]]] = []
        self.reference_rows = np.random.default_rng(0).standard_normal((2000, 128))
        self.answers: dict[int, tuple] = {}
        self.scan_answers: dict[int, tuple] = {}
        self.csv = None
        self.tracer = None
        dataset.save_dataset(
            dataset.Dataset(spec.dim, [f"class_{c:04d}" for c in range(spec.classes)], np.arange(self.n),
                            inputs.label_ids, inputs.vectors),
            self.fvec,
        )
        self.ds = dataset.load_dataset(self.fvec)
        self.out.check([] if np.array_equal(self.ds.vectors, inputs.vectors)
                       else ["the loaded fvec file differs from the vectors written"])
        for qid in self._scan_ids(0)[:ORACLE_SCANS]:
            q = self.qvec[qid]
            results, stats = exact.knn_exact(self.ds, q, K + 1, spec.metric)
            self.scan_answers[qid] = (results, stats)
            self.out.check(answer_problems(qid, results, stats) + oracle_problems(
                qid, results, inputs.vectors, np.arange(self.n), q, spec.metric))
        del inputs
        self.index = self._new_index()
        for qid in self.query_ids[:WARMUP_QUERIES]:
            self.answers[qid] = self.index.query(self.qvec[qid], K + 1, spec.metric)

    def _scan_ids(self, r: int) -> list[int]:
        return _chunk(self.query_ids, self.spec.steps.count("scan"), r)

    def _phase(self, name: str) -> None:
        if self.tracer is not None:
            self.tracer.phase = name

    def _timed(self, name: str, fn, *args, **kwargs):
        self._phase(name)
        t0 = perf_counter()
        result = fn(*args, **kwargs)
        self.timeline.append((name, [perf_counter() - t0]))
        return result

    def round(self, r: int, deadline: float = float("inf")) -> float:
        """Run round ``r``, or its steps that begin before ``deadline``;
        returns its wall time."""
        s = self.spec
        scans = iter(self._scan_ids(r))
        queries = _chunk(self.query_ids, s.queries_per_round, r)
        cuts = np.linspace(0, len(queries), len(s.steps) + 1).astype(int)
        start = perf_counter()
        for step, lo, hi in zip(s.steps, cuts, cuts[1:]):
            if perf_counter() >= deadline:
                break
            self._queries(queries[lo:hi])
            self._reference()
            if step == "scan":
                self._scan(next(scans))
            else:
                getattr(self, "_" + step)()
        self._reference()
        return perf_counter() - start

    def _reference(self) -> None:
        """Time the reference loop three times and keep the median."""
        times = []
        for _ in range(3):
            t0 = perf_counter()
            self._reference_work()
            times.append(perf_counter() - t0)
        self.timeline.append(("reference", [statistics.median(times)]))

    def _reference_work(self) -> int:
        """A fixed loop, unrelated to lshkit, that measures the host's speed."""
        table = {i: i for i in range(30000)}
        total = sum(table[i] for i in range(0, 30000, 2))
        rows = self.reference_rows
        for i in range(16):
            total += int(np.argsort(rows @ rows[i])[0])
        return total

    def _setup(self) -> None:
        ds = self._timed("setup", self._load_dataset)
        self.out.check([] if len(ds) == self.n else [f"loaded {len(ds)} vectors, wrote {self.n}"])

    def _load_dataset(self):
        ds = dataset.load_dataset(self.fvec)
        ds.values64  # the cached float64 copy every distance kernel reads
        return ds

    def _new_index(self):
        s = self.spec
        if s.kind == "binary":
            return binary_lsh.BinaryLshIndex.build(self.ds, binary_lsh.BinaryLshParams(s.L, s.K, self.seed))
        return real_lsh.RealLshIndex.build(self.ds, real_lsh.RealLshParams(s.L, s.K, s.w, self.seed))

    def _build(self) -> None:
        self._timed("build", self._new_index)
        self.out.check([])

    def _save(self) -> None:
        self._timed("save", persistence.save_index, self.index, self.snapshot)
        self.out.check([] if os.path.getsize(self.snapshot) > 0 else ["save_index wrote an empty file"])

    def _load(self) -> None:
        """The loaded index must answer the first queries exactly as the built one."""
        loaded = self._timed("load", persistence.load_index, self.snapshot, self.ds)
        self.out.check([
            f"query {qid}: loaded index answers differently"
            for qid in self.query_ids[:CHECK_QUERIES]
            if loaded.query(self.qvec[qid], K + 1, self.spec.metric) != self.answers[qid]
        ])

    @staticmethod
    def _same_as_before(seen: dict, key, answer) -> list[str]:
        first = seen.setdefault(key, answer)
        return [] if answer == first else [f"{key}: answer differs from its first answer"]

    def _queries(self, qids) -> None:
        self._phase("queries")
        latencies = []
        self.timeline.append(("query", latencies))
        for qid in qids:
            t0 = perf_counter()
            try:
                answer = self.index.query(self.qvec[qid], K + 1, self.spec.metric)
            except Exception as exc:  # a raising query is a failed operation
                latencies.append(perf_counter() - t0)
                self.out.check([f"query {qid} raised {exc!r}"])
                continue
            latencies.append(perf_counter() - t0)
            self.out.check(answer_problems(qid, *answer) + self._same_as_before(self.answers, qid, answer))

    def _scan(self, qid: int) -> None:
        results, stats = self._timed("scan", exact.knn_exact, self.ds, self.qvec[qid], K + 1, self.spec.metric)
        problems = answer_problems(qid, results, stats)
        if not stats.distance_computations == stats.candidates_examined == self.n:
            problems.append(f"scan {qid}: charged {stats}, expected {self.n} distance computations")
        self.out.check(problems + self._same_as_before(self.scan_answers, qid, (results, stats)))

    def _sweep(self) -> None:
        s = self.spec
        rows = self._timed(
            "sweep", evaluation.parameter_sweep, self.ds, s.sweep_L, s.sweep_K, s.kind,
            query_ids=self.query_ids[:SWEEP_QUERIES], w=s.w, seed=self.seed, k=K, metric=s.metric,
        )
        text = evaluation.sweep_csv_text(rows)
        self.csv = self.csv or text
        self.out.check([] if text == self.csv else ["sweep CSV differs from the first sweep"])

    def digests(self) -> None:
        """Digest what round 0 answered, which traced and untraced runs share."""
        out = self.out
        digest = Digest()
        for qid in _chunk(self.query_ids, self.spec.queries_per_round, 0):
            if qid in self.answers:  # else it raised, already counted as failed
                digest.add_answer(qid, *self.answers[qid])
        out.digests["queries"] = digest.hexdigest()
        digest = Digest()
        for qid in self._scan_ids(0):
            digest.add_answer(qid, *self.scan_answers[qid])
        out.digests["scans"] = digest.hexdigest()
        out.digests["sweep"] = hashlib.sha256(self.csv.encode()).hexdigest()

    def accuracy(self) -> dict[str, float]:
        """``map`` and ``ie`` over what round 0 asked, which every untraced
        run asks whatever its length."""
        aps, cost = [], 0
        for qid in dict.fromkeys(_chunk(self.query_ids, self.spec.queries_per_round, 0)):
            if qid not in self.answers:
                continue
            results, stats = self.answers[qid]
            ranked = [rid for rid, _ in results if rid != qid][:K]
            relevant = set(self.members[self.label_ids[qid]].tolist()) - {qid}
            aps.append(evaluation.average_precision(ranked, relevant))
            cost += max(1, stats.distance_computations)
        self.out.notes["map"] = f"{len(aps)} queries"
        return {"map": sum(aps) / len(aps), "ie": self.n * len(aps) / cost}

    def timings(self) -> dict[str, float]:
        """Medians and percentiles of the timing samples, each rescaled to the
        reference host speed around it."""
        refs = [(i, xs[0]) for i, (name, xs) in enumerate(self.timeline) if name == "reference"]
        scaled: dict[str, list[float]] = {}
        raw: dict[str, list[float]] = {}
        for i, (name, xs) in enumerate(self.timeline):
            if name == "reference" or not xs:
                continue
            at = bisect.bisect(refs, (i,))
            around = [t for _, t in refs[max(0, at - 1):at + 1]]
            factor = REFERENCE_SECONDS / statistics.fmean(around)
            scaled.setdefault(name, []).extend(x * factor for x in xs)
            raw.setdefault(name, []).extend(xs)
        queries = scaled["query"]
        p50, _ = percentile(queries, 50)
        p99, beyond = percentile(queries, 99)
        metrics = {
            "setup_s": statistics.median(scaled["setup"]),
            "build_s": statistics.median(scaled["build"]),
            "query_p50_ms": 1e3 * p50,
            "query_p99_ms": 1e3 * p99,
            "queries_per_s": len(queries) / sum(queries),
            "scan_ms": 1e3 * statistics.median(scaled["scan"]),
            "sweep_s": statistics.median(scaled["sweep"]),
            "save_s": statistics.median(scaled["save"]),
            "load_s": statistics.median(scaled["load"]),
        }
        for metric, name in (("setup_s", "setup"), ("build_s", "build"), ("query_p50_ms", "query"),
                             ("scan_ms", "scan"), ("sweep_s", "sweep"), ("save_s", "save"), ("load_s", "load")):
            unit = 1e3 if metric.endswith("_ms") else 1.0
            self.out.notes[metric] = (f"median of {len(raw[name])}; "
                                      f"{unit * statistics.median(raw[name]):.6g} wall-clock")
        self.out.notes["query_p99_ms"] = f"{len(queries)} queries, {beyond} beyond p99"
        ref_ms = sorted(1e3 * t for _, t in refs)
        self.out.notes["queries_per_s"] = (f"reference loop {ref_ms[0]:.2f}-{ref_ms[-1]:.2f} ms, "
                                           f"median {statistics.median(ref_ms):.2f}, nominal "
                                           f"{1e3 * REFERENCE_SECONDS:g}")
        return metrics


def run(workload: str, seed: int, seconds: float, trace: bool, workdir: str, scale: str = "full") -> Outcome:
    w = Workload(spec_for(workload, scale), seed, workdir)
    if trace:
        return _traced(w)
    start = perf_counter()
    w.round(0)
    r = 1
    while perf_counter() - start < seconds:
        w.round(r, start + seconds)
        r += 1
    w.digests()
    w.out.metrics = {
        **w.timings(),
        **w.accuracy(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    w.out.notes["peak_rss_mb"] = f"{r} rounds in {perf_counter() - start:.1f} s"
    return w.out


def _traced(w: Workload) -> Outcome:
    w.round(0)  # warm-up: first calls allocate and fault in more than later ones
    tracer = tracing.Tracer()
    walls = []
    for traced in (False, True, True, False):
        if not traced:
            walls.append(w.round(0))
            continue
        w.tracer = tracer
        with tracing.installed(tracer):
            walls.append(w.round(0))
        w.tracer = None
    queries = _chunk(w.query_ids, w.spec.queries_per_round, 0)
    with tracing.counted_row_of() as calls:
        w._queries(queries)
    w.digests()
    overhead = (walls[1] + walls[2] - walls[0] - walls[3]) / 2
    w.out.metrics = tracing.layer_metrics(
        tracer,
        {"row_of_calls": calls[0] / len(queries),
         "snapshot_bytes": os.path.getsize(w.snapshot),
         "buckets": evaluation.bucket_statistics(w.index).num_buckets,
         "overhead_s": overhead},
    )
    w.out.notes["trace.overhead_s"] = "rounds untraced, traced, traced, untraced: " + ", ".join(
        f"{t:.3f} s" for t in walls)
    return w.out
