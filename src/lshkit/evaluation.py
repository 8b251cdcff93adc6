"""Retrieval evaluation: AP/mAP, efficiency, bucket statistics, parameter
sweeps, per-class analysis, correlation, and distractor robustness.

The evaluation protocol indexes the full dataset and queries it with held-out
members; a query vector is always excluded from both its own result list and
its relevant set, so self-matches never inflate precision. Efficiency (IE) is
the ratio of total sequential-scan cost to total index cost over a query set,
costs measured in distance computations.
"""

from __future__ import annotations

import csv
import json
import os
import warnings
from collections import Counter
from dataclasses import astuple, dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .binary_lsh import FAMILIES
from .dataset import Dataset, child_rng
from .distances import check_k, check_metric, distances_to, rank_top_k
from .exact import QueryStats, knn_exact
from .real_lsh import DEFAULT_WIDTH, LshIndex, RealLshIndex
from .tables import distinct, label_majorities

STREAM_HOLDOUT = 2

SWEEP_CSV_HEADER = (
    "L,K,mAP,IE,avg_purity,std_purity,num_buckets,num_items,avg_per_bucket,std_per_bucket"
)


# ---------------------------------------------------------------------------
# Core metrics
# ---------------------------------------------------------------------------

def average_precision(ranked_ids: Sequence[int], relevant) -> float:
    """Mean of precision-at-rank over the relevant ranks, divided by the
    number of relevant items; 1.0 exactly when the relevant items fill the
    top |relevant| ranks. A set or frozenset is used as given; any other
    iterable is converted to a set of ints."""
    if not isinstance(relevant, (set, frozenset)):
        relevant = {int(i) for i in relevant}
    if not relevant:
        raise ValueError("relevant set must be non-empty")
    hits = 0
    acc = 0.0
    for rank, rid in enumerate(ranked_ids, start=1):
        if int(rid) in relevant:
            hits += 1
            acc += hits / rank
    return acc / len(relevant)


def mean_average_precision(queries: Sequence[tuple[Sequence[int], Iterable[int]]]) -> float:
    """Arithmetic mean of per-query average precision."""
    if not queries:
        raise ValueError("query list must be non-empty")
    return float(np.mean([average_precision(ranked, relevant) for ranked, relevant in queries]))


def improvement_in_efficiency(seq_cost: int, index_cost: int) -> float:
    """Sequential-scan cost divided by index cost (distance computations)."""
    if seq_cost <= 0:
        raise ValueError(f"sequential cost must be positive, got {seq_cost}")
    if index_cost <= 0:
        raise ValueError(
            f"index cost must be positive, got {index_cost}; a zero cost signals "
            "an empty-candidate accounting bug upstream"
        )
    return seq_cost / index_cost


def pearson_correlation(xs, ys) -> float:
    """Standard product-moment coefficient; requires two finite, non-constant
    sequences of equal length >= 2."""
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    if xs.ndim != 1 or ys.ndim != 1 or xs.shape != ys.shape:
        raise ValueError(f"length mismatch: {xs.shape} vs {ys.shape}")
    if len(xs) < 2:
        raise ValueError("need at least 2 points")
    if not (np.isfinite(xs).all() and np.isfinite(ys).all()):
        raise ValueError("correlation undefined for non-finite input")
    dx = xs - xs.mean()
    dy = ys - ys.mean()
    # scaled to a largest magnitude of 1, the squares neither overflow
    # (1e200) nor underflow (1e-200); the coefficient is scale-free
    scale_x, scale_y = np.abs(dx).max(), np.abs(dy).max()
    if scale_x == 0.0 or scale_y == 0.0:
        raise ValueError("correlation undefined for constant input")
    dx /= scale_x
    dy /= scale_y
    sx = np.sqrt((dx * dx).sum())
    sy = np.sqrt((dy * dy).sum())
    return float((dx * dy).sum() / (sx * sy))


# ---------------------------------------------------------------------------
# Bucket statistics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BucketStats:
    avg_purity: float
    std_purity: float
    num_buckets: int
    num_items: int
    avg_per_bucket: float
    std_per_bucket: float


def compute_bucket_stats(bucket_label_groups: Iterable[Sequence]) -> BucketStats:
    """Statistics over buckets given as per-bucket label sequences.

    Purity of a bucket is majority-class count / bucket size; the average is
    unweighted over buckets (each bucket counts once regardless of size).
    Standard deviations are population deviations. Empty groups are ignored.
    """
    majorities: list[int] = []
    sizes: list[int] = []
    for labels in bucket_label_groups:
        if len(labels):
            majorities.append(max(Counter(labels).values()))
            sizes.append(len(labels))
    return _bucket_stats(np.asarray(majorities, dtype=np.int64), np.asarray(sizes, dtype=np.int64))


def _bucket_stats(majorities: np.ndarray, sizes: np.ndarray) -> BucketStats:
    """BucketStats from each non-empty bucket's majority-label count and size."""
    if not len(sizes):
        return BucketStats(0.0, 0.0, 0, 0, 0.0, 0.0)
    purities = majorities / sizes
    num_items = int(sizes.sum())
    return BucketStats(
        avg_purity=float(purities.mean()),
        std_purity=float(purities.std()),
        num_buckets=len(sizes),
        num_items=num_items,
        avg_per_bucket=num_items / len(sizes),
        std_per_bucket=float(sizes.astype(np.float64).std()),
    )


def bucket_statistics(index: LshIndex) -> BucketStats:
    """The six bucket statistics of a built index, pooled over all L tables.

    num_items comes out as n*L because every table holds every vector once.
    """
    return _bucket_stats(*label_majorities(index.bucket_tables, index.dataset.label_ids))


# ---------------------------------------------------------------------------
# Hold-out query selection and backend dispatch
# ---------------------------------------------------------------------------

def select_queries(
    ds: Dataset,
    seed: int,
    holdout_fraction: float = 0.25,
    queries_per_class: int = 1,
) -> list[int]:
    """Reserve a per-class hold-out pool and pick query ids from it.

    Default mirrors the evaluation protocol used throughout: 25% of each
    class held out, one query per class. Selection is deterministic per seed.
    """
    if not 0.0 < holdout_fraction <= 1.0:
        raise ValueError(f"holdout_fraction must be in (0, 1], got {holdout_fraction}")
    if queries_per_class < 1:
        raise ValueError("queries_per_class must be >= 1")
    rng = child_rng(seed, STREAM_HOLDOUT)
    queries: list[int] = []
    for label_id in range(len(ds.labels)):
        members = ds.class_ids(label_id)
        if len(members) == 0:
            continue
        if len(members) < 2:
            raise ValueError(f"class {ds.labels[label_id]!r} has fewer than 2 samples")
        held = max(1, int(round(holdout_fraction * len(members))))
        perm = rng.permutation(len(members))
        queries.extend(int(i) for i in members[perm[:held]][:queries_per_class])
    if not queries:
        raise ValueError("dataset has no populated classes to draw queries from")
    return queries


def _family(kind: str) -> type[LshIndex]:
    if kind not in FAMILIES:
        raise ValueError(f"unknown index kind {kind!r}: index_kind must be one of {tuple(FAMILIES)}")
    return FAMILIES[kind]


def make_index(
    kind: str, ds: Dataset, L: int, K: int, w: float = DEFAULT_WIDTH, seed: int = 0
) -> LshIndex:
    """Build the index of ``kind``, a key of FAMILIES; w is unused by "binary"."""
    family = _family(kind)
    return family.build(ds, family.make_params(L, K, w, seed))


def _resolve(backend, ds: Dataset | None) -> Callable:
    """The (q, k, metric) -> (results, stats) search of a backend: "exact"
    scans ``ds``; an LshIndex queries itself and must be built over ``ds``
    unless ``ds`` is None. ValueError for anything else."""
    if isinstance(backend, LshIndex):
        if ds is not None and backend.dataset is not ds:
            raise ValueError("backend is an index over a different dataset")
        return backend.query
    if isinstance(backend, str) and backend == "exact" and ds is not None:
        return lambda q, k, metric: knn_exact(ds, q, k, metric)
    accepted = "a Dataset to scan or an index over one" if ds is None else "'exact' or an index over the dataset"
    raise ValueError(f"unknown backend {backend!r}: expected {accepted}")


# ---------------------------------------------------------------------------
# Single-configuration evaluation and sweeps
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EvalReport:
    """One row of a parameter study: configuration, accuracy, efficiency,
    and bucket statistics. Baseline (index_kind 'none') rows carry L=K=0 and
    zeroed bucket fields."""

    L: int
    K: int
    mean_ap: float
    ie: float
    avg_purity: float
    std_purity: float
    num_buckets: int
    num_items: int
    avg_per_bucket: float
    std_per_bucket: float

    def csv_row(self) -> str:
        return ",".join(str(v) for v in astuple(self))


@dataclass(frozen=True)
class QueryOutcome:
    """Per-query detail behind an EvalReport, for inspection."""

    query_id: int
    ap: float
    seq_cost: int
    index_cost: int
    charged_cost: int
    empty_candidates: bool

    @property
    def ie(self) -> float:
        return self.seq_cost / self.charged_cost


def _relevant(ds: Dataset, row: int) -> set[int]:
    """The class members of storage row ``row`` but itself; ValueError when none."""
    query_id = int(ds.ids[row])
    relevant = {int(i) for i in ds.class_ids(ds.label_ids[row])} - {query_id}
    if not relevant:
        raise ValueError(f"query {query_id}: its class has no other member")
    return relevant


def _outcome(query_id: int, ranked, relevant: set[int], n: int, stats: QueryStats) -> QueryOutcome:
    raw = stats.distance_computations
    return QueryOutcome(
        query_id=query_id,
        ap=average_precision(ranked, relevant),
        seq_cost=n,
        index_cost=raw,
        charged_cost=max(1, raw),
        empty_candidates=stats.candidates_examined == 0,
    )


def _member_outcomes(search: Callable, ds: Dataset, rows, k: int, metric: str) -> list[QueryOutcome]:
    """Query each storage row's vector for its top k + 1, drop the member from
    its results and its relevant set, and keep k results."""
    outcomes = []
    for row in rows:
        query_id, relevant = int(ds.ids[row]), _relevant(ds, row)
        results, stats = search(ds.vectors[row], k + 1, metric)
        ranked = [rid for rid, _ in results if rid != query_id][:k]
        outcomes.append(_outcome(query_id, ranked, relevant, len(ds), stats))
    return outcomes


def run_config(
    ds: Dataset,
    held_out_queries: Sequence[int],
    index_kind: str,
    L: int | None = None,
    K: int | None = None,
    w: float = DEFAULT_WIDTH,
    seed: int = 0,
    k: int = 10,
    metric: str = "cosine",
) -> tuple[EvalReport, list[QueryOutcome]]:
    """Evaluate one configuration and keep the per-query outcomes.

    The full dataset is indexed; each held-out query is excluded from its
    own relevant set and result list. An empty candidate set is charged cost
    1 (and flagged with a warning) to keep the efficiency ratio defined. An
    index kind (a key of FAMILIES) is the one-cell case of
    :func:`evaluate_grid`; "none" ranks each query by exact scan.
    """
    family = None if index_kind == "none" else _family(index_kind)
    if len(held_out_queries) == 0:
        raise ValueError("held_out_queries must be non-empty")
    check_k(k)
    if family is not None:
        if L is None or K is None:
            raise ValueError(f"L and K are required for index kind {index_kind!r}")
        return evaluate_grid(ds, held_out_queries, index_kind, [L], [K], w, seed, k, metric)[0]

    outcomes = _member_outcomes(_resolve("exact", ds), ds, ds.rows_of(held_out_queries), k, metric)
    mean_ap = float(np.mean([o.ap for o in outcomes]))
    return EvalReport(0, 0, mean_ap, 1.0, 0.0, 0.0, 0, 0, 0.0, 0.0), outcomes


def evaluate_grid(
    ds: Dataset,
    query_ids: Sequence[int],
    index_kind: str,
    L_values: Sequence[int],
    K_values: Sequence[int],
    w: float = DEFAULT_WIDTH,
    seed: int = 0,
    k: int = 10,
    metric: str = "cosine",
) -> list[tuple[EvalReport, list[QueryOutcome]]]:
    """run_config(ds, query_ids, index_kind, L, K, ...) of every (L, K) grid
    cell, in grid order (L outer, K inner), from one hash pass.

    Coefficients at (table t, slot j) depend only on (seed, t, j), so the
    index of cell (L, K) is the first L tables of the (max L, max K) index
    with its keys cut to K slots. The queries are hashed once; the dataset
    one table at a time, so memory stays at one (n, max K) block and one
    table per K. Each (table, K) table keeps its bucket statistics and the
    queries' buckets, then is dropped. A query's distances are computed once,
    over every row a cell gives it, and each cell ranks its own candidates;
    the results are those of building and querying every cell's own index.
    """
    family = _family(index_kind)
    if len(query_ids) == 0:
        raise ValueError("held_out_queries must be non-empty")
    check_k(k)
    check_metric(metric)
    if not L_values or not K_values:
        raise ValueError("L_values and K_values must be non-empty")
    grid = [(L, K) for L in L_values for K in K_values]
    for L, K in grid:
        family.make_params(L, K, w, seed)
    top = family.with_coefficients(ds, family.make_params(max(L_values), max(K_values), w, seed))
    rows = ds.rows_of(query_ids)
    query_ids = ds.ids[rows].tolist()
    relevant = [_relevant(ds, row) for row in rows]
    Ks = sorted(set(K_values))

    # per K, per table: the queries' bucket rows, and each bucket's
    # majority-label count and size
    qwords = top._table_keys(ds.values64[rows])
    hits: dict[int, list] = {K: [] for K in Ks}
    label_counts: dict[int, list] = {K: [] for K in Ks}
    for t in range(top.params.L):
        words = top._table_keys(ds.values64, slice(t, t + 1))[:, 0]
        for K, table in top._prefix_tables(words, Ks).items():
            hits[K].append(table.buckets(top._key_prefix(qwords[:, t], K)))
            label_counts[K].append(label_majorities([table], ds.label_ids))

    cells = list(dict.fromkeys(grid))
    outcomes: dict[tuple[int, int], list[QueryOutcome]] = {cell: [] for cell in cells}
    n = len(ds)
    for i, (qid, row) in enumerate(zip(query_ids, rows)):
        parts = {K: [members[bounds[i] : bounds[i + 1]] for members, bounds in hits[K]] for K in Ks}
        union = distinct(np.concatenate([p for K in Ks for p in parts[K]]))
        dists = distances_to(ds.values64[union], ds.vectors[row], metric)
        for L, K in cells:
            multiset = np.concatenate(parts[K][:L])
            unique = distinct(multiset)
            results = rank_top_k(ds.ids[unique], dists[np.searchsorted(union, unique)], k + 1)
            ranked = [rid for rid, _ in results if rid != qid][:k]
            stats = QueryStats(distance_computations=len(multiset), candidates_examined=len(unique))
            outcomes[L, K].append(_outcome(qid, ranked, relevant[i], n, stats))

    reports = {}
    for L, K in cells:
        outs = outcomes[L, K]
        majorities, sizes = (np.concatenate(arrays) for arrays in zip(*label_counts[K][:L]))
        reports[L, K] = EvalReport(
            L,
            K,
            float(np.mean([o.ap for o in outs])),
            improvement_in_efficiency(sum(o.seq_cost for o in outs), sum(o.charged_cost for o in outs)),
            *astuple(_bucket_stats(majorities, sizes)),
        )
    for cell in grid:
        empty = sum(o.empty_candidates for o in outcomes[cell])
        if empty:
            warnings.warn(
                f"{empty} of {len(outcomes[cell])} queries hit an empty candidate set; "
                "each charged cost 1",
                RuntimeWarning,
                stacklevel=2,
            )
    return [(reports[cell], list(outcomes[cell])) for cell in grid]


def parameter_sweep(
    ds: Dataset,
    L_values: Sequence[int],
    K_values: Sequence[int],
    index_kind: str = RealLshIndex.kind,
    query_ids: Sequence[int] | None = None,
    w: float = DEFAULT_WIDTH,
    seed: int = 0,
    k: int = 10,
    metric: str = "cosine",
) -> list[EvalReport]:
    """One EvalReport per (L, K) grid cell, in grid order (L outer, K inner).

    All cells share the same seed and the same held-out queries, so rows are
    comparable and reproducible; :func:`evaluate_grid` computes them.
    """
    if index_kind == "none":
        raise ValueError("parameter_sweep needs an index kind; use run_config for the baseline")
    if query_ids is None:
        query_ids = select_queries(ds, seed=seed)
    return [report for report, _ in evaluate_grid(ds, query_ids, index_kind, L_values, K_values, w, seed, k, metric)]


def sweep_csv_text(reports: Sequence[EvalReport]) -> str:
    lines = [SWEEP_CSV_HEADER]
    lines.extend(r.csv_row() for r in reports)
    return "\n".join(lines) + "\n"


def write_sweep_csv(reports: Sequence[EvalReport], path: str | os.PathLike) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(sweep_csv_text(reports))


def best_tradeoff(reports: Sequence[EvalReport], ie_target: float) -> EvalReport | None:
    """The row maximizing mAP subject to IE >= ie_target; ties prefer higher
    IE, then smaller (L, K). None when no row meets the target."""
    eligible = [r for r in reports if r.ie >= ie_target]
    if not eligible:
        return None
    return min(eligible, key=lambda r: (-r.mean_ap, -r.ie, r.L, r.K))


# ---------------------------------------------------------------------------
# Class-by-class analysis
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ClassReport:
    """Per-class retrieval summary: AP aggregate over the class's queries,
    its spread, and the best/worst query samples."""

    class_label: str
    mean_ap: float
    min_ap: float
    max_ap: float
    range_ap: float
    std_ap: float
    best_id: int
    worst_id: int

    def to_dict(self) -> dict:
        return {
            "class": self.class_label,
            "mAP": self.mean_ap,
            "min_ap": self.min_ap,
            "max_ap": self.max_ap,
            "range_ap": self.range_ap,
            "std_ap": self.std_ap,
            "best_id": self.best_id,
            "worst_id": self.worst_id,
        }


def class_analysis(
    ds: Dataset,
    backend="exact",
    k: int = 10,
    metric: str = "cosine",
    query_ids: Sequence[int] | None = None,
) -> list[ClassReport]:
    """Query every class with its own samples and aggregate per-class AP.

    backend is "exact" or an index built over ds (ValueError otherwise). By
    default every sample of every class is used as a query in turn; pass
    query_ids to restrict the protocol (classes left with no query are
    skipped; KeyError names an id not in ds). Classes need at least 2 samples
    so the relevant set is never empty.
    """
    check_k(k)
    search = _resolve(backend, ds)
    rows = np.arange(len(ds)) if query_ids is None else np.unique(ds.rows_of(query_ids))
    sizes = np.bincount(ds.label_ids, minlength=len(ds.labels))
    if (sizes == 1).any():
        raise ValueError(f"class {ds.labels[int(np.argmax(sizes == 1))]!r} has fewer than 2 samples")
    ids, labels = ds.ids[rows], ds.label_ids[rows]
    aps = np.array([o.ap for o in _member_outcomes(search, ds, rows, k, metric)])
    reports: list[ClassReport] = []
    for label_id in np.unique(labels):
        values, queries = aps[labels == label_id], ids[labels == label_id]
        max_ap = float(values.max())
        min_ap = float(values.min())
        reports.append(
            ClassReport(
                class_label=ds.labels[label_id],
                mean_ap=float(values.mean()),
                min_ap=min_ap,
                max_ap=max_ap,
                range_ap=max_ap - min_ap,
                std_ap=float(values.std()),
                best_id=int(queries[values == max_ap].min()),
                worst_id=int(queries[values == min_ap].min()),
            )
        )
    return reports


def class_reports_json_lines(reports: Sequence[ClassReport]) -> str:
    """One JSON object per class, one per line."""
    return "\n".join(json.dumps(r.to_dict()) for r in reports) + "\n"


def read_class_metric_csv(path: str | os.PathLike) -> dict[str, float]:
    """Read a per-class metric file: CSV rows ``class,value`` with an
    optional header line."""
    out: dict[str, float] = {}
    with open(path, "r", newline="", encoding="utf-8") as fh:
        for row_no, row in enumerate(csv.reader(fh), start=1):
            if not row:
                continue
            if len(row) != 2:
                raise ValueError(f"{path}: row {row_no}: expected 'class,value'")
            name, raw = row
            try:
                value = float(raw)
            except ValueError:
                if row_no == 1:
                    continue  # header line
                raise ValueError(f"{path}: row {row_no}: malformed value {raw!r}") from None
            if not np.isfinite(value):
                raise ValueError(f"{path}: row {row_no}: non-finite value {raw!r}")
            if name in out:
                raise ValueError(f"{path}: row {row_no}: duplicate class {name!r}")
            out[name] = value
    return out


def class_metric_correlation(xs: dict[str, float], ys: dict[str, float]) -> tuple[float, int]:
    """Pearson coefficient over the classes shared by two per-class metric
    tables; returns (coefficient, number of shared classes)."""
    common = sorted(set(xs) & set(ys))
    if len(common) < 2:
        raise ValueError(f"only {len(common)} shared classes; need at least 2")
    return pearson_correlation([xs[c] for c in common], [ys[c] for c in common]), len(common)


# ---------------------------------------------------------------------------
# Distractor robustness
# ---------------------------------------------------------------------------

def distractor_contamination(
    backend,
    k: int = 10,
    metric: str = "cosine",
    query_ids: Sequence[int] | None = None,
) -> float:
    """Fraction of top-k results drawn from the distractor source.

    backend is a merged Dataset (exact scan) or an index built over one; the
    dataset must carry the source flags attached by merge_datasets. Queries
    default to every source-a vector. Self-matches count like any result.
    """
    check_k(k)
    scan = isinstance(backend, Dataset)
    search = _resolve("exact" if scan else backend, backend if scan else None)
    ds = backend if scan else backend.dataset
    if ds.sources is None:
        raise ValueError("dataset carries no source flags; build it with merge_datasets")
    rows = np.flatnonzero(ds.sources == 0) if query_ids is None else ds.rows_of(query_ids)
    if len(rows) == 0:
        raise ValueError("no queries: the merged dataset has no source-a vectors")
    total = 0
    from_distractor = 0
    for row in rows:
        results, _ = search(ds.vectors[row], k, metric)
        total += len(results)
        from_distractor += int(ds.sources[ds.rows_of([rid for rid, _ in results])].sum())
    return from_distractor / total if total else 0.0
