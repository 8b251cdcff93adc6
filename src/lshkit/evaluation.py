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
from .distances import (
    PREFILTER_MIN_ROWS, _dot_bounds, as_integer, check_k, check_metric, distances_to,
)
from .exact import knn_exact
from .real_lsh import DEFAULT_WIDTH, LshIndex, RealLshIndex
from .tables import distinct, label_majorities

STREAM_HOLDOUT = 2

# Queries per block of evaluate_grid, which bound its loop's memory. At 20k x
# 128 rows and a 4x3 grid a block takes about 0.18 MB per query (tracemalloc):
# 9.0 MB at 50 queries stays under the 20.8 MB the rest of the grid peaks at,
# while 100 queries in one block raised that peak to 26.6 MB. Fewer queries
# per block cost time: the float32 product is 4.1 ms for 50 queries against
# 3.0 ms for 32 (x86-64, one BLAS thread).
GRID_BLOCK_QUERIES = 50

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
    iterable is converted to a set of ints. A ranked id that appears twice
    raises ValueError: counted twice, a relevant one could lift AP above 1."""
    if not isinstance(relevant, (set, frozenset)):
        relevant = {int(i) for i in relevant}
    if not relevant:
        raise ValueError("relevant set must be non-empty")
    hits = 0
    acc = 0.0
    seen = set()
    for rank, rid in enumerate(map(int, ranked_ids), start=1):
        if rid in seen:
            raise ValueError(f"ranked ids must be distinct, got {rid} twice")
        seen.add(rid)
        if rid in relevant:
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
    queries_per_class = as_integer(queries_per_class, "queries_per_class must be an integer")
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


def _members(ds: Dataset, rows: np.ndarray) -> np.ndarray:
    """The number of other class members of each storage row; ValueError
    naming the first row that has none."""
    others = np.bincount(ds.label_ids, minlength=len(ds.labels))[ds.label_ids[rows]] - 1
    if not others.all():
        raise ValueError(f"query {int(ds.ids[rows[np.argmin(others)]])}: its class has no other member")
    return others


def _ranked_outcomes(ds: Dataset, rows: np.ndarray, others, owner, found, dists, computed, examined, k: int):
    """``_top_outcomes`` of the candidates ``found[j]`` of row ``rows[owner[j]]``
    at kernel distances ``dists[j]``, ranked first as rank_top_k ranks them:
    by owner, then distance, then id."""
    order = np.lexsort((ds.ids[found], dists, owner))
    return _top_outcomes(ds, rows, others, owner[order], found[order], computed, examined, k)


def _top_outcomes(ds: Dataset, rows: np.ndarray, others, owner, found, computed, examined, k: int):
    """The QueryOutcome of each storage row ``rows[i]``, with ``others[i]``
    other class members (``_members``), from its ranked candidates, the rows
    ``found[j]`` with ``owner[j] == i`` in rank_top_k's order, owner by owner:
    drop the member and keep k (rank_top_k's top k + 1 less the member, else
    its first k); charge ``computed[i]`` distance computations, at least 1,
    against a scan of every row, and flag ``examined[i] == 0`` as empty. AP
    adds hits / rank one rank at a time, left to right, and divides by the
    number of other class members, as average_precision does, so every bit
    agrees with it."""
    other = found != rows[owner]
    owner, found = owner[other], found[other]
    sizes = np.bincount(owner, minlength=len(rows))
    rank = np.arange(len(owner)) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    top = rank < k
    owner, found, rank = owner[top], found[top], rank[top]
    hit = np.zeros((len(rows), k), dtype=bool)
    hit[owner, rank] = ds.label_ids[found] == ds.label_ids[rows[owner]]
    gain = np.cumsum(hit, axis=1) / np.arange(1, k + 1)
    gain[~hit] = 0.0
    acc = np.zeros(len(rows))
    for column in gain.T:
        acc += column
    computed = np.asarray(computed, dtype=np.int64)
    fields = ds.ids[rows], acc / others, np.full(len(rows), len(ds)), computed, np.maximum(computed, 1), examined == 0
    return [QueryOutcome(*values) for values in zip(*(np.asarray(f).tolist() for f in fields))]


def _searched(search: Callable, ds: Dataset, rows: np.ndarray, count: int, metric: str) -> tuple:
    """``_top_outcomes``' owner, found, computed and examined from the top
    ``count`` of each storage row, searched with ``search``, whose results
    rank_top_k has ranked."""
    answers = [search(ds.vectors[r], count, metric) for r in rows]
    found = ds.rows_of(np.array([rid for results, _ in answers for rid, _ in results], dtype=np.int64))
    owner = np.repeat(np.arange(len(rows)), [len(results) for results, _ in answers])
    computed = [stats.distance_computations for _, stats in answers]
    examined = np.array([stats.candidates_examined for _, stats in answers])
    return owner, found, computed, examined


def _member_outcomes(search: Callable, ds: Dataset, rows: np.ndarray, k: int, metric: str) -> list[QueryOutcome]:
    """The member outcome of each storage row, searched with ``search`` for
    its top k + 1, GRID_BLOCK_QUERIES rows at a time (a block's results
    are dropped before the next block is searched)."""
    others = _members(ds, rows)
    outcomes = []
    for lo in range(0, len(rows), GRID_BLOCK_QUERIES):
        block = rows[lo : lo + GRID_BLOCK_QUERIES]
        outcomes += _top_outcomes(ds, block, others[lo : lo + len(block)], *_searched(search, ds, block, k + 1, metric), k)
    return outcomes


def _report(L: int, K: int, outcomes: Sequence[QueryOutcome], bucket_stats: BucketStats) -> EvalReport:
    """mAP, IE as the ratio of summed costs, and the bucket statistics."""
    ie = improvement_in_efficiency(sum(o.seq_cost for o in outcomes), sum(o.charged_cost for o in outcomes))
    return EvalReport(L, K, float(np.mean([o.ap for o in outcomes])), ie, *astuple(bucket_stats))


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
    return _report(0, 0, outcomes, compute_bucket_stats(())), outcomes


def _block_candidates(hits: dict, lo: int, hi: int, n: int):
    """The candidates of queries lo..hi-1 (counted from lo) from their
    bucket rows per K and table (``hits``, CSR per table), by one sort of
    (query, row, K, table) codes: the query and row of each entry of their
    union over every K, by query and ascending row; per K, the first table
    that holds each entry (``tables`` where none does); and per K the
    (tables, queries) running sums of bucket sizes over the tables."""
    Ks, tables = len(hits), len(next(iter(hits.values())))
    row_bits, K_bits, table_bits = ((m - 1).bit_length() for m in (n, Ks, tables))
    codes, computed = [], {}
    for j, (K, per_table) in enumerate(hits.items()):
        sizes = []
        for t, (members, bounds) in enumerate(per_table):
            size = np.diff(bounds[lo : hi + 1])
            owner = np.repeat(np.arange(hi - lo), size)
            codes.append(((owner << row_bits | members[bounds[lo] : bounds[hi]]) << K_bits | j) << table_bits | t)
            sizes.append(size)
        computed[K] = np.cumsum(sizes, axis=0)
    codes = np.sort(np.concatenate(codes))
    runs = codes >> table_bits
    first = np.ones(len(codes), dtype=bool)  # of each (query, row, K)
    first[1:] = runs[1:] != runs[:-1]
    codes, runs = codes[first], runs[first]
    pairs = runs >> K_bits
    starts = np.flatnonzero(np.diff(pairs, prepend=-1))
    entry = np.repeat(np.arange(len(starts)), np.diff(np.append(starts, len(pairs))))
    at = np.full((Ks, len(starts)), tables, dtype=np.min_scalar_type(tables))
    at.ravel()[(runs & (1 << K_bits) - 1) * len(starts) + entry] = codes & (1 << table_bits) - 1
    pairs = pairs[starts]
    return pairs >> row_bits, pairs & (1 << row_bits) - 1, dict(zip(hits, at)), computed


def _grid_block(ds: Dataset, block: np.ndarray, others: np.ndarray, candidates: tuple, cells: list, k: int,
                metric: str) -> dict:
    """The outcomes of each cell for the query rows ``block``, with
    ``others`` other class members each, from their ``_block_candidates``."""
    owner, found, first, computed = candidates
    count = len(block)
    ends = np.searchsorted(owner, np.arange(count + 1))
    sizes = np.diff(ends)
    queries = ds.vectors[block]
    q64 = queries.astype(np.float64)
    qq = np.einsum("ij,ij->i", q64, q64)
    cut = sizes >= PREFILTER_MIN_ROWS
    if metric == "cosine":
        cut &= qq > 0.0  # the kernel scores an all-zero query 1 against every row
    lower, upper = np.full(len(owner), -np.inf), np.full(len(owner), np.inf)
    if cut.any():
        at = np.flatnonzero(np.repeat(cut, sizes))
        cuts = np.count_nonzero(cut)
        index = np.repeat(np.arange(cuts), sizes[cut])
        with np.errstate(all="ignore"):  # inf and NaN dots and scores get the widest bounds
            dots = (ds.vectors @ queries[cut].T).ravel()[found[at] * cuts + index]
            lower[at], upper[at] = _dot_bounds(dots, ds.norms[found[at]], qq[cut][index], ds.dim, metric)
        # by query, then by A + M; a stable sort of owners of up to 16 bits is a radix sort
        order = np.argsort(upper)
        order = order[np.argsort(owner[order].astype(np.min_scalar_type(count)), kind="stable")]
        by_upper, firsts = upper[order], {K: first[K][order] for K in first}

    kept, scored = {}, np.zeros(len(owner), dtype=bool)
    for L, K in cells:
        at = np.flatnonzero(first[K] < L)
        examined = np.diff(np.searchsorted(at, ends))
        take = cut & (examined > k + 1)
        if take.any():  # each query's cut: the (k + 1)-th smallest A + M of its cell
            limit = np.full(count, np.inf)
            limit[take] = by_upper[firsts[K] < L][(np.cumsum(examined) - examined)[take] + k]
            at = at[lower[at] <= np.repeat(limit, examined)]
        scored[at] = True
        kept[L, K] = at, computed[K][L - 1], examined

    dists = np.empty(len(owner))
    at = np.flatnonzero(scored)
    bounds = np.searchsorted(owner[at], np.arange(count + 1))
    for i in range(count):
        part = at[bounds[i] : bounds[i + 1]]
        if len(part):
            dists[part] = distances_to(ds.vectors[found[part]], queries[i], metric)
    # every cell in one ranking: query i of the c-th cell is owner c * count + i
    ats, computed, examined = zip(*kept.values())
    owners = np.concatenate([c * count + owner[at] for c, at in enumerate(ats)])
    at = np.concatenate(ats)
    computed, examined = np.concatenate(computed), np.concatenate(examined)
    outcomes = _ranked_outcomes(ds, np.tile(block, len(kept)), np.tile(others, len(kept)), owners, found[at], dists[at],
                                computed, examined, k)
    return {cell: outcomes[c * count : (c + 1) * count] for c, cell in enumerate(kept)}


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
    with its keys cut to K slots. The queries are hashed once, the dataset
    table by table through ``LshIndex._table_words``, as a build does it.
    Each (table, K) table keeps its bucket statistics and the queries'
    buckets, then is dropped.

    The queries then go through in blocks of GRID_BLOCK_QUERIES, over flat
    arrays. One sort of (query, row, K, table) codes lists each query's
    candidate rows once, with the first table that holds them per K, so
    cell (L, K) is the mask ``first < L``; running sums of bucket sizes
    over the tables give its QueryStats. The block's candidate union is
    scored once with prefilter's bounds (``distances._dot_bounds``), from
    one float32 product of all of ``vectors`` with the queries that take a
    cut; as in prefilter, a query whose union has fewer than
    PREFILTER_MIN_ROWS rows, or an all-zero cosine query, takes none, and a
    block where no query takes one makes no product.
    A cell keeps a query's candidates whose A - M is at most the (k + 1)-th
    smallest A + M among them, read from one order of the block by query
    and A + M: by prefilter's proof that keeps every row rank_top_k can
    return for the cell, since a row's kernel distance does not depend on
    the rows scored with it. The kernel scores each query's rows that some
    cell kept in one call, and ``_ranked_outcomes`` ranks every cell of the
    block at once. Which rows the cut keeps can depend on how BLAS rounds
    the product; each distance, rank and AP bit, and so every report,
    outcome and warning, is that of building and querying every cell's
    own index.
    """
    family = _family(index_kind)
    if len(query_ids) == 0:
        raise ValueError("held_out_queries must be non-empty")
    check_k(k)
    check_metric(metric)
    if len(L_values) == 0 or len(K_values) == 0:
        raise ValueError("L_values and K_values must be non-empty")
    grid = [(L, K) for L in L_values for K in K_values]
    for L, K in grid:
        family.make_params(L, K, w, seed)
    top = family.with_coefficients(ds, family.make_params(max(L_values), max(K_values), w, seed))
    rows = ds.rows_of(query_ids)
    others = _members(ds, rows)
    Ks = sorted(set(K_values))

    # per K, per table: the queries' bucket rows, and each bucket's
    # majority-label count and size
    qwords = top._table_keys(ds.vectors[rows])
    hits: dict[int, list] = {K: [] for K in Ks}
    label_counts: dict[int, list] = {K: [] for K in Ks}
    for t, words in enumerate(top._table_words()):
        for K, table in top._prefix_tables(words, Ks).items():
            hits[K].append(table.buckets(top._key_prefix(qwords[:, t], K)))
            label_counts[K].append(label_majorities([table], ds.label_ids))

    cells = list(dict.fromkeys(grid))
    outcomes: dict[tuple[int, int], list[QueryOutcome]] = {cell: [] for cell in cells}
    for lo in range(0, len(rows), GRID_BLOCK_QUERIES):
        block = rows[lo : lo + GRID_BLOCK_QUERIES]
        candidates = _block_candidates(hits, lo, lo + len(block), len(ds))
        block_outcomes = _grid_block(ds, block, others[lo : lo + len(block)], candidates, cells, k, metric)
        del candidates  # before the next block's are built
        for cell in cells:
            outcomes[cell] += block_outcomes[cell]

    reports = {}
    for L, K in cells:
        majorities, sizes = (np.concatenate(arrays) for arrays in zip(*label_counts[K][:L]))
        reports[L, K] = _report(L, K, outcomes[L, K], _bucket_stats(majorities, sizes))
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
    non-empty query_ids to restrict the protocol (classes left with no query
    are skipped; KeyError names an id not in ds). Classes need at least 2 samples
    so the relevant set is never empty.
    """
    check_k(k)
    search = _resolve(backend, ds)
    if query_ids is not None and len(query_ids) == 0:
        raise ValueError("query_ids must be non-empty")
    rows = np.arange(len(ds)) if query_ids is None else distinct(ds.rows_of(query_ids))
    sizes = np.bincount(ds.label_ids, minlength=len(ds.labels))
    if (sizes == 1).any():
        raise ValueError(f"class {ds.labels[int(np.argmax(sizes == 1))]!r} has fewer than 2 samples")
    ids, labels = ds.ids[rows], ds.label_ids[rows]
    aps = np.array([o.ap for o in _member_outcomes(search, ds, rows, k, metric)])
    reports: list[ClassReport] = []
    for label_id in distinct(labels):
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
    default to every source-a vector; query_ids, if given, must be non-empty.
    Self-matches count like any result. Queries are searched
    GRID_BLOCK_QUERIES at a time, and a block's results are counted and
    dropped before the next block is searched.
    """
    check_k(k)
    scan = isinstance(backend, Dataset)
    search = _resolve("exact" if scan else backend, backend if scan else None)
    ds = backend if scan else backend.dataset
    if ds.sources is None:
        raise ValueError("dataset carries no source flags; build it with merge_datasets")
    if query_ids is not None and len(query_ids) == 0:
        raise ValueError("query_ids must be non-empty")
    rows = np.flatnonzero(ds.sources == 0) if query_ids is None else ds.rows_of(query_ids)
    if len(rows) == 0:
        raise ValueError("no queries: the merged dataset has no source-a vectors")
    hits = results = 0
    for lo in range(0, len(rows), GRID_BLOCK_QUERIES):
        found = _searched(search, ds, rows[lo : lo + GRID_BLOCK_QUERIES], k, metric)[1]
        hits, results = hits + int(ds.sources[found].sum()), results + len(found)
    return hits / results if results else 0.0
