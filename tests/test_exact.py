import tracemalloc

import numpy as np
import pytest

from lshkit import BinaryLshIndex, BinaryLshParams, Dataset, QueryStats, distances, knn_exact
from lshkit.distances import (
    CHUNK_ROWS,
    PREFILTER_MIN_ROWS,
    check_k,
    cosine_distances,
    distances_to,
    euclidean_distances,
    prefilter,
    rank_top_k,
)

from helpers import oracle_ranking


def make_dataset(n, dim, seed, classes=3):
    rng = np.random.default_rng(seed)
    return Dataset(
        dim,
        [f"c{i}" for i in range(classes)],
        np.arange(n),
        rng.integers(0, classes, n),
        rng.standard_normal((n, dim)).astype(np.float32),
    )


@pytest.mark.parametrize("metric", ["cosine", "euclidean"])
def test_member_query_ranks_itself_first(metric):
    ds = make_dataset(30, 8, seed=1)
    results, _ = knn_exact(ds, ds.get(11).values, k=3, metric=metric)
    assert results[0] == (11, 0.0)


def test_k_at_least_n_returns_full_ranking():
    ds = make_dataset(12, 4, seed=2)
    results, _ = knn_exact(ds, np.zeros(4), k=50, metric="euclidean")
    assert len(results) == 12
    assert sorted(i for i, _ in results) == list(range(12))


@pytest.mark.parametrize("metric", ["cosine", "euclidean"])
def test_matches_full_sort_oracle(metric):
    for seed in range(20):
        rng = np.random.default_rng(1000 + seed)
        n = int(rng.integers(2, 30))
        dim = int(rng.integers(1, 10))
        ds = make_dataset(n, dim, seed=seed)
        q = rng.standard_normal(dim).astype(np.float32)
        expected = oracle_ranking(ds, q, metric)
        got, stats = knn_exact(ds, q, k=n, metric=metric)
        assert [i for i, _ in got] == [i for i, _ in expected]
        np.testing.assert_allclose([d for _, d in got], [d for _, d in expected], atol=1e-12)
        assert stats.distance_computations == n


def test_cost_is_always_n():
    ds = make_dataset(17, 5, seed=3)
    _, stats = knn_exact(ds, np.zeros(5), k=1)
    assert stats == QueryStats(distance_computations=17, candidates_examined=17)


def test_cosine_self_zero_negation_two():
    rng = np.random.default_rng(4)
    v = rng.standard_normal((1, 6))
    assert cosine_distances(v, v[0])[0] == 0.0
    assert abs(cosine_distances(-v, v[0])[0] - 2.0) < 1e-12


def test_cosine_zero_vector_rule():
    v = np.array([[1.0, 2.0], [0.0, 0.0]])
    dists = cosine_distances(v, np.zeros(2))
    assert dists.tolist() == [1.0, 1.0]
    dists2 = cosine_distances(np.zeros((1, 2)), np.array([3.0, 4.0]))
    assert dists2.tolist() == [1.0]


def test_tie_break_by_ascending_id():
    # two identical vectors tie at the same distance from any query
    vals = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]], dtype=np.float32)
    ds = Dataset(2, ["a"], np.array([7, 2, 5]), np.array([0, 0, 0]), vals)
    results, _ = knn_exact(ds, np.array([1.0, 0.0]), k=2, metric="euclidean")
    assert [i for i, _ in results] == [2, 7]


def test_querystats_invariant():
    with pytest.raises(ValueError):
        QueryStats(distance_computations=3, candidates_examined=4)


def test_rejects_wrong_length_query():
    ds = make_dataset(5, 4, seed=5)
    with pytest.raises(ValueError, match="length"):
        knn_exact(ds, np.zeros(3), k=1)


def test_rejects_unknown_metric():
    ds = make_dataset(5, 4, seed=6)
    with pytest.raises(ValueError, match="metric"):
        knn_exact(ds, np.zeros(4), k=1, metric="manhattan")


# ---------------------------------------------------------------------------
# chunked kernels and partition ranking against the whole-matrix forms
# ---------------------------------------------------------------------------

def oracle_normalize_rows(matrix):
    m = np.asarray(matrix, dtype=np.float64)
    norms = np.sqrt((m * m).sum(axis=1))
    out = np.zeros_like(m)
    nonzero = norms > 0
    out[nonzero] = m[nonzero] / norms[nonzero, None]
    return out


def oracle_euclidean(matrix, q):
    m = np.asarray(matrix, dtype=np.float64)
    diff = m - np.asarray(q, dtype=np.float64)
    return np.sqrt((diff * diff).sum(axis=1))


def oracle_cosine(matrix, q):
    m = np.asarray(matrix, dtype=np.float64)
    mn = oracle_normalize_rows(m)
    qn = oracle_normalize_rows(np.asarray(q, dtype=np.float64).reshape(1, -1))[0]
    diff = mn - qn
    dists = 0.5 * (diff * diff).sum(axis=1)
    row_zero = ~mn.any(axis=1)
    if not qn.any():
        dists[:] = 1.0
    else:
        dists[row_zero] = 1.0
    return dists


KERNELS = [(cosine_distances, oracle_cosine), (euclidean_distances, oracle_euclidean)]


def assert_bit_identical(a, b):
    assert a.dtype == b.dtype == np.float64 and a.shape == b.shape
    assert np.array_equal(a.view(np.int64), b.view(np.int64))


@pytest.mark.parametrize("kernel,oracle", KERNELS)
@pytest.mark.parametrize("n", [0, 1, CHUNK_ROWS - 1, CHUNK_ROWS, CHUNK_ROWS + 1, 3 * CHUNK_ROWS + 7])
@pytest.mark.parametrize("dim", [1, 3, 128, 129])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_kernels_bit_identical_to_whole_matrix(kernel, oracle, n, dim, dtype):
    rng = np.random.default_rng(n * 1000 + dim)
    matrix = (rng.standard_normal((n, dim)) * 3).astype(dtype)
    matrix[::97] = 0.0
    queries = [rng.standard_normal(dim).astype(np.float32), np.zeros(dim, np.float32)]
    if n:
        queries.append(matrix[n // 2].astype(np.float32))
    for q in queries:
        assert_bit_identical(kernel(matrix, q), oracle(matrix, q))


@pytest.mark.parametrize("kernel,oracle", KERNELS)
def test_kernels_bit_identical_on_extreme_rows(kernel, oracle):
    rng = np.random.default_rng(7)
    matrix = rng.standard_normal((2 * CHUNK_ROWS + 3, 5))
    matrix[1] = 0.0
    matrix[CHUNK_ROWS] = 1e-200  # squares underflow to 0
    matrix[CHUNK_ROWS + 1] = 1e200  # squares overflow to inf
    matrix[CHUNK_ROWS + 2, 0] = 1e-200
    matrix[-1] = 1e-30
    for q in [rng.standard_normal(5), np.zeros(5), matrix[-1]]:
        with np.errstate(over="ignore", invalid="ignore"):
            expected = oracle(matrix, q)
            got = kernel(matrix, q)
        assert_bit_identical(got, expected)
    with np.errstate(over="ignore", invalid="ignore"):
        cos = cosine_distances(matrix, rng.standard_normal(5))
    assert cos[[1, CHUNK_ROWS, CHUNK_ROWS + 1]].tolist() == [1.0, 1.0, 1.0]


@pytest.mark.parametrize("metric", ["cosine", "euclidean"])
def test_self_distance_zero_in_every_chunk(metric):
    ds = make_dataset(3 * CHUNK_ROWS + 7, 16, seed=8)
    for row in [0, CHUNK_ROWS - 1, CHUNK_ROWS, 2 * CHUNK_ROWS + 5, len(ds) - 1]:
        results, _ = knn_exact(ds, ds.vectors[row], k=1, metric=metric)
        assert results == [(int(ds.ids[row]), 0.0)]


def oracle_rank(ids, dists, k):
    order = np.lexsort((ids, dists))[:k]
    return [(int(ids[i]), float(dists[i])) for i in order]


def test_rank_top_k_matches_full_lexsort():
    rng = np.random.default_rng(9)
    for trial in range(100):
        n = int(rng.integers(1, 80))
        # few distinct values: ties on both sides of the k-th distance
        dists = rng.integers(0, 1 + trial % 6, n).astype(np.float64) / 4
        ids = rng.permutation(5 * n)[:n]
        for k in sorted({1, 2, n // 2 + 1, n - 1, n, n + 5} - {0}):
            assert rank_top_k(ids, dists, k) == oracle_rank(ids, dists, k)


def test_rank_top_k_ties_at_the_cut_keep_ascending_ids():
    ids = np.array([40, 3, 17, 8, 25, 1, 30])
    dists = np.array([0.5, 0.2, 0.5, 0.5, 0.1, 0.9, 0.5])
    assert rank_top_k(ids, dists, 3) == [(25, 0.1), (3, 0.2), (8, 0.5)]
    assert rank_top_k(ids, dists, 4) == oracle_rank(ids, dists, 4)
    equal = np.full(50, 0.25)
    perm = np.random.default_rng(10).permutation(50)
    assert rank_top_k(perm, equal, 5) == [(i, 0.25) for i in range(5)]


def test_rank_top_k_empty_and_invalid_k():
    assert rank_top_k(np.array([], dtype=np.int64), np.array([]), 3) == []
    for k in (0, -2):
        with pytest.raises(ValueError, match=f"k must be positive, got {k}"):
            rank_top_k(np.arange(3), np.zeros(3), k)


def test_check_k():
    assert check_k(3) == 3 and check_k(np.int64(2)) == 2
    for k in (0, -2):
        with pytest.raises(ValueError, match=f"k must be positive, got {k}$"):
            check_k(k)
    for k in (3.5, 2.0, "3", None):
        with pytest.raises(TypeError, match="k must be an integer"):
            check_k(k)


def test_k_is_checked_at_entry_whatever_the_candidates():
    ds = make_dataset(100, 8, seed=3)
    index = BinaryLshIndex.build(ds, BinaryLshParams(L=2, K=64, seed=3))
    missing, member = np.full(8, -1000, dtype=np.float32), ds.vectors[5]
    assert len(index.candidates(missing)[0]) == 0 and len(index.candidates(member)[0]) > 0
    for q in (missing, member):
        for k in (0, -1):
            with pytest.raises(ValueError, match=f"k must be positive, got {k}$"):
                index.query(q, k)
            with pytest.raises(ValueError, match=f"k must be positive, got {k}$"):
                knn_exact(ds, q, k)
        with pytest.raises(TypeError, match="k must be an integer, got 3.5"):
            index.query(q, 3.5)
        with pytest.raises(TypeError, match="k must be an integer, got 3.5"):
            knn_exact(ds, q, 3.5)


@pytest.mark.parametrize("metric", ["cosine", "euclidean"])
def test_exact_scan_makes_no_full_size_temporaries(metric):
    ds = make_dataset(20_000, 128, seed=11, classes=10)
    data_bytes = ds.values64.nbytes
    q = ds.vectors[123]
    knn_exact(ds, q, k=11, metric=metric)
    tracemalloc.start()
    try:
        knn_exact(ds, q, k=11, metric=metric)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < data_bytes / 8


# ---------------------------------------------------------------------------
# the BLAS prefilter: near ties against an unfiltered oracle
# ---------------------------------------------------------------------------

def unfiltered(ids, matrix, q, k, metric):
    """The ranking of every row by the kernel, with no prefilter."""
    return rank_top_k(ids, distances_to(matrix, q, metric), k)


def near_tie_dataset(dim, seed):
    """Rows that tie or nearly tie in every way a filtered scan could get
    wrong: duplicates, twins one float32 ulp apart, power-of-two and other
    multiples of the query, zero rows and 1e-30 / 1e30 rows (each extreme row
    duplicated), under shuffled ids. Returns the dataset and the query."""
    rng = np.random.default_rng(seed)
    q = rng.standard_normal(dim).astype(np.float32)
    up, down = np.nextafter(q, np.float32(np.inf)), np.nextafter(q, np.float32(-np.inf))
    nudged = [np.where(np.arange(dim) == j, up, q) for j in range(min(dim, 4))]
    nudged += [np.where(np.arange(dim) == j, down, q) for j in range(min(dim, 4))]
    extreme = [np.zeros(dim), 1e-30 * q, 1e30 * q, 1e-30 * rng.standard_normal(dim), 1e30 * rng.standard_normal(dim)]
    base = rng.standard_normal((40, dim)).astype(np.float32)
    twins = rng.standard_normal((40, dim)).astype(np.float32)
    twins_up = twins.copy()
    twins_up[:, 0] = np.nextafter(twins[:, 0], np.float32(np.inf))
    rows = np.vstack([q, q, up, down, *nudged, 2 * q, 0.5 * q, 3 * q, -q, *extreme, *extreme,
                      base, base, twins, twins_up]).astype(np.float32)
    order = rng.permutation(len(rows))
    ids = rng.permutation(5 * len(rows))[: len(rows)]
    ds = Dataset(dim, ["a"], ids, np.zeros(len(rows), dtype=np.int64), rows[order])
    return ds, q


def near_tie_queries(ds, q, seed):
    rng = np.random.default_rng(seed + 1)
    return [q, np.nextafter(q, np.float32(np.inf)), 3 * q, ds.vectors[7],
            rng.standard_normal(ds.dim).astype(np.float32), 1e30 * q.astype(np.float64)]


@pytest.mark.parametrize("metric", ["cosine", "euclidean"])
@pytest.mark.parametrize("dim", [1, 3, 128, 129])
def test_prefiltered_scan_equals_unfiltered_on_near_ties(metric, dim):
    ds, q = near_tie_dataset(dim, seed=dim)
    n = len(ds)
    assert n >= PREFILTER_MIN_ROWS
    for query in near_tie_queries(ds, q, dim):
        qv = np.asarray(query, dtype=np.float32)
        for k in (1, 2, 3, 9, n // 2, n - 1, n, n + 5):
            expected = unfiltered(ds.ids, ds.values64, qv, k, metric)
            got, stats = knn_exact(ds, qv, k, metric)
            assert got == expected, (k, query[:2])
            assert stats == QueryStats(n, n)


@pytest.mark.parametrize("metric", ["cosine", "euclidean"])
@pytest.mark.parametrize("dim", [1, 3, 128, 129])
def test_prefiltered_lsh_query_equals_unfiltered_on_near_ties(metric, dim):
    ds, q = near_tie_dataset(dim, seed=dim)
    # one-bit keys: each table's bucket holds about half the rows
    index = BinaryLshIndex.build(ds, BinaryLshParams(L=2, K=1, seed=dim))
    for query in near_tie_queries(ds, q, dim):
        qv = np.asarray(query, dtype=np.float32)
        unique, members = index.candidates(qv)
        values = ds.values64[ds.rows_of(unique)]
        for k in (1, 2, 3, 9, len(unique) // 2, len(unique) - 1, len(unique), len(unique) + 5):
            got, stats = index.query(qv, k, metric)
            assert got == unfiltered(unique, values, qv, k, metric), (k, query[:2])
            assert stats == QueryStats(members, len(unique))


@pytest.mark.parametrize("metric", ["cosine", "euclidean"])
def test_prefilter_drops_rows_and_keeps_every_tie(metric):
    ds, q = near_tie_dataset(128, seed=5)
    keep = prefilter(ds.values64, ds.norms, q, 1, metric)
    assert 2 <= len(keep) < len(ds) // 4
    # the query's duplicate ties it at the cut; zero rows always survive
    assert set(np.flatnonzero((ds.vectors == q).all(axis=1))) <= set(keep)
    assert set(np.flatnonzero(ds.norms == 0)) <= set(keep)
    for k in (len(ds), len(ds) + 5):
        assert prefilter(ds.values64, ds.norms, q, k, metric) == slice(None)
    small = ds.values64[: PREFILTER_MIN_ROWS - 1]
    assert prefilter(small, ds.norms[: len(small)], q, 1, metric) == slice(None)


def near_tie_shell(metric, n=300, dim=64, seed=12):
    """n distinct rows at one true distance from the query, which rounding
    alone orders: for cosine, exact float32 multiples of one integer vector;
    for euclidean, the query plus coordinate permutations of one small
    offset, in float32 steps near 1000, where the score's cancellation error
    dwarfs the distance gaps."""
    rng = np.random.default_rng(seed)
    if metric == "cosine":
        v = rng.integers(-1000, 1000, dim)
        rows = np.outer(rng.choice(np.arange(1, 1000), n, replace=False), v)
        q = v + 1e-3 * rng.standard_normal(dim)
    else:
        step = 2.0**-14  # the float32 spacing in [512, 1024)
        q = 1000 + step * rng.integers(0, 2**14 * 20, dim)
        offset = step * rng.integers(-100, 100, dim)
        rows = q + np.array([rng.permutation(offset) for _ in range(n)])
    ds = Dataset(dim, ["a"], rng.permutation(n), np.zeros(n, dtype=np.int64), rows.astype(np.float32))
    return ds, q.astype(np.float32)


@pytest.mark.parametrize("metric", ["cosine", "euclidean"])
def test_near_tie_shell_needs_the_margin(metric, monkeypatch):
    ds, q = near_tie_shell(metric)
    results = [knn_exact(ds, q, k, metric)[0] for k in (1, 5)]
    assert results == [unfiltered(ds.ids, ds.values64, q, k, metric) for k in (1, 5)]
    # with no margin the BLAS scores alone pick the rows, and this shell's
    # rounding puts some of the true top k outside them
    monkeypatch.setattr(distances, "_cosine_margin", lambda d: 0.0)
    monkeypatch.setattr(distances, "_euclidean_margin", lambda d: 0.0)
    assert [knn_exact(ds, q, k, metric)[0] for k in (1, 5)] != results


@pytest.mark.parametrize("shape", [(3, 11), (1, 33), (33, 1), ()])
def test_rejects_query_that_is_not_one_vector(shape):
    ds = make_dataset(40, 33, seed=7)
    index = BinaryLshIndex.build(ds, BinaryLshParams(L=2, K=3, seed=1))
    q = np.ones(shape, dtype=np.float32)
    with pytest.raises(ValueError, match="length 33"):
        knn_exact(ds, q, k=1)
    with pytest.raises(ValueError, match="length 33"):
        index.query(q, k=1)
