import numpy as np
import pytest

from lshkit import (
    BinaryLshIndex,
    BinaryLshParams,
    Dataset,
    ProjectionFunction,
    QueryStats,
    RealLshIndex,
    RealLshParams,
    build_real_index,
    generate_synthetic,
    projection_hash,
)
from lshkit import real_lsh
from lshkit.distances import PREFILTER_MIN_ROWS, as_query, distances_to, rank_top_k
from lshkit.real_lsh import BLAS_HASH_MIN_ROWS, HASH_BLOCK_ROWS, project
from lshkit.tables import gather

from helpers import oracle_distance


def make_dataset(n=30, dim=6, classes=3, seed=0):
    rng = np.random.default_rng(seed)
    return Dataset(
        dim,
        [f"c{i}" for i in range(classes)],
        np.arange(n),
        rng.integers(0, classes, n),
        rng.standard_normal((n, dim)).astype(np.float32),
    )


# ---------------------------------------------------------------------------
# elementary hash
# ---------------------------------------------------------------------------

def test_projection_hash_positive_case():
    fn = ProjectionFunction(np.array([1.0, 0.0], dtype=np.float32), 2.0)
    assert projection_hash([3.0, 5.0], fn, 4.0) == 1


def test_projection_hash_negative_floor():
    fn = ProjectionFunction(np.array([1.0, 0.0], dtype=np.float32), 2.0)
    assert projection_hash([-7.0, 1.0], fn, 4.0) == -2


def test_projection_hash_zero_vector():
    rng = np.random.default_rng(0)
    for w in (0.5, 4.0, 9.0):
        fn = ProjectionFunction(rng.standard_normal(5).astype(np.float32), 0.0)
        assert projection_hash(np.zeros(5), fn, w) == 0


# ---------------------------------------------------------------------------
# bucket keys
# ---------------------------------------------------------------------------

def test_bucket_key_k1_equals_single_hash():
    ds = make_dataset(dim=4)
    index = build_real_index(ds, RealLshParams(L=2, K=1, seed=3))
    p = ds.get(5).values
    for t in range(2):
        key = index.bucket_key(t, p)
        assert len(key) == 1
        assert key[0] == projection_hash(p, index.projection(t, 0), index.params.w)


def test_bucket_key_deterministic():
    ds = make_dataset()
    index = build_real_index(ds, RealLshParams(L=3, K=2, seed=9))
    p = ds.get(0).values
    assert index.bucket_key(1, p) == index.bucket_key(1, p)


def test_bucket_key_k3_matches_per_component_oracle():
    # hand-set functions, each component checked against projection_hash
    dim, w = 3, 4.0
    axes = np.array(
        [[[1.0, 0.0, 0.0], [0.0, 1.0, -1.0], [2.0, 0.5, 1.0]]], dtype=np.float32
    )
    offsets = np.array([[2.0, 0.0, 3.0]], dtype=np.float32)
    ds = make_dataset(n=4, dim=dim)
    index = RealLshIndex(RealLshParams(L=1, K=3, w=w, seed=0), dim, axes, offsets, [], ds)
    p = np.array([3.0, -5.0, 2.0], dtype=np.float32)
    expected = tuple(
        projection_hash(p, ProjectionFunction(axes[0, j], float(offsets[0, j])), w)
        for j in range(3)
    )
    assert index.bucket_key(0, p) == expected


def test_bucket_key_table_index_out_of_range():
    ds = make_dataset()
    index = build_real_index(ds, RealLshParams(L=2, K=1, seed=0))
    with pytest.raises(ValueError, match="table_index"):
        index.bucket_key(2, ds.get(0).values)


# ---------------------------------------------------------------------------
# build
# ---------------------------------------------------------------------------

def test_build_partitions_every_table():
    ds = make_dataset(n=40)
    index = build_real_index(ds, RealLshParams(L=4, K=2, seed=1))
    for table in index.tables:
        assert sum(len(bucket) for bucket in table.values()) == 40
        ids = sorted(i for bucket in table.values() for i in bucket)
        assert ids == list(range(40))


def test_build_deterministic():
    ds = make_dataset()
    a = build_real_index(ds, RealLshParams(L=3, K=2, seed=42))
    b = build_real_index(ds, RealLshParams(L=3, K=2, seed=42))
    assert a.tables == b.tables
    assert np.array_equal(a.axes, b.axes)
    assert np.array_equal(a.offsets, b.offsets)
    c = build_real_index(ds, RealLshParams(L=3, K=2, seed=43))
    assert c.tables != a.tables


def test_large_k_separates_every_vector():
    ds = make_dataset(n=100, dim=16, seed=8)
    index = build_real_index(ds, RealLshParams(L=1, K=32, seed=5))
    assert len(index.tables[0]) == 100


def test_key_length_equals_k():
    ds = make_dataset()
    index = build_real_index(ds, RealLshParams(L=2, K=5, seed=2))
    for table in index.tables:
        assert all(len(key) == 5 for key in table)


def test_stored_keys_match_recomputation():
    ds = make_dataset(n=30, seed=13)
    index = build_real_index(ds, RealLshParams(L=3, K=2, seed=6))
    for t, table in enumerate(index.tables):
        for key, bucket in table.items():
            for vid in bucket:
                assert index.bucket_key(t, ds.get(vid).values) == key


def test_build_rejects_empty_dataset():
    empty = Dataset(3, [], np.array([], dtype=np.int64), np.array([], dtype=np.int64),
                    np.zeros((0, 3), dtype=np.float32))
    with pytest.raises(ValueError, match="empty"):
        build_real_index(empty, RealLshParams(L=1, K=1, seed=0))


def test_key_overflow_raises_at_build_and_query():
    # floor(proj / w) of these two lies beyond int64; a silent cast would
    # send both to INT64_MIN, one shared bucket
    vals = np.zeros((2, 4), dtype=np.float32)
    vals[0, :] = 1e30
    vals[1, :] = -3e30
    huge = Dataset(4, ["a", "b"], np.arange(2), np.arange(2), vals)
    with pytest.raises(ValueError, match="overflows int64"):
        build_real_index(huge, RealLshParams(L=2, K=2, seed=0))
    index = build_real_index(make_dataset(dim=4), RealLshParams(L=2, K=2, seed=0))
    for v in vals:
        with pytest.raises(ValueError, match="overflows int64"):
            index.query(v, k=3)
        with pytest.raises(ValueError, match="overflows int64"):
            index.bucket_key(0, v)


def test_params_validation():
    with pytest.raises(ValueError):
        RealLshParams(L=0, K=1, seed=0)
    with pytest.raises(ValueError):
        RealLshParams(L=1, K=0, seed=0)
    with pytest.raises(ValueError):
        RealLshParams(L=1, K=1, w=0.0, seed=0)


# ---------------------------------------------------------------------------
# query
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("metric", ["cosine", "euclidean"])
def test_self_retrieval(metric):
    ds = make_dataset(n=50, seed=3)
    index = build_real_index(ds, RealLshParams(L=3, K=3, seed=7))
    for vid in (0, 13, 49):
        results, _ = index.query(ds.get(vid).values, k=5, metric=metric)
        assert results[0] == (vid, 0.0)


def test_fewer_candidates_than_k():
    ds = make_dataset(n=1)
    index = build_real_index(ds, RealLshParams(L=2, K=1, seed=0))
    results, _ = index.query(ds.get(0).values, k=5)
    assert len(results) == 1


def test_query_equals_exact_ranking_of_candidates():
    ds = make_dataset(n=30, dim=5, seed=11)
    index = build_real_index(ds, RealLshParams(L=3, K=2, seed=4))
    rng = np.random.default_rng(12)
    for metric in ("cosine", "euclidean"):
        q = rng.standard_normal(5).astype(np.float32)
        candidates, _ = index.candidates(q)
        assert set(candidates.tolist()) <= set(ds.ids.tolist())
        expected = sorted(
            (oracle_distance(ds.get(int(c)).values, q, metric), int(c)) for c in candidates
        )
        results, stats = index.query(q, k=10, metric=metric)
        assert [i for i, _ in results] == [i for _, i in expected[:10]]
        assert stats.candidates_examined == len(candidates)


def test_query_counts_multiset_across_tables():
    ds = make_dataset(n=25, seed=6)
    index = build_real_index(ds, RealLshParams(L=4, K=1, seed=9))
    q = ds.get(3).values
    keys = [index.bucket_key(t, q) for t in range(4)]
    expected_multiset = sum(len(index.tables[t][keys[t]]) for t in range(4))
    _, stats = index.query(q, k=5)
    assert stats.distance_computations == expected_multiset
    assert stats.candidates_examined <= stats.distance_computations


def test_empty_candidate_set():
    ds = make_dataset(n=10, dim=4, seed=2)
    index = build_real_index(ds, RealLshParams(L=2, K=2, seed=3))
    far = np.full(4, 1e6, dtype=np.float32)
    results, stats = index.query(far, k=5)
    assert results == []
    assert stats.distance_computations == 0
    assert stats.candidates_examined == 0


def test_query_deterministic():
    ds = make_dataset(n=40, seed=14)
    index = build_real_index(ds, RealLshParams(L=3, K=2, seed=1))
    q = np.linspace(-1, 1, ds.dim).astype(np.float32)
    assert index.query(q, k=7) == index.query(q, k=7)


# ---------------------------------------------------------------------------
# shared-prefix seed derivation
# ---------------------------------------------------------------------------

def test_tables_share_prefix_across_l():
    ds = make_dataset(n=35, seed=21)
    small = build_real_index(ds, RealLshParams(L=2, K=2, seed=77))
    large = build_real_index(ds, RealLshParams(L=5, K=2, seed=77))
    assert large.tables[:2] == small.tables
    assert np.array_equal(large.axes[:2], small.axes)


def test_candidates_grow_with_l():
    ds = generate_synthetic(5, 10, 8, 0.3, seed=30)
    small = build_real_index(ds, RealLshParams(L=2, K=2, seed=19))
    large = build_real_index(ds, RealLshParams(L=6, K=2, seed=19))
    rng = np.random.default_rng(31)
    for _ in range(10):
        q = rng.standard_normal(8).astype(np.float32)
        few, _ = small.candidates(q)
        many, _ = large.candidates(q)
        assert set(few.tolist()) <= set(many.tolist())


def test_slot_functions_shared_across_k():
    # the first K1 hash slots of a K2 > K1 index are the same functions,
    # so longer keys refine the same partition
    ds = make_dataset(n=20, seed=22)
    narrow = build_real_index(ds, RealLshParams(L=2, K=2, seed=55))
    wide = build_real_index(ds, RealLshParams(L=2, K=4, seed=55))
    assert np.array_equal(wide.axes[:, :2, :], narrow.axes)
    q = ds.get(4).values
    assert wide.bucket_key(0, q)[:2] == narrow.bucket_key(0, q)


# ---------------------------------------------------------------------------
# the row-keyed query path over ids that are not rows
# ---------------------------------------------------------------------------

def id_keyed_query(index, q, k, metric):
    """A query that dedupes by id: gather the bucket rows, np.unique their
    ids, map the ids back to rows, score every candidate with no prefilter.
    Returns the sorted candidate ids, the ranking and the QueryStats."""
    ds = index.dataset
    qv = as_query(q, ds.dim)
    rows = gather(index.bucket_tables, index._table_keys(qv.astype(np.float64).reshape(1, -1))[0])
    unique = np.unique(ds.ids[rows])
    stats = QueryStats(distance_computations=len(rows), candidates_examined=len(unique))
    if not len(unique):
        return unique, [], stats
    dists = distances_to(ds.values64[ds.rows_of(unique)], qv, metric)
    return unique, rank_top_k(unique, dists, k), stats


@pytest.mark.parametrize("metric", ["cosine", "euclidean"])
@pytest.mark.parametrize(
    "family, params",
    [(RealLshIndex, RealLshParams(L=6, K=1, seed=8)), (BinaryLshIndex, BinaryLshParams(L=3, K=2, seed=8))],
)
def test_query_over_shuffled_gapped_ids_equals_id_keyed_query(family, params, metric):
    n, dim = 400, 16
    rng = np.random.default_rng(41)
    ids = 7 * rng.permutation(n) + 3
    ds = Dataset(dim, ["a", "b"], ids, rng.integers(0, 2, n), rng.standard_normal((n, dim)).astype(np.float32))
    index = family.build(ds, params)
    queries = [ds.vectors[r] for r in range(0, n, 20)] + list(rng.standard_normal((20, dim)).astype(np.float32))
    filtered = 0
    for q in queries:
        unique, _, stats = id_keyed_query(index, q, 1, metric)
        filtered += stats.candidates_examined >= PREFILTER_MIN_ROWS
        assert np.array_equal(index.candidates(q)[0], unique)
        assert index.candidates(q)[1] == stats.distance_computations
        for k in (1, 5, 11, len(unique) + 3):
            assert index.query(q, k, metric) == id_keyed_query(index, q, k, metric)[1:]
    # most candidate sets are large enough for the prefilter to engage
    assert filtered > len(queries) // 2


@pytest.mark.parametrize("make", [RealLshParams, BinaryLshParams])
@pytest.mark.parametrize("name, value", [("L", 2.5), ("K", 2.0), ("K", "3"), ("seed", 1.5), ("seed", None)])
def test_params_reject_non_integral_l_k_and_seed(make, name, value):
    fields = {"L": 2, "K": 2, "seed": 0, name: value}
    with pytest.raises(TypeError, match=f"^{name} must be an integer, got {value!r}$"):
        make(**fields)


def test_params_store_integral_values_as_int():
    params = RealLshParams(L=np.int64(2), K=np.uint8(3), seed=np.int32(-4))
    assert params == RealLshParams(L=2, K=3, seed=-4)
    assert all(type(v) is int for v in (params.L, params.K, params.seed))
    for make, K, message in [(RealLshParams, 0, "K must be >= 1, got 0"),
                             (BinaryLshParams, 65, "K must be in 1..64, got 65")]:
        with pytest.raises(ValueError, match="^L must be >= 1, got 0$"):
            make(L=0, K=K)
        with pytest.raises(ValueError, match=f"^{message}$"):
            make(L=1, K=K)


# ---------------------------------------------------------------------------
# BLAS hashing: the margin decides only keys equal to project's
# ---------------------------------------------------------------------------

BOUNDARY_DIM = 16


def project_keys(index, values64, tables=slice(None)):
    """The key words of ``project``'s dot products: what _table_keys returns."""
    axes = index._axes64[tables].reshape(-1, index.dim)
    proj = project(values64, axes).reshape(len(values64), -1, index.params.K)
    return index._pack(index._quantize(proj, tables))


def boundary_rows(base, ulp, seed, spots=450):
    """Rows x with x . 1 = base + t for t in 0, +-ulp and +-ulp/2, each the sum
    of base, +-big and t in shuffled coordinates, so that the float64 sum
    depends on its order: einsum's and BLAS's differ on some rows."""
    rng = np.random.default_rng(seed)
    rows = []
    for _ in range(spots):
        a, b, c, e = rng.choice(BOUNDARY_DIM, size=4, replace=False)
        for big in (1.0, 16.0):
            for t in (0.0, ulp, -ulp, ulp / 2, -ulp / 2):
                x = np.zeros(BOUNDARY_DIM)
                x[[a, b, c, e]] = big, -big, t, base
                rows.append(x)
    return np.array(rows, dtype=np.float32)


def boundary_index(kind):
    """An index over rows at x . 1 = 0 and at 1.25 (plus or minus float64
    ulps), a zero row and an exact-zero projection row. Table 0's axes are
    1, -1 and 2 times the ones vector, with real offsets that put
    x . X + b = 1.25 + 0.25 on a multiple of w = 0.5; table 1's are 1, -1
    and 0.5 times it with offsets 0, so x . X + b = 0 sits on one; table 2
    is drawn."""
    rows = np.vstack([boundary_rows(0.0, 2.0**-60, seed=1), boundary_rows(1.25, 2.0**-52, seed=2),
                      np.zeros(BOUNDARY_DIM), np.eye(BOUNDARY_DIM)[0] - np.eye(BOUNDARY_DIM)[1]])
    ds = Dataset(BOUNDARY_DIM, ["a"], np.arange(len(rows)), np.zeros(len(rows), dtype=np.int64), rows)
    ones = np.ones(BOUNDARY_DIM)
    drawn = np.random.default_rng(3).standard_normal((3, BOUNDARY_DIM))
    axes = np.array([[ones, -ones, 2 * ones], [ones, -ones, 0.5 * ones], drawn], dtype=np.float32)
    if kind == "real":
        offsets = np.array([[0.25, 0.25, 0.5], [0.0, 0.0, 0.0], [0.1, 0.2, 0.3]], dtype=np.float32)
        return RealLshIndex(RealLshParams(L=3, K=3, w=0.5), BOUNDARY_DIM, axes, offsets, [], ds)
    return BinaryLshIndex(BinaryLshParams(L=3, K=3), BOUNDARY_DIM, axes, [], ds)


@pytest.mark.parametrize("kind", ["real", "binary"])
def test_blas_keys_equal_project_keys_near_boundaries(kind):
    index = boundary_index(kind)
    values = index.dataset.values64
    n = len(values)
    assert n > HASH_BLOCK_ROWS + 1
    for tables in (slice(None), slice(0, 1), slice(1, 3)):
        full = index._table_keys(values, tables)
        expected = project_keys(index, values, tables)
        assert full.dtype == expected.dtype and np.array_equal(full, expected)
        for batch in (1, BLAS_HASH_MIN_ROWS - 1, BLAS_HASH_MIN_ROWS, HASH_BLOCK_ROWS, HASH_BLOCK_ROWS + 1, n):
            for start in (0, n - batch):
                part = values[start : start + batch]
                assert np.array_equal(index._table_keys(part, tables), full[start : start + batch]), (tables, batch)


def test_blas_keys_on_zero_rows_and_multiples_of_w():
    real, binary = boundary_index("real"), boundary_index("binary")
    values = real.dataset.values64
    zero, exact_zero = len(values) - 2, len(values) - 1
    real_keys, binary_keys = real._table_keys(values), binary._table_keys(values)
    # binary: every zero dot product hashes to 1
    assert binary_keys[zero, :, 0].tolist() == [7, 7, 7]
    assert binary_keys[exact_zero, :2, 0].tolist() == [7, 7]
    # real: a zero row hashes to floor(b / w)
    assert real_keys[zero].tolist() == [[0, 0, 1], [0, 0, 0], [0, 0, 0]]
    assert real_keys[exact_zero, :2].tolist() == [[0, 0, 1], [0, 0, 0]]
    # x . 1 = 1.25 exactly and one float64 ulp either side: table 0's
    # (x . X + 0.25) / 0.5 is 3, or 3 one ulp up or down
    ulp = 2.0**-52
    at = np.zeros((3, BOUNDARY_DIM), dtype=np.float32)
    at[:, 0] = 1.25
    at[1:, 1] = ulp, -ulp
    batch = np.vstack([at.astype(np.float64), values[: BLAS_HASH_MIN_ROWS]])
    keys = real._table_keys(batch)
    assert np.array_equal(keys, project_keys(real, batch))
    assert keys[:3, 0].tolist() == [[3, -2, 6], [3, -3, 6], [2, -2, 5]]


@pytest.mark.parametrize("kind", ["real", "binary"])
def test_boundary_keys_need_the_margin(kind, monkeypatch):
    values = boundary_index(kind).dataset.values64
    # with no margin the BLAS products decide every key, and on these rows
    # their rounding differs from project's
    monkeypatch.setattr(real_lsh, "_hash_margin", lambda d: 0.0)
    index = boundary_index(kind)
    assert not np.array_equal(index._table_keys(values), project_keys(index, values))


def test_blas_keys_overflow_exactly_when_project_does():
    """(x . 1) / 2**-40 lands on 2**63, the first value outside int64, or one
    float64 ulp below or above it: ValueError from _table_keys exactly when
    project's keys raise it."""
    rows = boundary_rows(2.0**23, 2.0**-29, seed=4, spots=60)
    ds = Dataset(BOUNDARY_DIM, ["a"], np.arange(len(rows)), np.zeros(len(rows), dtype=np.int64), rows)
    axes = np.ones((1, 1, BOUNDARY_DIM), dtype=np.float32)
    index = RealLshIndex(RealLshParams(L=1, K=1, w=2.0**-40), BOUNDARY_DIM, axes, np.zeros((1, 1)), [], ds)
    filler = np.zeros((BLAS_HASH_MIN_ROWS, BOUNDARY_DIM))
    outcomes = set()
    for row in ds.values64:
        batch = np.vstack([filler, row])
        try:
            expected = project_keys(index, batch)
        except ValueError:
            with pytest.raises(ValueError, match="overflows int64"):
                index._table_keys(batch)
            outcomes.add("raised")
        else:
            assert np.array_equal(index._table_keys(batch), expected)
            outcomes.add("fits")
    assert outcomes == {"raised", "fits"}
