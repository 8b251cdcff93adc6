"""``LshIndex._table_keys`` hashes from the float32 rows.

Each block is projected with one float32 BLAS product first, and the
family's ``_decide`` keeps only the levels that the float32 margin
M32 = fl(fl(n_v C) + z) proves equal to ``project``'s; the float64 tier
re-decides the rows it leaves open. The keys must be ``project``'s on rows
where float32 rounding, gradual underflow or overflow moves a float32
product across a level boundary, and each part of the margin must be needed
there. No library path may read ``Dataset.values64``.
"""

import tracemalloc

import numpy as np
import pytest

from lshkit import (
    BinaryLshIndex,
    BinaryLshParams,
    Dataset,
    RealLshIndex,
    RealLshParams,
    evaluate_grid,
    knn_exact,
    load_index,
    parameter_sweep,
    real_lsh,
    save_index,
)
from lshkit.evaluation import make_index
from lshkit.real_lsh import BLAS_HASH_MIN_ROWS, HASH_BLOCK_ROWS, project

DIM = 16


def dataset(rows):
    return Dataset(DIM, ["a"], np.arange(len(rows)), np.zeros(len(rows), dtype=np.int64), rows)


def project_keys(index, values):
    """The key words of ``project``'s dot products: what _table_keys returns."""
    proj = project(np.asarray(values, dtype=np.float64), index._axes64.reshape(-1, index.dim))
    return index._pack(index._quantize(proj.reshape(len(values), -1, index.params.K), slice(None)))


def sign_index(kind, rows, scale=1.0):
    """One table whose three axes are ``scale`` times the ones vector, its
    negative and twice it, with real offsets 0 and w = 0.5: every key of a
    row with x . 1 near 0 sits on a level boundary."""
    ones = np.full(DIM, scale, dtype=np.float32)
    axes = np.array([[ones, -ones, 2 * ones]], dtype=np.float32)
    if kind == "real":
        return RealLshIndex(RealLshParams(L=1, K=3, w=0.5), DIM, axes, np.zeros((1, 3)), [], dataset(rows))
    return BinaryLshIndex(BinaryLshParams(L=1, K=3), DIM, axes, [], dataset(rows))


def placed_rows(terms, seed, spots=400):
    """Rows holding ``terms`` in shuffled coordinates, zeros elsewhere, so
    that a float32 sum of the row adds the terms in many orders."""
    rng = np.random.default_rng(seed)
    rows = np.zeros((spots * len(terms), DIM), dtype=np.float32)
    for i in range(spots):
        for j, values in enumerate(terms):
            rows[i * len(terms) + j, rng.choice(DIM, size=len(values), replace=False)] = values
    return rows


def rounding_rows():
    """x . 1 = 2^-25 big > 0, but big + 3 2^-26 big rounds to big in float32,
    so a sum that adds that term to big first ends at -2^-26 big < 0."""
    return placed_rows([(big, -big, 3 * 2.0**-26 * big, -(2.0**-26) * big) for big in (1.0, 16.0)], seed=1)


def underflow_rows():
    """Subnormal coordinates k 2^-149 against axes of 0.7: each product
    k 0.7 2^-149 rounds to a multiple of 2^-149 in float32, so the float32
    sum of 1.4, -0.7 and -0.7 (times 2^-149) is -2^-149, and of 1.4, 1.4
    and four -0.7 about -2 2^-149, while x . X is 0. The second kind needs z
    in signatures too, whose float32 margin is rounded up to 2^-149 or more."""
    tiny = np.float32(2.0**-149)
    return placed_rows([(2 * tiny, -tiny, -tiny), (2 * tiny, 2 * tiny, -tiny, -tiny, -tiny, -tiny)], seed=2)


def assert_hashes_like_project(index, rows):
    keys = index._table_keys(rows)
    assert keys.dtype == project_keys(index, rows).dtype and np.array_equal(keys, project_keys(index, rows))
    # float64 rows of the same float32 values hash alike
    assert np.array_equal(index._table_keys(rows.astype(np.float64)), keys)
    for batch in (BLAS_HASH_MIN_ROWS, HASH_BLOCK_ROWS + 1):
        assert np.array_equal(index._table_keys(rows[-batch:]), keys[-batch:]), batch


@pytest.mark.parametrize("kind", ["real", "binary"])
def test_float32_keys_near_boundaries_need_the_float32_margin(kind, monkeypatch):
    rows = rounding_rows()
    assert len(rows) > HASH_BLOCK_ROWS + 1
    assert_hashes_like_project(sign_index(kind, rows), rows)
    # with no float32 margin (z alone) the float32 products decide every key,
    # and on these rows their rounding differs from project's
    monkeypatch.setattr(real_lsh, "_hash_margin32", lambda d: 0.0)
    index = sign_index(kind, rows)
    assert not np.array_equal(index._table_keys(rows), project_keys(index, rows))


@pytest.mark.parametrize("kind", ["real", "binary"])
def test_float32_keys_of_underflowing_products_need_the_underflow_term(kind, monkeypatch):
    rows = underflow_rows()
    assert_hashes_like_project(sign_index(kind, rows, scale=0.7), rows)
    # the relative margin is far below 2^-149 on these rows; z covers it
    monkeypatch.setattr(real_lsh, "_underflow_margin", lambda d: 0.0)
    index = sign_index(kind, rows, scale=0.7)
    assert not np.array_equal(index._table_keys(rows), project_keys(index, rows))


def overflow_rows():
    """Rows of three coordinates from 1.4e38 to 3.4e38 (float32's largest),
    so x . 1, from 4.1e38 to 1e39, overflows in any float32 sum; 2^63 w is
    9.2e38 for w = 1e20. Half of them carry a -1e37 tail."""
    rng = np.random.default_rng(4)
    rows = np.zeros((300, DIM), dtype=np.float32)
    for row in rows:
        row[rng.choice(DIM, size=3, replace=False)] = rng.uniform(1.4e38, 3.4e38, 3)
    rows[::2, -1] -= 1e37
    return rows


def test_overflowing_float32_products_raise_exactly_when_project_does():
    """Each row hashes in a batch of zero rows; float32 BLAS gives inf on
    every such row, and the real family raises the int64 ValueError exactly
    when project's keys raise it."""
    rows = overflow_rows()
    axes = np.ones((1, 1, DIM), dtype=np.float32)
    index = RealLshIndex(RealLshParams(L=1, K=1, w=1e20), DIM, axes, np.zeros((1, 1)), [], dataset(rows))
    with np.errstate(over="ignore"):
        assert not np.isfinite(rows @ index._axes32[0].T).any()
    filler = np.zeros((BLAS_HASH_MIN_ROWS, DIM), dtype=np.float32)
    outcomes = set()
    for row in rows:
        batch = np.vstack([filler, row])
        try:
            expected = project_keys(index, batch)
        except ValueError:
            for values in (batch, batch.astype(np.float64)):
                with pytest.raises(ValueError, match="overflows int64"):
                    index._table_keys(values)
            outcomes.add("raised")
        else:
            assert np.array_equal(index._table_keys(batch), expected)
            assert np.array_equal(index._table_keys(batch.astype(np.float64)), expected)
            outcomes.add("fits")
    assert outcomes == {"raised", "fits"}


def test_overflowing_float32_products_hash_like_project_in_signatures():
    """Besides the overflow_rows, rows whose x . 1 is -1e37 after terms of
    +-3e38 cancel: a float32 sum that adds the two +3e38 terms first ends at
    +inf, the wrong sign."""
    rows = np.vstack([overflow_rows(), placed_rows([(3e38, 3e38, -3e38, -3e38, -1e37)], seed=5)])
    rows[1:300:4] *= -1
    index = sign_index("binary", rows)
    with np.errstate(over="ignore", invalid="ignore"):
        assert (rows @ index._axes32[0, 0] == np.inf).any()
    assert_hashes_like_project(index, rows)


def test_one_call_over_the_float32_rows_never_holds_the_whole_product():
    """20k x 128 float32 rows, binary L=10, K=12: one call over ``vectors``
    peaks below a quarter of the (n, L K) float64 product, and builds no
    float64 copy of the dataset."""
    n, L, K = 20_000, 10, 12
    rng = np.random.default_rng(5)
    ds = Dataset(128, ["a"], np.arange(n), np.zeros(n, dtype=np.int64), rng.standard_normal((n, 128)).astype(np.float32))
    index = BinaryLshIndex.with_coefficients(ds, BinaryLshParams(L, K, seed=6))
    ds.norms  # the dataset's own cache, not the call's
    tracemalloc.start()
    try:
        index._table_keys(ds.vectors)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < n * L * K * 8 / 4
    assert ds._values64 is None


def test_no_library_path_reads_values64(tmp_path):
    rng = np.random.default_rng(7)
    n, dim = 1_000, 24
    label_ids = rng.integers(0, 4, n)
    vectors = (rng.standard_normal((4, dim))[label_ids] + rng.standard_normal((n, dim))).astype(np.float32)
    ds = Dataset(dim, [f"c{i}" for i in range(4)], np.arange(n), label_ids, vectors)
    queries = list(range(0, n, 10))

    def untouched():
        return ds._values64 is None

    indexes = [make_index(kind, ds, 3, 4, w=2.0, seed=1) for kind in ("real", "binary")]
    assert untouched()
    for kind in ("real", "binary"):
        evaluate_grid(ds, queries, kind, (1, 3), (2, 4), w=2.0, seed=1)
        parameter_sweep(ds, (1, 3), (2, 4), kind, query_ids=queries, w=2.0, seed=1)
    assert untouched()
    for index in indexes:
        index.query(vectors[5], k=5)
    assert untouched()
    knn_exact(ds, vectors[5], 5, "cosine")
    knn_exact(ds, vectors[5], 5, "euclidean")
    assert untouched()
    for i, index in enumerate(indexes):
        save_index(index, tmp_path / f"{i}.idx")
        loaded = load_index(tmp_path / f"{i}.idx", ds)
        assert [t.words.tobytes() for t in loaded.bucket_tables] == [t.words.tobytes() for t in index.bucket_tables]
    assert untouched()
