"""``LshIndex._table_keys`` hashes a batch in blocks of ``HASH_BLOCK_ROWS`` rows.

Each block gets its own BLAS product and margin test, so the keys, the
tables built from them and the sweep grid's results must not depend on the
block size, and a call must never hold the (n, L K) float64 product of the
whole batch. The batch may hold its float32 values in float32 or float64.
"""

import tracemalloc

import numpy as np
import pytest

from lshkit import Dataset, evaluate_grid, real_lsh
from lshkit.evaluation import make_index
from lshkit.real_lsh import BLAS_HASH_MIN_ROWS, project

# n is a multiple of no block size below
N, DIM = 9_001, 24
BLOCK_SIZES = (64, 100, 512, 8_192)


def make_dataset(n, dim, seed, classes=4):
    rng = np.random.default_rng(seed)
    centroids = rng.standard_normal((classes, dim))
    label_ids = rng.integers(0, classes, n)
    vectors = (centroids[label_ids] + rng.standard_normal((n, dim))).astype(np.float32)
    vectors[:3] = 0.0  # zero rows: every projection sits on a level boundary
    return Dataset(dim, [f"c{i}" for i in range(classes)], np.arange(n), label_ids, vectors)


def project_keys(index, values):
    """The key words of ``project``'s dot products: what _table_keys returns."""
    proj = project(np.asarray(values, dtype=np.float64), index._axes64.reshape(-1, index.dim))
    return index._pack(index._quantize(proj.reshape(len(values), -1, index.params.K), slice(None)))


def hashed(kind, ds):
    """A block size's keys, built tables and sweep-grid repr for one family."""
    index = make_index(kind, ds, 3, 5, w=2.0, seed=7)
    tables = [(t.words, t.offsets, t.rows) for t in index.bucket_tables]
    grid = evaluate_grid(ds, list(range(0, N, 90)), kind, (1, 3), (2, 5), w=2.0, seed=7, k=5)
    return index._table_keys(ds.values64), tables, repr(grid)


@pytest.mark.parametrize("kind", ["real", "binary"])
def test_keys_tables_and_grid_do_not_depend_on_the_block_size(kind, monkeypatch):
    ds = make_dataset(N, DIM, seed=1)
    results = []
    for rows in BLOCK_SIZES:
        monkeypatch.setattr(real_lsh, "HASH_BLOCK_ROWS", rows)
        results.append(hashed(kind, ds))
    keys, tables, grid = results[0]
    assert np.array_equal(keys, project_keys(make_index(kind, ds, 3, 5, w=2.0, seed=7), ds.vectors))
    for rows, (other_keys, other_tables, other_grid) in zip(BLOCK_SIZES[1:], results[1:]):
        assert other_keys.dtype == keys.dtype and np.array_equal(other_keys, keys), rows
        for t, (got, want) in enumerate(zip(other_tables, tables)):
            for name, a, b in zip(("words", "offsets", "rows"), got, want):
                assert a.dtype == b.dtype and np.array_equal(a, b), (rows, t, name)
        assert other_grid == grid, rows


@pytest.mark.parametrize("kind", ["real", "binary"])
def test_float32_and_float64_rows_hash_alike(kind):
    ds = make_dataset(2_000, DIM, seed=2)
    index = make_index(kind, ds, 3, 5, w=2.0, seed=3)
    picked = np.random.default_rng(4).permutation(len(ds))[:700]
    for batch in (1, BLAS_HASH_MIN_ROWS - 1, BLAS_HASH_MIN_ROWS, 700):
        for tables in (slice(None), slice(1, 2)):
            rows = picked[:batch]
            want = index._table_keys(ds.values64[rows], tables)
            assert np.array_equal(index._table_keys(ds.vectors[rows], tables), want), (batch, tables)
    assert np.array_equal(index._table_keys(ds.vectors), index._table_keys(ds.values64))


def test_one_call_never_holds_the_whole_product():
    """20k x 128 rows, binary L=10, K=12: one call over the dataset peaks
    below a quarter of the (n, L K) float64 product it no longer forms."""
    n, L, K = 20_000, 10, 12
    ds = make_dataset(n, 128, seed=5)
    index = make_index("binary", ds, 1, 1)
    index = type(index).with_coefficients(ds, index.make_params(L, K, 4.0, 6))
    ds.values64, ds.norms  # the dataset's own caches, not the call's
    tracemalloc.start()
    try:
        index._table_keys(ds.values64)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < n * L * K * 8 / 4
