"""One loop hashes a dataset into tables: ``LshIndex._table_words``.

A build hashes its tables in groups of L' tables with L' K <= max(K, d)
axes. Its tables must be the ones a single whole-index ``_table_keys`` call
gives, whatever the number of groups, and a build with L K > d must stay
within the memory its groups allow.
"""

import tracemalloc

import numpy as np
import pytest

from lshkit import Dataset
from lshkit.evaluation import make_index
from lshkit.tables import BucketTable


def make_dataset(n, dim, seed, classes=3):
    rng = np.random.default_rng(seed)
    return Dataset(
        dim,
        [f"c{i}" for i in range(classes)],
        np.arange(n),
        rng.integers(0, classes, n),
        rng.standard_normal((n, dim)).astype(np.float32),
    )


# (dim, L, K): per dim, one (L, K) whose tables fit one group and two that
# span three groups; at d = 3 and 33 one of these has K > d, one table a group
GROUPINGS = [
    (3, 2, 1), (3, 7, 1), (3, 3, 5),
    (33, 3, 8), (33, 9, 8), (33, 3, 40),
    (128, 10, 12), (128, 9, 32), (128, 5, 64),
]


@pytest.mark.parametrize("kind", ["real", "binary"])
@pytest.mark.parametrize("dim,L,K", GROUPINGS)
def test_build_tables_equal_one_whole_index_call(kind, dim, L, K):
    ds = make_dataset(300, dim, seed=dim + L + K)
    index = make_index(kind, ds, L, K, w=2.0, seed=L * K)
    words = index._table_keys(ds.values64)
    assert len(index.bucket_tables) == L
    for t, table in enumerate(index.bucket_tables):
        expected = BucketTable.build(words[:, t])
        for name in ("words", "offsets", "rows"):
            got, want = getattr(table, name), getattr(expected, name)
            assert got.dtype == want.dtype, (t, name)
            assert np.array_equal(got, want), (t, name)


def test_wide_binary_build_peaks_below_its_whole_key_block():
    """L K = 640 axes at d = 128: five groups of four tables, so the build
    never holds the (n, L K) float64 product of all tables at once."""
    n, L, K = 20_000, 20, 32
    ds = make_dataset(n, 128, seed=4)
    ds.values64, ds.norms  # the dataset's own caches, not the build's
    tracemalloc.start()
    try:
        make_index("binary", ds, L, K, seed=5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < n * L * K * 8
