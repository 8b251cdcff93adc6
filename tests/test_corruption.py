"""Every reader either rejects a damaged file with its own error type or
returns an object that works.

Each small fvec, csv and snapshot file is truncated at every offset and has
each byte flipped in turn (its lowest bit, its 0x40 bit, which is
the top exponent bit of a float, then all its bits). The reader must raise
exactly DatasetFormatError (datasets) or SnapshotError (snapshots), or
return an object that answers queries without raising.
"""

import numpy as np
import pytest

from lshkit import (
    BinaryLshParams,
    Dataset,
    DatasetFormatError,
    RealLshParams,
    SnapshotError,
    bucket_statistics,
    build_binary_index,
    build_real_index,
    knn_exact,
    load_dataset,
    load_index,
    save_dataset,
    save_index,
)
from lshkit.dataset import from_fvec_bytes


def small_dataset():
    rng = np.random.default_rng(3)
    return Dataset(3, ["ab", "c"], np.arange(6), np.array([0, 0, 0, 1, 1, 1]),
                   rng.standard_normal((6, 3)).astype(np.float32))


def damaged(blob: bytes):
    for cut in range(len(blob)):
        yield blob[:cut]
    for i in range(len(blob)):
        for mask in (0x01, 0x40, 0xFF):
            flipped = bytearray(blob)
            flipped[i] ^= mask
            yield bytes(flipped)


def exercise_dataset(ds):
    if len(ds):
        for metric in ("cosine", "euclidean"):
            knn_exact(ds, ds.vectors[0], 3, metric)


def test_damaged_fvec(tmp_path):
    path = tmp_path / "d.fvec"
    save_dataset(small_dataset(), path)
    loaded = 0
    with np.errstate(all="ignore"):
        for blob in damaged(path.read_bytes()):
            try:
                ds = from_fvec_bytes(blob)
            except DatasetFormatError:
                continue
            exercise_dataset(ds)
            loaded += 1
    assert loaded > 0


def test_damaged_csv(tmp_path):
    path = tmp_path / "d.csv"
    save_dataset(small_dataset(), path)
    loaded = 0
    with np.errstate(all="ignore"):
        for blob in damaged(path.read_bytes()):
            path.write_bytes(blob)
            try:
                ds = load_dataset(path)
            except DatasetFormatError:
                continue
            exercise_dataset(ds)
            loaded += 1
    assert loaded > 0


@pytest.mark.parametrize("kind", ["real", "binary"])
def test_damaged_snapshot(tmp_path, kind):
    ds = small_dataset()
    if kind == "real":
        index = build_real_index(ds, RealLshParams(L=2, K=2, w=1.0, seed=4))
    else:
        index = build_binary_index(ds, BinaryLshParams(L=2, K=3, seed=4))
    path = tmp_path / "idx"
    save_index(index, path)
    loaded = 0
    for blob in damaged(path.read_bytes()):
        path.write_bytes(blob)
        try:
            damaged_index = load_index(path, ds)
        except SnapshotError:
            continue
        for metric in ("cosine", "euclidean"):
            damaged_index.query(ds.vectors[0], k=3, metric=metric)
        bucket_statistics(damaged_index)
        assert len(damaged_index.tables) == 2
        loaded += 1
    assert loaded > 0
