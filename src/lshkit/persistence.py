"""Versioned binary snapshots of built indexes.

Layout, version 3 (little-endian): magic ``LSHIDX``, u16 version, u8 kind
(0 = real, 1 = binary), u32 L, u32 K, f64 w (0 for the binary kind),
i64 seed, u32 dim, the u64 dataset fingerprint, the hash coefficients as
f32 (real: the L*K*dim axes, then the L*K offsets; binary: the L*K*dim
hyperplanes), then the bucket tables as written by :mod:`lshkit.tables`:
their key width and row count, then per table its sorted keys, CSR offsets
and member rows as flat arrays, the offsets and rows as u32 below 2**32 rows.
``save_index`` writes these arrays straight to the file, one table at a time,
and builds no copy of the whole payload.

The header is two structured dtypes, and the open file is read array by
array through the bounds-checked ``dataset._Reader`` that also reads fvec
headers, each read checked against the file's size first. Coefficients
are stored in f32 and the in-memory index already computes from f32
coefficients, so a loaded index hashes bit-identically to the original.
A snapshot only loads against a dataset whose fvec serialization hashes to
the stored fingerprint, which each ``Dataset`` computes once and caches. The
loader checks, at load time, the magic and version, the parameters, that the
coefficients are finite and cannot overflow a dataset key, that each table is
well formed (key width, strictly increasing keys, offsets from 0 to n, every
dataset row exactly once, ascending within a bucket), that no bytes trail the
tables, and last, once the file has supplied every coefficient, that they
equal the draw of the stored parameters. It does not rehash the table keys
against the coefficients, which would cost a full build. Version 1 files (one
record per bucket) and version 2 files (u64 offsets and rows) are not read.
"""

from __future__ import annotations

import os
from typing import Iterator

import numpy as np

from .binary_lsh import FAMILIES
from .dataset import Dataset, _Reader, _seekable, _write_atomically
from .real_lsh import LshIndex, RealLshIndex
from .tables import TableFormatError, decode, encode

SNAPSHOT_MAGIC = b"LSHIDX"
SNAPSHOT_VERSION = 3

_PREFIX = np.dtype([("magic", "S6"), ("version", "<u2"), ("kind", "u1")])
_PARAMS = np.dtype([("L", "<u4"), ("K", "<u4"), ("w", "<f8"), ("seed", "<i8"),
                    ("dim", "<u4"), ("fingerprint", "<u8")])


class SnapshotError(ValueError):
    """A snapshot file is malformed, truncated, or does not match the dataset."""


def dataset_fingerprint(ds: Dataset) -> int:
    """64-bit stable hash of the dataset's fvec serialization: the cached
    ``Dataset.fingerprint``."""
    return ds.fingerprint


def save_index(index: LshIndex, path: str | os.PathLike) -> None:
    """Write a snapshot atomically: to a new file beside ``path`` (created
    under the umask), then renamed over it."""
    _write_atomically(path, lambda fh: fh.writelines(_serialize(index)))


def _serialize(index) -> Iterator[np.ndarray]:
    """The snapshot of ``index`` as consecutive arrays; ``encode`` makes the tables' one table at a time."""
    p = index.params
    yield np.array((SNAPSHOT_MAGIC, SNAPSHOT_VERSION, list(FAMILIES).index(index.kind)), _PREFIX)
    yield np.array((p.L, p.K, getattr(p, "w", 0.0), p.seed, index.dim,
                    dataset_fingerprint(index.dataset)), _PARAMS)
    for values in index.coefficients:
        yield np.ascontiguousarray(values, "<f4")
    yield from encode(index.bucket_tables)


def _coefficients(reader: _Reader, count: int) -> np.ndarray:
    values = reader.take(count, "<f4")
    if not np.isfinite(values).all():
        raise SnapshotError("snapshot holds non-finite hash coefficients")
    return values


def load_index(path: str | os.PathLike, ds: Dataset) -> LshIndex:
    """Load a snapshot and bind it to its dataset.

    Raises SnapshotError on a bad magic, an unsupported version, truncation,
    invalid parameters, coefficients that are not finite, could overflow a
    key or differ from the parameters' draw, an invalid table, or a dataset
    whose fingerprint does not match the one stored at save time.
    """
    with open(path, "rb") as fh:
        fh = _seekable(fh)
        if fh.read(6) != SNAPSHOT_MAGIC:
            raise SnapshotError("not an index snapshot: bad magic")
        fh.seek(0)
        reader = _Reader(fh, lambda at: SnapshotError(f"truncated snapshot at offset {at}"))
        _, version, kind_code = reader.take(1, _PREFIX)[0].tolist()
        if version != SNAPSHOT_VERSION:
            raise SnapshotError(f"unsupported snapshot version {version}")
        if kind_code >= len(FAMILIES):
            raise SnapshotError(f"unknown index kind code {kind_code}")
        family = list(FAMILIES.values())[kind_code]
        real = family is RealLshIndex
        L, K, w, seed, dim, fingerprint = reader.take(1, _PARAMS)[0].tolist()
        try:
            params = family.make_params(L, K, w, seed)
        except ValueError as exc:
            raise SnapshotError(f"invalid index parameters: {exc}") from None
        if w != getattr(params, "w", 0.0):  # a family without a width stores 0
            raise SnapshotError(f"invalid index parameters: a {family.kind} index has no width w, got {w}")
        if dim != ds.dim:
            raise SnapshotError(f"snapshot dimensionality {dim} does not match dataset dim {ds.dim}")
        if fingerprint != dataset_fingerprint(ds):
            raise SnapshotError(
                "dataset fingerprint mismatch: this snapshot was built over a different dataset"
            )

        planes = _coefficients(reader, L * K * dim).reshape(L, K, dim)
        if real:
            offsets = _coefficients(reader, L * K).reshape(L, K)
            # a sufficient bound for every key of every dataset row to fit int64
            largest = max(float(ds.vectors.max(initial=0.0)), -float(ds.vectors.min(initial=0.0)))
            reach = largest * np.abs(planes.astype(np.float64)).sum(axis=2)
            if not (reach + np.abs(offsets) < w * 2.0**62).all():
                raise SnapshotError("hash coefficients too large: dataset keys would overflow int64")
        try:
            tables = decode(reader.take, L, K if real else 1, len(ds), "<i8" if real else "<u8")
        except TableFormatError as exc:
            raise SnapshotError(f"invalid bucket table: {exc}") from None
        if reader.offset != reader.size:
            raise SnapshotError(f"{reader.size - reader.offset} trailing bytes after tables")
    # drawn last, once the file has supplied all L*K*dim floats, so a
    # damaged header's L and K cannot make the draw outgrow the file
    index = family.with_coefficients(ds, params)
    stored = (planes, offsets) if real else (planes,)
    if not all(np.array_equal(a, b) for a, b in zip(stored, index.coefficients)):
        raise SnapshotError("hash coefficients differ from the draw of the stored parameters")
    index.bucket_tables = tables
    return index
