"""Versioned binary snapshots of built indexes.

Layout, version 2 (little-endian): magic ``LSHIDX``, u16 version, u8 kind
(0 = real, 1 = binary), u32 L, u32 K, f64 w (0 for the binary kind),
u64 seed, u32 dim, the u64 dataset fingerprint, the hash coefficients as
f32 (real: the L*K*dim axes, then the L*K offsets; binary: the L*K*dim
hyperplanes), then the bucket tables as written by :mod:`lshkit.tables`:
their key width and row count, then per table its sorted keys, CSR offsets
and member rows as flat arrays.

Coefficients are stored in f32 and the in-memory index already computes from
f32 coefficients, so a loaded index hashes bit-identically to the original.
A snapshot only loads against a dataset whose fvec serialization hashes to
the stored fingerprint, and every defect is reported at load time: the
loader checks the parameters, the coefficients and that each table holds
every dataset row exactly once. Version 1 files (one record per bucket) are
no longer read.
"""

from __future__ import annotations

import hashlib
import os
import struct
import tempfile

import numpy as np

from .binary_lsh import BinaryLshIndex, BinaryLshParams
from .dataset import Dataset, fvec_chunks
from .real_lsh import RealLshIndex, RealLshParams
from .tables import TableFormatError, decode, encode

SNAPSHOT_MAGIC = b"LSHIDX"
SNAPSHOT_VERSION = 2

_FAMILIES = (RealLshIndex, BinaryLshIndex)  # a family's position is its kind code
_PREFIX = struct.Struct("<6sHB")  # magic, version, kind
_PARAMS = struct.Struct("<IIdQIQ")  # L, K, w, seed, dim, fingerprint
_MASK64 = (1 << 64) - 1


class SnapshotError(ValueError):
    """A snapshot file is malformed, truncated, or does not match the dataset."""


def dataset_fingerprint(ds: Dataset) -> int:
    """64-bit stable hash of the dataset's fvec serialization, fed to the
    hash block by block so the whole byte string is never built."""
    digest = hashlib.blake2b(digest_size=8)
    for chunk in fvec_chunks(ds):
        digest.update(chunk)
    return int.from_bytes(digest.digest(), "little")


def save_index(index: RealLshIndex | BinaryLshIndex, path: str | os.PathLike) -> None:
    """Write a snapshot atomically (temp file + rename)."""
    payload = _serialize(index)
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(payload)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _serialize(index) -> bytes:
    p = index.params
    chunks = [
        _PREFIX.pack(SNAPSHOT_MAGIC, SNAPSHOT_VERSION, _FAMILIES.index(type(index))),
        _PARAMS.pack(p.L, p.K, getattr(p, "w", 0.0), p.seed & _MASK64, index.dim,
                     dataset_fingerprint(index.dataset)),
    ]
    chunks += [values.astype("<f4").tobytes() for values in index.coefficients]
    chunks.append(encode(index.bucket_tables))
    return b"".join(chunks)


class _Reader:
    def __init__(self, data: bytes):
        self.data = data
        self.offset = 0

    def take(self, layout: struct.Struct) -> tuple:
        try:
            values = layout.unpack_from(self.data, self.offset)
        except struct.error as exc:
            raise SnapshotError(f"truncated snapshot at offset {self.offset}") from exc
        self.offset += layout.size
        return values

    def take_array(self, count: int, dtype) -> np.ndarray:
        nbytes = count * np.dtype(dtype).itemsize
        if nbytes > len(self.data) - self.offset:
            raise SnapshotError(f"truncated snapshot at offset {self.offset}")
        array = np.frombuffer(self.data, dtype=dtype, count=count, offset=self.offset)
        self.offset += nbytes
        return array


def _coefficients(reader: _Reader, count: int) -> np.ndarray:
    values = reader.take_array(count, "<f4")
    if not np.isfinite(values).all():
        raise SnapshotError("snapshot holds non-finite hash coefficients")
    return values


def load_index(path: str | os.PathLike, ds: Dataset) -> RealLshIndex | BinaryLshIndex:
    """Load a snapshot and bind it to its dataset.

    Raises SnapshotError on a bad magic, an unsupported version, truncation,
    invalid parameters or coefficients, an invalid table, or a dataset whose
    fingerprint does not match the one stored at save time.
    """
    with open(path, "rb") as fh:
        reader = _Reader(fh.read())
    if reader.data[:6] != SNAPSHOT_MAGIC:
        raise SnapshotError("not an index snapshot: bad magic")
    _, version, kind_code = reader.take(_PREFIX)
    if version != SNAPSHOT_VERSION:
        raise SnapshotError(f"unsupported snapshot version {version}")
    if kind_code >= len(_FAMILIES):
        raise SnapshotError(f"unknown index kind code {kind_code}")
    family = _FAMILIES[kind_code]
    real = family is RealLshIndex
    L, K, w, seed, dim, fingerprint = reader.take(_PARAMS)
    try:
        params = RealLshParams(L=L, K=K, w=w, seed=seed) if real else BinaryLshParams(L=L, K=K, seed=seed)
    except ValueError as exc:
        raise SnapshotError(f"invalid index parameters: {exc}") from None
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
        tables = decode(reader.take_array, L, K if real else 1, len(ds), "<i8" if real else "<u8")
    except TableFormatError as exc:
        raise SnapshotError(f"invalid bucket table: {exc}") from None
    if reader.offset != len(reader.data):
        raise SnapshotError(f"{len(reader.data) - reader.offset} trailing bytes after tables")
    coefficients = (planes, offsets) if real else (planes,)
    return family(params, dim, *coefficients, tables, ds)
