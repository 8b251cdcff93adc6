"""Labeled feature-vector datasets: loading, saving, generation, merging.

A Dataset is an immutable collection of d-dimensional float32 vectors, each
carrying a dense integer id and a class label. Two on-disk formats are
supported:

* fvec  -- a little-endian binary format (magic ``LSHF``) that round-trips
           bit-exactly,
* csv   -- a text format whose values are written with the shortest decimal
           representation that parses back to the same float32.
"""

from __future__ import annotations

import csv
import hashlib
import os
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from .distances import as_integer, row_norms

FVEC_MAGIC = b"LSHF"
FVEC_VERSION = 1

_MASK64 = (1 << 64) - 1


def child_rng(seed: int, *key: int) -> np.random.Generator:
    """Child generator for (seed, *key): PCG64 over SeedSequence(seed, spawn_key=key).

    LSH coefficients at (table t, slot j) depend only on (seed, t, j), never
    on L or K, so an index with more tables or longer keys reuses the smaller
    index's functions as a prefix. ``seed`` must be an integer (TypeError
    otherwise) and is reduced mod 2**64, so the dataset and hold-out seeds of
    ``generate_synthetic`` and ``select_queries`` alias mod 2**64; index
    params, which snapshots store, require int64 instead.
    """
    seed = as_integer(seed, "seed must be an integer")
    return np.random.default_rng(np.random.SeedSequence(entropy=seed & _MASK64, spawn_key=key))


def _whole_numbers(values, what: str) -> np.ndarray:
    """``values`` as int64: integers, or floats that are whole numbers within
    int64 (``np.zeros(n)``); TypeError naming the first other value (0.5,
    NaN, "1"), ValueError naming the first unsigned value of 2**63 or more."""
    arr = np.asarray(values)
    if arr.dtype.kind == "O":  # Python ints beyond int64 raise OverflowError
        return np.array([as_integer(v, f"{what} must be whole numbers") for v in arr.flat], dtype=np.int64)
    if arr.dtype == np.uint64 and arr.size and arr.max() >= 2**63:
        raise ValueError(f"{what} must be below 2**63, got {arr[arr >= 2**63].flat[0]}")
    if arr.dtype.kind == "f":
        whole = (np.floor(arr) == arr) & (np.abs(arr) < 2.0**63)
    else:
        whole = np.full(arr.shape, arr.dtype.kind in "biu")
    if not whole.all():
        raise TypeError(f"{what} must be whole numbers, got {arr[~whole].flat[0].item()!r}")
    return np.ascontiguousarray(arr, dtype=np.int64)


def _locked(arr: np.ndarray) -> np.ndarray:
    """``arr`` made read-only, copied first unless it owns its memory (a view,
    an ``np.memmap`` or a ``frombuffer`` array does not)."""
    if arr.base is not None:
        arr = arr.copy()
    arr.setflags(write=False)
    return arr


class DatasetFormatError(ValueError):
    """A dataset file violates the fvec or csv format contract."""


@dataclass(frozen=True)
class FeatureVector:
    """One data point: a dense id, a label index, and its feature values."""

    id: int
    label_id: int
    values: np.ndarray


class Dataset:
    """Immutable labeled collection of equal-length float32 feature vectors.

    Invariants enforced at construction: ids are unique non-negative ints,
    every label_id indexes into ``labels``, all vectors have length ``dim``
    and contain only finite values. ``sources`` is an optional per-vector
    membership flag (0/1) attached by :func:`merge_datasets`.

    Distances are scored from the float32 ``vectors``. Three caches are
    filled on first use, never at load: ``values64`` (the vectors in
    float64; no library path reads it), ``norms`` (one float64 L2 norm per
    row, computed from the float32 rows, with which the exact scan and LSH
    queries skip rows that cannot reach the top k) and ``fingerprint`` (the
    int snapshots are checked against). They hold because the dataset owns
    or locks every array it keeps: an input that does not own its memory is
    copied, one that does is kept and made read-only.
    ``setflags(write=True)`` on an array handed over, or a write through an
    older view of it, voids all three caches.
    """

    def __init__(
        self,
        dim: int,
        labels: Sequence[str],
        ids: np.ndarray,
        label_ids: np.ndarray,
        vectors: np.ndarray,
        sources: np.ndarray | None = None,
    ):
        if dim < 1:
            raise ValueError(f"dim must be positive, got {dim}")
        labels = list(labels)
        if len(set(labels)) != len(labels):
            raise ValueError("label table contains duplicates")

        ids = _locked(_whole_numbers(ids, "vector ids"))
        label_ids = _locked(_whole_numbers(label_ids, "label ids"))
        vectors = _locked(np.ascontiguousarray(vectors, dtype=np.float32)).reshape(-1, dim)
        n = len(ids)
        if label_ids.shape != (n,) or vectors.shape != (n, dim):
            raise ValueError("ids, label_ids and vectors disagree on length")
        if n and ids.min() < 0:
            raise ValueError("vector ids must be non-negative")
        id_order = np.argsort(ids, kind="stable")
        sorted_ids = ids[id_order]
        repeated = sorted_ids[1:][sorted_ids[1:] == sorted_ids[:-1]]
        if len(repeated):
            raise ValueError(f"vector ids must be unique: duplicate id {repeated[0]}")
        if n and (label_ids.min() < 0 or label_ids.max() >= len(labels)):
            raise ValueError("label_id out of range of the label table")
        if not np.isfinite(vectors).all():
            raise ValueError("vectors contain non-finite values")
        if sources is not None:
            sources = _locked(np.ascontiguousarray(sources, dtype=np.uint8))
            if sources.shape != (n,):
                raise ValueError("sources must have one flag per vector")

        self.dim = int(dim)
        self.labels = tuple(labels)
        self.ids = ids
        self.label_ids = label_ids
        self.vectors = vectors
        self.sources = sources
        # id -> row lookup: binary search over the sorted ids
        self._id_order = id_order
        self._sorted_ids = sorted_ids
        self._values64: np.ndarray | None = None
        self._norms: np.ndarray | None = None
        self._fingerprint: int | None = None

    def __len__(self) -> int:
        return len(self.ids)

    def __iter__(self) -> Iterator[FeatureVector]:
        for row in range(len(self)):
            yield FeatureVector(int(self.ids[row]), int(self.label_ids[row]), self.vectors[row])

    def get(self, vector_id: int) -> FeatureVector:
        row = self.row_of(vector_id)
        return FeatureVector(vector_id, int(self.label_ids[row]), self.vectors[row])

    def row_of(self, vector_id: int) -> int:
        return int(self.rows_of([vector_id])[0])

    def rows_of(self, vector_ids) -> np.ndarray:
        """Storage rows of the given ids; TypeError for an id that is not an
        integer, KeyError naming the first unknown id (or one outside int64)."""
        if not (isinstance(vector_ids, np.ndarray) and vector_ids.dtype.kind == "i"):
            vector_ids = [as_integer(i, "vector ids must be integers") for i in vector_ids]
        try:
            wanted = np.asarray(vector_ids, dtype=np.int64)
        except OverflowError:
            raise KeyError(f"no vector with id {max(vector_ids, key=abs)}") from None
        pos = np.searchsorted(self._sorted_ids, wanted)
        found = pos < len(self._sorted_ids)
        found[found] = self._sorted_ids[pos[found]] == wanted[found]
        if not found.all():
            raise KeyError(f"no vector with id {wanted[~found][0]}")
        return self._id_order[pos]

    def label_of(self, vector_id: int) -> str:
        return self.labels[int(self.label_ids[self.row_of(vector_id)])]

    def class_ids(self, label_id: int) -> np.ndarray:
        """Ids of all vectors carrying the given label, in storage order."""
        return self.ids[self.label_ids == label_id]

    @property
    def values64(self) -> np.ndarray:
        """Float64 copy of the vectors, cached; no library path reads it:
        distances are scored and keys hashed from ``vectors``."""
        if self._values64 is None:
            self._values64 = self.vectors.astype(np.float64)
            self._values64.setflags(write=False)
        return self._values64

    @property
    def norms(self) -> np.ndarray:
        """Float64 L2 norm of every row (8 B per row), computed on first use
        from the float32 rows in blocks (``row_norms``), without ``values64``,
        and cached; the distance prefilter's only per-dataset state."""
        if self._norms is None:
            self._norms = row_norms(self.vectors)
            self._norms.setflags(write=False)
        return self._norms

    @property
    def fingerprint(self) -> int:
        """64-bit BLAKE2b hash of the fvec bytes, fed in blocks so they are
        never built whole; computed on first use and cached."""
        if self._fingerprint is None:
            digest = hashlib.blake2b(digest_size=8)
            for chunk in fvec_chunks(self):
                digest.update(chunk)
            self._fingerprint = int.from_bytes(digest.digest(), "little")
        return self._fingerprint


# ---------------------------------------------------------------------------
# fvec binary format
# ---------------------------------------------------------------------------

def _record_dtype(dim: int) -> np.dtype:
    return np.dtype([("id", "<u8"), ("label_id", "<u4"), ("values", "<f4", (dim,))])


# after the magic; then per label its u16 byte length and UTF-8 bytes, then the u64 count
_FVEC_HEADER = np.dtype([("version", "<u2"), ("dim", "<u4"), ("labels", "<u4")])

FVEC_BLOCK_ROWS = 4096


class _Reader:
    """Reads ``data`` as consecutive arrays from ``offset`` on, for the fvec and
    snapshot readers; a read past the end raises ``truncated(its start offset)``."""

    def __init__(self, data: bytes, offset: int, truncated: Callable[[int], Exception]):
        self.data = data
        self.offset = offset
        self._truncated = truncated

    def _advance(self, nbytes: int) -> int:
        start = self.offset
        if nbytes > len(self.data) - start:
            raise self._truncated(start)
        self.offset += nbytes
        return start

    def take(self, count: int, dtype) -> np.ndarray:
        """The next ``count`` items of ``dtype``, a read-only view of the data."""
        return np.frombuffer(self.data, dtype, count, self._advance(count * np.dtype(dtype).itemsize))

    def take_bytes(self, count: int) -> bytes:
        """The next ``count`` bytes, sliced out of the data."""
        start = self._advance(count)
        return self.data[start:self.offset]


def fvec_chunks(ds: Dataset) -> Iterator[bytes]:
    """The fvec wire format of a dataset in pieces: the header, then the
    records in blocks of FVEC_BLOCK_ROWS rows."""
    header = [FVEC_MAGIC, np.array((FVEC_VERSION, ds.dim, len(ds.labels)), _FVEC_HEADER).tobytes()]
    for label in ds.labels:
        raw = label.encode("utf-8")
        if len(raw) > 0xFFFF:
            raise ValueError(f"label too long for fvec format: {label[:32]}...")
        header += [np.array(len(raw), "<u2").tobytes(), raw]
    header.append(np.array(len(ds), "<u8").tobytes())
    yield b"".join(header)
    for lo in range(0, len(ds), FVEC_BLOCK_ROWS):
        hi = min(lo + FVEC_BLOCK_ROWS, len(ds))
        records = np.zeros(hi - lo, dtype=_record_dtype(ds.dim))
        records["id"] = ds.ids[lo:hi]
        records["label_id"] = ds.label_ids[lo:hi]
        records["values"] = ds.vectors[lo:hi]
        yield records.tobytes()


def to_fvec_bytes(ds: Dataset) -> bytes:
    """Serialize a dataset to the fvec wire format."""
    return b"".join(fvec_chunks(ds))


def from_fvec_bytes(data: bytes) -> Dataset:
    """Parse the fvec wire format, reporting the byte offset of any defect."""
    if data[:4] != FVEC_MAGIC:
        raise DatasetFormatError("not an fvec file: bad magic at offset 0")
    reader = _Reader(data, 4, lambda at: DatasetFormatError(f"truncated fvec header near offset {at}"))
    version, dim, label_count = reader.take(1, _FVEC_HEADER)[0].tolist()
    if version != FVEC_VERSION:
        raise DatasetFormatError(f"unsupported fvec version {version}")
    labels = []
    for _ in range(label_count):
        length = int.from_bytes(reader.take_bytes(2), "little")
        at = reader.offset
        try:
            labels.append(reader.take_bytes(length).decode("utf-8"))
        except UnicodeDecodeError as exc:
            raise DatasetFormatError(f"label at offset {at} is not valid UTF-8") from exc
    count = int(reader.take(1, "<u8")[0])
    offset = reader.offset

    if dim == 0:
        raise DatasetFormatError("fvec header declares dim=0")
    try:
        dtype = _record_dtype(dim)
    except ValueError:
        raise DatasetFormatError(f"fvec header declares an unsupported dim={dim}") from None
    expected = count * dtype.itemsize
    body = data[offset:]
    if len(body) != expected:
        raise DatasetFormatError(
            f"fvec body has {len(body)} bytes at offset {offset}, expected {expected}"
        )
    records = np.frombuffer(body, dtype=dtype)
    # Dataset copies each strided field once, checking the u64 ids first
    return _checked_dataset(dim, labels, records["id"], records["label_id"], records["values"])


def _checked_dataset(dim, labels, ids, label_ids, vectors) -> Dataset:
    """Dataset(...) for a parsed file, its ValueErrors reported as format errors."""
    try:
        return Dataset(dim, labels, ids, label_ids, vectors)
    except (ValueError, OverflowError) as exc:
        raise DatasetFormatError(str(exc)) from exc


# ---------------------------------------------------------------------------
# csv format
# ---------------------------------------------------------------------------

def _format_f32(value: np.float32) -> str:
    # str() of a float32 scalar is the shortest decimal that parses back
    # to the identical float32
    return str(np.float32(value))


def _write_csv(ds: Dataset, fh) -> None:
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(["id", "label", f"dim={ds.dim}"])
    for fv in ds:
        row = [str(fv.id), ds.labels[fv.label_id]]
        row.extend(_format_f32(v) for v in fv.values)
        writer.writerow(row)


def _read_csv(fh) -> Dataset:
    reader = csv.reader(fh)
    try:
        header = next(reader)
    except StopIteration:
        raise DatasetFormatError("empty csv file: missing header") from None
    if len(header) != 3 or header[0] != "id" or header[1] != "label" or not header[2].startswith("dim="):
        raise DatasetFormatError(f"malformed csv header: {header!r}")
    try:
        dim = int(header[2][4:])
    except ValueError:
        raise DatasetFormatError(f"malformed csv header dim field: {header[2]!r}") from None
    if dim < 1:
        raise DatasetFormatError(f"csv header declares non-positive dim={dim}")

    ids: list[int] = []
    labels: list[str] = []
    label_index: dict[str, int] = {}
    label_ids: list[int] = []
    values: list[list[np.float32]] = []
    for row_no, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != 2 + dim:
            raise DatasetFormatError(
                f"row {row_no}: expected {2 + dim} fields for dim={dim}, got {len(row)}"
            )
        try:
            vid = int(row[0])
        except ValueError:
            raise DatasetFormatError(f"row {row_no}: malformed id {row[0]!r}") from None
        label = row[1]
        if label not in label_index:
            label_index[label] = len(labels)
            labels.append(label)
        try:
            vals = [np.float32(tok) for tok in row[2:]]
        except ValueError:
            raise DatasetFormatError(f"row {row_no}: malformed value") from None
        if not all(np.isfinite(v) for v in vals):
            raise DatasetFormatError(f"row {row_no}: non-finite value")
        ids.append(vid)
        label_ids.append(label_index[label])
        values.append(vals)

    vectors = np.array(values, dtype=np.float32)  # not reshaped: Dataset would copy the view
    return _checked_dataset(dim, labels, ids, label_ids, vectors)


# ---------------------------------------------------------------------------
# public load / save / generate / merge
# ---------------------------------------------------------------------------

def _infer_format(path: str | os.PathLike, fmt: str | None) -> str:
    if fmt is not None:
        if fmt not in ("csv", "fvec"):
            raise ValueError(f"unknown dataset format {fmt!r}, expected 'csv' or 'fvec'")
        return fmt
    ext = os.path.splitext(os.fspath(path))[1].lower()
    if ext == ".csv":
        return "csv"
    if ext == ".fvec":
        return "fvec"
    raise ValueError(f"cannot infer dataset format from {path!r}; pass fmt='csv' or 'fvec'")


def load_dataset(path: str | os.PathLike, fmt: str | None = None) -> Dataset:
    """Load a dataset from an fvec or csv file (format inferred from extension)."""
    fmt = _infer_format(path, fmt)
    if fmt == "fvec":
        with open(path, "rb") as fh:
            return from_fvec_bytes(fh.read())
    try:
        with open(path, "r", newline="", encoding="utf-8") as fh:
            return _read_csv(fh)
    except UnicodeDecodeError as exc:
        raise DatasetFormatError(f"csv file is not valid UTF-8: {exc}") from exc
    except csv.Error as exc:
        raise DatasetFormatError(f"malformed csv: {exc}") from exc


def save_dataset(ds: Dataset, path: str | os.PathLike, fmt: str | None = None) -> None:
    """Write a dataset; fvec round-trips bit-exactly, csv within float32 repr."""
    fmt = _infer_format(path, fmt)
    if fmt == "fvec":
        with open(path, "wb") as fh:
            fh.writelines(fvec_chunks(ds))
    else:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            _write_csv(ds, fh)


def generate_synthetic(
    num_classes: int,
    per_class: int,
    dim: int,
    cluster_std: float,
    seed: int,
) -> Dataset:
    """Deterministic isotropic Gaussian-mixture dataset.

    Class centroids are drawn N(0,1) per coordinate, then each class sample
    is centroid + N(0, cluster_std^2) noise. All draws come from a single
    PCG64 generator seeded with ``seed`` (centroids first, then noise), so
    equal arguments always produce equal datasets.
    """
    if num_classes < 1 or per_class < 1 or dim < 1:
        raise ValueError("num_classes, per_class and dim must be positive")
    if cluster_std < 0:
        raise ValueError("cluster_std must be non-negative")
    rng = child_rng(seed)
    centroids = rng.standard_normal((num_classes, dim))
    noise = rng.standard_normal((num_classes, per_class, dim)) * cluster_std
    vectors = (centroids[:, None, :] + noise).reshape(-1, dim).astype(np.float32)
    n = num_classes * per_class
    labels = [f"class_{c:03d}" for c in range(num_classes)]
    label_ids = np.repeat(np.arange(num_classes, dtype=np.int64), per_class)
    return Dataset(dim, labels, np.arange(n, dtype=np.int64), label_ids, vectors)


def merge_datasets(a: Dataset, b: Dataset, label_namespace: str = "b/") -> Dataset:
    """Union of two datasets of equal dimensionality.

    b's ids are reassigned densely above a's maximum id, b's labels are
    appended under ``label_namespace``, and every vector keeps a source flag
    (0 = from a, 1 = from b) exposed as ``Dataset.sources``.
    """
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} != {b.dim}")
    b_labels = [label_namespace + lab for lab in b.labels]
    labels = list(a.labels) + b_labels
    if len(set(labels)) != len(labels):
        raise ValueError("label namespace collision while merging")

    next_id = int(a.ids.max()) + 1 if len(a) else 0
    b_ids = np.arange(next_id, next_id + len(b), dtype=np.int64)
    ids = np.concatenate([a.ids, b_ids])
    label_ids = np.concatenate([a.label_ids, b.label_ids + len(a.labels)])
    vectors = np.concatenate([a.vectors, b.vectors])
    sources = np.concatenate(
        [np.zeros(len(a), dtype=np.uint8), np.ones(len(b), dtype=np.uint8)]
    )
    return Dataset(a.dim, labels, ids, label_ids, vectors, sources=sources)
