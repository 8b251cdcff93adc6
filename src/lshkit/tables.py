"""Flat bucket tables: the one storage format of both LSH families.

A table groups the n rows of a dataset by hash key in three arrays: its B
distinct keys in sorted order (``words``, (B, W) 8-byte words), CSR
``offsets`` ((B + 1,), bucket b holds ``rows[offsets[b]:offsets[b + 1]]``)
and ``rows`` (every row once, ascending within a bucket). A real key is K
integer hashes (W = K), a binary key one K-bit signature (W = 1). Keys
are ordered by their raw bytes: a lookup compares a key row as one
``np.void`` value of 8*W bytes. A table is built by one ``np.sort`` of
uint64 values, each a code of the row's key whose numeric order is that
byte order with the row number in its low bits (``prefix_tables``); a key
whose code does not fit 64 bits is sorted by a stable argsort of its
bytes. Buckets are listed in order of first appearance, the order in which
inserting the rows one by one creates them.

Snapshot section (little-endian): u64 W and n, then per table u64 B, the
B*W key words (the family's word type), the B + 1 offsets and the n rows,
both of ``row_type(n)``: u32 below 2**32 rows, else u64.
"""

from __future__ import annotations

from typing import Callable, Iterator, Sequence

import numpy as np


# levels in a key column's rank table; a wider column is sorted by its bytes
MAX_CODE_LEVELS = 1 << 16


class TableFormatError(ValueError):
    """Stored arrays that do not form a valid bucket table."""


def _as_void(words: np.ndarray) -> np.ndarray:
    words = np.ascontiguousarray(words)
    return words.view(np.dtype((np.void, words.dtype.itemsize * words.shape[-1]))).reshape(words.shape[:-1])


class BucketTable:
    """One hash table over the rows of a dataset; frozen after construction."""

    def __init__(self, words: np.ndarray, offsets: np.ndarray, rows: np.ndarray):
        self.words = words
        self.offsets = offsets
        self.rows = rows
        self.keys = _as_void(words)

    @classmethod
    def build(cls, words: np.ndarray) -> "BucketTable":
        """The table of the (n, W) key words of rows 0..n-1."""
        return prefix_tables(words, [words.shape[1]])[0]

    def bucket(self, key) -> np.ndarray:
        """Rows stored under ``key`` (one void value); empty when it is absent."""
        lo = self.keys.searchsorted(key)
        hi = self.keys.searchsorted(key, "right")
        return self.rows[self.offsets[lo] : self.offsets[hi]]

    def buckets(self, words: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Rows stored under each of the (m, W) key words, concatenated, and
        the m + 1 bounds that split them by key."""
        keys = _as_void(words)
        lo = self.offsets[self.keys.searchsorted(keys)]
        sizes = self.offsets[self.keys.searchsorted(keys, "right")] - lo
        bounds = np.concatenate(([0], np.cumsum(sizes)))
        return self.rows[np.repeat(lo - bounds[:-1], sizes) + np.arange(bounds[-1])], bounds

    def first_appearance(self) -> np.ndarray:
        """Bucket numbers ordered by each bucket's smallest row."""
        return np.argsort(self.rows[self.offsets[:-1]])


def _prefix_codes(words: np.ndarray, width: int, row_bits: int) -> list[np.ndarray]:
    """``codes[w]`` for w = 0, 1, ... up to ``width``: uint64 codes of the
    rows' first w key words whose numeric order is their byte order, while
    no column spans over MAX_CODE_LEVELS levels and ``row_bits`` of the 64
    bits stay free."""
    codes, bits = [np.zeros(len(words), dtype=np.uint64)], row_bits
    for column in words.T[:width]:
        lo = column.min()
        span = int(column.max()) - int(lo) + 1
        bits += (span - 1).bit_length()
        if span > MAX_CODE_LEVELS or bits > 64:
            break
        rank = np.empty(span, dtype=np.uint64)  # of each level of [min, max], in byte order
        rank[np.argsort((lo + np.arange(span, dtype=column.dtype)).view(">u8"))] = np.arange(span, dtype=np.uint64)
        codes.append(codes[-1] << np.uint64((span - 1).bit_length()) | rank[column - lo])
    return codes


def prefix_tables(words: np.ndarray, widths: Sequence[int]) -> list[BucketTable]:
    """``BucketTable.build(words[:, :w])`` for each width w.

    One sort of the distinct values ``code << b | row`` (``_prefix_codes``,
    b the bit length of n - 1) lists the rows by key and ascending within a
    key. Where the code does not fit, a stable argsort of the key bytes
    (one-word keys as big-endian numbers) does.
    """
    n = len(words)
    row_bits = (n - 1).bit_length()
    codes = _prefix_codes(words, max(widths), row_bits)
    out = []
    for width in widths:
        if width < len(codes):
            keys = np.sort(codes[width] << np.uint64(row_bits) | np.arange(n, dtype=np.uint64))
            rows = (keys & np.uint64((1 << row_bits) - 1)).astype(np.intp)
            keys >>= np.uint64(row_bits)
        else:
            keys = _as_void(words[:, :width]) if width > 1 else words[:, 0].view(">u8")
            rows = np.argsort(keys, kind="stable")
            keys = keys[rows]
        new = np.ones(n, dtype=bool)
        new[1:] = keys[1:] != keys[:-1]
        starts = np.flatnonzero(new)
        out.append(BucketTable(np.ascontiguousarray(words[rows[starts], :width]), np.append(starts, n), rows))
    return out


def gather(tables: Sequence[BucketTable], words: np.ndarray) -> np.ndarray:
    """Rows in the buckets that the (L, W) query key words hit, a row once
    per table that holds it there."""
    parts = [table.bucket(key) for table, key in zip(tables, _as_void(words))]
    return np.concatenate(parts) if parts else np.empty(0, dtype=np.intp)


def distinct(rows: np.ndarray) -> np.ndarray:
    """The distinct values of ``rows`` in ascending order: ``np.unique`` by
    one sort and a neighbour mask, about 5x faster than it (numpy 2.4) on a
    few hundred rows and 25-55x on 20k-177k int64 values (numpy 2.4.6)."""
    rows = np.sort(rows)
    new = np.ones(len(rows), dtype=bool)
    new[1:] = rows[1:] != rows[:-1]
    return rows[new]


def label_majorities(tables: Sequence[BucketTable], label_ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Majority-label count and size of every bucket, table after table."""
    majorities, sizes = [np.empty(0, dtype=np.intp)], [np.empty(0, dtype=np.intp)]
    width = int(label_ids.max(initial=0)) + 1
    for table in tables:
        size = np.diff(table.offsets)
        bucket = np.repeat(np.arange(len(size)), size)
        pairs, counts = np.unique(bucket * width + label_ids[table.rows], return_counts=True)
        majority = np.maximum.reduceat(counts, np.searchsorted(pairs, np.arange(len(size)) * width))
        order = table.first_appearance()
        majorities.append(majority[order])
        sizes.append(size[order])
    return np.concatenate(majorities), np.concatenate(sizes)


def as_dicts(tables: Sequence[BucketTable], ids: np.ndarray, key_of: Callable[[list[int]], object]) -> list[dict]:
    """``{key_of(key words): [ids]}`` per table."""
    out = []
    for table in tables:
        words = table.words.tolist()
        members = np.split(ids[table.rows], table.offsets[1:-1])
        out.append({key_of(words[b]): members[b].tolist() for b in table.first_appearance().tolist()})
    return out


def row_type(n: int) -> str:
    """The stored type of the offsets and rows of a table over ``n`` rows."""
    return "<u4" if n < 1 << 32 else "<u8"


def encode(tables: Sequence[BucketTable]) -> Iterator[np.ndarray]:
    """The snapshot section of ``tables`` as consecutive arrays, made one table at a time."""
    n = len(tables[0].rows)
    yield np.array([tables[0].words.shape[1], n], dtype="<u8")
    for table in tables:
        yield np.array([len(table.words)], dtype="<u8")
        yield np.ascontiguousarray(table.words)
        yield table.offsets.astype(row_type(n))
        yield table.rows.astype(row_type(n))


def decode(read: Callable[[int, str], np.ndarray], count: int, width: int, n: int, word_type: str) -> list[BucketTable]:
    """Read ``count`` tables of ``width``-word keys over ``n`` rows, where
    ``read(count, dtype)`` returns the stream's next ``count`` items.

    Raises TableFormatError unless the stored width and row count match and
    in every table the keys strictly increase, the offsets rise from 0 to n,
    and the rows are each row exactly once, ascending within a bucket.
    """
    stored_width, stored_n = (int(v) for v in read(2, "<u8"))
    if stored_width != width:
        raise TableFormatError(f"key width of {stored_width} words, expected {width}")
    if stored_n != n:
        raise TableFormatError(f"tables over {stored_n} rows, the dataset has {n}")
    tables = []
    for t in range(count):
        buckets = int(read(1, "<u8")[0])
        words = np.array(read(buckets * width, word_type).reshape(-1, width))
        offsets = read(buckets + 1, row_type(n)).astype(np.int64)
        rows = read(n, row_type(n)).astype(np.int64)
        if offsets[0] != 0 or offsets[-1] != n or (np.diff(offsets) <= 0).any():
            raise TableFormatError(f"table {t}: bucket offsets do not rise from 0 to {n}")
        if ((rows < 0) | (rows >= n)).any() or (np.bincount(rows, minlength=n) != 1).any():
            raise TableFormatError(f"table {t}: members are not each dataset row exactly once")
        ascending = np.diff(rows) > 0
        ascending[offsets[1:-1] - 1] = True
        if not ascending.all():
            raise TableFormatError(f"table {t}: rows are not ascending within a bucket")
        keys = _as_void(words)
        if (np.argsort(keys, kind="stable") != np.arange(buckets)).any() or (keys[1:] == keys[:-1]).any():
            raise TableFormatError(f"table {t}: keys are not strictly increasing")
        tables.append(BucketTable(words, offsets, rows))
    return tables
