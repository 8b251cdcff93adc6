"""The streamed fvec reader and the atomic dataset writer.

fvec files are read through one bounds-checked stream reader: the header
first, then the body FVEC_BLOCK_ROWS records at a time into the arrays the
Dataset keeps. ``load_dataset(path)`` and ``from_fvec_bytes(data)`` share
that one path, so they must agree in every array, dtype and flag, report
every defect at the same byte offset, and hold no more than the final
arrays and one block. A save that is refused leaves the old file as it was.
"""

import io
import os
import re
import threading
import tracemalloc

import numpy as np
import pytest

from lshkit import BinaryLshIndex, BinaryLshParams, Dataset, DatasetFormatError, load_dataset, load_index, save_dataset, save_index
from lshkit.dataset import FVEC_BLOCK_ROWS, _read_fvec, _record_dtype, from_fvec_bytes, to_fvec_bytes
from lshkit.distances import CHUNK_ROWS


def dataset(n, dim=3, seed=0):
    rng = np.random.default_rng(seed)
    return Dataset(dim, ["c0", "c1"], rng.permutation(n) * 3 + 1, rng.integers(0, 2, n),
                   rng.standard_normal((n, dim)).astype(np.float32))


def both_readers(blob, tmp_path):
    """from_fvec_bytes and load_dataset of the same bytes."""
    path = tmp_path / "d.fvec"
    path.write_bytes(blob)
    return [lambda: from_fvec_bytes(blob), lambda: load_dataset(path)]


@pytest.mark.parametrize("n", [0, 1, FVEC_BLOCK_ROWS - 1, FVEC_BLOCK_ROWS, FVEC_BLOCK_ROWS + 1,
                               2 * FVEC_BLOCK_ROWS + 3])
def test_every_block_boundary_reads_back_the_same_dataset(n, tmp_path):
    ds = dataset(n)
    blob = to_fvec_bytes(ds)
    loaded = [read() for read in both_readers(blob, tmp_path)]
    for back in loaded:
        assert back.dim == ds.dim and back.labels == ds.labels
        for name in ("ids", "label_ids", "vectors"):
            mine, theirs = getattr(back, name), getattr(ds, name)
            assert mine.dtype == theirs.dtype and mine.shape == theirs.shape
            assert mine.tobytes() == theirs.tobytes()
            assert not mine.flags.writeable and mine.flags.c_contiguous
        assert to_fvec_bytes(back) == blob
        assert back.fingerprint == ds.fingerprint
    a, b = loaded
    for name in ("ids", "label_ids", "vectors"):
        assert getattr(a, name).dtype == getattr(b, name).dtype
        assert getattr(a, name).flags.writeable == getattr(b, name).flags.writeable


# dataset(2): magic 0-4, version/dim/label count 4-14, the labels' lengths at
# 14 and 18 and their bytes at 16 and 20, the row count at 22, the body at 30
BLOB = to_fvec_bytes(dataset(2))
RECORD = _record_dtype(3).itemsize
BODY = 2 * RECORD


def patched(at, raw):
    return BLOB[:at] + raw + BLOB[at + len(raw):]


@pytest.mark.parametrize("blob, message", [
    (b"", "not an fvec file: bad magic at offset 0"),
    (b"NOPE" + BLOB[4:], "not an fvec file: bad magic at offset 0"),
    (BLOB[:4], "truncated fvec header near offset 4"),
    (BLOB[:13], "truncated fvec header near offset 4"),
    (BLOB[:15], "truncated fvec header near offset 14"),
    (BLOB[:17], "truncated fvec header near offset 16"),
    (BLOB[:21], "truncated fvec header near offset 20"),
    (BLOB[:29], "truncated fvec header near offset 22"),
    (patched(4, b"\x02\x00"), "unsupported fvec version 2"),
    (patched(16, b"\xff"), "label at offset 16 is not valid UTF-8"),
    (patched(21, b"\xff"), "label at offset 20 is not valid UTF-8"),
    (patched(6, b"\x00\x00\x00\x00"), "fvec header declares dim=0"),
    (patched(6, np.array(2**31, "<u4").tobytes()), f"fvec header declares an unsupported dim={2**31}"),
    (BLOB[:-3], f"fvec body has {BODY - 3} bytes at offset 30, expected {BODY}"),
    (BLOB + b"xy", f"fvec body has {BODY + 2} bytes at offset 30, expected {BODY}"),
    (BLOB[:30], f"fvec body has 0 bytes at offset 30, expected {BODY}"),
    # checked against the file's size before any array of 2**60 rows is made
    (patched(22, np.array(2**60, "<u8").tobytes()), f"fvec body has {BODY} bytes at offset 30, expected {2**60 * RECORD}"),
])
def test_every_format_error_names_its_offset(blob, message, tmp_path):
    for read in both_readers(blob, tmp_path):
        with pytest.raises(DatasetFormatError, match=f"^{re.escape(message)}$"):
            read()


def piped(path, data):
    """A named pipe at ``path`` and a thread that writes ``data`` into it."""
    os.mkfifo(path)
    writer = threading.Thread(target=path.write_bytes, args=(data,))
    writer.start()
    return writer


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="named pipes are POSIX")
def test_named_pipes_still_load(tmp_path):
    """A pipe cannot seek, so its size cannot be checked before it is read:
    it is read whole, then parsed by the same reader, dataset and snapshot."""
    ds = dataset(FVEC_BLOCK_ROWS + 1)
    index = BinaryLshIndex.build(ds, BinaryLshParams(L=2, K=4, seed=1))
    save_index(index, tmp_path / "idx")
    writers = [piped(tmp_path / "d.fvec", to_fvec_bytes(ds)), piped(tmp_path / "idx.pipe", (tmp_path / "idx").read_bytes())]
    try:
        back = load_dataset(tmp_path / "d.fvec")
        loaded = load_index(tmp_path / "idx.pipe", back)
    finally:
        for writer in writers:
            writer.join(timeout=10)
    assert not any(writer.is_alive() for writer in writers)
    assert to_fvec_bytes(back) == to_fvec_bytes(ds)
    for a, b in zip(loaded.bucket_tables, index.bucket_tables, strict=True):
        assert all(np.array_equal(getattr(a, f), getattr(b, f)) for f in ("words", "offsets", "rows"))


class ShortReadinto(io.BytesIO):
    """A stream whose ``calls``-th readinto stops one byte short, as a file
    cut after its size was measured would."""

    def __init__(self, data, calls):
        super().__init__(data)
        self.calls = calls

    def readinto(self, buffer):
        self.calls -= 1
        return super().readinto(np.asarray(buffer).view(np.uint8)[: -1 if self.calls == 0 else None])


@pytest.mark.parametrize("calls, rows, read", [(1, 2, 2), (1, FVEC_BLOCK_ROWS + 1, FVEC_BLOCK_ROWS),
                                              (2, FVEC_BLOCK_ROWS + 1, FVEC_BLOCK_ROWS + 1)])
def test_a_short_readinto_after_the_size_check_is_a_format_error(calls, rows, read):
    message = f"fvec body has {read * RECORD - 1} bytes at offset 30, expected {rows * RECORD}"
    with pytest.raises(DatasetFormatError, match=f"^{re.escape(message)}$"):
        _read_fvec(ShortReadinto(to_fvec_bytes(dataset(rows)), calls))


class Overstated(io.BytesIO):
    """A stream that reports 100 bytes more than it holds."""

    def seek(self, offset, whence=io.SEEK_SET):
        return super().seek(offset, whence) + (100 if whence == io.SEEK_END else 0)


def test_a_short_header_read_after_the_size_check_is_a_truncation():
    with pytest.raises(DatasetFormatError, match="^truncated fvec header near offset 16$"):
        _read_fvec(Overstated(BLOB[:17]))


@pytest.mark.parametrize("n", [CHUNK_ROWS - 1, CHUNK_ROWS, CHUNK_ROWS + 1, 2 * CHUNK_ROWS + 1])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_a_non_finite_value_in_any_row_block_is_refused(n, bad):
    ds = dataset(n)
    blob = to_fvec_bytes(ds)
    for row in sorted({0, CHUNK_ROWS - 1, CHUNK_ROWS, n - 1} & set(range(n))):
        vectors = ds.vectors.copy()
        vectors[row, 1] = bad
        with pytest.raises(ValueError, match="^vectors contain non-finite values$"):
            Dataset(ds.dim, ds.labels, ds.ids, ds.label_ids, vectors)
        at = len(blob) - (n - row) * RECORD + 12 + 4  # the row's second value, after its id and label id
        with pytest.raises(DatasetFormatError, match="^vectors contain non-finite values$"):
            from_fvec_bytes(blob[:at] + np.array(bad, "<f4").tobytes() + blob[at + 4:])


def test_a_load_holds_the_vectors_and_one_block(tmp_path):
    """At d = 128 a load peaks below 1.25x the vectors' bytes plus one block
    of records; reading the file whole, then copying the body and then the
    strided vectors out of it, peaks near 3x."""
    n, dim = 5 * FVEC_BLOCK_ROWS, 128
    path = tmp_path / "d.fvec"
    save_dataset(dataset(n, dim), path)
    tracemalloc.start()
    try:
        ds = load_dataset(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(ds) == n
    assert peak < 1.25 * ds.vectors.nbytes + FVEC_BLOCK_ROWS * _record_dtype(dim).itemsize


@pytest.mark.parametrize("name, bad", [
    ("d.fvec", ["c0", "x" * 70_000]),  # longer than a u16 length: refused before any byte is written
    ("d.csv", ["\ud800", "\udc00"]),  # lone surrogates: UTF-8 refuses them as the rows are written
])
def test_a_refused_save_leaves_the_old_file_as_it_was(tmp_path, name, bad):
    path = tmp_path / name
    good = dataset(5)
    save_dataset(good, path)
    before = path.read_bytes()
    refused = Dataset(good.dim, bad, good.ids, good.label_ids, good.vectors)
    with pytest.raises(ValueError):  # UnicodeEncodeError is a ValueError
        save_dataset(refused, path)
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == [name]
    save_dataset(dataset(7), path)
    assert len(load_dataset(path)) == 7
    assert sorted(p.name for p in tmp_path.iterdir()) == [name]
