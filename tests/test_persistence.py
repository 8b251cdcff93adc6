import hashlib
import struct

import numpy as np
import pytest

from lshkit import (
    BinaryLshParams,
    Dataset,
    RealLshParams,
    SnapshotError,
    build_binary_index,
    build_real_index,
    dataset_fingerprint,
    generate_synthetic,
    load_index,
    save_index,
)
from lshkit.dataset import FVEC_BLOCK_ROWS, to_fvec_bytes
from lshkit.tables import BucketTable


def make_indexes(seed=5):
    ds = generate_synthetic(4, 8, 12, 0.3, seed=seed)
    real = build_real_index(ds, RealLshParams(L=3, K=2, seed=9))
    binary = build_binary_index(ds, BinaryLshParams(L=3, K=5, seed=9))
    return ds, real, binary


def test_round_trip_preserves_query_outputs(tmp_path):
    ds, real, binary = make_indexes()
    rng = np.random.default_rng(1)
    for name, index in (("real", real), ("binary", binary)):
        path = tmp_path / f"{name}.idx"
        save_index(index, path)
        loaded = load_index(path, ds)
        assert loaded.params == index.params
        assert loaded.tables == index.tables
        for _ in range(20):
            q = rng.standard_normal(ds.dim).astype(np.float32)
            for metric in ("cosine", "euclidean"):
                assert loaded.query(q, k=6, metric=metric) == index.query(q, k=6, metric=metric)


# sha256 of the v2 bytes that save_index writes for two fixed indexes over
# generate_synthetic(20, 30, 33, 0.4, 3); any change to the writer's bytes fails
PINNED_SNAPSHOTS = [
    (build_real_index, RealLshParams(L=5, K=3, w=2.5, seed=11),
     "ce66f160e1d0a7d0fcd34a50236713d78315cc0ba5692c28c939b17d369ef889"),
    (build_binary_index, BinaryLshParams(L=4, K=64, seed=-7),
     "7aa4a981b106105f2023b0f35dc6f35e2cc4430d20cacc6ecd2d84e27dac09ba"),
]


@pytest.mark.parametrize("build, params, digest", PINNED_SNAPSHOTS)
def test_snapshot_bytes_are_pinned(tmp_path, build, params, digest):
    ds = generate_synthetic(20, 30, 33, 0.4, 3)
    index = build(ds, params)
    path = tmp_path / "pinned.idx"
    save_index(index, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest
    loaded = load_index(path, ds)
    q = np.random.default_rng(8).standard_normal(ds.dim).astype(np.float32)
    for query in (q, ds.vectors[17]):
        for metric in ("cosine", "euclidean"):
            assert loaded.query(query, k=10, metric=metric) == index.query(query, k=10, metric=metric)


def test_round_trip_preserves_coefficients_bit_exactly(tmp_path):
    ds, real, binary = make_indexes()
    save_index(real, tmp_path / "r.idx")
    loaded = load_index(tmp_path / "r.idx", ds)
    assert np.array_equal(loaded.axes, real.axes)
    assert np.array_equal(loaded.offsets, real.offsets)
    save_index(binary, tmp_path / "b.idx")
    loadedb = load_index(tmp_path / "b.idx", ds)
    assert np.array_equal(loadedb.hyperplanes, binary.hyperplanes)


def test_k64_signatures_survive_round_trip(tmp_path):
    ds = generate_synthetic(3, 6, 8, 0.3, seed=2)
    index = build_binary_index(ds, BinaryLshParams(L=2, K=64, seed=4))
    path = tmp_path / "wide.idx"
    save_index(index, path)
    loaded = load_index(path, ds)
    # every stored key must equal the signature recomputed from the loaded
    # coefficients, bit for bit
    for t, table in enumerate(loaded.tables):
        for key, ids in table.items():
            for vid in ids:
                assert loaded.signature(t, ds.get(vid).values) == key


def test_fingerprint_mismatch_rejected(tmp_path):
    ds, real, _ = make_indexes()
    other = generate_synthetic(4, 8, 12, 0.3, seed=99)
    path = tmp_path / "r.idx"
    save_index(real, path)
    with pytest.raises(SnapshotError, match="fingerprint"):
        load_index(path, other)


def test_fingerprint_sensitive_to_values():
    a = generate_synthetic(2, 3, 4, 0.1, seed=1)
    b = generate_synthetic(2, 3, 4, 0.1, seed=2)
    assert dataset_fingerprint(a) != dataset_fingerprint(b)
    assert dataset_fingerprint(a) == dataset_fingerprint(generate_synthetic(2, 3, 4, 0.1, seed=1))


def test_bad_magic_rejected(tmp_path):
    ds, _, _ = make_indexes()
    path = tmp_path / "junk.idx"
    path.write_bytes(b"GARBAGEGARBAGE")
    with pytest.raises(SnapshotError, match="magic"):
        load_index(path, ds)


def test_unknown_version_rejected(tmp_path):
    ds, real, _ = make_indexes()
    path = tmp_path / "r.idx"
    save_index(real, path)
    blob = bytearray(path.read_bytes())
    blob[6:8] = (9999).to_bytes(2, "little")  # version field follows the magic
    path.write_bytes(bytes(blob))
    with pytest.raises(SnapshotError, match="version"):
        load_index(path, ds)


def test_truncated_snapshot_rejected(tmp_path):
    ds, real, _ = make_indexes()
    path = tmp_path / "r.idx"
    save_index(real, path)
    blob = path.read_bytes()
    path.write_bytes(blob[: len(blob) - 7])
    with pytest.raises(SnapshotError, match="truncated"):
        load_index(path, ds)


def test_trailing_garbage_rejected(tmp_path):
    ds, real, _ = make_indexes()
    path = tmp_path / "r.idx"
    save_index(real, path)
    path.write_bytes(path.read_bytes() + b"\x00\x01")
    with pytest.raises(SnapshotError, match="trailing"):
        load_index(path, ds)


def test_dimension_mismatch_rejected(tmp_path):
    ds, real, _ = make_indexes()
    other = generate_synthetic(4, 8, 6, 0.3, seed=5)
    path = tmp_path / "r.idx"
    save_index(real, path)
    with pytest.raises(SnapshotError, match="dimensionality"):
        load_index(path, other)


def test_save_overwrites_atomically(tmp_path):
    ds, real, binary = make_indexes()
    path = tmp_path / "idx.bin"
    save_index(real, path)
    save_index(binary, path)
    loaded = load_index(path, ds)
    assert loaded.kind == "binary"
    leftovers = [p for p in tmp_path.iterdir() if p.suffix == ".tmp"]
    assert leftovers == []


# ---------------------------------------------------------------------------
# version 2 load-time validation
# ---------------------------------------------------------------------------

HEADER_BYTES = 45  # magic, u16 version, u8 kind, L, K, w, seed, dim, fingerprint


def table_section(index):
    """Byte offset of the bucket tables in ``index``'s snapshot."""
    coefficients = index.axes.size + index.offsets.size if index.kind == "real" else index.hyperplanes.size
    return HEADER_BYTES + 4 * coefficients


def patched(path, offset, fmt, value):
    blob = bytearray(path.read_bytes())
    struct.pack_into(fmt, blob, offset, value)
    path.write_bytes(bytes(blob))


def save_with_table(index, path, words=None, offsets=None, rows=None):
    """Snapshot of ``index`` with table 0's arrays replaced."""
    t0 = index.bucket_tables[0]
    index.bucket_tables[0] = BucketTable(
        t0.words if words is None else words,
        t0.offsets if offsets is None else offsets,
        t0.rows if rows is None else rows,
    )
    try:
        save_index(index, path)
    finally:
        index.bucket_tables[0] = t0


@pytest.mark.parametrize("kind", ["real", "binary"])
def test_table_without_every_row_once_rejected(tmp_path, kind):
    ds, real, binary = make_indexes()
    index = real if kind == "real" else binary
    rows = index.bucket_tables[0].rows.copy()
    rows[rows == 5] = 6  # row 5 (id 5) missing, row 6 twice
    path = tmp_path / "idx"
    save_with_table(index, path, rows=rows)
    with pytest.raises(SnapshotError, match="exactly once"):
        load_index(path, ds)


def test_rows_not_ascending_within_a_bucket_rejected(tmp_path):
    ds, real, _ = make_indexes()
    t0 = real.bucket_tables[0]
    largest = int(np.argmax(np.diff(t0.offsets)))
    lo, hi = t0.offsets[largest], t0.offsets[largest + 1]
    assert hi - lo >= 2
    rows = t0.rows.copy()
    rows[lo:hi] = rows[lo:hi][::-1]
    path = tmp_path / "idx"
    save_with_table(real, path, rows=rows)
    with pytest.raises(SnapshotError, match="ascending"):
        load_index(path, ds)


@pytest.mark.parametrize("kind", ["real", "binary"])
def test_keys_not_strictly_increasing_rejected(tmp_path, kind):
    ds, real, binary = make_indexes()
    index = real if kind == "real" else binary
    words = index.bucket_tables[0].words
    for bad in (np.concatenate([words[:1], words[:1], words[2:]]), words[::-1]):
        path = tmp_path / "idx"
        save_with_table(index, path, words=np.ascontiguousarray(bad))
        with pytest.raises(SnapshotError, match="strictly increasing"):
            load_index(path, ds)


def test_offsets_not_rising_from_zero_to_n_rejected(tmp_path):
    ds, real, _ = make_indexes()
    good = real.bucket_tables[0].offsets
    for change in ({-1: len(ds) - 1}, {0: 1}, {1: 0}):
        offsets = good.copy()
        for position, value in change.items():
            offsets[position] = value
        path = tmp_path / "idx"
        save_with_table(real, path, offsets=offsets)
        with pytest.raises(SnapshotError, match="offsets"):
            load_index(path, ds)


@pytest.mark.parametrize("kind", ["real", "binary"])
def test_key_width_mismatch_rejected(tmp_path, kind):
    ds, real, binary = make_indexes()
    index = real if kind == "real" else binary
    path = tmp_path / "idx"
    save_index(index, path)
    patched(path, table_section(index), "<Q", index.params.K + 1 if kind == "real" else 2)
    with pytest.raises(SnapshotError, match="key width"):
        load_index(path, ds)


@pytest.mark.parametrize("kind", ["real", "binary"])
@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_non_finite_coefficients_rejected(tmp_path, kind, value):
    ds, real, binary = make_indexes()
    index = real if kind == "real" else binary
    path = tmp_path / "idx"
    save_index(index, path)
    patched(path, HEADER_BYTES, "<f", value)
    with pytest.raises(SnapshotError, match="non-finite"):
        load_index(path, ds)


@pytest.mark.parametrize(
    "kind, offset, fmt, value",
    [
        ("real", 9, "<I", 0),  # L
        ("real", 13, "<I", 0),  # K
        ("real", 17, "<d", -4.0),  # w
        ("real", 17, "<d", float("nan")),
        ("real", 17, "<d", float("inf")),
        ("binary", 9, "<I", 0),
        ("binary", 13, "<I", 65),
    ],
)
def test_invalid_params_rejected(tmp_path, kind, offset, fmt, value):
    ds, real, binary = make_indexes()
    path = tmp_path / "idx"
    save_index(real if kind == "real" else binary, path)
    patched(path, offset, fmt, value)
    with pytest.raises(SnapshotError, match="invalid index parameters"):
        load_index(path, ds)


@pytest.mark.parametrize("value", [4.0, -0.5, float("nan")])
def test_binary_snapshot_with_a_width_rejected(tmp_path, value):
    ds, _, binary = make_indexes()
    path = tmp_path / "b.idx"
    save_index(binary, path)
    patched(path, 17, "<d", value)  # w, which a binary snapshot stores as 0
    with pytest.raises(SnapshotError, match="invalid index parameters: a binary index has no width w"):
        load_index(path, ds)


def test_version_1_rejected(tmp_path):
    ds, real, _ = make_indexes()
    path = tmp_path / "r.idx"
    save_index(real, path)
    patched(path, 6, "<H", 1)
    with pytest.raises(SnapshotError, match="unsupported snapshot version 1"):
        load_index(path, ds)


def test_coefficients_that_overflow_dataset_keys_rejected(tmp_path):
    ds, real, _ = make_indexes()
    path = tmp_path / "r.idx"
    save_index(real, path)
    patched(path, HEADER_BYTES, "<f", 3e38)
    with pytest.raises(SnapshotError, match="overflow"):
        load_index(path, ds)


@pytest.mark.parametrize(
    "ds",
    [
        Dataset(5, [], np.array([], dtype=np.int64), np.array([], dtype=np.int64), np.zeros((0, 5))),
        Dataset(3, ["ünïcode", "日本語", "é"], np.array([4, 9, 1]), np.array([2, 0, 1]),
                np.arange(9, dtype=np.float32).reshape(3, 3)),
        generate_synthetic(5, FVEC_BLOCK_ROWS // 2 + 1, 5, 0.5, seed=3),
    ],
    ids=["empty", "non-ascii-labels", "several-blocks"],
)
def test_fingerprint_hashes_the_fvec_bytes(ds):
    expected = hashlib.blake2b(to_fvec_bytes(ds), digest_size=8).digest()
    assert dataset_fingerprint(ds) == int.from_bytes(expected, "little")


@pytest.mark.parametrize("seed", [-7, 0, 2**63 - 1])
def test_round_trip_keeps_params_for_int64_seeds(tmp_path, seed):
    ds = generate_synthetic(4, 8, 12, 0.3, seed=5)
    for index in (build_real_index(ds, RealLshParams(L=2, K=3, seed=seed)),
                  build_binary_index(ds, BinaryLshParams(L=4, K=64, seed=seed))):
        path = tmp_path / f"{index.kind}.idx"
        save_index(index, path)
        assert load_index(path, ds).params == index.params


@pytest.mark.parametrize("seed", [-(2**63) - 1, 2**63, 2**64 - 7])
def test_params_reject_seeds_outside_int64(seed):
    for make in (RealLshParams, BinaryLshParams):
        with pytest.raises(ValueError, match=f"seed must be in .*, got {seed}$"):
            make(L=1, K=1, seed=seed)


def test_make_index_and_load_index_accept_exactly_the_family_kinds(tmp_path):
    from lshkit.binary_lsh import FAMILIES
    from lshkit.evaluation import make_index

    ds = generate_synthetic(4, 8, 12, 0.3, seed=5)
    path = tmp_path / "idx"
    for code, (kind, family) in enumerate(FAMILIES.items()):
        index = make_index(kind, ds, 2, 3, seed=4)
        assert type(index) is family and index.kind == kind
        save_index(index, path)
        assert path.read_bytes()[8] == code
        assert type(load_index(path, ds)) is family
    for kind in ("none", "exact", "REAL", ""):
        with pytest.raises(ValueError, match="unknown index kind"):
            make_index(kind, ds, 2, 3)
    patched(path, 8, "<B", len(FAMILIES))
    with pytest.raises(SnapshotError, match=f"unknown index kind code {len(FAMILIES)}"):
        load_index(path, ds)
