import hashlib

import numpy as np
import pytest

from lshkit import (
    Dataset,
    DatasetFormatError,
    generate_synthetic,
    load_dataset,
    merge_datasets,
    save_dataset,
)
from lshkit.dataset import from_fvec_bytes, to_fvec_bytes

from helpers import oracle_member_ap


def random_dataset(n=20, dim=6, classes=4, seed=0):
    rng = np.random.default_rng(seed)
    return Dataset(
        dim,
        [f"c{i}" for i in range(classes)],
        np.arange(n),
        rng.integers(0, classes, n),
        rng.standard_normal((n, dim)).astype(np.float32),
    )


# ---------------------------------------------------------------------------
# csv
# ---------------------------------------------------------------------------

def test_csv_load_basic(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("id,label,dim=2\n0,cat,1.0,2.0\n1,dog,0.0,-1.0\n")
    ds = load_dataset(path)
    assert ds.dim == 2
    assert ds.labels == ("cat", "dog")
    assert len(ds) == 2
    assert ds.get(0).values.tolist() == [1.0, 2.0]
    assert ds.get(1).values.tolist() == [0.0, -1.0]
    assert ds.label_of(1) == "dog"


def test_csv_empty_body(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("id,label,dim=8\n")
    ds = load_dataset(path)
    assert ds.dim == 8
    assert len(ds) == 0


def test_csv_dimension_mismatch_names_row(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("id,label,dim=2\n0,cat,1.0,2.0\n1,dog,1.0,2.0,3.0\n")
    with pytest.raises(DatasetFormatError, match="row 3"):
        load_dataset(path)


def test_csv_duplicate_id(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("id,label,dim=1\n5,a,1.0\n5,b,2.0\n")
    with pytest.raises(DatasetFormatError, match="duplicate id 5"):
        load_dataset(path)


def test_csv_non_finite_value(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("id,label,dim=1\n0,a,nan\n")
    with pytest.raises(DatasetFormatError, match="row 2"):
        load_dataset(path)


def test_csv_malformed_header(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("id,label\n")
    with pytest.raises(DatasetFormatError, match="header"):
        load_dataset(path)


def test_csv_round_trip_value_exact(tmp_path):
    # shortest-repr decimals parse back to the identical float32
    ds = random_dataset(n=30, dim=5, seed=3)
    path = tmp_path / "d.csv"
    save_dataset(ds, path)
    back = load_dataset(path)
    assert set(back.labels) == set(ds.labels)
    for fv in ds:
        got = back.get(fv.id)
        assert back.label_of(fv.id) == ds.label_of(fv.id)
        assert np.array_equal(got.values, fv.values)


# ---------------------------------------------------------------------------
# fvec
# ---------------------------------------------------------------------------

def test_fvec_round_trip_bit_exact(tmp_path):
    ds = random_dataset(n=25, dim=7, seed=9)
    path = tmp_path / "d.fvec"
    save_dataset(ds, path)
    back = load_dataset(path)
    assert back.dim == ds.dim
    assert back.labels == ds.labels
    assert np.array_equal(back.ids, ds.ids)
    assert np.array_equal(back.label_ids, ds.label_ids)
    assert np.array_equal(back.vectors, ds.vectors)


def test_fvec_empty_dataset(tmp_path):
    ds = Dataset(4, ["only"], np.array([], dtype=np.int64), np.array([], dtype=np.int64),
                 np.zeros((0, 4), dtype=np.float32))
    path = tmp_path / "e.fvec"
    save_dataset(ds, path)
    back = load_dataset(path)
    assert len(back) == 0 and back.dim == 4 and back.labels == ("only",)


def test_fvec_bad_magic():
    with pytest.raises(DatasetFormatError, match="magic"):
        from_fvec_bytes(b"NOPE" + b"\x00" * 32)


def test_fvec_truncated():
    blob = to_fvec_bytes(random_dataset())
    with pytest.raises(DatasetFormatError):
        from_fvec_bytes(blob[: len(blob) - 3])


def test_fvec_invalid_utf8_label_is_format_error():
    blob = bytearray(to_fvec_bytes(random_dataset()))
    blob[16] = 0xFF  # first byte of the first label, after the u16 length at 14
    with pytest.raises(DatasetFormatError, match="UTF-8"):
        from_fvec_bytes(bytes(blob))


def test_csv_invalid_utf8_label_is_format_error(tmp_path):
    path = tmp_path / "d.csv"
    path.write_bytes(b"id,label,dim=1\n0,c\xffat,1.0\n")
    with pytest.raises(DatasetFormatError, match="UTF-8"):
        load_dataset(path)


def test_rows_of_maps_unordered_ids():
    vals = np.arange(8, dtype=np.float32).reshape(4, 2)
    ds = Dataset(2, ["a"], np.array([30, 10, 40, 20]), np.zeros(4, dtype=np.int64), vals)
    assert ds.rows_of([10, 20, 30, 40]).tolist() == [1, 3, 0, 2]
    assert [ds.row_of(i) for i in (30, 10, 40, 20)] == [0, 1, 2, 3]
    for missing in ([15], [10, 50], [5]):
        with pytest.raises(KeyError, match=f"no vector with id {missing[-1]}"):
            ds.rows_of(missing)
    for missing in (2, 2**70):
        with pytest.raises(KeyError, match=f"no vector with id {missing}"):
            ds.row_of(missing)


def test_fvec_format_inference_requires_known_extension(tmp_path):
    with pytest.raises(ValueError, match="infer"):
        load_dataset(tmp_path / "d.bin")


# ---------------------------------------------------------------------------
# synthetic generation
# ---------------------------------------------------------------------------

def test_generate_zero_std_gives_identical_class_members():
    ds = generate_synthetic(3, 2, 4, 0.0, seed=5)
    assert len(ds) == 6
    for c in range(3):
        a, b = [ds.get(int(i)).values for i in ds.class_ids(c)]
        assert np.array_equal(a, b)


def test_generate_deterministic():
    d1 = generate_synthetic(4, 3, 8, 0.2, seed=77)
    d2 = generate_synthetic(4, 3, 8, 0.2, seed=77)
    assert np.array_equal(d1.vectors, d2.vectors)
    assert d1.labels == d2.labels
    d3 = generate_synthetic(4, 3, 8, 0.2, seed=78)
    assert not np.array_equal(d1.vectors, d3.vectors)


def test_generate_well_separated_classes_have_perfect_ap():
    # centroids are ~unit scale apart, far beyond a 0.1 cluster std
    ds = generate_synthetic(2, 5, 8, 0.1, seed=13)
    for fv in ds:
        assert oracle_member_ap(ds, fv.id, k=10, metric="cosine") == 1.0


# sha256 of generate_synthetic(3, 4, 5, 0.5, seed).vectors; seeds are taken
# mod 2**64, so -2**70 draws what 0 draws
@pytest.mark.parametrize(
    "seed, digest",
    [
        (0, "42298d46644b59cc8c25c45586b6b2225728a7bdcf4a89beba03380e043a8ef3"),
        (7, "22230fd2cb6ef648203089307338ff0ca846a075d1e47d02d84975068e76564c"),
        (-1, "af31f0b954b1b82753c591ebeff8c1cde7adec13e3d2e1c94c91082607dbd226"),
        (2**64 + 3, "0058b73b59b087f51b1e018c9bdde3fc3d96ce02d0479367d09940e2bbcff1c7"),
        (-(2**70), "42298d46644b59cc8c25c45586b6b2225728a7bdcf4a89beba03380e043a8ef3"),
    ],
)
def test_generate_draws_are_pinned(seed, digest):
    vectors = generate_synthetic(3, 4, 5, 0.5, seed=seed).vectors
    assert hashlib.sha256(vectors.tobytes()).hexdigest() == digest


def test_generate_validates_arguments():
    with pytest.raises(ValueError):
        generate_synthetic(0, 5, 8, 0.1, seed=1)
    with pytest.raises(ValueError):
        generate_synthetic(2, 5, 8, -0.1, seed=1)


# ---------------------------------------------------------------------------
# merge
# ---------------------------------------------------------------------------

def test_merge_counts_and_unique_ids():
    a = random_dataset(n=10, seed=1)
    b = random_dataset(n=5, seed=2)
    m = merge_datasets(a, b)
    assert len(m) == 15
    assert len(np.unique(m.ids)) == 15
    assert m.sources.tolist() == [0] * 10 + [1] * 5
    assert all(lab.startswith("b/") for lab in m.labels[len(a.labels):])


def test_merge_with_empty_is_identity():
    a = random_dataset(n=8, seed=4)
    empty = Dataset(a.dim, [], np.array([], dtype=np.int64), np.array([], dtype=np.int64),
                    np.zeros((0, a.dim), dtype=np.float32))
    m = merge_datasets(a, empty)
    assert np.array_equal(m.vectors, a.vectors)
    assert np.array_equal(m.ids, a.ids)
    assert m.labels == a.labels


def test_merge_source_flag_recovers_a():
    a = random_dataset(n=12, seed=5)
    b = random_dataset(n=7, seed=6)
    m = merge_datasets(a, b)
    kept = m.vectors[m.sources == 0]
    assert np.array_equal(kept, a.vectors)
    assert np.array_equal(m.ids[m.sources == 0], a.ids)
    # every vector of a and b appears exactly once
    assert np.array_equal(m.vectors[m.sources == 1], b.vectors)


def test_merge_dimension_mismatch():
    a = random_dataset(dim=4)
    b = random_dataset(dim=5)
    with pytest.raises(ValueError, match="dimension mismatch"):
        merge_datasets(a, b)


# ---------------------------------------------------------------------------
# construction invariants
# ---------------------------------------------------------------------------

def test_dataset_rejects_duplicate_ids():
    with pytest.raises(ValueError, match="unique"):
        Dataset(2, ["a"], np.array([1, 1]), np.array([0, 0]), np.zeros((2, 2), dtype=np.float32))


def test_dataset_rejects_bad_label_id():
    with pytest.raises(ValueError, match="label_id"):
        Dataset(2, ["a"], np.array([0, 1]), np.array([0, 1]), np.zeros((2, 2), dtype=np.float32))


def test_dataset_rejects_non_finite():
    vec = np.zeros((1, 2), dtype=np.float32)
    vec[0, 0] = np.inf
    with pytest.raises(ValueError, match="finite"):
        Dataset(2, ["a"], np.array([0]), np.array([0]), vec)


def test_dataset_vectors_are_read_only():
    ds = random_dataset()
    with pytest.raises(ValueError):
        ds.vectors[0, 0] = 99.0


def test_get_unknown_id():
    ds = random_dataset()
    with pytest.raises(KeyError):
        ds.get(10_000)


@pytest.mark.parametrize("bad", [2.9, 3.0, "4", None, np.float64(1.0)])
def test_non_integral_ids_are_rejected_not_truncated(bad):
    ds = random_dataset()
    with pytest.raises(TypeError, match="vector ids must be integers"):
        ds.rows_of([1, bad])
    with pytest.raises(TypeError, match="vector ids must be integers"):
        ds.get(bad)
    with pytest.raises(TypeError, match="vector ids must be integers"):
        ds.rows_of(np.array([1, bad], dtype=object))


def test_rows_of_accepts_integer_like_ids_and_nothing():
    ds = random_dataset()
    assert ds.rows_of([]).tolist() == []
    assert ds.rows_of([True, np.int64(3), np.uint8(2)]).tolist() == [1, 3, 2]
    assert ds.rows_of(np.array([5, 1], dtype=np.uint16)).tolist() == [5, 1]
    for missing in ([1, 2**70], [-(2**70)], np.array([2**64 - 2], dtype=np.uint64)):
        with pytest.raises(KeyError, match=f"no vector with id {missing[-1]}"):
            ds.rows_of(missing)
