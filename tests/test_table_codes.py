"""Bucket tables sorted by one integer code per row (``tables._prefix_codes``).

A table lists its keys in the order of their raw bytes. ``prefix_tables``,
and so ``BucketTable.build``, sorts uint64 codes whose numeric order is that
byte order, with the row folded into the low bits, where ``_prefix_codes``
gives a prefix's code, and otherwise sorts the key bytes with a stable
argsort. Every table must equal the one that argsort gives
(``reference_table``).
"""

import numpy as np
import pytest

from lshkit import Dataset
from lshkit.evaluation import make_index
from lshkit.tables import MAX_CODE_LEVELS, BucketTable, _prefix_codes, prefix_tables


def reference_table(words):
    """(words, offsets, rows) of the (n, W) key words from a stable argsort of
    the keys as big-endian numbers (W = 1) or as ``np.void`` rows."""
    words = np.ascontiguousarray(words)
    if words.shape[1] == 1:
        keys = words[:, 0].view(">u8")
    else:
        keys = words.view(np.dtype((np.void, 8 * words.shape[1])))[:, 0]
    rows = np.argsort(keys, kind="stable")
    ordered = keys[rows]
    starts = np.flatnonzero(np.concatenate(([True], ordered[1:] != ordered[:-1])))
    return np.ascontiguousarray(words[rows[starts]]), np.append(starts, len(rows)), rows


def assert_reference(table, words):
    for name, want in zip(("words", "offsets", "rows"), reference_table(words)):
        got = getattr(table, name)
        assert got.dtype == want.dtype, name
        assert np.array_equal(got, want), name


def assert_prefixes_match_reference(words):
    widths = list(range(words.shape[1], 0, -1))
    assert_reference(BucketTable.build(words), words)
    for width, table in zip(widths, prefix_tables(words, widths)):
        assert_reference(table, words[:, :width])


def assert_codes_follow_bytes(words):
    """Every prefix code of ``words`` fits, and the codes order and tie the
    rows as Python's comparison of their key bytes does."""
    n, width = words.shape
    codes = _prefix_codes(words, width, 0)
    assert len(codes) == width + 1
    for w in range(1, width + 1):
        raw = [row[:w].tobytes() for row in words]
        code = codes[w].tolist()
        by_bytes = sorted(range(n), key=lambda i: (raw[i], i))
        assert sorted(range(n), key=lambda i: (code[i], i)) == by_bytes, w
        ties = [(raw[a] == raw[b], code[a] == code[b]) for a, b in zip(by_bytes, by_bytes[1:])]
        assert all(same_bytes == same_code for same_bytes, same_code in ties), w


INT64_LEVELS = [
    np.arange(-(2**63), -(2**63) + 300),  # the lowest levels
    np.int64(2**63 - 1) - np.arange(300),  # the highest levels
    np.arange(-300, 300),  # mixed signs
    np.arange(250, 262),  # across the first byte
    np.arange(65530, 65542),  # across the second byte
    np.arange(-262, -250),
    2**32 + np.arange(-5, 5),
    -(2**40) + np.arange(-3, 3),
    np.arange(-(2**15), 2**15),  # MAX_CODE_LEVELS levels
]


@pytest.mark.parametrize("case", range(len(INT64_LEVELS)))
def test_code_order_is_byte_order_on_int64_levels(case):
    rng = np.random.default_rng(case)
    levels = INT64_LEVELS[case]
    assert levels.dtype == np.int64 and len(levels) <= MAX_CODE_LEVELS
    assert_codes_follow_bytes(rng.choice(levels, size=(80, 1)))
    # three columns of different level sets, so earlier columns decide first
    sets = [INT64_LEVELS[(case + j) % len(INT64_LEVELS)] for j in range(3)]
    words = np.stack([rng.choice(s[:40], size=60) for s in sets], axis=1)
    assert_codes_follow_bytes(words)
    assert_prefixes_match_reference(words)


BINARY_LEVELS = [
    np.uint64(2**64 - 300) + np.arange(300, dtype=np.uint64),  # K = 64, top bit set, up to 2**64 - 1
    np.uint64(2**63 - 150) + np.arange(300, dtype=np.uint64),  # across the top bit
    np.arange(2**12, dtype=np.uint64),  # K = 12
    np.arange(250, 262, dtype=np.uint64),
    np.arange(65530, 65542, dtype=np.uint64),
    np.arange(2**16, dtype=np.uint64),  # K = 16: MAX_CODE_LEVELS levels
]


@pytest.mark.parametrize("case", range(len(BINARY_LEVELS)))
def test_code_order_is_byte_order_on_binary_words(case):
    rng = np.random.default_rng(case)
    words = rng.choice(BINARY_LEVELS[case], size=(80, 1))
    assert_codes_follow_bytes(words)
    assert_prefixes_match_reference(words)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 255, 256, 257, 1024, 1025])
def test_row_counts_around_powers_of_two(n):
    rng = np.random.default_rng(n)
    for words in (rng.integers(-3, 3, size=(n, 3)), rng.integers(0, 2**12, size=(n, 1)).astype(np.uint64)):
        assert len(_prefix_codes(words, words.shape[1], (n - 1).bit_length())) == words.shape[1] + 1
        assert_prefixes_match_reference(words)


@pytest.mark.parametrize("n,fits", [(256, 4), (257, 3)])
def test_row_bits_decide_which_prefixes_take_a_code(n, fits):
    """Columns of 16, 16, 16 and 8 bits: 56 code bits leave room for the 8
    row bits of n = 256 rows, not for the 9 of n = 257, whose full keys take
    the byte sort."""
    rng = np.random.default_rng(n)
    spans = [2**16, 2**16, 2**16, 2**8]
    words = np.stack([rng.integers(0, span, n) for span in spans], axis=1)
    words[0], words[1] = 0, np.array(spans) - 1  # each column spans its full range
    assert len(_prefix_codes(words, 4, (n - 1).bit_length())) == fits + 1
    assert_prefixes_match_reference(words)


def test_wide_columns_take_the_byte_sort():
    """A column of MAX_CODE_LEVELS + 1 levels: the prefixes that hold it
    take the byte sort, the ones before it a code."""
    rng = np.random.default_rng(3)
    narrow, wide = rng.integers(-2, 2, 50), rng.integers(0, 2, 50) * MAX_CODE_LEVELS
    assert wide.min() == 0 and wide.max() == MAX_CODE_LEVELS
    for words, fits in ((np.stack([narrow, wide, narrow], 1), 1), (np.stack([wide, narrow], 1), 0)):
        assert len(_prefix_codes(words, words.shape[1], 6)) == fits + 1
        assert_prefixes_match_reference(words)
    # 64-bit signatures spread over the whole word range
    signatures = rng.integers(0, 2**64, size=(200, 1), dtype=np.uint64)
    assert len(_prefix_codes(signatures, 1, 8)) == 1
    assert_prefixes_match_reference(signatures)


def test_codes_wider_than_64_bits_take_the_byte_sort():
    """Five columns of 16 bits: with 6 row bits only the first three fit."""
    rng = np.random.default_rng(4)
    words = rng.integers(-(2**15), 2**15, size=(50, 5))
    words[0], words[1] = -(2**15), 2**15 - 1
    assert len(_prefix_codes(words, 5, 6)) == 4
    assert_prefixes_match_reference(words)


def make_dataset(n, dim, seed, classes=3):
    rng = np.random.default_rng(seed)
    return Dataset(
        dim,
        [f"c{i}" for i in range(classes)],
        np.arange(n),
        rng.integers(0, classes, n),
        rng.standard_normal((n, dim)).astype(np.float32),
    )


# (dim, L, K, n): real keys of up to 16 columns (the widest do not all fit a
# code) and binary signatures of 12 bits (a code) to 64 (the byte sort)
FAMILY_CASES = [
    (3, 2, 1, 1), (3, 3, 4, 63), (33, 3, 8, 300), (33, 2, 16, 1025), (128, 4, 3, 2048), (128, 2, 12, 700),
    (128, 2, 64, 300),
]


@pytest.mark.parametrize("kind", ["real", "binary"])
@pytest.mark.parametrize("dim,L,K,n", FAMILY_CASES)
def test_family_tables_equal_the_byte_sort(kind, dim, L, K, n):
    ds = make_dataset(n, dim, seed=dim + K + n)
    index = make_index(kind, ds, L, K, w=2.0, seed=L * K)
    keys = index._table_keys(ds.values64)
    Ks = sorted({1, max(1, K // 2), K})
    for t, table in enumerate(index.bucket_tables):
        assert_reference(table, keys[:, t])
        for K_prefix, prefix in index._prefix_tables(keys[:, t], Ks).items():
            assert_reference(prefix, index._key_prefix(keys[:, t], K_prefix))
