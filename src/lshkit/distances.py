"""Distance kernels shared by the exact scan and both LSH indexes.

All math runs in float64 on float32 inputs and avoids BLAS reductions, so a
vector compared against a bit-identical copy of itself always comes out at
distance exactly 0.0, regardless of whether it is processed alone or inside
a batch.

The kernels score a matrix in blocks of CHUNK_ROWS rows through one reused
(CHUNK_ROWS, d) float64 buffer, so a call needs O(CHUNK_ROWS * d) memory
beyond its n outputs. Each row goes through the float64 operations of the
whole-matrix form in the same order (normalize, subtract, square, sum along
the row), so for C-contiguous input the distances are bit-identical to it.
rank_top_k partitions at the k-th smallest distance and lexsorts only the
rows at or below it, which returns what a lexsort of all n rows would.
"""

from __future__ import annotations

import numpy as np

METRICS = ("cosine", "euclidean")

# Rows scored per block: a block's float64 scratch (512 x 128 x 8 B = 512 KiB
# at d = 128) stays cache-sized, and the per-block Python overhead stays small.
CHUNK_ROWS = 512


def check_metric(metric: str) -> str:
    if metric not in METRICS:
        raise ValueError(f"unknown metric {metric!r}, expected one of {METRICS}")
    return metric


def as_query(q, dim: int) -> np.ndarray:
    """Validate a query vector and quantize it to the stored float32 precision."""
    arr = np.asarray(q, dtype=np.float32).reshape(-1)
    if arr.shape != (dim,):
        raise ValueError(f"query has length {arr.shape[0]}, index dimensionality is {dim}")
    if not np.isfinite(arr).all():
        raise ValueError("query contains non-finite values")
    return arr


def _unit_rows_into(m: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Write the L2-normalized float64 rows of m into out (same shape); rows
    without a positive norm come out zero. out may be a reused buffer."""
    np.multiply(m, m, out=out)
    norms = np.sqrt(out.sum(axis=1))
    zero = ~(norms > 0)
    norms[zero] = 1.0
    np.divide(m, norms[:, None], out=out)
    out[zero] = 0.0
    return out


def normalize_rows(matrix: np.ndarray) -> np.ndarray:
    """L2-normalize rows in float64; all-zero rows stay zero."""
    m = np.asarray(matrix, dtype=np.float64)
    return _unit_rows_into(m, np.empty(m.shape))


def _blocks(matrix: np.ndarray, dim: int):
    """Yield (rows slice, float64 block, scratch buffer) per CHUNK_ROWS rows;
    the scratch buffer is one (CHUNK_ROWS, dim) array reused by every block."""
    scratch = np.empty((min(len(matrix), CHUNK_ROWS), dim))
    for lo in range(0, len(matrix), CHUNK_ROWS):
        block = np.asarray(matrix[lo : lo + CHUNK_ROWS], dtype=np.float64)
        yield slice(lo, lo + len(block)), block, scratch[: len(block)]


def euclidean_distances(matrix: np.ndarray, q: np.ndarray) -> np.ndarray:
    q64 = np.asarray(q, dtype=np.float64)
    dists = np.empty(len(matrix))
    for rows, block, diff in _blocks(matrix, q64.shape[-1]):
        np.subtract(block, q64, out=diff)
        np.multiply(diff, diff, out=diff)
        diff.sum(axis=1, out=dists[rows])
    return np.sqrt(dists, out=dists)


def cosine_distances(matrix: np.ndarray, q: np.ndarray) -> np.ndarray:
    """1 - cosine similarity, computed as half the squared distance of the
    normalized vectors. Any comparison involving an all-zero vector is
    defined as distance 1 (maximal dissimilarity short of opposition); so is
    a row whose normalized form underflows or overflows to all zeros."""
    qn = normalize_rows(np.asarray(q, dtype=np.float64).reshape(1, -1))[0]
    if not qn.any():
        return np.ones(len(matrix))
    dists = np.empty(len(matrix))
    for rows, block, unit in _blocks(matrix, qn.shape[0]):
        _unit_rows_into(block, unit)
        row_zero = ~unit.any(axis=1)
        np.subtract(unit, qn, out=unit)
        np.multiply(unit, unit, out=unit)
        out = dists[rows]
        unit.sum(axis=1, out=out)
        out *= 0.5
        out[row_zero] = 1.0
    return dists


def distances_to(matrix: np.ndarray, q: np.ndarray, metric: str) -> np.ndarray:
    check_metric(metric)
    if metric == "euclidean":
        return euclidean_distances(matrix, q)
    return cosine_distances(matrix, q)


def rank_top_k(ids: np.ndarray, dists: np.ndarray, k: int) -> list[tuple[int, float]]:
    """Ascending by distance, ties by ascending id, truncated to k results."""
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    ids = np.asarray(ids)
    dists = np.asarray(dists)
    if k < len(dists):
        # Every row at or below the k-th smallest distance, ties at the cut
        # included, so the lexsort below returns what a full lexsort would.
        keep = np.flatnonzero(dists <= np.partition(dists, k - 1)[k - 1])
        ids, dists = ids[keep], dists[keep]
    order = np.lexsort((ids, dists))[:k]
    return [(int(ids[i]), float(dists[i])) for i in order]
