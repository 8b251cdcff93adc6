"""Distance kernels shared by the exact scan and both LSH indexes.

Every returned distance is computed in float64 on float32 inputs without
BLAS reductions, so a vector compared against a bit-identical copy of itself
always comes out at distance exactly 0.0, regardless of whether it is
processed alone or inside a batch. BLAS is used only to *select* rows:
prefilter scores every row with one matrix-vector product and drops the rows
that provably cannot reach the top k, and the kernels below then score the
rest.

The kernels score a matrix in blocks of CHUNK_ROWS rows through one reused
(CHUNK_ROWS, d) float64 buffer, so a call needs O(CHUNK_ROWS * d) memory
beyond its n outputs. Each row goes through the float64 operations of the
whole-matrix form in the same order (normalize, subtract, square, sum along
the row), so for C-contiguous input the distances are bit-identical to it,
and a row's distance does not depend on which other rows are scored with it.
rank_top_k partitions at the k-th smallest distance and lexsorts only the
rows at or below it, which returns what a lexsort of all n rows would.
"""

from __future__ import annotations

import functools
import operator

import numpy as np

METRICS = ("cosine", "euclidean")

# Rows scored per block: a block's float64 scratch (512 x 128 x 8 B = 512 KiB
# at d = 128) stays cache-sized, and the per-block Python overhead stays small.
CHUNK_ROWS = 512

# prefilter keeps every row of a smaller matrix. Its fixed cost is about
# 30 us (2-vCPU x86-64 VM, one BLAS thread); at d = 128 and k = 11 it pays
# from about 64 rows for cosine and 192 for euclidean, so the sweep
# workload's ~60-candidate queries skip it
PREFILTER_MIN_ROWS = 128


def check_metric(metric: str) -> str:
    if metric not in METRICS:
        raise ValueError(f"unknown metric {metric!r}, expected one of {METRICS}")
    return metric


def check_k(k) -> int:
    """k as an int: TypeError unless it is an integer, ValueError unless it
    is positive."""
    try:
        k = operator.index(k)
    except TypeError:
        raise TypeError(f"k must be an integer, got {k!r}") from None
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    return k


def as_query(q, dim: int) -> np.ndarray:
    """Validate one query vector, shape (dim,), and quantize it to float32."""
    arr = np.asarray(q, dtype=np.float32)
    if arr.shape != (dim,):
        raise ValueError(f"query has shape {arr.shape}, expected one vector of length {dim}")
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


_U = np.finfo(np.float64).eps / 2  # unit roundoff of float64


def _gamma(n: int) -> float:
    """gamma_n = n u / (1 - n u): the relative error of n roundings."""
    return n * _U / (1 - n * _U)


@functools.lru_cache(maxsize=None)
def _cosine_margin(d: int) -> float:
    """m with |A - D| <= m on every row; derivation in prefilter."""
    g = _gamma(d + 2)
    near = 4 * g + 2 * g * g
    kernel = _gamma(d + 2) * (2 + near) + near
    quotient = _gamma(2 * d + 4) * (1 + _gamma(d)) + _gamma(d)
    return kernel + quotient + _U * (2 + quotient) + 3 * _U


@functools.lru_cache(maxsize=None)
def _euclidean_margin(d: int) -> float:
    """r with |A - S| <= r (|x| + |q|)^2 on every row; derivation in prefilter."""
    score = _gamma(d + 3) + _U * (2 + _gamma(d + 3) + _gamma(d + 4))
    r = score + _gamma(d + 2) + 4 * _U * (1 + _gamma(d + 2)) + 2 * _U
    return r / (1 - _gamma(2 * d + 6))


def prefilter(matrix: np.ndarray, norms: np.ndarray, q: np.ndarray, k: int, metric: str):
    """The rows of ``matrix`` whose kernel distance to ``q`` can be among the
    k smallest: an ascending row array, or ``slice(None)`` for every row.

    ``matrix`` holds float32 values in float64 (rows of ``Dataset.values64``),
    ``norms`` its rows' cached norms (``Dataset.norms``), and ``q`` is a
    float32 query (``as_query``). rank_top_k over the kernel's distances of
    the kept rows returns the list it returns over all rows, ties included.
    Every row is kept when k >= n, below PREFILTER_MIN_ROWS rows, and for an
    all-zero cosine query (the kernel scores every row 1).

    **The cut.** One BLAS product gives each row a score A: cosine
    ``A = 1 - (x . q) / (|x| |q|)``, euclidean ``A = |x|^2 + |q|^2 - 2 x . q``,
    compared with S, the kernel's squared distance before its square root.
    Let |A - D| <= M on every row (D the kernel's distance, or S). The k rows
    with the smallest A + M have D <= A + M, so D(k) <= (A + M)(k), and every
    row with D <= D(k) has A - M <= D <= (A + M)(k): keeping the rows with
    A - M <= (A + M)(k) keeps each row rank_top_k could return, ties at the
    cut included. A row with a zero or non-finite norm gets A + M = +inf and
    is always kept; it is the only kind of row on which the cosine kernel's
    row_zero rule fires (a nonzero row's largest coordinate is at least
    1 / sqrt(d) in magnitude after normalizing, so it does not underflow).

    **The margin M.** u = eps / 2, gamma_n = n u / (1 - n u). Coordinates
    are float32, so each float64 product of two is exact, and no operation
    here over- or underflows; every rounding is a factor (1 + delta),
    |delta| <= u, and a product of n such factors or their inverses is
    within gamma_n of 1 (Higham, Accuracy and Stability of Numerical
    Algorithms, lemma 3.1). A sum of n nonnegative terms in any order
    (pairwise, BLAS, with or without FMA) is such a product times its exact
    value, a dot product errs by at most gamma_d sum |x_i y_i| <= gamma_d
    |x| |y| (sec. 3.1), and a
    square root halves the exponents. So a norm (cached, the query's or the
    kernel's) and its inverse are within gamma_(d+1) of |x| and 1/|x|.

    Cosine, ``_cosine_margin`` (e = x/|x|, e' = q/|q|, C = 1 - e . e'):

    - the kernel normalizes with a norm and a divide, so each coordinate of
      its unit row x^ and unit query q^ is within g = gamma_(d+2) of e_i or
      e'_i, and |x^ - e|, |q^ - e'| <= g;
    - it sums d terms (x^_i - q^_i)^2, each rounded three times, so
      D = 1/2 sum is within gamma_(d+2) of R = 1/2 |x^ - q^|^2; with
      |(x^ - q^) - (e - e')| <= 2g and |e - e'| <= 2, |R - C| <= 4g + 2g^2
      and R <= 2 + 4g + 2g^2, so |D - C| <= gamma_(d+2) (2 + 4g + 2g^2) +
      4g + 2g^2;
    - the score's dot product is within gamma_d |x| |q|; dividing it by
      the two norms (within gamma_(d+1) each) with two roundings puts the
      quotient within gamma_(2d+4) (1 + gamma_d) + gamma_d of e . e', and
      subtracting it from 1 adds u (2 + that). Together that is |A - C|;
    - 3u more covers rounding A - m and A + m, both below 3 in magnitude.

    Euclidean, ``_euclidean_margin`` (T = |x - q|^2, P = (|x| + |q|)^2):

    - the kernel's S sums d terms (x_i - q_i)^2, each rounded three times,
      so |S - T| <= gamma_(d+2) T <= gamma_(d+2) P;
    - the squared cached norm and fl(q . q) are within gamma_(d+3) of |x|^2
      and |q|^2, fl(x . q) within gamma_d |x| |q|; the add and the subtract
      round by u (1 + gamma_(d+3)) (|x|^2 + |q|^2) and u (1 + gamma_(d+4)) P,
      so |A - T| <= (gamma_(d+3) + u (2 + gamma_(d+3) + gamma_(d+4))) P;
    - rank_top_k sees sqrt(S) rounded, so a row with S above S(k) can tie
      D(k); then S(k) >= S ((1 - u)/(1 + u))^2 >= S - 4u (1 + gamma_(d+2)) P,
      and adding that to M keeps the row;
    - 2u P more covers rounding A - M and A + M (|A +- M| <= 2P);
    - M is computed as r fl((|x| + |q|)^2) from the norms, at least
      (1 - gamma_(2d+6)) r P, so r is divided by that.

    The margins are evaluated in float64; their own few roundings are far
    below the slack in the bounds (a square root halves its sum's error,
    which they do not use). Which rows are kept can depend on how BLAS
    rounds (threads, machine); the distances the caller ranks cannot.
    """
    n = len(matrix)
    if k >= n or n < PREFILTER_MIN_ROWS:
        return slice(None)
    q64 = np.asarray(q, dtype=np.float64)
    qq = float(q64 @ q64)
    cosine = check_metric(metric) == "cosine"
    if cosine and qq == 0.0:
        return slice(None)
    usable = (norms > 0) & (norms < np.inf)
    score = matrix @ q64
    if cosine:
        np.divide(score, norms, out=score, where=usable)
        score /= np.sqrt(qq)
        np.subtract(1.0, score, out=score)
        margin = _cosine_margin(len(q64))
    else:
        margin = np.where(usable, norms, 1.0)  # the norms, until scaled below
        score *= -2.0
        score += margin * margin + qq
        margin += np.sqrt(qq)
        margin *= margin
        margin *= _euclidean_margin(len(q64))
    upper = score + margin
    upper[~usable] = np.inf
    upper.partition(k - 1)
    score -= margin
    return np.flatnonzero(~usable | (score <= upper[k - 1]))


def rank_top_k(ids: np.ndarray, dists: np.ndarray, k: int) -> list[tuple[int, float]]:
    """Ascending by distance, ties by ascending id, truncated to k results."""
    k = check_k(k)
    ids = np.asarray(ids)
    dists = np.asarray(dists)
    if k < len(dists):
        # Every row at or below the k-th smallest distance, ties at the cut
        # included, so the lexsort below returns what a full lexsort would.
        keep = np.flatnonzero(dists <= np.partition(dists, k - 1)[k - 1])
        ids, dists = ids[keep], dists[keep]
    order = np.lexsort((ids, dists))[:k]
    return [(int(ids[i]), float(dists[i])) for i in order]
