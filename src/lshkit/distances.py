"""Distance kernels shared by the exact scan and both LSH indexes.

Every returned distance is computed in float64 on float32 inputs without
BLAS reductions, so a vector compared against a bit-identical copy of itself
always comes out at distance exactly 0.0, regardless of whether it is
processed alone or inside a batch. BLAS is used only to *select* rows:
prefilter scores every float32 row with one float32 matrix-vector product
and drops the rows that provably cannot reach the top k, and the kernels
below then score the rest.

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

# prefilter keeps every row of a smaller matrix. With the float32 score its
# fixed cost is still about 30 us (2-vCPU x86-64 VM, one BLAS thread): at
# d = 128 and k = 11 it pays from about 64 rows for cosine and from 128 to
# 192 for euclidean, as with the float64 score, so the sweep workload's
# ~60-candidate queries skip it
PREFILTER_MIN_ROWS = 128


def check_metric(metric: str) -> str:
    if metric not in METRICS:
        raise ValueError(f"unknown metric {metric!r}, expected one of {METRICS}")
    return metric


def as_integer(value, what: str) -> int:
    """``operator.index(value)``; TypeError "<what>, got <value>" when it is
    not an integer (2.9 is not truncated to 2)."""
    try:
        return operator.index(value)
    except TypeError:
        raise TypeError(f"{what}, got {value!r}") from None


def check_k(k) -> int:
    """k as an int: TypeError unless it is an integer, ValueError unless it
    is positive."""
    k = as_integer(k, "k must be an integer")
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


def row_norms(matrix: np.ndarray) -> np.ndarray:
    """Float64 L2 norm of each row of an (n, d) matrix of float32 values,
    held in float32 or float64. Rows go through float64 CHUNK_ROWS at a
    time, so a float32 matrix is never copied whole, and each row's sum is
    the one of the whole float64 matrix, bit for bit."""
    out = np.empty(len(matrix))
    for lo in range(0, len(matrix), CHUNK_ROWS):
        block = np.asarray(matrix[lo : lo + CHUNK_ROWS], dtype=np.float64)
        np.einsum("ij,ij->i", block, block, out=out[lo : lo + CHUNK_ROWS])
    return np.sqrt(out, out=out)


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
_U32 = np.finfo(np.float32).eps / 2  # unit roundoff of float32


def _gamma(n: int, u: float = _U) -> float:
    """gamma_n = n u / (1 - n u): the relative error of n roundings to unit
    roundoff u (float64's by default)."""
    return n * u / (1 - n * u)


@functools.lru_cache(maxsize=None)
def _cosine_margin(d: int) -> float:
    """m with |A - D| <= m + _underflow_margin(d) / (|x| |q|) on every row;
    derivation in prefilter."""
    g = _gamma(d + 2)
    near = 4 * g + 2 * g * g
    kernel = _gamma(d + 2) * (2 + near) + near
    dot = _gamma(d, _U32)
    quotient = _gamma(2 * d + 4) * (1 + dot) + dot
    return kernel + quotient + _U * (2 + quotient) + 3 * _U


@functools.lru_cache(maxsize=None)
def _euclidean_margin(d: int) -> float:
    """r with |A - S| <= r (|x| + |q|)^2 + 2 _underflow_margin(d) on every
    row; derivation in prefilter."""
    dot = _gamma(d, _U32)
    score = _gamma(d + 3) + dot / 2 + _U * (2 + _gamma(d + 3) + dot)
    r = score + _gamma(d + 2) + 4 * _U * (1 + _gamma(d + 2)) + 2 * _U
    return r / (1 - _gamma(2 * d + 7))


def _underflow_margin(d: int) -> float:
    """z = d 2^-149, twice what gradual underflow can add to a float32 dot
    product of length d; derivation in prefilter."""
    return d * 2.0**-149


def _score_bounds(matrix: np.ndarray, norms: np.ndarray, q: np.ndarray, metric: str):
    """(A - M, A + M) of every row, the bounds on its kernel distance (S for
    euclidean) that prefilter derives, from one product ``matrix @ q``;
    None for an all-zero cosine query, which the kernel scores 1 against
    every row."""
    q64 = np.asarray(q, dtype=np.float64)
    qq = float(q64 @ q64)
    if check_metric(metric) == "cosine" and qq == 0.0:
        return None
    with np.errstate(all="ignore"):  # inf and NaN dots and scores get the widest bounds
        return _dot_bounds(matrix @ q, norms, qq, len(q64), metric)


def _dot_bounds(dots: np.ndarray, norms: np.ndarray, qq, d: int, metric: str):
    """(A - M, A + M) of every row from its float32 dot product with the
    query (``dots``, in any summation order), its cached norm and the
    query's float64 q . q (``qq``: one value, or one per row, nonzero for
    cosine), with -inf and +inf where A + M is not finite; ``_score_bounds``
    for one query, ``evaluation.evaluate_grid`` for a block of them. Callers
    silence floating-point warnings: they only name rows that are kept."""
    nq = np.sqrt(qq)
    z = _underflow_margin(d)
    if metric == "cosine":
        score = np.divide(dots, norms)  # 0 / 0 on a zero row: NaN, kept
        score /= nq
        np.subtract(1.0, score, out=score)
        margin = np.divide(z / nq, norms)
        margin += _cosine_margin(d)
    else:
        score = np.multiply(dots, -2.0, dtype=np.float64)
        score += norms * norms + qq
        margin = np.where(norms > 0, norms, np.inf)  # the norms, until scaled below
        margin += nq
        margin *= margin
        margin *= _euclidean_margin(d)
        margin += 2 * z
    upper = score + margin
    score -= margin
    wide = ~np.isfinite(upper)
    upper[wide] = np.inf
    score[wide] = -np.inf
    return score, upper


def prefilter(matrix: np.ndarray, norms: np.ndarray, q: np.ndarray, k: int, metric: str):
    """The rows of ``matrix`` whose kernel distance to ``q`` can be among the
    k smallest: an ascending row array, or ``slice(None)`` for every row.
    ``_dot_bounds`` gives each row's A - M and A + M, which
    ``evaluation.evaluate_grid`` also cuts with.

    ``matrix`` holds float32 rows (``Dataset.vectors``; float64 rows of
    float32 values work too), ``norms`` their cached float64 norms
    (``Dataset.norms``), and ``q`` is a float32 query (``as_query``).
    rank_top_k over the kernel's distances of the kept rows returns the list
    it returns over all rows, ties included. Every row is kept when k >= n,
    below PREFILTER_MIN_ROWS rows, and for an all-zero cosine query (the
    kernel scores every row 1).

    **The cut.** One BLAS product ``matrix @ q`` gives the dot products s,
    in float32 for float32 rows, and every later step is float64 (the grid
    takes s from one float32 matrix product for a block of queries; the
    bounds below hold for a dot product summed in any order). Each row
    gets a score A: cosine ``A = 1 - s / (|x| |q|)``, euclidean
    ``A = |x|^2 + |q|^2 - 2 s``, compared with S, the kernel's squared
    distance before its square root. Let |A - D| <= M on every row (D the
    kernel's distance, or S). The k rows with the smallest A + M have
    D <= A + M, so D(k) <= (A + M)(k), and every row with D <= D(k) has
    A - M <= D <= (A + M)(k): keeping the rows with A - M <= (A + M)(k) keeps
    each row rank_top_k could return, ties at the cut included. A row with a
    zero norm or a non-finite A + M gets A + M = +inf and is always kept; a
    zero row is the only kind on which the cosine kernel's row_zero rule
    fires (a nonzero row's largest coordinate is at least 1 / sqrt(d) in
    magnitude after normalizing, so it does not underflow).

    **Overflow.** A float32 product can overflow (1e30 rows against a 1e30
    query): s comes out inf or NaN, and so does A + M, so the row is kept.
    An inf or NaN never turns finite again in a sum or product, so a finite
    s had no rounding overflow, and the bounds below hold for it. The
    float64 steps cannot overflow: float32 values square to below 2^256.
    Warnings about the float32 product are silenced; they only name kept
    rows.

    **The margin M.** u = 2^-53 and v = 2^-24 are the unit roundoffs of
    float64 and float32, gamma_n = n u / (1 - n u) and gamma'_n the same
    with v. Every rounding with a normal result is a factor (1 + delta),
    |delta| <= u (or v); a product of n such factors or their inverses is
    within gamma_n of 1 (Higham, Accuracy and Stability of Numerical
    Algorithms, lemma 3.1). Float64 steps work on float32 values or their
    products, so none of them underflows, and each float64 product of two
    float32 values is exact. A sum of n nonnegative terms in any order
    (pairwise, BLAS, with or without FMA) is such a product times its exact
    value, and a square root halves the exponents, so a norm (cached, the
    query's or the kernel's) and its inverse are within gamma_(d+1) of |x|
    and 1/|x|.

    The float32 dot product can underflow. With gradual underflow (IEEE's
    default, which numpy keeps) a rounding is fl(a op b) = (a op b)
    (1 + delta) + eta, |eta| <= 2^-150, half the smallest float32
    subnormal, and eta = 0 for an addition or subtraction, whose subnormal
    results are exact. A float32 dot product in any order rounds d products
    or fused multiply-adds, each eta carried through at most d - 1 later
    roundings, so |s - x . q| <= gamma'_d |x| |q| + Z with
    Z = d 2^-150 (1 + gamma'_d). For d <= 2^21, gamma'_d <= 1/7, so
    z = ``_underflow_margin(d)`` = d 2^-149 is at least 1.75 Z. The relative
    bound alone fails on rows near 1e-22, whose products fall below
    float32's normal range. A float64 product (float64 rows) has no
    underflow error and errs by at most gamma_d |x| |q|, so the same M
    covers it.

    Cosine, ``_cosine_margin`` = m, M = m + z / (|x| |q|) per row
    (e = x/|x|, e' = q/|q|, C = 1 - e . e'):

    - the kernel normalizes with a norm and a divide, so each coordinate of
      its unit row x^ and unit query q^ is within g = gamma_(d+2) of e_i or
      e'_i, and |x^ - e|, |q^ - e'| <= g;
    - it sums d terms (x^_i - q^_i)^2, each rounded three times, so
      D = 1/2 sum is within gamma_(d+2) of R = 1/2 |x^ - q^|^2; with
      |(x^ - q^) - (e - e')| <= 2g and |e - e'| <= 2, |R - C| <= 4g + 2g^2
      and R <= 2 + 4g + 2g^2, so |D - C| <= gamma_(d+2) (2 + 4g + 2g^2) +
      4g + 2g^2;
    - s / |x| |q| is within gamma'_d + Z / (|x| |q|) of e . e'; dividing s
      by the two norms (within gamma_(d+1) each) with two roundings puts the
      quotient within gamma_(2d+4) (1 + gamma'_d) + gamma'_d, plus
      (1 + gamma_(2d+4)) Z / (|x| |q|), of e . e', and subtracting it from
      1 adds u (2 + that). Together that is |A - C|;
    - 3u more covers rounding A - M and A + M, apart from u times the
      underflow term;
    - z / (|x| |q|) is computed from the norms with two roundings and added
      to m with one, so it is at least 1.75 (1 - gamma_(2d+5)) Z / (|x| |q|):
      enough for the quotient's underflow term and the few u times it that
      the steps above add.

    Euclidean, ``_euclidean_margin`` = r, M = r (|x| + |q|)^2 + 2z per row
    (T = |x - q|^2, P = (|x| + |q|)^2, so 2 |x| |q| <= P / 2):

    - the kernel's S sums d terms (x_i - q_i)^2, each rounded three times,
      so |S - T| <= gamma_(d+2) T <= gamma_(d+2) P;
    - the squared cached norm and fl(q . q) are within gamma_(d+3) of |x|^2
      and |q|^2, and 2s within 2 gamma'_d |x| |q| + 2Z <= gamma'_d P / 2 + 2Z
      of 2 x . q; the add and the subtract round by u (1 + gamma_(d+3))
      (|x|^2 + |q|^2) and u ((1 + gamma'_d) P + 2Z), so |A - T| <=
      (gamma_(d+3) + gamma'_d / 2 + u (2 + gamma_(d+3) + gamma'_d)) P
      + 2Z (1 + u);
    - rank_top_k sees sqrt(S) rounded, so a row with S above S(k) can tie
      D(k); then S(k) >= S ((1 - u)/(1 + u))^2 >= S - 4u (1 + gamma_(d+2)) P,
      and adding that to M keeps the row;
    - 2u P more covers rounding A - M and A + M, apart from u times the
      underflow term;
    - M is computed as fl(r fl((|x| + |q|)^2) + 2z) from the norms: its
      first term is at least (1 - gamma_(2d+7)) r P, so r is divided by
      that, and its second at least 3.5 (1 - u) Z, which covers 2Z (1 + u)
      and the few u times it that the steps above add.

    The margins are evaluated in float64; their own few roundings, and the
    one that adds m to the underflow term, are far below the slack in the
    bounds (a square root halves its sum's error, which they do not use).
    Which rows are kept can depend on how BLAS rounds (kernel, threads,
    machine); the distances the caller ranks cannot.
    """
    n = len(matrix)
    if k >= n or n < PREFILTER_MIN_ROWS:
        return slice(None)
    bounds = _score_bounds(matrix, norms, q, metric)
    if bounds is None:
        return slice(None)
    lower, upper = bounds
    upper.partition(k - 1)
    return np.flatnonzero(lower <= upper[k - 1])


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
