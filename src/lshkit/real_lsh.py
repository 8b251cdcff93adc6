"""Real-valued random-projection LSH, and the index core both families share.

Each of the L hash tables keys vectors by a K-tuple of integer hashes
floor((v . X + b) / w), with X drawn Gaussian(0,1) per coordinate and b
uniform in [0, w]. Similar vectors land in the same bucket of at least one
table with high probability; query time only ranks the union of the L
buckets the query hashes to. Every key of both families is a function of
the v . X that :func:`project` computes; a family only quantizes the
projections and packs them into key words. A large batch is projected with
one BLAS product per block of rows instead, which only decides the keys that
a proven margin shows equal to ``project``'s (``LshIndex._table_keys``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import Dataset, child_rng
from .distances import (
    _gamma, as_integer, as_query, check_k, check_metric, distances_to, prefilter, rank_top_k, row_norms,
)
from .exact import QueryStats
from .tables import BucketTable, as_dicts, distinct, gather

# spawn-key stream tags, so the per-(table, slot) generators of the two
# index families never collide for the same master seed
STREAM_REAL = 0
STREAM_BINARY = 1

DEFAULT_WIDTH = 4.0

# _table_keys projects a batch of at least this many rows with BLAS products,
# and a smaller one (a query) with project alone, which is faster
# there: one row onto 120 axes takes 15 us through project and 22 us through
# the BLAS path, 64 rows onto 64-120 axes 2.5-3x longer through project
# (2-vCPU x86-64 VM, one BLAS thread)
BLAS_HASH_MIN_ROWS = 64
# rows per block of _table_keys: a block's float64 rows, BLAS product and
# margin temporaries stay cache-sized (720 KiB at 120 axes); 256-1,024 rows
# hash a 100k x 128 build alike, 2,048 and more slower (2-vCPU x86-64 VM).
# After 512-row builds, the next 10-20 MB allocations (a dataset load) hit
# fresh pages in some process layouts, twice as slow; 640-1,024 rows did not
HASH_BLOCK_ROWS = 768


def check_params(params) -> None:
    """Store a frozen params' L, K and seed as ints (TypeError if one is not an
    integer) and check L >= 1 and that the seed fits a snapshot's int64."""
    for name in ("L", "K", "seed"):
        object.__setattr__(params, name, as_integer(getattr(params, name), f"{name} must be an integer"))
    if params.L < 1:
        raise ValueError(f"L must be >= 1, got {params.L}")
    if not -(2**63) <= params.seed < 2**63:
        raise ValueError(f"seed must be in [-2**63, 2**63), got {params.seed}")


@dataclass(frozen=True)
class RealLshParams:
    """L tables, K integer hashes per key, segment width w (default 4)."""

    L: int
    K: int
    w: float = DEFAULT_WIDTH
    seed: int = 0

    def __post_init__(self):
        check_params(self)
        if self.K < 1:
            raise ValueError(f"K must be >= 1, got {self.K}")
        if not 0 < self.w < np.inf:
            raise ValueError(f"w must be positive and finite, got {self.w}")


@dataclass(frozen=True)
class ProjectionFunction:
    """One elementary hash: projection axis X and offset b, kept in float32."""

    X: np.ndarray
    b: float


def project(values64: np.ndarray, axes64: np.ndarray) -> np.ndarray:
    """(n, k) dot products of a float64 (n, d) batch with float64 (k, d) axes."""
    # every key is a function of these values. einsum (not BLAS) keeps each
    # row's accumulation independent of batch size, so a vector hashes
    # identically at build and at query time; BLAS only decides the keys
    # that LshIndex._table_keys proves equal to the ones these give
    return np.einsum("nd,kd->nk", values64, axes64)


def _int64_keys(levels: np.ndarray, w: float) -> np.ndarray:
    """Whole-number floor levels as int64; ValueError when one does not fit."""
    if not (levels.min() >= -(2.0**63) and levels.max() < 2.0**63):
        raise ValueError(f"a projection hash overflows int64: |v . X + b| / w reaches 2**63 (w={w})")
    return levels.astype(np.int64)


def projection_hash(vector, fn: ProjectionFunction, width: float) -> int:
    """floor((vector . X + b) / width), mathematical floor toward -inf."""
    v, axis = (np.asarray(a, dtype=np.float64).reshape(1, -1) for a in (vector, fn.X))
    return int(_int64_keys(np.floor((project(v, axis) + fn.b) / width), width)[0, 0])


def _hash_margin(d: int) -> float:
    """c such that M = fl(n_v fl(c n_X)), from the cached norms n_v of v and
    n_X of X, bounds |BLAS v . X - project's v . X|; derivation in
    LshIndex._table_keys."""
    return 2 * _gamma(3 * d + 5)


class LshIndex:
    """An index of one hash family over a dataset: the family's coefficients
    plus L flat bucket tables. Frozen after build: concurrent readers, no
    mutation. A family supplies ``kind``, ``stream`` (its ``child_rng``
    spawn-key tag), ``make_params(L, K, w, seed)`` (its params),
    ``_draw(rng, dim, params)`` (one (table, slot)'s float32 coefficients,
    in snapshot order), ``coefficients`` (its coefficient arrays, in the
    order ``_draw`` and its constructor use), ``_axes64`` (its (L, K, d)
    float64 projection axes), ``_quantize`` ((n, L', K) projections onto L'
    tables' axes -> one level per projection, each a nondecreasing function
    of its projection), ``_pack`` ((n, L', K) levels -> their (n, L', W) key
    words), ``_key_prefix`` (the key words of a shorter key) and ``_key_of``
    (key words -> the key's Python form)."""

    kind: str

    def __init__(self, params, dim: int, tables: list[BucketTable], dataset: Dataset):
        self.params = params
        self.dim = dim
        self.bucket_tables = list(tables)
        self.dataset = dataset

    def _set_axes(self, axes: np.ndarray) -> None:
        """Keep the float64 (L, K, d) projection axes and each axis's margin
        factor ``_hash_margin(d) |X|`` (``_table_keys``)."""
        self._axes64 = axes.astype(np.float64)
        norms = row_norms(self._axes64.reshape(-1, self.dim)).reshape(axes.shape[:2])
        self._margins = _hash_margin(self.dim) * norms

    @classmethod
    def with_coefficients(cls, ds: Dataset, params):
        """The index of ``params`` over ``ds`` with its coefficients drawn and
        no tables yet."""
        if len(ds) == 0:
            raise ValueError("cannot build an index over an empty dataset")
        slots = [cls._draw(child_rng(params.seed, cls.stream, t, j), ds.dim, params)
                 for t in range(params.L) for j in range(params.K)]
        arrays = (np.array(values, dtype=np.float32) for values in zip(*slots))
        return cls(params, ds.dim, *arrays, [], ds)

    @classmethod
    def build(cls, ds: Dataset, params):
        """Draw the coefficients of ``params``; hash ``ds`` into L tables (``_table_words``)."""
        index = cls.with_coefficients(ds, params)
        index.bucket_tables = [BucketTable.build(words) for words in index._table_words()]
        return index

    def _table_words(self):
        """Each table's contiguous (n, W) key words (a strided view sorts slower), hashed from ``values64``
        L' tables per ``_table_keys`` call with L' K <= max(K, d) axes: the key block exceeds ``values64``
        only if K > d."""
        group = max(self.params.K, self.dim) // self.params.K
        for lo in range(0, self.params.L, group):
            words = self._table_keys(self.dataset.values64, slice(lo, lo + group))
            yield from map(np.ascontiguousarray, words.swapaxes(0, 1))
            del words  # free this group's keys before the next group's call

    def _table_keys(self, values: np.ndarray, tables: slice = slice(None)) -> np.ndarray:
        """(n, L', W) key words of a batch of float32 values, held in float32
        or float64, in the L' tables ``tables`` selects: the words of
        ``project``'s values, bit for bit.

        A batch of BLAS_HASH_MIN_ROWS rows or more is hashed HASH_BLOCK_ROWS
        rows at a time: each block is cast to float64 and projected with one
        BLAS product P'. Its levels are only used where a margin M proves them
        equal to the levels of ``project``'s P; every row of the block with
        another entry is projected again with ``project``. Each block's levels
        are packed before the next block is read.

        **The margin.** u = eps / 2, gamma_n = n u / (1 - n u) (``distances.
        _gamma``), and gamma_n + u <= gamma_(n+1). Rows and axes hold float32
        values, so each float64 product or square of two coordinates is
        exact, and nothing over- or underflows. A sum of d such products in
        any order (einsum's, BLAS's, with or without FMA) is within
        gamma_d sum |v_i X_i| <= gamma_d |v| |X| of the exact dot product
        (Higham, Accuracy and Stability of Numerical Algorithms, sec. 3.1),
        so |P' - P| <= 2 gamma_d |v| |X|. A cached norm n_v (``Dataset.
        norms``, ``row_norms``: such a sum of squares, then a rounded square
        root) is at least (1 - gamma_(d+1)) |v|, and n_X likewise for |X|.
        c = ``_hash_margin(d)`` is 2 gamma_(3d+5) within two roundings and
        M = fl(n_v fl(c n_X)) adds two more, so M >= 2 gamma_(3d+5) (1 - u)^4
        (1 - gamma_(d+1))^2 |v| |X| >= 2 gamma_(3d+5) (1 - 2 gamma_(d+3))
        |v| |X|. Since gamma_(3d+5) > 3 gamma_d, and 1 - 2 gamma_(d+3) >= 1/3
        for any d with (d + 3) u <= 1/4, M >= 2 gamma_d |v| |X| >= |P' - P|:
        the margin is about three times the bound it has to meet.

        **The decision.** P' - M <= P <= P' + M, P is a float and rounding
        is monotone, so fl(P' - M) <= P <= fl(P' + M). Each level is a
        nondecreasing function of its projection (``+ b``, ``/ w`` and floor
        for real keys, ``>= 0`` for binary bits), so where the levels of
        fl(P' - M) and fl(P' + M) agree, P has that level too. The overflow
        check of real keys runs on the decided levels, so it raises exactly
        when it would on ``project``'s. Which rows are projected again can
        depend on the BLAS kernel and thread count; the keys cannot.
        """
        axes = self._axes64[tables].reshape(-1, self.dim)
        shape = (-1, len(axes) // self.params.K, self.params.K)
        if len(values) < BLAS_HASH_MIN_ROWS:
            exact = project(np.asarray(values, dtype=np.float64), axes)
            return self._pack(self._quantize(exact.reshape(shape), tables))
        norms = self.dataset.norms if values is self.dataset.values64 else row_norms(values)
        margins = self._margins[tables].reshape(-1)
        blocks = []
        for lo in range(0, len(values), HASH_BLOCK_ROWS):
            block = np.asarray(values[lo : lo + HASH_BLOCK_ROWS], dtype=np.float64)
            proj = block @ axes.T
            margin = norms[lo : lo + HASH_BLOCK_ROWS, None] * margins
            levels = self._quantize((proj - margin).reshape(shape), tables)
            undecided = np.flatnonzero(levels != self._quantize((proj + margin).reshape(shape), tables))
            rows = np.unique(undecided // len(axes))
            if len(rows):
                levels[rows] = self._quantize(project(block[rows], axes).reshape(shape), tables)
            blocks.append(self._pack(levels))
        return np.concatenate(blocks)

    def _prefix_tables(self, words: np.ndarray, Ks) -> dict[int, BucketTable]:
        """For each K in ``Ks``, the table that an index with K slots builds,
        from the (n, W) key words of one table of this index."""
        return {K: BucketTable.build(self._key_prefix(words, K)) for K in Ks}

    @property
    def tables(self) -> list[dict]:
        """``{key: [ids]}`` per table, built afresh from the bucket arrays on
        each access; buckets in first-appearance order."""
        return as_dicts(self.bucket_tables, self.dataset.ids, self._key_of)

    def _vector_key(self, table_index: int, vector):
        if not 0 <= table_index < self.params.L:
            raise ValueError(f"table_index {table_index} out of range for L={self.params.L}")
        qv = as_query(vector, self.dim).reshape(1, -1)
        return self._key_of(self._table_keys(qv, slice(table_index, table_index + 1))[0, 0].tolist())

    def _candidate_rows(self, qv: np.ndarray) -> tuple[np.ndarray, int]:
        """The distinct rows, ascending, in the L buckets of an ``as_query``
        vector, plus the multiset count of bucket members across tables."""
        gathered = gather(self.bucket_tables, self._table_keys(qv.reshape(1, -1))[0])
        return distinct(gathered), len(gathered)

    def candidates(self, q) -> tuple[np.ndarray, int]:
        """Deduplicated candidate ids for a query, ascending, plus the
        multiset count of bucket members across all L tables (the charged
        query cost)."""
        rows, multiset = self._candidate_rows(as_query(q, self.dim))
        return np.sort(self.dataset.ids[rows]), multiset

    def query(
        self, q, k: int = 10, metric: str = "cosine"
    ) -> tuple[list[tuple[int, float]], QueryStats]:
        """Rank the union of the query's L buckets; at most k results.

        Ties on distance break by ascending id. distance_computations counts
        bucket members with multiplicity across tables. The candidates are
        deduplicated and ranked as storage rows; ids are attached only to
        the rows that reach rank_top_k.
        """
        k = check_k(k)
        check_metric(metric)
        qv = as_query(q, self.dim)
        rows, multiset = self._candidate_rows(qv)
        stats = QueryStats(distance_computations=multiset, candidates_examined=len(rows))
        values = self.dataset.vectors[rows]
        keep = prefilter(values, self.dataset.norms[rows], qv, k, metric)
        dists = distances_to(values[keep], qv, metric)
        return rank_top_k(self.dataset.ids[rows[keep]], dists, k), stats


class RealLshIndex(LshIndex):
    """Projection index: one K-tuple of integer hashes as key per table."""

    kind = "real"
    stream = STREAM_REAL
    make_params = staticmethod(RealLshParams)  # (L, K, w, seed)
    _key_of = tuple
    # each family holds build, candidates and query as its own attributes,
    # so per-class instrumentation can wrap them
    build = LshIndex.__dict__["build"]
    candidates = LshIndex.candidates
    query = LshIndex.query

    def __init__(
        self,
        params: RealLshParams,
        dim: int,
        axes: np.ndarray,
        offsets: np.ndarray,
        tables: list[BucketTable],
        dataset: Dataset,
    ):
        super().__init__(params, dim, tables, dataset)
        self.axes = np.ascontiguousarray(axes, dtype=np.float32).reshape(params.L, params.K, dim)
        self.offsets = np.ascontiguousarray(offsets, dtype=np.float32).reshape(params.L, params.K)
        self.coefficients = (self.axes, self.offsets)
        self._set_axes(self.axes)
        self._offsets64 = self.offsets.astype(np.float64)

    @staticmethod
    def _draw(rng: np.random.Generator, dim: int, params: RealLshParams):
        """Axis X, then offset b: the order that fixes every seed's coefficients."""
        return rng.standard_normal(dim).astype(np.float32), np.float32(rng.uniform(0.0, params.w))

    def _quantize(self, proj: np.ndarray, tables: slice) -> np.ndarray:
        """A key is the K integer hashes floor((v . X + b) / w), here still
        float64."""
        return np.floor((proj + self._offsets64[tables]) / self.params.w)

    def _pack(self, levels: np.ndarray) -> np.ndarray:
        return _int64_keys(levels, self.params.w)

    @staticmethod
    def _key_prefix(words: np.ndarray, K: int) -> np.ndarray:
        """A K-slot key is the first K hashes of a longer one."""
        return words[..., :K]

    def projection(self, table_index: int, slot: int) -> ProjectionFunction:
        return ProjectionFunction(self.axes[table_index, slot], float(self.offsets[table_index, slot]))

    def bucket_key(self, table_index: int, vector) -> tuple[int, ...]:
        """The K-tuple key of ``vector`` under table ``table_index``."""
        return self._vector_key(table_index, vector)


def build_real_index(ds: Dataset, params: RealLshParams) -> RealLshIndex:
    return RealLshIndex.build(ds, params)
