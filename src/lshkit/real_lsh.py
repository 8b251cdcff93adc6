"""Real-valued random-projection LSH, and the index core both families share.

Each of the L hash tables keys vectors by a K-tuple of integer hashes
floor((v . X + b) / w), with X drawn Gaussian(0,1) per coordinate and b
uniform in [0, w]. Similar vectors land in the same bucket of at least one
table with high probability; query time only ranks the union of the L
buckets the query hashes to. Every key of both families is a function of
the v . X that :func:`project` computes; a family only quantizes the
projections and packs them into key words. A large batch is projected with
one float32 BLAS product per block of rows instead, and then a float64 one
for the rows it leaves open; each only decides the keys that a proven margin
shows equal to ``project``'s (``LshIndex._table_keys``).
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .dataset import Dataset, child_rng
from .distances import (
    _U32, _gamma, _underflow_margin, as_integer, as_query, check_k, check_metric, distances_to, prefilter,
    rank_top_k, row_norms,
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
# there: one row onto 120 axes takes 12 us through project and 36 us through
# the two BLAS tiers, 64 rows onto 64-120 axes 1.3-2.6x longer through
# project (2-vCPU x86-64 VM, one BLAS thread)
BLAS_HASH_MIN_ROWS = 64
# rows per block of a BLAS tier of _table_keys: a block's float32 rows
# (384 KiB at d = 128), float32 BLAS product (360 KiB at 120 axes) and
# decision temporaries stay cache-sized; a 100k x 128, 120-axis call takes
# 86-91 ms at 768 and 1,024 rows, 86-97 at 512, 89-114 at 256, 93-98 at
# 2,048 and 97-131 at 4,096 (2-vCPU x86-64 VM, four calls each in a quiet
# phase)
HASH_BLOCK_ROWS = 768
# a BLAS tier of _table_keys over at least this many rows x axes splits its
# block loop into one contiguous run per usable CPU, each on its own thread
# (numpy releases the GIL in the BLAS product, the decision and the packing).
# On two CPUs a split call alone is faster from 0.5M entries up (0.65-0.84 of
# serial; 1.23 at 100k x 12 axes), but a benchmark process gains nothing
# below the gate and pays for the worker threads' malloc arenas: ungated, the
# sweep benchmark (20k x 24 build, 20k x 64 grid) read build_s +2-7%,
# peak_rss_mb +8-15% and setup_s up to twice the gated one. The serve
# benchmark's 100k x 120-axis build (12M entries) splits: build_s
# 0.154 -> 0.118 s (2-vCPU x86-64 VM, one BLAS thread)
THREAD_HASH_MIN_ENTRIES = 4_000_000


def _usable_cpus() -> int:
    """The CPUs this process may run on (its affinity mask), read per call."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity mask on this platform
        return os.cpu_count() or 1


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
    """c such that M = fl(fl(n_v fl(c max n_X)) + z), z = _underflow_margin(d),
    from the cached norms n_v of v and n_X of the axes X, bounds
    |float64 BLAS v . X - project's v . X|; derivation in LshIndex._table_keys."""
    return 2 * (_gamma(d) + _gamma(d))


def _hash_margin32(d: int) -> float:
    """c32 such that M = fl(fl(n_v fl(c32 max n_X)) + z), z = _underflow_margin(d),
    bounds |finite float32 BLAS v . X - project's v . X|; derivation in
    LshIndex._table_keys."""
    return 2 * (_gamma(d, _U32) + _gamma(d))


class LshIndex:
    """An index of one hash family over a dataset: the family's coefficients
    plus L flat bucket tables. Frozen after build: concurrent readers, no
    mutation. A family supplies ``kind``, ``stream`` (its ``child_rng``
    spawn-key tag), ``make_params(L, K, w, seed)`` (its params),
    ``_draw(rng, dim, params)`` (one (table, slot)'s float32 coefficients,
    in snapshot order), ``coefficients`` (its coefficient arrays, in the
    order ``_draw`` and its constructor use), ``_set_axes`` (a call with its
    float32 (L, K, d) projection axes), ``_quantize`` ((n, L', K)
    projections onto L' tables' axes -> one level per projection, each a
    nondecreasing function of its projection), ``_decide`` (float32 or
    float64 BLAS projections and their per-row margins -> levels, and where
    the margin proves them equal to ``project``'s), ``_pack`` ((n, L', K)
    levels -> their (n, L', W) key words), ``_key_prefix`` (the key words of
    a shorter key) and ``_key_of`` (key words -> the key's Python form)."""

    kind: str

    def __init__(self, params, dim: int, tables: list[BucketTable], dataset: Dataset):
        self.params = params
        self.dim = dim
        self.bucket_tables = list(tables)
        self.dataset = dataset

    def _set_axes(self, axes: np.ndarray) -> None:
        """Keep the float32 (L, K, d) projection axes, their float64 copy and
        each axis's norm, which scales both BLAS tiers' margins (``_table_keys``)."""
        self._axes32 = axes
        self._axes64 = axes.astype(np.float64)
        self._axis_norms = row_norms(self._axes64.reshape(-1, self.dim)).reshape(axes.shape[:2])

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
        """Each table's contiguous (n, W) key words (a strided view sorts slower), hashed from ``vectors``
        L' tables per ``_table_keys`` call with L' K <= max(K, d) axes: the key block exceeds twice
        ``vectors`` only if K > d."""
        group = max(self.params.K, self.dim) // self.params.K
        for lo in range(0, self.params.L, group):
            words = self._table_keys(self.dataset.vectors, slice(lo, lo + group))
            yield from map(np.ascontiguousarray, words.swapaxes(0, 1))
            del words  # free this group's keys before the next group's call

    def _table_keys(self, values: np.ndarray, tables: slice = slice(None)) -> np.ndarray:
        """(n, L', W) key words of a batch of float32 values, held in float32
        or float64, in the L' tables ``tables`` selects: the words of
        ``project``'s values, bit for bit.

        A batch of fewer than BLAS_HASH_MIN_ROWS rows is hashed with
        ``project``. A larger one goes through two BLAS tiers t
        (``_tier_keys``): the float32 tier hashes every row, the float64
        tier the rows it leaves open, once after its last block, and
        ``project`` the rows that tier leaves open. A tier casts each block
        of HASH_BLOCK_ROWS rows to its axes' type, projects it with one BLAS
        product P_t, and the family's ``_decide`` keeps the levels that a
        margin M proves equal to those of ``project``'s P; a row with
        another entry is packed with placeholder levels, which the next
        tier's keys replace. The margin assumes d <= 2^21, as
        ``distances.prefilter`` does.

        **The margin.** u = eps / 2, gamma_n = n u / (1 - n u)
        (``distances._gamma``), and gamma^(t)_n is gamma_n with tier t's
        unit roundoff: 2^-24 in float32 (gamma'_n), u in float64. Rows and
        axes hold float32 values. A sum of d products in any order (einsum's,
        BLAS's, with or without FMA) that neither overflow nor underflow is
        within gamma^(t)_d sum |v_i X_i| <= gamma^(t)_d |v| |X| of v . X
        (Higham, Accuracy and Stability of Numerical Algorithms, sec. 3.1).
        In float64 each product of two float32 values is exact, and nothing
        over- or underflows. In float32 an inf or NaN never turns finite
        again, so a finite P_32 had no overflow, and gradual underflow adds
        at most 2^-150 per rounding (``distances.prefilter``). So
        |P_t - P| <= (gamma^(t)_d + gamma_d) |v| |X| + Z_t wherever P_t is
        finite, with Z_64 = 0 and Z_32 = d 2^-150 (1 + gamma'_d).
        c_t (``_hash_margin32(d)``, ``_hash_margin(d)``) is 2 (gamma^(t)_d
        + gamma_d) within three roundings, C = fl(c_t max n_X) over the
        call's axes, z = ``_underflow_margin(d)`` = d 2^-149 is exact, and
        each row gets M = fl(fl(n_v C) + z). A cached norm n_v
        (``Dataset.norms``, ``row_norms``: a float64 sum of squares, then a
        rounded square root) is at least (1 - gamma_(d+1)) |v|, and n_X
        likewise for |X|. So M >= 2 (1 - u)^6 (1 - gamma_(d+1))^2
        (gamma^(t)_d + gamma_d) |v| |X| + (1 - u) z. For d <= 2^21,
        gamma'_d <= 1/7 and gamma_(d+1) < 2^-31, so 2 (1 - u)^6
        (1 - gamma_(d+1))^2 >= 1 and (1 - u) z >= Z_t: M >= |P_t - P|
        wherever P_t is finite. A non-finite P_32 decides nothing.

        **The decision.** P_t - M <= P <= P_t + M, P is a float64 and
        rounding is monotone, so fl(P_t - M) <= P <= fl(P_t + M). Each level
        is a nondecreasing function of its projection (``+ b``, ``/ w`` and
        floor for real keys, ``>= 0`` for binary bits), so where the levels
        of fl(P_t - M) and fl(P_t + M) agree, P has that level too. Real
        keys' ``_decide`` tests just that, and a difference of non-finite
        levels (inf - inf, NaN) is not zero, so it decides nothing there.
        Binary keys' ``_decide`` keeps the entries where m < |P_t| < inf, m
        being M rounded up to a float32: there P and P_t have the same
        nonzero sign, and the bit is P_t >= 0. The overflow check of real
        keys runs on the decided levels (and on the placeholder zeros, which
        fit), so it raises exactly when it would on ``project``'s. Which rows
        reach each tier can depend on the BLAS kernel and thread count; the
        keys cannot.

        **Threads.** A tier call of at least THREAD_HASH_MIN_ENTRIES rows x
        axes hashes its blocks on up to one thread per usable CPU
        (``_tier_keys``). Each row's decision and key are its own, so the
        keys, and the tables, snapshots and every output made from them, do
        not depend on the thread count. The BLAS thread count is not
        touched, and no option sets the split: a process whose CPU affinity
        allows one CPU (``taskset -c 0``) hashes serially.
        """
        axes = self._axes64[tables].reshape(-1, self.dim)
        if len(values) < BLAS_HASH_MIN_ROWS:
            return self._project_keys(values, axes, tables)
        norms = self.dataset.norms if values is self.dataset.vectors else row_norms(values)
        keys, rows = self._tier_keys(values, norms, self._axes32[tables].reshape(-1, self.dim), _hash_margin32, tables)
        if len(rows):
            keys[rows], again = self._tier_keys(values[rows], norms[rows], axes, _hash_margin, tables)
            if len(again):
                keys[rows[again]] = self._project_keys(values[rows[again]], axes, tables)
        return keys

    def _project_keys(self, values: np.ndarray, axes: np.ndarray, tables: slice) -> np.ndarray:
        """The key words of ``project``'s values on the float64 ``axes`` of ``tables``."""
        exact = project(np.asarray(values, dtype=np.float64), axes)
        return self._pack(self._quantize(exact.reshape(len(values), -1, self.params.K), tables))

    def _tier_keys(self, values: np.ndarray, norms: np.ndarray, axes: np.ndarray, factor, tables: slice):
        """One BLAS tier of ``_table_keys``: the key words of ``values`` (with
        norms ``norms``) on ``axes`` of ``tables``, decided behind the
        margin of ``factor``, with placeholders on the rows it leaves open,
        and those rows.

        A call of at least THREAD_HASH_MIN_ENTRIES rows x axes splits its
        blocks into one contiguous run per usable CPU (``_usable_cpus``), up
        to one run per block: the first on the calling thread, each other on
        a thread of a pool that is joined before the call returns. The runs'
        keys and open rows are joined in run order, and each row's decision
        is its own, so the result does not depend on the thread count. The
        BLAS thread count is not touched, and a process whose CPU affinity
        allows one CPU (``taskset -c 0``) hashes on the calling thread alone.
        A smaller call runs one loop over its blocks on the calling thread."""
        shape = (-1, len(axes) // self.params.K, self.params.K)
        scale = factor(self.dim) * self._axis_norms[tables].max()
        underflow = _underflow_margin(self.dim)

        def run(starts: range) -> list:
            """Each block's packed keys and open rows, for the blocks at ``starts``."""
            done = []
            for lo in starts:
                block = np.asarray(values[lo : lo + HASH_BLOCK_ROWS], dtype=axes.dtype)
                margin = norms[lo : lo + HASH_BLOCK_ROWS] * scale
                margin += underflow
                with np.errstate(all="ignore"):  # a non-finite projection decides nothing
                    levels, decided = self._decide((block @ axes.T).reshape(shape), margin[:, None, None], tables)
                rows = np.unique(np.flatnonzero(~decided) // len(axes))
                levels[rows] = 0  # packed as a placeholder; the next tier's keys replace it
                done.append((self._pack(levels), rows + lo))
            return done

        starts = range(0, len(values), HASH_BLOCK_ROWS)
        runs = min(_usable_cpus(), len(starts)) if len(values) * len(axes) >= THREAD_HASH_MIN_ENTRIES else 1
        if runs == 1:
            done = run(starts)
        else:
            parts = [starts[len(starts) * i // runs : len(starts) * (i + 1) // runs] for i in range(runs)]
            with ThreadPoolExecutor(runs - 1) as pool:
                others = [pool.submit(run, part) for part in parts[1:]]
                done = run(parts[0]) + [pair for other in others for pair in other.result()]
        blocks, open_rows = zip(*done)
        return np.concatenate(blocks), np.concatenate(open_rows)

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
        levels = proj + self._offsets64[tables]
        levels /= self.params.w
        return np.floor(levels, out=levels)

    def _decide(self, proj: np.ndarray, margin: np.ndarray, tables: slice):
        """The levels of proj - margin, and where those of proj + margin
        equal them (``_table_keys``); inf - inf and NaN levels differ."""
        levels = self._quantize(proj - margin, tables)
        high = self._quantize(proj + margin, tables)
        high -= levels
        return levels, high == 0

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
