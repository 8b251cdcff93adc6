"""Real-valued random-projection LSH, and the index core both families share.

Each of the L hash tables keys vectors by a K-tuple of integer hashes
floor((v . X + b) / w), with X drawn Gaussian(0,1) per coordinate and b
uniform in [0, w]. Similar vectors land in the same bucket of at least one
table with high probability; query time only ranks the union of the L
buckets the query hashes to. The core computes every v . X of both families
with :func:`project`; a family only quantizes the projections into keys.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import Dataset
from .distances import as_integer, as_query, check_k, check_metric, distances_to, prefilter, rank_top_k
from .exact import QueryStats
from .tables import BucketTable, as_dicts, distinct, gather, prefix_tables

_MASK64 = (1 << 64) - 1

# spawn-key stream tags, so the per-(table, slot) generators of the two
# index families never collide for the same master seed
STREAM_REAL = 0
STREAM_BINARY = 1

DEFAULT_WIDTH = 4.0


def child_rng(seed: int, *key: int) -> np.random.Generator:
    """Child generator for (seed, *key): PCG64 over SeedSequence(seed, spawn_key=key).

    Coefficients at (table t, slot j) depend only on (seed, t, j), never on
    L or K, so an index with more tables or longer keys reuses the smaller
    index's functions as a prefix.
    """
    return np.random.default_rng(
        np.random.SeedSequence(entropy=seed & _MASK64, spawn_key=key)
    )


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
    # einsum (not BLAS) keeps each row's accumulation independent of batch
    # size, so a vector hashes identically at build and at query time
    return np.einsum("nd,kd->nk", values64, axes64)


def _floor_keys(shifted: np.ndarray, w: float) -> np.ndarray:
    """Integer hashes floor(shifted / w); ValueError when one does not fit int64."""
    keys = np.floor(shifted / w)
    if not (keys.min() >= -(2.0**63) and keys.max() < 2.0**63):
        raise ValueError(f"a projection hash overflows int64: |v . X + b| / w reaches 2**63 (w={w})")
    return keys.astype(np.int64)


def projection_hash(vector, fn: ProjectionFunction, width: float) -> int:
    """floor((vector . X + b) / width), mathematical floor toward -inf."""
    v, axis = (np.asarray(a, dtype=np.float64).reshape(1, -1) for a in (vector, fn.X))
    return int(_floor_keys(project(v, axis) + fn.b, width)[0, 0])


class LshIndex:
    """An index of one hash family over a dataset: the family's coefficients
    plus L flat bucket tables. Frozen after build: concurrent readers, no
    mutation. A family supplies ``kind``, ``stream`` (its ``child_rng``
    spawn-key tag), ``make_params(L, K, w, seed)`` (its params),
    ``_draw(rng, dim, params)`` (one (table, slot)'s float32 coefficients,
    in snapshot order), ``coefficients`` (its coefficient arrays, in the
    order ``_draw`` and its constructor use), ``_axes64`` (its (L, K, d)
    float64 projection axes), ``_quantize`` ((n, L', K) projections onto L'
    tables' axes -> their (n, L', W) key words), ``_key_prefix`` (the key
    words of a shorter key) and ``_key_of`` (key words -> the key's Python form)."""

    kind: str

    def __init__(self, params, dim: int, tables: list[BucketTable], dataset: Dataset):
        self.params = params
        self.dim = dim
        self.bucket_tables = list(tables)
        self.dataset = dataset

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
        """Draw the coefficients of ``params`` and hash ``ds`` into L tables."""
        index = cls.with_coefficients(ds, params)
        words = index._table_keys(ds.values64)
        index.bucket_tables = [BucketTable.build(words[:, t]) for t in range(params.L)]
        return index

    def _table_keys(self, values64: np.ndarray, tables: slice = slice(None)) -> np.ndarray:
        """(n, L', W) key words of a float64 batch in the L' tables ``tables`` selects."""
        axes = self._axes64[tables]
        proj = project(values64, axes.reshape(-1, self.dim))
        return self._quantize(proj.reshape(-1, len(axes), self.params.K), tables)

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
        qv = as_query(vector, self.dim).astype(np.float64).reshape(1, -1)
        return self._key_of(self._table_keys(qv, slice(table_index, table_index + 1))[0, 0].tolist())

    def _candidate_rows(self, qv: np.ndarray) -> tuple[np.ndarray, int]:
        """The distinct rows, ascending, in the L buckets of an ``as_query``
        vector, plus the multiset count of bucket members across tables."""
        gathered = gather(self.bucket_tables, self._table_keys(qv.astype(np.float64).reshape(1, -1))[0])
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
        values = self.dataset.values64[rows]
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
        self._axes64 = self.axes.astype(np.float64)
        self._offsets64 = self.offsets.astype(np.float64)

    @staticmethod
    def _draw(rng: np.random.Generator, dim: int, params: RealLshParams):
        """Axis X, then offset b: the order that fixes every seed's coefficients."""
        return rng.standard_normal(dim).astype(np.float32), np.float32(rng.uniform(0.0, params.w))

    def _quantize(self, proj: np.ndarray, tables: slice) -> np.ndarray:
        """A key is the K integer hashes floor((v . X + b) / w)."""
        return _floor_keys(proj + self._offsets64[tables], self.params.w)

    @staticmethod
    def _key_prefix(words: np.ndarray, K: int) -> np.ndarray:
        """A K-slot key is the first K hashes of a longer one."""
        return words[..., :K]

    @staticmethod
    def _prefix_tables(words: np.ndarray, Ks) -> dict[int, BucketTable]:
        return dict(zip(Ks, prefix_tables(words, Ks)))

    def projection(self, table_index: int, slot: int) -> ProjectionFunction:
        return ProjectionFunction(self.axes[table_index, slot], float(self.offsets[table_index, slot]))

    def bucket_key(self, table_index: int, vector) -> tuple[int, ...]:
        """The K-tuple key of ``vector`` under table ``table_index``."""
        return self._vector_key(table_index, vector)


def build_real_index(ds: Dataset, params: RealLshParams) -> RealLshIndex:
    return RealLshIndex.build(ds, params)
