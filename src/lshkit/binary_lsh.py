"""Binary LSH over random hyperplanes (SimHash).

Each table keys vectors by a K-bit signature: bit j is 1 exactly when the
dot product with hyperplane j is >= 0 (the zero dot product hashes to 1).
For unit vectors at angle theta, two vectors agree on one bit with
probability 1 - theta/pi, so signatures approximate cosine locality.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import Dataset
# the query path lives in real_lsh.LshIndex; the kernels stay importable
# here for code that wraps this module's names
from .distances import as_query, distances_to, rank_top_k  # noqa: F401
from .real_lsh import STREAM_BINARY, LshIndex, RealLshIndex, check_params
from .tables import BucketTable

MAX_SIGNATURE_BITS = 64


@dataclass(frozen=True)
class BinaryLshParams:
    """L tables, K signature bits per key (K <= 64 so a key fits one word)."""

    L: int
    K: int
    seed: int = 0

    def __post_init__(self):
        check_params(self)
        if not 1 <= self.K <= MAX_SIGNATURE_BITS:
            raise ValueError(f"K must be in 1..{MAX_SIGNATURE_BITS}, got {self.K}")


def hyperplane_bit(hyperplane, vector) -> int:
    """1 if hyperplane . vector >= 0 else 0 (zero dot product hashes to 1)."""
    r = np.asarray(hyperplane, dtype=np.float64).reshape(1, -1)
    v = np.asarray(vector, dtype=np.float64).reshape(1, -1)
    dot = np.einsum("nd,kd->nk", v, r)[0, 0]
    return 1 if dot >= 0 else 0


class BinaryLshIndex(LshIndex):
    """SimHash index: one K-bit signature key per table."""

    kind = "binary"
    stream = STREAM_BINARY
    make_params = staticmethod(lambda L, K, w, seed: BinaryLshParams(L, K, seed))  # no width: w is ignored
    _key_of = staticmethod(lambda words: words[0])
    # own attributes, as in RealLshIndex
    build = LshIndex.__dict__["build"]
    candidates = LshIndex.candidates
    query = LshIndex.query

    def __init__(
        self,
        params: BinaryLshParams,
        dim: int,
        hyperplanes: np.ndarray,
        tables: list[BucketTable],
        dataset: Dataset,
    ):
        super().__init__(params, dim, tables, dataset)
        self.hyperplanes = np.ascontiguousarray(hyperplanes, dtype=np.float32).reshape(
            params.L, params.K, dim
        )
        self.coefficients = (self.hyperplanes,)
        self._planes64 = self.hyperplanes.astype(np.float64)
        # most-significant-first bit weights: slot 0 occupies the top bit
        self._weights = np.array([1 << (params.K - 1 - j) for j in range(params.K)], dtype=np.uint64)

    @staticmethod
    def _draw(rng: np.random.Generator, dim: int, params: BinaryLshParams):
        return (rng.standard_normal(dim).astype(np.float32),)

    def _table_keys(self, values64: np.ndarray, tables: slice = slice(None)) -> np.ndarray:
        """(n, L, 1) array of K-bit signatures for a float64 batch; ``tables``
        selects a range of the L tables."""
        planes = self._planes64[tables]
        proj = np.einsum("nd,kd->nk", values64, planes.reshape(-1, self.dim))
        bits = (proj >= 0).astype(np.uint64).reshape(-1, len(planes), self.params.K)
        return (bits * self._weights).sum(axis=2, dtype=np.uint64)[..., None]

    def _key_prefix(self, words: np.ndarray, K: int) -> np.ndarray:
        """A K-bit signature is the top K bits of a longer one."""
        return words >> np.uint64(self.params.K - K)

    def hyperplane(self, table_index: int, slot: int) -> np.ndarray:
        return self.hyperplanes[table_index, slot]

    def signature(self, table_index: int, vector) -> int:
        """K-bit signature of ``vector`` under table ``table_index``,
        packed most-significant-bit-first."""
        return self._vector_key(table_index, vector)


def build_binary_index(ds: Dataset, params: BinaryLshParams) -> BinaryLshIndex:
    return BinaryLshIndex.build(ds, params)


# every index kind -> its family, in snapshot kind-code order
FAMILIES = {family.kind: family for family in (RealLshIndex, BinaryLshIndex)}
