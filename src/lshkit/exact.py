"""Index-free sequential scan: the accuracy ground truth and cost reference."""

from __future__ import annotations

from dataclasses import dataclass

from .dataset import Dataset
from .distances import as_query, check_k, distances_to, prefilter, rank_top_k


@dataclass(frozen=True)
class QueryStats:
    """Per-query cost accounting.

    distance_computations is the number of distance evaluations charged to
    the query (for LSH queries this counts bucket members with multiplicity
    across tables); candidates_examined is the deduplicated candidate count
    actually ranked. For an exact scan both equal the dataset size.
    """

    distance_computations: int
    candidates_examined: int

    def __post_init__(self):
        if self.candidates_examined > self.distance_computations:
            raise ValueError("candidates_examined cannot exceed distance_computations")


def knn_exact(
    ds: Dataset, q, k: int, metric: str = "cosine"
) -> tuple[list[tuple[int, float]], QueryStats]:
    """Exact top-k over all vectors, ties broken by ascending id.

    Always charges exactly n distance computations, although the kernel
    scores only the rows ``prefilter`` keeps.
    """
    k = check_k(k)
    qv = as_query(q, ds.dim)
    keep = prefilter(ds.vectors, ds.norms, qv, k, metric)
    dists = distances_to(ds.vectors[keep], qv, metric)
    results = rank_top_k(ds.ids[keep], dists, k)
    n = len(ds)
    return results, QueryStats(distance_computations=n, candidates_examined=n)
