"""Output checks: result digests, per-answer invariants, a numpy brute-force
oracle for the exact scan, and percentiles that refuse to report a tail
with fewer than ten samples beyond it."""

from __future__ import annotations

import hashlib
import math

import numpy as np

MIN_BEYOND = 10
# two rankings may order ids differently only where their distances tie
# within this tolerance (the oracle uses a BLAS dot, the library does not)
ORACLE_TOLERANCE = 1e-9


class Digest:
    """SHA-256 over answers: query id, ranked ids, float64 distances, QueryStats."""

    def __init__(self):
        self._h = hashlib.sha256()

    def add_answer(self, qid: int, results, stats) -> None:
        ids = np.array([rid for rid, _ in results], dtype="<i8")
        dists = np.array([d for _, d in results], dtype="<f8")
        self._h.update(np.array([qid, len(results), stats.distance_computations,
                                 stats.candidates_examined], dtype="<i8").tobytes())
        self._h.update(ids.tobytes())
        self._h.update(dists.tobytes())

    def hexdigest(self) -> str:
        return self._h.hexdigest()


def answer_problems(qid: int, results, stats) -> list[str]:
    """Invariants every answer to a member query must hold, for any seed."""
    problems = []
    keys = [(d, rid) for rid, d in results]
    if keys != sorted(keys):
        problems.append(f"query {qid}: results not sorted by (distance, id)")
    if (qid, 0.0) not in results:
        problems.append(f"query {qid}: member query did not find itself at distance 0.0")
    if stats.candidates_examined > stats.distance_computations:
        problems.append(f"query {qid}: candidates_examined > distance_computations")
    return problems


def brute_force_distances(vectors: np.ndarray, q: np.ndarray, metric: str) -> np.ndarray:
    """Plain numpy distances from q to every row, in float64."""
    m = vectors.astype(np.float64)
    q = q.astype(np.float64)
    if metric == "euclidean":
        return np.sqrt(((m - q) ** 2).sum(axis=1))
    norms = np.linalg.norm(m, axis=1)
    qnorm = np.linalg.norm(q)
    dists = np.ones(len(m))
    if qnorm > 0:
        ok = norms > 0
        dists[ok] = 1.0 - (m[ok] @ q) / (norms[ok] * qnorm)
    return dists


def oracle_problems(qid: int, results, vectors: np.ndarray, ids: np.ndarray, q, metric: str) -> list[str]:
    """Compare a top-k list against the brute-force ranking over the benchmark's
    own copy of the vectors; ``ids[r]`` is the id of row r."""
    dists = brute_force_distances(vectors, q, metric)
    order = np.lexsort((ids, dists))[: len(results)]
    row_of = {int(i): r for r, i in enumerate(ids)}
    problems = []
    for pos, ((rid, dist), want_row) in enumerate(zip(results, order)):
        got = dists[row_of[rid]]
        if abs(got - dist) > ORACLE_TOLERANCE or abs(got - dists[want_row]) > ORACLE_TOLERANCE:
            problems.append(
                f"query {qid}: rank {pos} is id {rid} at {dist!r}; "
                f"brute force has id {int(ids[want_row])} at {dists[want_row]!r}"
            )
    return problems


def percentile(values, p: float) -> tuple[float, int]:
    """Nearest-rank percentile and the number of samples beyond it.

    Raises ValueError when fewer than MIN_BEYOND samples lie beyond, so a
    tail is never reported from too few samples.
    """
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    beyond = len(ordered) - rank
    if beyond < MIN_BEYOND:
        raise ValueError(f"p{p:g} needs {MIN_BEYOND} samples beyond it; {len(ordered)} samples give {beyond}")
    return ordered[rank - 1], beyond
