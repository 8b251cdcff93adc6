"""The (L, K) grid engine behind parameter_sweep, run_config and `lshkit sweep`.

The reference is the per-cell path: build each cell's own index with
make_index, query it once per held-out query and count its buckets with
bucket_statistics. The engine must give ``==``-equal reports, outcomes and
warnings.
"""

import re
import warnings
from dataclasses import astuple

import numpy as np
import pytest

from lshkit import (
    Dataset,
    EvalReport,
    QueryOutcome,
    average_precision,
    bucket_statistics,
    evaluate_grid,
    generate_synthetic,
    improvement_in_efficiency,
    parameter_sweep,
    run_config,
    select_queries,
    sweep_csv_text,
)
from lshkit.binary_lsh import hyperplane_bit
from lshkit.distances import PREFILTER_MIN_ROWS, _score_bounds, distances_to, rank_top_k
from lshkit.evaluation import make_index
from lshkit.real_lsh import RealLshIndex, projection_hash
from lshkit.tables import BucketTable, prefix_tables


def per_cell_oracle(ds, query_ids, kind, L, K, w=4.0, seed=0, k=10, metric="cosine"):
    """(EvalReport, outcomes) of one cell from its own index."""
    index = make_index(kind, ds, L, K, w, seed)
    outcomes = []
    for qid in query_ids:
        fv = ds.get(qid)
        relevant = {int(i) for i in ds.class_ids(fv.label_id)} - {qid}
        results, stats = index.query(fv.values, k + 1, metric)
        ranked = [rid for rid, _ in results if rid != qid][:k]
        raw = stats.distance_computations
        outcomes.append(QueryOutcome(qid, average_precision(ranked, relevant), len(ds), raw,
                                     max(1, raw), stats.candidates_examined == 0))
    empty = sum(o.empty_candidates for o in outcomes)
    if empty:
        warnings.warn(
            f"{empty} of {len(outcomes)} queries hit an empty candidate set; each charged cost 1",
            RuntimeWarning,
        )
    ie = improvement_in_efficiency(len(ds) * len(outcomes), sum(o.charged_cost for o in outcomes))
    mean_ap = float(np.mean([o.ap for o in outcomes]))
    return EvalReport(L, K, mean_ap, ie, *astuple(bucket_statistics(index))), outcomes


def recorded(fn, *args, **kwargs):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = fn(*args, **kwargs)
    return result, [(w.category, str(w.message)) for w in caught]


def assert_matches_oracle(ds, query_ids, kind, L_values, K_values, **kw):
    oracle, oracle_warnings = recorded(
        lambda: [per_cell_oracle(ds, query_ids, kind, L, K, **kw) for L in L_values for K in K_values]
    )
    cells, cell_warnings = recorded(evaluate_grid, ds, query_ids, kind, L_values, K_values, **kw)
    assert cells == oracle
    assert cell_warnings == oracle_warnings
    rows, _ = recorded(parameter_sweep, ds, L_values, K_values, kind, query_ids=query_ids, **kw)
    assert rows == [report for report, _ in oracle]
    assert sweep_csv_text(rows) == sweep_csv_text([report for report, _ in oracle])
    return oracle_warnings


def clustered(num_classes, per_class, dim, seed, ids=None):
    ds = generate_synthetic(num_classes, per_class, dim, 0.6, seed=seed)
    if ids is None:
        return ds
    return Dataset(dim, ds.labels, ids, ds.label_ids, ds.vectors)


@pytest.mark.parametrize("kind", ["real", "binary"])
@pytest.mark.parametrize("metric", ["cosine", "euclidean"])
def test_grid_equals_per_cell_oracle(kind, metric):
    ds = clustered(6, 15, 16, seed=3)
    queries = select_queries(ds, seed=4, queries_per_class=3)
    K_values = [3, 1, 2] if kind == "real" else [6, 1, 3]
    assert_matches_oracle(ds, queries, kind, [2, 5, 1], K_values, seed=8, metric=metric)


@pytest.mark.parametrize("kind", ["real", "binary"])
def test_grid_with_repeated_values_equals_oracle(kind):
    ds = clustered(5, 12, 8, seed=5)
    queries = select_queries(ds, seed=5, queries_per_class=2)
    assert_matches_oracle(ds, queries, kind, [3, 1, 3], [2, 2, 1], seed=2, k=4)


@pytest.mark.parametrize("kind", ["real", "binary"])
@pytest.mark.parametrize("dim", [3, 129])
def test_grid_over_ids_that_are_not_rows(kind, dim):
    n = 40
    ids = np.random.default_rng(dim).permutation(n) * 7 + 11
    ds = clustered(4, 10, dim, seed=dim, ids=ids)
    queries = [int(ids[r]) for r in (0, 9, 13, 25, 39)]
    assert_matches_oracle(ds, queries, kind, [1, 4], [1, 2, 5], w=2.5, seed=dim, k=6)


def test_binary_grid_at_64_bits_equals_oracle():
    ds = clustered(4, 10, 24, seed=9)
    queries = select_queries(ds, seed=9, queries_per_class=2)
    assert_matches_oracle(ds, queries, "binary", [2, 1], [64, 1, 63, 32], seed=13)


def near_tie_shells(metric, shells=3, per_shell=50, far=100, dim=64, seed=12):
    """Per query: the query row, per_shell rows at one true distance from it
    that rounding alone orders, in alternating classes, and far rows around
    it. Cosine shells are exact float32 multiples of one integer vector next
    to the query; euclidean shells are the query plus coordinate
    permutations of one small offset, in float32 steps near 1000. Returns
    the dataset and the query ids."""
    rng = np.random.default_rng(seed)
    rows, labels, queries = [], [], []
    for _ in range(shells):
        if metric == "cosine":
            v = rng.integers(-1000, 1000, dim)
            q = v + 1e-3 * rng.standard_normal(dim)
            shell = np.outer(rng.choice(np.arange(1, 1000), per_shell, replace=False), v)
        else:
            step = 2.0**-14  # the float32 spacing in [512, 1024)
            q = 1000 + step * rng.integers(0, 2**14 * 20, dim)
            offset = step * rng.integers(-100, 100, dim)
            shell = q + np.array([rng.permutation(offset) for _ in range(per_shell)])
        spread = 300.0 if metric == "cosine" else 10.0
        queries.append(len(rows))
        rows += [q, *shell, *(q + spread * rng.standard_normal((far, dim)))]
        labels += [0, *(np.arange(per_shell) % 2), *rng.integers(0, 2, far)]
    ids = rng.permutation(len(rows)) * 3 + 1
    ds = Dataset(dim, ["a", "b"], ids, np.array(labels), np.array(rows, dtype=np.float32))
    return ds, [int(ids[row]) for row in queries]


@pytest.mark.parametrize("kind", ["real", "binary"])
@pytest.mark.parametrize("metric", ["cosine", "euclidean"])
@pytest.mark.parametrize("per_shell", [50, 3])
def test_grid_cut_keeps_every_near_tie(kind, metric, per_shell):
    """Each cell's candidates hold a shell of near ties to the query and far
    rows the BLAS bounds cut; with 3 shell rows the (k + 1)-th result is a
    far row. The grid equals the per-cell oracle, and each query's AP equals
    that of ranking every candidate by the kernel."""
    ds, queries = near_tie_shells(metric, per_shell=per_shell)
    w = 1e8 if metric == "cosine" else 400.0  # wide buckets: shells and far rows collide
    L_values, K_values, k = [1, 3], [1, 2], 5
    assert_matches_oracle(ds, queries, kind, L_values, K_values, w=w, seed=3, k=k, metric=metric)
    cells = evaluate_grid(ds, queries, kind, L_values, K_values, w=w, seed=3, k=k, metric=metric)
    candidates = kept = 0
    for (L, K), (_, outcomes) in zip([(L, K) for L in L_values for K in K_values], cells):
        index = make_index(kind, ds, L, K, w, seed=3)
        for qid, outcome in zip(queries, outcomes):
            fv = ds.get(qid)
            ids, _ = index.candidates(fv.values)
            rows = ds.rows_of(ids)
            ranked = rank_top_k(ids, distances_to(ds.vectors[rows], fv.values, metric), k + 1)
            relevant = {int(i) for i in ds.class_ids(fv.label_id)} - {qid}
            assert outcome.ap == average_precision([i for i, _ in ranked if i != qid][:k], relevant)
            assert len(rows) > 10 * (k + 1)
            if (L, K) == (max(L_values), min(K_values)):  # the query's candidate union
                assert len(rows) >= PREFILTER_MIN_ROWS
            # the grid cuts the cell with these bounds, scored over the union
            lower, upper = _score_bounds(ds.vectors[rows], ds.norms[rows], fv.values, metric)
            candidates += len(rows)
            kept += np.count_nonzero(lower <= np.partition(upper, k)[k])
    assert kept < candidates / 2


def test_empty_candidate_cells_warn_like_the_oracle(monkeypatch):
    """Query keys of table 0 moved off every bucket: cells with L=1 find no
    candidates, the others still do."""
    table_keys = RealLshIndex._table_keys

    def shifted(self, values64, tables=slice(None)):
        keys = table_keys(self, values64, tables)
        if len(values64) < len(self.dataset):
            keys[:, 0] += 10**9
        return keys

    monkeypatch.setattr(RealLshIndex, "_table_keys", shifted)
    ds = clustered(4, 10, 8, seed=1)
    queries = select_queries(ds, seed=1, queries_per_class=2)
    caught = assert_matches_oracle(ds, queries, "real", [1, 2, 1], [1, 2], seed=1)
    message = f"{len(queries)} of {len(queries)} queries hit an empty candidate set; each charged cost 1"
    assert caught == [(RuntimeWarning, message)] * 4


def test_run_config_is_the_one_cell_grid():
    ds = clustered(5, 10, 12, seed=2)
    queries = select_queries(ds, seed=2)
    for kind in ("real", "binary"):
        assert run_config(ds, queries, kind, L=3, K=2, seed=6, k=5) == per_cell_oracle(
            ds, queries, kind, 3, 2, seed=6, k=5
        )


@pytest.mark.parametrize(
    "kind, L_values, K_values, message",
    [
        ("real", [0], [1], "L must be >= 1, got 0"),
        ("real", [2, -1], [1], "L must be >= 1, got -1"),
        ("real", [1], [2, 0], "K must be >= 1, got 0"),
        ("binary", [1], [0], "K must be in 1..64, got 0"),
        ("binary", [1, 2], [3, 65], "K must be in 1..64, got 65"),
    ],
)
def test_invalid_grid_raises_as_per_cell(kind, L_values, K_values, message):
    ds = clustered(3, 6, 8, seed=4)
    queries = select_queries(ds, seed=4)
    with pytest.raises(ValueError, match=re.escape(message)):
        per_cell_oracle(ds, queries, kind, L_values[-1], K_values[-1])
    with pytest.raises(ValueError, match=re.escape(message)):
        parameter_sweep(ds, L_values, K_values, kind, query_ids=queries)
    with pytest.raises(ValueError, match=re.escape(message)):
        evaluate_grid(ds, queries, kind, L_values, K_values)


def test_invalid_width_and_empty_queries_raise():
    ds = clustered(3, 6, 8, seed=4)
    with pytest.raises(ValueError, match="w must be positive and finite, got 0"):
        parameter_sweep(ds, [1], [1], "real", w=0.0)
    with pytest.raises(ValueError, match="held_out_queries must be non-empty"):
        parameter_sweep(ds, [1], [1], "real", query_ids=[])
    with pytest.raises(ValueError, match="held_out_queries must be non-empty"):
        evaluate_grid(ds, [], "binary", [1], [1])


@pytest.mark.parametrize("kind", ["real", "binary"])
@pytest.mark.parametrize("dim", [3, 8, 128, 129])
def test_smaller_cells_hash_to_key_prefixes(kind, dim):
    """Every (L, K) index hashes to the K-prefix (real) or shifted signature
    (binary) of the (Lmax, Kmax) keys, bit for bit, whatever the batch or
    table range."""
    rng = np.random.default_rng(dim)
    ds = Dataset(dim, ["a"], np.arange(60), np.zeros(60), rng.standard_normal((60, dim)) * 3)
    Lmax, Kmax = 3, 7
    top = make_index(kind, ds, Lmax, Kmax, w=2.0, seed=dim)
    values = ds.values64
    full = top._table_keys(values)
    for t in range(Lmax):
        assert np.array_equal(top._table_keys(values, slice(t, t + 1))[:, 0], full[:, t])
    for batch in (1, 7, 59):
        assert np.array_equal(top._table_keys(values[:batch]), full[:batch])
    for L in range(1, Lmax + 1):
        for K in range(1, Kmax + 1):
            keys = make_index(kind, ds, L, K, w=2.0, seed=dim)._table_keys(values)
            if kind == "real":
                expected = full[:, :L, :K]
            else:
                expected = full[:, :L] >> np.uint64(Kmax - K)
            assert keys.dtype == full.dtype
            assert np.array_equal(keys, expected)
            assert np.array_equal(top._key_prefix(full[:, :L], K), expected)


def test_prefix_tables_equal_built_tables():
    rng = np.random.default_rng(0)
    for n in (1, 2, 50, 500):
        for width in (1, 2, 4):
            words = rng.integers(-4, 4, size=(n, width)) * rng.choice([1, 2**40, -(2**62)], size=width)
            widths = list(range(width, 0, -1))
            for w, table in zip(widths, prefix_tables(words, widths)):
                built = BucketTable.build(words[:, :w])
                for name in ("words", "offsets", "rows"):
                    got, want = getattr(table, name), getattr(built, name)
                    assert got.dtype == want.dtype and np.array_equal(got, want), (n, width, w, name)


@pytest.mark.parametrize("kind", ["real", "binary"])
def test_family_prefix_tables_equal_built_tables(kind):
    ds = clustered(4, 10, 8, seed=6)
    top = make_index(kind, ds, 2, 9, w=1.0, seed=6)
    for t in range(2):
        words = top._table_keys(ds.values64, slice(t, t + 1))[:, 0]
        for K, table in top._prefix_tables(words, [1, 4, 9]).items():
            built = make_index(kind, ds, t + 1, K, w=1.0, seed=6).bucket_tables[t]
            for name in ("words", "offsets", "rows"):
                assert np.array_equal(getattr(table, name), getattr(built, name))


def test_table_buckets_match_single_lookups():
    ds = clustered(4, 10, 8, seed=7)
    index = make_index("real", ds, 1, 2, seed=7)
    table = index.bucket_tables[0]
    probes = np.concatenate([table.words[::2], [[10**6, -(10**6)]]])
    rows, bounds = table.buckets(probes)
    assert bounds[0] == 0 and bounds[-1] == len(rows)
    for i, key in enumerate(probes):
        expected = table.bucket(np.ascontiguousarray(key).view(table.keys.dtype)[0])
        assert np.array_equal(rows[bounds[i] : bounds[i + 1]], expected)


@pytest.mark.parametrize("seed", [0, -5, 2**63 - 1])
def test_table_keys_equal_per_slot_hashes(seed):
    """Both families' key words are their slots' scalar hashes: the K
    projection hashes (real) or the K hyperplane bits, first slot in the top
    bit (binary)."""
    ds = clustered(3, 4, 5, seed=3)
    L, K = 3, 4
    real = make_index("real", ds, L, K, w=0.5, seed=seed)
    binary = make_index("binary", ds, L, K, seed=seed)
    real_keys, binary_keys = real._table_keys(ds.values64), binary._table_keys(ds.values64)
    assert real_keys.shape == (len(ds), L, K) and binary_keys.shape == (len(ds), L, 1)
    for row, v in enumerate(ds.vectors):
        for t in range(L):
            hashes = [projection_hash(v, real.projection(t, j), 0.5) for j in range(K)]
            bits = "".join(str(hyperplane_bit(binary.hyperplane(t, j), v)) for j in range(K))
            assert real_keys[row, t].tolist() == hashes == list(real.bucket_key(t, v))
            assert int(binary_keys[row, t, 0]) == int(bits, 2) == binary.signature(t, v)
