"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines alongside pytest's own pass/fail report.
"""

import math
import time

import numpy as np

from lshkit import (
    BinaryLshParams,
    Dataset,
    RealLshParams,
    average_precision,
    build_binary_index,
    build_real_index,
    class_analysis,
    compute_bucket_stats,
    distractor_contamination,
    generate_synthetic,
    hyperplane_bit,
    improvement_in_efficiency,
    knn_exact,
    load_index,
    mean_average_precision,
    merge_datasets,
    parameter_sweep,
    pearson_correlation,
    run_config,
    save_index,
    select_queries,
    sweep_csv_text,
)

from helpers import oracle_average_precision, oracle_member_ap, oracle_ranking

TOL = 1e-12

TREND_DATASET = dict(num_classes=50, per_class=20, dim=64, cluster_std=0.3, seed=1234)
TREND_SEEDS = [0, 1, 2, 3, 4]


def random_labeled_dataset(n, dim, classes, seed):
    rng = np.random.default_rng(seed)
    return Dataset(
        dim,
        [f"c{i}" for i in range(classes)],
        np.arange(n),
        rng.integers(0, classes, n),
        rng.standard_normal((n, dim)).astype(np.float32),
    )


def test_c1_simhash_collision_law():
    """Bit agreement at angles {0, pi/4, pi/2} matches 1 - theta/pi."""
    start = time.perf_counter()
    dim = 4
    rng = np.random.default_rng(2024)
    planes = rng.standard_normal((10_000, dim))
    for theta, expected in ((0.0, 1.0), (math.pi / 4, 0.75), (math.pi / 2, 0.5)):
        u = np.array([1.0, 0.0, 0.0, 0.0])
        v = np.array([math.cos(theta), math.sin(theta), 0.0, 0.0])
        agree = np.mean([hyperplane_bit(r, u) == hyperplane_bit(r, v) for r in planes])
        assert abs(agree - expected) <= 0.02, f"theta={theta}: {agree} vs {expected}"
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    print(f"\nACCEPTANCE 1 PASS: collision law within +/-0.02 at all three angles ({elapsed:.2f}s)")


def test_c2_exact_scan_matches_brute_force_oracle():
    """200 random datasets, both metrics, every k from 1 to n."""
    start = time.perf_counter()
    rng = np.random.default_rng(4096)
    checked = 0
    for trial in range(200):
        n = int(rng.integers(2, 51))
        dim = int(rng.integers(1, 17))
        ds = random_labeled_dataset(n, dim, classes=3, seed=10_000 + trial)
        member = ds.get(int(rng.integers(0, n))).values
        external = rng.standard_normal(dim).astype(np.float32)
        for q in (member, external):
            for metric in ("cosine", "euclidean"):
                expected = oracle_ranking(ds, q, metric)
                for k in range(1, n + 1):
                    got, stats = knn_exact(ds, q, k=k, metric=metric)
                    assert [i for i, _ in got] == [i for i, _ in expected[:k]]
                    assert stats.distance_computations == n
                np.testing.assert_allclose(
                    [d for _, d in got], [d for _, d in expected], atol=1e-12
                )
                over, _ = knn_exact(ds, q, k=n + 5, metric=metric)
                assert [i for i, _ in over] == [i for i, _ in expected]
                checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    print(f"\nACCEPTANCE 2 PASS: {checked} (dataset, query, metric) cases, all k ({elapsed:.2f}s)")


def _trend_medians(ds, queries, kind, grid, fixed_l=None, fixed_k=None):
    """Median-over-seeds EvalReport fields along one swept parameter."""
    rows = []
    for value in grid:
        L = fixed_l if fixed_l is not None else value
        K = fixed_k if fixed_k is not None else value
        reports = [
            run_config(ds, queries, kind, L=L, K=K, seed=s, k=10)[0]
            for s in TREND_SEEDS
        ]
        rows.append(
            {
                "map": float(np.median([r.mean_ap for r in reports])),
                "ie": float(np.median([r.ie for r in reports])),
                "buckets": float(np.median([r.num_buckets for r in reports])),
                "purity": float(np.median([r.avg_purity for r in reports])),
            }
        )
    return rows


def test_c3_k_sweep_trends():
    """Fixed L=7, K in 1..5: IE, bucket count and purity rise; mAP falls."""
    start = time.perf_counter()
    ds = generate_synthetic(**TREND_DATASET)
    queries = select_queries(ds, seed=TREND_DATASET["seed"])
    rows = _trend_medians(ds, queries, "real", grid=[1, 2, 3, 4, 5], fixed_l=7)
    for prev, cur in zip(rows, rows[1:]):
        assert cur["ie"] >= prev["ie"], (prev, cur)
        assert cur["map"] <= prev["map"], (prev, cur)
        assert cur["buckets"] >= prev["buckets"], (prev, cur)
        assert cur["purity"] >= prev["purity"], (prev, cur)
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    print(f"\nACCEPTANCE 3 PASS: median IE/buckets/purity non-decreasing and mAP "
          f"non-increasing in K over 5 seeds ({elapsed:.2f}s)")


def test_c4_l_sweep_trends():
    """Fixed K=2, L in {1,3,5,7}: median mAP rises while median IE falls."""
    start = time.perf_counter()
    ds = generate_synthetic(**TREND_DATASET)
    queries = select_queries(ds, seed=TREND_DATASET["seed"])
    for kind in ("real", "binary"):
        rows = _trend_medians(ds, queries, kind, grid=[1, 3, 5, 7], fixed_k=2)
        for prev, cur in zip(rows, rows[1:]):
            assert cur["map"] >= prev["map"], (kind, prev, cur)
            assert cur["ie"] <= prev["ie"], (kind, prev, cur)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    print(f"\nACCEPTANCE 4 PASS: median mAP non-decreasing and IE non-increasing "
          f"in L for both index kinds ({elapsed:.2f}s)")


def test_c5_metric_unit_examples():
    """Hand-computable examples of the five metric operations, within 1e-12."""
    # average precision
    assert abs(average_precision([1, 99, 2], {1, 2}) - 5 / 6) < TOL
    assert average_precision([4, 2, 7], {2, 4, 7}) == 1.0
    assert average_precision([10, 11, 12], {1, 2}) == 0.0

    # mean average precision
    single = ([3, 1, 2], {2})
    assert abs(mean_average_precision([single]) - average_precision(*single)) < TOL
    assert abs(mean_average_precision([([1], {1}), ([2], {3})]) - 0.5) < TOL
    rng = np.random.default_rng(55)
    queries = []
    for _ in range(250):
        ranked = [int(i) for i in rng.permutation(40)[:20]]
        relevant = {int(i) for i in rng.choice(40, size=int(rng.integers(1, 10)), replace=False)}
        queries.append((ranked, relevant))
    oracle_mean = sum(oracle_average_precision(r, rel) for r, rel in queries) / len(queries)
    assert abs(mean_average_precision(queries) - oracle_mean) < TOL

    # improvement in efficiency
    assert abs(improvement_in_efficiency(20_000, 5_000) - 4.0) < TOL
    assert improvement_in_efficiency(7, 7) == 1.0
    assert improvement_in_efficiency(100, 217) < 1.0

    # bucket statistics
    stats = compute_bucket_stats([["a", "a", "b"], ["c"]])
    assert abs(stats.avg_purity - 5 / 6) < TOL
    pure = compute_bucket_stats([["a", "a"], ["b"]])
    assert pure.avg_purity == 1.0 and pure.std_purity == 0.0
    table = [[0, 0, 1], [2]]
    assert compute_bucket_stats(table + table).num_items == 8

    # pearson correlation
    assert abs(pearson_correlation([1.0, 2.0, 4.0], [1.0, 2.0, 4.0]) - 1.0) < TOL
    assert abs(pearson_correlation([1.0, 2.0, 4.0], [-1.0, -2.0, -4.0]) + 1.0) < TOL
    assert abs(pearson_correlation([1, 2, 3], [2, 4, 7]) - 15 / math.sqrt(228)) < TOL
    print("\nACCEPTANCE 5 PASS: AP/mAP/IE/bucket/pearson examples exact within 1e-12")


def test_c6_self_retrieval_everywhere():
    """1,000+ (index, indexed point) pairs: the point comes back at distance 0."""
    start = time.perf_counter()
    real_grid = [(1, 1), (3, 2), (5, 4), (2, 8)]
    binary_grid = [(1, 2), (3, 4), (5, 8), (2, 16)]
    pairs = 0
    for trial in range(10):
        ds = random_labeled_dataset(n=60, dim=8, classes=4, seed=500 + trial)
        indexes = [
            build_real_index(ds, RealLshParams(L=L, K=K, seed=trial)) for L, K in real_grid
        ] + [
            build_binary_index(ds, BinaryLshParams(L=L, K=K, seed=trial)) for L, K in binary_grid
        ]
        rng = np.random.default_rng(trial)
        for index in indexes:
            for vid in rng.choice(60, size=13, replace=False):
                vid = int(vid)
                metric = "cosine" if pairs % 2 == 0 else "euclidean"
                results, _ = index.query(ds.get(vid).values, k=5, metric=metric)
                assert (vid, 0.0) in results, (index.kind, vid)
                assert results[0][1] == 0.0
                pairs += 1
    assert pairs >= 1000
    elapsed = time.perf_counter() - start
    print(f"\nACCEPTANCE 6 PASS: {pairs} self-retrieval pairs at distance 0 ({elapsed:.2f}s)")


def test_c7_determinism_and_snapshot_round_trip(tmp_path):
    """Byte-identical sweeps under equal seeds; snapshots preserve queries."""
    ds = generate_synthetic(6, 10, 16, 0.3, seed=77)
    queries = select_queries(ds, seed=77)
    text_a = sweep_csv_text(parameter_sweep(ds, [1, 3], [1, 2], "real", query_ids=queries, seed=5))
    text_b = sweep_csv_text(parameter_sweep(ds, [1, 3], [1, 2], "real", query_ids=queries, seed=5))
    assert text_a.encode() == text_b.encode()

    rng = np.random.default_rng(9)
    for index in (
        build_real_index(ds, RealLshParams(L=3, K=2, seed=13)),
        build_binary_index(ds, BinaryLshParams(L=3, K=6, seed=13)),
    ):
        path = tmp_path / f"{index.kind}.idx"
        save_index(index, path)
        loaded = load_index(path, ds)
        for _ in range(100):
            q = rng.standard_normal(ds.dim).astype(np.float32)
            assert loaded.query(q, k=8) == index.query(q, k=8)
    print("\nACCEPTANCE 7 PASS: byte-identical sweep CSVs; 100-query round-trip "
          "equivalence for both snapshot kinds")


def test_c8_distractor_robustness():
    """Separated sources: exact contamination 0; LSH median <= 0.05."""
    std = 0.1
    a = generate_synthetic(5, 20, 16, std, seed=11)
    b_raw = generate_synthetic(5, 20, 16, std, seed=22)
    b = Dataset(b_raw.dim, b_raw.labels, b_raw.ids, b_raw.label_ids,
                b_raw.vectors + np.float32(4.0))
    merged = merge_datasets(a, b)

    # precondition: every cross-source centroid pair separated by >= 10 * std
    a_cents = [merged.vectors[(merged.sources == 0) & (merged.label_ids == c)].mean(axis=0)
               for c in range(5)]
    b_cents = [merged.vectors[merged.sources == 1][b_raw.label_ids == c].mean(axis=0)
               for c in range(5)]
    min_sep = min(np.linalg.norm(ac - bc) for ac in a_cents for bc in b_cents)
    assert min_sep >= 10 * std

    assert distractor_contamination(merged, k=10) == 0.0
    for kind, build in (
        ("real", lambda s: build_real_index(merged, RealLshParams(L=5, K=2, seed=s))),
        ("binary", lambda s: build_binary_index(merged, BinaryLshParams(L=5, K=8, seed=s))),
    ):
        values = [distractor_contamination(build(s), k=10) for s in TREND_SEEDS]
        assert float(np.median(values)) <= 0.05, (kind, values)
    print("\nACCEPTANCE 8 PASS: contamination 0.0 exact, median <= 0.05 for both LSH kinds")


def test_c9_class_analysis_consistency():
    """Aggregates recomputed from an independent per-query AP pass."""
    ds = generate_synthetic(6, 6, 8, 0.6, seed=33)
    reports = class_analysis(ds, "exact", k=10)
    assert len(reports) == 6
    for label_id, rep in enumerate(reports):
        members = [int(i) for i in ds.class_ids(label_id)]
        aps = {q: oracle_member_ap(ds, q, k=10, metric="cosine") for q in members}
        values = list(aps.values())
        assert rep.min_ap <= rep.mean_ap <= rep.max_ap
        assert abs(rep.range_ap - (rep.max_ap - rep.min_ap)) < TOL
        assert abs(rep.mean_ap - np.mean(values)) < TOL
        assert abs(rep.min_ap - min(values)) < TOL
        assert abs(rep.max_ap - max(values)) < TOL
        assert aps[rep.best_id] == max(values)
        assert aps[rep.worst_id] == min(values)
        assert rep.best_id == min(q for q in members if aps[q] == max(values))
        assert rep.worst_id == min(q for q in members if aps[q] == min(values))
    print("\nACCEPTANCE 9 PASS: per-class aggregates match the independent AP pass")
