import csv
import hashlib
import io
import json
import math
import warnings

import numpy as np
import pytest

from lshkit import evaluation
from lshkit import (
    BinaryLshParams,
    Dataset,
    average_precision,
    best_tradeoff,
    bucket_statistics,
    build_binary_index,
    build_real_index,
    class_analysis,
    class_metric_correlation,
    class_reports_json_lines,
    compute_bucket_stats,
    distractor_contamination,
    generate_synthetic,
    improvement_in_efficiency,
    mean_average_precision,
    merge_datasets,
    parameter_sweep,
    pearson_correlation,
    read_class_metric_csv,
    run_config,
    select_queries,
    sweep_csv_text,
    RealLshParams,
)

from helpers import oracle_average_precision, oracle_member_ap

TOL = 1e-12


# ---------------------------------------------------------------------------
# average precision / mAP
# ---------------------------------------------------------------------------

def test_ap_relevant_nonrelevant_relevant():
    assert abs(average_precision([1, 99, 2], {1, 2}) - 5 / 6) < TOL


def test_ap_perfect_ranking():
    assert average_precision([4, 2, 7, 100, 101], {2, 4, 7}) == 1.0


def test_ap_nothing_retrieved():
    assert average_precision([10, 11, 12], {1, 2}) == 0.0


def test_ap_one_iff_relevant_fill_top_ranks():
    assert average_precision([2, 9, 4], {2, 4}) < 1.0
    assert average_precision([2, 4, 9], {2, 4}) == 1.0


def test_ap_empty_relevant_raises():
    with pytest.raises(ValueError, match="relevant"):
        average_precision([1, 2], set())


def test_ap_and_map_refuse_a_repeated_ranked_id():
    # counted once per occurrence, [1, 1] against {1} scored 2.0
    with pytest.raises(ValueError, match="ranked ids must be distinct, got 1 twice"):
        average_precision([1, 1], {1})
    with pytest.raises(ValueError, match="ranked ids must be distinct, got 5 twice"):
        mean_average_precision([([5, 5], [5])])
    with pytest.raises(ValueError, match="got 9 twice"):
        average_precision([2, 9, np.int64(9)], {2})


def test_ap_same_for_every_relevant_container():
    ranked = [5, 1, 9, 3, 7, 2]
    ids = [3, 9, 2, 8]
    containers = [ids, set(ids), frozenset(ids), np.array(ids), np.array(ids, dtype=np.int32)]
    values = [average_precision(ranked, rel) for rel in containers]
    assert values == [values[0]] * len(containers)
    assert abs(values[0] - oracle_average_precision(ranked, set(ids))) < TOL
    for empty in ([], set(), frozenset(), np.array([], dtype=np.int64)):
        with pytest.raises(ValueError, match="relevant"):
            average_precision(ranked, empty)


def test_map_single_query_is_its_ap():
    ranked, rel = [3, 1, 2], {2}
    assert mean_average_precision([(ranked, rel)]) == average_precision(ranked, rel)


def test_map_mean_of_two():
    queries = [([1, 2], {1, 2}), ([3, 4], {9})]
    assert abs(mean_average_precision(queries) - 0.5) < TOL


def test_map_matches_per_query_oracle():
    rng = np.random.default_rng(7)
    queries = []
    for _ in range(250):
        ranked = [int(i) for i in rng.permutation(40)[:20]]
        relevant = {int(i) for i in rng.choice(40, size=int(rng.integers(1, 10)), replace=False)}
        queries.append((ranked, relevant))
    expected = sum(oracle_average_precision(r, rel) for r, rel in queries) / 250
    assert abs(mean_average_precision(queries) - expected) < TOL


def test_map_empty_raises():
    with pytest.raises(ValueError):
        mean_average_precision([])


# ---------------------------------------------------------------------------
# improvement in efficiency
# ---------------------------------------------------------------------------

def test_ie_ratio():
    assert improvement_in_efficiency(20000, 5000) == 4.0


def test_ie_equal_costs():
    assert improvement_in_efficiency(123, 123) == 1.0


def test_ie_below_one_when_duplicates_dominate():
    assert improvement_in_efficiency(100, 217) < 1.0


def test_ie_zero_index_cost_raises():
    with pytest.raises(ValueError, match="accounting"):
        improvement_in_efficiency(100, 0)
    with pytest.raises(ValueError):
        improvement_in_efficiency(0, 100)


# ---------------------------------------------------------------------------
# bucket statistics
# ---------------------------------------------------------------------------

def test_bucket_stats_example():
    stats = compute_bucket_stats([["a", "a", "b"], ["c"]])
    assert abs(stats.avg_purity - 5 / 6) < TOL
    assert abs(stats.std_purity - 1 / 6) < TOL
    assert stats.num_buckets == 2
    assert stats.num_items == 4
    assert abs(stats.avg_per_bucket - 2.0) < TOL
    assert abs(stats.std_per_bucket - 1.0) < TOL


def test_bucket_stats_pure_buckets():
    stats = compute_bucket_stats([["a", "a"], ["b"], ["c", "c", "c"]])
    assert stats.avg_purity == 1.0
    assert stats.std_purity == 0.0


def test_bucket_stats_identical_tables_count_items_per_table():
    # two identical tables over n=4: items counted per table, so 8 total
    table = [[0, 0, 1], [2]]
    stats = compute_bucket_stats(table + table)
    assert stats.num_items == 8
    assert stats.num_buckets == 4


def test_bucket_stats_skips_empty_groups():
    stats = compute_bucket_stats([[], ["a"]])
    assert stats.num_buckets == 1


def test_bucket_statistics_of_index_counts_n_times_l():
    ds = generate_synthetic(4, 6, 8, 0.4, seed=3)
    for index in (
        build_real_index(ds, RealLshParams(L=3, K=2, seed=5)),
        build_binary_index(ds, BinaryLshParams(L=3, K=3, seed=5)),
    ):
        stats = bucket_statistics(index)
        assert stats.num_items == len(ds) * 3
        assert abs(stats.avg_per_bucket - stats.num_items / stats.num_buckets) < TOL
        assert 0.0 < stats.avg_purity <= 1.0


def test_bucket_statistics_matches_manual_recount():
    ds = generate_synthetic(3, 5, 6, 0.5, seed=9)
    index = build_real_index(ds, RealLshParams(L=2, K=1, seed=1))
    label_of = {int(i): int(l) for i, l in zip(ds.ids, ds.label_ids)}
    purities = []
    for table in index.tables:
        for bucket in table.values():
            counts = {}
            for vid in bucket:
                counts[label_of[vid]] = counts.get(label_of[vid], 0) + 1
            purities.append(max(counts.values()) / len(bucket))
    stats = bucket_statistics(index)
    assert abs(stats.avg_purity - np.mean(purities)) < TOL
    assert abs(stats.std_purity - np.std(purities)) < TOL


@pytest.mark.parametrize("kind", ["real", "binary"])
def test_bucket_statistics_equals_label_group_reference_exactly(kind):
    # buckets are pooled in first-appearance order, as the per-bucket
    # reference enumerates them, so even the float bits agree
    ds = generate_synthetic(6, 15, 8, 0.6, seed=12)
    for L, K in ((1, 1), (3, 2), (4, 6)):
        if kind == "real":
            index = build_real_index(ds, RealLshParams(L=L, K=K, w=2.0, seed=L + K))
        else:
            index = build_binary_index(ds, BinaryLshParams(L=L, K=K, seed=L + K))
        label_of = dict(zip(ds.ids.tolist(), ds.label_ids.tolist()))
        groups = [[label_of[i] for i in bucket] for table in index.tables for bucket in table.values()]
        assert bucket_statistics(index) == compute_bucket_stats(groups)


# ---------------------------------------------------------------------------
# pearson correlation
# ---------------------------------------------------------------------------

def test_pearson_perfect():
    assert abs(pearson_correlation([1.0, 2.0, 5.0], [1.0, 2.0, 5.0]) - 1.0) < TOL


def test_pearson_anticorrelation():
    assert abs(pearson_correlation([1.0, 2.0, 5.0], [-1.0, -2.0, -5.0]) + 1.0) < TOL


def test_pearson_hand_computed():
    expected = 15 / math.sqrt(228)
    assert abs(pearson_correlation([1, 2, 3], [2, 4, 7]) - expected) < TOL


def test_pearson_affine_invariance():
    rng = np.random.default_rng(11)
    xs = rng.standard_normal(30)
    ys = rng.standard_normal(30)
    r = pearson_correlation(xs, ys)
    assert abs(pearson_correlation(3.0 * xs + 7.0, ys) - r) < 1e-10
    assert abs(pearson_correlation(xs, 0.5 * ys - 2.0) - r) < 1e-10


def test_pearson_errors():
    with pytest.raises(ValueError, match="mismatch"):
        pearson_correlation([1, 2], [1, 2, 3])
    with pytest.raises(ValueError, match="at least 2"):
        pearson_correlation([1], [2])
    with pytest.raises(ValueError, match="constant"):
        pearson_correlation([1, 1, 1], [1, 2, 3])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_pearson_rejects_non_finite_input(bad):
    with pytest.raises(ValueError, match="non-finite"):
        pearson_correlation([1.0, bad, 3.0], [1.0, 2.0, 4.0])
    with pytest.raises(ValueError, match="non-finite"):
        pearson_correlation([1.0, 2.0, 4.0], [1.0, 2.0, bad])


@pytest.mark.parametrize("scale", [1e200, 1e-200])
def test_pearson_is_scale_free_at_extreme_magnitudes(scale):
    xs = [1 * scale, 2 * scale, 4 * scale]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert pearson_correlation(xs, [1, 2, 4]) == pytest.approx(1.0, abs=TOL)
        assert pearson_correlation([1, 2, 4], xs) == pytest.approx(1.0, abs=TOL)
        assert pearson_correlation(xs, [-1, -2, -4]) == pytest.approx(-1.0, abs=TOL)


# ---------------------------------------------------------------------------
# run_config
# ---------------------------------------------------------------------------

def test_baseline_has_ie_exactly_one():
    ds = generate_synthetic(4, 8, 8, 0.2, seed=1)
    queries = select_queries(ds, seed=2)
    report = run_config(ds, queries, "none")[0]
    assert report.ie == 1.0
    assert report.L == 0 and report.K == 0


def test_zero_std_exact_scan_gives_perfect_map():
    ds = generate_synthetic(4, 5, 8, 0.0, seed=6)
    queries = select_queries(ds, seed=3)
    report = run_config(ds, queries, "none", k=10)[0]
    assert report.mean_ap == 1.0


def test_query_excluded_from_its_own_accounting():
    # with std 0 every class member ties the query at distance 0; a leaked
    # self-match would steal a rank and push AP below 1
    ds = generate_synthetic(2, 4, 4, 0.0, seed=2)
    report = run_config(ds, [0, 4], "none", k=3)[0]
    assert report.mean_ap == 1.0


def test_lsh_report_consistency():
    ds = generate_synthetic(5, 8, 16, 0.2, seed=4)
    queries = select_queries(ds, seed=5)
    report, outcomes = run_config(ds, queries, "real", L=3, K=2, seed=8)
    assert report.num_items == len(ds) * 3
    assert len(outcomes) == len(queries)
    total_seq = sum(o.seq_cost for o in outcomes)
    total_charged = sum(o.charged_cost for o in outcomes)
    assert abs(report.ie - total_seq / total_charged) < TOL
    assert all(o.seq_cost == len(ds) for o in outcomes)
    assert all(o.charged_cost >= 1 for o in outcomes)


def test_evaluate_config_validation():
    ds = generate_synthetic(3, 4, 4, 0.1, seed=1)
    queries = select_queries(ds, seed=1)
    with pytest.raises(ValueError, match="index_kind"):
        run_config(ds, queries, "hnsw")[0]
    with pytest.raises(ValueError, match="non-empty"):
        run_config(ds, [], "none")[0]
    with pytest.raises(ValueError, match="required"):
        run_config(ds, queries, "real")[0]


def test_singleton_class_query_raises():
    vals = np.random.default_rng(0).standard_normal((3, 4)).astype(np.float32)
    ds = Dataset(4, ["a", "b"], np.arange(3), np.array([0, 0, 1]), vals)
    with pytest.raises(ValueError, match="no other member"):
        run_config(ds, [2], "none")[0]


# ---------------------------------------------------------------------------
# hold-out selection
# ---------------------------------------------------------------------------

def test_select_queries_one_per_class_deterministic():
    ds = generate_synthetic(6, 8, 8, 0.3, seed=10)
    qs = select_queries(ds, seed=42)
    assert qs == select_queries(ds, seed=42)
    assert len(qs) == 6
    labels = [ds.get(q).label_id for q in qs]
    assert sorted(labels) == list(range(6))


def test_select_queries_respects_fraction_and_count():
    ds = generate_synthetic(2, 20, 4, 0.3, seed=11)
    qs = select_queries(ds, seed=1, holdout_fraction=0.25, queries_per_class=5)
    assert len(qs) == 10


def test_select_queries_rejects_tiny_class():
    vals = np.random.default_rng(0).standard_normal((3, 4)).astype(np.float32)
    ds = Dataset(4, ["a", "b"], np.arange(3), np.array([0, 0, 1]), vals)
    with pytest.raises(ValueError, match="fewer than 2"):
        select_queries(ds, seed=0)


@pytest.mark.parametrize("count", [2.5, "2", None])
def test_select_queries_refuses_a_count_that_is_not_an_integer(count):
    ds = generate_synthetic(2, 20, 4, 0.3, seed=11)
    with pytest.raises(TypeError, match="queries_per_class must be an integer"):
        select_queries(ds, seed=1, queries_per_class=count)
    assert select_queries(ds, seed=1, queries_per_class=np.int64(2)) == select_queries(ds, 1, 0.25, 2)


# ---------------------------------------------------------------------------
# parameter sweep
# ---------------------------------------------------------------------------

def test_sweep_single_cell_equals_evaluate_config():
    ds = generate_synthetic(4, 6, 8, 0.3, seed=12)
    queries = select_queries(ds, seed=13)
    rows = parameter_sweep(ds, [3], [2], "real", query_ids=queries, seed=7)
    assert rows == [run_config(ds, queries, "real", L=3, K=2, seed=7)[0]]


def test_sweep_grid_order_and_reproducibility():
    ds = generate_synthetic(4, 6, 8, 0.3, seed=14)
    rows = parameter_sweep(ds, [1, 3], [1, 2], "binary", seed=9)
    assert [(r.L, r.K) for r in rows] == [(1, 1), (1, 2), (3, 1), (3, 2)]
    again = parameter_sweep(ds, [1, 3], [1, 2], "binary", seed=9)
    assert sweep_csv_text(rows) == sweep_csv_text(again)


def test_sweep_csv_header_and_parse():
    ds = generate_synthetic(3, 6, 8, 0.3, seed=15)
    rows = parameter_sweep(ds, [2], [1, 2], "real", seed=3)
    text = sweep_csv_text(rows)
    parsed = list(csv.reader(io.StringIO(text)))
    assert parsed[0] == [
        "L", "K", "mAP", "IE", "avg_purity", "std_purity",
        "num_buckets", "num_items", "avg_per_bucket", "std_per_bucket",
    ]
    assert len(parsed) == 3
    assert float(parsed[1][2]) == rows[0].mean_ap


def test_sweep_empty_grid_raises():
    ds = generate_synthetic(3, 6, 8, 0.3, seed=16)
    with pytest.raises(ValueError):
        parameter_sweep(ds, [], [1], "real", seed=1)


def test_sweep_refuses_the_exact_baseline():
    ds = generate_synthetic(3, 6, 8, 0.3, seed=16)
    with pytest.raises(ValueError, match="parameter_sweep needs an index kind"):
        parameter_sweep(ds, [1], [1], "none", seed=1)


@pytest.mark.parametrize("kind", ["real", "binary"])
def test_array_grids_equal_list_grids(kind):
    ds = generate_synthetic(4, 6, 8, 0.2, seed=12)
    queries = select_queries(ds, seed=4)
    listed = parameter_sweep(ds, [1, 2], [1, 3], kind, queries, seed=5)
    assert parameter_sweep(ds, np.array([1, 2]), np.array([1, 3]), kind, queries, seed=5) == listed
    assert evaluation.evaluate_grid(ds, queries, kind, np.array([2]), np.array([3]), seed=5) == (
        evaluation.evaluate_grid(ds, queries, kind, [2], [3], seed=5)
    )
    empty = np.array([], dtype=np.int64)
    for L_values, K_values in ((empty, [1]), ([1], empty)):
        with pytest.raises(ValueError, match="L_values and K_values must be non-empty"):
            parameter_sweep(ds, L_values, K_values, kind, queries)


def test_best_tradeoff_recomputed_from_emitted_csv():
    ds = generate_synthetic(5, 10, 16, 0.3, seed=17)
    rows = parameter_sweep(ds, [1, 3, 5], [1, 2, 3], "real", seed=21)
    target = 2.0
    chosen = best_tradeoff(rows, target)
    parsed = list(csv.reader(io.StringIO(sweep_csv_text(rows))))[1:]
    eligible = [(float(r[2]), float(r[3]), int(r[0]), int(r[1])) for r in parsed if float(r[3]) >= target]
    assert eligible, "sweep should produce at least one row above the target"
    best_map = max(m for m, _, _, _ in eligible)
    assert chosen.mean_ap == best_map
    assert chosen.ie >= target


def test_best_tradeoff_none_when_unreachable():
    ds = generate_synthetic(3, 6, 8, 0.3, seed=18)
    rows = parameter_sweep(ds, [1], [1], "real", seed=2)
    assert best_tradeoff(rows, 1e9) is None


# ---------------------------------------------------------------------------
# class analysis
# ---------------------------------------------------------------------------

def test_class_analysis_zero_variance_class():
    ds = generate_synthetic(3, 4, 6, 0.0, seed=19)
    reports = class_analysis(ds, "exact", k=10)
    assert len(reports) == 3
    for rep in reports:
        assert rep.mean_ap == 1.0
        assert rep.range_ap == 0.0
        assert rep.std_ap == 0.0


def test_class_analysis_order_statistics():
    ds = generate_synthetic(4, 6, 8, 0.6, seed=20)
    for rep in class_analysis(ds, "exact", k=10):
        assert rep.min_ap <= rep.mean_ap <= rep.max_ap
        assert abs(rep.range_ap - (rep.max_ap - rep.min_ap)) < TOL


def test_class_analysis_matches_per_query_oracle():
    ds = generate_synthetic(4, 6, 8, 0.6, seed=22)
    reports = class_analysis(ds, "exact", k=10)
    for label_id, rep in enumerate(reports):
        members = [int(i) for i in ds.class_ids(label_id)]
        aps = {q: oracle_member_ap(ds, q, k=10, metric="cosine") for q in members}
        values = list(aps.values())
        assert abs(rep.mean_ap - np.mean(values)) < TOL
        assert abs(rep.min_ap - min(values)) < TOL
        assert abs(rep.max_ap - max(values)) < TOL
        assert abs(rep.std_ap - np.std(values)) < TOL
        assert rep.best_id == min(q for q in members if aps[q] == max(values))
        assert rep.worst_id == min(q for q in members if aps[q] == min(values))


def test_class_analysis_with_lsh_backend():
    ds = generate_synthetic(4, 6, 8, 0.3, seed=23)
    index = build_binary_index(ds, BinaryLshParams(L=4, K=2, seed=5))
    reports = class_analysis(ds, index, k=10)
    assert len(reports) == 4
    assert all(0.0 <= r.mean_ap <= 1.0 for r in reports)


def test_class_analysis_query_subset():
    ds = generate_synthetic(3, 6, 8, 0.3, seed=24)
    subset = [int(ds.class_ids(0)[0]), int(ds.class_ids(2)[1])]
    reports = class_analysis(ds, "exact", k=10, query_ids=subset)
    assert [r.class_label for r in reports] == ["class_000", "class_002"]
    assert reports[0].best_id == subset[0]


def test_class_analysis_rejects_tiny_class():
    vals = np.random.default_rng(0).standard_normal((3, 4)).astype(np.float32)
    ds = Dataset(4, ["a", "b"], np.arange(3), np.array([0, 0, 1]), vals)
    with pytest.raises(ValueError, match="fewer than 2"):
        class_analysis(ds, "exact")


@pytest.mark.parametrize("query_ids", [[999], [0, 999]])
def test_class_analysis_rejects_unknown_query_ids(query_ids):
    ds = generate_synthetic(3, 6, 8, 0.3, seed=24)
    with pytest.raises(KeyError, match="no vector with id 999"):
        class_analysis(ds, "exact", k=10, query_ids=query_ids)


def test_class_analysis_rejects_index_over_another_dataset():
    ds = generate_synthetic(3, 6, 8, 0.3, seed=24)
    other = generate_synthetic(3, 5, 8, 0.3, seed=25)
    index = build_binary_index(other, BinaryLshParams(L=4, K=2, seed=5))
    with pytest.raises(ValueError, match="different dataset"):
        class_analysis(ds, index, k=10)


def test_class_reports_json_lines_round_trip():
    ds = generate_synthetic(3, 4, 6, 0.2, seed=25)
    reports = class_analysis(ds, "exact", k=10)
    lines = class_reports_json_lines(reports).strip().split("\n")
    assert len(lines) == 3
    first = json.loads(lines[0])
    assert first["class"] == "class_000"
    assert set(first) == {"class", "mAP", "min_ap", "max_ap", "range_ap", "std_ap", "best_id", "worst_id"}


# ---------------------------------------------------------------------------
# per-class metric files / correlation
# ---------------------------------------------------------------------------

def test_read_class_metric_csv(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("class,value\nboomerang,0.9\ndog,0.3\n")
    assert read_class_metric_csv(path) == {"boomerang": 0.9, "dog": 0.3}


def test_read_class_metric_csv_headerless(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("boomerang,0.9\ndog,0.3\n")
    assert read_class_metric_csv(path) == {"boomerang": 0.9, "dog": 0.3}


def test_read_class_metric_csv_errors(tmp_path):
    dup = tmp_path / "dup.csv"
    dup.write_text("a,1.0\na,2.0\n")
    with pytest.raises(ValueError, match="duplicate"):
        read_class_metric_csv(dup)
    bad = tmp_path / "bad.csv"
    bad.write_text("a,1.0\nb,oops\n")
    with pytest.raises(ValueError, match="malformed"):
        read_class_metric_csv(bad)


@pytest.mark.parametrize("raw", ["nan", "inf", "-inf", "NaN", "Infinity"])
def test_read_class_metric_csv_rejects_non_finite(tmp_path, raw):
    path = tmp_path / "m.csv"
    path.write_text(f"class,value\na,1.0\nb,{raw}\nc,3.0\n")
    with pytest.raises(ValueError, match=f"row 3: non-finite value '{raw}'"):
        read_class_metric_csv(path)


def test_class_metric_correlation_aligns_on_shared_classes():
    xs = {"a": 1.0, "b": 2.0, "c": 3.0, "only_x": 9.0}
    ys = {"a": 2.0, "b": 4.0, "c": 6.0, "only_y": -1.0}
    coeff, shared = class_metric_correlation(xs, ys)
    assert shared == 3
    assert abs(coeff - 1.0) < TOL
    with pytest.raises(ValueError, match="shared"):
        class_metric_correlation({"a": 1.0}, {"b": 2.0})


# ---------------------------------------------------------------------------
# distractor contamination
# ---------------------------------------------------------------------------

def _shifted(ds, delta):
    return Dataset(ds.dim, ds.labels, ds.ids, ds.label_ids, ds.vectors + np.float32(delta))


def test_contamination_zero_without_distractors():
    a = generate_synthetic(3, 5, 8, 0.1, seed=26)
    empty = Dataset(8, [], np.array([], dtype=np.int64), np.array([], dtype=np.int64),
                    np.zeros((0, 8), dtype=np.float32))
    merged = merge_datasets(a, empty)
    assert distractor_contamination(merged, k=5) == 0.0


def test_contamination_self_match_with_duplicate_distractor():
    a = generate_synthetic(2, 4, 8, 0.1, seed=27)
    dup = Dataset(8, ["copy"], np.array([0]), np.array([0]), a.vectors[:1].copy())
    merged = merge_datasets(a, dup)
    assert distractor_contamination(merged, k=3) > 0.0


def test_contamination_well_separated_sources():
    a = generate_synthetic(3, 8, 8, 0.1, seed=28)
    b = _shifted(generate_synthetic(3, 8, 8, 0.1, seed=29), 6.0)
    merged = merge_datasets(a, b)
    assert distractor_contamination(merged, k=5) == 0.0
    index = build_real_index(merged, RealLshParams(L=4, K=2, seed=31))
    assert distractor_contamination(index, k=5) <= 0.05


def test_contamination_refuses_a_merge_without_source_a_vectors():
    empty = Dataset(8, [], np.array([], dtype=np.int64), np.array([], dtype=np.int64),
                    np.zeros((0, 8), dtype=np.float32))
    merged = merge_datasets(empty, generate_synthetic(2, 4, 8, 0.1, seed=30))
    for backend in (merged, build_real_index(merged, RealLshParams(L=2, K=1, seed=3))):
        with pytest.raises(ValueError, match="no queries: the merged dataset has no source-a vectors"):
            distractor_contamination(backend, k=3)


def test_contamination_requires_source_flags():
    ds = generate_synthetic(2, 4, 8, 0.1, seed=30)
    with pytest.raises(ValueError, match="source"):
        distractor_contamination(ds, k=3)


# ---------------------------------------------------------------------------
# k < 1
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("k", [0, -1])
def test_non_positive_k_raises_naming_it(k):
    ds = generate_synthetic(3, 6, 8, 0.3, seed=40)
    queries = select_queries(ds, seed=40)
    message = f"k must be positive, got {k}$"
    index = build_real_index(ds, RealLshParams(L=2, K=1, seed=40))
    calls = [
        lambda: run_config(ds, queries, "none", k=k),
        lambda: run_config(ds, queries, "real", L=2, K=1, k=k),
        lambda: run_config(ds, queries, "binary", L=2, K=1, k=k),
        lambda: parameter_sweep(ds, [1], [1], "real", k=k),
        lambda: class_analysis(ds, "exact", k=k),
        lambda: class_analysis(ds, index, k=k),
        lambda: distractor_contamination(merge_datasets(ds, ds), k=k),
        lambda: distractor_contamination(build_real_index(merge_datasets(ds, ds), RealLshParams(1, 1)), k=k),
    ]
    for call in calls:
        with pytest.raises(ValueError, match=message):
            call()


def test_backend_spelled_for_another_function_raises_value_error():
    ds = generate_synthetic(3, 6, 8, 0.3, seed=24)
    for backend in (ds, "none", "real", None):
        with pytest.raises(ValueError, match="unknown backend"):
            class_analysis(ds, backend, k=3)
    for backend in ("exact", "none", None):
        with pytest.raises(ValueError, match="unknown backend"):
            distractor_contamination(backend, k=3)


@pytest.mark.parametrize("kind", ["none", "real", "binary"])
def test_array_query_ids_equal_list_query_ids(kind):
    ds = generate_synthetic(4, 6, 8, 0.2, seed=12)
    queries = select_queries(ds, seed=4, queries_per_class=2)
    lsh = {} if kind == "none" else {"L": 3, "K": 2}
    for ids in (queries, queries[:1]):
        listed = run_config(ds, ids, kind, **lsh)
        arrayed = run_config(ds, np.array(ids), kind, **lsh)
        assert arrayed == listed
        assert all(type(o.query_id) is int for o in arrayed[1])
    if kind != "none":
        assert parameter_sweep(ds, [1, 2], [1, 3], kind, np.array(queries)) == parameter_sweep(
            ds, [1, 2], [1, 3], kind, queries
        )


def test_empty_query_id_array_is_refused():
    ds = generate_synthetic(3, 4, 4, 0.1, seed=1)
    for kind in ("none", "real"):
        with pytest.raises(ValueError, match="held_out_queries must be non-empty"):
            run_config(ds, np.array([], dtype=np.int64), kind, L=1, K=1)
    with pytest.raises(ValueError, match="held_out_queries must be non-empty"):
        parameter_sweep(ds, [1], [1], query_ids=np.array([], dtype=np.int64))


def test_non_integral_query_ids_are_rejected():
    ds = generate_synthetic(3, 4, 4, 0.1, seed=1)
    for kind in ("none", "real"):
        with pytest.raises(TypeError, match="vector ids must be integers"):
            run_config(ds, [0, 2.5], kind, L=1, K=1)
    with pytest.raises(TypeError, match="vector ids must be integers"):
        class_analysis(ds, query_ids=[2.5])


def test_contamination_accepts_array_query_ids():
    a = generate_synthetic(3, 5, 8, 0.1, seed=26)
    b = _shifted(generate_synthetic(3, 5, 8, 0.1, seed=29), 0.5)
    merged = merge_datasets(a, b)
    ids = [0, 3, 7]
    assert distractor_contamination(merged, k=5, query_ids=np.array(ids)) == distractor_contamination(
        merged, k=5, query_ids=ids
    )


def test_contamination_resolves_every_query_id_before_searching(monkeypatch):
    a = generate_synthetic(3, 5, 8, 0.1, seed=26)
    merged = merge_datasets(a, _shifted(generate_synthetic(3, 5, 8, 0.1, seed=29), 0.5))
    calls = []
    scan = evaluation.knn_exact

    def counted(*args):
        calls.append(args)
        return scan(*args)

    monkeypatch.setattr(evaluation, "knn_exact", counted)
    with pytest.raises(KeyError, match="no vector with id 999"):
        distractor_contamination(merged, k=5, query_ids=[0, 999])
    assert calls == []
    distractor_contamination(merged, k=5, query_ids=[0])
    assert len(calls) == 1


@pytest.mark.parametrize("metric", ["cosine", "euclidean"])
def test_class_analysis_aps_are_the_exact_baseline_aps(metric):
    ds = generate_synthetic(4, 6, 8, 0.6, seed=22)
    ids = [int(i) for i in ds.ids[::-3]]
    _, outcomes = run_config(ds, ids, "none", k=5, metric=metric)
    by_class = {}
    for o in outcomes:
        by_class.setdefault(ds.label_of(o.query_id), {})[o.query_id] = o.ap
    reports = class_analysis(ds, "exact", k=5, metric=metric, query_ids=ids)
    assert [r.class_label for r in reports] == sorted(by_class)
    for rep in reports:
        aps = by_class[rep.class_label]
        values = np.array([aps[q] for q in sorted(aps)])
        assert rep.mean_ap == float(values.mean())
        assert rep.std_ap == float(values.std())
        assert (rep.min_ap, rep.max_ap) == (min(aps.values()), max(aps.values()))
        assert rep.best_id == min(q for q, ap in aps.items() if ap == rep.max_ap)
        assert rep.worst_id == min(q for q, ap in aps.items() if ap == rep.min_ap)


def test_class_analysis_refuses_empty_query_ids():
    ds = generate_synthetic(3, 4, 4, 0.1, seed=1)
    for ids in ([], np.array([], dtype=np.int64)):
        with pytest.raises(ValueError, match="query_ids must be non-empty"):
            class_analysis(ds, "exact", query_ids=ids)


def _evaluation_outputs(metric: str) -> str:
    """repr of every evaluation function's output on small fixed data, with
    the warnings they raise."""
    ds = generate_synthetic(4, 12, 10, 0.7, seed=5)
    queries = select_queries(ds, seed=1, queries_per_class=3)
    real = build_real_index(ds, RealLshParams(L=3, K=2, w=3.0, seed=2))
    binary = build_binary_index(ds, BinaryLshParams(L=3, K=5, seed=2))
    merged = merge_datasets(ds, generate_synthetic(3, 10, 10, 0.7, seed=6))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        outputs = [
            run_config(ds, queries, "none", k=5, metric=metric),
            run_config(ds, queries, "real", 3, 2, 3.0, 2, 5, metric),
            run_config(ds, queries, "binary", 3, 5, seed=2, k=5, metric=metric),
            evaluation.evaluate_grid(ds, queries, "real", [1, 3], [1, 2], 3.0, 2, 5, metric),
            evaluation.evaluate_grid(ds, queries, "binary", [1, 3], [3, 5], seed=2, k=5, metric=metric),
            evaluation.evaluate_grid(ds, queries, "real", [1, 2], [6], 0.3, 4, 5, metric),
            class_analysis(ds, "exact", 5, metric),
            class_analysis(ds, real, 5, metric, query_ids=queries[::-1]),
            class_analysis(ds, binary, 5, metric),
            distractor_contamination(merged, 5, metric),
            distractor_contamination(build_real_index(merged, RealLshParams(L=3, K=2, w=3.0, seed=3)), 5, metric),
            distractor_contamination(build_binary_index(merged, BinaryLshParams(L=3, K=5, seed=3)), 5, metric),
        ]
    return repr((outputs, [str(w.message) for w in caught]))


# sha256 of _evaluation_outputs(metric); any change to a report, outcome,
# class report, contamination value or warning fails
PINNED_EVALUATION_OUTPUTS = [
    ("cosine", "ba70685dd7db727e746687fe5a2944e76f1efddb4c10aae2f1e1e9627f1f94d4"),
    ("euclidean", "1915099689e1c85f936cd5275725a8e45293b35b5aed35d2b5a4f60e125fb27c"),
]


@pytest.mark.parametrize("metric, digest", PINNED_EVALUATION_OUTPUTS)
def test_evaluation_outputs_are_pinned(metric, digest):
    assert hashlib.sha256(_evaluation_outputs(metric).encode()).hexdigest() == digest


def test_contamination_refuses_empty_query_ids():
    merged = merge_datasets(generate_synthetic(2, 4, 8, 0.1, seed=27), generate_synthetic(2, 4, 8, 0.1, seed=28))
    for backend in (merged, build_real_index(merged, RealLshParams(L=2, K=1, seed=3))):
        for ids in ([], np.array([], dtype=np.int64)):
            with pytest.raises(ValueError, match="^query_ids must be non-empty$"):
                distractor_contamination(backend, k=3, query_ids=ids)
