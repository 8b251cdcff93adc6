"""The package's public names: what ``from lshkit import *`` binds."""

import types

import lshkit

EXPORTS = {
    "BinaryLshIndex", "BinaryLshParams", "BucketStats", "ClassReport", "DEFAULT_WIDTH", "Dataset",
    "DatasetFormatError", "EvalReport", "FeatureVector", "ProjectionFunction", "QueryOutcome", "QueryStats",
    "RealLshIndex", "RealLshParams", "SnapshotError", "average_precision", "best_tradeoff", "bucket_statistics",
    "build_binary_index", "build_real_index", "class_analysis", "class_metric_correlation",
    "class_reports_json_lines", "compute_bucket_stats", "dataset_fingerprint", "distractor_contamination",
    "evaluate_grid", "generate_synthetic", "hyperplane_bit", "improvement_in_efficiency", "knn_exact",
    "load_dataset", "load_index", "mean_average_precision", "merge_datasets", "parameter_sweep",
    "pearson_correlation", "projection_hash", "read_class_metric_csv", "run_config", "save_dataset", "save_index",
    "select_queries", "sweep_csv_text", "write_sweep_csv",
}


def test_star_import_binds_exactly_the_exports_and_no_submodule():
    namespace = {}
    exec("from lshkit import *", namespace)
    del namespace["__builtins__"]
    assert len(EXPORTS) == 45
    assert set(namespace) == EXPORTS
    assert len(lshkit.__all__) == len(EXPORTS)
    assert not any(isinstance(value, types.ModuleType) for value in namespace.values())
    assert all(namespace[name] is getattr(lshkit, name) for name in EXPORTS)


def test_submodules_stay_reachable_as_attributes():
    for name in ("binary_lsh", "dataset", "distances", "evaluation", "exact", "persistence", "real_lsh", "tables"):
        assert isinstance(getattr(lshkit, name), types.ModuleType)
        assert name not in lshkit.__all__
