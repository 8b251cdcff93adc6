"""LSH indexing and retrieval evaluation over labeled feature vectors.

Two index families (real-valued floor projections and binary random
hyperplanes), an exact sequential-scan baseline, dataset I/O and generation,
index snapshots, and the evaluation toolkit: average precision, efficiency
ratios, bucket statistics, parameter sweeps, per-class analysis, and
distractor robustness.
"""

from .binary_lsh import BinaryLshIndex, BinaryLshParams, build_binary_index, hyperplane_bit
from .dataset import (
    Dataset,
    DatasetFormatError,
    FeatureVector,
    generate_synthetic,
    load_dataset,
    merge_datasets,
    save_dataset,
)
from .evaluation import (
    BucketStats,
    ClassReport,
    EvalReport,
    QueryOutcome,
    average_precision,
    best_tradeoff,
    bucket_statistics,
    class_analysis,
    class_metric_correlation,
    class_reports_json_lines,
    compute_bucket_stats,
    distractor_contamination,
    evaluate_grid,
    improvement_in_efficiency,
    mean_average_precision,
    parameter_sweep,
    pearson_correlation,
    read_class_metric_csv,
    run_config,
    select_queries,
    sweep_csv_text,
    write_sweep_csv,
)
from .exact import QueryStats, knn_exact
from .persistence import SnapshotError, dataset_fingerprint, load_index, save_index
from .real_lsh import (
    DEFAULT_WIDTH,
    ProjectionFunction,
    RealLshIndex,
    RealLshParams,
    build_real_index,
    projection_hash,
)

__version__ = "0.1.0"

__all__ = [
    "BinaryLshIndex",
    "BinaryLshParams",
    "BucketStats",
    "ClassReport",
    "Dataset",
    "DatasetFormatError",
    "DEFAULT_WIDTH",
    "EvalReport",
    "FeatureVector",
    "ProjectionFunction",
    "QueryOutcome",
    "QueryStats",
    "RealLshIndex",
    "RealLshParams",
    "SnapshotError",
    "average_precision",
    "best_tradeoff",
    "bucket_statistics",
    "build_binary_index",
    "build_real_index",
    "class_analysis",
    "class_metric_correlation",
    "class_reports_json_lines",
    "compute_bucket_stats",
    "dataset_fingerprint",
    "distractor_contamination",
    "evaluate_grid",
    "generate_synthetic",
    "hyperplane_bit",
    "improvement_in_efficiency",
    "knn_exact",
    "load_dataset",
    "load_index",
    "mean_average_precision",
    "merge_datasets",
    "parameter_sweep",
    "pearson_correlation",
    "projection_hash",
    "read_class_metric_csv",
    "run_config",
    "save_dataset",
    "save_index",
    "select_queries",
    "sweep_csv_text",
    "write_sweep_csv",
]
