"""LSH indexing and retrieval evaluation over labeled feature vectors.

Two index families (real-valued floor projections and binary random
hyperplanes), an exact sequential-scan baseline, dataset I/O and generation,
index snapshots, and the evaluation toolkit: average precision, efficiency
ratios, bucket statistics, parameter sweeps, per-class analysis, and
distractor robustness.
"""

from types import ModuleType as _ModuleType

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

# every public name bound above, and no submodule
__all__ = [name for name, value in globals().items()
           if not name.startswith("_") and not isinstance(value, _ModuleType)]
