"""Workload synthesis, projection sweeps and the profile harness.

This package generates paper-style RAG request streams
(:mod:`repro.bench.workload`), sweeps serving schemes over models, storage
devices and recompute ratios (:mod:`repro.bench.experiment`) and writes
machine-readable ``BENCH_*.json`` reports (:mod:`repro.bench.report`).  A
sweep report holds deterministic projections only; ``--profile``
(:mod:`repro.bench.profile`) times the real code's ops.  ``python -m
repro.bench --smoke`` runs the CI-sized sweep.
"""

from repro.bench.experiment import (
    QUALITY_SCORES,
    CellResult,
    ExperimentConfig,
    ExperimentReport,
    ExperimentRunner,
    build_comparisons,
)
from repro.bench.report import (
    SCHEMA_VERSION,
    format_summary,
    report_to_dict,
    save_report,
    validate_report,
)
from repro.bench.workload import (
    DATASET_PRESETS,
    DatasetSpec,
    WorkloadGenerator,
    WorkloadStats,
    get_dataset,
)

__all__ = [
    "QUALITY_SCORES",
    "CellResult",
    "ExperimentConfig",
    "ExperimentReport",
    "ExperimentRunner",
    "build_comparisons",
    "SCHEMA_VERSION",
    "format_summary",
    "report_to_dict",
    "save_report",
    "validate_report",
    "DATASET_PRESETS",
    "DatasetSpec",
    "WorkloadGenerator",
    "WorkloadStats",
    "get_dataset",
]
