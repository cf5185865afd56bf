"""Machine-readable bench reports (``BENCH_*.json``).

One report is a single JSON document with a versioned schema:

.. code-block:: text

    {
      "schema_version": 13,
      "created": "<ISO-8601 UTC timestamp>",
      "tag": "<free-form label, e.g. 'smoke'>",
      "config": { ...ExperimentConfig fields... },
      "workload": { ...WorkloadStats fields... },
      "cells": [ { model, device, scheme, recompute_ratio, metrics... } ],
      "comparisons": [ { model, device, cacheblend vs baselines... } ]
    }

Every field but ``created`` is a deterministic function of the config: the
report projects to the paper's architectures and holds no wall-clock
measurement.

:func:`validate_report` checks structural invariants so CI (and tests) can
fail fast when the schema drifts.
"""

from __future__ import annotations

import json
from dataclasses import asdict
from datetime import datetime, timezone
from pathlib import Path

from repro.bench.experiment import ExperimentReport

#: v2 added the per-cell ``mean_decode_tokens_per_s`` decode-throughput
#: column; v3 adds the store-capacity axis columns (``store_capacity_chunks``,
#: ``store_hit_rate``, ``store_bytes_stored``, ``store_slow_tier_hit_share``
#: — null when the sweep runs without the axis); v4 adds the robustness
#: columns: ``admission_policy``, ``goodput``, ``slo_attainment``,
#: ``rejection_rate``, ``preemption_count`` and the fault axis
#: (``fault_rate``, ``fault_recovered_chunks``, ``fault_ttft_inflation`` —
#: the inflation is null when faults are off); v5 adds the fleet axis
#: columns (``routing_policy``, ``n_replicas``, ``aggregate_throughput``,
#: ``per_replica_hit_rates``, ``fleet_hit_rate``, ``utilisation_skew`` —
#: null when the sweep runs without ``fleet_sizes``); v6 adds the KV
#: precision axis columns (``kv_dtype``, ``mean_kv_deviation``,
#: ``mean_attention_deviation`` — null when the sweep runs without
#: ``kv_dtypes``) and the ``dtype_*_vs_float16`` comparison rows; v7
#: ends every TTFT column at the first token (no decode step) and drops the
#: proxy block's per-request first-decode-step times and batch widths; v8
#: takes the capacity-axis store columns from the real inclusive tiered
#: store, lets every sweep axis compose (comparison rows name the composed
#: axes they belong to) and drops ``workload.cache.bytes_stored``; v9 serves
#: the proxy probe from a whole-chunk ``tiered`` store and drops the proxy
#: store block's ``logical_bytes`` (it equalled ``bytes_stored``); v10 drops
#: the cells' proxy-scaled measured service-time column and the proxy block's
#: ``calibration``: cells are projections the probe never changes; v11 drops
#: the scheduler choice and the load-overlap switch from the config block
#: (continuous batching with overlapped loads is the only scheduler) and
#: derives the ``dtype_*`` rows' ``bytes_density_gain`` from the dtypes' KV
#: bytes per token; v12 counts the proxy block's ``bytes_stored`` (in
#: ``cache`` and ``store``, per tier too) as the RPKV5 bytes the stores
#: hold, not element widths; v13 drops the ``proxy`` block: a sweep report
#: holds projections only (the profile harness times the real path).
SCHEMA_VERSION = 13

_REQUIRED_TOP_LEVEL = ("schema_version", "created", "tag", "config", "workload", "cells")
_REQUIRED_CELL_FIELDS = (
    "model",
    "device",
    "scheme",
    "recompute_ratio",
    "mean_ttft",
    "p50_ttft",
    "p90_ttft",
    "p99_ttft",
    "throughput",
    "mean_recomputed_fraction",
    "quality",
    "quality_adjusted_ttft",
    "mean_decode_tokens_per_s",
    "store_capacity_chunks",
    "store_hit_rate",
    "store_bytes_stored",
    "store_slow_tier_hit_share",
    "kv_dtype",
    "mean_kv_deviation",
    "mean_attention_deviation",
    "admission_policy",
    "goodput",
    "slo_attainment",
    "rejection_rate",
    "preemption_count",
    "fault_rate",
    "fault_recovered_chunks",
    "fault_ttft_inflation",
    "routing_policy",
    "n_replicas",
    "aggregate_throughput",
    "per_replica_hit_rates",
    "fleet_hit_rate",
    "utilisation_skew",
)


def report_to_dict(report: ExperimentReport, tag: str = "") -> dict[str, object]:
    """Serialise an :class:`ExperimentReport` into the schema above."""
    return {
        "schema_version": SCHEMA_VERSION,
        "created": datetime.now(timezone.utc).isoformat(),
        "tag": tag,
        "config": asdict(report.config),
        "workload": report.workload,
        "cells": [cell.as_dict() for cell in report.cells],
        "comparisons": report.comparisons,
    }


def validate_report(document: dict[str, object]) -> None:
    """Raise ``ValueError`` when *document* does not match the schema."""
    for key in _REQUIRED_TOP_LEVEL:
        if key not in document:
            raise ValueError(f"report is missing top-level key {key!r}")
    if document["schema_version"] != SCHEMA_VERSION:
        raise ValueError(
            f"unsupported schema_version {document['schema_version']!r}; "
            f"expected {SCHEMA_VERSION}"
        )
    cells = document["cells"]
    if not isinstance(cells, list) or not cells:
        raise ValueError("report must contain a non-empty 'cells' list")
    for i, cell in enumerate(cells):
        for key in _REQUIRED_CELL_FIELDS:
            if key not in cell:
                raise ValueError(f"cell {i} is missing field {key!r}")
        if not 0.0 <= cell["mean_recomputed_fraction"] <= 1.0:
            raise ValueError(f"cell {i} has an out-of-range recompute fraction")
        if cell["mean_ttft"] < 0.0:
            raise ValueError(f"cell {i} has a negative mean TTFT")
        if cell["mean_decode_tokens_per_s"] < 0.0:
            raise ValueError(f"cell {i} has a negative decode throughput")
        hit_rate = cell["store_hit_rate"]
        if hit_rate is not None and not 0.0 <= hit_rate <= 1.0:
            raise ValueError(f"cell {i} has an out-of-range store hit rate")
        kv_dtype = cell["kv_dtype"]
        if kv_dtype is not None:
            if cell["store_bytes_stored"] is None or cell["store_bytes_stored"] < 0:
                raise ValueError(
                    f"precision cell {i} needs non-negative store_bytes_stored"
                )
            deviation = cell["mean_kv_deviation"]
            if deviation is None or deviation < 0.0:
                raise ValueError(
                    f"precision cell {i} has an invalid mean KV deviation"
                )
        for fraction_key in ("slo_attainment", "rejection_rate"):
            if not 0.0 <= cell[fraction_key] <= 1.0:
                raise ValueError(f"cell {i} has an out-of-range {fraction_key}")
        if cell["goodput"] < 0.0:
            raise ValueError(f"cell {i} has a negative goodput")
        if cell["preemption_count"] < 0:
            raise ValueError(f"cell {i} has a negative preemption count")
        if not 0.0 <= cell["fault_rate"] <= 1.0:
            raise ValueError(f"cell {i} has an out-of-range fault rate")
        inflation = cell["fault_ttft_inflation"]
        if inflation is not None and inflation <= 0.0:
            raise ValueError(f"cell {i} has a non-positive fault TTFT inflation")
        routing = cell["routing_policy"]
        if routing is not None:
            n_replicas = cell["n_replicas"]
            if not isinstance(n_replicas, int) or n_replicas < 1:
                raise ValueError(f"fleet cell {i} needs n_replicas >= 1")
            per_replica = cell["per_replica_hit_rates"]
            if not isinstance(per_replica, list) or len(per_replica) != n_replicas:
                raise ValueError(
                    f"fleet cell {i} needs one per_replica_hit_rates entry per replica"
                )
            for rate in per_replica:
                if not 0.0 <= rate <= 1.0:
                    raise ValueError(
                        f"fleet cell {i} has an out-of-range per-replica hit rate"
                    )
            fleet_hit_rate = cell["fleet_hit_rate"]
            if fleet_hit_rate is None or not 0.0 <= fleet_hit_rate <= 1.0:
                raise ValueError(f"fleet cell {i} has an out-of-range fleet hit rate")
            skew = cell["utilisation_skew"]
            if skew is None or skew < 1.0 - 1e-9:
                raise ValueError(f"fleet cell {i} has a utilisation skew below 1")
            throughput = cell["aggregate_throughput"]
            if throughput is None or throughput < 0.0:
                raise ValueError(f"fleet cell {i} has a negative aggregate throughput")
    comparisons = document.get("comparisons", [])
    if not isinstance(comparisons, list):
        raise ValueError("'comparisons' must be a list")


def report_filename(tag: str = "") -> str:
    """``BENCH_<tag>_<UTC timestamp>.json`` (tag omitted when empty)."""
    stamp = datetime.now(timezone.utc).strftime("%Y%m%dT%H%M%SZ")
    middle = f"{tag}_" if tag else ""
    return f"BENCH_{middle}{stamp}.json"


def save_report(
    report: ExperimentReport, out_dir: str | Path = ".", tag: str = ""
) -> Path:
    """Serialise, validate and write the report; returns the written path."""
    document = report_to_dict(report, tag=tag)
    validate_report(document)
    out_path = Path(out_dir) / report_filename(tag)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
    return out_path


def _axes_label(row: dict[str, object], *keys: str) -> str:
    """``" [key=value, ...]"`` for the sweep axes *row* carries, else ``""``:
    with composed axes, otherwise identical summary lines stay apart."""
    parts = [f"{key}={row[key]}" for key in keys if key in row]
    return f" [{', '.join(parts)}]" if parts else ""


def format_summary(document: dict[str, object]) -> str:
    """Human-readable table of the comparisons, for CLI output."""
    lines = [
        f"bench report (tag={document['tag'] or '-'}, "
        f"{len(document['cells'])} cells, dataset={document['config']['dataset']})",
        f"{'model':<12} {'device':<10} {'blend ttft':>11} {'recomp ttft':>12} "
        f"{'reuse qa-ttft':>14} {'speedup':>8}",
    ]
    admission_rows = []
    routing_rows = []
    dtype_rows = []
    for row in document.get("comparisons", []):
        if row.get("comparison") == "admission_vs_none":
            admission_rows.append(row)
            continue
        if str(row.get("comparison", "")).startswith("routing_"):
            routing_rows.append(row)
            continue
        if str(row.get("comparison", "")).startswith("dtype_"):
            dtype_rows.append(row)
            continue
        lines.append(
            f"{row['model']:<12} {row['device']:<10} "
            f"{row['cacheblend_mean_ttft']:>11.3f} "
            f"{row.get('full_recompute_mean_ttft', float('nan')):>12.3f} "
            f"{row.get('full_reuse_quality_adjusted_ttft', float('nan')):>14.3f} "
            f"{row.get('speedup_vs_full_recompute', float('nan')):>7.2f}x"
            + _axes_label(
                row,
                "store_capacity_chunks",
                "kv_dtype",
                "routing_policy",
                "n_replicas",
                "admission_policy",
            )
        )
    for row in admission_rows:
        if row["scheme"] != "cacheblend":
            continue
        lines.append(
            f"admission ({row['model']}/{row['device']}): goodput "
            f"{row['goodput_none']:.3f} -> {row['goodput_slo']:.3f} req/s "
            f"({row['goodput_gain']:.2f}x), rejected "
            f"{row['rejection_rate'] * 100:.0f}%, "
            f"{row['preemption_count']} preemptions"
            + _axes_label(
                row, "store_capacity_chunks", "kv_dtype", "routing_policy", "n_replicas"
            )
        )
    for row in routing_rows:
        if row["scheme"] != "cacheblend":
            continue
        routing = str(row["comparison"]).removeprefix("routing_").removesuffix(
            "_vs_least_loaded"
        )
        lines.append(
            f"fleet x{row['n_replicas']} ({row['model']}/{row['device']}): "
            f"{routing} hit rate {row[f'fleet_hit_rate_{routing}']:.3f} vs "
            f"least_loaded {row['fleet_hit_rate_least_loaded']:.3f} "
            f"(gain {row['hit_rate_gain']:+.3f}), skew "
            f"{row[f'utilisation_skew_{routing}']:.2f} vs "
            f"{row['utilisation_skew_least_loaded']:.2f}, p99 TTFT "
            f"{row[f'p99_ttft_{routing}']:.3f}s vs "
            f"{row['p99_ttft_least_loaded']:.3f}s"
            + _axes_label(row, "store_capacity_chunks", "kv_dtype")
        )
    for row in dtype_rows:
        if row["scheme"] != "cacheblend":
            continue
        dtype = (
            str(row["comparison"]).removeprefix("dtype_").removesuffix("_vs_float16")
        )
        lines.append(
            f"precision ({row['model']}/{row['device']}): {dtype} stores "
            f"{row['bytes_density_gain']:.2f}x denser than float16 "
            f"({row[f'store_bytes_{dtype}'] / 1e9:.2f} vs "
            f"{row['store_bytes_float16'] / 1e9:.2f} GB), TTFT "
            f"{row[f'mean_ttft_{dtype}']:.3f}s vs {row['mean_ttft_float16']:.3f}s, "
            f"KV deviation {row[f'mean_kv_deviation_{dtype}']:.4f} vs "
            f"{row['mean_kv_deviation_float16']:.4f}"
            + _axes_label(row, "store_capacity_chunks", "routing_policy", "n_replicas")
        )
    return "\n".join(lines)
