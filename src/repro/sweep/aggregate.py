"""Deterministic aggregation of shard results into sweep outputs.

The summary merges shard records in the spec's fixed expansion order and
serializes with sorted keys, so for a given spec and code version the
``sweep_summary.json`` bytes are identical no matter how the shards were
scheduled, cached, or resumed.  Per-metric CSV tables reduce each metric
across seeds (mean/min/max per grid point) for spreadsheet/plotting
consumption.
"""

from __future__ import annotations

import json
import re
from pathlib import Path
from typing import Any, Mapping, Sequence

from repro.sweep.spec import SweepSpec

#: Summary document format version.
SUMMARY_FORMAT = 1


def build_summary(
    spec: SweepSpec,
    records: Sequence[Mapping[str, Any]],
    *,
    code: str,
) -> dict[str, Any]:
    """Combine shard records (in expansion order) into the summary doc."""
    return {
        "format": SUMMARY_FORMAT,
        "name": spec.name,
        "spec": spec.to_json_dict(),
        "spec_hash": spec.spec_hash(),
        "code_version": code,
        "num_shards": len(records),
        "shards": [
            {
                "id": record["id"],
                "group": record["group"],
                "params": record["params"],
                "topology_fingerprint": record["topology_fingerprint"],
                "metrics": record["metrics"],
            }
            for record in records
        ],
        "aggregates": _aggregate_metrics(records),
    }


def _aggregate_metrics(
    records: Sequence[Mapping[str, Any]],
) -> dict[str, dict[str, dict[str, Any]]]:
    """metric → grid point (group id) → mean/min/max/count across seeds."""
    samples: dict[str, dict[str, list[float]]] = {}
    for record in records:
        group = record["group"]
        for metric, value in record["metrics"].items():
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                continue  # None (undefined metric) stays out of the reduction
            samples.setdefault(metric, {}).setdefault(group, []).append(float(value))
    aggregates: dict[str, dict[str, dict[str, Any]]] = {}
    for metric in sorted(samples):
        aggregates[metric] = {}
        for group in sorted(samples[metric]):
            values = samples[metric][group]
            aggregates[metric][group] = {
                "count": len(values),
                "mean": sum(values) / len(values),
                "min": min(values),
                "max": max(values),
            }
    return aggregates


def summary_text(summary: Mapping[str, Any]) -> str:
    """The canonical byte-reproducible serialization of a summary."""
    return json.dumps(summary, indent=2, sort_keys=True) + "\n"


def _csv_cell(value: Any) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def metric_table_name(metric: str) -> str:
    """Filesystem-safe CSV file name for one metric."""
    return re.sub(r"[^A-Za-z0-9_.-]", "_", metric) + ".csv"


def write_outputs(summary: Mapping[str, Any], out_dir: str | Path) -> dict[str, Path]:
    """Write ``sweep_summary.json`` and the per-metric CSV tables.

    Returns the written paths keyed by logical name (``summary`` plus
    one entry per metric table).
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written: dict[str, Path] = {}
    summary_path = out / "sweep_summary.json"
    summary_path.write_text(summary_text(summary), encoding="utf-8")
    written["summary"] = summary_path
    tables_dir = out / "tables"
    tables_dir.mkdir(parents=True, exist_ok=True)
    # Reproducibility covers the whole directory, not just each file:
    # drop tables of metrics a previous spec produced but this one
    # doesn't, so re-running into the same --out never serves stale CSVs.
    expected = {metric_table_name(metric) for metric in summary["aggregates"]}
    for leftover in tables_dir.glob("*.csv"):
        if leftover.name not in expected:
            leftover.unlink()
    for metric, groups in summary["aggregates"].items():
        lines = ["group,count,mean,min,max"]
        for group, stats in groups.items():  # already sorted at build time
            lines.append(
                ",".join(
                    (
                        group,
                        _csv_cell(stats["count"]),
                        _csv_cell(stats["mean"]),
                        _csv_cell(stats["min"]),
                        _csv_cell(stats["max"]),
                    )
                )
            )
        table_path = tables_dir / metric_table_name(metric)
        table_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        written[metric] = table_path
    return written
