"""All-sources GRC pass: every AS's path and destination counts, sharded.

The §VI headline numbers are per-source aggregates over *all* sources —
exactly the computation that must scale to a full CAIDA snapshot.  This
module runs it end to end:

- **Sequential** — one :class:`~repro.core.PathEngine` blocked sweep
  (``O(block × n)`` peak memory, never a dense n×n matrix).
- **Sharded** — per-source results are independent, so the source index
  space splits into contiguous ranges (like ``repro sweep`` splits its
  parameter grid) and each range runs in its own worker process.
  Workers do not receive a pickled graph: they receive the *path* of a
  memory-mapped topology artifact (:mod:`repro.core.artifacts`) and all
  map the same physical pages.  The parent concatenates shard results
  in range order, making sharded output byte-identical to the
  sequential pass (pinned by tests).

The result is plain arrays plus summary statistics; ``repro grc-all``
(:mod:`repro.api`) wraps it with topology loading, artifact publishing,
and CSV/JSON output.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.core.artifacts import load_artifact
from repro.core.compiled import CompiledTopology
from repro.core.path_engine import PathEngine


def plan_ranges(n: int, shards: int) -> list[tuple[int, int]]:
    """Split ``n`` sources into ``shards`` contiguous balanced ranges.

    Every source appears in exactly one range; ranges are returned in
    index order (the merge order).  Fewer than ``shards`` ranges are
    returned when ``n < shards``.
    """
    if shards < 1:
        raise ValueError(f"shards must be a positive integer, got {shards}")
    shards = min(shards, n) if n else 0
    bounds = np.linspace(0, n, shards + 1, dtype=np.int64)
    return [
        (int(bounds[i]), int(bounds[i + 1]))
        for i in range(len(bounds) - 1)
        if bounds[i] < bounds[i + 1]
    ]


def _run_range(
    artifact_path: str, lo: int, hi: int
) -> tuple[np.ndarray, np.ndarray]:
    """Worker entry point: one source range against the mmap artifact."""
    engine = PathEngine(load_artifact(artifact_path))
    return engine.counts_range(lo, hi), engine.destination_counts_range(lo, hi)


@dataclass(frozen=True)
class GrcAllPass:
    """The complete per-source result of one all-sources GRC pass."""

    fingerprint: str
    asns: np.ndarray
    path_counts: np.ndarray
    destination_counts: np.ndarray
    #: How many source ranges the pass ran as (1 when in-process).
    shards: int = 1

    @property
    def num_ases(self) -> int:
        return int(self.asns.size)

    @property
    def total_paths(self) -> int:
        return int(self.path_counts.sum())

    def summary(self) -> dict[str, float | int]:
        """Deterministic aggregate statistics of the pass."""
        n = self.num_ases
        return {
            "num_ases": n,
            "total_paths": self.total_paths,
            "mean_paths": float(self.path_counts.mean()) if n else 0.0,
            "max_paths": int(self.path_counts.max()) if n else 0,
            "mean_destinations": (
                float(self.destination_counts.mean()) if n else 0.0
            ),
            "max_destinations": (
                int(self.destination_counts.max()) if n else 0
            ),
        }

    def csv_lines(self) -> list[str]:
        """Per-source table as CSV lines (without newlines)."""
        lines = ["asn,paths,destinations"]
        lines.extend(
            f"{int(a)},{int(p)},{int(d)}"
            for a, p, d in zip(self.asns, self.path_counts, self.destination_counts)
        )
        return lines

    def write_csv(self, path: str | Path) -> None:
        """Write the per-source table to a CSV file."""
        Path(path).write_text("\n".join(self.csv_lines()) + "\n", encoding="utf-8")


def run_grc_all(
    compiled: CompiledTopology,
    *,
    jobs: int = 1,
    shards: int | None = None,
    artifact_path: str | Path | None = None,
) -> GrcAllPass:
    """Run the all-sources GRC pass over a compiled topology.

    With ``jobs == 1`` the pass runs in-process.  With ``jobs > 1`` it
    requires ``artifact_path`` (a published
    :mod:`repro.core.artifacts` directory for the same fingerprint):
    the source ranges — ``shards`` of them, default one per job — are
    dispatched to worker processes that memory-map the artifact, and
    the results are concatenated in range order, byte-identical to the
    sequential pass.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be a positive integer, got {jobs}")
    n = compiled.n
    if jobs == 1 or n == 0:
        engine = PathEngine(compiled)
        return GrcAllPass(
            fingerprint=compiled.source_fingerprint,
            asns=np.asarray(compiled.asn_array),
            path_counts=engine.counts_range(0, n),
            destination_counts=engine.destination_counts_range(0, n),
        )
    if artifact_path is None:
        raise ValueError("sharded grc-all (jobs > 1) requires an artifact_path")
    ranges = plan_ranges(n, shards if shards is not None else jobs)
    with ProcessPoolExecutor(max_workers=min(jobs, len(ranges))) as executor:
        futures = [
            executor.submit(_run_range, str(artifact_path), lo, hi)
            for lo, hi in ranges
        ]
        results = [future.result() for future in futures]
    return GrcAllPass(
        fingerprint=compiled.source_fingerprint,
        asns=np.asarray(compiled.asn_array),
        path_counts=np.concatenate([counts for counts, _ in results]),
        destination_counts=np.concatenate([dests for _, dests in results]),
        shards=len(ranges),
    )
