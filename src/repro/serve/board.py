"""Per-worker stats snapshots: how ``/stats`` merges across processes.

Each worker process publishes a small JSON snapshot of its own counters
(requests served, cache tiers, coalescing) to
``<state>/workers/<pid>.json`` after every completed request with
:func:`~repro.core.store.write_atomic`, so readers never observe a torn
snapshot.  Any worker answering ``GET /stats`` reads every snapshot and
merges the counters, giving clients one cross-worker view no matter
which worker the connection landed on (stale by at most each worker's
single in-flight request).

Snapshots of dead workers are deliberately kept: their requests and
cache traffic happened, so the merged totals keep counting them — a
restarted worker publishes under its new pid alongside.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any

from repro.core.store import write_atomic

__all__ = ["WorkerBoard"]


class WorkerBoard:
    """Atomic publish/read-all of per-worker counter snapshots."""

    def __init__(self, root: str | os.PathLike[str]) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.pid = os.getpid()

    def publish(self, snapshot: dict[str, Any]) -> None:
        """Atomically replace this worker's snapshot."""
        body = json.dumps(snapshot, sort_keys=True).encode("utf-8")
        write_atomic(self.root / f"{self.pid}.json", body)

    def read_all(self) -> dict[int, dict[str, Any]]:
        """Every published snapshot, keyed by worker pid."""
        snapshots: dict[int, dict[str, Any]] = {}
        for path in sorted(self.root.glob("*.json")):
            try:
                pid = int(path.stem)
            except ValueError:
                continue
            try:
                snapshots[pid] = json.loads(path.read_text(encoding="utf-8"))
            except (OSError, json.JSONDecodeError):
                # A worker may be mid-replace or freshly dead; skip.
                continue
        return snapshots
