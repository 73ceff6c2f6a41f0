"""Sharded, resumable sweep execution.

:func:`run_sweep` is the orchestration core behind ``repro sweep``:

1. expand the spec into its deterministic shard list;
2. probe the content-addressed :class:`~repro.core.store.Store` — hits
   are reused verbatim, misses become the work list (``--force``
   dirties everything);
3. execute missing shards, either in-process or across a
   :class:`~concurrent.futures.ProcessPoolExecutor`, persisting each
   result atomically *as it completes* so a killed run loses at most
   the shards still in flight;
4. merge all shard records in expansion order into the byte-reproducible
   ``sweep_summary.json`` and per-metric CSV tables.

Worker processes receive only the shard parameters: under ``--jobs N``
each worker builds its own diversity context, and the per-process
context memo in :mod:`repro.experiments.context` lets consecutive
shards of one (scale, seed) on the same worker reuse it.

:class:`SweepRunResult` is an in-process value, not an envelope: the
API session turns it into the ``sweep_result`` envelope
(:class:`~repro.api.results.SweepResult`).  The ``progress`` callback
gets each message with the completed and total shard counts, so a
caller tracks progress without parsing the text.
"""

from __future__ import annotations

import json
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

from repro.core.store import Store, code_version, store_key
from repro.envelope import canonical_text
from repro.sweep.aggregate import build_summary, write_outputs
from repro.sweep.shard import run_shard
from repro.sweep.spec import Shard, SweepSpec

#: Default locations relative to the working directory.
DEFAULT_CACHE_DIR = ".sweep-cache"
DEFAULT_OUT_DIR = "sweep-results"

#: The store namespace (and format) of shard records.
SHARD_NAMESPACE = "sweep-shard-v1"


@dataclass(frozen=True)
class SweepRunResult:
    """Outcome of one :func:`run_sweep` call."""

    spec: SweepSpec
    summary: dict[str, Any]
    executed: tuple[str, ...]  # shard ids computed this run
    reused: tuple[str, ...]  # shard ids served from the cache
    written: dict[str, Path]  # output files (summary + metric tables)


def load_record(store: Store, key: str) -> dict[str, Any] | None:
    """The shard record under ``key``; ``None`` if absent, corrupt or misfiled.

    A truncated or hand-edited entry is a miss, never an error: the
    shard is recomputed and the entry rewritten.
    """
    try:
        record = json.loads(store.get(key) or b"null")
    except ValueError:
        return None
    return record if isinstance(record, dict) and record.get("key") == key else None


def _execute_shard(shard: Shard) -> tuple[dict[str, Any], float]:
    """Worker entry point: run one shard, returning (record, elapsed)."""
    started = time.perf_counter()
    record = run_shard(shard)
    return record, time.perf_counter() - started


def run_sweep(
    spec: SweepSpec,
    *,
    jobs: int = 1,
    cache_dir: str | Path = DEFAULT_CACHE_DIR,
    out_dir: str | Path = DEFAULT_OUT_DIR,
    force: bool = False,
    progress: Callable[[str, int, int], None] | None = None,
) -> SweepRunResult:
    """Run (or resume) a sweep and write its outputs.

    The cache makes this idempotent and interrupt-safe: re-running the
    same spec against the same code recomputes nothing and rewrites a
    byte-identical summary; after a kill, only the shards without a
    completed cache entry run again.  Under ``jobs > 1`` the pending
    shards run in worker processes that each build their own context;
    the summary is byte-identical to a sequential run.

    ``progress`` receives a line per step with the shards completed so
    far (cached ones included) and the total.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be a positive integer, got {jobs}")
    shards = spec.expand()
    store = Store(cache_dir)
    code = code_version()
    keys = {
        shard: store_key(SHARD_NAMESPACE, shard.params(), shard.input_files())
        for shard in shards
    }

    records: dict[Shard, dict[str, Any]] = {}
    pending: list[Shard] = []
    for shard in shards:
        cached = None if force else load_record(store, keys[shard])
        if cached is not None:
            records[shard] = cached
        else:
            pending.append(shard)
    reused = tuple(shard.shard_id for shard in shards if shard in records)
    if progress:
        progress(
            f"{len(shards)} shards: {len(reused)} cached, {len(pending)} to compute",
            len(records),
            len(shards),
        )

    def _persist(shard: Shard, record: dict[str, Any], elapsed: float) -> None:
        entry = dict(record, elapsed_s=elapsed, code_version=code, key=keys[shard])
        store.put(keys[shard], canonical_text(entry).encode("utf-8"))
        records[shard] = entry
        if progress:
            progress(f"done {shard.shard_id} ({elapsed:.2f}s)", len(records), len(shards))

    if pending and jobs == 1:
        for shard in pending:
            record, elapsed = _execute_shard(shard)
            _persist(shard, record, elapsed)
    elif pending:
        with ProcessPoolExecutor(max_workers=min(jobs, len(pending))) as executor:
            futures = {executor.submit(_execute_shard, shard): shard for shard in pending}
            remaining = set(futures)
            # Persist as results land (not in submission order), so an
            # interrupt preserves every completed shard.
            while remaining:
                done, remaining = wait(remaining, return_when=FIRST_COMPLETED)
                for future in done:
                    record, elapsed = future.result()
                    _persist(futures[future], record, elapsed)

    summary = build_summary(spec, [records[shard] for shard in shards], code=code)
    written = write_outputs(summary, out_dir)
    return SweepRunResult(
        spec=spec,
        summary=summary,
        executed=tuple(shard.shard_id for shard in pending),
        reused=reused,
        written=written,
    )
