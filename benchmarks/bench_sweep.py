"""Benchmark: sweep orchestrator — cold grid vs. cached resume.

Runs the built-in smoke grid (the same 18 shards CI exercises) twice
against a fresh cache directory: the cold pass computes every shard, the
second pass must be served entirely from the content-addressed cache.
The emitted ``BENCH_sweep.json`` records both times — the resume
speedup is the number the sweep subsystem exists to deliver — and the
test asserts the cache actually short-circuits recomputation.
"""

from __future__ import annotations

import time

from _emit import emit

from repro.envelope import canonical_text
from repro.sweep import run_sweep, smoke_spec


def test_sweep_cold_vs_resume(tmp_path):
    spec = smoke_spec()
    cache_dir = tmp_path / "cache"
    out_dir = tmp_path / "out"

    started = time.perf_counter()
    cold = run_sweep(spec, cache_dir=cache_dir, out_dir=out_dir)
    cold_time = time.perf_counter() - started

    started = time.perf_counter()
    warm = run_sweep(spec, cache_dir=cache_dir, out_dir=out_dir)
    warm_time = time.perf_counter() - started

    num_shards = len(spec.expand())
    assert len(cold.executed) == num_shards and not cold.reused
    assert len(warm.reused) == num_shards and not warm.executed
    assert canonical_text(warm.summary) == canonical_text(cold.summary)

    speedup = cold_time / warm_time if warm_time > 0.0 else float("inf")
    emit(
        "sweep",
        wall_time_s=cold_time,
        operations=num_shards,
        scale={"spec": spec.name, "shards": num_shards},
        extra={
            "resume_wall_time_s": warm_time,
            "resume_speedup": speedup,
        },
    )
    print(
        f"\nsweep '{spec.name}' over {num_shards} shards: cold {cold_time:.2f}s, "
        f"resume {warm_time:.3f}s ({speedup:.0f}x)"
    )

    # The resume path must not redo shard work; even with generous slack
    # for filesystem jitter it has to beat the cold pass outright.
    assert warm_time < cold_time
