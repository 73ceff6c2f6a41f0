"""Benchmark: batched PathEngine vs. per-source GRC path enumeration.

The workload is the §VI primitive every figure consumes: for *all*
sources of the synthetic topology, the number of GRC-conforming
length-3 paths and the number of destinations those paths reach.  The
baseline is the pre-refactor approach — one naive graph walk per source
(:func:`repro.reference.iter_grc_length3_paths`) — and the contender is
a cold :class:`repro.core.PathEngine` (compile time included).

Scales (``REPRO_BENCH_SCALE`` env var, or ``--paper-scale``):

- ``tiny`` — CI smoke scale: proves the harness and the equivalence
  assertion work, makes no speedup claim.
- ``default`` — the reduced experiment scale.
- ``full`` — the ``repro experiments --full`` diversity scale
  (8/60/200/800 tiers, ~1.1k ASes); here the benchmark *asserts* the
  ≥ 5× speedup the compiled core is contracted to deliver.

Both tests also time the three ingestion paths against each other —
cold graph compile (parse + ``compile_topology``), streaming compile
(lines → arrays, :mod:`repro.core.streaming`), and mmap artifact open
(:mod:`repro.core.artifacts`) — the numbers behind the worker
warm-start contract.

Results are emitted to ``BENCH_path_engine.json`` via ``_emit``;
:func:`test_path_engine_scale10k` always runs a synthetic ~10k-AS /
~50k-link internet-scale smoke (independent of ``REPRO_BENCH_SCALE``)
and emits ``BENCH_path_engine_scale10k.json``, asserting the ≥ 5×
mmap-vs-cold warm-start speedup and the blocked sweep's sub-n×n peak
memory.
"""

from __future__ import annotations

import os
import tempfile
import time
import tracemalloc

import numpy as np
from _emit import emit

from repro.core import (
    PathEngine,
    compile_as_rel_lines,
    compile_topology,
    load_artifact,
)
from repro.core.artifacts import ArtifactStore
from repro.reference import iter_grc_length3_paths
from repro.topology.caida import dump_as_rel_lines, parse_as_rel_lines
from repro.topology.generator import generate_topology

_SCALES = {
    "tiny": dict(num_tier1=3, num_tier2=8, num_tier3=25, num_stubs=70),
    "default": dict(num_tier1=8, num_tier2=40, num_tier3=120, num_stubs=400),
    "full": dict(num_tier1=8, num_tier2=60, num_tier3=200, num_stubs=800),
}

#: The contracted minimum speedup at full (paper) scale.
FULL_SCALE_MIN_SPEEDUP = 5.0

#: The contracted minimum warm-start speedup: opening the memory-mapped
#: artifact must beat re-ingesting the as-rel file (parse + compile) by
#: at least this factor — that is what makes passing artifact paths to
#: ``--jobs`` workers worth it.
WARM_START_MIN_SPEEDUP = 5.0


def _ingestion_times(lines: list[str]) -> dict[str, float]:
    """Wall times of the three ingestion paths for the same content.

    ``cold_compile_s`` is parse + graph compile (what a worker without
    the artifact store pays), ``streaming_compile_s`` the direct
    lines→arrays path, ``mmap_open_s`` the artifact open; the streamed
    and graph-compiled views are asserted element-identical.
    """
    started = time.perf_counter()
    graph = parse_as_rel_lines(lines)  # kept alive: the view's fingerprint
    graph_view = compile_topology(graph)  # derives lazily from its source
    cold_compile_s = time.perf_counter() - started

    started = time.perf_counter()
    streamed = compile_as_rel_lines(lines)
    streaming_compile_s = time.perf_counter() - started

    assert streamed.same_arrays(graph_view)
    assert streamed.source_fingerprint == graph_view.source_fingerprint

    with tempfile.TemporaryDirectory() as tmp:
        artifact = ArtifactStore(tmp).ensure_compiled(streamed)
        started = time.perf_counter()
        view = load_artifact(artifact)
        mmap_open_s = time.perf_counter() - started
        assert view.same_arrays(streamed)
    return {
        "cold_compile_s": cold_compile_s,
        "streaming_compile_s": streaming_compile_s,
        "mmap_open_s": mmap_open_s,
    }


def _scale_name(paper_scale: bool) -> str:
    env = os.environ.get("REPRO_BENCH_SCALE")
    if env:
        if env not in _SCALES:
            raise ValueError(
                f"REPRO_BENCH_SCALE must be one of {sorted(_SCALES)}, got {env!r}"
            )
        return env
    return "full" if paper_scale else "default"


def _naive_all_sources(graph) -> dict[int, tuple[int, int]]:
    """(path count, destination count) per source, one graph walk each."""
    results: dict[int, tuple[int, int]] = {}
    for source in graph:
        count = 0
        destinations: set[int] = set()
        for path in iter_grc_length3_paths(graph, source):
            count += 1
            destinations.add(path[2])
        results[source] = (count, len(destinations))
    return results


def _engine_all_sources(graph) -> dict[int, tuple[int, int]]:
    """The same quantities from a cold compiled engine (compile included)."""
    engine = PathEngine(compile_topology(graph))
    counts = engine.counts_by_source()
    destination_counts = engine.destination_counts_by_source()
    return {asn: (counts[asn], destination_counts[asn]) for asn in counts}


def test_path_engine_speedup(paper_scale):
    scale = _scale_name(paper_scale)
    seed = 2021
    graph = generate_topology(seed=seed, **_SCALES[scale]).graph

    started = time.perf_counter()
    naive = _naive_all_sources(graph)
    naive_time = time.perf_counter() - started

    started = time.perf_counter()
    batched = _engine_all_sources(graph)
    engine_time = time.perf_counter() - started

    # The engine must agree with the reference exactly, at every scale.
    assert batched == naive

    speedup = naive_time / engine_time if engine_time > 0.0 else float("inf")
    total_paths = sum(count for count, _ in naive.values())
    ingestion = _ingestion_times(dump_as_rel_lines(graph))
    emit(
        "path_engine",
        wall_time_s=engine_time,
        operations=len(naive),
        scale={"name": scale, "seed": seed, "ases": len(graph), **_SCALES[scale]},
        extra={
            "naive_wall_time_s": naive_time,
            "speedup": speedup,
            "total_grc_length3_paths": total_paths,
            **ingestion,
        },
    )
    print(
        f"\n[{scale}] all-sources GRC length-3 sweep over {len(graph)} ASes "
        f"({total_paths} paths): naive {naive_time:.3f}s, "
        f"engine {engine_time:.3f}s, speedup {speedup:.1f}x"
    )

    if scale == "full":
        assert speedup >= FULL_SCALE_MIN_SPEEDUP, (
            f"compiled path engine regressed: {speedup:.1f}x < "
            f"{FULL_SCALE_MIN_SPEEDUP:.0f}x at full scale"
        )


def _synthetic_as_rel_lines(
    n: int = 10_000, peerings: int = 40_000, seed: int = 2021
) -> list[str]:
    """Seeded ~``n``-AS / ~``n + peerings``-link as-rel snapshot.

    Shaped like a CAIDA serial-2 file, not like the tiered experiment
    generator (whose peering density explodes at this size): every AS
    beyond the first two buys transit from one random earlier AS, and
    ``peerings`` distinct random pairs peer.  Pure vectorized numpy, so
    synthesizing the input costs a fraction of ingesting it.
    """
    rng = np.random.default_rng(seed)
    customers = np.arange(3, n + 1, dtype=np.int64)
    providers = rng.integers(1, customers)
    transit_keys = set(
        (np.minimum(providers, customers) * (n + 1) + np.maximum(providers, customers))
        .tolist()
    )
    pairs = rng.integers(1, n + 1, size=(3 * peerings, 2))
    lo = np.minimum(pairs[:, 0], pairs[:, 1])
    hi = np.maximum(pairs[:, 0], pairs[:, 1])
    distinct = lo != hi
    lo, hi = lo[distinct], hi[distinct]
    keys = lo * (n + 1) + hi
    _, first_seen = np.unique(keys, return_index=True)
    first_seen.sort()
    lo, hi, keys = lo[first_seen], hi[first_seen], keys[first_seen]
    fresh = np.fromiter(
        (int(key) not in transit_keys for key in keys), bool, len(keys)
    )
    lo, hi = lo[fresh][:peerings], hi[fresh][:peerings]
    lines = [f"{p}|{c}|-1" for p, c in zip(providers, customers)]
    lines.extend(f"{a}|{b}|0" for a, b in zip(lo, hi))
    return lines


def test_path_engine_scale10k():
    """Internet-scale smoke: always-on, independent of REPRO_BENCH_SCALE.

    Asserts the two contracts the artifact + blocked-sweep substrate is
    built on: opening the memory-mapped artifact beats re-ingesting the
    file by ≥ 5× (the worker warm-start claim), and the all-sources
    blocked sweep never allocates anything close to a dense n×n matrix.
    """
    lines = _synthetic_as_rel_lines()
    ingestion = _ingestion_times(lines)

    streamed = compile_as_rel_lines(lines)
    n = streamed.n
    with tempfile.TemporaryDirectory() as tmp:
        artifact = ArtifactStore(tmp).ensure_compiled(streamed)
        view = load_artifact(artifact)
        engine = PathEngine(view)
        tracemalloc.start()
        started = time.perf_counter()
        path_counts = engine.counts_range(0, n)
        destination_counts = engine.destination_counts_range(0, n)
        sweep_time = time.perf_counter() - started
        _, peak_bytes = tracemalloc.get_traced_memory()
        tracemalloc.stop()

    total_paths = int(path_counts.sum())
    assert destination_counts.shape == (n,)
    warm_start = (
        ingestion["cold_compile_s"] / ingestion["mmap_open_s"]
        if ingestion["mmap_open_s"] > 0.0
        else float("inf")
    )
    emit(
        "path_engine_scale10k",
        wall_time_s=sweep_time,
        operations=n,
        scale={"name": "scale10k", "seed": 2021, "ases": n, "links": streamed.num_links},
        extra={
            **ingestion,
            "warm_start_speedup": warm_start,
            "sweep_peak_bytes": int(peak_bytes),
            "total_grc_length3_paths": total_paths,
        },
    )
    print(
        f"\n[scale10k] {n} ASes, {streamed.num_links} links: "
        f"cold {ingestion['cold_compile_s']:.3f}s, "
        f"stream {ingestion['streaming_compile_s']:.3f}s, "
        f"mmap {ingestion['mmap_open_s'] * 1000.0:.1f}ms "
        f"({warm_start:.0f}x warm start); blocked sweep {sweep_time:.3f}s, "
        f"peak {peak_bytes / 1e6:.1f}MB (dense n*n would be {n * n / 1e6:.0f}MB)"
    )

    assert warm_start >= WARM_START_MIN_SPEEDUP, (
        f"mmap warm start regressed: {warm_start:.1f}x < "
        f"{WARM_START_MIN_SPEEDUP:.0f}x vs cold re-ingestion"
    )
    # The blocked sweep's bound: peak traced allocation stays below what
    # one dense n×n bool matrix alone would cost.
    assert peak_bytes < n * n, (
        f"blocked sweep peak {peak_bytes} bytes is no better than a "
        f"dense n*n matrix ({n * n} bytes)"
    )
