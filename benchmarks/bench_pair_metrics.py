"""Benchmark: array pair-metric analysis vs. the per-path reference (Figs. 5/6).

The workload is the §VI-B/C pair analysis as ``repro experiments`` runs
it: for a sample of source ASes, value every GRC path and every new MA
path by geodistance (Fig. 5) and by bottleneck bandwidth (Fig. 6), then
take each AS pair's GRC min/median/max and its MA values.  The baseline
is :func:`repro.reference.analyze_pairs` with the per-path methods
(``path_geodistance``/``path_bandwidth``, one Python call per path,
grouped in a dict); the contender is
:func:`repro.paths.pair_metrics.analyze_geodistance` /
:func:`~repro.paths.pair_metrics.analyze_bandwidth`, which value the
paths as columns with the batch methods.  Both sides read the same
column MA index and a warm path engine, so only the analysis is timed.

Scales (``REPRO_BENCH_SCALE`` env var, or ``--paper-scale``):

- ``tiny`` — CI smoke scale: proves the harness and the equivalence
  assertion work, makes no speedup claim.
- ``default`` — the ``repro experiments`` topology and pair sample
  (8/40/120/400 tiers, 40 sources); here the benchmark *asserts* a
  ≥ 3× speedup over both metrics, a ratio of two runs on the same
  machine.
- ``full`` — the ``repro experiments --full`` pair sample (80 sources)
  on the ``repro diversity`` topology (8/60/200/800 tiers); the run
  peaks at about 610 MB on a 2-core x86-64 VM.

The records of both sides must be equal (``ma_values`` compared sorted,
since the reference takes them from a set) at every scale.  Results are
emitted to ``BENCH_pair_metrics.json`` via ``_emit``.
"""

from __future__ import annotations

import dataclasses
import os
import time

from _emit import emit

from repro import reference
from repro.agreements import enumerate_mutuality_agreements
from repro.core import path_engine_for
from repro.paths.diversity import sample_ases
from repro.paths.ma_paths import build_ma_path_index
from repro.paths.pair_metrics import (
    BANDWIDTH,
    GEODISTANCE,
    analyze_bandwidth,
    analyze_geodistance,
)
from repro.topology.bandwidth import degree_gravity_capacities
from repro.topology.generator import generate_topology
from repro.topology.geography import SyntheticGeographyGenerator

_SCALES = {
    "tiny": dict(num_tier1=3, num_tier2=8, num_tier3=25, num_stubs=70),
    "default": dict(num_tier1=8, num_tier2=40, num_tier3=120, num_stubs=400),
    "full": dict(num_tier1=8, num_tier2=60, num_tier3=200, num_stubs=800),
}

#: Sampled source ASes per scale (``repro experiments`` uses 40, ``--full`` 80).
_SAMPLE_SIZES = {"tiny": 10, "default": 40, "full": 80}

#: The contracted minimum speedup at default scale.
DEFAULT_SCALE_MIN_SPEEDUP = 3.0


def _scale_name(paper_scale: bool) -> str:
    env = os.environ.get("REPRO_BENCH_SCALE")
    if env:
        if env not in _SCALES:
            raise ValueError(
                f"REPRO_BENCH_SCALE must be one of {sorted(_SCALES)}, got {env!r}"
            )
        return env
    return "full" if paper_scale else "default"


def _sorted_values(record):
    return dataclasses.replace(record, ma_values=tuple(sorted(record.ma_values)))


def test_pair_metrics_speedup(paper_scale):
    scale = _scale_name(paper_scale)
    seed = 2021
    sample_size = _SAMPLE_SIZES[scale]
    graph = generate_topology(seed=seed, **_SCALES[scale]).graph
    index = build_ma_path_index(enumerate_mutuality_agreements(graph))
    engine = path_engine_for(graph)
    for asn in sample_ases(graph, sample_size, seed=seed):
        engine.paths(asn)
    embedding = SyntheticGeographyGenerator(seed=seed).embed(graph)
    capacities = degree_gravity_capacities(graph)

    reference_time = array_time = 0.0
    pairs = 0
    for metric, analyze, model, value_of_path in (
        (GEODISTANCE, analyze_geodistance, embedding, embedding.path_geodistance),
        (BANDWIDTH, analyze_bandwidth, capacities, capacities.path_bandwidth),
    ):
        started = time.perf_counter()
        expected = reference.analyze_pairs(
            graph,
            metric,
            value_of_path,
            index=index,
            sample_size=sample_size,
            seed=seed,
            engine=engine,
        ).records
        reference_time += time.perf_counter() - started
        started = time.perf_counter()
        records = analyze(
            graph, model, index=index, sample_size=sample_size, seed=seed, engine=engine
        ).records
        array_time += time.perf_counter() - started

        # The array analysis must agree with the reference exactly, at every scale.
        assert list(map(_sorted_values, records)) == list(map(_sorted_values, expected))
        pairs += len(records)

    speedup = reference_time / array_time if array_time > 0.0 else float("inf")
    emit(
        "pair_metrics",
        wall_time_s=array_time,
        operations=pairs,
        scale={
            "name": scale,
            "seed": seed,
            "ases": len(graph),
            "sources": sample_size,
            **_SCALES[scale],
        },
        extra={"reference_wall_time_s": reference_time, "speedup": speedup},
    )
    print(
        f"\n[{scale}] geodistance + bandwidth over {pairs} AS pairs from {sample_size} "
        f"sources: reference {reference_time:.3f}s, arrays {array_time:.3f}s, "
        f"speedup {speedup:.1f}x"
    )

    if scale == "default":
        assert speedup >= DEFAULT_SCALE_MIN_SPEEDUP, (
            f"array pair metrics regressed: {speedup:.1f}x < "
            f"{DEFAULT_SCALE_MIN_SPEEDUP:.0f}x at default scale"
        )
