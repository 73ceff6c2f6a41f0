"""Benchmark: column MA path index vs. the dict/set reference index.

The workload is the §VI MA layer as Figs. 3/4 use it: build the MA path
index of every maximal mutuality-based agreement, then run the per-AS
diversity queries (GRC exclusion, MA*, MA, Top 1/5/50 paths and
destinations) over a sample of ASes.  The baseline is the
one-tuple-per-path index of :mod:`repro.reference` with its set-based
per-AS analysis; the contender is :func:`repro.paths.ma_paths.build_ma_path_index`
with :func:`repro.paths.diversity.analyze_as`.  Each side gets the input
its workflow takes: the reference a list of ``Agreement`` objects, the
contender the columnar :class:`~repro.agreements.mutuality.MutualityAgreements`
sequence whose columns it adopts as they are.  Both are enumerated, and
GRC path sets computed, before either clock starts, so both sides read
the same warm engine.

Scales (``REPRO_BENCH_SCALE`` env var, or ``--paper-scale``):

- ``tiny`` — CI smoke scale: proves the harness and the equivalence
  assertion work, makes no speedup claim.
- ``default`` — the reduced experiment scale.
- ``full`` — the ``repro diversity`` default scale (8/60/200/800 tiers,
  ~1.1k ASes); here the benchmark *asserts* a ≥ 5× speedup, a ratio of
  two runs on the same machine.

The per-AS records and the per-AS path counts of both indexes must be
equal at every scale.  Results are emitted to ``BENCH_ma_index.json``
via ``_emit``.
"""

from __future__ import annotations

import gc
import os
import time

from _emit import emit

from repro import reference
from repro.agreements import enumerate_mutuality_agreements
from repro.core import path_engine_for
from repro.paths.diversity import analyze_as, sample_ases
from repro.paths.ma_paths import build_ma_path_index
from repro.topology.generator import generate_topology

_SCALES = {
    "tiny": dict(num_tier1=3, num_tier2=8, num_tier3=25, num_stubs=70),
    "default": dict(num_tier1=8, num_tier2=40, num_tier3=120, num_stubs=400),
    "full": dict(num_tier1=8, num_tier2=60, num_tier3=200, num_stubs=800),
}

#: ASes whose queries are timed (the ``repro diversity`` default sample).
SAMPLE_SIZE = 200

#: The contracted minimum speedup at full scale.
FULL_SCALE_MIN_SPEEDUP = 5.0


def _scale_name(paper_scale: bool) -> str:
    env = os.environ.get("REPRO_BENCH_SCALE")
    if env:
        if env not in _SCALES:
            raise ValueError(
                f"REPRO_BENCH_SCALE must be one of {sorted(_SCALES)}, got {env!r}"
            )
        return env
    return "full" if paper_scale else "default"


def _timed(build, analyze, graph, agreements, sample, engine):
    """Build an index and analyze every sampled AS.

    Returns the records, the per-AS direct and indirect path counts and
    the wall time; the index itself is dropped before the next side runs.
    """
    started = time.perf_counter()
    index = build(agreements)
    records = [analyze(graph, index, asn, engine=engine) for asn in sample]
    elapsed = time.perf_counter() - started
    counts = tuple(
        {asn: len(paths) for asn, paths in side.items()} for side in (index.direct, index.indirect)
    )
    return records, counts, elapsed


def test_ma_index_speedup(paper_scale):
    scale = _scale_name(paper_scale)
    seed = 2021
    graph = generate_topology(seed=seed, **_SCALES[scale]).graph
    agreements = enumerate_mutuality_agreements(graph)
    engine = path_engine_for(graph)
    sample = sample_ases(graph, SAMPLE_SIZE, seed=seed)
    for asn in sample:
        engine.paths(asn)
        engine.destinations(asn)

    expected, expected_counts, reference_time = _timed(
        reference.build_ma_path_index,
        reference.analyze_as,
        graph,
        list(agreements),
        sample,
        engine,
    )
    gc.collect()
    records, counts, column_time = _timed(
        build_ma_path_index, analyze_as, graph, agreements, sample, engine
    )

    # The column index must agree with the reference exactly, at every scale.
    assert records == expected
    assert counts == expected_counts

    paths = sum(counts[0].values()) + sum(counts[1].values())
    speedup = reference_time / column_time if column_time > 0.0 else float("inf")
    emit(
        "ma_index",
        wall_time_s=column_time,
        operations=len(sample),
        scale={"name": scale, "seed": seed, "ases": len(graph), **_SCALES[scale]},
        extra={
            "reference_wall_time_s": reference_time,
            "speedup": speedup,
            "agreements": len(agreements),
            "indexed_paths": paths,
        },
    )
    print(
        f"\n[{scale}] MA index over {len(agreements)} agreements ({paths} paths) "
        f"+ {len(sample)} per-AS analyses: reference {reference_time:.3f}s, "
        f"columns {column_time:.3f}s, speedup {speedup:.1f}x"
    )

    if scale == "full":
        assert speedup >= FULL_SCALE_MIN_SPEEDUP, (
            f"column MA index regressed: {speedup:.1f}x < "
            f"{FULL_SCALE_MIN_SPEEDUP:.0f}x at full scale"
        )
