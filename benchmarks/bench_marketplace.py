"""Benchmark: sub-batched mixed-cohort negotiation vs. per-agent scalar.

The workload is the heterogeneous-marketplace flush: a seeded
population (the built-in five-profile mix of
``marketplace-heterogeneous``) is resolved against a synthetic
topology, AS pairs are drawn from it, each pair negotiates under the
smaller of its parties' preferred choice-set cardinalities (the
lifecycle's ``W`` rule), and the whole cohort is decided twice — once
through :func:`repro.reference.decide_sequential` (one scalar
``BoscoService.negotiate`` per pair, the reference) and once through
:func:`repro.agents.decide_mixed_cohort` (order-preserving sub-batches,
one ``negotiate_many`` per published mechanism).

Scales (``REPRO_BENCH_SCALE`` env var, or ``--paper-scale``):

- ``tiny`` — CI smoke scale: proves the harness and the bit-exactness
  assertion, makes no speedup claim.
- ``default`` — a few hundred ASes, a few thousand negotiations.
- ``full`` — the paper-scale topology (8/60/400/1600 ≈ 2,000+ ASes)
  mixing all five profiles; here the benchmark *asserts* the ≥ 2×
  speedup the sub-batched path is contracted to deliver.

Results are emitted to ``BENCH_marketplace.json`` via ``_emit``.
"""

from __future__ import annotations

import os
import time

import numpy as np
from _emit import emit

from repro.agents import CohortEntry, decide_mixed_cohort
from repro.agents.population import default_population_spec
from repro.bargaining.distributions import paper_distribution_u1
from repro.bargaining.mechanism import BoscoService
from repro.reference import decide_sequential
from repro.topology.generator import generate_topology

_SCALES = {
    "tiny": dict(topology=(2, 5, 12, 30), pairs=200, trials=2),
    "default": dict(topology=(4, 20, 80, 300), pairs=4_000, trials=5),
    "full": dict(topology=(8, 60, 400, 1600), pairs=40_000, trials=10),
}

#: The default BOSCO cardinality of the marketplace (profiles with a
#: ``num_choices`` preference negotiate under min(theirs, partner's)).
DEFAULT_WIDTH = 10

#: The contracted minimum speedup at full (paper) scale.
FULL_SCALE_MIN_SPEEDUP = 2.0


def _scale_name(paper_scale: bool) -> str:
    env = os.environ.get("REPRO_BENCH_SCALE")
    if env:
        if env not in _SCALES:
            raise ValueError(
                f"REPRO_BENCH_SCALE must be one of {sorted(_SCALES)}, got {env!r}"
            )
        return env
    return "full" if paper_scale else "default"


def _build_cohort(scale: str, seed: int):
    """Resolve the population and draw the mixed negotiation cohort."""
    tier1, tier2, tier3, stubs = _SCALES[scale]["topology"]
    graph = generate_topology(
        num_tier1=tier1, num_tier2=tier2, num_tier3=tier3, num_stubs=stubs, seed=seed
    ).graph
    population = default_population_spec(seed=seed).resolve(graph)
    ases = sorted(graph)
    rng = np.random.default_rng(seed)
    num_pairs = _SCALES[scale]["pairs"]
    left = rng.integers(0, len(ases), size=num_pairs)
    right = rng.integers(0, len(ases) - 1, size=num_pairs)
    utilities = rng.uniform(-1.0, 1.0, size=(num_pairs, 2))
    entries = []
    for i in range(num_pairs):
        x = ases[int(left[i])]
        y = ases[int(right[i]) + (int(right[i]) >= int(left[i]))]
        width = min(
            population.behavior_for(x).num_choices or DEFAULT_WIDTH,
            population.behavior_for(y).num_choices or DEFAULT_WIDTH,
        )
        entries.append(
            CohortEntry(
                key=width,
                utility_x=float(utilities[i, 0]),
                utility_y=float(utilities[i, 1]),
            )
        )
    return population, entries


def test_mixed_cohort_speedup(paper_scale):
    scale = _scale_name(paper_scale)
    seed = 2021
    population, entries = _build_cohort(scale, seed)

    census = population.census()
    if scale == "full":
        # The acceptance bar of the subsystem: a 2,000+-AS population
        # genuinely mixing the profiles, not a degenerate cohort.
        assert sum(census.values()) >= 2000
        assert len(census) >= 4

    service = BoscoService(paper_distribution_u1(), seed=seed)
    trials = _SCALES[scale]["trials"]
    mechanisms = {
        width: service.configure(width, trials=trials)
        for width in sorted({entry.key for entry in entries})
    }

    started = time.perf_counter()
    reference = decide_sequential(mechanisms, entries)
    reference_time = time.perf_counter() - started

    started = time.perf_counter()
    batched = decide_mixed_cohort(mechanisms, entries)
    batched_time = time.perf_counter() - started

    # Bit-identical at every scale — never approximately equal: the
    # heterogeneous marketplace trace hangs off this equality.
    assert batched == reference

    speedup = reference_time / batched_time if batched_time > 0.0 else float("inf")
    concluded = sum(1 for outcome in batched if outcome.concluded)
    emit(
        "marketplace",
        wall_time_s=batched_time,
        operations=len(entries),
        scale={
            "name": scale,
            "seed": seed,
            "topology": list(_SCALES[scale]["topology"]),
            "pairs": len(entries),
            "trials": trials,
            "widths": sorted(mechanisms),
        },
        extra={
            "reference_wall_time_s": reference_time,
            "speedup": speedup,
            "num_ases": sum(census.values()),
            "num_profiles": len(census),
            "concluded_fraction": concluded / len(entries),
        },
    )
    print(
        f"\n[{scale}] mixed-cohort flush, {len(entries)} negotiations over "
        f"W={sorted(mechanisms)} ({sum(census.values())} ASes, "
        f"{len(census)} profiles): reference {reference_time:.3f}s, "
        f"sub-batched {batched_time:.3f}s, speedup {speedup:.1f}x"
    )

    if scale == "full":
        assert speedup >= FULL_SCALE_MIN_SPEEDUP, (
            f"mixed-cohort sub-batching regressed: {speedup:.1f}x < "
            f"{FULL_SCALE_MIN_SPEEDUP:.0f}x at paper scale"
        )
